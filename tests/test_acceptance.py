"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion; `pamse selftest` drives the same battery from the CLI.
`pytest -m "not acceptance"` runs every other test without it.
"""

import dataclasses

import pytest

from pamse import acceptance, fields
from pamse import variational as var

pytestmark = pytest.mark.acceptance


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[fn.__name__ for fn in acceptance.ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_5_fails_on_shifted_bump_bound(monkeypatch):
    bound = var.test_function_bound

    def shifted(*args):
        bump = bound(*args)
        return dataclasses.replace(bump, bound=bump.bound + 1e-9)

    monkeypatch.setattr(var, "test_function_bound", shifted)
    assert acceptance.criterion_5_spectral().passed is False


@pytest.mark.parametrize("scale", [
    pytest.param(lambda d: 1.0 / (2 * d), id="rate_2d_clock"),
    pytest.param(lambda d: 1.2, id="scaled_1.2")])
def test_criterion_11_fails_on_wrong_green_table(monkeypatch, scale):
    # the rate-2d table gives theta ~ 0.14, whose bound falls below max w;
    # the scaled one gives theta > 1 and no certificate
    table = fields.green_window_table
    monkeypatch.setattr(fields, "green_window_table",
                        lambda kernel, torus: table(kernel, torus) * scale(kernel.d))
    assert acceptance.criterion_11_cauchy().passed is False
