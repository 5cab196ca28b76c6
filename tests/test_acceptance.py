"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion; `pamse selftest` drives the same battery from the CLI.
`pytest -m "not acceptance"` runs every other test without it.
"""

import pytest

from pamse import acceptance

pytestmark = pytest.mark.acceptance


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[fn.__name__ for fn in acceptance.ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, f"{result.name}: {result.detail}"
