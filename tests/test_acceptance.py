"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion; `pamse selftest` drives the same battery from the CLI.
`pytest -m "not acceptance"` runs every other test without it.
"""

import dataclasses

import pytest
import scipy.sparse as sp

from pamse import acceptance, fields
from pamse import montecarlo as mc
from pamse import variational as var
from pamse.lattice import one_kappa

pytestmark = pytest.mark.acceptance


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[fn.__name__ for fn in acceptance.ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.fixture
def fresh_chi_cache():
    # the chi grid and its gradients are memoized per PsiSpec: a mutant neither
    # reads nor leaves one
    caches = (fields._chi_grid_cached, fields._chi_spectrum, fields._chi_gradients)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_criterion_1_fails_on_heat_time_times_1_1(monkeypatch):
    # the exact means then read the heat kernel at 1.1 t: at the full
    # n = 100,000 the five pairs land 16.7, 12.3, 9.9, 2.8 and 4.2 sigma off
    # against a 4-sigma gate
    heat = acceptance.torus_heat_matrix
    monkeypatch.setattr(acceptance, "torus_heat_matrix",
                        lambda torus, kernel, t: heat(torus, kernel, 1.1 * t))
    assert acceptance.criterion_1_graphical_mean().passed is False


def _scaled_kappa(monkeypatch):
    build = acceptance.build_scaled_generator
    monkeypatch.setattr(acceptance, "build_scaled_generator",
                        lambda spec: build(dataclasses.replace(spec, kappa=1.1 * spec.kappa)))


def _unit_one_kappa(monkeypatch):
    for module in (acceptance, fields):
        monkeypatch.setattr(module, "one_kappa", lambda d, kappa: 1.0)


@pytest.mark.parametrize("mutate", [
    pytest.param(_scaled_kappa, id="generator_at_1.1_kappa"),
    pytest.param(_unit_one_kappa, id="unit_one_kappa")])
def test_criterion_4_fails_on_wrong_drift(monkeypatch, fresh_chi_cache, mutate):
    # worst deviations 3.8e-2 and 0.79 against a 1e-10 gate
    mutate(monkeypatch)
    assert acceptance.criterion_4_martingale().passed is False


def test_criterion_8_fails_on_unit_one_kappa(monkeypatch):
    # the exact value then runs on the walk's clock alone: the Monte Carlo
    # mean, which never reads one_kappa, lands about 6 sigma away at n = 300
    monkeypatch.setattr(mc, "one_kappa", lambda d, kappa: 1.0)
    assert acceptance.criterion_8_asymptotic_probe(n=300).passed is False


def test_criterion_8_fails_on_reference_without_one_kappa(monkeypatch):
    # the reference then reads G_4 / (2d), 1.45% off the exact value and
    # outside the 0.5% band; the Monte Carlo mean stays within 4 sigma
    green = mc.green
    monkeypatch.setattr(mc, "green",
                        lambda *args, **kwargs: green(*args, **kwargs) * one_kappa(4, 10.0))
    assert acceptance.criterion_8_asymptotic_probe(n=300).passed is False


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


def test_criterion_11_fails_on_leaking_generator(monkeypatch):
    # a walk that loses mass at rate 0.01 no longer conserves sum_x v
    generator = fields.Region.generator

    def leaking(region, kernel):
        gen = generator(region, kernel)
        return (gen - 0.01 * sp.identity(gen.shape[0])).tocsr()

    monkeypatch.setattr(fields.Region, "generator", leaking)
    result = acceptance.criterion_11_cauchy()
    assert result.passed is False
    assert result.detail["box_residual"] > 1e-8
