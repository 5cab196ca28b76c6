"""Every benchmark check accepts a right value and rejects one wrong value.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses

import numpy as np
import pytest

import checks
import pamse
import reference as ref
import workloads as wl
from pamse import exact
from pamse.lattice import Torus, srw_kernel


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def test_ring_moment_matches_program_and_known_value():
    spec = exact.OperatorSpec(torus=Torus(1, 6), kernel=srw_kernel(1), kappa=0.5,
                              p=1, rho=0.5)
    value = ref.ring_moment(6, 1, 0.5, 0.5, 2.0)
    assert value == pytest.approx(exact.exact_moment(spec, 2.0), rel=1e-12)
    assert value == pytest.approx(3.4227722111258, rel=1e-12)


def test_ring_generator_is_markov_without_potential():
    gen = ref.ring_joint_generator(5, 2, 0.7, gamma=0.0)
    assert np.abs(np.asarray(gen.sum(axis=1))).max() < 1e-12


def test_ring_references_reject_l2():
    with pytest.raises(ValueError):
        ref.ring_joint_generator(2, 1, 1.0)


def test_marginal_means_are_heat_kernel_sums():
    bits = np.zeros(8)
    bits[3] = 1
    means = ref.marginal_means(bits, 8, [(3, 0.0), (4, 50.0)])
    assert means[0] == pytest.approx(1.0)
    assert means[1] == pytest.approx(1 / 8, rel=1e-6)


def _program_basis_top_vector(L, p, kappa, rho):
    """Top eigenvector of the reference generator, moved to the package's
    joint basis (eta * L^p + walker multi-index) by index arithmetic."""
    gen = ref.ring_joint_generator(L, p, kappa).toarray()
    n_eta, n_walk = 2**L, L**p
    walk = np.arange(n_walk)
    # reference walker index sum_i x_i L^i  ->  package index sum_i x_i L^(p-1-i)
    pos = [(walk // L**i) % L for i in range(p)]
    prog_walk = sum(pos[i] * L ** (p - 1 - i) for i in range(p))
    ref_idx = (np.arange(n_eta)[:, None] + n_eta * walk[None, :]).ravel()
    prog_idx = (np.arange(n_eta)[:, None] * n_walk + prog_walk[None, :]).ravel()
    perm = np.empty(n_eta * n_walk, dtype=int)
    perm[prog_idx] = ref_idx
    g = gen[np.ix_(perm, perm)]
    w = np.repeat(ref.bernoulli_weights(L, rho), n_walk)
    sq = np.sqrt(w)
    sym = (sq[:, None] * g) / sq[None, :]
    evals, evecs = np.linalg.eigh(0.5 * (sym + sym.T))
    return evals[-1], evecs[:, -1] / sq


def test_weighted_residual_accepts_eigenvector_rejects_perturbed():
    mu, vec = _program_basis_top_vector(4, 2, 0.8, 0.4)
    res = ref.weighted_residual(vec, mu, 4, 2, 0.8, 0.4)
    assert checks.at_most(res, wl.ES_RESIDUAL_MAX) is None
    bad = vec.copy()
    bad[7] += 1e-3 * np.abs(vec).max()
    res_bad = ref.weighted_residual(bad, mu, 4, 2, 0.8, 0.4)
    assert checks.at_most(res_bad, wl.ES_RESIDUAL_MAX) is not None


def test_binomial_tail_is_two_sided():
    assert ref.binomial_two_sided_p(500, 1000, 0.5) == pytest.approx(1.0)
    low = ref.binomial_two_sided_p(420, 1000, 0.5)
    high = ref.binomial_two_sided_p(580, 1000, 0.5)
    assert low == pytest.approx(high)


# ---------------------------------------------------------------------------
# checks, one wrong value each
# ---------------------------------------------------------------------------


def test_rel_close_rejects_reference_times_one_plus_1e3():
    want = 3.4227722111258
    assert checks.rel_close(want * (1 + 1e-12), want, 1e-9) is None
    assert checks.rel_close(want, want * (1 + 1e-3), 1e-9) is not None
    assert checks.rel_close(float("nan"), want, 1e-9) is not None


def test_within_sigma_rejects_six_sigma():
    assert checks.within_sigma(1.0 + 4.9 * 0.01, 0.01, 1.0, 5.0) is None
    assert checks.within_sigma(1.0 + 6.0 * 0.01, 0.01, 1.0, 5.0) is not None
    assert checks.within_sigma(1.0, float("nan"), 1.0, 5.0) is not None


def test_probe_check_rejects_six_percent_off():
    want = ref.probe_reference(4, 10.0, ref.G4_LITERATURE)
    assert checks.within_sigma(want * 1.04, 1e-4, want, 5.0, rel_slack=0.05) is None
    assert checks.within_sigma(want * 1.06, 1e-4, want, 5.0, rel_slack=0.05) is not None


def test_binomial_consistent_rejects_far_counts():
    assert checks.binomial_consistent(1000, 2000, 0.5) is None
    assert checks.binomial_consistent(1200, 2000, 0.5) is not None
    assert checks.binomial_consistent(0, 2000, 1e-5) is None
    assert checks.binomial_consistent(4, 2000, 1e-5) is not None


def test_mu_and_lambda_ranges():
    p, gamma, rho = 2, 1.0, 0.4
    assert checks.in_range(2.0, p * gamma * rho, p * gamma, slack=1e-9) is None
    assert checks.in_range(2.0 + 1e-6, p * gamma * rho, p * gamma, slack=1e-9) is not None
    assert checks.in_range(0.7, p * gamma * rho, p * gamma, slack=1e-9) is not None
    assert checks.in_range(1.0 + 1e-9, gamma * rho, gamma, slack=1e-12) is not None
    assert checks.in_range(rho - 1e-9, gamma * rho, gamma, slack=1e-12) is not None


def test_holder_order_rejects_a_drop():
    assert checks.non_decreasing([0.6, 0.7, 0.8], 1e-12) is None
    assert checks.non_decreasing([0.6, 0.59, 0.8], 1e-12) is not None


def test_irw_margin_rejects_negative():
    assert checks.in_range(0.0, -1e-10, np.inf) is None
    assert checks.in_range(-1e-9, -1e-10, np.inf) is not None


def test_green_constants_reject_1e8_error():
    assert checks.rel_close(ref.G3_WATSON * (1 + 1e-11), ref.G3_WATSON, 1e-9) is None
    assert checks.rel_close(ref.G3_WATSON * (1 + 1e-8), ref.G3_WATSON, 1e-9) is not None


def test_field_bounds_reject_excess():
    assert checks.at_most(0.46, 2 * 5.0) is None
    assert checks.at_most(10.01, 2 * 5.0) is not None


def test_chi_mass_rejects_wrong_mass():
    assert checks.rel_close(5.0 * (1 + 1e-6), 5.0, 1e-9) is not None


def test_all_close_rejects_one_perturbed_site():
    psi = np.full(100, 2.5)
    assert checks.all_close(psi, 2.5, 1e-9) is None
    psi[17] += 1e-6
    assert "entry 17" in checks.all_close(psi, 2.5, 1e-9)
    psi[17] = np.nan
    assert checks.all_close(psi, 2.5, 1e-9) is not None


def test_direct_psi_matches_a_double_loop_and_the_program():
    L, d, rho = 5, 2, 0.3
    rng = np.random.default_rng(0)
    chi = rng.random(L**d)
    eta = (rng.random(L**d) < 0.5).astype(float)
    grid = chi.reshape(L, L)
    for x in (0, 7, 24):
        x0, x1 = divmod(x, L)
        want = sum(grid[(z0 - x0) % L, (z1 - x1) % L] * (eta[z0 * L + z1] - rho)
                   for z0 in range(L) for z1 in range(L))
        assert wl.direct_psi(chi, eta, rho, L, d, x) == pytest.approx(want, abs=1e-12)
    spec = pamse.fields.PsiSpec(kappa=2.0, T=1.0, torus=Torus(2, 7), rho=rho)
    bits = (rng.random(49) < 0.5).astype(float)
    psi = pamse.fields.psi_field(bits, spec)
    table = pamse.fields.chi_table(spec).values
    direct = [wl.direct_psi(table, bits, rho, 7, 2, x) for x in range(49)]
    assert checks.all_close(psi, direct, 1e-12) is None
    psi[3] += 1e-6
    assert checks.all_close(psi, direct, 1e-9) is not None


# ---------------------------------------------------------------------------
# the workloads apply the checks to the program's outputs
# ---------------------------------------------------------------------------


def _small_fk(monkeypatch):
    monkeypatch.setattr(wl, "FK_TRIALS", 200)
    monkeypatch.setattr(wl, "MARGINAL_TRIALS", 200)
    w = wl.FkReplay()
    inputs = w.build(3, pamse)
    return w, inputs, w.references(inputs)


def test_fk_round_passes_on_the_program(monkeypatch):
    w, inputs, refs = _small_fk(monkeypatch)
    log = wl.RoundLog()
    w.run_round(inputs, refs, 0, log, pamse)
    assert log.attempted == 3 and log.failed == 0 and log.problems == []


def test_fk_round_rejects_a_wrong_exact_moment(monkeypatch):
    w, inputs, refs = _small_fk(monkeypatch)
    real = pamse.harness.run_scenario

    def skewed(cfg):
        rep = real(cfg)
        rep.rows[0]["exact"] *= 1 + 1e-3
        return rep

    monkeypatch.setattr(pamse.harness, "run_scenario", skewed)
    log = wl.RoundLog()
    w.run_round(inputs, refs, 0, log, pamse)
    assert any("exact" in p for p in log.problems)


def test_fk_round_rejects_shifted_marginals(monkeypatch):
    w, inputs, refs = _small_fk(monkeypatch)
    real = pamse.exclusion.marginal_mc

    def shifted(*args):
        means, errs = real(*args)
        return np.clip(means + 0.3, 0, 1), errs

    monkeypatch.setattr(pamse.exclusion, "marginal_mc", shifted)
    log = wl.RoundLog()
    w.run_round(inputs, refs, 0, log, pamse)
    assert any("marginal_mc" in p for p in log.problems)


def test_fk_round_counts_a_raising_operation(monkeypatch):
    w, inputs, refs = _small_fk(monkeypatch)

    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(pamse.exclusion, "marginal_mc", broken)
    log = wl.RoundLog()
    w.run_round(inputs, refs, 0, log, pamse)
    assert log.attempted == 3 and log.failed == 1


def test_spectral_check_rejects_mu_above_p_gamma(monkeypatch):
    w = wl.ExactSpectral()
    spec = exact.OperatorSpec(torus=Torus(1, 5), kernel=srw_kernel(1), kappa=0.5,
                              p=2, rho=0.4)
    log = wl.RoundLog()
    lam = w._spectral(spec, 1.0, log, pamse)
    assert log.problems == [] and 0.4 <= lam <= 1.0
    real = pamse.variational.top_eigenvalue

    def inflated(s):
        return dataclasses.replace(real(s), mu=s.p * s.gamma * (1 + 1e-6))

    monkeypatch.setattr(pamse.variational, "top_eigenvalue", inflated)
    w._spectral(spec, 1.0, log, pamse)
    assert any("mu bounds" in p for p in log.problems)


def test_spectral_check_rejects_a_perturbed_vector(monkeypatch):
    w = wl.ExactSpectral()
    spec = exact.OperatorSpec(torus=Torus(1, 5), kernel=srw_kernel(1), kappa=0.5,
                              p=1, rho=0.4)
    real = pamse.variational.top_eigenvalue

    def perturbed(s):
        top = real(s)
        vec = top.vector.copy()
        vec[5] += 1e-3 * np.abs(vec).max()
        return dataclasses.replace(top, vector=vec)

    monkeypatch.setattr(pamse.variational, "top_eigenvalue", perturbed)
    log = wl.RoundLog()
    w._spectral(spec, 1.0, log, pamse)
    assert any("eigen-residual" in p for p in log.problems)


def test_spectral_check_rejects_lambda_above_ceiling(monkeypatch):
    w = wl.ExactSpectral()
    spec = exact.OperatorSpec(torus=Torus(1, 5), kernel=srw_kernel(1), kappa=0.5,
                              p=1, rho=0.4)
    monkeypatch.setattr(pamse.exact, "exact_lambda_profile",
                        lambda s, ts: np.array([1.0 + 1e-6]))
    log = wl.RoundLog()
    w._spectral(spec, 1.0, log, pamse)
    assert any("Jensen" in p for p in log.problems)
