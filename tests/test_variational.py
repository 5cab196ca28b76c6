"""Rayleigh quotients, top eigenvalues, bump bound, tilt maximization."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pamse import exact, variational as var
from pamse.exclusion import torus_bonds
from pamse.lattice import Kernel, Torus, srw_kernel

_CAT4 = Kernel(d=1, offsets=(((1,), 0.25), ((-1,), 0.25), ((2,), 0.25), ((-2,), 0.25)))


@pytest.fixture
def spec6():
    return exact.OperatorSpec(torus=Torus(1, 6), kernel=srw_kernel(1),
                              kappa=0.7, p=1, rho=0.5)


def _symmetrized_frame(spec):
    """0.5 (S + S^T) for S = D^{1/2} G D^{-1/2}, G the walker-frame joint
    generator and D its nu_rho weights, with the particle count of every
    frame state."""
    gen = exact.build_joint_generator(spec, walker_frame=True)
    stride = gen.shape[0] // spec.n_eta
    sq = np.sqrt(np.repeat(exact.nu_weights(spec.n_sites, spec.rho), stride))
    sym = sp.diags(sq) @ gen @ sp.diags(1.0 / sq)
    count = np.repeat(exact.occupation_bits(spec.n_sites).sum(axis=1), stride)
    return 0.5 * (sym + sym.T), count


def _quadratic_form_parts(f, spec):
    """Independent route to the quadratic form, bond by bond: (potential part,
    exclusion Dirichlet form, walker Dirichlet form), so that
    (G f, f) = part1 - part2 - kappa * part3."""
    n = spec.n_sites
    w_eta = exact.nu_weights(n, spec.rho)
    w = np.repeat(w_eta, spec.n_walker)
    vals = f.values
    a1 = float(np.sum(w * exact.potential_diag(spec) * vals**2))

    grid = vals.reshape(spec.n_eta, spec.n_walker)
    a2 = 0.0
    eta = np.arange(spec.n_eta, dtype=np.int64)
    a_idx, b_idx, rates = torus_bonds(spec.torus, spec.kernel)
    for ai, bi, r in zip(a_idx, b_idx, rates):
        if ai == bi:
            continue
        swapped = eta ^ ((1 << int(ai)) | (1 << int(bi)))
        bit_a = (eta >> int(ai)) & 1
        bit_b = (eta >> int(bi)) & 1
        act = bit_a != bit_b  # swap changes the state only across such bonds
        diff = grid[swapped[act]] - grid[act]
        a2 += 0.5 * r * float(np.sum(w_eta[act, None] * diff**2))

    a3 = 0.0
    walker = np.arange(spec.n_walker)
    moves = spec.torus.unit_moves()
    for i in range(spec.p):
        x_i = (walker // n ** (spec.p - 1 - i)) % n
        for perm in moves:
            moved = walker + (perm[x_i] - x_i) * n ** (spec.p - 1 - i)
            diff = grid[:, moved] - grid
            a3 += 0.5 * float(np.sum(w_eta[:, None] * diff**2))
    return a1, a2, a3


class TestRayleighQuotient:
    def test_matches_matrix_form(self, spec6):
        for seed in range(5):
            f = var.random_test_function(spec6, seed)
            a1, a2, a3 = _quadratic_form_parts(f, spec6)
            assert var.rayleigh_quotient(f) == pytest.approx(
                a1 - a2 - spec6.kappa * a3, abs=1e-12)

    def test_unnormalized_rejected(self, spec6):
        f = var.TestFunction(np.ones(spec6.joint_dim) * 3.0, spec6)
        with pytest.raises(ValueError):
            var.rayleigh_quotient(f)

    def test_eta_constant_point_mass(self):
        # constant in the configuration, point mass in the walker: the
        # exclusion form vanishes and the quotient is rho - kappa * 2d
        spec = exact.OperatorSpec(torus=Torus(1, 4), kernel=srw_kernel(1),
                                  kappa=0.3, p=1, rho=0.5)
        vals = np.zeros((16, 4))
        vals[:, 1] = 1.0
        f = var.TestFunction(vals.ravel(), spec).normalized()
        a1, a2, a3 = _quadratic_form_parts(f, spec)
        assert a2 == pytest.approx(0.0, abs=1e-14)
        assert a1 == pytest.approx(0.5, abs=1e-12)
        assert var.rayleigh_quotient(f) == pytest.approx(
            0.5 - 0.3 * a3, abs=1e-12)

    def test_never_exceeds_top(self, spec6):
        top = var.top_eigenvalue(spec6)
        for seed in range(100):
            q = var.rayleigh_quotient(var.random_test_function(spec6, seed))
            assert q <= top.mu + 1e-9

    def test_top_eigenvector_attains(self, spec6):
        top = var.top_eigenvalue(spec6)
        f = var.TestFunction(top.vector, spec6).normalized()
        assert var.rayleigh_quotient(f) == pytest.approx(top.mu, abs=1e-9)


class TestTopEigenvalue:
    def test_zero_potential_is_zero(self):
        spec = exact.OperatorSpec(torus=Torus(1, 4), kernel=srw_kernel(1),
                                  kappa=0.5, p=1, rho=0.5, gamma=0.0)
        top = var.top_eigenvalue(spec)
        assert top.mu == pytest.approx(0.0, abs=1e-10)

    def test_exceeds_density_at_zero_kappa(self):
        spec = exact.OperatorSpec(torus=Torus(1, 6), kernel=srw_kernel(1),
                                  kappa=0.0, p=1, rho=0.5)
        top = var.top_eigenvalue(spec)
        assert top.lam > 0.5

    def test_lanczos_matches_dense(self, spec6, monkeypatch):
        monkeypatch.setattr(var, "DENSE_CUTOFF", 10**9)
        dense = var.top_eigenvalue(spec6)
        monkeypatch.setattr(var, "DENSE_CUTOFF", 0)
        lanczos = var.top_eigenvalue(spec6)
        assert lanczos.method == "lanczos"
        assert lanczos.mu == pytest.approx(dense.mu, abs=1e-8)
        assert lanczos.converged

    @pytest.mark.parametrize("d, L, p, kappa, dense_cutoff", [
        (1, 6, 1, 0.7, 1200), (1, 6, 1, 0.7, 0), (1, 5, 2, 0.3, 1200),
        (1, 5, 3, 1.3, 1200), (2, 3, 2, 0.3, 0), (1, 9, 1, 0.0, 0)])
    def test_lifted_vector_solves_full_basis(self, d, L, p, kappa, dense_cutoff,
                                             monkeypatch):
        monkeypatch.setattr(var, "DENSE_CUTOFF", dense_cutoff)
        spec = exact.OperatorSpec(torus=Torus(d, L), kernel=srw_kernel(d),
                                  kappa=kappa, p=p, rho=0.35, gamma=0.5)
        top = var.top_eigenvalue(spec)
        op = exact.build_joint_generator(spec)
        w = np.repeat(exact.nu_weights(spec.n_sites, spec.rho), spec.n_walker)
        assert top.vector.shape == (spec.joint_dim,)
        assert np.sum(w * top.vector**2) == pytest.approx(1.0, abs=1e-12)
        r = op @ top.vector - top.mu * top.vector
        resid = np.sqrt(np.sum(w * r**2))
        assert resid <= 1e-8
        assert top.residual == pytest.approx(resid, abs=1e-12)
        f = var.TestFunction(top.vector, spec)
        assert var.rayleigh_quotient(f) == pytest.approx(top.mu, abs=1e-9)

    def test_repeated_calls_agree_bit_for_bit(self):
        # 2,048 frame states; the blocks of 330 and 462 states take the Lanczos path
        spec = exact.OperatorSpec(torus=Torus(1, 11), kernel=srw_kernel(1),
                                  kappa=0.5, p=1, rho=0.45)
        first, second = var.top_eigenvalue(spec), var.top_eigenvalue(spec)
        assert first.method == "lanczos"
        assert first.mu.hex() == second.mu.hex()
        assert first.vector.tobytes() == second.vector.tobytes()
        assert first.residual.hex() == second.residual.hex()

    def test_zero_potential_lanczos_blocks(self, monkeypatch):
        # with gamma = 0 the symmetrized constant is an exact eigenvector of
        # every block, so it must not be the Lanczos start
        monkeypatch.setattr(var, "DENSE_CUTOFF", 0)
        spec = exact.OperatorSpec(torus=Torus(1, 8), kernel=srw_kernel(1),
                                  kappa=0.5, p=2, rho=0.4, gamma=0.0)
        top = var.top_eigenvalue(spec)
        assert top.method == "lanczos"
        assert top.mu == pytest.approx(0.0, abs=1e-10)
        assert top.converged

    @pytest.mark.parametrize("d, L, kernel", [
        (1, 6, "srw"), (1, 6, "cat4"), (2, 2, "srw"), (2, 3, "srw")])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_frame_operator_keeps_particle_number(self, d, L, kernel, p):
        spec = exact.OperatorSpec(torus=Torus(d, L), kappa=0.6, p=p, rho=0.35,
                                  kernel=_CAT4 if kernel == "cat4" else srw_kernel(d))
        both, count = _symmetrized_frame(spec)
        both = both.tocoo()
        assert both.nnz > 0
        assert np.array_equal(count[both.row], count[both.col])

    @pytest.mark.parametrize("d, L, kernel, p, kappa, gamma", [
        (1, 6, "srw", 1, 0.7, 1.0), (1, 6, "cat4", 2, 0.4, 1.0),
        (1, 8, "srw", 1, 0.0, 1.0), (1, 7, "srw", 1, 1.1, 0.0),
        (1, 5, "srw", 2, 0.3, 0.5), (1, 4, "srw", 3, 1.3, 0.8),
        (2, 2, "srw", 3, 0.5, 1.0), (2, 3, "srw", 1, 0.9, 0.6),
        (1, 10, "srw", 1, 0.5, 0.7), (1, 6, "srw", 0, 0.5, 1.0)])
    def test_block_maximum_matches_whole_frame(self, d, L, kernel, p, kappa, gamma):
        spec = exact.OperatorSpec(torus=Torus(d, L), kappa=kappa, p=p, rho=0.35,
                                  gamma=gamma,
                                  kernel=_CAT4 if kernel == "cat4" else srw_kernel(d))
        both, _ = _symmetrized_frame(spec)
        assert both.shape[0] <= 1200
        want = np.linalg.eigvalsh(both.toarray())[-1]
        assert var.top_eigenvalue(spec).mu == pytest.approx(want, abs=1e-12)

    def test_kappa_grid_monotone_convex(self):
        trs = Torus(1, 6)
        lams = []
        for kap in np.arange(0.0, 4.01, 0.5):
            spec = exact.OperatorSpec(torus=trs, kernel=srw_kernel(1),
                                      kappa=float(kap), p=1, rho=0.5)
            lams.append(var.top_eigenvalue(spec).lam)
        lams = np.array(lams)
        assert np.all(np.diff(lams) <= 1e-9)
        assert np.all(np.diff(lams, 2) >= -1e-9)


class TestBumpBound:
    def test_small_epsilon_approaches_density(self):
        trs = Torus(1, 64)
        vals = [var.test_function_bound(eps, 0.5, 1.0, trs).bound
                for eps in (0.2, 0.1, 0.05, 0.01)]
        assert abs(vals[-1] - 0.5) < abs(vals[0] - 0.5)
        assert vals[-1] == pytest.approx(0.5, abs=2e-2)

    def test_strictly_above_density(self):
        bb = var.test_function_bound(0.2, 0.5, 1.0, Torus(1, 64))
        assert bb.bound > 0.5
        assert bb.phi_energy <= 0.2**2 + 1e-12

    def test_energy_budget_unattainable(self):
        with pytest.raises(ValueError):
            var.test_function_bound(1e-4, 0.5, 1.0, Torus(1, 4))

    def test_matches_explicit_quotient(self):
        trs = Torus(1, 8)
        spec = exact.OperatorSpec(torus=trs, kernel=srw_kernel(1), kappa=0.8,
                                  p=1, rho=0.4)
        bb = var.test_function_bound(0.3, 0.4, 0.8, trs)
        f = var.bump_as_test_function(bb, spec).normalized()
        assert var.rayleigh_quotient(f) == pytest.approx(bb.bound, abs=1e-12)
        assert bb.bound <= var.top_eigenvalue(spec).mu + 1e-9


class TestTiltMaximization:
    def test_zero_at_density(self):
        assert var.psi_rate_bound(0.5, 0.5, 1.5) == 0.0
        assert var.psi_rate_bound(0.2, 0.5, 1.5) > 0.0

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError):
            var.psi_rate_bound(1.2, 0.5, 1.5)

    def test_zero_tilt(self):
        tm = var.varadhan_closed_form(0.0, 0.5, 1.5)
        assert tm.value == 0.0 and tm.maximizer == pytest.approx(0.5)

    def test_strong_tilt_rejected(self):
        with pytest.raises(ValueError):
            var.varadhan_closed_form(0.5, 0.5, 1.5)

    def test_closed_form_literal(self):
        # gamma=0.1 sits just beyond the interior regime here: the stationary
        # point 0.5/(1-0.3032772)^2 = 1.03 exceeds 1, so the constrained max
        # lands on the boundary and the interior display is only 5e-5 close.
        got = var.varadhan_closed_form(0.1, 0.5, 1.516386)
        grid = var.occupation_tilt_max(0.1, 0.5, 1.516386)
        assert got.value == pytest.approx(grid.value, abs=1e-8)
        assert not got.interior and got.maximizer == 1.0
        interior_display = 0.05 / (1 - 0.3032772)
        assert got.value == pytest.approx(interior_display, abs=1e-4)
        # safely inside the regime the display is exact
        small = var.varadhan_closed_form(0.05, 0.5, 1.516386)
        assert small.interior
        assert small.value == pytest.approx(0.025 / (1 - 0.1516386), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.2, 0.8), st.floats(0.005, 0.05), st.floats(0.5, 1.6))
    def test_grid_agrees_with_closed_form(self, rho, gamma, G):
        closed = var.varadhan_closed_form(gamma, rho, G)
        grid = var.occupation_tilt_max(gamma, rho, G)
        assert closed.value == pytest.approx(grid.value, abs=1e-8)
