"""Exact generators, semigroup moments, martingale identity."""

import numpy as np
import pytest
import scipy.sparse as sp

from pamse import exact
from pamse.fields import PsiSpec, psi_joint_matrix
from pamse.lattice import Torus, srw_kernel


def _free_generator(spec, walker_frame=False):
    """L + kappa sum_i Delta_i without the potential: a Markov generator."""
    return exact._joint_free_generator(spec, 1.0, spec.kappa, walker_frame)


def _start_moment(spec, v):
    """<nu_rho x delta_{all walkers at 0}, v> on the full basis."""
    return float(exact.nu_weights(spec.n_sites, spec.rho) @ v[::spec.n_walker])


def _oriented_se_generator(torus, kernel):
    """Independent construction from the oriented-jump form: a particle at x
    jumps to a vacancy at y at rate p(x, y)."""
    n = torus.n_sites
    eta = np.arange(2**n, dtype=np.int64)
    rows, cols, vals = [], [], []
    for vec, w in kernel.offsets:
        perm = torus.shift_table(vec)
        for x in range(n):
            y = int(perm[x])
            if y == x:
                continue
            occ_x = (eta >> x) & 1
            occ_y = (eta >> y) & 1
            ok = (occ_x == 1) & (occ_y == 0)
            src = eta[ok]
            dst = src ^ ((1 << x) | (1 << y))
            rows.append(src)
            cols.append(dst)
            vals.append(np.full(len(src), kernel.rate * w))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    gen = sp.coo_matrix((vals, (rows, cols)), shape=(2**n, 2**n)).tocsr()
    return gen - sp.diags(np.asarray(gen.sum(axis=1)).ravel())


@pytest.fixture
def spec6():
    return exact.OperatorSpec(torus=Torus(1, 6), kernel=srw_kernel(1),
                              kappa=0.5, p=1, rho=0.5)


class TestSeGenerator:
    def test_single_site_zero(self):
        # L=2 in d=1 wraps into a doubled bond; the two mixed states swap
        gen = exact.build_se_generator(Torus(1, 2), srw_kernel(1))
        dense = gen.toarray()
        # states: 0=00, 1=10, 2=01, 3=11
        assert dense[1, 2] == pytest.approx(1.0)  # both wrap edges add up
        assert dense[2, 1] == pytest.approx(1.0)
        assert dense[0, 0] == 0.0 and dense[3, 3] == 0.0

    def test_oriented_form_agrees(self):
        trs = Torus(1, 4)
        k = srw_kernel(1)
        a = exact.build_se_generator(trs, k)
        b = _oriented_se_generator(trs, k)
        assert abs(a - b).max() < 1e-14

    def test_row_sums_vanish(self):
        gen = exact.build_se_generator(Torus(1, 5), srw_kernel(1))
        np.testing.assert_allclose(np.asarray(gen.sum(axis=1)).ravel(), 0.0,
                                   atol=1e-14)

    def test_memoized_read_only(self):
        trs, k = Torus(1, 5), srw_kernel(1)
        gen = exact.build_se_generator(trs, k)
        assert exact.build_se_generator(Torus(1, 5), srw_kernel(1)) is gen
        with pytest.raises(ValueError):
            gen.data[0] = 1.0

    def test_state_cap_still_raises(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                exact.build_se_generator(Torus(1, 19), srw_kernel(1))

    def test_conserves_particle_sectors(self):
        trs = Torus(1, 4)
        gen = exact.build_se_generator(trs, srw_kernel(1)).tocoo()
        bits = exact.occupation_bits(4)
        for i, j in zip(gen.row, gen.col):
            assert bits[i].sum() == bits[j].sum()


class TestJointGenerator:
    def test_kappa_zero_block_diagonal(self):
        spec = exact.OperatorSpec(torus=Torus(1, 4), kernel=srw_kernel(1),
                                  kappa=0.0, p=1, rho=0.5)
        op = _free_generator(spec)
        grid = op.toarray().reshape(16, 4, 16, 4)
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert np.abs(grid[:, a, :, b]).max() == 0.0

    def test_markov_without_potential(self, spec6):
        op = _free_generator(spec6)
        np.testing.assert_allclose(np.asarray(op.sum(axis=1)).ravel(), 0.0,
                                   atol=1e-12)

    def test_potential_on_diagonal_only(self, spec6):
        with_v = exact.build_joint_generator(spec6).matrix
        without = _free_generator(spec6)
        diff = (with_v - without).tocoo()
        assert np.all(diff.row == diff.col)
        np.testing.assert_allclose(np.sort(diff.data),
                                   np.sort(exact.potential_diag(spec6)[diff.row]))

    def test_cap_enforced(self):
        # the walker frame of d=1, L=14, p=3 has 2^14 * 14^2 states
        spec = exact.OperatorSpec(torus=Torus(1, 14), kernel=srw_kernel(1),
                                  kappa=1.0, p=3, rho=0.5)
        with pytest.raises(ValueError, match="exceeds cap"):
            exact.log_moment(spec, 1.0)

    def test_cap_counts_built_dimension(self, monkeypatch):
        # a cap between the frame (2^6 * 6) and full (2^6 * 36) dimensions
        monkeypatch.setattr(exact, "DEFAULT_STATE_CAP", 2**6 * 6)
        spec = exact.OperatorSpec(torus=Torus(1, 6), kernel=srw_kernel(1),
                                  kappa=1.0, p=2, rho=0.5)
        assert exact.build_joint_generator(spec, walker_frame=True).dim == 2**6 * 6
        assert np.isfinite(exact.log_moment(spec, 1.0))
        with pytest.raises(ValueError, match="exceeds cap"):
            exact.build_joint_generator(spec)

    @pytest.mark.parametrize("field, value", [("rho", 0.0), ("rho", 1.0),
                                              ("kappa", -0.5), ("p", -1)])
    def test_spec_rejects_bad_model(self, field, value):
        kw = dict(torus=Torus(1, 4), kernel=srw_kernel(1), kappa=1.0, p=1, rho=0.5)
        kw[field] = value
        with pytest.raises(ValueError):
            exact.OperatorSpec(**kw)


def _frame_cases():
    for d, sides, ps in ((1, (2, 5, 6), (1, 2, 3)), (2, (2, 3), (1, 2))):
        for L in sides:
            for p in ps:
                for kappa in (0.0, 0.3, 1.3):
                    for gamma in (0.5, 1.0):
                        yield d, L, p, kappa, gamma


def _frame_spec(d, L, p, kappa, gamma):
    return exact.OperatorSpec(torus=Torus(d, L), kernel=srw_kernel(d), kappa=kappa,
                              p=p, rho=0.35, gamma=gamma)


class TestWalkerFrame:
    @pytest.mark.parametrize("d, L, p, kappa, gamma", list(_frame_cases()))
    def test_log_moment_matches_full_basis(self, d, L, p, kappa, gamma):
        from scipy.sparse.linalg import expm_multiply

        spec = _frame_spec(d, L, p, kappa, gamma)
        t = 1.7
        shift = spec.gamma * spec.p
        op = exact.build_joint_generator(spec)
        v = expm_multiply((op.matrix - sp.identity(op.dim) * shift) * t, np.ones(op.dim))
        full = np.log(_start_moment(spec, v)) + shift * t
        assert exact.log_moment(spec, t) == pytest.approx(full, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d, L, p, walker_frame", [
        pytest.param(1, 5, 1, True, id="1-5-1"), pytest.param(1, 5, 3, True, id="1-5-3"),
        pytest.param(1, 6, 2, True, id="1-6-2"), pytest.param(2, 3, 2, True, id="2-3-2"),
        pytest.param(1, 4, 1, False, id="1-4-1-full-basis")])
    def test_frame_generator_reversible(self, d, L, p, walker_frame):
        # D G_V is symmetric for D the nu_rho x counting weights
        spec = _frame_spec(d, L, p, 1.3, 0.5)
        op = exact.build_joint_generator(spec, walker_frame=walker_frame)
        assert op.dim * (spec.n_sites if walker_frame else 1) == spec.joint_dim
        w = np.repeat(exact.nu_weights(spec.n_sites, spec.rho), op.n_walker)
        m = sp.diags(w) @ op.matrix
        assert abs(m - m.T).max() <= 1e-12

    def test_frame_markov_without_potential(self):
        spec = _frame_spec(2, 3, 2, 0.7, 1.0)
        op = _free_generator(spec, walker_frame=True)
        np.testing.assert_allclose(np.asarray(op.sum(axis=1)).ravel(), 0.0,
                                   atol=1e-12)

    def test_kappa_zero_frame_is_fast_path(self):
        spec = _frame_spec(1, 6, 1, 0.0, 0.5)
        frame = exact.build_joint_generator(spec, walker_frame=True).matrix
        fast = exact._frozen_walker_generator(spec)
        assert frame.shape == fast.shape
        assert (frame != fast).nnz == 0

    def test_lift_is_translation_covariant(self):
        spec = _frame_spec(1, 5, 2, 0.3, 1.0)
        m = spec.n_sites ** (spec.p - 1)
        g = np.arange(spec.n_eta * m, dtype=float)
        f = exact.lift_frame_vector(spec, g).reshape(spec.n_eta, spec.n_sites, spec.n_sites)
        # walker 1 at the origin reads the frame as it is
        np.testing.assert_array_equal(f[:, 0, :], g.reshape(spec.n_eta, m))
        # f(tau_1 eta, x - 1) = f(eta, x): one translation of everything
        shifted = exact.shifted_configs(spec.torus, (1,))
        back = (np.arange(5) - 1) % 5
        np.testing.assert_array_equal(f[shifted][:, back][:, :, back], f)


class TestMoments:
    def test_time_zero(self, spec6):
        assert exact.exact_moment(spec6, 0.0) == pytest.approx(1.0)
        prof = exact.exact_lambda_profile(spec6, [0.0, 1.0])
        assert np.isnan(prof[0]) and np.isfinite(prof[1])

    def test_bounded_by_potential_ceiling(self, spec6):
        for t in (0.5, 2.0, 8.0):
            lam = exact.exact_lambda_profile(spec6, [t])[0]
            assert spec6.rho - 1e-12 <= lam <= 1.0 + 1e-12

    def test_negative_time_rejected(self, spec6):
        with pytest.raises(ValueError):
            exact.exact_moment(spec6, -1.0)

    def test_kappa_zero_fast_path_matches_joint(self):
        trs = Torus(1, 4)
        spec = exact.OperatorSpec(torus=trs, kernel=srw_kernel(1), kappa=0.0,
                                  p=2, rho=0.4)
        fast = exact.log_moment(spec, 3.0)
        # generic route: same operator with the kappa-zero walker block kept
        op = exact.build_joint_generator(spec)
        from scipy.sparse.linalg import expm_multiply
        shift = spec.gamma * spec.p
        mat = op.matrix - sp.identity(op.dim) * shift
        v = expm_multiply(mat * 3.0, np.ones(op.dim))
        generic = np.log(_start_moment(spec, v)) + shift * 3.0
        assert fast == pytest.approx(generic, abs=1e-10)

    def test_holder_monotonicity(self):
        trs = Torus(1, 6)
        lams = []
        for p in (1, 2, 3):
            spec = exact.OperatorSpec(torus=trs, kernel=srw_kernel(1),
                                      kappa=0.3, p=p, rho=0.5)
            lams.append(exact.exact_lambda_profile(spec, [3.0])[0])
        assert lams[0] <= lams[1] + 1e-12 <= lams[2] + 2e-12

    def test_gamma_scaling(self):
        trs = Torus(1, 4)
        base = exact.OperatorSpec(torus=trs, kernel=srw_kernel(1), kappa=0.5,
                                  p=1, rho=0.5, gamma=1.0)
        half = exact.OperatorSpec(torus=trs, kernel=srw_kernel(1), kappa=0.5,
                                  p=1, rho=0.5, gamma=0.5)
        # weaker coupling cannot increase the moment
        assert exact.exact_moment(half, 2.0) < exact.exact_moment(base, 2.0)

    def test_slope_approaches_top_eigenvalue(self, spec6):
        from pamse.variational import top_eigenvalue

        slope = exact.moment_slope(spec6, 300.0)
        mu = top_eigenvalue(spec6).mu
        assert abs(slope - mu) < 1e-8


class TestMartingale:
    def _setup(self, T=1.0, kappa=1.0):
        trs = Torus(1, 4)
        spec = exact.OperatorSpec(torus=trs, kernel=srw_kernel(1), kappa=kappa,
                                  p=1, rho=0.5)
        gen = exact.build_scaled_generator(spec).matrix
        psi = psi_joint_matrix(PsiSpec(kappa=kappa, T=T, torus=trs, rho=0.5)).ravel()
        return gen, psi

    def test_zero_tilt(self):
        gen, psi = self._setup()
        assert exact.martingale_check(gen, psi, 0.0, 1.0, 1.0) < 1e-12

    def test_constant_field_cancels(self):
        gen, _ = self._setup()
        psi = np.full(gen.shape[0], 3.7)
        assert exact.martingale_check(gen, psi, 2.0, 1.0, 1.5) < 1e-12

    def test_smoothing_field_tilt(self):
        gen, psi = self._setup(T=1.0, kappa=1.0)
        assert exact.martingale_check(gen, psi, 0.5, 1.0, 1.0) < 1e-8

    def test_smoothing_field_residual_identity(self):
        # -A psi must equal phi - P_T phi on the joint space
        from scipy.sparse.linalg import expm_multiply

        trs = Torus(1, 4)
        kappa, T = 1.0, 1.3
        spec = exact.OperatorSpec(torus=trs, kernel=srw_kernel(1), kappa=kappa,
                                  p=1, rho=0.5)
        gen = exact.build_scaled_generator(spec).matrix
        psi = psi_joint_matrix(PsiSpec(kappa=kappa, T=T, torus=trs, rho=0.5)).ravel()
        bits = exact.occupation_bits(4).astype(float)
        phi = np.stack([bits[:, x] - 0.5 for x in range(4)], axis=1).ravel()
        lhs = -(gen @ psi)
        rhs = phi - expm_multiply(gen * T, phi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
