"""Exact generators, semigroup moments, the smoothing field's Poisson equation."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from pamse import exact, variational
from pamse.fields import PsiSpec, Region, halfspace_region, psi_joint_matrix
from pamse.lattice import Kernel, Torus, srw_kernel


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
            vals.append(np.full(len(src), w))
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

    def test_occupation_bits_memoized_read_only(self):
        bits = exact.occupation_bits(5)
        assert exact.occupation_bits(5) is bits
        eta = np.arange(32)
        want = np.stack([(eta >> s) & 1 for s in range(5)], axis=1).astype(np.int8)
        assert bits.dtype == np.int8 and bits.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            bits[3, 1] = 0

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
        with_v = exact.build_joint_generator(spec6)
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
        assert exact.build_joint_generator(spec, walker_frame=True).shape[0] == 2**6 * 6
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
        dim = op.shape[0]
        v = expm_multiply((op - sp.identity(dim) * shift) * t, np.ones(dim))
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
        assert op.shape[0] * (spec.n_sites if walker_frame else 1) == spec.joint_dim
        w = np.repeat(exact.nu_weights(spec.n_sites, spec.rho), op.shape[0] // spec.n_eta)
        m = sp.diags(w) @ op
        assert abs(m - m.T).max() <= 1e-12

    def test_frame_markov_without_potential(self):
        spec = _frame_spec(2, 3, 2, 0.7, 1.0)
        op = _free_generator(spec, walker_frame=True)
        np.testing.assert_allclose(np.asarray(op.sum(axis=1)).ravel(), 0.0,
                                   atol=1e-12)

    def test_kappa_zero_frame_is_fast_path(self):
        spec = _frame_spec(1, 6, 1, 0.0, 0.5)
        frame = exact.build_joint_generator(spec, walker_frame=True)
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
        mat = op - sp.identity(op.shape[0]) * shift
        v = expm_multiply(mat * 3.0, np.ones(op.shape[0]))
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
    def test_smoothing_field_residual_identity(self):
        # -A psi must equal phi - P_T phi on the joint space
        from scipy.sparse.linalg import expm_multiply

        trs = Torus(1, 4)
        kappa, T = 1.0, 1.3
        spec = exact.OperatorSpec(torus=trs, kernel=srw_kernel(1), kappa=kappa,
                                  p=1, rho=0.5)
        gen = exact.build_scaled_generator(spec)
        psi = psi_joint_matrix(PsiSpec(kappa=kappa, T=T, torus=trs, rho=0.5)).ravel()
        bits = exact.occupation_bits(4).astype(float)
        phi = np.stack([bits[:, x] - 0.5 for x in range(4)], axis=1).ravel()
        lhs = -(gen @ psi)
        rhs = phi - expm_multiply(gen * T, phi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# the catalyst kernel with jumps +-1 and +-2 of the Monte Carlo tests
_CAT4 = Kernel(d=1, offsets=(((1,), 0.25), ((-1,), 0.25), ((2,), 0.25), ((-2,), 0.25)))


def _pin_kernel(name, d):
    return _CAT4 if name == "cat4" else srw_kernel(d)


def _pin_spec(d, L, kernel, p, kappa):
    return exact.OperatorSpec(torus=Torus(d, L), kernel=_pin_kernel(kernel, d),
                              kappa=kappa, p=p, rho=0.35)


def _csr_digest(m):
    """Exact fingerprint of a csr matrix: sha256 of its float64 data, then its
    indices and indptr as int64."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(m.data, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(m.indices, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(m.indptr, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


class TestGeneratorPin:
    """Exact arrays of every sparse generator and exact values of the moments
    and top eigenvalues built on them, recorded while each generator still
    had its own assembly code. The cases cover p = 1, 2, 3, kappa zero and
    positive, d = 2, the parallel bonds of L = 2 and a catalyst kernel with
    jumps of length 2."""

    @pytest.mark.parametrize("d, L, kernel, want", [
        (1, 2, "srw", "ea9bbdf1a6081070"),
        (1, 6, "srw", "ee6954070f99cf4a"),
        (2, 3, "srw", "ab4f5026429c1464"),
        (1, 6, "cat4", "13825584cd59decf"),
    ])
    def test_se_generator(self, d, L, kernel, want):
        gen = exact.build_se_generator(Torus(d, L), _pin_kernel(kernel, d))
        assert _csr_digest(gen) == want

    @pytest.mark.parametrize("case, want_full, want_frame", [
        ((1, 2, "srw", 1, 0.5), "f853c9ef6c343822", "8793257f831d82e9"),
        ((1, 2, "srw", 3, 0.5), "77cb9115255548da", "fd9b7b0f11f7452a"),
        ((1, 5, "srw", 1, 0.0), "7a65ad808c5251a0", "4c9ebc837462f268"),
        ((1, 5, "srw", 2, 1.3), "36eb1a70b157da2d", "146aa126f9949762"),
        ((1, 4, "srw", 3, 0.3), "dcabac4ea3c06ff7", "cd799d09f0b7f763"),
        ((2, 2, "srw", 2, 0.7), "7a0c772934c09a8a", "319810326e2e0d49"),
        ((2, 3, "srw", 1, 0.4), "11bbba6f253730f5", "c74d45d280b9f509"),
        ((1, 6, "cat4", 1, 0.5), "87d2cfcb8b716f82", "06856c57ec1eda6c"),
        ((1, 6, "cat4", 2, 0.0), "f01f1048b2593374", "477c162472d2e1dc"),
    ])
    def test_joint_generator(self, case, want_full, want_frame):
        # read through a `matrix` field too: the pin was recorded when the
        # builders returned a wrapper around the csr matrix
        spec = _pin_spec(*case)
        full = exact.build_joint_generator(spec)
        frame = exact.build_joint_generator(spec, walker_frame=True)
        assert (_csr_digest(getattr(full, "matrix", full)),
                _csr_digest(getattr(frame, "matrix", frame))) == (want_full, want_frame)

    @pytest.mark.parametrize("case, want", [
        ((1, 4, "srw", 1, 1.0), "3f83ba6ecddc2726"),
        ((1, 2, "srw", 2, 0.5), "4098824f027e3bbb"),
        ((2, 2, "srw", 1, 2.0), "3c401f1fcca07994"),
        ((1, 6, "cat4", 2, 0.5), "798c6d2b586b4fa3"),
    ])
    def test_scaled_generator(self, case, want):
        gen = exact.build_scaled_generator(_pin_spec(*case))
        assert _csr_digest(getattr(gen, "matrix", gen)) == want

    # kernel is (kernel, scale): the rows at scale 2 were pinned for a rate-2
    # walk, which is the rate-1 generator times 2.0 bit for bit
    @pytest.mark.parametrize("d, L, kernel, want_whole, want_half", [
        (1, 2, (srw_kernel(1), 1.0), "d355f930ca6b8256", "374708fff7719dd5"),
        (1, 7, (srw_kernel(1), 2.0), "8c3577612d6571ad", "4199fc32a8927e39"),
        (2, 4, (srw_kernel(2), 1.0), "60890fa419f00563", "5d06afb93e5057d0"),
        (3, 5, (srw_kernel(3), 2.0), "ccaf69c27a20fab0", "9b9f5c72e1e09d0e"),
        (1, 6, (_CAT4, 1.0), "8eda156a5e941948", "f8bec17d8800a996"),
    ])
    def test_region_generator(self, d, L, kernel, want_whole, want_half):
        torus = Torus(d, L)
        kernel, scale = kernel
        assert (_csr_digest(scale * Region(torus).generator(kernel)),
                _csr_digest(scale * halfspace_region(torus).generator(kernel))) == (
                    want_whole, want_half)

    @pytest.mark.parametrize("case, t, want", [
        ((1, 2, "srw", 1, 0.5), 1.5,
         ["0x1.65ff8f4c5c30ep-1", "0x1.205c24e07c9a3p-1", "0x1.0000000000000p+0"]),
        ((1, 5, "srw", 1, 0.0), 2.0,
         ["0x1.017a6c0b64d50p+0", "0x1.358e10e819efap-1", "0x1.0000000000000p+0"]),
        ((1, 5, "srw", 2, 1.3), 1.5,
         ["0x1.6b602fff2c3b5p+0", "0x1.19d6f9d544b84p+0", "0x1.0000000000002p+1"]),
        ((1, 4, "srw", 3, 0.3), 1.0,
         ["0x1.a8938c488f9e6p+0", "0x1.fd091f77f50a8p+0", "0x1.8000000000000p+1"]),
        ((2, 2, "srw", 2, 0.7), 1.2,
         ["0x1.1ab205076921fp+0", "0x1.129928e3ef5a2p+0", "0x1.0000000000000p+1"]),
        ((2, 3, "srw", 1, 0.4), 0.8,
         ["0x1.4cd3372b38594p-2", "0x1.c4294bad9537ep-2", "0x1.0000000000000p+0"]),
        ((1, 6, "cat4", 1, 0.5), 1.0,
         ["0x1.b158cdb23bf4cp-2", "0x1.e2ff1a3a30c14p-2", "0x1.0000000000000p+0"]),
        ((1, 6, "cat4", 2, 0.0), 0.7,
         ["0x1.5dc449fe3452cp-1", "0x1.33b7d0c2f5546p+0", "0x1.0000000000000p+1"]),
    ])
    def test_moments_and_top_eigenvalue(self, case, t, want):
        spec = _pin_spec(*case)
        got = (exact.log_moment(spec, t), exact.moment_slope(spec, t),
               variational.top_eigenvalue(spec).mu)
        assert [float(v).hex() for v in got] == want
