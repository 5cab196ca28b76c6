"""Smoothing fields, gradient kernels, Cauchy solvers, Green contraction."""

import hashlib

import numpy as np
import pytest

from pamse import fields
from pamse.lattice import Torus, green, srw_kernel


@pytest.fixture
def spec1d():
    return fields.PsiSpec(kappa=1.0, T=1.0, torus=Torus(1, 32), rho=0.5)


class TestPsiField:
    def test_full_and_empty_configurations(self, spec1d):
        n = spec1d.torus.n_sites
        np.testing.assert_allclose(fields.psi_field(np.ones(n), spec1d),
                                   0.5 * spec1d.T, atol=1e-12)
        np.testing.assert_allclose(fields.psi_field(np.zeros(n), spec1d),
                                   -0.5 * spec1d.T, atol=1e-12)

    def test_balanced_pattern_sums_to_zero(self, spec1d):
        # exact density rho: site sum of psi telescopes to zero
        bits = np.zeros(32)
        bits[::2] = 1.0
        total = fields.psi_field(bits, spec1d).sum()
        assert total == pytest.approx(0.0, abs=1e-10)

    def test_direct_summation_oracle(self):
        spec = fields.PsiSpec(kappa=2.0, T=0.7, torus=Torus(1, 10), rho=0.3)
        rng = np.random.default_rng(0)
        bits = (rng.random(10) < 0.3).astype(float)
        dtab = fields.chi_table(spec).values
        trs = spec.torus
        got = fields.psi_field(bits, spec)
        for x in range(10):
            direct = sum((bits[z] - 0.3) * dtab[trs.index((trs.coords(z)[0]
                                                           - x,))]
                         for z in range(10))
            assert got[x] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("d, L", [(1, 10), (1, 11), (2, 8), (2, 9), (3, 6), (3, 7)])
    def test_half_spectrum_matches_direct_sum(self, d, L):
        spec = fields.PsiSpec(kappa=1.5, T=1.3, torus=Torus(d, L), rho=0.4)
        rng = np.random.default_rng(L)
        bits = (rng.random(L**d) < 0.4).astype(float)
        chi = fields.chi_table(spec).grid()
        centered = (bits - 0.4).reshape((L,) * d)
        axes = tuple(range(d))
        # chi(z - x) over z is chi rolled by x along every axis
        direct = [np.sum(np.roll(chi, spec.torus.coords(x), axis=axes) * centered)
                  for x in range(L**d)]
        np.testing.assert_allclose(fields.psi_field(bits, spec), direct,
                                   rtol=0, atol=1e-12 * spec.T)

    def test_chi_spectrum_cache_is_clearable_and_read_only(self):
        spec = fields.PsiSpec(kappa=2.0, T=1.0, torus=Torus(2, 6))
        grid = fields._chi_grid_cached(spec)
        assert fields._chi_grid_cached(spec) is grid and not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0
        fields.chi_table(spec).values[0] = 0.0  # a writable copy
        assert grid[0, 0] != 0.0
        spectrum = fields._chi_spectrum(spec)
        assert spectrum.shape == (6, 4) and not spectrum.flags.writeable
        with pytest.raises(ValueError):
            spectrum[0, 0] = 0.0
        fields._chi_spectrum.cache_clear()
        assert fields._chi_spectrum.cache_info().currsize == 0
        np.testing.assert_array_equal(fields._chi_spectrum(spec), spectrum)

    def test_density_outside_unit_interval_rejected(self):
        # one rule for every model: the spec, the catalyst start, the IRW product
        from pamse import exclusion, irw

        K = irw.WeightFunction((((0,), (0.0, 1.0), 0.5),))
        for rho in (0.0, 1.0, -0.2):
            for build in (lambda: fields.PsiSpec(kappa=1.0, T=1.0, torus=Torus(1, 8), rho=rho),
                          lambda: exclusion.sample_initial(Torus(1, 8), rho, 0),
                          lambda: irw.irw_exp_functional(rho, K, 1.0, Torus(1, 8),
                                                         srw_kernel(1))):
                with pytest.raises(ValueError, match=r"density must lie in \(0, 1\)"):
                    build()

    def test_one_kappa_constant(self):
        spec = fields.PsiSpec(kappa=2.0, T=1.0, torus=Torus(3, 5))
        assert spec.one_kappa == pytest.approx(1.0 + 1.0 / 12.0)
        assert spec.one_kappa > 1.0

    def test_chi_mass_is_horizon(self, spec1d):
        assert fields.chi_table(spec1d).values.sum() == pytest.approx(
            spec1d.T, abs=1e-12)

    def test_window_sizing_rule(self):
        side = fields.recommended_side(3, 5.0, 2.0)
        assert side % 2 == 1 and side >= 71


class TestPsiBounds:
    def test_horizon_zero_collapses(self):
        spec = fields.PsiSpec(kappa=1.0, T=0.0, torus=Torus(1, 16))
        rep = fields.psi_bounds_check(spec, 5, 0, green_value=1.5163860592)
        assert rep.max_site_diff == 0.0
        assert rep.max_swap_diff == 0.0
        assert rep.max_swap_square_sum == 0.0

    def test_d3_bounds_hold(self):
        trs = Torus(3, 25)
        spec = fields.PsiSpec(kappa=2.0, T=1.0, torus=trs)
        rep = fields.psi_bounds_check(spec, 10, 3)
        assert rep.passed
        assert rep.max_site_diff <= rep.site_diff_bound
        assert rep.max_swap_square_sum <= rep.swap_square_bound
        assert rep.quad_nodes == spec.quad_node_count

    def test_skewed_psi_fails_swap_identity(self, monkeypatch):
        spec = fields.PsiSpec(kappa=2.0, T=1.0, torus=Torus(2, 9))
        rep = fields.psi_bounds_check(spec, 4, 5, green_value=1.5163860592)
        assert rep.swap_delta_matches_chi and rep.passed
        real = fields.psi_field

        def skewed(eta, spec, sites=None):
            return (1.0 + 1e-6) * real(eta, spec, sites)

        monkeypatch.setattr(fields, "psi_field", skewed)
        rep = fields.psi_bounds_check(spec, 4, 5, green_value=1.5163860592)
        assert not rep.swap_delta_matches_chi and not rep.passed

    def test_swap_on_equal_bond_is_exact_zero(self):
        trs = Torus(1, 16)
        spec = fields.PsiSpec(kappa=1.0, T=1.0, torus=trs)
        bits = np.zeros(16)
        bits[3] = bits[4] = 1.0
        a, b = 7, 8  # both empty: swapping changes nothing
        swapped = bits.copy()
        swapped[a], swapped[b] = swapped[b], swapped[a]
        d = fields.psi_field(swapped, spec) - fields.psi_field(bits, spec)
        assert np.max(np.abs(d)) == 0.0


class TestKKernels:
    @pytest.fixture
    def kk3(self):
        trs = Torus(3, 31)
        return fields.k_kernels(fields.PsiSpec(kappa=2.0, T=1.5, torus=trs))

    def test_off_norm_bound(self, kk3):
        d, T = 3, 1.5
        assert kk3.k_off_norm_bound <= 8 * d * T**2
        # exact sum of |K_off(z1, z2)| = |sum_e grad_e chi(z1) grad_e chi(z2)|
        # over distinct site pairs of a centred sub-window of radius 2
        chi = fields.chi_table(fields.PsiSpec(kappa=2.0, T=T, torus=Torus(3, 31))).grid()
        window = np.ix_(*[np.arange(-2, 3) % 31] * d)
        grads = np.stack([(np.roll(chi, -sign, axis=axis) - chi)[window].ravel()
                          for axis in range(d) for sign in (1, -1)])
        cross = np.abs(grads.T @ grads)
        assert 0 < cross.sum() - np.trace(cross) <= kk3.k_off_norm_bound + 1e-12

    def test_diag_norm_closed_form(self, kk3):
        assert kk3.k_diag_norm == pytest.approx(kk3.closed_form_norm, abs=1e-6)

    def test_kappa_sweep_approaches_limit(self):
        trs = Torus(3, 31)
        gaps = []
        for kap in (5.0, 50.0, 500.0):
            kk = fields.k_kernels(fields.PsiSpec(kappa=kap, T=1.5, torus=trs))
            gaps.append(abs(kk.k_diag_norm - kk.kappa_limit_norm))
        assert gaps[0] > gaps[1] > gaps[2]



class TestCauchySolver:
    def test_zero_source_stays_one(self):
        trs = Torus(1, 12)
        prob = fields.CauchyProblem(fields.Region(trs), srw_kernel(1), 2.0,
                                    np.zeros(12))
        for mode in ("stepping", "series"):
            sol = fields.solve_cauchy(prob, [1.0, 2.0], mode=mode)
            np.testing.assert_allclose(sol.v, 1.0, atol=1e-12)
        sol = fields.solve_cauchy(prob, [1.0, 2.0], mode="mc", mc_trials=50,
                                  seed=0, start_sites=[0])
        np.testing.assert_allclose(sol.v[:, 0], 1.0, atol=1e-12)

    def test_three_modes_agree(self):
        trs = Torus(1, 16)
        c = np.zeros(16)
        c[[7, 8, 9]] = 1.0 / 3.0
        prob = fields.CauchyProblem(fields.Region(trs), srw_kernel(1), 2.0, c)
        times = np.array([0.5, 1.0, 2.0])
        v_a = fields.solve_cauchy(prob, times, "stepping").v
        v_b = fields.solve_cauchy(prob, times, "series", series_steps=200).v
        assert np.max(np.abs(v_a - v_b)) < 1e-6
        sol_c = fields.solve_cauchy(prob, times, "mc", mc_trials=2000, seed=1,
                                    start_sites=[8])
        dev = np.abs(sol_c.v[:, 8] - v_a[:, 8]) / sol_c.stderr[:, 8]
        assert np.max(dev) < 4.0

    def test_monotone_growth_for_positive_source(self):
        trs = Torus(1, 16)
        c = np.zeros(16)
        c[5] = 0.5
        prob = fields.CauchyProblem(fields.Region(trs), srw_kernel(1), 3.0, c)
        sol = fields.solve_cauchy(prob, [0.5, 1.0, 2.0, 3.0], "stepping")
        assert np.all(np.diff(sol.w, axis=0) >= -1e-12)

    def test_query_validation(self):
        trs = Torus(1, 8)
        prob = fields.CauchyProblem(fields.Region(trs), srw_kernel(1), 1.0,
                                    np.zeros(8))
        with pytest.raises(ValueError):
            fields.solve_cauchy(prob, [0.5, 2.0])
        with pytest.raises(ValueError):
            fields.solve_cauchy(prob, [0.8, 0.2])


class TestMassIdentities:
    def test_box_identity(self):
        trs = Torus(1, 20)
        box = [4, 5, 6]
        c = np.zeros(20)
        c[box] = 1.0 / 3.0
        prob = fields.CauchyProblem(fields.Region(trs), srw_kernel(1), 3.0, c)
        assert fields.mass_identity_residual(prob, box, 3.0) < 1e-8

    def test_halfspace_identity(self):
        trs = Torus(3, 9)
        half = fields.halfspace_region(trs)
        z = trs.index((1, 4, 4))
        strength = -0.75
        pos = half.local_index()
        c = np.zeros(len(half.sites))
        c[pos[z]] = strength
        prob = fields.CauchyProblem(half, srw_kernel(3), 1.5, c)
        assert fields.halfspace_mass_residual(prob, z, strength, 1.5) < 1e-8

    def test_halfspace_region_layout(self):
        trs = Torus(2, 6)
        half = fields.halfspace_region(trs)
        coords = trs.all_coords()[half.sites]
        assert np.all(coords[:, 0] >= 1)
        gen = half.generator(srw_kernel(2))
        np.testing.assert_allclose(np.asarray(gen.sum(axis=1)).ravel(), 0.0,
                                   atol=1e-13)


class TestGreenContraction:
    def test_zero_source(self):
        trs = Torus(3, 7)
        prob = fields.CauchyProblem(fields.Region(trs), srw_kernel(3), 1.0,
                                    np.zeros(trs.n_sites))
        cert = fields.green_contraction(prob)
        assert cert.theta == 0.0 and cert.sup_bound == 0.0

    def test_point_source_norm_is_green_value(self):
        trs = Torus(3, 9)
        beta = 0.3
        c = np.zeros(trs.n_sites)
        c[trs.index((0, 0, 0))] = beta
        prob = fields.CauchyProblem(fields.Region(trs), srw_kernel(3), 4.0, c)
        cert = fields.green_contraction(prob)
        assert cert.theta == pytest.approx(beta * green(srw_kernel(3)),
                                           rel=1e-6)
        assert cert.certified
        sol = fields.solve_cauchy(prob, [4.0], "stepping")
        assert float(sol.w.max()) <= cert.sup_bound + 1e-9

    def test_growing_box_norm_decreases(self):
        trs = Torus(3, 11)
        thetas = []
        for r in (0, 1, 2):
            sites = [trs.index((i, j, k))
                     for i in range(-r, r + 1)
                     for j in range(-r, r + 1)
                     for k in range(-r, r + 1)]
            c = np.zeros(trs.n_sites)
            c[sites] = 1.0 / len(sites)
            prob = fields.CauchyProblem(fields.Region(trs), srw_kernel(3),
                                        1.0, c)
            thetas.append(fields.green_contraction(prob).theta)
        assert thetas[0] > thetas[1] > thetas[2]

    def test_no_certificate_when_supercritical(self):
        trs = Torus(3, 7)
        c = np.zeros(trs.n_sites)
        c[trs.index((0, 0, 0))] = 2.0  # 2 G_3 > 1
        prob = fields.CauchyProblem(fields.Region(trs), srw_kernel(3), 1.0, c)
        cert = fields.green_contraction(prob)
        assert cert.theta > 1.0 and not cert.certified


def test_time_quadrature_exactness():
    nodes, weights = fields.time_quadrature(2.0, 6, 8)
    assert weights.sum() == pytest.approx(2.0, abs=1e-13)
    # degree-9 polynomial integrated exactly by 8-node panels
    poly = nodes**9
    assert float(weights @ poly) == pytest.approx(2.0**10 / 10.0, rel=1e-12)


def test_psi_global_bounds_random_eta():
    spec = fields.PsiSpec(kappa=1.5, T=2.0, torus=Torus(1, 24), rho=0.3)
    rng = np.random.default_rng(1)
    for _ in range(25):
        bits = (rng.random(24) < 0.3).astype(float)
        psi = fields.psi_field(bits, spec)
        assert np.all(psi >= -0.3 * 2.0 - 1e-10)
        assert np.all(psi <= 0.7 * 2.0 + 1e-10)


class TestHalfspaceContraction:
    def test_point_source_reflected_norm(self):
        from pamse.lattice import halfspace_green_diag

        trs = Torus(3, 9)
        half = fields.halfspace_region(trs)
        z = trs.index((2, 4, 4))
        strength = 0.25
        pos = half.local_index()
        c = np.zeros(len(half.sites))
        c[pos[z]] = strength
        prob = fields.CauchyProblem(half, srw_kernel(3), 2.0, c)
        cert = fields.green_contraction(prob)
        # sup_x G+(x, z) is attained at x = z for a point source
        target = strength * halfspace_green_diag(srw_kernel(3), 2)
        assert cert.theta == pytest.approx(target, rel=1e-6)
        assert cert.certified
        sol = fields.solve_cauchy(prob, [2.0], "stepping")
        assert float(sol.w.max()) <= cert.sup_bound + 1e-9


def _digest(values):
    """Exact fingerprint of a float array (sha256 of its float64 bytes)."""
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


class TestQuadraturePin:
    """Exact values of the Gauss-Legendre time grids and of the tables built
    on them, recorded before the grid construction and the Green-tail fit were
    shared with other modules."""

    @pytest.mark.parametrize("T, n_panels, nodes_per_panel, want", [
        (5.0, 10, 12, ("44fa5e5453556f49", "b13a5e4143d40543")),
        (2000.0, 24, 12, ("c02d02a97a22a021", "2336e8d10be53023")),
        (0.7, 24, 10, ("6050c0b780c1ad6c", "b2478031a7265fa4")),
        (2.0, 6, 8, ("ed5253f4fece2c31", "ac7699cfb71e2662")),
    ])
    def test_time_quadrature(self, T, n_panels, nodes_per_panel, want):
        nodes, weights = fields.time_quadrature(T, n_panels, nodes_per_panel)
        assert (_digest(nodes), _digest(weights)) == want

    @pytest.mark.parametrize("d, L, want", [
        (3, 7, "953046eb8b68d51b"),
        (3, 9, "1233b10c550f07bc"),
        (4, 5, "c2b6f570fb0852e7"),
    ])
    def test_green_window_table(self, d, L, want):
        assert _digest(fields.green_window_table(srw_kernel(d), Torus(d, L))) == want

    @pytest.mark.parametrize("d, L, T, kappa, want_chi, want_norms", [
        (1, 24, 2.0, 1.5, "cc9034684160e147",
         ["0x1.25f064092973cp-1", "0x1.d15d709439e8ap+1",
          "0x1.25f064095ba5cp-1", "0x1.bb195d1aef87dp-1"]),
        (3, 9, 1.0, 2.0, "437a584fbdf7f5a1",
         ["0x1.4df9a5240ac9dp-2", "0x1.861884d1a39b4p+2",
          "0x1.4dfbf173d8001p-2", "0x1.817b3bea6d4d5p-2"]),
    ])
    def test_chi_and_kernel_norms(self, d, L, T, kappa, want_chi, want_norms):
        spec = fields.PsiSpec(kappa=kappa, T=T, torus=Torus(d, L))
        kk = fields.k_kernels(spec)
        assert _digest(fields.chi_table(spec).values) == want_chi
        assert [float(v).hex() for v in (kk.k_diag_norm, kk.k_off_norm_bound,
                                         kk.closed_form_norm,
                                         kk.kappa_limit_norm)] == want_norms


class TestCauchyPin:
    """Exact values of the Cauchy solvers, mass residuals and Green contraction
    on criterion 11's three problems and the half-space certificate problem,
    recorded while sources could still be given as time segments."""

    @pytest.fixture(scope="class")
    def problems(self):
        torus3 = Torus(3, 9)
        box = [torus3.index((i, 4, 4)) for i in (3, 4, 5)]
        c3 = np.zeros(torus3.n_sites)
        c3[box] = 1.0 / 3
        half = fields.halfspace_region(torus3)
        pos = half.local_index()
        z, zc = torus3.index((1, 4, 4)), torus3.index((2, 4, 4))
        ch = np.zeros(len(half.sites))
        ch[pos[z]] = -0.75
        cc = np.zeros(len(half.sites))
        cc[pos[zc]] = 0.25
        c1 = np.zeros(16)
        c1[[7, 8, 9]] = 1.0 / 3.0
        return {
            "box": (fields.CauchyProblem(fields.Region(torus3), srw_kernel(3), 2.0, c3),
                    box),
            "half": (fields.CauchyProblem(half, srw_kernel(3), 2.0, ch), z),
            "line": fields.CauchyProblem(fields.Region(Torus(1, 16)), srw_kernel(1),
                                         2.0, c1),
            "cert": fields.CauchyProblem(half, srw_kernel(3), 2.0, cc),
        }

    def test_solve_cauchy_modes(self, problems):
        times = np.array([0.5, 1.0, 2.0])
        line = problems["line"]
        assert _digest(fields.solve_cauchy(line, times, "stepping").v) == "4fa29beb5a80fa76"
        assert _digest(fields.solve_cauchy(line, times, "series",
                                           series_steps=400).v) == "c4f01496a919606e"
        mc = fields.solve_cauchy(line, times, "mc", mc_trials=4000, seed=5,
                                 start_sites=[8])
        assert (_digest(mc.v[:, 8]), _digest(mc.stderr[:, 8])) == (
            "5731a3ecf24b852e", "d759cb76cae3c141")
        prob3, _ = problems["box"]
        prob_h, _ = problems["half"]
        assert _digest(fields.solve_cauchy(prob3, times, "stepping").v) == "ecc2710e28ff0e45"
        assert _digest(fields.solve_cauchy(prob_h, [0.0, 0.5, 2.0],
                                           "stepping").v) == "3be565c64236b589"
        assert _digest(fields.solve_cauchy(problems["cert"], [2.0],
                                           "stepping").v) == "374415929580f36c"
        # more live sites than the dense-hop limit: the expm_multiply hop
        assert _digest(fields.solve_cauchy(prob_h, [1.0, 2.0], "series",
                                           series_steps=20).v) == "b291429408baaab6"

    def test_mass_residuals(self, problems):
        prob3, box = problems["box"]
        prob_h, z = problems["half"]
        assert float(fields.mass_identity_residual(prob3, box, 2.0)).hex() == \
            "0x1.1970000000000p-38"
        assert float(fields.halfspace_mass_residual(prob_h, z, -0.75, 2.0)).hex() == \
            "0x1.8442000000000p-38"

    def test_green_contraction_theta(self, problems):
        thetas = [fields.green_contraction(p).theta
                  for p in (problems["box"][0], problems["half"][0], problems["cert"])]
        assert [float(v).hex() for v in thetas] == [
            "0x1.b30e6b93010b9p-1", "0x1.864ad0ae40f23p+0", "0x1.ae81100b92898p-2"]
