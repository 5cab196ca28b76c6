"""Independent walks, product-formula functionals, exclusion comparison."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from pamse import exact, irw
from pamse.fields import Region
from pamse.lattice import Torus, srw_kernel


@pytest.fixture
def ring6():
    return Torus(1, 6), srw_kernel(1)


def joint_chain_value(torus, kernel, occ_sites, slices, t):
    """Oracle: exponential functional on the full multi-particle chain."""
    p = len(occ_sites)
    if p == 0:
        return 1.0
    n = torus.n_sites
    lap = Region(torus).generator(kernel)
    gen = sp.csr_matrix((n**p, n**p))
    for i in range(p):
        gen = gen + sp.kron(sp.kron(sp.identity(n**i), lap),
                            sp.identity(n ** (p - 1 - i)))
    idx = np.arange(n**p)
    v = np.ones(n**p)
    for t0, t1, vals in reversed(slices):
        dt = min(t1, t) - t0
        if dt <= 0:
            continue
        diag = np.zeros(n**p)
        for i in range(p):
            x_i = (idx // n ** (p - 1 - i)) % n
            diag += vals[x_i]
        v = expm_multiply((gen + sp.diags(diag)).tocsr() * dt, v)
    start = 0
    for s in occ_sites:
        start = start * n + s
    return float(v[start])


def nu_rho_oracle(torus, kernel, rho, slices, t):
    """Oracle from the nu_rho start: the joint-chain values of every
    configuration, mixed with their Bernoulli(rho) weights."""
    n = torus.n_sites
    return sum(w * joint_chain_value(torus, kernel, list(np.nonzero(b)[0]), slices, t)
               for w, b in zip(exact.nu_weights(n, rho), exact.occupation_bits(n)))


class TestWeightFunction:
    def test_mixed_sign_rejected(self):
        with pytest.raises(ValueError):
            irw.WeightFunction((((0,), (0.0, 1.0), 1.0),
                                ((1,), (0.0, 1.0), -1.0)))

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            irw.WeightFunction((((0,), (1.0, 0.5), 1.0),))

    def test_slices_partition(self):
        K = irw.WeightFunction((((0,), (0.0, 1.0), 2.0),
                                ((1,), (0.5, 1.5), 1.0)))
        trs = Torus(1, 4)
        slices = K.time_slices(trs)
        assert [(a, b) for a, b, _ in slices] == [(0.0, 0.5), (0.5, 1.0), (1.0, 1.5)]
        assert slices[1][2][0] == 2.0 and slices[1][2][1] == 1.0


class TestProductFormula:
    def test_zero_weight_gives_one(self, ring6):
        trs, k = ring6
        K = irw.WeightFunction((((0,), (0.0, 1.0), 0.0),))
        assert irw.irw_exp_functional(0.5, K, 1.0, trs, k) == pytest.approx(1.0)

    def test_vanishing_density_limit(self, ring6):
        trs, k = ring6
        K = irw.WeightFunction((((0,), (0.0, 1.0), 1.0),))
        vals = [irw.irw_exp_functional(rho, K, 1.0, trs, k)
                for rho in (0.1, 0.01, 0.001)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] == pytest.approx(1.0, abs=5e-3)

    def test_against_joint_chain_oracle(self, ring6):
        trs, k = ring6
        K = irw.WeightFunction((((0,), (0.0, 1.0), 1.0),))
        oracle = nu_rho_oracle(trs, k, 0.5, K.time_slices(trs), 1.0)
        mine = irw.irw_exp_functional(0.5, K, 1.0, trs, k)
        assert mine == pytest.approx(oracle, abs=1e-8)

    def test_time_dependent_weight(self, ring6):
        trs, k = ring6
        K = irw.WeightFunction((((0,), (0.0, 0.5), 1.0),
                                ((2,), (0.5, 1.0), 0.5)))
        oracle = nu_rho_oracle(trs, k, 0.3, K.time_slices(trs), 1.0)
        mine = irw.irw_exp_functional(0.3, K, 1.0, trs, k)
        assert mine == pytest.approx(oracle, abs=1e-10)


class TestComparison:
    def test_zero_weight_margin_zero(self, ring6):
        trs, k = ring6
        K = irw.WeightFunction((((0,), (0.0, 1.0), 0.0),))
        rep = irw.compare_se_irw(trs, k, 0.5, K, 1.0)
        assert rep.se_value == pytest.approx(1.0)
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("value", [1.0, -1.0])
    def test_point_weight_margins(self, ring6, value):
        trs, k = ring6
        K = irw.WeightFunction((((0,), (0.0, 1.0), value),))
        rep = irw.compare_se_irw(trs, k, 0.5, K, 1.0)
        assert rep.margin >= -1e-10
        assert not rep.violation

    def test_mc_fallback_branch(self, monkeypatch):
        monkeypatch.setattr(exact, "DEFAULT_STATE_CAP", 4)
        trs = Torus(1, 6)
        k = srw_kernel(1)
        K = irw.WeightFunction((((0,), (0.0, 0.5), 1.0),))
        monkeypatch.setattr(irw, "COMPARE_MC_TRIALS", 4000)
        rep = irw.compare_se_irw(trs, k, 0.5, K, 0.5, seed=2)
        assert rep.se_method.startswith("mc")
        assert not rep.violation


class TestLandimSpotCheck:
    def test_fixed_time_exponential_ordering(self):
        """E_eta exp[r sum_j xi_{s_j}(z_j)] <= IRW analogue on a grid of r
        spanning both signs (tiny system, exact two-sided evaluation)."""
        trs = Torus(1, 4)
        k = srw_kernel(1)
        pairs = [(1, 0.4), (3, 0.9)]  # (site, time), increasing times
        bits = exact.occupation_bits(4).astype(float)
        gen_se = exact.build_se_generator(trs, k)
        lap = Region(trs).generator(k)
        eta = np.array([1, 0, 1, 0], dtype=np.uint8)
        eta_idx = int(np.sum(eta << np.arange(4)))

        for r in (-1.5, -0.5, 0.5, 1.0, 2.0):
            # exclusion side: interleave semigroup flow and multiplications
            f = np.ones(16)
            t_prev = pairs[-1][1]
            for site, s in reversed(pairs):
                if t_prev > s:
                    f = expm_multiply(gen_se * (t_prev - s), f)
                f = f * np.exp(r * bits[:, site])
                t_prev = s
            if t_prev > 0:
                f = expm_multiply(gen_se * t_prev, f)
            se_val = float(f[eta_idx])

            # IRW side: per-particle factorization with the same interleaving
            vals = []
            for x0 in range(4):
                h = np.ones(4)
                t_prev = pairs[-1][1]
                for site, s in reversed(pairs):
                    if t_prev > s:
                        h = expm_multiply(lap * (t_prev - s), h)
                    ind = np.zeros(4)
                    ind[site] = 1.0
                    h = h * np.exp(r * ind)
                    t_prev = s
                if t_prev > 0:
                    h = expm_multiply(lap * t_prev, h)
                vals.append(float(h[x0]))
            irw_val = float(np.prod([vals[x] for x in (0, 2)]))
            assert se_val <= irw_val + 1e-12


class TestOverflowFlag:
    def test_divergent_single_walk_flagged(self, ring6):
        trs, k = ring6
        # strong positive weight over a long horizon overflows the
        # single-walk solution and must be rejected as input, not returned
        K = irw.WeightFunction((((0,), (0.0, 400.0), 4.0),))
        with pytest.raises(ValueError, match="out of range"):
            irw.irw_exp_functional(0.5, K, 400.0, trs, k)

    def test_overflowing_product_of_finite_factors_flagged(self):
        # each single-walk value stays below 1e99, but the four-site product
        # is exp(899): returned as inf, it made compare_se_irw's margin nan
        trs, k = Torus(1, 4), srw_kernel(1)
        K = irw.WeightFunction((((0,), (0.0, 500.0), 1.0),))
        assert np.all(np.isfinite(irw.single_walk_values(trs, k, K, 500.0)))
        with pytest.raises(ValueError, match="weight too strong"):
            irw.irw_exp_functional(0.5, K, 500.0, trs, k)


class TestWeightHorizonEdges:
    def test_weight_ending_before_horizon(self, ring6):
        import scipy.sparse as sp
        from scipy.sparse.linalg import expm_multiply
        from pamse.fields import Region

        trs, k = ring6
        K = irw.WeightFunction((((0,), (0.0, 0.5), 1.0),))
        v = irw.single_walk_values(trs, k, K, 1.2)
        gen = Region(trs).generator(k)
        d = np.zeros(6)
        d[0] = 1.0
        manual = expm_multiply((gen + sp.diags(d)).tocsr() * 0.5,
                               expm_multiply(gen * 0.7, np.ones(6)))
        np.testing.assert_allclose(v, manual, atol=1e-12)

    def test_weight_clipped_at_horizon(self, ring6):
        import scipy.sparse as sp
        from scipy.sparse.linalg import expm_multiply
        from pamse.fields import Region

        trs, k = ring6
        K = irw.WeightFunction((((0,), (0.0, 5.0), 1.0),))
        v = irw.single_walk_values(trs, k, K, 0.8)
        gen = Region(trs).generator(k)
        d = np.zeros(6)
        d[0] = 1.0
        manual = expm_multiply((gen + sp.diags(d)).tocsr() * 0.8, np.ones(6))
        np.testing.assert_allclose(v, manual, atol=1e-12)


class TestPaddingPin:
    """Exact values of both exact IRW/SE functionals on weights that end
    before t, exactly at t and past t, recorded before their shared loop
    over the constant pieces of K was merged; the single-walk values re-pinned
    for the rate-1 walk (they were pinned for a rate-2 one)."""

    @pytest.mark.parametrize("cells, want_irw, want_se", [
        ((((0,), (0.0, 0.6), 0.8), ((2,), (0.2, 0.5), 0.3)),
         ["0x1.77219cafc9710p+0", "0x1.11e05e1967409p+0", "0x1.12ebff6d01ec4p+0",
          "0x1.03245d06655c2p+0", "0x1.01a16a6a49b12p+0", "0x1.0ef5deb05c837p+0"],
         ["0x1.49905a3f99f86p+0"]),
        ((((1,), (0.0, 1.0), 0.5), ((3,), (0.4, 1.0), 0.7)),
         ["0x1.15f19d7b7ef21p+0", "0x1.700e5c64090e0p+0", "0x1.2c10742f4e627p+0",
          "0x1.4d18e5c3d161ap+0", "0x1.17c9ac41d5beep+0", "0x1.07166d9de7616p+0"],
         ["0x1.81ba6ef3c7ea2p+0"]),
        ((((0,), (0.3, 1.7), -0.4), ((4,), (0.0, 2.5), -0.2)),
         ["0x1.b2f72625daf6bp-1", "0x1.e92d9160e88a5p-1", "0x1.fa1aad028e817p-1",
          "0x1.f1a47a1068193p-1", "0x1.bcda7b0799043p-1", "0x1.dc3bbff1155bbp-1"],
         ["0x1.ab59a1890e333p-1"]),
    ], ids=["ends_before_t", "ends_at_t", "extends_past_t"])
    def test_single_walk_and_se(self, ring6, cells, want_irw, want_se):
        trs, k = ring6
        K = irw.WeightFunction(cells)
        v = irw.single_walk_values(trs, k, K, 1.0)
        se = (irw.se_exp_functional(0.4, K, 1.0, trs, k),)
        assert [float(x).hex() for x in v] == want_irw
        assert [float(x).hex() for x in se] == want_se
