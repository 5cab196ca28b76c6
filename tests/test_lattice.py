"""Lattice kernels, heat kernels, Green functions."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import gammaln, ive

from pamse import fields
from pamse import lattice as lat

# frozen from the uniformization oracle below (and the scaled Bessel form)
P1D_T1_ORIGIN = 0.4657596075936404


def uniformization_p1d(m: int, t: float, tol: float = 1e-14) -> float:
    """Oracle: p_t(0, m) = sum_n e^-t t^n/n! * C(n, (n+m)/2)/2^n."""
    total = 0.0
    n = abs(m)
    while True:
        if (n - m) % 2 == 0:
            log_term = (-t + n * math.log(t) - gammaln(n + 1)) if t > 0 else \
                (0.0 if n == 0 else -math.inf)
            log_binom = gammaln(n + 1) - gammaln((n + m) // 2 + 1) \
                - gammaln((n - m) // 2 + 1) - n * math.log(2.0)
            term = math.exp(log_term + log_binom)
            total += term
            if n > t + abs(m) and term < tol:
                break
        n += 1
        if n > 10000:
            break
    return total


def adaptive_green(d: int) -> float:
    """Oracle: G_d by scipy's adaptive quad on [0, GREEN_SPLIT] plus green's
    power-law tail beyond GREEN_SPLIT."""
    k = lat.srw_kernel(d)

    def f(s: float) -> float:
        return lat.transition_prob_many(k, s, np.zeros(d, dtype=int))[0]

    body, _ = quad(f, 0.0, lat.GREEN_SPLIT, limit=400, epsabs=1e-13, epsrel=1e-11)
    return body + lat._tail_by_power_fit(f, lat.GREEN_SPLIT, d)


def _cube(d: int, r: int) -> np.ndarray:
    """The displacements z with |z_i| <= r in C order, the origin in the middle."""
    return np.stack(np.meshgrid(*[np.arange(-r, r + 1)] * d, indexing="ij"),
                    -1).reshape(-1, d)


class TestKernels:
    def test_srw_d1(self):
        k = lat.srw_kernel(1)
        assert dict((tuple(v), w) for v, w in k.offsets) == {(1,): 0.5, (-1,): 0.5}

    def test_srw_d3_weights(self):
        k = lat.srw_kernel(3)
        assert len(k.offsets) == 6
        assert all(abs(w - 1 / 6) < 1e-15 for _, w in k.offsets)

    def test_srw_d2_normalized_symmetric(self):
        k = lat.srw_kernel(2)
        assert abs(sum(w for _, w in k.offsets) - 1.0) < 1e-15
        table = {tuple(v): w for v, w in k.offsets}
        for v, w in table.items():
            assert table[tuple(-x for x in v)] == w

    def test_unit_moves_follow_srw_offsets(self):
        trs = lat.Torus(2, 3)
        moves = trs.unit_moves()
        assert moves.shape == (4, 9)
        for row, (vec, _) in zip(moves, lat.srw_kernel(2).offsets):
            for x in range(9):
                assert row[x] == trs.index(np.add(trs.coords(x), vec))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            lat.srw_kernel(0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            lat.Kernel(d=1, offsets=(((1,), 0.7), ((-1,), 0.3)))

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            lat.Kernel(d=1, offsets=(((0,), 0.5), ((1,), 0.25), ((-1,), 0.25)))


class TestTransitionProb:
    def test_time_zero_identity(self):
        k = lat.srw_kernel(2)
        assert lat.transition_prob_many(k, 0.0, (0, 0))[0] == pytest.approx(1.0, abs=1e-15)
        assert lat.transition_prob_many(k, 0.0, (1, 0))[0] == pytest.approx(0.0, abs=1e-15)

    def test_uniformization_oracle_origin(self):
        k = lat.srw_kernel(1)
        got = lat.transition_prob_many(k, 1.0, (0,))[0]
        assert got == pytest.approx(uniformization_p1d(0, 1.0), abs=1e-12)
        assert got == pytest.approx(P1D_T1_ORIGIN, abs=1e-12)

    @pytest.mark.parametrize("m,t", [(0, 0.5), (1, 1.0), (3, 2.5), (-2, 4.0)])
    def test_uniformization_oracle_displacements(self, m, t):
        got = lat.transition_prob_many(lat.srw_kernel(1), t, (m,))[0]
        assert got == pytest.approx(uniformization_p1d(m, t), abs=1e-12)

    def test_scaled_bessel_oracle(self):
        # independent closed form for the 1-d walk
        for m, t in [(0, 1.0), (2, 3.0), (5, 10.0)]:
            got = lat.transition_prob_many(lat.srw_kernel(1), t, (m,))[0]
            assert got == pytest.approx(float(ive(m, t)), abs=1e-13)

    def test_origin_maximizes_d3(self):
        cube = _cube(3, 8)
        w = lat.transition_prob_many(lat.srw_kernel(3), 5.0, cube)
        assert np.argmax(w) == (len(cube) - 1) // 2

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            lat.transition_prob_many(lat.srw_kernel(1), -0.1, (0,))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-6, 6), st.floats(0.1, 5.0))
    def test_symmetry_under_negation(self, m, t):
        k = lat.srw_kernel(1)
        assert lat.transition_prob_many(k, t, (m,))[0] == pytest.approx(
            lat.transition_prob_many(k, t, (-m,))[0], abs=1e-14)

    def test_chapman_kolmogorov_window(self):
        k = lat.srw_kernel(2)
        s, t = 0.8, 1.3
        coords = _cube(2, 14)
        ws = lat.transition_prob_many(k, s, coords)
        for target in [(0, 0), (1, 2), (-3, 1)]:
            comp = float(ws @ lat.transition_prob_many(
                k, t, np.asarray(target) - coords))
            direct = lat.transition_prob_many(k, s + t, target)[0]
            assert comp == pytest.approx(direct, abs=1e-8)

    def test_one_heat_row_per_distinct_column(self, monkeypatch):
        calls = []
        heat1d = lat.heat1d
        monkeypatch.setattr(lat, "heat1d", lambda ms, tau: calls.append(1) or heat1d(ms, tau))
        lat.transition_prob_many(lat.srw_kernel(4), 2.0, np.array([[1, 0, 1, 0], [2, 0, 2, 3]]))
        assert len(calls) == 3

    def test_non_nearest_neighbour_kernel_rejected(self):
        # heat kernels are products of 1-d simple-walk rows
        wide = lat.Kernel(d=1, offsets=(((1,), 0.25), ((-1,), 0.25),
                                        ((2,), 0.25), ((-2,), 0.25)))
        diagonal = lat.Kernel(d=3, offsets=(((1, 1, 0), 0.5), ((-1, -1, 0), 0.5)))
        for call in (lambda: lat.transition_prob_many(wide, 1.0, (0,)),
                     lambda: lat.transition_prob_many(wide, 1.0, np.array([[0], [2]])),
                     lambda: lat.torus_heat_row(lat.Torus(1, 6), wide, 1.0),
                     lambda: lat.torus_heat_matrix(lat.Torus(1, 6), wide, 1.0),
                     lambda: lat.green(diagonal)):
            with pytest.raises(ValueError, match="nearest-neighbour"):
                call()


class TestGreen:
    def test_d3_value(self):
        # cross-checked against the discrete return-probability sum
        assert lat.green(lat.srw_kernel(3)) == pytest.approx(1.516386, abs=5e-7)

    def test_two_methods_agree_d3_d4(self):
        for d in (3, 4):
            a = lat.green(lat.srw_kernel(d))
            b = lat.green_discrete_sum(d, 12000)
            assert abs(a - b) / a < 1e-6

    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_adaptive_quadrature(self, d):
        got = lat.green(lat.srw_kernel(d))
        assert got == pytest.approx(adaptive_green(d), rel=1e-12)

    @pytest.mark.parametrize("d, L", [(3, 9), (4, 5)])
    def test_window_table_entries_are_green_values(self, d, L):
        # not bitwise: heat1d's Fourier sums for one z use another grid size
        # (set by the largest displacement) and row count than the table's
        k, trs = lat.srw_kernel(d), lat.Torus(d, L)
        table = fields.green_window_table(k, trs)
        for z in [(0,) * d, (1,) + (0,) * (d - 1), (1, -2) + (0,) * (d - 2)]:
            assert table[trs.index(z)] == pytest.approx(lat.green(k, z=z), rel=1e-13)

    def test_import_leaves_adaptive_quadrature_out(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(lat.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        code = "import sys, pamse; print('scipy.integrate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout == "False\n"

    def test_richardson_refinement_d4(self, monkeypatch):
        # the power-law tail fit does not care where the quadrature hands over
        k = lat.srw_kernel(4)
        vals = []
        for split in (1000.0, 3000.0):
            monkeypatch.setattr(lat, "GREEN_SPLIT", split)
            lat._green_cached.cache_clear()
            vals.append(lat.green(k))
        lat._green_cached.cache_clear()  # no value at a patched split stays behind
        a, b = vals
        assert abs(a - b) / a < 1e-6

    def test_divergence_low_dimension(self):
        with pytest.raises(ValueError):
            lat.green(lat.srw_kernel(2))
        with pytest.raises(ValueError):
            lat.green(lat.srw_kernel(1))


class TestGreenMemo:
    """green's value is memoized by lat._green_cached on (kernel, z)."""

    def test_z_forms_agree(self):
        k = lat.srw_kernel(3)
        vals = [lat.green(k, z=z) for z in ((1, 2, 0), [1, 2, 0], np.array([1, 2, 0]))]
        assert vals[0].hex() == vals[1].hex() == vals[2].hex()

    def test_caller_array_not_kept(self):
        k = lat.srw_kernel(3)
        z = np.array([1, 0, 0])
        first = lat.green(k, z=z)
        z[0] = 3
        assert lat.green(k, z=z) != first
        assert lat.green(k, z=(1, 0, 0)) == first

    def test_cold_equals_cached(self):
        k = lat.srw_kernel(4)
        z = (1, 1, 0, 0)
        warm = lat.green(k, z=z)
        lat._green_cached.cache_clear()
        assert lat.green(k, z=z).hex() == warm.hex() == lat.green(k, z=z).hex()

    def test_cache_is_clearable_module_attribute(self):
        # the benchmark empties every module-level functools cache each round
        assert callable(getattr(lat._green_cached, "cache_clear", None))
        lat.green(lat.srw_kernel(3))
        assert lat._green_cached.cache_info().currsize >= 1
        lat._green_cached.cache_clear()
        assert lat._green_cached.cache_info().currsize == 0


class TestRangeRules:
    @pytest.mark.parametrize("rule", [
        lat.check_density, lat.check_kappa, lat.check_samples, lat.check_horizon,
        lat.check_walkers, lat.check_transient])
    def test_bool_rejected(self, rule):
        rule({lat.check_samples: 1, lat.check_walkers: 1, lat.check_transient: 3}.get(rule, 0.5))
        with pytest.raises(ValueError):
            rule(True)


class TestHalfspace:
    def test_identity_at_zero_time(self):
        k = lat.srw_kernel(1)
        assert lat.halfspace_transition(k, 0.0, (1,), (1,)) == pytest.approx(1.0)

    def test_outside_rejected(self):
        k = lat.srw_kernel(2)
        with pytest.raises(ValueError):
            lat.halfspace_transition(k, 1.0, (0, 0), (1, 0))

    def test_discrete_reflection_vs_enumeration(self):
        # exhaustive path count for the paused walk on {1,2,...}, n <= 6 steps
        def paused_step_dist(n):
            probs = {1: 1.0}
            for _ in range(n):
                new = {}
                for x, p in probs.items():
                    up = x + 1
                    down = x - 1 if x > 1 else x  # pause at the wall
                    new[up] = new.get(up, 0.0) + 0.5 * p
                    new[down] = new.get(down, 0.0) + 0.5 * p
                probs = new
            return probs

        def discrete_p(n, z):
            if (n - z) % 2:
                return 0.0
            k = (n + z) // 2
            if k < 0 or k > n:
                return 0.0
            return math.comb(n, k) / 2**n

        for n in range(7):
            dist = paused_step_dist(n)
            for y in range(1, n + 3):
                reflected = discrete_p(n, y - 1) + discrete_p(n, -y)
                assert dist.get(y, 0.0) == pytest.approx(reflected, abs=1e-12)

    def test_continuous_vs_truncated_generator(self):
        # matrix-exponential oracle on a long half-line with paused boundary
        m = 60
        gen = np.zeros((m, m))
        for i in range(m - 1):
            gen[i, i + 1] = 0.5
            gen[i + 1, i] = 0.5
        gen -= np.diag(gen.sum(axis=1))
        t = 2.5
        P = expm(gen * t)
        k = lat.srw_kernel(1)
        for x, y in [(1, 1), (1, 3), (2, 4), (5, 2)]:
            got = lat.halfspace_transition(k, t, (x,), (y,))
            assert got == pytest.approx(P[x - 1, y - 1], abs=1e-10)

    def test_dominated_by_twice_free_kernel(self):
        k = lat.srw_kernel(3)
        for t in (0.5, 2.0, 10.0):
            for x, y in [((1, 0, 0), (2, 1, 0)), ((3, 2, 1), (1, 0, 0))]:
                plus = lat.halfspace_transition(k, t, x, y)
                free = lat.transition_prob_many(k, t, np.array(y) - np.array(x))[0]
                assert plus <= 2.0 * free + 1e-14


class TestTorusWrap:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 2), st.sampled_from([2, 3, 4, 6]))
    def test_index_roundtrip(self, d, L):
        trs = lat.Torus(d, L)
        for idx in range(trs.n_sites):
            assert trs.index(trs.coords(idx)) == idx

    def test_wrap_involution_under_negation(self):
        trs = lat.Torus(2, 5)
        for idx in [0, 7, 24]:
            c = trs.coords(idx)
            neg = trs.index(tuple(-x for x in c))
            back = trs.coords(neg)
            assert trs.index(tuple(-x for x in back)) == idx

    def test_wrapped_row_is_image_sum(self):
        trs = lat.Torus(1, 5)
        k = lat.srw_kernel(1)
        t = 1.2
        row = lat.torus_heat_row(trs, k, t)
        for m in range(5):
            images = sum(lat.transition_prob_many(k, t, (m + 5 * j,))[0]
                         for j in range(-8, 9))
            assert row[m] == pytest.approx(images, abs=1e-12)

    def test_heat_matrix_stochastic_symmetric(self):
        trs = lat.Torus(2, 4)
        mat = lat.torus_heat_matrix(trs, lat.srw_kernel(2), 0.9)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(mat, mat.T, atol=1e-12)


def _digest(values):
    """Exact fingerprint of a float array (sha256 of its float64 bytes)."""
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


class TestGreenPin:
    """Exact values of the Green quadrature and the product-form heat tables
    at fixed inputs, recorded before the Green-tail fit and the outer-product
    loop were shared across modules; the green rows re-pinned when green left
    adaptive quadrature for the window table's Gauss-Legendre rule."""

    @pytest.mark.parametrize("d, z, want", [
        (3, None, "0x1.8431e0742b9f3p+0"),
        (4, None, "0x1.3d4db7a0ce778p+0"),
        (3, (1, 2, 0), "0x1.b9870d16f72d5p-3"),
    ])
    def test_green(self, d, z, want):
        assert float(lat.green(lat.srw_kernel(d), z=z)).hex() == want

    @pytest.mark.parametrize("d, L, t, want", [
        (1, 7, 0.9, "d0dff8a2cc1630e1"),
        (2, 5, 1.3, "7672ca10e82fa979"),
        (3, 4, 0.4, "be5df9b6cb14adad"),
    ])
    def test_torus_heat_row(self, d, L, t, want):
        # pinned for a rate-2 walk to time t, the rate-1 walk to time 2t
        row = lat.torus_heat_row(lat.Torus(d, L), lat.srw_kernel(d), 2 * t)
        assert _digest(row) == want

    @pytest.mark.parametrize("d, t, zs, want", [
        # halfspace_transition's two rows: every column but the first repeats
        (3, 2.5, [[3, 0, 0], [-2, 0, 0]], ("9b4287fd13994cd6", "fbfd28ba9ae58858")),
        (3, 0.7, [[1, 2, 2], [4, 2, 2], [1, -1, -1]],
         ("f5a8e14413d84e7c", "f9a4e9dc576fdfff")),
        (4, 11.0, [[2, 5, 2, 0], [-1, 5, -1, 0], [2, -3, 2, 7]],
         ("0424c71f61cb4fc2", "c6b3e63d91efa82f")),
        # green's integrand: d equal zero columns
        (4, 1e3, [[0, 0, 0, 0]], ("f80a6263c357416e", "2aa5f89db5a33342")),
    ])
    def test_transition_prob_many(self, d, t, zs, want):
        # at times t and 2t: the second digest was pinned for a rate-2 walk to t
        got = tuple(_digest(lat.transition_prob_many(lat.srw_kernel(d), time, np.array(zs)))
                    for time in (t, 2 * t))
        assert got == want

    def test_halfspace_transition(self):
        assert float(lat.halfspace_transition(lat.srw_kernel(3), 2.5, (2, 1, 0),
                                              (1, 1, 0))).hex() == "0x1.001874ad422f7p-4"
        # pinned for a rate-2 walk to time 0.9
        assert float(lat.halfspace_transition(lat.srw_kernel(4), 2 * 0.9,
                                              (3, 1, 1, 0), (1, 2, 2, 0))).hex() == \
            "0x1.0c64e14c39272p-12"

    @pytest.mark.parametrize("d, want, probs", [
        (3, "0x1.8431e0742af4bp+0", "6a4fcf7d298fca86"),
        (4, "0x1.3d4db7a0ce7a5p+0", "5cc6566c67d3af77"),
    ])
    def test_green_discrete_sum(self, d, want, probs):
        # criterion 9's call; the return probabilities are pinned as well
        assert float(lat.green_discrete_sum(d, 20000)).hex() == want
        assert _digest(lat._return_probs(d, 10000)) == probs
