"""Event-driven exclusion: schedules, stirring, occupation times."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from pamse import exclusion as ex
from pamse.lattice import Torus, srw_kernel, torus_heat_matrix


@pytest.fixture
def ring6():
    return Torus(1, 6), srw_kernel(1)


class TestSampleInitial:
    def test_degenerate_density_rejected(self):
        trs = Torus(1, 8)
        for rho in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                ex.sample_initial(trs, rho, 0)

    def test_empirical_density(self):
        trs = Torus(1, 16)
        count = 0
        n = 10_000
        for i in range(n):
            count += ex.sample_initial(trs, 0.5, [5, i]).particle_count
        mean = count / (n * 16)
        sigma = np.sqrt(0.25 / (n * 16))
        assert abs(mean - 0.5) <= 4 * sigma

    def test_seed_determinism(self):
        trs = Torus(2, 4)
        a = ex.sample_initial(trs, 0.3, 123)
        b = ex.sample_initial(trs, 0.3, 123)
        np.testing.assert_array_equal(a.bits, b.bits)


class TestSchedule:
    def test_zero_horizon_empty(self, ring6):
        trs, k = ring6
        sched = ex.build_schedule(trs, k, 0.0, 1)
        assert sched.n_events == 0

    def test_bond_rate_convention(self, ring6):
        trs, k = ring6
        a, b, rates = ex.torus_bonds(trs, k)
        assert len(rates) == 6  # one bond per site in d=1
        np.testing.assert_allclose(rates, 0.5)

    def test_bond_table_memoized_read_only(self, ring6):
        trs, k = ring6
        bonds = ex.torus_bonds(trs, k)
        assert ex.torus_bonds(Torus(1, 6), srw_kernel(1)) is bonds
        for arr in bonds:
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_event_statistics(self):
        # per-bond mean ~ horizon/2 and uniform times at the 1% level
        trs = Torus(1, 8)
        k = srw_kernel(1)
        horizon = 10.0
        times = []
        counts = []
        for i in range(400):
            sched = ex.build_schedule(trs, k, horizon, [7, i])
            counts.append(sched.n_events)
            times.extend(sched.times.tolist())
        mean_per_bond = np.mean(counts) / 8
        sigma = np.sqrt(horizon * 0.5 / (400 * 8))
        assert abs(mean_per_bond - 5.0) <= 4 * sigma
        hist, _ = np.histogram(times, bins=20, range=(0, horizon))
        assert chisquare(hist).pvalue > 0.01

    def test_total_rate_accounting(self, ring6):
        trs, k = ring6
        sched = ex.build_schedule(trs, k, 5.0, 3)
        expected = 5.0 * trs.n_sites * 0.5  # horizon * L^d * rate/2 * sum p
        assert sched.total_rate * 5.0 == pytest.approx(expected)

    def test_times_sorted(self, ring6):
        trs, k = ring6
        sched = ex.build_schedule(trs, k, 20.0, 11)
        assert np.all(np.diff(sched.times) >= 0)


class TestEvolve:
    def test_no_events_returns_initial(self, ring6):
        trs, k = ring6
        eta = ex.sample_initial(trs, 0.5, 5)
        sched = ex.build_schedule(trs, k, 4.0, 8)
        t_first = sched.times[0]
        out = ex.evolve(ex.Trajectory(eta, sched), t_first * 0.5)
        np.testing.assert_array_equal(out.bits, eta.bits)

    def test_single_swap(self, ring6):
        trs, k = ring6
        bits = np.zeros(6, dtype=np.uint8)
        bits[2] = 1
        sched = ex.LinkSchedule(1.0, np.array([0.5]), np.array([2]),
                                np.array([3]), 3.0)
        out = ex.evolve(ex.Trajectory(ex.Configuration(trs, bits), sched), 0.9)
        assert out.bits[2] == 0 and out.bits[3] == 1

    def test_full_configuration_fixed(self, ring6):
        trs, k = ring6
        ones = ex.Configuration(trs, np.ones(6, dtype=np.uint8))
        sched = ex.build_schedule(trs, k, 6.0, 2)
        out = ex.evolve(ex.Trajectory(ones, sched), 6.0)
        np.testing.assert_array_equal(out.bits, 1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 6.0))
    def test_particle_count_conserved(self, seed, t):
        trs = Torus(1, 8)
        k = srw_kernel(1)
        eta = ex.sample_initial(trs, 0.4, seed)
        sched = ex.build_schedule(trs, k, 6.0, seed + 1)
        out = ex.evolve(ex.Trajectory(eta, sched), t)
        assert out.particle_count == eta.particle_count

    def test_beyond_horizon_rejected(self, ring6):
        trs, k = ring6
        eta = ex.sample_initial(trs, 0.5, 1)
        sched = ex.build_schedule(trs, k, 1.0, 1)
        with pytest.raises(ValueError):
            ex.evolve(ex.Trajectory(eta, sched), 1.5)

    def test_checkpoint_replay_consistent(self, ring6):
        # every query replays from the initial state, in any order
        trs, k = ring6
        eta = ex.sample_initial(trs, 0.5, 9)
        sched = ex.build_schedule(trs, k, 8.0, 10)
        traj = ex.Trajectory(eta, sched)
        mid = ex.evolve(traj, 3.0)
        late_cached = ex.evolve(traj, 7.0)
        late_fresh = ex.evolve(ex.Trajectory(eta, sched), 7.0)
        np.testing.assert_array_equal(late_cached.bits, late_fresh.bits)
        np.testing.assert_array_equal(ex.evolve(traj, 3.0).bits, mid.bits)


def _pieces(bits, sched, t, marks=()):
    """(t0, t1, marks passed, bits during the piece) for every piece."""
    return [(t0, t1, m, "".join(map(str, bits)))
            for t0, t1, m in ex.replay(bits, sched, t, marks)]


class TestReplay:
    def _one_swap(self, time=0.5, horizon=1.0):
        trs = Torus(1, 4)
        bits = np.array([0, 0, 1, 0], dtype=np.uint8)
        sched = ex.LinkSchedule(horizon, np.array([time]), np.array([2]),
                                np.array([3]), 2.0)
        return trs, bits, sched

    def test_link_event_before_tied_mark(self):
        _, bits, sched = self._one_swap()
        assert _pieces(bits, sched, 1.0, [0.5]) == [
            (0.0, 0.5, 0, "0010"), (0.5, 0.5, 0, "0001"), (0.5, 1.0, 1, "0001")]

    def test_empty_schedule(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        sched = ex.build_schedule(Torus(1, 3), srw_kernel(1), 0.0, 1)
        assert _pieces(bits, sched, 0.0) == [(0.0, 0.0, 0, "101")]
        empty = ex.LinkSchedule(2.0, np.empty(0), np.empty(0, int), np.empty(0, int), 3.0)
        assert _pieces(bits, empty, 2.0) == [(0.0, 2.0, 0, "101")]
        assert _pieces(bits, empty, 2.0, [0.5, 1.5]) == [
            (0.0, 0.5, 0, "101"), (0.5, 1.5, 1, "101"), (1.5, 2.0, 2, "101")]

    def test_mark_at_t_is_passed(self):
        _, bits, sched = self._one_swap()
        assert _pieces(bits, sched, 0.8, [0.2, 0.8, 0.9]) == [
            (0.0, 0.2, 0, "0010"), (0.2, 0.5, 1, "0010"), (0.5, 0.8, 1, "0001"),
            (0.8, 0.8, 2, "0001")]

    def test_t_equal_to_horizon(self):
        _, bits, sched = self._one_swap(time=1.0, horizon=1.0)
        assert _pieces(bits, sched, 1.0) == [(0.0, 1.0, 0, "0010"),
                                             (1.0, 1.0, 0, "0001")]
        with pytest.raises(ValueError):
            _pieces(bits, sched, 1.0 + 1e-12)

    def test_pieces_tile_interval(self, ring6):
        trs, k = ring6
        sched = ex.build_schedule(trs, k, 3.0, 9)
        marks = np.sort(np.random.default_rng(10).random(5) * 2.5)
        pieces = list(ex.replay(np.zeros(6, dtype=np.uint8), sched, 2.5, marks))
        assert pieces[0][0] == 0.0 and pieces[-1][1] == 2.5
        assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))
        n_cuts = int(np.sum(sched.times <= 2.5)) + len(marks)
        assert len(pieces) == n_cuts + 1 and pieces[-1][2] == len(marks)


class TestOccupationTime:
    def test_full_and_empty(self, ring6):
        trs, k = ring6
        sched = ex.build_schedule(trs, k, 5.0, 4)
        ones = ex.Configuration(trs, np.ones(6, dtype=np.uint8))
        zeros = ex.Configuration(trs, np.zeros(6, dtype=np.uint8))
        assert ex.occupation_time(ex.Trajectory(ones, sched), 0, 5.0) == pytest.approx(5.0)
        assert ex.occupation_time(ex.Trajectory(zeros, sched), 0, 5.0) == 0.0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.2, 5.0))
    def test_bounds(self, seed, t):
        trs = Torus(1, 6)
        k = srw_kernel(1)
        eta = ex.sample_initial(trs, 0.5, seed)
        sched = ex.build_schedule(trs, k, 5.0, seed)
        tt = ex.occupation_time(ex.Trajectory(eta, sched), 2, t)
        assert 0.0 <= tt <= t + 1e-12

    def test_stationary_mean(self):
        # E[T_t / t] = rho at equilibrium
        trs = Torus(1, 6)
        k = srw_kernel(1)
        t = 5.0
        n = 10_000
        vals = np.empty(n)
        for i in range(n):
            eta = ex.sample_initial(trs, 0.5, [31, i])
            sched = ex.build_schedule(trs, k, t, [32, i])
            vals[i] = ex.occupation_time(ex.Trajectory(eta, sched), 0, t) / t
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 0.5) <= 4 * stderr


class TestGraphicalIdentity:
    def test_mean_field_small(self):
        trs = Torus(1, 8)
        k = srw_kernel(1)
        eta = ex.sample_initial(trs, 0.5, 77)
        queries = [(0, 0.6), (4, 1.2)]
        means, errs = ex.marginal_mc(eta, k, queries, 20_000, 5150)
        for (site, t), m, e in zip(queries, means, errs):
            target = float(eta.bits @ torus_heat_matrix(trs, k, t)[:, site])
            assert abs(m - target) <= 4 * e

    def test_stationarity_of_marginals(self):
        trs = Torus(1, 6)
        k = srw_kernel(1)
        t = 1.5
        n = 20_000
        hits = 0
        for i in range(n):
            eta = ex.sample_initial(trs, 0.5, [41, i])
            sched = ex.build_schedule(trs, k, t, [42, i])
            hits += int(ex.evolve(ex.Trajectory(eta, sched), t).bits[3])
        mean = hits / n
        assert abs(mean - 0.5) <= 4 * np.sqrt(0.25 / n)

    def test_two_time_exchangeability(self):
        # (xi_0(x), xi_t(x)) should have symmetric joint counts at equilibrium
        trs = Torus(1, 6)
        k = srw_kernel(1)
        t = 1.0
        n = 40_000
        n01 = n10 = 0
        for i in range(n):
            eta = ex.sample_initial(trs, 0.5, [61, i])
            sched = ex.build_schedule(trs, k, t, [62, i])
            late = ex.evolve(ex.Trajectory(eta, sched), t)
            a, b = eta.bits[2], late.bits[2]
            n01 += (a == 0) and (b == 1)
            n10 += (a == 1) and (b == 0)
        diff = (n01 - n10) / n
        sigma = np.sqrt((n01 + n10)) / n
        assert abs(diff) <= 4 * max(sigma, 1e-12)


def _hexes(values):
    return [float(v).hex() for v in values]


class TestReplayPin:
    """Exact float.hex values of every replay entry point at fixed seeds,
    recorded before the link-event loops were merged into one engine; any
    change in draw order or accumulation order shows up here."""

    def test_marginal_mc_with_query_at_t_max(self):
        trs = Torus(1, 8)
        init = ex.Configuration(trs, [1, 0, 0, 1, 1, 0, 1, 0])
        means, stderrs = ex.marginal_mc(
            init, srw_kernel(1), [(0, 0.5), (3, 2.0), (5, 1.2), (1, 2.0), (7, 0.0)],
            300, 21)
        assert _hexes(means) == ["0x1.5555555555555p-1", "0x1.1eb851eb851ecp-1",
                                 "0x1.0369d0369d037p-1", "0x1.962fc962fc963p-2",
                                 "0x0.0p+0"]
        assert _hexes(stderrs) == ["0x1.bdea7eefbeaedp-6", "0x1.d58c323fb8e10p-6",
                                   "0x1.d8ec5d3607e17p-6", "0x1.cec1331bc435ap-6",
                                   "0x1.830cd1c5d9e0ep-503"]

    def test_exp_weight_mc(self, ring6):
        from pamse import irw

        trs, k = ring6
        K = irw.WeightFunction((((0,), (0.0, 1.0), 0.8), ((2,), (0.4, 1.5), 0.5)))
        slices = K.time_slices(trs)
        assert _hexes(ex.exp_weight_mc(trs, k, 0.4, slices, 1.5, 300, 31)) == [
            "0x1.ef9b7075df393p+0", "0x1.9a10038cbd5bfp-5"]
        fixed = ex.Configuration(trs, [1, 1, 0, 0, 1, 0])
        assert _hexes(ex.exp_weight_mc(trs, k, 0.4, slices, 1.2, 300, 32,
                                       initial=fixed)) == [
            "0x1.203e370e7472fp+1", "0x1.d8b76ca954d87p-6"]
        # a weight that ends before t
        short = irw.WeightFunction((((1,), (0.0, 0.8), -0.6), ((3,), (0.2, 0.5), -1.1)))
        assert _hexes(ex.exp_weight_mc(trs, k, 0.5, short.time_slices(trs), 2.0,
                                       300, 33)) == [
            "0x1.55ffd122670f9p-1", "0x1.4091b40765383p-7"]
        # slices with gaps, the first starting after 0
        gapped = [(0.3, 0.6, np.array([0.5, 0, 0, 0.2, 0, 0])),
                  (0.9, 1.4, np.array([0, 0.7, 0.7, 0, 0, 0]))]
        assert _hexes(ex.exp_weight_mc(trs, k, 0.5, gapped, 1.2, 300, 34)) == [
            "0x1.65d2830675d49p+0", "0x1.d07c684feb337p-7"]

    def test_occupation_time_and_evolve_sequence(self):
        trs = Torus(1, 8)
        eta = ex.Configuration(trs, [1, 0, 1, 1, 0, 1, 0, 0])
        sched = ex.build_schedule(trs, srw_kernel(1), 3.0, 42)
        traj = ex.Trajectory(eta, sched)
        occ = [ex.occupation_time(traj, site, t)
               for site, t in ((0, 3.0), (2, 1.7), (5, 0.0), (7, 2.4), (3, 3.0))]
        assert _hexes(occ) == ["0x1.bb3d5813cc861p-1", "0x1.c47b49b6c6a54p-1",
                               "0x0.0p+0", "0x1.88c7ba5c80236p+0",
                               "0x1.47741abf73a48p+0"]
        states = ["".join(map(str, ex.evolve(traj, t).bits))
                  for t in (0.7, 2.1, 1.0, 3.0, 0.0, 3.0)]
        assert states == ["00011101", "00100111", "00011011", "00100111",
                          "10110100", "00100111"]
