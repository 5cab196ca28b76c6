"""Event-driven exclusion: schedules, stirring, occupation times."""

import copy
import hashlib
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from pamse import exact
from pamse import exclusion as ex
from pamse import montecarlo as mc
from pamse.lattice import Torus, srw_kernel, torus_heat_matrix

CHUNK = ex.TRIAL_CHUNK


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
            count += int(ex.sample_initial(trs, 0.5, [5, i]).bits.sum())
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
        assert len(sched.times) == 0

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
        # per-bond mean ~ horizon/2 and uniform times at the 1% level, over
        # the first 400 trials of two chunks
        trs = Torus(1, 8)
        k = srw_kernel(1)
        horizon = 10.0
        times = []
        counts = []
        for c in range(2):
            sched = ex.build_schedule(trs, k, horizon, [7, c])
            keep = 400 - c * CHUNK
            counts.extend(np.bincount(sched.trial, minlength=CHUNK)[:keep].tolist())
            times.extend(sched.times[sched.trial < keep].tolist())
        assert len(counts) == 400
        mean_per_bond = np.mean(counts) / 8
        sigma = np.sqrt(horizon * 0.5 / (400 * 8))
        assert abs(mean_per_bond - 5.0) <= 4 * sigma
        hist, _ = np.histogram(times, bins=20, range=(0, horizon))
        assert chisquare(hist).pvalue > 0.01

    def test_total_rate_accounting(self, ring6):
        trs, k = ring6
        expected = 5.0 * trs.n_sites * 0.5  # horizon * L^d * rate/2 * sum p
        assert ex.torus_bonds(trs, k)[2].sum() * 5.0 == pytest.approx(expected)

    def test_times_sorted(self, ring6):
        trs, k = ring6
        sched = ex.build_schedule(trs, k, 20.0, 11)
        assert np.all(np.diff(sched.trial) >= 0)
        same_trial = np.diff(sched.trial) == 0
        assert np.all(np.diff(sched.times)[same_trial] >= 0)


def _starts(torus, rho, seed):
    """Bernoulli(rho) start rows of one chunk of trials."""
    rng = np.random.default_rng(seed)
    return (rng.random((CHUNK, torus.n_sites)) < rho).astype(np.uint8)


def _state_at(bits, sched, t):
    """xi_t of every trial: a copy of the start rows carried through the
    link events up to t."""
    bits = np.array(bits, dtype=np.uint8, ndmin=2)
    for _ in ex.replay(bits, sched, t):
        pass
    return bits


def _occupation(bits, sched, site, t):
    """T_t = integral_0^t xi_s(site) ds of every trial, summed over the
    replay pieces."""
    bits = np.array(bits, dtype=np.uint8, ndmin=2)
    acc = np.zeros(len(bits))
    for t0, t1, _ in ex.replay(bits, sched, t):
        acc += (t1 - t0) * bits[:, site]
    return acc


def _one_trial(horizon, times, a, b):
    """A hand-made schedule for a chunk of one trial."""
    return ex.LinkSchedule(horizon, np.array(times, dtype=float), np.array(a, dtype=int),
                           np.array(b, dtype=int), np.zeros(len(times), dtype=int))


class TestEvolve:
    def test_no_events_returns_initial(self, ring6):
        trs, k = ring6
        eta = np.tile(ex.sample_initial(trs, 0.5, 5).bits, (CHUNK, 1))
        sched = ex.build_schedule(trs, k, 4.0, 8)
        t_first = sched.times.min()
        np.testing.assert_array_equal(_state_at(eta, sched, t_first * 0.5), eta)

    def test_single_swap(self, ring6):
        bits = np.zeros((1, 6), dtype=np.uint8)
        bits[0, 2] = 1
        out = _state_at(bits, _one_trial(1.0, [0.5], [2], [3]), 0.9)
        assert out[0, 2] == 0 and out[0, 3] == 1

    def test_full_configuration_fixed(self, ring6):
        trs, k = ring6
        sched = ex.build_schedule(trs, k, 6.0, 2)
        np.testing.assert_array_equal(_state_at(np.ones((CHUNK, 6)), sched, 6.0), 1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 6.0))
    def test_particle_count_conserved(self, seed, t):
        trs = Torus(1, 8)
        k = srw_kernel(1)
        eta = _starts(trs, 0.4, seed)
        sched = ex.build_schedule(trs, k, 6.0, seed + 1)
        np.testing.assert_array_equal(_state_at(eta, sched, t).sum(axis=1), eta.sum(axis=1))

    def test_beyond_horizon_rejected(self, ring6):
        trs, k = ring6
        eta = ex.sample_initial(trs, 0.5, 1)
        sched = ex.build_schedule(trs, k, 1.0, 1)
        with pytest.raises(ValueError):
            _state_at(eta.bits, sched, 1.5)

    def test_bits_without_a_row_per_trial_rejected(self, ring6):
        # the swaps must land in the caller's array, not in a copy of it, and
        # every trial of the schedule needs its own row
        trs, k = ring6
        sched = ex.build_schedule(trs, k, 1.0, 1)
        for bits in (np.zeros((6, CHUNK), dtype=np.uint8).T,
                     np.zeros((sched.trial.max(), 6), dtype=np.uint8)):
            with pytest.raises(ValueError):
                next(ex.replay(bits, sched, 1.0))

    def test_checkpoint_replay_consistent(self, ring6):
        # a replay to 7 passes through the state a replay to 3 ends in, and
        # leaves the initial configuration untouched
        trs, k = ring6
        eta = ex.sample_initial(trs, 0.5, 9)
        start = np.tile(eta.bits, (CHUNK, 1))
        sched = ex.build_schedule(trs, k, 8.0, 10)
        mid = _state_at(start, sched, 3.0)
        bits = start.copy()
        seen = np.zeros(CHUNK, dtype=int)
        at_3 = np.empty_like(bits)
        for t0, t1, _ in ex.replay(bits, sched, 7.0):
            inside = (t0 <= 3.0) & (3.0 < t1)
            seen += inside
            at_3[inside] = bits[inside]
        assert np.all(seen == 1)
        np.testing.assert_array_equal(at_3, mid)
        np.testing.assert_array_equal(_state_at(start, sched, 7.0), bits)
        np.testing.assert_array_equal(start, np.tile(eta.bits, (CHUNK, 1)))


def _pieces(bits, sched, t, marks=()):
    """(t0, t1, marks passed, bits during the piece) for every piece, one list
    per trial."""
    out = [[] for _ in bits]
    for t0, t1, m in ex.replay(bits, sched, t, marks):
        for r, pieces in enumerate(out):
            pieces.append((float(t0[r]), float(t1[r]), int(m[r]), "".join(map(str, bits[r]))))
    return out


class TestReplay:
    def _one_swap(self, time=0.5, horizon=1.0):
        trs = Torus(1, 4)
        bits = np.array([[0, 0, 1, 0]], dtype=np.uint8)
        return trs, bits, _one_trial(horizon, [time], [2], [3])

    def test_link_event_before_tied_mark(self):
        _, bits, sched = self._one_swap()
        assert _pieces(bits, sched, 1.0, [0.5]) == [[
            (0.0, 0.5, 0, "0010"), (0.5, 0.5, 0, "0001"), (0.5, 1.0, 1, "0001")]]

    def test_empty_schedule(self):
        bits = np.array([[1, 0, 1]], dtype=np.uint8)
        sched = ex.build_schedule(Torus(1, 3), srw_kernel(1), 0.0, 1)
        assert _pieces(bits, sched, 0.0) == [[(0.0, 0.0, 0, "101")]]
        empty = _one_trial(2.0, [], [], [])
        assert _pieces(bits, empty, 2.0) == [[(0.0, 2.0, 0, "101")]]
        assert _pieces(bits, empty, 2.0, [0.5, 1.5]) == [[
            (0.0, 0.5, 0, "101"), (0.5, 1.5, 1, "101"), (1.5, 2.0, 2, "101")]]

    def test_mark_at_t_is_passed(self):
        _, bits, sched = self._one_swap()
        assert _pieces(bits, sched, 0.8, [0.2, 0.8, 0.9]) == [[
            (0.0, 0.2, 0, "0010"), (0.2, 0.5, 1, "0010"), (0.5, 0.8, 1, "0001"),
            (0.8, 0.8, 2, "0001")]]

    def test_t_equal_to_horizon(self):
        _, bits, sched = self._one_swap(time=1.0, horizon=1.0)
        assert _pieces(bits, sched, 1.0) == [[(0.0, 1.0, 0, "0010"),
                                              (1.0, 1.0, 0, "0001")]]
        with pytest.raises(ValueError):
            _pieces(bits, sched, 1.0 + 1e-12)

    def test_pieces_tile_interval(self, ring6):
        # each trial's own pieces tile [0, t]; a finished trial pads with (t, t)
        trs, k = ring6
        sched = ex.build_schedule(trs, k, 3.0, 9)
        marks = np.sort(np.random.default_rng(10).random(5) * 2.5)
        out = _pieces(np.zeros((CHUNK, 6), dtype=np.uint8), sched, 2.5, marks)
        n_cuts = np.bincount(sched.trial[sched.times <= 2.5], minlength=CHUNK) + len(marks)
        for pieces, cuts in zip(out, n_cuts.tolist()):
            own, pad = pieces[:cuts + 1], pieces[cuts + 1:]
            assert own[0][0] == 0.0 and own[-1][1] == 2.5
            assert all(p[1] == q[0] for p, q in zip(own, own[1:]))
            assert len(pieces) == n_cuts.max() + 1 and pieces[-1][2] == len(marks)
            assert all(p[:3] == (2.5, 2.5, len(marks)) for p in pad)

    def test_trials_finish_apart(self):
        # two trials of one chunk: the one with fewer cuts idles at t
        sched = ex.LinkSchedule(1.0, np.array([0.2, 0.6, 0.4]), np.array([0, 1, 2]),
                                np.array([1, 2, 3]), np.array([0, 0, 1]))
        bits = np.array([[1, 0, 0, 0], [0, 0, 1, 0]], dtype=np.uint8)
        marks = np.array([[0.5, np.inf, np.inf], [0.4, 0.9, 1.0]])
        assert _pieces(bits, sched, 1.0, marks) == [
            [(0.0, 0.2, 0, "1000"), (0.2, 0.5, 0, "0100"), (0.5, 0.6, 1, "0100"),
             (0.6, 1.0, 1, "0010"), (1.0, 1.0, 1, "0010")],
            [(0.0, 0.4, 0, "0010"), (0.4, 0.4, 0, "0001"), (0.4, 0.9, 1, "0001"),
             (0.9, 1.0, 2, "0001"), (1.0, 1.0, 3, "0001")]]


class TestOccupationTime:
    def test_full_and_empty(self, ring6):
        trs, k = ring6
        sched = ex.build_schedule(trs, k, 5.0, 4)
        np.testing.assert_allclose(_occupation(np.ones((CHUNK, 6)), sched, 0, 5.0), 5.0)
        assert np.all(_occupation(np.zeros((CHUNK, 6)), sched, 0, 5.0) == 0.0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.2, 5.0))
    def test_bounds(self, seed, t):
        trs = Torus(1, 6)
        k = srw_kernel(1)
        eta = _starts(trs, 0.5, seed)
        sched = ex.build_schedule(trs, k, 5.0, seed)
        tt = _occupation(eta, sched, 2, t)
        assert np.all((0.0 <= tt) & (tt <= t + 1e-12))

    def test_stationary_mean(self):
        # E[T_t / t] = rho at equilibrium
        trs = Torus(1, 6)
        k = srw_kernel(1)
        t = 5.0
        n = 10_000
        vals = np.concatenate([
            _occupation(_starts(trs, 0.5, [31, c]), ex.build_schedule(trs, k, t, [32, c]), 0, t)
            for c in range(-(-n // CHUNK))])[:n] / t
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
        states = np.concatenate([
            _state_at(_starts(trs, 0.5, [41, c]), ex.build_schedule(trs, k, t, [42, c]), t)
            for c in range(-(-n // CHUNK))])[:n]
        mean = states[:, 3].mean()
        assert abs(mean - 0.5) <= 4 * np.sqrt(0.25 / n)

    def test_two_time_exchangeability(self):
        # (xi_0(x), xi_t(x)) should have symmetric joint counts at equilibrium
        trs = Torus(1, 6)
        k = srw_kernel(1)
        t = 1.0
        n = 40_000
        a, b = [], []
        for c in range(-(-n // CHUNK)):
            eta = _starts(trs, 0.5, [61, c])
            a.append(eta[:, 2])
            b.append(_state_at(eta, ex.build_schedule(trs, k, t, [62, c]), t)[:, 2])
        a, b = np.concatenate(a)[:n], np.concatenate(b)[:n]
        n01 = int(np.sum((a == 0) & (b == 1)))
        n10 = int(np.sum((a == 1) & (b == 0)))
        diff = (n01 - n10) / n
        sigma = np.sqrt((n01 + n10)) / n
        assert abs(diff) <= 4 * max(sigma, 1e-12)


def _replay_one(bits, times, a, b, t, marks=()):
    """The per-trial oracle of `replay`: one trial's bits (a list) carried
    through its time-sorted link events, one event or mark at a time, with
    the same pieces (t0, t1, marks passed) and the same tie rule."""
    times = [float(x) for x in times] + [math.inf]  # sentinels end both streams
    marks = [float(x) for x in marks] + [math.inf]
    ei, mi, prev = 0, 0, 0.0
    t_ev, t_mk = times[0], marks[0]
    while True:
        if t_ev <= t_mk:
            if t_ev > t:
                break
            yield prev, t_ev, mi
            bits[a[ei]], bits[b[ei]] = bits[b[ei]], bits[a[ei]]
            ei += 1
            prev, t_ev = t_ev, times[ei]
        else:
            if t_mk > t:
                break
            yield prev, t_mk, mi
            mi += 1
            prev, t_mk = t_mk, marks[mi]
    yield prev, t, mi


def _trial_events(sched, r):
    """Times and bonds of trial r's link events."""
    mine = sched.trial == r
    return sched.times[mine], sched.bond_a[mine].tolist(), sched.bond_b[mine].tolist()


def _snapped(build, grid=0.25):
    """`build_schedule` with every other event time moved onto a multiple of
    `grid` (0 and the horizon included) and each trial re-sorted: link
    events then tie with each other, with grid marks, and sit at 0 and t."""
    def snapped(torus, kernel, horizon, seed):
        s = build(torus, kernel, horizon, seed)
        times = s.times.copy()
        times[::2] = np.minimum(np.round(times[::2] / grid) * grid, horizon)
        order = np.lexsort((times, s.trial))
        return ex.LinkSchedule(s.horizon, times[order], s.bond_a[order], s.bond_b[order],
                               s.trial)
    return snapped


def _tied_to_jumps(build, spec, t):
    """`build_schedule` for `montecarlo._moment_trials` with each trial's
    first link event moved onto its first walker jump, which it reads off a
    copy of the generator: a link event and a walker jump then tie."""
    def tied(torus, kernel, horizon, rng):
        s = build(torus, kernel, horizon, rng)
        peek = copy.deepcopy(rng)
        n_jumps = peek.poisson(2.0 * torus.d * spec.kappa * t * spec.p, CHUNK)
        jumps = peek.random(n_jumps.sum()) * t
        times, first_event = s.times.copy(), np.searchsorted(s.trial, np.arange(CHUNK))
        for r in np.flatnonzero((n_jumps > 0) & (np.bincount(s.trial, minlength=CHUNK) > 0)):
            lo = n_jumps[:r].sum()
            times[first_event[r]] = jumps[lo:lo + n_jumps[r]].min()
        order = np.lexsort((times, s.trial))
        return ex.LinkSchedule(s.horizon, times[order], s.bond_a[order], s.bond_b[order],
                               s.trial)
    return tied


def _moment_oracle(spec, t, rng, build=ex.build_schedule):
    """`montecarlo._moment_trials` one trial at a time on the same draws."""
    torus, p = spec.torus, spec.p
    bits = (rng.random((CHUNK, torus.n_sites)) < spec.rho).astype(np.uint8)
    sched = build(torus, spec.kernel, t, rng)
    n_jumps = rng.poisson(2.0 * torus.d * spec.kappa * t * p, CHUNK)
    total = int(n_jumps.sum())
    times = rng.random(total) * t
    who, way = rng.integers(0, p, total).tolist(), rng.integers(0, 2 * torus.d, total).tolist()
    moves = torus.unit_moves().tolist()
    out, lo = [], 0
    for r in range(CHUNK):
        row, walkers, acc, wi = bits[r].tolist(), [0] * p, 0.0, 0
        jumps = np.sort(times[lo:lo + n_jumps[r]])
        for t0, t1, jumped in _replay_one(row, *_trial_events(sched, r), t, jumps):
            while wi < jumped:
                q = who[lo + wi]
                walkers[q] = moves[way[lo + wi]][walkers[q]]
                wi += 1
            acc += (t1 - t0) * sum(row[x] for x in walkers)
        out.append(spec.gamma * acc)
        lo += n_jumps[r]
    return np.array(out)


def _marginal_oracle(initial, kernel, queries, rng, build=ex.build_schedule):
    """`exclusion._marginal_trials` one trial at a time on the same draws."""
    times = [t for _, t in queries]
    sched = build(initial.torus, kernel, times[-1], rng)
    seen = np.zeros((CHUNK, len(queries)), dtype=np.uint8)
    for r in range(CHUNK):
        row, done = initial.bits.tolist(), 0
        for _, _, m in _replay_one(row, *_trial_events(sched, r), times[-1], times):
            for q in range(done, m):
                seen[r, q] = row[queries[q][0]]
            done = m
    return seen


def _weight_oracle(torus, kernel, rho, slices, t, rng, build=ex.build_schedule):
    """`exclusion._weight_trials` one trial at a time on the same draws."""
    slices = [(t0, min(t1, t), vals) for t0, t1, vals in slices if min(t1, t) > t0]
    edges = [e for t0, t1, _ in slices for e in (t0, t1)]
    bits = (rng.random((CHUNK, torus.n_sites)) < rho).astype(np.uint8)
    sched = build(torus, kernel, t, rng)
    accs = []
    for r in range(CHUNK):
        row, acc = bits[r].tolist(), 0.0
        for t0, t1, m in _replay_one(row, *_trial_events(sched, r),
                                     edges[-1] if edges else 0.0, edges):
            if m % 2:
                acc += (t1 - t0) * float((slices[m // 2][2] * np.array(row, np.uint8)).sum())
        accs.append(acc)
    return np.exp(np.array(accs))


def _moment_spec(d, L, kappa, p, rho=0.5, gamma=1.0):
    return exact.OperatorSpec(torus=Torus(d, L), kernel=srw_kernel(d), kappa=kappa, p=p,
                              rho=rho, gamma=gamma)


class TestBatchEquivalence:
    """The batch engine and its three callers against a plain per-trial
    replay fed the same drawn events: pieces, bits, exponents, hit counts
    and weights agree bit for bit."""

    @pytest.mark.parametrize("d, L, horizon, t, marks", [
        # link/mark ties on the quarter grid, marks at 0 and at t
        (1, 6, 2.0, 2.0, [0.0, 0.5, 0.5, 1.25, 2.0]),
        (1, 2, 1.5, 1.0, [0.25, 1.0]),  # the parallel bonds of L=2
        (2, 3, 1.0, 0.75, [0.0, 0.25]),
        (1, 8, 0.02, 0.02, []),  # most trials have no event
        (1, 6, 3.0, 2.5, "per-trial"),
    ], ids=["ring6-ties", "ring2", "torus3x3", "few-events", "per-trial-marks"])
    def test_pieces_and_bits(self, d, L, horizon, t, marks):
        trs = Torus(d, L)
        sched = _snapped(ex.build_schedule)(trs, srw_kernel(d), horizon, [3, L])
        rng = np.random.default_rng([4, L])
        if marks == "per-trial":  # sorted rows padded with inf, some on the grid
            marks = np.sort(np.where(rng.random((CHUNK, 6)) < 0.3, np.inf,
                                     np.round(rng.random((CHUNK, 6)) * 12) / 4), axis=1)
        bits = (rng.random((CHUNK, trs.n_sites)) < 0.5).astype(np.uint8)
        rows = np.broadcast_to(np.asarray(marks, dtype=float), (CHUNK, np.shape(marks)[-1]))
        got = _pieces(bits.copy(), sched, t, marks)
        for r, pieces in enumerate(got):
            row = bits[r].tolist()
            want = [(t0, t1, m, "".join(map(str, row)))
                    for t0, t1, m in _replay_one(row, *_trial_events(sched, r), t, rows[r])]
            assert pieces == want + [(t, t) + want[-1][2:]] * (len(pieces) - len(want))

    @pytest.mark.parametrize("d, L, kappa, p, t", [
        (1, 6, 0.5, 1, 2.0), (1, 2, 1.0, 2, 1.0), (2, 3, 0.5, 2, 0.8),
        (1, 4, 1.0, 0, 1.0), (1, 5, 1.0, 3, 1.0), (1, 6, 0.0, 2, 1.5),
    ], ids=["ring6-p1", "ring2-p2", "torus3x3-p2", "p0", "p3", "kappa0"])
    def test_moment_exponents(self, monkeypatch, d, L, kappa, p, t):
        spec = _moment_spec(d, L, kappa, p, gamma=0.7)
        got = mc._moment_trials(spec, t, np.random.default_rng([5, L, p]))
        want = _moment_oracle(spec, t, np.random.default_rng([5, L, p]))
        assert _hexes(got) == _hexes(want)
        # link events tied with walker jumps, and on the grid with each other
        tied = _tied_to_jumps(_snapped(ex.build_schedule), spec, t)
        monkeypatch.setattr(mc, "build_schedule", tied)
        got = mc._moment_trials(spec, t, np.random.default_rng([6, L, p]))
        want = _moment_oracle(spec, t, np.random.default_rng([6, L, p]), tied)
        assert _hexes(got) == _hexes(want)

    @pytest.mark.parametrize("d, L, queries", [
        (1, 8, [(0, 0.0), (3, 0.5), (5, 1.0), (1, 1.0), (7, 2.0)]),
        (1, 2, [(1, 0.25), (0, 1.5)]),
        (2, 3, [(4, 0.0), (8, 0.75), (0, 1.0)]),
    ], ids=["ring8", "ring2", "torus3x3"])
    def test_marginal_hits(self, monkeypatch, d, L, queries):
        trs = Torus(d, L)
        initial = ex.sample_initial(trs, 0.5, L)
        snapped = _snapped(ex.build_schedule)
        monkeypatch.setattr(ex, "build_schedule", snapped)
        got = ex._marginal_trials(initial, srw_kernel(d), queries, np.random.default_rng(L))
        want = _marginal_oracle(initial, srw_kernel(d), queries, np.random.default_rng(L),
                                snapped)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d, L, t, slices", [
        (1, 6, 1.5, [(0.0, 0.5, [0.8, 0, 0, 0, 0, 0]), (0.5, 1.5, [0, 0.3, -0.4, 0, 0, 0])]),
        (1, 6, 2.0, [(0.25, 0.75, [0, 0, 0, 0.5, 0.5, 0]), (1.0, 2.5, [0.1] * 6)]),
        (1, 2, 1.0, [(0.0, 1.0, [0.6, -0.2])]),
        (2, 3, 0.75, [(0.25, 0.5, [0.2] * 9)]),
        (1, 6, 1.0, []),
    ], ids=["ring6", "ring6-past-t", "ring2", "torus3x3", "no-slices"])
    def test_weights(self, monkeypatch, d, L, t, slices):
        trs, k = Torus(d, L), srw_kernel(d)
        slices = [(t0, t1, np.array(vals, dtype=float)) for t0, t1, vals in slices]
        snapped = _snapped(ex.build_schedule)
        monkeypatch.setattr(ex, "build_schedule", snapped)
        got = ex._weight_trials(trs, k, 0.4, slices, t, np.random.default_rng(L))
        want = _weight_oracle(trs, k, 0.4, slices, t, np.random.default_rng(L), snapped)
        assert _hexes(got) == _hexes(want)


class TestChunkKeying:
    """A trial's value depends on (seed, trial) alone: a shorter run is a
    prefix of a longer one across a chunk boundary, and two workers give the
    serial trials."""

    RING8 = ex.Configuration(Torus(1, 8), [1, 0, 0, 1, 1, 0, 1, 0])
    QUERIES = [(0, 0.5), (3, 1.0), (5, 2.0)]

    def _marginal(self):
        return partial(ex._marginal_trials, self.RING8, srw_kernel(1), self.QUERIES)

    SLICES = [(0.0, 1.0, np.array([0.8, 0, 0, 0, 0, 0])),
              (1.0, 1.5, np.array([0, 0, 0.5, 0, 0, 0]))]

    def _weight(self):
        return partial(ex._weight_trials, Torus(1, 6), srw_kernel(1), 0.4, self.SLICES, 1.5)

    def test_marginal_prefix(self):
        long = ex.chunk_trials(self._marginal(), 23, range(700))
        short = ex.chunk_trials(self._marginal(), 23, range(300))
        np.testing.assert_array_equal(long[:300], short)
        means, _ = ex.marginal_mc(self.RING8, srw_kernel(1), self.QUERIES, 300, 23)
        assert _hexes(means) == _hexes(short.sum(axis=0) / 300)

    def test_weight_prefix(self):
        long = ex.chunk_trials(self._weight(), 24, range(700))
        short = ex.chunk_trials(self._weight(), 24, range(300))
        assert _hexes(long[:300]) == _hexes(short)
        mean, _ = ex.exp_weight_mc(Torus(1, 6), srw_kernel(1), 0.4, self.SLICES, 1.5, 300, 24)
        assert mean == float(short.mean())

    @pytest.mark.parametrize("which", ["_marginal", "_weight"])
    def test_two_workers_match_serial(self, which):
        worker = partial(ex.chunk_trials, getattr(self, which)(), 25)
        np.testing.assert_array_equal(mc._run_trials(worker, 700, 2), worker(range(700)))


def _hexes(values):
    return [float(v).hex() for v in values]


def _digest(values):
    """Exact fingerprint of an array (sha256 of its float64 bytes)."""
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


class TestSchedulePin:
    """Exact link schedules of one chunk and the generator state they leave
    behind, at fixed seeds: any change in the draw layout of a chunk (one
    array-valued poisson call for the (trial, bond) counts, then the event
    times) or in the per-trial sort shows up here."""

    # the horizon is scale * t: the per-bond Poisson means of a catalyst
    # running scale times faster up to time t
    @pytest.mark.parametrize("d, L, scale, t, seed, n_events, want", [
        pytest.param(1, 6, 1.0, 2.0, 61, 1515,
                     ("3af952f0744ad70a", "ddd30bb312515fdc", "aedc93769e63ffba",
                      "dcb01fe9c0406713"), id="ring6-t2"),
        # the fk_replay workload's nested (seed, round), chunk keying
        pytest.param(1, 16, 1.0, 3.0, [[5, 2], 7], 6276,
                     ("fd93d0dadfc2501b", "5d7a2b659543162a", "02b5e8e451cadf51",
                      "c8adb291cfa96c16"), id="ring16-t3-nested-seed"),
        pytest.param(2, 3, 1.0, 1.5, 63, 1737,
                     ("1ceff3159bba530a", "435c245a1b7ced37", "f50749a35bb2ff4d",
                      "1b02acd50d60eeba"), id="torus3x3-t1.5"),
        # 15 per bond: numpy's PTRS Poisson branch (lam >= 10)
        pytest.param(1, 5, 30.0, 1.0, 64, 19261,
                     ("9c9b344c1cd3a2b0", "b1e132155470c870", "65ab7b6b511f33cc",
                      "405ee7c4850021ef"), id="ring5-lam15"),
    ])
    def test_build_schedule(self, d, L, scale, t, seed, n_events, want):
        sched = ex.build_schedule(Torus(d, L), srw_kernel(d), scale * t, seed)
        assert len(sched.times) == n_events
        assert (_digest(sched.times), _digest(sched.bond_a), _digest(sched.bond_b),
                _digest(sched.trial)) == want

    @pytest.mark.parametrize("scale, t", [(1.0, 2.0), (1.0, 0.3), (30.0, 1.0),
                                          (7.0, 3.0)])
    def test_generator_state_after_schedule(self, scale, t):
        # a chunk keeps drawing from the generator the schedule used, so the
        # schedule must consume exactly the draws of one (TRIAL_CHUNK, n_bonds)
        # Poisson call followed by the event times (horizon scale * t)
        trs, k = Torus(1, 6), srw_kernel(1)
        rates = ex.torus_bonds(trs, k)[2]
        for seed in range(20):
            rng = np.random.default_rng([seed, 3])
            ex.build_schedule(trs, k, scale * t, rng)
            ref = np.random.default_rng([seed, 3])
            ref.random(int(ref.poisson(rates * (scale * t), (CHUNK, len(rates))).sum()))
            assert rng.random() == ref.random()

    def test_scalar_poisson_draws_match_array_draw(self):
        lam = np.array([0.25, 3.0, 9.5, 10.0, 15.0, 30.0, 0.5, 12.5])
        for seed in range(50):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert [rng.poisson(x) for x in lam.tolist()] == ref.poisson(lam).tolist()
            assert rng.random() == ref.random()

    def test_marginal_mc_at_workload_queries(self):
        trs = Torus(1, 16)
        init = ex.Configuration(trs, [1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0])
        means, stderrs = ex.marginal_mc(
            init, srw_kernel(1), ((0, 0.5), (3, 1.0), (8, 2.0), (5, 1.5), (12, 3.0)),
            400, [5, 1])
        assert _hexes(means) == ["0x1.70a3d70a3d70ap-1", "0x1.4e147ae147ae1p-1",
                                 "0x1.35c28f5c28f5cp-1", "0x1.b333333333333p-3",
                                 "0x1.d47ae147ae148p-2"]
        assert _hexes(stderrs) == ["0x1.6fd1e429de2c8p-6", "0x1.861561c14270fp-6",
                                   "0x1.90776bbc57e91p-6", "0x1.4f1d9a54dc58ap-6",
                                   "0x1.981e1d7fe9fcdp-6"]


class TestReplayPin:
    """Exact float.hex values of every replay entry point at fixed seeds,
    recorded when trials came to be drawn and replayed a chunk at a time;
    any change in draw order or accumulation order shows up here."""

    def test_marginal_mc_with_query_at_t_max(self):
        trs = Torus(1, 8)
        init = ex.Configuration(trs, [1, 0, 0, 1, 1, 0, 1, 0])
        means, stderrs = ex.marginal_mc(
            init, srw_kernel(1), [(0, 0.5), (3, 2.0), (5, 1.2), (1, 2.0), (7, 0.0)],
            300, 21)
        assert _hexes(means) == ["0x1.5dddddddddddep-1", "0x1.2aaaaaaaaaaabp-1",
                                 "0x1.e81b4e81b4e82p-2", "0x1.962fc962fc963p-2",
                                 "0x0.0p+0"]
        assert _hexes(stderrs) == ["0x1.b80641227722ep-6", "0x1.d259a120a022fp-6",
                                   "0x1.d87336ae5e30dp-6", "0x1.cec1331bc435ap-6",
                                   "0x1.830cd1c5d9e0ep-503"]

    def test_exp_weight_mc(self, ring6):
        from pamse import irw

        trs, k = ring6
        K = irw.WeightFunction((((0,), (0.0, 1.0), 0.8), ((2,), (0.4, 1.5), 0.5)))
        slices = K.time_slices(trs)
        assert _hexes(ex.exp_weight_mc(trs, k, 0.4, slices, 1.5, 300, 31)) == [
            "0x1.d3c2543f6ab94p+0", "0x1.8aec3497fcd1dp-5"]
        # a weight that ends before t
        short = irw.WeightFunction((((1,), (0.0, 0.8), -0.6), ((3,), (0.2, 0.5), -1.1)))
        assert _hexes(ex.exp_weight_mc(trs, k, 0.5, short.time_slices(trs), 2.0,
                                       300, 33)) == [
            "0x1.5d02ddcfd070ap-1", "0x1.588aea85478f9p-7"]
        # slices with gaps, the first starting after 0
        gapped = [(0.3, 0.6, np.array([0.5, 0, 0, 0.2, 0, 0])),
                  (0.9, 1.4, np.array([0, 0.7, 0.7, 0, 0, 0]))]
        assert _hexes(ex.exp_weight_mc(trs, k, 0.5, gapped, 1.2, 300, 34)) == [
            "0x1.62d67a3d2cb71p+0", "0x1.d2d104192ddd9p-7"]

    def test_occupation_time_and_evolve_sequence(self):
        # the first trial of the chunk, and a digest of all its trials
        trs = Torus(1, 8)
        eta = np.tile([1, 0, 1, 1, 0, 1, 0, 0], (CHUNK, 1))
        sched = ex.build_schedule(trs, srw_kernel(1), 3.0, 42)
        occ = [_occupation(eta, sched, site, t)
               for site, t in ((0, 3.0), (2, 1.7), (5, 0.0), (7, 2.4), (3, 3.0))]
        assert _hexes([o[0] for o in occ]) == ["0x1.c48b29766fe01p-1", "0x1.b333333333333p+0",
                                               "0x0.0p+0", "0x0.0p+0", "0x1.8000000000000p+1"]
        assert _digest(occ) == "6f92d11777e3ffc9"
        states = ["".join(map(str, _state_at(eta, sched, t)[0]))
                  for t in (0.7, 2.1, 1.0, 3.0, 0.0, 3.0)]
        assert states == ["10110100", "01111000", "01111000", "01111000",
                          "10110100", "01111000"]
