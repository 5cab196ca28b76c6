"""Event-driven symmetric exclusion via the graphical representation.

A trajectory is a Bernoulli(rho) initial configuration plus a time-sorted
list of Poisson link events on unoriented torus bonds; evolving to time t
replays the swaps in order. No time discretization anywhere, so occupation
time integrals are exact per trajectory.

Trials are drawn and replayed TRIAL_CHUNK at a time, one generator per chunk
(`chunk_trials`). Every replay goes through one engine, `replay`: it swaps
the rows of an (m, n_sites) bits array in place and yields, step by step, the
constant pieces (t0, t1, marks passed) of [0, t] of all m trials, cut at the
link events and at sorted extra breakpoints ("marks": walker jumps, weight
slice edges, query times) that the caller acts on. A link event and a mark
at the same time are applied link first. Callers integrate a functional of
xi exactly as acc += (t1 - t0) * value, piece by piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .lattice import Kernel, Torus, check_density, check_horizon

TRIAL_CHUNK = 256  # trials drawn from one generator, and per worker task


def flat_seed(seed) -> tuple:
    """Flatten arbitrarily nested seed material into a tuple of ints."""
    if isinstance(seed, (list, tuple)):
        return tuple(x for s in seed for x in flat_seed(s))
    return (int(seed),)


def chunk_trials(chunk, seed, trials) -> np.ndarray:
    """The rows of `trials` (a range) among chunk(rng), which draws and
    evaluates the TRIAL_CHUNK trials of one chunk. Chunk c draws from
    default_rng(flat_seed(seed) + (c,)) and is always drawn whole, so a
    trial's row depends on (seed, trial) alone."""
    base, lo, hi = flat_seed(seed), trials.start, trials.stop
    parts = []
    for first in range(lo - lo % TRIAL_CHUNK, hi, TRIAL_CHUNK):
        rows = chunk(np.random.default_rng(base + (first // TRIAL_CHUNK,)))
        parts.append(rows[max(lo - first, 0):hi - first])
    return np.concatenate(parts)


@dataclass
class Configuration:
    torus: Torus
    bits: np.ndarray  # uint8 occupation per site index

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.shape != (self.torus.n_sites,):
            raise ValueError("bits must have one entry per site")
        if self.bits.max(initial=0) > 1:
            raise ValueError("occupations must be 0 or 1")


def sample_initial(torus: Torus, rho: float, seed) -> Configuration:
    """Bernoulli(rho) product configuration; rho strictly inside (0,1)."""
    check_density(rho)
    rng = np.random.default_rng(seed)
    bits = (rng.random(torus.n_sites) < rho).astype(np.uint8)
    return Configuration(torus, bits)


@lru_cache(maxsize=32)
def torus_bonds(torus: Torus, kernel: Kernel):
    """Unoriented bonds (a, b) with swap rates p(a, b).

    Each +- offset pair contributes one bond per site; on an L=2 torus the
    two wrap edges appear as parallel bonds, which matches the wrapped
    kernel's total jump rate. Memoized per (torus, kernel); the arrays are
    read-only.
    """
    if kernel.d != torus.d:
        raise ValueError("kernel/torus dimension mismatch")
    a_list, b_list, r_list = [], [], []
    for vec, w in kernel.canonical_bond_offsets():
        perm = torus.shift_table(vec)
        a_list.append(np.arange(torus.n_sites))
        b_list.append(perm)
        r_list.append(np.full(torus.n_sites, w))
    out = (np.concatenate(a_list), np.concatenate(b_list), np.concatenate(r_list))
    for arr in out:
        arr.flags.writeable = False
    return out


@dataclass
class LinkSchedule:
    """Poisson link events on torus bonds for a chunk of trials, sorted by
    trial (the bits row an event acts on) and by time within a trial."""

    horizon: float
    times: np.ndarray
    bond_a: np.ndarray
    bond_b: np.ndarray
    trial: np.ndarray


def build_schedule(torus: Torus, kernel: Kernel, horizon: float, seed) -> LinkSchedule:
    """TRIAL_CHUNK independent schedules up to the horizon, one Poisson process
    per unoriented bond and trial: one array-valued poisson call draws the
    (TRIAL_CHUNK, n_bonds) counts, then come the event times, sorted within
    each trial with equal draws in draw order (bond order)."""
    check_horizon(horizon)
    a, b, rates = torus_bonds(torus, kernel)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rates * horizon, (TRIAL_CHUNK, len(rates)))
    trial = np.repeat(np.arange(TRIAL_CHUNK, dtype=np.int64), counts.sum(axis=1))
    u = rng.random(len(trial))  # multiples of 2**-53, so (trial, u) packs into an int64
    order = np.argsort((trial << 53) + (u * 2.0**53).astype(np.int64), kind="stable")
    a, b = (np.repeat(np.tile(x, TRIAL_CHUNK), counts.ravel())[order] for x in (a, b))
    return LinkSchedule(float(horizon), u[order] * horizon, a, b, trial)


def replay(bits: np.ndarray, schedule: LinkSchedule, t: float, marks=()):
    """Carry each row of `bits`, a C-contiguous (m, n_sites) array, through
    its trial's link events in `schedule` up to time t, in place. Each step
    yields the pieces (t0, t1, passed) of all m trials as arrays.

    `marks` is one sorted array for all trials, or (m, k) sorted rows padded
    with inf. passed counts the marks a trial has passed; a step passes at
    most one link event or mark per trial, and the caller applies its mark
    when passed grows, before reading the piece. During a piece of positive
    length, a row holds xi on (t0, t1) and every link event and mark at time
    <= t0 has been passed. A link event tied with a mark is applied first.
    Ties and events at t give zero-length pieces; the last piece ends at t,
    after every event and mark at time <= t, and a finished trial pads with
    pieces (t, t).
    """
    if t > schedule.horizon:
        raise ValueError("t beyond schedule horizon")
    if not bits.flags.c_contiguous or schedule.trial.max(initial=-1) >= len(bits):
        raise ValueError("bits must be a C-contiguous array with a row per trial")
    m, n_sites = bits.shape
    marks = np.broadcast_to(np.asarray(marks, dtype=float), (m, np.shape(marks)[-1]))
    ev, mk = schedule.times <= t, marks <= t
    row = np.concatenate([schedule.trial[ev], np.nonzero(mk)[0]])
    no_swap = np.zeros(mk.sum(), dtype=int)  # a mark swaps site 0 with itself
    # one item per event and mark, the bits it swaps as flat positions in bits
    items = (np.concatenate([schedule.times[ev], marks[mk]]),
             np.concatenate([schedule.bond_a[ev], no_swap]) + row * n_sites,
             np.concatenate([schedule.bond_b[ev], no_swap]) + row * n_sites,
             np.arange(len(row)) >= ev.sum())
    # links and marks are each sorted per trial: merge them on one exact key,
    # (trial, rank of the time, link ahead of a tied mark)
    rank = np.unique(items[0], return_inverse=True)[1]
    order = np.argsort((row * len(row) + rank) * 2 + items[3], kind="stable")
    row = row[order]
    count = np.bincount(row, minlength=m)
    # the item of each step (row) and trial (column); a finished trial idles at t
    slot = np.tile(len(row) + np.arange(m), (count.max(initial=0), 1))
    slot[np.arange(len(row)) - (np.cumsum(count) - count)[row], row] = order
    idle = (np.full(m, float(t)), np.arange(m) * n_sites, np.arange(m) * n_sites,
            np.zeros(m, dtype=bool))
    at, a, b, is_mark = (np.concatenate([x, pad])[slot] for x, pad in zip(items, idle))
    flat, prev, passed = bits.reshape(-1), np.zeros(m), np.zeros(m, dtype=np.int64)
    for k in range(len(at)):
        yield prev, at[k], passed
        flat[a[k]], flat[b[k]] = flat[b[k]], flat[a[k]]
        prev, passed = at[k], passed + is_mark[k]
    yield prev, np.full(m, float(t)), passed


def _marginal_trials(initial: Configuration, kernel: Kernel, queries, rng) -> np.ndarray:
    """xi_t(site) of one chunk of trials, one column per (site, t) of the
    time-sorted queries."""
    sites, times = (np.array(column) for column in zip(*queries))
    bits = np.tile(initial.bits, (TRIAL_CHUNK, 1))
    sched = build_schedule(initial.torus, kernel, times[-1], rng)
    seen = np.zeros((TRIAL_CHUNK, len(queries)), dtype=np.uint8)
    done = np.zeros(TRIAL_CHUNK, dtype=np.int64)
    for _, _, passed in replay(bits, sched, times[-1], times):
        r = np.flatnonzero(passed > done)
        seen[r, done[r]] = bits[r, sites[done[r]]]
        done = passed
    return seen


def marginal_mc(initial: Configuration, kernel: Kernel, queries, n: int, seed):
    """Monte-Carlo means of xi_t(y) over link schedules, for fixed initial
    state and a list of (site, t) queries. Returns (means, stderrs)."""
    queries = list(queries)
    order = sorted(range(len(queries)), key=lambda i: queries[i][1])
    hits = np.empty(len(queries), dtype=np.int64)
    hits[order] = chunk_trials(partial(_marginal_trials, initial, kernel, [
        queries[i] for i in order]), seed, range(n)).sum(axis=0)
    means = hits / n
    stderrs = np.sqrt(np.maximum(means * (1 - means), 1e-300) / n)
    return means, stderrs


def _weight_trials(torus: Torus, kernel: Kernel, rho: float, slices, t: float,
                   rng) -> np.ndarray:
    """exp of the weight integral of one chunk of trials (see exp_weight_mc)."""
    # slice k spans marks 2k and 2k+1: after m marks a trial reads row m of
    # the table, slice m // 2 when m is odd and zero weight between slices
    slices = [(t0, min(t1, t), vals) for t0, t1, vals in slices if min(t1, t) > t0]
    edges = [e for t0, t1, _ in slices for e in (t0, t1)]
    table = np.zeros((len(edges) + 1, torus.n_sites))
    table[1::2] = np.reshape([vals for _, _, vals in slices], (-1, torus.n_sites))
    bits = (rng.random((TRIAL_CHUNK, torus.n_sites)) < rho).astype(np.uint8)
    sched = build_schedule(torus, kernel, t, rng)
    acc = np.zeros(TRIAL_CHUNK)
    for t0, t1, m in replay(bits, sched, edges[-1] if edges else 0.0, edges):
        acc += (t1 - t0) * (table[m] * bits).sum(axis=1)
    return np.exp(acc)


def exp_weight_mc(torus: Torus, kernel: Kernel, rho: float, slices, t: float,
                  n: int, seed):
    """MC estimate of E exp[sum_z int_0^t K(z,s) xi_s(z) ds] for a piecewise
    constant weight given as time-sorted, non-overlapping slices
    [(t0, t1, site_value_array)]; the weight is zero outside them.

    Returns (mean, stderr) of the exponential weight.
    """
    weights = chunk_trials(partial(_weight_trials, torus, kernel, rho, slices, t), seed,
                           range(n))
    mean = float(weights.mean())
    stderr = float(weights.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return mean, stderr
