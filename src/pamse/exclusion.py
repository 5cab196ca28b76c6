"""Event-driven symmetric exclusion via the graphical representation.

A trajectory is a Bernoulli(rho) initial configuration plus a time-sorted
list of Poisson link events on unoriented torus bonds; evolving to time t
replays the swaps in order. No time discretization anywhere, so occupation
time integrals are exact per trajectory.

Every replay goes through one engine, `replay`: it swaps the bits in place
and yields the constant pieces (t0, t1, marks passed) of [0, t], cut at the
link events and at sorted extra breakpoints ("marks": walker jumps, weight
slice edges, query times) that the caller acts on. A link event and a mark
at the same time are applied link first. Callers integrate a functional of
xi exactly as acc += (t1 - t0) * value, piece by piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import Kernel, Torus, check_density, check_horizon


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
    """Time-ordered Poisson link events on torus bonds."""

    horizon: float
    times: np.ndarray
    bond_a: np.ndarray
    bond_b: np.ndarray


def build_schedule(torus: Torus, kernel: Kernel, horizon: float, seed) -> LinkSchedule:
    """Independent Poisson processes per unoriented bond up to the horizon.
    Counts are scalar draws in bond order, as one array-valued poisson call."""
    check_horizon(horizon)
    a, b, rates = torus_bonds(torus, kernel)
    rng = np.random.default_rng(seed)
    if horizon == 0:
        return LinkSchedule(0.0, np.empty(0), np.empty(0, int), np.empty(0, int))
    counts = [rng.poisson(r * horizon) for r in rates.tolist()]
    ev_a = np.repeat(a, counts)
    ev_b = np.repeat(b, counts)
    times = rng.random(sum(counts)) * horizon
    order = np.argsort(times, kind="stable")  # ties broken by insertion order
    return LinkSchedule(horizon, times[order], ev_a[order], ev_b[order])


def replay(bits, schedule: LinkSchedule, t: float, marks=()):
    """Carry `bits` (a list or an array) through the link events of
    `schedule` up to time t, in place, yielding the constant pieces
    (t0, t1, m) of [0, t] in order.

    m counts the sorted `marks` passed so far; the caller applies its own
    marks up to m before reading the piece. During a piece of positive
    length, bits hold xi on (t0, t1) and every link event and mark at time
    <= t0 has been passed. A link event tied with a mark is applied first.
    Ties and events at t give zero-length pieces; the last piece ends at t,
    after every link event and mark at time <= t has been passed.
    """
    if t > schedule.horizon:
        raise ValueError("t beyond schedule horizon")
    times = schedule.times.tolist() + [math.inf]  # sentinels end both streams
    marks = np.asarray(marks, dtype=float).tolist() + [math.inf]
    a, b = schedule.bond_a.tolist(), schedule.bond_b.tolist()
    ei, mi, prev = 0, 0, 0.0
    t_ev, t_mk = times[0], marks[0]
    while True:
        if t_ev <= t_mk:
            if t_ev > t:
                break
            yield prev, t_ev, mi
            ai, bi = a[ei], b[ei]
            bits[ai], bits[bi] = bits[bi], bits[ai]
            ei += 1
            prev, t_ev = t_ev, times[ei]
        else:
            if t_mk > t:
                break
            yield prev, t_mk, mi
            mi += 1
            prev, t_mk = t_mk, marks[mi]
    yield prev, t, mi


def marginal_mc(initial: Configuration, kernel: Kernel, queries, n: int, seed):
    """Monte-Carlo means of xi_t(y) over link schedules, for fixed initial
    state and a list of (site, t) queries. Returns (means, stderrs)."""
    queries = list(queries)
    t_max = max(t for _, t in queries)
    order = sorted(range(len(queries)), key=lambda i: queries[i][1])
    query_times = [queries[qi][1] for qi in order]
    torus = initial.torus
    start = initial.bits.tolist()
    hits = [0] * len(queries)
    for trial in range(n):
        sched = build_schedule(torus, kernel, t_max, [seed, trial])
        bits = start.copy()
        done = 0
        for _, _, m in replay(bits, sched, t_max, query_times):
            for qi in order[done:m]:
                hits[qi] += bits[queries[qi][0]]
            done = m
    means = np.array(hits) / n
    stderrs = np.sqrt(np.maximum(means * (1 - means), 1e-300) / n)
    return means, stderrs


def exp_weight_mc(torus: Torus, kernel: Kernel, rho: float, slices, t: float,
                  n: int, seed):
    """MC estimate of E exp[sum_z int_0^t K(z,s) xi_s(z) ds] for a piecewise
    constant weight given as time-sorted, non-overlapping slices
    [(t0, t1, site_value_array)]; the weight is zero outside them.

    Returns (mean, stderr) of the exponential weight.
    """
    # slice k spans marks 2k and 2k+1: an odd count m lies inside slice m // 2
    slices = [(t0, min(t1, t), vals) for t0, t1, vals in slices if min(t1, t) > t0]
    edges = [e for t0, t1, _ in slices for e in (t0, t1)]
    end = edges[-1] if edges else 0.0
    weights = np.empty(n)
    for trial in range(n):
        rng = np.random.default_rng([seed, trial])
        bits = (rng.random(torus.n_sites) < rho).astype(np.uint8)
        sched = build_schedule(torus, kernel, t, rng)
        acc = 0.0
        for t0, t1, m in replay(bits, sched, end, edges):
            if m % 2:
                acc += (t1 - t0) * float(slices[m // 2][2] @ bits)
        weights[trial] = np.exp(acc)
    mean = float(weights.mean())
    stderr = float(weights.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return mean, stderr
