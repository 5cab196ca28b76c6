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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import Kernel, Torus, check_density


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

    @property
    def particle_count(self) -> int:
        return int(self.bits.sum())


def sample_initial(torus: Torus, rho: float, seed) -> Configuration:
    """Bernoulli(rho) product configuration; rho strictly inside (0,1)."""
    check_density(rho)
    rng = np.random.default_rng(seed)
    bits = (rng.random(torus.n_sites) < rho).astype(np.uint8)
    return Configuration(torus, bits)


@lru_cache(maxsize=32)
def torus_bonds(torus: Torus, kernel: Kernel):
    """Unoriented bonds (a, b) with swap rates kernel.rate * p(a, b).

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
        r_list.append(np.full(torus.n_sites, kernel.rate * w))
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
    total_rate: float

    @property
    def n_events(self) -> int:
        return len(self.times)


def build_schedule(torus: Torus, kernel: Kernel, horizon: float, seed) -> LinkSchedule:
    """Independent Poisson processes per unoriented bond up to the horizon."""
    if horizon < 0:
        raise ValueError("negative horizon")
    a, b, rates = torus_bonds(torus, kernel)
    rng = np.random.default_rng(seed)
    if horizon == 0:
        return LinkSchedule(0.0, np.empty(0), np.empty(0, int), np.empty(0, int),
                            float(rates.sum()))
    counts = rng.poisson(rates * horizon)
    total = int(counts.sum())
    ev_a = np.repeat(a, counts)
    ev_b = np.repeat(b, counts)
    times = rng.random(total) * horizon
    order = np.argsort(times, kind="stable")  # ties broken by insertion order
    return LinkSchedule(horizon, times[order], ev_a[order], ev_b[order],
                        float(rates.sum()))


def replay(bits: np.ndarray, schedule: LinkSchedule, t: float, marks=()):
    """Carry `bits` through the link events of `schedule` up to time t, in
    place, yielding the constant pieces (t0, t1, m) of [0, t] in order.

    m counts the sorted `marks` passed so far; the caller applies its own
    marks up to m before reading the piece. During a piece of positive
    length, bits hold xi on (t0, t1) and every link event and mark at time
    <= t0 has been passed. A link event tied with a mark is applied first.
    Ties and events at t give zero-length pieces; the last piece ends at t,
    after every link event and mark at time <= t has been passed.
    """
    if t > schedule.horizon:
        raise ValueError("t beyond schedule horizon")
    times = schedule.times.tolist()
    a, b = schedule.bond_a.tolist(), schedule.bond_b.tolist()
    marks = np.asarray(marks, dtype=float).tolist()
    n_ev, n_mk = len(times), len(marks)
    ei, mi, prev = 0, 0, 0.0
    while True:
        t_ev = times[ei] if ei < n_ev else np.inf
        t_mk = marks[mi] if mi < n_mk else np.inf
        t_next = min(t_ev, t_mk)
        if t_next > t:
            yield prev, t, mi
            return
        yield prev, t_next, mi
        if t_ev <= t_mk:
            ai, bi = a[ei], b[ei]
            bits[ai], bits[bi] = bits[bi], bits[ai]
            ei += 1
        else:
            mi += 1
        prev = t_next


@dataclass
class Trajectory:
    """Deterministic function of (initial, schedule)."""

    initial: Configuration
    schedule: LinkSchedule


def evolve(trajectory: Trajectory, t: float) -> Configuration:
    """Apply all link events up to time t (stirring swaps), in order,
    replaying from the initial state."""
    bits = trajectory.initial.bits.copy()
    for _ in replay(bits, trajectory.schedule, t):
        pass
    return Configuration(trajectory.initial.torus, bits)


def occupation_time(trajectory: Trajectory, site: int, t: float) -> float:
    """T_t = integral_0^t xi_s(site) ds, exact over inter-event intervals."""
    bits = trajectory.initial.bits.copy()
    acc = 0.0
    for t0, t1, _ in replay(bits, trajectory.schedule, t):
        if bits[site]:
            acc += t1 - t0
    return acc


def marginal_mc(initial: Configuration, kernel: Kernel, queries, n: int, seed):
    """Monte-Carlo means of xi_t(y) over link schedules, for fixed initial
    state and a list of (site, t) queries. Returns (means, stderrs)."""
    queries = list(queries)
    t_max = max(t for _, t in queries)
    order = sorted(range(len(queries)), key=lambda i: queries[i][1])
    query_times = [queries[qi][1] for qi in order]
    torus = initial.torus
    hits = np.zeros(len(queries))
    for trial in range(n):
        sched = build_schedule(torus, kernel, t_max, [seed, trial])
        bits = initial.bits.copy()
        done = 0
        for _, _, m in replay(bits, sched, t_max, query_times):
            for qi in order[done:m]:
                hits[qi] += bits[queries[qi][0]]
            done = m
    means = hits / n
    stderrs = np.sqrt(np.maximum(means * (1 - means), 1e-300) / n)
    return means, stderrs


def exp_weight_mc(torus: Torus, kernel: Kernel, rho: float, slices, t: float,
                  n: int, seed, initial: Configuration | None = None):
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
        if initial is None:
            bits = (rng.random(torus.n_sites) < rho).astype(np.uint8)
        else:
            bits = initial.bits.copy()
        sched = build_schedule(torus, kernel, t, rng)
        acc = 0.0
        for t0, t1, m in replay(bits, sched, end, edges):
            if m % 2:
                acc += (t1 - t0) * float(slices[m // 2][2] @ bits)
        weights[trial] = np.exp(acc)
    mean = float(weights.mean())
    stderr = float(weights.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return mean, stderr
