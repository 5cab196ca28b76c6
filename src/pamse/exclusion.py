"""Event-driven symmetric exclusion via the graphical representation.

A trajectory is a Bernoulli(rho) initial configuration plus a time-sorted
list of Poisson link events on unoriented torus bonds; evolving to time t
replays the swaps in order. No time discretization anywhere, so occupation
time integrals are exact per trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Kernel, Torus


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

    def density(self) -> float:
        return self.particle_count / self.torus.n_sites

    def copy(self) -> "Configuration":
        return Configuration(self.torus, self.bits.copy())


def sample_initial(torus: Torus, rho: float, seed) -> Configuration:
    """Bernoulli(rho) product configuration; rho strictly inside (0,1)."""
    if not 0.0 < rho < 1.0:
        raise ValueError("density must lie strictly in (0, 1)")
    rng = np.random.default_rng(seed)
    bits = (rng.random(torus.n_sites) < rho).astype(np.uint8)
    return Configuration(torus, bits)


def torus_bonds(torus: Torus, kernel: Kernel):
    """Unoriented bonds (a, b) with swap rates kernel.rate * p(a, b).

    Each +- offset pair contributes one bond per site; on an L=2 torus the
    two wrap edges appear as parallel bonds, which matches the wrapped
    kernel's total jump rate.
    """
    if kernel.d != torus.d:
        raise ValueError("kernel/torus dimension mismatch")
    a_list, b_list, r_list = [], [], []
    for vec, w in kernel.canonical_bond_offsets():
        perm = torus.shift_table(vec)
        a_list.append(np.arange(torus.n_sites))
        b_list.append(perm)
        r_list.append(np.full(torus.n_sites, kernel.rate * w))
    return (np.concatenate(a_list), np.concatenate(b_list),
            np.concatenate(r_list))


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


@dataclass
class Trajectory:
    """Deterministic function of (initial, schedule). `checkpoint` caches the
    most recently reached state as (number of events applied, bits), so a
    later query replays only the events in between."""

    initial: Configuration
    schedule: LinkSchedule
    checkpoint: tuple | None = None

    def state_at(self, t: float) -> Configuration:
        return evolve(self, t)

    def occupation_time(self, site: int, t: float) -> float:
        return occupation_time(self, site, t)


def evolve(trajectory: Trajectory, t: float) -> Configuration:
    """Apply all link events up to time t (stirring swaps), in order."""
    sched = trajectory.schedule
    if t > sched.horizon:
        raise ValueError("t beyond schedule horizon")
    hi = int(np.searchsorted(sched.times, t, side="right"))
    if trajectory.checkpoint is not None and trajectory.checkpoint[0] <= hi:
        lo, bits = trajectory.checkpoint[0], trajectory.checkpoint[1].copy()
    else:
        lo, bits = 0, trajectory.initial.bits.copy()
    a, b = sched.bond_a, sched.bond_b
    for i in range(lo, hi):
        ai, bi = a[i], b[i]
        bits[ai], bits[bi] = bits[bi], bits[ai]
    trajectory.checkpoint = (hi, bits.copy())
    return Configuration(trajectory.initial.torus, bits)


def occupation_time(trajectory: Trajectory, site: int, t: float) -> float:
    """T_t = integral_0^t xi_s(site) ds, exact over inter-event intervals."""
    sched = trajectory.schedule
    if t > sched.horizon:
        raise ValueError("t beyond schedule horizon")
    bits = trajectory.initial.bits.copy()
    a, b = sched.bond_a, sched.bond_b
    acc = 0.0
    prev = 0.0
    hi = int(np.searchsorted(sched.times, t, side="right"))
    for i in range(hi):
        ti = sched.times[i]
        if bits[site]:
            acc += ti - prev
        prev = ti
        ai, bi = a[i], b[i]
        bits[ai], bits[bi] = bits[bi], bits[ai]
    if bits[site]:
        acc += t - prev
    return acc


def export_checkpoints(trajectory: Trajectory, times, meta: dict | None = None):
    """(time, bitstring) records for debugging, with run metadata attached."""
    records = {"meta": dict(meta or {}), "states": []}
    for t in times:
        bits = evolve(trajectory, float(t)).bits
        records["states"].append((float(t), "".join(str(int(b)) for b in bits)))
    return records


def marginal_mc(initial: Configuration, kernel: Kernel, queries, n: int, seed):
    """Monte-Carlo means of xi_t(y) over link schedules, for fixed initial
    state and a list of (site, t) queries. Returns (means, stderrs)."""
    queries = list(queries)
    t_max = max(t for _, t in queries)
    order = sorted(range(len(queries)), key=lambda i: queries[i][1])
    torus = initial.torus
    hits = np.zeros(len(queries))
    for trial in range(n):
        sched = build_schedule(torus, kernel, t_max, [seed, trial])
        bits = initial.bits.copy()
        a, b, times = sched.bond_a, sched.bond_b, sched.times
        ev = 0
        n_ev = len(times)
        for qi in order:
            site, t = queries[qi]
            while ev < n_ev and times[ev] <= t:
                ai, bi = a[ev], b[ev]
                bits[ai], bits[bi] = bits[bi], bits[ai]
                ev += 1
            hits[qi] += bits[site]
    means = hits / n
    stderrs = np.sqrt(np.maximum(means * (1 - means), 1e-300) / n)
    return means, stderrs


def exp_weight_mc(torus: Torus, kernel: Kernel, rho: float, slices, t: float,
                  n: int, seed, initial: Configuration | None = None):
    """MC estimate of E exp[sum_z int_0^t K(z,s) xi_s(z) ds] for a piecewise
    constant weight given as slices [(t0, t1, site_value_array)].

    Returns (mean, stderr) of the exponential weight.
    """
    weights = np.empty(n)
    for trial in range(n):
        rng = np.random.default_rng([seed, trial])
        if initial is None:
            bits = (rng.random(torus.n_sites) < rho).astype(np.uint8)
        else:
            bits = initial.bits.copy()
        sched = build_schedule(torus, kernel, t, rng)
        acc = 0.0
        ev = 0
        times, a, b = sched.times, sched.bond_a, sched.bond_b
        n_ev = len(times)
        for (t0, t1, vals) in slices:
            t1 = min(t1, t)
            if t1 <= t0:
                continue
            prev = t0
            while ev < n_ev and times[ev] <= t1:
                ti = times[ev]
                if ti > t0:
                    acc += (ti - prev) * float(vals @ bits)
                    prev = ti
                ai, bi = a[ev], b[ev]
                bits[ai], bits[bi] = bits[bi], bits[ai]
                ev += 1
            acc += (t1 - prev) * float(vals @ bits)
        weights[trial] = np.exp(acc)
    mean = float(weights.mean())
    stderr = float(weights.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return mean, stderr
