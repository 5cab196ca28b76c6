"""Feynman-Kac Monte Carlo for moments and Lyapunov exponents, plus walk
statistics and the large-diffusion Gaussian-regime probe.

Every trial draws its own generator from (base_seed, trial_index), so results
are bitwise reproducible and independent of worker count or execution order;
parallel runs merge trial arrays by index.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .exact import OperatorSpec
from .exclusion import build_schedule, replay
from .lattice import Kernel, check_kappa, gauss_legendre, heat1d, srw_kernel, green

TRIAL_CHUNK = 256  # trials per task handed to a worker process
# merged events per vectorised pass of a probe trial: each temporary stays in
# L2 and under glibc's 128 KiB mmap threshold, so no pass faults fresh pages
PROBE_CHUNK_EVENTS = 2**14


@dataclass
class McEstimate:
    mean: float
    stderr: float
    n: int
    seed: object
    log_mean: float | None = None
    log_stderr: float | None = None
    seconds: float = 0.0

    def within(self, value: float, n_sigma: float) -> bool:
        return abs(self.mean - value) <= n_sigma * self.stderr


def flat_seed(seed) -> tuple:
    """Flatten arbitrarily nested seed material into a tuple of ints."""
    if isinstance(seed, (list, tuple)):
        out = []
        for s in seed:
            out.extend(flat_seed(s))
        return tuple(out)
    return (int(seed),)


def _run_trials(worker, n: int, n_workers: int) -> np.ndarray:
    """Map worker(trial_range) -> array over trials, merged in index order."""
    if n_workers <= 1:
        return worker(range(n))
    ranges = [range(lo, min(lo + TRIAL_CHUNK, n)) for lo in range(0, n, TRIAL_CHUNK)]
    try:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(worker, ranges))
    except (OSError, PermissionError) as exc:  # restricted environments
        warnings.warn(f"process pool unavailable ({exc!r}); running all {n} "
                      f"trials serially in this process", RuntimeWarning, stacklevel=3)
        return worker(range(n))
    return np.concatenate(parts)


def _logmeanexp(w: np.ndarray) -> float:
    m = float(np.max(w))
    return m + float(np.log(np.mean(np.exp(w - m))))


def effective_sample_size(w: np.ndarray) -> float:
    """(sum e^w)^2 / sum e^2w: collapses when a few trials dominate."""
    m = float(np.max(w))
    e = np.exp(w - m)
    return float(e.sum() ** 2 / np.sum(e**2))


def _jackknife_log_stderr(w: np.ndarray) -> float:
    """Stderr of log-mean-exp by leave-one-out jackknife."""
    n = len(w)
    m = float(np.max(w))
    e = np.exp(w - m)
    s = e.sum()
    loo = np.log((s - e) / (n - 1)) + m
    return float(np.sqrt((n - 1) * np.var(loo)))


def _moment_trials(spec: OperatorSpec, t: float, seed, initial_bits,
                   trials) -> np.ndarray:
    """Per-trial exponents int_0^t gamma sum_q xi_s(X_q(s)) ds."""
    torus = spec.torus
    d, p = torus.d, spec.p
    moves = torus.unit_moves()
    out = np.empty(len(trials))
    for k, trial in enumerate(trials):
        rng = np.random.default_rng(flat_seed(seed) + (trial,))
        if initial_bits is None:
            bits = (rng.random(torus.n_sites) < spec.rho).astype(np.uint8)
        else:
            bits = np.array(initial_bits, dtype=np.uint8)
        sched = build_schedule(torus, spec.kernel, t, rng)
        # at kappa = 0 these are empty draws, which leave rng untouched
        n_jumps = rng.poisson(2.0 * d * spec.kappa * t * p)
        jump_times = np.sort(rng.random(n_jumps) * t)
        jump_who = rng.integers(0, p, n_jumps)
        jump_dir = rng.integers(0, 2 * d, n_jumps)
        walkers = np.zeros(p, dtype=int)  # all start at the origin site
        acc = 0.0
        wi = 0
        for t0, t1, jumped in replay(bits, sched, t, jump_times):
            while wi < jumped:
                q = jump_who[wi]
                walkers[q] = moves[jump_dir[wi], walkers[q]]
                wi += 1
            acc += (t1 - t0) * float(bits[walkers].sum())
        out[k] = spec.gamma * acc
    return out


def estimate_moment(spec: OperatorSpec, t: float, n: int, seed,
                    n_workers: int = 1, initial_bits=None) -> McEstimate:
    """E_{nu_rho} E_{0..0} exp[int_0^t gamma sum_q xi_s(X_q(s)) ds] for the
    model `spec` by direct Feynman-Kac sampling; the exponent is integrated
    exactly over the merged event times of the link schedule (spec.kernel)
    and the walker jumps (rate 2 d kappa). No state space is built: no cap.

    initial_bits pins the catalyst start instead of sampling it from nu_rho."""
    if n < 2:
        raise ValueError("need at least two trials")
    t0 = time.time()
    w = _run_trials(partial(_moment_trials, spec, t, seed, initial_bits), n, n_workers)
    vals = np.exp(w)
    ess = effective_sample_size(w)
    if ess < 0.01 * n:
        warnings.warn(
            f"exponential weights are heavy-tailed (effective sample size "
            f"{ess:.0f} of {n}); increase the trial count by ~{n / max(ess, 1):.0f}x "
            f"or shorten the horizon", RuntimeWarning, stacklevel=2)
    return McEstimate(
        mean=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / np.sqrt(n)),
        n=n, seed=seed,
        log_mean=_logmeanexp(w),
        log_stderr=_jackknife_log_stderr(w),
        seconds=time.time() - t0,
    )


@dataclass
class LyapunovRun:
    spec: OperatorSpec
    t_grid: np.ndarray
    lambdas: np.ndarray
    lambda_err: np.ndarray
    plateau: float
    plateau_err: float
    fit_window: tuple
    estimates: list = field(default_factory=list)

    def bounds_ok(self) -> bool:
        """Jensen floor gamma*rho and the trivial ceiling gamma (4 sigma),
        for every grid value and for the fitted plateau."""
        g = self.spec.gamma
        lo = g * self.spec.rho - 4 * self.lambda_err
        hi = g + 4 * self.lambda_err
        fin = np.isfinite(self.lambdas)
        grid_ok = bool(np.all(self.lambdas[fin] >= lo[fin])
                       and np.all(self.lambdas[fin] <= hi[fin]))
        slack = 4 * max(self.plateau_err, float(np.max(self.lambda_err, initial=0.0)))
        plateau_ok = (g * self.spec.rho - slack <= self.plateau
                      <= g + slack)
        return grid_ok and plateau_ok


def lambda_curve(spec: OperatorSpec, t_grid, n: int, seed,
                 n_workers: int = 1) -> LyapunovRun:
    """Lambda_p(t) = log E[u(0, t)^p] / (p t) over a time grid, one
    estimate_moment run per point (seed [seed, i]), with a linear-in-1/t
    plateau fit over the last third."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0) or np.any(t_grid <= 0):
        raise ValueError("t grid must be positive and increasing")
    lambdas, errs, ests = [], [], []
    for i, t in enumerate(t_grid):
        est = estimate_moment(spec, t, n, [seed, i], n_workers=n_workers)
        scale = spec.p * t
        lambdas.append(est.log_mean / scale)
        errs.append(est.log_stderr / scale)
        ests.append(est)
    lambdas = np.asarray(lambdas)
    errs = np.asarray(errs)
    k0 = max(0, len(t_grid) - max(2, len(t_grid) // 3))
    if len(t_grid) - k0 < 2:
        raise ValueError("fit window too short")
    x = 1.0 / t_grid[k0:]
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, lambdas[k0:], rcond=None)
    cov_scale = np.linalg.inv(A.T @ A)[0, 0]
    plateau_err = float(np.sqrt(cov_scale) * np.sqrt(np.mean(errs[k0:] ** 2)
                                                     * len(x)))
    return LyapunovRun(
        spec=spec, t_grid=t_grid, lambdas=lambdas, lambda_err=errs,
        plateau=float(coef[0]), plateau_err=plateau_err,
        fit_window=(float(t_grid[k0]), float(t_grid[-1])), estimates=ests,
    )


# ---------------------------------------------------------------------------
# Path-blocking lower bound and the range of the catalyst walk.
# ---------------------------------------------------------------------------


def range_mean(kernel: Kernel, t: float, n: int, seed) -> McEstimate:
    """E R_t: mean number of distinct sites visited up to time t."""
    if n < 2:
        raise ValueError("need at least two trials")
    offsets = np.stack([np.asarray(v) for v, _ in kernel.offsets])
    weights = np.array([w for _, w in kernel.offsets])
    vals = np.empty(n)
    for trial in range(n):
        rng = np.random.default_rng(flat_seed(seed) + (trial,))
        n_jumps = rng.poisson(kernel.rate * t)
        if n_jumps == 0:
            vals[trial] = 1.0
            continue
        steps = offsets[rng.choice(len(offsets), size=n_jumps, p=weights)]
        path = np.vstack([np.zeros((1, kernel.d), dtype=int), np.cumsum(steps, axis=0)])
        vals[trial] = len({tuple(r) for r in path})
    return McEstimate(mean=float(vals.mean()),
                      stderr=float(vals.std(ddof=1) / np.sqrt(n)),
                      n=n, seed=seed)


@dataclass
class BlockingBound:
    mc_bound: float
    analytic_bound: float
    p_catalyst_full: McEstimate
    p_walker_stays: McEstimate
    range_estimate: McEstimate
    t: float


def blocking_lower_bound(spec: OperatorSpec, box_sites, t: float, n: int,
                         seed) -> BlockingBound:
    """Lower bound gamma + (1/t) log[ P(catalyst fills Q up to t) *
    P(walker stays in Q up to t) ] with both probabilities Monte Carlo, plus
    the analytic sub-bound rho^{|Q| E R_t} for the catalyst factor."""
    torus = spec.torus
    box = np.asarray([torus.index(s) if not np.isscalar(s) else int(s)
                      for s in box_sites], dtype=int)
    full_hits = 0
    for trial in range(n):
        rng = np.random.default_rng(flat_seed(seed) + (1, trial))
        bits = (rng.random(torus.n_sites) < spec.rho).astype(np.uint8)
        if not np.all(bits[box]):
            continue
        sched = build_schedule(torus, spec.kernel, t, rng)
        full_hits += all(np.all(bits[box]) for _ in replay(bits, sched, t))
    p_full = full_hits / n
    p_full_est = McEstimate(p_full, float(np.sqrt(max(p_full * (1 - p_full), 1e-300) / n)), n, seed)

    d = torus.d
    moves = torus.unit_moves()
    box_set = set(int(b) for b in box)
    origin = torus.index((0,) * d)
    stay_hits = 0
    for trial in range(n):
        rng = np.random.default_rng(flat_seed(seed) + (2, trial))
        site = origin
        inside = origin in box_set
        if inside:
            n_jumps = rng.poisson(2.0 * d * spec.kappa * t)
            dirs = rng.integers(0, 2 * d, n_jumps)
            for k in dirs:
                site = int(moves[k, site])
                if site not in box_set:
                    inside = False
                    break
        stay_hits += inside
    p_stay = stay_hits / n
    p_stay_est = McEstimate(p_stay, float(np.sqrt(max(p_stay * (1 - p_stay), 1e-300) / n)), n, seed)

    rng_est = range_mean(spec.kernel, t, max(n // 4, 2), flat_seed(seed) + (3,))
    if t == 0:
        mc_bound = spec.gamma
        analytic = spec.gamma
    elif p_full > 0 and p_stay > 0:
        mc_bound = spec.gamma + (np.log(p_full) + np.log(p_stay)) / t
        analytic = (spec.gamma
                    + (len(box) * rng_est.mean * np.log(spec.rho)) / t
                    + np.log(p_stay) / t if p_stay > 0 else -np.inf)
    else:
        mc_bound = -np.inf
        analytic = -np.inf
    return BlockingBound(mc_bound=float(mc_bound), analytic_bound=float(analytic),
                         p_catalyst_full=p_full_est, p_walker_stays=p_stay_est,
                         range_estimate=rng_est, t=t)


# ---------------------------------------------------------------------------
# Large-kappa Gaussian-regime probe.
# ---------------------------------------------------------------------------


def _probe_nodes(t: float, n_panels: int = 14, nodes_per_panel: int = 12):
    """Composite GL grid in the lag variable, geometric toward 0."""
    edges = np.concatenate([[0.0], np.geomspace(min(0.25, t / 4), t, n_panels)])
    return gauss_legendre(edges, nodes_per_panel)


def _probe_trials(d: int, kappa: float, t: float, shift: float, seed,
                  v_nodes: np.ndarray, v_weights: np.ndarray, trials) -> np.ndarray:
    rate = 2.0 * d
    # per-coordinate heat tables at each lag node, rate-1 d-dim clock
    taus = (v_nodes / kappa + shift) / d
    m_max = np.ceil(taus + 10.0 * np.sqrt(taus + 1.0) + 8).astype(np.int64)
    heat = [heat1d(np.arange(-m, m + 1), tau) for m, tau in zip(m_max, taus)]
    tables, width = None, int(m_max.max())
    out = np.empty(len(trials))
    for k, trial in enumerate(trials):
        rng = np.random.default_rng(flat_seed(seed) + (trial,))
        n_jumps = rng.poisson(rate * t)
        tau_jump = np.sort(rng.random(n_jumps) * t)
        axes = rng.integers(0, d, n_jumps)
        signs = rng.integers(0, 2, n_jumps) * 2 - 1
        steps = np.zeros((n_jumps, d), dtype=np.int64)
        steps[np.arange(n_jumps), axes] = signs
        pos = np.vstack([np.zeros((1, d), dtype=np.int64), np.cumsum(steps, axis=0)])
        path = np.ascontiguousarray(pos.T)  # one row per axis
        reach = int(np.ptp(path, axis=1).max())  # bounds every |X_u - X_s| coordinate
        if tables is None or reach > width:
            width = max(width, reach)
            tables = _window_tables(heat, m_max, width)
        per_chunk = max(1, PROBE_CHUNK_EVENTS // (2 * n_jumps + 1))
        total = 0.0
        for lo in range(0, len(v_nodes), per_chunk):
            nodes = slice(lo, lo + per_chunk)
            for term in _probe_chunk(tau_jump, path, t, v_nodes[nodes], v_weights[nodes],
                                     tables[nodes], width):
                total += term  # in node order
        out[k] = total / t
    return out


def _window_tables(heat: list, m_max: np.ndarray, width: int) -> np.ndarray:
    """The lag nodes' heat tables in one array: row k holds p(m) in column
    width + m for |m| <= m_max[k] and NaN elsewhere, so a product of lookups
    is NaN exactly when a coordinate leaves the node's window."""
    tables = np.full((len(heat), 2 * width + 1), np.nan)
    for row, m, h in zip(tables, m_max, heat):
        row[width - m:width + m + 1] = h
    return tables


def _probe_chunk(tau_jump: np.ndarray, path: np.ndarray, t: float, v: np.ndarray,
                 wgt: np.ndarray, tables: np.ndarray, width: int) -> list:
    """wgt * int_0^{t-v} p(X_s, X_{s+v}) ds for each lag v of a chunk of nodes,
    the walk frozen between jumps. The breakpoints are the merge of tau_jump
    (X_s moves) and tau_jump - v (X_{s+v} moves); after e merged events X_s
    has made i_s jumps and X_{s+v} has made e - i_s. Each node's dot product
    keeps the pieces of positive length inside its window."""
    n_v, n_jumps = len(v), len(tau_jump)
    span = (t - v)[:, None]
    times = np.concatenate([np.broadcast_to(tau_jump, (n_v, n_jumps)),
                            tau_jump - v[:, None]], axis=1)
    order = np.argsort(times, axis=1, kind="stable")  # timsort: a linear merge
    i_s = np.zeros((n_v, 2 * n_jumps + 1), dtype=np.intp)
    np.cumsum(order < n_jumps, axis=1, out=i_s[:, 1:])
    i_u = np.arange(2 * n_jumps + 1) - i_s
    edges = np.take_along_axis(times, order, axis=1)
    np.maximum(edges, 0.0, out=edges)
    np.minimum(edges, span, out=edges)
    seg = np.diff(edges, axis=1, prepend=0.0, append=span)
    flat = tables.ravel()
    rows = (np.arange(n_v) * tables.shape[1] + width)[:, None]
    p = np.ones(seg.shape)
    for axis_path in path:
        p *= flat[axis_path[i_u] - axis_path[i_s] + rows]
    keep = (seg > 0.0) & ~np.isnan(p)
    counts = keep.sum(axis=1)
    seg, p = seg[keep], p[keep]
    return [w * float(seg[hi - n:hi] @ p[hi - n:hi])
            for w, hi, n in zip(wgt, np.cumsum(counts), counts)]


def asymptotic_probe(d: int, kappa: float, t: float, n: int, seed,
                     shift: float = 0.0, n_workers: int = 1):
    """MC mean of (1/t) int_0^t ds int_s^t du p_{(u-s)/kappa + shift}(X_s, X_u)
    for the rate-2d walk on Z^d, against the first-order reference
    G_{shift} / (2 d 1[kappa]).

    Returns (McEstimate, reference_value).
    """
    if d < 3:
        raise ValueError("transient dimensions only (d >= 3)")
    check_kappa(kappa, positive=True)
    if n < 2:
        raise ValueError("need at least two trials")
    v_nodes, v_weights = _probe_nodes(t)
    worker = partial(_probe_trials, d, kappa, t, shift, seed, v_nodes, v_weights)
    vals = _run_trials(worker, n, n_workers)
    est = McEstimate(mean=float(vals.mean()),
                     stderr=float(vals.std(ddof=1) / np.sqrt(n)),
                     n=n, seed=seed)
    one_kappa = 1.0 + 1.0 / (2 * d * kappa)
    kernel = srw_kernel(d)
    reference = green(kernel, t_min=shift) / (2 * d * one_kappa)
    return est, reference


def probe_frozen_value(d: int, kappa: float, t: float, shift: float = 0.0) -> float:
    """Skeleton-quadrature value of the probe for a walk with no jumps,
    which must match (1/t) iint p_{(u-s)/kappa + shift}(0, 0) du ds."""
    v_nodes, v_weights = _probe_nodes(t)
    zero = np.zeros(1, dtype=int)
    total = 0.0
    for v, w in zip(v_nodes, v_weights):
        tau = (v / kappa + shift) / d
        total += w * (t - v) * float(heat1d(zero, tau)[0] ** d)
    return total / t
