"""Feynman-Kac Monte Carlo for moments and Lyapunov exponents, plus the
large-diffusion Gaussian-regime probe.

Feynman-Kac trials draw their generator per chunk (`exclusion.chunk_trials`),
probe trials from (base_seed, trial_index), so results are bitwise
reproducible and independent of trial count, worker count or execution
order; parallel runs merge trial arrays by index.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exact import OperatorSpec
from .exclusion import TRIAL_CHUNK, build_schedule, chunk_trials, flat_seed, replay
from .lattice import (check_horizon, check_kappa, check_samples, check_transient,
                      gauss_legendre, heat1d, one_kappa, srw_kernel, green)

# merged events per vectorised pass of a probe trial: each temporary stays in
# L2 and under glibc's 128 KiB mmap threshold, so no pass faults fresh pages
PROBE_CHUNK_EVENTS = 2**14
PROBE_PANELS = 7  # panels of the probe's lag grid, geometric toward 0
PROBE_NODES_PER_PANEL = 12  # Gauss-Legendre nodes per lag panel


@dataclass
class McEstimate:
    mean: float
    stderr: float
    n: int
    log_mean: float | None = None
    log_stderr: float | None = None

    def within(self, value: float, n_sigma: float) -> bool:
        return abs(self.mean - value) <= n_sigma * self.stderr


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


def _moment_trials(spec: OperatorSpec, t: float, rng) -> np.ndarray:
    """Exponents int_0^t gamma sum_q xi_s(X_q(s)) ds of one chunk of trials;
    the walkers' occupation sum is an exact integer."""
    torus, m, p = spec.torus, TRIAL_CHUNK, spec.p
    bits = (rng.random((m, torus.n_sites)) < spec.rho).astype(np.uint8)
    sched = build_schedule(torus, spec.kernel, t, rng)
    n_jumps = rng.poisson(2.0 * torus.d * spec.kappa * t * p, m)
    row, first = np.repeat(np.arange(m), n_jumps), np.cumsum(n_jumps) - n_jumps
    marks = np.full((m, n_jumps.max(initial=0)), np.inf)  # one row of jump times per trial
    marks[row, np.arange(len(row)) - first[row]] = rng.random(len(row)) * t
    marks.sort(axis=1)  # a trial's i-th jump in time moves the walker of its i-th draw
    jump_who, jump_dir = rng.integers(0, p, len(row)), rng.integers(0, 2 * torus.d, len(row))
    # walkers as flat positions in bits, all at the origin site of their row
    offset = np.arange(m)[:, None] * torus.n_sites
    moves = (torus.unit_moves()[:, None, :] + offset).reshape(2 * torus.d, -1)
    walkers, flat = np.repeat(offset, p, axis=1), bits.reshape(-1)
    acc, done = np.zeros(m), np.zeros(m, dtype=np.int64)
    for t0, t1, passed in replay(bits, sched, t, marks):
        r = np.flatnonzero(passed > done)
        j = first[r] + done[r]
        walkers[r, jump_who[j]] = moves[jump_dir[j], walkers[r, jump_who[j]]]
        done = passed
        acc += (t1 - t0) * flat[walkers].sum(axis=1)
    return spec.gamma * acc


def estimate_moment(spec: OperatorSpec, t: float, n: int, seed,
                    n_workers: int = 1) -> McEstimate:
    """E_{nu_rho} E_{0..0} exp[int_0^t gamma sum_q xi_s(X_q(s)) ds] for the
    model `spec` by direct Feynman-Kac sampling; the exponent is integrated
    exactly over the merged event times of the link schedule (spec.kernel)
    and the walker jumps (rate 2 d kappa). No state space is built: no cap."""
    check_horizon(t)
    check_samples(n, 2)
    w = _run_trials(partial(chunk_trials, partial(_moment_trials, spec, t), seed), n,
                    n_workers)
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
        n=n,
        log_mean=_logmeanexp(w),
        log_stderr=_jackknife_log_stderr(w),
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
    lambdas, errs = [], []
    for i, t in enumerate(t_grid):
        est = estimate_moment(spec, t, n, [seed, i], n_workers=n_workers)
        scale = spec.p * t
        lambdas.append(est.log_mean / scale)
        errs.append(est.log_stderr / scale)
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
        fit_window=(float(t_grid[k0]), float(t_grid[-1])),
    )


# ---------------------------------------------------------------------------
# Large-kappa Gaussian-regime probe.
# ---------------------------------------------------------------------------


def _probe_nodes(t: float):
    """Composite GL grid in the lag variable, geometric toward 0."""
    edges = np.concatenate([[0.0], np.geomspace(min(0.25, t / 4), t, PROBE_PANELS)])
    return gauss_legendre(edges, PROBE_NODES_PER_PANEL)


def _probe_trials(d: int, kappa: float, t: float, seed, v_nodes: np.ndarray,
                  v_weights: np.ndarray, trials) -> np.ndarray:
    rate = 2.0 * d
    # per-coordinate heat tables at each lag node, rate-1 d-dim clock
    taus = v_nodes / kappa / d
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
                     n_workers: int = 1):
    """MC mean of (1/t) int_0^t ds int_s^t du p_{(u-s)/kappa}(X_s, X_u) for
    the rate-2d walk on Z^d, against the first-order reference
    G_d / (2 d 1[kappa]).

    Returns (McEstimate, reference_value).
    """
    check_transient(d)
    check_kappa(kappa, positive=True)
    check_horizon(t, positive=True)
    check_samples(n, 2)
    v_nodes, v_weights = _probe_nodes(t)
    worker = partial(_probe_trials, d, kappa, t, seed, v_nodes, v_weights)
    vals = _run_trials(worker, n, n_workers)
    est = McEstimate(mean=float(vals.mean()),
                     stderr=float(vals.std(ddof=1) / np.sqrt(n)), n=n)
    reference = green(srw_kernel(d)) / (2 * d * one_kappa(d, kappa))
    return est, reference


def probe_expectation(d: int, kappa: float, t: float) -> float:
    """Exact mean of `asymptotic_probe` on its lag nodes, (1/t) int_0^t (t - v)
    p_{2d 1[kappa] v}(0, 0) dv: X_{s+v} - X_s is the rate-2d walk, which adds
    2d v to the clock v/kappa of a walk frozen at X_s."""
    v_nodes, v_weights = _probe_nodes(t)
    zero = np.zeros(1, dtype=int)
    clock = 2 * d * one_kappa(d, kappa)
    total = 0.0
    for v, w in zip(v_nodes, v_weights):
        tau = clock * v / d
        total += w * (t - v) * float(heat1d(zero, tau)[0] ** d)
    return float(total / t)
