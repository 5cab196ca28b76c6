"""Deterministic lattice fields and Feynman-Kac Cauchy solvers.

The smoothing field psi, the chi profile and the diagonal/off-diagonal
gradient kernels all reduce to one displacement table
D(v) = integral_0^T p_{2 d s 1k}(0, v) ds on a wrapped window, evaluated with
a shared composite Gauss-Legendre rule whose node count is recorded so that
two-method comparisons stay meaningful. Field evaluation is circular
correlation against that table: one real FFT of the centred configuration
times the cached half-spectrum of chi (`_chi_spectrum`, one `rfftn` per
spec), then one inverse real FFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm as dense_expm
from scipy.sparse.linalg import expm_multiply

from .exact import occupation_bits
from .lattice import (Kernel, Torus, _tail_by_power_fit, check_density, check_kappa,
                      cycle_heat1d, gauss_legendre, green, heat1d, outer_power, srw_kernel,
                      transition_prob_many)

GL_NODES_PER_PANEL = 12
PSI_PANELS = 10  # time panels of the chi and gradient-kernel quadrature
MASS_PANELS = 24  # time panels of the mass-identity integrals
GREEN_SPLIT = 2000.0  # Green window table: quadrature on [0, split], power tail beyond


def _panel_edges(T: float, n_panels: int) -> np.ndarray:
    """Panel edges of time_quadrature on [0, T], refined toward 0."""
    return T * (np.linspace(0.0, 1.0, n_panels + 1) ** 2)


def time_quadrature(T: float, n_panels: int = 8, nodes_per_panel: int = GL_NODES_PER_PANEL):
    """Composite Gauss-Legendre rule on [0, T], panels refined toward 0 where
    heat kernels vary fastest. Returns (nodes, weights)."""
    if T <= 0:
        return np.empty(0), np.empty(0)
    return gauss_legendre(_panel_edges(T, n_panels), nodes_per_panel)


@dataclass(frozen=True)
class PsiSpec:
    """Parameters of the smoothing field psi and the chi profile."""

    kappa: float
    T: float
    torus: Torus
    rho: float = 0.5

    def __post_init__(self):
        check_kappa(self.kappa, positive=True)
        if self.T < 0:
            raise ValueError("need T >= 0")
        check_density(self.rho)

    @property
    def one_kappa(self) -> float:
        """1[k] = 1 + 1/(2 d kappa), always > 1."""
        return 1.0 + 1.0 / (2 * self.torus.d * self.kappa)

    @property
    def quad_node_count(self) -> int:
        return PSI_PANELS * GL_NODES_PER_PANEL


def recommended_side(d: int, T: float, kappa: float) -> int:
    """Window sizing rule: radius >= ceil(6 sqrt(2 d T 1k)) + 1, the spread of
    the nearest-neighbour kernel."""
    onek = 1.0 + 1.0 / (2 * d * kappa)
    radius = int(np.ceil(6.0 * np.sqrt(2 * d * T * onek))) + 1
    return 2 * radius + 1


@dataclass
class Field:
    torus: Torus
    values: np.ndarray

    def grid(self) -> np.ndarray:
        return self.values.reshape((self.torus.L,) * self.torus.d)


@lru_cache(maxsize=32)
def _chi_grid_cached(spec: PsiSpec) -> np.ndarray:
    """The chi grid of a spec, read-only."""
    trs = spec.torus
    nodes, weights = time_quadrature(spec.T, PSI_PANELS)
    # rate-1 d-dim walk at time 2 d s 1k => per-coordinate clock 2 s 1k
    taus = 2.0 * spec.one_kappa * nodes
    out = np.zeros((trs.L,) * trs.d)
    for tau, w in zip(taus, weights):
        out += w * outer_power(cycle_heat1d(trs.L, tau), trs.d)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _chi_spectrum(spec: PsiSpec) -> np.ndarray:
    """Half-spectrum rfftn of the chi grid, read-only."""
    out = np.fft.rfftn(_chi_grid_cached(spec))
    out.flags.writeable = False
    return out


def chi_table(spec: PsiSpec) -> Field:
    """chi(v) = integral_0^T p_{2 d s 1k}(0, v) ds on the wrapped window."""
    return Field(spec.torus, _chi_grid_cached(spec).ravel().copy())


def psi_field(eta_bits: np.ndarray, spec: PsiSpec, sites=None) -> np.ndarray:
    """psi(eta, x) = sum_z chi(z - x) (eta(z) - rho), all sites or selected.

    Exact on the wrapped window (circular correlation by FFT); for eta == 1
    everywhere this returns (1 - rho) T at every site since the chi table
    carries total mass T.
    """
    trs = spec.torus
    eta_bits = np.asarray(eta_bits, dtype=float).ravel()
    if eta_bits.shape != (trs.n_sites,):
        raise ValueError("eta must live on the spec torus")
    shape = (trs.L,) * trs.d
    centered = (eta_bits - spec.rho).reshape(shape)
    out = np.fft.irfftn(np.fft.rfftn(centered) * _chi_spectrum(spec), s=shape,
                        axes=tuple(range(trs.d))).ravel()
    if sites is None:
        return out
    return out[np.asarray(sites, dtype=int)]


def psi_joint_matrix(spec: PsiSpec) -> np.ndarray:
    """psi over the joint (configuration, walker site) basis, for systems
    small enough to enumerate all 2^n configurations."""
    trs = spec.torus
    bits = occupation_bits(trs.n_sites)
    out = np.empty((2**trs.n_sites, trs.n_sites))
    for i in range(2**trs.n_sites):
        out[i] = psi_field(bits[i], spec)
    return out


@dataclass
class PsiBoundsReport:
    n_samples: int
    max_site_diff: float
    site_diff_bound: float
    max_swap_diff: float
    swap_diff_bound: float
    max_swap_square_sum: float
    swap_square_bound: float
    swap_delta_matches_chi: bool
    quad_nodes: int

    @property
    def passed(self) -> bool:
        return (self.max_site_diff <= self.site_diff_bound
                and self.max_swap_diff <= self.swap_diff_bound
                and self.max_swap_square_sum <= self.swap_square_bound
                and self.swap_delta_matches_chi)


def psi_bounds_check(spec: PsiSpec, n_samples: int, seed,
                     green_value: float | None = None,
                     tol: float = 1e-9) -> PsiBoundsReport:
    """Verify the three smoothing-field estimates: nearest-neighbour psi
    differences <= 2T, single-swap differences <= 2 G_d, and the square sum
    of swap differences over all bonds <= G_d / (2d).

    Swap differences factor through the chi table, so their bounds are
    checked at the table level (supremum over configurations); psi itself is
    evaluated on random Bernoulli configurations for the first bound. On each
    configuration a swap across a random bond (a, b) with unequal occupations
    is checked to move psi at every site x by exactly
    (eta(b) - eta(a)) (chi(a - x) - chi(b - x)), to tol * T.
    """
    trs = spec.torus
    d = trs.d
    if green_value is None:
        green_value = green(srw_kernel(d))
    dgrid = _chi_grid_cached(spec)
    rng = np.random.default_rng(seed)

    swap_mag = 0.0
    sq_sum = 0.0
    for axis in range(d):
        diff = np.roll(dgrid, -1, axis=axis) - dgrid
        swap_mag = max(swap_mag, float(np.max(np.abs(diff))))
        sq_sum += float(np.sum(diff**2))

    axes = tuple(range(d))
    reflected = np.roll(np.flip(dgrid), 1, axis=axes)  # chi(-x)

    def chi_from(site):
        """chi(site - x) at every site x."""
        return np.roll(reflected, trs.coords(site), axis=axes).ravel()

    perm = trs.shift_table(tuple(1 if i == 0 else 0 for i in range(d)))
    max_site = 0.0
    swap_ok = True
    for _ in range(n_samples):
        bits = (rng.random(trs.n_sites) < spec.rho).astype(float)
        psi_all = psi_field(bits, spec)
        grid = psi_all.reshape((trs.L,) * d)
        for axis in range(d):
            max_site = max(max_site, float(np.max(np.abs(
                np.roll(grid, -1, axis=axis) - grid))))
        unequal = np.nonzero(bits[perm] != bits)[0]
        if len(unequal):
            a = int(unequal[rng.integers(len(unequal))])
            b = int(perm[a])
            swapped = bits.copy()
            swapped[a], swapped[b] = swapped[b], swapped[a]
            want = (bits[b] - bits[a]) * (chi_from(a) - chi_from(b))
            delta = psi_field(swapped, spec) - psi_all
            swap_ok = swap_ok and float(np.max(np.abs(delta - want))) <= tol * spec.T
    return PsiBoundsReport(
        n_samples=n_samples,
        max_site_diff=max_site,
        site_diff_bound=2 * spec.T + tol,
        max_swap_diff=swap_mag,
        swap_diff_bound=2 * green_value + tol,
        max_swap_square_sum=sq_sum,
        swap_square_bound=green_value / (2 * d) + tol,
        swap_delta_matches_chi=swap_ok,
        quad_nodes=spec.quad_node_count,
    )


# ---------------------------------------------------------------------------
# Gradient kernels of the chi profile.
# ---------------------------------------------------------------------------


@dataclass
class KKernels:
    """The gradient-kernel norms the field gates read."""

    k_diag_norm: float
    k_off_norm_bound: float  # sum_e ||grad_e chi||_1^2 >= true ||K_off||_1
    closed_form_norm: float
    kappa_limit_norm: float


def _heat_diag(d: int, tau_per_coord: float) -> float:
    return float(heat1d(np.zeros(1, dtype=int), tau_per_coord)[0] ** d)


def _kdiag_closed_form(spec: PsiSpec) -> float:
    """(4/1k) int_0^T [ p_{4 d u 1k}(0,0) - p_{2 d (u+T) 1k}(0,0) ] du."""
    d, onek, T = spec.torus.d, spec.one_kappa, spec.T
    us, ws = time_quadrature(T, PSI_PANELS)
    a = sum(w * _heat_diag(d, 4.0 * u * onek) for u, w in zip(us, ws))
    b = sum(w * _heat_diag(d, 2.0 * (u + T) * onek) for u, w in zip(us, ws))
    return 4.0 / onek * (a - b)


def _kdiag_kappa_limit(spec: PsiSpec) -> float:
    """(1/d) ( int_0^{2dT} p_u(0,0) du - int_{2dT}^{4dT} p_u(0,0) du )."""
    d, T = spec.torus.d, spec.T
    us, ws = time_quadrature(2 * d * T, PSI_PANELS)
    a = sum(w * _heat_diag(d, u / d) for u, w in zip(us, ws))
    b = sum(w * _heat_diag(d, (u + 2 * d * T) / d) for u, w in zip(us, ws))
    return (a - b) / d


def k_kernels(spec: PsiSpec) -> KKernels:
    """Norms of the diagonal and off-diagonal gradient kernels of chi, with the
    closed-form value of ||K_diag||_1 and its large-kappa limit; the 2d
    gradients of the cached chi grid are taken one at a time."""
    grid = _chi_grid_cached(spec)
    k_diag = np.zeros_like(grid)
    off_bound = 0.0
    for axis in range(spec.torus.d):
        for sign in (1, -1):
            g = np.roll(grid, -sign, axis=axis) - grid
            k_diag += g**2
            off_bound += np.abs(g).sum() ** 2
    return KKernels(
        k_diag_norm=float(k_diag.sum()), k_off_norm_bound=float(off_bound),
        closed_form_norm=_kdiag_closed_form(spec),
        kappa_limit_norm=_kdiag_kappa_limit(spec),
    )


# ---------------------------------------------------------------------------
# Cauchy problems: dv/dt = rate * Delta^(p) v + c v, v(., 0) = 1.
# ---------------------------------------------------------------------------


@dataclass
class Region:
    """Walk domain: a torus, optionally restricted by a site mask. Jumps to
    masked-out sites are suppressed (the walk pauses), so the restricted
    generator stays symmetric and conserves mass on the region."""

    torus: Torus
    mask: np.ndarray | None = None

    @property
    def sites(self) -> np.ndarray:
        if self.mask is None:
            return np.arange(self.torus.n_sites)
        return np.nonzero(np.asarray(self.mask))[0]

    def local_index(self) -> np.ndarray:
        pos = -np.ones(self.torus.n_sites, dtype=int)
        pos[self.sites] = np.arange(len(self.sites))
        return pos

    def generator(self, kernel: Kernel) -> sp.csr_matrix:
        live = self.sites
        pos = self.local_index()
        rows, cols, vals = [], [], []
        for vec, w in kernel.offsets:
            perm = self.torus.shift_table(vec)
            dst = perm[live]
            ok = pos[dst] >= 0
            rows.append(pos[live[ok]])
            cols.append(pos[dst[ok]])
            vals.append(np.full(int(ok.sum()), kernel.rate * w))
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        m = len(live)
        gen = sp.coo_matrix((vals, (rows, cols)), shape=(m, m)).tocsr()
        return gen - sp.diags(np.asarray(gen.sum(axis=1)).ravel())


def halfspace_region(torus: Torus) -> Region:
    """Sites with first coordinate >= 1; the wrap bond across the wall is cut,
    giving the paused walk on a slab surrogate of the half-space."""
    coords = torus.all_coords()
    return Region(torus, mask=coords[:, 0] >= 1)


@dataclass
class CauchyProblem:
    """A time-independent source c, one value per live site of the region."""

    region: Region
    kernel: Kernel
    horizon: float
    source: np.ndarray

    def __post_init__(self):
        self.source = np.asarray(self.source, dtype=float)


@dataclass
class CauchySolution:
    times: np.ndarray
    v: np.ndarray  # (n_times, n_live_sites)
    mode: str
    stderr: np.ndarray | None = None  # mc mode only

    @property
    def w(self) -> np.ndarray:
        return self.v - 1.0


def solve_cauchy(problem: CauchyProblem, times, mode: str = "stepping",
                 mc_trials: int = 4000, seed=0, series_steps: int = 200,
                 start_sites=None) -> CauchySolution:
    """v(x, t) = E_x exp[int_0^t c(Y_s) ds] at the requested times.

    Modes: 'stepping' (exact matrix exponentials between query times;
    production route), 'series' (Picard/Duhamel iteration on a uniform grid
    with Richardson refinement), 'mc' (Feynman-Kac sampling). start_sites
    restricts the mc mode to selected global site indices; other columns are
    left as nan.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("need a non-empty 1-d time array")
    if np.any(times < 0) or np.any(times > problem.horizon + 1e-12):
        raise ValueError("query times outside [0, horizon]")
    if np.any(np.diff(times) <= 0) and len(times) > 1:
        raise ValueError("times must be strictly increasing")
    if mode == "stepping":
        v = _solve_stepping(problem, times)
    elif mode == "series":
        coarse = _solve_series(problem, times, series_steps)
        fine = _solve_series(problem, times, 2 * series_steps)
        v = (4.0 * fine - coarse) / 3.0
    elif mode == "mc":
        v, err = _solve_mc(problem, times, mc_trials, seed, start_sites)
        return CauchySolution(times=times, v=v, mode=mode, stderr=err)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return CauchySolution(times=times, v=v, mode=mode)


def _solve_stepping(problem: CauchyProblem, times: np.ndarray) -> np.ndarray:
    op = (problem.region.generator(problem.kernel) + sp.diags(problem.source)).tocsr()
    out = np.empty((len(times), op.shape[0]))
    v, prev = np.ones(op.shape[0]), 0.0
    for k, t in enumerate(times):
        if t > prev:
            v = expm_multiply(op * (t - prev), v)
        out[k], prev = v, t
    return out


def _solve_series(problem: CauchyProblem, times: np.ndarray, n_steps: int) -> np.ndarray:
    """Picard iteration for v = 1 + int_0^t P_{t-s} (c v)(s) ds, trapezoid in
    s with the free semigroup applied exactly per step."""
    gen = problem.region.generator(problem.kernel)
    n = gen.shape[0]
    t_end = float(times[-1])
    if t_end == 0.0:
        return np.ones((len(times), n))
    grid = np.linspace(0.0, t_end, n_steps + 1)
    dt = grid[1] - grid[0]
    if n <= 600:
        hop_mat = dense_expm((gen * dt).toarray())

        def hop(x):
            return x @ hop_mat.T
    else:
        def hop(x):
            return expm_multiply(gen * dt, x.T).T

    v = np.ones((len(grid), n))
    delta = np.inf
    for _ in range(300):
        integrand = problem.source * v
        new_v = np.ones_like(v)
        run = np.zeros(n)
        for k in range(1, len(grid)):
            run = hop(run) + 0.5 * dt * (hop(integrand[k - 1]) + integrand[k])
            new_v[k] = 1.0 + run
        delta = float(np.max(np.abs(new_v - v)))
        v = new_v
        if delta < 1e-13:
            break
    if not np.isfinite(delta) or delta > 1e-9:
        raise RuntimeError(f"Picard iteration did not settle (last delta {delta:.2e})")
    idx = np.rint(times / dt).astype(int)
    if np.max(np.abs(grid[idx] - times)) > 1e-9 * max(t_end, 1.0):
        raise ValueError("series mode needs query times on the uniform grid")
    return v[idx]


def _solve_mc(problem: CauchyProblem, times: np.ndarray, n: int, seed,
              start_sites) -> np.ndarray:
    region = problem.region
    live = region.sites
    pos = region.local_index()
    c = problem.source
    offsets = [np.asarray(v) for v, _ in problem.kernel.offsets]
    weights = np.array([w for _, w in problem.kernel.offsets])
    perms = np.stack([region.torus.shift_table(tuple(v)) for v in offsets])
    rate = problem.kernel.rate
    starts = live if start_sites is None else np.asarray(start_sites, dtype=int)
    out = np.full((len(times), len(live)), np.nan)
    err = np.full((len(times), len(live)), np.nan)
    for start in starts:
        acc_exp = np.zeros(len(times))
        acc_sq = np.zeros(len(times))
        for trial in range(n):
            rng = np.random.default_rng([seed, int(start), trial])
            t_now, site = 0.0, int(start)
            acc, ti = 0.0, 0
            vals = np.empty(len(times))
            while ti < len(times):
                t_next = t_now + rng.exponential(1.0 / rate)
                cx = c[pos[site]]
                while ti < len(times) and times[ti] <= t_next:
                    vals[ti] = acc + (times[ti] - t_now) * cx
                    ti += 1
                acc += (t_next - t_now) * cx
                k = int(rng.choice(len(offsets), p=weights))
                target = int(perms[k][site])
                if pos[target] >= 0:
                    site = target  # jumps out of the region are suppressed
                t_now = t_next
            e = np.exp(vals)
            acc_exp += e
            acc_sq += e * e
        col = pos[int(start)]
        out[:, col] = acc_exp / n
        var = np.maximum(acc_sq / n - (acc_exp / n) ** 2, 0.0)
        err[:, col] = np.sqrt(var / max(n - 1, 1))
    return out, err


# ---------------------------------------------------------------------------
# Mass identities and the Green contraction certificate.
# ---------------------------------------------------------------------------


def mass_identity_residual(problem: CauchyProblem, box_sites, t_end: float) -> float:
    """Max residual of sum_x w(x,t) = int_0^t |Q|^-1 sum_{x in Q} w(x,s) ds + t
    for the uniform-box source, checked at every quadrature panel boundary
    along the integration."""
    pos = problem.region.local_index()
    box_local = pos[np.asarray(box_sites, dtype=int)]
    if np.any(box_local < 0):
        raise ValueError("box must lie inside the region")
    nodes, weights = time_quadrature(t_end, MASS_PANELS, 10)  # globally ascending
    edges = _panel_edges(t_end, MASS_PANELS)[1:]
    query = np.unique(np.concatenate([nodes, edges]))
    sol = solve_cauchy(problem, query, mode="stepping")
    w = sol.w
    box_mean = w[np.searchsorted(query, nodes)][:, box_local].mean(axis=1)
    cum = np.cumsum(weights * box_mean)
    per_panel = len(nodes) // MASS_PANELS
    worst = 0.0
    for k in range(1, MASS_PANELS + 1):
        t_edge = float(edges[k - 1])
        total = float(w[np.searchsorted(query, t_edge)].sum())
        integral = float(cum[k * per_panel - 1])
        worst = max(worst, abs(total - (integral + t_edge)))
    return worst


def halfspace_mass_residual(problem: CauchyProblem, source_site: int,
                            strength: float, t_end: float) -> float:
    """Residual of sum_x w(x,t) = strength * t + strength * int_0^t w(z,s) ds
    for a single-site source of signed total strength."""
    pos = problem.region.local_index()
    z = pos[int(source_site)]
    if z < 0:
        raise ValueError("source site outside region")
    nodes, weights = time_quadrature(t_end, MASS_PANELS, 10)
    query = np.unique(np.concatenate([nodes, [t_end]]))
    sol = solve_cauchy(problem, query, mode="stepping")
    w = sol.w
    integral = float(np.sum(weights * w[np.searchsorted(query, nodes), z]))
    total_end = float(w[-1].sum())
    return abs(total_end - (strength * t_end + strength * integral))


@dataclass
class ContractionCertificate:
    theta: float
    sup_bound: float | None

    @property
    def certified(self) -> bool:
        return self.sup_bound is not None


def green_window_table(kernel: Kernel, torus: Torus) -> np.ndarray:
    """G(0, v) over torus displacement indices, rate-1 clock, vectorized
    time quadrature with a power-law tail fit per displacement."""
    if kernel.d <= 2:
        raise ValueError("Green table needs a transient kernel (d >= 3)")
    rate1 = Kernel(d=kernel.d, offsets=kernel.offsets, rate=1.0)
    half = torus.L // 2
    coords = torus.all_coords()
    zs = np.where(coords <= half, coords, coords - torus.L)

    def window(s: float) -> np.ndarray:
        return transition_prob_many(rate1, s, zs)

    nodes, weights = time_quadrature(GREEN_SPLIT, 24, 12)
    body = np.zeros(torus.n_sites)
    for s, w in zip(nodes, weights):
        body += w * window(s)
    return body + _tail_by_power_fit(window, GREEN_SPLIT, kernel.d)


def green_contraction(problem: CauchyProblem) -> ContractionCertificate:
    """theta = sup_x sum_y G(x, y) |c(y)| for a time-independent source; when
    theta < 1, sup_{x,t} w(x,t) <= theta / (1 - theta) is certified."""
    c = np.abs(problem.source)
    region = problem.region
    trs = region.torus
    live = region.sites
    green_table = green_window_table(problem.kernel, trs)
    support = np.nonzero(c > 0)[0]
    halfspace = region.mask is not None
    theta = 0.0
    ys = live[support]
    cy = c[support]
    ycoords = np.stack([np.array(trs.coords(int(y))) for y in ys]) if len(ys) else np.empty((0, trs.d), int)
    for x in live:
        cx = np.array(trs.coords(int(x)))
        disp = (ycoords - cx) % trs.L
        weights = trs.L ** np.arange(trs.d - 1, -1, -1)
        idx = disp @ weights
        acc = float(green_table[idx] @ cy)
        if halfspace:
            mirror = ycoords.copy()
            mirror[:, 0] = 1 - ycoords[:, 0]
            mdisp = (mirror - cx) % trs.L
            acc += float(green_table[mdisp @ weights] @ cy)
        theta = max(theta, acc)
    bound = theta / (1.0 - theta) if theta < 1.0 else None
    return ContractionCertificate(theta=theta, sup_bound=bound)
