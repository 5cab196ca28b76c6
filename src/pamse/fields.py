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

from .exact import occupation_bits, rate_matrix
from .lattice import (GL_NODES_PER_PANEL, Kernel, Torus, _panel_edges, check_density,
                      check_horizon, check_kappa, check_samples, cycle_heat1d,
                      green, green_many, heat1d, one_kappa, srw_kernel, time_quadrature)

PSI_PANELS = 10  # time panels of the chi and gradient-kernel quadrature
MASS_PANELS = 24  # time panels of the mass-identity integrals
CHI_SLAB = 8  # leading-axis planes of the chi grid per matrix product
PSI_TOL = 1e-9  # slack of the psi bounds; the swap identity's is PSI_TOL * T


@dataclass(frozen=True)
class PsiSpec:
    """Parameters of the smoothing field psi and the chi profile."""

    kappa: float
    T: float
    torus: Torus
    rho: float = 0.5

    def __post_init__(self):
        check_kappa(self.kappa, positive=True)
        check_horizon(self.T)
        check_density(self.rho)

    @property
    def quad_node_count(self) -> int:
        return PSI_PANELS * GL_NODES_PER_PANEL


def recommended_side(d: int, T: float, kappa: float) -> int:
    """Window sizing rule: the smallest odd side at or above 2 radius + 1 whose
    prime factors are all <= 7, where radius >= ceil(6 sqrt(2 d T 1k)) + 1 is
    the spread of the nearest-neighbour kernel. pocketfft has fast passes for
    those factors only: a 73^3 round trip costs over 3x one on 75^3."""
    radius = int(np.ceil(6.0 * np.sqrt(2 * d * T * one_kappa(d, kappa)))) + 1
    side = 2 * radius + 1
    while not _seven_smooth(side):
        side += 2
    return side


def _seven_smooth(n: int) -> bool:
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


@dataclass
class Field:
    torus: Torus
    values: np.ndarray


@lru_cache(maxsize=32)
def _chi_grid_cached(spec: PsiSpec) -> np.ndarray:
    """The chi grid of a spec, read-only: sum_i w_i r_i x ... x r_i over the
    time nodes, a CP tensor of the heat rows r_i. A slab of CHI_SLAB leading
    planes, as an (s L^(d-2), L) matrix, is one product A^T R of the row matrix
    R and the Khatri-Rao product A of the weighted slab rows w_i r_i[lo:hi]
    with d - 2 copies of r_i (Kolda and Bader, SIAM Review 51 (2009), sec. 3)."""
    L, d = spec.torus.L, spec.torus.d
    nodes, weights = time_quadrature(spec.T, PSI_PANELS)
    # rate-1 d-dim walk at time 2 d s 1k => per-coordinate clock 2 s 1k
    taus = 2.0 * one_kappa(d, spec.kappa) * nodes
    rows = np.array([cycle_heat1d(L, tau) for tau in taus]).reshape(len(taus), L)
    if d == 1:
        out = weights @ rows
    else:
        out = np.empty((L,) * d)
        for lo in range(0, L, CHI_SLAB):
            left = weights[:, None] * rows[:, lo:lo + CHI_SLAB]
            for _ in range(d - 2):
                left = (left[:, :, None] * rows[:, None]).reshape(len(taus), left.shape[1] * L)
            np.matmul(left.T, rows, out=out[lo:lo + CHI_SLAB].reshape(-1, L))
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


def psi_field(eta_bits: np.ndarray, spec: PsiSpec) -> np.ndarray:
    """psi(eta, x) = sum_z chi(z - x) (eta(z) - rho) at every site x.

    Exact on the wrapped window (circular correlation by FFT); for eta == 1
    everywhere this returns (1 - rho) T at every site since the chi table
    carries total mass T.
    """
    trs = spec.torus
    eta_bits = np.asarray(eta_bits, dtype=float).ravel()
    if eta_bits.shape != (trs.n_sites,):
        raise ValueError("eta must live on the spec torus")
    shape = (trs.L,) * trs.d
    spectrum = np.fft.rfftn((eta_bits - spec.rho).reshape(shape))
    spectrum *= _chi_spectrum(spec)
    return np.fft.irfftn(spectrum, s=shape, axes=tuple(range(trs.d))).ravel()


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


@lru_cache(maxsize=32)
def _chi_gradients(spec: PsiSpec) -> tuple:
    """(max |g|, sum g^2, sum |g|) per axis e for the forward gradient
    g = chi(. + e) - chi of the cached chi grid. The backward gradient along e
    is -g shifted by one site, so its three sums are these too."""
    grid = _chi_grid_cached(spec)
    out = []
    for axis in range(grid.ndim):
        g = np.roll(grid, -1, axis=axis)
        g -= grid
        np.abs(g, out=g)
        mag, l1 = float(np.max(g)), float(np.sum(g))
        g *= g
        out.append((mag, float(np.sum(g)), l1))
    return tuple(out)


def psi_bounds_check(spec: PsiSpec, n_samples: int, seed) -> PsiBoundsReport:
    """Verify the three smoothing-field estimates: nearest-neighbour psi
    differences <= 2T, single-swap differences <= 2 G_d, and the square sum
    of swap differences over all bonds <= G_d / (2d).

    Swap differences factor through the chi table, so their bounds are
    checked at the table level (supremum over configurations); psi itself is
    evaluated on random Bernoulli configurations for the first bound. On each
    configuration a swap across a random bond (a, b) with unequal occupations
    is checked to move psi at every site x by exactly
    (eta(b) - eta(a)) (chi(a - x) - chi(b - x)), to PSI_TOL * T.
    """
    check_samples(n_samples)
    trs = spec.torus
    d = trs.d
    green_value = green(srw_kernel(d))
    dgrid = _chi_grid_cached(spec)
    rng = np.random.default_rng(seed)

    grads = _chi_gradients(spec)
    swap_mag = max(mag for mag, _, _ in grads)
    sq_sum = sum(sq for _, sq, _ in grads)
    reflected = np.roll(np.flip(dgrid), 1, axis=tuple(range(d)))  # chi(-x)
    perm = trs.shift_table(tuple(1 if i == 0 else 0 for i in range(d)))
    max_site = 0.0
    swap_ok = True
    for _ in range(n_samples):
        bits = (rng.random(trs.n_sites) < spec.rho).astype(float)
        site_diff, swap_match = _check_sample(spec, bits, rng, reflected, perm)
        max_site = max(max_site, site_diff)
        swap_ok = swap_ok and swap_match
    return PsiBoundsReport(
        max_site_diff=max_site,
        site_diff_bound=2 * spec.T + PSI_TOL,
        max_swap_diff=swap_mag,
        swap_diff_bound=2 * green_value + PSI_TOL,
        max_swap_square_sum=sq_sum,
        swap_square_bound=green_value / (2 * d) + PSI_TOL,
        swap_delta_matches_chi=swap_ok,
        quad_nodes=spec.quad_node_count,
    )


def _check_sample(spec: PsiSpec, bits: np.ndarray, rng, reflected: np.ndarray,
                  perm: np.ndarray) -> tuple:
    """One configuration of psi_bounds_check: its largest nearest-neighbour
    psi difference, and whether a swap across a random bond with unequal
    occupations moves psi as the chi table says. Swaps bits in place."""
    trs = spec.torus
    axes = tuple(range(trs.d))
    psi_all = psi_field(bits, spec)
    grid = psi_all.reshape((trs.L,) * trs.d)
    max_site = 0.0
    for axis in axes:
        step = np.roll(grid, -1, axis=axis)
        step -= grid
        max_site = max(max_site, float(np.max(np.abs(step, out=step))))
    del step
    unequal = np.nonzero(bits[perm] != bits)[0]
    if not len(unequal):
        return max_site, True
    a = int(unequal[rng.integers(len(unequal))])
    b = int(perm[a])
    sign = bits[b] - bits[a]
    bits[a], bits[b] = bits[b], bits[a]
    delta = psi_field(bits, spec)
    delta -= psi_all
    del psi_all, grid
    # chi(a - x) - chi(b - x) at every site x
    want = np.roll(reflected, trs.coords(a), axis=axes).ravel()
    want -= np.roll(reflected, trs.coords(b), axis=axes).ravel()
    want *= sign
    delta -= want
    return max_site, float(np.max(np.abs(delta, out=delta))) <= PSI_TOL * spec.T


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
    d, onek, T = spec.torus.d, one_kappa(spec.torus.d, spec.kappa), spec.T
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
    closed-form value of ||K_diag||_1 and its large-kappa limit; each of the
    2d gradients has the sums of its axis's forward gradient."""
    grads = _chi_gradients(spec)
    return KKernels(
        k_diag_norm=2 * sum(sq for _, sq, _ in grads),
        k_off_norm_bound=2 * sum(l1**2 for _, _, l1 in grads),
        closed_form_norm=_kdiag_closed_form(spec),
        kappa_limit_norm=_kdiag_kappa_limit(spec),
    )


# ---------------------------------------------------------------------------
# Cauchy problems: dv/dt = Delta^(p) v + c v, v(., 0) = 1.
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
        live, pos = self.sites, self.local_index()
        src = np.arange(len(live))
        dst = np.stack([pos[self.torus.shift_table(vec)[live]] for vec, _ in kernel.offsets])
        rates = np.array([[w] for _, w in kernel.offsets])
        # a jump blocked by the mask is a self-move, which rate_matrix drops
        return rate_matrix(len(live), src, np.where(dst >= 0, dst, src), rates)


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
        check_horizon(self.horizon)
        self.source = np.asarray(self.source, dtype=float)
        n_live = len(self.region.sites)
        if self.source.shape != (n_live,):
            raise ValueError(f"source must hold one value per live site: "
                             f"{n_live} sites, source of shape {self.source.shape}")


@dataclass
class CauchySolution:
    times: np.ndarray
    v: np.ndarray  # (n_times, n_live_sites)
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
    restricts the mc mode to selected global site indices, each a live site
    of the region; other columns are left as nan.
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
        return CauchySolution(times=times, v=v, stderr=err)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return CauchySolution(times=times, v=v)


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
    starts = live if start_sites is None else np.asarray(start_sites, dtype=int)
    if not np.all(np.isin(starts, live)):
        raise ValueError("start sites must be live sites of the region")
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
                t_next = t_now + rng.exponential(1.0)
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


def mass_residual(problem: CauchyProblem) -> float:
    """Max residual of sum_x w(x,t) = t sum_x c(x) + int_0^t sum_x c(x) w(x,s) ds
    over the MASS_PANELS edges of [0, horizon]. The region's generator is
    symmetric, so the walk conserves sum_x v and only the source moves it."""
    check_horizon(problem.horizon, positive=True)
    t_end, c = problem.horizon, problem.source
    nodes, weights = time_quadrature(t_end, MASS_PANELS, 10)  # globally ascending
    edges = _panel_edges(t_end, MASS_PANELS)[1:]
    query = np.unique(np.concatenate([nodes, edges]))
    w = solve_cauchy(problem, query, mode="stepping").w
    cum = np.cumsum(weights * (w[np.searchsorted(query, nodes)] @ c))
    per_panel = len(nodes) // MASS_PANELS
    integral = cum[per_panel - 1::per_panel]
    total = w[np.searchsorted(query, edges)].sum(axis=1)
    return float(np.max(np.abs(total - (integral + edges * c.sum()))))


@dataclass
class ContractionCertificate:
    theta: float
    sup_bound: float | None

    @property
    def certified(self) -> bool:
        return self.sup_bound is not None


def green_window_table(kernel: Kernel, torus: Torus) -> np.ndarray:
    """G(0, v) over torus displacement indices: `green_many` at the wrapped
    displacements v (each coordinate in (-L/2, L/2])."""
    if kernel.d <= 2:
        raise ValueError("Green table needs a transient kernel (d >= 3)")
    half = torus.L // 2
    coords = torus.all_coords()
    zs = np.where(coords <= half, coords, coords - torus.L)
    return green_many(kernel, zs)


def green_contraction(problem: CauchyProblem) -> ContractionCertificate:
    """theta = sup_x sum_y G(x, y) |c(y)| for a time-independent source; when
    theta < 1, sup_{x,t} w(x,t) <= theta / (1 - theta) is certified. On the
    half-space the mirror images y -> (1 - y_1, ...) add a second sum."""
    c = np.abs(problem.source)
    region, trs = problem.region, problem.region.torus
    table = green_window_table(problem.kernel, trs)
    xs = trs.all_coords()[region.sites]
    ys, cy = xs[c > 0], c[c > 0]
    images = [ys]
    if region.mask is not None:
        images.append(np.column_stack([1 - ys[:, 0], ys[:, 1:]]))
    acc = np.zeros(len(xs))
    for img in images:
        # row-by-row dot products: one matmul would round theta differently
        acc += [row @ cy for row in table[trs.flat_index(img[None] - xs[:, None])]]
    theta = float(acc.max())
    bound = theta / (1.0 - theta) if theta < 1.0 else None
    return ContractionCertificate(theta=theta, sup_bound=bound)
