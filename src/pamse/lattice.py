"""Lattice geometry, symmetric walk kernels, heat kernels and Green functions,
and the range rules of the model parameters (rho, kappa, p), sample counts,
horizons and transient dimensions (booleans pass none of them).

Everything here is deterministic, and a kernel is the jump law of a rate-1
walk.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

Vector = tuple[int, ...]
GREEN_SPLIT = 2000.0  # Green quadrature on [0, split], power-law tail fit beyond
GL_NODES_PER_PANEL = 12  # Gauss-Legendre nodes per time_quadrature panel


def _number(x, kind) -> bool:
    """x is a numbers.Real/Integral other than a bool (which is an Integral)."""
    return isinstance(x, kind) and not isinstance(x, bool)


def check_density(rho) -> None:
    """The density rule of every model: the catalyst starts from Bernoulli(rho)
    with 0 < rho < 1."""
    if not (_number(rho, numbers.Real) and 0.0 < rho < 1.0):
        raise ValueError("density must lie in (0, 1)")


def check_kappa(kappa, positive: bool = False) -> None:
    """Walkers jump at rate 2 d kappa >= 0; where `one_kappa` enters (the
    fields and the large-kappa probe), kappa > 0."""
    if not (_number(kappa, numbers.Real) and (kappa > 0 if positive else kappa >= 0)):
        raise ValueError("kappa must be > 0" if positive else "kappa must be >= 0")


def one_kappa(d: int, kappa: float) -> float:
    """1[kappa] = 1 + 1/(2 d kappa): in time scaled by kappa, a walker (rate 2d)
    seen from a catalyst particle (rate 1/kappa) jumps at rate 2d 1[kappa]."""
    return 1.0 + 1.0 / (2 * d * kappa)


def check_samples(n, least: int = 1) -> None:
    """Sample counts are integers >= least (2 where a stderr is taken)."""
    if not (_number(n, numbers.Integral) and n >= least):
        raise ValueError(f"sample count must be an integer >= {least}")


def check_horizon(t, positive: bool = False) -> None:
    """Horizons are real, t >= 0, and t > 0 where a value is divided by t."""
    if not (_number(t, numbers.Real) and (t > 0 if positive else t >= 0)):
        raise ValueError("horizon must be > 0" if positive else "horizon must be >= 0")


def check_transient(d) -> None:
    """Green sums, the fields' swap bounds and the large-kappa probe converge
    only in transient dimensions: an integer d >= 3."""
    if not (_number(d, numbers.Integral) and d >= 3):
        raise ValueError("transient dimensions only (d >= 3)")


def check_walkers(p) -> None:
    """The moment order p counts walkers: an integer p >= 0."""
    if not (_number(p, numbers.Integral) and p >= 0):
        raise ValueError("walker count must be an integer >= 0")


@dataclass(frozen=True)
class Torus:
    """Finite periodic box {0..L-1}^d with flat site indexing."""

    d: int
    L: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.L < 2:
            raise ValueError("side length must be >= 2")

    @property
    def n_sites(self) -> int:
        return self.L**self.d

    def index(self, coords) -> int:
        idx = 0
        for c in coords:
            idx = idx * self.L + (int(c) % self.L)
        return idx

    def coords(self, index: int) -> Vector:
        out = []
        for _ in range(self.d):
            out.append(index % self.L)
            index //= self.L
        return tuple(reversed(out))

    def all_coords(self) -> np.ndarray:
        """(n_sites, d) integer coordinates in index order."""
        grids = np.meshgrid(*[np.arange(self.L)] * self.d, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def flat_index(self, coords) -> np.ndarray:
        """Site indices of an (..., d) integer coordinate array, wrapped."""
        return (np.asarray(coords) % self.L) @ (self.L ** np.arange(self.d - 1, -1, -1))

    def shift_table(self, offset) -> np.ndarray:
        """Site-index permutation x -> x + offset (wrapped): the index grid
        rolled by -offset, with no (n_sites, d) coordinate table."""
        grid = np.arange(self.n_sites).reshape((self.L,) * self.d)
        return np.roll(grid, np.negative(offset), axis=tuple(range(self.d))).ravel()

    def unit_moves(self) -> np.ndarray:
        """(2d, n_sites) table of x -> x + e for the unit vectors e, in the
        offset order of srw_kernel(d)."""
        return np.stack([self.shift_table(vec) for vec, _ in srw_kernel(self.d).offsets])


@dataclass(frozen=True)
class Kernel:
    """Symmetric single-step distribution of a rate-1 walk.

    offsets holds (displacement, weight) pairs; weights sum to one, the zero
    displacement is excluded and weights are invariant under negation.
    """

    d: int
    offsets: tuple[tuple[Vector, float], ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        total = 0.0
        table = {}
        for vec, w in self.offsets:
            if len(vec) != self.d:
                raise ValueError("offset dimension mismatch")
            if all(v == 0 for v in vec):
                raise ValueError("zero displacement not allowed")
            if w < 0:
                raise ValueError("negative weight")
            table[tuple(vec)] = w
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        for vec, w in table.items():
            neg = tuple(-v for v in vec)
            if abs(table.get(neg, 0.0) - w) > 1e-12:
                raise ValueError("kernel must be symmetric under negation")

    @property
    def is_srw(self) -> bool:
        if len(self.offsets) != 2 * self.d:
            return False
        want = 1.0 / (2 * self.d)
        seen = set()
        for vec, w in self.offsets:
            if abs(w - want) > 1e-12 or sum(abs(v) for v in vec) != 1:
                return False
            seen.add(tuple(vec))
        return len(seen) == 2 * self.d

    def canonical_bond_offsets(self):
        """One representative per +-pair, with the unoriented-bond weight."""
        out = []
        seen = set()
        for vec, w in self.offsets:
            key = tuple(vec)
            if tuple(-v for v in vec) in seen:
                continue
            seen.add(key)
            out.append((key, w))
        return out


def srw_kernel(d: int) -> Kernel:
    """Nearest-neighbour kernel with weight 1/(2d) per unit vector."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    offsets = []
    for i in range(d):
        for sign in (1, -1):
            vec = tuple(sign if j == i else 0 for j in range(d))
            offsets.append((vec, 1.0 / (2 * d)))
    return Kernel(d=d, offsets=tuple(offsets))


# ---------------------------------------------------------------------------
# One-dimensional building blocks (rate-1 walks).
# ---------------------------------------------------------------------------


def _fourier_grid_size(tau: float, m_max: int) -> int:
    # Aliasing mass beyond distance N-m is a Poisson tail; 40*sqrt covers 1e-15.
    n = int(m_max + tau + 40.0 * math.sqrt(tau + 1.0) + 64)
    return max(64, n)


def heat1d(ms: np.ndarray, tau: float) -> np.ndarray:
    """p_tau(0, m) for the 1-d rate-1 simple walk, via the Fourier integral."""
    ms = np.atleast_1d(np.asarray(ms, dtype=int))
    if tau < 0:
        raise ValueError("negative time")
    n = _fourier_grid_size(tau, int(np.max(np.abs(ms))) if ms.size else 0)
    k = 2.0 * np.pi * np.arange(n) / n
    decay = np.exp(-tau * (1.0 - np.cos(k)))
    return np.cos(np.outer(ms, k)) @ decay / n


@lru_cache(maxsize=8)
def _cycle_modes(L: int) -> tuple:
    """(1 - cos k, cos(m k)) over the L-cycle's modes k and sites m, read-only."""
    k = 2.0 * np.pi * np.arange(L) / L
    rate, modes = 1.0 - np.cos(k), np.cos(np.outer(np.arange(L), k))
    rate.flags.writeable = modes.flags.writeable = False
    return rate, modes


def cycle_heat1d(L: int, tau: float) -> np.ndarray:
    """Wrapped p_tau(0, m mod L) on the L-cycle; exact finite Fourier sum."""
    rate, modes = _cycle_modes(L)
    return modes @ np.exp(-tau * rate) / L


# ---------------------------------------------------------------------------
# Transition probabilities on Z^d.
# ---------------------------------------------------------------------------


def transition_prob_many(kernel: Kernel, t: float, zs: np.ndarray) -> np.ndarray:
    """p_t(0, z) for each row z of zs; nearest-neighbour kernels only."""
    if t < 0:
        raise ValueError("negative time")
    if not kernel.is_srw:
        raise ValueError("heat kernels need a nearest-neighbour kernel")
    zs = np.asarray(zs, dtype=int)
    if zs.ndim == 1:
        zs = zs[None, :]
    tau = t / kernel.d
    out = np.ones(len(zs))
    rows = {}  # one heat row per distinct column, multiplied in per axis
    for j in range(kernel.d):
        key = zs[:, j].tobytes()
        if key not in rows:
            uniq, inv = np.unique(zs[:, j], return_inverse=True)
            rows[key] = heat1d(uniq, tau)[inv]
        out *= rows[key]
    return out


def torus_heat_row(torus: Torus, kernel: Kernel, t: float) -> np.ndarray:
    """Wrapped p_t(0, v) over torus sites (exact mode sum), as the product
    row x row x ... x row over the d axes; nearest-neighbour kernels only."""
    if t < 0:
        raise ValueError("negative time")
    if not kernel.is_srw:
        raise ValueError("heat kernels need a nearest-neighbour kernel")
    row = cycle_heat1d(torus.L, t / kernel.d)
    return reduce(np.multiply.outer, [row] * torus.d).ravel()


def torus_heat_matrix(torus: Torus, kernel: Kernel, t: float) -> np.ndarray:
    """Full wrapped transition matrix p_t(x, y) = p_t(0, y - x) on the torus."""
    c = torus.all_coords()
    return torus_heat_row(torus, kernel, t)[torus.flat_index(c[None] - c[:, None])]


# ---------------------------------------------------------------------------
# Time quadrature and Green functions.
# ---------------------------------------------------------------------------


def gauss_legendre(edges: np.ndarray, nodes_per_panel: int):
    """Composite Gauss-Legendre rule with one panel per consecutive pair of
    edges. Returns (nodes, weights)."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _panel_edges(T: float, n_panels: int) -> np.ndarray:
    """Panel edges of time_quadrature on [0, T], refined toward 0."""
    return T * (np.linspace(0.0, 1.0, n_panels + 1) ** 2)


def time_quadrature(T: float, n_panels: int, nodes_per_panel: int = GL_NODES_PER_PANEL):
    """Composite Gauss-Legendre rule on [0, T], panels refined toward 0 where
    heat kernels vary fastest. Returns (nodes, weights)."""
    if T <= 0:
        return np.empty(0), np.empty(0)
    return gauss_legendre(_panel_edges(T, n_panels), nodes_per_panel)


def _tail_by_power_fit(f, s0: float, d: int):
    """integral_{s0}^inf f, fitting f(s) ~ s^{-d/2} (1 + c1/s + c2/s^2); f may
    be array-valued, each entry then gets its own fit."""
    ss = np.array([s0, 2.0 * s0, 4.0 * s0])
    g = np.array([f(s) * s ** (d / 2.0) for s in ss])
    A = np.stack([np.ones(3), 1.0 / ss, 1.0 / ss**2], axis=1)
    c0, c1, c2 = np.linalg.solve(A, g)
    a = d / 2.0
    return (
        c0 * s0 ** (1.0 - a) / (a - 1.0)
        + c1 * s0 ** (-a) / a
        + c2 * s0 ** (-a - 1.0) / (a + 1.0)
    )


def green_many(kernel: Kernel, zs: np.ndarray) -> np.ndarray:
    """integral_0^inf p_s(0, z) ds for each row z of zs: 24 `time_quadrature`
    panels on [0, GREEN_SPLIT], plus the power-law tail fit beyond it."""
    nodes, weights = time_quadrature(GREEN_SPLIT, 24)
    window = partial(transition_prob_many, kernel, zs=zs)
    body = np.zeros(len(zs))
    for s, w in zip(nodes, weights):
        body += w * window(s)
    return body + _tail_by_power_fit(window, GREEN_SPLIT, kernel.d)


def green(kernel: Kernel, z=None) -> float:
    """Green value integral_0^inf p_s(0, z) ds.

    Finite only for transient kernels (d >= 3): the integrand decays like
    s^(-d/2), so the integral diverges in d <= 2. Memoized per (kernel, z)
    in `_green_cached`.
    """
    if kernel.d <= 2:
        raise ValueError("Green integral diverges for d <= 2")
    zvec = np.zeros(kernel.d, dtype=int) if z is None else np.asarray(z, dtype=int)
    return _green_cached(kernel, tuple(int(v) for v in zvec))


@lru_cache(maxsize=64)
def _green_cached(kernel: Kernel, z: Vector) -> float:
    return float(green_many(kernel, np.array([z]))[0])


def green_discrete_sum(d: int, n_terms: int = 20000) -> float:
    """Green value at the origin as the tail-extrapolated sum of n-step
    return probabilities of the discrete-time simple walk.

    Independent of :func:`green`: the n-step probabilities come from a
    binomial mixing recursion across coordinates, and the tail of the sum is
    removed by Richardson extrapolation in the known n^(1-d/2) scale.
    """
    if d < 3:
        raise ValueError("divergent for d <= 2")
    m_max = n_terms // 2
    cums = np.cumsum(_return_probs(d, m_max))
    marks = np.array([m_max // 8, m_max // 4, m_max // 2, m_max])
    sums = cums[marks]
    # S_inf - S_M = a M^{1-d/2} + b M^{-d/2} + c M^{-1-d/2}; three exact
    # differences against the largest mark pin (a, b, c).
    basis = np.stack(
        [marks ** (1 - d / 2.0), marks ** (-d / 2.0), marks ** (-1 - d / 2.0)],
        axis=1,
    )
    coef = np.linalg.solve(basis[:3] - basis[3], sums[3] - sums[:3])
    return float(sums[3] + basis[3] @ coef)


@lru_cache(maxsize=8)
def _return_probs(d: int, m_hi: int) -> np.ndarray:
    """p_{2m}(0,0), m = 0..m_hi, for the discrete-time d-dim simple walk,
    built on the memoized (d-1)-dim layer. Memoized per (d, m_hi); the array
    is read-only."""
    from scipy.special import gammaln

    log_fact = gammaln(np.arange(2 * m_hi + 1) + 1)  # log k!, one table per call
    log_even = log_fact[::2]  # log (2m)!
    m = np.arange(m_hi + 1)
    # 1-d even-step returns C(2m, m) / 4^m.
    log_r1 = log_even - 2 * log_fact[:m_hi + 1] - 2 * m * math.log(2.0)
    if d == 1:
        r = np.exp(log_r1)
    else:
        prev = _return_probs(d - 1, m_hi)  # per own even step count
        # split 2n steps: 2i in the new coordinate (prob 1/d each)
        new_axis = 2 * m * math.log(1.0 / d)
        old_axes = 2 * m * math.log((d - 1.0) / d)
        r = np.empty(m_hi + 1)
        r[0] = 1.0
        for n in range(1, m_hi + 1):
            log_split = (log_even[n] - log_even[:n + 1] - log_even[n::-1]
                         + new_axis[:n + 1] + old_axes[n::-1])
            r[n] = float(np.exp(log_split + log_r1[:n + 1]) @ prev[n::-1])
    r.flags.writeable = False
    return r


def halfspace_transition(kernel: Kernel, t: float, x, y) -> float:
    """p_t^+(x, y) for the walk paused at the wall of H+ = {first coord >= 1}.

    Reflection identity: p_t^+(x,y) = p_t(x,y) + p_t(x,y*) with y* the mirror
    image of y through the hyperplane between H+ and its complement.
    """
    x = tuple(int(v) for v in x)
    y = tuple(int(v) for v in y)
    if x[0] < 1 or y[0] < 1:
        raise ValueError("sites must lie in the half-space {x_1 >= 1}")
    ystar = (1 - y[0],) + y[1:]
    z1 = np.array(y) - np.array(x)
    z2 = np.array(ystar) - np.array(x)
    vals = transition_prob_many(kernel, t, np.stack([z1, z2]))
    return float(vals.sum())


def halfspace_green_diag(kernel: Kernel, x1: int) -> float:
    """G^+(x, x) for a site at distance x1 from the wall: G_d + G(0, (2x1-1)e1)."""
    if x1 < 1:
        raise ValueError("site must lie in the half-space")
    z = np.zeros(kernel.d, dtype=int)
    z[0] = 2 * x1 - 1
    return green(kernel) + green(kernel, z=z)
