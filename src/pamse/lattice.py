"""Lattice geometry, symmetric walk kernels, heat kernels and Green functions,
and the range rules of the model parameters (rho, kappa, p).

Everything here is deterministic. Transition probabilities follow the rate-1
normalization internally: a kernel with rate r at time t is evaluated as the
rate-1 kernel at time r*t. This keeps the three step-rate conventions used
elsewhere (catalyst walks at rate 1, reactant walks at rate 2*d and 2*d*kappa)
in one place.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

Vector = tuple[int, ...]


def check_density(rho) -> None:
    """The density rule of every model: the catalyst starts from Bernoulli(rho)
    with 0 < rho < 1."""
    if not (isinstance(rho, numbers.Real) and 0.0 < rho < 1.0):
        raise ValueError("density must lie in (0, 1)")


def check_kappa(kappa, positive: bool = False) -> None:
    """Walkers jump at rate 2 d kappa >= 0; where 1[kappa] = 1 + 1/(2 d kappa)
    enters (the fields and the large-kappa probe), kappa > 0."""
    if not (isinstance(kappa, numbers.Real) and (kappa > 0 if positive else kappa >= 0)):
        raise ValueError("kappa must be > 0" if positive else "kappa must be >= 0")


def check_walkers(p) -> None:
    """The moment order p counts walkers, p >= 0."""
    if not (isinstance(p, numbers.Real) and p >= 0):
        raise ValueError("walker count must be >= 0")


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

    def shift_index(self, index: int, offset) -> int:
        c = self.coords(index)
        return self.index(tuple(ci + oi for ci, oi in zip(c, offset)))

    def all_coords(self) -> np.ndarray:
        """(n_sites, d) integer coordinates in index order."""
        grids = np.meshgrid(*[np.arange(self.L)] * self.d, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def shift_table(self, offset) -> np.ndarray:
        """Site-index permutation x -> x + offset (wrapped)."""
        coords = self.all_coords()
        shifted = (coords + np.asarray(offset)) % self.L
        weights = self.L ** np.arange(self.d - 1, -1, -1)
        return shifted @ weights

    def unit_moves(self) -> np.ndarray:
        """(2d, n_sites) table of x -> x + e for the unit vectors e, in the
        offset order of srw_kernel(d)."""
        return np.stack([self.shift_table(vec) for vec, _ in srw_kernel(self.d).offsets])


@dataclass(frozen=True)
class Kernel:
    """Symmetric single-step distribution with an explicit jump rate.

    offsets holds (displacement, weight) pairs; weights sum to one, the zero
    displacement is excluded and weights are invariant under negation.
    """

    d: int
    offsets: tuple[tuple[Vector, float], ...]
    rate: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
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

    def symbol(self, k: np.ndarray) -> np.ndarray:
        """phi(k) = 1 - sum_v p(v) cos(k.v) >= 0 on [-pi,pi)^d."""
        k = np.asarray(k, dtype=float)
        acc = np.zeros(k.shape[:-1])
        for vec, w in self.offsets:
            acc = acc + w * np.cos(k @ np.asarray(vec, dtype=float))
        return 1.0 - acc


def srw_kernel(d: int, rate: float = 1.0) -> Kernel:
    """Nearest-neighbour kernel with weight 1/(2d) per unit vector."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    offsets = []
    for i in range(d):
        for sign in (1, -1):
            vec = tuple(sign if j == i else 0 for j in range(d))
            offsets.append((vec, 1.0 / (2 * d)))
    return Kernel(d=d, offsets=tuple(offsets), rate=float(rate))


# ---------------------------------------------------------------------------
# One-dimensional building blocks (rate-1 normalization).
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


def cycle_heat1d(L: int, tau: float) -> np.ndarray:
    """Wrapped p_tau(0, m mod L) on the L-cycle; exact finite Fourier sum."""
    k = 2.0 * np.pi * np.arange(L) / L
    decay = np.exp(-tau * (1.0 - np.cos(k)))
    m = np.arange(L)
    return np.cos(np.outer(m, k)) @ decay / L


def outer_power(row: np.ndarray, d: int) -> np.ndarray:
    """row x row x ... x row (d factors): a product-form kernel on d axes."""
    out = row
    for _ in range(d - 1):
        out = np.multiply.outer(out, row)
    return out


# ---------------------------------------------------------------------------
# Transition probabilities on Z^d.
# ---------------------------------------------------------------------------


def transition_prob(kernel: Kernel, t: float, z) -> float:
    """p_t(0, z) for the continuous-time walk jumping at the kernel's rate."""
    return float(transition_prob_many(kernel, t, np.asarray(z)[None, :])[0])


def transition_prob_many(kernel: Kernel, t: float, zs: np.ndarray) -> np.ndarray:
    if t < 0:
        raise ValueError("negative time")
    zs = np.asarray(zs, dtype=int)
    if zs.ndim == 1:
        zs = zs[None, :]
    s = kernel.rate * t
    if kernel.is_srw:
        tau = s / kernel.d
        out = np.ones(len(zs))
        for j in range(kernel.d):
            col = zs[:, j]
            uniq, inv = np.unique(col, return_inverse=True)
            out *= heat1d(uniq, tau)[inv]
        return out
    return _transition_general(kernel, s, zs)


def _transition_general(kernel: Kernel, s: float, zs: np.ndarray) -> np.ndarray:
    if kernel.d > 3:
        raise ValueError("general kernels supported for d <= 3 only")
    m_max = int(np.max(np.abs(zs))) if zs.size else 0
    n = _fourier_grid_size(s, m_max)
    axes = [2.0 * np.pi * np.arange(n) / n] * kernel.d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    decay = np.exp(-s * kernel.symbol(grid))
    vals = np.fft.fftn(decay).real / n**kernel.d
    idx = tuple(zs[:, j] % n for j in range(kernel.d))
    return vals[idx]


def heat_window(kernel: Kernel, t: float, radius: int) -> np.ndarray:
    """p_t(0, z) on the cube |z_i| <= radius, shape (2*radius+1,)*d."""
    r = int(radius)
    side = 2 * r + 1
    if kernel.is_srw:
        tau = kernel.rate * t / kernel.d
        return outer_power(heat1d(np.arange(-r, r + 1), tau), kernel.d)
    grids = np.meshgrid(*[np.arange(-r, r + 1)] * kernel.d, indexing="ij")
    zs = np.stack([g.ravel() for g in grids], axis=1)
    return transition_prob_many(kernel, t, zs).reshape((side,) * kernel.d)


def torus_heat_row(torus: Torus, kernel: Kernel, t: float) -> np.ndarray:
    """Wrapped p_t(0, v) over torus sites (exact mode sum)."""
    if t < 0:
        raise ValueError("negative time")
    s = kernel.rate * t
    if kernel.is_srw:
        return outer_power(cycle_heat1d(torus.L, s / kernel.d), torus.d).ravel()
    k = 2.0 * np.pi * np.arange(torus.L) / torus.L
    grid = np.stack(np.meshgrid(*[k] * torus.d, indexing="ij"), axis=-1)
    decay = np.exp(-s * kernel.symbol(grid))
    return (np.fft.fftn(decay).real / torus.n_sites).ravel()


def torus_heat_matrix(torus: Torus, kernel: Kernel, t: float) -> np.ndarray:
    """Full wrapped transition matrix p_t(x, y) on the torus."""
    row = torus_heat_row(torus, kernel, t)
    n = torus.n_sites
    mat = np.empty((n, n))
    for x in range(n):
        cx = torus.coords(x)
        perm = torus.shift_table(tuple(-c for c in cx))
        mat[x] = row[perm]
    return mat


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


def green(kernel: Kernel, t_min: float = 0.0, z=None, split: float = 2000.0) -> float:
    """Truncated Green value integral_{t_min}^inf p_s(0, z) ds, rate-1 clock.

    Finite only for transient kernels (d >= 3): the integrand decays like
    s^(-d/2), so the tail diverges in d <= 2 for every t_min.
    """
    if t_min < 0:
        raise ValueError("negative t_min")
    if kernel.d <= 2:
        raise ValueError("Green integral diverges for d <= 2")
    zvec = np.zeros(kernel.d, dtype=int) if z is None else np.asarray(z, dtype=int)
    rate1 = Kernel(d=kernel.d, offsets=kernel.offsets, rate=1.0)

    def f(s: float) -> float:
        return float(transition_prob_many(rate1, s, zvec[None, :])[0])

    s0 = max(split, 4.0 * t_min, 50.0)
    body, _ = quad(f, t_min, s0, limit=400, epsabs=1e-13, epsrel=1e-11)
    return body + _tail_by_power_fit(f, s0, kernel.d)


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
    """p_{2m}(0,0), m = 0..m_hi, for the discrete-time d-dim simple walk.
    Memoized per (d, m_hi); the array is read-only."""
    from scipy.special import gammaln

    m = np.arange(m_hi + 1)
    # 1-d even-step returns C(2m, m) / 4^m.
    log_r1 = gammaln(2 * m + 1) - 2 * gammaln(m + 1) - 2 * m * math.log(2.0)
    r = np.exp(log_r1)
    for dim in range(2, d + 1):
        prev = r  # returns of the (dim-1)-dressed walk, per own even step count
        r = np.empty(m_hi + 1)
        r[0] = 1.0
        for n in range(1, m_hi + 1):
            i = np.arange(n + 1)
            # split 2n steps: 2i in the new coordinate (prob 1/dim each)
            log_split = (
                gammaln(2 * n + 1)
                - gammaln(2 * i + 1)
                - gammaln(2 * (n - i) + 1)
                + 2 * i * math.log(1.0 / dim)
                + 2 * (n - i) * math.log((dim - 1.0) / dim)
            )
            r[n] = float(np.exp(log_split + log_r1[i]) @ prev[n::-1])
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
