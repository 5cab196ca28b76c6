"""Exact small-system computations on the joint catalyst/walker state space.

The full joint basis is indexed as eta_index * n_sites^p + walker_multi_index
(x_1 most significant) with configurations enumerated as bit masks.

The joint generator commutes with lattice translations, and both nu_rho and
V are translation invariant, so moments and the top eigenvalue live on the
walker frame: the quotient by translations with walker 1 pinned at the
origin. Its basis is indexed as eta' * n_sites^(p-1) + multi-index of
(y_2, ..., y_p), where eta'(z) = eta(x_1 + z) and y_i = x_i - x_1; it is
n_sites times smaller than the full basis. A state's frame image is
(tau_{x_1} eta, x - x_1), and a frame function g lifts to the full basis as
f(eta, x) = g(tau_{x_1} eta, x - x_1). In the frame, walker 1 stepping by e
moves the catalyst and the other walkers the opposite way:
eta' -> eta'(. + e), y_i -> y_i - e.

Every Markov generator (stirring, walker Laplacian, frame recentring, and
the walk on a `fields.Region`) is built by `rate_matrix` from index arrays of
moves and their rates. Everything is plain scipy sparse linear algebra;
moments use a spectral shift so arbitrary horizons stay in range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .exclusion import torus_bonds
from .lattice import Kernel, Torus, check_density, check_kappa, check_walkers, srw_kernel

DEFAULT_STATE_CAP = 2**14 * 16


@dataclass(frozen=True)
class OperatorSpec:
    """The one model of every route: exclusion with the symmetric `kernel` on
    the torus from nu_rho, plus p walkers jumping to nearest neighbours at
    rate 2 d kappa, coupled through V(eta, x) = gamma * sum_i eta(x_i). The
    state cap applies to the dimension a generator builds, not to the spec."""

    torus: Torus
    kernel: Kernel
    kappa: float
    p: int
    rho: float
    gamma: float = 1.0

    def __post_init__(self):
        check_kappa(self.kappa)
        check_walkers(self.p)
        check_density(self.rho)

    @property
    def n_sites(self) -> int:
        return self.torus.n_sites

    @property
    def n_eta(self) -> int:
        return 2**self.n_sites

    @property
    def n_walker(self) -> int:
        return self.n_sites**self.p

    @property
    def joint_dim(self) -> int:
        return self.n_eta * self.n_walker


@lru_cache(maxsize=4)
def occupation_bits(n_sites: int) -> np.ndarray:
    """(2^n, n) matrix of site occupations per configuration index; memoized
    for the four most recent sizes, and read-only."""
    eta = np.arange(2**n_sites, dtype=np.int64)
    bits = ((eta[:, None] >> np.arange(n_sites)) & 1).astype(np.int8)
    bits.flags.writeable = False
    return bits


def nu_weights(n_sites: int, rho: float) -> np.ndarray:
    """Bernoulli product weights over all 2^n configurations."""
    counts = occupation_bits(n_sites).sum(axis=1)
    return rho**counts * (1.0 - rho) ** (n_sites - counts)


def shifted_configs(torus: Torus, offset) -> np.ndarray:
    """Index of the translated configuration eta(. + offset), for every
    configuration index eta."""
    n = torus.n_sites
    bits = occupation_bits(n)[:, torus.shift_table(offset)].astype(np.int64)
    return bits @ (np.int64(1) << np.arange(n, dtype=np.int64))


def rate_matrix(n: int, src, dst, rates) -> sp.csr_matrix:
    """Markov generator on n states with a jump src -> dst at each rate. The
    arrays broadcast, repeated moves add up and self-moves are dropped; the
    diagonal holds minus the row sums."""
    src, dst, rates = (a.ravel() for a in np.broadcast_arrays(src, dst, rates))
    move = src != dst
    gen = sp.coo_matrix((rates[move].astype(float), (src[move], dst[move])),
                        shape=(n, n)).tocsr()
    return gen - sp.diags(np.asarray(gen.sum(axis=1)).ravel())


@lru_cache(maxsize=2)
def build_se_generator(torus: Torus, kernel: Kernel) -> sp.csr_matrix:
    """Stirring generator on {0,1}^sites: swap across each unoriented bond.
    Memoized for the two most recent (torus, kernel) pairs, which bounds the
    memory it holds; the matrix's arrays are read-only."""
    n = torus.n_sites
    if 2**n > DEFAULT_STATE_CAP:
        raise ValueError("configuration space exceeds cap")
    a, b, rates = torus_bonds(torus, kernel)
    a, b = a[:, None], b[:, None]
    eta = np.arange(2**n, dtype=np.int64)
    # a swap across a bond whose ends agree leaves eta as it is
    differ = ((eta >> a) ^ (eta >> b)) & 1
    gen = rate_matrix(2**n, eta, eta ^ (differ * ((1 << a) | (1 << b))), rates[:, None])
    for arr in (gen.data, gen.indices, gen.indptr):
        arr.flags.writeable = False
    return gen


def _free_walkers(spec: OperatorSpec, walker_frame: bool) -> int:
    """Walker coordinates carried by the basis: x_1..x_p on the full basis,
    y_2..y_p in the walker frame (with p = 0 there is no walker to pin and
    the frame is the full basis)."""
    return spec.p - 1 if walker_frame and spec.p > 0 else spec.p


def potential_diag(spec: OperatorSpec, *, walker_frame: bool = False) -> np.ndarray:
    """V over the joint basis: gamma * sum_i eta(x_i); in the walker frame
    gamma * (eta'(0) + sum_{i >= 2} eta'(y_i))."""
    bits = occupation_bits(spec.n_sites)
    n = spec.n_sites
    free = _free_walkers(spec, walker_frame)
    walker = np.arange(n**free)
    v = np.zeros((spec.n_eta, n**free))
    if free < spec.p:
        v += bits[:, :1]  # walker 1 pinned at the origin
    for i in range(free):
        x_i = (walker // n ** (free - 1 - i)) % n
        v += bits[:, x_i]
    return spec.gamma * v.ravel()


def _recentring_moves(spec: OperatorSpec) -> sp.csr_matrix:
    """Walker 1 stepping by each unit vector e, seen from the walker frame:
    eta' -> eta'(. + e) and every y_i -> y_i - e, at rate 1 per direction."""
    trs, n, m = spec.torus, spec.n_sites, spec.n_sites ** (spec.p - 1)
    place = n ** np.arange(spec.p - 2, -1, -1)
    state = np.arange(spec.n_eta * m)
    eta, rel = np.divmod(state, m)
    ys = rel[:, None] // place % n  # (y_2, ..., y_p) of every frame state
    dst = [shifted_configs(trs, vec)[eta] * m
           + trs.shift_table(tuple(-v for v in vec))[ys] @ place
           for vec, _ in srw_kernel(trs.d).offsets]
    return rate_matrix(state.size, state, np.stack(dst), 1.0)


def _joint_free_generator(spec: OperatorSpec, se_rate_factor: float,
                          walker_factor: float, walker_frame: bool = False) -> sp.csr_matrix:
    n = spec.n_sites
    free = _free_walkers(spec, walker_frame)
    dim = spec.n_eta * n**free
    if dim > DEFAULT_STATE_CAP:
        raise ValueError(f"state space {dim} exceeds cap {DEFAULT_STATE_CAP}")
    gen_se = build_se_generator(spec.torus, spec.kernel) * se_rate_factor
    lap = rate_matrix(n, np.arange(n), spec.torus.unit_moves(), 1.0)
    joint = sp.kron(gen_se, sp.identity(n**free, format="csr"), format="csr")
    for i in range(free):
        left = sp.identity(spec.n_eta * n**i, format="csr")
        right = sp.identity(n ** (free - 1 - i), format="csr")
        joint = joint + walker_factor * sp.kron(sp.kron(left, lap), right, format="csr")
    if free < spec.p:
        joint = joint + walker_factor * _recentring_moves(spec)
    return joint


def build_joint_generator(spec: OperatorSpec, *, walker_frame: bool = False) -> sp.csr_matrix:
    """G^kappa_V = L + kappa * sum_i Delta_i + V on the diagonal, on the
    full basis or, with walker_frame, on the walker-frame basis of the
    module docstring. Either way a configuration's block has
    shape[0] // n_eta walker states."""
    return (_joint_free_generator(spec, 1.0, spec.kappa, walker_frame)
            + sp.diags(potential_diag(spec, walker_frame=walker_frame))).tocsr()


def lift_frame_vector(spec: OperatorSpec, g: np.ndarray) -> np.ndarray:
    """Full-basis values f(eta, x) = g(tau_{x_1} eta, x - x_1) of a function
    g on the walker frame."""
    g = np.asarray(g)
    if spec.p == 0:
        return g.copy()
    trs, n, p = spec.torus, spec.n_sites, spec.p
    coords = trs.all_coords()
    walker = np.arange(spec.n_walker)
    x = [(walker // n ** (p - 1 - i)) % n for i in range(p)]
    rel = np.zeros(spec.n_walker, dtype=np.int64)
    for x_i in x[1:]:
        rel = rel * n + trs.flat_index(coords[x_i] - coords[x[0]])
    recentred = np.stack([shifted_configs(trs, coords[s]) for s in range(n)])
    idx = recentred[x[0]].T * n ** (p - 1) + rel[None, :]
    return g[idx.ravel()]


def build_scaled_generator(spec: OperatorSpec) -> sp.csr_matrix:
    """Time-scaled joint generator (1/kappa) L + sum_i Delta_i: the catalyst
    is slowed by kappa while walkers run at their bare rate 2d."""
    if spec.kappa <= 0:
        raise ValueError("scaled generator needs kappa > 0")
    return _joint_free_generator(spec, 1.0 / spec.kappa, 1.0)


def _frozen_walker_generator(spec: OperatorSpec) -> sp.csr_matrix:
    """kappa = 0: the walkers stay at the origin, so the generator seen from
    the start is L + gamma * p * eta(0) on configurations alone."""
    gen = build_se_generator(spec.torus, spec.kernel)
    bits = occupation_bits(spec.n_sites)
    return (gen + sp.diags(spec.gamma * spec.p * bits[:, 0].astype(float))).tocsr()


def _frame_semigroup(spec: OperatorSpec, t: float):
    """(shifted frame generator G - gamma p, e^{t (G - gamma p)} 1, stride of
    the start states nu_rho x {y = 0} in the frame basis)."""
    gen = build_joint_generator(spec, walker_frame=True)
    dim = gen.shape[0]
    mat = gen - sp.identity(dim) * (spec.gamma * spec.p)
    return mat, expm_multiply(mat * t, np.ones(dim)), dim // spec.n_eta


def log_moment(spec: OperatorSpec, t: float) -> float:
    """log E_{nu_rho, 0..0} exp[int_0^t V(Y(s)) ds], spectrally shifted."""
    if t < 0:
        raise ValueError("negative time")
    if t == 0:
        return 0.0
    shift = spec.gamma * spec.p
    nu = nu_weights(spec.n_sites, spec.rho)
    if spec.kappa == 0.0 and spec.p >= 1:
        mat = _frozen_walker_generator(spec) - sp.identity(spec.n_eta) * shift
        val = float(nu @ expm_multiply(mat * t, np.ones(spec.n_eta)))
    else:
        _, v, stride = _frame_semigroup(spec, t)
        val = float(nu @ v[::stride])
    return np.log(val) + shift * t


def exact_moment(spec: OperatorSpec, t: float) -> float:
    return float(np.exp(log_moment(spec, t)))


def exact_lambda_profile(spec: OperatorSpec, t_grid) -> np.ndarray:
    """Lambda_p(t) = log-moment / (p t) on a grid; nan at t = 0."""
    out = []
    for t in np.asarray(t_grid, dtype=float):
        if t == 0:
            out.append(np.nan)
        else:
            out.append(log_moment(spec, t) / (spec.p * t))
    return np.asarray(out)


def moment_slope(spec: OperatorSpec, t: float) -> float:
    """d/dt log E exp[int V] at time t (exact resolvent-free form)."""
    mat, v, stride = _frame_semigroup(spec, t)
    nu = nu_weights(spec.n_sites, spec.rho)
    return spec.gamma * spec.p + float(nu @ (mat @ v)[::stride]) / float(nu @ v[::stride])
