"""Independent references for the benchmark's checks.

Nothing here imports pamse. Every value is built again from the model's
definition on a d=1 ring of L >= 3 sites (on L=2 the two wrap bonds are
parallel and the conventions below no longer name distinct bonds):

- each unoriented nearest-neighbour bond swaps its two occupations at rate
  1/(2d) = 1/2;
- each walker jumps at rate kappa to each of its two neighbours;
- V(eta, x_1..x_p) = gamma * sum_i eta(x_i);
- the start is nu_rho (Bernoulli product) for eta and all walkers at site 0.

The transient-dimension constants are literature values: Watson's
G_3 = 1.516386059151978 (expected visits to the origin of the simple walk on
Z^3) and G_4 = 1.239467121848 on Z^4.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

G3_WATSON = 1.516386059151978
G4_LITERATURE = 1.239467121848

# two-sided normal tail beyond 5 sigma: the false-failure odds of one check
FIVE_SIGMA_TAIL = math.erfc(5.0 / math.sqrt(2.0))


def _require_ring(L: int) -> None:
    if L < 3:
        raise ValueError("the ring references need L >= 3")


def bernoulli_weights(L: int, rho: float) -> np.ndarray:
    """nu_rho(eta) for eta = 0 .. 2^L - 1, bit x of eta = occupation of x."""
    counts = np.array([bin(e).count("1") for e in range(2**L)])
    return rho**counts * (1.0 - rho) ** (L - counts)


def ring_joint_generator(L: int, p: int, kappa: float,
                         gamma: float = 1.0) -> sp.csr_matrix:
    """Joint generator plus potential on the ring, state index
    eta + 2^L * (x_1 + L x_2 + ... + L^(p-1) x_p)."""
    _require_ring(L)
    n_eta = 2**L
    n_walk = L**p
    eta = np.arange(n_eta)
    walk = np.arange(n_walk)
    pos = [(walk // L**i) % L for i in range(p)]
    state = (eta[:, None] + n_eta * walk[None, :]).ravel()
    rows, cols, vals = [], [], []
    for x in range(L):
        y = (x + 1) % L
        differ = ((eta >> x) & 1) != ((eta >> y) & 1)
        swapped = np.where(differ, eta ^ ((1 << x) | (1 << y)), eta)
        dst = (swapped[:, None] + n_eta * walk[None, :]).ravel()
        keep = np.repeat(differ, n_walk)
        rows.append(state[keep])
        cols.append(dst[keep])
        vals.append(np.full(int(keep.sum()), 0.5))
    for i in range(p):
        for step in (1, -1):
            moved = walk + (((pos[i] + step) % L) - pos[i]) * L**i
            dst = (eta[:, None] + n_eta * moved[None, :]).ravel()
            rows.append(state)
            cols.append(dst)
            vals.append(np.full(state.size, float(kappa)))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    dim = n_eta * n_walk
    gen = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    out_rate = np.asarray(gen.sum(axis=1)).ravel()
    bits = (eta[:, None] >> np.arange(L)) & 1
    pot = np.zeros((n_eta, n_walk))
    for i in range(p):
        pot += bits[:, pos[i]]
    pot_by_state = np.empty(dim)
    pot_by_state[state] = gamma * pot.ravel()
    return (gen + sp.diags(pot_by_state - out_rate)).tocsr()


def ring_moment(L: int, p: int, kappa: float, rho: float, t: float,
                gamma: float = 1.0) -> float:
    """E_{nu_rho, 0..0} exp[int_0^t V ds] by expm_multiply of the reference
    generator (no spectral shift: used only at small gamma * p * t)."""
    gen = ring_joint_generator(L, p, kappa, gamma)
    v = expm_multiply(gen * t, np.ones(gen.shape[0]))
    # walker multi-index 0 is every walker at site 0
    return float(bernoulli_weights(L, rho) @ v[: 2**L])


def ring_heat_kernel(L: int, t: float) -> np.ndarray:
    """p_t(x, y) of one rate-1 particle on the ring (rate 1/2 per side)."""
    _require_ring(L)
    q = np.zeros((L, L))
    for x in range(L):
        q[x, (x + 1) % L] += 0.5
        q[x, (x - 1) % L] += 0.5
        q[x, x] -= 1.0
    return expm(t * q)


def marginal_means(eta_bits, L: int, pairs) -> np.ndarray:
    """E[eta_t(y)] = sum_x eta(x) p_t(x, y) for each (y, t) pair (duality of
    stirring with a single walk)."""
    eta_bits = np.asarray(eta_bits, dtype=float)
    return np.array([float(eta_bits @ ring_heat_kernel(L, t)[:, y])
                     for y, t in pairs])


def probe_reference(d: int, kappa: float, green_value: float) -> float:
    """First-order large-kappa value G_d / (2 d (1 + 1/(2 d kappa)))."""
    return green_value / (2 * d * (1.0 + 1.0 / (2 * d * kappa)))


def joint_action(vec: np.ndarray, L: int, p: int, kappa: float,
                 gamma: float = 1.0) -> np.ndarray:
    """Matrix-free G v in the package's documented joint basis, index
    eta * L^p + sum_i x_i L^(p-1-i) with bit x of eta = occupation of x."""
    _require_ring(L)
    n_eta = 2**L
    grid = np.asarray(vec, dtype=float).reshape((n_eta,) + (L,) * p)
    eta = np.arange(n_eta)
    out = np.zeros_like(grid)
    for x in range(L):
        y = (x + 1) % L
        differ = ((eta >> x) & 1) != ((eta >> y) & 1)
        swapped = np.where(differ, eta ^ ((1 << x) | (1 << y)), eta)
        out += 0.5 * (grid[swapped] - grid)
    for axis in range(1, p + 1):
        out += kappa * (np.roll(grid, 1, axis=axis) + np.roll(grid, -1, axis=axis)
                        - 2.0 * grid)
    bits = (eta[:, None] >> np.arange(L)) & 1
    pot = np.zeros((n_eta,) + (L,) * p)
    for axis in range(p):
        shape = [n_eta] + [1] * p
        shape[axis + 1] = L
        pot = pot + bits.reshape(shape)
    out += gamma * pot * grid
    return out.ravel()


def weighted_residual(vec: np.ndarray, mu: float, L: int, p: int, kappa: float,
                      rho: float, gamma: float = 1.0) -> float:
    """||G v - mu v||_nu / ||v||_nu in L^2(nu_rho x counting)."""
    w = np.repeat(bernoulli_weights(L, rho), L**p)
    vec = np.asarray(vec, dtype=float)
    r = joint_action(vec, L, p, kappa, gamma) - mu * vec
    return float(np.sqrt(np.sum(w * r**2)) / np.sqrt(np.sum(w * vec**2)))


def binomial_two_sided_p(hits: int, n: int, q: float) -> float:
    """Exact two-sided tail P(X as far out as hits), X ~ Binomial(n, q):
    twice the smaller one-sided tail, capped at 1."""
    if not 0 <= hits <= n:
        raise ValueError("hits must lie in 0..n")
    if q <= 0.0 or q >= 1.0:
        return 1.0 if hits == round(q * n) else 0.0
    ks = np.arange(n + 1)
    logpmf = (math.lgamma(n + 1) - np.array([math.lgamma(k + 1) for k in ks])
              - np.array([math.lgamma(n - k + 1) for k in ks])
              + ks * math.log(q) + (n - ks) * math.log1p(-q))
    pmf = np.exp(logpmf)
    lower = float(pmf[: hits + 1].sum())
    upper = float(pmf[hits:].sum())
    return min(1.0, 2.0 * min(lower, upper))
