"""Rayleigh-Ritz machinery for the joint operator, the bump-test-function
lower bound and occupation-time tilt maximization.

The joint operator is self-adjoint in the Bernoulli-weighted inner product,
so iteration happens on its diagonal similarity transform D^{1/2} G D^{-1/2},
which is symmetric in the plain Euclidean sense and has the same spectrum.
The top eigenvalue is solved in the walker frame (see `pamse.exact`), one
particle-number block at a time; test functions live on the full joint basis,
and their Rayleigh quotients are read off the full-basis joint generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .exact import (OperatorSpec, build_joint_generator, lift_frame_vector,
                    nu_weights, occupation_bits)
from .exclusion import torus_bonds  # noqa: F401  unused; perfbench/spans.py patches it here
from .lattice import Torus

DENSE_CUTOFF = 200  # largest particle-number block solved densely
LANCZOS_TOL = 1e-10  # eigsh tolerance; converged means residual <= max(100 tol, 1e-8)
NORM_TOL = 1e-9  # how far from 1 the norm of a "normalized" test function may be
TILT_GRID = 20001  # points of the tilt functional's grid search on [0, 1]


@dataclass
class TestFunction:
    """Values on the joint (configuration, walker) basis, normalized in
    L^2(nu_rho x counting)."""

    values: np.ndarray
    spec: OperatorSpec

    def norm(self) -> float:
        w = np.repeat(nu_weights(self.spec.n_sites, self.spec.rho), self.spec.n_walker)
        return float(np.sqrt(np.sum(w * self.values**2)))

    def normalized(self) -> "TestFunction":
        return TestFunction(self.values / self.norm(), self.spec)


def random_test_function(spec: OperatorSpec, seed) -> TestFunction:
    rng = np.random.default_rng(seed)
    return TestFunction(rng.standard_normal(spec.joint_dim), spec).normalized()


def rayleigh_quotient(f: TestFunction) -> float:
    """(G f, f) in L^2(nu_rho x counting) for a normalized f, with G the
    joint generator of f.spec on the full basis."""
    if abs(f.norm() - 1.0) > NORM_TOL:
        raise ValueError("test function must be normalized")
    spec = f.spec
    w = np.repeat(nu_weights(spec.n_sites, spec.rho), spec.n_walker)
    return float(np.sum(w * f.values * (build_joint_generator(spec) @ f.values)))


@dataclass
class TopEigen:
    mu: float
    lam: float
    vector: np.ndarray
    residual: float
    converged: bool
    method: str


def top_eigenvalue(spec: OperatorSpec) -> TopEigen:
    """Largest spectral point of the joint operator: the largest of the top
    eigenvalues of the particle-number blocks of the symmetrized walker-frame
    matrix. A block of at most DENSE_CUTOFF states (or of one state) is solved
    densely, a larger one by Lanczos from a fixed start, so repeated calls
    agree bit for bit.

    Stirring and the frame's recentring moves conserve k = |eta|, so the
    matrix is block diagonal in k, and each block converges on its own gap.
    The top eigenvalue has a nonnegative eigenvector, and its average over
    translations is a translation-invariant one, so the frame loses nothing.
    The eigenvector is lifted back to the full basis and normalized in
    L^2(nu_rho x counting); the residual is the nu-weighted relative residual,
    the same in the frame as on the full basis.
    """
    sym = build_joint_generator(spec, walker_frame=True)
    nu = nu_weights(spec.n_sites, spec.rho)
    stride = sym.shape[0] // spec.n_eta
    sq = np.sqrt(np.repeat(nu, stride))
    sym = sp.diags(sq) @ sym @ sp.diags(1.0 / sq)  # frees the generator before the lift
    count = np.repeat(occupation_bits(spec.n_sites).sum(axis=1), stride)
    mu, method = -np.inf, "dense"
    for k in range(spec.n_sites + 1):
        idx = np.flatnonzero(count == k)
        block = sym[idx][:, idx]
        block = 0.5 * (block + block.T)
        if idx.size <= max(DENSE_CUTOFF, 1):
            evals, evecs = np.linalg.eigh(block.toarray())
        else:
            evals, evecs = eigsh(block, k=1, which="LA", tol=LANCZOS_TOL, maxiter=5000,
                                 v0=np.random.default_rng(0).random(idx.size))
            method = "lanczos"
        if evals[-1] > mu:
            mu, top_idx, top_vec = float(evals[-1]), idx, evecs[:, -1]
    u = np.zeros(sym.shape[0])
    u[top_idx] = top_vec
    resid = float(np.linalg.norm(sym @ u - mu * u))
    vec = lift_frame_vector(spec, u / sq)
    vec /= np.sqrt(np.sum(np.repeat(nu, spec.n_walker) * vec**2))
    return TopEigen(mu=mu, lam=mu / max(spec.p, 1), vector=vec,
                    residual=resid, converged=resid <= max(LANCZOS_TOL * 100, 1e-8),
                    method=method)


# ---------------------------------------------------------------------------
# Bump test function: lower bound for lambda_1 on large walker boxes.
# ---------------------------------------------------------------------------


@dataclass
class BumpBound:
    epsilon: float
    rho: float
    kappa: float
    bound: float
    phi: np.ndarray
    phi_energy: float


def _bump_profile(torus: Torus, width: float) -> np.ndarray:
    coords = torus.all_coords()
    center = torus.L // 2
    d2 = np.sum((coords - center) ** 2, axis=1).astype(float)
    phi = np.exp(-d2 / (2.0 * width**2))
    return phi / np.linalg.norm(phi)


def _dirichlet_energy(torus: Torus, phi: np.ndarray) -> float:
    """sum over ordered nearest-neighbour pairs of (phi(x) - phi(y))^2."""
    grid = phi.reshape((torus.L,) * torus.d)
    acc = 0.0
    for axis in range(torus.d):
        diff = np.roll(grid, -1, axis=axis) - grid
        acc += 2.0 * float(np.sum(diff**2))  # both orientations
    return acc


def test_function_bound(epsilon: float, rho: float, kappa: float,
                        torus: Torus) -> BumpBound:
    """Lower bound on lambda_1 from the occupation-tilted bump
    f(eta, x) = (1 + eps * eta(x)) phi(x) / sqrt(1 + (2 eps + eps^2) rho).

    The Bernoulli integrals collapse in closed form, so the quotient is exact
    on the truncation without enumerating configurations; phi is a discrete
    Gaussian whose width is found by bisection so its Dirichlet energy fits
    the eps^2 budget.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lo, hi = 0.6, float(torus.L)
    if _dirichlet_energy(torus, _bump_profile(torus, hi)) > epsilon**2:
        raise ValueError("box too small for the requested epsilon budget")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _dirichlet_energy(torus, _bump_profile(torus, mid)) <= epsilon**2:
            hi = mid
        else:
            lo = mid
    phi = _bump_profile(torus, hi)
    energy = _dirichlet_energy(torus, phi)

    norm2 = 1.0 + (2 * epsilon + epsilon**2) * rho
    part1 = (1.0 + 2 * epsilon + epsilon**2) * rho  # potential term
    # exclusion Dirichlet form of the affine tilt, wrapped kernel mass 1
    kern_mass = 1.0
    part2 = epsilon**2 * rho * (1 - rho) * kern_mass
    # walker Dirichlet form: quadratic + neighbour-product pieces
    grid = phi.reshape((torus.L,) * torus.d)
    nn_prod = 0.0
    for axis in range(torus.d):
        nn_prod += 2.0 * float(np.sum(grid * np.roll(grid, -1, axis=axis)))
    part3 = 0.5 * norm2 * energy + epsilon**2 * rho * (1 - rho) * nn_prod
    bound = (part1 - part2 - kappa * part3) / norm2
    return BumpBound(epsilon=epsilon, rho=rho, kappa=kappa, bound=bound,
                     phi=phi, phi_energy=energy)


def bump_as_test_function(bump: BumpBound, spec: OperatorSpec) -> TestFunction:
    """Materialize the bump bound's f on an enumerable joint space (the
    walker torus must equal the spec torus)."""
    if spec.p != 1:
        raise ValueError("bump function is a p = 1 object")
    bits = occupation_bits(spec.n_sites).astype(float)
    norm = np.sqrt(1.0 + (2 * bump.epsilon + bump.epsilon**2) * bump.rho)
    vals = (1.0 + bump.epsilon * bits) * bump.phi[None, :] / norm
    return TestFunction(vals.ravel(), spec)


# ---------------------------------------------------------------------------
# Occupation-time tilt: quadratic rate bound and its maximization.
# ---------------------------------------------------------------------------


def psi_rate_bound(alpha: float, rho: float, G: float) -> float:
    """Quadratic lower bound (sqrt(alpha) - sqrt(rho))^2 / (2G) for the
    occupation-time rate function; zero exactly at alpha = rho."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return (np.sqrt(alpha) - np.sqrt(rho)) ** 2 / (2.0 * G)


@dataclass
class TiltMax:
    value: float
    maximizer: float
    interior: bool


def varadhan_closed_form(gamma: float, rho: float, G: float) -> TiltMax:
    """max_beta [gamma beta - (sqrt(beta)-sqrt(rho))^2 / 2G] over [0, 1]:
    interior value rho*gamma/(1-2G*gamma) at beta = rho/(1-2G*gamma)^2 when
    that maximizer is feasible, else the boundary value at beta = 1."""
    if gamma == 0.0:
        return TiltMax(value=0.0, maximizer=rho, interior=True)
    if 2.0 * G * gamma >= 1.0:
        raise ValueError("tilt too strong: 2 G gamma >= 1 (closed form diverges)")
    beta = rho / (1.0 - 2.0 * G * gamma) ** 2
    if beta <= 1.0:
        return TiltMax(value=rho * gamma / (1.0 - 2.0 * G * gamma),
                       maximizer=beta, interior=True)
    return TiltMax(value=gamma - psi_rate_bound(1.0, rho, G), maximizer=1.0,
                   interior=False)


def occupation_tilt_max(gamma: float, rho: float, G: float) -> TiltMax:
    """Numerical maximization of the tilted functional over a dense grid with
    golden-section refinement; independent of the closed form."""
    betas = np.linspace(0.0, 1.0, TILT_GRID)
    vals = gamma * betas - (np.sqrt(betas) - np.sqrt(rho)) ** 2 / (2 * G)
    k = int(np.argmax(vals))
    lo = betas[max(k - 1, 0)]
    hi = betas[min(k + 1, TILT_GRID - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    def f(b):
        return gamma * b - (np.sqrt(b) - np.sqrt(rho)) ** 2 / (2 * G)

    a, b = lo, hi
    c, d_ = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(200):
        if f(c) > f(d_):
            b, d_ = d_, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d_
            d_ = a + invphi * (b - a)
    mx = 0.5 * (a + b)
    return TiltMax(value=float(f(mx)), maximizer=float(mx),
                   interior=0.0 < mx < 1.0)
