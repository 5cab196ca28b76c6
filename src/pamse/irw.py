"""Independent random walks: closed-form exponential functionals and the
exclusion-vs-IRW exponential-moment comparison.

For a sign-uniform weight K with finite support, the IRW functional from a
Bernoulli product start reduces to a product over sites of single-walk
Feynman-Kac values, so the IRW side is computed to machine precision rather
than sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from . import exact
from .exclusion import exp_weight_mc
from .fields import Region
from .lattice import Kernel, Torus, check_density


@dataclass(frozen=True)
class WeightFunction:
    """Finitely supported space-time weight: cells (site, (t0, t1), value).

    Values must not mix signs; the comparison inequality is stated for
    sign-uniform weights only.
    """

    cells: tuple  # ((site_coords, (t0, t1), value), ...)

    def __post_init__(self):
        signs = {np.sign(v) for _, _, v in self.cells if v != 0}
        if len(signs) > 1:
            raise ValueError("weight must be sign-uniform")
        for _, (t0, t1), _ in self.cells:
            if t1 < t0 or t0 < 0:
                raise ValueError("bad time interval")

    @property
    def sign(self) -> int:
        for _, _, v in self.cells:
            if v != 0:
                return int(np.sign(v))
        return 0

    def horizon(self) -> float:
        return max((t1 for _, (t0, t1), _ in self.cells), default=0.0)

    def time_slices(self, torus: Torus) -> list:
        """Piecewise-constant representation [(t0, t1, per-site values)]."""
        edges = sorted({0.0} | {float(e) for _, (t0, t1), _ in self.cells
                               for e in (t0, t1)})
        out = []
        for a, b in zip(edges[:-1], edges[1:]):
            vals = np.zeros(torus.n_sites)
            mid = 0.5 * (a + b)
            for site, (t0, t1), v in self.cells:
                if t0 <= mid < t1:
                    vals[torus.index(site)] += v
            out.append((a, b, vals))
        return out


def _pieces_latest_first(K: WeightFunction, torus: Torus, t: float):
    """(dt, per-site values) of K's constant pieces on [0, t], latest first,
    with K clipped at t. A zero stretch after K ends needs no piece: it would
    act first, on the constant 1, which the free semigroup leaves fixed."""
    slices = [s for s in K.time_slices(torus) if s[0] < t]
    for t0, t1, vals in reversed(slices):
        dt = min(t1, t) - t0
        if dt > 0:
            yield dt, vals


def single_walk_values(torus: Torus, kernel: Kernel, K: WeightFunction, t: float) -> np.ndarray:
    """v(x) = E_x exp[int_0^t K(Y_s, s) ds] for one rate-`kernel.rate` walk,
    by exact exponential-integrator factors per constant-K interval."""
    gen = Region(torus).generator(kernel)
    v = np.ones(torus.n_sites)
    # backward in time: v = T_0 T_1 ... 1 with chronological factors
    for dt, vals in _pieces_latest_first(K, torus, t):
        op = (gen + sp.diags(vals)).tocsr()
        v = expm_multiply(op * dt, v)
    return v


def irw_exp_functional(rho: float, K: WeightFunction, t: float, torus: Torus,
                       kernel: Kernel) -> float:
    """E^IRW_{nu_rho} exp[sum_z int_0^t K(z,s) xi_s(z) ds], exactly, as the
    product over sites of (1 - rho + rho v(x,t)); log-domain accumulation."""
    check_density(rho)
    v = single_walk_values(torus, kernel, K, t)
    factors = 1.0 - rho + rho * v
    if np.any(factors <= 0) or not np.all(np.isfinite(factors)):
        raise OverflowError("single-walk solution out of range")
    return float(np.exp(np.sum(np.log(factors))))


def irw_exp_functional_eta(eta_bits: np.ndarray, K: WeightFunction, t: float,
                           torus: Torus, kernel: Kernel) -> float:
    """Same functional for a deterministic start: product over occupied sites."""
    v = single_walk_values(torus, kernel, K, t)
    occ = np.asarray(eta_bits, dtype=bool)
    if np.any(v[occ] <= 0):
        raise OverflowError("single-walk solution out of range")
    return float(np.exp(np.sum(np.log(v[occ]))))


def se_exp_functional(rho_or_eta, K: WeightFunction, t: float, torus: Torus,
                      kernel: Kernel) -> float:
    """Exclusion-side expectation, exact via the configuration-space
    semigroup (state count 2^sites must fit the cap of build_se_generator)."""
    from .exact import build_se_generator, nu_weights, occupation_bits

    n = torus.n_sites
    gen = build_se_generator(torus, kernel)
    bits = occupation_bits(n).astype(float)
    v = np.ones(2**n)
    for dt, vals in _pieces_latest_first(K, torus, t):
        op = (gen + sp.diags(bits @ vals)).tocsr()
        v = expm_multiply(op * dt, v)
    if np.isscalar(rho_or_eta):
        start = nu_weights(n, float(rho_or_eta))
        return float(start @ v)
    eta_idx = int(np.sum((np.asarray(rho_or_eta) > 0) << np.arange(n)))
    return float(v[eta_idx])


@dataclass
class ComparisonReport:
    torus: Torus
    rho_or_eta: object
    t: float
    se_value: float
    irw_value: float
    margin: float
    se_method: str
    irw_method: str
    se_stderr: float | None = None
    violation: bool = False


def compare_se_irw(torus: Torus, kernel: Kernel, rho_or_eta, K: WeightFunction,
                   t: float, mc_trials: int = 20000, seed=0,
                   tol: float = 1e-10) -> ComparisonReport:
    """Exclusion value vs IRW value of the exponential functional, with the
    margin IRW - SE; a negative margin beyond tolerance is flagged.

    SE is exact when 2^sites fits `exact.DEFAULT_STATE_CAP`, else Monte Carlo
    with its own stderr; IRW is always the exact product formula.
    """
    scalar_start = np.isscalar(rho_or_eta)
    if scalar_start:
        irw_value = irw_exp_functional(float(rho_or_eta), K, t, torus, kernel)
    else:
        irw_value = irw_exp_functional_eta(rho_or_eta, K, t, torus, kernel)
    se_stderr = None
    if 2**torus.n_sites <= exact.DEFAULT_STATE_CAP:
        se_value = se_exp_functional(rho_or_eta, K, t, torus, kernel)
        se_method = "matrix-exponential"
        violation = irw_value - se_value < -tol
    else:
        from .exclusion import Configuration

        slices = K.time_slices(torus)
        initial = None if scalar_start else Configuration(torus, rho_or_eta)
        rho = float(rho_or_eta) if scalar_start else 0.5
        se_value, se_stderr = exp_weight_mc(torus, kernel, rho, slices, t,
                                            mc_trials, seed, initial=initial)
        se_method = f"mc(n={mc_trials})"
        violation = irw_value - se_value < -4.0 * se_stderr
    return ComparisonReport(
        torus=torus, rho_or_eta=rho_or_eta, t=t, se_value=se_value,
        irw_value=irw_value, margin=irw_value - se_value,
        se_method=se_method, irw_method="product-formula",
        se_stderr=se_stderr, violation=violation,
    )
