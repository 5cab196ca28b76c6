"""Acceptance battery: every release criterion as a callable check.

Each criterion returns a CriterionResult; the CLI `selftest` subcommand and
the pytest acceptance module both drive this list. Tolerances are pinned
here, not recalibrated elsewhere.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import montecarlo as mc
from . import variational as var
from .exact import (OperatorSpec, build_scaled_generator, exact_lambda_profile,
                    moment_slope, occupation_bits)
from .exclusion import marginal_mc, sample_initial
from .fields import (CauchyProblem, PsiSpec, Region, green_contraction, halfspace_region,
                     mass_residual, psi_joint_matrix, solve_cauchy)
from .harness import ScenarioConfig, run_scenario
from .lattice import (Torus, green, green_discrete_sum, halfspace_green_diag,
                      halfspace_transition, one_kappa, srw_kernel, torus_heat_matrix)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index:2d}: {self.name} ({self.seconds:.1f}s)"


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        res = fn(*args, **kwargs)
        res.passed = bool(res.passed)  # numpy comparisons give np.bool_
        res.seconds = time.perf_counter() - t0
        return res
    return wrapper


@_timed
def criterion_1_graphical_mean(n: int = 100_000) -> CriterionResult:
    """Link-schedule MC mean of xi_t(y) vs the wrapped-kernel mean identity,
    d=1, L=16, five (site, time) pairs, within 4 sigma."""
    torus = Torus(1, 16)
    kernel = srw_kernel(1)
    eta = sample_initial(torus, 0.5, 2024)
    pairs = [(0, 0.5), (3, 1.0), (8, 2.0), (5, 1.5), (12, 3.0)]
    means, errs = marginal_mc(eta, kernel, pairs, n, 314159)
    devs = []
    ok = True
    for (site, t), m, e in zip(pairs, means, errs):
        exact_val = float(eta.bits @ torus_heat_matrix(torus, kernel, t)[:, site])
        devs.append({"site": site, "t": t, "mc": m, "exact": exact_val,
                     "sigma_dev": abs(m - exact_val) / e})
        ok = ok and abs(m - exact_val) <= 4.0 * e
    return CriterionResult(1, "graphical-representation mean identity", ok,
                           {"pairs": devs, "n": n})


@_timed
def criterion_2_exact_vs_mc(n: int = 200_000) -> CriterionResult:
    """Feynman-Kac MC within 3 sigma and 2% of the exact semigroup moment."""
    cfg = ScenarioConfig("exact_vs_mc", {
        "d": 1, "L": 6, "rho": 0.5, "kappa": 0.5, "p": 1, "t": 2.0,
        "n": n, "seed": 271828, "n_sigma": 3.0, "rel_tol": 0.02,
    })
    rep = run_scenario(cfg)
    return CriterionResult(2, "exact vs MC Feynman-Kac moment", rep.passed,
                           {"row": rep.rows[0], "flags": rep.flags})


@_timed
def criterion_3_comparison() -> CriterionResult:
    """Exclusion <= IRW for 12 sign-uniform weights, both sides exact."""
    cfg = ScenarioConfig("comparison_suite", {
        "d": 1, "L": 6, "rhos": [0.3, 0.5, 0.7], "t": 1.0, "seed": 7,
        "tolerance": 1e-10,
    })
    rep = run_scenario(cfg)
    worst = min(r["margin"] for r in rep.rows)
    return CriterionResult(3, "exclusion vs IRW exponential-moment comparison",
                           rep.passed and len(rep.rows) == 12,
                           {"cases": len(rep.rows), "worst_margin": worst})


@_timed
def criterion_4_martingale() -> CriterionResult:
    """Drift of the exponential martingale's field psi on d=1 tori: linear in
    eta, the time-scaled generator G acts as 2d 1[kappa] times the rate-1 walk,
    so G psi(eta, x) = sum_z [p_{2dT 1[kappa]}(z - x) - delta(z, x)] (eta(z) - rho)."""
    kernel = srw_kernel(1)
    cases = []
    for L, T, kappa in ((4, 0.5, 1.0), (4, 2.0, 1.0), (6, 2.0, 0.5), (6, 5.0, 2.0)):
        torus = Torus(1, L)
        spec = OperatorSpec(torus=torus, kernel=kernel, kappa=kappa, p=1, rho=0.5)
        psi = psi_joint_matrix(PsiSpec(kappa=kappa, T=T, torus=torus, rho=0.5)).ravel()
        heat = torus_heat_matrix(torus, kernel, 2 * T * one_kappa(1, kappa)) - np.identity(L)
        drift = ((occupation_bits(L) - 0.5) @ heat).ravel()
        dev = float(np.max(np.abs(build_scaled_generator(spec) @ psi - drift)))
        cases.append({"L": L, "T": T, "kappa": kappa, "deviation": dev})
    worst = max(c["deviation"] for c in cases)
    return CriterionResult(4, "exponential martingale drift", worst <= 1e-10,
                           {"worst_deviation": worst, "cases": cases})


@_timed
def criterion_5_spectral() -> CriterionResult:
    """Top eigenvalue vs large-t moment slope on three specs, the
    variational upper-boundedness of 100 random quotients, and the bump
    bound's closed-form quotient vs its enumerated Rayleigh quotient."""
    torus4 = Torus(1, 4)
    torus6 = Torus(1, 6)
    kernel = srw_kernel(1)
    specs = [
        OperatorSpec(torus=torus4, kernel=kernel, kappa=1.0, p=1, rho=0.5),
        OperatorSpec(torus=torus6, kernel=kernel, kappa=0.5, p=1, rho=0.5),
        OperatorSpec(torus=torus4, kernel=kernel, kappa=2.0, p=2, rho=0.3),
    ]
    rows = []
    ok = True
    for spec in specs:
        top = var.top_eigenvalue(spec)
        slope = moment_slope(spec, 400.0)
        gap = abs(slope - top.mu)
        rows.append({"L": spec.torus.L, "kappa": spec.kappa, "p": spec.p,
                     "mu": top.mu, "slope": slope, "gap": gap})
        ok = ok and gap <= 1e-6
    spec = specs[1]
    top = var.top_eigenvalue(spec)
    worst_q = -np.inf
    for s in range(100):
        q = var.rayleigh_quotient(var.random_test_function(spec, [99, s]))
        worst_q = max(worst_q, q)
    quotient_ok = worst_q <= top.mu + 1e-9
    bump = var.test_function_bound(0.3, spec.rho, spec.kappa, spec.torus)
    bump_q = var.rayleigh_quotient(var.bump_as_test_function(bump, spec).normalized())
    bump_gap = abs(bump_q - bump.bound)
    return CriterionResult(5, "spectral consistency and Rayleigh bound",
                           ok and quotient_ok and bump_gap <= 1e-12,
                           {"specs": rows, "worst_quotient": worst_q,
                            "mu": top.mu, "bump_bound": bump.bound,
                            "bump_gap": bump_gap})


@_timed
def criterion_6_kappa_sweep() -> CriterionResult:
    """lambda_1(kappa) on a grid: non-increasing with convex second
    differences down to -1e-9."""
    cfg = ScenarioConfig("kappa_sweep", {
        "d": 1, "L": 6, "rho": 0.5, "p": 1,
        "kappas": [0.25 * k for k in range(17)],
        "convexity_tol": 1e-9,
    })
    rep = run_scenario(cfg)
    lams = [r["lambda"] for r in rep.rows]
    return CriterionResult(6, "kappa-curve monotone and convex", rep.passed,
                           {"lambdas": lams, "flags": rep.flags})


@_timed
def criterion_7_intermittency() -> CriterionResult:
    """Zero-diffusion moment hierarchy strictly increasing at t=8, L=8."""
    cfg = ScenarioConfig("intermittency_kappa0", {
        "d": 1, "L": 8, "rho": 0.5, "p_list": [1, 2, 3], "t": 8.0,
        "min_gap": 1e-6,
    })
    rep = run_scenario(cfg)
    lams = [r["Lambda"] for r in rep.rows]
    gaps = list(np.diff(lams))
    # Hoelder monotonicity across an independent kappa > 0 run as well
    torusxt = Torus(1, 6)
    holder_ok = True
    prev = None
    for p in (1, 2):
        spec = OperatorSpec(torus=torusxt, kernel=srw_kernel(1), kappa=0.5,
                            p=p, rho=0.5)
        lam = float(exact_lambda_profile(spec, [4.0])[0])
        if prev is not None:
            holder_ok = holder_ok and lam >= prev - 1e-12
        prev = lam
    return CriterionResult(7, "intermittency hierarchy at zero diffusion",
                           rep.passed and holder_ok,
                           {"Lambdas": lams, "gaps": gaps,
                            "holder_kappa_positive": holder_ok})


@_timed
def criterion_8_asymptotic_probe(n: int = 2000) -> CriterionResult:
    """Gaussian-regime probe at d=4, kappa=10, t=200: the Monte Carlo mean
    within 4 sigma of its exact value, and that value within 0.5% of the
    first-order Green value (0.22% apart; dropping 1[kappa] puts them 1.45% apart)."""
    cfg = ScenarioConfig("asymptotic_probe", {
        "d": 4, "kappa": 10.0, "t": 200.0, "n": n, "seed": 424242,
        "rel_tol": 0.005,
    })
    rep = run_scenario(cfg)
    return CriterionResult(8, "large-kappa Green asymptotics probe", rep.passed,
                           rep.rows[0])


@_timed
def criterion_9_green() -> CriterionResult:
    """Two independent Green evaluations agree at d=3,4; half-space Green
    diagonal stays below twice the full-space value."""
    rows = []
    ok = True
    for d in (3, 4):
        kernel = srw_kernel(d)
        a = green(kernel)
        b = green_discrete_sum(d, 20000)
        rel = abs(a - b) / a
        rows.append({"d": d, "quadrature": a, "discrete_sum": b, "rel_gap": rel})
        ok = ok and rel <= 1e-5
    kernel = srw_kernel(3)
    g3 = green(kernel)
    half_ok = True
    half_rows = []
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 4000.0, 400)])
    for x1 in (1, 2, 3, 5):
        x = (x1, 0, 0)
        vals = np.array([halfspace_transition(kernel, t, x, x) for t in ts])
        grid_sum = float(np.trapezoid(vals, ts))
        direct = halfspace_green_diag(kernel, x1)
        half_rows.append({"x1": x1, "grid_sum": grid_sum, "direct": direct})
        half_ok = half_ok and grid_sum <= 2 * g3 + 1e-6 and direct <= 2 * g3 + 1e-9
    return CriterionResult(9, "Green function two-method and half-space bound",
                           ok and half_ok,
                           {"green": rows, "halfspace": half_rows, "2G3": 2 * g3})


@_timed
def criterion_10_field_suite() -> CriterionResult:
    """Smoothing-field bounds on 100 random configurations at d=3, T=5,
    kappa=2, plus gradient-kernel norms against their closed forms."""
    cfg = ScenarioConfig("field_checks", {
        "d": 3, "T": 5.0, "kappa": 2.0, "n_eta": 100, "seed": 11,
        "norm_tol": 1e-6, "limit_kappa": 1e3, "limit_tol": 1e-3,
    })
    rep = run_scenario(cfg)
    return CriterionResult(10, "smoothing-field and gradient-kernel suite",
                           rep.passed, {"flags": rep.flags, "row": rep.rows[0]})


@_timed
def criterion_11_cauchy() -> CriterionResult:
    """Mass identities of the box-source and half-space problems, the Green
    contraction certificate of the box problem (theta < 1 and sup w below
    theta / (1 - theta)), and three-mode solver agreement."""
    # whole-lattice box source, d=3 slab small enough for stepping
    torus3 = Torus(3, 9)
    reg3 = Region(torus3)
    box = [torus3.index((i, 4, 4)) for i in (3, 4, 5)]
    c3 = np.zeros(torus3.n_sites)
    c3[box] = 1.0 / len(box)
    prob3 = CauchyProblem(reg3, srw_kernel(3), 2.0, c3)
    res_box = mass_residual(prob3)
    cert = green_contraction(prob3)
    w_max = float(solve_cauchy(prob3, [2.0]).w.max())  # w grows in t: c >= 0
    cert_ok = cert.certified and w_max <= cert.sup_bound

    half = halfspace_region(torus3)
    gamma, kappa, rho = 1.0, 2.0, 0.5
    strength = -(3.0 * gamma / kappa) * rho
    z = torus3.index((1, 4, 4))
    pos = half.local_index()
    ch = np.zeros(len(half.sites))
    ch[pos[z]] = strength
    prob_h = CauchyProblem(half, srw_kernel(3), 2.0, ch)
    res_half = mass_residual(prob_h)

    torus1 = Torus(1, 16)
    reg1 = Region(torus1)
    q1 = [torus1.index((i,)) for i in (7, 8, 9)]
    c1 = np.zeros(16)
    c1[q1] = 1.0 / 3.0
    prob1 = CauchyProblem(reg1, srw_kernel(1), 2.0, c1)
    times = np.array([0.5, 1.0, 2.0])
    v_step = solve_cauchy(prob1, times, "stepping").v
    v_series = solve_cauchy(prob1, times, "series", series_steps=400).v
    series_gap = float(np.max(np.abs(v_step - v_series)))
    sol_mc = solve_cauchy(prob1, times, "mc", mc_trials=4000, seed=5,
                          start_sites=[8])
    mc_dev = float(np.max(np.abs(sol_mc.v[:, 8] - v_step[:, 8])
                          / np.maximum(sol_mc.stderr[:, 8], 1e-12)))
    ok = (res_box <= 1e-8 and res_half <= 1e-8 and series_gap <= 1e-6
          and mc_dev <= 4.0 and cert_ok)
    return CriterionResult(11, "Cauchy mass identities and three-mode solver",
                           ok, {"box_residual": res_box,
                                "halfspace_residual": res_half,
                                "series_gap": series_gap,
                                "mc_sigma_dev": mc_dev,
                                "theta": cert.theta, "sup_bound": cert.sup_bound,
                                "w_max": w_max})


@_timed
def criterion_12_tilt_maximization() -> CriterionResult:
    """Closed-form tilt maximum vs independent grid maximization on a 27-point
    grid, and the density/ceiling bounds on reported exponent estimates."""
    worst = 0.0
    for rho in (0.3, 0.5, 0.7):
        for gamma in (0.01, 0.03, 0.05):
            for G in (0.8, 1.2394671218485, 1.5163860591519780):
                a = var.varadhan_closed_form(gamma, rho, G).value
                b = var.occupation_tilt_max(gamma, rho, G).value
                worst = max(worst, abs(a - b))
    grid_ok = worst <= 1e-8

    spec = OperatorSpec(torus=Torus(1, 6), kernel=srw_kernel(1), kappa=0.5,
                        p=1, rho=0.5)
    lams = exact_lambda_profile(spec, [0.5, 1.0, 2.0, 4.0, 8.0])
    exact_ok = bool(np.all(lams >= 0.5 - 1e-12) and np.all(lams <= 1.0 + 1e-12))
    run = mc.lambda_curve(spec, [1.0, 2.0, 4.0], 4000, 99)
    mc_ok = run.bounds_ok()
    return CriterionResult(12, "tilt maximization and exponent bounds",
                           grid_ok and exact_ok and mc_ok,
                           {"worst_gap": worst, "exact_in_bounds": exact_ok,
                            "mc_in_bounds": mc_ok})


ALL_CRITERIA = [
    criterion_1_graphical_mean,
    criterion_2_exact_vs_mc,
    criterion_3_comparison,
    criterion_4_martingale,
    criterion_5_spectral,
    criterion_6_kappa_sweep,
    criterion_7_intermittency,
    criterion_8_asymptotic_probe,
    criterion_9_green,
    criterion_10_field_suite,
    criterion_11_cauchy,
    criterion_12_tilt_maximization,
]

FAST_OVERRIDES = {
    criterion_1_graphical_mean: {"n": 20000},
    criterion_2_exact_vs_mc: {"n": 40000},
    criterion_8_asymptotic_probe: {"n": 300},
}


def run_acceptance(fast: bool = False) -> list:
    results = []
    for fn in ALL_CRITERIA:
        kwargs = FAST_OVERRIDES.get(fn, {}) if fast else {}
        res = fn(**kwargs)
        results.append(res)
        print(res.line())
    return results
