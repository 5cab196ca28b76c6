"""Scenario runner: config parsing, experiment dispatch and report emission.

Configs are JSON checked against their runner's keyword-only signature;
thresholds live in the config so acceptance runs are auditable. Every report
embeds its full config and an environment fingerprint, and re-running a
report's config reproduces every number (fixed seeds, index-ordered trial merges).
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import montecarlo as mc
from . import variational as var
from .exact import OperatorSpec, exact_lambda_profile, exact_moment
from .irw import WeightFunction, compare_se_irw
from .lattice import Torus, check_density, check_kappa, check_walkers, green, srw_kernel

# scenarios whose kappa enters through 1[kappa] = 1 + 1/(2 d kappa)
_POSITIVE_KAPPA = {"asymptotic_probe", "field_checks"}


@dataclass
class ScenarioConfig:
    scenario: str
    params: dict
    output_path: str | None = None

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        return cls(scenario=raw.get("scenario", ""), params=raw.get("params", {}),
                   output_path=raw.get("output_path"))

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "params": self.params,
                "output_path": self.output_path}


class ConfigError(ValueError):
    pass


def scenario_parameters(scenario: str):
    """A scenario runner's keyword parameters: each annotation is the JSON type
    of a supplied value, each default the value used when the key is omitted."""
    if scenario not in _RUNNERS:
        raise ConfigError(f"unknown scenario {scenario!r}; "
                          f"known: {sorted(_RUNNERS)}")
    return inspect.signature(_RUNNERS[scenario], eval_str=True).parameters


def validate_config(cfg: ScenarioConfig) -> dict:
    """Check cfg.params against the runner's signature and return its kwargs;
    an int given for a float is converted, lists must be non-empty, and the
    model keys (`rho`, `kappa`, `p` and their lists) obey the range rules the
    models apply."""
    if not isinstance(cfg.params, dict):
        raise ConfigError(f"{cfg.scenario}: params must be a JSON object")
    params = scenario_parameters(cfg.scenario)
    kwargs = {}
    for key, param in params.items():
        if key not in cfg.params:
            if param.default is param.empty:
                raise ConfigError(f"{cfg.scenario}: missing required key {key!r}")
            continue
        val, typ = cfg.params[key], param.annotation
        if typ is float and isinstance(val, int):
            val = float(val)
        if not isinstance(val, typ):
            raise ConfigError(f"{cfg.scenario}: key {key!r} must be {typ.__name__}")
        if typ is list and not val:
            raise ConfigError(f"{cfg.scenario}: key {key!r} must be non-empty")
        kwargs[key] = val
    for key in cfg.params:
        if key not in params:
            raise ConfigError(f"{cfg.scenario}: unknown key {key!r}")
    positive = cfg.scenario in _POSITIVE_KAPPA
    rules = {"rho": check_density, "rhos": check_density,
             "kappa": lambda k: check_kappa(k, positive), "kappas": check_kappa,
             "limit_kappa": lambda k: check_kappa(k, True),
             "p": check_walkers, "p_list": check_walkers}
    for key, rule in rules.items():
        vals = kwargs.get(key, [])
        for val in vals if isinstance(vals, list) else [vals]:
            try:
                rule(val)
            except ValueError as exc:
                raise ConfigError(f"{cfg.scenario}: key {key!r}: {exc}") from None
    return kwargs


def _env_fingerprint() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@dataclass
class Report:
    scenario: str
    config: dict
    rows: list
    flags: dict
    passed: bool
    env: dict = field(default_factory=_env_fingerprint)

    def to_json(self, path: str | None = None) -> str:
        text = json.dumps(asdict(self), indent=2, default=_jsonable)
        if path:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_json(cls, path: str) -> "Report":
        with open(path) as fh:
            raw = json.load(fh)
        return cls(scenario=raw["scenario"], config=raw["config"], rows=raw["rows"],
                   flags=raw["flags"], passed=raw["passed"], env=raw.get("env", {}))


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return repr(obj)


# ---------------------------------------------------------------------------
# Scenario implementations.
# ---------------------------------------------------------------------------


def _run_comparison_suite(*, d: int, L: int, rhos: list, t: float, seed: int,
                          weight_values: list = (1.0, -1.0), box: list = None,
                          tolerance: float = 1e-10) -> Report:
    torus = Torus(d, L)
    kernel = srw_kernel(d)
    box = box or [[0] * d, [1] + [0] * (d - 1), [2] + [0] * (d - 1)]
    weights = []
    for v in weight_values:
        weights.append(("point", WeightFunction((((0,) * d, (0.0, t), float(v)),))))
        weights.append(("box", WeightFunction(tuple(
            (tuple(s), (0.0, t), float(v) / len(box)) for s in box))))
    rows = []
    ok = True
    for rho in rhos:
        for tag, K in weights:
            rep = compare_se_irw(torus, kernel, float(rho), K, t, seed=seed)
            rows.append({"rho": rho, "weight": tag,
                         "sign": K.sign, "se": rep.se_value, "irw": rep.irw_value,
                         "margin": rep.margin, "violation": rep.violation})
            ok = ok and rep.margin >= -tolerance
    return Report("comparison_suite", {}, rows,
                  {"all_margins_nonnegative": ok}, ok)


def _run_exact_vs_mc(*, d: int, L: int, rho: float, kappa: float, p: int, t: float,
                     n: int, seed: int, gamma: float = 1.0, n_sigma: float = 3.0,
                     rel_tol: float = 0.02, n_workers: int = 1) -> Report:
    spec = OperatorSpec(torus=Torus(d, L), kernel=srw_kernel(d), kappa=kappa, p=p,
                        rho=rho, gamma=gamma)
    exact_val = exact_moment(spec, t)
    est = mc.estimate_moment(spec, t, n, seed, n_workers=n_workers)
    within = est.within(exact_val, n_sigma)
    rel = abs(est.mean - exact_val) / exact_val
    ok = within and rel <= rel_tol
    rows = [{"t": t, "exact": exact_val, "mc": est.mean, "stderr": est.stderr,
             "n": est.n, "rel_gap": rel}]
    return Report("exact_vs_mc", {}, rows,
                  {"within_sigma": within, "rel_gap_ok": rel <= rel_tol}, ok)


def _run_kappa_sweep(*, d: int, L: int, rho: float, p: int, kappas: list,
                     gamma: float = 1.0, convexity_tol: float = 1e-9,
                     t_ref: float = None) -> Report:
    torus = Torus(d, L)
    kernel = srw_kernel(d)
    rows = []
    lams = []
    for kap in kappas:
        spec = OperatorSpec(torus=torus, kernel=kernel, kappa=float(kap),
                            p=p, rho=rho, gamma=gamma)
        top = var.top_eigenvalue(spec)
        row = {"kappa": kap, "mu": top.mu, "lambda": top.lam,
               "residual": top.residual, "converged": top.converged}
        if t_ref:
            row["Lambda_at_t_ref"] = float(exact_lambda_profile(spec, [t_ref])[0])
        rows.append(row)
        lams.append(top.lam)
    lams = np.asarray(lams)
    non_increasing = bool(np.all(np.diff(lams) <= convexity_tol))
    second = np.diff(lams, 2)
    convex = bool(np.all(second >= -convexity_tol)) if len(second) else True
    ok = non_increasing and convex and all(r["converged"] for r in rows)
    return Report("kappa_sweep", {}, rows,
                  {"non_increasing": non_increasing, "convex": convex}, ok)


def _run_intermittency_kappa0(*, d: int, L: int, rho: float, p_list: list, t: float,
                              gamma: float = 1.0, min_gap: float = 1e-6) -> Report:
    torus = Torus(d, L)
    kernel = srw_kernel(d)
    rows = []
    lam_prev = None
    strict = True
    holder = True
    for order in p_list:
        spec = OperatorSpec(torus=torus, kernel=kernel, kappa=0.0, p=int(order),
                            rho=rho, gamma=gamma)
        lam = float(exact_lambda_profile(spec, [t])[0])
        rows.append({"p": order, "Lambda": lam, "t": t})
        if lam_prev is not None:
            strict = strict and (lam - lam_prev > min_gap)
            holder = holder and (lam >= lam_prev - 1e-12)
        lam_prev = lam
    return Report("intermittency_kappa0", {}, rows,
                  {"strictly_increasing": strict, "holder_monotone": holder},
                  strict and holder)


def _run_recurrent_trend(*, d: int, L: int, rho: float, kappa: float, t_grid: list,
                         n: int, seed: int, gamma: float = 1.0,
                         n_workers: int = 1) -> Report:
    spec = OperatorSpec(torus=Torus(d, L), kernel=srw_kernel(d), kappa=kappa, p=1,
                        rho=rho, gamma=gamma)
    run = mc.lambda_curve(spec, t_grid, n, seed, n_workers=n_workers)
    rows = [{"t": float(t), "Lambda": float(l), "stderr": float(e)}
            for t, l, e in zip(run.t_grid, run.lambdas, run.lambda_err)]
    diffs = np.diff(run.lambdas)
    ci = 4.0 * np.sqrt(run.lambda_err[1:] ** 2 + run.lambda_err[:-1] ** 2)
    trend = bool(np.all(diffs >= -ci))
    bounds = run.bounds_ok()
    rows.append({"plateau": run.plateau, "plateau_err": run.plateau_err,
                 "fit_window": list(run.fit_window)})
    return Report("recurrent_trend", {}, rows,
                  {"non_decreasing_within_ci": trend, "bounds_ok": bounds},
                  trend and bounds)


def _run_asymptotic_probe(*, d: int, kappa: float, t: float, n: int, seed: int,
                          shift: float = 0.0, rel_tol: float = 0.05,
                          n_workers: int = 1) -> Report:
    est, ref = mc.asymptotic_probe(d, kappa, t, n, seed, shift=shift,
                                   n_workers=n_workers)
    rel = abs(est.mean - ref) / ref
    ok = rel <= rel_tol
    rows = [{"mc_mean": est.mean, "stderr": est.stderr, "reference": ref,
             "rel_gap": rel, "n": est.n}]
    return Report("asymptotic_probe", {}, rows, {"within_rel_tol": ok}, ok)


def _run_field_checks(*, d: int, T: float, kappa: float, n_eta: int, seed: int,
                      L: int = None, rho: float = 0.5, norm_tol: float = 1e-6,
                      limit_kappa: float = 1e3, limit_tol: float = 1e-3) -> Report:
    from .fields import PsiSpec, k_kernels, psi_bounds_check, recommended_side

    L = L or recommended_side(d, T, kappa)
    trs = Torus(d, L)
    spec = PsiSpec(kappa=kappa, T=T, torus=trs, rho=rho)
    rep = psi_bounds_check(spec, n_eta, seed)
    kk = k_kernels(spec)
    off_ok = kk.k_off_norm_bound <= 8 * d * T**2 + 1e-9
    closed_ok = abs(kk.k_diag_norm - kk.closed_form_norm) <= norm_tol
    row = {
        "L": L, "psi_max_site_diff": rep.max_site_diff,
        "psi_max_swap_diff": rep.max_swap_diff,
        "psi_swap_square_sum": rep.max_swap_square_sum,
        "quad_nodes": rep.quad_nodes,
        "k_diag_norm": kk.k_diag_norm, "k_diag_closed_form": kk.closed_form_norm,
        "k_off_norm_bound": kk.k_off_norm_bound, "k_off_limit": 8 * d * T**2,
    }
    kk_hi = k_kernels(PsiSpec(kappa=limit_kappa, T=T, torus=trs, rho=rho))
    limit_ok = abs(kk_hi.k_diag_norm - kk_hi.kappa_limit_norm) <= limit_tol
    row.update(k_diag_norm_at_high_kappa=kk_hi.k_diag_norm,
               kappa_limit_value=kk_hi.kappa_limit_norm)
    flags = {"psi_bounds": rep.passed, "k_off_bound": off_ok,
             "k_diag_closed_form": closed_ok, "k_diag_kappa_limit": limit_ok}
    return Report("field_checks", {}, [row], flags, all(flags.values()))


_RUNNERS = {
    "comparison_suite": _run_comparison_suite,
    "exact_vs_mc": _run_exact_vs_mc,
    "kappa_sweep": _run_kappa_sweep,
    "intermittency_kappa0": _run_intermittency_kappa0,
    "recurrent_trend": _run_recurrent_trend,
    "asymptotic_probe": _run_asymptotic_probe,
    "field_checks": _run_field_checks,
}


def run_scenario(cfg: ScenarioConfig) -> Report:
    report = _RUNNERS[cfg.scenario](**validate_config(cfg))
    report.config = cfg.to_dict()
    if cfg.output_path:
        os.makedirs(os.path.dirname(cfg.output_path) or ".", exist_ok=True)
        report.to_json(cfg.output_path)
    return report


# ---------------------------------------------------------------------------
# Figure data emission.
# ---------------------------------------------------------------------------


def emit_figures_data(report: Report, outdir: str) -> list:
    """One columnar file per curve: (kappa, lambda_p, ci) plus the dashed
    large-kappa asymptote rho + rho (1 - rho) G_d / (2 d kappa)."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    if report.scenario == "kappa_sweep":
        params = report.config.get("params", {})
        d = int(params.get("d", 1))
        rho = float(params.get("rho", 0.5))
        pth = os.path.join(outdir, f"lambda_vs_kappa_p{params.get('p', 1)}.dat")
        rows = [r for r in report.rows if "kappa" in r]
        asym = _asymptote_column(d, rho, [r["kappa"] for r in rows])
        with open(pth, "w") as fh:
            fh.write("# kappa lambda_p ci asymptote\n")
            for r, a in zip(rows, asym):
                ci = 100.0 * r.get("residual", 0.0)
                fh.write(f"{r['kappa']!r} {r['lambda']!r} {ci!r} {a!r}\n")
        written.append(pth)
    elif report.scenario == "recurrent_trend":
        pth = os.path.join(outdir, "lambda_vs_t.dat")
        with open(pth, "w") as fh:
            fh.write("# t Lambda ci\n")
            for r in report.rows:
                if "t" in r:
                    fh.write(f"{r['t']!r} {r['Lambda']!r} {4.0 * r['stderr']!r}\n")
        written.append(pth)
    else:
        pth = os.path.join(outdir, f"{report.scenario}.dat")
        keys = sorted({k for r in report.rows for k in r
                       if isinstance(r.get(k), (int, float))})
        with open(pth, "w") as fh:
            fh.write("# " + " ".join(keys) + "\n")
            for r in report.rows:
                fh.write(" ".join(repr(float(r[k])) if k in r else "nan"
                                  for k in keys) + "\n")
        written.append(pth)
    return written


def _asymptote_column(d: int, rho: float, kappas) -> list:
    if d < 3:
        return [float("nan")] * len(kappas)
    gd = green(srw_kernel(d))
    return [rho + rho * (1 - rho) * gd / (2 * d * k) if k > 0 else float("nan")
            for k in kappas]


def parse_figure_file(path: str):
    """Round-trip reader for emitted figure files: (header_keys, rows)."""
    with open(path) as fh:
        header = fh.readline().lstrip("# ").split()
        rows = [[float(v) for v in line.split()] for line in fh if line.strip()]
    return header, rows
