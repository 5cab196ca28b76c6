"""The three benchmark workloads.

Each workload builds its inputs from the run's seed (`build`), computes the
independent references it checks against (`references`, untimed), and runs
whole rounds of the same operations (`run_round`). An operation is one call
into the package's public functions; only operations are timed, the checks
on their outputs run between them.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
import reference as ref


@dataclass
class RoundLog:
    """Timing, operation counts and check failures of one or more rounds."""

    attempted: int = 0
    failed: int = 0
    op_seconds: float = 0.0
    problems: list = field(default_factory=list)

    def op(self, label: str, fn):
        """Run and time one operation; None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn()
        except Exception:
            self.failed += 1
            print(f"operation {label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.op_seconds += time.perf_counter() - t0

    def check(self, label: str, problem) -> None:
        if problem is not None:
            self.problems.append(f"{label}: {problem}")


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


def _round_seed(seed: int, r: int) -> int:
    """Integer scenario seed of round r (scenario configs take an int)."""
    return seed * 1000 + r


# ---------------------------------------------------------------------------
# fk_replay: Feynman-Kac Monte Carlo on small rings, many short trials.
# ---------------------------------------------------------------------------

FK_L, FK_T = 6, 2.0
FK_CASES = ((1, 0.5), (2, 2.0))  # (p, kappa)
FK_TRIALS = 2000
MARGINAL_L = 16
MARGINAL_PAIRS = ((0, 0.5), (3, 1.0), (8, 2.0), (5, 1.5), (12, 3.0))
MARGINAL_TRIALS = 2000


class FkReplay:
    name = "fk_replay"
    expected_spans = (
        "harness.run_scenario", "montecarlo.estimate_moment",
        "montecarlo.effective_sample_size", "exclusion.build_schedule",
        "exclusion.torus_bonds", "exclusion.marginal_mc", "exact.log_moment",
        "exact.build_joint_generator", "exact.build_se_generator",
        "exact.expm_multiply",
    )

    def build(self, seed: int, pamse) -> dict:
        rng = _rng(seed, 1)
        rho = float(rng.uniform(0.3, 0.7))
        torus = pamse.Torus(1, MARGINAL_L)
        bits = (rng.random(torus.n_sites) < 0.5).astype(np.uint8)
        return {
            "seed": seed,
            "moment_params": [{"d": 1, "L": FK_L, "rho": rho, "kappa": kappa,
                               "p": p, "t": FK_T, "n": FK_TRIALS}
                              for p, kappa in FK_CASES],
            "initial": pamse.Configuration(torus, bits),
            "kernel": pamse.srw_kernel(1),
        }

    def references(self, inputs: dict) -> dict:
        return {
            "moments": [ref.ring_moment(FK_L, c["p"], c["kappa"], c["rho"], FK_T)
                        for c in inputs["moment_params"]],
            "marginals": ref.marginal_means(inputs["initial"].bits, MARGINAL_L,
                                            MARGINAL_PAIRS),
        }

    def run_round(self, inputs, refs, r: int, log: RoundLog, pamse) -> None:
        seed = inputs["seed"]
        for params, want in zip(inputs["moment_params"], refs["moments"]):
            cfg = pamse.ScenarioConfig("exact_vs_mc",
                                       dict(params, seed=_round_seed(seed, r)))
            rep = log.op("exact_vs_mc", lambda: pamse.harness.run_scenario(cfg))
            if rep is None:
                continue
            row = rep.rows[0]
            label = f"exact_vs_mc p={params['p']}"
            log.check(label + " exact", checks.rel_close(row["exact"], want, 1e-9))
            log.check(label + " mc", checks.within_sigma(row["mc"], row["stderr"],
                                                         want, 5.0))
        out = log.op("marginal_mc", lambda: pamse.exclusion.marginal_mc(
            inputs["initial"], inputs["kernel"], MARGINAL_PAIRS,
            MARGINAL_TRIALS, [seed, r]))
        if out is not None:
            for (site, t), mean, q in zip(MARGINAL_PAIRS, out[0], refs["marginals"]):
                hits = int(round(mean * MARGINAL_TRIALS))
                log.check(f"marginal_mc site {site} t {t}",
                          checks.binomial_consistent(hits, MARGINAL_TRIALS, q))


# ---------------------------------------------------------------------------
# exact_spectral: semigroup and Lanczos work on the largest joint spaces.
# ---------------------------------------------------------------------------

ES_L14_KAPPAS = (0.0, 0.5, 2.0)
ES_L14_T = 2.0
ES_L8_PS = (1, 2, 3)
ES_L8_KAPPA, ES_L8_T = 0.5, 4.0
ES_RESIDUAL_MAX = 1e-8  # the Lanczos layer's own convergence bound


class ExactSpectral:
    name = "exact_spectral"
    expected_spans = (
        "harness.run_scenario", "exact.log_moment", "exact.build_joint_generator",
        "exact.build_se_generator", "exact.expm_multiply", "exclusion.torus_bonds",
        "variational.top_eigenvalue", "variational.eigsh",
        "irw.compare_se_irw", "irw.single_walk_values",
    )

    def build(self, seed: int, pamse) -> dict:
        rng = _rng(seed, 2)
        rho = float(rng.uniform(0.3, 0.7))
        kernel = pamse.srw_kernel(1)

        def spec(L, kappa, p):
            return pamse.OperatorSpec(torus=pamse.Torus(1, L), kernel=kernel,
                                      kappa=kappa, p=p, rho=rho)

        return {
            "l14": [spec(14, kappa, 1) for kappa in ES_L14_KAPPAS],
            "l8": [spec(8, ES_L8_KAPPA, p) for p in ES_L8_PS],
            "comparison": pamse.ScenarioConfig("comparison_suite", {
                "d": 1, "L": 6, "t": 1.0, "seed": seed,
                "rhos": sorted(float(x) for x in rng.uniform(0.2, 0.8, 3))}),
        }

    def references(self, inputs: dict) -> dict:
        return {}

    def _spectral(self, spec, t, log: RoundLog, pamse):
        """Lambda_p(t) and the top eigenvalue of one spec, both checked."""
        gamma, rho, p = spec.gamma, spec.rho, spec.p
        label = f"L={spec.torus.L} p={p} kappa={spec.kappa}"
        prof = log.op("exact_lambda_profile",
                      lambda: pamse.exact.exact_lambda_profile(spec, [t]))
        lam = None
        if prof is not None:
            lam = float(prof[0])
            log.check(label + " Jensen floor / ceiling",
                      checks.in_range(lam, gamma * rho, gamma, slack=1e-12))
        top = log.op("top_eigenvalue", lambda: pamse.variational.top_eigenvalue(spec))
        if top is not None:
            log.check(label + " mu bounds",
                      checks.in_range(top.mu, p * gamma * rho, p * gamma, slack=1e-9))
            res = ref.weighted_residual(top.vector, top.mu, spec.torus.L, p,
                                        spec.kappa, rho, gamma)
            log.check(label + " eigen-residual", checks.at_most(res, ES_RESIDUAL_MAX))
        return lam

    def run_round(self, inputs, refs, r: int, log: RoundLog, pamse) -> None:
        for spec in inputs["l14"]:
            self._spectral(spec, ES_L14_T, log, pamse)
        lams = [self._spectral(spec, ES_L8_T, log, pamse) for spec in inputs["l8"]]
        if None not in lams:
            log.check("L=8 Hoelder in p", checks.non_decreasing(lams, slack=1e-12))
        rep = log.op("comparison_suite", lambda: pamse.harness.run_scenario(inputs["comparison"]))
        if rep is not None:
            log.check("comparison_suite cases", None if len(rep.rows) == 12
                      else f"{len(rep.rows)} cases, expected 12")
            for row in rep.rows:
                log.check(f"exclusion <= IRW rho={row['rho']} {row['weight']}",
                          checks.in_range(row["margin"], -1e-10, np.inf))


# ---------------------------------------------------------------------------
# probe_fields: the transient-dimension checks.
# ---------------------------------------------------------------------------

PROBE_D, PROBE_KAPPA, PROBE_T = 4, 10.0, 200.0
PROBE_TRIALS = 8
FIELD_D, FIELD_T, FIELD_KAPPA = 3, 5.0, 2.0
FIELD_CONFIGS = 3
PSI_SITES = 5


class ProbeFields:
    name = "probe_fields"
    expected_spans = (
        "harness.run_scenario", "montecarlo.asymptotic_probe", "lattice.heat1d",
        "lattice.green", "lattice.cycle_heat1d", "fields.psi_field", "fields.fft",
        "fields.psi_bounds_check", "fields.k_kernels",
    )

    def build(self, seed: int, pamse) -> dict:
        rng = _rng(seed, 3)
        rho = float(rng.uniform(0.3, 0.7))
        side = pamse.fields.recommended_side(FIELD_D, FIELD_T, FIELD_KAPPA)
        torus = pamse.Torus(FIELD_D, side)
        return {
            "seed": seed,
            "field_params": {"d": FIELD_D, "T": FIELD_T, "kappa": FIELD_KAPPA,
                             "n_eta": FIELD_CONFIGS, "rho": rho},
            "psi_spec": pamse.fields.PsiSpec(kappa=FIELD_KAPPA, T=FIELD_T,
                                             torus=torus, rho=rho),
            "eta": (rng.random(torus.n_sites) < rho).astype(float),
            "sites": rng.choice(torus.n_sites, PSI_SITES, replace=False),
            "kernel3": pamse.srw_kernel(3),
            "kernel4": pamse.srw_kernel(4),
        }

    def references(self, inputs: dict) -> dict:
        return {"probe": ref.probe_reference(PROBE_D, PROBE_KAPPA, ref.G4_LITERATURE)}

    def run_round(self, inputs, refs, r: int, log: RoundLog, pamse) -> None:
        seed = inputs["seed"]
        spec = inputs["psi_spec"]
        T, rho = spec.T, spec.rho
        out = log.op("asymptotic_probe", lambda: pamse.montecarlo.asymptotic_probe(
            PROBE_D, PROBE_KAPPA, PROBE_T, PROBE_TRIALS, [seed, r]))
        if out is not None:
            est, prog_ref = out
            log.check("probe mean", checks.within_sigma(
                est.mean, est.stderr, refs["probe"], 5.0, rel_slack=0.05))
            log.check("probe reference", checks.rel_close(prog_ref, refs["probe"], 1e-9))
        for kernel, want in ((inputs["kernel3"], ref.G3_WATSON),
                             (inputs["kernel4"], ref.G4_LITERATURE)):
            g = log.op("green", lambda: pamse.lattice.green(kernel))
            if g is not None:
                log.check(f"green d={kernel.d}", checks.rel_close(g, want, 1e-9))
        cfg = pamse.ScenarioConfig("field_checks",
                                   dict(inputs["field_params"], seed=_round_seed(seed, r)))
        rep = log.op("field_checks", lambda: pamse.harness.run_scenario(cfg))
        if rep is not None:
            row = rep.rows[0]
            d = FIELD_D
            log.check("psi site bound 2T",
                      checks.at_most(row["psi_max_site_diff"], 2 * T))
            log.check("psi swap bound 2 G_3",
                      checks.at_most(row["psi_max_swap_diff"], 2 * ref.G3_WATSON))
            log.check("psi swap square sum bound G_3/(2d)",
                      checks.at_most(row["psi_swap_square_sum"], ref.G3_WATSON / (2 * d)))
        chi = log.op("chi_table", lambda: pamse.fields.chi_table(spec))
        if chi is not None:
            log.check("chi mass", checks.rel_close(float(chi.values.sum()), T, 1e-9))
        ones = np.ones(spec.torus.n_sites)
        psi1 = log.op("psi_field", lambda: pamse.fields.psi_field(ones, spec))
        if psi1 is not None:
            log.check("psi(all ones)", checks.all_close(psi1, (1 - rho) * T, 1e-9 * T))
        psi = log.op("psi_field", lambda: pamse.fields.psi_field(inputs["eta"], spec))
        if psi is not None and chi is not None:
            want = [direct_psi(chi.values, inputs["eta"], rho, spec.torus.L,
                               spec.torus.d, x) for x in inputs["sites"]]
            log.check("psi direct sum",
                      checks.all_close(psi[inputs["sites"]], want, 1e-9 * T))


def direct_psi(chi_values, eta, rho, L: int, d: int, x: int) -> float:
    """psi(eta, x) = sum_z chi(z - x) (eta(z) - rho), site index row-major
    over d coordinates of side L, differences taken modulo L."""
    grid = np.asarray(chi_values).reshape((L,) * d)
    coords = np.unravel_index(int(x), (L,) * d)
    shifted = np.roll(grid, shift=coords, axis=tuple(range(d)))  # chi(z - x)
    return float(np.sum(shifted.ravel() * (np.asarray(eta) - rho)))


WORKLOADS = {w.name: w for w in (FkReplay(), ExactSpectral(), ProbeFields())}
