"""Span tracing for the benchmark's traced runs.

Spans are recorded by wrappers that the benchmark installs from outside the
package, around the calls into each layer, and removes again after the
traced rounds. A wrapper goes where the calling module looks the name up:
several modules import a function by name (`from .lattice import heat1d`),
so patching only the defining module would silently miss those calls.
Spans stay in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types

import numpy as np

_FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn",
              "irfftn", "fft2", "ifft2", "rfft2", "irfft2")


class Tracer:
    """Records (name, parent, start, end, attrs) per wrapped call."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, hook=None):
        """Span-recording wrapper; hook(bound_arguments, result) -> attrs."""
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self._stack[-1] if self._stack else -1,
                   time.perf_counter(), 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = hook(bound.arguments, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, hook=None) -> None:
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, hook))

    def patch_numpy_fft(self, module, name: str) -> None:
        """Route `module.np.fft.*` through spans, leaving numpy itself and
        every other module untouched."""
        real_np = module.np
        fft = types.SimpleNamespace(**{
            f: self.wrap(name, getattr(real_np.fft, f), _fft_bytes)
            for f in _FFT_NAMES})
        self._undo.append((module, "np", real_np))
        module.np = _NumpyView(real_np, fft)

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (a span's
        duration minus the durations of its direct children)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, _, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def attrs(self, name: str) -> list:
        return [s[4] for s in self.spans if s[0] == name and s[4] is not None]

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def write_jsonl(self, path: str) -> None:
        """One span per line: [id, parent id or -1, name, start, end, attrs],
        times in seconds from the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, round(start - t0, 7),
                                     round(end - t0, 7), attrs]) + "\n")


class _NumpyView:
    """numpy with a replaced `fft` namespace; everything else delegates."""

    def __init__(self, real_np, fft):
        self._np = real_np
        self.fft = fft

    def __getattr__(self, attr):
        return getattr(self._np, attr)


def _fft_bytes(args, result):
    a = args.get("a")
    return {"bytes": int(np.asarray(a).nbytes + np.asarray(result).nbytes)}


def _schedule_events(args, result):
    return {"events": int(len(result.times))}


def _trials(args, result):
    return {"trials": int(args["n"])}


def _ess(args, result):
    return {"ess_fraction": float(result) / len(args["w"])}


def _generator_size(args, result):
    m = getattr(result, "matrix", result)
    nbytes = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    return {"dim": int(m.shape[0]), "nnz": int(m.nnz), "bytes": int(nbytes)}


def _residual(args, result):
    return {"residual": float(result.residual)}


def install(tracer: Tracer, pamse_modules: dict) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    m = pamse_modules
    table = [
        ("harness", "run_scenario", "harness.run_scenario", None),
        ("exclusion", "build_schedule", "exclusion.build_schedule", _schedule_events),
        ("montecarlo", "build_schedule", "exclusion.build_schedule", _schedule_events),
        ("exclusion", "torus_bonds", "exclusion.torus_bonds", None),
        ("exact", "torus_bonds", "exclusion.torus_bonds", None),
        ("variational", "torus_bonds", "exclusion.torus_bonds", None),
        ("exclusion", "marginal_mc", "exclusion.marginal_mc", None),
        ("montecarlo", "estimate_moment", "montecarlo.estimate_moment", _trials),
        ("montecarlo", "effective_sample_size", "montecarlo.effective_sample_size", _ess),
        ("montecarlo", "asymptotic_probe", "montecarlo.asymptotic_probe", _trials),
        ("lattice", "heat1d", "lattice.heat1d", None),
        ("montecarlo", "heat1d", "lattice.heat1d", None),
        ("fields", "heat1d", "lattice.heat1d", None),
        ("lattice", "green", "lattice.green", None),
        ("montecarlo", "green", "lattice.green", None),
        ("fields", "green", "lattice.green", None),
        ("harness", "green", "lattice.green", None),
        ("lattice", "cycle_heat1d", "lattice.cycle_heat1d", None),
        ("fields", "cycle_heat1d", "lattice.cycle_heat1d", None),
        ("exact", "build_joint_generator", "exact.build_joint_generator", _generator_size),
        ("variational", "build_joint_generator", "exact.build_joint_generator", _generator_size),
        ("exact", "build_se_generator", "exact.build_se_generator", None),
        ("exact", "expm_multiply", "exact.expm_multiply", None),
        ("exact", "log_moment", "exact.log_moment", None),
        ("variational", "top_eigenvalue", "variational.top_eigenvalue", _residual),
        ("variational", "eigsh", "variational.eigsh", None),
        ("irw", "compare_se_irw", "irw.compare_se_irw", None),
        ("harness", "compare_se_irw", "irw.compare_se_irw", None),
        ("irw", "single_walk_values", "irw.single_walk_values", None),
        ("fields", "psi_field", "fields.psi_field", None),
        ("fields", "psi_bounds_check", "fields.psi_bounds_check", None),
        ("fields", "k_kernels", "fields.k_kernels", None),
    ]
    for module, attr, name, hook in table:
        tracer.patch(m[module], attr, name, hook)
    tracer.patch_numpy_fft(m["fields"], "fields.fft")


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-round per-layer figures from the spans of `rounds` traced rounds."""
    agg = tracer.summary()

    def calls(name):
        return agg.get(name, {}).get("calls", 0) / rounds

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0) / rounds

    def total_s(name):
        return agg.get(name, {}).get("total_s", 0.0) / rounds

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    sched = [(i, s[4]["events"]) for i, s in enumerate(tracer.spans)
             if s[0] == "exclusion.build_schedule" and s[4] is not None]
    events = sum(e for _, e in sched) / rounds
    mc_events = sum(e for i, e in sched
                    if tracer.has_ancestor(i, "montecarlo.estimate_moment")) / rounds
    mc_trials = sum(a["trials"] for a in tracer.attrs("montecarlo.estimate_moment")) / rounds
    probe_trials = sum(a["trials"] for a in tracer.attrs("montecarlo.asymptotic_probe")) / rounds
    ess = [a["ess_fraction"] for a in tracer.attrs("montecarlo.effective_sample_size")]
    gens = tracer.attrs("exact.build_joint_generator")
    resid = [a["residual"] for a in tracer.attrs("variational.top_eigenvalue")]
    fft_bytes = sum(a["bytes"] for a in tracer.attrs("fields.fft")) / rounds

    out = {
        "exclusion.build_schedule.calls": calls("exclusion.build_schedule"),
        "exclusion.build_schedule.self_s": self_s("exclusion.build_schedule"),
        "exclusion.torus_bonds.calls": calls("exclusion.torus_bonds"),
        "exclusion.events_per_schedule": ratio(events, calls("exclusion.build_schedule")),
        "exclusion.marginal_mc.self_s": self_s("exclusion.marginal_mc"),
        "montecarlo.estimate_moment.self_s": self_s("montecarlo.estimate_moment"),
        "montecarlo.trial_us": ratio(total_s("montecarlo.estimate_moment"), mc_trials, 1e6),
        "montecarlo.replay_us_per_event": ratio(self_s("montecarlo.estimate_moment"),
                                                mc_events, 1e6),
        "montecarlo.ess_fraction": sum(ess) / len(ess) if ess else 0.0,
        "montecarlo.asymptotic_probe.self_s": self_s("montecarlo.asymptotic_probe"),
        "montecarlo.probe_trial_ms": ratio(total_s("montecarlo.asymptotic_probe"),
                                           probe_trials, 1e3),
        "lattice.heat1d.calls": calls("lattice.heat1d"),
        "lattice.heat1d.self_s": self_s("lattice.heat1d"),
        "lattice.green.calls": calls("lattice.green"),
        "lattice.green.self_s": self_s("lattice.green"),
        "exact.build_joint_generator.calls": calls("exact.build_joint_generator"),
        "exact.build_joint_generator.self_s": self_s("exact.build_joint_generator"),
        "exact.build_se_generator.calls": calls("exact.build_se_generator"),
        "exact.expm_multiply.calls": calls("exact.expm_multiply"),
        "exact.expm_multiply.self_s": self_s("exact.expm_multiply"),
        "exact.log_moment.self_s": self_s("exact.log_moment"),
        "exact.joint_dim_max": max((g["dim"] for g in gens), default=0),
        "exact.nnz_max": max((g["nnz"] for g in gens), default=0),
        "exact.matrix_mb_computed": max((g["bytes"] for g in gens), default=0) / 1e6,
        "variational.top_eigenvalue.self_s": self_s("variational.top_eigenvalue"),
        "variational.eigsh.calls": calls("variational.eigsh"),
        "variational.eigsh.self_s": self_s("variational.eigsh"),
        "variational.residual_max": max(resid, default=0.0),
        "irw.compare_se_irw.self_s": self_s("irw.compare_se_irw"),
        "irw.single_walk_values.calls": calls("irw.single_walk_values"),
        "fields.psi_field.calls": calls("fields.psi_field"),
        "fields.psi_field.ms_per_call": ratio(total_s("fields.psi_field"),
                                              calls("fields.psi_field"), 1e3),
        "fields.fft_passes": calls("fields.fft"),
        "fields.fft_mb_computed": fft_bytes / 1e6,
        "fields.psi_bounds_check.self_s": self_s("fields.psi_bounds_check"),
        "fields.k_kernels.self_s": self_s("fields.k_kernels"),
        "lattice.cycle_heat1d.calls": calls("lattice.cycle_heat1d"),
        "harness.run_scenario.self_s": self_s("harness.run_scenario"),
    }
    return out


def silent_spans(tracer: Tracer, expected) -> list:
    """Expected span names that recorded no call."""
    agg = tracer.summary()
    return [name for name in expected if agg.get(name, {}).get("calls", 0) == 0]
