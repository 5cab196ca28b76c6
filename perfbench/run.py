"""pamse benchmark: one workload per run, from the root of a source checkout.

    python3 perfbench/run.py --workload fk_replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The package is imported from ./src of the checkout. With --trace 0 the last
line of standard output is one JSON object holding the end-to-end metrics
(wall_s, setup_s, peak_rss_mb); with --trace 1 it holds the per-layer
metrics of a traced run and the spans go to perfbench/out/ as JSON lines.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fk_replay", "exact_spectral", "probe_fields")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# one BLAS thread: the workloads are sparse and small-dense, and a single
# thread keeps run-to-run spread low on a shared 2-core machine
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _declared_metrics(kind: str) -> dict:
    """name -> unit of the `end_to_end` or `per_layer` metrics that
    BENCHMARK.json at the checkout root declares."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package():
    """Import pamse from ./src of this checkout, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import pamse

    if Path(pamse.__file__).resolve().parent != SRC / "pamse":
        raise ImportError(f"pamse imported from {pamse.__file__}, not {SRC}")
    return pamse


def _setup(workload_name: str, seed: int):
    """Import the package, numpy and scipy and build the workload's inputs."""
    pamse = _import_package()
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    return pamse, workload, workload.build(seed, pamse)


def _setup_seconds(args) -> float:
    """Fresh process start until imports and inputs are done, timed from
    outside; median of SETUP_SAMPLES sequential child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            if child.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        samples.append(elapsed)
    return statistics.median(samples)


def _rounds(workload, inputs, refs, pamse, log, seconds: float, first: int = 0,
            on_round=None) -> list:
    """Whole rounds until `seconds` have passed (at least one); returns the
    timed seconds of each round."""
    modules = _pamse_modules(pamse)
    times = []
    start = time.perf_counter()
    r = first
    while not times or time.perf_counter() - start < seconds:
        _clear_memo_caches(modules.values())
        before = log.op_seconds
        cpu0 = time.process_time()
        workload.run_round(inputs, refs, r, log, pamse)
        times.append(log.op_seconds - before)
        if on_round is not None:
            on_round(time.process_time() - cpu0)
        r += 1
    return times


def _pamse_modules(pamse) -> dict:
    names = ("exclusion", "montecarlo", "exact", "variational", "irw", "fields",
             "lattice", "harness")
    return {name: getattr(pamse, name) for name in names}


def _clear_memo_caches(modules) -> None:
    """Empty the package's functools caches so that every round costs what
    it costs in a fresh process."""
    for module in modules:
        for obj in list(vars(module).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _result(log, metrics: dict, units: dict) -> dict:
    return {"correct": not log.problems, "attempted": log.attempted,
            "failed": log.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def run_one(args) -> int:
    setup_s = None if args.trace else _setup_seconds(args)
    pamse, workload, inputs = _setup(args.workload, args.seed)
    from spans import Tracer, install, layer_metrics, silent_spans
    from workloads import RoundLog

    refs = workload.references(inputs)
    log = RoundLog()
    if not args.trace:
        times = _rounds(workload, inputs, refs, pamse, log, args.seconds)
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result = _result(log, metrics, _declared_metrics("end_to_end"))
    else:
        # a warm-up round first, then plain and traced rounds alternate so
        # that both see the same machine state
        _rounds(workload, inputs, refs, pamse, log, 0.0)
        tracer = Tracer()
        plain, traced, cpu = [], [], []
        start = time.perf_counter()
        r = 1
        while not traced or time.perf_counter() - start < args.seconds:
            plain += _rounds(workload, inputs, refs, pamse, log, 0.0, first=r,
                             on_round=cpu.append)
            install(tracer, _pamse_modules(pamse))
            try:
                traced += _rounds(workload, inputs, refs, pamse, log, 0.0, first=r + 1)
            finally:
                tracer.restore()
            r += 2
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(str(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl"))
        silent = silent_spans(tracer, workload.expected_spans)
        if silent:
            print(f"expected spans recorded no call: {', '.join(silent)}",
                  file=sys.stderr)
            return 3
        metrics = layer_metrics(tracer, len(traced))
        metrics["process.cpu_s"] = statistics.median(cpu)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result = _result(log, metrics, _declared_metrics("per_layer"))
    for problem in log.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {log.attempted} failed {log.failed} correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, env=os.environ)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            if not lines:
                continue
        result = json.loads(lines[-1])
        results[name] = result
        print(f"== {name}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "pamse" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'pamse'}: run from a pamse checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    if args.setup_probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
