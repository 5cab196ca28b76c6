"""Command-line entry point: run/validate scenario configs, emit figure data,
and run the acceptance selftest. Exit code is nonzero on any FAIL flag."""

from __future__ import annotations

import argparse
import os
import sys

from .harness import Report, ScenarioConfig, emit_figures_data, run_scenario, \
    scenario_parameters, validate_config


def _cmd_run(args) -> int:
    cfg = ScenarioConfig.from_file(args.config)
    validate_config(cfg)
    if args.output:
        cfg.output_path = args.output
    # trial merges are index-ordered, so worker count never changes results
    if args.workers and "n_workers" in scenario_parameters(cfg.scenario):
        cfg.params.setdefault("n_workers", args.workers)
    report = run_scenario(cfg)
    print(report.to_json() if args.verbose else _summary(report))
    return 0 if report.passed else 1


def _summary(report: Report) -> str:
    flags = " ".join(f"{k}={'PASS' if v else 'FAIL'}" for k, v in report.flags.items())
    status = "PASS" if report.passed else "FAIL"
    return f"[{status}] {report.scenario}: {len(report.rows)} rows; {flags}"


def _cmd_validate(args) -> int:
    cfg = ScenarioConfig.from_file(args.config)
    validate_config(cfg)
    print(f"ok: {cfg.scenario}")
    return 0


def _cmd_figures(args) -> int:
    for f in emit_figures_data(Report.from_json(args.report), args.outdir):
        print(f)
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(fast=args.fast)
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 1 if n_fail else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pamse",
        description="Exclusion-catalyst reaction-diffusion toolkit: scenario "
                    "runner and acceptance suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config (JSON)")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="write the report JSON here")
    p_run.add_argument("--verbose", action="store_true")
    p_run.add_argument("--workers", type=int, default=os.cpu_count(),
                       help="worker processes for Monte-Carlo scenarios "
                            "(results are worker-count independent)")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a scenario config")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_fig = sub.add_parser("figures", help="emit figure data from a report")
    p_fig.add_argument("report")
    p_fig.add_argument("--outdir", default="figures")
    p_fig.set_defaults(fn=_cmd_figures)

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    p_self.add_argument("--fast", action="store_true",
                        help="reduced Monte-Carlo budgets")
    p_self.set_defaults(fn=_cmd_selftest)

    args = parser.parse_args(argv)
    if args.command == "selftest":  # reads no input file
        return args.fn(args)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # unreadable or invalid input file
        print(f"invalid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
