"""Wall time of each of the 12 acceptance criteria, timed from outside.

    python3 perfbench/criteria_times.py            # full budgets (~4-5 min)
    python3 perfbench/criteria_times.py --fast     # the selftest --fast budgets

Runs `pamse.acceptance.ALL_CRITERIA` in order in one process, as
`pamse selftest` does, with the same single BLAS thread as perfbench/run.py.
Prints one line per criterion and the total, then one JSON object. Nothing
is gated: this regenerates the per-criterion baseline table, it is not part
of the benchmark's workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from run import SRC, THREAD_ENV


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fast", action="store_true",
                    help="use the reduced Monte Carlo budgets of selftest --fast")
    args = ap.parse_args(argv)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from pamse import acceptance

    rows = []
    for fn in acceptance.ALL_CRITERIA:
        kwargs = acceptance.FAST_OVERRIDES.get(fn, {}) if args.fast else {}
        t0 = time.perf_counter()
        res = fn(**kwargs)
        seconds = time.perf_counter() - t0
        rows.append({"index": res.index, "name": fn.__name__, "seconds": seconds,
                     "passed": bool(res.passed)})
        print(f"criterion {res.index:2d} {fn.__name__:36s} {seconds:8.1f} s "
              f"{'PASS' if res.passed else 'FAIL'}", flush=True)
    total = sum(r["seconds"] for r in rows)
    print(f"total {total:.1f} s")
    print(json.dumps({"total_s": total, "criteria": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
