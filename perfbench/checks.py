"""Pass/fail checks on the program's outputs.

Each check returns None when the value passes and a one-line reason when it
does not, so the workloads can collect every failure of a run and the tests
can feed each check one wrong value.
"""

from __future__ import annotations

import math

import numpy as np

from reference import FIVE_SIGMA_TAIL, binomial_two_sided_p


def rel_close(value: float, ref: float, rel_tol: float):
    """|value - ref| <= rel_tol * |ref|."""
    if not math.isfinite(value) or abs(value - ref) > rel_tol * abs(ref):
        return f"{value!r} differs from reference {ref!r} by more than {rel_tol:g} relative"
    return None


def within_sigma(mean: float, stderr: float, ref: float, n_sigma: float = 5.0,
                 rel_slack: float = 0.0):
    """|mean - ref| <= rel_slack * |ref| + n_sigma * stderr, stderr finite."""
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr >= 0):
        return f"mean {mean!r} or stderr {stderr!r} is not finite"
    allowed = rel_slack * abs(ref) + n_sigma * stderr
    if abs(mean - ref) > allowed:
        return (f"mean {mean!r} is {abs(mean - ref):.3g} from reference {ref!r}; "
                f"allowed {allowed:.3g}")
    return None


def binomial_consistent(hits: int, n: int, q: float, tail: float = FIVE_SIGMA_TAIL):
    """hits out of n Bernoulli(q) trials is not further out than the
    two-sided 5-sigma tail, by the exact binomial law."""
    p = binomial_two_sided_p(int(hits), int(n), float(q))
    if p < tail:
        return f"{hits}/{n} hits against probability {q!r}: two-sided tail {p:.3g}"
    return None


def in_range(value: float, lo: float, hi: float, slack: float = 0.0):
    """lo - slack <= value <= hi + slack."""
    if not (lo - slack <= value <= hi + slack):
        return f"{value!r} outside [{lo!r}, {hi!r}] (slack {slack:g})"
    return None


def non_decreasing(values, slack: float = 0.0):
    """values[i+1] >= values[i] - slack for every i."""
    values = list(values)
    for i, (a, b) in enumerate(zip(values, values[1:])):
        if b < a - slack:
            return f"entry {i + 1} ({b!r}) falls below entry {i} ({a!r})"
    return None


def at_most(value: float, bound: float):
    if not value <= bound:
        return f"{value!r} exceeds {bound!r}"
    return None


def all_close(values, ref, atol: float):
    """max |values - ref| <= atol, elementwise; ref may be a scalar."""
    dev = np.abs(np.asarray(values, dtype=float) - np.asarray(ref, dtype=float))
    if not np.all(dev <= atol):
        i = int(np.argmax(np.where(dev <= atol, -1.0, np.inf)))
        return f"entry {i} is off by {dev.flat[i]:.3g} (tolerance {atol:g})"
    return None
