"""Fail unless every named verdicts.json is strict JSON in which every verdict passes.

Usage: python .github/scripts/strict_verdicts.py VERDICTS_JSON [VERDICTS_JSON ...]

A file fails on a NaN or an infinity anywhere in it, on a record whose
verdict is not ``pass``, on a record whose stored verdict or margin is not
the one its four edges give, or on a summary that counts a fail or an
inconclusive record.  The rule on the edges is ``reporting.Verdict``'s:
a ``null`` (non-finite) edge fails; else pass when lhs <= rhs, inconclusive
when lhs_lo <= rhs_hi, fail otherwise; the margin is rhs - lhs, ``null``
when it is not finite.  Each failure prints one ``::error::`` line (a GitHub
Actions annotation) naming the file, and the exit status is 1.
"""

import json
import math
import sys


def refuse(name):
    raise ValueError(f"non-finite number {name}")


def rule(rec) -> tuple:
    """(verdict, margin) recomputed from the record's four edges."""
    lhs_lo, lhs, rhs, rhs_hi = (rec[k] for k in ("lhs_lo", "lhs", "rhs", "rhs_hi"))
    margin = None if None in (lhs, rhs) or not math.isfinite(rhs - lhs) else rhs - lhs
    if None in (lhs_lo, lhs, rhs, rhs_hi):
        return "fail", margin
    return "pass" if lhs <= rhs else "inconclusive" if lhs_lo <= rhs_hi else "fail", margin


def record_fault(rec):
    """The one fault of a record, or None."""
    name = f"{rec['job']} record {rec['index']}"
    verdict, margin = rule(rec)
    if rec["verdict"] != verdict:
        return f"{name} is stored {rec['verdict']} but its edges give {verdict}: {rec['case']}"
    if rec["margin"] != margin:
        return f"{name} has margin {rec['margin']} but its edges give {margin}: {rec['case']}"
    if verdict != "pass":
        return f"{name} is {verdict}: {rec['case']}"
    return None


def faults(path: str) -> list:
    try:
        with open(path) as fh:
            payload = json.load(fh, parse_constant=refuse)
    except ValueError as err:
        return [str(err)]
    out = [f for f in map(record_fault, payload["verdicts"]) if f]
    summary = payload["summary"]
    if summary["fail"] or summary["inconclusive"]:
        out.append(f"summary {summary}")
    return out


if __name__ == "__main__":
    bad = [(path, fault) for path in sys.argv[1:] for fault in faults(path)]
    for path, fault in bad:
        print(f"::error::{path}: {fault}")
    sys.exit(1 if bad else 0)
