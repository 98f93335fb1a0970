"""Fail unless every named verdicts.json is strict JSON in which every verdict passes.

Usage: python .github/scripts/strict_verdicts.py VERDICTS_JSON [VERDICTS_JSON ...]

A file fails on a NaN or an infinity anywhere in it, on a record whose
verdict is not ``pass``, or on a summary that counts a fail or an
inconclusive record.  Each failure prints one ``::error::`` line (a GitHub
Actions annotation) naming the file, and the exit status is 1.
"""

import json
import sys


def refuse(name):
    raise ValueError(f"non-finite number {name}")


def faults(path: str) -> list:
    try:
        with open(path) as fh:
            payload = json.load(fh, parse_constant=refuse)
    except ValueError as err:
        return [str(err)]
    out = [f"{rec['job']} record {rec['index']} is {rec['verdict']}: {rec['case']}"
           for rec in payload["verdicts"] if rec["verdict"] != "pass"]
    summary = payload["summary"]
    if summary["fail"] or summary["inconclusive"]:
        out.append(f"summary {summary}")
    return out


if __name__ == "__main__":
    bad = [(path, fault) for path in sys.argv[1:] for fault in faults(path)]
    for path, fault in bad:
        print(f"::error::{path}: {fault}")
    sys.exit(1 if bad else 0)
