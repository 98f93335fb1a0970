"""Verdict records and their deterministic artifact writers: verdicts JSON,
CSV tables, gnuplot data.

:class:`Verdict` is the one record every job states, checker or experiment
leg; it lives here, beside its writers, so a run that records only
experiment verdicts never loads the checker registry.  Every artifact embeds
the config hash and root seed, never a timestamp, so repeated runs with the
same seed are byte-identical.  JSON is written strict, with sorted keys;
finite floats serialize through repr (exact round-trip), and NaN and the
infinities as ``null``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

SCHEMA_VERSION = 7


@dataclass(frozen=True)
class Verdict:
    """One checked statement instance ``lhs <= rhs``, each side a point or a
    ``(lo, hi)`` interval known to hold it (an unknown end is an infinite edge).

    It keeps the left side's upper edge as ``lhs`` and the right side's lower
    edge as ``rhs`` (``margin`` is rhs - lhs), the others as ``lhs_lo`` and
    ``rhs_hi``.  The one rule: pass when lhs <= rhs, else inconclusive when
    lhs_lo <= rhs_hi, else fail; a NaN on any edge fails.  The job that records
    it supplies its checker id and anchor.
    """

    case: str
    lhs: float  # given as a point or an interval, kept as its upper edge
    rhs: float  # given as a point or an interval, kept as its lower edge
    inputs: dict = field(default_factory=dict)
    lhs_lo: float = field(init=False)
    rhs_hi: float = field(init=False)

    def __post_init__(self):
        edges = [float(e) for side in (self.lhs, self.rhs)
                 for e in (side if isinstance(side, tuple) else (side, side))]
        if edges[0] > edges[1] or edges[2] > edges[3]:
            raise ValueError(f"interval edges out of order: {edges}")
        for name, edge in zip(("lhs_lo", "lhs", "rhs", "rhs_hi"), edges):
            object.__setattr__(self, name, edge)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def verdict(self) -> str:  # "pass" | "fail" | "inconclusive"
        if any(math.isnan(e) for e in (self.lhs_lo, self.lhs, self.rhs, self.rhs_hi)):
            return "fail"
        if self.lhs <= self.rhs:
            return "pass"
        return "inconclusive" if self.lhs_lo <= self.rhs_hi else "fail"


def jsonable(obj):
    """Recursively convert numpy/dataclass objects into JSON-safe values; JSON has
    no NaN or infinity, so a non-finite float becomes None (``null``)."""
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def config_hash(config_dict: dict) -> str:
    canon = json.dumps(jsonable(config_dict), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {k}={meta[k]}" for k in sorted(meta)]


def write_verdicts_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(jsonable(payload), fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def write_table_csv(
    path: str, columns: Sequence[str], rows: Iterable[Sequence], meta: dict
) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        for line in _meta_lines(meta):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(v) -> str:
    """A CSV cell: a float-like value (numpy's included, whose float64 is a
    ``float`` with a ``np.float64(...)`` repr) as the repr of a Python float,
    a numpy integer as a Python int."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def write_plotdata(
    path: str, xs: Sequence[float], ys: Sequence[float], meta: dict
) -> None:
    """Two-column whitespace-separated data, gnuplot-compatible."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        for line in _meta_lines(meta):
            fh.write(line + "\n")
        for x, y in zip(xs, ys):
            fh.write(f"{_cell(float(x))} {_cell(float(y))}\n")
