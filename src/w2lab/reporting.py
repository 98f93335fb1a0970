"""Deterministic artifact writers: verdicts JSON, CSV tables, gnuplot data.

Every artifact embeds the config hash and root seed, never a timestamp, so
repeated runs with the same seed are byte-identical.  JSON is written with
sorted keys; floats serialize through repr (exact round-trip).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Iterable, Sequence

import numpy as np

SCHEMA_VERSION = 5


def jsonable(obj):
    """Recursively convert numpy/dataclass objects into JSON-safe values."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
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
        json.dump(jsonable(payload), fh, sort_keys=True, indent=1)
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
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
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
