"""CI's gate on verdicts.json: ``.github/scripts/strict_verdicts.py``.

The script refuses a file holding a NaN or an infinity, a record whose verdict
is not ``pass``, or a summary counting a fail or an inconclusive record, and
exits 1 when any named file is refused.  It is loaded by path, as it runs in CI.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", ".github", "scripts", "strict_verdicts.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("strict_verdicts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


strict_verdicts = _load_script()


def record(index, verdict="pass", lhs=0.5):
    return {"job": "check:fake", "index": index, "case": f"case {index}", "lhs": lhs,
            "rhs": 1.0, "verdict": verdict}


def verdicts_file(tmp_path, records, summary=None, name="verdicts.json"):
    """A verdicts.json of ``records``, its summary counted from them unless given;
    a NaN or an infinity is written as Python's json writes it by default."""
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in records:
        counts[r["verdict"]] += 1
    path = tmp_path / name
    path.write_text(json.dumps({"summary": summary or counts, "verdicts": records}))
    return path


def test_a_passing_file_has_no_fault(tmp_path):
    assert strict_verdicts.faults(verdicts_file(tmp_path, [record(0), record(1)])) == []


@pytest.mark.parametrize("value, constant", [(math.nan, "NaN"), (math.inf, "Infinity")])
def test_a_non_finite_number_is_refused(tmp_path, value, constant):
    path = verdicts_file(tmp_path, [record(0), record(1, lhs=value)])
    assert constant in path.read_text()
    assert strict_verdicts.faults(path) == [f"non-finite number {constant}"]


def test_a_failed_record_under_a_clean_summary_is_refused(tmp_path):
    clean = {"pass": 2, "fail": 0, "inconclusive": 0}
    path = verdicts_file(tmp_path, [record(0), record(1, "fail")], summary=clean)
    assert strict_verdicts.faults(path) == ["check:fake record 1 is fail: case 1"]


def test_an_inconclusive_count_in_the_summary_is_refused(tmp_path):
    # the records all pass; the summary alone counts an inconclusive one
    summary = {"pass": 1, "fail": 0, "inconclusive": 1}
    path = verdicts_file(tmp_path, [record(0)], summary=summary)
    assert strict_verdicts.faults(path) == [f"summary {summary}"]


@pytest.mark.parametrize("refused, status", [(False, 0), (True, 1)])
def test_exit_status_names_each_refused_file(tmp_path, refused, status):
    paths = [verdicts_file(tmp_path, [record(0)], name="good.json")]
    if refused:
        paths.append(verdicts_file(tmp_path, [record(0, "inconclusive", lhs=1.5)], name="bad.json"))
    proc = subprocess.run([sys.executable, SCRIPT, *paths], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == status, proc.stderr
    errors = proc.stdout.splitlines()
    assert all(line.startswith(f"::error::{paths[-1]}: ") for line in errors)
    assert len(errors) == (2 if refused else 0)  # the record, and the summary
