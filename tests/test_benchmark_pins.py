"""The benchmark's traced pass finds every function it pins.

``perfbench/tracing.py`` wraps a fixed list of w2lab functions and methods
and fails the traced benchmark run on any it cannot find, so a rename or a
deletion of a pinned name fails here first.
"""

import importlib.util
import os

from w2lab import cli

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracing = _load_tracing()
    original = cli.run_job
    restore, missing = tracing.install(tracing.Tracer())
    try:
        assert missing == []
        assert cli.run_job is not original
    finally:
        restore()
    assert cli.run_job is original
