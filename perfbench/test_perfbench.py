"""Tests of the benchmark's own tracing (not part of the program's suite).

    python3 -m pytest -q perfbench
"""

import os
import sys

import run
import tracing

sys.path.insert(0, run.SRC)

from w2lab import bounds, checks, densities, experiments, transport  # noqa: E402
from w2lab.config import load_settings  # noqa: E402


def test_install_wraps_every_binding():
    originals = {
        "w2_exact": transport.w2_exact,
        "w2_discrete_lp": transport.w2_discrete_lp,
        "w2_atomic_1d": transport.w2_atomic_1d,
        "f": densities.DensityRatioModel.__dict__["f"],
    }
    restore, missing = tracing.install(tracing.Tracer())
    try:
        assert missing == []
        wrapped = transport.w2_exact
        assert wrapped.__wrapped__ is originals["w2_exact"]
        assert experiments.w2_exact is wrapped and bounds.w2_exact is wrapped
        assert densities.w2_discrete_lp is transport.w2_discrete_lp
        assert densities.w2_discrete_lp.__wrapped__ is originals["w2_discrete_lp"]
        assert densities.w2_atomic_1d.__wrapped__ is originals["w2_atomic_1d"]
        method = densities.DensityRatioModel.__dict__["f"]
        assert method.__wrapped__ is originals["f"]
    finally:
        restore()
    assert experiments.w2_exact is originals["w2_exact"]
    assert bounds.w2_exact is originals["w2_exact"]
    assert densities.w2_discrete_lp is originals["w2_discrete_lp"]
    assert densities.DensityRatioModel.__dict__["f"] is originals["f"]


def _counts(result):
    layers = result["record"]["layers"]
    return {k: v for k, v in layers.items() if not k.endswith((".s", ".self_s"))}


def test_traced_counts_repeat_and_match_config():
    smoke = run.WORKLOADS["smoke_all"]
    first, second = (run.run_pass(smoke, 7, 1, f"test-smoke-{i}", trace=True)
                     for i in range(2))
    assert first["exit"] == 0 and second["exit"] == 0
    assert _counts(first) == _counts(second)
    # the chain solves one LP per model and grid resolution
    assert _counts(first)["transport.w2_discrete_lp.calls"] == 2 * len(checks.chain_models_2d())

    exact = run.WORKLOADS["experiments_exact"]
    result = run.run_pass(exact, 7, 1, "test-exact", trace=True)
    assert result["exit"] == 0
    counts = _counts(result)
    settings = load_settings(path=os.path.join(run.ROOT, exact.config))
    solves = 0
    for cfg, per_n in ((settings.rate_d2, settings.rate_d2.replicas),
                       (settings.lower_d2, 1), (settings.ci_d2, 1)):
        assert cfg.estimator == "exact" and cfg.sampler.dim == 2
        solves += len(cfg.n_grid) * per_n
    assert counts["transport.w2_exact.calls"] == solves
    assert counts.get("transport.w2_discrete_lp.calls", 0) == 0
