import math
from dataclasses import replace

import numpy as np
import pytest

from w2lab import checks
from w2lab.checks import CheckSuiteConfig, _tensor_gh_quadratic
from w2lab.densities import ChainGrid
from w2lab.gaussmath import CovarianceSpec, gh_nodes_weights
from w2lab.qstats import estimate_q_moments
from w2lab.samplers import SE_FACTOR, make_rademacher_product, make_scaled_basis
from w2lab.seeding import rng_for


def _outer_tensor_sum(a, b, v, cov, nodes=200):
    """The tensor rule summed over the explicit nodes**k grid."""
    x1, w1 = gh_nodes_weights(nodes)
    total = np.zeros(())
    for i in range(cov.dim):
        z = x1 * cov.sigmas[i]
        e = a * z**2 / cov.variances[i] + b * v[i] * z / cov.variances[i] + np.log(w1)
        total = np.add.outer(total, e)
    return float(np.exp(total).sum())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_factored_quadrature_matches_outer_tensor(rng, k):
    for _ in range(5):
        cov = CovarianceSpec(rng.uniform(0.5, 2.0, size=k))
        a = float(rng.uniform(-1.0, 0.4))
        b = float(rng.uniform(-1.0, 1.0))
        v = rng.uniform(-1.0, 1.0, size=k) * cov.sigmas
        explicit = _outer_tensor_sum(a, b, v, cov)
        assert _tensor_gh_quadratic(a, b, v, cov) == pytest.approx(explicit, rel=1e-13)


@pytest.mark.parametrize("bad", [
    {"gauss_quad_instances": 0}, {"ot_instances": 0}, {"quantile_instances": 0},
    {"metric_triples": 0}, {"q_random_pairs": 0}, {"q_mc_pairs": 0},
    {"l2_tables": 0}, {"remainder_pairs": 0}, {"increment_m": 0},
    {"schedule_n_max": 0}, {"sampler_validate_m": 9999},
    {"increment_ns": ()}, {"increment_ns": (20, 1)},
    {"chain_grid_2d": 0}, {"chain_radius": 0.0}, {"chain_radius": -1.0},
    {"chain_radius": math.inf}, {"chain_radius": math.nan},
    {"chain_refine": 1.0}, {"chain_refine": 0.5}, {"chain_refine": math.inf},
    {"chain_refine": 100.0}, {"chain_grid_2d": 80},
])
def test_check_config_sizes_validated(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        CheckSuiteConfig(**bad)


def test_check_config_floor_accepted():
    cfg = CheckSuiteConfig(sampler_validate_m=10**4, increment_ns=(2,))
    assert cfg.sampler_validate_m == 10**4
    # a 70 x 70 fine chain grid is 4900 atoms, inside the 5000-atom cap
    cfg = CheckSuiteConfig(chain_grid_2d=50, chain_refine=1.4)
    assert ChainGrid(cfg.chain_grid_2d, cfg.chain_refine).resolutions(2)[1] == 70


@pytest.mark.parametrize("lhs,rhs,verdict", [
    (1.0, 2.0, "pass"), (2.0, 2.0, "pass"), (2.0, 1.0, "fail"),
    (math.nan, 1.0, "fail"), (0.0, math.nan, "fail"), (-math.inf, 0.0, "pass"),
])
def test_verdict_is_lhs_at_most_rhs(lhs, rhs, verdict):
    v = checks.Verdict("case", np.float64(lhs), rhs)
    assert v.verdict == verdict
    assert type(v.lhs) is float and type(v.rhs) is float
    assert checks.Verdict("case", lhs, rhs, inconclusive=True).verdict == "inconclusive"
    if verdict == "pass" and math.isfinite(lhs):
        assert v.margin == rhs - lhs >= 0


def corrupt_cov(s, factor):
    """A copy of ``s`` whose declared standard deviations are scaled by ``factor``."""
    return replace(s, cov=CovarianceSpec(factor * s.cov.sigmas))


def test_wrong_covariance_fails_statistical_validation(monkeypatch):
    bad = corrupt_cov(make_scaled_basis(2, 2.0), 1.5)
    monkeypatch.setattr(checks, "_sampler_zoo", lambda: [bad])
    out = checks.check_sampler_zoo(CheckSuiteConfig(sampler_validate_m=10**4), 3)
    [rec] = [v for v in out if v.case.endswith("statistical validation")]
    assert rec.verdict == "fail"
    assert rec.lhs > rec.rhs == 1.0
    [norm] = [v for v in out if v.case.endswith("hard norm bound")]
    assert norm.verdict == "pass"


def test_q_moments_records_come_from_the_report():
    cfg = CheckSuiteConfig(q_mc_pairs=20000)
    seed = 11
    out = {v.case: v for v in checks.check_q_moments(cfg, seed)}
    rep = estimate_q_moments(make_scaled_basis(2, math.sqrt(2.0)), 20, mode="mc",
                             m=cfg.q_mc_pairs, rng=rng_for(seed, checks._CHECK_JOB, 10))
    worst = max((c.lhs - c.rhs) / (SE_FACTOR * rep.se_scale) for c in rep.checks)
    mc = out["scaled_basis d=2 n=20 MC suite (5 SE slack)"]
    assert mc.lhs == worst
    assert mc.rhs == 1.0
    assert mc.verdict == ("pass" if worst <= 1.0 else "fail")
    exact = estimate_q_moments(make_rademacher_product(1, 1.0), 10, mode="exact")
    mean = out["rademacher_product d=1 n=10 exact mean identity"]
    assert mean.lhs == exact.checks[0].lhs
    assert mean.rhs == 1e-12
