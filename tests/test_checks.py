import numpy as np
import pytest

from w2lab.checks import CheckSuiteConfig, _tensor_gh_quadratic
from w2lab.gaussmath import CovarianceSpec, gh_nodes_weights


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
])
def test_check_config_sizes_validated(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        CheckSuiteConfig(**bad)


def test_check_config_floor_accepted():
    cfg = CheckSuiteConfig(sampler_validate_m=10**4, increment_ns=(2,))
    assert cfg.sampler_validate_m == 10**4
