import math

import numpy as np
import pytest

from w2lab import bounds, experiments, transport
from w2lab.bounds import (
    ank_bound_schedule,
    increment_bound_check,
    naive_w2_upper,
)
from w2lab.gaussmath import (
    CovarianceSpec,
    GaussianModel,
    sample_gaussian,
    w2_gaussian_diag,
)
from w2lab.qstats import HypothesisError
from w2lab.samplers import make_rademacher_product, make_scaled_basis


class TestIncrement:
    def test_degenerate_matches_closed_form(self, rng):
        cov = CovarianceSpec([1.0])
        n = 25
        chk = increment_bound_check(None, n, 10**5, rng, cov=cov)
        exact = w2_gaussian_diag(cov, cov, float(n), float(n - 1))
        assert exact == pytest.approx(math.sqrt(n) - math.sqrt(n - 1), abs=1e-12)
        assert chk.w2_hat == pytest.approx(exact, abs=0.05)

    def test_k1_bound_with_margin(self, rng):
        s = make_rademacher_product(1, 2.0)
        chk = increment_bound_check(s, 20, 10**5, rng)
        assert chk.bound == pytest.approx(0.5)
        assert chk.w2_hat <= 0.5 * chk.bound
        assert chk.passed

    def test_below_threshold_rejected(self, rng):
        s = make_rademacher_product(1, 2.0)  # needs n >= 5
        with pytest.raises(HypothesisError):
            increment_bound_check(s, 4, 1000, rng)

    def test_k2_exact_path(self, rng):
        # n at the hypothesis minimum keeps the bound large relative to the
        # d=2 empirical bias, which inflates w2_hat at small m
        s = make_scaled_basis(2, math.sqrt(2.0))
        chk = increment_bound_check(s, 10, 3000, rng)
        assert chk.dim == 2
        assert chk.bound == pytest.approx(5.0 * math.sqrt(2.0) * math.sqrt(2.0) / 10)
        assert chk.passed

    @pytest.mark.parametrize("s,n,m", [
        (make_rademacher_product(1, 2.0), 20, 5000),
        (make_scaled_basis(2, math.sqrt(2.0)), 10, 300),
    ])
    def test_estimate_is_the_shared_estimator_rule(self, s, n, m):
        # the experiments' estimator rule, written out: quantile coupling for
        # k = 1, sqrt of the exact assignment cost otherwise
        assert bounds.estimate_w2 is transport.estimate_w2 is experiments.estimate_w2
        chk = increment_bound_check(s, n, m, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        z_n = sample_gaussian(GaussianModel(s.cov, float(n)), m, rng)
        z_prev = sample_gaussian(GaussianModel(s.cov, float(n - 1)), m, rng)
        z_prev += s.draw(rng, size=m)
        if s.dim == 1:
            expect = transport.w2_quantile_1d(z_n[:, 0], z_prev[:, 0])
        else:
            cost, _ = transport.w2_exact(transport.EmpiricalMeasure(z_n),
                                         transport.EmpiricalMeasure(z_prev))
            expect = math.sqrt(cost)
        assert chk.w2_hat == expect

    def test_high_dim_unsupported(self, rng):
        s = make_scaled_basis(4, 2.0)
        with pytest.raises(ValueError, match="k <= 3"):
            increment_bound_check(s, 40, 100, rng)

    def test_exact_cap_enforced(self, rng):
        s = make_scaled_basis(2, math.sqrt(2.0))
        with pytest.raises(ValueError, match="cap"):
            increment_bound_check(s, 20, 10**6, rng)


class TestNaive:
    def test_full_head_unchanged(self):
        assert naive_w2_upper([1.0, 2.0], [1.0, 2.0], 2, 0.7) == pytest.approx(0.7)

    def test_base_case_two_beta(self):
        # matched second moments summing to beta^2 = 1: bound sqrt(2) <= 2
        val = naive_w2_upper([0.5, 0.5], [0.5, 0.5], 0, 0.0)
        assert val == pytest.approx(math.sqrt(2.0))
        assert val <= 2.0

    def test_tail_adds_second_moments(self):
        # d=2, k=1, tails with E X_2^2 = E Y_2^2 = n sigma_2^2 (n=4, sigma_2=1)
        val = naive_w2_upper([1.0, 4.0], [1.0, 4.0], 1, 0.6)
        assert val == pytest.approx(math.sqrt(0.36 + 8.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            naive_w2_upper([1.0], [1.0, 2.0], 0, 0.0)
        with pytest.raises(ValueError):
            naive_w2_upper([1.0], [1.0], 2, 0.0)
        with pytest.raises(ValueError):
            naive_w2_upper([1.0], [1.0], 0, -1.0)
        with pytest.raises(ValueError):
            naive_w2_upper([-1.0], [1.0], 0, 0.0)


class TestSchedule:
    def test_envelope_and_bases(self):
        cov = CovarianceSpec([1.0, 0.5])
        beta = 1.2
        table = ank_bound_schedule(512, cov, beta)
        assert np.all(table.bounds[:, 0] == 0.0)
        assert float(np.max(table.bounds[1, 1:])) <= 2.0 * beta
        for n in range(1, 513):
            for k in (1, 2):
                assert table.bounds[n, k] <= table.envelope(n, k) + 1e-9

    def test_branch_selection(self):
        cov = CovarianceSpec([1.0, 0.5])
        beta = 1.2
        table = ank_bound_schedule(64, cov, beta)
        # k=2 column: naive branch while n <= 5 beta^2 / sigma_2^2 = 28.8
        assert table.entry(20, 2).branch == "naive"
        assert table.entry(40, 2).branch == "increment"
        # k=1 column: increment as soon as n > 7.2
        assert table.entry(8, 1).branch == "increment"
        assert table.entry(1, 1).branch == "base"

    def test_moment_consistency_guard(self):
        # total variance above beta^2 is impossible for a bounded law
        with pytest.raises(ValueError, match="beta"):
            ank_bound_schedule(10, CovarianceSpec([1.0, 1.0]), 1.0)

    def test_monotone_against_finer_sigma(self):
        # equal-variance case reproduces the d-independent envelope shape
        table = ank_bound_schedule(256, CovarianceSpec([1.0]), 1.0)
        assert table.entry(256, 1).branch == "increment"
        assert table.bounds[256, 1] > table.bounds[255, 1]
