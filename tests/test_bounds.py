import math

import numpy as np
import pytest

from w2lab import transport
from w2lab.bounds import (
    ank_bound_schedule,
    increment_bound,
    increment_bound_check,
    naive_w2_upper,
    rate_envelope,
)
from w2lab.checks import SCHEDULE_CASES
from w2lab.gaussmath import CovarianceSpec, gh_budget, w2_gaussian_diag
from w2lab.qstats import HypothesisError
from w2lab.samplers import make_rademacher_product, make_scaled_basis


class TestIncrement:
    def test_degenerate_matches_closed_form(self):
        cov = CovarianceSpec([1.0])
        n = 25
        w2 = transport.w2_gaussian_mixture_1d([0.0], [1.0], math.sqrt(n - 1), math.sqrt(n))
        exact = w2_gaussian_diag(cov, cov, float(n), float(n - 1))
        assert exact == pytest.approx(math.sqrt(n) - math.sqrt(n - 1), abs=1e-12)
        assert w2 == pytest.approx(exact, abs=1e-12)

    def test_k1_bound_with_margin(self):
        s = make_rademacher_product(1, 2.0)
        chk = increment_bound_check(s, 20)
        assert chk.bound == pytest.approx(0.5)
        assert chk.bound == increment_bound(1, 2.0, 20)
        assert chk.w2 <= 0.5 * chk.bound
        assert chk.w2 <= chk.bound

    def test_is_the_mixture_distance(self):
        # Z_{n-1} + X is the two-atom mixture at +-2, Z_n is N(0, 4n)
        s = make_rademacher_product(1, 2.0)
        chk = increment_bound_check(s, 40)
        expect = transport.w2_gaussian_mixture_1d(
            [-2.0, 2.0], [0.5, 0.5], 2.0 * math.sqrt(39), 2.0 * math.sqrt(40))
        assert chk.w2 == expect

    def test_budget_is_the_half_node_change(self):
        s = make_rademacher_product(1, 2.0)
        chk = increment_bound_check(s, 40)
        coarse = transport.w2_gaussian_mixture_1d(
            [-2.0, 2.0], [0.5, 0.5], 2.0 * math.sqrt(39), 2.0 * math.sqrt(40), nodes=100)
        assert chk.budget == gh_budget(chk.w2, coarse)
        assert chk.budget < 1e-10 * chk.w2

    def test_below_threshold_rejected(self):
        s = make_rademacher_product(1, 2.0)  # needs n >= 5
        with pytest.raises(HypothesisError):
            increment_bound_check(s, 4)

    def test_high_dim_unsupported(self):
        for s in (make_scaled_basis(2, math.sqrt(2.0)), make_rademacher_product(3, 1.0),
                  make_scaled_basis(4, 2.0)):
            with pytest.raises(ValueError, match="needs k = 1"):
                increment_bound_check(s, 40)


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

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="second moments must be nonnegative"):
            naive_w2_upper([math.nan], [1.0], 0, 0.0)
        with pytest.raises(ValueError, match="head_w2 must be nonnegative"):
            naive_w2_upper([1.0], [1.0], 1, math.nan)


class TestSchedule:
    def test_envelope_and_bases(self):
        cov = CovarianceSpec([1.0, 0.5])
        beta = 1.2
        table = ank_bound_schedule(512, cov, beta)
        assert np.all(table[:, 0] == 0.0)
        assert float(np.max(table[1, 1:])) <= 2.0 * beta
        for n in range(1, 513):
            for k in (1, 2):
                assert table[n, k] <= rate_envelope(k, beta, n) + 1e-9

    def test_branch_selection(self):
        cov = CovarianceSpec([1.0, 0.5])
        beta = 1.2
        a = ank_bound_schedule(64, cov, beta)

        def increment(n, k):
            return a[n - 1, k] + 5.0 * math.sqrt(k) * beta / n

        def naive(n, k):
            return math.sqrt(a[n, k - 1] ** 2 + 2.0 * n * cov.variances[k - 1])

        # k=2 column: naive branch while n <= 5 beta^2 / sigma_2^2 = 28.8
        assert a[20, 2] == naive(20, 2) != increment(20, 2)
        assert a[40, 2] == increment(40, 2) != naive(40, 2)
        # k=1 column: increment as soon as n > 7.2
        assert a[8, 1] == increment(8, 1) != naive(8, 1)
        assert a[7, 1] == naive(7, 1) != increment(7, 1)
        assert a[1, 1] == math.sqrt(2.0 * cov.variances[0])

    def test_envelope_of_an_array_is_the_scalar_envelope(self):
        # one log per integer n: np.log differs from math.log on a few n here
        ns = np.arange(1, 200_001)
        for k, beta in ((1, 1.0), (3, 2.5)):
            scalar = np.array([rate_envelope(k, beta, n) for n in range(1, 200_001)])
            assert rate_envelope(k, beta, ns).tobytes() == scalar.tobytes()

    def test_moment_consistency_guard(self):
        # total variance above beta^2 is impossible for a bounded law
        with pytest.raises(ValueError, match="beta"):
            ank_bound_schedule(10, CovarianceSpec([1.0, 1.0]), 1.0)

    def test_monotone_against_finer_sigma(self):
        # equal-variance case reproduces the d-independent envelope shape
        table = ank_bound_schedule(256, CovarianceSpec([1.0]), 1.0)
        # the increment branch certifies the last cell
        assert table[256, 1] == table[255, 1] + 5.0 / 256
        assert table[256, 1] > table[255, 1]

    # the last case's k = 4 column is naive on every row: its squares must
    # round as naive_w2_upper's do
    @pytest.mark.parametrize("sigmas, beta", SCHEDULE_CASES + (([1.3, 0.7, 0.2, 0.05], 3.0),))
    def test_is_the_certified_steps(self, sigmas, beta):
        # the recursion rebuilt from the two certified primitives by a loop over
        # (n, k), bitwise
        cov = CovarianceSpec(sigmas)
        n_max = 4096
        var = cov.variances
        a = np.zeros((n_max + 1, cov.dim + 1))
        for k in range(1, cov.dim + 1):
            a[1, k] = naive_w2_upper(var[:k], var[:k], 0, 0.0)
        for n in range(2, n_max + 1):
            for k in range(1, cov.dim + 1):
                if n > 5.0 * beta**2 / var[k - 1]:
                    a[n, k] = a[n - 1, k] + increment_bound(k, beta, n)
                else:
                    a[n, k] = naive_w2_upper(n * var[:k], n * var[:k], k - 1, a[n, k - 1])
        table = ank_bound_schedule(n_max, cov, beta)
        assert table.tobytes() == a.tobytes()
