import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from w2lab.gaussmath import CovarianceSpec, DimensionMismatchError
from w2lab.qstats import (
    HypothesisError,
    check_hypothesis,
    conditional_l2_check,
    estimate_q_moments,
    exp_remainder,
    q_abs_bound_rhs,
    q_values,
    r_of_n,
    remainder_difference_batch,
)
from w2lab.samplers import (
    make_lattice_custom,
    make_rademacher_product,
    make_scaled_basis,
)


class TestRofN:
    def test_n2_against_high_precision_oracle(self):
        # 50-digit evaluation of 1/(2(n^2-1)) - log(1 + 1/(n^2-1))/2 at n=2
        with mpmath.workdps(50):
            oracle = mpmath.mpf(1) / 6 - mpmath.log(mpmath.mpf(4) / 3) / 2
        assert r_of_n(2) == pytest.approx(float(oracle), abs=1e-16)
        assert r_of_n(2) == pytest.approx(0.022825630440776203, abs=1e-15)

    def test_bracket(self):
        for n in (2, 3, 7, 50, 10**3, 10**5, 10**7):
            r = r_of_n(n)
            assert 0.0 <= r <= 1.0 / (n * n - 1.0) ** 2

    def test_large_n_vanishes(self):
        assert 0.0 <= r_of_n(10**6) < 1e-12

    def test_large_n_keeps_precision(self):
        # log1p form stays positive and on the order of 1/(4 n^4)
        n = 10**5
        r = r_of_n(n)
        assert r == pytest.approx(0.25 / n**4, rel=1e-3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            r_of_n(1)


class TestComputeQ:
    def test_zero_pair_constant_term(self):
        # Y = Y' = 0, sigma = 1, n = 2: Q_1 = 1/6 - r(2) = log(4/3)/2
        q = q_values(np.zeros(1), np.zeros(1), CovarianceSpec([1.0]), 2)
        assert q.shape == (1,)
        assert q[0] == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-15)
        assert q[0] == pytest.approx(0.1438410, abs=5e-8)

    def test_symmetric_pair_example(self):
        # n=2, sigma=1, Y=Y'=1/sqrt(2): numerator (4 - 1 - 1 + 1) = 3, so
        # Q = 3/6 - r(2) = 1/2 - r(2), re-derived independently
        y = np.array([1.0 / math.sqrt(2.0)])
        q = q_values(y, y, CovarianceSpec([1.0]), 2)
        expect = 0.5 - (1.0 / 6.0 - 0.5 * math.log(4.0 / 3.0))
        assert q[0] == pytest.approx(expect, abs=1e-15)
        assert q[0] == pytest.approx(0.4771744, abs=5e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            q_values(np.zeros(2), np.zeros(2), CovarianceSpec([1.0]), 5)

    def test_abs_bounds_on_admissible_pairs(self, rng):
        s = make_scaled_basis(2, math.sqrt(2.0))
        n = 20
        check_hypothesis(n, s.bound, s.cov)
        y = s.draw(rng, size=5000) / math.sqrt(n)
        yp = s.draw(rng, size=5000) / math.sqrt(n)
        qa = q_values(y, yp, s.cov, n)
        assert np.all(np.abs(qa) <= q_abs_bound_rhs(y, yp, s.cov, n) + 1e-12)
        totals = qa.sum(axis=1)
        assert np.all(np.abs(totals) <= 1.0 + 1e-12)
        assert np.all(np.abs(totals[:, None] - qa) <= 1.0 + 1e-12)


class TestMoments:
    def test_exact_mean_identity_by_hand(self):
        # d=1, X = +-1, n=10: enumerate the four equally likely sign pairs
        s = make_rademacher_product(1, 1.0)
        n = 10
        rep = estimate_q_moments(s, n)
        vals = []
        for a in (-1.0, 1.0):
            for b in (-1.0, 1.0):
                y, yp = a / math.sqrt(n), b / math.sqrt(n)
                num = 2 * n * n * y * yp - n * y * y - n * yp * yp + 1.0
                vals.append(num / (2.0 * (n * n - 1.0)) - r_of_n(n))
        oracle = sum(vals) / 4.0
        assert rep.e_qi[0] == pytest.approx(oracle, abs=1e-15)
        assert rep.e_qi[0] == pytest.approx(-1.0 / 198.0 - r_of_n(10), abs=1e-12)

    def test_exact_bounds_pass(self):
        # the five rules of the Q-moment lemma at k = 1, n = 10, with the mean
        # identity's and the cross moment's rounding allowances
        rep = estimate_q_moments(make_rademacher_product(1, 1.0), 10)
        n, n2m1 = 10, 99.0
        assert abs(rep.e_qi[0] - (-1.0 / (2.0 * n2m1) - r_of_n(n))) <= 1e-12
        # X = +-1: E Y^4 = 1/n^2
        assert rep.e_yi2yj2[0, 0] == pytest.approx(1.0 / n**2, rel=1e-15)
        cross = n * n / n2m1**2 + n * n * rep.e_yi2yj2[0, 0] / (2.0 * n2m1**2) + 1.0 / (2.0 * n2m1**2)
        assert rep.e_qiqj[0, 0] <= cross + 1e-15
        assert rep.e_qiqj[0, 0] <= (2.0 * n * n + n + 1.0) / (2.0 * n2m1**2)
        assert rep.e_qmqi_qi[0] <= n / (2.0 * n2m1**2)
        assert rep.e_q2 <= 2.0 / 99.0

    def test_exact_moments_match_pair_loop(self):
        # every support pair visited explicitly, weights p_a p_b
        s = make_lattice_custom(
            np.array([[-1.0, -2.0], [-1.0, 2.0], [1.0, -2.0], [1.0, 2.0]]),
            np.full(4, 0.25))
        n = 30
        rep = estimate_q_moments(s, n)
        e_qiqj = np.zeros((2, 2))
        e_q2 = 0.0
        e_cross = np.zeros(2)
        for ya, pa in zip(s.outcomes, s.probs):
            for yb, pb in zip(s.outcomes, s.probs):
                q = q_values(ya / math.sqrt(n), yb / math.sqrt(n), s.cov, n)
                e_qiqj += pa * pb * np.outer(q, q)
                e_q2 += pa * pb * q.sum() ** 2
                e_cross += pa * pb * (q.sum() - q) * q
        np.testing.assert_allclose(rep.e_qiqj, e_qiqj, rtol=0, atol=1e-16)
        assert rep.e_q2 == pytest.approx(e_q2, abs=1e-16)
        np.testing.assert_allclose(rep.e_qmqi_qi, e_cross, rtol=0, atol=1e-16)

    def test_hypothesis_violation_named(self):
        s = make_scaled_basis(2, math.sqrt(2.0))  # threshold n >= 10
        with pytest.raises(HypothesisError, match="5\\*beta\\^2/sigma_min\\^2"):
            estimate_q_moments(s, 9)


class TestConditionalL2:
    def test_constant_equality(self):
        res = conditional_l2_check(np.full((3, 5), 2.0), np.full(3, 1 / 3),
                                   np.full(5, 0.2))
        assert res["lhs"] == pytest.approx(res["rhs"])
        assert res["rhs"] - res["lhs"] <= 1e-12

    def test_rank_one_tables(self, rng):
        for _ in range(50):
            na, nb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            g = rng.normal(size=na)
            h = rng.normal(size=nb)
            res = conditional_l2_check(np.outer(g, h), rng.dirichlet(np.ones(na)),
                                       rng.dirichlet(np.ones(nb)))
            assert res["rhs"] - res["lhs"] <= 1e-12

    def test_random_suite(self, rng):
        for _ in range(1000):
            na, nb = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            f = rng.normal(size=(na, nb)) * rng.uniform(0.5, 3.0)
            res = conditional_l2_check(f, rng.dirichlet(np.ones(na)),
                                       rng.dirichlet(np.ones(nb)))
            assert res["rhs"] - res["lhs"] <= 1e-12

    def test_invalid_probabilities(self):
        f = np.ones((2, 2))
        with pytest.raises(ValueError):
            conditional_l2_check(f, np.array([0.6, 0.6]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            conditional_l2_check(f, np.array([-0.5, 1.5]), np.array([0.5, 0.5]))

    @staticmethod
    def _padded_stack(rng, count=200, side=8):
        """Random tables in side x side slots: f is drawn everywhere, mass only
        on each table's own (na, nb) corner."""
        sizes = rng.integers(1, side + 1, size=(count, 2))
        f = rng.normal(size=(count, side, side)) * rng.uniform(0.2, 5.0, size=(count, 1, 1))
        p_a, p_b = np.zeros((count, side)), np.zeros((count, side))
        for t, (na, nb) in enumerate(sizes):
            p_a[t, :na] = rng.dirichlet(np.ones(na))
            p_b[t, :nb] = rng.dirichlet(np.ones(nb))
        return sizes, f, p_a, p_b

    def test_stack_equals_per_table_calls_exactly(self, rng):
        # zero-mass padding adds nothing: each stacked side is bitwise the
        # side of the table's own unpadded call
        sizes, f, p_a, p_b = self._padded_stack(rng)
        res = conditional_l2_check(f, p_a, p_b)
        assert res["lhs"].shape == res["rhs"].shape == (len(sizes),)
        for t, (na, nb) in enumerate(sizes):
            one = conditional_l2_check(f[t, :na, :nb], p_a[t, :na], p_b[t, :nb])
            assert (res["lhs"][t], res["rhs"][t]) == (one["lhs"], one["rhs"])
            padded = conditional_l2_check(f[t], p_a[t], p_b[t])
            assert (res["lhs"][t], res["rhs"][t]) == (padded["lhs"], padded["rhs"])
        # more leading axes stack the same way
        grid = conditional_l2_check(f.reshape(20, 10, 8, 8), p_a.reshape(20, 10, 8),
                                    p_b.reshape(20, 10, 8))
        assert np.array_equal(grid["lhs"].ravel(), res["lhs"])
        assert np.array_equal(grid["rhs"].ravel(), res["rhs"])

    @pytest.mark.parametrize("name", ["p_a", "p_b"])
    @pytest.mark.parametrize("bad", [np.array([0.6, 0.6, 0, 0, 0, 0, 0, 0]),
                                     np.array([-0.5, 1.5, 0, 0, 0, 0, 0, 0])],
                             ids=["mass-1.2", "negative"])
    def test_stack_with_one_bad_law_names_it(self, rng, name, bad):
        _, f, p_a, p_b = self._padded_stack(rng, count=12)
        laws = {"p_a": p_a.reshape(3, 4, 8), "p_b": p_b.reshape(3, 4, 8)}
        laws[name][2, 1] = bad
        with pytest.raises(ValueError, match=rf"^{name} row \(2, 1\) must be finite, nonnegative and sum to 1"):
            conditional_l2_check(f.reshape(3, 4, 8, 8), laws["p_a"], laws["p_b"])

    def test_stack_law_shapes_must_match_the_tables(self, rng):
        _, f, p_a, p_b = self._padded_stack(rng, count=4)
        with pytest.raises(ValueError, match=r"^p_a has shape \(4, 7\), expected \(4, 8\)$"):
            conditional_l2_check(f, p_a[:, :7], p_b)
        with pytest.raises(ValueError, match=r"^p_b has shape \(8,\), expected \(4, 8\)$"):
            conditional_l2_check(f, p_a, p_b[0])


class TestRemainder:
    def test_equal_arguments(self):
        lhs, rhs = remainder_difference_batch(0.3, 0.3)
        assert lhs == 0.0
        assert lhs <= rhs + 1e-12

    def test_endpoint_example(self):
        lhs, rhs = remainder_difference_batch(1.0, 0.0)
        assert lhs == pytest.approx(math.e - 2.5, abs=1e-12)
        assert rhs == pytest.approx(2.5)
        assert lhs <= rhs + 1e-12

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            remainder_difference_batch(1.5, 0.0)

    def test_nan_rejected(self):
        # NaN lies in no square: it is refused, not carried into (nan, nan)
        for a, b in ((math.nan, 0.0), (0.0, math.nan), ([0.5, math.nan], [0.0, 0.0])):
            with pytest.raises(ValueError, match=r"only on \[-1, 1\]"):
                remainder_difference_batch(a, b)

    def test_random_sweep(self, rng):
        a = rng.uniform(-1, 1, size=10**5)
        b = rng.uniform(-1, 1, size=10**5)
        lhs, rhs = remainder_difference_batch(a, b)
        assert float(np.max(lhs - rhs)) <= 1e-12

    @given(st.floats(-1, 1), st.floats(-1, 1))
    def test_property(self, a, b):
        lhs, rhs = remainder_difference_batch(a, b)
        assert lhs <= rhs + 1e-12

    def test_remainder_series(self):
        # R(t) should match the tail sum_{m>=3} t^m/m!
        for t in (-0.9, -0.2, 0.4, 1.0):
            tail = sum(t**m / math.factorial(m) for m in range(3, 40))
            assert exp_remainder(t) == pytest.approx(tail, abs=1e-14)

