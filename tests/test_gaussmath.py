import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import roots_hermite

from w2lab.gaussmath import (
    CovarianceSpec,
    DimensionMismatchError,
    DivergentIntegralError,
    gaussian_exp_quadratic,
    gh_budget,
    gh_grid,
    gh_nodes_weights,
    norm_cdf,
    norm_ppf,
    sample_gaussian,
    w2_gaussian_diag,
)
from w2lab.transport import EmpiricalMeasure, w2_exact


def sigma_lists():
    return st.lists(st.floats(0.1, 5.0), min_size=1, max_size=5)


class TestCovarianceSpec:
    def test_sorted_and_sigma_min(self):
        cov = CovarianceSpec([1.0, 3.0, 2.0])
        assert np.array_equal(cov.sigmas, [3.0, 2.0, 1.0])
        assert cov.sigma_min == 1.0
        assert cov.dim == 3

    def test_permutation_recorded(self):
        cov = CovarianceSpec([1.0, 3.0, 2.0])
        assert np.array_equal(cov.canonicalize([1.0, 3.0, 2.0]), cov.sigmas)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CovarianceSpec([1.0, 0.0])
        with pytest.raises(ValueError):
            CovarianceSpec([-1.0])
        with pytest.raises(ValueError):
            CovarianceSpec([])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CovarianceSpec([1.0, bad])

    def test_head_and_drop(self):
        cov = CovarianceSpec([2.0, 1.0, 0.5])
        assert np.array_equal(cov.head(2).sigmas, [2.0, 1.0])
        assert np.array_equal(cov.drop(1).sigmas, [2.0, 0.5])


class TestSampling:
    def test_seed_determinism(self):
        cov = CovarianceSpec([1.0, 2.0])
        a = sample_gaussian(cov, 100, np.random.default_rng(7), time_scale=1.5)
        b = sample_gaussian(cov, 100, np.random.default_rng(7), time_scale=1.5)
        assert np.array_equal(a, b)

    def test_mean_and_variance(self, rng):
        m = 10**6
        z = sample_gaussian(CovarianceSpec([1.0]), m, rng, time_scale=4.0)
        se_mean = 2.0 / math.sqrt(m)
        assert abs(z.mean()) < 4 * se_mean
        var = float((z**2).mean())
        se_var = float((z**2).std(ddof=1)) / math.sqrt(m)
        assert abs(var - 4.0) < 5 * se_var

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="time_scale"):
            sample_gaussian(CovarianceSpec([1.0]), 10, np.random.default_rng(0),
                            time_scale=0.0)
        with pytest.raises(ValueError):
            sample_gaussian(CovarianceSpec([1.0]), 0, np.random.default_rng(0))


class TestExpQuadratic:
    def test_zero_exponent(self):
        cov = CovarianceSpec([1.3, 0.7])
        assert gaussian_exp_quadratic(0.0, 0.0, np.ones(2), cov) == pytest.approx(1.0)

    def test_k1_sqrt2(self):
        cov = CovarianceSpec([1.0])
        val = gaussian_exp_quadratic(0.25, 0.0, np.zeros(1), cov)
        assert val == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_k1_monte_carlo_oracle(self, rng):
        m = 2 * 10**6
        z = rng.standard_normal(m)
        samp = np.exp(0.25 * z**2)
        mc = float(samp.mean())
        se = float(samp.std(ddof=1)) / math.sqrt(m)
        val = gaussian_exp_quadratic(0.25, 0.0, np.zeros(1), CovarianceSpec([1.0]))
        assert abs(val - mc) < 5 * se

    def test_k2_example(self):
        # Sigma = diag(1, 4), a = -1/2, b = 1, v = (1, 2):
        # exp(2/4) * (1/2) computed independently below
        cov = CovarianceSpec([1.0, 2.0])
        v = cov.canonicalize([1.0, 2.0])
        val = gaussian_exp_quadratic(-0.5, 1.0, v, cov)
        assert val == pytest.approx(0.5 * math.exp(0.5), abs=1e-14)
        assert val == pytest.approx(0.824361, abs=5e-7)

    def test_quadrature_oracle_2d(self, rng):
        x1, w1 = gh_nodes_weights(200)
        for _ in range(10):
            cov = CovarianceSpec(rng.uniform(0.5, 2.0, size=2))
            a = float(rng.uniform(-1.0, 0.4))
            b = float(rng.uniform(-1.0, 1.0))
            v = rng.uniform(-1.0, 1.0, size=2) * cov.sigmas
            z0 = x1 * cov.sigmas[0]
            z1 = x1 * cov.sigmas[1]
            e0 = a * z0**2 / cov.variances[0] + b * v[0] * z0 / cov.variances[0]
            e1 = a * z1**2 / cov.variances[1] + b * v[1] * z1 / cov.variances[1]
            quad = float(np.exp(e0[:, None] + e1[None, :]).T @ w1 @ w1)
            closed = gaussian_exp_quadratic(a, b, v, cov)
            assert closed == pytest.approx(quad, rel=1e-10)

    def test_divergence_guard(self):
        cov = CovarianceSpec([1.0])
        with pytest.raises(DivergentIntegralError):
            gaussian_exp_quadratic(0.5, 0.0, np.zeros(1), cov)

    def test_monotone_in_a(self):
        cov = CovarianceSpec([1.0, 1.0])
        vals = [
            gaussian_exp_quadratic(a, 0.0, np.zeros(2), cov)
            for a in (0.0, 0.2, 0.4, 0.45, 0.49, 0.499)
        ]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_b_zero_depends_only_on_a_and_k(self, rng):
        # with b = 0 the value is (1-2a)^{-k/2} whatever the sigmas and v
        a = 0.3
        vals = set()
        for _ in range(5):
            cov = CovarianceSpec(rng.uniform(0.3, 3.0, size=2))
            v = rng.normal(size=2)
            vals.add(round(gaussian_exp_quadratic(a, 0.0, v, cov), 14))
        assert len(vals) == 1
        assert vals.pop() == pytest.approx((1 - 2 * a) ** -1.0)


class TestW2GaussianDiag:
    def test_identity(self):
        cov = CovarianceSpec([1.0, 2.0])
        assert w2_gaussian_diag(cov, cov) == 0.0

    def test_time_scales(self):
        c = CovarianceSpec([1.0])
        assert w2_gaussian_diag(c, c, 1.0, 4.0) == pytest.approx(1.0)

    @given(sigma_lists(), sigma_lists(), sigma_lists())
    def test_metric(self, s1, s2, s3):
        d = min(len(s1), len(s2), len(s3))
        a, b, c = CovarianceSpec(s1[:d]), CovarianceSpec(s2[:d]), CovarianceSpec(s3[:d])
        ab = w2_gaussian_diag(a, b)
        assert ab == pytest.approx(w2_gaussian_diag(b, a))
        assert w2_gaussian_diag(a, a) == 0.0
        assert ab <= w2_gaussian_diag(a, c) + w2_gaussian_diag(c, b) + 1e-9

    def test_against_empirical_ot(self, rng):
        c1 = CovarianceSpec(rng.uniform(0.6, 1.6, size=2))
        c2 = CovarianceSpec(rng.uniform(0.6, 1.6, size=2))
        closed = w2_gaussian_diag(c1, c2)
        m = 3000
        x = sample_gaussian(c1, m, rng)
        y = sample_gaussian(c2, m, rng)
        emp = math.sqrt(w2_exact(EmpiricalMeasure(x), EmpiricalMeasure(y))[0])
        # empirical bias is positive and ~m^{-1/2}-ish in d=2
        assert emp == pytest.approx(closed, abs=0.15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            w2_gaussian_diag(CovarianceSpec([1.0]), CovarianceSpec([1.0, 1.0]))


def test_gh_grid_second_moment():
    cov = CovarianceSpec([1.5, 0.5])
    pts, wts = gh_grid(cov, nodes=60)
    assert pts.shape == (60 * 60, 2) and wts.shape == (60 * 60,)
    val = float(wts @ (pts**2).sum(axis=1))
    assert val == pytest.approx(1.5**2 + 0.5**2, rel=1e-12)


def test_gh_rule_is_built_once_and_read_only():
    x, w = gh_nodes_weights(40)
    assert gh_nodes_weights(40)[0] is x
    for a in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
    assert float(w @ x**2) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("nodes", [16, 32, 80, 100, 200])
def test_gh_rule_matches_scipy_roots_hermite(nodes):
    # SciPy is an oracle here only: the library builds its rules with numpy
    x, w = gh_nodes_weights(nodes)
    xs, ws = roots_hermite(nodes)
    np.testing.assert_allclose(x, math.sqrt(2.0) * xs, rtol=0, atol=1e-13)
    np.testing.assert_allclose(w, ws / math.sqrt(math.pi), rtol=1e-12, atol=0)
    # E T^{2k} = (2k - 1)!!, exact for 2k <= 2 nodes - 1
    for k in range(1, 11):
        assert float(w @ x ** (2 * k)) == pytest.approx(math.prod(range(1, 2 * k, 2)), rel=1e-14)


def test_gh_budget_is_three_times_the_largest_change():
    assert gh_budget(1.0, 1.0) == 0.0
    assert gh_budget(2.0, 2.5) == 1.5
    assert gh_budget((1.0, -4.0), (1.25, -3.0)) == 3.0


def _rel_errors(got, exact) -> float:
    """The largest |got / exact - 1| over the pairs, exact an mpmath value."""
    return max(float(abs(mpmath.mpf(float(g)) / e - 1)) for g, e in zip(got, exact))


class TestNormalKernels:
    # the lower half's quantiles at 40 digits: Newton on mpmath's Phi from the
    # kernel's own value, three steps past its 16 digits.  The grid spans 1e-300
    # to 1/2, adds subnormals down to the smallest, both ends of the normal range,
    # and AS 241's branch points: |p - 1/2| = 0.425 and r = 5 (p = e^-25)
    P_GRID = np.concatenate([np.logspace(-300, math.log10(0.5), 301)[:-1],
                             [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-307,
                              0.075, np.nextafter(0.075, 0), np.nextafter(0.075, 1),
                              math.exp(-25.0), np.nextafter(math.exp(-25.0), 1), 0.3, 0.4999]])

    def test_ppf_matches_mpmath(self):
        got = norm_ppf(self.P_GRID)
        exact = []
        with mpmath.workdps(40):
            for p, x in zip(self.P_GRID, got):
                p, x = mpmath.mpf(float(p)), mpmath.mpf(float(x))
                for _ in range(3):
                    x -= (mpmath.ncdf(x) - p) / mpmath.npdf(x)
                exact.append(x)
            assert _rel_errors(got, exact) <= 1e-15

    def test_cdf_matches_mpmath(self):
        # both tails and the centre, to 12 standard deviations: rounding x / sqrt 2
        # costs about x^2 ulps, so the bound is 2e-13
        xs = np.concatenate([np.linspace(-12.0, 12.0, 1201), [-11.987, -7.5e-3, 1e-300, 0.7071]])
        with mpmath.workdps(40):
            assert _rel_errors(norm_cdf(xs), [mpmath.ncdf(mpmath.mpf(float(x))) for x in xs]) <= 2e-13

    def test_edges_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = norm_ppf(np.array([0.0, 0.5, 1.0, 1e-300, 0.9]))
            assert ends[0] == -math.inf and ends[1] == 0.0 and ends[2] == math.inf
            assert np.all(np.isfinite(ends[3:]))
            assert norm_ppf(0.0) == -math.inf and norm_ppf(1.0) == math.inf
            assert norm_ppf(0.5) == 0.0 and not math.copysign(1.0, norm_ppf(0.5)) < 0
            assert np.array_equal(norm_cdf(np.array([-math.inf, 0.0, math.inf])), [0.0, 0.5, 1.0])
            assert np.isnan(norm_ppf(math.nan)) and np.isnan(norm_cdf(math.nan))

    def test_symmetry(self):
        # p = k / 2^11 and 1 - p are exact, and so is p - 1/2: the two halves
        # mirror each other bitwise
        p = np.arange(1, 1025) / 2048.0
        assert np.array_equal(norm_ppf(1.0 - p), -norm_ppf(p))
        x = np.linspace(-9.0, 9.0, 721)
        assert np.max(np.abs(norm_cdf(x) + norm_cdf(-x) - 1.0)) <= 2.0**-53
        assert np.max(np.abs(norm_cdf(norm_ppf(p)) / p - 1.0)) <= 1e-14

    def test_shapes_and_scalars(self):
        p = np.full((2, 3), 0.2)
        assert norm_ppf(p).shape == (2, 3) and norm_cdf(p).shape == (2, 3)
        assert norm_ppf(np.empty(0)).shape == (0,) and norm_cdf(np.empty(0)).shape == (0,)
        assert np.ndim(norm_ppf(0.2)) == 0 and np.ndim(norm_cdf(0.2)) == 0
        assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, rel=1e-15)
