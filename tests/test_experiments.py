import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

from w2lab.experiments import (
    HalfspaceConfig,
    LowerExperimentConfig,
    RateExperimentConfig,
    SamplerSpec,
    bentkus_reference_curve,
    ci_halfspace_experiment,
    clt_rate_experiment,
    conversion_bound,
    estimate_w2,
    expected_lattice_distance,
    halfspace_distance,
    lattice_lower_experiment,
    main_rate_bound,
    walk_cdf,
)
from w2lab.gaussmath import CovarianceSpec, sample_gaussian
from w2lab.samplers import lattice_distance
from w2lab.transport import EmpiricalMeasure, w2_exact, w2_quantile_1d


RADEMACHER_1D = SamplerSpec("rademacher_product", 1, 1.0)


class TestSamplerSpec:
    def test_builds_each_kind(self):
        assert SamplerSpec("rademacher_product", 2, 1.0).build().dim == 2
        assert SamplerSpec("scaled_basis", 3, 1.5).build().bound == 1.5

    def test_lattice_custom_spec(self):
        spec = SamplerSpec(
            "lattice_custom", 1,
            outcomes=((-1.0,), (2.0,)), probs=(2 / 3, 1 / 3),
        )
        s = spec.build()
        assert s.kind == "lattice_custom"
        assert s.bound == 2.0
        with pytest.raises(ValueError, match="outcomes"):
            SamplerSpec("lattice_custom", 1).build()
        # the outcomes set the scale; any other scale would be silently ignored
        assert replace(spec, scale=1.0).build().bound == 2.0
        for scale in (7.0, 2.0**0.5):
            with pytest.raises(ValueError, match="needs scale = 1"):
                replace(spec, scale=scale).build()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SamplerSpec("bogus", 1, 1.0).build()


class TestRate:
    def test_small_run_structure(self):
        cfg = RateExperimentConfig(
            sampler=RADEMACHER_1D, n_grid=(16, 64, 256), replicas=3, m=5000,
        )
        rep = clt_rate_experiment(cfg, np.random.default_rng(5))
        assert [p.n for p in rep.points] == [16, 64, 256]
        assert all(v <= p.bound for p in rep.points for v in p.replica_values)
        assert rep.fit.slope < 0
        for p in rep.points:
            assert p.bound == pytest.approx(main_rate_bound(1, 1.0, p.n))
            assert len(p.replica_values) == 3

    def test_bound_formula(self):
        assert main_rate_bound(1, 1.0, 16) == pytest.approx(
            5 * (1 + math.log(16)) / 4.0
        )
        assert main_rate_bound(1, 1.0, 16) == pytest.approx(4.7157, abs=5e-4)

    def test_deterministic(self):
        cfg = RateExperimentConfig(
            sampler=RADEMACHER_1D, n_grid=(16, 64), replicas=3, m=2000,
        )
        a = clt_rate_experiment(cfg, np.random.default_rng(11))
        b = clt_rate_experiment(cfg, np.random.default_rng(11))
        assert a.points == b.points

    def test_config_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            RateExperimentConfig(sampler=RADEMACHER_1D, n_grid=(16, 16))
        with pytest.raises(ValueError, match=r"need replicas >= 1, got 0"):
            RateExperimentConfig(sampler=RADEMACHER_1D, replicas=0)
        with pytest.raises(ValueError, match="non-empty"):
            RateExperimentConfig(sampler=RADEMACHER_1D, n_grid=())
        # one point fits no slope: lstsq's minimum-norm answer would read as one
        with pytest.raises(ValueError, match=r"n_grid must hold at least 2 values"):
            RateExperimentConfig(sampler=RADEMACHER_1D, n_grid=(64,))
        with pytest.raises(ValueError, match="W2 cloud"):
            RateExperimentConfig(sampler=RADEMACHER_1D, m=0)

    def test_estimator_follows_dimension(self):
        assert RateExperimentConfig(sampler=RADEMACHER_1D).estimator == "quantile_1d"
        cfg = RateExperimentConfig(sampler=SamplerSpec("scaled_basis", 2, 1.0), m=5000)
        assert cfg.estimator == "exact"

    def test_exact_cap_rejected_at_construction(self):
        with pytest.raises(ValueError, match="capped at 5000"):
            RateExperimentConfig(sampler=SamplerSpec("scaled_basis", 2, 1.0), m=6000)

    def test_zero_variance_rejected_upstream(self):
        with pytest.raises(ValueError):
            SamplerSpec("rademacher_product", 1, 0.0).build()


def _lattice_sq_distance_oracle(sigma: float, ell: float) -> float:
    """mpmath quadrature of int dist(z, ell Z)^2 phi_sigma(z) dz, cell by cell to 14 sigma."""
    with mpmath.workdps(20):
        sigma, ell = mpmath.mpf(sigma), mpmath.mpf(ell)
        k_max = int(14 * sigma / ell) + 1
        total = mpmath.mpf(0)
        for k in range(-k_max, k_max + 1):
            t = k * ell
            total += mpmath.quad(lambda z: (z - t) ** 2 * mpmath.npdf(z, 0, sigma),
                                 [t - ell / 2, t + ell / 2])
        return float(total)


class TestLatticeFloor:
    @pytest.mark.parametrize("sigma,ell", [(0.7, 0.05), (2.0, 0.3), (1.0, 1.0), (1.0, 3.0)])
    def test_matches_quadrature(self, sigma, ell):
        # ell below, near and above sigma
        floor = expected_lattice_distance(CovarianceSpec([sigma]), ell)
        assert floor**2 == pytest.approx(_lattice_sq_distance_oracle(sigma, ell), rel=1e-10)

    def test_sums_the_coordinates(self):
        cov = CovarianceSpec([2.0, 1.0, 0.7])
        floor = expected_lattice_distance(cov, 1.5)
        oracle = sum(_lattice_sq_distance_oracle(sd, 1.5) for sd in (2.0, 1.0, 0.7))
        assert floor**2 == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_huge_spacing_gives_sigma(self, sigma):
        # the nearest lattice point is the origin, so E d_L(Z)^2 = E Z^2
        assert expected_lattice_distance(CovarianceSpec([sigma]), 1e6) == sigma

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_small_spacing_limit(self, d):
        # spacing ell = beta / sqrt(n) against sigma = beta / sqrt(d): each
        # coordinate's squared distance tends to ell^2 / 12
        beta, n = 1.5, 4096
        cov = CovarianceSpec([beta / math.sqrt(d)] * d)
        floor = expected_lattice_distance(cov, beta / math.sqrt(n))
        assert abs(math.sqrt(n) * floor - beta * math.sqrt(d / 12)) <= 1e-9
        assert beta * math.sqrt(d / 12) > math.sqrt(d) * beta / 4

    def test_matches_monte_carlo_of_the_lattice_distance(self, rng):
        cov = CovarianceSpec([1.0, 0.5])
        sq = lattice_distance(sample_gaussian(cov, 2 * 10**5, rng), 0.8) ** 2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - expected_lattice_distance(cov, 0.8) ** 2) <= 5 * se


class TestLowerExperiment:
    def test_d1_small(self):
        cfg = LowerExperimentConfig(sampler=RADEMACHER_1D, n_grid=(256, 1024), m_w2=10**5)
        rep = lattice_lower_experiment(cfg, np.random.default_rng(3))
        assert rep.target == pytest.approx(0.25)
        assert rep.points[-1].sqrtn_w2_hat >= 0.24
        for p in rep.points:
            assert p.ell_n == 1.0 / math.sqrt(p.n)
            assert abs(p.sqrtn_floor - math.sqrt(1 / 12)) <= 1e-9
            assert p.sqrtn_bound == pytest.approx(math.sqrt(p.n) * main_rate_bound(1, 1.0, p.n))
            assert rep.target < p.sqrtn_floor < p.sqrtn_bound

    def test_one_point_grid_accepted(self):
        # the lower leg fits no slope
        cfg = LowerExperimentConfig(sampler=RADEMACHER_1D, n_grid=(64,), m_w2=100)
        assert cfg.n_grid == (64,)

    def test_rejects_non_lattice_sampler(self):
        with pytest.raises(ValueError, match="beta\\*Z"):
            LowerExperimentConfig(
                sampler=SamplerSpec("rademacher_product", 2, 1.0),
                n_grid=(64,), m_w2=600,
            )


def _convolved_law(outcomes, probs, n):
    """The exact law of X_1 + ... + X_n as {lattice point: mass}, one convolution per term."""
    law = {(0,) * outcomes.shape[1]: 1.0}
    for _ in range(n):
        step = {}
        for point, mass in law.items():
            for x, p in zip(outcomes, probs):
                key = tuple(int(a + b) for a, b in zip(point, x))
                step[key] = step.get(key, 0.0) + mass * p
        law = step
    return law


class TestHalfspace:
    def test_walk_cdf_matches_mpmath_binomial(self):
        n = 4096
        with mpmath.workdps(40):
            pmf = [mpmath.binomial(n, j) / mpmath.mpf(2) ** n for j in range(n + 1)]
            cdf = np.array([float(c) for c in np.cumsum(pmf)])
        k = np.arange(-n, n + 1)
        assert np.max(np.abs(walk_cdf((0.5, 0.0, 0.5), n) - cdf[(k + n) // 2])) <= 1e-13

    def test_zero_atom_law_in_d2_matches_brute_force(self):
        # a zero atom, unequal masses, the larger variance on the second axis
        outcomes = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
        probs = np.array([0.3, 0.1, 0.1, 0.25, 0.25])
        s = SamplerSpec("lattice_custom", 2, outcomes=tuple(map(tuple, outcomes.astype(float))),
                        probs=tuple(probs)).build()
        sd2 = probs @ outcomes**2
        for n in (1, 3, 8):
            law = _convolved_law(outcomes, probs, n)
            points = np.array(list(law), dtype=float) / math.sqrt(n)
            mass = np.array(list(law.values()))
            brute = 0.0
            for a in ([1, 0], [0, 1], [1, 1], [1, -1]):
                proj = points @ a
                sd = math.sqrt(sd2 @ np.square(a))
                for t in np.unique(proj):
                    g = ndtr(t / sd)
                    brute = max(brute, abs(mass[proj <= t + 1e-12].sum() - g),
                                abs(mass[proj < t - 1e-12].sum() - g))
            assert halfspace_distance(s, n) == pytest.approx(brute, abs=1e-14)

    def test_rademacher_sup_is_half_the_central_atom(self):
        s = RADEMACHER_1D.build()
        for n in (16, 256, 4096):
            half_atom = math.comb(n, n // 2) / 2**n / 2
            assert halfspace_distance(s, n) == pytest.approx(half_atom, abs=1e-14)

    def test_needs_lattice_support(self):
        with pytest.raises(ValueError, match="beta\\*Z\\^d"):
            halfspace_distance(SamplerSpec("rademacher_product", 2, 1.0).build(), 16)

    def test_experiment_small(self):
        cfg = HalfspaceConfig(sampler=RADEMACHER_1D, n_grid=(16, 64, 256), w2_m=20000)
        rep = ci_halfspace_experiment(cfg, np.random.default_rng(9))
        assert rep.decay_slope == pytest.approx(-0.5, abs=0.01)
        for p in rep.points:
            assert p.delta <= p.conversion_rhs
            # the bound is evaluated at the exact lattice floor, never at the estimate
            assert p.floor == expected_lattice_distance(CovarianceSpec([1.0]), 1.0 / math.sqrt(p.n))
            assert p.conversion_rhs == conversion_bound(1, p.floor)
            assert p.floor < p.w2_hat

    def test_delta_draws_nothing(self):
        cfg = HalfspaceConfig(sampler=SamplerSpec("scaled_basis", 2, 2.0**0.5),
                              n_grid=(16, 64), w2_m=200)
        a, b = (ci_halfspace_experiment(cfg, np.random.default_rng(seed)) for seed in (1, 2))
        assert [p.delta for p in a.points] == [p.delta for p in b.points]
        assert [p.w2_hat for p in a.points] != [p.w2_hat for p in b.points]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="W2 cloud, got 0"):
            HalfspaceConfig(sampler=RADEMACHER_1D, w2_m=0)
        with pytest.raises(ValueError, match=r"n_grid must hold at least 2 values"):
            HalfspaceConfig(sampler=RADEMACHER_1D, n_grid=(64,))
        assert HalfspaceConfig(sampler=SamplerSpec("scaled_basis", 2, 1.0), w2_m=600).w2_m == 600
        with pytest.raises(ValueError, match="capped"):
            HalfspaceConfig(sampler=SamplerSpec("scaled_basis", 2, 1.0))


class TestBentkus:
    def test_pinned_value(self):
        assert bentkus_reference_curve(1, 100, 1.0) == pytest.approx(0.1)

    def test_sqrt_d_normalization_shape(self):
        # beta_3 = sqrt(d) gives the d^{7/4}/sqrt(n) profile
        d, n = 9, 400
        val = bentkus_reference_curve(d, n, math.sqrt(d))
        assert val == pytest.approx(d ** 1.75 / math.sqrt(n))

    def test_monotone_in_n(self):
        vals = [bentkus_reference_curve(2, n, 1.0) for n in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]


class TestEstimatorDispatch:
    def test_one_dimensional_clouds_use_the_quantile_coupling(self, rng):
        sn = rng.normal(size=(200, 1))
        z = rng.normal(size=(200, 1))
        assert estimate_w2(sn, z) == w2_quantile_1d(sn[:, 0], z[:, 0])

    def test_higher_dimensional_clouds_use_exact_assignment(self, rng):
        sn = rng.normal(size=(80, 2))
        z = rng.normal(size=(80, 2))
        cost, _ = w2_exact(EmpiricalMeasure(sn), EmpiricalMeasure(z))
        assert estimate_w2(sn, z) == math.sqrt(cost)
