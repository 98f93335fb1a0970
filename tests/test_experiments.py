import math

import pytest
from scipy import stats
from scipy.special import ndtr, roots_legendre, stdtrit

from w2lab.experiments import (
    HalfspaceConfig,
    LowerExperimentConfig,
    RateExperimentConfig,
    SamplerSpec,
    _replica_ci,
    bentkus_reference_curve,
    ci_calibration,
    ci_halfspace_experiment,
    clt_rate_experiment,
    estimate_w2,
    expected_lattice_distance,
    halfspace_slack,
    ks_statistic_gaussian,
    lattice_lower_experiment,
    main_rate_bound,
    unit_cell_mean_distance,
)
from w2lab.gaussmath import CovarianceSpec
from w2lab.samplers import LatticeSpec
from w2lab.transport import EmpiricalMeasure, w2_exact, w2_quantile_1d


RADEMACHER_1D = SamplerSpec("rademacher_product", 1, 1.0)


class TestSamplerSpec:
    def test_builds_each_kind(self):
        assert SamplerSpec("rademacher_product", 2, 1.0).build().dim == 2
        assert SamplerSpec("scaled_basis", 3, 1.5).build().bound == 1.5
        assert SamplerSpec("sphere_uniform", 2, 1.0).build().kind == "sphere_uniform"

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

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SamplerSpec("bogus", 1, 1.0).build()


class TestRate:
    def test_small_run_structure(self):
        cfg = RateExperimentConfig(
            sampler=RADEMACHER_1D, n_grid=(16, 64, 256), replicas=3, m=5000,
        )
        rep = clt_rate_experiment(cfg, seed=5, leg=1)
        assert [p.n for p in rep.points] == [16, 64, 256]
        assert all(v <= p.bound for p in rep.points for v in p.replica_values)
        assert rep.fit.slope < 0
        for p in rep.points:
            assert p.ci_lo <= p.w2_hat <= p.ci_hi
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
        a = clt_rate_experiment(cfg, seed=11, leg=1)
        b = clt_rate_experiment(cfg, seed=11, leg=1)
        assert a.points == b.points

    def test_config_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            RateExperimentConfig(sampler=RADEMACHER_1D, n_grid=(16, 16))
        with pytest.raises(ValueError, match="replicas"):
            RateExperimentConfig(sampler=RADEMACHER_1D, replicas=2)
        with pytest.raises(ValueError, match="non-empty"):
            RateExperimentConfig(sampler=RADEMACHER_1D, n_grid=())
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


class TestReplicaCI:
    def test_stdtrit_matches_student_t_ppf(self):
        for df in range(2, 201):
            assert stdtrit(df, 0.975) == stats.t.ppf(0.975, df)

    def test_interval_is_mean_plus_minus_t_half_width(self, rng):
        values = rng.normal(size=7)
        half = stats.t.ppf(0.975, 6) * values.std(ddof=1) / math.sqrt(7)
        lo, hi = _replica_ci(values)
        assert lo == pytest.approx(values.mean() - half, rel=1e-15)
        assert hi == pytest.approx(values.mean() + half, rel=1e-15)


class TestLatticeDistanceExpectation:
    def test_huge_spacing_gives_norm(self, rng):
        # the nearest lattice point is the origin, so E d_L -> E|Z|
        cov = CovarianceSpec([1.0])
        val, se = expected_lattice_distance(cov, LatticeSpec(1e6, 1), 10**5, rng)
        assert val == pytest.approx(math.sqrt(2.0 / math.pi), abs=5 * se + 1e-3)

    def test_small_spacing_1d(self, rng):
        # oracle: 1-d quadrature of E dist(Z, ell Z) for ell << sigma -> ell/4
        ell = 0.01
        cov = CovarianceSpec([1.0])
        val, se = expected_lattice_distance(cov, LatticeSpec(ell, 1), 2 * 10**5, rng)
        x, w = roots_legendre(200)
        # distance to the nearest multiple is periodic; integrate one period
        # against a locally-flat density: mean = ell/4
        assert val == pytest.approx(ell / 4.0, abs=5 * se)

    def test_small_spacing_2d(self, rng):
        ell = 0.02
        cov = CovarianceSpec([1.0, 1.0])
        val, se = expected_lattice_distance(cov, LatticeSpec(ell, 2), 2 * 10**5, rng)
        const = unit_cell_mean_distance(2)
        assert const == pytest.approx(0.3826, abs=2e-4)
        assert val == pytest.approx(const * ell, abs=5 * se)

    def test_unit_cell_constants(self):
        assert unit_cell_mean_distance(1) == pytest.approx(0.25, abs=1e-12)
        # closed form (sqrt(2) + asinh(1)) / 6 for the unit square
        closed = (math.sqrt(2.0) + math.asinh(1.0)) / 6.0
        assert unit_cell_mean_distance(2) == pytest.approx(closed, abs=1e-10)

    def test_requires_many_draws(self, rng):
        with pytest.raises(ValueError):
            expected_lattice_distance(CovarianceSpec([1.0]), LatticeSpec(1.0, 1),
                                      10**4, rng)


class TestLowerExperiment:
    def test_d1_small(self):
        cfg = LowerExperimentConfig(
            sampler=RADEMACHER_1D, n_grid=(256, 1024), m_w2=10**5,
            m_proxy=10**5,
        )
        rep = lattice_lower_experiment(cfg, seed=3, leg=1)
        assert rep.target == pytest.approx(0.25)
        assert rep.plateau_value == pytest.approx(0.25, abs=0.01)
        assert rep.points[-1].sqrtn_w2_hat >= 0.24
        # per-cube diagnostics carry both comparison constants
        p = rep.points[-1]
        assert p.percube_quadrature == pytest.approx(0.25, abs=1e-10)
        assert p.percube_claim_half_sqrtd == pytest.approx(0.5)
        assert p.percube_measured == pytest.approx(0.25, abs=0.005)

    def test_rejects_non_lattice_sampler(self):
        with pytest.raises(ValueError, match="beta\\*Z"):
            LowerExperimentConfig(
                sampler=SamplerSpec("rademacher_product", 2, 1.0),
                n_grid=(64,), m_w2=600, m_proxy=10**5,
            )

    def test_rejects_small_proxy_sample(self):
        with pytest.raises(ValueError, match="m_proxy"):
            LowerExperimentConfig(sampler=RADEMACHER_1D, m_proxy=50000)


class TestHalfspace:
    def test_ks_exact_for_shifted_gaussian(self, rng):
        m = 2 * 10**5
        x = rng.standard_normal(m) + 0.5
        ks = ks_statistic_gaussian(x, 1.0)
        exact = 2.0 * float(ndtr(0.25)) - 1.0
        assert exact == pytest.approx(0.19741265, abs=1e-7)
        assert ks == pytest.approx(exact, abs=0.01)

    def test_matched_sample_small(self, rng):
        ks = ks_statistic_gaussian(rng.standard_normal(10**5), 1.0)
        assert ks < 0.01

    def test_calibration(self, rng):
        res = ci_calibration(10**5, rng)
        assert res.delta_exact == pytest.approx(0.19741265, abs=1e-7)
        assert res.w2 == 0.5
        assert res.rhs == pytest.approx(5.0 * 0.5 ** (2.0 / 3.0))
        assert res.rhs == pytest.approx(3.1498, abs=5e-4)
        assert abs(res.delta_hat - res.delta_exact) < 0.01
        assert res.delta_hat <= res.rhs + halfspace_slack(10**5)

    def test_experiment_small(self):
        cfg = HalfspaceConfig(
            sampler=RADEMACHER_1D, n_grid=(16, 64, 256), m=20000,
            directions=8,
        )
        rep = ci_halfspace_experiment(cfg, seed=9, leg=1)
        assert rep.decay_slope <= -0.25
        for p in rep.points:
            assert p.slack == halfspace_slack(20000)
            assert p.delta_hat <= p.rhs + p.slack

    def test_slack_is_five_binomial_standard_errors(self):
        for m in (1, 20000, 10**5, 123457):
            assert halfspace_slack(m) == 5.0 * 0.5 / math.sqrt(m)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="W2 cloud"):
            HalfspaceConfig(sampler=RADEMACHER_1D, m=0)
        with pytest.raises(ValueError, match="directions"):
            HalfspaceConfig(sampler=RADEMACHER_1D, directions=-1)
        cfg = HalfspaceConfig(sampler=SamplerSpec("scaled_basis", 2, 1.0), w2_m=600)
        assert cfg.w2_cloud == 600
        with pytest.raises(ValueError, match="capped"):
            HalfspaceConfig(sampler=SamplerSpec("scaled_basis", 2, 1.0))
        # an explicit w2_m = 0 is a zero-point cloud, not "unset"
        for sampler in (RADEMACHER_1D, SamplerSpec("scaled_basis", 2, 1.0)):
            with pytest.raises(ValueError, match="W2 cloud, got 0"):
                HalfspaceConfig(sampler=sampler, w2_m=0)

    def test_gaussian_sample_near_zero_delta(self):
        # replacing S_n by Z itself: delta_hat within binomial noise of zero
        cfg = HalfspaceConfig(
            sampler=RADEMACHER_1D, n_grid=(4096,), m=50000, directions=4,
        )
        rep = ci_halfspace_experiment(cfg, seed=21, leg=1)
        assert rep.points[0].delta_hat < 0.03


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
