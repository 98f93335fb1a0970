import inspect
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

from w2lab import experiments
from w2lab.config import RunSettings
from w2lab.experiments import (
    WALK_SPAN_CAP,
    HalfspaceConfig,
    LatticeWalk,
    LowerExperimentConfig,
    RateExperimentConfig,
    SamplerSpec,
    _lattice_sq_distance_1d,
    bentkus_reference_curve,
    ci_halfspace_experiment,
    clt_rate_experiment,
    conversion_bound,
    exact_w2_of_sum,
    expected_lattice_distance,
    halfspace_distance,
    lattice_factors,
    lattice_lower_experiment,
    main_rate_bound,
    walk_gap,
    walk_pmf,
)
from w2lab.gaussmath import CovarianceSpec, sample_gaussian
from w2lab.samplers import lattice_distance, make_rademacher_product, make_scaled_basis
from w2lab.transport import (
    EmpiricalMeasure,
    estimate_w2,
    w2_atoms_gaussian_1d,
    w2_exact,
    w2_quantile_1d,
)


RADEMACHER_1D = SamplerSpec("rademacher_product", 1, 1.0)
# a 1-d law on no lattice (its points -1, 0, sqrt 2 lie 1 and sqrt 2 apart): no exact law
IRRATIONAL_1D = SamplerSpec(
    "lattice_custom", 1, outcomes=((-1.0,), (0.0,), (2.0**0.5,)),
    probs=(0.2 * 2.0**0.5, 0.8 - 0.2 * 2.0**0.5, 0.2),
)


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
    def test_exact_law_run_structure(self):
        # one exact value per n
        cfg = RateExperimentConfig(sampler=RADEMACHER_1D, n_grid=(16, 64, 256))
        rep = clt_rate_experiment(cfg)
        factors = lattice_factors(cfg.sampler.build())
        assert [p.n for p in rep.points] == [16, 64, 256]
        for p in rep.points:
            assert p.w2_hat == exact_w2_of_sum(factors, p.n)
            assert p.bound == main_rate_bound(1, 1.0, p.n)
            assert p.w2_hat <= p.bound
        assert rep.fit.slope == pytest.approx(-0.5, abs=0.01)

    def test_bound_formula(self):
        assert main_rate_bound(1, 1.0, 16) == pytest.approx(
            5 * (1 + math.log(16)) / 4.0
        )
        assert main_rate_bound(1, 1.0, 16) == pytest.approx(4.7157, abs=5e-4)

    def test_deterministic(self):
        # an equal config, built apart, gives the equal report
        spec = SamplerSpec("scaled_basis", 2, 2.0**0.5)
        a = clt_rate_experiment(RateExperimentConfig(sampler=spec, n_grid=(16, 64)))
        b = clt_rate_experiment(RateExperimentConfig(sampler=replace(spec), n_grid=(16, 64)))
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            RateExperimentConfig(sampler=RADEMACHER_1D, n_grid=(16, 16))
        with pytest.raises(ValueError, match="non-empty"):
            RateExperimentConfig(sampler=RADEMACHER_1D, n_grid=())
        # one point fits no slope: lstsq's minimum-norm answer would read as one
        with pytest.raises(ValueError, match=r"n_grid must hold at least 2 values"):
            RateExperimentConfig(sampler=RADEMACHER_1D, n_grid=(64,))
        # a law without lattice factors has no exact law of S_n, and is rejected by name
        with pytest.raises(ValueError, match=r"^sampler lattice_custom\(dim=1\) has no exact"):
            RateExperimentConfig(sampler=IRRATIONAL_1D)
        with pytest.raises(ValueError, match=r"^sampler scaled_basis\(dim=3\) has no exact law"):
            RateExperimentConfig(sampler=SamplerSpec("scaled_basis", 3, 1.0))

    def test_zero_variance_rejected_upstream(self):
        with pytest.raises(ValueError):
            SamplerSpec("rademacher_product", 1, 0.0).build()

    def test_three_dimensional_product_law(self):
        # a 3-d law that factorises runs on its exact law: W2^2 adds over the
        # three Rademacher coordinates, and every point stays below the bound
        cfg = RateExperimentConfig(sampler=SamplerSpec("rademacher_product", 3, 1.0),
                                   n_grid=(16, 64, 256, 1024))
        rep = clt_rate_experiment(cfg)
        [line] = lattice_factors(RADEMACHER_1D.build())
        s = cfg.sampler.build()
        for p in rep.points:
            assert p.w2_hat == pytest.approx(math.sqrt(3) * line.w2(p.n), rel=1e-14)
            assert p.bound == main_rate_bound(3, s.bound, p.n)
            assert p.w2_hat <= p.bound
        assert rep.fit.slope == pytest.approx(-0.5, abs=0.01)


EXPERIMENTS = {
    "rate": (clt_rate_experiment, RateExperimentConfig),
    "lower": (lattice_lower_experiment, LowerExperimentConfig),
    "ci": (ci_halfspace_experiment, HalfspaceConfig),
}


@pytest.mark.parametrize("experiment,config", EXPERIMENTS.values(), ids=EXPERIMENTS)
def test_an_experiment_takes_its_config_alone(experiment, config):
    # every leg rests on the exact law: it takes no generator, and an equal
    # config, built apart, gives the equal report
    assert list(inspect.signature(experiment).parameters) == ["cfg"]
    cfg = config(sampler=RADEMACHER_1D, n_grid=(16, 64))
    with pytest.raises(TypeError):
        experiment(cfg, np.random.default_rng(0))
    assert experiment(cfg) == experiment(config(sampler=replace(RADEMACHER_1D), n_grid=(16, 64)))


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


def _lattice_sq_distance_poisson(sigma: float, h: float):
    """E dist(Z, h Z)^2 for Z ~ N(0, sigma^2) at 40 digits, by Poisson summation:
    h^2/12 + (h^2/pi^2) sum_k (-1)^k k^-2 exp(-2 pi^2 k^2 sigma^2 / h^2)."""
    with mpmath.workdps(40):
        sigma, h = mpmath.mpf(sigma), mpmath.mpf(h)
        return h**2 / 12 + h**2 / mpmath.pi**2 * mpmath.nsum(
            lambda k: (-1) ** k / k**2 * mpmath.exp(-2 * mpmath.pi**2 * k**2 * sigma**2 / h**2),
            [1, mpmath.inf])


class TestLatticeFloor:
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("ratio", [1 / 64, 0.025, 0.04, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0])
    def test_cell_sum_matches_the_poisson_series(self, sigma, ratio):
        # the cell sum cancels O(h) terms to O(h^3), so fine spacings lose digits
        # to the rounding of Phi: the worst case over this grid measured 4.2e-12
        # with SciPy's ndtr and 9.3e-12 with norm_cdf
        h = ratio * sigma
        exact = _lattice_sq_distance_poisson(sigma, h)
        assert float(abs(_lattice_sq_distance_1d(sigma, h) / exact - 1)) <= 5e-11

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
        cfg = LowerExperimentConfig(sampler=RADEMACHER_1D, n_grid=(256, 1024))
        rep = lattice_lower_experiment(cfg)
        assert rep.target == pytest.approx(0.25)
        assert rep.points[-1].sqrtn_w2_hat >= 0.24
        for p in rep.points:
            assert p.ell_n == 1.0 / math.sqrt(p.n)
            assert abs(p.sqrtn_floor - math.sqrt(1 / 12)) <= 1e-9
            assert p.sqrtn_bound == pytest.approx(math.sqrt(p.n) * main_rate_bound(1, 1.0, p.n))
            assert rep.target < p.sqrtn_floor < p.sqrtn_bound

    def test_one_point_grid_accepted(self):
        # the lower leg fits no slope
        cfg = LowerExperimentConfig(sampler=RADEMACHER_1D, n_grid=(64,))
        assert cfg.n_grid == (64,)

    def test_rejects_non_lattice_sampler(self):
        with pytest.raises(ValueError, match="beta\\*Z"):
            LowerExperimentConfig(
                sampler=SamplerSpec("rademacher_product", 2, 1.0), n_grid=(64,),
            )
        # scaled_basis(3) lies in beta Z^3 but has no exact law of S_n
        with pytest.raises(ValueError, match="has no exact law"):
            LowerExperimentConfig(sampler=SamplerSpec("scaled_basis", 3, 1.0), n_grid=(64,))


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


# the brute-force halfspace laws: outcomes on Z^d, and masses
HALFSPACE_BRUTE_LAWS = {
    # a zero atom, unequal masses, the larger variance on the second axis
    "zero-atom-d2": (((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)), (0.3, 0.1, 0.1, 0.25, 0.25)),
    # laws off {0, +-beta e_i}: rademacher_product(2), and the skewed {-1, 2} law
    "rademacher-d2": (((1, 1), (1, -1), (-1, 1), (-1, -1)), (0.25,) * 4),
    "skewed-d1": (((-1,), (2,)), (2 / 3, 1 / 3)),
}


def _ci_delta_d1_rademacher_oracle(n: int) -> float:
    """The halfspace statistic of the d = 1 Rademacher walk at 40 digits: the exact
    binomial CDF, from Python integers, against mpmath's Phi at each atom (2k - n) /
    sqrt(n), on both sides of each jump."""
    with mpmath.workdps(40):
        scale, total, gap = mpmath.mpf(2) ** n, 0, mpmath.mpf(0)
        for k in range(n + 1):
            below, total = total, total + math.comb(n, k)
            phi = mpmath.ncdf((2 * k - n) / mpmath.sqrt(n))
            gap = max(gap, abs(total / scale - phi), abs(below / scale - phi))
        return float(gap)


class TestHalfspace:
    def test_walk_law_matches_mpmath_binomial(self):
        # the d = 1 Rademacher walk's law is Binomial(n, 1/2) on the atoms (2k - n) / sqrt(n)
        n = 4096
        with mpmath.workdps(40):
            pmf = [mpmath.binomial(n, j) / mpmath.mpf(2) ** n for j in range(n + 1)]
            cdf = np.array([float(c) for c in np.cumsum(pmf)])
        atoms, law = LatticeWalk(-1.0, 2.0, (0.5, 0.5), 1.0).law(n)
        assert np.max(np.abs(np.cumsum(law) - cdf)) <= 1e-13
        assert np.array_equal(atoms * math.sqrt(n), 2.0 * np.arange(n + 1) - n)

    @pytest.mark.parametrize("law", HALFSPACE_BRUTE_LAWS)
    def test_matches_brute_force(self, law):
        outcomes, probs = map(np.array, HALFSPACE_BRUTE_LAWS[law])
        s = SamplerSpec("lattice_custom", outcomes.shape[1],
                        outcomes=tuple(map(tuple, outcomes.astype(float))),
                        probs=tuple(probs)).build()
        sd2 = probs @ outcomes**2
        family = [[1]] if s.dim == 1 else [[1, 0], [0, 1], [1, 1], [1, -1]]
        for n in (1, 3, 8):
            law = _convolved_law(outcomes, probs, n)
            points = np.array(list(law), dtype=float) / math.sqrt(n)
            mass = np.array(list(law.values()))
            brute = 0.0
            for a in family:
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

    def test_ci_delta_at_4096_matches_a_40_digit_reference(self):
        # the exact law's delta is within 8e-14 relative of the 40-digit value: the
        # walk on its own span (2) errs by 6.7e-14, where a {-1, 0, 1} step kernel,
        # its pmf twice as long, erred by 1.0e-13
        n = 4096
        [point] = ci_halfspace_experiment(HalfspaceConfig(
            sampler=RADEMACHER_1D, n_grid=(1024, n))).points[1:]
        oracle = _ci_delta_d1_rademacher_oracle(n)
        assert abs(point.delta - oracle) <= 8e-14 * oracle

    def test_a_nan_walk_gives_nan(self, monkeypatch):
        # the scaled-basis law in d = 2 has two distinct walks among its four
        # directions: a NaN from the second reaches the supremum, where Python's
        # max would drop it
        exact, calls = experiments.walk_gap, []

        def nan_second(walk, n):
            calls.append(walk)
            return math.nan if len(calls) == 2 else exact(walk, n)

        monkeypatch.setattr(experiments, "walk_gap", nan_second)
        assert math.isnan(halfspace_distance(make_scaled_basis(2, math.sqrt(2.0)), 4))
        assert len(calls) == 2 and calls[0] != calls[1]

    def test_needs_no_lattice_support(self):
        # rademacher_product(2, 1) is off beta Z^2 (beta = sqrt 2), and its statistic
        # is the Rademacher walk's: along e_i, and, doubled and lazy, along e_1 +- e_2
        s = SamplerSpec("rademacher_product", 2, 1.0).build()
        for n in (1, 16, 256):
            assert halfspace_distance(s, n) == max(
                walk_gap(LatticeWalk(-1.0, 2.0, (0.5, 0.5), 1.0), n),
                walk_gap(LatticeWalk(-2.0, 2.0, (0.25, 0.5, 0.25), math.sqrt(2.0)), n))
        # the ci leg's lattice floor still needs beta Z^d
        with pytest.raises(ValueError, match=r"beta\*Z\^d"):
            HalfspaceConfig(sampler=SamplerSpec("rademacher_product", 2, 1.0))

    def test_a_direction_past_the_span_cap_raises_naming_the_law(self):
        # three points 1 and 16 steps apart span 17 steps, one more than a walk may;
        # a law on no lattice has no walk at all
        three = SamplerSpec("lattice_custom", 1, outcomes=((-1.0,), (0.0,), (16.0,)),
                            probs=(0.5, 0.5 - 1 / 32, 1 / 32))
        for spec in (three, IRRATIONAL_1D):
            with pytest.raises(ValueError, match=r"lattice_custom\(dim=1\) has a halfspace "
                                                 r"direction that is no lattice walk of at most "
                                                 f"{WALK_SPAN_CAP} steps"):
                halfspace_distance(spec.build(), 4)

    def test_experiment_small(self):
        cfg = HalfspaceConfig(sampler=RADEMACHER_1D, n_grid=(16, 64, 256))
        rep = ci_halfspace_experiment(cfg)
        assert rep.decay_slope == pytest.approx(-0.5, abs=0.01)
        for p in rep.points:
            assert p.delta <= p.conversion_rhs
            # the bound is evaluated at the exact lattice floor, never at W2
            assert p.floor == expected_lattice_distance(CovarianceSpec([1.0]), 1.0 / math.sqrt(p.n))
            assert p.conversion_rhs == conversion_bound(1, p.floor)
            assert p.floor < p.w2_hat

    def test_w2_column_is_the_exact_law(self):
        cfg = HalfspaceConfig(sampler=SamplerSpec("scaled_basis", 2, 2.0**0.5), n_grid=(16, 64))
        rep = ci_halfspace_experiment(cfg)
        s = cfg.sampler.build()
        assert [p.w2_hat for p in rep.points] == [
            exact_w2_of_sum(lattice_factors(s), n) for n in cfg.n_grid]

    def test_config_validation(self):
        with pytest.raises(ValueError, match=r"n_grid must hold at least 2 values"):
            HalfspaceConfig(sampler=RADEMACHER_1D, n_grid=(64,))
        assert HalfspaceConfig(sampler=SamplerSpec("scaled_basis", 2, 1.0)).n_grid == (
            experiments.N_GRID_DEFAULT)
        with pytest.raises(ValueError, match=r"scaled_basis\(dim=3\) has no exact law"):
            HalfspaceConfig(sampler=SamplerSpec("scaled_basis", 3, 1.0))


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


def _lower_quantile(v):
    """Phi^-1(v) for 0 < v <= 1/2 by ``mpmath.erfinv``, with the bits 2v - 1 needs near -1."""
    with mpmath.extraprec(int(-mpmath.log(v, 2)) + 16):
        return mpmath.sqrt(2) * mpmath.erfinv(2 * v - 1)


def _quantile_integral_w2(outcomes, probs, n):
    """W2(n^{-1/2} (X_1 + ... + X_n), N(0, sigma^2)) at 20 digits: the exact law by
    convolution, then int_0^1 (F_S^-1(u) - sigma Phi^-1(u))^2 du cell by cell, the cells
    above the median in the upper-tail variable 1 - u."""
    with mpmath.workdps(20):
        probs = [mpmath.mpf(p) for p in probs]
        law = {0: mpmath.mpf(1)}
        for _ in range(n):
            step = {}
            for point, mass in law.items():
                for x, p in zip(outcomes, probs):
                    step[point + x] = step.get(point + x, 0) + mass * p
            law = step
        points = sorted(law)
        masses = [law[x] for x in points]
        sigma = mpmath.sqrt(mpmath.fsum(p * x * x for x, p in zip(outcomes, probs)))
        half = mpmath.mpf(1) / 2
        total = mpmath.mpf(0)
        for k, (x, p) in enumerate(zip(points, masses)):
            below, above = mpmath.fsum(masses[:k]), mpmath.fsum(masses[k + 1:])
            a = x / mpmath.sqrt(n)
            if below < half:
                total += mpmath.quad(lambda u: (a - sigma * _lower_quantile(u)) ** 2,
                                     [below, min(below + p, half)])
            if above < half:
                total += mpmath.quad(lambda v: (a + sigma * _lower_quantile(v)) ** 2,
                                     [above, min(above + p, half)])
        return float(mpmath.sqrt(total))


# each law's outcomes, on consecutive points of their lattice, and exact masses
EXACT_LAWS = {
    "rademacher": ((-1, 1), ((1, 2), (1, 2))),
    "skewed": ((-1, 2), ((2, 3), (1, 3))),
    "lazy": ((-1, 0, 1), ((1, 4), (1, 2), (1, 4))),
}


def _walk(law: str) -> LatticeWalk:
    outcomes, masses = EXACT_LAWS[law]
    kernel = tuple(a / b for a, b in masses)
    sd = math.sqrt(sum(p * x * x for x, p in zip(outcomes, kernel)))
    return LatticeWalk(outcomes[0], outcomes[1] - outcomes[0], kernel, sd)


class TestExactLaw:
    @pytest.mark.parametrize("law", EXACT_LAWS)
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_matches_the_mpmath_quantile_integral(self, law, n):
        outcomes, masses = EXACT_LAWS[law]
        with mpmath.workdps(20):
            probs = [mpmath.mpf(a) / b for a, b in masses]
        oracle = _quantile_integral_w2(outcomes, probs, n)
        assert _walk(law).w2(n) == pytest.approx(oracle, rel=1e-12, abs=0)

    @pytest.mark.parametrize("law", EXACT_LAWS)
    @pytest.mark.parametrize("n", [256, 4096])
    def test_approaches_the_asymptotic_constant(self, law, n):
        # sqrt(n) W2 -> sigma sqrt(h^2/12 + kappa_3^2/18) (Rio 2009), h the span and
        # kappa_3 the skewness in sigma units; the tolerance 1/n was fixed in advance
        walk = _walk(law)
        outcomes = np.array(EXACT_LAWS[law][0], dtype=float)
        skew = float(np.array(walk.kernel) @ outcomes**3) / walk.sd**3
        limit = walk.sd * math.sqrt((walk.span / walk.sd) ** 2 / 12 + skew**2 / 18)
        assert abs(math.sqrt(n) * walk.w2(n) - limit) <= 1 / n

    def test_rademacher_product_is_the_root_sum_of_its_coordinates(self):
        [line] = lattice_factors(make_rademacher_product(1))
        factors = lattice_factors(make_rademacher_product(2))
        assert len(factors) == 2
        for n in (1, 16, 256):
            assert exact_w2_of_sum(factors, n) == pytest.approx(
                math.sqrt(2 * line.w2(n) ** 2), rel=1e-15)

    def test_scaled_basis_is_rademacher_in_the_diagonal_frame(self):
        # scaled_basis(2, beta) turned by 45 degrees is rademacher_product(2, beta / sqrt 2)
        factors = lattice_factors(make_scaled_basis(2, 2.0))
        assert len(factors) == 2
        for walk in factors:
            assert walk.kernel == pytest.approx((0.5, 0.5), abs=1e-15)
            assert walk.span == pytest.approx(2.0 * 2.0**0.5, rel=1e-15)
            assert walk.sd == pytest.approx(2.0**0.5, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 4, 16, 256, 4096])
    def test_scaled_basis_at_least_its_canonical_marginals(self, n):
        # each canonical coordinate of scaled_basis(2, 1) is a lazy {-1, 0, 1} walk, and
        # a coupling of the joint laws couples the marginals: W2^2 >= their sum
        joint = exact_w2_of_sum(lattice_factors(make_scaled_basis(2, 1.0)), n)
        lazy = _walk("lazy").w2(n)
        assert joint >= math.sqrt(2) * lazy
        # and it is rademacher_product(2, 1 / sqrt 2): twice a Rademacher walk scaled
        assert joint == pytest.approx(_walk("rademacher").w2(n), rel=1e-14)

    def test_laws_without_lattice_factors(self):
        assert lattice_factors(make_scaled_basis(3, 1.0)) is None
        assert lattice_factors(IRRATIONAL_1D.build()) is None
        # a zero atom, unequal masses: neither frame makes the coordinates independent
        outcomes = ((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
        spec = SamplerSpec("lattice_custom", 2, outcomes=outcomes,
                           probs=(0.3, 0.1, 0.1, 0.25, 0.25))
        assert lattice_factors(spec.build()) is None

    def test_product_masses_decide(self):
        # two lazy coordinates on the full 3 x 3 grid: the product masses factorise;
        # adding eps f(x) f(y), f = (1, -2, 1), keeps the support, both marginals and
        # a diagonal covariance, but the coordinates are no longer independent
        lazy = np.array([0.25, 0.5, 0.25])
        f = np.array([1.0, -2.0, 1.0])
        outcomes = tuple((float(x), float(y)) for x in (-1, 0, 1) for y in (-1, 0, 1))
        product, dependent = (
            lattice_factors(SamplerSpec("lattice_custom", 2, outcomes=outcomes, probs=tuple(
                (np.outer(lazy, lazy) + eps * np.outer(f, f)).ravel())).build())
            for eps in (0.0, 0.01))
        assert dependent is None
        expected = math.sqrt(2) * _walk("lazy").w2(64)
        assert exact_w2_of_sum(product, 64) == pytest.approx(expected, rel=1e-14)

    def test_product_law_factorises_in_the_canonical_frame(self):
        # the skewed law times a Rademacher coordinate, with its product masses
        outcomes = tuple((x, y) for x in (-1.0, 2.0) for y in (-1.0, 1.0))
        probs = tuple(p * 0.5 for p in (2 / 3, 1 / 3) for _ in range(2))
        factors = lattice_factors(
            SamplerSpec("lattice_custom", 2, outcomes=outcomes, probs=probs).build())
        assert sorted(w.span for w in factors) == [2.0, 3.0]
        expected = math.sqrt(_walk("skewed").w2(64) ** 2 + _walk("rademacher").w2(64) ** 2)
        assert exact_w2_of_sum(factors, 64) == pytest.approx(expected, rel=1e-14)

    def test_span_cap(self):
        # a two-point law is always one step; three points 1 and 16 steps apart span
        # 17 steps, one more than an exact law may
        two = SamplerSpec("lattice_custom", 1, outcomes=((-1.0,), (16.0,)),
                          probs=(16 / 17, 1 / 17))
        assert lattice_factors(two.build()) is not None
        three = SamplerSpec("lattice_custom", 1, outcomes=((-1.0,), (0.0,), (16.0,)),
                            probs=(0.5, 0.5 - 1 / 32, 1 / 32))
        assert lattice_factors(three.build()) is None


def _reference_pmf(kernel, n: int) -> np.ndarray:
    """The uncached engine: the ``np.convolve`` binary power, squaring as it goes."""
    pmf, power = np.ones(1), np.asarray(kernel, dtype=float)
    while n:
        if n & 1:
            pmf = np.convolve(pmf, power)
        n >>= 1
        if n:
            power = np.convolve(power, power)
    return pmf


# kernels on {0, ..., span}: interior zero masses, and spans up to WALK_SPAN_CAP
MEMO_KERNELS = {
    "rademacher": (0.5, 0.5),
    "gap": (0.3, 0.0, 0.7),
    "sparse": (0.25, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.25),
    "cap": (16 / 17,) + (0.0,) * (WALK_SPAN_CAP - 1) + (1 / 17,),
}
MEMO_NS = (1, 2, 3, 1000, 4095, 4096)


@pytest.fixture
def fresh_memo():
    """Empty the per-process walk memo before and after, so a test that counts or
    patches the engine sees every computation and leaves no value behind."""
    LatticeWalk.w2.cache_clear()
    experiments._squarings.cache_clear()
    yield
    LatticeWalk.w2.cache_clear()
    experiments._squarings.cache_clear()


class TestOncePerProcess:
    @pytest.mark.parametrize("kernel", MEMO_KERNELS.values(), ids=MEMO_KERNELS)
    def test_pmf_is_bitwise_the_uncached_power(self, fresh_memo, kernel):
        # the shared squarings grow in either order of n, and reused ones change nothing
        reference = {n: _reference_pmf(kernel, n).tobytes() for n in MEMO_NS}
        for n in MEMO_NS + MEMO_NS[::-1]:
            pmf = walk_pmf(kernel, n)
            assert pmf.tobytes() == reference[n], n
            assert pmf.flags.writeable  # a fresh array: no caller can write into the memo

    @pytest.mark.parametrize("kernel", MEMO_KERNELS.values(), ids=MEMO_KERNELS)
    def test_w2_is_bitwise_the_direct_sum(self, fresh_memo, kernel):
        walk = LatticeWalk(-1.0, 0.5, kernel, 0.7)
        for n in MEMO_NS:
            pmf = _reference_pmf(kernel, n)
            atoms = (n * walk.start + walk.span * np.arange(len(pmf))) / math.sqrt(n)
            direct = w2_atoms_gaussian_1d(atoms, pmf, walk.sd)
            assert walk.w2(n) == direct, n
            assert LatticeWalk(-1.0, 0.5, tuple(kernel), 0.7).w2(n) == direct, n

    def test_cached_squarings_are_read_only(self, fresh_memo):
        kernel = MEMO_KERNELS["gap"]
        walk_pmf(kernel, 4096)
        powers = experiments._squarings(kernel)
        assert len(powers) == 13  # kernel^(2^j) for j = 0..12, nothing past n's top bit
        for power in powers:
            with pytest.raises(ValueError, match="read-only"):
                power[0] = 1.0
        assert walk_pmf(kernel, 4096).tobytes() == _reference_pmf(kernel, 4096).tobytes()

    def test_each_walk_and_n_runs_the_engine_once(self, fresh_memo, monkeypatch):
        # the default legs share the Rademacher walk in d = 1, and the 45-degree frame's
        # two coordinates are one walk in d = 2: the quantile-cell sum runs once per
        # distinct (walk, n), each kernel is squared only up to the top bit of its
        # largest n, and a second pass computes nothing
        sums, powers, squarings = [], {}, []
        real_sum, real_pmf, real_convolve = (
            experiments.w2_atoms_gaussian_1d, experiments.walk_pmf, np.convolve)
        monkeypatch.setattr(experiments, "w2_atoms_gaussian_1d",
                            lambda atoms, probs, sd: sums.append(sd) or real_sum(atoms, probs, sd))
        monkeypatch.setattr(experiments, "walk_pmf", lambda kernel, n: powers.update(
            {tuple(kernel): max(n, powers.get(tuple(kernel), 0))}) or real_pmf(kernel, n))
        monkeypatch.setattr(np, "convolve",
                            lambda a, b: squarings.append(a is b) or real_convolve(a, b))
        settings = RunSettings()
        legs = [(clt_rate_experiment, settings.rate_d1), (clt_rate_experiment, settings.rate_d2),
                (lattice_lower_experiment, settings.lower_d1),
                (lattice_lower_experiment, settings.lower_d2),
                (ci_halfspace_experiment, settings.ci_d1), (ci_halfspace_experiment, settings.ci_d2)]
        pairs = set()
        for run, cfg in legs:
            run(cfg)
            pairs |= {(walk, n) for walk in cfg.factors for n in cfg.n_grid}
        assert len(sums) == len(pairs) < sum(len(cfg.factors) * len(cfg.n_grid)
                                             for _, cfg in legs)
        assert sum(squarings) == sum(n.bit_length() - 1 for n in powers.values())
        sums.clear()
        squarings.clear()
        for run, cfg in legs:
            run(cfg)
        assert sums == [] and not any(squarings)
