import math

import numpy as np
import pytest

from w2lab import densities, transport
from w2lab.checks import CHAIN_RADIUS, Verdict, chain_models_2d
from w2lab.gaussmath import CovarianceSpec, gh_nodes_weights
from w2lab.densities import (
    ChainGrid,
    DensityRatioModel,
    ExplicitDensityRatio,
    QuadratureResolutionError,
    averaged_second_moment,
    density_normalization,
    density_second_moment_lhs,
    density_second_moment_rhs,
    prefix_second_moments,
    talagrand_chain,
    _second_moment_quad,
)
from w2lab.samplers import (
    make_lattice_custom,
    make_rademacher_product,
    make_scaled_basis,
)


def gaussian_density(x, mean, sd):
    return np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))


class TestMixtureRepresentation:
    def test_f_matches_direct_density_ratio(self, rng):
        # oracle: tau as an explicit average of shifted Gaussian densities,
        # rho as the reference density; f = tau / rho pointwise
        s = make_rademacher_product(1, 1.0)
        n = 10
        model = DensityRatioModel(s, n)
        xs = np.linspace(-4, 4, 41)[:, None]
        sd = math.sqrt(1.0 - 1.0 / n)
        tau = np.zeros(len(xs))
        for y, p in zip(s.outcomes / math.sqrt(n), s.probs):
            tau += p * gaussian_density(xs[:, 0], y[0], sd)
        rho = gaussian_density(xs[:, 0], 0.0, 1.0)
        assert np.allclose(model.f(xs), tau / rho, rtol=1e-12)
        assert np.allclose(model.tau(xs), tau, rtol=1e-12)
        assert np.allclose(model.rho(xs), rho, rtol=1e-12)

    def test_f_nonnegative_and_normalized(self, rng):
        s = make_scaled_basis(2, math.sqrt(2.0))
        model = DensityRatioModel(s, 12)
        pts = rng.normal(size=(500, 2)) * 3
        assert np.all(model.f(pts) >= 0)
        assert density_normalization(model) == pytest.approx(1.0, abs=1e-8)

    def test_prefix_edges(self, rng):
        s = make_scaled_basis(2, math.sqrt(2.0))
        model = DensityRatioModel(s, 12)
        pts = rng.normal(size=(50, 2))
        assert np.allclose(model.f_prefix(2, pts), model.f(pts))
        assert np.allclose(model.f_prefix(0, pts), 1.0)

    def test_coordinate_averaging_matches_numeric(self, rng):
        # exact projected mixture vs generic quadrature averaging of f
        s = make_scaled_basis(2, math.sqrt(2.0))
        model = DensityRatioModel(s, 6)
        generic = ExplicitDensityRatio(model.f, model.cov)
        pts = rng.normal(size=(20, 1))
        for i in (0, 1):
            exact = model.f_avg_coord(i, pts)
            numeric = generic.f_avg_coord(i, pts)
            assert np.allclose(exact, numeric, rtol=1e-8)
        exact_p = model.f_prefix(1, pts)
        numeric_p = generic.f_prefix(1, pts)
        assert np.allclose(exact_p, numeric_p, rtol=1e-8)

    def test_zero_sampler_needs_cov(self):
        with pytest.raises(ValueError, match="cov"):
            DensityRatioModel(None, 10)


class TestSecondMoments:
    def test_degenerate_closed_form(self):
        # Y = 0: E f(Z)^2 = (n^2/(n^2-1))^{k/2}, k = 2 here
        cov = CovarianceSpec([1.0, 0.5])
        n = 8
        lhs = density_second_moment_lhs(DensityRatioModel(None, n, cov=cov))
        rhs = density_second_moment_rhs(None, n, cov)
        closed = (n * n / (n * n - 1.0)) ** 1.0
        assert lhs == pytest.approx(rhs, abs=1e-8)
        assert rhs == pytest.approx(closed, abs=1e-12)

    def test_lhs_equals_rhs_enumerables(self):
        cases = [
            (make_rademacher_product(1, 1.0), 10),
            (make_scaled_basis(2, math.sqrt(2.0)), 20),
            (make_lattice_custom(np.array([[-1.0], [2.0]]),
                                 np.array([2 / 3, 1 / 3])), 16),
        ]
        for s, n in cases:
            lhs = density_second_moment_lhs(DensityRatioModel(s, n))
            rhs = density_second_moment_rhs(s, n)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_quadrature_self_check_raises_when_coarse(self):
        s = make_scaled_basis(2, 3.0)
        model = DensityRatioModel(s, 2)  # strong perturbation
        with pytest.raises(QuadratureResolutionError):
            density_second_moment_lhs(model, nodes=8, check_tol=1e-12)

    def test_averaged_d1_is_one(self):
        assert averaged_second_moment(
            make_rademacher_product(1, 1.0), 10, i=0
        ) == pytest.approx(1.0, abs=1e-12)

    def test_averaged_symmetric_coordinates_match(self):
        s = make_scaled_basis(2, math.sqrt(2.0))
        a0 = averaged_second_moment(s, 40, i=0)
        a1 = averaged_second_moment(s, 40, i=1)
        assert a0 == pytest.approx(a1, abs=1e-14)

    def test_averaged_vs_quadrature_oracle(self):
        # oracle: integrate f_(i)(x)^2 rho over the remaining coordinate
        s = make_scaled_basis(2, math.sqrt(2.0))
        n = 40
        model = DensityRatioModel(s, n)
        x1, w1 = gh_nodes_weights(200)
        for i in (0, 1):
            other = 1 - i
            pts = (x1 * model.cov.sigmas[other])[:, None]
            quad = float(w1 @ model.f_avg_coord(i, pts) ** 2)
            assert averaged_second_moment(s, n, i=i) == pytest.approx(quad, abs=1e-6)

    def test_prefix_monotone_and_telescoped_bound(self):
        s = make_scaled_basis(2, math.sqrt(2.0))
        for n in (2, 12):
            model = DensityRatioModel(s, n)
            pm = prefix_second_moments(model)
            assert pm[0] == 1.0
            assert np.all(np.diff(pm) >= -1e-12)
            ef2 = _second_moment_quad(model, 200)
            for k in (1, 2):
                lhs = pm[k] - pm[k - 1]
                rhs = ef2 - averaged_second_moment(s, n, i=k - 1)
                assert lhs <= rhs + 1e-9


def chain_verdicts(rep):
    """The verdicts of the chain's two steps, W2^2 <= entropy RHS and entropy
    RHS <= chi-square RHS, as both chain checkers record them."""
    return [Verdict(*step).verdict for step in rep.steps()]


class TestChain1d:
    @pytest.mark.parametrize("shift", [0.25, 0.5, 1.0])
    def test_shifted_gaussian_equality(self, shift):
        cov = CovarianceSpec([1.0])

        def f(x, s=shift):
            return np.exp(s * x[:, 0] - 0.5 * s * s)

        rep = talagrand_chain(
            ExplicitDensityRatio(f, cov),
            ChainGrid(points_per_axis=4096, refine=2.0, radius_sigmas=12.8),
        )
        assert rep.w2_sq == pytest.approx(shift**2, abs=1e-6)
        assert rep.rhs_entropy == pytest.approx(shift**2, abs=1e-6)
        assert rep.rhs_chi2 == pytest.approx(
            2.0 * (math.exp(shift**2) - 1.0), abs=1e-6
        )
        assert chain_verdicts(rep) == ["pass", "pass"]

    def test_identity_ratio_all_zero(self):
        cov = CovarianceSpec([1.0])
        rep = talagrand_chain(
            ExplicitDensityRatio(lambda x: np.ones(len(x)), cov),
            ChainGrid(points_per_axis=1024, refine=2.0, radius_sigmas=6.4),
        )
        assert rep.w2_sq == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs_entropy == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs_chi2 == pytest.approx(0.0, abs=1e-10)
        assert chain_verdicts(rep) == ["pass", "pass"]


class TestChain2d:
    def test_certified_model(self):
        model = DensityRatioModel(make_scaled_basis(2, math.sqrt(2.0)), 2)
        rep = talagrand_chain(
            model, ChainGrid(points_per_axis=20, refine=1.5, radius_sigmas=5.0)
        )
        w2_step, chi2_step = chain_verdicts(rep)
        assert w2_step in ("pass", "inconclusive") and chi2_step == "pass"
        assert rep.w2_sq_raw >= rep.w2_sq
        assert rep.rhs_entropy <= rep.rhs_chi2 + 1e-9

    def test_under_resolved_never_false_verdict(self):
        # weak perturbation far below grid resolution: the W2^2 step must not
        # claim pass or fail; the quadrature step still decides
        model = DensityRatioModel(make_scaled_basis(2, math.sqrt(2.0)), 12)
        rep = talagrand_chain(
            model, ChainGrid(points_per_axis=12, refine=1.5, radius_sigmas=5.0)
        )
        assert chain_verdicts(rep) == ["inconclusive", "pass"]

    def test_mismatched_cov_model_runs(self):
        # sigmas (2, 1) with an independent scaled-basis perturbation
        s = make_scaled_basis(2, 5.0)
        model = DensityRatioModel(s, 50, cov=CovarianceSpec([2.0, 1.0]))
        rep = talagrand_chain(
            model, ChainGrid(points_per_axis=16, refine=1.4, radius_sigmas=5.0)
        )
        w2_step, chi2_step = chain_verdicts(rep)
        assert w2_step != "fail" and chi2_step == "pass"
        assert rep.rhs_entropy <= rep.rhs_chi2 + 1e-9

    def test_collapsed_grid_leaves_the_w2_step_open(self, monkeypatch):
        # smoke's grid on the asymmetric product model: the two resolutions
        # disagree beyond the first-order error model
        solves = []

        def counted(*args):
            solves.append(args)
            return transport.w2_discrete_lp(*args)

        monkeypatch.setattr(densities, "w2_discrete_lp", counted)
        [model] = [m for name, m in chain_models_2d() if name == "asymmetric product n=2"]
        rep = talagrand_chain(model, ChainGrid(16, 1.5, CHAIN_RADIUS))
        assert len(solves) == 2  # one LP per grid resolution
        assert rep.budget_w2 == math.inf
        w2_step, chi2_step = (Verdict(*step) for step in rep.steps())
        assert (w2_step.lhs_lo, w2_step.lhs) == (0.0, math.inf)
        assert w2_step.verdict == "inconclusive"
        # the quadrature step does not depend on the grid and gets a real verdict
        assert math.isfinite(chi2_step.lhs) and chi2_step.lhs - chi2_step.lhs_lo < 1e-8
        assert chi2_step.verdict == "pass"

    def test_rejects_higher_dims(self):
        cov = CovarianceSpec([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            talagrand_chain(ExplicitDensityRatio(lambda x: np.ones(len(x)), cov),
                            ChainGrid(points_per_axis=24, refine=1.5, radius_sigmas=6.4))
