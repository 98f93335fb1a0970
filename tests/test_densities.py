import math

import numpy as np
import pytest

from scipy import integrate
from scipy.stats import norm

from w2lab import checks, densities, transport
from w2lab.checks import chain_models_2d
from w2lab.experiments import DIAGONAL_FRAME
from w2lab.gaussmath import GH_NODES_DEFAULT, CovarianceSpec, gh_budget, gh_grid, gh_nodes_weights
from w2lab.densities import (
    CHAIN_KR_NODES,
    DensityRatioModel,
    averaged_second_moment,
    density_normalization,
    density_second_moment_lhs,
    density_second_moment_rhs,
    kr_terms,
    marginal_w2_sq,
    prefix_second_moments,
    talagrand_chain,
    _entropy_functional,
)
from w2lab.qstats import q_values
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
        # exact projected mixture vs 80-node Gauss-Hermite averaging of f over
        # the dropped coordinate against its reference N(0, sigma^2)
        s = make_scaled_basis(2, math.sqrt(2.0))
        model = DensityRatioModel(s, 6)
        pts = rng.normal(size=(20, 1))
        t, w = gh_nodes_weights(80)

        def averaged(i):
            full = np.empty((len(pts), len(t), 2))
            full[:, :, 1 - i] = pts
            full[:, :, i] = t * model.cov.sigmas[i]
            return model.f(full.reshape(-1, 2)).reshape(len(pts), -1) @ w

        for i in (0, 1):
            assert np.allclose(model.f_avg_coord(i, pts), averaged(i), rtol=1e-8)
        assert np.allclose(model.f_prefix(1, pts), averaged(1), rtol=1e-8)


def parent_mixture_eval(pts, ys, probs, cov, c):
    """The mixture form as first written, one temporary per term: the reference."""
    w = 1.0 / cov.variances
    xn2 = (pts**2 * w).sum(axis=-1)
    yn2 = (ys**2 * w).sum(axis=-1)
    cross = (pts * w) @ ys.T
    expo = (-(1.0 - c) * xn2[:, None] + 2.0 * cross - yn2[None, :]) / (2.0 * c)
    return c ** (-cov.dim / 2.0) * (np.exp(expo) @ probs)


def checked_models():
    """Every model a checker integrates f of: the chain's (d = 2 and the d = 1
    shifted Gaussians) and the chi-square identity's."""
    return ([model for _, model in chain_models_2d()]
            + [DensityRatioModel.mixture([[shift]], [1.0], CovarianceSpec([1.0]), 1.0)
               for shift in (0.25, 0.5, 1.0)]
            + [DensityRatioModel(s, n) for s, n in checks._q_zoo() if s.dim <= 2])


def count_grid_evals(monkeypatch, dim=2):
    """Count _mixture_eval calls on the full ``dim``-dimensional rule at either node count."""
    calls = []
    inner = densities._mixture_eval

    def counted(pts, *args):
        if pts.shape in {(nodes**dim, dim) for nodes in (GH_NODES_DEFAULT, GH_NODES_DEFAULT // 2)}:
            calls.append(pts.shape[0])
        return inner(pts, *args)

    monkeypatch.setattr(densities, "_mixture_eval", counted)
    return calls


class TestGridEvaluation:
    @pytest.mark.parametrize("nodes", [GH_NODES_DEFAULT, GH_NODES_DEFAULT // 2])
    def test_mixture_eval_matches_the_reference_expression(self, nodes):
        for model in checked_models():
            pts, _ = gh_grid(model.cov, nodes)
            got = densities._mixture_eval(pts, model._ys, model._probs, model.cov, model._c)
            ref = parent_mixture_eval(pts, model._ys, model._probs, model.cov, model._c)
            assert np.all(ref > 0)
            assert np.max(np.abs(got - ref) / ref) <= 1e-14

    def test_chain_evaluates_the_full_grid_twice_per_model(self, monkeypatch):
        # once at each node count, shared by the entropy and chi-square terms
        calls = count_grid_evals(monkeypatch)
        for name, model in chain_models_2d():
            del calls[:]
            talagrand_chain(model)
            assert sorted(calls) == [(GH_NODES_DEFAULT // 2) ** 2, GH_NODES_DEFAULT**2], name

    def test_chi2_identity_evaluates_the_full_grid_twice_per_model(self, monkeypatch):
        # E f^2 at both node counts and E f at the finer one share two evaluations
        calls = count_grid_evals(monkeypatch)
        records = checks.check_chi2_identity(None)
        assert all(v.verdict == "pass" for v in records)
        laws_2d = sum(s.dim == 2 for s, _ in checks._q_zoo())
        assert sorted(calls) == ([(GH_NODES_DEFAULT // 2) ** 2] * laws_2d
                                 + [GH_NODES_DEFAULT**2] * laws_2d)

    def test_chain_shares_each_1d_marginal(self, monkeypatch):
        # the entropy's k = 1 term and the chi-square term for i = 1 both read
        # the marginal onto axis 0: two 1-d evaluations per node count, not three
        calls = count_grid_evals(monkeypatch, dim=1)
        for name, model in chain_models_2d():
            del calls[:]
            talagrand_chain(model)
            assert sorted(calls) == [GH_NODES_DEFAULT // 2] * 2 + [GH_NODES_DEFAULT] * 2, name

    def test_marginal_is_f_averaged_over_the_other_axes(self, rng):
        # oracle: f averaged over axis 1 against N(0, sigma_1^2) by an 80-node
        # rule, on a 3-d mixture with distinct sigmas, axes given out of order
        cov = CovarianceSpec([2.0, 1.0, 0.5])
        model = DensityRatioModel.mixture(rng.normal(size=(4, 3)), [0.1, 0.2, 0.3, 0.4], cov, 0.8)
        pts = rng.normal(size=(20, 2))
        t, w = gh_nodes_weights(80)
        full = np.empty((len(pts), len(t), 3))
        full[:, :, [0, 2]] = pts[:, None, :]
        full[:, :, 1] = t * cov.sigmas[1]
        averaged = model.f(full.reshape(-1, 3)).reshape(len(pts), -1) @ w
        marginal = model.marginal([2, 0])
        assert marginal.cov == CovarianceSpec([2.0, 0.5])
        assert np.allclose(marginal.f(pts), averaged, rtol=1e-10)
        assert model.marginal((0, 2)) is marginal and model.marginal([2, 1, 0]) is model
        for bad in ([], [3], [-1]):
            with pytest.raises(ValueError, match="axes"):
                model.marginal(bad)

    def test_gh_mean_refuses_3d_before_any_grid(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(densities, "gh_grid", no_grid)
        model = DensityRatioModel.mixture(np.zeros((1, 3)), [1.0], CovarianceSpec([1.0, 1.0, 1.0]), 0.9)
        with pytest.raises(ValueError, match="dim <= 2"):
            model.gh_mean(np.square)
        with pytest.raises(ValueError, match="dim <= 2"):
            density_normalization(model)
        assert model._grid_f == {}

    @pytest.mark.parametrize("name", [name for name, _ in chain_models_2d()])
    def test_grid_values_are_f_shared_and_read_only(self, name):
        model = dict(chain_models_2d())[name]
        pts, wts = gh_grid(model.cov, 100)
        memo_wts, memo_f = model._f_on_grid(100)
        assert np.array_equal(memo_wts, wts) and np.array_equal(memo_f, model.f(pts))
        # f_[d] is f, bitwise, so the entropy's k = d term may read the grid values
        assert np.array_equal(model.f_prefix(model.dim, pts), memo_f)
        assert model._f_on_grid(100)[1] is memo_f
        assert not memo_wts.flags.writeable and not memo_f.flags.writeable
        with pytest.raises(ValueError):
            memo_f[0] = 0.0


class TestSecondMoments:
    def test_degenerate_closed_form(self):
        # Y = 0: E f(Z)^2 = (n^2/(n^2-1))^{k/2}, k = 2 here
        cov = CovarianceSpec([1.0, 0.5])
        n = 8
        lhs = density_second_moment_lhs(DensityRatioModel.mixture(np.zeros((1, 2)), [1.0], cov, 1 - 1 / n))
        rhs = float(np.exp(q_values(np.zeros(2), np.zeros(2), cov, n).sum()))
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

    def test_an_under_resolved_quadrature_fails_its_record(self, monkeypatch):
        # with the checker's node count patched down to 4 and 2, the resolution
        # record of each model fails; the job still returns every record
        full = checks.check_chi2_identity(None)
        monkeypatch.setattr(checks, "GH_NODES_DEFAULT", 4)
        coarse = checks.check_chi2_identity(None)
        assert [v.case.replace("200 and 100", "4 and 2") for v in full] == [
            v.case for v in coarse]
        resolution = [v for v in coarse if "quadrature at 4 and 2 nodes" in v.case]
        assert len(resolution) == len(full) // 3 + 1 >= 6
        assert all(v.verdict == "fail" for v in resolution)
        for v in resolution:
            assert v.rhs == 1e-8
            assert v.lhs == abs(v.inputs["fine"] - v.inputs["coarse"]) / v.inputs["fine"]

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
            ef2 = density_second_moment_lhs(model, 200)
            for k in (1, 2):
                lhs = pm[k] - pm[k - 1]
                rhs = ef2 - averaged_second_moment(s, n, i=k - 1)
                assert lhs <= rhs + 1e-9


def chain_verdicts(rep):
    """The verdicts of the chain's two steps, W2^2 <= entropy RHS and entropy
    RHS <= chi-square RHS, as both chain checkers record them."""
    return [v.verdict for v in checks._chain_records("model", rep, {})]


def shifted(shift, sigma=1.0):
    """N(shift, sigma^2) against N(0, sigma^2): a one-atom mixture with c = 1."""
    return DensityRatioModel.mixture([[shift]], [1.0], CovarianceSpec([sigma]), 1.0)


class TestMixtureModel:
    def test_one_atom_is_the_shifted_gaussian_ratio(self):
        xs = np.linspace(-6, 6, 49)[:, None]
        for shift in (0.25, 1.0):
            expect = np.exp(shift * xs[:, 0] - 0.5 * shift**2)
            assert np.allclose(shifted(shift).f(xs), expect, rtol=1e-13)

    def test_sampler_model_is_its_own_mixture(self, rng):
        # the sampler's support over sqrt(n), with the variance ratio 1 - 1/n
        s = make_scaled_basis(2, math.sqrt(2.0))
        n = 12
        model = DensityRatioModel(s, n)
        twin = DensityRatioModel.mixture(s.outcomes / math.sqrt(n), s.probs, s.cov, 1 - 1 / n)
        pts = rng.normal(size=(40, 2)) * 2
        assert np.allclose(twin.f(pts), model.f(pts), rtol=1e-13)
        assert np.allclose(twin.f_avg_coord(0, pts[:, 1:]), model.f_avg_coord(0, pts[:, 1:]),
                           rtol=1e-13)
        assert kr_terms(twin) == pytest.approx(kr_terms(model), rel=1e-13)

    def test_mixture_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="c > 0"):
            DensityRatioModel.mixture([[0.0, 1.0]], [1.0], CovarianceSpec([1.0]), 1.0)
        with pytest.raises(ValueError, match="c > 0"):
            DensityRatioModel.mixture([[0.0]], [1.0], CovarianceSpec([1.0]), 0.0)
        # masses as samplers.check_masses takes them: one per atom, none
        # negative, summing to 1 within 1e-9; a NaN is none of these
        for probs in ([0.7, 0.7], [1.5, -0.5], [1.0], [0.5, 0.5, 0.0], [0.5, 0.5 - 2e-9],
                      [0.5, math.nan]):
            with pytest.raises(ValueError, match="^probs "):
                DensityRatioModel.mixture([[0.0], [1.0]], probs, CovarianceSpec([1.0]), 0.9)
        edge = DensityRatioModel.mixture([[0.0], [1.0]], [0.5, 0.5 - 5e-10], CovarianceSpec([1.0]), 0.9)
        assert edge._probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestKnotheRosenblatt:
    def test_d1_is_the_exact_mixture_distance(self):
        s = make_lattice_custom(np.array([[-1.0], [2.0]]), np.array([2 / 3, 1 / 3]))
        model = DensityRatioModel(s, 16)
        exact = transport.w2_gaussian_mixture_1d(
            s.outcomes[:, 0] / 4.0, s.probs, math.sqrt(1 - 1 / 16) * s.cov.sigmas[0],
            s.cov.sigmas[0])
        assert kr_terms(model) == [pytest.approx(exact**2, rel=1e-14)]

    @pytest.mark.parametrize("name", ["rademacher scale=1 n=2", "asymmetric product n=2"])
    def test_product_law_is_the_sum_of_its_coordinates(self, name):
        model = dict(chain_models_2d())[name]
        terms = kr_terms(model)
        for k, term in enumerate(terms):
            assert term == pytest.approx(marginal_w2_sq(model, np.eye(2)[[k]]), rel=1e-12)
        assert math.fsum(terms) == pytest.approx(marginal_w2_sq(model, np.eye(2)), rel=1e-12)

    def test_conditional_term_against_adaptive_quadrature(self):
        # an independent outer integral: the conditional masses from the atoms'
        # Gaussian densities, and scipy's adaptive quadrature over x_1 ~ tau_1
        model = dict(chain_models_2d())["scaled_basis beta=sqrt2 n=2"]
        ys, p = model._ys, model._probs
        sd = model.cov.sigmas * math.sqrt(1 - 1 / model.n)

        def integrand(x1):
            dens = p * norm.pdf(x1, ys[:, 0], sd[0])
            w2 = transport.w2_gaussian_mixture_1d(ys[:, 1], dens / dens.sum(), sd[1],
                                                  model.cov.sigmas[1])
            return dens.sum() * w2**2

        oracle, err = integrate.quad(integrand, -12, 12, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert err < 1e-10
        assert kr_terms(model, 200)[1] == pytest.approx(oracle, rel=1e-9)

    def test_outer_nodes_converge(self):
        model = dict(chain_models_2d())["scaled_basis beta=sqrt2 n=2"]
        fine = math.fsum(kr_terms(model, 200))
        assert abs(math.fsum(kr_terms(model)) - fine) < 1e-9
        assert abs(math.fsum(kr_terms(model, CHAIN_KR_NODES // 2)) - fine) < 1e-6

    def test_bounds_the_marginal_sum_in_any_frame(self, rng):
        # a coupling's cost is at least the sum of its coordinates' W2^2, so the
        # marginal sum in any orthonormal frame lies at or below W2^2 <= KR
        for name, model in chain_models_2d():
            kr = math.fsum(kr_terms(model))
            for angle in rng.uniform(0, math.pi, size=5):
                c, s = math.cos(angle), math.sin(angle)
                assert marginal_w2_sq(model, np.array([[c, s], [-s, c]])) <= kr + 1e-12, name

    def test_rotated_product_is_exact_in_its_frame(self):
        # scaled_basis(2, sqrt 2) turned by 45 degrees is rademacher_product(2, 1)
        models = dict(chain_models_2d())
        rotated = marginal_w2_sq(models["scaled_basis beta=sqrt2 n=2"], DIAGONAL_FRAME)
        product = math.fsum(kr_terms(models["rademacher scale=1 n=2"]))
        assert rotated == pytest.approx(product, rel=1e-12)

    @pytest.mark.parametrize("name", [name for name, _ in chain_models_2d()])
    def test_each_coordinate_within_its_entropy_increment(self, name):
        # 1-d Talagrand on each conditional and the chain rule of relative entropy
        model = dict(chain_models_2d())[name]
        increments = 2 * model.cov.variances * np.diff(_entropy_functional(model, 200))
        assert np.all(np.array(kr_terms(model)) <= increments)


class TestChain1d:
    @pytest.mark.parametrize("shift", [0.25, 0.5, 1.0])
    def test_shifted_gaussian_equality(self, shift):
        rep = talagrand_chain(shifted(shift))
        assert rep.kr == pytest.approx(shift**2, abs=1e-12)
        assert rep.rhs_entropy == pytest.approx(shift**2, abs=1e-12)
        assert rep.rhs_chi2 == pytest.approx(2.0 * (math.exp(shift**2) - 1.0), abs=1e-10)
        # one coordinate: no outer nodes, so no KR budget
        assert rep.budget_kr == 0.0
        assert chain_verdicts(rep) == ["pass", "pass"]

    def test_identity_ratio_all_zero(self):
        rep = talagrand_chain(shifted(0.0, sigma=2.0))
        assert rep.kr == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs_entropy == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs_chi2 == pytest.approx(0.0, abs=1e-12)
        assert chain_verdicts(rep) == ["pass", "pass"]


class TestChain2d:
    def test_certified_model(self):
        model = DensityRatioModel(make_scaled_basis(2, math.sqrt(2.0)), 2)
        rep = talagrand_chain(model)
        assert chain_verdicts(rep) == ["pass", "pass"]
        assert rep.kr + rep.budget_kr + rep.budget_quad < rep.rhs_entropy
        assert rep.rhs_entropy <= rep.rhs_chi2 + 1e-9

    def test_weak_perturbation_decides(self):
        # at n = 12 the perturbation is small, and KR still decides the W2^2 step
        model = DensityRatioModel(make_scaled_basis(2, math.sqrt(2.0)), 12)
        rep = talagrand_chain(model)
        assert chain_verdicts(rep) == ["pass", "pass"]
        assert rep.budget_kr < 1e-3 * rep.kr

    def test_mismatched_cov_model_runs(self):
        # sigmas (2, 1) with an independent scaled-basis perturbation
        s = make_scaled_basis(2, 5.0)
        model = DensityRatioModel.mixture(s.outcomes / math.sqrt(50), s.probs, CovarianceSpec([2.0, 1.0]),
                                          1 - 1 / 50)
        rep = talagrand_chain(model)
        assert chain_verdicts(rep) == ["pass", "pass"]
        assert rep.rhs_entropy <= rep.rhs_chi2 + 1e-9

    def test_runs_no_atomic_solver(self, monkeypatch):
        # the chain's W2^2 step is KR: the pinned density-grid solvers never run
        def refuse(*args):
            raise AssertionError("the chain ran a density-grid solver")

        monkeypatch.setattr(densities, "w2_discrete_lp", refuse)
        monkeypatch.setattr(densities, "w2_atomic_1d", refuse)
        for name, model in chain_models_2d():
            w2_step, chi2_step = checks._chain_records(name, talagrand_chain(model), {})
            assert w2_step.verdict == chi2_step.verdict == "pass", name
            assert w2_step.margin > 0.5 * w2_step.rhs, name

    @pytest.mark.parametrize("name", [name for name, _ in chain_models_2d()])
    def test_inner_budget_is_kr_against_half_the_inner_nodes(self, name):
        model = dict(chain_models_2d())[name]
        rep = talagrand_chain(model)
        coarse = math.fsum(kr_terms(model, CHAIN_KR_NODES, 100))
        assert rep.budget_kr_inner == gh_budget(rep.kr, coarse)
        assert rep.budget_kr_inner < 1e-10 * rep.kr
        assert rep.kr_budget == rep.budget_kr + rep.budget_kr_inner

    def test_rejects_higher_dims(self):
        cov = CovarianceSpec([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            talagrand_chain(DensityRatioModel.mixture(np.zeros((1, 3)), [1.0], cov, 1.0))
