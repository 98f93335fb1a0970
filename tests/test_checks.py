import inspect
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

from w2lab import checks, densities, experiments
from w2lab.checks import _tensor_gh_quadratic
from w2lab.densities import ChainReport
from w2lab.gaussmath import CovarianceSpec, gh_nodes_weights
from w2lab.qstats import estimate_q_moments
from w2lab.samplers import make_rademacher_product, make_scaled_basis


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


def test_every_checker_takes_only_its_generator():
    # no checker reads a config: its sizes are constants of the module
    for entry in checks.REGISTRY:
        assert list(inspect.signature(entry.runner).parameters) == ["rng"], entry.checker_id
    assert not hasattr(checks, "CheckSuiteConfig") and not hasattr(checks, "CHAIN_RADIUS")


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("lhs,rhs,verdict", [
    (1.0, 2.0, "pass"), (2.0, 2.0, "pass"), (2.0, 1.0, "fail"),
    (NAN, 1.0, "fail"), (0.0, NAN, "fail"), (-INF, 0.0, "pass"),
])
def test_verdict_is_lhs_at_most_rhs(lhs, rhs, verdict):
    # a point on both sides is both edges of its side
    v = checks.Verdict("case", np.float64(lhs), rhs)
    assert v.verdict == verdict
    assert all(type(e) is float for e in (v.lhs_lo, v.lhs, v.rhs, v.rhs_hi))
    np.testing.assert_array_equal([v.lhs_lo, v.lhs, v.rhs, v.rhs_hi], [lhs, lhs, rhs, rhs])
    if verdict == "pass" and math.isfinite(lhs):
        assert v.margin == rhs - lhs >= 0


@pytest.mark.parametrize("lhs,rhs,verdict", [
    # an interval decides when it clears the other side and is inconclusive
    # while it straddles it, on either side or both
    ((0.0, 1.0), 1.0, "pass"), ((0.0, 1.5), 1.0, "inconclusive"),
    ((1.0, 1.5), 1.0, "inconclusive"), ((1.2, 1.5), 1.0, "fail"),
    (2.0, (2.0, 3.0), "pass"), (2.0, (1.0, 3.0), "inconclusive"),
    (2.0, (1.0, 2.0), "inconclusive"), (2.0, (0.5, 1.5), "fail"),
    ((1.0, 2.0), (1.5, 3.0), "inconclusive"), ((2.5, 3.0), (1.0, 2.0), "fail"),
    # unbounded edges: a side unknown from above cannot pass, one unknown from
    # the far side cannot fail, and the infinite edges compare as infinities
    ((0.0, INF), 1.0, "inconclusive"), ((2.0, INF), 1.0, "fail"),
    ((-INF, 2.0), 1.0, "inconclusive"), ((-INF, 0.5), 1.0, "pass"),
    (2.0, (1.0, INF), "inconclusive"), (0.5, (1.0, INF), "pass"),
    (2.0, (-INF, 1.0), "fail"), ((-INF, INF), (-INF, INF), "inconclusive"),
    # a NaN on any of the four edges fails
    ((NAN, 0.0), 1.0, "fail"), ((0.0, NAN), 1.0, "fail"),
    (0.0, (NAN, 1.0), "fail"), (0.0, (1.0, NAN), "fail"),
    ((NAN, 0.0), (1.0, INF), "fail"), ((-INF, 0.0), (1.0, NAN), "fail"),
])
def test_verdict_rule_on_intervals(lhs, rhs, verdict):
    v = checks.Verdict("case", lhs, rhs)
    assert v.verdict == verdict
    (lhs_lo, lhs_hi), (rhs_lo, rhs_hi) = (s if isinstance(s, tuple) else (s, s) for s in (lhs, rhs))
    # lhs and rhs are the inner edges, so the margin keeps its meaning
    np.testing.assert_array_equal([v.lhs_lo, v.lhs, v.rhs, v.rhs_hi],
                                  [lhs_lo, lhs_hi, rhs_lo, rhs_hi])
    if verdict == "pass" and math.isfinite(lhs_hi):
        assert v.margin == rhs_lo - lhs_hi >= 0


def test_verdict_edges_are_floats_in_order():
    v = checks.Verdict("case", (np.float64(0.5), np.float64(1.0)), (np.float64(2.0), INF))
    assert all(type(e) is float for e in (v.lhs_lo, v.lhs, v.rhs, v.rhs_hi))
    with pytest.raises(ValueError, match="out of order"):
        checks.Verdict("case", (1.0, 0.5), 2.0)


@pytest.mark.parametrize("kr,budget_kr,verdict", [
    (0.8, 0.0, "pass"), (0.8, 0.3, "inconclusive"), (1.5, 0.1, "fail"),
    # KR's budget reaching below zero: W2^2 >= 0 clips the lower edge
    (0.05, 0.0, "pass"), (0.0, 2.0, "inconclusive"),
])
def test_chain_step_inconclusive_only_while_straddling(kr, budget_kr, verdict):
    rep = ChainReport(kr=kr, rhs_entropy=1.0, rhs_chi2=2.0, budget_kr=budget_kr,
                      budget_kr_inner=0.0, budget_quad=0.1, equality_atol=0.0)
    w2_step, quad_step = (checks.Verdict(*step) for step in rep.steps())
    assert w2_step.case == "W2^2 <= entropy RHS" and w2_step.rhs == w2_step.rhs_hi == 1.0
    # the KR and quadrature budgets both widen it, and W2^2 >= 0 clips its lower edge
    budget = budget_kr + 0.1
    assert (w2_step.lhs_lo, w2_step.lhs) == (max(kr - budget, 0.0), kr + budget)
    assert w2_step.verdict == verdict
    # the quadrature step does not depend on KR
    assert quad_step.case == "entropy RHS <= chi-square RHS"
    assert (quad_step.lhs_lo, quad_step.lhs, quad_step.rhs) == (0.9, 1.1, 2.0)
    assert quad_step.verdict == "pass"


def _zoo_records(monkeypatch, entry):
    """The moment and norm records of a zoo holding only ``entry``."""
    monkeypatch.setattr(checks, "_sampler_zoo", lambda: [entry])
    moments, norm, _ = checks.check_sampler_zoo(np.random.default_rng(3))
    return moments, norm


def corrupt_cov(s, factor):
    """A copy of ``s`` whose declared standard deviations are scaled by ``factor``."""
    return replace(s, cov=CovarianceSpec(factor * s.cov.sigmas))


def test_wrong_covariance_fails_the_moment_record(monkeypatch):
    # scaled_basis(2, 2) has Sigma = 2 I; its declared Sigma scaled to 4.5 I fails
    bad = corrupt_cov(make_scaled_basis(2, 2.0), 1.5)
    moments, norm = _zoo_records(monkeypatch, (bad, 2.0, 2.0))
    assert moments.verdict == "fail"
    assert moments.lhs == pytest.approx(2.5, rel=1e-12) and moments.rhs == 1e-12
    assert norm.verdict == "pass" and norm.lhs == 0.0


def test_correlated_outcomes_fail_the_moment_record(monkeypatch):
    # all mass on (-1, -1) and (1, 1): mean zero, norms sqrt 2, the declared Sigma
    # still I, but E X X^T has off-diagonal 1
    s = make_rademacher_product(2, 1.0)
    bad = replace(s, probs=np.array([0.5, 0.0, 0.0, 0.5]))
    moments, norm = _zoo_records(monkeypatch, (bad, 1.0, math.sqrt(2.0)))
    assert moments.verdict == "fail" and moments.lhs == pytest.approx(1.0, rel=1e-12)
    assert norm.verdict == "pass"


def test_bound_below_an_outcome_norm_fails_the_norm_record(monkeypatch):
    short = replace(make_scaled_basis(2, 2.0), bound=1.5)
    moments, norm = _zoo_records(monkeypatch, (short, 2.0, 2.0))
    assert moments.verdict == "pass"
    assert norm.verdict == "fail" and norm.lhs == pytest.approx(0.5, rel=1e-12)


def test_gauss_sampling_scaled_by_variances_fails(monkeypatch):
    def by_variances(cov, count, rng, time_scale=1.0):
        return rng.standard_normal((count, cov.dim)) * (math.sqrt(time_scale) * cov.variances)

    monkeypatch.setattr(checks, "sample_gaussian", by_variances)
    out = checks.check_gauss_sampling(np.random.default_rng(3))
    # variances equal sigmas only at sigma = 1: the sigma = (2, 1, 0.5) case catches it
    assert [v.verdict for v in out] == ["pass", "pass", "fail"]


@pytest.mark.parametrize("checker", [checks.check_gauss_sampling, checks.check_sampler_zoo])
def test_exact_sampling_records_do_not_depend_on_the_generator(checker):
    first, second = (checker(np.random.default_rng(seed)) for seed in (1, 2))
    assert first == second
    assert all(v.verdict == "pass" for v in first)


def test_q_moments_records_come_from_the_report():
    records = checks.check_q_moments(np.random.default_rng(11))
    out = {v.case: v for v in records}
    assert len(out) == 5 * len(checks._q_zoo())  # five exact rules per law, nothing sampled
    exact = estimate_q_moments(make_rademacher_product(1, 1.0), 10)
    mean = out["rademacher_product d=1 n=10 exact mean identity"]
    assert mean.lhs == exact.checks[0].lhs
    assert mean.rhs == 1e-12


def test_lattice_floor_record_certifies_the_exact_floor(monkeypatch):
    exact = checks.expected_lattice_distance
    # a floor off by 2%, or by 1e-9 relative, is caught
    for factor, verdict in ((1.0, "pass"), (1.02, "fail"), (1 + 1e-9, "fail")):
        monkeypatch.setattr(checks, "expected_lattice_distance",
                            lambda cov, spacing: factor * exact(cov, spacing))
        floor = checks.check_lattice_distance(np.random.default_rng(5))[-1]
        assert floor.case == ("exact floor^2 matches the Poisson series of E d_L(Z)^2 "
                              "to 1e-10 relative")
        assert floor.rhs == 1e-10 and floor.inputs == {}
        assert floor.verdict == verdict, factor


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("ratio", [1 / 64, 0.05, 0.2, 0.5, 1.0, 2.0, 3.0])
def test_poisson_floor_series_matches_mpmath(sigma, ratio):
    # the series to convergence at 40 digits; the checker's series stops at
    # FLOOR_SERIES_TERMS terms
    h = ratio * sigma
    with mpmath.workdps(40):
        ref = h**2 / 12 + h**2 / mpmath.pi**2 * mpmath.nsum(
            lambda k: (-1) ** k / k**2 * mpmath.exp(-2 * mpmath.pi**2 * k**2 * sigma**2 / h**2),
            [1, mpmath.inf])
        assert checks._poisson_floor_sq(CovarianceSpec([sigma]), h) == pytest.approx(
            float(ref), rel=1e-14)
        cov = CovarianceSpec([sigma, 0.5 * sigma])
        assert checks._poisson_floor_sq(cov, h) == pytest.approx(
            sum(checks._poisson_floor_sq(CovarianceSpec([s]), h) for s in cov.sigmas), rel=1e-15)


def test_halfspace_exact_draws_nothing_and_passes():
    enum, binomial, closed = checks.check_halfspace_exact(None)
    assert enum.lhs <= 1e-14 and enum.rhs == 1e-12
    assert binomial.lhs <= 1e-13 and binomial.rhs == 1e-13
    # 2 Phi(1/4) - 1 against 5 (1/2)^{2/3}, both in closed form, with no slack
    assert closed.lhs == pytest.approx(0.19741265, abs=1e-7)
    assert closed.rhs == pytest.approx(5.0 * 0.5 ** (2.0 / 3.0), rel=1e-15)
    assert closed.inputs == {"w2": 0.5}
    assert enum.verdict == binomial.verdict == closed.verdict == "pass"


def test_binomial_oracle_matches_a_40_digit_sum():
    # the integer CDF of Binomial(4096, 1/2) against mpmath's binomial sum at
    # 40 digits, each within one ulp of the correctly rounded value
    n, ks = 4096, (0, 1, 2047, 2048, 4095, 4096)
    cdf = checks._binomial_half_cdf(n)
    assert cdf.shape == (n + 1,)
    with mpmath.workdps(40):
        total, exact = mpmath.mpf(0), {}
        for k in range(n + 1):
            total += mpmath.binomial(n, k)
            if k in ks:
                exact[k] = total / mpmath.mpf(2) ** n
        for k in ks:
            assert abs(mpmath.mpf(cdf[k]) - exact[k]) <= math.ulp(cdf[k]), k
    assert cdf[n] == 1.0 and cdf[0] == 2.0**-n


def test_halfspace_enumeration_fails_without_left_limits(monkeypatch):
    def atoms_only(kernel, n, sd):
        cdf = experiments.walk_cdf(kernel, n)
        return float(np.max(np.abs(cdf - ndtr(np.arange(-n, n + 1) / (math.sqrt(n) * sd)))))

    for module in (experiments, checks):
        monkeypatch.setattr(module, "walk_gap", atoms_only)
    enum = checks.check_halfspace_exact(None)[0]
    assert enum.verdict == "fail" and enum.lhs > 0.1


def test_talagrand_2d_records_carry_the_inner_budget():
    # KR's inner Gauss-Hermite sums get a budget of their own: it widens the
    # W2^2 step and the 45-degree record, and every record reports it
    records = checks.check_talagrand_2d(None)
    reports = {name: densities.talagrand_chain(model) for name, model in checks.chain_models_2d()}
    for v in records:
        assert "budget_kr_inner" in v.inputs, v.case
    for name, rep in reports.items():
        w2_step = next(v for v in records if v.case == f"{name}: W2^2 <= entropy RHS")
        budget = rep.budget_kr + rep.budget_kr_inner + rep.budget_quad
        assert w2_step.lhs == rep.kr + budget
        assert w2_step.inputs["budget_kr_inner"] == rep.budget_kr_inner
    rotated = records[-1]
    assert rotated.lhs_lo < rotated.lhs
    assert rotated.lhs - rotated.lhs_lo == pytest.approx(2 * rotated.inputs["budget_rotated"])


def test_increment_records_are_intervals_of_the_inner_budget():
    records = checks.check_increment(None)[1:]
    assert len(records) == len(checks.INCREMENT_NS)
    for v in records:
        budget = v.inputs["budget_inner"]
        assert 0.0 < budget < 1e-10 * v.lhs
        assert v.lhs - v.lhs_lo == pytest.approx(2 * budget)
        assert v.verdict == "pass"


def test_talagrand_2d_oracles_certify_kr(monkeypatch):
    cases = ["rademacher scale=1 n=2: KR equals the exact product W2^2 to 1e-10 relative",
             "scaled_basis beta=sqrt2 n=2: exact W2^2 in the 45-degree frame <= KR"]
    records = {v.case: v for v in checks.check_talagrand_2d(None)}
    assert list(records)[-2:] == cases
    assert all(v.verdict == "pass" for v in records.values())
    # a KR that comes out too small fails both oracles; one too large fails the
    # W2^2 step of the scaled_basis model and the product oracle
    kr_terms = densities.kr_terms
    for factor, failing in ((0.5, cases), (3.0, ["scaled_basis beta=sqrt2 n=2: W2^2 <= entropy RHS",
                                               cases[0]])):
        monkeypatch.setattr(densities, "kr_terms",
                            lambda model, *nodes: [factor * t for t in kr_terms(model, *nodes)])
        records = {v.case: v for v in checks.check_talagrand_2d(None)}
        assert [c for c, v in records.items() if v.verdict == "fail"] == failing, factor
