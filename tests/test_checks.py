import inspect
import itertools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr

from w2lab import checks, densities, experiments, qstats
from w2lab.checks import _tensor_gh_quadratic
from w2lab.config import DEFAULT_SEED
from w2lab.densities import ChainReport
from w2lab.gaussmath import CovarianceSpec, gh_nodes_weights, norm_cdf
from w2lab.qstats import estimate_q_moments
from w2lab.samplers import make_rademacher_product, make_scaled_basis
from w2lab.seeding import rng_for


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


@pytest.mark.parametrize("entry", checks.REGISTRY, ids=lambda entry: entry.checker_id)
def test_every_checker_working_set_is_capped(entry, peak_bytes):
    # stacks of instances are drawn and checked in blocks, so no checker
    # holds more than 4 MiB at once on its job's generator
    rng = rng_for(DEFAULT_SEED, *f"check:{entry.checker_id}".encode())
    assert peak_bytes(entry.runner, rng) <= 4 * 2**20


def test_conditional_l2_checks_every_table_once(monkeypatch):
    stacks, inner = [], qstats.conditional_l2_check

    def recorded(f, p_a, p_b):
        stacks.append(np.shape(f)[:-2])
        return inner(f, p_a, p_b)

    monkeypatch.setattr(qstats, "conditional_l2_check", recorded)
    records = checks.check_conditional_l2(np.random.default_rng(3))
    assert stacks == [(checks.L2_BLOCK,)] * (checks.L2_TABLES // checks.L2_BLOCK) + [()]
    assert all(v.verdict == "pass" for v in records)


def test_conditional_l2_closest_table_is_the_worst_proper_gap():
    # the same draws from a twin generator, each block's tables checked at once;
    # a table's size read off its laws' positive masses
    rng, twin = (rng_for(DEFAULT_SEED, *b"check:conditional-l2") for _ in range(2))
    records = checks.check_conditional_l2(rng)
    gaps, eq_gaps = [], []
    for _ in range(checks.L2_TABLES // checks.L2_BLOCK):
        sizes = twin.integers(1, checks.L2_SIDE + 1, size=(2, checks.L2_BLOCK))
        f = twin.normal(size=(checks.L2_BLOCK, checks.L2_SIDE, checks.L2_SIDE))
        f *= twin.uniform(0.2, 5.0, size=(checks.L2_BLOCK, 1, 1))
        p_a, p_b = (checks._flat_dirichlet_padded(k, twin) for k in sizes)
        res = qstats.conditional_l2_check(f, p_a, p_b)
        proper = (np.count_nonzero(p_a, axis=1) >= 2) & (np.count_nonzero(p_b, axis=1) >= 2)
        gaps += list((res["rhs"] - res["lhs"])[proper])
        eq_gaps += list((res["rhs"] - res["lhs"])[~proper])
    assert [v.case for v in records] == [
        f"zero violations over {checks.L2_TABLES} random tables",
        "zero violations over the random tables with at least 2 rows and 2 columns",
        "constant table is the equality case"]
    closest = records[1]
    assert closest.lhs == max(gaps) < 0
    assert closest.inputs == {"tables": len(gaps), "equality_tables": len(eq_gaps),
                              "equality_max_abs_gap": max(map(abs, eq_gaps))}
    assert len(gaps) + len(eq_gaps) == checks.L2_TABLES
    # the equality tables hold record 0 at exactly 0
    assert records[0].lhs == max(eq_gaps) == 0.0


def test_remainder_record_is_the_worst_over_whole_chunks(monkeypatch):
    # the same chunks from a twin generator, each checked in one piece; the
    # checker's slices cover every pair once, and the endpoint example
    rng, twin = (rng_for(DEFAULT_SEED, *b"check:exp-remainder") for _ in range(2))
    worst = max(np.max(np.subtract(*qstats.remainder_difference_batch(
        *twin.uniform(-1, 1, size=(2, checks.REMAINDER_CHUNK)))))
        for _ in range(checks.REMAINDER_PAIRS // checks.REMAINDER_CHUNK))
    sizes, inner = [], qstats.remainder_difference_batch

    def recorded(a, b):
        sizes.append(np.size(a))
        return inner(a, b)

    monkeypatch.setattr(qstats, "remainder_difference_batch", recorded)
    assert checks.check_remainder(rng)[0].lhs == worst
    assert sum(sizes) == checks.REMAINDER_PAIRS + 1


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("lhs,rhs,verdict", [
    (1.0, 2.0, "pass"), (2.0, 2.0, "pass"), (2.0, 1.0, "fail"),
    (NAN, 1.0, "fail"), (0.0, NAN, "fail"),
    # an infinite point is no bound: it fails on either side
    (1.0, INF, "fail"), (-INF, 0.0, "fail"), (INF, 1.0, "fail"), (0.0, -INF, "fail"),
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
    # an infinite edge fails, on any of the four edges, whatever the others say
    ((0.0, INF), 1.0, "fail"), ((2.0, INF), 1.0, "fail"),
    ((-INF, 2.0), 1.0, "fail"), ((-INF, 0.5), 1.0, "fail"),
    (2.0, (1.0, INF), "fail"), (0.5, (1.0, INF), "fail"),
    (2.0, (-INF, 1.0), "fail"), ((-INF, INF), (-INF, INF), "fail"),
    # and so does a NaN
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
                      budget_kr_inner=0.0, budget_quad=0.1)
    w2_step, quad_step = checks._chain_records("model", rep, {})
    # each bound carries the rounding allowance max(1e-10, 1e-8 max|side|) = 2e-8
    allow = 2e-8
    assert w2_step.case == "model: W2^2 <= entropy RHS"
    assert w2_step.rhs == w2_step.rhs_hi == 1.0 + allow
    # the KR and quadrature budgets both widen it, and W2^2 >= 0 clips its lower edge
    budget = budget_kr + 0.1
    assert (w2_step.lhs_lo, w2_step.lhs) == (max(kr - budget, 0.0), kr + budget)
    assert w2_step.verdict == verdict
    # the quadrature step does not depend on KR
    assert quad_step.case == "model: entropy RHS <= chi-square RHS"
    assert (quad_step.lhs_lo, quad_step.lhs, quad_step.rhs) == (0.9, 1.1, 2.0 + allow)
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


def test_exact_sampler_records_do_not_depend_on_the_generator():
    first, second = (checks.check_sampler_zoo(np.random.default_rng(seed)) for seed in (1, 2))
    assert first == second
    assert all(v.verdict == "pass" for v in first)


def test_q_moments_records_come_from_the_report():
    records = checks.check_q_moments(np.random.default_rng(11))
    out = {v.case: v for v in records}
    assert len(out) == 5 * len(checks._q_zoo())  # five exact rules per law, nothing sampled
    exact = estimate_q_moments(make_rademacher_product(1, 1.0), 10)
    mean = out["rademacher_product d=1 n=10 exact mean identity"]
    # max_i |E Q_i - (-1/(2(n^2-1)) - r(n))| from the report's exact E Q_i
    assert mean.lhs == np.max(np.abs(exact.e_qi - (-1.0 / (2.0 * 99.0) - qstats.r_of_n(10))))
    assert mean.rhs == 1e-12


# each rule stated in checks on a report's measured side: its checker, the
# measurement it reads and the report field, the end of its records' cases, and a
# slack well above the rounding of the field's values
MOVED_RULES = [
    *((checks.check_q_moments, qstats, "estimate_q_moments", field, rule, 1e-16)
      for field, rule in (("e_qi", "exact mean identity"), ("e_qiqj", "cross_moment"),
                          ("e_qiqj", "square_moment"), ("e_qmqi_qi", "coupled_moment"),
                          ("e_q2", "total_square"))),
    (checks.check_talagrand_2d, densities, "talagrand_chain", "kr", "W2^2 <= entropy RHS", 1e-12),
    (checks.check_talagrand_2d, densities, "talagrand_chain", "rhs_entropy",
     "entropy RHS <= chi-square RHS", 1e-12),
]


@pytest.mark.parametrize("past", [False, True], ids=["inside", "past"])
@pytest.mark.parametrize("checker, module, measure, field, rule, slack", MOVED_RULES,
                         ids=[rule for *_, rule, _ in MOVED_RULES])
def test_moved_rules_fail_just_past_their_allowance(monkeypatch, checker, module, measure,
                                                    field, rule, slack, past):
    # the measured side moved by the record's margin (and its interval's width) plus
    # or minus a slack: just inside the bound and its allowance the record passes,
    # with the whole interval just past it the record fails
    clean = [v for v in checker(None) if v.case.endswith(rule)]
    assert clean and all(v.verdict == "pass" for v in clean)
    exact, records = getattr(module, measure), iter(clean)

    def moved(*args):
        rep, v = exact(*args), next(records)
        shift = v.margin + (v.lhs - v.lhs_lo) + slack if past else v.margin - slack
        return replace(rep, **{field: getattr(rep, field) + shift})

    monkeypatch.setattr(module, measure, moved)
    out = [v for v in checker(None) if v.case.endswith(rule)]
    assert [v.case for v in out] == [v.case for v in clean]
    assert all(v.verdict == ("fail" if past else "pass") for v in out), out


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


def _masked_sum_gap(outcomes, probs, n):
    """The enumeration as first written: every sequence by fancy indexing, and one
    masked sum per atom and side.  The reference for the sorted, grouped one."""
    idx = np.indices((len(probs),) * n).reshape(n, -1).T
    sums, mass = outcomes[idx].sum(axis=1) / math.sqrt(n), probs[idx].prod(axis=1)
    gaps = [0.0]
    for a in np.eye(1) if outcomes.shape[1] == 1 else np.array([[1, 0], [0, 1], [1, 1], [1, -1]]):
        proj, sd = sums @ a, math.sqrt(probs @ (outcomes @ a) ** 2)
        for t in np.unique(proj):
            g = norm_cdf(t / sd)
            gaps += [abs(mass[proj <= t + 1e-12].sum() - g), abs(mass[proj < t - 1e-12].sum() - g)]
    return float(max(gaps))


# the six laws the halfspace checker enumerates
HALFSPACE_LAWS = [
    (np.array([[1.0], [-1.0]]), np.full(2, 0.5)),
    (math.sqrt(2.0) * np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]]), np.full(4, 0.25)),
    (2.0 * np.array([[0.0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]]),
     np.array([0.4, 0.1, 0.1, 0.2, 0.2])),
    (np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1]]), np.full(4, 0.25)),
    (np.array([[-1.0], [2.0]]), np.array([2 / 3, 1 / 3])),
    (np.array([[-1.0], [0.0], [1.0]]), np.array([0.2, 0.3, 0.5])),
]


@pytest.mark.parametrize("law", range(len(HALFSPACE_LAWS)))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerated_gap_matches_the_masked_sum_reference(law, n):
    outcomes, probs = HALFSPACE_LAWS[law]
    assert checks._enumerated_gap(outcomes, probs, n) == pytest.approx(
        _masked_sum_gap(outcomes, probs, n), abs=1e-15)


def _nan_on_call(fn, call):
    """``fn``, except that its ``call``-th call (from 1) returns NaN."""
    calls = itertools.count(1)

    def wrapped(*args, **kwargs):
        value = fn(*args, **kwargs)
        return math.nan if next(calls) == call else value

    return wrapped


@pytest.mark.parametrize("checker, module, name, call, records", [
    (checks.check_gauss_quad_expectation, checks, "gaussian_exp_quadratic", 2, [0]),
    (checks.check_w2_gaussian_metric, checks, "w2_gaussian_diag", 5, [0]),
    (checks.check_halfspace_exact, checks, "halfspace_distance", 2, [0]),
    (checks.check_r_of_n, qstats, "r_of_n", 2, [0, 1]),
])
def test_a_nan_instance_fails_its_record(monkeypatch, checker, module, name, call, records):
    # a NaN past the first instance reaches the record's worst case, and fails it
    monkeypatch.setattr(module, name, _nan_on_call(getattr(module, name), call))
    out = checker(np.random.default_rng(4))
    for i in records:
        assert math.isnan(out[i].lhs) and out[i].verdict == "fail", out[i].case


def test_halfspace_enumeration_fails_without_left_limits(monkeypatch):
    def atoms_only(walk, n):
        atoms, pmf = walk.law(n)
        return float(np.max(np.abs(np.cumsum(pmf) - ndtr(atoms / walk.sd))))

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
