"""Acceptance suite: the eleven gate criteria, one test each, full scale.

Each test prints one PASS/FAIL line so the suite doubles as a human-readable
verification report (run with ``pytest -s tests/test_acceptance.py``).
Criteria use the same default configurations the command line ships with.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from w2lab import cli
from w2lab.checks import (
    CheckSuiteConfig,
    chain_models_2d,
    check_gauss_quad_expectation,
    check_ot_exact,
)
from w2lab.config import RunSettings
from w2lab.densities import (
    ChainGrid,
    DensityRatioModel,
    ExplicitDensityRatio,
    density_second_moment_lhs,
    density_second_moment_rhs,
    talagrand_chain,
)
from w2lab.experiments import (
    _CI_CALIBRATION_JOB,
    ci_calibration,
    ci_halfspace_experiment,
    clt_rate_experiment,
    lattice_lower_experiment,
)
from w2lab.bounds import increment_bound_check
from w2lab.gaussmath import CovarianceSpec
from w2lab.qstats import (
    conditional_l2_check,
    estimate_q_moments,
    r_of_n,
    remainder_difference_batch,
)
from w2lab.samplers import (
    SE_FACTOR,
    make_lattice_custom,
    make_rademacher_product,
    make_scaled_basis,
)
from w2lab.seeding import rng_for

SEED = 20260810
SMOKE = os.path.join(os.path.dirname(__file__), "..", "configs", "smoke.ini")


@contextmanager
def criterion(num: int, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {label}  [{time.time() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {label}  [{time.time() - start:.1f}s]")


def test_criterion_01_closed_form_vs_quadrature():
    with criterion(1, "quadratic-exponential moment: closed form vs 200-node quadrature"):
        verdicts = check_gauss_quad_expectation(CheckSuiteConfig(), SEED)
        suite = verdicts[0]
        assert suite.inputs["instances"] == 50
        assert suite.lhs <= 1e-8
        assert all(v.verdict == "pass" for v in verdicts)


def test_criterion_02_ot_solver_correctness():
    with criterion(2, "assignment solver vs factorial brute force and 1-d quantile"):
        cfg = CheckSuiteConfig(ot_instances=200, quantile_instances=100)
        verdicts = check_ot_exact(cfg, SEED)
        brute, quant = verdicts
        assert brute.lhs <= 1e-9
        assert quant.lhs <= 1e-9


def test_criterion_03_chi_square_identity():
    with criterion(3, "density-ratio second moment: quadrature vs enumeration, 5 samplers"):
        cases = [
            (make_rademacher_product(1, 1.0), 10),
            (make_rademacher_product(2, 1.0), 12),
            (make_scaled_basis(2, math.sqrt(2.0)), 20),
            (make_lattice_custom(np.array([[-1.0], [2.0]]),
                                 np.array([2 / 3, 1 / 3])), 16),
            (make_lattice_custom(
                np.array([[-1.0, -2.0], [-1.0, 2.0], [1.0, -2.0], [1.0, 2.0]]),
                np.full(4, 0.25)), 30),
        ]
        assert len(cases) >= 5
        for s, n in cases:
            assert n >= 5.0 * s.bound**2 / s.cov.sigma_min**2 * (1 - 1e-9)
            lhs = density_second_moment_lhs(DensityRatioModel(s, n))
            rhs = density_second_moment_rhs(s, n)
            assert abs(lhs - rhs) <= 1e-6, (s.kind, s.dim, n, lhs, rhs)


def test_criterion_04_q_moment_suite():
    with criterion(4, "Q-moment identity to 1e-12 and all moment bounds on the zoo"):
        zoo = [
            (make_rademacher_product(1, 1.0), 10),
            (make_rademacher_product(2, 1.0), 12),
            (make_scaled_basis(2, math.sqrt(2.0)), 20),
            (make_lattice_custom(np.array([[-1.0], [2.0]]),
                                 np.array([2 / 3, 1 / 3])), 16),
        ]
        rules = ["mean_identity", "cross_moment", "square_moment",
                 "coupled_moment", "total_square"]
        # rounding allowance of the exact rules: the mean identity is an equality
        exact_tol = {"mean_identity": 1e-12, "cross_moment": 1e-15}
        for s, n in zoo:
            rep = estimate_q_moments(s, n, mode="exact")
            target = -1.0 / (2.0 * (n * n - 1.0)) - r_of_n(n)
            assert float(np.max(np.abs(rep.e_qi - target))) <= 1e-12
            assert [c.name for c in rep.checks] == rules
            for c in rep.checks:
                assert c.lhs <= c.rhs + exact_tol.get(c.name, 0.0), (s.kind, c)
        mc = estimate_q_moments(
            make_scaled_basis(2, math.sqrt(2.0)), 20, mode="mc",
            m=10**6, rng=rng_for(SEED, 400),
        )
        assert [c.name for c in mc.checks] == rules
        for c in mc.checks:
            assert c.lhs <= c.rhs + SE_FACTOR * mc.se_scale, c


def test_criterion_05_conditional_l2_and_remainder():
    with criterion(5, "conditional-L2 (1e4 tables) and Taylor remainder (1e6 pairs)"):
        rng = rng_for(SEED, 500)
        for _ in range(10**4):
            na, nb = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            f = rng.normal(size=(na, nb)) * float(rng.uniform(0.2, 5.0))
            res = conditional_l2_check(f, rng.dirichlet(np.ones(na)),
                                       rng.dirichlet(np.ones(nb)))
            assert res["rhs"] - res["lhs"] <= 1e-12
        a = rng.uniform(-1, 1, size=10**6)
        b = rng.uniform(-1, 1, size=10**6)
        lhs, rhs = remainder_difference_batch(a, b)
        assert float(np.max(lhs - rhs)) <= 1e-12


def test_criterion_06_talagrand_chain():
    with criterion(6, "transportation chain: d=1 equality cases and three d=2 models"):
        cov = CovarianceSpec([1.0])
        for shift in (0.25, 0.5, 1.0):
            def f(x, s=shift):
                return np.exp(s * x[:, 0] - 0.5 * s * s)
            rep = talagrand_chain(
                ExplicitDensityRatio(f, cov),
                ChainGrid(points_per_axis=4096, refine=2.0, radius_sigmas=12.8),
            )
            assert abs(rep.w2_sq - shift**2) <= 1e-6
            assert abs(rep.rhs_entropy - shift**2) <= 1e-6
        grid = ChainGrid(points_per_axis=24, refine=1.42, radius_sigmas=5.0)
        for name, model in chain_models_2d():
            rep = talagrand_chain(model, grid)
            assert rep.verdict_w2_entropy == "pass", (name, rep)
            assert rep.verdict_entropy_chi2 == "pass", (name, rep)
            assert rep.margin_w2_entropy > 0
            assert rep.margin_entropy_chi2 > 0


def test_criterion_07_increment_lemma():
    with criterion(7, "increment bound at k=1, beta=2, n in {20,40,80}, 50% margin"):
        s = make_rademacher_product(1, 2.0)
        for i, n in enumerate((20, 40, 80)):
            chk = increment_bound_check(s, n, 10**6, rng_for(SEED, 700, i))
            assert chk.bound == pytest.approx(10.0 / n)
            assert chk.w2_hat <= 0.5 * chk.bound, (n, chk.w2_hat, chk.bound)


def test_criterion_08_rate_experiments():
    with criterion(8, "rate bound pointwise (d=1 and d=2) and d=1 slope window"):
        settings = RunSettings(seed=SEED)
        rep1 = clt_rate_experiment(settings.rate_d1, SEED, 1)
        assert all(v <= p.bound for p in rep1.points for v in p.replica_values)
        assert -0.65 <= rep1.fit.slope <= -0.35, rep1.fit
        rep2 = clt_rate_experiment(settings.rate_d2, SEED, 2)
        assert all(v <= p.bound for p in rep2.points for v in p.replica_values)


def test_criterion_09_lattice_lower_bound():
    with criterion(9, "lattice floor: d=1 proxy window and W2, d=2 plateau"):
        settings = RunSettings(seed=SEED)
        rep1 = lattice_lower_experiment(settings.lower_d1, SEED, 1)
        last = rep1.points[-1]
        assert last.n == 4096
        assert 0.24 <= last.sqrtn_proxy <= 0.26, last
        assert last.sqrtn_w2_hat >= 0.24, last
        rep2 = lattice_lower_experiment(settings.lower_d2, SEED, 2)
        assert rep2.target == pytest.approx(math.sqrt(2.0) / 4.0)
        assert rep2.plateau_value >= 0.95 * rep2.target, rep2


def test_criterion_10_ci_conversion():
    with criterion(10, "halfspace distance vs the 5 d^{1/6} W2^{2/3} conversion"):
        settings = RunSettings(seed=SEED)
        cal = ci_calibration(settings.calibration_m, rng_for(SEED, _CI_CALIBRATION_JOB))
        assert cal.delta_exact == pytest.approx(0.19741265, abs=1e-7)
        assert cal.rhs == pytest.approx(3.1498, abs=5e-4)
        assert abs(cal.delta_hat - cal.delta_exact) <= 5 * 0.5 / math.sqrt(
            settings.calibration_m
        )
        assert cal.delta_hat <= cal.rhs
        for leg, cfg in ((1, settings.ci_d1), (2, settings.ci_d2)):
            rep = ci_halfspace_experiment(cfg, SEED, leg)
            for p in rep.points:
                assert p.delta_hat <= p.rhs + p.slack, (cfg.sampler, p)


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical artifacts across runs and worker counts"):
        outs = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 8)):
            out = str(tmp_path / tag)
            rc = cli.main([
                "all", "--config", SMOKE, "--out", out,
                "--workers", str(workers), "--seed", "7",
            ])
            assert rc == 0
            outs.append(out)

        def tree(root):
            found = {}
            for base, _, files in os.walk(root):
                for fn in files:
                    p = os.path.join(base, fn)
                    found[os.path.relpath(p, root)] = open(p, "rb").read()
            return found

        ref = tree(outs[0])
        assert len(ref) > 10
        for other in outs[1:]:
            cmp = tree(other)
            assert set(cmp) == set(ref)
            for name in ref:
                assert cmp[name] == ref[name], f"artifact differs: {name}"
        payload = json.loads(ref["verdicts.json"].decode())
        assert payload["root_seed"] == 7
        assert payload["summary"]["fail"] == 0
