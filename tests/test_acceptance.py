"""Acceptance suite: the eleven gate criteria, one test each, full scale.

Each test prints one PASS/FAIL line so the suite doubles as a human-readable
verification report (run with ``pytest -s tests/test_acceptance.py``).
Criteria use the same default configurations the command line ships with.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from w2lab import cli
from w2lab import transport as tr
from w2lab.checks import (
    L2_TABLES,
    REMAINDER_PAIRS,
    _q_zoo,
    chain_models_2d,
    check_chi2_identity,
    check_conditional_l2,
    check_gauss_quad_expectation,
    check_halfspace_exact,
    check_q_moments,
    check_remainder,
    check_talagrand_1d,
    check_talagrand_2d,
)
from w2lab.config import RunSettings
from w2lab.experiments import (
    ci_halfspace_experiment,
    clt_rate_experiment,
    lattice_lower_experiment,
)
from w2lab.bounds import increment_bound_check
from w2lab.samplers import make_rademacher_product
from w2lab.seeding import rng_for

SEED = 20260810
SMOKE = os.path.join(os.path.dirname(__file__), "..", "configs", "smoke.ini")


def job_rng(job_id: str):
    """The generator ``cli.run_job`` hands the job ``job_id`` at the acceptance seed."""
    return rng_for(SEED, *job_id.encode())


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
        verdicts = check_gauss_quad_expectation(job_rng("check:gauss-quad-expectation"))
        suite = verdicts[0]
        assert suite.inputs["instances"] == 50
        assert suite.lhs <= 1e-8
        assert all(v.verdict == "pass" for v in verdicts)


def test_criterion_02_ot_solver_correctness():
    with criterion(2, "assignment solver vs factorial brute force and 1-d quantile"):
        # 200 assignment instances (m <= 7, d <= 3) against all m! pairings, each
        # plan's marginals checked, then 100 1-d clouds whose quantile coupling
        # must equal the assignment, drawn from the generator the retired
        # ot-exact job was handed
        rng = job_rng("check:ot-exact")
        worst = 0.0
        for _ in range(200):
            m = int(rng.integers(2, 8))
            d = int(rng.integers(1, 4))
            mu = tr.EmpiricalMeasure(rng.normal(size=(m, d)))
            nu = tr.EmpiricalMeasure(rng.normal(size=(m, d)))
            cost, plan = tr.w2_exact(mu, nu)
            assert plan.check_marginals()
            worst = max(worst, abs(cost - tr.w2_bruteforce(mu, nu)))
        assert worst <= 1e-9
        worst_q = 0.0
        for _ in range(100):
            m = int(rng.integers(2, 40))
            xs = rng.normal(size=m)
            ys = rng.normal(size=m) + rng.normal()
            exact = math.sqrt(tr.w2_exact(tr.EmpiricalMeasure(xs[:, None]),
                                          tr.EmpiricalMeasure(ys[:, None]))[0])
            worst_q = max(worst_q, abs(tr.w2_quantile_1d(xs, ys) - exact))
        assert worst_q <= 1e-9


def test_criterion_03_chi_square_identity():
    with criterion(3, "density-ratio second moment: quadrature vs enumeration, 5 samplers"):
        zoo = _q_zoo()
        assert len(zoo) >= 5
        for s, n in zoo:
            assert n >= 5.0 * s.bound**2 / s.cov.sigma_min**2 * (1 - 1e-9)
        records = {v.case: v for v in check_chi2_identity(job_rng("check:chi2-identity"))}
        assert all(v.verdict == "pass" for v in records.values())
        for s, n in zoo:
            # |quadrature - enumeration|, one record per law of the zoo
            identity = records[f"{s.kind} d={s.dim} n={n}"]
            assert identity.rhs == 1e-6 and identity.lhs <= 1e-6


def test_criterion_04_q_moment_suite():
    with criterion(4, "Q-moment identity to 1e-12 and all moment bounds on the zoo"):
        # the mean identity's record is max_i |E Q_i + 1/(2(n^2-1)) + r(n)|
        rules = ["exact mean identity", "cross_moment", "square_moment",
                 "coupled_moment", "total_square"]
        records = check_q_moments(job_rng("check:q-moments"))
        assert [v.case for v in records] == [f"{s.kind} d={s.dim} n={n} {rule}"
                                             for s, n in _q_zoo() for rule in rules]
        assert all(v.rhs <= 1e-12 for v in records if v.case.endswith("exact mean identity"))
        assert all(v.verdict == "pass" for v in records)


def test_criterion_05_conditional_l2_and_remainder():
    with criterion(5, "conditional-L2 (1e4 tables) and Taylor remainder (1e6 pairs)"):
        assert (L2_TABLES, REMAINDER_PAIRS) == (10**4, 10**6)
        l2 = check_conditional_l2(job_rng("check:conditional-l2"))
        remainder = check_remainder(job_rng("check:exp-remainder"))
        assert all(v.verdict == "pass" for v in l2 + remainder)
        assert l2[0].case == "zero violations over 10000 random tables"
        assert remainder[0].case == "zero violations over 1000000 random pairs"
        # the worst gap over the tables, and over the pairs
        assert l2[0].lhs <= 1e-12 and l2[0].inputs["worst_gap"] == l2[0].lhs
        assert remainder[0].lhs <= 1e-12


def test_criterion_06_talagrand_chain():
    with criterion(6, "transportation chain: d=1 equality cases and three d=2 models"):
        d1 = check_talagrand_1d(job_rng("check:talagrand-1d"))
        d2 = check_talagrand_2d(job_rng("check:talagrand-2d"))
        steps = ("W2^2 <= entropy RHS", "entropy RHS <= chi-square RHS")
        # both steps of every model pass at the upper edge of their error
        # intervals, the W2^2 step on the Knothe-Rosenblatt cost, and so do
        # KR's two oracles: nothing is inconclusive
        assert all(v.verdict == "pass" for v in d1 + d2), d1 + d2
        assert all(v.margin > 0 for v in d2), d2
        assert [v.case for v in d2] == [f"{name}: {step}" for name, _ in chain_models_2d()
                                        for step in steps] + [
            "rademacher scale=1 n=2: KR equals the exact product W2^2 to 1e-10 relative",
            "scaled_basis beta=sqrt2 n=2: exact W2^2 in the 45-degree frame <= KR"]
        assert d2[-2].rhs == 1e-10
        for shift in (0.25, 0.5, 1.0):
            records = {v.case.removeprefix(f"shift {shift}: "): v for v in d1
                       if v.case.startswith(f"shift {shift}: ")}
            assert set(records) == {"W2^2 equals shift^2", "entropy RHS equals shift^2", *steps}
            for equality in ("W2^2 equals shift^2", "entropy RHS equals shift^2"):
                # at least as strict as 1e-6: KR is exact in d = 1
                assert records[equality].rhs == 1e-12 and records[equality].lhs <= 1e-12


def test_criterion_07_increment_lemma():
    with criterion(7, "exact increment step at k=1, beta=2, n in {20,40,80}, 50% margin"):
        s = make_rademacher_product(1, 2.0)
        for n in (20, 40, 80):
            chk = increment_bound_check(s, n)
            assert chk.bound == pytest.approx(10.0 / n)
            assert chk.w2 <= 0.5 * chk.bound, (n, chk.w2, chk.bound)


def test_criterion_08_rate_experiments():
    with criterion(8, "rate bound pointwise and slope window (d=1 and d=2)"):
        settings = RunSettings(seed=SEED)
        # both default legs rest on the exact law: each is bounded and in the window
        for points in (clt_rate_experiment(settings.rate_d1),
                       clt_rate_experiment(settings.rate_d2)):
            assert all(p.w2_hat <= p.bound for p in points), points
            fit = cli._loglog_fit(points, "w2_hat")
            assert -0.65 <= fit["slope"] <= -0.35, fit


def test_criterion_09_lattice_lower_bound():
    with criterion(9, "lattice floor: exact floor reaches the target, under the rate bound"):
        settings = RunSettings(seed=SEED)
        for leg, cfg in ((1, settings.lower_d1), (2, settings.lower_d2)):
            s = cfg.sampler.build()
            points = lattice_lower_experiment(cfg)
            last = points[-1]
            assert last.n == 4096
            # the target record states sqrt(d) beta / 4 against the last floor
            target = cli.run_job(settings, f"lower:d{leg}").verdicts[0]
            assert (target.lhs, target.rhs) == (math.sqrt(s.dim) * s.bound / 4.0, last.sqrtn_floor)
            assert last.sqrtn_floor >= target.lhs, points
            for p in points:
                assert abs(p.sqrtn_floor - s.bound * math.sqrt(s.dim / 12)) <= 1e-9, p
                assert p.sqrtn_floor <= p.sqrtn_bound, p
                # the W2 column is exact on both default legs, and above the floor
                assert p.sqrtn_floor <= p.sqrtn_w2_hat, p
            if leg == 1:
                assert last.sqrtn_w2_hat >= 0.24, last


def test_criterion_10_ci_conversion():
    with criterion(10, "exact halfspace distance vs the 5 d^{1/6} W2^{2/3} conversion"):
        settings = RunSettings(seed=SEED)
        enum, binomial, closed = check_halfspace_exact(None)
        assert enum.lhs <= 1e-12 and binomial.lhs <= 1e-13
        # 2 Phi(1/4) - 1 under 5 (1/2)^{2/3}, both in closed form
        assert closed.lhs == pytest.approx(0.19741265, abs=1e-7)
        assert closed.rhs == pytest.approx(3.1498, abs=5e-4)
        assert closed.lhs <= closed.rhs
        for leg, cfg in ((1, settings.ci_d1), (2, settings.ci_d2)):
            points = ci_halfspace_experiment(cfg)
            for p in points:
                assert p.delta <= p.conversion_rhs, (cfg.sampler, p)
            assert cli._loglog_fit(points, "delta")["slope"] == pytest.approx(-0.5, abs=0.01)


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical artifacts across runs, worker counts and BLAS threads"):
        outs = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 8)):
            out = str(tmp_path / tag)
            rc = cli.main([
                "all", "--config", SMOKE, "--out", out,
                "--workers", str(workers), "--seed", "7",
            ])
            assert rc == 0
            outs.append(out)
        # BLAS reads its thread count once, at load, so each count is a fresh process
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        for threads in ("1", "2"):
            out = str(tmp_path / f"threads{threads}")
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])),
                   **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS"), threads)}
            subprocess.run([sys.executable, "-m", "w2lab.cli", "all", "--config", SMOKE,
                            "--out", out, "--seed", "7"], env=env, check=True,
                           stdout=subprocess.DEVNULL, timeout=300)
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
        # every record's four edges are finite: no side is left unbounded
        assert all(r[edge] is not None for r in payload["verdicts"]
                   for edge in ("lhs_lo", "lhs", "rhs", "rhs_hi"))
