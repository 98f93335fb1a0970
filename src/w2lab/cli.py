"""Command-line entry point: deterministic suite execution and report emission.

Subcommands
-----------
check   run the checker registry (optionally one checker via --only)
rate    rate experiments (d=1 quantile, d=2 exact transport)
lower   lattice lower-bound experiments
ci      halfspace-distance experiments plus the shifted-Gaussian calibration
all     everything above
list    print the checker registry (id and anchor)

Every job draws from the one root seed (``--seed``), addressed by its own
job path; an experiment leg's index in that path comes from its job id
(``rate:d2`` is leg 2).  The experiment records are stated here, as
``Verdict(case, lhs, rhs)`` from the reports the experiments return; each
passes exactly when lhs <= rhs (``checks.Verdict``), so a window around a
centre is recorded as ``(|x - centre|, half-width)``.  Each job states its
anchor once (a checker's ``REGISTRY`` entry, or one constant per experiment
kind here) and stamps it, with its checker id, on every record it emits.

Artifacts land in the output directory: ``verdicts.json`` plus
``tables/*.csv`` and ``plotdata/*.dat`` for the experiments, every file
stamped with the config hash and root seed.  Exit status: 0 when nothing
failed (inconclusive verdicts only warn), 1 on any failed verdict, 2 on
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .checks import REGISTRY, Verdict, checker_entry, checker_ids
from .config import RunSettings, UsageError, load_settings
from .experiments import (
    _CI_CALIBRATION_JOB,
    bentkus_reference_curve,
    ci_calibration,
    ci_halfspace_experiment,
    clt_rate_experiment,
    halfspace_slack,
    lattice_lower_experiment,
)
from .reporting import (
    SCHEMA_VERSION,
    config_hash,
    jsonable,
    write_plotdata,
    write_table_csv,
    write_verdicts_json,
)
from .seeding import rng_for

# windows as (centre, half-width): a record is (|x - centre|, half-width)
RATE_SLOPE_WINDOW = (-0.5, 0.15)
CI_DECAY_SLOPE_MAX = -0.25
PLATEAU_WINDOW = (1.0, 0.04)

RATE_ANCHOR = "main rate bound W2(S_n, Z) <= 5 sqrt(d) beta (1 + log n)/sqrt(n)"
LOWER_ANCHOR = "lattice floor: liminf sqrt(n) W2(S_n, Z) >= sqrt(d) beta / 4"
CI_ANCHOR = "halfspace distance <= 5 d^{1/6} W2^{2/3} (restricted-family lower bound)"


@dataclass
class JobResult:
    job_id: str
    anchor: str
    verdicts: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    plotdata: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)  # extra per-job artifact metadata

    @property
    def checker(self) -> str:
        """The id on this job's records: the checker id, else ``rate-d1`` style."""
        kind, _, name = self.job_id.partition(":")
        return name if kind == "check" else f"{kind}-{name}"


# ---------------------------------------------------------------------------
# experiment jobs -> verdicts + artifacts
# ---------------------------------------------------------------------------

def _sampler_meta(spec) -> str:
    return f"{spec.kind}(dim={spec.dim},scale={spec.scale})"


def _leg_index(leg: str) -> int:
    """The seed-path index of an experiment leg, from its job id: ``d2`` -> 2."""
    return int(leg.removeprefix("d"))


def _rate_job(settings: RunSettings, leg: str) -> JobResult:
    cfg = settings.rate_d1 if leg == "d1" else settings.rate_d2
    rep = clt_rate_experiment(cfg, settings.seed, _leg_index(leg))
    job = JobResult(job_id=f"rate:{leg}", anchor=RATE_ANCHOR)
    job.meta = {"m": cfg.m, "replicas": cfg.replicas, "estimator": cfg.estimator,
                "sampler": _sampler_meta(cfg.sampler)}
    worst = max(max(p.replica_values) - p.bound for p in rep.points)
    job.verdicts.append(Verdict("every replica below the bound", worst, 0.0,
                                {"n_grid": list(cfg.n_grid), "m": cfg.m}))
    if leg == "d1":
        c, h = RATE_SLOPE_WINDOW
        job.verdicts.append(Verdict(f"log-log slope within [{c - h}, {c + h}]",
                                    abs(rep.fit.slope - c), h,
                                    {"slope": rep.fit.slope,
                                     "correlation": rep.fit.correlation}))
    job.fits[f"rate_{leg}"] = {
        "slope": rep.fit.slope,
        "intercept": rep.fit.intercept,
        "correlation": rep.fit.correlation,
    }
    job.tables[f"rate_{leg}"] = (
        ("n", "w2_hat", "ci_lo", "ci_hi", "bound"),
        [(p.n, p.w2_hat, p.ci_lo, p.ci_hi, p.bound) for p in rep.points],
    )
    job.tables[f"rate_{leg}_replicas"] = (
        ("n", "replica", "w2_hat"),
        [
            (p.n, r, v)
            for p in rep.points
            for r, v in enumerate(p.replica_values)
        ],
    )
    ns = [p.n for p in rep.points]
    job.plotdata[f"rate_{leg}"] = (ns, [p.w2_hat for p in rep.points])
    job.plotdata[f"rate_{leg}_bound"] = (ns, [p.bound for p in rep.points])
    return job


def _lower_job(settings: RunSettings, leg: str) -> JobResult:
    cfg = settings.lower_d1 if leg == "d1" else settings.lower_d2
    rep = lattice_lower_experiment(cfg, settings.seed, _leg_index(leg))
    job = JobResult(job_id=f"lower:{leg}", anchor=LOWER_ANCHOR)
    job.meta = {"m_w2": cfg.m_w2, "m_proxy": cfg.m_proxy, "estimator": cfg.estimator,
                "sampler": _sampler_meta(cfg.sampler)}
    ratio = rep.plateau_vs_target
    if leg == "d1":
        c, h = PLATEAU_WINDOW
        job.verdicts.append(Verdict("sqrt(n) x lattice proxy within 4% of the target",
                                    abs(ratio - c), h,
                                    {"plateau": rep.plateau_value, "target": rep.target}))
        w2_ratio = rep.points[-1].sqrtn_w2_hat / rep.target
        job.verdicts.append(Verdict("sqrt(n) x empirical W2 above 96% of the target",
                                    0.96, w2_ratio,
                                    {"sqrtn_w2": rep.points[-1].sqrtn_w2_hat}))
    else:
        job.verdicts.append(Verdict("sqrt(n) x lattice proxy above 95% of the target",
                                    0.95, ratio,
                                    {"plateau": rep.plateau_value, "target": rep.target}))
    job.tables[f"lower_{leg}"] = (
        ("n", "ell_n", "sqrtn_w2_hat", "sqrtn_proxy", "proxy_se",
         "percube_measured", "percube_quadrature", "percube_claim_half_sqrtd"),
        [
            (p.n, p.ell_n, p.sqrtn_w2_hat, p.sqrtn_proxy, p.proxy_se,
             p.percube_measured, p.percube_quadrature, p.percube_claim_half_sqrtd)
            for p in rep.points
        ],
    )
    ns = [p.n for p in rep.points]
    job.plotdata[f"lower_{leg}_proxy"] = (ns, [p.sqrtn_proxy for p in rep.points])
    job.plotdata[f"lower_{leg}_w2"] = (ns, [p.sqrtn_w2_hat for p in rep.points])
    return job


def _ci_job(settings: RunSettings, leg: str) -> JobResult:
    if leg == "calibration":
        rng = rng_for(settings.seed, _CI_CALIBRATION_JOB)
        res = ci_calibration(settings.calibration_m, rng)
        job = JobResult(job_id="ci:calibration", anchor=CI_ANCHOR)
        slack = halfspace_slack(settings.calibration_m)
        job.verdicts.append(Verdict("shifted-Gaussian halfspace sup matches 2 Phi(1/4) - 1",
                                    abs(res.delta_hat - res.delta_exact), slack,
                                    {"delta_exact": res.delta_exact, "w2": res.w2}))
        job.verdicts.append(Verdict("conversion bound dominates the calibration instance",
                                    res.delta_hat, res.rhs + slack, {"rhs": res.rhs}))
        return job
    cfg = settings.ci_d1 if leg == "d1" else settings.ci_d2
    rep = ci_halfspace_experiment(cfg, settings.seed, _leg_index(leg))
    job = JobResult(job_id=f"ci:{leg}", anchor=CI_ANCHOR)
    job.meta = {"m": cfg.m, "w2_m": cfg.w2_cloud, "directions": cfg.directions,
                "estimator": cfg.estimator,
                "sampler": _sampler_meta(cfg.sampler)}
    worst = max(p.delta_hat - (p.rhs + p.slack) for p in rep.points)
    job.verdicts.append(Verdict("delta_hat below the conversion bound at every grid point",
                                worst, 0.0, {"n_grid": list(cfg.n_grid), "m": cfg.m}))
    job.verdicts.append(Verdict(f"log delta_hat decay slope at most {CI_DECAY_SLOPE_MAX}",
                                rep.decay_slope, CI_DECAY_SLOPE_MAX))
    job.fits[f"ci_{leg}"] = {"decay_slope": rep.decay_slope}
    job.tables[f"ci_{leg}"] = (
        ("n", "delta_hat", "w2_hat", "conversion_rhs", "slack"),
        [(p.n, p.delta_hat, p.w2_hat, p.rhs, p.slack) for p in rep.points],
    )
    ns = [p.n for p in rep.points]
    s = cfg.sampler.build()
    job.plotdata[f"ci_{leg}_delta"] = (ns, [p.delta_hat for p in rep.points])
    job.plotdata[f"ci_{leg}_bentkus_reference"] = (
        ns, [bentkus_reference_curve(s.dim, n, s.bound) for n in ns]
    )
    return job


def run_job(settings: RunSettings, job_id: str) -> JobResult:
    kind, _, name = job_id.partition(":")
    if kind == "check":
        entry = checker_entry(name)
        return JobResult(job_id=job_id, anchor=entry.anchor,
                         verdicts=entry.runner(settings.check, settings.seed))
    if kind == "rate":
        return _rate_job(settings, name)
    if kind == "lower":
        return _lower_job(settings, name)
    if kind == "ci":
        return _ci_job(settings, name)
    raise ValueError(f"unknown job {job_id!r}")


def jobs_for(subcommand: str, settings: RunSettings, only: str = None) -> list[str]:
    check_jobs = [f"check:{cid}" for cid in checker_ids()]
    if only is not None:
        if only not in checker_ids():
            raise UsageError(
                f"unknown checker {only!r}; run the list subcommand for ids"
            )
        check_jobs = [f"check:{only}"]
    exp_jobs = {
        "rate": ["rate:d1", "rate:d2"],
        "lower": ["lower:d1", "lower:d2"],
        "ci": ["ci:calibration", "ci:d1", "ci:d2"],
    }
    if subcommand == "check":
        return check_jobs
    if subcommand in exp_jobs:
        if only is not None:
            raise UsageError("--only applies to the check/all subcommands")
        return exp_jobs[subcommand]
    if subcommand == "all":
        return check_jobs + exp_jobs["rate"] + exp_jobs["lower"] + exp_jobs["ci"]
    raise UsageError(f"unknown subcommand {subcommand!r}")


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def execute(settings: RunSettings, job_ids: list[str]) -> list[JobResult]:
    if settings.workers <= 1 or len(job_ids) == 1:
        results = [run_job(settings, j) for j in job_ids]
    else:
        with ProcessPoolExecutor(max_workers=settings.workers) as pool:
            futures = {pool.submit(run_job, settings, j): j for j in job_ids}
            results = [f.result() for f in futures]
    return sorted(results, key=lambda r: r.job_id)


def emit(settings: RunSettings, results: list[JobResult], verbose: int) -> int:
    cfg_dict = settings.semantic_dict()
    chash = config_hash(cfg_dict)
    meta = {"config_hash": chash, "root_seed": settings.seed,
            "schema_version": SCHEMA_VERSION}
    out = settings.out_dir
    os.makedirs(out, exist_ok=True)
    records = []
    fits = {}
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for res in results:
        for idx, v in enumerate(res.verdicts):
            counts[v.verdict] += 1
            records.append({
                "job": res.job_id,
                "index": idx,
                "checker": res.checker,
                "anchor": res.anchor,
                "case": v.case,
                "lhs": v.lhs,
                "rhs": v.rhs,
                "margin": v.margin,
                "verdict": v.verdict,
                "inputs": jsonable(v.inputs),
            })
            if verbose >= 2 or (verbose >= 1 and v.verdict != "pass"):
                print(f"[{v.verdict:^12}] {res.checker}: {v.case}")
        fits.update(res.fits)
        job_meta = {**meta, **res.meta}
        for name, (cols, rows) in res.tables.items():
            write_table_csv(os.path.join(out, "tables", f"{name}.csv"),
                            cols, rows, job_meta)
        for name, (xs, ys) in res.plotdata.items():
            write_plotdata(os.path.join(out, "plotdata", f"{name}.dat"),
                           xs, ys, job_meta)
    records.sort(key=lambda r: (r["job"], r["index"]))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "root_seed": settings.seed,
        "config_hash": chash,
        "config": cfg_dict,
        "summary": counts,
        "fits": fits,
        "verdicts": records,
    }
    write_verdicts_json(os.path.join(out, "verdicts.json"), payload)
    if verbose >= 1:
        print(f"verdicts: {counts['pass']} pass, {counts['fail']} fail, "
              f"{counts['inconclusive']} inconclusive -> {out}/verdicts.json")
        if counts["inconclusive"]:
            print(f"warning: {counts['inconclusive']} inconclusive verdicts")
    return 1 if counts["fail"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="w2lab",
        description="Verification suite for the quadratic-transport CLT laboratory.",
    )
    parser.add_argument("subcommand",
                        choices=["check", "rate", "lower", "ci", "all", "list"])
    parser.add_argument("--config", help="key = value config file (INI sections)")
    parser.add_argument("--seed", type=int, help="root seed (recorded in artifacts)")
    parser.add_argument("--workers", type=int, help="worker process count")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--only", help="run a single checker id (check/all)")
    parser.add_argument("-v", "--verbose", action="count", default=None,
                        help="increase verbosity (repeatable)")
    args = parser.parse_args(argv)

    try:
        settings = load_settings(
            path=args.config, seed=args.seed, workers=args.workers,
            out_dir=args.out, verbosity=args.verbose,
        )
        if args.subcommand == "list":
            for entry in REGISTRY:
                print(f"{entry.checker_id:24s} {entry.anchor}")
            return 0
        job_ids = jobs_for(args.subcommand, settings, only=args.only)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    results = execute(settings, job_ids)
    return emit(settings, results, settings.verbosity)


if __name__ == "__main__":
    sys.exit(main())
