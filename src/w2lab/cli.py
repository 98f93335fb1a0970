"""Command-line entry point: deterministic suite execution and report emission.

Subcommands
-----------
check   run the checker registry (optionally one checker via --only)
rate    rate experiments (exact W2(S_n, Z) of the lattice laws)
lower   lattice lower-bound experiments (exact lattice floor)
ci      exact halfspace-distance experiments
all     everything above
list    print the checker registry (id and anchor)

A job id is ``kind:name``; ``run_job`` finds its kind in one table.  A check
job runs its ``REGISTRY`` entry, an experiment leg the settings field
``{kind}_{name}``: the experiment jobs are those fields, in field order, so a
new leg is one ``RunSettings`` field.  The registry loads on first use, by
``check``, ``all``, ``list`` or an ``--only`` id to validate, so ``rate``,
``lower`` and ``ci`` never load :mod:`w2lab.checks` nor the modules only the
checkers use.  Every check job gets one generator,
``rng_for(root seed, *the UTF-8 bytes of its id)``: distinct ids are distinct
seed paths, so a job's numbers depend on the root seed and its id alone,
never on the worker count, the job order or which other jobs run.  An
experiment leg draws nothing and gets none, so ``rate``, ``lower`` and ``ci``
never load ``numpy.random``.  The experiment records are
stated here, as ``Verdict(case, lhs, rhs)`` with both sides exact points; a
window around a centre is ``(|x - centre|, half-width)``.  Every leg's config
requires the exact law of S_n, so every record rests on the exact W2: each
rate leg gets the slope window, each lower leg the cross-check of the floor
against the exact W2, and each ci leg the conversion bound at the exact W2.
A record depends on the leg's config, never on its name.  Each job states
its anchor once (a checker's ``REGISTRY`` entry, or one constant per
experiment kind here) and stamps it, with its checker id, on every record.

Artifacts land in the output directory: ``verdicts.json`` (strict JSON, every
non-finite number as ``null``), plus for the experiments ``tables/*.csv`` and
``plotdata/*.dat`` read from the named fields of each report's points, every
file stamped with the config hash and root seed.  Exit status: 0 when nothing
failed (inconclusive verdicts only warn), 1 on any failed verdict, 2 on
usage or configuration errors.  Every artifact is written before the first
verdict line prints, so a closed standard output loses none, and ``main``
then exits quietly with the same verdict status.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .config import RunSettings, UsageError, load_settings
from .experiments import (
    bentkus_reference_curve,
    ci_halfspace_experiment,
    clt_rate_experiment,
    lattice_lower_experiment,
)
from .reporting import (
    SCHEMA_VERSION,
    Verdict,
    config_hash,
    write_plotdata,
    write_table_csv,
    write_verdicts_json,
)
from .seeding import rng_for

# windows as (centre, half-width): a record is (|x - centre|, half-width)
RATE_SLOPE_WINDOW = (-0.5, 0.15)
CI_DECAY_SLOPE_MAX = -0.25

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
# jobs -> verdicts + artifacts
# ---------------------------------------------------------------------------

@functools.cache
def _checkers() -> dict:
    """The checker registry by id, in its order, loaded on first use: ``check``,
    ``all``, ``list`` and ``--only`` load it; ``rate``, ``lower`` and ``ci``
    never load :mod:`w2lab.checks` or the modules only it uses."""
    from .checks import REGISTRY

    return {entry.checker_id: entry for entry in REGISTRY}


def _leg_meta(cfg) -> dict:
    """Artifact metadata of an experiment leg: its sampler."""
    s = cfg.sampler
    return {"sampler": f"{s.kind}(dim={s.dim},scale={s.scale})"}


def _table(points) -> tuple:
    """(columns, rows) of every field of each point."""
    columns = tuple(f.name for f in fields(points[0]))
    return columns, [tuple(getattr(p, c) for c in columns) for p in points]


def _series(points, column: str) -> tuple:
    """Plot data: the named field of each point against its n."""
    return [p.n for p in points], [getattr(p, column) for p in points]


def _check_job(settings: RunSettings, checker_id: str, rng) -> JobResult:
    entry = _checkers()[checker_id]
    return JobResult(job_id=f"check:{checker_id}", anchor=entry.anchor,
                     verdicts=entry.runner(rng))


def _rate_job(settings: RunSettings, leg: str) -> JobResult:
    cfg = getattr(settings, f"rate_{leg}")
    rep = clt_rate_experiment(cfg)
    job = JobResult(job_id=f"rate:{leg}", anchor=RATE_ANCHOR, meta=_leg_meta(cfg))
    worst = np.max([p.w2_hat - p.bound for p in rep.points])
    job.verdicts.append(Verdict("exact W2(S_n, Z) below the bound at every grid point",
                                worst, 0.0, {"n_grid": list(cfg.n_grid)}))
    c, h = RATE_SLOPE_WINDOW
    job.verdicts.append(Verdict(f"log-log slope of exact W2 within [{c - h}, {c + h}]",
                                abs(rep.fit.slope - c), h,
                                {"slope": rep.fit.slope, "correlation": rep.fit.correlation}))
    job.fits[f"rate_{leg}"] = asdict(rep.fit)
    job.tables[f"rate_{leg}"] = _table(rep.points)
    job.plotdata[f"rate_{leg}"] = _series(rep.points, "w2_hat")
    job.plotdata[f"rate_{leg}_bound"] = _series(rep.points, "bound")
    return job


def _lower_job(settings: RunSettings, leg: str) -> JobResult:
    cfg = getattr(settings, f"lower_{leg}")
    rep = lattice_lower_experiment(cfg)
    job = JobResult(job_id=f"lower:{leg}", anchor=LOWER_ANCHOR, meta=_leg_meta(cfg))
    last = rep.points[-1]
    job.verdicts.append(Verdict("sqrt(n) x exact lattice floor at the largest n reaches the target",
                                rep.target, last.sqrtn_floor, {"n": last.n}))
    worst = np.max([p.sqrtn_floor - p.sqrtn_bound for p in rep.points])
    job.verdicts.append(Verdict("exact lattice floor below the rate bound at every grid point",
                                worst, 0.0, {"n_grid": list(cfg.n_grid)}))
    # a theorem: a bug in either primitive fails it
    worst = np.max([p.sqrtn_floor - p.sqrtn_w2_hat for p in rep.points])
    job.verdicts.append(Verdict("exact lattice floor <= exact W2(S_n, Z) at every grid point",
                                worst, 0.0, {"n_grid": list(cfg.n_grid)}))
    job.tables[f"lower_{leg}"] = _table(rep.points)
    job.plotdata[f"lower_{leg}_floor"] = _series(rep.points, "sqrtn_floor")
    job.plotdata[f"lower_{leg}_w2"] = _series(rep.points, "sqrtn_w2_hat")
    return job


def _ci_job(settings: RunSettings, leg: str) -> JobResult:
    cfg = getattr(settings, f"ci_{leg}")
    rep = ci_halfspace_experiment(cfg)
    job = JobResult(job_id=f"ci:{leg}", anchor=CI_ANCHOR, meta=_leg_meta(cfg))
    worst = np.max([p.delta - p.conversion_rhs for p in rep.points])
    job.verdicts.append(Verdict("exact delta below the conversion bound at every grid point",
                                worst, 0.0, {"n_grid": list(cfg.n_grid)}))
    job.verdicts.append(Verdict(f"log delta decay slope at most {CI_DECAY_SLOPE_MAX}",
                                rep.decay_slope, CI_DECAY_SLOPE_MAX))
    job.fits[f"ci_{leg}"] = {"decay_slope": rep.decay_slope}
    job.tables[f"ci_{leg}"] = _table(rep.points)
    job.plotdata[f"ci_{leg}_delta"] = _series(rep.points, "delta")
    s = cfg.law
    ns = [p.n for p in rep.points]
    job.plotdata[f"ci_{leg}_bentkus_reference"] = (
        ns, [bentkus_reference_curve(s.dim, n, s.bound) for n in ns])
    return job


# a check job's builder takes its generator; an experiment leg draws nothing and gets none
_JOB_KINDS = {"check": _check_job, "rate": _rate_job, "lower": _lower_job, "ci": _ci_job}
# the settings fields ``{kind}_{leg}`` of the experiment kinds, in field order
EXPERIMENT_JOBS = tuple(f"{kind}:{leg}" for kind, _, leg in
                        (f.name.partition("_") for f in fields(RunSettings))
                        if leg and kind in _JOB_KINDS)


def run_job(settings: RunSettings, job_id: str) -> JobResult:
    """Run one job; a check job on its own generator, whose seed path is its id's
    UTF-8 bytes."""
    kind, _, name = job_id.partition(":")
    if kind not in _JOB_KINDS:
        raise ValueError(f"unknown job {job_id!r}")
    if kind == "check":
        return _JOB_KINDS[kind](settings, name, rng_for(settings.seed, *job_id.encode()))
    return _JOB_KINDS[kind](settings, name)


def jobs_for(subcommand: str, settings: RunSettings, only: str = None) -> list[str]:
    """The job ids a subcommand runs, in order; ``list`` runs none."""
    if only is not None and subcommand not in ("check", "all"):
        raise UsageError("--only applies to the check/all subcommands")
    if subcommand in ("check", "all"):
        if only is not None and only not in _checkers():
            raise UsageError(f"unknown checker {only!r}; run the list subcommand for ids")
        check_jobs = [f"check:{cid}" for cid in _checkers() if only in (None, cid)]
        return check_jobs if subcommand == "check" else check_jobs + list(EXPERIMENT_JOBS)
    exp_jobs = [j for j in EXPERIMENT_JOBS if j.startswith(f"{subcommand}:")]
    if not exp_jobs and subcommand != "list":
        raise UsageError(f"unknown subcommand {subcommand!r}")
    return exp_jobs


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def execute(settings: RunSettings, job_ids: list[str]) -> list[JobResult]:
    if settings.workers <= 1 or len(job_ids) == 1:
        results = [run_job(settings, j) for j in job_ids]
    else:
        from concurrent.futures import ProcessPoolExecutor  # here, so a 1-worker run skips its 16 ms

        # the fork start method forks every worker at the first submit: none beyond the jobs
        with ProcessPoolExecutor(max_workers=min(settings.workers, len(job_ids))) as pool:
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
                "lhs_lo": v.lhs_lo,
                "rhs": v.rhs,
                "rhs_hi": v.rhs_hi,
                "margin": v.margin,
                "verdict": v.verdict,
                "inputs": v.inputs,
            })
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
    # print only once every artifact is written, so a closed stdout loses none
    for r in records:
        if verbose >= 2 or (verbose >= 1 and r["verdict"] != "pass"):
            print(f"[{r['verdict']:^12}] {r['checker']}: {r['case']}")
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
        job_ids = jobs_for(args.subcommand, settings, only=args.only)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    results = execute(settings, job_ids) if job_ids else []
    status = 1 if any(v.verdict == "fail" for res in results for v in res.verdicts) else 0
    try:
        if args.subcommand == "list":
            print("\n".join(f"{e.checker_id:24s} {e.anchor}" for e in _checkers().values()))
        else:
            emit(settings, results, settings.verbosity)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed (``| head``) after every artifact was written: exit quietly, with
        # stdout on the null device so that the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
