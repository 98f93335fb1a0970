"""w2lab benchmark: end-to-end and per-layer metrics of CLI passes.

    python3 perfbench/run.py --workload smoke_all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  Each *pass* runs one workload through the
public ``w2lab.cli`` functions in a fresh interpreter (``cli_pass.py``),
closed loop: one pass at a time, from this single process, with the root
seed given by ``--seed``.

Workloads:

* ``smoke_all`` -- ``w2lab all --config configs/smoke.ini``: every checker
  and experiment job at reduced scale.  The transportation chain's grid LP
  dominates it; it is the only workload that runs the checkers.
* ``experiments_exact`` -- the ``rate``, ``lower`` and ``ci`` jobs at their
  default samplers, estimators and cloud sizes, with the d=2 n-grids cut
  short (``experiments_exact.ini``).  Exact assignment on 3000-point clouds
  dominates it; it never runs the chain or any checker.

``--trace 0`` runs ``PASSES`` passes with one worker (more while
``--seconds`` have not gone by) and set-up-only probes after one warm-up,
and reports the end-to-end metrics as medians over them.  ``--trace 1`` runs
a pool pass with two workers through ``cli.execute``'s process pool, an
untraced pass and a traced pass with one worker; the per-layer metrics come
from the traced pass (``tracing.py``), the pool pass gives the pool's
makespan, and the untraced pass gives the tracing overhead.

Correctness gate, per pass: the interpreter exits 0, ``emit`` reports no
failed verdict, every verdict is ``pass`` or ``inconclusive``, the
``summary`` equals the counts recomputed from the verdict records, every
job has records, and the digest of ``verdicts.json``, ``tables/`` and
``plotdata/`` equals that of every earlier pass with the same inputs: the
first pass of this invocation (so the pool pass, one worker and tracing
must all give byte-identical artifacts) and, through a digest store kept in
the checkout, earlier invocations with the same workload, seed and sources.
A traced pass also fails if a trace target is no longer in the program.
A pass that breaks any rule counts as failed; none is skipped.

Threads: every pass sets the BLAS/OpenMP thread count to 1 per process and
runs one worker, or ``min(2, nproc)`` in the pool pass, so runnable compute
threads never exceed ``nproc``, the same way for every workload.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and sample count, and the environment stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
DIGESTS = os.path.join(WORK, "digests.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 2  # set-up-only interpreters per untraced run, after one warm-up


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the checkout root
    subcommands: str


WORKLOADS = {
    "smoke_all": Workload("configs/smoke.ini", "all"),
    "experiments_exact": Workload("perfbench/experiments_exact.ini", "rate,lower,ci"),
}
PASSES = 2  # untraced passes per run, more while --seconds have not gone by
POOL_WORKERS = 2  # worker count of the traced run's pool pass

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verdicts_pass_frac", "frac"),
)

# Inclusive busy seconds of the traced pass.  A layer that a workload
# bypasses (experiments_exact runs no checker and no chain) reads 0 s there.
CHECK_JOBS = (
    "gauss-quad-expectation", "gauss-sampling", "w2-gaussian-metric",
    "ot-exact", "sinkhorn", "projection-lower", "sampler-zoo",
    "lattice-distance", "r-of-n", "q-abs-estimates", "q-moments",
    "chi2-identity", "averaged-identity", "conditional-l2", "exp-remainder",
    "talagrand-1d", "talagrand-2d", "increment-lemma", "naive-w2",
    "ank-schedule",
)
LAYER_SECONDS = (
    "job.rate.d1", "job.rate.d2", "job.lower.d1", "job.lower.d2",
    "job.ci.calibration", "job.ci.d1", "job.ci.d2",
) + tuple(f"job.check.{c}" for c in CHECK_JOBS) + (
    "cli.execute", "cli.emit", "config.load_settings",
    "densities.talagrand_chain", "densities.cell_masses", "densities.mixture",
    "densities.second_moment", "transport.w2_discrete_lp",
    "transport.w2_atomic_1d", "transport.w2_exact", "transport.w2_quantile_1d",
    "experiments.estimate_w2", "experiments.halfspace_distance",
    "experiments.expected_lattice_distance",
    "samplers.draw_sum", "gaussmath.sample_gaussian",
    "qstats.q_values", "qstats.estimate_q_moments",
    "qstats.conditional_l2_check", "bounds.increment_bound_check",
    "bounds.ank_bound_schedule", "transport.sinkhorn_w2",
    "transport.w2_projection_lower", "samplers.draw", "samplers.validate_sampler",
)
LAYER_COUNTS = (
    ("transport.w2_discrete_lp.calls", "count"),
    ("transport.w2_discrete_lp.vars", "count"),
    ("densities.mixture.evals", "count"),
    ("transport.w2_exact.calls", "count"),
    ("transport.w2_exact.points", "count"),
    ("transport.w2_quantile_1d.points", "count"),
    ("experiments.estimate_w2.calls", "count"),
    ("samplers.draw_sum.draws", "count"),
    ("gaussmath.sample_gaussian.draws", "count"),
    ("qstats.q_values.pairs", "count"),
    ("qstats.conditional_l2_check.calls", "count"),
    ("transport.sinkhorn_w2.iterations", "count"),
    ("gaussmath.gh_nodes_weights.calls", "count"),
    ("gaussmath.gh_nodes_weights.unique_frac", "frac"),
    ("reporting.files", "count"),
    ("reporting.bytes", "bytes"),
    ("verdicts.inconclusive", "count"),
    ("verdicts.fail", "count"),
    ("rate_slope_err_d1", "slope"),
    ("rate_slope_err_d2", "slope"),
    ("pool.execute.s", "s"),
    ("pool.busy_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)
PER_LAYER = (
    tuple((f"{n}.s", "s") for n in LAYER_SECONDS)
    + (("densities.talagrand_chain.self_s", "s"),)
    + LAYER_COUNTS
)


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def thread_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def run_pass(wl: Workload, seed: int, workers: int, tag: str,
             trace: bool = False, setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter; return timings and its record."""
    out = os.path.join(WORK, "out", tag)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    record_path = os.path.join(WORK, "records", f"{tag}.json")
    log_path = os.path.join(WORK, "records", f"{tag}.log")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_pass.py"),
           "--src", SRC, "--config", os.path.join(ROOT, wl.config),
           "--subcommands", wl.subcommands, "--seed", str(seed),
           "--workers", str(workers), "--out", out, "--record", record_path]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    with open(log_path, "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=thread_env(), cwd=ROOT,
                                start_new_session=True)
        # wait4 reports the pass and every descendant it reaped (pool workers)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # a pass that died abnormally may leave pool workers behind
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    result = {"tag": tag, "out": out, "log": log_path,
              "exit": proc.returncode, "wall_s": end - start,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "record": None}
    if os.path.exists(record_path):
        with open(record_path) as fh:
            rec = json.load(fh)
        result["record"] = rec
        result["setup_s"] = rec["first_job_start"] - start
    return result


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def artifact_digest(out: str) -> str:
    h = hashlib.sha256()
    files = [os.path.join(out, "verdicts.json")]
    for sub in ("tables", "plotdata"):
        for base, _, names in os.walk(os.path.join(out, sub)):
            files.extend(os.path.join(base, n) for n in names)
    for path in sorted(files):
        h.update(os.path.relpath(path, out).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def source_digest(wl: Workload) -> str:
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, wl.config)]
    for base, _, names in os.walk(os.path.join(SRC, "w2lab")):
        paths.extend(os.path.join(base, n) for n in names if n.endswith(".py"))
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def gate(result: dict, expected: str | None) -> tuple[list[str], str | None]:
    """(problems, artifact digest) of one pass; stores its verdict counts
    and fits in ``result``.  ``expected`` is the digest of an earlier pass
    with the same inputs, if there was one."""
    rec = result["record"]
    if rec is None:
        return [f"pass crashed (exit {result['exit']}, see {result['log']})"], None
    problems = []
    if result["exit"] != 0:
        problems.append(f"exit status {result['exit']}")
    try:
        with open(os.path.join(result["out"], "verdicts.json")) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + [f"verdicts.json unreadable: {exc}"], None
    counts = {}
    for v in payload["verdicts"]:
        counts[v["verdict"]] = counts.get(v["verdict"], 0) + 1
    result["verdicts"] = counts
    result["fits"] = payload.get("fits", {})
    if payload["summary"] != {k: counts.get(k, 0) for k in payload["summary"]}:
        problems.append(f"summary {payload['summary']} != records {counts}")
    if set(counts) - {"pass", "inconclusive"}:
        problems.append(f"verdicts other than pass/inconclusive: {counts}")
    jobs_seen = {v["job"] for v in payload["verdicts"]}
    if jobs_seen != set(rec["jobs"]):
        problems.append(f"jobs without records: {sorted(set(rec['jobs']) - jobs_seen)}")
    digest = artifact_digest(result["out"])
    if expected is not None and digest != expected:
        problems.append(f"artifacts differ from an earlier pass with the same "
                        f"inputs ({digest[:12]} != {expected[:12]})")
    return problems, digest


def load_store() -> dict:
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def save_store(store: dict) -> None:
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, sort_keys=True, indent=0)
    os.replace(tmp, DIGESTS)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_untraced(name: str, wl: Workload, seed: int, seconds: float):
    tag = f"{name}-s{seed}"
    run_pass(wl, seed, 1, f"{tag}-warmup", setup_only=True)
    passes = []
    begin = time.monotonic()
    while len(passes) < PASSES or time.monotonic() - begin < seconds:
        passes.append(run_pass(wl, seed, 1, f"{tag}-p{len(passes)}"))
    probes = [run_pass(wl, seed, 1, f"{tag}-probe{i}", setup_only=True)
              for i in range(SETUP_PROBES)]
    return passes, probes


def run_traced(name: str, wl: Workload, seed: int, workers: int):
    """Pool pass, untraced sequential pass, traced sequential pass."""
    tag = f"{name}-s{seed}"
    return [run_pass(wl, seed, workers, f"{tag}-pool"),
            run_pass(wl, seed, 1, f"{tag}-untraced"),
            run_pass(wl, seed, 1, f"{tag}-traced", trace=True)]


def verdict_metrics(result: dict) -> dict:
    counts = result.get("verdicts", {})
    total = sum(counts.values())
    fits = result.get("fits", {})
    out = {
        "verdicts_pass_frac": counts.get("pass", 0) / total if total else 0.0,
        "verdicts_fail": counts.get("fail", 0),
        "verdicts_inconclusive": counts.get("inconclusive", 0),
    }
    for leg in ("d1", "d2"):
        fit = fits.get(f"rate_{leg}")
        if fit is not None:
            out[f"rate_slope_err_{leg}"] = abs(fit["slope"] + 0.5)
    return out


def end_to_end(passes, probes) -> tuple[dict, dict]:
    """(metrics, sample counts) over the passes of an untraced run."""
    setups = [r["setup_s"] for r in passes + probes if "setup_s" in r]
    median = statistics.median
    metrics = {
        "wall_s": median([r["wall_s"] for r in passes]),
        "setup_s": median(setups),
        "cpu_s": median([r["cpu_s"] for r in passes]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in passes]),
    }
    samples = {k: len(passes) for k in metrics}
    samples["setup_s"] = len(setups)
    metrics.update(verdict_metrics(passes[0]))
    return metrics, samples


def per_layer(passes, workers: int) -> dict:
    pool, untraced, traced = passes
    layers = traced["record"]["layers"]
    out = {f"{n}.s": layers.get(f"{n}.s", 0.0) for n in LAYER_SECONDS}
    out["densities.talagrand_chain.self_s"] = layers.get(
        "densities.talagrand_chain.self_s", 0.0)
    for n, _ in LAYER_COUNTS:
        out[n] = layers.get(n, 0)
    files = size = 0
    for base, _, names in os.walk(traced["out"]):
        for fname in names:
            files += 1
            size += os.path.getsize(os.path.join(base, fname))
    out["reporting.files"] = files
    out["reporting.bytes"] = size
    vm = verdict_metrics(traced)
    out["verdicts.inconclusive"] = vm["verdicts_inconclusive"]
    out["verdicts.fail"] = vm["verdicts_fail"]
    out["rate_slope_err_d1"] = vm.get("rate_slope_err_d1", 0.0)
    out["rate_slope_err_d2"] = vm.get("rate_slope_err_d2", 0.0)
    job_s = sum(v for k, v in layers.items()
                if k.startswith("job.") and k.endswith(".s"))
    out["pool.execute.s"] = pool["record"]["execute_s"]
    out["pool.busy_frac"] = job_s / (workers * pool["record"]["execute_s"])
    out["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return out


def environment(name: str, wl: Workload, seed: int, workers: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": name, "seed": seed, "workers": workers,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}".strip(),
        "blas_threads_per_process": 1,
        "thread_policy": f"{'/'.join(THREAD_VARS)}=1 per process; "
                         f"1 worker, {workers} in the traced run's pool pass",
        "commit": commit, "source_sha256": source_digest(wl)[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    for needed in (os.path.join(SRC, "w2lab", "cli.py"), os.path.join(ROOT, wl.config)):
        if not os.path.exists(needed):
            print(f"error: {needed} not found; run from a w2lab source checkout",
                  file=sys.stderr)
            return 2
    workers = min(POOL_WORKERS, os.cpu_count() or 1)
    os.makedirs(WORK, exist_ok=True)
    env = environment(args.workload, wl, args.seed, workers)

    if args.trace:
        passes = run_traced(args.workload, wl, args.seed, workers)
        probes = []
    else:
        passes, probes = run_untraced(args.workload, wl, args.seed, args.seconds)
    store = load_store()
    key = f"{args.workload}:{args.seed}:{env['source_sha256']}"
    expected = store.get(key)
    failed = 0
    for result in passes:
        problems, digest = gate(result, expected)
        expected = expected or digest
        missing = (result["record"] or {}).get("missing_targets")
        if missing:  # their layers would read 0 s, as if sped up
            problems.append(f"trace targets not found: {missing}")
        for problem in problems:
            print(f"FAIL {result['tag']}: {problem}")
        failed += bool(problems)
    for probe in probes:
        if probe["record"] is None or probe["exit"] != 0:
            print(f"FAIL {probe['tag']}: set-up probe exit {probe['exit']}")
            failed += 1
    if expected is not None and key not in store:
        store[key] = expected
        save_store(store)

    attempted = len(passes) + len(probes)
    correct = failed == 0
    print("env " + json.dumps(env, sort_keys=True))
    if correct and args.trace:
        layers = passes[-1]["record"]["layers"]
        for k in sorted(layers):  # every span's seconds, bypassed layers too
            print(f"  trace {k} = {layers[k]!r}")
        values = per_layer(passes, workers)
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
        for n, u in PER_LAYER:
            print(f"  {n} = {values[n]!r} {u}")
    elif correct:
        values, samples = end_to_end(passes, probes)
        units = dict(END_TO_END)
        units.update(verdicts_fail="count", verdicts_inconclusive="count",
                     rate_slope_err_d1="slope", rate_slope_err_d2="slope")
        for n in sorted(values):
            n_samples = samples.get(n, len(passes))
            print(f"  {n} = {values[n]!r} {units[n]} (median of {n_samples})")
        print(f"  failed_frac = {failed / attempted!r} frac "
              f"({failed} of {attempted} runs)")
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    else:
        metrics = {}  # a pass without verdicts leaves nothing to measure
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    with open(os.path.join(WORK, f"last-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({"summary": summary, "env": env,
                   "passes": [{k: v for k, v in r.items() if k != "record"}
                              for r in passes + probes]}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
