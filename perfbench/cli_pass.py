"""One w2lab pass, in-process, in the fresh interpreter that runs this file.

Drives the public CLI functions in order: ``load_settings`` -> ``jobs_for``
(once per subcommand) -> ``execute`` -> ``emit``, the same calls ``w2lab``'s
``main`` makes, so several subcommands can share one ``verdicts.json``.  It
writes a JSON record with monotonic timestamps (the parent compares them with
its own clock reading taken before it started this interpreter), the exit
code ``emit`` returned and, with ``--trace``, the per-layer metrics.

    python3 perfbench/cli_pass.py --src src --config configs/smoke.ini \
        --subcommands all --seed 1 --workers 1 --out OUT --record REC.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True, help="directory holding w2lab")
    parser.add_argument("--config", required=True)
    parser.add_argument("--subcommands", required=True, help="comma-separated")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first job would start")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from w2lab import cli

    tracer = missing = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        _, missing = tracing.install(tracer)
    settings = cli.load_settings(path=args.config, seed=args.seed,
                                 workers=args.workers, out_dir=args.out)
    jobs = [j for sub in args.subcommands.split(",")
            for j in cli.jobs_for(sub, settings)]
    record = {"jobs": jobs, "first_job_start": time.monotonic()}
    rc = 0
    if not args.setup_only:
        results = cli.execute(settings, jobs)
        record["execute_s"] = time.monotonic() - record["first_job_start"]
        rc = cli.emit(settings, results, settings.verbosity)
    record["rc"] = rc
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["missing_targets"] = missing
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
