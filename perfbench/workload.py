"""One timed round of a workload, in a fresh process.

Runs ``endokit verify`` with the workload's arguments, in-process, through
the CLI's own code path, so the memo tables and the shape cache start cold as
they do for a user.  Prints one JSON line with the round's timings.

    python3 perfbench/workload.py --workload descent-r4 --seed 0 \
        --out-dir perfbench/out --spawned-at <time.monotonic() of the parent>
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time
from dataclasses import replace

from workloads import WORKLOADS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cpu_s(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--fault", default=None)
    ap.add_argument("--max-rank", type=int, default=None)
    ap.add_argument("--torsion-samples", type=int, default=None)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    import endokit.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"endokit was imported from {cli.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from spans import Tracer

        for stale in glob.glob(os.path.join(args.out_dir, "worker-*.json")):
            os.remove(stale)
        tracer = Tracer(args.out_dir)
        tracer.install()

    report_path = os.path.join(args.out_dir, f"report-{wl.name}.json")
    argv = wl.verify_args(args.seed, report_path, args.max_rank)
    if args.fault:
        argv += ["--inject-fault", args.fault]
    run: dict = {}
    run_campaign = cli.run_campaign

    def timed_campaign(spec, jobs=1):
        if args.torsion_samples:
            spec = replace(spec, torsion_samples=args.torsion_samples)
        run["spec"] = spec
        cpu0 = _cpu_s(resource.RUSAGE_SELF)
        run["start"] = time.perf_counter()
        report = run_campaign(spec, jobs=jobs)
        run["end"] = time.perf_counter()
        run["campaign_cpu_s"] = _cpu_s(resource.RUSAGE_SELF) - cpu0
        run["report"] = report
        return report

    cli.run_campaign = timed_campaign
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    try:
        cli.main.main(args=argv, standalone_mode=False)
        exit_code = 0
    except SystemExit as exc:  # the CLI exits 1 when an identity fails
        exit_code = exc.code
    done = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = run["report"]
    if wl.operation == "scenario":
        ops = len({r.scenario for r in report.records})
    elif wl.operation == "sample":
        ops = len(report.records) * run["spec"].torsion_samples
    else:
        ops = len(report.records)
    campaign_s = run["end"] - run["start"]
    result = {
        "setup_s": setup_s,
        "verdict_s": done - run["start"],
        "campaign_s": campaign_s,
        "ops": ops,
        "ops_per_s": ops / campaign_s,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": exit_code,
        "report": report_path,
        "torsion_samples": run["spec"].torsion_samples,
    }
    if tracer is not None:
        run.update(
            verdict_s=result["verdict_s"],
            report_s=done - run["end"],
            report_mb=os.path.getsize(report_path) / 2**20,
            suite_timings=report.timings,
        )
        layers = tracer.layer_metrics(run)
        tracer.write(os.path.join(args.out_dir, f"trace-{wl.name}.jsonl"), layers)
        result["layers"] = layers
    print(json.dumps(result))
    sys.stdout.flush()
    # Skip the interpreter's teardown of several hundred MB of records.
    os._exit(0)


if __name__ == "__main__":
    main()
