"""endokit's benchmark: time to verdict of ``endokit verify`` workloads.

    python3 perfbench/run.py --workload descent-r4 --seed 0 --seconds 1 --trace 0

Run from the root of a source checkout.  Each round is a fresh process that
runs the workload's ``endokit verify`` command (see ``workloads.py``), then a
second fresh process checks the report it wrote (see ``check.py``).  Rounds
repeat until ``--seconds`` have passed; every round is whole.  A few more
processes only import the library, to sample set-up time.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, medians over the rounds; with ``--trace 1`` the
rounds run with spans around endokit's layers (see ``spans.py``) and the
metrics are the per-layer ones.  Exits non-zero, printing no result, when a
round cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from spans import unit_of
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170  # a run ends well within 180 s, or fails
SETUP_PROBES = 8  # one probe takes about 0.2 s; one alone spreads from 0.16 to 0.32 s

END_TO_END = {"setup_s": "s", "verdict_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}


class RunFailed(Exception):
    pass


def _child(script: str, argv: list[str], deadline: float) -> dict:
    """Run one of the benchmark's scripts in a fresh interpreter; return the
    JSON object on the last line of its output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, os.path.join(HERE, script)] + argv
    # A session of its own, so that a timeout also stops the pool workers.
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{script} did not finish within the run's deadline") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{script} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _round(args, max_rank: int, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed), "--max-rank", str(max_rank)] + (
        ["--fault", args.fault] if args.fault else []
    )
    timed = _child(
        "workload.py",
        common + ["--out-dir", args.out_dir, "--trace", str(args.trace), "--spawned-at", repr(time.monotonic())]
        + (["--torsion-samples", str(args.torsion_samples)] if args.torsion_samples else []),
        deadline,
    )
    checked = _child(
        "check.py", common + ["--report", timed["report"], "--torsion-samples", str(timed["torsion_samples"])], deadline
    )
    if (timed["exit_code"] != 0) != (checked["failed"] > 0):
        checked["correct"] = False
        checked["problems"].append(f"verify exited {timed['exit_code']} with {checked['failed']} failed operations")
    return timed, checked


def measure(args) -> dict:
    wl = WORKLOADS[args.workload]
    max_rank = args.max_rank or wl.max_rank
    started = time.monotonic()
    deadline = started + DEADLINE_S
    rounds = []
    while True:
        timed, checked = _round(args, max_rank, deadline)
        rounds.append((timed, checked))
        print(f"round {len(rounds)}: {json.dumps({k: v for k, v in timed.items() if k != 'layers'})} "
              f"check {json.dumps(checked)}")
        if time.monotonic() - started >= args.seconds:
            break
    if args.trace:
        names = rounds[0][0]["layers"]
        metrics = {
            name: {"value": statistics.median(t["layers"][name] for t, _ in rounds), "unit": unit_of(name)}
            for name in names
        }
    else:
        setups = [t["setup_s"] for t, _ in rounds]
        for _ in range(SETUP_PROBES):
            probe = _child(
                "workload.py",
                ["--workload", args.workload, "--seed", str(args.seed), "--out-dir", args.out_dir, "--setup-only",
                 "--spawned-at", repr(time.monotonic())],
                deadline,
            )
            setups.append(probe["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for name in ("verdict_s", "ops_per_s", "peak_rss_mb"):
            metrics[name] = {"value": statistics.median(t[name] for t, _ in rounds), "unit": END_TO_END[name]}
    return {
        "correct": all(c["correct"] for _, c in rounds),
        "attempted": sum(t["ops"] for t, _ in rounds),
        "failed": sum(c["failed"] for _, c in rounds),
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=os.path.join(HERE, "out"), help="reports and traces")
    ap.add_argument("--fault", choices=("corrupt-sbar0",), default=None,
                    help="inject a fault, to see the checks fail")
    ap.add_argument("--max-rank", type=int, default=None, help="shrink the workload (fast tests)")
    ap.add_argument("--torsion-samples", type=int, default=None, help="shrink the torsion suite (fast tests)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "endokit", "__init__.py")):
        print(f"no endokit source under {SRC}: run from the root of an endokit checkout", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        result = measure(args)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
