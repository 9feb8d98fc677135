"""Paired benchmark runs of two revisions, written to one JSON file.

    python3 tools/bench_pairs.py --base <rev> --head <rev> --pairs 10 \
        --workloads descent-r4,torsion,verify-r4-jobs2 --out BENCH_<n>.json

Both revisions are exported with ``git archive`` into fresh trees under a
temporary directory.  For every workload, each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0

once in each tree, one after the other; which side goes first alternates
from pair to pair, so a slow spell of the host falls on both sides alike.
After a workload's pairs, one more run per side, base first, passes
``--trace 1`` and gives that side's per-layer metrics (call counts, self
times, shape-cache misses); its spans slow it down, so it enters no
end-to-end figure.  The file records the host, the revisions, every run's
end-to-end metrics, per metric and workload the median and quartiles of
each side and the pairs the head side won, and each side's traced layers.
Which direction is better comes from ``BENCHMARK.json`` in the head tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """Write the files of ``rev`` into the new directory ``dest``."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree: str, workload: str, seed: int, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs won by head."""
    out = {}
    for name, direction in better.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        won = sum((h < b) if direction == "lower" else (h > b) for b, h in zip(base, head))
        out[name] = {
            "unit": runs["base"][0]["metrics"][name]["unit"],
            "better": direction,
            "base": summary(base),
            "head": summary(head),
            "head_won": won,
            "pairs": len(base),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="the revision measured against")
    ap.add_argument("--head", required=True, help="the revision measured")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--workdir", default=None, help="where the temporary trees go")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    revs = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    tmp = tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir)
    try:
        trees = {side: os.path.join(tmp, side) for side in revs}
        for side, tree in trees.items():
            export(revs[side], tree)
        with open(os.path.join(trees["head"], "BENCHMARK.json")) as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        workloads = {}
        for workload in args.workloads.split(","):
            runs: dict[str, list[dict]] = {"base": [], "head": []}
            for i in range(args.pairs):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    runs[side].append(run_once(trees[side], workload, args.seed))
                print(f"{workload} pair {i + 1}/{args.pairs}: "
                      + ", ".join(f"{s} {runs[s][-1]['metrics']['verdict_s']['value']:.2f} s" for s in runs),
                      file=sys.stderr)
            traced = {side: run_once(trees[side], workload, args.seed, trace=1) for side in ("base", "head")}
            every_run = [*runs["base"], *runs["head"], *traced.values()]
            workloads[workload] = {
                "correct": all(r["correct"] for r in every_run),
                "failed": sum(r["failed"] for r in every_run),
                "metrics": compare(runs, better),
                "runs": runs,
                "layers": {side: run["metrics"] for side, run in traced.items()},
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0",
        "layers_command": "python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 1",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "revisions": revs,
        "seed": args.seed,
        "pairs": args.pairs,
        "order": "pair i runs base first when i is even, head first when i is odd",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": workloads,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
