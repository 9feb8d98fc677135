"""Fast tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
TINY = ["--seconds", "0", "--max-rank", "2", "--torsion-samples", "20"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(out_dir, *args, cwd=ROOT, script=RUN) -> subprocess.CompletedProcess:
    cmd = [sys.executable, script, "--out-dir", str(out_dir), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    res = result_of(run_bench(tmp_path, "--workload", workload, "--seed", "3", "--trace", str(trace), *TINY))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in res["metrics"].items()}
    for value in res["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if workload == "verify-r4-jobs2" and trace:  # the traced pool run sees the workers
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert m["campaign.scenarios"] == m["campaign.check_scenario.samples"] > 0
        assert m["descent.descend.calls"] == m["campaign.scenarios"]
        assert m["campaign.pool.worker_cpu_s"] > 0
        assert m["intlinalg.hnf_rows.calls"] > 0


@pytest.mark.parametrize("workload", ["descent-r4", "verify-r4-jobs2"])
def test_injected_fault_is_reported_as_failed_operations(tmp_path, workload):
    res = result_of(
        run_bench(tmp_path, "--workload", workload, "--seed", "3", "--trace", "0", "--fault", "corrupt-sbar0", *TINY)
    )
    assert res["correct"] is True  # the checks agree with each other on the faulty records
    assert 0 < res["failed"] < res["attempted"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path / "out", "--workload", "torsion", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
