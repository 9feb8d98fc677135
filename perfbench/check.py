"""Correctness checks of one round's report, in a fresh process.

Nothing here is timed.  The checks:

- the report re-parses and ``meta.record_count`` matches its records;
- failing records are counted as failed operations;
- descent workloads: every corpus scenario carries exactly the 15 descent
  checks, a seeded sample of scenarios re-checked through ``check_scenario``
  without a shape cache gives the same records, and in the ``--jobs 2``
  verify run the descent records of the scenarios with surrogate q = 3 hash
  the same as those of a single-process campaign that the checker runs
  afresh over those scenarios;
- torsion: a seeded sample of odd-orthogonal pairs goes through
  ``correspond_mu`` and is compared with a plain ``Counter`` form of the
  documented rule (drop one eigenvalue 1 from each side, keep the first side,
  negate the second).

Prints one JSON line: ``{"correct", "failed", "problems"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction

from workloads import DESCENT_CHECKS, WORKLOADS

RECHECK_SAMPLE = 200
TORSION_PAIRS = 2000
# The pooled records of the scenarios with this surrogate q are compared with
# a fresh single-process campaign.  At rank 4 that is 1,810 of the 20,640
# scenarios, of every rank, and takes about 7 s on a 2-vCPU host, against
# about 40 s for the whole corpus.
REFERENCE_Q = 3


def descent_hash(records: list[dict]) -> str:
    """sha256 of the descent records, as sorted-key JSON, in report order."""
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def single_process_hash(max_rank: int, fault: str | None) -> str:
    """The descent records' hash of a fresh single-process descent campaign
    over the scenarios with surrogate ``REFERENCE_Q``."""
    from endokit.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(max_rank=max_rank, suites=("descent",), q_values=(REFERENCE_Q,), fault=fault)
    return descent_hash([r.to_dict() for r in run_campaign(spec).records])


def check_descent(wl, checks: list[dict], args, problems: list[str]) -> int:
    """Checks of the descent records; returns the failed operations."""
    from endokit.campaign import CampaignSpec, check_scenario, scenario_corpus

    corpus = list(scenario_corpus(CampaignSpec(max_rank=args.max_rank)))
    by_digest: dict[str, list[dict]] = {sc.digest(): [] for sc in corpus}
    descent_records = []
    for rec in checks:
        recs = by_digest.get(rec["scenario"])
        if recs is not None:
            recs.append(rec)
            descent_records.append(rec)
    wrong = [d for d, recs in by_digest.items() if sorted(r["check"] for r in recs) != sorted(DESCENT_CHECKS)]
    if wrong:
        problems.append(f"{len(wrong)} of {len(corpus)} scenarios lack the 15 descent checks, e.g. {wrong[0]}")

    rng = random.Random(args.seed)
    for sc in rng.sample(corpus, min(RECHECK_SAMPLE, len(corpus))):
        fresh = sorted((r.to_dict() for r in check_scenario(sc, args.fault, None)), key=lambda r: r["check"])
        if fresh != sorted(by_digest[sc.digest()], key=lambda r: r["check"]):
            problems.append(f"uncached re-check differs from the report on {sc.digest()}")
            break

    if wl.jobs > 1:
        reference = {sc.digest() for sc in corpus if sc.q == REFERENCE_Q}
        pooled = [r for r in descent_records if r["scenario"] in reference]
        if descent_hash(pooled) != single_process_hash(args.max_rank, args.fault):
            problems.append("descent records of the pooled run differ from a single-process run's")

    if wl.operation == "scenario":
        return sum(1 for recs in by_digest.values() if any(r["status"] != "pass" for r in recs))
    return sum(1 for r in checks if r["status"] != "pass")


def _odd_orthogonal(rng: random.Random, m: int) -> list[Fraction]:
    entries = [Fraction(1)]
    for _ in range(m):
        kind = rng.randrange(3)
        if kind == 0:
            entries += [Fraction(1), Fraction(1)]
        elif kind == 1:
            entries += [Fraction(-1), Fraction(-1)]
        else:
            v = Fraction(rng.randint(2, 9), rng.randint(1, 9))
            if v == 1:
                v = Fraction(11)
            entries += [v, 1 / v]
    rng.shuffle(entries)
    return entries


def check_correspondence(seed: int, problems: list[str]) -> None:
    from endokit.endoscopy import EigenMultiset, EllipticDatumMeta, correspond_mu

    rng = random.Random(seed)
    for _ in range(TORSION_PAIRS):
        mp, md = rng.randint(0, 4), rng.randint(0, 4)
        gp, gd = _odd_orthogonal(rng, mp), _odd_orthogonal(rng, md)
        got = correspond_mu(
            EigenMultiset.odd_orthogonal(gp), EigenMultiset.odd_orthogonal(gd), EllipticDatumMeta(mp, md)
        )
        first, second = Counter(gp), Counter(gd)
        first[Fraction(1)] -= 1
        second[Fraction(1)] -= 1
        want = +first + Counter({-x: k for x, k in second.items() if k})
        if Counter(got.entries) != want:
            problems.append(f"correspond_mu breaks the documented rule on {gp} | {gd}")
            return


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--max-rank", type=int, required=True)
    ap.add_argument("--torsion-samples", type=int, required=True)
    ap.add_argument("--fault", default=None)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    problems: list[str] = []
    with open(args.report) as fh:
        report = json.load(fh)
    checks, meta = report["checks"], report["meta"]
    if meta["record_count"] != len(checks):
        problems.append(f"meta.record_count {meta['record_count']} != {len(checks)} records")
    if meta["max_rank"] != args.max_rank or meta["seed"] != args.seed:
        problems.append("report meta does not describe the workload's campaign")
    failing = [r for r in checks if r["status"] != "pass"]
    if meta["all_passed"] != (not failing):
        problems.append("meta.all_passed disagrees with the records")

    if wl.has_descent:
        failed = check_descent(wl, checks, args, problems)
    else:
        failed = len(failing) * args.torsion_samples
    if wl.name == "torsion":
        shapes = {r["scenario"] for r in checks if r["check"] == "torsion-correspondence"}
        if len(shapes) != len(checks) or len(checks) != 20:
            problems.append(f"expected one record for each of 20 torsion shapes, got {len(checks)}")
        check_correspondence(args.seed, problems)
    print(json.dumps({"correct": not problems, "failed": failed, "problems": problems}))
    sys.stdout.flush()
    os._exit(0)  # skip the teardown of the parsed report


if __name__ == "__main__":
    main()
