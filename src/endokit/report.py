"""The record store of a campaign and its json, csv and text writers.

Every suite appends ``(scenario, verdicts)`` pairs; ``VerificationReport``
holds them, sorted by scenario once, and streams them in report order.  Its
``spec`` is the ``campaign.CampaignSpec`` the report's ``meta`` describes.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TextIO


@dataclass
class CheckRecord:
    check: str
    law: str
    scenario: str
    status: str
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "law": self.law,
            "scenario": self.scenario,
            "status": self.status,
            "witness": {k: str(v) for k, v in sorted(self.witness.items())},
        }


# One check's verdict on a scenario shape: (check, law, status, witness),
# the witness as its (key, value) items sorted by key.
Verdict = tuple[str, str, str, tuple]
# One record as the report writes it: (check, law, scenario, status, witness
# items sorted by key).
Row = tuple[str, str, str, str, Sequence]
# What every suite appends: a scenario and its verdicts.
Pair = tuple[str, tuple[Verdict, ...]]


class ScenarioRecords(Sequence):
    """The descent records of one scenario, built on access from its digest
    and its shape's verdict tuple; each record gets a witness dict of its
    own."""

    __slots__ = ("digest", "verdicts")

    def __init__(self, digest: str, verdicts: tuple[Verdict, ...]):
        self.digest = digest
        self.verdicts = verdicts

    def __len__(self) -> int:
        return len(self.verdicts)

    def __getitem__(self, i: int) -> CheckRecord:
        check, law, status, witness = self.verdicts[i]
        return CheckRecord(check, law, self.digest, status, dict(witness))


_enc = json.encoder.encode_basestring_ascii
_CSV_FIELDS = ("check", "law", "scenario", "status", "witness")


def _witness_pairs(witness: Sequence) -> list[str]:
    """``"key": "value"`` JSON members of a witness's sorted items, each value
    as its ``str``; the members of ``CheckRecord.to_dict()["witness"]``."""
    return [f"{_enc(k)}: {_enc(str(v))}" for k, v in witness]


def _json_record(check: str, law: str, scenario: str, status: str, witness: Sequence) -> str:
    """One element of the report's ``checks`` list, laid out as
    ``json.dumps(..., indent=2, sort_keys=True)`` lays it out at that depth."""
    pairs = _witness_pairs(witness)
    witness = "{\n        " + ",\n        ".join(pairs) + "\n      }" if pairs else "{}"
    return (
        f'    {{\n      "check": {_enc(check)},\n      "law": {_enc(law)},\n'
        f'      "scenario": {_enc(scenario)},\n      "status": {_enc(status)},\n'
        f'      "witness": {witness}\n    }}'
    )


class _Records:
    """``VerificationReport.records``: every record, in report order, as a
    fresh ``CheckRecord``."""

    def __init__(self, report: "VerificationReport"):
        self._report = report

    def __len__(self) -> int:
        return self._report.record_count

    def __iter__(self) -> Iterator[CheckRecord]:
        for check, law, scenario, status, witness in self._report.rows():
            yield CheckRecord(check, law, scenario, status, dict(witness))


class VerificationReport:
    """A campaign's records, as the ``(scenario, verdicts)`` pairs its suites
    appended, sorted by scenario once.  A descent scenario's ``verdicts`` is
    its shape's tuple from ``_check_outcome``, interned by a ``ShapeCache``
    so that each distinct tuple is held once, or a lone scenario-build
    failure; a record of any other suite is a pair of its own with one
    verdict.  ``_at`` maps each check name to its position in every distinct
    tuple that holds it, keyed by the tuple's ``id``."""

    def __init__(self, spec, pairs: Iterable[Pair] = (), timings: dict[str, float] | None = None):
        self.spec = spec
        self.pairs = sorted(pairs, key=itemgetter(0))
        self.timings = {} if timings is None else timings
        distinct = {id(v): v for _, v in self.pairs}
        self._at: dict[str, dict[int, int]] = {}
        for key, verdicts in distinct.items():
            for i, (check, *_) in enumerate(verdicts):
                self._at.setdefault(check, {})[key] = i
        self.record_count = sum(len(v) for _, v in self.pairs)
        self.passed = all(status == "pass" for v in distinct.values() for _, _, status, _ in v)

    @property
    def records(self) -> _Records:
        return _Records(self)

    def failures(self) -> list[CheckRecord]:
        if self.passed:
            return []
        return [r for r in self.records if r.status != "pass"]

    def rows(self) -> Iterator[Row]:
        """Every record as a ``Row``, in report order, by check name and then
        scenario: one pass over the pairs per check name."""
        for check in sorted(self._at):
            at = self._at[check]
            for scenario, verdicts in self.pairs:
                i = at.get(id(verdicts))
                if i is not None:
                    _, law, status, witness = verdicts[i]
                    yield check, law, scenario, status, witness

    def _meta(self) -> dict:
        return {
            "max_rank": self.spec.max_rank,
            "orders": list(self.spec.orders),
            "q_values": list(self.spec.q_values),
            "suites": list(self.spec.suites),
            "seed": self.spec.seed,
            "complexity": self.spec.complexity_note(),
            "record_count": self.record_count,
            "all_passed": self.passed,
        }

    def body(self) -> dict:
        """Deterministic report body (timings excluded)."""
        return {"meta": self._meta(), "checks": [r.to_dict() for r in self.records]}

    def write(self, fh: TextIO, fmt: str) -> None:
        """Write the report to ``fh`` one record at a time.

        ``json`` is byte for byte ``json.dumps(payload, indent=2,
        sort_keys=True)`` plus a newline, where ``payload`` is ``body()`` with
        the timings rounded to milliseconds; only the small ``meta`` and
        ``timings`` tail goes through ``json.dumps``.  ``csv`` has a header and
        one row per record, the witness as compact sorted-key JSON.  ``text``
        has one ``[status] check scenario`` line per record, and an empty
        report is one empty line.  No format holds more than one record's
        output in memory.
        """
        if fmt == "json":
            fh.write('{\n  "checks": [')
            sep = "\n"
            for row in self.rows():
                fh.write(sep)
                fh.write(_json_record(*row))
                sep = ",\n"
            fh.write("\n  ],\n" if self.record_count else "],\n")
            timings = {k: round(v, 3) for k, v in self.timings.items()}
            tail = json.dumps({"meta": self._meta(), "timings": timings}, indent=2, sort_keys=True)
            fh.write(tail[2:])  # the members after the opening "{\n"
            fh.write("\n")
        elif fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(_CSV_FIELDS)
            for check, law, scenario, status, witness in self.rows():
                writer.writerow((check, law, scenario, status, "{" + ", ".join(_witness_pairs(witness)) + "}"))
        elif fmt == "text":
            for check, _, scenario, status, _ in self.rows():
                fh.write(f"[{status}] {check} {scenario}\n")
            if not self.record_count:
                fh.write("\n")
        else:
            raise ValueError(f"unknown report format {fmt!r}")
