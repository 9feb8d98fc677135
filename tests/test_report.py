"""The streaming report writer against the whole-report formats it replaced.

The oracles below build the report in memory, as ``endokit verify`` used to:
``json.dumps`` of the body plus rounded timings, and the csv and text rows.
``VerificationReport.write`` must produce the same bytes one record at a time.
"""

import csv
import io
import json
import tracemalloc
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from endokit.campaign import CampaignSpec, run_campaign
from endokit.cli import main
from endokit.report import CheckRecord, VerificationReport
from oracles import record_pairs

FORMATS = ("json", "csv", "text")


def oracle_json(rep: VerificationReport) -> str:
    payload = dict(rep.body())
    payload["timings"] = {k: round(v, 3) for k, v in sorted(rep.timings.items())}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def oracle_csv(rep: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["check", "law", "scenario", "status", "witness"])
    writer.writeheader()
    for row in (r.to_dict() for r in rep.records):
        row["witness"] = json.dumps(row["witness"], sort_keys=True)
        writer.writerow(row)
    return buf.getvalue().rstrip("\n") + "\n"


def oracle_text(rep: VerificationReport) -> str:
    rows = [r.to_dict() for r in rep.records]
    return "\n".join(f"[{r['status']}] {r['check']} {r['scenario']}" for r in rows) + "\n"


ORACLES = {"json": oracle_json, "csv": oracle_csv, "text": oracle_text}


def written(rep: VerificationReport, fmt: str) -> str:
    buf = io.StringIO()
    rep.write(buf, fmt)
    return buf.getvalue()


@pytest.fixture(scope="module")
def faulted_rank2():
    rep = run_campaign(CampaignSpec(max_rank=2, suites=("descent",), fault="corrupt-sbar0"))
    assert any(r.witness for r in rep.failures())
    return rep


AWKWARD = [
    'a "quoted" value',
    "back\\slash and \\u0041",
    "line\nbreak\r\n, and\ttab",
    "café   \U0001d524 ÿ",
    "\x00\x1b[31m\x7f",
    "",
]


def awkward_report() -> VerificationReport:
    records = [
        CheckRecord(s, s[::-1], f"sc;{s}", "fail" if i % 2 else "pass",
                    {s: s, "z": Fraction(-3, 4), "a": (1, -1), "kéy": i})
        for i, s in enumerate(AWKWARD)
    ]
    records.append(CheckRecord("plain", "law", "scenario", "pass"))
    return VerificationReport(CampaignSpec(max_rank=1, suites=("goldens",)), record_pairs(records),
                              {"goldens": 0.00049, "descenté": 12.3456})


@pytest.mark.parametrize("fmt", FORMATS)
def test_faulted_campaign_matches_oracle(faulted_rank2, fmt):
    assert written(faulted_rank2, fmt) == ORACLES[fmt](faulted_rank2)


@pytest.mark.parametrize("fmt", FORMATS)
def test_empty_campaign_matches_oracle(fmt):
    rep = run_campaign(CampaignSpec(suites=()))
    assert not rep.records
    assert written(rep, fmt) == ORACLES[fmt](rep)


@pytest.mark.parametrize("fmt", FORMATS)
def test_awkward_strings_match_oracle(fmt):
    rep = awkward_report()
    assert written(rep, fmt) == ORACLES[fmt](rep)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.builds(
            CheckRecord,
            st.text(max_size=12),
            st.text(max_size=12),
            st.text(max_size=12),
            st.sampled_from(["pass", "fail"]),
            st.dictionaries(st.text(max_size=6), st.text(max_size=12), max_size=3),
        ),
        max_size=4,
    ),
    st.dictionaries(st.text(max_size=6), st.floats(0, 1e4), max_size=2),
)
def test_arbitrary_text_matches_oracle(records, timings):
    rep = VerificationReport(CampaignSpec(), record_pairs(records), timings)
    for fmt in FORMATS:
        assert written(rep, fmt) == ORACLES[fmt](rep)


def test_unknown_format_is_refused():
    with pytest.raises(ValueError):
        written(awkward_report(), "xml")


def traced_write(rep: VerificationReport, fmt: str, path) -> tuple[int, int]:
    """Peak traced allocation while writing ``rep`` to ``path``, and the
    bytes written."""
    with open(path, "w") as fh:
        tracemalloc.start()
        try:
            rep.write(fh, fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak, path.stat().st_size


# csv is left out here: the csv module's writer allocates a 128 KiB row buffer
# on its first row whatever the report's size, 15% of the rank-2 csv report.
# The next test covers it.
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_write_peak_is_a_tenth_of_the_output(faulted_rank2, fmt, tmp_path):
    peak, size = traced_write(faulted_rank2, fmt, tmp_path / "report")
    assert size > 100_000
    assert peak < 0.1 * size, f"peak {peak} bytes traced while writing {size} bytes"


@pytest.mark.parametrize("fmt", FORMATS)
def test_write_peak_does_not_grow_with_records(faulted_rank2, fmt, tmp_path):
    peak, size = traced_write(faulted_rank2, fmt, tmp_path / "report")
    rep = faulted_rank2
    fourfold = VerificationReport(rep.spec, record_pairs(rep.records) * 4, rep.timings)
    peak4, size4 = traced_write(fourfold, fmt, tmp_path / "report4")
    assert size4 > 3 * size
    assert peak4 < peak + 0.1 * size, f"peak {peak} -> {peak4} bytes for {size} -> {size4} bytes written"


@pytest.mark.parametrize("fmt", FORMATS)
def test_cli_stdout_equals_report_file(fmt, tmp_path):
    args = ["verify", "--max-rank", "1", "--suites", "counts,goldens", "--format", fmt]
    to_file = CliRunner().invoke(main, args + ["--out", str(tmp_path / "r")])
    to_stdout = CliRunner().invoke(main, args)
    assert to_file.exit_code == to_stdout.exit_code == 0
    on_disk = (tmp_path / "r").read_bytes()
    shown = to_stdout.stdout_bytes
    if fmt == "json":  # timings differ from run to run
        on_disk, shown = (json.loads(t) for t in (on_disk, shown))
        on_disk.pop("timings")
        shown.pop("timings")
    assert shown == on_disk
