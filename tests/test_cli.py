import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from endokit import campaign
from endokit.campaign import DESCENT_LAWS, IDENTITY_LAWS, CampaignSpec, run_campaign
from endokit.cli import main
from endokit.descent import DescentScenario
from endokit.endoscopy import EigenMultiset, EllipticDatumMeta
from endokit.errors import NotCommensurable
from endokit.rootsofunity import RootOfUnity


@pytest.fixture
def runner():
    return CliRunner()


def raise_not_commensurable(*args):
    raise NotCommensurable("first group is not contained in the second")


def report_records(max_rank: int) -> dict[str, list[dict]]:
    """The records of a rank-``max_rank`` descent campaign's report, by
    scenario, each scenario's in ``DESCENT_LAWS`` order."""
    by_scenario: dict[str, dict[str, dict]] = {}
    for rec in run_campaign(CampaignSpec(max_rank=max_rank, suites=("descent",))).records:
        by_scenario.setdefault(rec.scenario, {})[rec.check] = rec.to_dict()
    return {digest: [recs[law] for law in DESCENT_LAWS] for digest, recs in by_scenario.items()}


def law_rows(output: str) -> list[dict]:
    """The law rows of ``descend --format json``, each detail parsed back."""
    rows = json.loads(output)
    return [json.loads(r["detail"]) for r in rows if r["object"] in DESCENT_LAWS]


@pytest.fixture
def scenario_file(tmp_path):
    one = RootOfUnity.one()
    minus = RootOfUnity.minus_one()
    sc = DescentScenario(
        n=3,
        sizes=(1, 1),
        s0=EllipticDatumMeta(1, 0),
        q=3,
        eps_gl=(EigenMultiset.of([one]), EigenMultiset.of([minus])),
        eps_prime=EigenMultiset.of([one, one, one]),
        eps_dblprime=EigenMultiset.of([one]),
    )
    path = tmp_path / "scenario.json"
    path.write_text(sc.to_json())
    return str(path)


class TestEnumerationCommands:
    def test_levi_rows(self, runner):
        result = runner.invoke(main, ["levi", "--n", "2", "--format", "json"])
        assert result.exit_code == 0
        assert len(json.loads(result.output)) == 4

    def test_endo_rows(self, runner):
        result = runner.invoke(main, ["endo", "--m", "2", "--format", "json"])
        assert result.exit_code == 0
        assert len(json.loads(result.output)) == 3

    def test_eset_rows(self, runner):
        result = runner.invoke(main, ["eset", "--i", "2", "--format", "json"])
        assert result.exit_code == 0
        assert len(json.loads(result.output)) == 4

    def test_usage_error_exits_two(self, runner):
        result = runner.invoke(main, ["levi"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["eset", "--m", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [["--i", "1", "--m", "1", "--s0", "x"], ["--i", "-1"]], ids=["bad-s0", "negative-i"])
    def test_eset_bad_input_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, ["eset", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback

    def test_eset_empty_sizes_is_the_levi_without_blocks(self, runner):
        result = runner.invoke(main, ["eset", "--sizes", "", "--m", "1", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output) == [{"signs": "-", "n_prime": 1, "n_dblprime": 0, "group": "SO(3)"}]

    def test_eset_base_off_the_remainder_exits_three(self, runner):
        result = runner.invoke(main, ["eset", "--sizes", "1", "--m", "2", "--s0", "1,0"])
        assert result.exit_code == 3
        assert "domain error: base datum does not match the Levi remainder" in result.output


class TestCoeffCommand:
    def test_nonstandard_half(self, runner):
        result = runner.invoke(
            main, ["coeff", "--kind", "c-nonstandard", "--n", "2", "--sizes", "1,1", "--m", "0", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)[0]["value"] == "1/2"

    def test_nonstandard_one(self, runner):
        result = runner.invoke(
            main, ["coeff", "--kind", "c-nonstandard", "--n", "2", "--sizes", "1", "--m", "1", "--format", "json"]
        )
        assert json.loads(result.output)[0]["value"] == "1"

    def test_i_meta_trivial_case(self, runner):
        result = runner.invoke(
            main, ["coeff", "--kind", "i-meta", "--m", "2", "--s0", "1,1", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)[0]["value"] == "1"

    @pytest.mark.parametrize(
        "args",
        [["--kind", "i-meta", "--m", "2"], ["--kind", "i-standard", "--sizes", "1"]],
        ids=["i-meta", "i-standard"],
    )
    def test_bad_s0_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, ["coeff", *args, "--s0", "x"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a usage error, not a domain error

    def test_bad_sign_is_a_usage_error(self, runner):
        args = ["coeff", "--kind", "i-meta", "--m", "2", "--s0", "1,1", "--sizes", "1,1"]
        assert runner.invoke(main, [*args, "--signs", "+,-"]).exit_code == 0
        result = runner.invoke(main, [*args, "--signs", "+,?"])
        assert result.exit_code == 2
        assert "'?'" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["--kind", "i-meta", "--m", "2", "--s0", "1,1", "--sizes", "x"],
            ["--kind", "i-standard", "--sizes", "1", "--s0", "1,0", "--dbl-side", "x"],
            ["--kind", "i-meta", "--m", "2", "--s0", "1,1", "--sizes", "1,1", "--signs", "+"],
        ],
        ids=["bad-sizes", "bad-dbl-side", "short-signs"],
    )
    def test_bad_block_option_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, ["coeff", *args])
        assert result.exit_code == 2
        assert "domain error" not in result.output

    def test_d_zero_on_degenerate(self, runner):
        result = runner.invoke(
            main,
            [
                "coeff", "--kind", "d", "--dim", "2",
                "--am", "1,0", "--al", "1,0", "--ar", "1,0;0,1",
                "--format", "json",
            ],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)[0]["d_squared"] == "0"

    @pytest.mark.parametrize(
        "dim, am, al, ar, want",
        [
            ("3", "1,1,1", "1,0,0", "1,0,0;0,1,1", "2/3"),
            ("3", "1/2,1/3,0", "0,0,1;1,1,1", "1,0,0;0,1,0;0,0,1", "1/26"),
            ("2", "1,0", "1,5", "1,0;0,1", "25/26"),
        ],
        ids=["proper-ar", "rational-vector", "skew-lines"],
    )
    def test_d_value(self, runner, dim, am, al, ar, want):
        result = runner.invoke(
            main,
            ["coeff", "--kind", "d", "--dim", dim, "--am", am, "--al", al, "--ar", ar, "--format", "json"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)[0]["d_squared"] == want

    def test_domain_error_exits_three(self, runner):
        result = runner.invoke(
            main, ["coeff", "--kind", "d", "--dim", "2", "--am", "1,0,0", "--al", "1,0", "--ar", "1,0;0,1"]
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("am", ["x", "1/0"], ids=["not-a-rational", "zero-denominator"])
    def test_bad_vector_is_a_usage_error(self, runner, am):
        result = runner.invoke(main, ["coeff", "--kind", "d", "--dim", "2", "--am", am, "--al", "1,0", "--ar", "1,0;0,1"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # not an uncaught exception
        assert "domain error" not in result.output


class TestCorrespondCommand:
    def test_multiplicative(self, runner):
        result = runner.invoke(
            main,
            ["correspond", "--gamma-prime", "2,1,1/2", "--gamma-dblprime", "3,1,1/3", "--format", "json"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)[0]["image"] == "-3,-1/3,1/2,2"

    def test_lie(self, runner):
        result = runner.invoke(
            main,
            ["correspond", "--gamma-prime", "1,0,-1", "--gamma-dblprime", "2,0,-2", "--lie", "--format", "json"],
        )
        assert json.loads(result.output)[0]["image"] == "-2,-1,1,2"

    def test_invariant_violation_exits_three(self, runner):
        result = runner.invoke(
            main, ["correspond", "--gamma-prime", "2,1", "--gamma-dblprime", "1"]
        )
        assert result.exit_code == 3


class TestDescendCommand:
    def test_report(self, runner, scenario_file):
        result = runner.invoke(main, ["descend", "--scenario", scenario_file, "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert any("surviving" in r["detail"] for r in rows)

    def test_directory_is_a_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["descend", "--scenario", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback

    @pytest.mark.parametrize("check,law", [("compatibility_check", "sign-rule-vs-descent"), ("pushed_group_check", "pushed-group")])
    def test_failed_twist_law_exits_one(self, runner, monkeypatch, check, law):
        """A twist law that fails shows as the report's failed record."""
        monkeypatch.setattr(campaign, check, lambda *args: False)
        at = list(DESCENT_LAWS).index(law)
        digest, records = next((d, recs) for d, recs in report_records(2).items() if recs[at]["status"] == "fail")
        result = runner.invoke(main, ["descend", "--digest", digest, "--format", "json"])
        assert result.exit_code == 1
        failed = [r for r in law_rows(result.output) if r["status"] == "fail"]
        assert failed == [records[at]] == [r for r in records if r["status"] == "fail"]

    def test_bad_file_exits_three(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1, "sizes": [5], "m_prime": 0, "m_dblprime": 0, "q": 3, "eps_gl": [["0"]], "eps_prime": ["0"], "eps_dblprime": ["0"]}')
        result = runner.invoke(main, ["descend", "--scenario", str(bad)])
        assert result.exit_code == 3

    def test_digest_replays_the_scenario_file(self, runner, scenario_file):
        digest = DescentScenario.from_json(Path(scenario_file).read_text()).digest()
        by_digest = runner.invoke(main, ["descend", "--digest", digest, "--format", "json"])
        by_file = runner.invoke(main, ["descend", "--scenario", scenario_file, "--format", "json"])
        assert by_digest.exit_code == by_file.exit_code == 0
        assert by_digest.output == by_file.output

    @pytest.mark.parametrize("digest", ["n1;b;s0.1", "n1;b;s0.1;q3;g;p0/1;d0/1;spl;xyz", "n1;b;sx;q3;g;p0/1;d0/1;spl;spl"])
    def test_bad_digest_exits_three(self, runner, digest):
        result = runner.invoke(main, ["descend", "--digest", digest])
        assert result.exit_code == 3 and "domain error" in result.output

    def test_needs_exactly_one_source(self, runner, scenario_file):
        assert runner.invoke(main, ["descend"]).exit_code == 2
        both = ["descend", "--scenario", scenario_file, "--digest", "n1;b;s0.1;q3;g;p0/1;d0/1;spl;spl"]
        assert runner.invoke(main, both).exit_code == 2

    def test_check_error_exits_one(self, runner, monkeypatch):
        """An error in a check family fails its laws with the error as
        witness, as in a campaign's report, and the command exits 1."""
        monkeypatch.setattr(campaign, "verify_identities", raise_not_commensurable)
        report = report_records(1)
        # a scenario with entries, so that verify_identities is called
        digest, records = next((d, recs) for d, recs in report.items() if recs[-1]["witness"] != {"e_natural": "0"})
        result = runner.invoke(main, ["descend", "--digest", digest, "--format", "json"])
        assert result.exit_code == 1
        failed = [r for r in law_rows(result.output) if r["status"] == "fail"]
        assert failed == [r for r in records if r["status"] == "fail"]
        assert [r["check"] for r in failed] == list(IDENTITY_LAWS)
        assert all(r["witness"] == {"error": "first group is not contained in the second"} for r in failed)

    @pytest.mark.parametrize("family", [None, "verify_identities", "Ambient"])
    def test_replay_shows_the_report_records(self, runner, monkeypatch, family):
        """For a seeded sample of rank-3 corpus scenarios, clean and with a
        check family raising, ``descend --digest`` shows the records the
        campaign's report holds for the scenario, in ``DESCENT_LAWS`` order,
        and exits 1 exactly when one of them fails.  Entry rows show only
        when the index set was built."""
        if family is not None:
            monkeypatch.setattr(campaign, family, raise_not_commensurable)
        report = report_records(3)
        codes = set()
        for digest in random.Random(0).sample(sorted(report), 40 if family is None else 20):
            records = report[digest]
            result = runner.invoke(main, ["descend", "--digest", digest, "--format", "json"])
            assert law_rows(result.output) == records
            assert result.exit_code == any(r["status"] == "fail" for r in records)
            shown = any(r["object"] == "index-set" for r in json.loads(result.output))
            assert shown == (records[-1]["status"] == "pass")
            codes.add(result.exit_code)
        assert codes == {None: {0}, "verify_identities": {0, 1}, "Ambient": {1}}[family]


class TestVerifyCommand:
    def test_small_campaign_passes(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["verify", "--max-rank", "1", "--suites", "counts,goldens,nonstandard", "--out", str(out)],
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["all_passed"] is True
        assert payload["meta"]["complexity"]
        assert all(r["status"] == "pass" for r in payload["checks"])

    def test_fault_injection_fails_with_witness(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "verify", "--max-rank", "1", "--suites", "descent",
                "--inject-fault", "corrupt-sbar0", "--out", str(out),
            ],
        )
        assert result.exit_code == 1
        payload = json.loads(out.read_text())
        bad = [r for r in payload["checks"] if r["status"] == "fail"]
        assert any(r["check"] == "sign-rule-vs-descent" for r in bad)
        assert any(r["witness"] for r in bad if r["check"] == "sign-rule-vs-descent")

    def test_report_deterministic_modulo_timings(self, runner, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["verify", "--max-rank", "1", "--suites", "counts,torsion,diag-oracle", "--seed", "5", "--out", str(out)],
            )
            assert result.exit_code == 0
            payload = json.loads(out.read_text())
            payload.pop("timings")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_non_positive_order_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--max-rank", "1", "--orders", "0", "--suites", "descent"])
        assert result.exit_code == 2
        assert "eigenvalue orders must be positive" in result.output

    def test_bad_q_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--max-rank", "1", "--q", "1", "--suites", "descent"])
        assert result.exit_code == 2
        assert "q=1 is not a prime power" in result.output

    def test_non_positive_jobs_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--max-rank", "1", "--jobs", "0", "--suites", "descent"])
        assert result.exit_code == 2
        assert "jobs must be positive, not 0" in result.output

    @pytest.mark.parametrize("rank", ["-1", "-3"])
    def test_negative_max_rank_is_a_usage_error(self, runner, rank):
        result = runner.invoke(main, ["verify", "--max-rank", rank, "--suites", "counts,goldens"])
        assert result.exit_code == 2
        assert f"max_rank must be nonnegative, not {rank}" in result.output

    def test_env_var_default_dir(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("ENDOKIT_OUT_DIR", str(tmp_path))
        result = runner.invoke(main, ["verify", "--max-rank", "1", "--suites", "goldens"])
        assert result.exit_code == 0
        assert (tmp_path / "verification-report.json").exists()


class TestDefaultOutputNames:
    """With ``ENDOKIT_OUT_DIR`` set and no ``--out``, each command writes
    ``<name>.<format>`` into that directory."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize(
        "name, args",
        [
            ("eset", ["eset", "--i", "1", "--m", "1"]),
            ("correspond", ["correspond", "--gamma-prime", "2,1,1/2", "--gamma-dblprime", "1"]),
            ("coeff", ["coeff", "--kind", "c-nonstandard", "--n", "2", "--sizes", "1", "--m", "1"]),
            ("verification-report", ["verify", "--max-rank", "1", "--suites", "goldens"]),
        ],
    )
    def test_named_after_the_format(self, runner, tmp_path, monkeypatch, name, args, fmt):
        monkeypatch.setenv("ENDOKIT_OUT_DIR", str(tmp_path))
        result = runner.invoke(main, args + ["--format", fmt])
        assert result.exit_code == 0, result.output
        assert [p.name for p in tmp_path.iterdir()] == [f"{name}.{fmt}"]
        if fmt == "json":
            json.loads((tmp_path / f"{name}.{fmt}").read_text())

    def test_descend(self, runner, tmp_path, monkeypatch, scenario_file):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.setenv("ENDOKIT_OUT_DIR", str(out_dir))
        result = runner.invoke(main, ["descend", "--scenario", scenario_file, "--format", "csv"])
        assert result.exit_code == 0, result.output
        assert [p.name for p in out_dir.iterdir()] == ["descend.csv"]
        assert (out_dir / "descend.csv").read_text().startswith("object,detail\n")
