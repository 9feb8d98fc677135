"""The descent suite's verdict store against the slow path, and the report
built on it."""

from collections import defaultdict

import pytest

from endokit import campaign
from endokit.campaign import (
    DESCENT_LAWS,
    CampaignSpec,
    CheckRecord,
    VerificationReport,
    check_scenario,
    run_campaign,
    scenario_corpus,
)
from endokit.errors import EndokitError


@pytest.mark.parametrize("fault", [None, "corrupt-sbar0"])
def test_shape_cache_matches_uncached_checks(fault):
    """Every scenario of the rank-3 corpus: the campaign's records, which
    share one verdict tuple per shape, equal an uncached check."""
    spec = CampaignSpec(max_rank=3, suites=("descent",), fault=fault)
    rep = run_campaign(spec)
    by_scenario = defaultdict(dict)
    for rec in rep.records:
        by_scenario[rec.scenario][rec.check] = rec
    corpus = list(scenario_corpus(spec))
    assert len(corpus) == len(by_scenario) == 3154
    assert rep.passed == (fault is None)
    for sc in corpus:
        want = {rec.check: rec for rec in check_scenario(sc, fault, None)}
        assert list(want) == list(DESCENT_LAWS)
        assert by_scenario[sc.digest()] == want, sc.digest()


@pytest.fixture(scope="module")
def rank2_mixed():
    return run_campaign(CampaignSpec(max_rank=2, suites=("arthur-product", "goldens", "descent"), fault="corrupt-sbar0"))


def test_records_are_in_report_order(rank2_mixed):
    rep = rank2_mixed
    keys = [(r.check, r.scenario) for r in rep.records]
    assert len(keys) == len(rep.records) == rep.body()["meta"]["record_count"]
    assert keys == sorted(set(keys))
    # the one check name that both the descent and arthur-product suites use
    laws = {r.law for r in rep.records if r.check == "center-product-law"}
    assert len(laws) == 2


def test_failures_and_verdict_come_from_the_store(rank2_mixed):
    rep = rank2_mixed
    failing = [r for r in rep.records if r.status != "pass"]
    assert failing and rep.failures() == failing
    assert not rep.passed
    clean = run_campaign(CampaignSpec(max_rank=2, suites=("descent",)))
    assert clean.passed and clean.failures() == []


def test_handed_out_records_do_not_alias_the_store(rank2_mixed):
    rep = rank2_mixed
    first = [r for r in rep.records if r.witness]
    for rec in first:
        rec.witness["tampered"] = True
    again = [r for r in rep.records if r.witness]
    assert again and all("tampered" not in r.witness for r in again)
    sc = next(iter(scenario_corpus(CampaignSpec(max_rank=1))))
    cache: dict = {}
    entry_count = check_scenario(sc, None, cache)[-1]
    assert entry_count.check == "entry-count" and entry_count.witness
    entry_count.witness.clear()
    assert check_scenario(sc, None, cache)[-1].witness


def test_build_failure_is_one_record(monkeypatch):
    spec = CampaignSpec(max_rank=1, suites=("descent",))
    corpus = list(scenario_corpus(spec))
    bad = corpus[0].digest()
    descend = campaign.descend

    def failing_descend(sc):
        if sc.digest() == bad:
            raise EndokitError("no descent")
        return descend(sc)

    monkeypatch.setattr(campaign, "descend", failing_descend)
    rep = run_campaign(spec)
    keys = [(r.check, r.scenario) for r in rep.records]
    assert len(keys) == rep.record_count == 15 * (len(corpus) - 1) + 1
    assert keys == sorted(keys)
    assert [(r.check, r.scenario, str(r.witness["error"])) for r in rep.failures()] == [
        ("scenario-build", bad, "no descent")
    ]


def test_plain_record_list_keeps_its_order():
    records = [CheckRecord("b", "law", "2", "pass"), CheckRecord("a", "law", "1", "fail", {"k": 1})]
    rep = VerificationReport(CampaignSpec(), records)
    assert list(rep.records) == records
    assert rep.failures() == records[1:]


def test_shards_keep_each_levi_shape_in_one_worker():
    corpus = list(scenario_corpus(CampaignSpec(max_rank=4)))
    shards = campaign._shards(corpus, 2)
    assert sorted(sc.digest() for shard in shards for sc in shard) == sorted(sc.digest() for sc in corpus)
    owners = defaultdict(set)
    for i, shard in enumerate(shards):
        for sc in shard:
            owners[sc.sizes].add(i)
    assert len(owners) == 12 and all(len(o) == 1 for o in owners.values())
    assert sorted(len(s) for s in shards) == [10314, 10326]
    assert [len(s) for s in campaign._shards(corpus[:5], 8)] == [5]


def test_pool_checks_each_shape_once():
    spec = CampaignSpec(max_rank=2, suites=("descent",))
    seq = run_campaign(spec).descent
    par = run_campaign(spec, jobs=2).descent
    assert par.pairs == seq.pairs

    def shapes(store):
        return len({id(v) for _, v in store.pairs})

    assert shapes(par) == shapes(seq)
