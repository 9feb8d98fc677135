"""The descent suite's shape cache against the slow path, and the report's
one store of ``(scenario, verdicts)`` pairs."""

import ast
import hashlib
import json
import os
from collections import defaultdict
from fractions import Fraction

import pytest

from endokit import campaign
from endokit.campaign import (
    DESCENT_LAWS,
    ENTRY_LAWS,
    IDENTITY_LAWS,
    INDEX_SET_LAWS,
    CampaignSpec,
    CheckRecord,
    ShapeCache,
    VerificationReport,
    check_scenario,
    outcome_shape,
    run_campaign,
    scenario_corpus,
)
from endokit.descent import descend
from endokit.errors import EndokitError, NotCommensurable
from oracles import record_pairs


# sha256 of the rank-3 descent campaign's checks, json.dumps(indent=2,
# sort_keys=True): a refactor of the check path must leave them byte-identical
CHECKS_SHA256 = {
    None: "6b8d2028b6c588e27e9587c97405e274afc97fe7bdd6bb83dfd23d0763e112a7",
    "corrupt-sbar0": "1718d239b29228d00f140e1dfa49dfc7d0e08e6c1244e66ec340cc083307046e",
}


@pytest.mark.parametrize("fault", [None, "corrupt-sbar0"])
def test_shape_cache_matches_uncached_checks(fault):
    """Every scenario of the rank-3 corpus: the campaign's records, which
    share one verdict tuple per shape, equal an uncached check, and the
    checks are byte for byte the pinned ones."""
    spec = CampaignSpec(max_rank=3, suites=("descent",), fault=fault)
    rep = run_campaign(spec)
    checks = json.dumps(rep.body()["checks"], indent=2, sort_keys=True)
    assert hashlib.sha256(checks.encode()).hexdigest() == CHECKS_SHA256[fault]
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
    # every distinct verdict tuple is held once
    verdicts = [v for _, v in rep.pairs]
    assert len({id(v) for v in verdicts}) == len({repr(v) for v in verdicts})


@pytest.mark.parametrize("fault,shapes", [(None, 1730), ("corrupt-sbar0", 1783)])
def test_shape_keys_are_exact_strings(fault, shapes):
    """Each shape key is the repr of a tuple of int/str/bool/None atoms, so
    the strings are exactly as many as the tuples they print."""

    def atoms(x):
        if type(x) is tuple:
            for y in x:
                yield from atoms(y)
        else:
            yield x

    keys = set()
    for sc in scenario_corpus(CampaignSpec(max_rank=3)):
        outcome = descend(sc)
        keys.add(outcome_shape(campaign._corrupt_sbar0(outcome) if fault else outcome))
    tuples = {ast.literal_eval(key) for key in keys}
    assert len(keys) == len(tuples) == shapes
    assert {type(a) for t in tuples for a in atoms(t)} <= {int, str, bool, type(None)}
    assert all(repr(ast.literal_eval(key)) == key for key in keys)


# The shape partition of the rank-3 corpus: the number of distinct
# ``outcome_shape`` keys, and the sha256 of every scenario's key in corpus
# order, joined by newlines.  A change of exponent representation must leave
# both alone, or shapes stop merging (or merge wrongly).
SHAPE_PARTITION = {
    None: (1730, "b241eae382b23dc89354655b8162263acfdefd19be5d6333c6da93f750917f39"),
    "corrupt-sbar0": (1783, "2a69cd8f8de3bd1da9b4687d3a4d0dada43a10ae94611d1374f52b6334910550"),
}


@pytest.mark.parametrize("fault", [None, "corrupt-sbar0"])
def test_shape_partition_is_pinned(fault):
    keys = []
    for sc in scenario_corpus(CampaignSpec(max_rank=3)):
        outcome = descend(sc)
        keys.append(outcome_shape(campaign._corrupt_sbar0(outcome) if fault else outcome))
    assert len(keys) == 3154
    assert (len(set(keys)), hashlib.sha256("\n".join(keys).encode()).hexdigest()) == SHAPE_PARTITION[fault]


def test_interning_keeps_values_that_print_differently():
    cache = ShapeCache()

    def verdicts(value):
        return (("check", "law", "fail", (("value", value),)),)

    values = [True, 1, Fraction(1), Fraction(1, 2), 0.5]
    held = [cache.intern(verdicts(v)) for v in values]
    assert len({id(v) for v in held}) == len(values)
    assert all(cache.intern(verdicts(v)) is h for v, h in zip(values, held))


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
    cache = ShapeCache()
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


def test_pairs_out_of_order_give_rows_in_report_order():
    """Pairs of the three kinds a report holds, given out of order: descent
    scenarios that share one interned 15-verdict tuple and one that has its
    own, a lone scenario-build failure, and a one-verdict record under a
    check name the descent suite uses too."""
    cache = ShapeCache()
    checked = [check_scenario(sc, None, cache) for sc in scenario_corpus(CampaignSpec(max_rank=1))]
    shared = [(got.digest, got.verdicts) for got in checked if got.verdicts is checked[0].verdicts][:2]
    own = next((got.digest, got.verdicts) for got in checked if got.verdicts is not checked[0].verdicts)
    descent = [*shared, own]
    digests = sorted(d for d, _ in descent)
    build = ("n0;build", ((*campaign.BUILD_CHECK, "fail", (("error", "no descent"),)),))
    arthur = CheckRecord("center-product-law", "arthur", digests[0] + "!", "pass", {"levi": "GL(1)"})
    pairs = [descent[2], *record_pairs([arthur]), build, descent[1], descent[0]]
    rep = VerificationReport(CampaignSpec(), pairs)
    got = [(r.check, r.scenario, r.law, r.status, tuple(sorted(r.witness.items()))) for r in rep.records]
    assert got == sorted((check, scenario, law, status, witness) for scenario, verdicts in pairs
                         for check, law, status, witness in verdicts)
    assert len(got) == rep.record_count == 3 * len(DESCENT_LAWS) + 2
    center = [r.scenario for r in rep.records if r.check == "center-product-law"]
    assert center == [digests[0], arthur.scenario, *digests[1:]]
    assert rep.failures() == [CheckRecord(*campaign.BUILD_CHECK, "n0;build", "fail", {"error": "no descent"})]
    assert not rep.passed


def test_unknown_fault_and_suite_are_refused():
    with pytest.raises(ValueError, match="unknown fault 'corrupt-sbar'"):
        run_campaign(CampaignSpec(max_rank=2, suites=("descent",), fault="corrupt-sbar"))
    with pytest.raises(ValueError, match="unknown suite 'decent'"):
        run_campaign(CampaignSpec(max_rank=2, suites=("decent",)))


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


def test_pool_checks_each_shape_once(tmp_path, monkeypatch):
    """The pool's workers, forked with the logging ``_check_outcome`` below,
    check between them exactly as many shapes as one process does."""
    check = campaign._check_outcome
    log = [tmp_path / "seq.log"]

    def logged(outcome):
        with open(log[0], "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return check(outcome)

    def pids(path):
        return path.read_text().split()

    monkeypatch.setattr(campaign, "_check_outcome", logged)
    spec = CampaignSpec(max_rank=2, suites=("descent",))
    seq = run_campaign(spec)
    log[0] = tmp_path / "par.log"
    par = run_campaign(spec, jobs=2)
    assert par.pairs == seq.pairs
    seq_checks, par_checks = pids(tmp_path / "seq.log"), pids(tmp_path / "par.log")
    assert len(par_checks) == len(seq_checks) > 0
    assert set(seq_checks) == {str(os.getpid())}
    assert len(set(par_checks)) == 2 and str(os.getpid()) not in par_checks


@pytest.mark.parametrize(
    "family,laws",
    [
        ("compatibility_check", ("sign-rule-vs-descent",)),
        ("pushed_group_check", ("pushed-group",)),
        ("verify_identities", IDENTITY_LAWS),
        ("verify_index_sets", INDEX_SET_LAWS),
        ("enumerate_E_natural", ENTRY_LAWS),
        ("Ambient", ("pushed-group", *ENTRY_LAWS)),
    ],
)
def test_check_error_fails_its_family_only(family, laws, monkeypatch):
    """An error raised in one check family on one rank-1 shape fails that
    family's laws on that shape's scenarios, and the run goes on."""
    spec = CampaignSpec(max_rank=1, suites=("descent",))
    clean = {(r.check, r.scenario): r for r in run_campaign(spec).records}
    corpus = list(scenario_corpus(spec))
    bad = outcome_shape(descend(corpus[0]))
    bad_scenarios = [sc.digest() for sc in corpus if outcome_shape(descend(sc)) == bad]
    assert len(bad_scenarios) == 5
    original = getattr(campaign, family)

    def failing(outcome, *args):
        if outcome_shape(outcome) == bad:
            raise NotCommensurable("first group is not contained in the second")
        return original(outcome, *args)

    monkeypatch.setattr(campaign, family, failing)
    rep = run_campaign(spec)
    assert len(rep.records) == len(clean)
    failed = {(r.check, r.scenario) for r in rep.failures()}
    assert failed == {(law, sc) for law in laws for sc in bad_scenarios}
    for rec in rep.records:
        if (rec.check, rec.scenario) in failed:
            assert rec.witness == {"error": "first group is not contained in the second"}
        else:
            assert rec == clean[rec.check, rec.scenario]


def test_law_families_match_the_checks():
    sc = next(iter(scenario_corpus(CampaignSpec(max_rank=1))))
    outcome = descend(sc)
    amb = campaign.Ambient(outcome)
    entries = campaign.enumerate_E_natural(outcome, amb)
    assert entries
    assert tuple(campaign.verify_identities(outcome, amb, entries[0])) == IDENTITY_LAWS
    assert tuple(campaign.verify_index_sets(outcome, amb, entries)) == INDEX_SET_LAWS
