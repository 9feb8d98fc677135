"""The descent suite's shape cache against the slow path, and the report's
one store of ``(scenario, verdicts)`` pairs."""

import ast
import concurrent.futures
import hashlib
import io
import itertools
import json
import os
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import pytest

from endokit import campaign
from endokit.ambient import Ambient
from endokit.campaign import (
    DESCENT_LAWS,
    ENTRY_LAWS,
    FAULTS,
    IDENTITY_LAWS,
    INDEX_SET_LAWS,
    CampaignSpec,
    check_scenario,
    run_campaign,
)
from endokit.corpus import scenario_corpus
from endokit.descent import DescentScenario, descend
from endokit.errors import EndokitError, NotCommensurable
from endokit.report import CheckRecord, VerificationReport
from endokit.shape import ShapeCache, outcome_shape
from oracles import (
    FAIL_COUNTS,
    brute_canonical_shape,
    owner_orders,
    permuted_outcome,
    rank3_outcomes,
    raw_shape,
    record_pairs,
)


# sha256 of the rank-3 descent campaign's checks, json.dumps(indent=2,
# sort_keys=True): a refactor of the check path must leave them byte-identical
CHECKS_SHA256 = {
    None: "6b8d2028b6c588e27e9587c97405e274afc97fe7bdd6bb83dfd23d0763e112a7",
    "corrupt-sbar0": "1718d239b29228d00f140e1dfa49dfc7d0e08e6c1244e66ec340cc083307046e",
    "shift-prime-rank": "d5bc5e2cfea7bf76d25f397b23ceecea08fc0f91240ba97bb286d000f945909d",
    "pull-levi-block": "9c31600ea144d19887f0343f97650d5a1afebdd04f8d8381adaa93c3eea09a91",
}
@pytest.mark.parametrize("fault", [None, *FAULTS])
def test_shape_cache_matches_uncached_checks(fault):
    """Every scenario of the rank-3 corpus: the campaign's records, which
    share one verdict tuple per shape, equal an uncached check, and the
    checks are byte for byte the pinned ones."""
    spec = CampaignSpec(max_rank=3, suites=("descent",), fault=fault)
    rep = run_campaign(spec)
    checks = json.dumps(rep.body()["checks"], indent=2, sort_keys=True)
    assert hashlib.sha256(checks.encode()).hexdigest() == CHECKS_SHA256[fault]
    by_scenario = defaultdict(dict)
    fails = defaultdict(int)
    for rec in rep.records:
        by_scenario[rec.scenario][rec.check] = rec
        fails[rec.check] += rec.status == "fail"
    assert {law: n for law, n in fails.items() if n} == FAIL_COUNTS[fault]
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


def test_rank4_pairs_match_the_oriented_reference_key(monkeypatch):
    """Above rank 3 the key is compared with a finer one: the clean rank-4
    descent pairs equal those of a campaign keyed by the oriented brute-force
    rendering, which keeps apart outcomes that differ only in a block's
    base-point sign or orientations.  The key checks 7,109 shapes where the
    reference checks 10,031."""
    check = campaign._check_outcome
    checked = []

    def counted(outcome):
        checked.append(outcome.scenario)
        return check(outcome)

    monkeypatch.setattr(campaign, "_check_outcome", counted)
    spec = CampaignSpec(max_rank=4, suites=("descent",))
    got = run_campaign(spec)
    misses = len(checked)
    monkeypatch.setattr(campaign, "outcome_shape", lambda outcome: brute_canonical_shape(outcome, oriented=True))
    want = run_campaign(spec)
    assert got.pairs == want.pairs and got.passed
    assert (misses, len(checked) - misses) == (7109, 10031)


def atoms(x):
    """The atoms of a nested tuple, depth first."""
    if type(x) is tuple:
        for y in x:
            yield from atoms(y)
    else:
        yield x


@pytest.mark.parametrize(
    "fault,shapes,oriented",
    [
        pytest.param(fault, shapes, oriented, id=f"{fault}-{shapes}")
        for fault, shapes, oriented in [
            (None, 1223, False),
            ("corrupt-sbar0", 1276, False),
            (None, 1730, True),
            ("corrupt-sbar0", 1783, True),
        ]
    ],
)
def test_shape_keys_are_exact_strings(fault, shapes, oriented):
    """Each shape rendering, the key's and the oriented reference's, is the
    repr of a tuple of int/str/bool/None atoms, so the strings are exactly
    as many as the tuples they print."""
    keys = {raw_shape(o, oriented) for o in rank3_outcomes(fault)}
    tuples = {ast.literal_eval(key) for key in keys}
    assert len(keys) == len(tuples) == shapes
    assert {type(a) for t in tuples for a in atoms(t)} <= {int, str, bool, type(None)}
    assert all(repr(ast.literal_eval(key)) == key for key in keys)


# The shape partition of the rank-3 corpus: the number of distinct
# ``raw_shape`` renderings, and the sha256 of every scenario's rendering in
# corpus order, joined by newlines.  A change of exponent representation
# must leave both alone, or shapes stop merging (or merge wrongly).  The
# oriented reference rendering also holds each block's base-point sign and
# orientations, which the key leaves out.
SHAPE_PARTITION = {
    (None, False): (1223, "c32d8b07768abf4bd4889cdc06b1db834ee66275eb872f9d54eb9a01ba2f41fc"),
    ("corrupt-sbar0", False): (1276, "3a00d43ee71650fa8f72e6746bda38de26c7a1325ff61e15c0ee81ce03c8399e"),
    (None, True): (1730, "b241eae382b23dc89354655b8162263acfdefd19be5d6333c6da93f750917f39"),
    ("corrupt-sbar0", True): (1783, "2a69cd8f8de3bd1da9b4687d3a4d0dada43a10ae94611d1374f52b6334910550"),
}


@pytest.mark.parametrize("fault", [None, "corrupt-sbar0"])
def test_shape_partition_is_pinned(fault):
    outcomes = rank3_outcomes(fault)
    for oriented in (False, True):
        keys = [raw_shape(o, oriented) for o in outcomes]
        assert len(keys) == 3154
        assert (len(set(keys)), hashlib.sha256("\n".join(keys).encode()).hexdigest()) == SHAPE_PARTITION[fault, oriented]


# The canonical partition of the rank-3 corpus under each fault: the number
# of distinct ``outcome_shape`` keys and the sha256 of every scenario's key
# in corpus order, joined by newlines.
CANONICAL_PARTITION = {
    None: (1137, "158eeceb7b7b83a2c37fa66a01ff7c1d0e9c612e256370d960354096f1476559"),
    "corrupt-sbar0": (1260, "9a464d6bd88287112c4d1988b6888f5c38e45d1f0e76b91c103749c0c173fe85"),
    "shift-prime-rank": (1123, "8589969fc9071d8f904ab73cdc438f87c70aab36bac5c462082fc1ab94d1b369"),
    "pull-levi-block": (1079, "a4d488fc9bc13c4bbfdb0dee1ca914f8f6cc294f7cfbf1763bbb7573cb7b2e77"),
}


def same_partition(a: list, b: list) -> bool:
    """Whether two key lists split their positions into the same classes."""
    return len(set(a)) == len(set(zip(a, b))) == len(set(b))


@pytest.mark.parametrize("fault", [None, *FAULTS])
def test_canonical_key_matches_brute_force(fault):
    """``outcome_shape`` partitions the rank-3 corpus as the least full
    rendering over every order of equal-size owners does, and each key is
    the rendering of one such order."""
    outcomes = rank3_outcomes(fault)
    keys = [outcome_shape(o) for o in outcomes]
    assert same_partition(keys, [brute_canonical_shape(o) for o in outcomes])
    for o, key in zip(outcomes, keys):
        renderings = {raw_shape(permuted_outcome(o, order)) for order in owner_orders(o.scenario.sizes)}
        assert key in renderings
        assert len(renderings) > 1 or key == raw_shape(o)
    assert (len(set(keys)), hashlib.sha256("\n".join(keys).encode()).hexdigest()) == CANONICAL_PARTITION[fault]
    tuples = {ast.literal_eval(key) for key in set(keys)}
    assert len(tuples) == len(set(keys))
    assert {type(a) for t in tuples for a in atoms(t)} <= {int, str, bool, type(None)}


@pytest.mark.parametrize("fault", [None, *FAULTS])
def test_canonical_key_matches_brute_force_at_rank_4(fault):
    """The same on every fifth rank-4 scenario with two GL blocks of equal
    size."""
    sample = [sc for sc in scenario_corpus(CampaignSpec(max_rank=4)) if len(set(sc.sizes)) < len(sc.sizes)][::5]
    assert len(sample) == 1249
    outcomes = [descend(sc) for sc in sample]
    outcomes = [FAULTS[fault](o) for o in outcomes] if fault else outcomes
    keys = [outcome_shape(o) for o in outcomes]
    assert same_partition(keys, [brute_canonical_shape(o) for o in outcomes])
    assert len(set(keys)) < len({raw_shape(o) for o in outcomes})


def test_owner_orders_are_the_scenario_symmetry():
    """Permuting the GL multisets of equal-size blocks of a scenario
    permutes its outcome as ``permuted_outcome`` does, so the owner orders
    the key ranges over are symmetries of the scenario."""
    checked = 0
    for sc in scenario_corpus(CampaignSpec(max_rank=3)):
        outcome = descend(sc)
        key = outcome_shape(outcome)
        for order in owner_orders(sc.sizes)[1:]:
            moved = descend(replace(sc, eps_gl=tuple(sc.eps_gl[old] for old in order)))
            assert moved == permuted_outcome(outcome, order)
            assert outcome_shape(moved) == key
            checked += 1
    assert checked == 1132


def test_tied_owners_are_permuted():
    """At q = 11 the fifth roots of unity are fixed, so two unit blocks at
    1/5 and 2/5 have parts of one pattern, and only the pulled block of the
    pair {1/5, 4/5} tells the two orders apart.  The two renderings differ,
    the key is one, and the cache hands the second scenario the first one's
    verdicts, which equal its own."""
    sc = DescentScenario.from_digest("n3;b1,1;s1.0;q11;g1/5|2/5;p1,1/5,4/5;d1;spl;spl")
    swapped = replace(sc, eps_gl=sc.eps_gl[::-1])
    outcomes = [descend(sc), descend(swapped)]
    assert raw_shape(outcomes[0]) != raw_shape(outcomes[1])
    assert outcome_shape(outcomes[0]) == outcome_shape(outcomes[1]) == min(map(raw_shape, outcomes))
    cache = ShapeCache()
    assert check_scenario(sc, None, cache).verdicts == check_scenario(sc, None, None).verdicts
    assert check_scenario(swapped, None, cache).verdicts == check_scenario(swapped, None, None).verdicts
    assert len(cache) == 1


def test_failed_hit_is_checked_afresh(monkeypatch):
    """A failure's witness may name a position that a permuted scenario of
    the same shape fills differently.  Here a failure witnesses the first
    GL multiset: through the cache every scenario still gets its own."""
    check = campaign._check_outcome

    def positional(outcome):
        verdicts = check(outcome)
        if outcome.i_count < 2:
            return verdicts
        check_name, law, _, _ = verdicts[0]
        return ((check_name, law, "fail", (("first", str(outcome.scenario.eps_gl[0])),)), *verdicts[1:])

    monkeypatch.setattr(campaign, "_check_outcome", positional)
    spec = CampaignSpec(max_rank=2, suites=("descent",))
    got = dict(run_campaign(spec).pairs)
    witnesses = defaultdict(set)
    for sc in scenario_corpus(spec):
        want = check_scenario(sc, None, None).verdicts
        assert got[sc.digest()] == want, sc.digest()
        witnesses[outcome_shape(descend(sc))].add(want[0][3])
    assert max(map(len, witnesses.values())) == 3


def test_pool_matches_one_process_at_rank_3():
    """Tasks of whole ``(n, sizes)`` groups keep the canonical classes whole,
    and the rechecked failures come out as in one process."""
    spec = CampaignSpec(max_rank=3, suites=("descent",), fault="corrupt-sbar0")
    assert run_campaign(spec, jobs=2).pairs == run_campaign(spec).pairs


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
    with pytest.raises(ValueError, match="eigenvalue orders must be positive"):
        run_campaign(CampaignSpec(max_rank=1, orders=(0,), suites=("descent",)))
    # a vacuous bound, instead of a run of records that pass with nothing checked
    for rank in (-1, -2):
        with pytest.raises(ValueError, match=f"max_rank must be nonnegative, not {rank}"):
            run_campaign(CampaignSpec(max_rank=rank, suites=("counts", "goldens")))
    for samples in (0, -5):
        with pytest.raises(ValueError, match=f"torsion_samples must be positive, not {samples}"):
            run_campaign(CampaignSpec(max_rank=1, suites=("torsion",), torsion_samples=samples))
    # a pool of no process, instead of a silent run in this one
    for jobs in (0, -2):
        with pytest.raises(ValueError, match=f"jobs must be positive, not {jobs}"):
            run_campaign(CampaignSpec(max_rank=1, suites=("descent",)), jobs=jobs)
    # a q that no scenario can have, instead of one scenario-build failure per scenario
    for q, message in ((1, "q=1 is not"), (0, "q=0 is not"), (-3, "q=-3 is not"), (2, "must be odd")):
        with pytest.raises(ValueError, match=message):
            run_campaign(CampaignSpec(max_rank=1, q_values=(q,), suites=("descent",)))


@pytest.mark.parametrize("rank,fault", [(4, None), *((3, fault) for fault in FAULTS)])
def test_each_levi_group_is_one_run_of_its_own_shapes(rank, fault):
    """The descent suite checks one ``(n, sizes)`` group at a time, with a
    shape cache that holds that group's keys alone.  So no shape is checked
    twice only if the corpus yields each group as one run and no shape key
    occurs in two groups."""
    corpus = list(scenario_corpus(CampaignSpec(max_rank=rank)))
    runs = [group for group, _ in itertools.groupby((sc.n, sc.sizes) for sc in corpus)]
    assert len(runs) == len(set(runs)) == {3: 13, 4: 25}[rank]
    group_of = {}
    for sc in corpus:
        outcome = descend(sc)
        key = outcome_shape(FAULTS[fault](outcome) if fault else outcome)
        assert group_of.setdefault(key, (sc.n, sc.sizes)) == (sc.n, sc.sizes), sc.digest()
    assert len(group_of) == (7109 if rank == 4 else CANONICAL_PARTITION[fault][0])


def test_pool_asks_for_no_more_workers_than_groups(monkeypatch):
    """A stub executor, run in this process, stands in for the pool: it asks
    for ``min(jobs, tasks)`` workers, the small suites go out first,
    ``torsion`` first of all, and the descent groups after them, largest
    first.  Rank 1 has two ``(n, sizes)`` groups, so the seven suites make
    eight tasks; a campaign of one task runs in this process, with no pool."""
    asked, tasks = [], []

    class StubExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, args):
            tasks.append(args)
            future = concurrent.futures.Future()
            future.set_result(fn(args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubExecutor)
    every = CampaignSpec(max_rank=1, torsion_samples=5)
    small_first = ["torsion", "counts", "nonstandard", "arthur-product", "diag-oracle", "goldens"]
    for spec, jobs, workers, suites in [
        (CampaignSpec(max_rank=1, suites=("descent",)), 8, [2], ["descent"] * 2),
        (every, 2, [2], small_first + ["descent"] * 2),
        (every, 16, [8], small_first + ["descent"] * 2),
        (CampaignSpec(max_rank=1, suites=("torsion",), torsion_samples=5), 2, [], []),
    ]:
        asked.clear()
        tasks.clear()
        pooled, alone = run_campaign(spec, jobs=jobs), run_campaign(spec)
        assert pooled.pairs == alone.pairs and pooled.body() == alone.body()
        assert asked == workers
        assert [suite for suite, _, _ in tasks] == suites
        assert all((group is None) == (suite != "descent") for suite, _, group in tasks)
        sizes = [len(group) for _, _, group in tasks if group is not None]
        assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize(
    "max_rank,suites",
    [(2, campaign.SUITES), (2, ("torsion", "diag-oracle")), (0, ("descent",))],
    ids=["all", "no-descent", "empty-descent"],
)
def test_pool_matches_one_process_over_every_suite(max_rank, suites):
    """Every suite a pool task: the pairs, the body and the written JSON but
    its ``timings`` are those of one process, and each suite is timed, also
    the descent suite of an empty corpus."""
    spec = CampaignSpec(max_rank=max_rank, suites=suites, torsion_samples=20)
    written = []
    for jobs in (1, 2):
        rep = run_campaign(spec, jobs=jobs)
        assert set(rep.timings) == set(suites)
        out = io.StringIO()
        rep.write(out, "json")
        text = out.getvalue()
        written.append((rep.pairs, rep.body(), text[: text.index('\n  "timings"')]))
    assert written[0] == written[1]


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
    assert len(seq_checks) == len({outcome_shape(descend(sc)) for sc in scenario_corpus(spec)})
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

    def failing(first, *args):
        # the families that read an Ambient take it first; it holds the outcome
        outcome = first.outcome if isinstance(first, Ambient) else first
        if outcome_shape(outcome) == bad:
            raise NotCommensurable("first group is not contained in the second")
        return original(first, *args)

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
    entries = campaign.enumerate_E_natural(amb)
    assert entries
    assert tuple(campaign.verify_identities(amb, entries[0])) == IDENTITY_LAWS
    assert tuple(campaign.verify_index_sets(amb, entries)) == INDEX_SET_LAWS
