"""Verification campaigns: the suites, the descent checks and the pool.

A campaign sweeps bounded families (Levi data, eigenvalue multisets over a
fixed order set, Frobenius surrogates) and runs every identity check the
library exposes, recording one record per check and scenario.  All values
in reports are exact strings; a fixed seed makes randomized suites and the
whole report reproducible byte for byte.  The descent scenarios come from
``corpus``, their shape keys from ``shape``, and ``report`` holds and writes
the records.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

from . import catalog
from ._intlinalg import snf_with_transforms
from .ambient import Ambient
from .catalog import GroupType, LeviDatum, gl, levi_data, levi_enumerate, layout_for, so_even, so_odd, sp, u
from .corpus import scenario_corpus
from .descent import DescentOutcome, DescentScenario, compatibility_check, descend, q_violation
from .enatural import enumerate_E_natural, pushed_group_check, verify_identities, verify_index_sets
from .endoscopy import (
    EigenMultiset,
    EllipticDatumMeta,
    SElement,
    correspond_mu1_check,
    e_set,
    elliptic_data_meta,
    i_meta,
)
from .errors import EndokitError
from .lattices import (
    DiagSubgroup,
    arthur_product_check,
    diag_component_group,
    diag_index,
    diag_intersect,
    diag_product,
    lattice_index,
)
from .nonstandard import NSLeviPair, build_triple, c_nonstandard_closed, c_nonstandard_raw
from .report import Pair, ScenarioRecords, Verdict, VerificationReport
from .shape import ShapeCache, outcome_shape

# The checks of one descent outcome and their laws, in the order of every
# verdict tuple that ``_check_outcome`` returns.
DESCENT_LAWS = {
    "sign-rule-vs-descent": "the base-point sign rule reproduces the recomputed descent placement",
    "pushed-group": "Levi ascent of the twist matches the descended endoscopic group",
    "instable-coefficient": "instable coefficient over its volume factor is an inverse center index",
    "stable-coefficient": "stable coefficient over its volume factor is an inverse center index",
    "coefficient-ratio": "coefficient ratio equals the index between pushed-center intersections",
    "transverse-volumes-match": "both volume factors agree",
    "long-short-closed-form": "raw coroot-lattice coefficient matches its closed form",
    "final-identity": "stable over instable equals the long-short lattice coefficient",
    "center-product-law": "every Levi center splits as ambient center times identity component",
    "stable-map-injective": "the stable comparison map is injective",
    "stable-map-bijective": "the stable comparison map hits the whole stable index set",
    "instable-map-surjective": "the instable comparison map hits the whole instable index set",
    "instable-fiber-law": "instable fibers have the predicted center-intersection order",
    "section-inverts-pushforward": "the canonical section inverts the pushforward",
    "entry-count": "index set sizes recorded",
}
BUILD_CHECK = ("scenario-build", "scenario validates and descends")


# ---------------------------------------------------------------------------
# finite-group element oracle (independent of the lattice layer internals)


class FiniteDiagOracle:
    """Brute-force model of a finite diagonalizable group: the explicit set
    of exponent vectors in (Q/Z)^n."""

    def __init__(self, ambient: int, elements: frozenset[tuple[Fraction, ...]]):
        self.ambient = ambient
        self.elements = elements

    @staticmethod
    def of(d: DiagSubgroup) -> "FiniteDiagOracle":
        n = d.ambient_rank
        rows = d.vanishing_chars.generators
        if len(rows) != n:
            raise ValueError("the group is not finite")
        dd, _, v = snf_with_transforms(rows, n)
        # solutions x of rows @ x in Z^n: x = v @ diag(1/d) z, z in prod Z/d_i
        elems = set()
        ranges = [range(abs(x)) if x else range(1) for x in dd]
        for z in itertools.product(*ranges):
            x = [Fraction(0)] * n
            for col in range(n):
                acc = Fraction(0)
                for k in range(n):
                    if dd[k]:
                        acc += Fraction(v[col][k] * z[k], dd[k])
                x[col] = acc % 1
            elems.add(tuple(x))
        return FiniteDiagOracle(n, frozenset(elems))

    def order(self) -> int:
        return len(self.elements)

    def intersect(self, other: "FiniteDiagOracle") -> "FiniteDiagOracle":
        return FiniteDiagOracle(self.ambient, self.elements & other.elements)

    def product(self, other: "FiniteDiagOracle") -> "FiniteDiagOracle":
        out = set()
        for a in self.elements:
            for b in other.elements:
                out.add(tuple((x + y) % 1 for x, y in zip(a, b)))
        return FiniteDiagOracle(self.ambient, frozenset(out))


# ---------------------------------------------------------------------------
# suites


def _rec(records: list[Pair], check: str, law: str, scenario: str, ok: bool, witness: dict | None = None) -> None:
    """Append one record as a pair of its own."""
    verdict = (check, law, "pass" if ok else "fail", tuple(sorted((witness or {}).items())))
    records.append((scenario, (verdict,)))


def run_counts_suite(spec: CampaignSpec, records: list[Pair]) -> None:
    for m in range(0, 9):
        data = elliptic_data_meta(m)
        _rec(records, "elliptic-datum-count", "number of elliptic data over a rank-m factor is m+1",
             f"m={m}", len(data) == m + 1, {"count": len(data)})
    for n in range(0, 7):
        for datum in levi_data(n):
            for s0 in elliptic_data_meta(datum.remainder):
                got = len(e_set(datum, s0))
                _rec(records, "datum-set-size", "data over a base datum number two to the block count",
                     f"n={n};sizes={datum.sizes};s0={s0.m_prime},{s0.m_dblprime}",
                     got == 2 ** datum.block_count, {"count": got})


def run_nonstandard_suite(spec: CampaignSpec, records: list[Pair]) -> None:
    for n in range(1, 7):
        triple = build_triple(n)
        idx = lattice_index(triple.x2, triple.x1)
        _rec(records, "coroot-lattice-index", "the long-root lattice has generalized index 1/2",
             f"n={n}", idx == Fraction(1, 2), {"index": idx})
        for datum in levi_data(n):
            pair = NSLeviPair(datum)
            raw = c_nonstandard_raw(triple, pair)
            closed = c_nonstandard_closed(pair)
            _rec(records, "long-short-coefficient", "raw coroot-lattice coefficient matches the closed form",
                 f"n={n};sizes={datum.sizes};m={datum.remainder}", raw == closed,
                 {"raw": raw, "closed": closed})


def _random_orthogonal(rng: random.Random, m: int) -> EigenMultiset:
    entries = [Fraction(1)]
    pairs = m
    while pairs > 0:
        kind = rng.randrange(3)
        if kind == 0:
            entries += [Fraction(1), Fraction(1)]
        elif kind == 1:
            entries += [Fraction(-1), Fraction(-1)]
        else:
            num = rng.randint(2, 7)
            den = rng.randint(1, 7)
            val = Fraction(num, den)
            if val in (1, -1):
                val = Fraction(num + 7)
            entries += [val, Fraction(1) / val]
        pairs -= 1
    return EigenMultiset.odd_orthogonal(entries)


def run_torsion_suite(spec: CampaignSpec, records: list[Pair]) -> None:
    rng = random.Random(spec.seed)
    shapes = [
        (sizes, m)
        for k in range(0, 4)
        for sizes in [tuple([1] * k)]
        for m in range(0, 5)
    ]
    per_shape = spec.torsion_samples
    for sizes, m in shapes:
        datum = LeviDatum(sizes, m)
        ok = True
        witness: dict = {}
        for _ in range(per_shape):
            mp = rng.randint(0, m)
            s0 = EllipticDatumMeta(mp, m - mp)
            signs = tuple(rng.choice((1, -1)) for _ in sizes)
            s = SElement(datum, s0, signs)
            blocks = []
            for size in sizes:
                entries = []
                for _ in range(size):
                    num = rng.randint(1, 7)
                    den = rng.randint(1, 7)
                    entries.append(Fraction(num, den))
                blocks.append(EigenMultiset.of(entries))
            gp = _random_orthogonal(rng, mp)
            gd = _random_orthogonal(rng, m - mp)
            if not correspond_mu1_check(blocks, gp, gd, s):
                ok = False
                witness = {"sizes": sizes, "m": m, "signs": signs}
                break
        _rec(records, "torsion-correspondence", "both class-correspondence routes agree after the central twist",
             f"shape=({sizes},{m})", ok, witness)


def _catalog_groups(max_rank: int) -> Iterator[GroupType]:
    singles: list = []
    for a in range(1, max_rank + 1):
        singles.append(GroupType.of(sp(a)))
        singles.append(GroupType.of(so_odd(a)))
        for klass in ("split", "unram_nonsplit", "ramified"):
            if a == 1 and klass == "split":
                continue
            singles.append(GroupType.of(so_even(a, klass)))
    for k in range(1, max_rank + 1):
        for d in (1, 2, 3):
            if k * d <= max_rank:
                singles.append(GroupType.of(gl(k, d)))
            if 2 * k * d <= max_rank:
                singles.append(GroupType.of(u(k, d)))
    yield from singles
    for g1, g2 in itertools.combinations_with_replacement(singles, 2):
        combined = GroupType(g1.factors + g2.factors)
        if combined.total_width <= max_rank:
            yield combined


def run_arthur_product_suite(spec: CampaignSpec, records: list[Pair]) -> None:
    bound = min(spec.max_rank + 2, 6)
    for g in _catalog_groups(bound):
        layout = layout_for(g)
        zg, _ = catalog.dual_center(g, layout)
        ok = True
        witness: dict = {}
        for emb in levi_enumerate(g, layout):
            zs, zs0 = emb.center(layout.ambient_rank)
            if not arthur_product_check(zg, zs, zs0):
                ok = False
                witness = {"levi": emb.levi.display()}
                break
        _rec(records, "center-product-law", "the fixed dual center of a Levi is the ambient one times its identity component",
             g.display(), ok, witness)


def _finite_diag_family(seed: int) -> Iterator[tuple[int, DiagSubgroup, DiagSubgroup]]:
    """Deterministic finite subgroups of bounded ambient rank and exponent."""
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 4)
        pairs = []
        for _ in range(2):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.choice((1, 2, 2, 3, 4))
                for j in range(i + 1, n):
                    rows[i][j] = rng.randint(-1, 1)
            pairs.append(DiagSubgroup.from_vanishing(n, rows))
        yield n, pairs[0], pairs[1]
    # a few structured high-rank cases
    for n in (5, 6):
        d1 = DiagSubgroup.from_vanishing(
            n, [[2 if i == j else (1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]
        )
        d2 = DiagSubgroup.from_vanishing(
            n, [[4 if i == j == 0 else (1 if i == j else 0) for j in range(n)] for i in range(n)]
        )
        yield n, d1, d2


def run_diag_oracle_suite(spec: CampaignSpec, records: list[Pair]) -> None:
    for case, (n, d1, d2) in enumerate(_finite_diag_family(spec.seed + 1)):
        o1, o2 = FiniteDiagOracle.of(d1), FiniteDiagOracle.of(d2)
        meet = diag_intersect(d1, d2)
        prod = diag_product(d1, d2)
        ok = FiniteDiagOracle.of(meet).elements == o1.intersect(o2).elements
        ok = ok and FiniteDiagOracle.of(prod).elements == o1.product(o2).elements
        idx = diag_index(d1, d2)
        oracle_idx = Fraction(o1.order(), o1.intersect(o2).order()) / Fraction(
            o2.order(), o1.intersect(o2).order()
        )
        ok = ok and idx == oracle_idx
        ok = ok and diag_component_group(d1).order == o1.order()
        _rec(
            records,
            "finite-group-oracle",
            "lattice-side index, meet and join agree with element enumeration",
            f"case={case};n={n}",
            ok,
            {"index": idx, "oracle": oracle_idx},
        )


def run_goldens_suite(spec: CampaignSpec, records: list[Pair]) -> None:
    levi = LeviDatum((1,), 1)
    s0 = EllipticDatumMeta(1, 0)
    plus = i_meta(levi, s0, SElement(levi, s0, (1,)))
    minus = i_meta(levi, s0, SElement(levi, s0, (-1,)))
    _rec(records, "golden-index-ratio", "frozen index ratios of the two one-block worked examples",
         "block=1;m=1;s0=(1,0);side=prime", plus == Fraction(1), {"value": plus})
    _rec(records, "golden-index-ratio", "frozen index ratios of the two one-block worked examples",
         "block=1;m=1;s0=(1,0);side=dblprime", minus == Fraction(1, 2), {"value": minus})


def _corrupt_sbar0(outcome: DescentOutcome) -> DescentOutcome:
    if not outcome.blocks:
        return outcome
    first = outcome.blocks[0]
    bad = replace(first, sbar0=-first.sbar0)
    return replace(outcome, blocks=(bad,) + outcome.blocks[1:])


def _shift_prime_rank(outcome: DescentOutcome) -> DescentOutcome:
    """One unit of rank moves from the prime side's odd part to its even
    part, or back when the odd part is empty."""
    if outcome.x_prime:
        return replace(outcome, x_prime=outcome.x_prime - 1, y_prime=outcome.y_prime + 1)
    if outcome.y_prime:
        return replace(outcome, x_prime=1, y_prime=outcome.y_prime - 1)
    return outcome


def _pull_levi_block(outcome: DescentOutcome) -> DescentOutcome:
    """The first Levi block is taken for a block pulled from the prime side."""
    for i, b in enumerate(outcome.blocks):
        if b.origin == "levi":
            bad = replace(b, origin="pair_prime")
            return replace(outcome, blocks=outcome.blocks[:i] + (bad,) + outcome.blocks[i + 1:])
    return outcome


# Testing hooks: ``CampaignSpec.fault`` names one, which ``check_scenario``
# applies to every outcome before checking it.
FAULTS = {
    "corrupt-sbar0": _corrupt_sbar0,
    "shift-prime-rank": _shift_prime_rank,
    "pull-levi-block": _pull_levi_block,
}


def check_scenario(
    sc: DescentScenario, fault: str | None = None, shape_cache: ShapeCache | None = None
) -> ScenarioRecords:
    """All descent-layer checks of one scenario.

    With a shape cache, scenarios of equal combinatorial shape share the
    verdict tuple computed for the first of them (the checks only consume the
    shape), and the cache interns that tuple, so shapes with equal verdicts
    share one tuple too.  A failed law's witnesses (a twist, Levi groups)
    name owners and blocks by position, which a scenario of the same shape
    may order differently; so a hit on a tuple holding a failure is checked
    afresh.
    """
    digest = sc.digest()
    try:
        outcome = descend(sc)
    except EndokitError as exc:
        return ScenarioRecords(digest, ((*BUILD_CHECK, "fail", (("error", str(exc)),)),))
    if fault is not None:
        outcome = FAULTS[fault](outcome)
    if shape_cache is None:
        return ScenarioRecords(digest, _check_outcome(outcome))
    key = outcome_shape(outcome)
    verdicts = shape_cache.get(key)
    if verdicts is None:
        verdicts = shape_cache[key] = shape_cache.intern(_check_outcome(outcome))
    elif any(status == "fail" for _, _, status, _ in verdicts):
        verdicts = shape_cache.intern(_check_outcome(outcome))
    return ScenarioRecords(digest, verdicts)


# The laws of ``verify_identities`` and of ``verify_index_sets``, and every law
# that needs the index set: the laws an error in each check family fails.
IDENTITY_LAWS = tuple(DESCENT_LAWS)[2:9]
INDEX_SET_LAWS = tuple(DESCENT_LAWS)[9:14]
ENTRY_LAWS = (*IDENTITY_LAWS, *INDEX_SET_LAWS, "entry-count")


def _check_outcome(outcome: DescentOutcome) -> tuple[Verdict, ...]:
    """The verdicts of every descent check on one outcome, laid out as
    ``DESCENT_LAWS``.  An ``EndokitError`` raised in a check family fails
    that family's laws, with the error as witness, and leaves the others as
    they are; an error building the ``Ambient`` or the index set fails every
    law that needs it."""
    ok: dict[str, bool] = {}
    witness: dict[str, dict] = {}

    def guarded(laws: Sequence[str], check):
        """``check()``, or None once an ``EndokitError`` from it has failed ``laws``."""
        try:
            return check()
        except EndokitError as exc:
            for law in laws:
                ok[law] = False
                witness[law] = {"error": str(exc)}
            return None

    wrong = guarded(
        ("sign-rule-vs-descent",), lambda: [t for t in outcome.twists if not compatibility_check(outcome, t)]
    )
    if wrong:
        ok["sign-rule-vs-descent"] = False
        witness["sign-rule-vs-descent"] = {"t": wrong[-1]}

    amb = guarded(("pushed-group", *ENTRY_LAWS), lambda: Ambient(outcome))
    entries = None
    if amb is not None:
        pushed = guarded(("pushed-group",), lambda: [pushed_group_check(amb, t) for t in outcome.twists])
        if pushed is not None:
            ok["pushed-group"] = all(pushed)
        entries = guarded(ENTRY_LAWS, lambda: enumerate_E_natural(amb))
    if entries is not None:
        identities = guarded(IDENTITY_LAWS, lambda: [verify_identities(amb, entry) for entry in entries])
        for entry, checks in zip(entries, identities or ()):
            for key, good in checks.items():
                ok[key] = ok.get(key, True) and good
                if not good and key not in witness:
                    witness[key] = {
                        "t": entry.t,
                        "groups": entry.levi.groups,
                        "c_inst": entry.c_inst_rat,
                        "c_st": entry.c_st_rat,
                    }
        ok.update(guarded(INDEX_SET_LAWS, lambda: verify_index_sets(amb, entries)) or {})
        witness["entry-count"] = {"e_natural": len(entries)}
    return tuple(
        (check, law, "pass" if ok.get(check, True) else "fail", tuple(sorted(witness.get(check, {}).items())))
        for check, law in DESCENT_LAWS.items()
    )


def _levi_group(sc: DescentScenario) -> tuple[int, tuple[int, ...]]:
    return sc.n, sc.sizes


def _scenario_pairs(scenarios: Iterable[DescentScenario], fault: str | None) -> Iterator[Pair]:
    """``(digest, verdicts)`` of each scenario, through one shape cache that
    holds one ``(n, sizes)`` group's keys at a time.  The corpus yields each
    group as one run and no shape key spans two groups, so clearing the keys
    at each boundary checks no shape twice; the interned verdict tuples stay
    for the whole walk."""
    cache = ShapeCache()
    for _, group in itertools.groupby(scenarios, key=_levi_group):
        cache.clear()
        for sc in group:
            got = check_scenario(sc, fault, cache)
            yield got.digest, got.verdicts


def run_descent_suite(spec: CampaignSpec, records: list[Pair]) -> None:
    records.extend(_scenario_pairs(scenario_corpus(spec), spec.fault))


def _check_bucket_worker(args: tuple[str, CampaignSpec, list[DescentScenario] | None]) -> tuple[list[Pair], float]:
    """A pool task: the pairs of one suite, or of one ``(n, sizes)`` group of
    the descent suite, and the task's wall time.  Pickle's memo sends each
    distinct verdict tuple of it once."""
    suite, spec, group = args
    t0 = time.perf_counter()
    pairs: list[Pair] = []
    if group is None:
        SUITE_RUNNERS[suite](spec, pairs)
    else:
        pairs.extend(_scenario_pairs(group, spec.fault))
    return pairs, time.perf_counter() - t0


# Every suite's runner by name, in the default order of ``SUITES``; each appends
# its pairs to the list it is given.
SUITE_RUNNERS = {
    "counts": run_counts_suite,
    "nonstandard": run_nonstandard_suite,
    "torsion": run_torsion_suite,
    "arthur-product": run_arthur_product_suite,
    "diag-oracle": run_diag_oracle_suite,
    "goldens": run_goldens_suite,
    "descent": run_descent_suite,
}
SUITES = tuple(SUITE_RUNNERS)


@dataclass(frozen=True)
class CampaignSpec:
    """Bounds of one verification campaign."""

    max_rank: int = 4
    orders: tuple[int, ...] = (1, 2, 3, 4, 5, 8)
    q_values: tuple[int, ...] = (3, 5, 7)
    suites: tuple[str, ...] = SUITES
    seed: int = 0
    torsion_samples: int = 1000
    fault: str | None = None  # testing hook: a key of ``FAULTS``

    def complexity_note(self) -> str:
        return (
            f"sweep bounded by rank {self.max_rank}, eigenvalue orders "
            f"{sorted(set(self.orders))}, surrogates {sorted(set(self.q_values))}; "
            "scenario count grows with the number of stable multisets per rank, "
            "each costing one Levi-grouping sweep over at most rank-many blocks"
        )


def run_campaign(spec: CampaignSpec, jobs: int = 1) -> VerificationReport:
    """The report of every suite of ``spec``, their pairs in suite order.  With
    ``jobs > 1`` and more than one task, a pool of ``min(jobs, tasks)``
    processes runs each suite but ``descent`` as one task, ``torsion`` first,
    then each descent ``(n, sizes)`` group as one, largest first.  A suite's
    timing is its wall time, in a pool its task's in its worker; ``descent``'s
    runs from its first group's submission to its last result."""
    for suite in spec.suites:
        if suite not in SUITE_RUNNERS:
            raise ValueError(f"unknown suite {suite!r}")
    if spec.fault is not None and spec.fault not in FAULTS:
        raise ValueError(f"unknown fault {spec.fault!r}")
    if spec.max_rank < 0:
        raise ValueError(f"max_rank must be nonnegative, not {spec.max_rank}")
    if spec.torsion_samples < 1:
        raise ValueError(f"torsion_samples must be positive, not {spec.torsion_samples}")
    if any(order < 1 for order in spec.orders):
        raise ValueError(f"eigenvalue orders must be positive, not {list(spec.orders)}")
    for q in spec.q_values:
        if bad_q := q_violation(q):
            raise ValueError(bad_q)
    if jobs < 1:
        raise ValueError(f"jobs must be positive, not {jobs}")
    pairs: list[Pair] = []
    timings: dict[str, float] = {}
    small = sorted((suite for suite in spec.suites if suite != "descent"), key=lambda suite: suite != "torsion")
    corpus = scenario_corpus(spec) if jobs > 1 and "descent" in spec.suites else ()
    groups = sorted((list(group) for _, group in itertools.groupby(corpus, key=_levi_group)), key=len, reverse=True)
    workers = min(jobs, len(small) + len(groups))
    if workers < 2:
        for suite in spec.suites:
            t0 = time.perf_counter()
            SUITE_RUNNERS[suite](spec, pairs)
            timings[suite] = time.perf_counter() - t0
        return VerificationReport(spec, pairs, timings)
    from concurrent.futures import ProcessPoolExecutor, wait

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {suite: [pool.submit(_check_bucket_worker, (suite, spec, None))] for suite in small}
        t0 = time.perf_counter()
        futures["descent"] = [pool.submit(_check_bucket_worker, ("descent", spec, group)) for group in groups]
        wait(futures["descent"])
        descent_s = time.perf_counter() - t0
        for suite in spec.suites:
            for future in futures[suite]:
                got, took = future.result()
                pairs.extend(got)
            timings[suite] = descent_s if suite == "descent" else took
    return VerificationReport(spec, pairs, timings)
