"""Verification campaigns: deterministic corpora, checks, reports.

A campaign sweeps bounded families (Levi data, eigenvalue multisets over a
fixed order set, Frobenius surrogates) and runs every identity check the
library exposes, recording one record per check and scenario.  All values
in reports are exact strings; a fixed seed makes randomized suites and the
whole report reproducible byte for byte.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import itemgetter
from typing import TextIO

from . import catalog
from .ambient import Ambient, _eta_orientation
from .catalog import GroupType, LeviDatum, gl, levi_data, levi_enumerate, layout_for, so_even, so_odd, sp, u
from .descent import (
    Block,
    DescentOutcome,
    DescentScenario,
    compatibility_check,
    descend,
    is_self_inverse,
    orbit_inverse,
    orbit_of,
    pair_class_key,
    placement,
    placement_independent,
)
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
from .indexsets import _eps_orientation
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
from .rootsofunity import RootOfUnity

SUITES = ("counts", "nonstandard", "torsion", "arthur-product", "diag-oracle", "goldens", "descent")


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

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
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

    def __init__(self, spec: CampaignSpec, pairs: Iterable[Pair] = (), timings: dict[str, float] | None = None):
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


# ---------------------------------------------------------------------------
# deterministic scenario corpus


def _orbit_inventory(orders: Sequence[int], L: int, q: int) -> list[tuple[int, int]]:
    """All Frobenius orbits of allowed exponents coprime to q: (rep, size),
    on the exponent residues mod ``L`` of ``endokit.descent``."""
    exps = set()
    for order in sorted(set(orders)):
        if gcd(order, q) == 1:
            exps.update(j * (L // order) for j in range(order) if gcd(j, order) == 1)
    out = []
    seen: set[int] = set()
    for r in sorted(exps):
        if r in seen:
            continue
        orb = orbit_of(r, L, q)
        seen.update(orb)
        out.append((min(orb), len(orb)))
    return out


def _orbit_multisets(inventory: Sequence[tuple], size: int) -> Iterator[tuple[tuple, ...]]:
    """Multisets of ``(item, weight)`` inventory entries with total weight
    ``size``: ((item, mult), ...), each multiplicity positive."""

    def rec(idx: int, rest: int, acc: tuple) -> Iterator[tuple]:
        if rest == 0:
            yield acc
            return
        if idx == len(inventory):
            return
        rep, w = inventory[idx]
        for mult in range(rest // w, -1, -1):
            yield from rec(idx + 1, rest - mult * w, acc + ((rep, mult),) if mult else acc)

    yield from rec(0, size, ())


def _expand(orbits: Iterable[tuple[int, int]], L: int, q: int) -> EigenMultiset:
    entries = []
    for rep, mult in orbits:
        for r in sorted(orbit_of(rep, L, q)):
            entries.extend([RootOfUnity.of(r, L)] * mult)
    return EigenMultiset.of(entries)


def _orthogonal_multisets(
    inventory: Sequence[tuple[int, int]], L: int, q: int, size: int
) -> Iterator[EigenMultiset]:
    """Inversion-closed multisets with +1 of odd multiplicity, given size."""
    items: list[tuple[tuple[int, ...], int]] = []  # (reps, weight)
    seen_pairs: set[int] = set()
    for rep, w in inventory:
        if rep in (0, L // 2):
            continue
        orb = orbit_of(rep, L, q)
        if is_self_inverse(orb, L):
            items.append(((rep,), w))
        else:
            key = pair_class_key(orb, L)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            items.append(((rep, min(orbit_inverse(orb, L))), 2 * w))
    for plus in range(1, size + 1, 2):
        for minus in range(0, size - plus + 1, 2):
            for combo in _orbit_multisets(items, size - plus - minus):
                orbits = [(0, plus)]
                if minus:
                    orbits.append((L // 2, minus))
                orbits.extend((r, mult) for reps, mult in combo for r in reps)
                yield _expand(orbits, L, q)


def _gl_multisets(inventory: Sequence[tuple[int, int]], L: int, q: int, size: int) -> Iterator[EigenMultiset]:
    for combo in _orbit_multisets(inventory, size):
        yield _expand(combo, L, q)


def scenario_corpus(spec: CampaignSpec) -> Iterator[DescentScenario]:
    """Every validated scenario within the campaign bounds, under the
    unramified hypothesis; deterministic lexicographic order.  Exponents are
    built as residues mod the lcm of 2 and every allowed order."""
    L = lcm(2, *spec.orders)
    for n in range(1, spec.max_rank + 1):
        for datum in levi_data(n):
            sizes, m = datum.sizes, datum.remainder
            for q in sorted(set(spec.q_values)):
                inventory = _orbit_inventory(spec.orders, L, q)
                gl_options = [list(_gl_multisets(inventory, L, q, s)) for s in sizes]
                for mp in range(m + 1):
                    md = m - mp
                    primes = list(_orthogonal_multisets(inventory, L, q, 2 * mp + 1))
                    dbls = list(_orthogonal_multisets(inventory, L, q, 2 * md + 1))
                    for eps_gl in itertools.product(*gl_options) if gl_options else [()]:
                        for eps_p in primes:
                            minus_p = sum(1 for x in eps_p.entries if x.is_minus_one)
                            tags_p = ["split"] if minus_p == 0 else ["split", "unram_nonsplit"]
                            for eps_d in dbls:
                                minus_d = sum(1 for x in eps_d.entries if x.is_minus_one)
                                tags_d = ["split"] if minus_d == 0 else ["split", "unram_nonsplit"]
                                for tag_p in tags_p:
                                    for tag_d in tags_d:
                                        yield DescentScenario(
                                            n=n,
                                            sizes=sizes,
                                            s0=EllipticDatumMeta(mp, md),
                                            q=q,
                                            eps_gl=tuple(eps_gl),
                                            eps_prime=eps_p,
                                            eps_dblprime=eps_d,
                                            form_class_prime=tag_p,
                                            form_class_dblprime=tag_d,
                                        )


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
        from ._intlinalg import snf_with_transforms

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


class _Hole:
    """Prints as an empty ``str.format`` field: a place left open in the
    ``repr`` of a shape part."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "{}"


_HOLE = _Hole()
# The ``repr`` of a shape part with holes, by the part: a campaign meets
# only a few hundred distinct parts.  Equal parts print alike, as each
# member of a part has one type (a flag is always a bool).
_text = cache(repr)


def _block_part(outcome: DescentOutcome, b: Block) -> tuple[str, tuple[int, ...]]:
    """One block's part of the shape key, with its owner and exponents left
    open: a format string whose fields take the owner (a Levi block's only)
    and then the class of each exponent of the tuple, in that order.  The
    exponents are the second member of a ``u`` or ``gl`` home and the third
    member of a placement; exponents are ints too, so no type test could
    tell them apart, and their positions fix them."""
    exps: list[int] = []

    def hole(exp: int) -> _Hole:
        exps.append(exp)
        return _HOLE

    twists = [(s,) * outcome.i_count for s in (1, -1)]
    home = (b.home[0], hole(b.home[1])) if b.home[0] in ("u", "gl") else b.home
    sigma_places = [placement(outcome, b, t) for t in twists]
    open_sigma = tuple(p if len(p) == 2 else (p[0], p[1], hole(p[2])) for p in sigma_places)
    open_indep = tuple(
        p if len(p) == 2 else (p[0], p[1], hole(p[2])) for p in (placement_independent(outcome, b, t) for t in twists)
    )
    if b.home[0] == "gl":
        or_eta = _eta_orientation(outcome, b)
        or_eps = tuple(_eps_orientation(outcome, b, t, p[2]) for t, p in zip(twists, sigma_places))
    else:
        or_eta, or_eps = 0, (0, 0)
    owner = None if b.owner is None else _HOLE
    part = (b.size, b.ext, b.origin, owner, b.tag, b.sbar0, home, open_sigma, open_indep, or_eta, or_eps)
    return _text(part), tuple(exps)


def _owner_orders(sizes: tuple[int, ...], invariant) -> Iterator[tuple[int, ...]]:
    """The candidate orders of the Levi owners, each as the old owner at
    every new position: owners move only among positions of their size,
    sorted there by ``invariant(owner)``, and owners of equal invariant take
    those positions in every order."""
    order = list(range(len(sizes)))
    runs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for size in sorted(set(sizes)):
        positions = [i for i, s in enumerate(sizes) if s == size]
        if len(positions) < 2:
            continue
        ranks = {i: invariant(i) for i in positions}
        ranked = sorted(positions, key=ranks.__getitem__)
        for _, run in itertools.groupby(zip(positions, ranked), key=lambda pair: ranks[pair[1]]):
            at, owners = zip(*run)
            for position, owner in zip(at, owners):
                order[position] = owner
            if len(at) > 1:
                runs.append((at, owners))
    for choice in itertools.product(*(itertools.permutations(owners) for _, owners in runs)):
        for (at, _), owners in zip(runs, choice):
            for position, owner in zip(at, owners):
                order[position] = owner
        yield tuple(order)


def outcome_shape(outcome: DescentOutcome) -> str:
    """Canonical combinatorial shape of an outcome, as one string.

    Two outcomes of equal shape differ only by which exact roots of unity
    realize the same orbit pattern, and by the order of equal-size Levi
    blocks, which the Weyl group of the Levi permutes.  Every identity
    check consumes only the data below (block structure, placements,
    orientations, slot incidences), and relabeling the owners of equal-size
    blocks renames the twist coordinates, so equal shapes give identical
    check results up to the positions that witnesses name.

    A rendering of the outcome is the ``repr`` of a nested tuple whose atoms
    are ``int``, ``str``, ``bool`` and ``None``: its blocks in owner order
    (pulled blocks last), its slots, side ranks and classes, the owner count
    and the Levi sizes; exponents are numbered by first appearance, so a
    rendering is exact and injective.  The key is the least rendering over
    the orders of the Levi owners that keep every size in place.  Each
    block's part is built once with its owner and exponents open; owners
    are ranked by an invariant that names neither owners nor exponents (the
    parts of their blocks, with exponents numbered within the owner), and
    only owners whose invariants tie are permuted (canonical-form isomorph
    rejection, as in McKay, "Isomorph-free exhaustive generation", 1998).
    """
    sizes = outcome.scenario.sizes
    by_owner: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in sizes]
    pulled: list[tuple[str, tuple[int, ...]]] = []
    for b in outcome.blocks:
        (pulled if b.owner is None else by_owner[b.owner]).append(_block_part(outcome, b))
    frame = _text((
        (_HOLE,) * len(outcome.blocks),
        tuple((_HOLE, s.d, s.k_prime, s.k_dbl) for s in outcome.u_slots),
        (outcome.x_prime, outcome.y_prime, outcome.x_dbl, outcome.y_dbl),
        (outcome.class_prime, outcome.class_dbl, outcome.pulled_prime, outcome.pulled_dbl),
        len(sizes),
        sizes,
    ))
    slot_exps = [s.eta_rep for s in outcome.u_slots]

    def invariant(owner: int) -> tuple:
        local: dict[int, int] = {}
        parts = by_owner[owner]
        numbers = tuple(local.setdefault(e, len(local)) for _, exps in parts for e in exps)
        return tuple(text for text, _ in parts), numbers

    def render(order: tuple[int, ...]) -> str:
        classes: dict[int, int] = {}
        texts = [
            text.format(new, *[classes.setdefault(e, len(classes)) for e in exps])
            for new, old in enumerate(order)
            for text, exps in by_owner[old]
        ]
        texts += [text.format(*[classes.setdefault(e, len(classes)) for e in exps]) for text, exps in pulled]
        return frame.format(*texts, *[classes.setdefault(e, len(classes)) for e in slot_exps])

    return min(map(render, _owner_orders(sizes, invariant)))


class ShapeCache(dict):
    """Verdict tuples by ``outcome_shape`` key, each distinct tuple held once.

    A campaign checks tens of thousands of shapes but meets only a few dozen
    distinct verdict tuples, so ``intern`` hands every equal tuple out as one
    object.  It keys them by ``repr``, which keeps apart values that compare
    equal but that the report writes differently (``True`` and ``1``,
    ``Fraction(1)`` and ``1``)."""

    def __init__(self):
        super().__init__()
        self._interned: dict[str, tuple[Verdict, ...]] = {}

    def intern(self, verdicts: tuple[Verdict, ...]) -> tuple[Verdict, ...]:
        return self._interned.setdefault(repr(verdicts), verdicts)


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
        pushed = guarded(("pushed-group",), lambda: [pushed_group_check(outcome, amb, t) for t in outcome.twists])
        if pushed is not None:
            ok["pushed-group"] = all(pushed)
        entries = guarded(ENTRY_LAWS, lambda: enumerate_E_natural(outcome, amb))
    if entries is not None:
        identities = guarded(IDENTITY_LAWS, lambda: [verify_identities(outcome, amb, entry) for entry in entries])
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
        ok.update(guarded(INDEX_SET_LAWS, lambda: verify_index_sets(outcome, amb, entries)) or {})
        witness["entry-count"] = {"e_natural": len(entries)}
    return tuple(
        (check, law, "pass" if ok.get(check, True) else "fail", tuple(sorted(witness.get(check, {}).items())))
        for check, law in DESCENT_LAWS.items()
    )


def _scenario_pairs(scenarios: Iterable[DescentScenario], fault: str | None) -> Iterator[Pair]:
    """``(digest, verdicts)`` of each scenario, through one shape cache."""
    cache = ShapeCache()
    for sc in scenarios:
        got = check_scenario(sc, fault, cache)
        yield got.digest, got.verdicts


def _shards(scenarios: Iterable[DescentScenario], jobs: int) -> list[list[DescentScenario]]:
    """At most ``jobs`` non-empty shards of the scenarios, each holding whole
    groups of equal Levi ``sizes``.  ``outcome_shape`` contains the sizes, so
    no shape is checked in two shards.  Groups are dealt largest first, ties
    by sizes, each to the shard with the fewest scenarios so far."""
    groups: dict[tuple[int, ...], list[DescentScenario]] = {}
    for sc in scenarios:
        groups.setdefault(sc.sizes, []).append(sc)
    shards: list[list[DescentScenario]] = [[] for _ in range(jobs)]
    for sizes in sorted(groups, key=lambda s: (-len(groups[s]), s)):
        min(shards, key=len).extend(groups[sizes])
    return [shard for shard in shards if shard]


def run_descent_suite(spec: CampaignSpec, records: list[Pair], jobs: int = 1) -> None:
    scenarios = scenario_corpus(spec)
    if jobs <= 1:
        records.extend(_scenario_pairs(scenarios, spec.fault))
        return
    from concurrent.futures import ProcessPoolExecutor

    shards = _shards(scenarios, jobs)
    if shards:
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            for chunk in pool.map(_check_bucket_worker, [(shard, spec.fault) for shard in shards]):
                records.extend(chunk)


def _check_bucket_worker(args: tuple[list[DescentScenario], str | None]) -> list[Pair]:
    """A pool task: the ``(digest, verdicts)`` pairs of one shard.  Pickle's
    memo sends each distinct verdict tuple once."""
    return list(_scenario_pairs(*args))


def run_campaign(spec: CampaignSpec, jobs: int = 1) -> VerificationReport:
    suite_runners = {
        "counts": run_counts_suite,
        "nonstandard": run_nonstandard_suite,
        "torsion": run_torsion_suite,
        "arthur-product": run_arthur_product_suite,
        "diag-oracle": run_diag_oracle_suite,
        "goldens": run_goldens_suite,
        "descent": lambda spec, records: run_descent_suite(spec, records, jobs),
    }
    for suite in spec.suites:
        if suite not in suite_runners:
            raise ValueError(f"unknown suite {suite!r}")
    if spec.fault is not None and spec.fault not in FAULTS:
        raise ValueError(f"unknown fault {spec.fault!r}")
    if any(order < 1 for order in spec.orders):
        raise ValueError(f"eigenvalue orders must be positive, not {list(spec.orders)}")
    pairs: list[Pair] = []
    timings: dict[str, float] = {}
    for suite in spec.suites:
        t0 = time.time()
        suite_runners[suite](spec, pairs)
        timings[suite] = time.time() - t0
    return VerificationReport(spec, pairs, timings)
