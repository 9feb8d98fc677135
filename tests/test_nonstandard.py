from fractions import Fraction

import pytest

from endokit.catalog import GroupType, LeviDatum, gl, levi_data, so_odd, sp, u
from endokit.errors import UnsupportedPairing
from endokit.lattices import IntLattice, lattice_index
from endokit.nonstandard import (
    NSLeviPair,
    build_triple,
    c_nonstandard_closed,
    c_nonstandard_quotient,
    c_nonstandard_raw,
    coroot_span_levi,
)


class TestTriple:
    def test_rank_one(self):
        t = build_triple(1)
        assert t.coroots1() == ((1,), (-1,))
        assert t.coroots2() == ((2,), (-2,))
        assert lattice_index(t.x1, t.x2) == 2

    def test_counts_rank_two(self):
        t = build_triple(2)
        assert len(t.coroots1()) == 8
        assert len(t.coroots2()) == 8

    def test_coroots_span_the_two_lattices(self):
        for n in range(1, 9):
            t = build_triple(n)
            assert IntLattice(n, t.coroots1()) == t.x1
            assert IntLattice(n, t.coroots2()) == t.x2
            assert lattice_index(t.x2, t.x1) == Fraction(1, 2)

    def test_rank_positive(self):
        with pytest.raises(ValueError):
            build_triple(0)


class TestLeviSpans:
    def test_full_group(self):
        t = build_triple(3)
        assert coroot_span_levi(t, NSLeviPair(LeviDatum((), 3)), 1) == t.x1
        assert coroot_span_levi(t, NSLeviPair(LeviDatum((), 3)), 2) == t.x2

    def test_single_block_type_a(self):
        t = build_triple(3)
        span = coroot_span_levi(t, NSLeviPair(LeviDatum((3,), 0)), 1)
        assert span.rank == 2
        for g in span.generators:
            assert sum(g) == 0

    def test_side_two_small_core(self):
        t = build_triple(3)
        span = coroot_span_levi(t, NSLeviPair(LeviDatum((2,), 1)), 2)
        assert span.generators == ((1, -1, 0), (0, 0, 2))

    def test_block_sum_a_space_identity(self):
        # the comparison map is the identity on block-sum vectors
        t = build_triple(4)
        datum = LeviDatum((2, 1), 1)
        s1 = coroot_span_levi(t, NSLeviPair(datum), 1)
        s2 = coroot_span_levi(t, NSLeviPair(datum), 2)
        # both sides see the same type-A part; their quotients differ only
        # in the core column
        for g in s2.generators:
            if sum(abs(x) for x in g[:3]) and not any(g[3:]):
                assert s1.contains_vector(g)


class TestCoefficient:
    def test_closed_form_all_ranks(self):
        for n in range(1, 7):
            t = build_triple(n)
            for datum in levi_data(n):
                pair = NSLeviPair(datum)
                assert c_nonstandard_raw(t, pair) == c_nonstandard_closed(pair)

    def test_values(self):
        t = build_triple(3)
        assert c_nonstandard_raw(t, NSLeviPair(LeviDatum((1,), 2))) == 1
        assert c_nonstandard_raw(t, NSLeviPair(LeviDatum((2, 1), 0))) == Fraction(1, 2)
        assert c_nonstandard_raw(t, NSLeviPair(LeviDatum((), 3))) == 1


class TestQuotientConvention:
    def test_matched_pair(self):
        g1 = GroupType.of(sp(2), gl(1))
        g2 = GroupType.of(so_odd(2), gl(1))
        assert c_nonstandard_quotient(g1, g2, [(2, (1,), 1)]) == 1
        assert c_nonstandard_quotient(g1, g2, [(2, (1, 1), 0)]) == Fraction(1, 2)

    def test_tautological(self):
        g = GroupType.of(u(2), gl(1))
        assert c_nonstandard_quotient(g, g, []) == 1

    def test_two_pairs_multiply(self):
        g1 = GroupType.of(sp(2), sp(1))
        g2 = GroupType.of(so_odd(2), so_odd(1))
        got = c_nonstandard_quotient(g1, g2, [(2, (2,), 0), (1, (1,), 0)])
        assert got == Fraction(1, 4)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(UnsupportedPairing):
            c_nonstandard_quotient(
                GroupType.of(sp(2)), GroupType.of(so_odd(3)), [(2, (), 2)]
            )

    def test_levi_content_must_fill(self):
        with pytest.raises(UnsupportedPairing):
            c_nonstandard_quotient(
                GroupType.of(sp(2)), GroupType.of(so_odd(2)), [(2, (2,), 1)]
            )
