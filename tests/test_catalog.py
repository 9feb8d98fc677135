import pytest

from endokit.catalog import (
    GroupType,
    LeviDatum,
    bar,
    dual_center,
    gl,
    grouping_patterns,
    layout_for,
    levi_data,
    levi_enumerate,
    so_even,
    so_odd,
    sp,
    u,
)
from endokit.errors import UnsupportedFactor
from endokit.lattices import DiagSubgroup, arthur_product_check, diag_index
from oracles import weyl_relative_order


class TestFactorTypes:
    def test_trivial_factors_dropped(self):
        assert GroupType.of(sp(0), so_odd(0), so_even(0), gl(1)) == GroupType.of(gl(1))

    def test_canonical_sorting(self):
        assert GroupType.of(sp(2), gl(1)) == GroupType.of(gl(1), sp(2))

    def test_gl_rank_positive(self):
        with pytest.raises(ValueError):
            gl(0)

    def test_widths(self):
        assert gl(2, 3).width == 6
        assert u(2, 3).width == 12
        assert sp(4).width == 4
        assert so_odd(3).width == 3
        assert so_even(2).width == 2

    def test_so_even_rank_zero_normalizes(self):
        assert so_even(0, "ramified").form_class == "split"


class TestLeviData:
    def test_rank_one(self):
        assert [(d.sizes, d.remainder) for d in levi_data(1)] == [((), 1), ((1,), 0)]

    def test_rank_zero(self):
        assert [(d.sizes, d.remainder) for d in levi_data(0)] == [((), 0)]

    def test_rank_two_count(self):
        assert len(levi_data(2)) == 4

    def test_counts_match_bruteforce(self):
        # multisets of positive integers with sum <= n
        def brute(n):
            seen = set()

            def rec(rest, maxpart, acc):
                seen.add(tuple(sorted(acc, reverse=True)))
                for p in range(min(rest, maxpart), 0, -1):
                    rec(rest - p, p, acc + (p,))

            rec(n, n, ())
            return len(seen)

        for n in range(0, 9):
            assert len(levi_data(n)) == brute(n)


class TestDualCenters:
    def test_gl_so_odd(self):
        g = GroupType.of(gl(1), so_odd(1))
        fixed, fixed0 = dual_center(g, layout_for(g))
        assert fixed.dim == 1
        assert diag_index(fixed, fixed0) == 2

    def test_sp_trivial(self):
        g = GroupType.of(sp(3))
        fixed, _ = dual_center(g, layout_for(g))
        assert fixed == DiagSubgroup.trivial(3)

    def test_bar_center_relations(self):
        for g in [
            GroupType.of(so_odd(2), u(2)),
            GroupType.of(so_odd(1), gl(2), so_even(2, "unram_nonsplit")),
            GroupType.of(so_odd(3)),
        ]:
            gb = bar(g)
            lay = layout_for(g)
            fixed, fixed0 = dual_center(g, lay)
            bfixed, bfixed0 = dual_center(gb, lay)
            assert bfixed0 == fixed0
            assert fixed.contains(bfixed)


class TestBar:
    def test_swap(self):
        assert bar(GroupType.of(so_odd(2), u(2))) == GroupType.of(sp(2), u(2))

    def test_identity_without_odd_factors(self):
        g = GroupType.of(gl(2), so_even(2))
        assert bar(g) == g

    def test_degenerate(self):
        assert bar(GroupType.of(so_odd(0))).is_trivial


class TestLeviEnumeration:
    def test_sp4(self):
        got = {e.levi.display() for e in levi_enumerate(GroupType.of(sp(2)))}
        assert got == {"Sp(4)", "GL(1) x Sp(2)", "GL(2)", "GL(1) x GL(1)"}

    def test_so3(self):
        got = {e.levi.display() for e in levi_enumerate(GroupType.of(so_odd(1)))}
        assert got == {"SO(3)", "GL(1)"}


class TestWeylOrders:
    def test_two_equal_blocks(self):
        assert weyl_relative_order(GroupType.of(sp(3)), LeviDatum((1, 1), 1)) == 8

    def test_empty(self):
        assert weyl_relative_order(GroupType.of(sp(2)), LeviDatum((), 2)) == 1

    def test_unequal_blocks(self):
        assert weyl_relative_order(GroupType.of(sp(3)), LeviDatum((2, 1), 0)) == 4

    def test_only_sp_or_odd_so(self):
        with pytest.raises(UnsupportedFactor):
            weyl_relative_order(GroupType.of(u(2)), LeviDatum((), 2))


class TestArthurProductOnLevis:
    @pytest.mark.parametrize(
        "g",
        [
            GroupType.of(sp(3)),
            GroupType.of(so_odd(3)),
            GroupType.of(u(3)),
            GroupType.of(so_even(3, "unram_nonsplit")),
            GroupType.of(gl(2), sp(2)),
        ],
        ids=lambda g: g.display(),
    )
    def test_center_product_law(self, g):
        lay = layout_for(g)
        zg, _ = dual_center(g, lay)
        for emb in levi_enumerate(g, lay):
            zs, zs0 = emb.center(lay.ambient_rank)
            assert arthur_product_check(zg, zs, zs0), emb.levi.display()


class TestGroupingPatterns:
    def test_unsigned_partitions_are_bell_numbers(self):
        for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15)]:
            assert len(list(grouping_patterns(n, signed=False, with_core=False))) == bell

    def test_signed_with_core_counts(self):
        # n=2: hand count gives 6 (see the module docstring convention)
        assert len(list(grouping_patterns(2, signed=True, with_core=True))) == 6

    def test_groups_cover_all_blocks_without_core(self):
        for groups, absorbed in grouping_patterns(3, signed=False, with_core=False):
            assert not absorbed
            seen = sorted(i for g in groups for i, _ in g)
            assert seen == [0, 1, 2]

    def test_deterministic(self):
        a = list(grouping_patterns(3, signed=True, with_core=True))
        b = list(grouping_patterns(3, signed=True, with_core=True))
        assert a == b
