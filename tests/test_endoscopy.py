from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from endokit.catalog import GroupType, LeviDatum, gl, levi_data, so_even, so_odd, sp, u
from endokit.endoscopy import (
    ArthurConfig,
    EigenMultiset,
    EllipticDatumMeta,
    SElement,
    SpEllipticDatum,
    UEllipticDatum,
    arthur_L_of_s,
    correspond_lie,
    correspond_mu,
    correspond_mu1_check,
    e_set,
    elliptic_data_meta,
    endoscopic_group_meta,
    g_of_s,
    i_meta,
    i_standard,
    z_torsion,
)
from endokit.errors import InvariantViolation
from endokit.rootsofunity import (
    MINUS_ONE_KEYS,
    ONE_KEYS,
    RootOfUnity,
    sc_exact_key,
    sc_inv,
    sc_inv_exact_key,
    sc_is_one,
    sc_key,
)
from oracles import INDEX_SWEEPS, index_sweep, sc_is_minus_one, sp_elliptic_data, u_elliptic_data, weyl_relative_order


def odd(*xs):
    return EigenMultiset.odd_orthogonal([F(x) for x in xs])


class TestEllipticData:
    def test_counts(self):
        for m in range(0, 9):
            assert len(elliptic_data_meta(m)) == m + 1

    def test_rank_two(self):
        assert [(d.m_prime, d.m_dblprime) for d in elliptic_data_meta(2)] == [
            (0, 2),
            (1, 1),
            (2, 0),
        ]

    def test_group_construction(self):
        got = endoscopic_group_meta(LeviDatum((), 2), EllipticDatumMeta(1, 1))
        assert got == GroupType.of(so_odd(1), so_odd(1))
        # a trivial odd factor disappears
        got = endoscopic_group_meta(LeviDatum((1,), 2), EllipticDatumMeta(2, 0))
        assert got == GroupType.of(gl(1), so_odd(2))
        got = endoscopic_group_meta(LeviDatum((2,), 1), EllipticDatumMeta(0, 1))
        assert got == GroupType.of(gl(2), so_odd(1))


class TestESet:
    def test_sizes(self):
        for sizes, m in [((1, 1), 0), ((), 2), ((1, 1, 1), 1), ((2, 1), 3)]:
            datum = LeviDatum(sizes, m)
            for s0 in elliptic_data_meta(m):
                assert len(e_set(datum, s0)) == 2 ** len(sizes)

    def test_single_for_full_group(self):
        datum = LeviDatum((), 2)
        assert len(e_set(datum, EllipticDatumMeta(1, 1))) == 1

    def test_g_of_s(self):
        s = SElement(LeviDatum((1, 1), 1), EllipticDatumMeta(1, 0), (1, -1))
        gos = g_of_s(s)
        assert (gos.n_prime, gos.n_dblprime) == (2, 1)
        assert gos.group == GroupType.of(so_odd(2), so_odd(1))

    def test_weyl_embedding_orders_divide(self):
        for n in range(1, 7):
            from endokit.catalog import levi_data

            for datum in levi_data(n):
                big = weyl_relative_order(GroupType.of(sp(n)), datum)
                for s in e_set(datum, EllipticDatumMeta(datum.remainder, 0)):
                    gos = g_of_s(s)
                    dp = LeviDatum(
                        tuple(datum.sizes[i] for i in s.i_prime), s.base.m_prime
                    )
                    dd = LeviDatum(
                        tuple(datum.sizes[i] for i in s.i_dblprime), s.base.m_dblprime
                    )
                    small = weyl_relative_order(
                        GroupType.of(so_odd(gos.n_prime)), dp
                    ) * weyl_relative_order(GroupType.of(so_odd(gos.n_dblprime)), dd)
                    assert big % small == 0


class TestTorsion:
    def test_signs(self):
        s = SElement(LeviDatum((1, 1), 1), EllipticDatumMeta(1, 0), (1, -1))
        assert z_torsion(s).signs == (1, -1)

    def test_identity_when_no_minus(self):
        s = SElement(LeviDatum((2,), 0), EllipticDatumMeta(0, 0), (1,))
        blocks = (EigenMultiset.of([F(2), F(3)]),)
        assert z_torsion(s).apply(blocks) == blocks

    def test_square_trivial(self):
        s = SElement(LeviDatum((1, 1), 0), EllipticDatumMeta(0, 0), (-1, -1))
        z = z_torsion(s)
        blocks = (EigenMultiset.of([F(2)]), EigenMultiset.of([F(3)]))
        assert z.apply(z.apply(blocks)) == blocks


class TestCorrespondences:
    def test_recipe(self):
        out = correspond_mu(odd(2, 1, "1/2"), odd(3, 1, "1/3"), EllipticDatumMeta(1, 1))
        assert out == EigenMultiset.symplectic([F(2), F(1, 2), F(-3), F(-1, 3)])

    def test_trivial(self):
        assert correspond_mu(odd(1), odd(1), EllipticDatumMeta(0, 0)).size() == 0

    def test_negation_of_minus_ones(self):
        out = correspond_mu(odd(1), odd(-1, 1, -1), EllipticDatumMeta(0, 1))
        assert out == EigenMultiset.symplectic([F(1), F(1)])

    def test_output_invariant(self):
        out = correspond_mu(
            odd(5, 1, "1/5"), odd(2, 2, 1, "1/2", "1/2"), EllipticDatumMeta(1, 2)
        )
        EigenMultiset.symplectic(out.entries)  # validates closure and parity
        assert out.size() == 6

    def test_mu1_route_match_single_block(self):
        s = SElement(LeviDatum((1,), 0), EllipticDatumMeta(0, 0), (-1,))
        assert correspond_mu1_check([EigenMultiset.of([F(5)])], odd(1), odd(1), s)

    def test_mu1_trivial_when_all_plus(self):
        s = SElement(LeviDatum((2,), 1), EllipticDatumMeta(1, 0), (1,))
        assert correspond_mu1_check(
            [EigenMultiset.of([F(2), F(3)])], odd(7, 1, "1/7"), odd(1), s
        )

    def test_lie_variant(self):
        out = correspond_lie(
            EigenMultiset.additive([F(1), F(0), F(-1)]),
            EigenMultiset.additive([F(2), F(0), F(-2)]),
        )
        assert out == EigenMultiset.additive([F(1), F(-1), F(2), F(-2)])

    def test_lie_zero_case(self):
        out = correspond_lie(EigenMultiset.additive([F(0)]), EigenMultiset.additive([F(0)]))
        assert out.size() == 0

    def test_lie_multiplicities(self):
        out = correspond_lie(
            EigenMultiset.additive([F(3), F(3), F(0), F(-3), F(-3)]),
            EigenMultiset.additive([F(0)]),
        )
        assert out == EigenMultiset.additive([F(3), F(3), F(-3), F(-3)])

    def test_multiset_invariants_enforced(self):
        with pytest.raises(InvariantViolation):
            EigenMultiset.odd_orthogonal([F(2), F(1)])
        with pytest.raises(InvariantViolation):
            EigenMultiset.symplectic([F(1)])
        with pytest.raises(InvariantViolation):
            EigenMultiset.odd_orthogonal([F(2), F(1, 2)])


class TestIMeta:
    def test_full_group_is_one(self):
        datum = LeviDatum((), 2)
        s0 = EllipticDatumMeta(1, 1)
        assert i_meta(datum, s0, SElement(datum, s0, ())) == 1

    def test_worked_prime_side(self):
        datum = LeviDatum((1,), 1)
        s0 = EllipticDatumMeta(1, 0)
        assert i_meta(datum, s0, SElement(datum, s0, (1,))) == 1

    def test_worked_dblprime_side(self):
        datum = LeviDatum((1,), 1)
        s0 = EllipticDatumMeta(1, 0)
        assert i_meta(datum, s0, SElement(datum, s0, (-1,))) == F(1, 2)

    def test_power_of_two(self):
        for sizes, m in [((1,), 2), ((1, 1), 1), ((2, 1), 1)]:
            datum = LeviDatum(sizes, m)
            for s0 in elliptic_data_meta(m):
                for s in e_set(datum, s0):
                    v = i_meta(datum, s0, s)
                    assert v > 0
                    num_den = v.numerator * v.denominator
                    assert num_den & (num_den - 1) == 0  # power of two


@pytest.mark.parametrize("name", INDEX_SWEEPS)
def test_index_ratio_sweep_is_pinned(name):
    assert index_sweep(name) == INDEX_SWEEPS[name][1:]


class TestClassicalData:
    def test_sp_rank_one(self):
        got = [(d.m_prime, d.even_rank, d.even_class) for d in sp_elliptic_data(1)]
        assert got == [
            (1, 0, "split"),
            (0, 1, "unram_nonsplit"),
            (0, 1, "ramified"),
        ]

    def test_sp_rank_zero(self):
        assert [(d.m_prime, d.even_rank) for d in sp_elliptic_data(0)] == [(0, 0)]

    def test_split_rank_one_even_part_rejected(self):
        with pytest.raises(InvariantViolation):
            SpEllipticDatum(0, 1, "split")

    def test_u_pairs(self):
        assert [(d.m_prime, d.m_dblprime) for d in u_elliptic_data(2)] == [(2, 0), (1, 1)]

    def test_u_symmetry_normalized(self):
        assert UEllipticDatum(1, 3) == UEllipticDatum(3, 1)


class TestArthurConstruction:
    def test_symplectic_example(self):
        cfg = ArthurConfig(sp(2), (1,), sp_datum=SpEllipticDatum(1, 0))
        assert arthur_L_of_s(cfg, frozenset()) == GroupType.of(sp(2))
        assert arthur_L_of_s(cfg, frozenset({0})) == GroupType.of(sp(1), so_even(1))

    def test_tautological(self):
        cfg = ArthurConfig(sp(2), (), sp_datum=SpEllipticDatum(1, 1, "unram_nonsplit"))
        assert i_standard(cfg, frozenset()) == 1

    def test_unitary_example(self):
        cfg = ArthurConfig(u(3), (1,), u_datum=UEllipticDatum(1, 0))
        assert arthur_L_of_s(cfg, frozenset({0})) == GroupType.of(u(1), u(2))
        assert arthur_L_of_s(cfg, frozenset()) == GroupType.of(u(3))

    def test_unitary_indices_against_elements(self):
        cfg = ArthurConfig(u(3), (1,), u_datum=UEllipticDatum(1, 0))
        assert i_standard(cfg, frozenset({0})) == F(1, 2)
        assert i_standard(cfg, frozenset()) == 1

    def test_i_standard_against_coset_oracle(self):
        from oracles import generalized_lattice_index

        # the index of one diagonalizable group in another is the index of
        # the vanishing lattices with the roles swapped; here the ascent
        # group's center mu2 x mu2 sits over the diagonal mu2 of the ambient
        num = F(1)  # both Levi centers agree on the core
        den = generalized_lattice_index(
            [(1, -1), (0, 2)],  # vanishing chars of the diagonal mu2
            [(2, 0), (0, 2)],  # vanishing chars of mu2 x mu2
        )
        assert den == 2
        cfg = ArthurConfig(u(3), (1,), u_datum=UEllipticDatum(1, 0))
        assert i_standard(cfg, frozenset({0})) == num / den

    def test_even_class_preserved(self):
        cfg = ArthurConfig(sp(3), (1,), sp_datum=SpEllipticDatum(1, 1, "ramified"))
        got = arthur_L_of_s(cfg, frozenset({0}))
        assert got == GroupType.of(sp(1), so_even(2, "ramified"))


class TestWeylEmbedding:
    """Generator-level check that the small signed-permutation group embeds."""

    @staticmethod
    def _compose(a, b):
        # signed permutations as (perm tuple, sign tuple): (a o b)
        pa, sa = a
        pb, sb = b
        perm = tuple(pa[pb[i]] for i in range(len(pa)))
        signs = tuple(sa[pb[i]] * sb[i] for i in range(len(pb)))
        return perm, signs

    @classmethod
    def _generate(cls, gens, n):
        identity = (tuple(range(n)), (1,) * n)
        seen = {identity}
        frontier = [identity]
        while frontier:
            new = []
            for g in frontier:
                for h in gens:
                    x = cls._compose(h, g)
                    if x not in seen:
                        seen.add(x)
                        new.append(x)
            frontier = new
        return seen

    def test_subgroup_embedding(self):
        # I = {0,1,2} with equal blocks; I' = {0,1}, I'' = {2}
        n = 3
        flip = lambda i: (tuple(range(n)), tuple(-1 if j == i else 1 for j in range(n)))
        swap01 = ((1, 0, 2), (1, 1, 1))
        big = self._generate([flip(0), flip(1), flip(2), swap01, ((0, 2, 1), (1, 1, 1))], n)
        assert len(big) == 48  # full signed permutations of three letters
        small = self._generate([flip(0), flip(1), flip(2), swap01], n)
        assert len(small) == 16  # signed perms of {0,1} times signs on {2}
        assert small <= big
        assert len(big) % len(small) == 0


_SCALARS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(lambda x: x != 0),
    st.fractions(min_value=0, max_value=1, max_denominator=8).map(RootOfUnity),
)


class TestExactKeys:
    """Validation through exact integer keys agrees with Fraction arithmetic."""

    @given(_SCALARS)
    def test_inverse_key(self, x):
        assert sc_inv_exact_key(sc_exact_key(x)) == sc_exact_key(sc_inv(x))
        assert (sc_exact_key(x) in ONE_KEYS) == sc_is_one(x)
        assert (sc_exact_key(x) in MINUS_ONE_KEYS) == sc_is_minus_one(x)

    @given(st.lists(_SCALARS, max_size=8))
    def test_sort_matches_scalar_key(self, xs):
        assert EigenMultiset(tuple(xs)).entries == tuple(sorted(xs, key=sc_key))

    @given(st.lists(st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3), F(-1, 3), F(5)]), max_size=7))
    def test_validators_match_counter_route(self, xs):
        c = Counter(xs)
        closed = all(c[sc_inv(x)] == k for x, k in c.items())
        sp_ok = closed and c[F(1)] % 2 == 0 and c[F(-1)] % 2 == 0 and len(xs) % 2 == 0
        odd_ok = closed and c[F(-1)] % 2 == 0 and c[F(1)] % 2 == 1 and len(xs) % 2 == 1
        for build, ok in ((EigenMultiset.symplectic, sp_ok), (EigenMultiset.odd_orthogonal, odd_ok)):
            if ok:
                build(xs)
            else:
                with pytest.raises(InvariantViolation):
                    build(xs)

    def test_remove_one(self):
        ms = EigenMultiset.of([F(2), F(1), F(1, 2), F(1)])
        assert ms.remove_one(F(1)) == EigenMultiset.of([F(2), F(1, 2), F(1)])
        with pytest.raises(InvariantViolation):
            ms.remove_one(F(3))
