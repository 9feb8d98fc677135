from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endokit._intlinalg import det_int, hnf_rows, hnf_with_transform, snf_with_transforms
from endokit.errors import NotCommensurable
from endokit.lattices import (
    DiagSubgroup,
    FiniteAbelianGroup,
    IntLattice,
    arthur_product_check,
    diag_component_group,
    diag_identity_component,
    diag_index,
    diag_intersect,
    diag_product,
    lattice_index,
)

from oracles import diag_elements, diag_product_elements, gram_free_det, index_by_cosets


class TestHermite:
    def test_canonical_form(self):
        assert IntLattice(2, ((2, 2), (0, 2))).generators == ((2, 0), (0, 2))

    def test_zero_lattice(self):
        assert IntLattice(2, ()).generators == ()

    def test_rows_of_any_sequence_type(self):
        """The memoized basis is keyed by the rows' values: list rows and
        bool entries give the int basis of equal tuple rows."""
        assert IntLattice(2, [[2, 2], [0, 2]]).generators == ((2, 0), (0, 2))
        for rows in ([(True, False)], ((1, 0),), [[True, False]]):
            (row,) = IntLattice(2, rows).generators
            assert row == (1, 0) and all(type(x) is int for x in row)

    def test_redundant_generator(self):
        assert IntLattice(2, ((1, 0), (0, 1), (1, 1))).generators == ((1, 0), (0, 1))

    def test_value_equality(self):
        a = IntLattice(3, ((1, 2, 3), (0, 1, 1)))
        b = IntLattice(3, ((1, 3, 4), (0, 1, 1), (1, 2, 3)))
        assert a == b

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=0, max_size=4
        )
    )
    def test_span_unchanged(self, rows):
        lat = IntLattice(3, tuple(tuple(r) for r in rows))
        for r in rows:
            assert lat.contains_vector(r)


class TestSmith:
    def test_diag_2_3(self):
        d, _, _ = snf_with_transforms([[2, 0], [0, 3]], 2)
        assert d == [1, 6]

    def test_identity(self):
        d, _, _ = snf_with_transforms([[1, 0], [0, 1]], 2)
        assert d == [1, 1]

    def test_zero_one_by_one(self):
        d, _, _ = snf_with_transforms([[0]], 1)
        assert d == [0]

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=2, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60)
    def test_reconstruction_and_chain(self, rows):
        n = len(rows[0])
        d, u_mat, v_mat = snf_with_transforms(rows, n)
        m = len(rows)
        prod = [
            [
                sum(u_mat[i][k] * rows[k][j] for k in range(m))
                for j in range(n)
            ]
            for i in range(m)
        ]
        prod = [
            [sum(prod[i][k] * v_mat[k][j] for k in range(n)) for j in range(n)]
            for i in range(m)
        ]
        for i in range(m):
            for j in range(n):
                expect = d[i] if i == j and i < len(d) else 0
                assert prod[i][j] == expect
        nz = [x for x in d if x]
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))


class TestLatticeIndex:
    def test_even_sum_sublattice(self):
        full = IntLattice.full(2)
        even = IntLattice(2, ((1, 1), (0, 2)))
        assert lattice_index(full, even) == 2
        assert lattice_index(even, full) == Fraction(1, 2)

    def test_equal(self):
        lat = IntLattice(2, ((3, 1), (0, 2)))
        assert lattice_index(lat, lat) == 1

    def test_skew_pair(self):
        l1 = IntLattice(2, ((2, 0), (0, 3)))
        l2 = IntLattice(2, ((1, 0), (0, 6)))
        assert lattice_index(l1, l2) == 1

    def test_not_commensurable(self):
        with pytest.raises(NotCommensurable):
            lattice_index(IntLattice(2, ((1, 0),)), IntLattice(2, ((0, 1),)))

    def test_nested_against_coset_count(self):
        big = IntLattice(2, ((1, 0), (0, 1)))
        for rows in [((2, 0), (0, 2)), ((1, 1), (0, 3)), ((2, 1), (0, 1))]:
            small = IntLattice(2, rows)
            assert lattice_index(big, small) == index_by_cosets(big, small)

    def test_reciprocal(self):
        l1 = IntLattice(2, ((2, 1), (0, 5)))
        l2 = IntLattice(2, ((1, 0), (0, 10)))
        assert lattice_index(l1, l2) * lattice_index(l2, l1) == 1


class TestFiniteAbelianGroup:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((4, 6))

    def test_order(self):
        assert FiniteAbelianGroup((2, 6)).order == 12
        assert FiniteAbelianGroup(()).order == 1


class TestDiagSubgroups:
    def test_component_group_snf(self):
        d = DiagSubgroup.from_vanishing(2, [(2, 0), (0, 3)])
        assert diag_component_group(d).invariant_factors == (6,)
        assert diag_identity_component(d) == DiagSubgroup.trivial(2)

    def test_mu2_times_torus(self):
        d = DiagSubgroup.from_vanishing(2, [(2, 0)])
        assert diag_component_group(d).invariant_factors == (2,)
        assert diag_identity_component(d) == DiagSubgroup.from_vanishing(2, [(1, 0)])

    def test_full_torus_connected(self):
        assert diag_component_group(DiagSubgroup.full_torus(3)).is_trivial

    def test_intersect_product_duality(self):
        d1 = DiagSubgroup.from_vanishing(2, [(1, -1)])
        d2 = DiagSubgroup.from_vanishing(2, [(1, 1)])
        assert diag_product(d1, d2) == DiagSubgroup.full_torus(2)
        meet = diag_intersect(d1, d2)
        assert meet.is_finite and meet.order() == 2

    def test_intersect_idempotent(self):
        d = DiagSubgroup.from_vanishing(3, [(2, 0, 1), (0, 1, 1)])
        assert diag_intersect(d, d) == d

    def test_finite_example(self):
        d1 = DiagSubgroup.from_vanishing(2, [(2, 0), (0, 2)])
        assert diag_index(d1, DiagSubgroup.trivial(2)) == 4

    def test_mixed_index(self):
        d1 = DiagSubgroup.from_vanishing(2, [(0, 2)])
        d2 = DiagSubgroup.from_vanishing(2, [(0, 1)])
        assert diag_index(d1, d2) == 2

    def test_index_needs_common_component(self):
        with pytest.raises(NotCommensurable):
            diag_index(DiagSubgroup.full_torus(1), DiagSubgroup.trivial(1))

    def test_index_multiplicative_in_chains(self):
        d1 = DiagSubgroup.from_vanishing(1, [(2,)])
        d2 = DiagSubgroup.from_vanishing(1, [(4,)])
        d3 = DiagSubgroup.from_vanishing(1, [(8,)])
        assert diag_index(d3, d1) == diag_index(d3, d2) * diag_index(d2, d1)

    def test_component_order_is_index_over_identity(self):
        d = DiagSubgroup.from_vanishing(3, [(2, 0, 0), (0, 3, 1)])
        assert diag_component_group(d).order == diag_index(d, diag_identity_component(d))

    def test_against_element_enumeration(self):
        cases = [
            (2, [(2, 0), (0, 2)], [(1, 1), (0, 4)]),
            (2, [(2, 1), (0, 3)], [(1, 0), (0, 2)]),
            (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)], [(1, 1, 0), (0, 2, 0), (0, 0, 1)]),
        ]
        for n, rows1, rows2 in cases:
            d1 = DiagSubgroup.from_vanishing(n, rows1)
            d2 = DiagSubgroup.from_vanishing(n, rows2)
            e1, e2 = diag_elements(d1), diag_elements(d2)
            assert diag_elements(diag_intersect(d1, d2)) == e1 & e2
            assert diag_elements(diag_product(d1, d2)) == diag_product_elements(e1, e2)
            want = Fraction(len(e1), len(e1 & e2)) / Fraction(len(e2), len(e1 & e2))
            assert diag_index(d1, d2) == want


class TestArthurProduct:
    def test_positive_case(self):
        d_s = DiagSubgroup.from_vanishing(2, [(2, 0)])
        d_h = DiagSubgroup.from_vanishing(2, [(2, 0), (0, 1)])
        d_s0 = DiagSubgroup.from_vanishing(2, [(1, 0)])
        assert arthur_product_check(d_h, d_s, d_s0)

    def test_strict_failure(self):
        d_s = DiagSubgroup.from_vanishing(1, [(2,)])
        assert not arthur_product_check(
            DiagSubgroup.trivial(1), d_s, DiagSubgroup.trivial(1)
        )

    def test_translation_identity(self):
        # A cap (B a) == (A cap B) a for subgroups with a <= A, elementwise
        d_a = DiagSubgroup.from_vanishing(2, [(2, 0), (0, 2)])
        d_b = DiagSubgroup.from_vanishing(2, [(1, 1), (0, 4)])
        d_small = DiagSubgroup.from_vanishing(2, [(1, 0), (0, 2)])
        assert d_a.contains(d_small)
        ea, eb, es = diag_elements(d_a), diag_elements(d_b), diag_elements(d_small)
        left = ea & diag_product_elements(eb, es)
        right = diag_product_elements(ea & eb, es)
        assert left == right


class TestSpecExamples:
    def test_mu2_diagonal_meets_coordinate_torus_trivially(self):
        mu2diag = DiagSubgroup.from_vanishing(2, [(1, 1), (0, 2)])
        z_axis = DiagSubgroup.from_vanishing(2, [(0, 1)])
        meet = diag_intersect(mu2diag, z_axis)
        assert meet == DiagSubgroup.trivial(2)
        # elementwise: which points of the finite group kill the character (0,1)
        surviving = {
            x for x in diag_elements(mu2diag) if (x[1] % 1) == 0
        }
        assert surviving == {(Fraction(0), Fraction(0))}


def _square_matrices(max_n: int, bound: int):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


class TestExactKernels:
    """The elimination kernels against slower independent routes."""

    @given(_square_matrices(5, 5))
    @settings(max_examples=200)
    def test_det_int_matches_cofactor_expansion(self, rows):
        assert det_int(rows) == gram_free_det(rows)

    def test_det_int_pivot_swaps_and_singular(self):
        for rows in (
            [[0, 1], [1, 0]],
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            [[1, 2, 3], [2, 4, 6], [0, 1, 1]],
            [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
            [[2, 0], [0, 0]],
        ):
            assert det_int(rows) == gram_free_det(rows)
        assert det_int([]) == 1

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=0, max_size=6
            ).map(lambda rows: (n, rows))
        )
    )
    @settings(max_examples=200)
    def test_hnf_rows_matches_transform_route(self, case):
        n, rows = case
        h, u = hnf_with_transform(rows, n)
        assert hnf_rows(rows, n) == tuple(tuple(r) for r in h if any(r))
        for i, urow in enumerate(u):
            assert [sum(c * r[j] for c, r in zip(urow, rows)) for j in range(n)] == h[i]

    @given(_square_matrices(4, 4).filter(lambda rows: gram_free_det(rows) != 0))
    @settings(max_examples=100)
    def test_finite_order_matches_smith_form(self, rows):
        n = len(rows)
        d, _, _ = snf_with_transforms(rows, n)
        order = 1
        for x in d:
            order *= x
        assert DiagSubgroup.from_vanishing(n, rows).order() == order == abs(gram_free_det(rows))
