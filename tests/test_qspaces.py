from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endokit.errors import AmbientMismatch, NotNested
from endokit.qspaces import DSquared, QForm, QSubspace, d_coefficient, relative_space

import oracles
from oracles import gram_det

E2 = QForm.standard(2)
E3 = QForm.standard(3)


def span(n, *vecs):
    return QSubspace.span(n, [[Fraction(x) for x in v] for v in vecs])


class TestRelativeSpace:
    def test_antidiagonal(self):
        full = QSubspace.full(2)
        diag = span(2, (1, 1))
        assert relative_space(full, diag, E2) == span(2, (1, -1))

    def test_self_complement_is_zero(self):
        s = span(2, (1, 2))
        assert relative_space(s, s, E2).dim == 0

    def test_sum_zero_plane(self):
        full = QSubspace.full(3)
        line = span(3, (1, 1, 1))
        comp = relative_space(full, line, E3)
        assert comp.dim == 2
        for b in comp.basis:
            assert sum(b) == 0

    def test_not_nested(self):
        with pytest.raises(NotNested):
            relative_space(span(2, (1, 0)), span(2, (0, 1)), E2)

    def test_oracle_small(self):
        # complement of span{(1,2)} in Q^2: solve x + 2y = 0 by hand
        comp = relative_space(QSubspace.full(2), span(2, (1, 2)), E2)
        assert comp == span(2, (2, -1))


class TestQSubspace:
    def test_canonical_basis_is_saturated_integer_hnf(self):
        s = span(3, (Fraction(1, 2), Fraction(1, 3), 0), (2, 2, 2))
        assert s.basis == ((1, 0, -2), (0, 1, 3))
        assert s == span(3, (3, 2, 0), (1, 1, 1))

    def test_contains_vector_rejects_wrong_length(self):
        line = span(3, (1, 0, 0))
        with pytest.raises(AmbientMismatch):
            line.contains_vector([1, 0])
        with pytest.raises(AmbientMismatch):
            line.contains_vector([1, 0, 0, 0])


class TestQForm:
    def test_requires_positive_definite(self):
        with pytest.raises(ValueError):
            QForm(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))))
        with pytest.raises(ValueError):
            QForm(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))))


class TestDCoefficient:
    def test_identity_when_one_side_full(self):
        full = QSubspace.full(2)
        zero = QSubspace(2, ())
        assert d_coefficient(zero, full, full, E2).value == 1

    def test_dimension_mismatch_is_zero(self):
        full = QSubspace.full(2)
        line = span(2, (1, 0))
        assert d_coefficient(line, QSubspace(2, ()), full, E2).value == 0

    def test_orthogonal_lines(self):
        full = QSubspace.full(2)
        assert d_coefficient(span(2, (1, 1)), span(2, (1, -1)), full, E2).value == 1

    def test_non_direct_sum_is_zero(self):
        full = QSubspace.full(2)
        line = span(2, (1, 0))
        assert d_coefficient(line, line, full, E2).value == 0

    def test_symmetry(self):
        full = QSubspace.full(3)
        a = span(3, (1, 0, 0))
        b = span(3, (1, 1, 0), (0, 0, 1))
        assert d_coefficient(a, b, full, E3) == d_coefficient(b, a, full, E3)

    def test_skew_value_against_gram_oracle(self):
        full = QSubspace.full(2)
        a = span(2, (1, 0))
        b = span(2, (1, 1))
        got = d_coefficient(a, b, full, E2)
        # complements: a-perp = (0,1), b-perp = (1,-1); Gram oracle
        u, v = [Fraction(0), Fraction(1)], [Fraction(1), Fraction(-1)]
        dot = lambda x, y: sum(p * q for p, q in zip(x, y))
        num = gram_det([[dot(u, u), dot(u, v)], [dot(v, u), dot(v, v)]])
        den = gram_det([[dot(u, u)]]) * gram_det([[dot(v, v)]])
        assert got.value == num / den
        assert got.value == Fraction(1, 2)

    def test_positive_when_nonzero(self):
        full = QSubspace.full(3)
        a = span(3, (1, 1, 0))
        b = span(3, (0, 1, 1), (1, 0, 0))
        val = d_coefficient(a, b, full, E3)
        if not val.is_zero:
            assert val.value > 0

    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_d_le_one_for_lines(self, p, q):
        # Hadamard: the distortion of two transverse lines is at most 1
        if (p, q) in [(0, 0)]:
            return
        full = QSubspace.full(2)
        a = span(2, (1, 0))
        b = span(2, (p, q))
        val = d_coefficient(a, b, full, E2)
        assert val.value <= 1


class TestDSquared:
    def test_nonnegative(self):
        with pytest.raises(ValueError):
            DSquared(Fraction(-1))

    def test_product(self):
        assert (DSquared(Fraction(1, 2)) * DSquared(Fraction(2, 3))).value == Fraction(1, 3)


# --- against the Fraction row-reduction oracle -------------------------------

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
NONZERO = RATIONALS.filter(lambda x: x != 0)


def _vectors(n, k):
    return st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=k, max_size=k)


def _combos(draw, gens, n):
    """Rational combinations of ``gens``: a subspace of their span."""
    k = draw(st.integers(0, len(gens) + 1))
    out = []
    for coef in draw(_vectors(len(gens), k)):
        out.append([sum((c * g[i] for c, g in zip(coef, gens)), Fraction(0)) for i in range(n)])
    return out


@st.composite
def nested_problems(draw):
    """(n, ar, am, al, gram): am and al inside ar, gram = A A^T + I."""
    n = draw(st.integers(1, 4))
    ar = draw(_vectors(n, draw(st.integers(0, n))))
    am = _combos(draw, ar, n)
    al = _combos(draw, ar, n)
    a = draw(_vectors(n, n))
    gram = [
        [sum((a[i][k] * a[j][k] for k in range(n)), Fraction(int(i == j))) for j in range(n)]
        for i in range(n)
    ]
    return n, ar, am, al, gram


class TestAgainstFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(nested_problems())
    def test_d_coefficient_and_relative_space(self, problem):
        n, ar, am, al, gram = problem
        form = QForm(gram)
        s_ar, s_am, s_al = (QSubspace.span(n, v) for v in (ar, am, al))
        got = d_coefficient(s_am, s_al, s_ar, form)
        assert got.value == oracles.d_coefficient(am, al, ar, gram)
        for small, vecs in ((s_am, am), (s_al, al)):
            comp = relative_space(s_ar, small, form)
            want = oracles.relative_space(ar, vecs, gram)
            assert oracles.rref([list(b) for b in comp.basis], n) == oracles.rref(want, n)

    @settings(max_examples=150, deadline=None)
    @given(nested_problems(), st.data())
    def test_equality_and_containment(self, problem, data):
        n, ar, am, al, _ = problem
        s_am, s_al = QSubspace.span(n, am), QSubspace.span(n, al)
        assert (s_am == s_al) == (oracles.rref(am, n) == oracles.rref(al, n))
        assert s_am.contains(s_al) == all(oracles.in_span(am, v, n) for v in al)
        v = data.draw(st.sampled_from(al) if al else _vectors(n, 1).map(lambda vs: vs[0]))
        assert s_am.contains_vector(v) == oracles.in_span(am, v, n)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), _vectors(n, n))), st.data())
    def test_equality_ignores_the_spanning_set(self, problem, data):
        n, vecs = problem
        scales = data.draw(st.lists(NONZERO, min_size=len(vecs), max_size=len(vecs)))
        rescaled = [[c * x for x in v] for c, v in zip(scales, vecs)]
        rescaled = data.draw(st.permutations(rescaled))
        extra = _combos(data.draw, vecs, n)
        s = QSubspace.span(n, vecs)
        assert QSubspace.span(n, rescaled + extra) == s
        assert QSubspace.span(n, oracles.rref(vecs, n)) == s
        assert s.dim == len(oracles.rref(vecs, n))
