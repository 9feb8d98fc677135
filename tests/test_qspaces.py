from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endokit.errors import NotNested
from endokit.qspaces import DSquared, d_coefficient

import oracles
from oracles import gram_det

E2 = (1, 1)
E3 = (1, 1, 1)
FULL2 = ((1, 0), (0, 1))
FULL3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class TestDCoefficient:
    def test_identity_when_one_side_full(self):
        assert d_coefficient((), FULL2, FULL2, E2).value == 1

    def test_dimension_mismatch_is_zero(self):
        assert d_coefficient([(1, 0)], (), FULL2, E2).value == 0

    def test_orthogonal_lines(self):
        assert d_coefficient([(1, 1)], [(1, -1)], FULL2, E2).value == 1

    def test_non_direct_sum_is_zero(self):
        line = [(1, 0)]
        assert d_coefficient(line, line, FULL2, E2).value == 0

    def test_symmetry(self):
        a = [(1, 0, 0)]
        b = [(1, 1, 0), (0, 0, 1)]
        assert d_coefficient(a, b, FULL3, E3) == d_coefficient(b, a, FULL3, E3)

    def test_skew_value_against_gram_oracle(self):
        got = d_coefficient([(1, 0)], [(1, 1)], FULL2, E2)
        # complements: a-perp = (0,1), b-perp = (1,-1); Gram oracle
        u, v = [Fraction(0), Fraction(1)], [Fraction(1), Fraction(-1)]
        dot = lambda x, y: sum(p * q for p, q in zip(x, y))
        num = gram_det([[dot(u, u), dot(u, v)], [dot(v, u), dot(v, v)]])
        den = gram_det([[dot(u, u)]]) * gram_det([[dot(v, v)]])
        assert got.value == num / den
        assert got.value == Fraction(1, 2)

    def test_positive_when_nonzero(self):
        val = d_coefficient([(1, 1, 0)], [(0, 1, 1), (1, 0, 0)], FULL3, E3)
        if not val.is_zero:
            assert val.value > 0

    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_d_le_one_for_lines(self, p, q):
        # Hadamard: the distortion of two transverse lines is at most 1
        if (p, q) in [(0, 0)]:
            return
        val = d_coefficient([(1, 0)], [(p, q)], FULL2, E2)
        assert val.value <= 1

    def test_not_nested(self):
        with pytest.raises(NotNested):
            d_coefficient([(0, 1)], (), [(1, 0)], E2)
        with pytest.raises(NotNested):
            d_coefficient((), [(1, 1)], [(1, 0)], E2)

    def test_requires_positive_weights(self):
        with pytest.raises(ValueError):
            d_coefficient([(1, 0)], [(0, 1)], FULL2, (0, 1))


class TestDSquared:
    def test_nonnegative(self):
        with pytest.raises(ValueError):
            DSquared(Fraction(-1))


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
    """(n, ar, am, al, weights): am and al inside ar, positive diagonal weights."""
    n = draw(st.integers(1, 4))
    ar = draw(_vectors(n, draw(st.integers(0, n))))
    am = _combos(draw, ar, n)
    al = _combos(draw, ar, n)
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    return n, ar, am, al, weights


def _diagonal(weights):
    n = len(weights)
    return [[Fraction(weights[i] if i == j else 0) for j in range(n)] for i in range(n)]


class TestAgainstFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(nested_problems())
    def test_d_coefficient_matches_the_oracle(self, problem):
        n, ar, am, al, weights = problem
        got = d_coefficient(am, al, ar, weights)
        assert got.value == oracles.d_coefficient(am, al, ar, _diagonal(weights))

    @settings(max_examples=150, deadline=None)
    @given(nested_problems(), st.data())
    def test_d_ignores_the_spanning_set(self, problem, data):
        """Rescaling, permuting or extending each spanning set leaves d as it is."""
        n, ar, am, al, weights = problem

        def respan(vecs):
            scales = data.draw(st.lists(NONZERO, min_size=len(vecs), max_size=len(vecs)))
            rescaled = [[c * x for x in v] for c, v in zip(scales, vecs)]
            return data.draw(st.permutations(rescaled)) + _combos(data.draw, vecs, n)

        want = d_coefficient(am, al, ar, weights)
        assert d_coefficient(respan(am), respan(al), respan(ar), weights) == want
        assert d_coefficient(oracles.rref(am, n), oracles.rref(al, n), oracles.rref(ar, n), weights) == want
