"""Rational vector spaces carrying a positive definite form.

These model the split-center spaces attached to Levi subgroups and the
volume-ratio coefficient of a transverse pair of subspaces.  Everything is
exact: a subspace is stored by the integer lattice it cuts out of Z^n, every
determinant is an integer Bareiss determinant, and the coefficient is stored
squared so it stays rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from . import _intlinalg as la
from .errors import AmbientMismatch, NotNested
from .lattices import IntLattice

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def _vec(v: Sequence) -> Vec:
    return tuple(Fraction(x) for x in v)


def _cleared(v: Sequence) -> IntVec:
    """``v`` times the lcm of its denominators: an integer vector on the same line."""
    vv = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in vv))
    return tuple(x.numerator * (den // x.denominator) for x in vv)


@dataclass(frozen=True)
class QSubspace:
    """Subspace V of Q^n, canonicalized to the HNF basis of V cap Z^n.

    V cap Z^n is the saturation of the lattice spanned by the spanning
    vectors with their denominators cleared, so equal subspaces get equal
    bases whatever vectors span them.
    """

    ambient_dim: int
    basis: tuple[IntVec, ...] = ()

    def __post_init__(self) -> None:
        for b in self.basis:
            if len(b) != self.ambient_dim:
                raise AmbientMismatch("basis vector of wrong length")
        lat = IntLattice(self.ambient_dim, tuple(_cleared(b) for b in self.basis))
        object.__setattr__(self, "basis", lat.saturation().generators)

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "QSubspace":
        return QSubspace(ambient_dim, tuple(tuple(v) for v in vectors))

    @staticmethod
    def full(ambient_dim: int) -> "QSubspace":
        return QSubspace.span(ambient_dim, [[int(i == j) for j in range(ambient_dim)] for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length does not match the ambient")
        # exact because the basis spans the saturated lattice V cap Z^n
        return la.solve_int(self.basis, _cleared(v)) is not None

    def contains(self, other: "QSubspace") -> bool:
        self._check(other)
        return all(self.contains_vector(b) for b in other.basis)

    def sum(self, other: "QSubspace") -> "QSubspace":
        self._check(other)
        return QSubspace(self.ambient_dim, self.basis + other.basis)

    def _check(self, other: "QSubspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspaces of different ambients")


@dataclass(frozen=True)
class QForm:
    """Symmetric positive definite rational form on Q^n."""

    gram: tuple[Vec, ...]

    def __post_init__(self) -> None:
        n = len(self.gram)
        g = tuple(_vec(r) for r in self.gram)
        object.__setattr__(self, "gram", g)
        for r in g:
            if len(r) != n:
                raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        scaled = self._scaled_gram
        for k in range(1, n + 1):
            if la.det_int([row[:k] for row in scaled[:k]]) <= 0:
                raise ValueError("gram matrix must be positive definite")

    @staticmethod
    def standard(n: int) -> "QForm":
        return QForm(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def _scaled_gram(self) -> tuple[IntVec, ...]:
        """The gram matrix times the lcm of its denominators.

        A k x k Gram determinant under it is the rational one times the
        k-th power of that lcm, so sign tests and ratios of determinants
        whose sizes balance are unchanged.
        """
        n = self.dim
        flat = _cleared([x for row in self.gram for x in row])
        return tuple(flat[i * n : (i + 1) * n] for i in range(n))


def _pairing(g: Sequence[Sequence[int]], rows_a: Sequence[IntVec], rows_b: Sequence[IntVec]) -> list[list[int]]:
    """Matrix of g(a, b) for a in ``rows_a`` and b in ``rows_b``."""
    n = len(g)
    ga = [[sum(a[i] * g[i][j] for i in range(n) if a[i]) for j in range(n)] for a in rows_a]
    return [[sum(x * y for x, y in zip(r, b)) for b in rows_b] for r in ga]


@dataclass(frozen=True)
class DSquared:
    """Square of a volume-ratio coefficient; zero encodes a degenerate pair."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value < 0:
            raise ValueError("a squared volume ratio cannot be negative")

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __mul__(self, other: "DSquared") -> "DSquared":
        return DSquared(self.value * other.value)


def relative_space(a_big: QSubspace, a_small: QSubspace, form: QForm) -> QSubspace:
    """Form-orthogonal complement of a_small inside a_big."""
    a_big._check(a_small)
    if form.dim != a_big.ambient_dim:
        raise AmbientMismatch("form dimension does not match the ambient")
    if not a_big.contains(a_small):
        raise NotNested("small space is not contained in the big one")
    if a_small.dim == 0:
        return a_big
    # v = c . basis(a_big) with <v, s> = 0 for all s in basis(a_small)
    ker = la.left_kernel(_pairing(form._scaled_gram, a_big.basis, a_small.basis), a_small.dim)
    vecs = [[sum(c * b[i] for c, b in zip(k, a_big.basis)) for i in range(a_big.ambient_dim)] for k in ker]
    return QSubspace.span(a_big.ambient_dim, vecs)


def d_coefficient(am_rel: QSubspace, al_rel: QSubspace, ar_rel: QSubspace, form: QForm) -> DSquared:
    """Squared volume distortion of the transverse-sum map.

    The inputs are the spaces of am, al, ar relative to the common ambient
    group; the coefficient is nonzero iff am_rel (+) al_rel = ar_rel, in
    which case it is the squared volume ratio of summing the complements of
    am_rel and al_rel inside ar_rel.
    """
    for sub in (am_rel, al_rel):
        if not ar_rel.contains(sub):
            raise NotNested("relative spaces must sit inside the third argument")
    if am_rel.dim + al_rel.dim != ar_rel.dim:
        return DSquared(Fraction(0))
    if am_rel.sum(al_rel).dim != ar_rel.dim:
        return DSquared(Fraction(0))
    u = relative_space(ar_rel, am_rel, form).basis
    v = relative_space(ar_rel, al_rel, form).basis
    # dim u + dim v is the size of the numerator, so the form's scale cancels
    g = form._scaled_gram

    def gram_det(rows: tuple[IntVec, ...]) -> int:
        return la.det_int(_pairing(g, rows, rows))

    return DSquared(Fraction(gram_det(u + v), gram_det(u) * gram_det(v)))
