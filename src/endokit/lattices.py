"""Integer lattices in Z^N and diagonalizable subgroups of (C^*)^N.

A closed subgroup D of the diagonal torus is stored dually, by the lattice
of characters vanishing on it.  Under this duality intersection of groups
is sum of lattices, product of groups is intersection of lattices, and all
indices are exact rationals computed through Smith/Hermite normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from . import _intlinalg as la
from .errors import AmbientMismatch, InvariantViolation, NotCommensurable

# Bound of each memo table below.  The tables are keyed on canonical values
# (lattices in Hermite normal form), so a hit returns exactly what the
# computation would.
MEMO_SIZE = 8192


@dataclass(frozen=True)
class IntLattice:
    """A sublattice of Z^N, canonicalized to row-style Hermite normal form."""

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.ambient_rank < 0:
            raise ValueError("ambient rank must be >= 0")
        for g in self.generators:
            if len(g) != self.ambient_rank:
                raise AmbientMismatch(
                    f"generator of length {len(g)} in ambient Z^{self.ambient_rank}"
                )
        canon = _hermite_basis(tuple(map(tuple, self.generators)), self.ambient_rank)
        object.__setattr__(self, "generators", canon)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def contains_vector(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient_rank:
            raise AmbientMismatch("vector length does not match ambient rank")
        return la.solve_int(self.generators, v) is not None

    def contains(self, other: "IntLattice") -> bool:
        self._check(other)
        return all(self.contains_vector(g) for g in other.generators)

    def sum(self, other: "IntLattice") -> "IntLattice":
        self._check(other)
        return IntLattice(self.ambient_rank, self.generators + other.generators)

    def intersect(self, other: "IntLattice") -> "IntLattice":
        self._check(other)
        stacked = self.generators + other.generators
        ker = la.left_kernel(stacked, self.ambient_rank)
        r1 = len(self.generators)
        rows = []
        for k in ker:
            v = [0] * self.ambient_rank
            for i in range(r1):
                if k[i]:
                    v = [x + k[i] * y for x, y in zip(v, self.generators[i])]
            rows.append(v)
        return IntLattice(self.ambient_rank, tuple(tuple(r) for r in rows))

    def saturation(self) -> "IntLattice":
        """Smallest saturated sublattice of Z^N containing this lattice.

        Computed as the left kernel of a basis of the right kernel: the
        Q-span cap Z^N, since integer kernels are automatically saturated.
        """
        if not self.generators:
            return self
        # right kernel of the generator matrix, as rows of length N
        rk = la.left_kernel(
            [[g[c] for g in self.generators] for c in range(self.ambient_rank)],
            len(self.generators),
        )
        if not rk:
            return IntLattice.full(self.ambient_rank)
        cols = [[r[c] for r in rk] for c in range(self.ambient_rank)]
        sat_rows = la.left_kernel(cols, len(rk))
        out = IntLattice(self.ambient_rank, sat_rows)
        if out.rank != self.rank:
            raise InvariantViolation(f"saturation has rank {out.rank}, not the lattice's rank {self.rank}")
        return out

    def _check(self, other: "IntLattice") -> None:
        if self.ambient_rank != other.ambient_rank:
            raise AmbientMismatch("lattices in different ambients")

    @staticmethod
    def full(n: int) -> "IntLattice":
        return IntLattice(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(n: int) -> "IntLattice":
        return IntLattice(n, ())


@lru_cache(maxsize=MEMO_SIZE)
def _hermite_basis(generators: tuple[tuple[int, ...], ...], ambient_rank: int) -> tuple[tuple[int, ...], ...]:
    """The canonical basis of the span of ``generators``.  A descent
    campaign builds a few thousand distinct lattices over and over: the
    rank-4 corpus makes 152,375 lattices from 3,432 distinct generator
    lists."""
    return la.hnf_rows(generators, ambient_rank)


def _pivot_product(lat: IntLattice) -> tuple[tuple[int, ...], int]:
    """(pivot columns, product of pivots) of the canonical basis.

    For lattices with equal rational span the pivot columns coincide and
    the pivot products are the covolumes in a common normalization, so the
    generalized index is their ratio.
    """
    cols = []
    prod = 1
    for row in lat.generators:
        c = next(i for i, x in enumerate(row) if x)
        cols.append(c)
        prod *= row[c]
    return tuple(cols), prod


def lattice_index(l1: IntLattice, l2: IntLattice) -> Fraction:
    """Generalized index [l1 : l2] = [l1 : l1^l2] / [l2 : l1^l2].

    Requires the two lattices to span the same rational subspace.
    """
    if l1.ambient_rank != l2.ambient_rank:
        raise AmbientMismatch("lattices in different ambients")
    if l1.rank != l2.rank:
        raise NotCommensurable("lattices of different rank are not commensurable")
    cols1, prod1 = _pivot_product(l1)
    cols2, prod2 = _pivot_product(l2)
    if cols1 != cols2 or l1.sum(l2).rank != l1.rank:
        raise NotCommensurable("lattices do not share a finite-index sublattice")
    return Fraction(prod2, prod1)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group in invariant-factor form d_1 | d_2 | ..., d_i >= 2."""

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        fs = self.invariant_factors
        for f in fs:
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @staticmethod
    def from_quotient_torsion(ambient_rank: int, sub: IntLattice) -> "FiniteAbelianGroup":
        """Torsion part of Z^ambient / sub."""
        d, _, _ = la.snf_with_transforms(sub.generators, ambient_rank)
        return FiniteAbelianGroup(tuple(x for x in d if x > 1))


@dataclass(frozen=True)
class DiagSubgroup:
    """Closed subgroup of (C^*)^N given by its lattice of vanishing characters."""

    ambient_rank: int
    vanishing_chars: IntLattice

    def __post_init__(self) -> None:
        if self.vanishing_chars.ambient_rank != self.ambient_rank:
            raise AmbientMismatch("character lattice has the wrong ambient rank")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_vanishing(ambient_rank: int, rows: Iterable[Sequence[int]]) -> "DiagSubgroup":
        return DiagSubgroup(ambient_rank, IntLattice(ambient_rank, tuple(tuple(int(x) for x in r) for r in rows)))

    @staticmethod
    def full_torus(n: int) -> "DiagSubgroup":
        return DiagSubgroup(n, IntLattice.zero(n))

    @staticmethod
    def trivial(n: int) -> "DiagSubgroup":
        return DiagSubgroup(n, IntLattice.full(n))

    # -- structure ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.ambient_rank - self.vanishing_chars.rank

    @property
    def is_finite(self) -> bool:
        return self.dim == 0

    def order(self) -> int:
        """Number of elements (finite groups only).

        For a full-rank character lattice the order is |det| of any basis;
        the canonical basis is triangular, so it is the pivot product.
        """
        if not self.is_finite:
            raise ValueError("group is not finite")
        return _pivot_product(self.vanishing_chars)[1]

    def contains(self, other: "DiagSubgroup") -> bool:
        self._check(other)
        return other.vanishing_chars.contains(self.vanishing_chars)

    def _check(self, other: "DiagSubgroup") -> None:
        if self.ambient_rank != other.ambient_rank:
            raise AmbientMismatch("diagonalizable groups in different ambients")


# Four times the common bound: the rank-5 descent corpus meets 23,568
# distinct intersections, which would overflow MEMO_SIZE.
@lru_cache(maxsize=4 * MEMO_SIZE)
def diag_intersect(d1: DiagSubgroup, d2: DiagSubgroup) -> DiagSubgroup:
    d1._check(d2)
    return DiagSubgroup(d1.ambient_rank, d1.vanishing_chars.sum(d2.vanishing_chars))


@lru_cache(maxsize=MEMO_SIZE)
def diag_product(d1: DiagSubgroup, d2: DiagSubgroup) -> DiagSubgroup:
    d1._check(d2)
    return DiagSubgroup(d1.ambient_rank, d1.vanishing_chars.intersect(d2.vanishing_chars))


@lru_cache(maxsize=MEMO_SIZE)
def diag_identity_component(d: DiagSubgroup) -> DiagSubgroup:
    return DiagSubgroup(d.ambient_rank, d.vanishing_chars.saturation())


def diag_component_group(d: DiagSubgroup) -> FiniteAbelianGroup:
    return FiniteAbelianGroup.from_quotient_torsion(d.ambient_rank, d.vanishing_chars)


@lru_cache(maxsize=MEMO_SIZE)
def diag_index(d1: DiagSubgroup, d2: DiagSubgroup) -> Fraction:
    """Generalized index [d1 : d2] of commensurable diagonalizable groups.

    Commensurability (equal identity components) is exactly commensurability
    of the vanishing lattices, which the lattice index verifies itself.
    """
    d1._check(d2)
    return lattice_index(d2.vanishing_chars, d1.vanishing_chars)


def arthur_product_check(d_h: DiagSubgroup, d_s: DiagSubgroup, d_s0: DiagSubgroup) -> bool:
    """Whether d_s == d_h . d_s0, for d_h <= d_s and d_s0 its identity component."""
    if not d_s.contains(d_h):
        raise NotCommensurable("first group is not contained in the second")
    if d_s0 != diag_identity_component(d_s):
        raise NotCommensurable("third argument is not the identity component of the second")
    return diag_product(d_h, d_s0) == d_s
