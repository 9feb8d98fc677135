"""The volume-ratio coefficient of a transverse pair of rational subspaces.

The subspaces model the split-center spaces attached to Levi subgroups,
under a diagonal positive definite form.  Everything is exact: a subspace
is given by spanning rows, every determinant is an integer Bareiss
determinant, and the coefficient is stored squared so it stays rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _intlinalg as la
from .errors import NotNested
from .lattices import IntLattice

IntVec = tuple[int, ...]


def _cleared(v: Sequence) -> IntVec:
    """``v`` times the lcm of its denominators: an integer vector on the same line."""
    vv = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in vv))
    return tuple(x.numerator * (den // x.denominator) for x in vv)


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


def d_coefficient(
    am: Sequence[Sequence], al: Sequence[Sequence], ar: Sequence[Sequence], weights: Sequence[int]
) -> DSquared:
    """Squared volume distortion of the transverse-sum map.

    ``am``, ``al`` and ``ar`` are rational rows spanning subspaces M, L and
    R of Q^n, the spaces of am, al, ar relative to the common ambient group;
    the form is diagonal with the positive integer ``weights``.  The
    coefficient is nonzero iff M (+) L = R, in which case it is the squared
    volume ratio of summing the complements U of M and V of L inside R.

    It is computed on M and L themselves: the Hodge star of R is an isometry
    that takes the Plücker vector of a subspace to that of its orthogonal
    complement, so |u^v| / (|u| |v|) = |m^l| / (|m| |l|) for bases u, v, m, l
    of U, V, M, L.  Changing the basis m scales |m^l| and |m| by the same
    determinant, and likewise for l, so the ratio depends on the spans alone:
    the Hermite bases of the lattices the rows span serve, unsaturated.
    """
    if any(w <= 0 for w in weights):
        raise ValueError("the weights of the form must be positive")
    n = len(weights)
    m, l, r = (IntLattice(n, tuple(_cleared(v) for v in rows)).generators for rows in (am, al, ar))
    for sub in (m, l):
        if IntLattice(n, r + sub).rank != len(r):
            raise NotNested("relative spaces must sit inside the third argument")
    if len(m) + len(l) != len(r):
        return DSquared(Fraction(0))
    # Gram matrix of m + l; those of m and l are its diagonal blocks
    g = [[sum(w * x * y for w, x, y in zip(weights, a, b)) for b in m + l] for a in m + l]
    k = len(m)
    den = la.det_int([row[:k] for row in g[:k]]) * la.det_int([row[k:] for row in g[k:]])
    # the form is positive definite, so the numerator vanishes iff M + L is not direct
    return DSquared(Fraction(la.det_int(g), den))
