"""Coroot-lattice arithmetic for the symplectic/spin pair.

The two groups share the coordinate lattice Z^n; the symplectic coroots
span all of it while the spin coroots span the even-coordinate-sum
sublattice.  The coefficient attached to a matched Levi pair is a ratio of
commensurable lattice indices, computed here from the raw lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .catalog import GroupType, LeviDatum
from .errors import UnsupportedPairing
from .lattices import IntLattice, lattice_index


def _type_a_rows(offset: int, size: int, n: int) -> list[tuple[int, ...]]:
    """Coroots e_k - e_{k+1} of a GL block occupying ``size`` coordinates."""
    rows = []
    for k in range(size - 1):
        v = [0] * n
        v[offset + k] = 1
        v[offset + k + 1] = -1
        rows.append(tuple(v))
    return rows


def _symplectic_core_rows(offset: int, m: int, n: int) -> list[tuple[int, ...]]:
    """Coroot generators {e_i - e_j, e_i} of a symplectic core: all of Z^m."""
    rows = []
    for k in range(m):
        v = [0] * n
        v[offset + k] = 1
        rows.append(tuple(v))
    return rows


def _spin_core_rows(offset: int, m: int, n: int) -> list[tuple[int, ...]]:
    """Coroot generators {e_i +- e_j, 2 e_i} of a spin core: even-sum vectors."""
    rows = []
    if m >= 1:
        v = [0] * n
        v[offset] = 2
        rows.append(tuple(v))
    for k in range(m - 1):
        v = [0] * n
        v[offset + k] = 1
        v[offset + k + 1] = -1
        rows.append(tuple(v))
    return rows


@dataclass(frozen=True)
class NonStdTriple:
    """The rank-n symplectic/spin pair with the identity comparison map."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("the triple needs rank >= 1")

    @property
    def x1(self) -> IntLattice:
        return IntLattice.full(self.n)

    @property
    def x2(self) -> IntLattice:
        return IntLattice(self.n, tuple(_spin_core_rows(0, self.n, self.n)))

    def coroots1(self) -> tuple[tuple[int, ...], ...]:
        """Short/long coroot set of the symplectic side: +-e_i +- e_j, +-e_i."""
        out = []
        for i in range(self.n):
            for si in (1, -1):
                v = [0] * self.n
                v[i] = si
                out.append(tuple(v))
        out.extend(self._mixed())
        return tuple(out)

    def coroots2(self) -> tuple[tuple[int, ...], ...]:
        """Coroot set of the spin side: +-e_i +- e_j, +-2 e_i."""
        out = []
        for i in range(self.n):
            for si in (1, -1):
                v = [0] * self.n
                v[i] = 2 * si
                out.append(tuple(v))
        out.extend(self._mixed())
        return tuple(out)

    def _mixed(self) -> list[tuple[int, ...]]:
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [0] * self.n
                        v[i] = si
                        v[j] = sj
                        out.append(tuple(v))
        return out


def build_triple(n: int) -> NonStdTriple:
    return NonStdTriple(n)


@dataclass(frozen=True)
class NSLeviPair:
    """Matched semistandard Levi classes, shared parametrization on both sides."""

    datum: LeviDatum


def coroot_span_levi(triple: NonStdTriple, pair: NSLeviPair, side: int) -> IntLattice:
    """Span of the Levi's coroots: type-A rows per block plus the core span."""
    datum = pair.datum
    if datum.rank != triple.n:
        raise UnsupportedPairing("Levi datum rank does not match the triple")
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    n = triple.n
    rows: list[tuple[int, ...]] = []
    pos = 0
    for size in datum.sizes:
        rows.extend(_type_a_rows(pos, size, n))
        pos += size
    m = datum.remainder
    if side == 1:
        rows.extend(_symplectic_core_rows(pos, m, n))
    else:
        rows.extend(_spin_core_rows(pos, m, n))
    return IntLattice(n, tuple(rows))


def c_nonstandard_raw(triple: NonStdTriple, pair: NSLeviPair) -> Fraction:
    """Coefficient of the matched pair, straight from the raw lattices.

    Numerator: generalized index of the two full coroot lattices.
    Denominator: the same for the Levi coroot spans.
    """
    r1 = IntLattice(triple.n, triple.coroots1())
    r2 = IntLattice(triple.n, triple.coroots2())
    num = lattice_index(r2, r1)
    m1 = coroot_span_levi(triple, pair, 1)
    m2 = coroot_span_levi(triple, pair, 2)
    den = lattice_index(m2, m1)
    return num / den


def c_nonstandard_closed(pair: NSLeviPair) -> Fraction:
    """Closed form: 1 when the core survives, 1/2 when it vanishes."""
    return Fraction(1) if pair.datum.remainder != 0 else Fraction(1, 2)


def _matched_odd_pairs(g1bar: GroupType, g2: GroupType) -> list[tuple[int, int]]:
    """Match symplectic factors of the first group with odd orthogonal
    factors of the second; everything else must agree factor by factor."""
    sp_ranks = sorted(f.rank for f in g1bar.factors if f.kind == "sp")
    so_ranks = sorted(f.rank for f in g2.factors if f.kind == "so_odd")
    if sp_ranks != so_ranks:
        raise UnsupportedPairing("symplectic and odd orthogonal ranks do not match")
    rest1 = sorted(f.sort_key() for f in g1bar.factors if f.kind != "sp")
    rest2 = sorted(f.sort_key() for f in g2.factors if f.kind != "so_odd")
    if rest1 != rest2:
        raise UnsupportedPairing("the remaining factors are not identical")
    return list(zip(sp_ranks, so_ranks))


def c_nonstandard_quotient(
    g1bar: GroupType,
    g2: GroupType,
    levi_pairs: list[tuple[int, tuple[int, ...], int]],
) -> Fraction:
    """Coefficient of a bar-swapped pair with matched Levis.

    ``levi_pairs`` lists the paired symplectic/odd-orthogonal factors as
    (factor rank, GL block sizes, core rank).  Tautological factors (GL,
    unitary, even orthogonal) contribute 1.
    """
    expected = sorted(r for r, _ in _matched_odd_pairs(g1bar, g2) if r)
    supplied = sorted(r for r, _, _ in levi_pairs if r)
    if expected != supplied:
        raise UnsupportedPairing("supplied Levi pairs do not match the paired factors")
    total = Fraction(1)
    for rank, sizes, core in levi_pairs:
        if rank == 0:
            continue
        if sum(sizes) + core != rank:
            raise UnsupportedPairing("Levi content does not fill its factor")
        total *= c_nonstandard_raw(NonStdTriple(rank), NSLeviPair(LeviDatum(sizes, core)))
    return total
