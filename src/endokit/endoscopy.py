"""Endoscopic data and class correspondences for the groups in the catalog.

The metaplectic-type side works with a Levi datum (GL block sizes plus a
symplectic remainder); an elliptic datum is a splitting of the remainder,
and the data lying over it are sign vectors on the blocks.  Semisimple
classes are handled purely through eigenvalue multisets.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .catalog import (
    FactorType,
    GroupType,
    LeviDatum,
    diag_center,
    gl,
    so_even,
    so_odd,
    sp,
    u,
)
from .errors import InvariantViolation, UnsupportedFactor
from .lattices import DiagSubgroup, diag_index
from .rootsofunity import (
    MINUS_ONE_KEYS,
    ONE_KEYS,
    Scalar,
    as_scalar,
    sc_exact_key,
    sc_inv,
    sc_inv_exact_key,
    sc_is_one,
    sc_key,
    sc_neg,
)


# ---------------------------------------------------------------------------
# eigenvalue multisets


@dataclass(frozen=True)
class EigenMultiset:
    """Multiset of exact nonzero scalars, canonically sorted."""

    entries: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        ent = [as_scalar(x) for x in self.entries]
        if all(type(x) is Fraction for x in ent):
            # rationals in sc_key order, by the exact integers x * lcm(dens)
            den = lcm(*(x.denominator for x in ent))
            ent.sort(key=lambda x: x.numerator * (den // x.denominator))
        else:
            ent.sort(key=sc_key)
        object.__setattr__(self, "entries", tuple(ent))

    @staticmethod
    def of(entries: Iterable) -> "EigenMultiset":
        ms = EigenMultiset(tuple(entries))
        for x in ms.entries:
            if isinstance(x, Fraction) and x == 0:
                raise InvariantViolation("multiplicative eigenvalues must be nonzero")
        return ms

    @staticmethod
    def additive(entries: Iterable) -> "EigenMultiset":
        """Additive multiset (Lie-algebra side): rational, negation closed."""
        ms = EigenMultiset(tuple(entries))
        c = ms.counter()
        for x, k in c.items():
            if not isinstance(x, Fraction):
                raise InvariantViolation("additive multisets must be rational")
            if c[-x] != k:
                raise InvariantViolation("additive multisets must be closed under negation")
        return ms

    @staticmethod
    def symplectic(entries: Iterable) -> "EigenMultiset":
        ms = EigenMultiset.of(entries)
        c = ms._exact_counts()
        for key, k in c.items():
            if c[sc_inv_exact_key(key)] != k:
                raise InvariantViolation("symplectic multiset must be inversion closed")
            if (key in ONE_KEYS or key in MINUS_ONE_KEYS) and k % 2:
                raise InvariantViolation("symplectic multiset needs even multiplicity at +-1")
        if len(ms.entries) % 2:
            raise InvariantViolation("symplectic multiset must have even cardinality")
        return ms

    @staticmethod
    def odd_orthogonal(entries: Iterable) -> "EigenMultiset":
        ms = EigenMultiset.of(entries)
        c = ms._exact_counts()
        for key, k in c.items():
            if c[sc_inv_exact_key(key)] != k:
                raise InvariantViolation("orthogonal multiset must be inversion closed")
            if key in MINUS_ONE_KEYS and k % 2:
                raise InvariantViolation("orthogonal multiset needs even multiplicity at -1")
        ones = sum(k for key, k in c.items() if key in ONE_KEYS)
        if ones % 2 != 1:
            raise InvariantViolation("odd orthogonal multiset must contain +1 with odd multiplicity")
        if len(ms.entries) % 2 != 1:
            raise InvariantViolation("odd orthogonal multiset must have odd cardinality")
        return ms

    def counter(self) -> Counter:
        return Counter(self.entries)

    def _exact_counts(self) -> Counter:
        """Multiplicities keyed by :func:`sc_exact_key`."""
        return Counter(map(sc_exact_key, self.entries))

    def size(self) -> int:
        return len(self.entries)

    def remove_one(self, value: Scalar) -> "EigenMultiset":
        try:
            i = self.entries.index(value)
        except ValueError:
            raise InvariantViolation("cannot remove an absent eigenvalue") from None
        return EigenMultiset(self.entries[:i] + self.entries[i + 1 :])

    def negate(self) -> "EigenMultiset":
        return EigenMultiset(tuple(sc_neg(x) for x in self.entries))

    def with_inverses(self) -> "EigenMultiset":
        """The multiset together with all inverses (GL block seen in Sp/SO)."""
        return EigenMultiset(self.entries + tuple(sc_inv(x) for x in self.entries))


# ---------------------------------------------------------------------------
# elliptic data of metaplectic type


@dataclass(frozen=True)
class EllipticDatumMeta:
    """Splitting (m', m'') of the symplectic remainder."""

    m_prime: int
    m_dblprime: int

    def __post_init__(self) -> None:
        if self.m_prime < 0 or self.m_dblprime < 0:
            raise ValueError("datum parts must be nonnegative")

    @property
    def total(self) -> int:
        return self.m_prime + self.m_dblprime


def elliptic_data_meta(m: int) -> tuple[EllipticDatumMeta, ...]:
    """All elliptic data over a rank-m metaplectic factor: m+1 splittings."""
    if m < 0:
        raise ValueError("rank must be >= 0")
    return tuple(EllipticDatumMeta(k, m - k) for k in range(m + 1))


def endoscopic_group_meta(levi: LeviDatum, datum: EllipticDatumMeta) -> GroupType:
    if datum.total != levi.remainder:
        raise InvariantViolation("datum does not split the symplectic remainder")
    factors = [gl(s) for s in levi.sizes]
    factors += [so_odd(datum.m_prime), so_odd(datum.m_dblprime)]
    return GroupType(tuple(factors))


@dataclass(frozen=True)
class SElement:
    """Datum over a fixed elliptic base: a sign vector on the GL blocks."""

    levi: LeviDatum
    base: EllipticDatumMeta
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.base.total != self.levi.remainder:
            raise InvariantViolation("base datum does not match the Levi remainder")
        if len(self.signs) != self.levi.block_count:
            raise InvariantViolation("one sign per GL block is required")
        if any(s not in (1, -1) for s in self.signs):
            raise InvariantViolation("signs must be +-1")

    @property
    def i_prime(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.signs) if s == 1)

    @property
    def i_dblprime(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.signs) if s == -1)

    @property
    def n_prime(self) -> int:
        return self.base.m_prime + sum(self.levi.sizes[i] for i in self.i_prime)

    @property
    def n_dblprime(self) -> int:
        return self.base.m_dblprime + sum(self.levi.sizes[i] for i in self.i_dblprime)


def e_set(levi: LeviDatum, s0: EllipticDatumMeta) -> tuple[SElement, ...]:
    """All data over s0: one sign vector per subset of the blocks."""
    out = []
    for signs in itertools.product((1, -1), repeat=levi.block_count):
        out.append(SElement(levi, s0, signs))
    return tuple(out)


@dataclass(frozen=True)
class GOfS:
    """Endoscopic group attached to a sign vector, with its Levi placement."""

    group: GroupType
    n_prime: int
    n_dblprime: int
    i_prime: tuple[int, ...]
    i_dblprime: tuple[int, ...]


def g_of_s(s: SElement) -> GOfS:
    return GOfS(
        GroupType.of(so_odd(s.n_prime), so_odd(s.n_dblprime)),
        s.n_prime,
        s.n_dblprime,
        s.i_prime,
        s.i_dblprime,
    )


@dataclass(frozen=True)
class ZTorsion:
    """Central order-two element: a sign per GL block, +1 on the remainder."""

    signs: tuple[int, ...]

    def apply(self, gl_blocks: Sequence[EigenMultiset]) -> tuple[EigenMultiset, ...]:
        if len(gl_blocks) != len(self.signs):
            raise InvariantViolation("one multiset per GL block is required")
        return tuple(
            ms.negate() if z == -1 else ms for ms, z in zip(gl_blocks, self.signs)
        )


def z_torsion(s: SElement) -> ZTorsion:
    return ZTorsion(s.signs)


# ---------------------------------------------------------------------------
# class correspondences


def correspond_mu(
    gamma_prime: EigenMultiset, gamma_dblprime: EigenMultiset, datum: EllipticDatumMeta
) -> EigenMultiset:
    """Image multiset of a pair of odd orthogonal classes in the symplectic side.

    Drop one eigenvalue 1 from each side, keep the first side, negate the
    second side.
    """
    EigenMultiset.odd_orthogonal(gamma_prime.entries)
    EigenMultiset.odd_orthogonal(gamma_dblprime.entries)
    return _correspond_mu_validated(gamma_prime, gamma_dblprime, datum)


def _correspond_mu_validated(
    gamma_prime: EigenMultiset, gamma_dblprime: EigenMultiset, datum: EllipticDatumMeta
) -> EigenMultiset:
    """:func:`correspond_mu` for inputs already checked to be odd orthogonal."""
    if gamma_prime.size() != 2 * datum.m_prime + 1:
        raise InvariantViolation("first multiset does not match the datum")
    if gamma_dblprime.size() != 2 * datum.m_dblprime + 1:
        raise InvariantViolation("second multiset does not match the datum")
    one_p = next(x for x in gamma_prime.entries if sc_is_one(x))
    one_d = next(x for x in gamma_dblprime.entries if sc_is_one(x))
    part1 = gamma_prime.remove_one(one_p)
    part2 = gamma_dblprime.remove_one(one_d).negate()
    return EigenMultiset.symplectic(part1.entries + part2.entries)


def correspond_mu1_check(
    gl_blocks: Sequence[EigenMultiset],
    gamma_prime: EigenMultiset,
    gamma_dblprime: EigenMultiset,
    s: SElement,
) -> bool:
    """Two routes to the big symplectic class agree after the central twist.

    Route one embeds the class into the endoscopic group of the big datum
    and applies its correspondence; route two twists by the torsion element,
    applies the Levi-level correspondence, then induces up.
    """
    if len(gl_blocks) != s.levi.block_count:
        raise InvariantViolation("one multiset per GL block is required")
    for ms, size in zip(gl_blocks, s.levi.sizes):
        if ms.size() != size:
            raise InvariantViolation("GL block multiset of wrong size")
    # route 1: include into the two odd orthogonal factors, then correspond
    prime_side = list(gamma_prime.entries)
    dbl_side = list(gamma_dblprime.entries)
    for i in s.i_prime:
        prime_side.extend(gl_blocks[i].with_inverses().entries)
    for i in s.i_dblprime:
        dbl_side.extend(gl_blocks[i].with_inverses().entries)
    big = _correspond_mu_validated(
        EigenMultiset.odd_orthogonal(prime_side),
        EigenMultiset.odd_orthogonal(dbl_side),
        EllipticDatumMeta(s.n_prime, s.n_dblprime),
    )
    # route 2: twist the GL blocks, correspond at the Levi level, induce up
    twisted = z_torsion(s).apply(gl_blocks)
    sp_part = correspond_mu(gamma_prime, gamma_dblprime, s.base)
    small = list(sp_part.entries)
    for ms in twisted:
        small.extend(ms.with_inverses().entries)
    return big == EigenMultiset.symplectic(small)


def correspond_lie(y_prime: EigenMultiset, y_dblprime: EigenMultiset) -> EigenMultiset:
    """Additive variant: drop one zero from each side and take the union."""
    out = []
    for ms in (y_prime, y_dblprime):
        EigenMultiset.additive(ms.entries)
        c = Counter(ms.entries)
        if len(ms.entries) % 2 != 1 or c[Fraction(0)] % 2 != 1:
            raise InvariantViolation("each side must contain zero with odd multiplicity")
        c[Fraction(0)] -= 1
        out.extend(c.elements())
    return EigenMultiset.additive(out)


# ---------------------------------------------------------------------------
# index coefficients


def _runs(widths: Sequence[int]) -> list[tuple[int, ...]]:
    """Consecutive coordinate runs of the given widths, from coordinate 0."""
    return [tuple(range(end - w, end)) for w, end in zip(widths, itertools.accumulate(widths))]


def i_meta(levi: LeviDatum, s0: EllipticDatumMeta, s: SElement) -> Fraction:
    """Index ratio attached to a datum over s0.

    Numerator: the fixed dual center of the Levi's endoscopic group over the
    designated center of the metaplectic-type Levi.  Denominator: the same
    for the big group and the datum's endoscopic group.
    """
    if s.levi != levi or s.base != s0:
        raise InvariantViolation("the datum does not lie over the given base")
    *blocks, prime, dbl = _runs([*levi.sizes, s0.m_prime, s0.m_dblprime])
    tori = [("torus", c) for c in blocks]
    n = levi.rank
    z_m = diag_center(n, tori + [("mu2", prime), ("mu2", dbl)])
    num = diag_index(z_m, diag_center(n, tori + [("none", prime + dbl)]))
    prime_all = tuple(sorted(prime + tuple(c for i in s.i_prime for c in blocks[i])))
    dbl_all = tuple(sorted(dbl + tuple(c for i in s.i_dblprime for c in blocks[i])))
    den = diag_index(diag_center(n, [("mu2", prime_all), ("mu2", dbl_all)]), DiagSubgroup.trivial(n))
    return num / den


# ---------------------------------------------------------------------------
# elliptic data of the classical factors


@dataclass(frozen=True)
class SpEllipticDatum:
    """Elliptic datum of a symplectic factor: Sp part plus an even form."""

    m_prime: int
    even_rank: int
    even_class: str = "split"

    def __post_init__(self) -> None:
        if self.m_prime < 0 or self.even_rank < 0:
            raise ValueError("datum parts must be nonnegative")
        if self.even_rank == 0 and self.even_class != "split":
            object.__setattr__(self, "even_class", "split")
        if self.even_rank == 1 and self.even_class == "split":
            raise InvariantViolation("the split rank-one even part is not elliptic")

    @property
    def total(self) -> int:
        return self.m_prime + self.even_rank


@dataclass(frozen=True)
class UEllipticDatum:
    """Elliptic datum of a unitary factor: an unordered splitting of the rank."""

    m_prime: int
    m_dblprime: int

    def __post_init__(self) -> None:
        if self.m_prime < 0 or self.m_dblprime < 0:
            raise ValueError("datum parts must be nonnegative")
        a, b = self.m_prime, self.m_dblprime
        if a < b:
            object.__setattr__(self, "m_prime", b)
            object.__setattr__(self, "m_dblprime", a)

    @property
    def total(self) -> int:
        return self.m_prime + self.m_dblprime


# ---------------------------------------------------------------------------
# the Levi-ascent construction for classical ambients


@dataclass(frozen=True)
class ArthurConfig:
    """A Levi of a single classical ambient factor plus a core datum.

    ``ambient`` is a symplectic or unitary factor; the Levi is the product
    of GL blocks of the given sizes with the core the datum splits.
    """

    ambient: FactorType
    block_sizes: tuple[int, ...]
    sp_datum: SpEllipticDatum | None = None
    u_datum: UEllipticDatum | None = None

    def __post_init__(self) -> None:
        if self.ambient.kind == "sp":
            if self.sp_datum is None or self.u_datum is not None:
                raise UnsupportedFactor("a symplectic ambient needs a symplectic datum")
            core = self.ambient.rank - sum(self.block_sizes)
            if core < 0 or self.sp_datum.total != core:
                raise InvariantViolation("datum does not split the core")
        elif self.ambient.kind == "u":
            if self.u_datum is None or self.sp_datum is not None:
                raise UnsupportedFactor("a unitary ambient needs a unitary datum")
            core = self.ambient.rank - 2 * sum(self.block_sizes)
            if core < 0 or self.u_datum.total != core:
                raise InvariantViolation("datum does not split the core")
        else:
            raise UnsupportedFactor("only symplectic and unitary ambients are supported")

    @property
    def levi(self) -> GroupType:
        fs = []
        if self.ambient.kind == "sp":
            fs = [gl(s) for s in self.block_sizes]
            fs.append(sp(self.sp_datum.total))
        else:
            d = self.ambient.degree
            fs = [gl(s, 2 * d, self.ambient.ramified) for s in self.block_sizes]
            fs.append(u(self.u_datum.total, d, self.ambient.ramified))
        return GroupType(tuple(fs))


def arthur_L_of_s(config: ArthurConfig, dbl_side: frozenset[int]) -> GroupType:
    """Endoscopic group of the full ambient attached to a side choice.

    ``dbl_side`` lists the blocks joining the second part of the datum.
    Symplectic ambient: the even part keeps the datum's form class (same
    anisotropic kernel).  Unitary ambient: a block of rank s adds 2s to its
    side's rank.
    """
    sizes = config.block_sizes
    if any(i not in range(len(sizes)) for i in dbl_side):
        raise InvariantViolation("side choice mentions a nonexistent block")
    s_p = sum(sizes[i] for i in range(len(sizes)) if i not in dbl_side)
    s_d = sum(sizes[i] for i in dbl_side)
    if config.ambient.kind == "sp":
        d = config.sp_datum
        n_p = d.m_prime + s_p
        n_d = d.even_rank + s_d
        klass = d.even_class if d.even_rank else "split"
        return GroupType.of(sp(n_p), so_even(n_d, klass))
    d = config.u_datum
    n_p = d.m_prime + 2 * s_p
    n_d = d.m_dblprime + 2 * s_d
    deg, ram = config.ambient.degree, config.ambient.ramified
    return GroupType.of(*(u(x, deg, ram) for x in (n_p, n_d) if x))


def i_standard(config: ArthurConfig, dbl_side: frozenset[int]) -> Fraction:
    """Index ratio of the Levi-ascent construction for one side choice.

    The symplectic and unitary ambients differ only in the center of the
    core's first part (trivial on Sp, diagonal mu_2 on U) and in the width
    of one unit of rank (1 on Sp, 2d on U).
    """
    if config.ambient.kind == "sp":
        core, unit, parts = "none", 1, (config.sp_datum.m_prime, config.sp_datum.even_rank)
    else:
        core, unit, parts = "mu2", 2 * config.ambient.degree, (config.u_datum.m_prime, config.u_datum.m_dblprime)
    widths = [unit * r for r in (*config.block_sizes, *parts)]
    *blocks, prime, dbl = _runs(widths)
    n = sum(widths)

    def index(tori: list, p: tuple[int, ...], d: tuple[int, ...]) -> Fraction:
        return diag_index(diag_center(n, tori + [(core, p), ("mu2", d)]), diag_center(n, tori + [(core, p + d)]))

    num = index([("torus", c) for c in blocks], prime, dbl)
    p_all = tuple(sorted(prime + tuple(c for i, blk in enumerate(blocks) if i not in dbl_side for c in blk)))
    d_all = tuple(sorted(dbl + tuple(c for i, blk in enumerate(blocks) if i in dbl_side for c in blk)))
    return num / index([], p_all, d_all)
