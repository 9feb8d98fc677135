"""Atom coordinates, centers and split-center spaces over a descent outcome.

The big centralizer's Levis containing the matched one are signed groupings
of the shared GL blocks (``GEtaLevi``); ``enumerate_levis`` lists them all
and ``top_levi`` is the centralizer itself.  ``Ambient`` numbers the atoms
of an outcome once and builds on them every dual center the coefficient
comparison reads, the core datum of each ambient factor, and the weighted
block coordinates of the volume calculus.  It holds the outcome's transverse
Levis and its top Levi, each derived once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Hashable, Iterable, Sequence

from ._intlinalg import det_int
from .catalog import GroupType, diag_center, gl, grouping_patterns, so_even, so_odd, sp, u
from .descent import Block, DescentOutcome, orbit_of, sigma
from .errors import InvariantViolation
from .lattices import MEMO_SIZE, DiagSubgroup, IntLattice
from .qspaces import DSquared, d_coefficient

Group = tuple[tuple[int, int], ...]


@lru_cache(maxsize=MEMO_SIZE)
def d_squared(
    w: tuple[int, ...], rows_m: tuple[tuple[int, ...], ...], rows_l: tuple[tuple[int, ...], ...]
) -> DSquared:
    """Squared volume distortion of the block-coordinate spaces spanned by
    ``rows_m`` and ``rows_l``, for blocks of widths ``w``."""
    return d_coefficient(rows_m, rows_l, IntLattice.full(len(w)).generators, w)


def normalize_group(pairs: Iterable[tuple[int, int]]) -> Group:
    ordered = tuple(sorted(pairs))
    if ordered and ordered[0][1] == -1:
        ordered = tuple((b, -e) for b, e in ordered)
    return ordered


@dataclass(frozen=True)
class GEtaLevi:
    """A Levi of the big centralizer containing the matched one.

    Each group is a tuple of (block id, exponent); the constructor sorts
    every group by block id with its leading exponent normalized to +1, and
    sorts the groups.  Ungrouped blocks are absorbed into their factor's
    core.
    """

    groups: tuple[Group, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(sorted(normalize_group(g) for g in self.groups))
        )

    def grouped_bids(self) -> frozenset[int]:
        return frozenset(b for g in self.groups for b, _ in g)


def eta_orientation(outcome: DescentOutcome, b: Block) -> int:
    """Orientation of a block inside its inverse-pair ambient factor: +1 when
    its exponent lies in the orbit of the home's key."""
    sc = outcome.scenario
    return 1 if b.eta_exp in orbit_of(b.home[1], sc.modulus, sc.q) else -1


def home_groupings(
    blocks: Sequence[Block], orient: Callable[[Block], int] | None
) -> list[tuple[tuple[Group, ...], tuple[Block, ...]]]:
    """Every grouping of one home's blocks into Levi groups, with the blocks
    it absorbs.  A pair factor (``orient`` given) groups every block, each
    with its orientation; a core factor (``orient`` None) groups with signs
    and absorbs the rest into its core.  Groups are raw: the index-set
    objects built on them normalize them."""
    if orient is None:
        return [
            (
                tuple([tuple([(blocks[i].bid, e) for i, e in grp]) for grp in groups]),
                tuple([blocks[i] for i in absorbed]),
            )
            for groups, absorbed in grouping_patterns(len(blocks), signed=True, with_core=True)
        ]
    return [
        (tuple([tuple([(blocks[i].bid, orient(blocks[i])) for i, _ in grp]) for grp in groups]), ())
        for groups, _ in grouping_patterns(len(blocks), signed=False, with_core=False)
    ]


def enumerate_levis(outcome: DescentOutcome) -> tuple[GEtaLevi, ...]:
    """All Levis of the big centralizer containing the matched Levi."""
    per_home = []
    for home in outcome.homes:
        orient = (lambda b: eta_orientation(outcome, b)) if home[0] == "gl" else None
        per_home.append([groups for groups, _ in home_groupings(outcome.home_blocks(home), orient)])
    return tuple(GEtaLevi(tuple(itertools.chain(*combo))) for combo in itertools.product(*per_home))


def top_levi(outcome: DescentOutcome) -> GEtaLevi:
    """The big centralizer itself as a Levi: pair factors fully grouped."""
    return GEtaLevi(
        tuple(
            tuple((b.bid, eta_orientation(outcome, b)) for b in outcome.home_blocks(home))
            for home in outcome.homes
            if home[0] == "gl"
        )
    )


Atoms = tuple[int, ...]
Layout = tuple[int, dict[int, Atoms], dict[int, Atoms], dict[int, Atoms], dict[str, Atoms]]
Parts = list[tuple[str, Atoms]]
CoreDatum = tuple[Atoms, Atoms, int, int, str]


def atom_layout(outcome: DescentOutcome) -> Layout:
    """Atom coordinates of an outcome: (atom count, block atoms, unitary
    prime-half atoms, unitary double-prime-half atoms, x'/y'/x''/y'' atoms).

    An atom is a block, a unitary-slot half or an x'/y'/x''/y'' part; every
    center ``Ambient`` builds is constant on atoms, and the diagonal embedding
    of the atom torus is injective, so one coordinate per atom keeps every
    intersection, order and index.  Blocks come first, in block order, so a
    block's atom is its position in the block-order rows of the volume
    calculus.  An empty part gets no atom: it would be a free G_m.
    """
    n = 0

    def atom(width: int) -> Atoms:
        nonlocal n
        if not width:
            return ()
        n += 1
        return (n - 1,)

    bc = {b.bid: atom(b.width) for b in outcome.blocks}
    up = {s.eta_rep: atom(s.k_prime) for s in outcome.u_slots}
    ud = {s.eta_rep: atom(s.k_dbl) for s in outcome.u_slots}
    pm = {
        name: atom(w)
        for name, w in (
            ("xp", outcome.x_prime),
            ("yp", outcome.y_prime),
            ("xd", outcome.x_dbl),
            ("yd", outcome.y_dbl),
        )
    }
    return n, bc, up, ud, pm


class Ambient:
    """Atom coordinates, centers and split-center spaces over one outcome."""

    def __init__(self, outcome: DescentOutcome):
        self.outcome = outcome
        self.n, self.bc, self.up, self.ud, self.pm = atom_layout(outcome)
        self.block = {b.bid: b for b in outcome.blocks}
        self.slots = {s.eta_rep: s for s in outcome.u_slots}
        prime = self._coords(b.bid for b in outcome.blocks if b.origin in ("pair_prime", "so2_prime"))
        dbl = self._coords(b.bid for b in outcome.blocks if b.origin in ("pair_dbl", "so2_dbl"))
        self.prime_side = tuple(itertools.chain(prime, *self.up.values(), self.pm["xp"], self.pm["yp"]))
        self.dbl_side = tuple(itertools.chain(dbl, *self.ud.values(), self.pm["xd"], self.pm["yd"]))
        self.owners: dict[int, list[int]] = {}
        for b in outcome.blocks:
            if b.origin == "levi":
                self.owners.setdefault(b.owner, []).append(b.bid)
        self._memo: dict = {}

    def _cached(self, key: Hashable, build):
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got

    def _coords(self, bids: Iterable[int]) -> Atoms:
        return tuple(c for bid in bids for c in self.bc[bid])

    def d_g(self, levi: GEtaLevi) -> DSquared:
        return self._cached(
            ("d_g", levi),
            lambda: d_squared(
                self.weights, self.m_rows_block(), tuple(self.block_group_row(g) for g in levi.groups)
            ),
        )

    # The volume calculus works in weighted block coordinates, the block part
    # of the atoms: the block-sum vectors are orthogonal, so sending each to a
    # basis vector weighted by its width is an isometry onto the span of the
    # matched Levi's center space.

    @property
    def weights(self) -> tuple[int, ...]:
        return self._cached("weights", lambda: tuple(b.width for b in self.outcome.blocks))

    def block_group_row(self, grp: Group) -> tuple[int, ...]:
        exps = dict(grp)
        return tuple(exps.get(b.bid, 0) for b in self.outcome.blocks)

    def m_rows_block(self) -> tuple[tuple[int, ...], ...]:
        return self._cached(
            "m_rows_block",
            lambda: tuple(
                self.block_group_row(tuple((bid, 1) for bid in self.owners[i])) for i in sorted(self.owners)
            ),
        )

    # integer-rank transversality filters (the exact volume ratio is only
    # computed for surviving entries)

    def transverse(self, groups: Iterable[Group]) -> bool:
        """Whether the split-center spaces sum directly to the full one."""
        g_rows = [self.block_group_row(g) for g in groups]
        m_rows = self.m_rows_block()
        if len(m_rows) + len(g_rows) != len(self.outcome.blocks):
            return False
        return det_int(list(m_rows) + g_rows) != 0

    # -- the big centralizer's Levis ------------------------------------------

    @cached_property
    def transverse_levis(self) -> tuple[GEtaLevi, ...]:
        """The Levis of ``enumerate_levis`` whose split-center space is
        transverse to the matched Levi's, in that order."""
        return tuple(levi for levi in enumerate_levis(self.outcome) if self.transverse(levi.groups))

    @cached_property
    def top_levi(self) -> GEtaLevi:
        """The big centralizer itself as a Levi, as ``top_levi`` builds it."""
        return top_levi(self.outcome)

    # -- home bookkeeping -------------------------------------------------------

    def home_core_parts(self, home: tuple) -> CoreDatum:
        """(plus part atoms, minus part atoms, plus rank, minus rank, class)."""
        o = self.outcome
        if home == ("sp", 1):
            return self.pm["xp"], self.pm["yd"], o.x_prime, o.y_dbl, o.class_dbl
        if home == ("sp", -1):
            return self.pm["xd"], self.pm["yp"], o.x_dbl, o.y_prime, o.class_prime
        if home[0] == "u":
            slot = self.slots[home[1]]
            return self.up[home[1]], self.ud[home[1]], slot.k_prime, slot.k_dbl, "split"
        raise KeyError(home)

    def absorbed(self, levi: GEtaLevi, home: tuple) -> tuple[Block, ...]:
        def build() -> tuple[Block, ...]:
            grouped = levi.grouped_bids()
            return tuple(b for b in self.outcome.home_blocks(home) if b.bid not in grouped)

        return self._cached(("absorbed", levi, home), build)

    def core_datum(self, home: tuple, absorbed: Sequence[Block], signs: Sequence[int]) -> CoreDatum:
        """The datum of the core at ``home`` after absorbing blocks with
        ``signs``: (plus atoms, minus atoms, plus rank, minus rank, minus
        class).  A symplectic core with an empty minus part has a split one."""
        plus_c, minus_c, x, y, klass = self.home_core_parts(home)
        if home[0] == "sp" and y == 0:
            klass = "split"
        plus, minus = list(plus_c), list(minus_c)
        for b, s in zip(absorbed, signs):
            rank = b.size if home[0] == "sp" else 2 * b.size
            if s == 1:
                plus.extend(self.bc[b.bid])
                x += rank
            else:
                minus.extend(self.bc[b.bid])
                y += rank
        return tuple(sorted(plus)), tuple(sorted(minus)), x, y, klass

    def twisted_core(self, levi: GEtaLevi, home: tuple, t: Sequence[int]) -> CoreDatum:
        """``core_datum`` of the Levi's core at ``home`` under the signs of twist ``t``."""
        absorbed = self.absorbed(levi, home)
        return self.core_datum(home, absorbed, [sigma(b, t) for b in absorbed])

    # -- centers ------------------------------------------------------------------

    def _center(
        self, key: Hashable, parts: Callable[[], Parts], groups: Iterable[Group] = ()
    ) -> DiagSubgroup:
        """The center ``key``: one diagonal piece per ``(tag, atoms)`` part,
        and one signed torus per group, assembled once."""
        return self._cached(
            key, lambda: diag_center(self.n, parts(), ([(self.bc[bid], e) for bid, e in grp] for grp in groups))
        )

    def _levi_parts(self) -> Parts:
        return [("torus", self._coords(self.owners[i])) for i in sorted(self.owners)]

    def _block_parts(self) -> Parts:
        return [("torus", self.bc[b.bid]) for b in self.outcome.blocks]

    def _trivial_elsewhere(self, parts: Parts) -> Parts:
        covered = {c for _, atoms in parts for c in atoms}
        return parts + [("none", tuple(c for c in range(self.n) if c not in covered))]

    def z_meta_m(self) -> DiagSubgroup:
        return self._center("z_meta_m", lambda: self._trivial_elsewhere(self._levi_parts()))

    def z_mexc(self) -> DiagSubgroup:
        return self._center(
            "z_mexc", lambda: self._levi_parts() + [("mu2", self.prime_side), ("mu2", self.dbl_side)]
        )

    def z_gs(self, t: Sequence[int]) -> DiagSubgroup:
        def parts() -> Parts:
            prime, dbl = list(self.prime_side), list(self.dbl_side)
            for i, bids in self.owners.items():
                (prime if t[i] == 1 else dbl).extend(self._coords(bids))
            return [("mu2", tuple(prime)), ("mu2", tuple(dbl))]

        return self._center(("z_gs", tuple(t)), parts)

    def z_r(self) -> DiagSubgroup:
        return self._center(
            "z_r",
            lambda: self._block_parts()
            + [("mu2", self.up[rep] + self.ud[rep]) for rep in self.up]
            + [("none", atoms) for atoms in self.pm.values()],
        )

    def z_r0(self) -> DiagSubgroup:
        return self._center("z_r0", lambda: self._trivial_elsewhere(self._block_parts()))

    def z_mexcbar(self) -> DiagSubgroup:
        return self._center(
            "z_mexcbar",
            lambda: self._block_parts()
            + [("mu2", half[rep]) for rep in self.up for half in (self.up, self.ud)]
            + [("mu2" if name[0] == "y" else "none", atoms) for name, atoms in self.pm.items()],
        )

    def z_mexceps(self) -> DiagSubgroup:
        return self._center(
            "z_mexceps",
            lambda: self._block_parts()
            + [("mu2", half[rep]) for rep in self.up for half in (self.up, self.ud)]
            + [("mu2", atoms) for atoms in self.pm.values()],
        )

    def z_l(self, levi: GEtaLevi) -> DiagSubgroup:
        def parts() -> Parts:
            out: Parts = []
            for home in self.outcome.homes:
                blocks = self.absorbed(levi, home)
                if home[0] == "gl":
                    if blocks:
                        raise InvariantViolation("pair-factor blocks cannot be absorbed")
                    continue
                plus, minus, _, _, _ = self.home_core_parts(home)
                atoms = self._coords(b.bid for b in blocks) + plus + minus
                out.append(("none" if home[0] == "sp" else "mu2", atoms))
            return out

        return self._center(("z_l", levi), parts, levi.groups)

    def z_pushed(self, levi: GEtaLevi, t: Sequence[int], *, odd_side: bool) -> DiagSubgroup:
        """Fixed dual center of the pushed Levi.

        With ``odd_side`` false this is the bar-side group (symplectic plus
        parts, trivial center there); with true it is the unbarred one (odd
        orthogonal plus parts, diagonal mu_2).
        """

        def parts() -> Parts:
            for grp in levi.groups:
                if len({sigma(self.block[bid], t) for bid, _ in grp}) != 1:
                    raise InvariantViolation("pushed center needs sign-pure groups")
            out: Parts = []
            for home in self.outcome.homes:
                if home[0] == "gl":
                    continue
                plus, minus, _, _, _ = self.twisted_core(levi, home, t)
                out += [("mu2" if odd_side or home[0] == "u" else "none", plus), ("mu2", minus)]
            return out

        return self._center(("z_pushed", levi, tuple(t), odd_side), parts, levi.groups)

    # -- pushed group types -------------------------------------------------------

    def pushed_types(self, levi: GEtaLevi, t: Sequence[int]) -> tuple[GroupType, GroupType]:
        """(bar-side type, unbarred type) of the pushed Levi.

        Sign-impure groups split into one GL factor per sign, which is what
        makes the attached datum non-elliptic.
        """
        factors = []
        for grp in levi.groups:
            by_sign: dict[int, int] = {}
            exts = set()
            for bid, _ in grp:
                b = self.block[bid]
                exts.add(b.ext)
                s = sigma(b, t)
                by_sign[s] = by_sign.get(s, 0) + b.size
            if len(exts) != 1:
                raise InvariantViolation("a group must live over a single extension")
            ext = exts.pop()
            for s in sorted(by_sign, reverse=True):
                factors.append(gl(by_sign[s], ext))
        bar_factors = list(factors)
        odd_factors = list(factors)
        for home in self.outcome.homes:
            if home[0] == "gl":
                continue
            _, _, x, y, klass = self.twisted_core(levi, home, t)
            if home[0] == "sp":
                bar_factors += [sp(x), so_even(y, klass)]
                odd_factors += [so_odd(x), so_even(y, klass)]
            else:
                d = self.slots[home[1]].d
                bar_factors += [u(z, d) for z in (x, y) if z]
                odd_factors += [u(z, d) for z in (x, y) if z]
        return GroupType(tuple(bar_factors)), GroupType(tuple(odd_factors))
