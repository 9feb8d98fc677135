"""Index sets and coefficient identities over a descent outcome.

Levis of the big centralizer containing the matched Levi are enumerated as
signed groupings of the shared GL blocks, one grouping structure per
ambient factor.  The instable side indexes (twist, Levi) pairs surviving
four conditions; the stable side indexes (Levi, datum) pairs on the
endoscopic group.  Both are materialized independently and the comparison
maps between them are verified exactly, along with every index identity
the coefficient comparison rests on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from ._intlinalg import det_int
from .catalog import (
    GroupType,
    assemble_diag,
    center_rows,
    gl,
    grouping_patterns,
    signed_torus_rows,
    so_even,
    so_odd,
    sp,
    u,
)
from .descent import (
    HALF,
    Block,
    DescentOutcome,
    _neg_rep_exp,
    gs_descended_types,
    orbit_of,
    placement,
    placement_independent,
    sigma,
)
from .errors import InvariantViolation, MatchingFailure
from .lattices import (
    MEMO_SIZE,
    DiagSubgroup,
    arthur_product_check,
    diag_index,
    diag_intersect,
)
from .nonstandard import c_nonstandard_quotient
from .qspaces import DSquared, QForm, QSubspace, d_coefficient

Group = tuple[tuple[int, int], ...]


@lru_cache(maxsize=MEMO_SIZE)
def _d_squared(
    w: tuple[int, ...], rows_m: tuple[tuple[int, ...], ...], rows_l: tuple[tuple[int, ...], ...]
) -> DSquared:
    """Squared volume distortion of the block-coordinate spaces spanned by
    ``rows_m`` and ``rows_l``, for blocks of widths ``w``."""
    nb = len(w)
    form = QForm(tuple(tuple(w[i] if i == j else 0 for j in range(nb)) for i in range(nb)))
    return d_coefficient(QSubspace(nb, rows_m), QSubspace(nb, rows_l), QSubspace.full(nb), form)


def _normalize_group(pairs: Iterable[tuple[int, int]]) -> Group:
    ordered = tuple(sorted(pairs))
    if ordered and ordered[0][1] == -1:
        ordered = tuple((b, -e) for b, e in ordered)
    return ordered


@dataclass(frozen=True)
class GEtaLevi:
    """A Levi of the big centralizer containing the matched one.

    Each group is a tuple of (block id, exponent) with the leading exponent
    normalized to +1; ungrouped blocks are absorbed into their factor's core.
    """

    groups: tuple[Group, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(sorted(_normalize_group(g) for g in self.groups))
        )

    def grouped_bids(self) -> frozenset[int]:
        return frozenset(b for g in self.groups for b, _ in g)


def _eta_orientation(outcome: DescentOutcome, b: Block) -> int:
    """Orientation of a block inside its inverse-pair ambient factor."""
    key = b.home[1]
    q = outcome.scenario.q
    return 1 if orbit_of(b.eta_exp, q) == orbit_of(key, q) else -1


def _gl_home_pattern(outcome: DescentOutcome, blocks: Sequence[Block]) -> Group:
    return _normalize_group((b.bid, _eta_orientation(outcome, b)) for b in blocks)


def enumerate_levis(outcome: DescentOutcome) -> tuple[GEtaLevi, ...]:
    """All Levis of the big centralizer containing the matched Levi."""
    per_home: list[list[tuple[Group, ...]]] = []
    for home in outcome.homes():
        blocks = outcome.home_blocks(home)
        n = len(blocks)
        options: list[tuple[Group, ...]] = []
        if home[0] == "gl":
            for groups, absorbed in grouping_patterns(n, signed=False, with_core=False):
                gs = []
                for grp in groups:
                    members = [blocks[i] for i, _ in grp]
                    gs.append(_gl_home_pattern(outcome, members))
                options.append(tuple(gs))
        else:
            for groups, absorbed in grouping_patterns(n, signed=True, with_core=True):
                gs = []
                for grp in groups:
                    gs.append(_normalize_group((blocks[i].bid, e) for i, e in grp))
                options.append(tuple(gs))
        per_home.append(options)
    out = []
    for combo in itertools.product(*per_home) if per_home else [()]:
        groups: list[Group] = []
        for gs in combo:
            groups.extend(gs)
        out.append(GEtaLevi(tuple(groups)))
    return tuple(out)


def top_levi(outcome: DescentOutcome) -> GEtaLevi:
    """The big centralizer itself as a Levi: pair factors fully grouped."""
    groups = []
    for home in outcome.homes():
        if home[0] != "gl":
            continue
        blocks = outcome.home_blocks(home)
        if blocks:
            groups.append(_gl_home_pattern(outcome, blocks))
    return GEtaLevi(tuple(groups))


def bottom_levi(outcome: DescentOutcome) -> GEtaLevi:
    """The matched Levi itself: every block is its own group."""
    return GEtaLevi(tuple(((b.bid, 1),) for b in outcome.blocks))


# ---------------------------------------------------------------------------
# the shared coordinate calculus


Atoms = tuple[int, ...]
Layout = tuple[int, dict[int, Atoms], dict[Fraction, Atoms], dict[Fraction, Atoms], dict[str, Atoms]]
Parts = list[tuple[str, Atoms]]


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
            lambda: _d_squared(
                self.weights, self._m_rows_block(), tuple(self._block_group_row(g) for g in levi.groups)
            ),
        )

    # The volume calculus works in weighted block coordinates, the block part
    # of the atoms: the block-sum vectors are orthogonal, so sending each to a
    # basis vector weighted by its width is an isometry onto the span of the
    # matched Levi's center space.

    @property
    def weights(self) -> tuple[int, ...]:
        return self._cached("weights", lambda: tuple(b.width for b in self.outcome.blocks))

    def _block_group_row(self, grp: Group) -> tuple[int, ...]:
        exps = dict(grp)
        return tuple(exps.get(b.bid, 0) for b in self.outcome.blocks)

    def _m_rows_block(self) -> tuple[tuple[int, ...], ...]:
        return self._cached(
            "m_rows_block",
            lambda: tuple(
                self._block_group_row(tuple((bid, 1) for bid in self.owners[i])) for i in sorted(self.owners)
            ),
        )

    # integer-rank transversality filters (the exact volume ratio is only
    # computed for surviving entries)

    def transverse(self, groups: Iterable[Group]) -> bool:
        """Whether the split-center spaces sum directly to the full one."""
        g_rows = [self._block_group_row(g) for g in groups]
        m_rows = self._m_rows_block()
        if len(m_rows) + len(g_rows) != len(self.outcome.blocks):
            return False
        return det_int(list(m_rows) + g_rows) != 0

    # -- home bookkeeping -------------------------------------------------------

    def home_core_parts(self, home: tuple) -> tuple[Atoms, Atoms, int, int, str]:
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
        grouped = levi.grouped_bids()
        return tuple(b for b in self.outcome.home_blocks(home) if b.bid not in grouped)

    # -- centers ------------------------------------------------------------------

    def _center(
        self, key: Hashable, parts: Callable[[], Parts], groups: Iterable[Group] = ()
    ) -> DiagSubgroup:
        """The center ``key``: one diagonal piece per ``(tag, atoms)`` part,
        and one signed torus per group, assembled once."""

        def build() -> DiagSubgroup:
            rows = [row for grp in groups for row in signed_torus_rows([(self.bc[bid], e) for bid, e in grp])]
            for tag, atoms in parts():
                rows += center_rows(tag, atoms)
            return assemble_diag(self.n, rows)

        return self._cached(key, build)

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
            for home in self.outcome.homes():
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

    def _core_datum_coords(
        self, levi: GEtaLevi, home: tuple, t: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...], int, int, str]:
        """Datum pieces of one core: (plus atoms, minus atoms, plus rank,
        minus rank, minus class) after absorbing the core blocks."""
        plus_c, minus_c, x0, y0, klass = self.home_core_parts(home)
        plus = list(plus_c)
        minus = list(minus_c)
        x, y = x0, y0
        for b in self.absorbed(levi, home):
            if sigma(self.outcome, b, t) == 1:
                plus.extend(self.bc[b.bid])
                x += b.size if home[0] == "sp" else 2 * b.size
            else:
                minus.extend(self.bc[b.bid])
                y += b.size if home[0] == "sp" else 2 * b.size
        if home[0] == "sp" and y0 == 0:
            klass = "split"
        return tuple(sorted(plus)), tuple(sorted(minus)), x, y, klass

    def z_pushed(self, levi: GEtaLevi, t: Sequence[int], *, odd_side: bool) -> DiagSubgroup:
        """Fixed dual center of the pushed Levi.

        With ``odd_side`` false this is the bar-side group (symplectic plus
        parts, trivial center there); with true it is the unbarred one (odd
        orthogonal plus parts, diagonal mu_2).
        """

        def parts() -> Parts:
            for grp in levi.groups:
                if len({sigma(self.outcome, self.block[bid], t) for bid, _ in grp}) != 1:
                    raise InvariantViolation("pushed center needs sign-pure groups")
            out: Parts = []
            for home in self.outcome.homes():
                if home[0] == "gl":
                    continue
                plus, minus, _, _, _ = self._core_datum_coords(levi, home, t)
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
                s = sigma(self.outcome, b, t)
                by_sign[s] = by_sign.get(s, 0) + b.size
            if len(exts) != 1:
                raise InvariantViolation("a group must live over a single extension")
            ext = exts.pop()
            for s in sorted(by_sign, reverse=True):
                factors.append(gl(by_sign[s], ext))
        bar_factors = list(factors)
        odd_factors = list(factors)
        for home in self.outcome.homes():
            if home[0] == "gl":
                continue
            _, _, x, y, klass = self._core_datum_coords(levi, home, t)
            if home[0] == "sp":
                bar_factors += [sp(x), so_even(y, klass)]
                odd_factors += [so_odd(x), so_even(y, klass)]
            else:
                d = self.slots[home[1]].d
                bar_factors += [u(z, d) for z in (x, y) if z]
                odd_factors += [u(z, d) for z in (x, y) if z]
        return GroupType(tuple(bar_factors)), GroupType(tuple(odd_factors))


# ---------------------------------------------------------------------------
# ellipticity and the twist condition


def is_elliptic(outcome: DescentOutcome, amb: Ambient, levi: GEtaLevi, t: Sequence[int]) -> bool:
    """Condition for the twisted datum on the Levi to stay elliptic: all
    groups sign-pure, and no core datum degenerates to a split rank-one
    even part."""
    for grp in levi.groups:
        signs = {sigma(outcome, amb.block[bid], t) for bid, _ in grp}
        if len(signs) != 1:
            return False
    for home in outcome.homes():
        if home[0] != "sp":
            continue
        _, _, x0, y0, klass = amb.home_core_parts(home)
        y = y0 + sum(b.size for b in amb.absorbed(levi, home) if sigma(outcome, b, t) == -1)
        if y0 == 0:
            klass = "split"
        if y == 1 and klass == "split":
            return False
    return True


# ---------------------------------------------------------------------------
# the stable side


HomeKey = tuple


def gs_homes(outcome: DescentOutcome, t: Sequence[int]) -> dict[HomeKey, tuple[Block, ...]]:
    """Factor homes of the descended endoscopic group, with their blocks."""
    homes: dict[HomeKey, list[Block]] = {}
    for b in outcome.blocks:
        homes.setdefault(placement_independent(outcome, b, t), []).append(b)
    for key, rank in (
        (("p", "odd"), outcome.x_prime),
        (("d", "odd"), outcome.x_dbl),
        (("p", "even"), outcome.y_prime),
        (("d", "even"), outcome.y_dbl),
    ):
        if rank and key not in homes:
            homes[key] = []
    for slot in outcome.u_slots:
        if slot.k_prime:
            homes.setdefault(("p", "u", slot.eta_rep), [])
        if slot.k_dbl:
            neg = _neg_rep_exp(slot.eta_rep, outcome.scenario.q)
            homes.setdefault(("d", "u", neg), [])
    return {k: tuple(v) for k, v in homes.items()}


def _eps_orientation(outcome: DescentOutcome, b: Block, t: Sequence[int], home_key: Fraction) -> int:
    if b.origin == "levi" and t[b.owner] == -1:
        exp = (b.eps_exp + HALF) % 1
    else:
        exp = b.eps_exp
    q = outcome.scenario.q
    return 1 if orbit_of(exp, q) == orbit_of(home_key, q) else -1


@dataclass(frozen=True)
class EStElement:
    """One stable-side index: a twist plus a Levi of the descended group."""

    t: tuple[int, ...]
    groups: tuple[tuple[HomeKey, Group], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(sorted(self.groups)))

    def grouped_bids(self) -> frozenset[int]:
        return frozenset(b for _, g in self.groups for b, _ in g)


def _gs_core_info(outcome: DescentOutcome, key: HomeKey) -> tuple[int, str]:
    """(core rank, form class) of a descended-side home."""
    if key == ("p", "odd"):
        return outcome.x_prime, "split"
    if key == ("d", "odd"):
        return outcome.x_dbl, "split"
    if key == ("p", "even"):
        return outcome.y_prime, outcome.class_prime
    if key == ("d", "even"):
        return outcome.y_dbl, outcome.class_dbl
    if key[1] == "u":
        if key[0] == "p":
            slot = outcome.u_slot_at(key[2])
            return (slot.k_prime if slot else 0), "split"
        rep = _neg_rep_exp(key[2], outcome.scenario.q)
        slot = outcome.u_slot_at(rep)
        return (slot.k_dbl if slot else 0), "split"
    return 0, "split"


def enumerate_e_st(outcome: DescentOutcome, amb: Ambient, t: Sequence[int]) -> Iterator[EStElement]:
    """Levis of the descended endoscopic group containing the matched one."""
    homes = gs_homes(outcome, t)
    per_home: list[list[tuple[tuple[HomeKey, Group], ...]]] = []
    for key in sorted(homes):
        blocks = homes[key]
        n = len(blocks)
        options: list[tuple[tuple[HomeKey, Group], ...]] = []
        if key[1] == "gl":
            for groups, _ in grouping_patterns(n, signed=False, with_core=False):
                out = []
                for grp in groups:
                    members = [blocks[i] for i, _ in grp]
                    pat = _normalize_group(
                        (b.bid, _eps_orientation(outcome, b, t, key[2])) for b in members
                    )
                    out.append((key, pat))
                options.append(tuple(out))
        else:
            core_rank, klass = _gs_core_info(outcome, key)
            for groups, absorbed in grouping_patterns(n, signed=True, with_core=True):
                if key[1] == "even" and klass == "split":
                    # a split rank-one even core is the same subgroup as a
                    # GL(1) block; keep only the block form of that class
                    y = core_rank + sum(blocks[i].size for i in absorbed)
                    if y == 1:
                        continue
                out = []
                for grp in groups:
                    out.append((key, _normalize_group((blocks[i].bid, e) for i, e in grp)))
                options.append(tuple(out))
        per_home.append(options)
    for combo in itertools.product(*per_home) if per_home else [()]:
        groups: list[tuple[HomeKey, Group]] = []
        for gs in combo:
            groups.extend(gs)
        yield EStElement(tuple(t), tuple(groups))


def _leps_rows_block(outcome: DescentOutcome, amb: Ambient, elem: EStElement) -> list[tuple[int, ...]]:
    """Block-coordinate basis of the split-center space of a stable-side
    Levi, split tori of degenerate even parts included.

    A degenerate (split, rank-one) even part can only arise over an empty
    core slot, so its torus line is spanned by its absorbed blocks.
    """
    rows = [amb._block_group_row(g) for _, g in elem.groups]
    grouped = elem.grouped_bids()
    homes = gs_homes(outcome, tuple(elem.t))
    for key, blocks in homes.items():
        if len(key) < 2 or key[1] != "even":
            continue
        core_rank, klass = _gs_core_info(outcome, key)
        absorbed = [b for b in blocks if b.bid not in grouped]
        y = core_rank + sum(b.size for b in absorbed)
        if klass == "split" and y == 1:
            if core_rank:
                raise InvariantViolation("a degenerate split even part needs an empty core slot")
            rows.append(amb._block_group_row(tuple((b.bid, 1) for b in absorbed)))
    return rows


def d_gs_side(outcome: DescentOutcome, amb: Ambient, elem: EStElement) -> DSquared:
    return _d_squared(amb.weights, amb._m_rows_block(), tuple(_leps_rows_block(outcome, amb, elem)))


def pushforward_levi(
    outcome: DescentOutcome, amb: Ambient, t: Sequence[int], levi: GEtaLevi
) -> EStElement:
    """Image of an instable-side Levi on the stable side: same groups, each
    placed in the factor its sign sends it to."""
    groups: list[tuple[HomeKey, Group]] = []
    for grp in levi.groups:
        b0 = amb.block[grp[0][0]]
        sgn = {sigma(outcome, amb.block[bid], t) for bid, _ in grp}
        if len(sgn) != 1:
            raise InvariantViolation("pushforward needs sign-pure groups")
        key = placement(outcome, b0, t)
        if key[1] == "gl":
            members = [amb.block[bid] for bid, _ in grp]
            pat = _normalize_group(
                (b.bid, _eps_orientation(outcome, b, t, key[2])) for b in members
            )
            groups.append((key, pat))
        else:
            groups.append((key, grp))
    return EStElement(tuple(t), tuple(groups))


def section_levi(outcome: DescentOutcome, amb: Ambient, elem: EStElement) -> GEtaLevi:
    """Canonical section of the pushforward: regroup the same blocks in the
    big centralizer."""
    groups: list[Group] = []
    for _, grp in elem.groups:
        b0 = amb.block[grp[0][0]]
        if b0.home[0] == "gl":
            groups.append(_gl_home_pattern(outcome, [amb.block[bid] for bid, _ in grp]))
        else:
            groups.append(grp)
    return GEtaLevi(tuple(groups))


# ---------------------------------------------------------------------------
# the instable side


def einst_canon(outcome: DescentOutcome, amb: Ambient, levi: GEtaLevi, t: Sequence[int]) -> tuple:
    """Canonical form of the twisted datum class on a Levi.

    Signs on blocks absorbed into symplectic cores are recorded as they
    are; a unitary core only remembers the partition of its blocks and
    slots into the two unitary parts (the whole-core flip is central in
    the Levi's dual)."""
    parts = []
    for home in outcome.homes():
        if home[0] == "gl":
            continue
        absorbed = amb.absorbed(levi, home)
        if home[0] == "sp":
            parts.append(
                (home, tuple(sorted((b.bid, sigma(outcome, b, t)) for b in absorbed)))
            )
        else:
            slot = amb.slots[home[1]]
            plus: list = [b.bid for b in absorbed if sigma(outcome, b, t) == 1]
            minus: list = [b.bid for b in absorbed if sigma(outcome, b, t) == -1]
            if slot.k_prime:
                plus.append("P")
            if slot.k_dbl:
                minus.append("D")
            cells = frozenset(
                frozenset(cell) for cell in (plus, minus) if cell
            )
            parts.append((home, cells))
    return tuple(parts)


def enumerate_einst_data(
    outcome: DescentOutcome, amb: Ambient, levi: GEtaLevi
) -> list[tuple]:
    """All elliptic datum classes on a Levi, enumerated from scratch."""
    per_home: list[list] = []
    keys = [h for h in outcome.homes() if h[0] != "gl"]
    for home in keys:
        absorbed = amb.absorbed(levi, home)
        options = []
        if home[0] == "sp":
            _, _, x0, y0, klass = amb.home_core_parts(home)
            if y0 == 0:
                klass = "split"
            for signs in itertools.product((1, -1), repeat=len(absorbed)):
                y = y0 + sum(b.size for b, s in zip(absorbed, signs) if s == -1)
                if y == 1 and klass == "split":
                    continue
                options.append((home, tuple(sorted((b.bid, s) for b, s in zip(absorbed, signs)))))
        else:
            slot = amb.slots[home[1]]
            seen = set()
            for signs in itertools.product((1, -1), repeat=len(absorbed)):
                plus: list = [b.bid for b, s in zip(absorbed, signs) if s == 1]
                minus: list = [b.bid for b, s in zip(absorbed, signs) if s == -1]
                if slot.k_prime:
                    plus.append("P")
                if slot.k_dbl:
                    minus.append("D")
                cells = frozenset(frozenset(cell) for cell in (plus, minus) if cell)
                key = (home, cells)
                if key not in seen:
                    seen.add(key)
                    options.append(key)
        per_home.append(options)
    out = []
    for combo in itertools.product(*per_home) if per_home else [()]:
        out.append(tuple(combo))
    return out


# ---------------------------------------------------------------------------
# entries and coefficients


@dataclass(frozen=True)
class ENaturalEntry:
    t: tuple[int, ...]
    levi: GEtaLevi
    image: EStElement
    lsbar_type: GroupType
    leps_type: GroupType
    dsq: DSquared
    dsq_st: DSquared
    c_inst_rat: Fraction
    c_st_rat: Fraction
    ns_pairs: tuple[tuple[int, tuple[int, ...], int], ...]


def _finite_order(d: DiagSubgroup) -> int:
    if not d.is_finite:
        raise MatchingFailure("expected a finite diagonalizable group")
    return d.order()


def _ns_pairs(outcome: DescentOutcome, amb: Ambient, levi: GEtaLevi, t: Sequence[int]):
    pairs = []
    for home in (("sp", 1), ("sp", -1)):
        if home not in outcome.homes():
            continue
        _, _, x0, _, _ = amb.home_core_parts(home)
        sizes = tuple(
            sorted(
                (b.size for b in amb.absorbed(levi, home) if sigma(outcome, b, t) == 1),
                reverse=True,
            )
        )
        rank = x0 + sum(sizes)
        if rank:
            pairs.append((rank, sizes, x0))
    return tuple(pairs)


def make_entry(
    outcome: DescentOutcome, amb: Ambient, t: tuple[int, ...], levi: GEtaLevi
) -> ENaturalEntry:
    image = pushforward_levi(outcome, amb, t, levi)
    dsq = amb.d_g(levi)
    dsq_st = d_gs_side(outcome, amb, image)
    lsbar_type, leps_type = amb.pushed_types(levi, t)

    z_l = amb.z_l(levi)
    z_lsbar = amb.z_pushed(levi, t, odd_side=False)
    i_std_num = amb._cached("i_std_num", lambda: diag_index(amb.z_mexcbar(), amb.z_r()))
    i_std_den = diag_index(z_lsbar, z_l)
    kern = _finite_order(diag_intersect(z_l, amb.z_meta_m()))
    c_inst_rat = (i_std_num / i_std_den) / kern

    z_leps = amb.z_pushed(levi, t, odd_side=True)
    z_gs = amb.z_gs(t)
    i_meta_num = amb._cached("i_meta_num", lambda: diag_index(amb.z_mexc(), amb.z_meta_m()))
    i_meta_den = diag_index(z_gs, DiagSubgroup.trivial(amb.n))
    mid = diag_index(diag_intersect(amb.z_mexc(), z_leps), z_gs)
    c_st_rat = (i_meta_num / i_meta_den) / mid

    return ENaturalEntry(
        t=t,
        levi=levi,
        image=image,
        lsbar_type=lsbar_type,
        leps_type=leps_type,
        dsq=dsq,
        dsq_st=dsq_st,
        c_inst_rat=c_inst_rat,
        c_st_rat=c_st_rat,
        ns_pairs=_ns_pairs(outcome, amb, levi, t),
    )


def enumerate_E_natural(outcome: DescentOutcome, amb: Ambient | None = None) -> tuple[ENaturalEntry, ...]:
    """All (twist, Levi) pairs surviving the four defining conditions."""
    amb = amb or Ambient(outcome)
    out = []
    transverse = [
        levi for levi in enumerate_levis(outcome) if amb.transverse(levi.groups)
    ]
    for t in itertools.product((1, -1), repeat=outcome.i_count):
        for levi in transverse:  # transversality on the big side holds
            if not is_elliptic(outcome, amb, levi, t):  # twisted datum elliptic
                continue
            entry = make_entry(outcome, amb, t, levi)
            if entry.dsq_st.is_zero:  # transversality on the endoscopic side
                continue
            out.append(entry)
    return tuple(out)


def build_E_inst(outcome: DescentOutcome, amb: Ambient | None = None) -> set:
    """Independent instable-side index set: (Levi, datum class) pairs."""
    amb = amb or Ambient(outcome)
    out = set()
    for levi in enumerate_levis(outcome):
        if not amb.transverse(levi.groups):
            continue
        for datum in enumerate_einst_data(outcome, amb, levi):
            out.add((levi, datum))
    return out


def build_E_st(outcome: DescentOutcome, amb: Ambient | None = None) -> set:
    """Independent stable-side index set: (twist, endoscopic Levi) pairs."""
    amb = amb or Ambient(outcome)
    out = set()
    for t in itertools.product((1, -1), repeat=outcome.i_count):
        for elem in enumerate_e_st(outcome, amb, t):
            if amb.transverse(g for _, g in elem.groups):
                out.add(elem)
    return out


# ---------------------------------------------------------------------------
# identity verification


def verify_identities(
    outcome: DescentOutcome, amb: Ambient, entry: ENaturalEntry
) -> dict[str, bool]:
    """Exact checks of every coefficient identity at one index entry."""
    t, levi = entry.t, entry.levi
    z_l = amb.z_l(levi)
    z_lsbar = amb.z_pushed(levi, t, odd_side=False)
    z_leps = amb.z_pushed(levi, t, odd_side=True)
    z_meta_m = amb.z_meta_m()
    triv = DiagSubgroup.trivial(amb.n)

    checks: dict[str, bool] = {}
    checks["instable-coefficient"] = entry.c_inst_rat == Fraction(
        1, _finite_order(diag_intersect(z_lsbar, z_meta_m))
    )
    checks["stable-coefficient"] = entry.c_st_rat == Fraction(
        1, _finite_order(diag_intersect(z_leps, z_meta_m))
    )
    ratio = diag_index(
        diag_intersect(z_leps, amb.z_r0()),
        diag_intersect(z_lsbar, amb.z_r0()),
    )
    checks["coefficient-ratio"] = entry.c_inst_rat / entry.c_st_rat == ratio
    checks["transverse-volumes-match"] = entry.dsq == entry.dsq_st

    raw = c_nonstandard_quotient(entry.lsbar_type, entry.leps_type, list(entry.ns_pairs))
    closed = Fraction(1)
    for rank, sizes, core in entry.ns_pairs:
        closed *= Fraction(1) if core else Fraction(1, 2)
    checks["long-short-closed-form"] = raw == closed
    checks["final-identity"] = entry.c_st_rat / entry.c_inst_rat == raw

    checks["center-product-law"] = all(
        (
            amb._cached(
                ("z_l product", levi), lambda: arthur_product_check(z_l, amb.z_r(), amb.z_r0())
            ),
            arthur_product_check(z_lsbar, amb.z_mexcbar(), amb.z_r0()),
            arthur_product_check(z_leps, amb.z_mexceps(), amb.z_r0()),
            amb._cached(
                ("z_gs product", t), lambda: arthur_product_check(amb.z_gs(t), amb.z_mexc(), z_meta_m)
            ),
        )
    )
    return checks


def verify_index_sets(
    outcome: DescentOutcome,
    amb: Ambient | None = None,
    entries: tuple[ENaturalEntry, ...] | None = None,
) -> dict[str, bool]:
    """Bijectivity of the stable comparison map and the fiber law of the
    instable one, both against independently materialized index sets."""
    amb = amb or Ambient(outcome)
    if entries is None:
        entries = enumerate_E_natural(outcome, amb)
    checks: dict[str, bool] = {}

    est = build_E_st(outcome, amb)
    images = [entry.image for entry in entries]
    checks["stable-map-injective"] = len(set(images)) == len(images)
    checks["stable-map-bijective"] = set(images) == est and checks["stable-map-injective"]

    einst = build_E_inst(outcome, amb)
    fibers: dict[tuple, int] = {}
    for entry in entries:
        key = (entry.levi, einst_canon(outcome, amb, entry.levi, entry.t))
        fibers[key] = fibers.get(key, 0) + 1
    checks["instable-map-surjective"] = set(fibers) == einst
    ok = True
    for (levi, _), count in fibers.items():
        kern = diag_intersect(amb.z_l(levi), amb.z_meta_m())
        if not kern.is_finite or kern.order() != count:
            ok = False
            break
    checks["instable-fiber-law"] = ok

    sections_ok = True
    for entry in entries:
        back = section_levi(outcome, amb, entry.image)
        if back != entry.levi:
            sections_ok = False
            break
    checks["section-inverts-pushforward"] = sections_ok
    return checks


# ---------------------------------------------------------------------------
# pushed-group identities


def pushed_group_check(outcome: DescentOutcome, amb: Ambient, t: Sequence[int]) -> bool:
    """The Levi-ascent construction at the top Levi and the raw descent of
    the twisted element give the same group, with and without the bar swap."""
    arthur_bar, arthur_odd = amb.pushed_types(top_levi(outcome), t)
    descended, descended_bar = gs_descended_types(outcome, tuple(t))
    return arthur_bar == descended_bar and arthur_odd == descended


# ---------------------------------------------------------------------------
# general twists: symbolic labels alongside signs


Assignment = tuple  # per Levi block: +1, -1, or ("label", k)


def _assign_value(outcome: DescentOutcome, b: Block, assignment: Assignment) -> tuple:
    """(label or None, sign) of a block under a general twist."""
    if b.origin != "levi":
        return (None, b.sbar0)
    a = assignment[b.owner]
    if a in (1, -1):
        return (None, b.sbar0 * a)
    return (a[1], b.sbar0)


def separation_check(outcome: DescentOutcome, assignment: Assignment) -> bool:
    """Two labeled blocks in one ambient factor can only collide through
    equal labels, and then the base-point signs already agree.

    This is the exact condition making the centralizer of the general twist
    land inside the intermediate Levi."""
    by_home: dict[tuple, list[tuple[int, int]]] = {}
    for b in outcome.blocks:
        if b.origin != "levi":
            continue
        a = assignment[b.owner]
        if a in (1, -1):
            continue
        by_home.setdefault(b.home, []).append((a[1], b.sbar0))
    for vals in by_home.values():
        for (k1, s1), (k2, s2) in itertools.combinations(vals, 2):
            # with free labels, s0 a_k = (s0' a_k')^{+-1} is solvable exactly
            # when k = k' with equal base signs; the collision pattern must
            # therefore reproduce label equality
            if (k1 == k2) != (k1 == k2 and s1 == s2):
                return False
    return True


def arthur_general_types(
    outcome: DescentOutcome, amb: Ambient, assignment: Assignment
) -> tuple[GroupType, GroupType]:
    """Connected dual centralizer of the general twist at the top Levi:
    (bar side, odd side), computed purely from the sign algebra."""
    bar_factors: list = []
    odd_factors: list = []
    for home in outcome.homes():
        blocks = outcome.home_blocks(home)
        if home[0] == "sp":
            _, _, x0, y0, klass = amb.home_core_parts(home)
            if y0 == 0:
                klass = "split"
            classes: dict[tuple, int] = {}
            for b in blocks:
                classes[_assign_value(outcome, b, assignment)] = (
                    classes.get(_assign_value(outcome, b, assignment), 0) + b.size
                )
            x = x0 + classes.pop((None, 1), 0)
            y = y0 + classes.pop((None, -1), 0)
            bar_factors += [sp(x), so_even(y, klass if y0 else "split")]
            odd_factors += [so_odd(x), so_even(y, klass if y0 else "split")]
            for (_, _), size in sorted(classes.items()):
                bar_factors.append(gl(size, 1))
                odd_factors.append(gl(size, 1))
        elif home[0] == "u":
            slot = amb.slots[home[1]]
            classes = {}
            for b in blocks:
                classes[_assign_value(outcome, b, assignment)] = (
                    classes.get(_assign_value(outcome, b, assignment), 0) + b.size
                )
            cp = slot.k_prime + 2 * classes.pop((None, 1), 0)
            cd = slot.k_dbl + 2 * classes.pop((None, -1), 0)
            for rank in (cp, cd):
                if rank:
                    bar_factors.append(u(rank, slot.d))
                    odd_factors.append(u(rank, slot.d))
            for (_, _), size in sorted(classes.items()):
                bar_factors.append(gl(size, 2 * slot.d))
                odd_factors.append(gl(size, 2 * slot.d))
        else:  # gl home: orientation matters for labeled values
            classes = {}
            ext = blocks[0].ext
            for b in blocks:
                lab, sgn = _assign_value(outcome, b, assignment)
                orient = _eta_orientation(outcome, b)
                key = (lab, sgn) if lab is None else (lab, sgn, orient)
                classes[key] = classes.get(key, 0) + b.size
            for key in sorted(classes, key=str):
                bar_factors.append(gl(classes[key], ext))
                odd_factors.append(gl(classes[key], ext))
    return GroupType(tuple(bar_factors)), GroupType(tuple(odd_factors))


def general_twist_check(outcome: DescentOutcome, amb: Ambient, assignment: Assignment) -> bool:
    """Pushed-group identity for a general twist: the symbolic centralizer
    of the twist equals the descended centralizer of the twisted element."""
    if not separation_check(outcome, assignment):
        return False
    a_bar, a_odd = arthur_general_types(outcome, amb, assignment)
    full, full_bar = gs_descended_types(outcome, assignment)
    return a_bar == full_bar and a_odd == full


def general_assignments(i_count: int, max_labels: int = 2) -> Iterator[Assignment]:
    """Deterministic sweep of twist assignments: signs plus label patterns."""
    values: list = [1, -1] + [("label", k) for k in range(max_labels)]
    for combo in itertools.product(values, repeat=i_count):
        labels = [v[1] for v in combo if isinstance(v, tuple)]
        # labels must be used in increasing order to avoid relabeled duplicates
        seen: list[int] = []
        ok = True
        for k in labels:
            if k not in seen:
                if k != len(seen):
                    ok = False
                    break
                seen.append(k)
        if ok:
            yield combo


# ---------------------------------------------------------------------------
# the twist homomorphism made explicit


def tau_map(outcome: DescentOutcome, t: Sequence[int]) -> dict[int, int]:
    """Image of a twist on the matched Levi's blocks: each Levi-block sign
    spreads diagonally over all blocks carved from that factor."""
    if len(t) != outcome.i_count:
        raise InvariantViolation("one sign per Levi block is required")
    return {
        b.bid: (t[b.owner] if b.origin == "levi" else 1) for b in outcome.blocks
    }


def sbar_of_t(outcome: DescentOutcome, t: Sequence[int]) -> dict[int, int]:
    """Block components of the twisted base point: base sign times twist."""
    return {b.bid: sigma(outcome, b, t) for b in outcome.blocks}


def tau_L_kernel(outcome: DescentOutcome, amb: Ambient, levi: GEtaLevi) -> DiagSubgroup:
    """Kernel of the twist homomorphism followed by restriction to a Levi.

    Computed as the intersection of the Levi's fixed dual center with the
    designated center of the metaplectic-type side; finite exactly when the
    transversality condition holds.
    """
    return diag_intersect(amb.z_l(levi), amb.z_meta_m())
