"""The two index sets of the coefficient comparison over a descent outcome.

The instable side indexes (Levi, datum class) pairs of the big centralizer,
the stable side (twist, Levi) pairs of the descended endoscopic group.  Each
is materialized on its own, so the comparison maps between them, the
pushforward of Levis and its section, can be checked against both.  Both
sides build their Levis from raw (block id, orientation) groups; ``GEtaLevi``
and ``EStElement`` normalize them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .ambient import Ambient, GEtaLevi, Group, d_squared, eta_orientation, home_groupings, normalize_group
from .descent import Block, DescentOutcome, neg_rep_exp, orbit_of, placement, placement_independent, sigma
from .errors import InvariantViolation
from .qspaces import DSquared

HomeKey = tuple


def eps_orientation(outcome: DescentOutcome, b: Block, t: Sequence[int], home_key: int) -> int:
    sc = outcome.scenario
    L = sc.modulus
    exp = (b.eps_exp + L // 2) % L if b.origin == "levi" and t[b.owner] == -1 else b.eps_exp
    return 1 if exp in orbit_of(home_key, L, sc.q) else -1


def _degenerate(home: tuple, y: int, klass: str) -> bool:
    """Whether a core datum degenerates: a symplectic core whose even part
    is split of rank one, a torus rather than an elliptic factor."""
    return home[0] == "sp" and y == 1 and klass == "split"


def is_elliptic(amb: Ambient, levi: GEtaLevi, t: Sequence[int]) -> bool:
    """Condition for the twisted datum on the Levi to stay elliptic: all
    groups sign-pure, and no core datum degenerates."""
    for grp in levi.groups:
        signs = {sigma(amb.block[bid], t) for bid, _ in grp}
        if len(signs) != 1:
            return False
    return not any(
        _degenerate(home, *amb.twisted_core(levi, home, t)[3:]) for home in amb.outcome.homes if home[0] == "sp"
    )


# ---------------------------------------------------------------------------
# the stable side


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
            neg = neg_rep_exp(slot.eta_rep, outcome.scenario.modulus, outcome.scenario.q)
            homes.setdefault(("d", "u", neg), [])
    return {k: tuple(v) for k, v in homes.items()}


@dataclass(frozen=True)
class EStElement:
    """One stable-side index: a twist plus a Levi of the descended group.

    Each group sits at its factor home; the constructor normalizes the
    groups as ``GEtaLevi`` does, and sorts them by home.
    """

    t: tuple[int, ...]
    groups: tuple[tuple[HomeKey, Group], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", tuple(sorted((key, normalize_group(g)) for key, g in self.groups))
        )

    def grouped_bids(self) -> frozenset[int]:
        return frozenset(b for _, g in self.groups for b, _ in g)


def _even_core(outcome: DescentOutcome, key: HomeKey) -> tuple[int, str]:
    """(core rank, form class) of the even part at a descended-side home."""
    return (outcome.y_prime, outcome.class_prime) if key[0] == "p" else (outcome.y_dbl, outcome.class_dbl)


def _degenerate_even(outcome: DescentOutcome, key: HomeKey, absorbed: Sequence[Block]) -> bool:
    """Whether the even part at ``key``, with ``absorbed`` blocks, is split
    of rank one: the same subgroup as a GL(1) block."""
    if key[1] != "even":
        return False
    core_rank, klass = _even_core(outcome, key)
    return klass == "split" and core_rank + sum(b.size for b in absorbed) == 1


def enumerate_e_st(outcome: DescentOutcome, t: Sequence[int]) -> Iterator[EStElement]:
    """Levis of the descended endoscopic group containing the matched one.

    A degenerate even part is the same subgroup as a GL(1) block, so only
    the block form of that class is kept."""
    homes = gs_homes(outcome, t)
    per_home = []
    for key in sorted(homes):
        orient = (lambda b: eps_orientation(outcome, b, t, key[2])) if key[1] == "gl" else None
        per_home.append(
            [
                tuple([(key, g) for g in groups])
                for groups, absorbed in home_groupings(homes[key], orient)
                if not _degenerate_even(outcome, key, absorbed)
            ]
        )
    for combo in itertools.product(*per_home):
        yield EStElement(tuple(t), tuple(itertools.chain(*combo)))


def _leps_rows_block(amb: Ambient, elem: EStElement) -> list[tuple[int, ...]]:
    """Block-coordinate basis of the split-center space of a stable-side
    Levi, split tori of degenerate even parts included.

    A degenerate even part can only arise over an empty core slot, so its
    torus line is spanned by its absorbed blocks.
    """
    outcome = amb.outcome
    rows = [amb.block_group_row(g) for _, g in elem.groups]
    grouped = elem.grouped_bids()
    for key, blocks in gs_homes(outcome, tuple(elem.t)).items():
        absorbed = [b for b in blocks if b.bid not in grouped]
        if _degenerate_even(outcome, key, absorbed):
            if _even_core(outcome, key)[0]:
                raise InvariantViolation("a degenerate split even part needs an empty core slot")
            rows.append(amb.block_group_row(tuple((b.bid, 1) for b in absorbed)))
    return rows


def d_gs_side(amb: Ambient, elem: EStElement) -> DSquared:
    return d_squared(amb.weights, amb.m_rows_block(), tuple(_leps_rows_block(amb, elem)))


def pushforward_levi(amb: Ambient, t: Sequence[int], levi: GEtaLevi) -> EStElement:
    """Image of an instable-side Levi on the stable side: same groups, each
    placed in the factor its sign sends it to."""
    groups: list[tuple[HomeKey, Group]] = []
    for grp in levi.groups:
        b0 = amb.block[grp[0][0]]
        sgn = {sigma(amb.block[bid], t) for bid, _ in grp}
        if len(sgn) != 1:
            raise InvariantViolation("pushforward needs sign-pure groups")
        key = placement(amb.outcome, b0, t)
        if key[1] == "gl":
            grp = tuple((bid, eps_orientation(amb.outcome, amb.block[bid], t, key[2])) for bid, _ in grp)
        groups.append((key, grp))
    return EStElement(tuple(t), tuple(groups))


def section_levi(amb: Ambient, elem: EStElement) -> GEtaLevi:
    """Canonical section of the pushforward: regroup the same blocks in the
    big centralizer."""
    groups: list[Group] = []
    for _, grp in elem.groups:
        if amb.block[grp[0][0]].home[0] == "gl":
            grp = tuple((bid, eta_orientation(amb.outcome, amb.block[bid])) for bid, _ in grp)
        groups.append(grp)
    return GEtaLevi(tuple(groups))


# ---------------------------------------------------------------------------
# the instable side


def _datum_class(amb: Ambient, home: tuple, absorbed: Sequence[Block], signs: Sequence[int]) -> tuple:
    """Class of the datum with ``signs`` on the blocks a core absorbs.

    A symplectic core records the signs as they are; a unitary core only
    remembers the partition of its blocks and slots into its two parts (the
    whole-core flip is central in the Levi's dual)."""
    if home[0] == "sp":
        return home, tuple(sorted((b.bid, s) for b, s in zip(absorbed, signs)))
    slot = amb.slots[home[1]]
    plus: list = [b.bid for b, s in zip(absorbed, signs) if s == 1]
    minus: list = [b.bid for b, s in zip(absorbed, signs) if s == -1]
    if slot.k_prime:
        plus.append("P")
    if slot.k_dbl:
        minus.append("D")
    return home, frozenset(frozenset(cell) for cell in (plus, minus) if cell)


def einst_canon(amb: Ambient, levi: GEtaLevi, t: Sequence[int]) -> tuple:
    """Canonical form of the twisted datum class on a Levi."""
    parts = []
    for home in amb.outcome.homes:
        if home[0] != "gl":
            absorbed = amb.absorbed(levi, home)
            parts.append(_datum_class(amb, home, absorbed, [sigma(b, t) for b in absorbed]))
    return tuple(parts)


def enumerate_einst_data(amb: Ambient, levi: GEtaLevi) -> list[tuple]:
    """All elliptic datum classes on a Levi, enumerated from scratch."""
    per_home = []
    for home in amb.outcome.homes:
        if home[0] == "gl":
            continue
        absorbed = amb.absorbed(levi, home)
        classes: dict[tuple, None] = {}
        for signs in itertools.product((1, -1), repeat=len(absorbed)):
            # only a symplectic core can degenerate
            if home[0] == "sp" and _degenerate(home, *amb.core_datum(home, absorbed, signs)[3:]):
                continue
            classes.setdefault(_datum_class(amb, home, absorbed, signs))
        per_home.append(classes)
    return list(itertools.product(*per_home))


def build_E_inst(amb: Ambient) -> set:
    """Independent instable-side index set: (Levi, datum class) pairs."""
    out = set()
    for levi in amb.transverse_levis:
        for datum in enumerate_einst_data(amb, levi):
            out.add((levi, datum))
    return out


def build_E_st(amb: Ambient) -> set:
    """Independent stable-side index set: (twist, endoscopic Levi) pairs."""
    out = set()
    for t in amb.outcome.twists:
        for elem in enumerate_e_st(amb.outcome, t):
            if amb.transverse(g for _, g in elem.groups):
                out.add(elem)
    return out
