"""The two index sets of the coefficient comparison over a descent outcome.

The instable side indexes (Levi, datum class) pairs of the big centralizer,
the stable side (twist, Levi) pairs of the descended endoscopic group.  Each
is materialized from scratch, so the comparison maps between them, the
pushforward of Levis and its section, can be checked against both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .ambient import Ambient, GEtaLevi, Group, _d_squared, _normalize_group
from .catalog import grouping_patterns
from .descent import Block, DescentOutcome, _neg_rep_exp, orbit_of, placement, placement_independent, sigma
from .errors import InvariantViolation
from .qspaces import DSquared

HomeKey = tuple


def _eta_orientation(outcome: DescentOutcome, b: Block) -> int:
    """Orientation of a block inside its inverse-pair ambient factor: +1 when
    its exponent lies in the orbit of the home's key."""
    sc = outcome.scenario
    return 1 if b.eta_exp in orbit_of(b.home[1], sc.modulus, sc.q) else -1


def _eps_orientation(outcome: DescentOutcome, b: Block, t: Sequence[int], home_key: int) -> int:
    sc = outcome.scenario
    L = sc.modulus
    exp = (b.eps_exp + L // 2) % L if b.origin == "levi" and t[b.owner] == -1 else b.eps_exp
    return 1 if exp in orbit_of(home_key, L, sc.q) else -1


def _gl_home_pattern(outcome: DescentOutcome, blocks: Sequence[Block]) -> Group:
    return _normalize_group((b.bid, _eta_orientation(outcome, b)) for b in blocks)


def _home_groupings(
    blocks: Sequence[Block], orient: Callable[[Block], int] | None
) -> list[tuple[tuple[Group, ...], tuple[Block, ...]]]:
    """Every grouping of one home's blocks into Levi groups, with the blocks
    it absorbs.  A pair factor (``orient`` given) groups every block, each
    with its orientation; a core factor (``orient`` None) groups with signs
    and absorbs the rest into its core."""
    if orient is None:
        return [
            (
                tuple([_normalize_group([(blocks[i].bid, e) for i, e in grp]) for grp in groups]),
                tuple([blocks[i] for i in absorbed]),
            )
            for groups, absorbed in grouping_patterns(len(blocks), signed=True, with_core=True)
        ]
    return [
        (tuple([_normalize_group([(blocks[i].bid, orient(blocks[i])) for i, _ in grp]) for grp in groups]), ())
        for groups, _ in grouping_patterns(len(blocks), signed=False, with_core=False)
    ]


def _degenerate(home: tuple, y: int, klass: str) -> bool:
    """Whether a core datum degenerates: a symplectic core whose even part
    is split of rank one, a torus rather than an elliptic factor."""
    return home[0] == "sp" and y == 1 and klass == "split"


# ---------------------------------------------------------------------------
# Levis of the big centralizer


def enumerate_levis(outcome: DescentOutcome) -> tuple[GEtaLevi, ...]:
    """All Levis of the big centralizer containing the matched Levi."""
    per_home = []
    for home in outcome.homes:
        orient = (lambda b: _eta_orientation(outcome, b)) if home[0] == "gl" else None
        per_home.append([groups for groups, _ in _home_groupings(outcome.home_blocks(home), orient)])
    return tuple(GEtaLevi(tuple(itertools.chain(*combo))) for combo in itertools.product(*per_home))


def top_levi(outcome: DescentOutcome) -> GEtaLevi:
    """The big centralizer itself as a Levi: pair factors fully grouped."""
    groups = []
    for home in outcome.homes:
        if home[0] != "gl":
            continue
        blocks = outcome.home_blocks(home)
        if blocks:
            groups.append(_gl_home_pattern(outcome, blocks))
    return GEtaLevi(tuple(groups))


def is_elliptic(outcome: DescentOutcome, amb: Ambient, levi: GEtaLevi, t: Sequence[int]) -> bool:
    """Condition for the twisted datum on the Levi to stay elliptic: all
    groups sign-pure, and no core datum degenerates."""
    for grp in levi.groups:
        signs = {sigma(outcome, amb.block[bid], t) for bid, _ in grp}
        if len(signs) != 1:
            return False
    return not any(
        _degenerate(home, *amb.twisted_core(levi, home, t)[3:]) for home in outcome.homes if home[0] == "sp"
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
            neg = _neg_rep_exp(slot.eta_rep, outcome.scenario.modulus, outcome.scenario.q)
            homes.setdefault(("d", "u", neg), [])
    return {k: tuple(v) for k, v in homes.items()}


@dataclass(frozen=True)
class EStElement:
    """One stable-side index: a twist plus a Levi of the descended group."""

    t: tuple[int, ...]
    groups: tuple[tuple[HomeKey, Group], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(sorted(self.groups)))

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


def enumerate_e_st(outcome: DescentOutcome, amb: Ambient, t: Sequence[int]) -> Iterator[EStElement]:
    """Levis of the descended endoscopic group containing the matched one.

    A degenerate even part is the same subgroup as a GL(1) block, so only
    the block form of that class is kept."""
    homes = gs_homes(outcome, t)
    per_home = []
    for key in sorted(homes):
        orient = (lambda b: _eps_orientation(outcome, b, t, key[2])) if key[1] == "gl" else None
        per_home.append(
            [
                tuple([(key, g) for g in groups])
                for groups, absorbed in _home_groupings(homes[key], orient)
                if not _degenerate_even(outcome, key, absorbed)
            ]
        )
    for combo in itertools.product(*per_home):
        yield EStElement(tuple(t), tuple(itertools.chain(*combo)))


def _leps_rows_block(outcome: DescentOutcome, amb: Ambient, elem: EStElement) -> list[tuple[int, ...]]:
    """Block-coordinate basis of the split-center space of a stable-side
    Levi, split tori of degenerate even parts included.

    A degenerate even part can only arise over an empty core slot, so its
    torus line is spanned by its absorbed blocks.
    """
    rows = [amb._block_group_row(g) for _, g in elem.groups]
    grouped = elem.grouped_bids()
    for key, blocks in gs_homes(outcome, tuple(elem.t)).items():
        absorbed = [b for b in blocks if b.bid not in grouped]
        if _degenerate_even(outcome, key, absorbed):
            if _even_core(outcome, key)[0]:
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


def einst_canon(outcome: DescentOutcome, amb: Ambient, levi: GEtaLevi, t: Sequence[int]) -> tuple:
    """Canonical form of the twisted datum class on a Levi."""
    parts = []
    for home in outcome.homes:
        if home[0] != "gl":
            absorbed = amb.absorbed(levi, home)
            parts.append(_datum_class(amb, home, absorbed, [sigma(outcome, b, t) for b in absorbed]))
    return tuple(parts)


def enumerate_einst_data(outcome: DescentOutcome, amb: Ambient, levi: GEtaLevi) -> list[tuple]:
    """All elliptic datum classes on a Levi, enumerated from scratch."""
    per_home = []
    for home in outcome.homes:
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
