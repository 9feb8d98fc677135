"""The canonical shape key of a descent outcome, and the cache of verdict
tuples by that key.

Outcomes of equal shape get identical check results, so a campaign checks
one outcome per shape; see ``outcome_shape`` for what the key holds and why.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import cache

from .descent import Block, DescentOutcome, placement, placement_independent
from .report import Verdict


class _Hole:
    """Prints as an empty ``str.format`` field: a place left open in the
    ``repr`` of a shape part."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "{}"


_HOLE = _Hole()
# The ``repr`` of a shape part with holes, by the part: a campaign meets
# only a few hundred distinct parts.  Equal parts print alike, as each
# member of a part has one type (a flag is always a bool).
_text = cache(repr)


def _block_part(outcome: DescentOutcome, b: Block) -> tuple[str, tuple[int, ...]]:
    """One block's part of the shape key, with its owner and exponents left
    open: a format string whose fields take the owner (a Levi block's only)
    and then the class of each exponent of the tuple, in that order.  The
    exponents are the second member of a ``u`` or ``gl`` home and the third
    member of a placement; exponents are ints too, so no type test could
    tell them apart, and their positions fix them."""
    exps: list[int] = []

    def hole(exp: int) -> _Hole:
        exps.append(exp)
        return _HOLE

    twists = [(s,) * outcome.i_count for s in (1, -1)]
    home = (b.home[0], hole(b.home[1])) if b.home[0] in ("u", "gl") else b.home
    open_sigma = tuple(
        p if len(p) == 2 else (p[0], p[1], hole(p[2])) for p in (placement(outcome, b, t) for t in twists)
    )
    open_indep = tuple(
        p if len(p) == 2 else (p[0], p[1], hole(p[2])) for p in (placement_independent(outcome, b, t) for t in twists)
    )
    owner = None if b.owner is None else _HOLE
    part = (b.size, b.ext, b.origin, owner, b.tag, home, open_sigma, open_indep)
    return _text(part), tuple(exps)


def _owner_orders(sizes: tuple[int, ...], invariant) -> Iterator[tuple[int, ...]]:
    """The candidate orders of the Levi owners, each as the old owner at
    every new position: owners move only among positions of their size,
    sorted there by ``invariant(owner)``, and owners of equal invariant take
    those positions in every order."""
    order = list(range(len(sizes)))
    runs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for size in sorted(set(sizes)):
        positions = [i for i, s in enumerate(sizes) if s == size]
        if len(positions) < 2:
            continue
        ranks = {i: invariant(i) for i in positions}
        ranked = sorted(positions, key=ranks.__getitem__)
        for _, run in itertools.groupby(zip(positions, ranked), key=lambda pair: ranks[pair[1]]):
            at, owners = zip(*run)
            for position, owner in zip(at, owners):
                order[position] = owner
            if len(at) > 1:
                runs.append((at, owners))
    for choice in itertools.product(*(itertools.permutations(owners) for _, owners in runs)):
        for (at, _), owners in zip(runs, choice):
            for position, owner in zip(at, owners):
                order[position] = owner
        yield tuple(order)


def outcome_shape(outcome: DescentOutcome) -> str:
    """Canonical combinatorial shape of an outcome, as one string.

    Two outcomes of equal shape differ only by which exact roots of unity
    realize the same orbit pattern, by the order of equal-size Levi blocks,
    which the Weyl group of the Levi permutes, and by the orientations of GL
    blocks.  Every identity check consumes only the data below (block
    structure, placements, slot incidences) and the orientations.
    Relabeling the owners of equal-size blocks renames the twist
    coordinates, and flipping orientations is a torus automorphism (see
    below), so equal shapes give identical check results up to the
    positions that witnesses name.

    The key leaves out each GL block's orientations: whether its exponent
    lies in its home key's orbit or in the inverse one, as such and under
    each twist (``ambient.eta_orientation``, ``indexsets.eps_orientation``).
    The checks read an orientation only as the sign of a block inside a
    pair-factor Levi group.  Flipping one block's orientation amounts to
    inverting that block's atoms, an automorphism of the ambient torus, and
    every center, intersection and index respects it; so outcomes that
    differ only there get identical verdicts.  The key leaves out a block's
    base-point sign ``sbar0`` too: its placements under the two constant
    twists carry it.  The key is a function of the outcome that the checks
    get, faulted or not.  It must not quotient by the sign changes of the
    Levi's relative Weyl group, which also invert GL blocks: a fault acts
    on the descended outcome, so such a class can hold passing and failing
    scenarios.

    A rendering of the outcome is the ``repr`` of a nested tuple whose atoms
    are ``int``, ``str``, ``bool`` and ``None``: its blocks in owner order
    (pulled blocks last), its slots, side ranks and classes, the owner count
    and the Levi sizes; exponents are numbered by first appearance, so a
    rendering is exact and injective.  The key is the least rendering over
    the orders of the Levi owners that keep every size in place.  Each
    block's part is built once with its owner and exponents open; owners
    are ranked by an invariant that names neither owners nor exponents (the
    parts of their blocks, with exponents numbered within the owner), and
    only owners whose invariants tie are permuted (canonical-form isomorph
    rejection, as in McKay, "Isomorph-free exhaustive generation", 1998).
    """
    sizes = outcome.scenario.sizes
    by_owner: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in sizes]
    pulled: list[tuple[str, tuple[int, ...]]] = []
    for b in outcome.blocks:
        (pulled if b.owner is None else by_owner[b.owner]).append(_block_part(outcome, b))
    frame = _text((
        (_HOLE,) * len(outcome.blocks),
        tuple((_HOLE, s.d, s.k_prime, s.k_dbl) for s in outcome.u_slots),
        (outcome.x_prime, outcome.y_prime, outcome.x_dbl, outcome.y_dbl),
        (outcome.class_prime, outcome.class_dbl, outcome.pulled_prime, outcome.pulled_dbl),
        len(sizes),
        sizes,
    ))
    slot_exps = [s.eta_rep for s in outcome.u_slots]

    def invariant(owner: int) -> tuple:
        local: dict[int, int] = {}
        parts = by_owner[owner]
        numbers = tuple(local.setdefault(e, len(local)) for _, exps in parts for e in exps)
        return tuple(text for text, _ in parts), numbers

    def render(order: tuple[int, ...]) -> str:
        classes: dict[int, int] = {}
        texts = [
            text.format(new, *[classes.setdefault(e, len(classes)) for e in exps])
            for new, old in enumerate(order)
            for text, exps in by_owner[old]
        ]
        texts += [text.format(*[classes.setdefault(e, len(classes)) for e in exps]) for text, exps in pulled]
        return frame.format(*texts, *[classes.setdefault(e, len(classes)) for e in slot_exps])

    return min(map(render, _owner_orders(sizes, invariant)))


class ShapeCache(dict):
    """Verdict tuples by ``outcome_shape`` key, each distinct tuple held once.

    A campaign checks tens of thousands of shapes but meets only a few dozen
    distinct verdict tuples, so ``intern`` hands every equal tuple out as one
    object.  It keys them by ``repr``, which keeps apart values that compare
    equal but that the report writes differently (``True`` and ``1``,
    ``Fraction(1)`` and ``1``)."""

    def __init__(self):
        super().__init__()
        self._interned: dict[str, tuple[Verdict, ...]] = {}

    def intern(self, verdicts: tuple[Verdict, ...]) -> tuple[Verdict, ...]:
        return self._interned.setdefault(repr(verdicts), verdicts)
