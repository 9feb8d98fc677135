"""Descriptors for the classical groups in play and their dual-center pictures.

A group type is an unordered product of factor descriptors.  Each factor
owns a contiguous block of coordinates in a fixed ambient torus; the fixed
and connected-fixed centers of the dual group are cut out blockwise as
diagonal subgroups.  Every dual center in the package, here, on the
descent side (``ambient``) and in the index ratios (``endoscopy``), is
built by one function, :func:`diag_center`.  Field extensions are
abstracted to a degree plus a ramification flag, quadratic spaces to a
form-class tag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import LayoutMismatch, UnsupportedFactor
from .lattices import DiagSubgroup, IntLattice

FORM_CLASSES = ("split", "unram_nonsplit", "ramified")
_KIND_ORDER = {"gl": 0, "u": 1, "sp": 2, "so_odd": 3, "so_even": 4}


@dataclass(frozen=True)
class FactorType:
    """One classical factor: GL over an extension, unitary, Sp, or SO."""

    kind: str
    rank: int
    degree: int = 1
    ramified: bool = False
    form_class: str = "split"

    def __post_init__(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise UnsupportedFactor(f"unknown factor kind {self.kind!r}")
        if self.kind in ("gl", "u"):
            if self.rank < 1:
                raise ValueError(f"{self.kind} factor needs rank >= 1")
            if self.degree < 1:
                raise ValueError("extension degree must be >= 1")
        else:
            if self.rank < 0:
                raise ValueError("rank must be >= 0")
            if self.degree != 1 or self.ramified:
                raise ValueError("sp/so factors carry no extension data")
        if self.kind == "so_even":
            if self.form_class not in FORM_CLASSES:
                raise ValueError(f"unknown form class {self.form_class!r}")
            if self.rank == 0 and self.form_class != "split":
                object.__setattr__(self, "form_class", "split")
        elif self.form_class != "split":
            raise ValueError("form_class is reserved for even orthogonal factors")

    # -- geometry -----------------------------------------------------------

    @property
    def width(self) -> int:
        """Coordinate-block width in the ambient torus."""
        if self.kind == "gl":
            return self.degree * self.rank
        if self.kind == "u":
            return 2 * self.degree * self.rank
        return self.rank

    @property
    def is_trivial(self) -> bool:
        return self.kind in ("sp", "so_odd", "so_even") and self.rank == 0

    @property
    def center_tags(self) -> tuple[str, str]:
        """(fixed, connected-fixed) center shape on this factor's block."""
        if self.kind == "gl":
            return ("torus", "torus")
        if self.kind == "sp":
            return ("none", "none")
        if self.is_trivial or self.rank == 0:
            return ("none", "none")
        return ("mu2", "none")

    def sort_key(self) -> tuple:
        return (
            _KIND_ORDER[self.kind],
            self.degree,
            self.rank,
            self.ramified,
            FORM_CLASSES.index(self.form_class),
        )

    def display(self) -> str:
        if self.kind == "gl":
            base = f"GL({self.rank})"
        elif self.kind == "u":
            base = f"U({self.rank})"
        elif self.kind == "sp":
            return f"Sp({2 * self.rank})"
        elif self.kind == "so_odd":
            return f"SO({2 * self.rank + 1})"
        else:
            tag = {"split": "", "unram_nonsplit": ",nonsplit", "ramified": ",ram"}[self.form_class]
            return f"SO({2 * self.rank}{tag})"
        if self.degree > 1 or self.ramified:
            base = base[:-1] + f";deg{self.degree}{'r' if self.ramified else ''})"
        return base


def gl(rank: int, degree: int = 1, ramified: bool = False) -> FactorType:
    return FactorType("gl", rank, degree, ramified)


def u(rank: int, degree: int = 1, ramified: bool = False) -> FactorType:
    return FactorType("u", rank, degree, ramified)


def sp(rank: int) -> FactorType:
    """Symplectic group Sp(2*rank)."""
    return FactorType("sp", rank)


def so_odd(rank: int) -> FactorType:
    """Split odd orthogonal group SO(2*rank + 1)."""
    return FactorType("so_odd", rank)


def so_even(rank: int, form_class: str = "split") -> FactorType:
    """Even orthogonal group SO(2*rank) with a form-class tag."""
    return FactorType("so_even", rank, form_class=form_class)


@dataclass(frozen=True)
class GroupType:
    """Canonically sorted product of nontrivial factors."""

    factors: tuple[FactorType, ...] = ()

    def __post_init__(self) -> None:
        kept = tuple(sorted((f for f in self.factors if not f.is_trivial), key=FactorType.sort_key))
        object.__setattr__(self, "factors", kept)

    @staticmethod
    def of(*factors: FactorType) -> "GroupType":
        return GroupType(tuple(factors))

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @property
    def total_width(self) -> int:
        return sum(f.width for f in self.factors)

    def display(self) -> str:
        if not self.factors:
            return "1"
        return " x ".join(f.display() for f in self.factors)


@dataclass(frozen=True)
class CoordinateLayout:
    """Contiguous per-factor coordinate blocks inside a fixed ambient torus."""

    ambient_rank: int
    blocks: tuple[tuple[int, int], ...]  # (start, width) per factor

    def __post_init__(self) -> None:
        pos = 0
        for start, width in self.blocks:
            if start < pos or width < 0:
                raise LayoutMismatch("blocks must be disjoint and in order")
            pos = start + width
        if pos > self.ambient_rank:
            raise LayoutMismatch("blocks exceed the ambient rank")

    def coords(self, idx: int) -> tuple[int, ...]:
        start, width = self.blocks[idx]
        return tuple(range(start, start + width))


def layout_for(g: GroupType) -> CoordinateLayout:
    """Canonical layout: factor blocks in canonical order, tight ambient."""
    blocks = []
    pos = 0
    for f in g.factors:
        blocks.append((pos, f.width))
        pos += f.width
    return CoordinateLayout(pos, tuple(blocks))


# ---------------------------------------------------------------------------
# blockwise center construction


def center_rows(tag: str, coords: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Vanishing-character rows for one diagonal piece supported on ``coords``.

    ``tag``: "torus" = diagonal C^*, "mu2" = diagonal mu_2, "none" = trivial
    subgroup (all characters vanish).  Rows are sparse (coord, value) pairs.
    """
    if tag == "none":
        return [[(c, 1)] for c in coords]
    if tag not in ("torus", "mu2"):
        raise ValueError(f"unknown center tag {tag!r}")
    rows = [[(a, 1), (b, -1)] for a, b in zip(coords, coords[1:])]
    if tag == "mu2" and coords:
        rows.append([(coords[-1], 2)])
    return rows


def signed_torus_rows(blocks: Sequence[tuple[Sequence[int], int]]) -> list[list[tuple[int, int]]]:
    """Vanishing rows of the subgroup {t acting as t^{e_b} on block b}.

    ``blocks`` is a sequence of (coords, exponent) with exponent +-1.
    """
    blocks = [(coords, e) for coords, e in blocks if coords]
    rows = [[(a, 1), (b, -1)] for coords, _ in blocks for a, b in zip(coords, coords[1:])]
    return rows + [[(c1[0], 1), (c2[0], -e1 * e2)] for (c1, e1), (c2, e2) in zip(blocks, blocks[1:])]


def diag_center(
    ambient: int,
    parts: Iterable[tuple[str, Sequence[int]]],
    groups: Iterable[Sequence[tuple[Sequence[int], int]]] = (),
) -> DiagSubgroup:
    """The diagonal subgroup of the rank-``ambient`` torus with one signed
    torus per group (:func:`signed_torus_rows`) and one diagonal piece per
    ``(tag, coords)`` part (:func:`center_rows`).  Coordinates outside every
    group and part carry no condition."""
    sparse = [row for grp in groups for row in signed_torus_rows(grp)]
    for tag, coords in parts:
        sparse += center_rows(tag, coords)
    dense = []
    for row in sparse:
        v = [0] * ambient
        for c, val in row:
            v[c] += val
        dense.append(tuple(v))
    return DiagSubgroup(ambient, IntLattice(ambient, tuple(dense)))


def _dual_centers(
    ambient: int, parts: Sequence[tuple[FactorType, Sequence[int]]]
) -> tuple[DiagSubgroup, DiagSubgroup]:
    """Fixed and connected-fixed center of the dual group of factors placed
    on coordinate parts, each by its ``center_tags``.  A part may be
    scattered (a parent factor spanning several sub-blocks); coordinates
    outside every part carry no condition for either subgroup."""
    fixed, fixed0 = ([(f.center_tags[k], coords) for f, coords in parts] for k in (0, 1))
    return diag_center(ambient, fixed), diag_center(ambient, fixed0)


def dual_center(g: GroupType, layout: CoordinateLayout) -> tuple[DiagSubgroup, DiagSubgroup]:
    """Fixed and connected-fixed center of the dual group, blockwise.

    Coordinates outside the group's blocks (if the ambient is larger) carry
    no condition for either subgroup.
    """
    if len(layout.blocks) != len(g.factors):
        raise LayoutMismatch("layout must have one block per factor")
    parts = [(f, layout.coords(idx)) for idx, f in enumerate(g.factors)]
    for idx, (f, coords) in enumerate(parts):
        if len(coords) != f.width:
            raise LayoutMismatch(f"block {idx} has width {len(coords)}, factor needs {f.width}")
    return _dual_centers(layout.ambient_rank, parts)


def bar(g: GroupType) -> GroupType:
    """Swap every split odd orthogonal factor for its symplectic partner."""
    return GroupType(tuple(sp(f.rank) if f.kind == "so_odd" else f for f in g.factors))


# ---------------------------------------------------------------------------
# Levi combinatorics


@dataclass(frozen=True)
class LeviDatum:
    """A Levi class of a rank-n classical group: block sizes plus remainder."""

    sizes: tuple[int, ...]
    remainder: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(sorted(self.sizes, reverse=True)))
        if any(s < 1 for s in self.sizes):
            raise ValueError("block sizes must be >= 1")
        if self.remainder < 0:
            raise ValueError("remainder must be >= 0")

    @property
    def rank(self) -> int:
        return sum(self.sizes) + self.remainder

    @property
    def block_count(self) -> int:
        return len(self.sizes)


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into positive parts, decreasing, lexicographic."""
    if n == 0:
        yield ()
        return

    def rec(rest: int, maxpart: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield acc
            return
        for p in range(min(rest, maxpart), 0, -1):
            yield from rec(rest - p, p, acc + (p,))

    yield from rec(n, n, ())


def levi_data(n: int) -> tuple[LeviDatum, ...]:
    """All Levi classes of a rank-n group: multisets of sizes with sum <= n."""
    if n < 0:
        raise ValueError("rank must be >= 0")
    out = []
    for total in range(0, n + 1):
        for part in _partitions(total):
            out.append(LeviDatum(part, n - total))
    return tuple(out)


@dataclass(frozen=True)
class EmbeddedLevi:
    """A Levi class of a group together with explicit coordinates per piece."""

    parent: GroupType
    levi: GroupType
    parts: tuple[tuple[FactorType, tuple[int, ...]], ...]

    def center(self, ambient: int) -> tuple[DiagSubgroup, DiagSubgroup]:
        return _dual_centers(ambient, self.parts)


def _factor_levis(f: FactorType, coords: tuple[int, ...]) -> list[list[tuple[FactorType, tuple[int, ...]]]]:
    """Levi decompositions of a single factor, with coordinate assignment."""
    out: list[list[tuple[FactorType, tuple[int, ...]]]] = []
    if f.kind == "gl":
        for part in _partitions(f.rank):
            pieces = []
            pos = 0
            for s in part:
                w = f.degree * s
                pieces.append((gl(s, f.degree, f.ramified), coords[pos : pos + w]))
                pos += w
            out.append(pieces)
        return out
    if f.kind == "u":
        # a GL piece of rank s uses 2s of the unitary rank
        for total in range(0, f.rank // 2 + 1):
            for part in _partitions(total):
                core_rank = f.rank - 2 * total
                pieces = []
                pos = 0
                for s in part:
                    w = 4 * f.degree * s  # piece plus its paired shadow
                    pieces.append((gl(s, 2 * f.degree, f.ramified), coords[pos : pos + w]))
                    pos += w
                if core_rank:
                    pieces.append((u(core_rank, f.degree, f.ramified), coords[pos:]))
                out.append(pieces)
        return out
    # sp / so_odd / so_even
    for datum in levi_data(f.rank):
        m = datum.remainder
        if f.kind == "so_even":
            if f.form_class != "split" and m < 1:
                continue
            if f.form_class == "split" and m == 1:
                continue
        pieces = []
        pos = 0
        for s in datum.sizes:
            pieces.append((gl(s), coords[pos : pos + s]))
            pos += s
        if m:
            if f.kind == "sp":
                core: FactorType = sp(m)
            elif f.kind == "so_odd":
                core = so_odd(m)
            else:
                core = so_even(m, f.form_class)
            pieces.append((core, coords[pos:]))
        out.append(pieces)
    return out


def levi_enumerate(g: GroupType, layout: CoordinateLayout | None = None) -> tuple[EmbeddedLevi, ...]:
    """All Levi classes of a product group, one embedded representative each."""
    if layout is None:
        layout = layout_for(g)
    per_factor = [
        _factor_levis(f, layout.coords(i)) for i, f in enumerate(g.factors)
    ]
    out = []
    for combo in itertools.product(*per_factor) if per_factor else [()]:
        parts: list[tuple[FactorType, tuple[int, ...]]] = []
        for pieces in combo:
            parts.extend(pieces)
        levi = GroupType(tuple(f for f, _ in parts))
        out.append(EmbeddedLevi(g, levi, tuple(parts)))
    return tuple(out)


# ---------------------------------------------------------------------------
# signed grouping engine (shared with the descent layer)


@lru_cache(maxsize=64)
def grouping_patterns(
    n_blocks: int, *, signed: bool, with_core: bool
) -> tuple[tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[int, ...]], ...]:
    """All Levi-style groupings of ``n_blocks`` labeled blocks.

    Returns (groups, absorbed) pairs: each group is a tuple of (block index,
    sign) with the first sign normalized to +1; ``absorbed`` lists blocks
    folded into the core.  Without a core every block must be grouped;
    without signs every sign is +1.  Deterministic order.  The result is a
    memoized tuple, since the descent checks ask for the same few sizes
    over and over.
    """
    out = []
    indices = list(range(n_blocks))

    def partitions_of(elts: list[int]) -> Iterator[list[list[int]]]:
        if not elts:
            yield []
            return
        first, rest = elts[0], elts[1:]
        for part in partitions_of(rest):
            # first joins an existing class or starts its own
            for k in range(len(part)):
                yield part[:k] + [[first] + part[k]] + part[k + 1 :]
            yield [[first]] + part

    subsets = [()]
    if with_core:
        subsets = []
        for r in range(n_blocks + 1):
            subsets.extend(itertools.combinations(indices, r))
    for absorbed in subsets:
        grouped = [i for i in indices if i not in absorbed]
        for part in partitions_of(grouped):
            part_sorted = tuple(sorted(tuple(sorted(p)) for p in part))
            sign_choices = []
            for p in part_sorted:
                if signed and len(p) > 1:
                    sign_choices.append(list(itertools.product((1, -1), repeat=len(p) - 1)))
                else:
                    sign_choices.append([(1,) * (len(p) - 1)])
            for signs in itertools.product(*sign_choices):
                groups = []
                for p, tail in zip(part_sorted, signs):
                    groups.append(tuple(zip(p, (1,) + tuple(tail))))
                out.append((tuple(groups), tuple(absorbed)))
    return tuple(out)
