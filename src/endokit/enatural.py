"""Index entries and coefficient identities over a descent outcome.

An entry is a (twist, Levi) pair surviving the four defining conditions,
with the exact coefficients and volume ratios attached to it.  The check
families verify every coefficient identity at each entry, the comparison
maps against the independently materialized index sets of
``endokit.indexsets``, and the pushed-group identity at the top Levi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .ambient import Ambient, GEtaLevi
from .catalog import GroupType
from .descent import gs_descended_types, sigma
from .errors import MatchingFailure
from .indexsets import (
    EStElement,
    build_E_inst,
    build_E_st,
    d_gs_side,
    einst_canon,
    is_elliptic,
    pushforward_levi,
    section_levi,
)
from .lattices import DiagSubgroup, arthur_product_check, diag_index, diag_intersect
from .nonstandard import c_nonstandard_quotient
from .qspaces import DSquared


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


def tau_L_kernel(amb: Ambient, levi: GEtaLevi) -> DiagSubgroup:
    """Kernel of the twist homomorphism followed by restriction to a Levi.

    Computed as the intersection of the Levi's fixed dual center with the
    designated center of the metaplectic-type side; finite exactly when the
    transversality condition holds.
    """
    return diag_intersect(amb.z_l(levi), amb.z_meta_m())


def _ns_pairs(amb: Ambient, levi: GEtaLevi, t: Sequence[int]):
    pairs = []
    for home in (("sp", 1), ("sp", -1)):
        if home not in amb.outcome.homes:
            continue
        _, _, x0, _, _ = amb.home_core_parts(home)
        sizes = tuple(
            sorted(
                (b.size for b in amb.absorbed(levi, home) if sigma(b, t) == 1),
                reverse=True,
            )
        )
        rank = x0 + sum(sizes)
        if rank:
            pairs.append((rank, sizes, x0))
    return tuple(pairs)


def make_entry(amb: Ambient, t: tuple[int, ...], levi: GEtaLevi) -> ENaturalEntry:
    image = pushforward_levi(amb, t, levi)
    dsq = amb.d_g(levi)
    dsq_st = d_gs_side(amb, image)
    lsbar_type, leps_type = amb.pushed_types(levi, t)

    z_l = amb.z_l(levi)
    z_lsbar = amb.z_pushed(levi, t, odd_side=False)
    i_std_num = diag_index(amb.z_mexcbar(), amb.z_r())
    i_std_den = diag_index(z_lsbar, z_l)
    kern = _finite_order(tau_L_kernel(amb, levi))
    c_inst_rat = (i_std_num / i_std_den) / kern

    z_leps = amb.z_pushed(levi, t, odd_side=True)
    z_gs = amb.z_gs(t)
    i_meta_num = diag_index(amb.z_mexc(), amb.z_meta_m())
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
        ns_pairs=_ns_pairs(amb, levi, t),
    )


def enumerate_E_natural(amb: Ambient) -> tuple[ENaturalEntry, ...]:
    """All (twist, Levi) pairs surviving the four defining conditions."""
    out = []
    for t in amb.outcome.twists:
        for levi in amb.transverse_levis:  # transversality on the big side holds
            if not is_elliptic(amb, levi, t):  # twisted datum elliptic
                continue
            entry = make_entry(amb, t, levi)
            if entry.dsq_st.is_zero:  # transversality on the endoscopic side
                continue
            out.append(entry)
    return tuple(out)


# ---------------------------------------------------------------------------
# identity verification


def verify_identities(amb: Ambient, entry: ENaturalEntry) -> dict[str, bool]:
    """Exact checks of every coefficient identity at one index entry."""
    t, levi = entry.t, entry.levi
    z_l = amb.z_l(levi)
    z_lsbar = amb.z_pushed(levi, t, odd_side=False)
    z_leps = amb.z_pushed(levi, t, odd_side=True)
    z_meta_m = amb.z_meta_m()

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
            arthur_product_check(z_l, amb.z_r(), amb.z_r0()),
            arthur_product_check(z_lsbar, amb.z_mexcbar(), amb.z_r0()),
            arthur_product_check(z_leps, amb.z_mexceps(), amb.z_r0()),
            arthur_product_check(amb.z_gs(t), amb.z_mexc(), z_meta_m),
        )
    )
    return checks


def verify_index_sets(amb: Ambient, entries: tuple[ENaturalEntry, ...]) -> dict[str, bool]:
    """Bijectivity of the stable comparison map and the fiber law of the
    instable one, both against independently materialized index sets."""
    checks: dict[str, bool] = {}

    est = build_E_st(amb)
    images = [entry.image for entry in entries]
    checks["stable-map-injective"] = len(set(images)) == len(images)
    checks["stable-map-bijective"] = set(images) == est and checks["stable-map-injective"]

    einst = build_E_inst(amb)
    fibers: dict[tuple, int] = {}
    for entry in entries:
        key = (entry.levi, einst_canon(amb, entry.levi, entry.t))
        fibers[key] = fibers.get(key, 0) + 1
    checks["instable-map-surjective"] = set(fibers) == einst
    checks["instable-fiber-law"] = all(
        (kern := tau_L_kernel(amb, levi)).is_finite and kern.order() == count
        for (levi, _), count in fibers.items()
    )
    checks["section-inverts-pushforward"] = all(
        section_levi(amb, entry.image) == entry.levi for entry in entries
    )
    return checks


# ---------------------------------------------------------------------------
# pushed-group identities


def pushed_group_check(amb: Ambient, t: Sequence[int]) -> bool:
    """The Levi-ascent construction at the top Levi and the raw descent of
    the twisted element give the same group, with and without the bar swap."""
    arthur_bar, arthur_odd = amb.pushed_types(amb.top_levi, t)
    descended, descended_bar = gs_descended_types(amb.outcome, tuple(t))
    return arthur_bar == descended_bar and arthur_odd == descended
