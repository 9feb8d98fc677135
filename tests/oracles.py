"""Hand-rolled oracles for the unit tests.

Everything here recomputes results by a route independent of the library
code it checks: element enumeration for finite diagonalizable groups, coset
counting for lattice indices, Gram determinants by cofactor expansion,
rational subspaces and volume ratios by Fraction row reduction, the
torus coordinates of a descent outcome (one coordinate per eigenvalue) and
the volume ratio of each of its Levis in them, the
centralizer of a general twist (symbolic labels alongside signs) from the
sign algebra alone, and the Frobenius orbits of exponents as Fractions in
Q/Z.  The matched Levi and the test for -1 are read only by tests, and so
is the report's ``(scenario, verdicts)`` pair of a lone ``CheckRecord``.
So are three pieces of the paper's data that no suite reads: the elliptic
data of a symplectic or unitary factor, which the index-ratio sweeps run
over, and the relative Weyl order of a Levi class in Sp or odd SO.  The
sweeps and their pins are shared by the endoscopy and mutation tests.
The shape of an outcome in its own block order, and the least such shape
over every order of its equal-size Levi owners, each outcome re-rendered in
full, are the slow path of the shape cache's canonical key; rendered with
each block's base-point sign and orientations, which the key leaves out,
they are the finer reference key it is compared against.  The rank-3
corpus's post-fault outcomes, and the laws each fault fails on it, are
shared by the campaign and mutation tests.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace
from fractions import Fraction
from math import factorial

from endokit.ambient import Ambient, GEtaLevi, enumerate_levis, eta_orientation
from endokit.campaign import FAULTS, CampaignSpec
from endokit.catalog import GroupType, LeviDatum, gl, levi_data, so_even, so_odd, sp, u
from endokit.corpus import scenario_corpus
from endokit.descent import descend, gs_descended_types, placement, placement_independent
from endokit.endoscopy import ArthurConfig, SpEllipticDatum, UEllipticDatum, e_set, elliptic_data_meta, i_meta, i_standard
from endokit.errors import UnsupportedFactor
from endokit.indexsets import eps_orientation
from endokit.lattices import DiagSubgroup, IntLattice
from endokit.rootsofunity import RootOfUnity


def lattice_points_in_box(lat: IntLattice, bound: int) -> set[tuple[int, ...]]:
    """All lattice vectors with coordinates in [-bound, bound]."""
    n = lat.ambient_rank
    pts = set()
    gens = lat.generators
    if not gens:
        return {tuple([0] * n)}
    # coefficients bounded generously for the tiny cases used in tests
    coef_bound = bound * n
    for coeffs in itertools.product(range(-coef_bound, coef_bound + 1), repeat=len(gens)):
        v = [0] * n
        for c, g in zip(coeffs, gens):
            if c:
                v = [x + c * y for x, y in zip(v, g)]
        if all(abs(x) <= bound for x in v):
            pts.add(tuple(v))
    return pts


def index_by_cosets(big: IntLattice, small: IntLattice, bound: int = 6) -> int:
    """[big : small] for nested full-rank lattices by coset counting.

    Membership in the small lattice is decided by Cramer's rule over its
    basis, so the count is independent of the library's arithmetic.
    """
    n = big.ambient_rank
    basis = [list(r) for r in small.generators]
    assert len(basis) == n, "oracle needs full-rank lattices"

    def in_small(p: tuple[int, ...]) -> bool:
        # solve sum_i c_i basis[i] = p over Q and test integrality
        det = gram_free_det(basis)
        for i in range(n):
            replaced = [list(r) for r in basis]
            for j in range(n):
                replaced[i][j] = p[j]
            if Fraction(gram_free_det(replaced), det).denominator != 1:
                return False
        return True

    big_pts = lattice_points_in_box(big, bound)
    reps: list[tuple[int, ...]] = []
    for p in sorted(big_pts):
        if not any(in_small(tuple(x - y for x, y in zip(p, r))) for r in reps):
            reps.append(p)
    return len(reps)


def gram_free_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * gram_free_det(minor)
    return total


def diag_elements(d: DiagSubgroup) -> frozenset[tuple[Fraction, ...]]:
    """Elements of a finite diagonalizable group, by direct search.

    A point is an exponent vector x in (Q/Z)^n with chi . x integral for
    every vanishing character; search denominators up to the lattice's
    largest invariant factor.
    """
    n = d.ambient_rank
    rows = d.vanishing_chars.generators
    if len(rows) != n:
        raise ValueError("not finite")
    # the exponent of the group divides the product of the diagonal of any
    # triangular basis; search that denominator directly
    den = 1
    for r in rows:
        piv = next(x for x in r if x != 0)
        den *= abs(piv)
    out = set()
    for combo in itertools.product(range(den), repeat=n):
        x = tuple(Fraction(c, den) for c in combo)
        if all(sum(a * b for a, b in zip(row, x)) % 1 == 0 for row in rows):
            out.add(tuple(v % 1 for v in x))
    return frozenset(out)


def diag_product_elements(
    a: frozenset[tuple[Fraction, ...]], b: frozenset[tuple[Fraction, ...]]
) -> frozenset[tuple[Fraction, ...]]:
    return frozenset(
        tuple((x + y) % 1 for x, y in zip(p, q)) for p in a for q in b
    )


def span_solve(gens: list[tuple[int, ...]], target: tuple[int, ...]) -> list[Fraction] | None:
    """Rational coefficients with sum_i c_i gens[i] == target, by elimination."""
    if not gens:
        return [] if not any(target) else None
    n = len(target)
    aug = [[Fraction(gens[i][c]) for i in range(len(gens))] + [Fraction(target[c])] for c in range(n)]
    rows = len(aug)
    cols = len(gens) + 1
    rank = 0
    pivots = []
    for col in range(len(gens)):
        piv = next((r for r in range(rank, rows) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        lead = aug[rank][col]
        aug[rank] = [x / lead for x in aug[rank]]
        for r in range(rows):
            if r != rank and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    sol = [Fraction(0)] * len(gens)
    for r, col in enumerate(pivots):
        sol[col] = aug[r][cols - 1]
    for c in range(n):
        if sum(sol[i] * gens[i][c] for i in range(len(gens))) != target[c]:
            return None
    return sol


def generalized_lattice_index(
    gens1: list[tuple[int, ...]], gens2: list[tuple[int, ...]], bound: int = 4
) -> Fraction:
    """[L1 : L2] for commensurable lattices, by counting cosets both ways.

    Works for any rank: a point is reduced modulo the other lattice by
    testing integrality of its span coordinates.
    """

    def members(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        n = len(gens[0]) if gens else 0
        pts = set()
        for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(gens)):
            v = [0] * n
            for c, g in zip(coeffs, gens):
                if c:
                    v = [x + c * y for x, y in zip(v, g)]
            pts.add(tuple(v))
        return sorted(pts)

    def in_lattice(gens: list[tuple[int, ...]], p: tuple[int, ...]) -> bool:
        sol = span_solve(gens, p)
        return sol is not None and all(x.denominator == 1 for x in sol)

    def cosets_mod_intersection(big: list[tuple[int, ...]]) -> int:
        # representatives of big modulo (L1 cap L2); the box bound must beat
        # the largest index in play, which holds for every test case
        reps: list[tuple[int, ...]] = []
        for p in members(big):
            if not any(
                in_lattice(gens1, tuple(x - y for x, y in zip(p, r)))
                and in_lattice(gens2, tuple(x - y for x, y in zip(p, r)))
                for r in reps
            ):
                reps.append(p)
        return len(reps)

    return Fraction(cosets_mod_intersection(gens1), cosets_mod_intersection(gens2))


def gram_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by cofactor expansion (tiny matrices only)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * gram_det(minor)
    return total


# ---------------------------------------------------------------------------
# rational subspaces by Fraction row reduction, independent of the library's
# integer kernel


def rref(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Nonzero rows of the reduced row echelon form over Q."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return a[:rank]


def in_span(rows: list[list[Fraction]], v: list[Fraction], n: int) -> bool:
    return len(rref(rows + [v], n)) == len(rref(rows, n))


def relative_space(
    big: list[list[Fraction]], small: list[list[Fraction]], gram: list[list[Fraction]]
) -> list[list[Fraction]]:
    """A basis of the gram-orthogonal complement of span(small) in span(big)."""
    n = len(gram)
    big = rref(big, n)
    small = rref(small, n)
    if not small:
        return big

    def inner(v, w):
        return sum(v[i] * gram[i][j] * w[j] for i in range(n) for j in range(n))

    # c with sum_i c_i <big_i, s> = 0 for every s: the null space of this matrix
    red = rref([[inner(b, s) for b in big] for s in small], len(big))
    pivots = [next(c for c, x in enumerate(r) if x != 0) for r in red]
    out = []
    for f in (c for c in range(len(big)) if c not in pivots):
        coef = [Fraction(int(c == f)) for c in range(len(big))]
        for r, p in zip(red, pivots):
            coef[p] = -r[f]
        out.append([sum(c * b[i] for c, b in zip(coef, big)) for i in range(n)])
    return out


def d_coefficient(
    am: list[list[Fraction]], al: list[list[Fraction]], ar: list[list[Fraction]], gram: list[list[Fraction]]
) -> Fraction:
    """Squared volume ratio of the complements of span(am) and span(al) in
    span(ar), zero unless the two spans sum directly to span(ar)."""
    n = len(gram)
    dm, dl, dr = len(rref(am, n)), len(rref(al, n)), len(rref(ar, n))
    if dm + dl != dr or len(rref(am + al, n)) != dr:
        return Fraction(0)
    u = relative_space(ar, am, gram)
    v = relative_space(ar, al, gram)

    def inner(v, w):
        return sum(v[i] * gram[i][j] * w[j] for i in range(n) for j in range(n))

    def gram_of(rows):
        return gram_det([[inner(a, b) for b in rows] for a in rows])

    return gram_of(u + v) / (gram_of(u) * gram_of(v))


def bottom_levi(outcome) -> GEtaLevi:
    """The matched Levi itself: every block is its own group."""
    return GEtaLevi(tuple(((b.bid, 1),) for b in outcome.blocks))


def torus_layout(outcome):
    """Torus coordinates of a descent outcome, in the shape of
    ``ambient.atom_layout``: (ambient width, block ranges, unitary
    prime-half ranges, unitary double-prime-half ranges, x'/y'/x''/y''
    ranges).  Every part spans its full width: blocks first, then each slot's
    two halves, then x', y', x'', y''."""
    pos = 0

    def take(width: int) -> tuple[int, ...]:
        nonlocal pos
        pos += width
        return tuple(range(pos - width, pos))

    blocks = {b.bid: take(b.width) for b in outcome.blocks}
    u_prime, u_dbl = {}, {}
    for s in outcome.u_slots:
        u_prime[s.eta_rep] = take(2 * s.d * s.k_prime)
        u_dbl[s.eta_rep] = take(2 * s.d * s.k_dbl)
    pm = {
        name: take(w)
        for name, w in (
            ("xp", outcome.x_prime),
            ("yp", outcome.y_prime),
            ("xd", outcome.x_dbl),
            ("yd", outcome.y_dbl),
        )
    }
    return pos, blocks, u_prime, u_dbl, pm


def torus_volumes(outcomes):
    """For each distinct (layout, Levi) of ``outcomes``: the Levi and
    ``Ambient.d_g`` of it in weighted block coordinates, beside the volume
    ratio in torus coordinates under the unit form (``d_coefficient``)."""
    seen = {}
    for o in outcomes:
        amb = Ambient(o)
        n, block_coords, _, _, _ = torus_layout(o)

        def space(groups):
            vecs = []
            for grp in groups:
                v = [0] * n
                for bid, e in grp:
                    for c in block_coords[bid]:
                        v[c] = e
                vecs.append(v)
            return vecs

        unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        ar = space([((b.bid, 1),) for b in o.blocks])
        am = space([tuple((bid, 1) for bid in amb.owners[i]) for i in sorted(amb.owners)])
        owners = tuple((i, tuple(bids)) for i, bids in sorted(amb.owners.items()))
        layout = (n, tuple((b.bid, b.width) for b in o.blocks), owners)
        for levi in enumerate_levis(o):
            if (layout, levi.groups) not in seen:
                want = d_coefficient(am, space(levi.groups), ar, unit)
                seen[layout, levi.groups] = (levi, amb.d_g(levi).value, want)
    return list(seen.values())


# ---------------------------------------------------------------------------
# general twists: symbolic labels alongside signs


Assignment = tuple  # per Levi block: +1, -1, or ("label", k)


def _assign_value(b, assignment: Assignment) -> tuple:
    """(label or None, sign) of a block under a general twist."""
    if b.origin != "levi":
        return (None, b.sbar0)
    a = assignment[b.owner]
    if a in (1, -1):
        return (None, b.sbar0 * a)
    return (a[1], b.sbar0)


def separation_check(outcome, assignment: Assignment) -> bool:
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


def arthur_general_types(amb, assignment: Assignment) -> tuple[GroupType, GroupType]:
    """Connected dual centralizer of the general twist at the top Levi:
    (bar side, odd side), computed purely from the sign algebra."""
    outcome = amb.outcome
    factors: list = []  # shared by both sides
    bar_factors: list = []
    odd_factors: list = []
    for home in outcome.homes:
        blocks = outcome.home_blocks(home)
        classes: dict[tuple, int] = {}
        if home[0] == "gl":  # orientation matters for labeled values
            for b in blocks:
                lab, sgn = _assign_value(b, assignment)
                key = (lab, sgn) if lab is None else (lab, sgn, eta_orientation(outcome, b))
                classes[key] = classes.get(key, 0) + b.size
            factors += [gl(classes[key], blocks[0].ext) for key in sorted(classes, key=str)]
            continue
        for b in blocks:
            key = _assign_value(b, assignment)
            classes[key] = classes.get(key, 0) + b.size
        _, _, x0, y0, klass = amb.core_datum(home, (), ())
        if home[0] == "sp":
            x = x0 + classes.pop((None, 1), 0)
            y = y0 + classes.pop((None, -1), 0)
            bar_factors += [sp(x), so_even(y, klass)]
            odd_factors += [so_odd(x), so_even(y, klass)]
            ext = 1
        else:
            slot = amb.slots[home[1]]
            cp = x0 + 2 * classes.pop((None, 1), 0)
            cd = y0 + 2 * classes.pop((None, -1), 0)
            factors += [u(rank, slot.d) for rank in (cp, cd) if rank]
            ext = 2 * slot.d
        factors += [gl(size, ext) for _, size in sorted(classes.items())]
    return GroupType(tuple(factors + bar_factors)), GroupType(tuple(factors + odd_factors))


def general_twist_check(amb, assignment: Assignment) -> bool:
    """Pushed-group identity for a general twist: the symbolic centralizer
    of the twist equals the descended centralizer of the twisted element."""
    if not separation_check(amb.outcome, assignment):
        return False
    a_bar, a_odd = arthur_general_types(amb, assignment)
    full, full_bar = gs_descended_types(amb.outcome, assignment)
    return a_bar == full_bar and a_odd == full


def general_assignments(i_count: int, max_labels: int = 2):
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
# Frobenius orbits of exponents in Q/Z, by Fraction arithmetic: the slow path
# of the int residue kernel in ``endokit.descent``

HALF = Fraction(1, 2)


def orbit_of(exp: Fraction, q: int) -> frozenset[Fraction]:
    out = set()
    e = exp % 1
    while e not in out:
        out.add(e)
        e = (e * q) % 1
    return frozenset(out)


def orbit_inverse(orbit) -> frozenset[Fraction]:
    return frozenset((-e) % 1 for e in orbit)


def orbit_negate(orbit) -> frozenset[Fraction]:
    return frozenset((e + HALF) % 1 for e in orbit)


def pair_class_key(orbit: frozenset[Fraction]) -> Fraction:
    """Canonical key of the unordered pair {orbit, inverse orbit}."""
    return min(min(orbit), min(orbit_inverse(orbit)))


def sc_is_minus_one(x) -> bool:
    if isinstance(x, RootOfUnity):
        return x.is_minus_one
    return x == -1


# ---------------------------------------------------------------------------
# paper data that no suite reads: the elliptic data of a symplectic or unitary
# factor, which drive the index-ratio sweeps, and relative Weyl orders


def sp_elliptic_data(m: int) -> tuple[SpEllipticDatum, ...]:
    out = []
    for mp in range(m, -1, -1):
        me = m - mp
        if me == 0:
            out.append(SpEllipticDatum(mp, 0))
        elif me == 1:
            out.append(SpEllipticDatum(mp, 1, "unram_nonsplit"))
            out.append(SpEllipticDatum(mp, 1, "ramified"))
        else:
            out.append(SpEllipticDatum(mp, me, "split"))
            out.append(SpEllipticDatum(mp, me, "unram_nonsplit"))
            out.append(SpEllipticDatum(mp, me, "ramified"))
    return tuple(out)


def u_elliptic_data(m: int) -> tuple[UEllipticDatum, ...]:
    return tuple(UEllipticDatum(m - k, k) for k in range(m // 2 + 1))


def weyl_relative_order(g: GroupType, levi: LeviDatum) -> int:
    """Order of the relative Weyl group of a Levi class in Sp or odd SO.

    Sign flips act on every GL block; permutations only move blocks of equal
    size (the normalizer preserves block sizes).
    """
    if g.is_trivial:
        if levi.rank != 0:
            raise ValueError("Levi datum rank does not match the group")
        return 1
    if len(g.factors) != 1 or g.factors[0].kind not in ("sp", "so_odd"):
        raise UnsupportedFactor("relative Weyl orders are defined for Sp and odd SO ambients")
    if levi.rank != g.factors[0].rank:
        raise ValueError("Levi datum rank does not match the group")
    order = 2 ** len(levi.sizes)
    for size in set(levi.sizes):
        order *= factorial(levi.sizes.count(size))
    return order


def _side_choices(k):
    return [frozenset(c) for r in range(k + 1) for c in itertools.combinations(range(k), r)]


def _i_meta_sweep():
    """i_meta over every (Levi, base datum, sign vector) of rank <= 5."""
    for n in range(6):
        for levi in levi_data(n):
            for s0 in elliptic_data_meta(levi.remainder):
                for s in e_set(levi, s0):
                    yield i_meta(levi, s0, s)


def _i_standard_sp_sweep():
    """i_standard over every symplectic config of rank <= 5, every side choice."""
    for n in range(1, 6):
        for levi in levi_data(n):
            for datum in sp_elliptic_data(levi.remainder):
                cfg = ArthurConfig(sp(n), levi.sizes, sp_datum=datum)
                for side in _side_choices(levi.block_count):
                    yield i_standard(cfg, side)


def _i_standard_u_sweep():
    """i_standard over every unitary config of rank <= 6, at degree 1 and 2,
    ramified and not, every side choice."""
    for n, degree, ramified in itertools.product(range(1, 7), (1, 2), (False, True)):
        for levi in levi_data(n // 2):
            for datum in u_elliptic_data(n - 2 * sum(levi.sizes)):
                cfg = ArthurConfig(u(n, degree, ramified), levi.sizes, u_datum=datum)
                for side in _side_choices(levi.block_count):
                    yield i_standard(cfg, side)


# Count and sha256 of each sweep's values, one ``str`` per line, in sweep
# order.  They pin the index ratios across any rewrite of their centers.
INDEX_SWEEPS = {
    "i_meta": (_i_meta_sweep, 371, "3f7b5f0cf24920bad9e20b74813442b7038066df56081b6277684e826cd83a25"),
    "i_standard-sp": (_i_standard_sp_sweep, 571, "93ed795819e01d761358363769aa6268fae55070c60a18cbd2d1b975fa247dd2"),
    "i_standard-u": (_i_standard_u_sweep, 284, "446aeb3774384feda64e2ffbd7e2fff8eb986cc3b49f9a7d7dd32e907490fa81"),
}


def index_sweep(name: str) -> tuple[int, str]:
    """The count and sha256 of the values of sweep ``name``, as pinned."""
    values = [str(v) for v in INDEX_SWEEPS[name][0]()]
    return len(values), hashlib.sha256("\n".join(values).encode()).hexdigest()


# The laws each fault fails on the rank-3 corpus, with their failing
# scenario counts.  Each fault fails some (law, scenario) pair no other
# fault fails.
FAIL_COUNTS = {
    None: {},
    "corrupt-sbar0": {
        "instable-map-surjective": 765,
        "pushed-group": 1601,
        "sign-rule-vs-descent": 2617,
        "stable-map-bijective": 1536,
    },
    "shift-prime-rank": {"pushed-group": 801, "stable-map-bijective": 42},
    "pull-levi-block": {"instable-fiber-law": 1569, "pushed-group": 1361},
}


def rank3_outcomes(fault):
    """The post-fault outcome of every scenario of the rank-3 corpus."""
    outcomes = [descend(sc) for sc in scenario_corpus(CampaignSpec(max_rank=3))]
    return [FAULTS[fault](o) for o in outcomes] if fault else outcomes


def record_pairs(records) -> list:
    """The ``(scenario, verdicts)`` pair of each ``CheckRecord``, one verdict
    each, as ``VerificationReport`` takes them."""
    return [(r.scenario, ((r.check, r.law, r.status, tuple(sorted(r.witness.items()))),)) for r in records]


def block_orientations(outcome, b) -> tuple:
    """A block's eta orientation and its eps orientations under the two
    constant twists, zeros for a block not at home in a ``gl`` factor."""
    if b.home[0] != "gl":
        return 0, (0, 0)
    twists = [(s,) * outcome.i_count for s in (1, -1)]
    or_eps = tuple(eps_orientation(outcome, b, t, placement(outcome, b, t)[2]) for t in twists)
    return eta_orientation(outcome, b), or_eps


def raw_shape(outcome, oriented: bool = False) -> str:
    """The combinatorial shape of an outcome in its own block order, as one
    string: the ``repr`` of a nested tuple whose atoms are ``int``, ``str``,
    ``bool`` and ``None``, exponents numbered by first appearance.  Which
    members are exponents is fixed by position: the second member of a
    ``u`` or ``gl`` home, the third member of a placement, and a slot's
    ``eta_rep``.  With ``oriented``, each block also holds its base-point
    sign (after its tag) and its ``block_orientations`` (last), which the
    shape key leaves out: a reference rendering, finer than the key."""
    classes: dict[int, int] = {}

    def cls(exp: int) -> int:
        return classes.setdefault(exp, len(classes))

    def classify(place: tuple) -> tuple:
        return place if len(place) == 2 else (place[0], place[1], cls(place[2]))

    i_count = outcome.i_count
    blocks_shape = []
    for b in outcome.blocks:
        home_sh = (b.home[0], cls(b.home[1])) if b.home[0] in ("u", "gl") else b.home
        sigma_places = tuple(
            classify(placement(outcome, b, (s,) * i_count)) for s in (1, -1)
        )
        indep_places = tuple(
            classify(placement_independent(outcome, b, (s,) * i_count)) for s in (1, -1)
        )
        part = (b.size, b.ext, b.origin, b.owner, b.tag, home_sh, sigma_places, indep_places)
        if oriented:
            part = (*part[:5], b.sbar0, *part[5:], *block_orientations(outcome, b))
        blocks_shape.append(part)
    slots_shape = tuple(
        (cls(s.eta_rep), s.d, s.k_prime, s.k_dbl) for s in outcome.u_slots
    )
    return repr((
        tuple(blocks_shape),
        slots_shape,
        (outcome.x_prime, outcome.y_prime, outcome.x_dbl, outcome.y_dbl),
        (outcome.class_prime, outcome.class_dbl, outcome.pulled_prime, outcome.pulled_dbl),
        i_count,
        outcome.scenario.sizes,
    ))


def owner_orders(sizes):
    """Every order of the Levi owners that keeps each size at its
    positions, as the old owner at every new position."""
    return [
        order for order in itertools.permutations(range(len(sizes)))
        if all(sizes[old] == size for old, size in zip(order, sizes))
    ]


def permuted_outcome(outcome, order):
    """The outcome with its Levi owners in ``order`` (the old owner at each
    new position): the scenario's GL multisets and the Levi blocks move with
    their owners, each block keeps its place among its owner's, pulled
    blocks stay last, and block ids follow the new order."""
    new_of = {old: new for new, old in enumerate(order)}
    levi = sorted((b for b in outcome.blocks if b.owner is not None), key=lambda b: new_of[b.owner])
    blocks = [replace(b, owner=new_of[b.owner]) for b in levi]
    blocks += [b for b in outcome.blocks if b.owner is None]
    sc = outcome.scenario
    return replace(
        outcome,
        scenario=replace(sc, eps_gl=tuple(sc.eps_gl[old] for old in order)),
        blocks=tuple(replace(b, bid=i) for i, b in enumerate(blocks)),
    )


def brute_canonical_shape(outcome, oriented: bool = False) -> str:
    """The least ``raw_shape`` over every order of the equal-size Levi
    owners, each permuted outcome rendered in full.  With ``oriented``, the
    finer reference key that the shape cache's key is compared against
    above rank 3."""
    orders = owner_orders(outcome.scenario.sizes)
    return min(raw_shape(permuted_outcome(outcome, order), oriented) for order in orders)
