"""Type-level descent at a finite-order semisimple pair.

A scenario fixes a Levi of a rank-n symplectic group, an elliptic datum
splitting the symplectic remainder, a Frobenius surrogate q, and exact
eigenvalue multisets (roots of unity) for the element on each factor.  The
machinery derives the centralizer types on both sides, carves the matched
GL blocks out of them, assigns the base-point signs, and exposes the exact
placement data every later identity consumes.

Galois theory is replaced throughout by orbit combinatorics: q acts on
root-of-unity exponents by multiplication, orbits play the role of field
extensions, and self-inverse orbits are the unitary ones.

Every exponent on this path is an int residue.  A scenario's modulus L is
the lcm of 2 and the order of every eigenvalue in it; the exponent j/N is the
residue r = j * (L/N) in [0, L).  The orbit of r is {r * q^k mod L}, its
inverse is -r mod L and its negation r + L/2 mod L.  The map r -> r/L keeps
order, so every ``sorted`` and ``min`` picks what it would pick on Q/Z.
Fractions appear only where an exponent is printed or parsed.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .catalog import FORM_CLASSES, FactorType, GroupType, bar, gl, so_even, so_odd, sp, u
from .endoscopy import EigenMultiset, EllipticDatumMeta
from .errors import InvariantViolation, MatchingFailure, ScenarioValidationError
from .rootsofunity import RootOfUnity


# ---------------------------------------------------------------------------
# orbit combinatorics, on residues r mod L


def exponent_modulus(multisets: Iterable[EigenMultiset]) -> int:
    """The modulus L of a family of multisets: the lcm of 2 and the order of
    every root of unity among their entries."""
    return lcm(2, *(x.order for ms in multisets for x in ms.entries if isinstance(x, RootOfUnity)))


@cache
def orbit_of(r: int, L: int, q: int) -> frozenset[int]:
    out = set()
    while r not in out:
        out.add(r)
        r = r * q % L
    return frozenset(out)


def orbit_inverse(orbit: Iterable[int], L: int) -> frozenset[int]:
    return frozenset(-r % L for r in orbit)


def orbit_negate(orbit: Iterable[int], L: int) -> frozenset[int]:
    return frozenset((r + L // 2) % L for r in orbit)


def is_self_inverse(orbit: frozenset[int], L: int) -> bool:
    return orbit == orbit_inverse(orbit, L)


def pair_class_key(orbit: frozenset[int], L: int) -> int:
    """Canonical key of the unordered pair {orbit, inverse orbit}."""
    return min(min(orbit), min(orbit_inverse(orbit, L)))


@cache
def _pair_key_exp(r: int, L: int, q: int) -> int:
    return pair_class_key(orbit_of(r, L, q), L)


@cache
def neg_rep_exp(r: int, L: int, q: int) -> int:
    return min(orbit_negate(orbit_of(r, L, q), L))


@cache
def _self_inverse_exp(r: int, L: int, q: int) -> bool:
    return is_self_inverse(orbit_of(r, L, q), L)


def _exponent_counts(ms: EigenMultiset, L: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for x in ms.entries:
        if not isinstance(x, RootOfUnity):
            raise InvariantViolation("descent multisets must consist of roots of unity")
        j, n = x.pair
        r = j * (L // n)
        counts[r] = counts.get(r, 0) + 1
    return counts


def _orbit_decomposition_counts(counts: dict[int, int], L: int, q: int) -> dict[int, int]:
    """Map orbit representative -> multiplicity, in representative order;
    requires q-stability."""
    out: dict[int, int] = {}
    seen: set[int] = set()
    for r in sorted(counts):
        if r in seen:
            continue
        orb = orbit_of(r, L, q)
        mult = counts[r]
        for f in orb:
            if counts.get(f, 0) != mult:
                raise InvariantViolation(
                    f"multiset is not Frobenius stable at exponent {Fraction(r, L)} (q={q})"
                )
            seen.add(f)
        out[min(orb)] = mult
    return out


# ---------------------------------------------------------------------------
# scenarios


# The form classes of an orthogonal side, by the prefix ``digest`` keeps.
_FORM_CLASSES = {c[:3]: c for c in FORM_CLASSES}


@dataclass(frozen=True)
class DescentScenario:
    """Fixed data of one descent: Levi, datum, Frobenius surrogate, eigenvalues."""

    n: int
    sizes: tuple[int, ...]
    s0: EllipticDatumMeta
    q: int
    eps_gl: tuple[EigenMultiset, ...]
    eps_prime: EigenMultiset
    eps_dblprime: EigenMultiset
    form_class_prime: str = "split"
    form_class_dblprime: str = "split"

    @property
    def m(self) -> int:
        return self.n - sum(self.sizes)

    @cached_property
    def modulus(self) -> int:
        """The modulus L of every exponent residue on the descent path."""
        return exponent_modulus((self.eps_prime, self.eps_dblprime, *self.eps_gl))

    def digest(self) -> str:
        parts = [
            f"n{self.n}",
            "b" + ",".join(str(s) for s in self.sizes),
            f"s{self.s0.m_prime}.{self.s0.m_dblprime}",
            f"q{self.q}",
            "g" + "|".join(",".join(str(x) for x in ms.entries) for ms in self.eps_gl),
            "p" + ",".join(str(x) for x in self.eps_prime.entries),
            "d" + ",".join(str(x) for x in self.eps_dblprime.entries),
            self.form_class_prime[:3],
            self.form_class_dblprime[:3],
        ]
        return ";".join(parts)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "sizes": list(self.sizes),
            "m_prime": self.s0.m_prime,
            "m_dblprime": self.s0.m_dblprime,
            "q": self.q,
            "eps_gl": [[str(x) for x in ms.entries] for ms in self.eps_gl],
            "eps_prime": [str(x) for x in self.eps_prime.entries],
            "eps_dblprime": [str(x) for x in self.eps_dblprime.entries],
            "form_class_prime": self.form_class_prime,
            "form_class_dblprime": self.form_class_dblprime,
        }

    @staticmethod
    def from_dict(data: dict) -> "DescentScenario":
        def ms(entries: Sequence[str]) -> EigenMultiset:
            return EigenMultiset.of(RootOfUnity(s) for s in entries)

        return DescentScenario(
            n=int(data["n"]),
            sizes=tuple(int(x) for x in data["sizes"]),
            s0=EllipticDatumMeta(int(data["m_prime"]), int(data["m_dblprime"])),
            q=int(data["q"]),
            eps_gl=tuple(ms(block) for block in data["eps_gl"]),
            eps_prime=ms(data["eps_prime"]),
            eps_dblprime=ms(data["eps_dblprime"]),
            form_class_prime=data.get("form_class_prime", "split"),
            form_class_dblprime=data.get("form_class_dblprime", "split"),
        )

    @staticmethod
    def from_digest(digest: str) -> "DescentScenario":
        """The scenario whose ``digest()`` is ``digest``.  An empty ``g``
        field means no GL blocks, as every block holds an eigenvalue; each
        form class is read back from its three-letter prefix."""
        fields = digest.split(";")
        if len(fields) != 9 or any(not f.startswith(tag) for f, tag in zip(fields, "nbsqgpd")):
            raise ValueError(f"not a scenario digest: {digest!r}")
        n, sizes, s0, q, eps_gl, eps_prime, eps_dblprime = (f[1:] for f in fields[:7])
        m_prime, m_dblprime = s0.split(".")
        classes = [_FORM_CLASSES.get(tag) for tag in fields[7:]]
        if None in classes:
            raise ValueError(f"unknown form class in scenario digest: {digest!r}")

        def items(text: str) -> list[str]:
            return text.split(",") if text else []

        return DescentScenario.from_dict(
            {
                "n": n,
                "sizes": items(sizes),
                "m_prime": m_prime,
                "m_dblprime": m_dblprime,
                "q": q,
                "eps_gl": [items(block) for block in eps_gl.split("|")] if eps_gl else [],
                "eps_prime": items(eps_prime),
                "eps_dblprime": items(eps_dblprime),
                "form_class_prime": classes[0],
                "form_class_dblprime": classes[1],
            }
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "DescentScenario":
        return DescentScenario.from_dict(json.loads(text))


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


def q_violation(q: int) -> str | None:
    """Why no scenario can have residue field size ``q``, or None."""
    if not _is_prime_power(q):
        return f"q={q} is not a prime power"
    if q % 2 == 0:
        return "q must be odd: the class correspondence negates eigenvalues"
    return None


@lru_cache(maxsize=None)
class _MultisetProfile:
    """Cached per-multiset analysis shared by validation and descent, on
    residues mod ``L``."""

    def __init__(self, ms: EigenMultiset, L: int, q: int):
        self.size = len(ms.entries)
        self.rational_entries = any(not isinstance(x, RootOfUnity) for x in ms.entries)
        if self.rational_entries:
            return
        self.coprime = all(gcd(q, x.order) == 1 for x in ms.entries)
        counts = _exponent_counts(ms, L)
        self.mult_one = counts.get(0, 0)
        self.mult_minus = counts.get(L // 2, 0)
        self.inversion_closed = all(counts.get(-r % L, 0) == k for r, k in counts.items())
        self.stable_error: str | None = None
        self.dec: dict[int, int] = {}
        try:
            self.dec = _orbit_decomposition_counts(counts, L, q)
        except InvariantViolation as exc:
            self.stable_error = str(exc)


def validate_scenario(sc: DescentScenario) -> DescentScenario:
    """Check every structural invariant; raises with the full violation list."""
    bad: list[str] = []
    if sc.n < 0:
        bad.append("rank n must be nonnegative")
    if any(s < 1 for s in sc.sizes):
        bad.append("GL block sizes must be >= 1")
    if sc.m < 0:
        bad.append("block sizes exceed the rank")
    if sc.s0.total != max(sc.m, 0):
        bad.append("the datum does not split the symplectic remainder")
    if bad_q := q_violation(sc.q):
        bad.append(bad_q)
    if len(sc.eps_gl) != len(sc.sizes):
        bad.append("one eigenvalue multiset per GL block is required")
    L = sc.modulus
    profiles = [
        ("prime", _MultisetProfile(sc.eps_prime, L, sc.q)),
        ("dblprime", _MultisetProfile(sc.eps_dblprime, L, sc.q)),
    ] + [(f"block {i}", _MultisetProfile(ms, L, sc.q)) for i, ms in enumerate(sc.eps_gl)]
    for name, prof in profiles:
        if prof.rational_entries:
            bad.append(f"{name}: all eigenvalues must be roots of unity")
            continue
        if not prof.coprime:
            bad.append(f"{name}: q must be coprime to every eigenvalue order")
        if prof.stable_error:
            bad.append(f"{name}: {prof.stable_error}")
    if bad:
        raise ScenarioValidationError(bad)
    for i, (ms, size) in enumerate(zip(sc.eps_gl, sc.sizes)):
        if ms.size() != size:
            bad.append(f"GL block {i} multiset has size {ms.size()}, expected {size}")
    for name, prof, mp in (
        ("prime", profiles[0][1], sc.s0.m_prime),
        ("dblprime", profiles[1][1], sc.s0.m_dblprime),
    ):
        if prof.size != 2 * mp + 1:
            bad.append(f"{name} orthogonal multiset has the wrong size")
        if not prof.inversion_closed:
            bad.append(f"{name} multiset must be inversion closed")
        if prof.mult_one % 2 != 1:
            bad.append(f"{name} multiset must contain +1 with odd multiplicity")
        if prof.mult_minus % 2:
            bad.append(f"{name} multiset needs even multiplicity at -1")
    for name, tag in (
        ("prime", sc.form_class_prime),
        ("dblprime", sc.form_class_dblprime),
    ):
        if tag not in FORM_CLASSES:
            bad.append(f"unknown form class {tag!r}")
    if not bad:
        if profiles[0][1].mult_minus == 0 and sc.form_class_prime != "split":
            bad.append("prime side has no -1 eigenvalues; its form class must be split")
        if profiles[1][1].mult_minus == 0 and sc.form_class_dblprime != "split":
            bad.append("dblprime side has no -1 eigenvalues; its form class must be split")
    if bad:
        raise ScenarioValidationError(bad)
    return sc


# ---------------------------------------------------------------------------
# centralizer types


def _centralizer_factors_counts(
    counts: dict[int, int], L: int, q: int, kind: str, form_tag_minus: str = "split"
) -> tuple[FactorType, ...]:
    """Centralizer factors of an element by its exponent counts mod ``L``:
    one per orbit, and one per pair of mutually inverse orbits outside GL."""
    half = L // 2
    out: list[FactorType] = []
    seen_pairs: set[int] = set()
    for rep, mult in _orbit_decomposition_counts(counts, L, q).items():
        if rep == 0:
            if kind == "symplectic":
                if mult % 2:
                    raise InvariantViolation("odd +1 multiplicity in a symplectic class")
                out.append(sp(mult // 2))
            elif kind == "odd_orthogonal":
                if mult % 2 == 0:
                    raise InvariantViolation("even +1 multiplicity in an odd orthogonal class")
                out.append(so_odd((mult - 1) // 2))
            else:
                out.append(gl(mult))
        elif rep == half:
            if kind == "symplectic":
                if mult % 2:
                    raise InvariantViolation("odd -1 multiplicity in a symplectic class")
                out.append(sp(mult // 2))
            elif kind == "odd_orthogonal":
                if mult % 2:
                    raise InvariantViolation("odd -1 multiplicity in an odd orthogonal class")
                out.append(so_even(mult // 2, form_tag_minus if mult else "split"))
            else:
                out.append(gl(mult))
        else:
            orb = orbit_of(rep, L, q)
            if kind == "gl":
                out.append(gl(mult, len(orb)))
            elif is_self_inverse(orb, L):
                out.append(u(mult, len(orb) // 2))
            else:
                key = pair_class_key(orb, L)
                if key not in seen_pairs:
                    seen_pairs.add(key)
                    out.append(gl(mult, len(orb)))
    return tuple(out)


# ---------------------------------------------------------------------------
# the outcome: blocks, slots, homes


@dataclass(frozen=True)
class Block:
    """One matched GL block shared by the two centralizers."""

    bid: int
    size: int
    ext: int
    origin: str  # "levi" | "pair_prime" | "pair_dbl" | "so2_prime" | "so2_dbl"
    owner: int | None
    tag: str  # "+" | "-" | "U"
    home: tuple
    sbar0: int
    eta_exp: int  # residues mod the scenario's modulus
    eps_exp: int

    @property
    def width(self) -> int:
        return self.size * self.ext


@dataclass(frozen=True)
class USlot:
    """Core slot of one self-inverse orbit: unitary on both sides."""

    eta_rep: int  # a residue mod the scenario's modulus
    d: int
    k_prime: int
    k_dbl: int

    @property
    def k_bar(self) -> int:
        return self.k_prime + self.k_dbl


@dataclass(frozen=True)
class DescentOutcome:
    scenario: DescentScenario
    blocks: tuple[Block, ...]
    u_slots: tuple[USlot, ...]
    x_prime: int  # rank of the split odd part on the prime side
    y_prime: int  # rank of the surviving even part on the prime side
    x_dbl: int
    y_dbl: int
    class_prime: str  # form class of the surviving prime even part
    class_dbl: str
    pulled_prime: bool  # split rank-one even part converted to a GL block
    pulled_dbl: bool

    # -- homes and twists (an outcome is frozen, so each is derived once) ---

    @cached_property
    def _blocks_by_home(self) -> dict[tuple, tuple[Block, ...]]:
        by_home: dict[tuple, list[Block]] = {}
        for b in self.blocks:
            by_home.setdefault(b.home, []).append(b)
        return {home: tuple(blocks) for home, blocks in by_home.items()}

    def home_blocks(self, home: tuple) -> tuple[Block, ...]:
        return self._blocks_by_home.get(home, ())

    @cached_property
    def homes(self) -> tuple[tuple, ...]:
        keys = [key for key in (("sp", 1), ("sp", -1)) if self.home_blocks(key) or self._sp_core_rank(key)]
        keys += [("u", s.eta_rep) for s in self.u_slots]
        keys += [home for home in self._blocks_by_home if home[0] == "gl"]
        return tuple(sorted(keys))

    @cached_property
    def twists(self) -> tuple[tuple[int, ...], ...]:
        """Every twist: one sign per GL block of the Levi."""
        return tuple(itertools.product((1, -1), repeat=self.i_count))

    def _sp_core_rank(self, key: tuple) -> int:
        if key == ("sp", 1):
            return self.x_prime + self.y_dbl
        return self.x_dbl + self.y_prime

    # -- groups of the diagram ------------------------------------------------

    @property
    def i_count(self) -> int:
        return len(self.scenario.sizes)

    def r_group(self) -> GroupType:
        fs = [gl(b.size, b.ext) for b in self.blocks]
        fs += [u(s.k_bar, s.d) for s in self.u_slots if s.k_bar]
        fs += [sp(self.x_prime + self.y_dbl), sp(self.x_dbl + self.y_prime)]
        return GroupType(tuple(fs))

    def mexc(self) -> GroupType:
        """The matched centralizer on the endoscopic side, before any pull."""
        fs = [gl(b.size, b.ext) for b in self.blocks if b.origin in ("levi", "pair_prime", "pair_dbl")]
        fs += [u(s.k_prime, s.d) for s in self.u_slots if s.k_prime]
        fs += [u(s.k_dbl, s.d) for s in self.u_slots if s.k_dbl]
        fs += [so_odd(self.x_prime), so_odd(self.x_dbl)]
        yp = self.y_prime + (1 if self.pulled_prime else 0)
        yd = self.y_dbl + (1 if self.pulled_dbl else 0)
        if yp:
            fs.append(so_even(yp, self.scenario.form_class_prime))
        if yd:
            fs.append(so_even(yd, self.scenario.form_class_dblprime))
        return GroupType(tuple(fs))

    def mexc_reduced(self) -> GroupType:
        """The endoscopic-side centralizer with split rank-one parts pulled."""
        fs = [gl(b.size, b.ext) for b in self.blocks]
        fs += [u(s.k_prime, s.d) for s in self.u_slots if s.k_prime]
        fs += [u(s.k_dbl, s.d) for s in self.u_slots if s.k_dbl]
        fs += [so_odd(self.x_prime), so_odd(self.x_dbl)]
        if self.y_prime:
            fs.append(so_even(self.y_prime, self.class_prime))
        if self.y_dbl:
            fs.append(so_even(self.y_dbl, self.class_dbl))
        return GroupType(tuple(fs))

    def g_eta(self) -> GroupType:
        fs = []
        for key in (("sp", 1), ("sp", -1)):
            rank = self._sp_core_rank(key) + sum(b.size for b in self.home_blocks(key))
            fs.append(sp(rank))
        for s in self.u_slots:
            rank = s.k_bar + 2 * sum(b.size for b in self.home_blocks(("u", s.eta_rep)))
            fs.append(u(rank, s.d))
        gl_homes: dict[tuple, tuple[int, int]] = {}
        for b in self.blocks:
            if b.home[0] == "gl":
                r, e = gl_homes.get(b.home, (0, b.ext))
                gl_homes[b.home] = (r + b.size, e)
        fs += [gl(r, e) for _, (r, e) in sorted(gl_homes.items(), key=lambda kv: kv[0][1])]
        return GroupType(tuple(fs))


def descend(sc: DescentScenario) -> DescentOutcome:
    """Build the matched block/slot structure of a validated scenario."""
    validate_scenario(sc)
    q, L = sc.q, sc.modulus
    half = L // 2
    dec_p = _MultisetProfile(sc.eps_prime, L, q).dec
    dec_d = _MultisetProfile(sc.eps_dblprime, L, q).dec

    mult_p_one = dec_p.get(0, 0)
    mult_p_minus = dec_p.get(half, 0)
    mult_d_one = dec_d.get(0, 0)
    mult_d_minus = dec_d.get(half, 0)
    x_prime = (mult_p_one - 1) // 2
    x_dbl = (mult_d_one - 1) // 2
    y_prime_raw = mult_p_minus // 2
    y_dbl_raw = mult_d_minus // 2
    pulled_prime = sc.form_class_prime == "split" and y_prime_raw == 1
    pulled_dbl = sc.form_class_dblprime == "split" and y_dbl_raw == 1
    y_prime = 0 if pulled_prime else y_prime_raw
    y_dbl = 0 if pulled_dbl else y_dbl_raw
    class_prime = sc.form_class_prime if y_prime else "split"
    class_dbl = sc.form_class_dblprime if y_dbl else "split"

    def sided_u(dec: dict[int, int]) -> dict[int, int]:
        return {r: k for r, k in dec.items() if r not in (0, half) and _self_inverse_exp(r, L, q)}

    def sided_pairs(dec: dict[int, int]) -> dict[int, int]:
        out = {}
        for r, k in dec.items():
            if r in (0, half) or _self_inverse_exp(r, L, q):
                continue
            key = _pair_key_exp(r, L, q)
            if key not in out:
                out[key] = k
            elif out[key] != k:
                raise InvariantViolation("inverse orbits with unequal multiplicity")
        return out

    u_p = sided_u(dec_p)
    u_d = sided_u(dec_d)
    pairs_p = sided_pairs(dec_p)
    pairs_d = sided_pairs(dec_d)

    blocks: list[Block] = []

    def add_block(**kw) -> None:
        blocks.append(Block(bid=len(blocks), **kw))

    # Levi blocks, one per Frobenius orbit of each GL multiset
    for i, ms in enumerate(sc.eps_gl):
        for rep, mult in _MultisetProfile(ms, L, q).dec.items():
            if rep == 0:
                tag, home, sb = "+", ("sp", 1), 1
            elif rep == half:
                tag, home, sb = "-", ("sp", -1), -1
            elif _self_inverse_exp(rep, L, q):
                tag, home, sb = "U", ("u", rep), 1
            else:
                tag, home, sb = "U", ("gl", _pair_key_exp(rep, L, q)), 1
            add_block(
                size=mult, ext=len(orbit_of(rep, L, q)), origin="levi", owner=i, tag=tag,
                home=home, sbar0=sb, eta_exp=rep, eps_exp=rep,
            )

    # GL pulls from the endoscopic side: inverse-pair orbits
    for rep in sorted(pairs_p):
        add_block(
            size=pairs_p[rep], ext=len(orbit_of(rep, L, q)), origin="pair_prime", owner=None, tag="U",
            home=("gl", rep), sbar0=1, eta_exp=rep, eps_exp=rep,
        )
    for rep in sorted(pairs_d):
        eta_rep = neg_rep_exp(rep, L, q)
        add_block(
            size=pairs_d[rep], ext=len(orbit_of(rep, L, q)), origin="pair_dbl", owner=None, tag="U",
            home=("gl", _pair_key_exp(eta_rep, L, q)), sbar0=-1,
            eta_exp=eta_rep, eps_exp=rep,
        )

    # GL pulls from split rank-one even parts
    if pulled_prime:
        add_block(
            size=1, ext=1, origin="so2_prime", owner=None, tag="-",
            home=("sp", -1), sbar0=-1, eta_exp=half, eps_exp=half,
        )
    if pulled_dbl:
        add_block(
            size=1, ext=1, origin="so2_dbl", owner=None, tag="+",
            home=("sp", 1), sbar0=-1, eta_exp=0, eps_exp=half,
        )

    # unitary core slots, keyed by the self-inverse orbit on the big side
    slot_reps: set[int] = set(u_p)
    for rep in u_d:
        slot_reps.add(neg_rep_exp(rep, L, q))
    for b in blocks:
        if b.home[0] == "u":
            slot_reps.add(b.home[1])
    u_slots = [
        USlot(
            eta_rep=rep,
            d=len(orbit_of(rep, L, q)) // 2,
            k_prime=u_p.get(rep, 0),
            k_dbl=u_d.get(neg_rep_exp(rep, L, q), 0),
        )
        for rep in sorted(slot_reps)
    ]

    outcome = DescentOutcome(
        scenario=sc,
        blocks=tuple(blocks),
        u_slots=tuple(u_slots),
        x_prime=x_prime,
        y_prime=y_prime,
        x_dbl=x_dbl,
        y_dbl=y_dbl,
        class_prime=class_prime,
        class_dbl=class_dbl,
        pulled_prime=pulled_prime,
        pulled_dbl=pulled_dbl,
    )
    _sanity(outcome)
    return outcome


def _sanity(outcome: DescentOutcome) -> None:
    """Dimension bookkeeping that must hold by construction."""
    sc = outcome.scenario
    q, L = sc.q, sc.modulus
    # the matched element's +-1 eigenspaces, by multiplicity arithmetic:
    # +1 picks up the first side's ones (less the anchor) and the negated
    # minus-ones of the second side, and symmetrically
    prof_p = _MultisetProfile(sc.eps_prime, L, q)
    prof_d = _MultisetProfile(sc.eps_dblprime, L, q)
    mult_plus = prof_p.mult_one - 1 + prof_d.mult_minus
    mult_minus = prof_p.mult_minus + prof_d.mult_one - 1
    w_plus = outcome.x_prime + outcome.y_dbl + (1 if outcome.pulled_dbl else 0)
    w_minus = outcome.x_dbl + outcome.y_prime + (1 if outcome.pulled_prime else 0)
    if mult_plus != 2 * w_plus or mult_minus != 2 * w_minus:
        raise MatchingFailure("eigenspace dimensions do not match the slot widths")
    # each GL factor of the endoscopic centralizer must own exactly one block
    n_pairs = 0
    for prof in (prof_p, prof_d):
        n_pairs += len(
            {_pair_key_exp(r, L, q) for r in prof.dec if r not in (0, L // 2) and not _self_inverse_exp(r, L, q)}
        )
    pulled = (1 if outcome.pulled_prime else 0) + (1 if outcome.pulled_dbl else 0)
    if sum(1 for b in outcome.blocks if b.origin != "levi") != n_pairs + pulled:
        raise MatchingFailure("pulled GL blocks do not exhaust the extra factors")


# ---------------------------------------------------------------------------
# base-point signs and placement


def sigma(block: Block, t: Sequence[int]) -> int:
    """Final sign of a block for the datum twisted by t."""
    mult = t[block.owner] if block.origin == "levi" else 1
    return block.sbar0 * mult


def placement(outcome: DescentOutcome, block: Block, t: Sequence[int]) -> tuple:
    """Destination of a block in the descended endoscopic group, by the
    base-point-times-twist rule."""
    s = sigma(block, t)
    kind = block.home[0]
    if kind == "sp":
        if block.home[1] == 1:
            return ("p", "odd") if s == 1 else ("d", "even")
        return ("d", "odd") if s == 1 else ("p", "even")
    key = block.home[1]
    if s == 1:
        return ("p", kind, key)
    sc = outcome.scenario
    L = sc.modulus
    if kind == "u":
        return ("d", "u", neg_rep_exp(key, L, sc.q))
    # gl home
    return ("d", "gl", _pair_key_exp((key + L // 2) % L, L, sc.q))


def placement_independent(outcome: DescentOutcome, block: Block, t: Sequence[int]) -> tuple:
    """Destination recomputed from scratch: twist the element, embed it by
    the side decomposition, and classify its eigenvalue orbit."""
    sc = outcome.scenario
    q, L = sc.q, sc.modulus
    half = L // 2
    if block.origin == "levi":
        side = "p" if t[block.owner] == 1 else "d"
        exp = block.eps_exp if side == "p" else (block.eps_exp + half) % L
    elif block.origin == "pair_prime":
        side, exp = "p", block.eps_exp
    elif block.origin == "pair_dbl":
        side, exp = "d", block.eps_exp
    else:  # a pulled split rank-one even part
        side, exp = ("p" if block.origin == "so2_prime" else "d"), half
    if exp == 0:
        return (side, "odd")
    if exp == half:
        return (side, "even")
    if _self_inverse_exp(exp, L, q):
        return (side, "u", min(orbit_of(exp, L, q)))
    return (side, "gl", _pair_key_exp(exp, L, q))


def compatibility_check(outcome: DescentOutcome, t: Sequence[int]) -> bool:
    """The sign rule and the recomputed descent place every block alike."""
    if len(t) != outcome.i_count:
        raise InvariantViolation("one sign per GL block of the Levi is required")
    for b in outcome.blocks:
        if placement(outcome, b, t) != placement_independent(outcome, b, t):
            return False
    return True


# ---------------------------------------------------------------------------
# the two independent group computations for the pushed datum


def gs_descended_types(outcome: DescentOutcome, t: Sequence) -> tuple[GroupType, GroupType]:
    """Centralizer of the twisted element in its endoscopic group, computed
    from raw eigenvalue multisets, and the same with the bar swap applied.

    ``t`` has one entry per GL block of the Levi: +1 or -1 sends the block to
    the prime or double-prime side, and a general twist's ``("label", k)``
    merges it with the other blocks of label k into one GL centralizer.
    """
    sc = outcome.scenario
    q, L = sc.q, sc.modulus
    prime = Counter(_exponent_counts(sc.eps_prime, L))
    dbl = Counter(_exponent_counts(sc.eps_dblprime, L))
    labeled: dict[int, Counter] = {}
    for i, ms in enumerate(sc.eps_gl):
        a = t[i]
        if a == 1:
            prime.update(_gl_block_residues(ms, False, L))
        elif a == -1:
            dbl.update(_gl_block_residues(ms, True, L))
        else:
            labeled.setdefault(a[1], Counter()).update(_exponent_counts(ms, L))
    gls = tuple(f for k in sorted(labeled) for f in _centralizer_factors_counts(labeled[k], L, q, "gl"))
    gp = _odd_orthogonal_factors(tuple(sorted(prime.items())), L, q, sc.form_class_prime)
    gd = _odd_orthogonal_factors(tuple(sorted(dbl.items())), L, q, sc.form_class_dblprime)
    full = GroupType(gls + gp + gd)
    return full, bar(full)


@lru_cache(maxsize=4096)
def _gl_block_residues(ms: EigenMultiset, negate: bool, L: int) -> tuple[int, ...]:
    """Exponent residues a GL block adds to an orthogonal side: each
    eigenvalue and its inverse, times -1 when ``negate``."""
    shift = L // 2 if negate else 0
    out = []
    for r, k in _exponent_counts(ms, L).items():
        out += [(r + shift) % L, (shift - r) % L] * k
    return tuple(out)


@lru_cache(maxsize=4096)
def _odd_orthogonal_factors(
    counts: tuple[tuple[int, int], ...], L: int, q: int, form_tag_minus: str
) -> tuple[FactorType, ...]:
    """Centralizer factors of an odd orthogonal class, by its sorted
    exponent counts mod ``L``."""
    return _centralizer_factors_counts(dict(counts), L, q, "odd_orthogonal", form_tag_minus)
