"""The deterministic scenario corpus of a campaign.

``scenario_corpus`` reads the bounds of a ``campaign.CampaignSpec``: its
``max_rank``, eigenvalue ``orders`` and surrogates ``q_values``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from math import gcd, lcm

from .catalog import levi_data
from .descent import DescentScenario, is_self_inverse, orbit_inverse, orbit_of, pair_class_key
from .endoscopy import EigenMultiset, EllipticDatumMeta
from .rootsofunity import RootOfUnity


def _orbit_inventory(orders: Sequence[int], L: int, q: int) -> list[tuple[int, int]]:
    """All Frobenius orbits of allowed exponents coprime to q: (rep, size),
    on the exponent residues mod ``L`` of ``endokit.descent``."""
    exps = set()
    for order in sorted(set(orders)):
        if gcd(order, q) == 1:
            exps.update(j * (L // order) for j in range(order) if gcd(j, order) == 1)
    out = []
    seen: set[int] = set()
    for r in sorted(exps):
        if r in seen:
            continue
        orb = orbit_of(r, L, q)
        seen.update(orb)
        out.append((min(orb), len(orb)))
    return out


def _orbit_multisets(inventory: Sequence[tuple], size: int) -> Iterator[tuple[tuple, ...]]:
    """Multisets of ``(item, weight)`` inventory entries with total weight
    ``size``: ((item, mult), ...), each multiplicity positive."""

    def rec(idx: int, rest: int, acc: tuple) -> Iterator[tuple]:
        if rest == 0:
            yield acc
            return
        if idx == len(inventory):
            return
        rep, w = inventory[idx]
        for mult in range(rest // w, -1, -1):
            yield from rec(idx + 1, rest - mult * w, acc + ((rep, mult),) if mult else acc)

    yield from rec(0, size, ())


def _expand(orbits: Iterable[tuple[int, int]], L: int, q: int) -> EigenMultiset:
    entries = []
    for rep, mult in orbits:
        for r in sorted(orbit_of(rep, L, q)):
            entries.extend([RootOfUnity.of(r, L)] * mult)
    return EigenMultiset.of(entries)


def _orthogonal_multisets(
    inventory: Sequence[tuple[int, int]], L: int, q: int, size: int
) -> Iterator[EigenMultiset]:
    """Inversion-closed multisets with +1 of odd multiplicity, given size."""
    items: list[tuple[tuple[int, ...], int]] = []  # (reps, weight)
    seen_pairs: set[int] = set()
    for rep, w in inventory:
        if rep in (0, L // 2):
            continue
        orb = orbit_of(rep, L, q)
        if is_self_inverse(orb, L):
            items.append(((rep,), w))
        else:
            key = pair_class_key(orb, L)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            items.append(((rep, min(orbit_inverse(orb, L))), 2 * w))
    for plus in range(1, size + 1, 2):
        for minus in range(0, size - plus + 1, 2):
            for combo in _orbit_multisets(items, size - plus - minus):
                orbits = [(0, plus)]
                if minus:
                    orbits.append((L // 2, minus))
                orbits.extend((r, mult) for reps, mult in combo for r in reps)
                yield _expand(orbits, L, q)


def _gl_multisets(inventory: Sequence[tuple[int, int]], L: int, q: int, size: int) -> Iterator[EigenMultiset]:
    for combo in _orbit_multisets(inventory, size):
        yield _expand(combo, L, q)


def scenario_corpus(spec) -> Iterator[DescentScenario]:
    """Every validated scenario within the campaign bounds, under the
    unramified hypothesis; deterministic lexicographic order.  Exponents are
    built as residues mod the lcm of 2 and every allowed order."""
    L = lcm(2, *spec.orders)
    for n in range(1, spec.max_rank + 1):
        for datum in levi_data(n):
            sizes, m = datum.sizes, datum.remainder
            for q in sorted(set(spec.q_values)):
                inventory = _orbit_inventory(spec.orders, L, q)
                gl_options = [list(_gl_multisets(inventory, L, q, s)) for s in sizes]
                for mp in range(m + 1):
                    md = m - mp
                    primes = list(_orthogonal_multisets(inventory, L, q, 2 * mp + 1))
                    dbls = list(_orthogonal_multisets(inventory, L, q, 2 * md + 1))
                    for eps_gl in itertools.product(*gl_options) if gl_options else [()]:
                        for eps_p in primes:
                            minus_p = sum(1 for x in eps_p.entries if x.is_minus_one)
                            tags_p = ["split"] if minus_p == 0 else ["split", "unram_nonsplit"]
                            for eps_d in dbls:
                                minus_d = sum(1 for x in eps_d.entries if x.is_minus_one)
                                tags_d = ["split"] if minus_d == 0 else ["split", "unram_nonsplit"]
                                for tag_p in tags_p:
                                    for tag_d in tags_d:
                                        yield DescentScenario(
                                            n=n,
                                            sizes=sizes,
                                            s0=EllipticDatumMeta(mp, md),
                                            q=q,
                                            eps_gl=tuple(eps_gl),
                                            eps_prime=eps_p,
                                            eps_dblprime=eps_d,
                                            form_class_prime=tag_p,
                                            form_class_dblprime=tag_d,
                                        )
