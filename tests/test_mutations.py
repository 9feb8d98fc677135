"""Code mutations that the checks must catch.

Each test applies one deliberate defect to the library with ``monkeypatch``
and asserts that a small campaign no longer passes, naming the laws that
fail, and where a law is blind to it, the pin that catches it (mutation
analysis: DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978).  A mutation that no law or pin catches would
mark a shortcut the checks cannot see, unless it is equivalent: the same
verdicts by another route, which its test records.
"""

from collections import Counter

import pytest

from endokit import ambient, campaign, enatural, endoscopy, indexsets, lattices, shape
from endokit.ambient import Ambient
from endokit.campaign import CampaignSpec, run_campaign
from endokit.qspaces import DSquared
from oracles import FAIL_COUNTS, INDEX_SWEEPS, block_orientations, index_sweep, rank3_outcomes, torus_volumes

RANK3 = CampaignSpec(max_rank=3, suites=("descent",))


def failed_records(rep) -> dict[str, int]:
    """The failed records of a report, counted by law."""
    return dict(Counter(r.check for r in rep.failures()))


def test_wrongly_keyed_ambient_memo(monkeypatch):
    """An ``Ambient`` memo keyed by the first member of each tuple key hands
    one Levi's or one twist's center, absorbed blocks and volume to every
    other: every law that reads the ``Ambient`` fails somewhere at rank 3."""
    original = Ambient._cached

    def wrongly_keyed(self, key, build):
        return original(self, key[0] if isinstance(key, tuple) else key, build)

    monkeypatch.setattr(Ambient, "_cached", wrongly_keyed)
    rep = run_campaign(CampaignSpec(max_rank=3, suites=("descent",)))
    assert {r.check for r in rep.failures()} == {
        "pushed-group",
        "instable-coefficient",
        "stable-coefficient",
        "coefficient-ratio",
        "transverse-volumes-match",
        "long-short-closed-form",
        "final-identity",
        "center-product-law",
        "stable-map-injective",
        "stable-map-bijective",
        "instable-map-surjective",
        "instable-fiber-law",
        "section-inverts-pushforward",
        "entry-count",
    }


def test_index_memo_keyed_by_first_group(monkeypatch):
    """A memo of ``diag_index`` keyed by its first group alone hands the
    index of one pair to every later pair with the same first group: the
    coefficient laws fail."""
    original = enatural.diag_index
    memo = {}

    def keyed_by_first(big, small):
        if big not in memo:
            memo[big] = original(big, small)
        return memo[big]

    monkeypatch.setattr(enatural, "diag_index", keyed_by_first)
    assert failed_records(run_campaign(RANK3)) == {
        "coefficient-ratio": 2159,
        "final-identity": 2065,
        "instable-coefficient": 456,
        "stable-coefficient": 2198,
    }


def test_intersection_memo_keyed_by_first_group(monkeypatch):
    """A memo of ``diag_intersect`` keyed by its first group alone hands one
    meet to every later pair with the same first group: the coefficient
    laws and the instable fiber law fail."""
    memo = {}

    def keyed_by_first(d1, d2):
        if d1 not in memo:
            memo[d1] = lattices.diag_intersect(d1, d2)
        return memo[d1]

    monkeypatch.setattr(enatural, "diag_intersect", keyed_by_first)
    assert failed_records(run_campaign(RANK3)) == {
        "coefficient-ratio": 1552,
        "final-identity": 1587,
        "instable-coefficient": 232,
        "instable-fiber-law": 130,
        "stable-coefficient": 1512,
    }


def test_symplectic_core_given_mu2(monkeypatch):
    """The Sp core of ``i_standard`` and the designated center of ``i_meta``
    given the diagonal mu_2 of the unitary core instead of no condition:
    both golden index ratios fail, and so do the pins of the ``i_meta`` and
    symplectic ``i_standard`` sweeps.  The unitary sweep, whose core is
    mu_2 already, keeps its pin."""
    center = endoscopy.diag_center

    def core_mu2(n, parts, groups=()):
        return center(n, [("mu2" if tag == "none" else tag, coords) for tag, coords in parts], groups)

    monkeypatch.setattr(endoscopy, "diag_center", core_mu2)
    assert failed_records(run_campaign(CampaignSpec(max_rank=0, suites=("goldens",)))) == {"golden-index-ratio": 2}
    pinned = {name: index_sweep(name) == INDEX_SWEEPS[name][1:] for name in INDEX_SWEEPS}
    assert pinned == {"i_meta": False, "i_standard-sp": False, "i_standard-u": True}


def test_unitary_halves_share_an_atom(monkeypatch):
    """A unitary slot's double-prime half given its prime half's atom, when
    that half has one, leaves its own atom to no part: every law but the two
    twist laws fails, on the same 62 records."""
    layout = ambient.atom_layout

    def shared(outcome):
        n, bc, up, ud, pm = layout(outcome)
        return n, bc, up, {eta: up[eta] or atoms for eta, atoms in ud.items()}, pm

    monkeypatch.setattr(ambient, "atom_layout", shared)
    twist_laws = ("sign-rule-vs-descent", "pushed-group")
    assert failed_records(run_campaign(RANK3)) == {law: 62 for law in campaign.DESCENT_LAWS if law not in twist_laws}


def test_empty_part_given_an_atom(monkeypatch):
    """An empty x'/y'/x''/y'' part given an atom of its own puts a free G_m
    into the torus: the volume and coefficient laws fail."""
    layout = ambient.atom_layout

    def every_part_an_atom(outcome):
        n, bc, up, ud, pm = layout(outcome)
        first = n - sum(len(atoms) for atoms in pm.values())  # the parts' atoms come last
        return first + len(pm), bc, up, ud, {name: (first + i,) for i, name in enumerate(pm)}

    monkeypatch.setattr(ambient, "atom_layout", every_part_an_atom)
    laws = (
        "center-product-law",
        "coefficient-ratio",
        "instable-coefficient",
        "long-short-closed-form",
        "stable-coefficient",
        "transverse-volumes-match",
    )
    assert failed_records(run_campaign(RANK3)) == {**{law: 1682 for law in laws}, "final-identity": 2063}


def test_degenerate_core_kept(monkeypatch):
    """A symplectic core whose even part is split of rank one kept as an
    elliptic datum: the instable index set gains data that no natural entry
    reaches."""
    monkeypatch.setattr(indexsets, "_degenerate", lambda home, y, klass: False)
    assert failed_records(run_campaign(RANK3)) == {"instable-map-surjective": 813}


def test_degenerate_even_part_kept(monkeypatch):
    """A split rank-one even part kept beside its GL(1) block form: the
    stable index set gains Levis that no natural entry reaches."""
    monkeypatch.setattr(indexsets, "_degenerate_even", lambda outcome, key, absorbed: False)
    assert failed_records(run_campaign(RANK3)) == {"stable-map-bijective": 813}


def test_double_prime_slot_in_plus_cell_is_equivalent(monkeypatch):
    """An equivalent mutation: a unitary core's class with its double-prime
    slot in the plus cell beside the prime slot.  It relabels the classes of
    each core one to one, so the rank-3 pairs stay as they are, clean and
    under every fault."""
    datum_class = indexsets._datum_class
    want = {f: run_campaign(CampaignSpec(max_rank=3, suites=("descent",), fault=f)).pairs for f in FAIL_COUNTS}
    reached = []

    def d_in_plus(amb, home, absorbed, signs):
        if home[0] == "sp":
            return datum_class(amb, home, absorbed, signs)
        slot = amb.slots[home[1]]
        reached.append(slot.k_dbl)
        plus = [b.bid for b, s in zip(absorbed, signs) if s == 1] + ["P"] * bool(slot.k_prime)
        minus = [b.bid for b, s in zip(absorbed, signs) if s == -1]
        plus += ["D"] * bool(slot.k_dbl)
        return home, frozenset(frozenset(cell) for cell in (plus, minus) if cell)

    monkeypatch.setattr(indexsets, "_datum_class", d_in_plus)
    for f, pairs in want.items():
        assert run_campaign(CampaignSpec(max_rank=3, suites=("descent",), fault=f)).pairs == pairs, f
    assert any(reached)


# Wrong volume factors that keep every zero where it is.
VOLUME_MUTATIONS = {
    "unit-value": lambda d_squared: lambda w, m, l: d if (d := d_squared(w, m, l)).is_zero else DSquared(1),
    "unit-weights": lambda d_squared: lambda w, m, l: d_squared((1,) * len(w), m, l),
}


@pytest.mark.parametrize("mutation", sorted(VOLUME_MUTATIONS))
def test_volume_value_reaches_no_law(monkeypatch, mutation):
    """A volume factor of 1 wherever it is nonzero, or one computed under
    the unit form instead of the block widths, fails no law at rank 3: the
    laws read only whether d is zero, and no witness prints it.  Only the
    comparison with the Fraction oracle in torus coordinates
    (``test_d_g_matches_ambient_coordinates``) catches it."""
    want = run_campaign(RANK3).pairs
    wrong = VOLUME_MUTATIONS[mutation](ambient.d_squared)
    monkeypatch.setattr(ambient, "d_squared", wrong)
    monkeypatch.setattr(indexsets, "d_squared", wrong)
    assert run_campaign(RANK3).pairs == want
    assert any(got != oracle for _, got, oracle in torus_volumes(rank3_outcomes(None)))


def test_identity_owner_order_is_equivalent(monkeypatch):
    """An equivalent mutation: a shape key built from the identity order of
    the Levi owners alone is still exact, only no longer canonical under
    block permutations.  The campaign checks the 1,223 raw shapes of the
    rank-3 corpus instead of its 1,137 classes, with the same verdicts."""
    check = campaign._check_outcome
    checked = []

    def counted(outcome):
        checked.append(outcome)
        return check(outcome)

    def identity_order(sizes, invariant):
        yield tuple(range(len(sizes)))

    monkeypatch.setattr(campaign, "_check_outcome", counted)
    want = run_campaign(RANK3)
    classes = len(checked)
    monkeypatch.setattr(shape, "_owner_orders", identity_order)
    got = run_campaign(RANK3)
    assert got.pairs == want.pairs and got.passed
    assert (classes, len(checked) - classes) == (1137, 1223)


# Members that the part tuple ``shape._block_part`` prints leaves out: the
# position each takes when put back, and its values for a block.
PART_MEMBERS = {
    "sbar0": (5, lambda outcome, b: (b.sbar0,)),
    "orientations": (8, block_orientations),
}


def add_part_member(monkeypatch, member):
    """``shape._block_part`` with ``member`` put back into every block's part."""
    block_part = shape._block_part
    i, values = PART_MEMBERS[member]

    def added(outcome, b):
        with monkeypatch.context() as m:
            m.setattr(shape, "_text", lambda part: repr((*part[:i], *values(outcome, b), *part[i:])))
            return block_part(outcome, b)

    monkeypatch.setattr(shape, "_block_part", added)


def rank3_class_counts():
    """The number of distinct ``outcome_shape`` keys of the rank-3 corpus,
    clean and under ``corrupt-sbar0``."""
    return tuple(len({shape.outcome_shape(o) for o in rank3_outcomes(f)}) for f in (None, "corrupt-sbar0"))


def test_part_with_orientations_is_equivalent(monkeypatch):
    """An equivalent mutation: a block part that holds its eta and eps
    orientations again splits rank-3 classes, 1,524 keys instead of the
    1,137 of ``CANONICAL_PARTITION`` (1,737 instead of 1,260 under
    ``corrupt-sbar0``), which the pin and the brute-force partition of
    ``test_canonical_key_matches_brute_force`` catch.  No law does: the split
    classes share their verdicts, since flipping a block's orientation
    inverts its atoms, an automorphism of the torus that every check
    respects.  So the failures stay those of ``FAIL_COUNTS``."""
    add_part_member(monkeypatch, "orientations")
    assert rank3_class_counts() == (1524, 1737)
    spec = CampaignSpec(max_rank=3, suites=("descent",), fault="corrupt-sbar0")
    assert failed_records(run_campaign(spec)) == FAIL_COUNTS["corrupt-sbar0"]


def test_part_with_sbar0_is_equivalent(monkeypatch):
    """An equivalent mutation: a block part that holds its base-point sign
    again splits no rank-3 class, clean or under ``corrupt-sbar0``, since
    the block's placements under the two constant twists carry the sign;
    so the key partitions the corpus as before and the failures are those
    of ``FAIL_COUNTS``."""
    add_part_member(monkeypatch, "sbar0")
    assert rank3_class_counts() == (1137, 1260)
    spec = CampaignSpec(max_rank=3, suites=("descent",), fault="corrupt-sbar0")
    assert failed_records(run_campaign(spec)) == FAIL_COUNTS["corrupt-sbar0"]
