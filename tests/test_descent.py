import itertools
import sys
from dataclasses import replace
from fractions import Fraction as F
from math import gcd, lcm

import oracles
import pytest

from endokit.ambient import Ambient, GEtaLevi, atom_layout, enumerate_levis, top_levi
from endokit.catalog import GroupType, gl, so_even, so_odd, sp, u
from endokit.descent import (
    DescentScenario,
    _centralizer_factors_counts,
    _exponent_counts,
    _pair_key_exp,
    _self_inverse_exp,
    compatibility_check,
    descend,
    exponent_modulus,
    gs_descended_types,
    is_self_inverse,
    neg_rep_exp,
    orbit_inverse,
    orbit_negate,
    orbit_of,
    pair_class_key,
    sigma,
    validate_scenario,
)
from endokit.enatural import enumerate_E_natural, pushed_group_check, verify_identities, verify_index_sets
from endokit.endoscopy import EigenMultiset, EllipticDatumMeta, correspond_mu
from endokit.errors import ScenarioValidationError
from endokit.indexsets import EStElement, build_E_st, enumerate_e_st, pushforward_levi, section_levi
from endokit.lattices import diag_identity_component, diag_index
from endokit.rootsofunity import RootOfUnity
from oracles import bottom_levi, general_assignments, general_twist_check, torus_layout

R = RootOfUnity
ONE = R.one()
MINUS = R.minus_one()


def z(num, den):
    return R.of(num, den)


def ms(*entries):
    return EigenMultiset.of(entries)


def centralizer_type(multiset, q, kind, form_tag_minus="split"):
    """The centralizer type of an element with eigenvalue multiset
    ``multiset``, ``kind`` "symplectic", "odd_orthogonal" or "gl", by the
    factor builder ``descend`` uses."""
    L = exponent_modulus((multiset,))
    return GroupType(_centralizer_factors_counts(_exponent_counts(multiset, L), L, q, kind, form_tag_minus))


def scenario(n, sizes, s0, q, eps_gl, eps_p, eps_d, tag_p="split", tag_d="split"):
    return DescentScenario(
        n=n,
        sizes=sizes,
        s0=EllipticDatumMeta(*s0),
        q=q,
        eps_gl=tuple(eps_gl),
        eps_prime=eps_p,
        eps_dblprime=eps_d,
        form_class_prime=tag_p,
        form_class_dblprime=tag_d,
    )


MINIMAL = scenario(1, (), (1, 0), 3, (), ms(ONE, ONE, ONE), ms(ONE))
ONE_BLOCK = scenario(1, (1,), (0, 0), 3, (ms(ONE),), ms(ONE), ms(ONE))
UNITARY = scenario(3, (2,), (0, 1), 3, (ms(z(1, 4), z(3, 4)),), ms(ONE), ms(MINUS, ONE, MINUS))
PAIRS = scenario(
    3, (1,), (1, 1), 7, (ms(ONE),), ms(z(1, 3), ONE, z(2, 3)), ms(z(1, 6), ONE, z(5, 6))
)
MIXED = scenario(
    5,
    (5,),
    (0, 0),
    5,
    (ms(ONE, ONE, MINUS, z(1, 3), z(2, 3)),),
    ms(ONE),
    ms(ONE),
)
# order-16 eigenvalues at q = 11: the modulus 16 does not divide 120, the
# modulus of the default corpus; {1, 3, 9, 11}/16 and its inverse pair up
ORDER_16 = scenario(
    5, (1,), (4, 0), 11, (ms(MINUS),), ms(ONE, *(z(k, 16) for k in range(1, 16, 2))), ms(ONE)
)
CORPUS = [MINIMAL, ONE_BLOCK, UNITARY, PAIRS, MIXED, ORDER_16]


class TestValidation:
    def test_accepts_minimal(self):
        assert validate_scenario(MINIMAL) is MINIMAL

    def test_rejects_unstable_orbit(self):
        bad = scenario(1, (1,), (0, 0), 3, (ms(z(1, 5)),), ms(ONE), ms(ONE))
        with pytest.raises(ScenarioValidationError) as exc:
            validate_scenario(bad)
        # the exponent prints as a fraction, not as its residue mod 10
        assert str(exc.value) == "block 0: multiset is not Frobenius stable at exponent 1/5 (q=3)"

    def test_rejects_orthogonal_without_one(self):
        bad = scenario(1, (), (1, 0), 3, (), ms(MINUS, MINUS, ONE), ms(MINUS))
        with pytest.raises(ScenarioValidationError):
            validate_scenario(bad)

    def test_rejects_q_not_coprime(self):
        bad = scenario(2, (2,), (0, 0), 3, (ms(z(1, 3), z(2, 3)),), ms(ONE), ms(ONE))
        with pytest.raises(ScenarioValidationError, match="coprime"):
            validate_scenario(bad)

    def test_rejects_even_q(self):
        bad = scenario(1, (1,), (0, 0), 4, (ms(ONE),), ms(ONE), ms(ONE))
        with pytest.raises(ScenarioValidationError, match="odd"):
            validate_scenario(bad)

    def test_roundtrip_json(self):
        text = UNITARY.to_json()
        assert DescentScenario.from_json(text) == UNITARY

    def test_roundtrip_digest(self):
        from endokit.campaign import CampaignSpec, scenario_corpus

        corpus = list(scenario_corpus(CampaignSpec(max_rank=3)))
        assert len(corpus) == 3154
        ram = scenario(2, (), (0, 2), 3, (), ms(ONE), ms(MINUS, MINUS, ONE, MINUS, MINUS), "split", "ramified")
        for sc in [*CORPUS, ram, *corpus]:
            assert DescentScenario.from_digest(sc.digest()) == sc, sc.digest()


def as_fractions(residues, L):
    return frozenset(F(r, L) for r in residues)


class TestResidueKernel:
    """The int residue kernel against the Fraction slow path of ``oracles``:
    every exponent j/N with N <= 16 coprime to q, under three moduli L per
    N, mapped back through r -> r/L."""

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
    def test_orbits_match_fraction_oracle(self, q):
        checked = 0
        for n in range(1, 17):
            if gcd(n, q) != 1:
                continue
            for L in (lcm(2, n), 3 * lcm(2, n), lcm(2, *range(1, 17))):
                for j in range(n):
                    if gcd(j, n) != 1:
                        continue
                    r = j * (L // n)
                    orb = orbit_of(r, L, q)
                    want = oracles.orbit_of(F(j, n), q)
                    inverse = oracles.orbit_inverse(want)
                    assert as_fractions(orb, L) == want
                    assert as_fractions(orbit_inverse(orb, L), L) == inverse
                    assert as_fractions(orbit_negate(orb, L), L) == oracles.orbit_negate(want)
                    assert F(pair_class_key(orb, L), L) == oracles.pair_class_key(want)
                    assert is_self_inverse(orb, L) == (want == inverse)
                    assert F(_pair_key_exp(r, L, q), L) == oracles.pair_class_key(want)
                    assert F(neg_rep_exp(r, L, q), L) == min(oracles.orbit_negate(want))
                    assert _self_inverse_exp(r, L, q) == (want == inverse)
                    checked += 1
        assert checked >= 3 * 16

    def test_modulus_outside_the_default_corpus(self):
        sc = ORDER_16
        assert sc.modulus == 16
        assert DescentScenario.from_json(sc.to_json()) == sc  # the digest: test_roundtrip_digest
        o = descend(sc)
        levi, pulled = o.blocks
        assert (levi.home, levi.eta_exp, levi.ext) == (("sp", -1), 8, 1)
        assert (pulled.origin, pulled.home, pulled.eta_exp, pulled.ext) == ("pair_prime", ("gl", 1), 1, 4)
        assert o.homes == (("gl", 1), ("sp", -1))
        assert o.g_eta() == GroupType.of(sp(0), sp(1), gl(1, 4))

    def test_derived_data_follows_replace(self):
        o = descend(MIXED)
        assert o.homes is o.homes
        head = replace(o, blocks=o.blocks[:1])
        assert head.home_blocks(o.blocks[0].home) == o.blocks[:1]
        assert len(head.homes) < len(o.homes)


class TestCentralizerTypes:
    def test_self_inverse_orbit_gives_unitary(self):
        got = centralizer_type(ms(z(1, 4), z(3, 4)), 3, "symplectic")
        assert got == GroupType.of(u(1, 1))

    def test_plus_ones_give_symplectic(self):
        assert centralizer_type(ms(ONE, ONE), 3, "symplectic") == GroupType.of(sp(1))

    def test_split_orbit_pair_gives_gl(self):
        # order-3 values split into two singleton orbits at q == 1 mod 3
        got = centralizer_type(ms(z(1, 3), z(2, 3)), 7, "symplectic")
        assert got == GroupType.of(gl(1, 1))

    def test_orthogonal_kinds(self):
        got = centralizer_type(ms(ONE, ONE, ONE, MINUS, MINUS), 3, "odd_orthogonal", "unram_nonsplit")
        assert got == GroupType.of(so_odd(1), so_even(1, "unram_nonsplit"))

    def test_gl_kind_orbit_blocks(self):
        got = centralizer_type(ms(ONE, MINUS, z(1, 4), z(3, 4)), 3, "gl")
        assert got == GroupType.of(gl(1), gl(1), gl(1, 2))

    def test_eta_from_epsilon(self):
        sc = scenario(1, (), (1, 0), 3, (), ms(z(1, 3), ONE, z(2, 3)), ms(ONE))
        assert correspond_mu(sc.eps_prime, sc.eps_dblprime, sc.s0) == EigenMultiset.symplectic([z(1, 3), z(2, 3)])

    def test_eta_negates_second_side(self):
        sc = scenario(1, (), (0, 1), 3, (), ms(ONE), ms(MINUS, ONE, MINUS))
        assert correspond_mu(sc.eps_prime, sc.eps_dblprime, sc.s0) == EigenMultiset.symplectic([ONE, ONE])


class TestOutcomeStructure:
    def test_minimal(self):
        o = descend(MINIMAL)
        assert not o.blocks and not o.u_slots
        assert o.r_group() == GroupType.of(sp(1))
        assert o.mexc() == GroupType.of(so_odd(1))
        assert o.g_eta() == GroupType.of(sp(1))

    def test_unitary_pull(self):
        o = descend(UNITARY)
        assert o.pulled_dbl and not o.pulled_prime
        assert o.r_group() == GroupType.of(gl(1), gl(1, 2))
        # the honest centralizer keeps the split rank-one even part
        assert so_even(1, "split") in o.mexc().factors
        assert o.mexc_reduced() == GroupType.of(gl(1), gl(1, 2))

    def test_base_point_signs(self):
        o = descend(UNITARY)
        by_origin = {b.origin: b.sbar0 for b in o.blocks}
        assert by_origin == {"levi": 1, "so2_dbl": -1}

    def test_pair_blocks_merge_homes(self):
        o = descend(PAIRS)
        gl_homes = {b.home for b in o.blocks if b.home[0] == "gl"}
        assert len(gl_homes) == 1  # the two sides negate onto one orbit pair
        assert o.g_eta() == GroupType.of(sp(1), gl(2, 1))

    def test_layout_widths(self):
        o = descend(UNITARY)
        n, blocks, u_prime, u_dbl, pm = torus_layout(o)
        assert n == sum(b.width for b in o.blocks) + sum(
            2 * s.d * (s.k_prime + s.k_dbl) for s in o.u_slots
        ) + o.x_prime + o.y_prime + o.x_dbl + o.y_dbl
        parts = [*blocks.values(), *u_prime.values(), *u_dbl.values(), *pm.values()]
        assert sorted(c for part in parts for c in part) == list(range(n))
        # one atom per non-empty part, blocks first in block order
        n_atoms, atom_blocks, _, _, _ = atom_layout(o)
        assert n_atoms == sum(1 for part in parts if part) < n
        assert atom_blocks == {b.bid: (i,) for i, b in enumerate(o.blocks)}


class TestPlacementAgreement:
    @pytest.mark.parametrize("sc", CORPUS, ids=lambda s: s.digest()[:24])
    def test_sign_rule_matches_descent(self, sc):
        o = descend(sc)
        for t in itertools.product((1, -1), repeat=o.i_count):
            assert compatibility_check(o, t)

    def test_detects_corruption(self):
        import dataclasses

        o = descend(ONE_BLOCK)
        bad_block = dataclasses.replace(o.blocks[0], sbar0=-1)
        bad = dataclasses.replace(o, blocks=(bad_block,))
        assert not compatibility_check(bad, (1,))


class TestPushedGroups:
    @pytest.mark.parametrize("sc", CORPUS, ids=lambda s: s.digest()[:24])
    def test_ascent_matches_descent(self, sc):
        o = descend(sc)
        amb = Ambient(o)
        for t in itertools.product((1, -1), repeat=o.i_count):
            assert pushed_group_check(amb, t)

    def test_bottom_levi_pushes_to_matched_group(self):
        o = descend(UNITARY)
        amb = Ambient(o)
        t = (1,)
        bar_side, odd_side = amb.pushed_types(bottom_levi(o), t)
        from endokit.catalog import bar as bar_op

        assert bar_side == bar_op(o.mexc_reduced())
        assert odd_side == o.mexc_reduced()

    def test_general_twists(self):
        for sc in [ONE_BLOCK, UNITARY, PAIRS]:
            o = descend(sc)
            amb = Ambient(o)
            for asg in general_assignments(o.i_count):
                assert general_twist_check(amb, asg), (sc.digest(), asg)


class TestIndexSets:
    @pytest.mark.parametrize("sc", CORPUS, ids=lambda s: s.digest()[:24])
    def test_index_set_laws(self, sc):
        o = descend(sc)
        amb = Ambient(o)
        checks = verify_index_sets(amb, enumerate_E_natural(amb))
        assert all(checks.values()), checks

    def test_known_entry_counts(self):
        assert len(enumerate_E_natural(Ambient(descend(MINIMAL)))) == 1
        assert len(enumerate_E_natural(Ambient(descend(ONE_BLOCK)))) == 1
        assert len(enumerate_E_natural(Ambient(descend(MIXED)))) == 5

    def test_pushforward_section_roundtrip(self):
        o = descend(MIXED)
        amb = Ambient(o)
        for entry in enumerate_E_natural(amb):
            image = pushforward_levi(amb, entry.t, entry.levi)
            assert section_levi(amb, image) == entry.levi

    def test_est_elements_have_matching_count(self):
        o = descend(PAIRS)
        amb = Ambient(o)
        assert len(build_E_st(amb)) == len(enumerate_E_natural(amb))


class TestCanonicalConstructors:
    """``GEtaLevi`` and ``EStElement`` normalize the raw groups they are
    given: members sorted by block id, leading sign +1, groups sorted."""

    @staticmethod
    def _scrambled(group):
        # members reversed and every sign flipped: after sorting, the
        # leading sign is -1
        return tuple((bid, -e) for bid, e in reversed(group))

    def test_raw_groups_give_the_normalized_object(self):
        # two +1 blocks: groups of both blocks on either side
        two_plus = scenario(2, (1, 1), (0, 0), 3, (ms(ONE), ms(ONE)), ms(ONE), ms(ONE))
        shared = 0  # stable-side groups of more than one block
        for sc in [*CORPUS, two_plus]:
            o = descend(sc)
            for levi in enumerate_levis(o):
                assert GEtaLevi(tuple(self._scrambled(g) for g in reversed(levi.groups))) == levi
            for t in o.twists:
                for elem in enumerate_e_st(o, t):
                    raw = tuple((key, self._scrambled(g)) for key, g in reversed(elem.groups))
                    assert EStElement(t, raw) == elem
                    shared += sum(len(g) > 1 for _, g in elem.groups)
        assert shared

    def test_members_out_of_order(self):
        assert GEtaLevi((((2, 1), (0, -1)), ((1, 1),))) == GEtaLevi((((1, 1),), ((0, 1), (2, -1))))
        raw = EStElement((1,), ((("p", "gl", 1), ((3, -1), (1, 1))), (("p", "odd"), ((0, -1),))))
        assert raw.groups == ((("p", "gl", 1), ((1, 1), (3, -1))), (("p", "odd"), ((0, 1),)))


class TestCoefficientIdentities:
    @pytest.mark.parametrize("sc", CORPUS, ids=lambda s: s.digest()[:24])
    def test_all_identities(self, sc):
        o = descend(sc)
        amb = Ambient(o)
        entries = enumerate_E_natural(amb)
        for entry in entries:
            checks = verify_identities(amb, entry)
            assert all(checks.values()), (entry.t, entry.levi.groups, checks)

    def test_minimal_collapses_to_one(self):
        o = descend(MINIMAL)
        entry = enumerate_E_natural(Ambient(o))[0]
        assert entry.c_inst_rat == 1 and entry.c_st_rat == 1
        assert entry.dsq.value == 1

    def test_one_block_values(self):
        o = descend(ONE_BLOCK)
        entry = enumerate_E_natural(Ambient(o))[0]
        assert entry.t == (1,)
        assert entry.c_inst_rat == 1
        assert entry.c_st_rat == F(1, 2)
        assert entry.lsbar_type == GroupType.of(sp(1))
        assert entry.leps_type == GroupType.of(so_odd(1))

    def test_rational_parts_are_powers_of_two(self):
        for sc in CORPUS:
            o = descend(sc)
            amb = Ambient(o)
            for entry in enumerate_E_natural(amb):
                for v in (entry.c_inst_rat, entry.c_st_rat):
                    x = v.numerator * v.denominator
                    assert x & (x - 1) == 0

    def test_volume_parts_match(self):
        for sc in CORPUS:
            o = descend(sc)
            amb = Ambient(o)
            for entry in enumerate_E_natural(amb):
                assert entry.dsq == entry.dsq_st


class TestDescendedTypes:
    def test_types_with_twist(self):
        o = descend(ONE_BLOCK)
        full_plus, bar_plus = gs_descended_types(o, (1,))
        assert full_plus == GroupType.of(so_odd(1))
        full_minus, bar_minus = gs_descended_types(o, (-1,))
        assert full_minus == GroupType.of(so_even(1, "split"))
        assert bar_minus == full_minus  # no odd factor to swap

    def test_kernel_class_preserved(self):
        sc = scenario(
            2, (1,), (0, 1), 3, (ms(ONE),), ms(ONE), ms(MINUS, ONE, MINUS), "split", "unram_nonsplit"
        )
        o = descend(sc)
        full, _ = gs_descended_types(o, (-1,))
        assert so_even(2, "unram_nonsplit") in full.factors


class TestSplitOrbitExample:
    def test_order_five_orbits_split_at_q_eleven(self):
        # q == 1 mod 5: singleton orbits, mutually inverse, so a GL pair
        got = centralizer_type(ms(z(1, 5), z(4, 5)), 11, "symplectic")
        assert got == GroupType.of(gl(1, 1))
        # q == 3: one self-inverse orbit of size four, a unitary factor
        got = centralizer_type(ms(z(1, 5), z(2, 5), z(3, 5), z(4, 5)), 3, "symplectic")
        assert got == GroupType.of(u(1, 2))


class TestTwistHomomorphism:
    def test_tau_spreads_diagonally(self):
        o = descend(MIXED)
        t = (-1,)
        for b in o.blocks:
            assert sigma(b, t) == b.sbar0 * (t[b.owner] if b.origin == "levi" else 1)

    def test_kernel_of_top_levi(self):
        from endokit.enatural import tau_L_kernel

        # the symplectic big centralizer has trivial dual center
        o = descend(ONE_BLOCK)
        amb = Ambient(o)
        assert tau_L_kernel(amb, top_levi(o)).order() == 1
        # a unitary factor swallowing the whole block contributes two signs
        o = descend(UNITARY)
        amb = Ambient(o)
        kern = tau_L_kernel(amb, top_levi(o))
        assert kern.is_finite and kern.order() == 2

    def test_kernel_matches_fiber_size(self):
        from endokit.enatural import tau_L_kernel
        from endokit.indexsets import einst_canon

        o = descend(MIXED)
        amb = Ambient(o)
        entries = enumerate_E_natural(amb)
        fibers = {}
        for e in entries:
            key = (e.levi, einst_canon(amb, e.levi, e.t))
            fibers[key] = fibers.get(key, 0) + 1
        for (levi, _), count in fibers.items():
            assert tau_L_kernel(amb, levi).order() == count


class TestBlockCoordinateShortcut:
    """``Ambient.d_g`` computes in weighted block coordinates; it must equal
    the Fraction oracle's coefficient in ambient torus coordinates under the
    unit form."""

    def test_d_g_matches_ambient_coordinates(self):
        volumes = oracles.torus_volumes(oracles.rank3_outcomes(None))
        assert [(levi, got) for levi, got, want in volumes if got != want] == []
        assert len(volumes) > 100, len(volumes)


class TestAtomCoordinates:
    """``Ambient`` builds every center on atoms; an ``Ambient`` on torus
    coordinates, one per eigenvalue, must give the same results."""

    @staticmethod
    def _results(o):
        amb = Ambient(o)
        twists = list(itertools.product((1, -1), repeat=o.i_count))
        entries = enumerate_E_natural(amb)
        centers = [amb.z_meta_m(), amb.z_mexc(), amb.z_r(), amb.z_r0(), amb.z_mexcbar(), amb.z_mexceps()]
        centers += [amb.z_gs(t) for t in twists]
        centers += [amb.z_l(levi) for levi in enumerate_levis(o)]
        centers += [amb.z_pushed(e.levi, e.t, odd_side=side) for e in entries for side in (False, True)]
        return (
            entries,
            [verify_identities(amb, e) for e in entries],
            verify_index_sets(amb, entries),
            [pushed_group_check(amb, t) for t in twists],
            # the dimension and the component-group order: for a finite
            # center, its order
            [(z.dim, diag_index(z, diag_identity_component(z))) for z in centers],
        )

    @pytest.mark.parametrize("fault", [None, "corrupt-sbar0"])
    def test_atoms_match_torus_coordinates(self, fault, monkeypatch):
        from endokit import ambient
        from endokit.campaign import CampaignSpec, _corrupt_sbar0, scenario_corpus

        outcomes = []
        for sc in scenario_corpus(CampaignSpec(max_rank=3, suites=("descent",))):
            o = descend(sc)
            outcomes.append(_corrupt_sbar0(o) if fault == "corrupt-sbar0" else o)
        on_atoms = [self._results(o) for o in outcomes]
        monkeypatch.setattr(ambient, "atom_layout", torus_layout)
        narrower = 0
        for o, want in zip(outcomes, on_atoms):
            assert Ambient(o).n == torus_layout(o)[0]
            narrower += atom_layout(o)[0] < torus_layout(o)[0]
            assert self._results(o) == want, o.scenario.digest()
        assert narrower > len(outcomes) // 2, (narrower, len(outcomes))


class TestDerivedOnce:
    """What an outcome and its ``Ambient`` derive once equals a fresh
    recomputation, after the checks of a shape miss have used them."""

    @pytest.mark.parametrize("fault", [None, "corrupt-sbar0"])
    def test_held_levis_and_twists_match_recomputation(self, fault):
        from endokit.campaign import CampaignSpec, _corrupt_sbar0, scenario_corpus

        for sc in scenario_corpus(CampaignSpec(max_rank=3, suites=("descent",))):
            o = descend(sc)
            o = _corrupt_sbar0(o) if fault else o
            amb = Ambient(o)
            for t in o.twists:
                pushed_group_check(amb, t)
            enumerate_E_natural(amb)
            assert o.twists == tuple(itertools.product((1, -1), repeat=o.i_count))
            assert amb.transverse_levis == tuple(levi for levi in enumerate_levis(o) if amb.transverse(levi.groups))
            assert amb.top_levi == top_levi(o)


class TestMemoTables:
    """Memoized lattice-level results equal what recomputation gives."""

    @staticmethod
    def _clear_memo_tables():
        """Clear every memo table of every loaded endokit module, so a table
        added later cannot be left out."""
        tables = {
            id(value): value
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "endokit"
            for value in vars(module).values()
            if hasattr(value, "cache_clear")
        }
        for table in tables.values():
            table.cache_clear()

    @pytest.mark.parametrize("fault", [None, "corrupt-sbar0"])
    def test_cold_caches_reproduce_warm_records(self, fault):
        from endokit.campaign import CampaignSpec, _check_outcome, _corrupt_sbar0
        from endokit.corpus import scenario_corpus

        outcomes = []
        for sc in scenario_corpus(CampaignSpec(max_rank=3, suites=("descent",))):
            o = descend(sc)
            outcomes.append(_corrupt_sbar0(o) if fault == "corrupt-sbar0" else o)
        warm = [_check_outcome(o) for o in outcomes]
        for o, records in zip(outcomes, warm):
            self._clear_memo_tables()
            assert _check_outcome(o) == records, o.scenario.digest()
