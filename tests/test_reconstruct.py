"""Blind reconstruction: bundles, norm recovery, greedy chains, zeta, drivers."""

import contextlib
import copy
import json
import random
import threading
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classrecon import reconstruct
from classrecon.codec import bundle_from_json, report_to_json
from classrecon.abgroup import FinGenAbGroup, integer_nth_root
from classrecon.errors import LimitExceeded
from classrecon.fields import SyntheticSpec, enumerate_prime_ideals, synthetic_spec_from_json
from classrecon.forms import QuadraticSpec, class_group
from classrecon.lattice import (
    add_chain_entries,
    build_bundle,
    bundle_to_json,
    compare_fields,
    index_and_relations,
    prime_terms,
    quotient_from_terms,
    roundtrip,
)
from classrecon.oracle import ClassGroupModel, primary_decomposition
from classrecon.reconstruct import (
    BundleEntryMissing,
    InsufficientGenerators,
    InvariantBundle,
    MalformedBundle,
    _check_torsion,
    greedy_primary_factors,
    p_part,
    reconstruct_all,
    reconstruct_class_group,
    recover_class_number,
    recover_norm,
    recover_norms,
    subgroup_order_from_bundle,
    zeta_coefficients,
)

from helpers import (
    ODD_PRIME_POWERS,
    bundle_carrying,
    datum,
    load_spec,
    random_finite_group,
    random_generating_family,
    random_synthetic_spec,
    reference_greedy_primary_factors,
)


@st.composite
def groups_with_generating_families(draw):
    """A random group of order at most 512 and a family of 1-8 generators."""
    rng = draw(st.randoms(use_true_random=False))
    group = random_finite_group(rng, max_order=512)
    return group, random_generating_family(rng, group, draw(st.integers(1, 8)))


def bundle_for_disc(d, bound=50):
    spec = QuadraticSpec(d)
    group = class_group(spec)
    primes = enumerate_prime_ideals(spec, bound)
    return group, primes, build_bundle(group, primes)


def reconstruct_group(bundle):
    """`reconstruct_class_group` given the checked class number and the norms."""
    recover_class_number(bundle)
    return reconstruct_class_group(bundle, recover_norms(bundle))


class TestBuildBundle:
    def test_trivial_group_single_prime(self):
        group = FinGenAbGroup(())
        bundle = build_bundle(group, [datum("p", 5, ())])
        assert bundle.rank == 1
        assert bundle.entry(["p"]).factors == (4,)

    def test_disc_minus_20_entries(self):
        group = class_group(QuadraticSpec(-20))
        primes = [
            datum("p_3", 3, (1,)),
            datum("p_7", 7, (1,)),
            datum("p_11", 121, (0,), 11),
        ]
        bundle = build_bundle(group, primes)
        assert bundle.rank == 2
        assert bundle.entry(["p_3"]).factors == (8,)
        assert bundle.entry(["p_11"]).factors == (120, 120)
        assert bundle.entry(["p_3", "p_7"]).factors == (4,)

    def test_empty_prime_list(self):
        group = FinGenAbGroup((2,))
        bundle = build_bundle(group, [])
        assert bundle.entry(()).factors == (0, 0)
        assert bundle.labels == ()

    def test_unknown_label_rejected(self):
        group = FinGenAbGroup((2,))
        with pytest.raises(BundleEntryMissing, match=r"\['b'\] are not in the bundle"):
            build_bundle(group, [datum("a", 3, (1,))]).entry(["b"])

    def test_duplicate_labels_rejected(self):
        group = FinGenAbGroup((2,))
        with pytest.raises(MalformedBundle, match="duplicate labels"):
            build_bundle(group, [datum("a", 3, (1,)), datum("a", 7, (1,))])

    def test_entries_are_computed_when_first_asked_for(self):
        # the empty set and every singleton are made as the bundle is built,
        # a larger set once, when it is first asked for
        group = FinGenAbGroup((2,))
        primes = [datum("a", 3, (1,)), datum("b", 7, (1,))]
        bundle = build_bundle(group, primes)
        ta, tb = prime_terms(group, primes)
        fixed = {
            frozenset(): quotient_from_terms(group, [], 2),
            frozenset({"a"}): quotient_from_terms(group, [ta], 2),
            frozenset({"b"}): quotient_from_terms(group, [tb], 2),
        }
        assert bundle.entries == fixed
        asked, compute = [], bundle.compute
        bundle.compute = lambda key: asked.append(key) or compute(key)
        pair = bundle.entry(["b", "a"])
        assert pair == quotient_from_terms(group, [ta, tb], 2)
        assert bundle.entries == {**fixed, frozenset({"a", "b"}): pair}
        assert bundle.entry(["a", "b"]) is pair
        assert bundle.entry(["a"]) == fixed[frozenset({"a"})]
        assert asked == [frozenset({"a", "b"})]

    def test_static_bundle_refuses_unknown_subsets(self):
        group = FinGenAbGroup((2,))
        built = bundle_carrying(group, [datum("a", 3, (1,)), datum("b", 7, (1,))])
        bundle = InvariantBundle(rank=built.rank, labels=built.labels, entries=built.entries)
        with pytest.raises(BundleEntryMissing):
            bundle.entry(["a", "b"])

    def test_memoization_under_threads(self):
        group, primes, bundle = bundle_for_disc(-20, 30)
        key = tuple(p.label for p in primes if p.norm % 2)[:2]
        results = []

        def worker():
            results.append(bundle.entry(key))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({g.factors for g in results}) == 1


class TestRecoverBasics:
    def test_class_numbers(self):
        for d, h in [(-4, 1), (-20, 2), (-23, 3)]:
            _, _, bundle = bundle_for_disc(d, 30)
            assert recover_class_number(bundle) == h

    def test_torsion_in_empty_entry_rejected(self):
        bundle = InvariantBundle(
            rank=2,
            labels=("a",),
            entries={
                frozenset(): FinGenAbGroup((2, 0)),
                frozenset({"a"}): FinGenAbGroup((8,)),
            },
        )
        with pytest.raises(MalformedBundle):
            recover_class_number(bundle)

    def test_norm_recovery_examples(self):
        group, primes, bundle = bundle_for_disc(-20, 130)
        for p in primes:
            factors = bundle.entry((p.label,)).factors
            assert recover_norm(factors, p.label, recover_class_number(bundle)) == p.norm
        factors = bundle.entry(("p_11",)).factors
        assert recover_norm(factors, "p_11", recover_class_number(bundle)) == 121

    def test_rank_one_norm_recovery(self):
        group = FinGenAbGroup(())
        bundle = build_bundle(group, [datum("p", 5, ())])
        assert bundle.entry(["p"]).factors == (4,)
        assert recover_norm((4,), "p", recover_class_number(bundle)) == 5

    def test_trivial_singleton_entry_means_norm_two(self):
        # ramified prime above 2 when the class group is trivial
        _, primes, bundle = bundle_for_disc(-4, 10)
        assert bundle.entry(["p_2"]).factors == ()
        assert recover_norm((), "p_2", recover_class_number(bundle)) == 2

    def test_odd_norm_flags(self):
        _, primes, bundle = bundle_for_disc(-20, 130)
        recover_class_number(bundle)
        norms = recover_norms(bundle)
        flags = {l: n % 2 == 1 for l, n in norms.items()}
        assert flags["p_2"] is False
        assert flags["p_3"] is True
        assert flags["p_11"] is True  # norm 121

    def test_malformed_singletons(self):
        base = {
            frozenset(): FinGenAbGroup((0, 0)),
            frozenset({"a"}): FinGenAbGroup((7,)),  # 8 is not a square
            frozenset({"b"}): FinGenAbGroup((2, 4)),  # not homogeneous
            frozenset({"c"}): FinGenAbGroup((8, 0)),  # free part
        }
        bundle = InvariantBundle(rank=2, labels=("a", "b", "c"), entries=base)
        for label in "abc":
            with pytest.raises(MalformedBundle):
                recover_norm(bundle.entry((label,)).factors, label, recover_class_number(bundle))


@st.composite
def roots_and_orders(draw):
    """Roots to 2000 with orders to 5000, or roots past 2**50 with orders to 4."""
    if draw(st.booleans()):
        return draw(st.integers(2, 2000)), draw(st.integers(1, 5000))
    return draw(st.integers(2**50, 2**64)), draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(roots_and_orders(), st.sampled_from([-1, 0, 1]))
@example((293, 26629), 0)
@example((2**53 + 1, 3), 0)  # a root no double holds
def test_exact_root_agrees_with_newton(case, offset):
    # Norm recovery takes exact roots with `integer_nth_root`, which confirms
    # a rounded root with one power before any Newton step.  On powers and
    # on their neighbours it must answer as sympy's integer root does.
    root, n = case
    x = root**n + offset
    want, exact = sympy.integer_nthroot(x, n)
    assert integer_nth_root(x, n) == (int(want) if exact else None)


class TestSubgroupOrders:
    def test_disc_minus_20(self):
        _, _, bundle = bundle_for_disc(-20, 30)
        recover_class_number(bundle)
        assert subgroup_order_from_bundle(bundle, ["p_3"]) == 2
        assert subgroup_order_from_bundle(bundle, ["p_29"]) == 1
        assert subgroup_order_from_bundle(bundle, ["p_3", "p_7"]) == 2


def first_label_of_each_singleton(bundle):
    """The first label of each distinct singleton entry, in label order."""
    first = {}
    for label in bundle.labels:
        first.setdefault(bundle.entry((label,)).factors, label)
    return list(first.values())


class TestNormRecoveryCount:
    """`recover_norm` runs once per distinct singleton entry, at its first
    label, and every label still gets its norm."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting(factors, label, h):
            calls.append(label)
            return recover_norm(factors, label, h)

        monkeypatch.setattr(reconstruct, "recover_norm", counting)
        return calls

    def test_reconstruct_all_recovers_each_norm_once(self, counted):
        _, primes, bundle = bundle_for_disc(-1031, 100)
        report = reconstruct_all(bundle)
        assert counted == first_label_of_each_singleton(bundle)
        assert len(counted) < len(bundle.labels)
        assert report.norms == {p.label: p.norm for p in primes}

    def test_compare_recovers_each_norm_once(self, counted):
        compare_fields(QuadraticSpec(-3299), QuadraticSpec(-2408), 100)
        firsts = [
            label
            for d in (-3299, -2408)
            for label in first_label_of_each_singleton(bundle_for_disc(d, 100)[2])
        ]
        assert counted == firsts

    def test_reconstruct_all_tests_each_norm_once(self, monkeypatch):
        _, primes, bundle = bundle_for_disc(-1031, 100)
        tested = []
        is_prime_power = reconstruct.is_prime_power
        monkeypatch.setattr(
            reconstruct, "is_prime_power", lambda n: tested.append(n) or is_prime_power(n)
        )
        reconstruct_all(bundle)
        norm_of = {p.label: p.norm for p in primes}
        assert tested == [norm_of[l] for l in first_label_of_each_singleton(bundle)]

    def test_conjugate_labels_share_one_root(self, counted, monkeypatch):
        # at -1031 the prime 3 splits: p_3 and p_3c have inverse classes,
        # hence one singleton entry, and one root is taken for both
        _, primes, bundle = bundle_for_disc(-1031, 100)
        assert bundle.entry(("p_3",)) == bundle.entry(("p_3c",))
        roots = []
        nth_root = reconstruct.integer_nth_root
        monkeypatch.setattr(
            reconstruct, "integer_nth_root", lambda x, n: roots.append(x) or nth_root(x, n)
        )
        recover_class_number(bundle)
        norms = recover_norms(bundle)
        assert norms["p_3"] == norms["p_3c"] == 3
        assert "p_3" in counted and "p_3c" not in counted
        assert roots.count(bundle.entry(("p_3",)).factors[0] + 1) == 1

    def test_each_singleton_entry_is_read_once(self, monkeypatch):
        # `recover_norm` is handed the entry `recover_norms` read, so a
        # label whose entry starts a new root costs no second read
        _, _, bundle = bundle_for_disc(-1031, 100)
        read = []
        entry = InvariantBundle.entry

        def counting(self, labels):
            read.append(labels)
            return entry(self, labels)

        monkeypatch.setattr(InvariantBundle, "entry", counting)
        recover_norms(bundle)
        assert read == [(label,) for label in bundle.labels]


class TestGreedyChain:
    def direct_order_oracle(self, group, family):
        labels = [str(i) for i in range(len(family))]
        members = dict(zip(labels, family))

        def subgroup_order(key):
            gens = [members[l] for l in key]
            return group.order() // index_and_relations(gens, group.factors)[0]

        return labels, subgroup_order

    def test_recovers_primary_decomposition(self):
        rng = random.Random(21)
        for _ in range(60):
            group = random_finite_group(rng, max_order=512)
            family = random_generating_family(rng, group, rng.randint(1, 8))
            labels, order_fn = self.direct_order_oracle(group, family)
            recovered = {}
            for p in sorted(primary_decomposition(group)):
                p_order = p_part(group.order(), p)
                parts = greedy_primary_factors(p, p_order, labels, order_fn)
                recovered[p] = sorted(parts)
            assert recovered == primary_decomposition(group)

    @settings(max_examples=150, deadline=None)
    @given(groups_with_generating_families(), st.integers(0, 2**32))
    @example(
        (
            FinGenAbGroup((2, 2, 4)),
            [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 0, 2), (0, 1, 0), (0, 1, 2)],
        ),
        99,
    )
    def test_tie_break_invariance(self, case, seed):
        # The chain picks the first maximizer it queries; reordering the
        # candidates changes which one that is, never the factors.
        group, family = case
        labels, order_fn = self.direct_order_oracle(group, family)
        shuffled = list(labels)
        random.Random(seed).shuffle(shuffled)
        orders = (labels, labels[::-1], shuffled)
        for p, parts in primary_decomposition(group).items():
            p_order = p_part(group.order(), p)
            results = set()
            for candidates in orders:
                queried = []

                def recorded(key):
                    queried.append(key)
                    return order_fn(key)

                got = greedy_primary_factors(p, p_order, candidates, recorded)
                results.add(tuple(sorted(got)))
                # pass j queries chains of j picks plus one candidate, so no
                # query follows the pick that completes the p-part
                assert max(map(len, queried)) <= len(got)
                exhausted = set()
                for key in queried:
                    assert key[-1] not in exhausted, (key, queried)
                    gain = order_fn(key) // (order_fn(key[:-1]) if key[:-1] else 1)
                    if p_part(gain, p) == 1:
                        exhausted.add(key[-1])
            assert results == {tuple(parts)}


def _chain_outcome(chain, p, p_order, candidates, order_fn):
    """A chain's factors, or the refusal it raises, with the sets it queried."""
    queried = []

    def recorded(key):
        queried.append(key)
        return order_fn(key)

    try:
        result = chain(p, p_order, candidates, recorded)
    except (MalformedBundle, ValueError) as exc:
        result = (type(exc), str(exc))
    return result, queried


@settings(max_examples=200, deadline=None)
@given(groups_with_generating_families(), st.randoms(use_true_random=False))
def test_chain_passes_query_in_the_reference_order(case, rng):
    # Each pass sorts its candidates by a table of min(bound, left); the
    # reference sorts them by a key function.  Same sets, same order.
    group, family = case
    labels, order_fn = TestGreedyChain().direct_order_oracle(group, family)
    rng.shuffle(labels)
    h = group.order()
    for p in primary_decomposition(group):
        args = (p, p_part(h, p), labels, order_fn)
        want = _chain_outcome(reference_greedy_primary_factors, *args)
        assert _chain_outcome(greedy_primary_factors, *args) == want


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(1, 4),
    st.integers(1, 6),
    st.randoms(use_true_random=False),
)
def test_chain_refuses_as_the_reference_on_any_orders(p, e, n, rng):
    # orders no group gives: the gain-divides-bound refusal, a gain read
    # below the chain's order, or factors past the p-part
    table = {}

    def order_fn(key):
        return table.setdefault(frozenset(key), rng.choice([1, p, p * p, 6, 12, 18, 36, 72]))

    labels = [f"c{i}" for i in range(n)]
    want = _chain_outcome(reference_greedy_primary_factors, p, p**e, labels, order_fn)
    assert _chain_outcome(greedy_primary_factors, p, p**e, labels, order_fn) == want


class TestReconstructClassGroup:
    def test_trivial(self):
        _, _, bundle = bundle_for_disc(-4, 10)
        assert reconstruct_group(bundle).factors == ()

    def test_disc_minus_20_with_pinned_labels(self):
        group = class_group(QuadraticSpec(-20))
        primes = [
            datum("p_3", 3, (1,)),
            datum("p_7", 7, (1,)),
            datum("p_11", 121, (0,), 11),
            datum("p_29", 29, (0,), 29),
        ]
        bundle = build_bundle(group, primes)
        assert reconstruct_group(bundle).factors == (2,)

    def test_klein_four_synthetic(self):
        group = FinGenAbGroup((2, 2))
        primes = [
            datum("a", 3, (1, 0)),
            datum("b", 5, (0, 1)),
            datum("c", 7, (1, 1)),
            datum("d", 11, (0, 0)),
        ]
        bundle = build_bundle(group, primes)
        assert reconstruct_group(bundle).factors == (2, 2)

    def test_generator_starved_raises(self):
        group = FinGenAbGroup((4,))
        primes = [datum("x", 3, (2,)), datum("y", 5, (0,))]
        bundle = build_bundle(group, primes)
        with pytest.raises(InsufficientGenerators):
            reconstruct_group(bundle)

    def test_shrinking_subgroup_orders_are_malformed(self):
        # <a, b> claims order 1 while <a> claims order 2: no subgroup does
        # that, and the one audit of `reconstruct_all` refuses it
        bundle = InvariantBundle(
            rank=2,
            labels=("a", "b"),
            entries={
                frozenset(): FinGenAbGroup((0, 0)),
                frozenset({"a"}): FinGenAbGroup((8,)),
                frozenset({"b"}): FinGenAbGroup((4, 4)),
                frozenset({"a", "b"}): FinGenAbGroup((2, 2)),
            },
        )
        with pytest.raises(MalformedBundle, match="summand count 2 of"):
            reconstruct_all(bundle)

    def test_growing_gains_are_malformed(self):
        # <a> and <b> claim order 3 but <a, b> order 27: the gain of b grows
        # from 3 to 9 over a longer chain, which no subgroup does
        bundle = InvariantBundle(
            rank=27,
            labels=("a", "b"),
            entries={
                frozenset(): FinGenAbGroup((0,) * 27),
                frozenset({"a"}): FinGenAbGroup((342,) * 9),
                frozenset({"b"}): FinGenAbGroup((342,) * 9),
                frozenset({"a", "b"}): FinGenAbGroup((6,)),
            },
        )
        with pytest.raises(MalformedBundle, match="gain of b"):
            reconstruct_group(bundle)

    def test_even_norm_labels_are_ignored_by_chains(self, monkeypatch):
        group = FinGenAbGroup((2,))
        primes = [datum("e", 2, (1,)), datum("o", 3, (1,))]
        bundle = build_bundle(group, primes)
        read = []
        order_of = reconstruct.subgroup_order_from_bundle

        def recording(bundle, labels):
            read.append(tuple(labels))
            return order_of(bundle, labels)

        monkeypatch.setattr(reconstruct, "subgroup_order_from_bundle", recording)
        assert reconstruct_group(bundle).factors == (2,)
        assert read == [("o",)]  # the chains read only non-empty odd-norm sets


class TestZeta:
    def test_gaussian_integers_pinned(self):
        norms = [p.norm for p in enumerate_prime_ideals(QuadraticSpec(-4), 10)]
        assert zeta_coefficients(norms, 10) == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]

    def test_character_sum_identity(self):
        for d in (-4, -20):
            norms = [p.norm for p in enumerate_prime_ideals(QuadraticSpec(d), 60)]
            coeffs = zeta_coefficients(norms, 60)
            for n in range(1, 61):
                char_sum = sum(
                    sympy.kronecker_symbol(d, k) for k in sympy.divisors(n)
                )
                assert coeffs[n - 1] == char_sum, (d, n)

    def test_empty_norms(self):
        # the unit ideal is counted once, with or without prime norms
        assert zeta_coefficients([], 3) == [1, 0, 0]
        assert zeta_coefficients([2, 3], 6) == [1, 1, 1, 1, 0, 1]

    def test_determinism(self):
        norms = [2, 3, 3, 5]
        assert zeta_coefficients(norms, 20) == zeta_coefficients(list(norms), 20)

    def test_norm_below_two_rejected(self):
        with pytest.raises(ValueError):
            zeta_coefficients([1], 5)

    def test_zeta_data_counts_the_unit_ideal_once(self):
        # the zeta data of a blind reconstruction, built from recovered norms
        _, _, bundle = bundle_for_disc(-4, 10)
        zeta = reconstruct_all(bundle, 10).zeta
        assert zeta == (1, 1, 0, 1, 2, 0, 0, 1, 1, 2)  # a_1..a_10: the bound is 10

    def test_multiset_changes_below_bound_are_detected(self):
        rng = random.Random(25)
        bound = 60
        base = [p.norm for p in enumerate_prime_ideals(QuadraticSpec(-20), bound)]
        reference = zeta_coefficients(base, bound)
        for _ in range(30):
            mutated = list(base)
            action = rng.choice(["drop", "add", "swap"])
            if action == "drop":
                mutated.pop(rng.randrange(len(mutated)))
            elif action == "add":
                mutated.append(rng.choice([2, 3, 5, 7, 11, 13]))
            else:
                i = rng.randrange(len(mutated))
                replacement = rng.choice([n for n in (2, 3, 5, 7, 11) if n != mutated[i]])
                mutated[i] = replacement
            assert zeta_coefficients(mutated, bound) != reference


class TestRoundTrip:
    @pytest.mark.parametrize("d", [-4, -20, -23, -47, -84])
    def test_quadratic_fields(self, d):
        spec = QuadraticSpec(d)
        group = class_group(spec)
        primes = enumerate_prime_ideals(spec, 50)
        report = roundtrip(group, primes, 50)
        assert report.all_passed, [v for v in report.verdicts if not v.passed]

    def test_synthetic_z3_single_generator(self):
        group = FinGenAbGroup((3,))
        primes = [datum("g", 7, (1,))]
        report = roundtrip(group, primes, 10)
        assert report.all_passed
        assert report.class_group.factors == (3,)
        # singleton entry behind the scenes: one copy of Z/(7**3 - 1)
        bundle = build_bundle(group, primes)
        assert bundle.entry(["g"]).factors == (342,)

    def test_insufficient_generators_guidance(self):
        group = FinGenAbGroup((2,))
        primes = [datum("only_even", 2, (1,))]
        with pytest.raises(InsufficientGenerators, match="supply more primes"):
            roundtrip(group, primes, 10)

    def test_random_synthetic_specs(self):
        rng = random.Random(23)
        for _ in range(10):
            spec = random_synthetic_spec(rng, max_order=16)
            group = class_group(spec)
            report = roundtrip(group, list(spec.primes), 30)
            assert report.all_passed
            assert report.class_group == FinGenAbGroup(spec.factors)

    @pytest.mark.parametrize("d", [-56, -120, -231, -260, -420])
    def test_larger_quadratic_fields(self, d):
        spec = QuadraticSpec(d)
        group = class_group(spec)
        primes = enumerate_prime_ideals(spec, 80)
        report = roundtrip(group, primes, 80)
        assert report.all_passed, [v for v in report.verdicts if not v.passed]
        assert report.class_group == group


@st.composite
def synthetic_specs_with_any_primes(draw):
    """A synthetic spec over a random group of order at most 64, with 0-6
    primes of random classes and of odd and even norms mixed, so that the
    odd-norm classes generate the group only some of the time."""
    rng = draw(st.randoms(use_true_random=False))
    group = random_finite_group(rng, max_order=64)
    primes = tuple(
        datum(
            f"s{i}",
            rng.choice(ODD_PRIME_POWERS + [2, 4, 8]),
            group.element([rng.randrange(d) for d in group.factors]),
        )
        for i in range(draw(st.integers(0, 6)))
    )
    return load_spec(SyntheticSpec(group.factors, primes))


@settings(max_examples=100, deadline=None)
@given(synthetic_specs_with_any_primes())
def test_roundtrip_refuses_exactly_when_odd_classes_do_not_generate(spec):
    # The blind consumer alone decides whether the primes exhibit all of Cl;
    # the ground truth certifies its decision with one column echelon of
    # the odd-norm classes beside the invariant factors.
    group = class_group(spec)
    odd = [p.cls for p in spec.primes if p.has_odd_norm]
    index = index_and_relations(odd, group.factors)[0]
    if index == 1:
        report = roundtrip(group, list(spec.primes), 10)
        assert report.all_passed, [v for v in report.verdicts if not v.passed]
    else:
        order = group.order() // index
        with pytest.raises(InsufficientGenerators,
                           match=f"^odd-norm labels exhibit a subgroup of order {order}, "):
            roundtrip(group, list(spec.primes), 10)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([-20, -84, -420, -1031, -2184, -3299]).map(QuadraticSpec)
    | synthetic_specs_with_any_primes(),
    st.integers(2, 80),
)
def test_blind_reconstruction_reads_exactly_what_a_written_bundle_carries(spec, bound):
    # `invariants` without --set writes the fixed entries a bundle is built
    # with and the multi-label entries `add_chain_entries` asks for; a blind
    # reconstruction must compute exactly those multi-label entries.
    group = class_group(spec)
    primes = enumerate_prime_ideals(spec, bound)
    read, written = build_bundle(group, primes), build_bundle(group, primes)
    asked, compute = set(), read.compute
    read.compute = lambda key: asked.add(key) or compute(key)
    with contextlib.suppress(InsufficientGenerators):
        reconstruct_all(read)
    with contextlib.suppress(InsufficientGenerators):
        add_chain_entries(written, primes)
    assert asked == {key for key in written.entries if len(key) > 1}
    assert set(read.entries) == set(written.entries)


class TestCompare:
    def test_distinguishes_gaussians_from_sqrt_minus_5(self):
        result = compare_fields(QuadraticSpec(-4), QuadraticSpec(-20), 10)
        assert not result.equivalent
        assert result.first_zeta_difference == (3, 0, 2)
        assert not result.groups_isomorphic

    def test_field_vs_synthetic_clone(self):
        spec = QuadraticSpec(-20)
        primes = enumerate_prime_ideals(spec, 40)
        clone = SyntheticSpec(
            factors=(2,),
            primes=tuple(
                datum(f"c{i}", p.norm, p.cls, p.residue_char)
                for i, p in enumerate(primes)
            ),
        )
        result = compare_fields(spec, clone, 40)
        assert result.equivalent
        assert result.groups_isomorphic

    def test_self_comparison(self):
        result = compare_fields(QuadraticSpec(-23), QuadraticSpec(-23), 30)
        assert result.equivalent
        assert result.describe() == "equivalent at bound 30"


def test_norm_recovery_inverts_singleton_form_for_all_pairs():
    rng = random.Random(24)
    for _ in range(25):
        group = random_finite_group(rng, max_order=16, max_factors=2)
        cls = ClassGroupModel(group).elements[rng.randrange(group.order())]
        norm = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13])
        p = datum("p", norm, cls)
        bundle = build_bundle(group, [p])
        factors = bundle.entry(("p",)).factors
        assert recover_norm(factors, "p", recover_class_number(bundle)) == norm


# Genuine bundle files: the ladder fields and -3299 (Cl = Z/3 x Z/9), each
# with mixed-parity sets, and synthetic specs; every one holds multi-label
# entries.  (source, prime bound, sets)
GENUINE_BUNDLES = {
    "84": (-84, 100, [("p_3", "p_5", "p_2")]),
    "1031": (-1031, 100, [("p_3", "p_5", "p_2"), ("p_7", "p_11c")]),
    "3299": (-3299, 100, [("p_3", "p_5c", "p_2")]),
    "10007": (-10007, 100, [("p_7", "p_11", "p_2"), ("p_13", "p_19c")]),
    "synthetic-248": (
        "synthetic_248.json", 50, [("s3", "s10", "s13"), ("s6", "s13"), ("s0", "s1", "s13")]
    ),
    "synthetic-random-1": (1, 101, [("s0", "s1")]),
    "synthetic-random-2": (2, 101, [("s1", "s2", "s3")]),
}


@lru_cache(maxsize=None)
def genuine_bundle(name):
    """A written bundle document, its norms by label id, and its blind report."""
    source, bound, sets = GENUINE_BUNDLES[name]
    if isinstance(source, str):
        path = Path(__file__).parent / "golden" / source
        spec = synthetic_spec_from_json(json.loads(path.read_text()))
    elif source > 0:
        spec = random_synthetic_spec(random.Random(source), max_order=32)
    else:
        spec = QuadraticSpec(source)
    primes = enumerate_prime_ideals(spec, bound)
    bundle = bundle_carrying(class_group(spec), primes, sets)
    add_chain_entries(bundle, primes)
    doc = json.loads(bundle_to_json(bundle))
    norms = {i: p.norm for i, p in enumerate(primes)}
    return doc, norms, report_to_json(reconstruct_all(bundle_from_json(doc)))


@st.composite
def broken_torsion(draw):
    """A genuine bundle, one multi-label entry of it, and factors that break it.

    Each break violates one condition of the closed form for some label p of
    the entry's set F: the torsion does not divide t_p, the summand count
    does not divide s_p, or the torsion of an odd-norm F is odd.
    """
    name = draw(st.sampled_from(sorted(GENUINE_BUNDLES)))
    doc, norms, _ = genuine_bundle(name)
    entries = doc["entries"]
    i = draw(st.sampled_from([i for i, e in enumerate(entries) if len(e["labels"]) > 1]))
    labels, factors = entries[i]["labels"], entries[i]["factors"]
    m = int(factors[0]) if factors else 1
    single = {e["labels"][0]: e["factors"] for e in entries if len(e["labels"]) == 1}
    torsion = {l: int(single[l][0]) if single[l] else 1 for l in labels}
    count = {l: len(single[l]) if single[l] else doc["rank"] for l in labels}
    kinds = ["divide"] + ["count"] * bool(factors)
    if all(norms[l] % 2 for l in labels):
        kinds.append("odd")
    kind = draw(st.sampled_from(kinds))
    p = draw(st.sampled_from(labels))
    if kind == "divide":
        bad = torsion[p] + draw(st.integers(1, 10**6))
        return name, i, [str(bad)] * max(len(factors), 1)
    if kind == "count":
        return name, i, [str(m)] * (count[p] + draw(st.integers(1, 20)))
    odd = 0
    for l in labels:
        odd = gcd(odd, torsion[l])
    while odd % 2 == 0:
        odd //= 2
    return name, i, [str(odd)] * len(factors) if odd > 1 else []


class TestTorsionChecks:
    @settings(max_examples=150, deadline=None)
    @given(broken_torsion())
    def test_torsion_the_closed_form_rules_out_is_refused(self, case):
        name, i, factors = case
        doc, _, report = genuine_bundle(name)
        broken = copy.deepcopy(doc)
        broken["entries"][i]["factors"] = factors
        with pytest.raises(MalformedBundle):
            reconstruct_all(bundle_from_json(broken))
        broken["entries"][i]["factors"] = doc["entries"][i]["factors"]
        assert report_to_json(reconstruct_all(bundle_from_json(broken))) == report

    def test_every_genuine_bundle_passes(self):
        for name in GENUINE_BUNDLES:
            doc, _, report = genuine_bundle(name)
            assert report["class_number"] == doc["rank"]

    def test_mixed_free_summands_are_refused(self):
        doc, _, _ = genuine_bundle("84")
        broken = copy.deepcopy(doc)
        entry = next(e for e in broken["entries"] if len(e["labels"]) > 1)
        entry["factors"] = entry["factors"][:-1] + ["0"]
        with pytest.raises(MalformedBundle, match="not homogeneous torsion"):
            reconstruct_all(bundle_from_json(broken))


def _tampered(group, primes, sets, key, factors):
    """A built bundle whose entry for `key` is replaced by `factors`."""
    bundle = bundle_carrying(group, primes, sets)
    entries = {**bundle.entries, frozenset(key): FinGenAbGroup(factors)}
    return InvariantBundle(bundle.rank, bundle.labels, entries)


class TestOneAudit:
    """Every carried set F is checked against its singletons and its carried
    sets F - {x}, whatever its parities."""

    def test_even_norm_triple_is_checked_against_its_carried_pair(self):
        # Cl = Z/2 x Z/2: {a, b, e} is genuinely Z/3 and {a, b} is Z/24.  Two
        # copies of Z/3 divide each singleton's (two copies each) but claim
        # index 2 where the pair already generates all of Cl.
        group = FinGenAbGroup((2, 2))
        primes = [datum("a", 7, (1, 0)), datum("b", 13, (0, 1)), datum("e", 4, (1, 0), 2)]
        sets = [("a", "b"), ("a", "b", "e")]
        genuine = build_bundle(group, primes)
        assert genuine.entry(("a", "b", "e")).factors == (3,)
        bundle = _tampered(group, primes, sets, ("a", "b", "e"), (3, 3))
        with pytest.raises(MalformedBundle, match="does not divide 1, the summand count"):
            reconstruct_all(bundle)

    def test_odd_norm_triple_torsion_divides_its_carried_pair_torsion(self):
        # Cl = Z/4: {a, b} is Z/4 through the relation 2a = b, while 8 divides
        # t_a = 80, t_b = 24 and t_c = 14640; so Z/8 passes every singleton
        # check and fails only against the pair.
        group = FinGenAbGroup((4,))
        primes = [datum("a", 3, (1,)), datum("b", 5, (2,)), datum("c", 11, (1,))]
        sets = [("a", "b"), ("a", "b", "c")]
        genuine = build_bundle(group, primes)
        assert genuine.entry(("a", "b")).factors == (4,)
        bundle = _tampered(group, primes, sets, ("a", "b", "c"), (8,))
        with pytest.raises(MalformedBundle, match=r"the torsion of \['a', 'b'\]"):
            reconstruct_all(bundle)


GOLDEN = Path(__file__).parent / "golden"
INVARIANTS_OUTPUTS = sorted(
    p.stem.removeprefix("invariants_") for p in GOLDEN.glob("invariants_*.out")
)
MUTATIONS = ("divisor", "multiple", "count", "trivial", "copy", "drop")


@lru_cache(maxsize=None)
def invariants_output(name):
    return json.loads((GOLDEN / f"invariants_{name}.out").read_text())


@st.composite
def invariants_mutations(draw):
    """A golden `invariants` output and one to three mutations of its carried
    entries, half of them of a set of two or more labels when it has one,
    each (entry index, kind, value) as `_mutated` applies them."""
    name = draw(st.sampled_from(INVARIANTS_OUTPUTS))
    doc = invariants_output(name)
    carried = [i for i, e in enumerate(doc["entries"]) if e["labels"]]
    multi = [i for i in carried if len(doc["entries"][i]["labels"]) > 1] or carried
    values = {
        "divisor": st.integers(2, 1000),
        "multiple": st.integers(2, 12),
        "count": st.sampled_from([d for d in range(1, doc["rank"] + 1) if doc["rank"] % d == 0]),
        "copy": st.sampled_from(carried),
    }
    mutations = []
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(multi) | st.sampled_from(carried))
        kind = draw(st.sampled_from(MUTATIONS))
        mutations.append((i, kind, draw(values.get(kind, st.just(0)))))
    return name, tuple(mutations)


def _mutated(name, mutations):
    """The output `name` with each entry i mutated: its torsion m divided by
    gcd(m, value) or multiplied by value, its summand count set to value,
    made trivial, given the factors of entry value, or dropped."""
    entries = copy.deepcopy(invariants_output(name)["entries"])
    for i, kind, value in mutations:
        if entries[i] is None or kind == "drop":
            entries[i] = None
            continue
        factors = entries[i]["factors"]
        m, s = int(factors[0]) if factors else 1, max(len(factors), 1)
        if kind == "divisor":
            m //= gcd(m, value)
        elif kind == "multiple":
            m *= value
        elif kind == "count":
            s = value
        if kind == "copy":
            factors = entries[value]["factors"] if entries[value] else []
        else:
            factors = [str(m)] * s if kind != "trivial" and m > 1 else []
        entries[i]["factors"] = factors
    return {**invariants_output(name), "entries": [e for e in entries if e]}


@settings(max_examples=300, deadline=None)
@given(invariants_mutations())
# a triple's summand count that divides its singletons' but not its pair's
@example(("420", ((6, "count", 4),)))
@example(("synthetic_sets", ((21, "copy", 17),)))
# a singleton entry whose norm is above MAX_BOUND with no small prime factor
@example(("23603_sets", ((2, "count", 47), (29, "divisor", 2), (2, "multiple", 11))))
def test_chains_read_only_sets_the_audit_has_shaped(case):
    # `subgroup_order_from_bundle` divides h by the summand count it reads,
    # and the chain takes every gain as a whole number.  So whenever the
    # audit before the chains accepts a bundle, every set a chain reads must
    # be non-trivial, and its summand count must divide that of the chain
    # set it extends.  A norm whose primality trial division cannot decide
    # is refused before the chains too, with `LimitExceeded` (exit 3).
    try:
        bundle = bundle_from_json(_mutated(*case))
        recover_class_number(bundle)
        norms = recover_norms(bundle)
        _check_torsion(bundle, norms)
    except (MalformedBundle, LimitExceeded):
        return
    order_of = reconstruct.subgroup_order_from_bundle

    def checked(bundle, labels):
        count = len(bundle.entry(labels).factors)
        assert count, labels
        if len(labels) > 1:
            assert len(bundle.entry(labels[:-1]).factors) % count == 0, labels
        return order_of(bundle, labels)

    with pytest.MonkeyPatch.context() as patch, contextlib.suppress(
        BundleEntryMissing, MalformedBundle, InsufficientGenerators
    ):
        patch.setattr(reconstruct, "subgroup_order_from_bundle", checked)
        reconstruct_class_group(bundle, norms)


def test_blind_sweep_output_is_unchanged():
    # Every byte `reconstruct` writes, and every exit code, over the 14
    # `invariants` files of `sweep_reconstruct` and 3000 seeded mutations of
    # them: a refactor of the blind path that changes any output, refusal
    # or refusal order changes the digest.
    from sweep_reconstruct import sweep

    digest, codes = sweep(3000, 20261020)
    assert digest == "ac2e0f5b169ce298a435d7cc4058fdf5126b3e4137c765e828154114e3e4e782"
    assert codes == {0: 425, 1: 2389, 3: 200}
