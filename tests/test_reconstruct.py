"""Blind reconstruction: bundles, norm recovery, greedy chains, zeta, drivers."""

import random
import threading
from dataclasses import replace

import pytest
import sympy

from classrecon import reconstruct
from classrecon.abgroup import FinGenAbGroup, iso_equal, subgroup_index
from classrecon.fields import (
    QuadraticSpec,
    SyntheticSpec,
    class_group,
    enumerate_prime_ideals,
)
from classrecon.oracle import primary_decomposition
from classrecon.reconstruct import (
    BundleEntryMissing,
    InsufficientGenerators,
    InvariantBundle,
    MalformedBundle,
    build_bundle,
    compare_fields,
    greedy_primary_factors,
    reconstruct_all,
    reconstruct_class_group,
    recover_class_number,
    recover_norm,
    recover_norms,
    roundtrip,
    subgroup_order_from_bundle,
    zeta_coefficients,
    zeta_data,
)

from helpers import (
    datum,
    random_finite_group,
    random_generating_family,
    random_synthetic_spec,
)


def bundle_for_disc(d, bound=50):
    spec = QuadraticSpec(d)
    group = class_group(spec)
    primes = enumerate_prime_ideals(spec, bound)
    return group, primes, build_bundle(group, primes)


def reconstruct_group(bundle):
    """`reconstruct_class_group` given the class number and norms it needs."""
    h = recover_class_number(bundle)
    return reconstruct_class_group(bundle, recover_norms(bundle, h), h)


def odd_labels(bundle):
    norms = recover_norms(bundle, recover_class_number(bundle))
    return frozenset(l for l, n in norms.items() if n % 2)


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
        with pytest.raises(ValueError):
            build_bundle(group, [datum("a", 3, (1,))], subsets=[("b",)])

    def test_static_bundle_refuses_unknown_subsets(self):
        group = FinGenAbGroup((2,))
        bundle = replace(
            build_bundle(group, [datum("a", 3, (1,)), datum("b", 7, (1,))]),
            compute=None,
        )
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
            assert recover_norm(bundle, p.label, recover_class_number(bundle)) == p.norm
        assert recover_norm(bundle, "p_11", recover_class_number(bundle)) == 121

    def test_rank_one_norm_recovery(self):
        group = FinGenAbGroup(())
        bundle = build_bundle(group, [datum("p", 5, ())])
        assert bundle.entry(["p"]).factors == (4,)
        assert recover_norm(bundle, "p", recover_class_number(bundle)) == 5

    def test_trivial_singleton_entry_means_norm_two(self):
        # ramified prime above 2 when the class group is trivial
        _, primes, bundle = bundle_for_disc(-4, 10)
        assert bundle.entry(["p_2"]).is_trivial
        assert recover_norm(bundle, "p_2", recover_class_number(bundle)) == 2

    def test_odd_norm_flags(self):
        _, primes, bundle = bundle_for_disc(-20, 130)
        norms = recover_norms(bundle, recover_class_number(bundle))
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
                recover_norm(bundle, label, recover_class_number(bundle))


class TestSubgroupOrders:
    def test_disc_minus_20(self):
        _, _, bundle = bundle_for_disc(-20, 30)
        odd = odd_labels(bundle)
        h = recover_class_number(bundle)
        assert subgroup_order_from_bundle(bundle, ["p_3"], odd, h) == 2
        assert subgroup_order_from_bundle(bundle, ["p_29"], odd, h) == 1
        assert subgroup_order_from_bundle(bundle, ["p_3", "p_7"], odd, h) == 2

    def test_even_norm_label_rejected(self):
        _, _, bundle = bundle_for_disc(-20, 30)
        odd = odd_labels(bundle)
        h = recover_class_number(bundle)
        with pytest.raises(ValueError):
            subgroup_order_from_bundle(bundle, ["p_2"], odd, h)
        with pytest.raises(ValueError):
            subgroup_order_from_bundle(bundle, ["p_3", "p_2"], odd, h)
        assert subgroup_order_from_bundle(bundle, ["p_3"], odd, h) == 2

    def test_empty_set_rejected(self):
        _, _, bundle = bundle_for_disc(-20, 30)
        with pytest.raises(ValueError):
            subgroup_order_from_bundle(bundle, [], odd_labels(bundle), 2)


class TestNormRecoveryCount:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []

        def counting(bundle, label, h):
            calls.append(label)
            return recover_norm(bundle, label, h)

        monkeypatch.setattr(reconstruct, "recover_norm", counting)
        return calls

    def test_reconstruct_all_recovers_each_norm_once(self, counted):
        _, _, bundle = bundle_for_disc(-1031, 100)
        reconstruct_all(bundle)
        assert sorted(counted) == sorted(bundle.labels)

    def test_compare_recovers_each_norm_once(self, counted):
        compare_fields(QuadraticSpec(-3299), QuadraticSpec(-2408), 100)
        labels = [
            p.label
            for d in (-3299, -2408)
            for p in enumerate_prime_ideals(QuadraticSpec(d), 100)
        ]
        assert sorted(counted) == sorted(labels)


class TestGreedyChain:
    def direct_order_oracle(self, group, family):
        labels = [str(i) for i in range(len(family))]
        members = dict(zip(labels, family))

        def subgroup_order(key):
            gens = [members[l] for l in key]
            return group.order() // subgroup_index(group, gens)

        return labels, subgroup_order

    def test_recovers_primary_decomposition(self):
        rng = random.Random(21)
        for _ in range(60):
            group = random_finite_group(rng, max_order=512)
            family = random_generating_family(rng, group, rng.randint(1, 8))
            labels, order_fn = self.direct_order_oracle(group, family)
            recovered = {}
            for p in sorted(primary_decomposition(group)):
                parts = greedy_primary_factors(p, labels, order_fn)
                recovered[p] = sorted(parts)
            assert recovered == primary_decomposition(group)

    def test_tie_break_invariance(self):
        rng = random.Random(22)
        group = FinGenAbGroup((2, 2, 4))
        family = random_generating_family(rng, group, 6)
        labels, order_fn = self.direct_order_oracle(group, family)

        def last(c):
            return c[-1]

        def seeded(c):
            return random.Random(99).choice(c)

        results = {
            tuple(sorted(greedy_primary_factors(2, labels, order_fn, tb)))
            for tb in (lambda c: c[0], last, seeded)
        }
        assert len(results) == 1


class TestReconstructClassGroup:
    def test_trivial(self):
        _, _, bundle = bundle_for_disc(-4, 10)
        assert reconstruct_group(bundle).is_trivial

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
        # <a, b> claims order 1 while <a> claims order 2: no subgroup does that
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
        with pytest.raises(MalformedBundle):
            reconstruct_group(bundle)

    def test_even_norm_labels_are_ignored_by_chains(self):
        group = FinGenAbGroup((2,))
        primes = [datum("e", 2, (1,)), datum("o", 3, (1,))]
        bundle = build_bundle(group, primes)
        assert reconstruct_group(bundle).factors == (2,)


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
        assert zeta_coefficients([], 3) == [1, 0, 0]

    def test_determinism(self):
        norms = [2, 3, 3, 5]
        assert zeta_coefficients(norms, 20) == zeta_coefficients(list(norms), 20)

    def test_norm_below_two_rejected(self):
        with pytest.raises(ValueError):
            zeta_coefficients([1], 5)

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

    def test_zeta_data_validates(self):
        zd = zeta_data([2, 3], 6)
        assert zd.coefficients[0] == 1
        with pytest.raises(ValueError):
            zeta_data([10], 5)  # 10 is not a prime power


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
        with pytest.raises(InsufficientGenerators, match="raise the prime"):
            roundtrip(group, primes, 10)

    def test_random_synthetic_specs(self):
        rng = random.Random(23)
        for _ in range(10):
            spec = random_synthetic_spec(rng, max_order=16)
            group = class_group(spec)
            report = roundtrip(group, list(spec.primes), 30)
            assert report.all_passed
            assert iso_equal(report.class_group, FinGenAbGroup(spec.factors))

    @pytest.mark.parametrize("d", [-56, -120, -231, -260, -420])
    def test_larger_quadratic_fields(self, d):
        spec = QuadraticSpec(d)
        group = class_group(spec)
        primes = enumerate_prime_ideals(spec, 80)
        report = roundtrip(group, primes, 80)
        assert report.all_passed, [v for v in report.verdicts if not v.passed]
        assert iso_equal(report.class_group, group)


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
        cls = group.all_elements()[rng.randrange(group.order())]
        norm = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13])
        p = datum("p", norm, cls)
        bundle = build_bundle(group, [p])
        assert recover_norm(bundle, "p", recover_class_number(bundle)) == norm
