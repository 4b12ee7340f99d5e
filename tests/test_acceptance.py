"""Acceptance suite: one test per criterion, exact checks, timed budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every expected value is exact; there are no tolerances.
"""

import itertools
import random
import time

import pytest
import sympy

from classrecon.abgroup import FinGenAbGroup
from classrecon.fields import SyntheticSpec, enumerate_prime_ideals
from classrecon.forms import QuadraticSpec, class_group
from classrecon.lattice import build_bundle, compare_fields, index_and_relations, roundtrip
from classrecon.oracle import (
    ClassGroupModel,
    class_group_model,
    cokernel_of_columns,
    cycle_cokernel,
    lattice_quotient,
    naive_member,
    predicted_group,
    predicted_quotient,
    predicted_relation_failures,
    primary_decomposition,
    singleton_quotient,
    sublattice_columns,
)
from classrecon.reconstruct import (
    InsufficientGenerators,
    InvariantBundle,
    MalformedBundle,
    greedy_primary_factors,
    p_part,
    reconstruct_all,
    recover_class_number,
    recover_norm,
    zeta_coefficients,
)

from helpers import (
    ODD_PRIME_POWERS,
    bundle_carrying,
    cycle_matrix_columns,
    datum,
    random_finite_group,
    random_generating_family,
    random_synthetic_spec,
    z2_model,
)

TEST_DISCRIMINANTS = [-4, -20, -23, -47, -84]

SYNTHETIC_GROUPS = [(4,), (2, 2), (6,), (2, 4)]

PINNED_SYNTHETIC_224 = SyntheticSpec(
    factors=(2, 2, 4),
    primes=(
        datum("s0", 3, (1, 0, 0)),
        datum("s1", 5, (0, 1, 0)),
        datum("s2", 7, (0, 0, 1)),
        datum("s3", 11, (1, 1, 1)),
        datum("s4", 13, (0, 0, 2)),
        datum("s5", 17, (1, 0, 3)),
        datum("s6", 19, (0, 1, 2)),
    ),
)


def _report(num: int, description: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {num} PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_cycle_cokernel_formula_suite():
    start = time.monotonic()
    rng = random.Random(101)
    for _ in range(500):
        n = rng.randint(1, 6)
        norms = [rng.randint(1, 50) for _ in range(n)]
        d = rng.choice([0, rng.randint(2, 10**6)])
        order, coeffs = cycle_cokernel(norms, d)
        cols = cycle_matrix_columns(norms, d)
        group, _ = cokernel_of_columns(n, cols)
        assert group == FinGenAbGroup.from_orders([order])
        for i in range(n):
            vec = [0] * n
            vec[i] += 1
            vec[n - 1] -= coeffs[i]
            assert naive_member(cols, vec), (norms, d, i)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(1, "cycle cokernel formula vs SNF + membership, 500 instances", elapsed)


def test_criterion_2_single_prime_closed_form_suite():
    start = time.monotonic()
    checked = 0
    for d in TEST_DISCRIMINANTS:
        model = class_group_model(QuadraticSpec(d))
        primes = enumerate_prime_ideals(QuadraticSpec(d), 2500)
        by_char = [p for p in primes if p.residue_char <= 50]
        assert {p.residue_char for p in by_char} == {
            int(q) for q in sympy.primerange(2, 51)
        }
        for p in by_char:
            brute, _ = lattice_quotient(model, [p])
            assert brute == singleton_quotient(model, p), (d, p.label)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(2, f"one-prime quotient closed form on {checked} prime ideals", elapsed)


def _odd_prime_pool(model, disc=None):
    if disc is not None:
        return [
            p
            for p in enumerate_prime_ideals(QuadraticSpec(disc), 2500)
            if p.norm % 2 == 1 and p.residue_char <= 50
        ]
    rng = random.Random(model.size)
    pool = []
    for i, n in enumerate(ODD_PRIME_POWERS):
        cls = model.elements[rng.randrange(model.size)]
        pool.append(datum(f"t{i}", n, cls))
    return pool


def test_criterion_3_homogeneous_quotient_suite():
    start = time.monotonic()
    rng = random.Random(103)
    cases = [(d, None) for d in TEST_DISCRIMINANTS] + [
        (None, f) for f in SYNTHETIC_GROUPS
    ]
    for disc, factors in cases:
        model = (
            class_group_model(QuadraticSpec(disc))
            if disc is not None
            else ClassGroupModel(FinGenAbGroup(factors))
        )
        pool = _odd_prime_pool(model, disc)
        for _ in range(8):
            size = rng.randint(1, 3)
            subset = rng.sample(pool, min(size, len(pool)))
            pred = predicted_quotient(model, subset)
            brute, _ = lattice_quotient(model, subset)
            # homogeneous: [Cl : Cl_F] equal summands of order d_F
            subgroup = model.subgroup_closure(
                tuple(model.index_of(p.cls) for p in subset)
            )
            coset_count = model.size // len(subgroup)
            assert brute.factors == (pred.exponent,) * coset_count
            assert brute == predicted_group(pred)
            assert pred.exponent > 0 and pred.exponent % 2 == 0
            assert all(m % 2 == 1 for _, m in pred.multipliers.values())
            assert predicted_relation_failures(model, subset, pred) == []
            for perm in itertools.permutations(subset):
                again = predicted_quotient(model, list(perm))
                assert (again.exponent, again.coset_count) == (
                    pred.exponent,
                    pred.coset_count,
                )
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(3, "homogeneity + prediction + relations + order independence", elapsed)


def test_criterion_4_worked_pinned_case():
    start = time.monotonic()
    model = z2_model()
    subset = [datum("p", 3, (1,)), datum("q", 7, (1,))]
    brute, _ = lattice_quotient(model, subset)
    assert brute.factors == (4,)
    cols = sublattice_columns(model, subset)
    # the relation lattice is exactly the span of (1,-3) and (0,4)
    for v in [(1, -3), (0, 4)]:
        assert naive_member(cols, v)
    for v in cols:
        assert naive_member([(1, -3), (0, 4)], v)
    pred = predicted_quotient(model, subset)
    assert pred.exponent == 4  # gcd(7*3 - 1, 8)
    assert predicted_group(pred).factors == (4,)
    elapsed = time.monotonic() - start
    _report(4, "pinned two-prime case: Z/4 by both routes", elapsed)


def test_criterion_5_greedy_chain_suite():
    start = time.monotonic()
    rng = random.Random(105)
    for trial in range(200):
        group = random_finite_group(rng, max_order=512)
        family = random_generating_family(rng, group, rng.randint(1, 8))
        labels = [str(i) for i in range(len(family))]
        members = dict(zip(labels, family))

        def subgroup_order(key):
            gens = [members[l] for l in key]
            return group.order() // index_and_relations(gens, group.factors)[0]

        # the chain picks the first maximizer it queries: reordering the
        # candidates changes which one that is
        orders = [labels]
        if trial % 5 == 0:
            shuffled = list(labels)
            random.Random(rng.randint(0, 10**6)).shuffle(shuffled)
            orders += [labels[::-1], shuffled]
        outcomes = set()
        for candidates in orders:
            recovered = {
                p: sorted(
                    greedy_primary_factors(
                        p, p_part(group.order(), p), candidates, subgroup_order
                    )
                )
                for p in sorted(primary_decomposition(group))
            }
            outcomes.add(tuple(sorted((p, tuple(v)) for p, v in recovered.items())))
            assert recovered == primary_decomposition(group), (group, family)
        assert len(outcomes) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(5, "greedy chain recovery on 200 random groups, in any candidate order", elapsed)


def _synthetic_248_spec(rng):
    """Z/2 x Z/4 x Z/8 (h = 64): generating odd-norm primes plus even norms."""
    group = FinGenAbGroup((2, 4, 8))
    family = random_generating_family(rng, group, 6)
    norms = rng.sample(ODD_PRIME_POWERS, len(family)) + [2, 4]
    family += [group.element([rng.randrange(d) for d in group.factors]) for _ in range(2)]
    return SyntheticSpec(
        factors=group.factors,
        primes=tuple(
            datum(f"s{i}", n, cls) for i, (n, cls) in enumerate(zip(norms, family))
        ),
    )


def test_criterion_6_blind_round_trip_per_field():
    # Each field round-trips through the closed-form bundle that `roundtrip`
    # builds, and blind through an SNF-only bundle.  Every entry the full
    # reconstruction requested from the closed forms must equal the SNF
    # entry for the same set, or the round trip would only invert the
    # formulas that produced it.  A chain that stops early requests few
    # sets, so a seeded sample of odd-norm sets of 2 and 3 primes per field
    # is compared as well.
    fields = []
    for d, bound in [(d, 60) for d in TEST_DISCRIMINANTS] + [(-1031, 100), (-10007, 100)]:
        spec = QuadraticSpec(d)
        fields.append(
            (f"disc {d}", class_group_model(spec), enumerate_prime_ideals(spec, bound),
             bound)
        )
    fields.append(
        (
            "synthetic Z/2 x Z/2 x Z/4",
            class_group_model(PINNED_SYNTHETIC_224),
            list(PINNED_SYNTHETIC_224.primes),
            60,
        )
    )
    rng = random.Random(106)
    for i in range(3):
        spec = random_synthetic_spec(rng, max_order=16, min_order=4)
        fields.append(
            (f"synthetic #{i} {FinGenAbGroup(spec.factors)}",
             class_group_model(spec), list(spec.primes), 60)
        )
    spec = _synthetic_248_spec(rng)
    fields.append(
        ("synthetic Z/2 x Z/4 x Z/8", class_group_model(spec), list(spec.primes), 60)
    )
    sample_rng = random.Random(206)
    for name, model, primes, bound in fields:
        start = time.monotonic()
        report = roundtrip(model.group, primes, bound)
        failed = [v for v in report.verdicts if not v.passed]
        assert not failed, (name, failed)
        assert report.class_number == model.size
        assert report.class_group == model.group
        assert report.norms == {p.label: p.norm for p in primes}
        by_label = {p.label: p for p in primes}
        closed = build_bundle(model.group, primes)
        snf = InvariantBundle(
            rank=model.size,
            labels=tuple(by_label),
            compute=lambda key: lattice_quotient(
                model, [by_label[l] for l in sorted(key)]
            )[0],
        )
        for bundle in (closed, snf):
            blind = reconstruct_all(bundle, bound)
            assert blind.class_number == model.size
            assert blind.class_group == model.group
            assert blind.norms == {p.label: p.norm for p in primes}
        assert closed.entries == snf.entries, name
        odd = [p.label for p in primes if p.has_odd_norm]
        for size in (2, 3):
            for _ in range(4 if len(odd) >= size else 0):
                key = sample_rng.sample(odd, size)
                assert closed.entry(key) == snf.entry(key), (name, key)
        elapsed = time.monotonic() - start
        assert elapsed < 60, name
        _report(6, f"blind round trip on {name}, closed forms vs SNF", elapsed)


def test_criterion_7_zeta_truncation_to_200():
    start = time.monotonic()
    bound = 200
    for d in (-4, -20):
        spec = QuadraticSpec(d)
        primes = enumerate_prime_ideals(spec, bound)
        bundle = build_bundle(class_group(spec), primes)
        h = recover_class_number(bundle)
        recovered = [recover_norm(bundle.entry((p.label,)).factors, p.label, h) for p in primes]
        direct = zeta_coefficients([p.norm for p in primes], bound)
        assert zeta_coefficients(recovered, bound) == direct
        for n in range(1, bound + 1):
            char_sum = sum(
                sympy.kronecker_symbol(d, k) for k in sympy.divisors(n)
            )
            assert direct[n - 1] == char_sum, (d, n)
    elapsed = time.monotonic() - start
    _report(7, "zeta coefficients to 200 vs character-sum identity", elapsed)


def test_criterion_8_discrimination_and_clone_equivalence():
    start = time.monotonic()
    result = compare_fields(QuadraticSpec(-4), QuadraticSpec(-20), 10)
    assert not result.equivalent
    assert result.first_zeta_difference == (3, 0, 2)
    spec = QuadraticSpec(-20)
    clone = SyntheticSpec(
        factors=(2,),
        primes=tuple(
            datum(f"c{i}", p.norm, p.cls, p.residue_char)
            for i, p in enumerate(enumerate_prime_ideals(spec, 50))
        ),
    )
    result = compare_fields(spec, clone, 50)
    assert result.equivalent and result.groups_isomorphic
    elapsed = time.monotonic() - start
    _report(8, "distinguishes -4 from -20 at n=3; clone judged equivalent", elapsed)


def test_criterion_9_negative_paths():
    start = time.monotonic()
    primes = enumerate_prime_ideals(QuadraticSpec(-20), 30)
    built = bundle_carrying(class_group(QuadraticSpec(-20)), primes)
    bundle = InvariantBundle(rank=built.rank, labels=built.labels, entries=built.entries)
    bundle.entries[frozenset({"p_3"})] = FinGenAbGroup((7,))
    with pytest.raises(MalformedBundle):
        recover_norm(bundle.entry(("p_3",)).factors, "p_3", recover_class_number(bundle))
    with pytest.raises(MalformedBundle):
        reconstruct_all(bundle)

    starved = build_bundle(
        FinGenAbGroup((4,)), [datum("x", 3, (2,)), datum("y", 5, (0,))]
    )
    with pytest.raises(InsufficientGenerators):
        reconstruct_all(starved)
    elapsed = time.monotonic() - start
    _report(9, "corrupt singleton and starved bundle raise designated errors", elapsed)
