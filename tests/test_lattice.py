"""Quotient invariants of the class-group lattice: both routes, all claims."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classrecon.abgroup import FinGenAbGroup
from classrecon.errors import InvalidSyntheticSpec
from classrecon.fields import PrimeIdealDatum, enumerate_prime_ideals, synthetic_spec_from_json
from classrecon.forms import QuadraticSpec
from classrecon.lattice import build_bundle, prime_terms, quotient_from_terms
from classrecon.reconstruct import reconstruct_all
from classrecon.oracle import (
    ClassGroupModel,
    PredictedQuotient,
    class_group_model,
    cokernel_of_columns,
    cycle_cokernel,
    lattice_quotient,
    naive_member,
    predicted_group,
    predicted_quotient,
    predicted_relation_failures,
    singleton_quotient,
    smith_normal_form,
    sublattice_columns,
)

from helpers import ODD_PRIME_POWERS, datum, random_generating_family, z2_model, zero


P3 = datum("p3", 3, (1,))
Q7 = datum("q7", 7, (1,))


def trivial_model():
    return ClassGroupModel(FinGenAbGroup(()))


class TestSublatticeColumns:
    def test_empty(self):
        assert sublattice_columns(z2_model(), []) == []

    def test_trivial_group(self):
        assert sublattice_columns(trivial_model(), [datum("p", 5, ())]) == [(-4,)]

    def test_single_prime(self):
        assert sublattice_columns(z2_model(), [P3]) == [(1, -3), (-3, 1)]

    def test_swap_scaled(self):
        # column a is e_a - op(e_a); P3 on Z/2 acts as 3 times the swap of the two classes
        cols = sublattice_columns(z2_model(), [P3])
        op = tuple(tuple(int(i == a) - cols[a][i] for a in range(2)) for i in range(2))
        assert op == ((0, 3), (3, 0))

    def test_trivial_class_inert(self):
        p11 = datum("p11", 121, (0,), 11)
        assert sublattice_columns(z2_model(), [p11]) == [(-120, 0), (0, -120)]

    def test_class_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sublattice_columns(z2_model(), [datum("bad", 3, (0, 1), 3)])

    def test_two_primes_concatenate(self):
        assert sublattice_columns(z2_model(), [P3, Q7]) == [
            (1, -3),
            (-3, 1),
            (1, -7),
            (-7, 1),
        ]


class TestBruteForceQuotient:
    def test_empty_set_is_free(self):
        g, _ = lattice_quotient(z2_model(), [])
        assert g.factors == (0, 0)

    def test_single_prime(self):
        g, _ = lattice_quotient(z2_model(), [P3])
        assert g.factors == (8,)

    def test_two_primes(self):
        g, _ = lattice_quotient(z2_model(), [P3, Q7])
        assert g.factors == (4,)


class TestCycleCokernel:
    def test_single_unit_factor_free(self):
        order, coeffs = cycle_cokernel([1], 0)
        assert order == 0 and coeffs == (1,)

    def test_pair_over_z(self):
        order, coeffs = cycle_cokernel([3, 5], 0)
        assert order == 14
        assert coeffs == (3, 1)
        s, _, _ = smith_normal_form([[1, -5], [-3, 1]])
        assert s == ((1, 0), (0, 14))

    def test_triple_modulo_8(self):
        order, _ = cycle_cokernel([3, 3, 3], 8)
        assert order == 2  # gcd(26, 8)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cycle_cokernel([], 5)

    def test_agrees_with_cokernel_of_cycle_matrix(self):
        from helpers import cycle_matrix_columns

        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(1, 5)
            norms = [rng.randint(1, 30) for _ in range(n)]
            d = rng.choice([0, 2, 4, 6, 8, 12, 30, 1000])
            order, coeffs = cycle_cokernel(norms, d)
            cols = cycle_matrix_columns(norms, d)
            g, _ = cokernel_of_columns(n, cols)
            assert g == FinGenAbGroup.from_orders([order])
            # generator-coefficient relations hold in the integer lattice
            for i in range(n):
                vec = [0] * n
                vec[i] += 1
                vec[n - 1] -= coeffs[i]
                assert naive_member(cols, vec)


class TestSingletonQuotient:
    def test_trivial_group(self):
        g = singleton_quotient(trivial_model(), datum("p", 5, ()))
        assert g.factors == (4,)

    def test_z2_nontrivial(self):
        assert singleton_quotient(z2_model(), P3).factors == (8,)

    def test_z2_trivial_class(self):
        g = singleton_quotient(z2_model(), datum("p11", 121, (0,), 11))
        assert g.factors == (120, 120)

    def test_matches_brute_force_even_norms_included(self):
        # the closed form needs no parity hypothesis
        for cls, norm in [((0,), 2), ((1,), 2), ((0,), 4), ((1,), 9), ((0,), 3)]:
            p = datum("p", norm, cls)
            brute, _ = lattice_quotient(z2_model(), [p])
            assert brute == singleton_quotient(z2_model(), p)


class TestPrediction:
    def test_empty_set(self):
        pred = predicted_quotient(z2_model(), [])
        assert pred.exponent == 0
        assert pred.coset_count == 2
        assert all(m == 1 for _, m in pred.multipliers.values())

    def test_single_prime_pinned(self):
        pred = predicted_quotient(z2_model(), [P3])
        assert pred.exponent == 8
        assert pred.coset_count == 1
        assert sorted(m for _, m in pred.multipliers.values()) == [1, 3]

    def test_two_primes_pinned(self):
        pred = predicted_quotient(z2_model(), [P3, Q7])
        assert pred.exponent == 4  # gcd(7*3 - 1, 8)
        assert pred.coset_count == 1

    def test_even_norm_rejected(self):
        with pytest.raises(ValueError):
            predicted_quotient(z2_model(), [datum("p2", 2, (1,))])

    def test_relations_verify_against_raw_lattice(self):
        for primes in ([P3], [P3, Q7], [Q7]):
            pred = predicted_quotient(z2_model(), primes)
            assert predicted_relation_failures(z2_model(), primes, pred) == []

    def test_relation_examples(self):
        # e_0 - 3 e_1 and e_1 - 3 e_0 lie in the sublattice of [P3]; e_0 - e_1 does not
        held = PredictedQuotient(exponent=8, reps=(1,), multipliers={0: (0, 3), 1: (0, 1)})
        assert predicted_relation_failures(z2_model(), [P3], held) == []
        held = PredictedQuotient(exponent=8, reps=(0,), multipliers={0: (0, 1), 1: (0, 3)})
        assert predicted_relation_failures(z2_model(), [P3], held) == []
        wrong = PredictedQuotient(exponent=8, reps=(1,), multipliers={0: (0, 1), 1: (0, 1)})
        assert predicted_relation_failures(z2_model(), [P3], wrong) == [(0, 1, 1)]


def random_odd_prime_set(rng, model, max_size=3):
    size = rng.randint(1, max_size)
    norms = rng.sample(ODD_PRIME_POWERS, size)
    return [
        datum(
            f"r{i}",
            n,
            model.elements[rng.randrange(model.size)],
        )
        for i, n in enumerate(norms)
    ]


@pytest.mark.parametrize(
    "factors",
    [(2,), (3,), (4,), (2, 2), (6,), (2, 4), (2, 2, 4)],
    ids=lambda f: "x".join(map(str, f)) or "trivial",
)
def test_prediction_matches_brute_force(factors):
    model = ClassGroupModel(FinGenAbGroup(factors))
    rng = random.Random(sum(factors))
    for _ in range(12):
        primes = random_odd_prime_set(rng, model)
        pred = predicted_quotient(model, primes)
        brute, _ = lattice_quotient(model, primes)
        assert brute == predicted_group(pred)
        # homogeneous with one summand per coset of the generated subgroup
        subgroup = model.subgroup_closure(
            tuple(model.index_of(p.cls) for p in primes)
        )
        assert pred.coset_count == model.size // len(subgroup)
        assert set(brute.factors) == {pred.exponent}
        assert pred.exponent > 0 and pred.exponent % 2 == 0
        assert all(m % 2 == 1 for _, m in pred.multipliers.values())
        assert predicted_relation_failures(model, primes, pred) == []


def test_prediction_order_independent():
    model = ClassGroupModel(FinGenAbGroup((2, 4)))
    rng = random.Random(17)
    primes = random_odd_prime_set(rng, model, max_size=3)
    base = predicted_quotient(model, primes)
    for perm in itertools.permutations(primes):
        pred = predicted_quotient(model, list(perm))
        assert pred.exponent == base.exponent
        assert pred.coset_count == base.coset_count


@pytest.mark.parametrize("count", [1, 2, 4])
def test_prediction_cost_linear_in_class_number(count, monkeypatch):
    # Each prime may translate every coset once and the subgroup closure may
    # add every generator to every element, so a linear induction stays
    # within a small multiple of h * |F| group additions.
    model = ClassGroupModel(FinGenAbGroup((193,)))
    primes = [
        datum(f"q{i}", n, (c,))
        for i, (n, c) in enumerate([(3, 1), (5, 5), (7, 17), (11, 100)][:count])
    ]
    calls = 0
    add = ClassGroupModel.add

    def counted(self, i, j):
        nonlocal calls
        calls += 1
        return add(self, i, j)

    monkeypatch.setattr(ClassGroupModel, "add", counted)
    predicted_quotient(model, primes)
    assert calls <= 4 * model.size * count


def test_mixed_parity_brute_force_still_computes():
    # No homogeneity claim is made when even norms mix in; the quotient is
    # recorded as-is and only its validity as a group is checked.
    model = z2_model()
    p2 = datum("p2", 2, (1,))
    g, proj = lattice_quotient(model, [p2, P3])
    assert g.is_finite
    assert len(proj) == 2
    assert build_bundle(model.group, [p2, P3]).entry(["p2", "p3"]) == g


# Prime powers with all four even ones up to 16, so that sets mix parities.
MIXED_NORMS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


@st.composite
def small_group_and_primes(draw):
    """A group of order at most 16 and 1-4 primes, some with trivial or
    repeated classes."""
    group = draw(
        st.lists(st.integers(2, 16), max_size=3)
        .map(FinGenAbGroup.from_orders)
        .filter(lambda g: g.order() <= 16)
    )
    classes: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["any", "trivial", "repeated"]))
        if kind == "trivial" or (kind == "repeated" and not classes):
            cls = zero(group)
        elif kind == "repeated":
            cls = draw(st.sampled_from(classes))
        else:
            cls = group.element([draw(st.integers(0, d - 1)) for d in group.factors])
        classes.append(cls)
    norms = draw(st.lists(st.sampled_from(MIXED_NORMS), min_size=len(classes),
                          max_size=len(classes)))
    primes = [datum(f"r{i}", n, c) for i, (n, c) in enumerate(zip(norms, classes))]
    return group, primes


@settings(max_examples=300, deadline=None)
@given(small_group_and_primes())
@example((FinGenAbGroup((2, 4)),
          [datum("a", 2, (1, 2)), datum("b", 3, (1, 2)), datum("c", 4, (0, 0))]))
@example((FinGenAbGroup(()), [datum("a", 2, ()), datum("b", 9, ())]))
@example((FinGenAbGroup((16,)), [datum("a", 3, (4,)), datum("b", 5, (4,))]))
def test_formula_matches_both_certifying_routes(case):
    group, primes = case
    model = ClassGroupModel(group)
    brute, _ = lattice_quotient(model, primes)
    assert build_bundle(group, primes).entry(p.label for p in primes) == brute
    if all(p.has_odd_norm for p in primes):
        assert predicted_group(predicted_quotient(model, primes)) == brute
    if len(primes) == 1:
        assert singleton_quotient(model, primes[0]) == brute


# The two top rungs of the benchmark ladder, certified by routes that share
# nothing with the closed formula: the paper's induction at -100019
# (h = 193), and SNF of the whole sublattice on Z/4 x Z/4 x Z/8 (h = 128).


def test_top_quadratic_rung_matches_the_induction():
    spec = QuadraticSpec(-100019)
    primes = enumerate_prime_ideals(spec, 60)
    model = class_group_model(spec)
    assert model.size == 193
    bundle = build_bundle(model.group, primes)
    odd = [p for p in primes if p.has_odd_norm]
    sets = [[p] for p in primes]
    rng = random.Random(193)
    sets += [rng.sample(odd, rng.randint(1, 3)) for _ in range(12)]
    # A conjugate pair has inverse classes, so its relation (1, 1) cuts m
    # from N**193 - 1 down to N - 1; each pair also gets a seeded third prime.
    by_label = {p.label: p for p in primes}
    for p in primes:
        if p.label + "c" in by_label:
            pair = [p, by_label[p.label + "c"]]
            sets += [pair, pair + [rng.choice([q for q in odd if q not in pair])]]
    assert any(len(s) == 3 for s in sets)
    for subset in sets:
        if all(p.has_odd_norm for p in subset):
            want = predicted_group(predicted_quotient(model, subset))
        else:  # the induction needs odd norms: p_2 is inert, of norm 4
            [p] = subset
            want = singleton_quotient(model, p)
        assert bundle.entry([p.label for p in subset]) == want, subset


def test_top_synthetic_rung_matches_snf():
    # Every entry a blind reconstruction reads, plus seeded sets of mixed
    # parity, against the Smith normal form of the whole sublattice.
    rng = random.Random(448)
    group = FinGenAbGroup((4, 4, 8))
    classes = random_generating_family(rng, group, 5)
    norms = rng.sample(ODD_PRIME_POWERS, len(classes)) + [2, 4]
    classes += [group.element([rng.randrange(d) for d in group.factors]) for _ in range(2)]
    primes = [datum(f"s{i}", n, c) for i, (n, c) in enumerate(zip(norms, classes))]
    bundle = build_bundle(group, primes)
    assert reconstruct_all(bundle).class_group == group
    sets = [frozenset(key) for key in bundle.entries]
    assert max(map(len, sets)) >= 2
    labels = [p.label for p in primes]
    sets += [frozenset(rng.sample(labels, rng.randint(2, 3))) for _ in range(3)]
    assert any(norms[labels.index(l)] % 2 == 0 for s in sets[-3:] for l in s)
    model = ClassGroupModel(group)
    by_label = dict(zip(labels, primes))
    for key in sets:
        want, _ = lattice_quotient(model, [by_label[l] for l in sorted(key)])
        assert bundle.entry(key) == want, sorted(key)


def test_prime_datum_validation():
    # the spec loader decides each datum; `PrimeIdealDatum` checks nothing
    def load(norm):
        prime = {"label": "x", "norm": norm, "class": [], "residue_char": "2"}
        return synthetic_spec_from_json({"invariant_factors": [], "primes": [prime]})

    with pytest.raises(InvalidSyntheticSpec, match="^prime x: norm 6 is not a power of 2$"):
        load("6")
    with pytest.raises(InvalidSyntheticSpec, match="^prime x: norm must be at least 2$"):
        load("1")
    [p] = load("8").primes
    assert p == PrimeIdealDatum(label="x", norm=8, cls=(), residue_char=2)
    assert not p.has_odd_norm


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_prime_terms_read_classes_up_to_the_invariant_factors(data):
    # ord[p] and the column echelon see a class only modulo the invariant
    # factors, and a negated class generates the same subgroup
    group = data.draw(
        st.lists(st.integers(2, 12), min_size=1, max_size=3).map(FinGenAbGroup.from_orders)
    )
    n = data.draw(st.integers(1, 3))
    classes = [
        group.element([data.draw(st.integers(0, f - 1)) for f in group.factors])
        for _ in range(n)
    ]
    norms = data.draw(st.lists(st.sampled_from(MIXED_NORMS), min_size=n, max_size=n))
    shifted = [
        tuple(x + f * data.draw(st.integers(-3, 3)) for x, f in zip(c, group.factors))
        for c in classes
    ]
    negated = [tuple(-x for x in c) for c in classes]

    def terms(coords):
        primes = [datum(f"r{i}", m, c) for i, (m, c) in enumerate(zip(norms, coords))]
        return prime_terms(group, primes)

    h = group.order()
    want = terms(classes)
    for other in (terms(shifted), terms(negated)):
        assert [t[1:] for t in other] == [t[1:] for t in want]
        assert quotient_from_terms(group, other, h) == quotient_from_terms(group, want, h)


@pytest.mark.parametrize("cls", [(), (1, 0)])
def test_prime_terms_refuse_a_class_of_the_wrong_length(cls):
    with pytest.raises(ValueError):
        prime_terms(FinGenAbGroup((2,)), [datum("p", 3, cls)])
