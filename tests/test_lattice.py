"""Quotient invariants of the class-group lattice: both routes, all claims."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classrecon.abgroup import (
    FinGenAbGroup,
    IntMatrix,
    cokernel_of_columns,
    iso_equal,
    smith_normal_form,
)
from classrecon.lattice import (
    ClassGroupModel,
    PrimeIdealDatum,
    lattice_quotient,
    quotient_group,
    sublattice_columns,
)
from classrecon.oracle import (
    PredictedQuotient,
    cycle_cokernel,
    naive_member,
    predicted_group,
    predicted_quotient,
    predicted_relation_failures,
    singleton_quotient,
)

from helpers import ODD_PRIME_POWERS, datum, z2_model


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
        s, _, _ = smith_normal_form(IntMatrix.from_rows([[1, -5], [-3, 1]]))
        assert s.diagonal() == (1, 14)

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
            assert iso_equal(g, FinGenAbGroup.from_orders([order]))
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
            assert iso_equal(brute, singleton_quotient(z2_model(), p))


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
        assert iso_equal(brute, predicted_group(pred))
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
    assert quotient_group(model.group, [p2, P3]) == g


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
            cls = group.zero()
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
    assert quotient_group(group, primes) == brute
    if all(p.has_odd_norm for p in primes):
        assert predicted_group(predicted_quotient(model, primes)) == brute
    if len(primes) == 1:
        assert singleton_quotient(model, primes[0]) == brute


def test_prime_datum_validation():
    with pytest.raises(ValueError):
        PrimeIdealDatum(label="x", norm=6, cls=(), residue_char=2)
    with pytest.raises(ValueError):
        PrimeIdealDatum(label="x", norm=1, cls=(), residue_char=2)
    p = PrimeIdealDatum(label="x", norm=8, cls=(), residue_char=2)
    assert not p.has_odd_norm
