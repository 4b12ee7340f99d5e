"""Quadratic-field ground truth: forms, composition, splitting, synthetic specs."""

import itertools
import random

import pytest
import sympy

from classrecon import fields
from classrecon.fields import (
    MAX_DISCRIMINANT,
    DiscriminantTooLarge,
    InvalidDiscriminant,
    NonPrimePowerNorm,
    OddNormClassesDoNotGenerate,
    QuadraticForm,
    QuadraticSpec,
    SyntheticSpec,
    _discriminant_data,
    class_group,
    class_group_model,
    enumerate_prime_ideals,
    ideal_class_of_prime,
    is_fundamental_discriminant,
    kronecker_splitting,
    kronecker_symbol,
    prime_form,
    principal_form,
    reduced_forms,
    validate_synthetic,
)
from classrecon.oracle import element_order, naive_represented_primes

from helpers import datum

TEST_DISCRIMINANTS = [-4, -20, -23, -47, -84]
CLASS_NUMBERS = {-4: 1, -20: 2, -23: 3, -47: 5, -84: 4}


def _oracle_discriminants() -> list[int]:
    """Fixed non-cyclic cases plus a seeded sample of fields with h <= 200."""
    rng = random.Random(2024)
    sample: list[int] = []
    while len(sample) < 12:
        d = -rng.randrange(1000, 100_000)
        if (
            is_fundamental_discriminant(d)
            and d not in sample
            and len(reduced_forms(d)) <= 200
        ):
            sample.append(d)
    return [-56, -120, -231, -260, -420, -2184, -3299] + sorted(sample, reverse=True)


ORACLE_DISCRIMINANTS = _oracle_discriminants()


class TestKroneckerSymbol:
    def test_against_sympy(self):
        rng = random.Random(12)
        for _ in range(400):
            a = rng.randint(-300, 300)
            n = rng.randint(1, 300)
            assert kronecker_symbol(a, n) == sympy.kronecker_symbol(a, n), (a, n)

    def test_odd_prime_is_legendre(self):
        for q in [3, 5, 7, 11, 13]:
            squares = {x * x % q for x in range(1, q)}
            for a in range(-40, 40):
                want = 0 if a % q == 0 else (1 if a % q in squares else -1)
                assert kronecker_symbol(a, q) == want

    def test_two_conventions(self):
        assert kronecker_symbol(7, 2) == 1
        assert kronecker_symbol(-1, 2) == 1
        assert kronecker_symbol(3, 2) == -1
        assert kronecker_symbol(5, 2) == -1
        assert kronecker_symbol(4, 2) == 0

    def test_completely_multiplicative(self):
        rng = random.Random(13)
        for _ in range(200):
            d = rng.choice(TEST_DISCRIMINANTS)
            m, n = rng.randint(1, 60), rng.randint(1, 60)
            assert kronecker_symbol(d, m * n) == kronecker_symbol(
                d, m
            ) * kronecker_symbol(d, n)


class TestDiscriminants:
    def test_fundamental_accepts(self):
        for d in TEST_DISCRIMINANTS + [-3, -8, -7, -11, -15, -24, -163]:
            assert is_fundamental_discriminant(d)

    def test_fundamental_rejects(self):
        for d in [5, 0, -1, -2, -5, -9, -12, -16, -18, -25, -45, -48]:
            assert not is_fundamental_discriminant(d)

    def test_reduced_forms_reject_bad_discriminant(self):
        with pytest.raises(InvalidDiscriminant):
            reduced_forms(5)
        with pytest.raises(InvalidDiscriminant):
            reduced_forms(-12)


class TestReducedForms:
    def test_pinned_enumerations(self):
        assert [f.triple for f in reduced_forms(-4)] == [(1, 0, 1)]
        assert [f.triple for f in reduced_forms(-20)] == [(1, 0, 5), (2, 2, 3)]
        assert sorted(f.triple for f in reduced_forms(-23)) == [
            (1, 1, 6),
            (2, -1, 3),
            (2, 1, 3),
        ]

    def test_all_reduced_and_right_discriminant(self):
        for d in TEST_DISCRIMINANTS:
            for f in reduced_forms(d):
                assert f.is_reduced
                assert f.discriminant == d

    def test_class_numbers(self):
        for d, h in CLASS_NUMBERS.items():
            assert len(reduced_forms(d)) == h

    def test_reduction_is_idempotent_and_class_preserving(self):
        for d in TEST_DISCRIMINANTS:
            forms = reduced_forms(d)
            for f in forms:
                assert f.reduced() == f
            # the substitution (x, y) -> (x + y, y) lands back on the same form
            for f in forms:
                g = QuadraticForm(f.a, f.b + 2 * f.a, f.a + f.b + f.c)
                assert g.discriminant == d
                assert g.reduced() == f


class TestComposition:
    @pytest.mark.parametrize("d", TEST_DISCRIMINANTS)
    def test_group_axioms(self, d):
        forms = reduced_forms(d)
        table = {(f, g): f.compose(g) for f in forms for g in forms}
        e = principal_form(d).reduced()
        for f in forms:
            assert table[(f, e)] == f
            assert table[(e, f)] == f
            assert table[(f, f.opposite())] == e
        for f, g in itertools.product(forms, repeat=2):
            assert table[(f, g)] == table[(g, f)]
        for f, g, h in itertools.product(forms, repeat=3):
            assert table[(table[(f, g)], h)] == table[(f, table[(g, h)])]

    def test_class_group_structures(self):
        assert class_group(QuadraticSpec(-4)).factors == ()
        assert class_group(QuadraticSpec(-20)).factors == (2,)
        assert class_group(QuadraticSpec(-23)).factors == (3,)
        assert class_group(QuadraticSpec(-47)).factors == (5,)
        assert class_group(QuadraticSpec(-84)).factors == (2, 2)

    def test_class_number_one_discriminants(self):
        # the nine imaginary quadratic fields with trivial class group
        for d in (-3, -4, -7, -8, -11, -19, -43, -67, -163):
            assert class_group(QuadraticSpec(d)).is_trivial, d

    def test_structure_matches_order_multiset(self):
        # independent check: element orders computed by raw composition
        # must match the order multiset of the claimed abstract group
        for d in ORACLE_DISCRIMINANTS:
            forms = reduced_forms(d)
            e = principal_form(d)
            orders = []
            for f in forms:
                acc, n = f, 1
                while acc != e:
                    acc = acc.compose(f)
                    n += 1
                orders.append(n)
            model = class_group_model(QuadraticSpec(d))
            abstract_orders = sorted(
                element_order(model.group, x) for x in model.elements
            )
            assert sorted(orders) == abstract_orders, d
            assert model.size == len(forms)

    def test_form_class_is_bijective_homomorphism(self):
        # all pairs for h <= 40, 200 seeded pairs above
        for d in ORACLE_DISCRIMINANTS:
            forms, classes = _forms_and_classes(d)
            group = class_group(QuadraticSpec(d))
            assert len(set(classes)) == len(forms) == group.order(), d
            cls = dict(zip(forms, classes))
            pairs = list(itertools.product(forms, repeat=2))
            if len(forms) > 40:
                pairs = random.Random(d).sample(pairs, 200)
            for f, g in pairs:
                assert cls[f.compose(g)] == group.add(cls[f], cls[g]), (d, f, g)

    @pytest.mark.parametrize(
        "d, factors",
        [
            (-1031, (35,)),
            (-10007, (77,)),
            (-100019, (193,)),
            (-3299, (3, 9)),
            (-2184, (2, 2, 6)),
            (-202127, (303,)),
        ],
    )
    def test_pinned_structures(self, d, factors):
        assert class_group(QuadraticSpec(d)).factors == factors

    def test_model_build_is_linear_in_class_number(self, monkeypatch):
        # subgroup extension composes each new form into place once and
        # takes at most one power step per form; no h^2 table
        calls = 0
        compose = QuadraticForm.compose

        def counted(self, other):
            nonlocal calls
            calls += 1
            return compose(self, other)

        monkeypatch.setattr(QuadraticForm, "compose", counted)
        data = _discriminant_data.__wrapped__(-202127)
        assert len(data.forms) == 303
        assert calls <= 2 * len(data.forms)

    def test_discriminant_above_limit_is_refused(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("work started on a refused discriminant")

        # the refusal comes before the squarefree test, which comes before
        # any form enumeration
        monkeypatch.setattr(fields, "is_fundamental_discriminant", no_enumeration)
        monkeypatch.setattr(fields, "factorize", no_enumeration)
        for d in (-MAX_DISCRIMINANT - 1, -(10**400)):
            with pytest.raises(DiscriminantTooLarge):
                _discriminant_data(d)
            with pytest.raises(DiscriminantTooLarge):
                QuadraticSpec(d)


class TestSplitting:
    def test_pinned_examples(self):
        s = kronecker_splitting(-20, 3)
        assert (s.kind, s.norm, s.prime_count) == ("split", 3, 2)
        s = kronecker_splitting(-20, 11)
        assert (s.kind, s.norm, s.prime_count) == ("inert", 121, 1)
        s = kronecker_splitting(-20, 5)
        assert (s.kind, s.norm, s.prime_count) == ("ramified", 5, 1)

    def test_norm_product_is_q_squared_for_unramified(self):
        for d in TEST_DISCRIMINANTS:
            for q in sympy.primerange(2, 50):
                q = int(q)
                s = kronecker_splitting(d, q)
                if s.kind == "split":
                    assert s.norm * s.norm == q * q and s.prime_count == 2
                elif s.kind == "inert":
                    assert s.norm == q * q and s.prime_count == 1
                else:
                    assert d % q == 0 and s.norm == q

    def test_ramified_class_squares_to_identity(self):
        for d in TEST_DISCRIMINANTS:
            group = class_group(QuadraticSpec(d))
            for q in sympy.primerange(2, 50):
                q = int(q)
                if d % q == 0:
                    cls = ideal_class_of_prime(d, q)
                    assert group.add(cls, cls) == group.zero()


class TestIdealClasses:
    def test_pinned_examples(self):
        nontrivial = (1,)
        assert ideal_class_of_prime(-20, 3) == nontrivial
        assert ideal_class_of_prime(-20, 7) == nontrivial
        assert ideal_class_of_prime(-20, 29) == (0,)

    def test_inert_rejected(self):
        with pytest.raises(ValueError):
            ideal_class_of_prime(-20, 11)

    def test_prime_form_leading_coefficient(self):
        for d in TEST_DISCRIMINANTS:
            for q in sympy.primerange(2, 30):
                q = int(q)
                if kronecker_splitting(d, q).kind == "inert":
                    continue
                f = prime_form(d, q)
                assert f.a == q
                assert f.discriminant == d
                assert 0 <= f.b < 2 * q

    def test_against_representation_search(self):
        for d in TEST_DISCRIMINANTS:
            group = class_group(QuadraticSpec(d))
            data = {f: c for f, c in zip(*_forms_and_classes(d))}
            for q in sympy.primerange(2, 30):
                q = int(q)
                rep = naive_represented_primes(d, q)
                split = kronecker_splitting(d, q)
                if split.kind == "inert":
                    assert rep is None
                    continue
                assert rep is not None and rep.form.value(rep.x, rep.y) == q
                cls = ideal_class_of_prime(d, q)
                found = data[rep.form]
                assert found in (cls, group.neg(cls))


def _forms_and_classes(d):
    dd = _discriminant_data(d)
    return dd.forms, dd.form_class


class TestEnumeration:
    def test_minus20_up_to_10(self):
        data = enumerate_prime_ideals(QuadraticSpec(-20), 10)
        norms = sorted(p.norm for p in data)
        assert norms == [2, 3, 3, 5, 7, 7]
        labels = [p.label for p in data]
        assert len(set(labels)) == len(labels)

    def test_minus4_up_to_5(self):
        data = enumerate_prime_ideals(QuadraticSpec(-4), 5)
        assert sorted(p.norm for p in data) == [2, 5, 5]

    def test_bound_one_is_empty(self):
        assert enumerate_prime_ideals(QuadraticSpec(-20), 1) == []

    def test_split_pair_has_inverse_classes(self):
        for d in TEST_DISCRIMINANTS:
            group = class_group(QuadraticSpec(d))
            data = {p.label: p for p in enumerate_prime_ideals(QuadraticSpec(d), 60)}
            for label, p in data.items():
                if label.endswith("c"):
                    partner = data[label[:-1]]
                    assert group.neg(partner.cls) == p.cls
                    assert partner.norm == p.norm

    def test_inert_primes_are_principal_with_square_norm(self):
        data = enumerate_prime_ideals(QuadraticSpec(-20), 130)
        inert = [p for p in data if p.norm == 121]
        assert len(inert) == 1
        assert inert[0].cls == (0,)
        assert inert[0].residue_char == 11

    def test_generation_by_odd_norm_classes(self):
        # the odd-norm classes below a modest bound generate; record the bound
        for d in TEST_DISCRIMINANTS:
            model = class_group_model(QuadraticSpec(d))
            bound = None
            for x in range(3, 200):
                data = enumerate_prime_ideals(QuadraticSpec(d), x)
                odd = tuple(
                    model.index_of(p.cls) for p in data if p.norm % 2 == 1
                )
                if len(model.subgroup_closure(odd)) == model.size:
                    bound = x
                    break
            assert bound is not None, f"odd classes never generated for {d}"
            print(f"disc {d}: odd-norm classes generate once norms reach {bound}")


class TestSyntheticValidation:
    def test_valid_spec(self):
        spec = SyntheticSpec(
            (2,), (datum("a", 3, (1,)), datum("b", 7, (1,)))
        )
        assert validate_synthetic(spec) is spec

    def test_odd_classes_must_generate(self):
        spec = SyntheticSpec((2,), (datum("a", 3, (0,)),))
        with pytest.raises(OddNormClassesDoNotGenerate):
            validate_synthetic(spec)
        # even-norm nontrivial class does not rescue generation
        spec = SyntheticSpec(
            (2,), (datum("a", 2, (1,)), datum("b", 3, (0,)))
        )
        with pytest.raises(OddNormClassesDoNotGenerate):
            validate_synthetic(spec)

    def test_norms_must_be_prime_powers(self):
        # the datum type itself refuses a norm that is not a power of its prime
        with pytest.raises(ValueError):
            datum("a", 6, (1,), 2)
        # raw file data with norm 6 surfaces the designated error
        from classrecon.cli import synthetic_spec_from_json

        doc = {
            "invariant_factors": ["2"],
            "primes": [{"norm": "6", "class": [1], "residue_char": "2"}],
        }
        with pytest.raises(NonPrimePowerNorm):
            synthetic_spec_from_json(doc)
        ok = SyntheticSpec((2,), (datum("a", 3, (1,)), datum("b", 25, (1,), 5)))
        assert validate_synthetic(ok)

    def test_duplicate_labels_rejected(self):
        spec = SyntheticSpec(
            (2,), (datum("a", 3, (1,)), datum("a", 5, (1,)))
        )
        with pytest.raises(ValueError):
            validate_synthetic(spec)

    def test_non_canonical_factors_rejected(self):
        with pytest.raises(ValueError):
            validate_synthetic(SyntheticSpec((4, 2), (datum("a", 3, (1, 1)),)))
