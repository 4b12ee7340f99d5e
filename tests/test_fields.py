"""Quadratic-field ground truth: forms, composition, splitting, synthetic specs."""

import itertools
import random
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classrecon import fields, forms
from classrecon.fields import (
    SyntheticSpec,
    _prime_triple,
    enumerate_prime_ideals,
    synthetic_spec_from_json,
)
from classrecon.forms import (
    QuadraticSpec,
    _cokernel,
    _compose_triples,
    _discriminant_data,
    _reduce_triple,
    _reduced_triples,
    class_group,
    is_fundamental_discriminant,
)
from classrecon.abgroup import FinGenAbGroup, primes_up_to
from classrecon.errors import (
    MAX_BOUND,
    MAX_DISCRIMINANT,
    InsufficientGenerators,
    InternalContradiction,
    InvalidDiscriminant,
    InvalidSyntheticSpec,
    LimitExceeded,
)
from classrecon.lattice import index_and_relations, roundtrip
from classrecon.oracle import (
    QUOTIENT_GUARD,
    class_group_model,
    class_number_formula,
    cokernel_of_columns,
    dirichlet_compose,
    element_order,
    group_add,
    naive_cokernel,
    naive_reduce,
    naive_reduced_forms,
    naive_represented_primes,
)

from helpers import datum, load_spec, neg, zero

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
            and len(_reduced_triples(d)) <= 200
        ):
            sample.append(d)
    return [-56, -120, -231, -260, -420, -2184, -3299] + sorted(sample, reverse=True)


ORACLE_DISCRIMINANTS = _oracle_discriminants()


def _enumeration_discriminants() -> list[int]:
    """Every shape of fundamental discriminant, for the form enumeration.

    Fixed: class number one, the ladder and -3000047 (h = 955).  Seeded:
    four of each shape D = 1, 5 (mod 8) and D = 8, 12 (mod 16), drawn from
    |D| < 2*10**5, plus two of each from |D| < 2000.
    """
    rng = random.Random(8)
    sample: list[int] = []
    for top, count in ((2000, 2), (200_000, 4)):
        for shape in ((8, 1), (8, 5), (16, 8), (16, 12)):
            drawn = 0
            while drawn < count:
                d = -rng.randrange(3, top)
                if d % shape[0] == shape[1] and is_fundamental_discriminant(d):
                    sample.append(d)
                    drawn += 1
    return [-3, -4, -7, -8, -84, -1031, -10007, -100019, -3000047] + sample


ENUMERATION_DISCRIMINANTS = _enumeration_discriminants()


def _scanned_prime_form(d: int, q: int) -> tuple[int, int, int] | None:
    """The form (q, b, c) with the least b in range(2q), by trying each b."""
    for b in range(2 * q):
        num = b * b - d
        if num % (4 * q) == 0:
            return (q, b, num // (4 * q))
    return None


def _principal(d: int) -> tuple[int, int, int]:
    return (1, d % 2, (d % 2 - d) // 4)


def _discriminant(f: tuple[int, int, int]) -> int:
    a, b, c = f
    return b * b - 4 * a * c


@st.composite
def positive_definite_triples(draw):
    a, c = draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))
    top = isqrt(4 * a * c - 1)
    return a, draw(st.integers(-top, top)), c


class TestDiscriminants:
    def test_fundamental_accepts(self):
        for d in TEST_DISCRIMINANTS + [-3, -8, -7, -11, -15, -24, -163]:
            assert is_fundamental_discriminant(d)

    def test_fundamental_rejects(self):
        for d in [5, 0, -1, -2, -5, -9, -12, -16, -18, -25, -45, -48]:
            assert not is_fundamental_discriminant(d)

    def test_reduced_forms_reject_bad_discriminant(self):
        with pytest.raises(InvalidDiscriminant):
            _reduced_triples(5)
        with pytest.raises(InvalidDiscriminant):
            _reduced_triples(-12)


class TestReducedForms:
    def test_pinned_enumerations(self):
        assert _reduced_triples(-4) == [(1, 0, 1)]
        assert _reduced_triples(-20) == [(1, 0, 5), (2, 2, 3)]
        assert sorted(_reduced_triples(-23)) == [
            (1, 1, 6),
            (2, -1, 3),
            (2, 1, 3),
        ]

    def test_all_reduced_and_right_discriminant(self):
        for d in TEST_DISCRIMINANTS:
            for f in _reduced_triples(d):
                assert _reduce_triple(*f) == f
                assert _discriminant(f) == d

    def test_class_numbers(self):
        for d, h in CLASS_NUMBERS.items():
            assert len(_reduced_triples(d)) == h

    def test_reduction_is_idempotent_and_class_preserving(self):
        for d in TEST_DISCRIMINANTS:
            forms = _reduced_triples(d)
            for f in forms:
                assert _reduce_triple(*f) == f
            # the substitution (x, y) -> (x + y, y) lands back on the same form
            for a, b, c in forms:
                g = (a, b + 2 * a, a + b + c)
                assert _discriminant(g) == d
                assert _reduce_triple(*g) == (a, b, c)

    @settings(max_examples=300, deadline=None)
    @given(positive_definite_triples())
    @example((5, -3, 5))
    @example((7, 7, 7))
    @example((3, -17, 25))
    def test_reduction_agrees_with_the_oracle(self, triple):
        assert _reduce_triple(*triple) == naive_reduce(*triple)


class TestFormEnumeration:
    @pytest.mark.parametrize("d", ENUMERATION_DISCRIMINANTS)
    def test_reduced_forms_match_the_pair_scan(self, d):
        assert _reduced_triples(d) == naive_reduced_forms(d)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-19999, -4).filter(is_fundamental_discriminant))
    @example(-3)  # class number one, and a = 1 for odd D
    @example(-4)  # class number one, and a = 1 for even D
    @example(-8)  # a = 1 for D = 8 (mod 16)
    @example(-311)  # the forms (9, +-b, c): a root modulo 3^2, lifted to odd b
    @example(-296)  # the forms (9, +-b, c) of an even D
    @example(-2291)  # a = 27 = 3^3, lifted from the roots modulo 3^2
    @example(-2456)  # a = 27 for an even D
    @example(-6251)  # a = 45 = 3^2 * 5, lifted from the roots modulo 15
    @example(-6164)  # a = 45 for an even D
    @example(-15695)  # a = 72 = 2^3 * 3^2, CRT of 2-adic roots and a lifted root
    def test_reduced_forms_match_the_pair_scan_on_drawn_discriminants(self, d):
        # each a's roots are lifted to the parity of D and sorted per a
        assert _reduced_triples(d) == naive_reduced_forms(d)

    def test_sample_reaches_every_root_case(self):
        # leading coefficients with an odd prime square, also an odd a = q^2 * m
        # with q its least prime and m > 1 not a power of q (its roots lift
        # from those modulo the composite a / q), and with 2^3 or more, for
        # odd D, and with 2 for D = 8 and 12 (mod 16)
        reached = set()
        for d in ENUMERATION_DISCRIMINANTS:
            for a, _, _ in _reduced_triples(d):
                if any(a % (q * q) == 0 for q in (3, 5, 7)):
                    reached.add(("odd square", d % 2))
                if a % 2 and a > 1:
                    exponents = sympy.factorint(a)
                    if exponents[min(exponents)] >= 2 and len(exponents) > 1:
                        reached.add(("odd square times m", d % 2))
                if a % 8 == 0:
                    reached.add(("2^3", d % 2))
                if a % 2 == 0:
                    reached.add(("even a", d % 16 if d % 2 == 0 else 1))
        assert reached >= {
            ("odd square", 0), ("odd square", 1), ("2^3", 1),
            ("odd square times m", 0), ("odd square times m", 1),
            ("even a", 1), ("even a", 8), ("even a", 12),
        }

    @pytest.mark.parametrize("d", ENUMERATION_DISCRIMINANTS)
    def test_prime_form_matches_the_b_scan(self, d):
        # None, which marks q inert, exactly where the scan finds no form
        for q in primes_up_to(500):
            assert _prime_triple(d, q) == _scanned_prime_form(d, q), (d, q)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-999999, -4).filter(is_fundamental_discriminant))
    @example(-84)  # q = 2 ramified with b = q, and q = 3 ramified with b = 0
    @example(-420)  # four ramified primes, q = 2, 3, 5 and 7
    @example(-3299)  # split primes of a non-cyclic group, Z/3 x Z/9
    def test_small_prime_forms_are_the_reduced_forms(self, d):
        # for 4q^2 <= |D| every form (q, b, c) with -q < b <= q has
        # c >= |D|/4q >= q, so it is reduced: the reduced forms with a = q
        # decide how q splits, and the prime form is the one with b >= 0
        triples = _reduced_triples(d)
        for q in primes_up_to(isqrt(-d // 4)):
            found = [f for f in triples if f[0] == q]
            form = _prime_triple(d, q)
            if form is None:
                assert found == [], (d, q)
                continue
            assert form == max(found) and form[1] >= 0, (d, q)
            if d % q:
                assert found == [(q, -form[1], form[2]), form], (d, q)
            else:
                assert found == [form] and form[1] in (0, q), (d, q)


def _class_number_discriminants() -> list[int]:
    """The ladder, the six `ladder` benchmark `invariants` fields of seed 1, and
    200 seeded fundamental discriminants in [-20000, -5]."""
    rng = random.Random(17)
    sample: list[int] = []
    while len(sample) < 200:
        d = -rng.randrange(5, 20001)
        if is_fundamental_discriminant(d) and d not in sample:
            sample.append(d)
    return [-84, -1031, -10007, -100019, -3023, -33083, -19207, -7927, -32603, -23603] + sample


def test_class_number_formula_certifies_the_form_count():
    # Dirichlet's analytic class number formula, one Kronecker symbol per
    # a < |D|/2, against the number of reduced forms the build enumerates
    for d in _class_number_discriminants():
        assert class_number_formula(d) == len(_reduced_triples(d)), d


def test_class_number_formula_refuses_what_it_does_not_cover():
    for d in (-3, -4):
        with pytest.raises(ValueError):
            class_number_formula(d)
    with pytest.raises(InvalidDiscriminant):
        class_number_formula(-12)


@st.composite
def relation_matrices(draw):
    """A rank of 0-4 and up to 7 integer columns of that rank, some of them zero."""
    rank = draw(st.integers(0, 4))
    column = st.one_of(st.just((0,) * rank), st.tuples(*[st.integers(-12, 12)] * rank))
    return rank, draw(st.lists(column, max_size=7))


class TestBuildCokernel:
    @settings(max_examples=200, deadline=None)
    @given(relation_matrices())
    @example((2, []))  # no relation: free of rank 2
    @example((2, [(0, 0), (4, 0)]))  # a zero column, and fewer columns than rows
    @example((1, [(6,), (4,), (0,), (9,)]))  # more columns than rows
    @example((3, [(2, 0, 0), (-1, 37, 0), (-1, -5, 2)]))  # a build's triangular relations
    def test_matches_both_references(self, case):
        # the class-group build's cokernel against the general Smith normal
        # form and against coset enumeration; its images must respect every
        # relation and generate the group, so Z^rank / columns maps onto the
        # group isomorphically
        rank, columns = case
        group, rows = _cokernel(rank, columns)
        assert group == cokernel_of_columns(rank, columns)[0]
        if group.is_finite and group.order() <= QUOTIENT_GUARD:
            assert group == naive_cokernel(rank, columns)
        assert len(rows) == len(group.factors) and all(len(row) == rank for row in rows)
        images = [group.element([row[i] for row in rows]) for i in range(rank)]
        for column in columns:
            image = [sum(c * x[t] for c, x in zip(column, images)) for t in range(len(rows))]
            assert group.element(image) == zero(group)
        assert index_and_relations(images, group.factors)[0] == 1


class TestComposition:
    @pytest.mark.parametrize("d", TEST_DISCRIMINANTS)
    def test_group_axioms(self, d):
        forms = _reduced_triples(d)
        table = {(f, g): _compose_triples(f, g) for f in forms for g in forms}
        e = _reduce_triple(*_principal(d))
        for f in forms:
            a, b, c = f
            assert table[(f, e)] == f
            assert table[(e, f)] == f
            assert table[(f, _reduce_triple(a, -b, c))] == e
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
            assert class_group(QuadraticSpec(d)).factors == (), d

    def test_structure_matches_order_multiset(self):
        # independent check: element orders computed by raw composition
        # must match the order multiset of the claimed abstract group
        for d in ORACLE_DISCRIMINANTS:
            forms = _reduced_triples(d)
            e = _principal(d)
            orders = []
            for f in forms:
                acc, n = f, 1
                while acc != e:
                    acc = _compose_triples(acc, f)
                    n += 1
                orders.append(n)
            model = class_group_model(QuadraticSpec(d))
            abstract_orders = sorted(
                element_order(model.group, x) for x in model.elements
            )
            assert sorted(orders) == abstract_orders, d
            assert model.size == len(forms)

    def test_form_class_is_bijective_homomorphism(self):
        # every pair for h <= 40; larger fields draw their pairs below
        for d in ORACLE_DISCRIMINANTS:
            forms, classes = _forms_and_classes(d)
            group = class_group(QuadraticSpec(d))
            assert len(set(classes)) == len(forms) == group.order(), d
            if len(forms) > 40:
                continue
            cls = dict(zip(forms, classes))
            for f, g in itertools.product(forms, repeat=2):
                want = group_add(group, cls[f], cls[g])
                assert cls[_compose_triples(f, g)] == want, (d, f, g)

    @pytest.mark.parametrize(
        "d", [d for d in ORACLE_DISCRIMINANTS if len(_reduced_triples(d)) > 40]
    )
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_form_class_is_homomorphic_on_drawn_pairs(self, d, data):
        forms, classes = _forms_and_classes(d)
        group = class_group(QuadraticSpec(d))
        i, j = data.draw(st.tuples(*[st.integers(0, len(forms) - 1)] * 2))
        product = forms.index(_compose_triples(forms[i], forms[j]))
        assert classes[product] == group_add(group, classes[i], classes[j])

    @pytest.mark.parametrize("d, h", [(-100019, 193), (-895211, 299)])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_kernel_agrees_with_dirichlet_composition(self, d, h, data):
        # the united-forms kernel against Dirichlet composition (CRT for B,
        # its own reduction) on reduced forms with coprime leading coefficients
        forms = _forms_and_classes(d)[0]
        assert len(forms) == h
        f = data.draw(st.sampled_from(forms))
        g = data.draw(st.sampled_from([x for x in forms if gcd(f[0], x[0]) == 1]))
        assert _compose_triples(f, g) == dirichlet_compose(f, g) == _compose_triples(g, f)

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
        # subgroup extension composes each new form into place at most once,
        # as a translate or as a power step, the principal form translates
        # without a composition and each inverse coset comes by negation:
        # (h - 1)/2 in all for odd h, fewer than h for even h, no h^2 table
        calls = 0
        compose = forms._compose_triples

        def counted(f, g):
            nonlocal calls
            calls += 1
            return compose(f, g)

        monkeypatch.setattr(forms, "_compose_triples", counted)
        data = _discriminant_data.__wrapped__(-202127)
        assert len(data.forms) == 303
        assert 0 < calls < len(data.forms)

    def test_model_build_returns_the_enumerated_triples(self):
        assert _discriminant_data(-202127).forms == tuple(_reduced_triples(-202127))

    def test_prime_enumeration_computes_one_symbol_per_prime(self, monkeypatch):
        # a prime q with 4q^2 <= |D| is read off the reduced forms, which the
        # build already holds; above that, one square root per odd prime
        # decides its splitting and gives its prime form
        calls = []
        root = fields.sqrt_mod_prime

        def counted(a, q):
            calls.append(q)
            return root(a, q)

        _discriminant_data(-100019)
        monkeypatch.setattr(fields, "sqrt_mod_prime", counted)
        enumerate_prime_ideals(QuadraticSpec(-100019), 2000)
        # 4 * 157**2 <= 100019 < 4 * 163**2: the 36 odd primes below 163
        # take no root, each one above takes one
        assert calls == [q for q in primes_up_to(2000) if q >= 163]
        assert len(calls) == 266

    def test_discriminant_above_limit_is_refused(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("work started on a refused discriminant")

        # the refusal comes before the squarefree test, which comes before
        # any form enumeration
        monkeypatch.setattr(forms, "is_fundamental_discriminant", no_enumeration)
        monkeypatch.setattr(forms, "factorize", no_enumeration)
        for d in (-MAX_DISCRIMINANT - 1, -(10**400)):
            with pytest.raises(LimitExceeded, match=r"^\|D\| = \d+ exceeds the limit"):
                _discriminant_data(d)
            with pytest.raises(LimitExceeded, match=r"^\|D\| = \d+ exceeds the limit"):
                QuadraticSpec(d)

    def test_prime_enumeration_factors_the_discriminant_once(self, monkeypatch):
        calls = []
        factorize = forms.factorize

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(forms, "factorize", counted)
        forms._check_discriminant.cache_clear()
        forms._discriminant_data.cache_clear()
        data = enumerate_prime_ideals(QuadraticSpec(-100019), 2000)
        assert len(data) > 250  # one check, not one per prime
        assert calls == [100019]


def _norms_by_prime(d: int, bound: int) -> dict[int, list[int]]:
    """The norms of the prime ideals above each rational prime, in label order."""
    norms: dict[int, list[int]] = {}
    for p in enumerate_prime_ideals(QuadraticSpec(d), bound):
        norms.setdefault(p.residue_char, []).append(p.norm)
    return norms


def _inverse_sample() -> list[int]:
    """Fields whose class coordinates depend on the coset walk, and a seeded sample."""
    rng = random.Random(34)
    pool = [d for d in range(-3, -6000, -1) if is_fundamental_discriminant(d)]
    return [-287, -455, -644, -1319, -1000040] + rng.sample(pool, 60)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_inverse_sample()))
def test_inverse_form_has_the_negated_class(d):
    # (a, -b, c) is the inverse of the reduced form (a, b, c); unless the form
    # is ambiguous (b = 0, b = a or a = c), it is reduced and another form
    data = _discriminant_data(d)
    index = {f: i for i, f in enumerate(data.forms)}
    for (a, b, c), cls in zip(data.forms, data.form_class):
        if b in (0, a) or a == c:
            assert group_add(data.group, cls, cls) == zero(data.group)
            continue
        assert data.form_class[index[a, -b, c]] == neg(data.group, cls)


class TestSplitting:
    @pytest.mark.parametrize("d", [-84, -420, -3299, -100019, -3000047])
    def test_prime_data_match_the_root_route(self, d):
        # each prime's data as if every q took a square root: p_q gets the
        # class of its prime form (q, b, c), b the least root, and p_qc that
        # of (q, -b, c), so the forms read off the build for 4q^2 <= |D|
        # label the conjugates as the root route does
        data = _discriminant_data(d)
        want = []
        for q in primes_up_to(700):
            form = _prime_triple(d, q)
            if form is None:
                if q * q <= 700:
                    want.append(datum(f"p_{q}", q * q, data.form_class[0], q))
                continue
            for label, b in (f"p_{q}", form[1]), (f"p_{q}c", -form[1]):
                cls = data.form_class[data.index[_reduce_triple(q, b, form[2])]]
                want.append(datum(label, q, cls, q))
                if d % q == 0:
                    break
        assert enumerate_prime_ideals(QuadraticSpec(d), 700) == want

    def test_pinned_examples(self):
        data = {p.label: p for p in enumerate_prime_ideals(QuadraticSpec(-20), 121)}
        assert [data[k].norm for k in ("p_3", "p_3c", "p_5", "p_11")] == [3, 3, 5, 121]
        assert "p_5c" not in data and "p_11c" not in data  # ramified, inert
        assert data["p_11"].cls == (0,)

    def test_norm_product_is_q_squared_for_unramified(self):
        for d in TEST_DISCRIMINANTS:
            norms = _norms_by_prime(d, 50 * 50)
            for q in sympy.primerange(2, 50):
                q = int(q)
                if d % q == 0:
                    assert norms[q] == [q], (d, q)
                else:
                    assert norms[q] in ([q, q], [q * q]), (d, q)

    @pytest.mark.parametrize("d", ENUMERATION_DISCRIMINANTS)
    def test_kinds_follow_the_kronecker_symbol(self, d):
        # ramified, split and inert as q | d, (d|q) = 1 and (d|q) = -1
        data = {p.label: p for p in enumerate_prime_ideals(QuadraticSpec(d), 500 * 500)}
        for q in primes_up_to(500):
            p = data[f"p_{q}"]
            symbol = sympy.kronecker_symbol(d, q)
            if d % q == 0:
                assert (p.norm, f"p_{q}c" in data) == (q, False), (d, q)
            elif symbol == 1:
                assert (p.norm, data[f"p_{q}c"].norm) == (q, q), (d, q)
            else:
                assert symbol == -1 and f"p_{q}c" not in data, (d, q)
                assert (p.norm, p.cls) == (q * q, zero(class_group(QuadraticSpec(d))))

    def test_ramified_class_squares_to_identity(self):
        for d in TEST_DISCRIMINANTS:
            group = class_group(QuadraticSpec(d))
            ramified = [
                p for p in enumerate_prime_ideals(QuadraticSpec(d), 50)
                if d % p.residue_char == 0
            ]
            assert [p.residue_char for p in ramified] == [
                int(q) for q in sympy.primerange(2, 50) if d % q == 0
            ]
            for p in ramified:
                assert group_add(group, p.cls, p.cls) == zero(group)


def _classes_by_label(d: int, bound: int) -> dict:
    return {p.label: p.cls for p in enumerate_prime_ideals(QuadraticSpec(d), bound)}


class TestIdealClasses:
    def test_pinned_examples(self):
        nontrivial = (1,)
        classes = _classes_by_label(-20, 30)
        assert classes["p_3"] == nontrivial
        assert classes["p_7"] == nontrivial
        assert classes["p_29"] == (0,)

    def test_inert_rejected(self):
        # an inert prime has no form (q, b, c), and the kernel finds none
        assert _prime_triple(-20, 11) is None

    def test_imprimitive_form_raises(self):
        # only a non-fundamental discriminant has one: (2, 2, 2) and (3, 0, 3)
        for d, q in ((-12, 2), (-36, 3)):
            with pytest.raises(InternalContradiction):
                _prime_triple(d, q)

    def test_prime_form_leading_coefficient(self):
        for d in TEST_DISCRIMINANTS:
            for q in sympy.primerange(2, 30):
                f = _prime_triple(d, int(q))
                if f is None:
                    continue
                assert f[0] == q
                assert _discriminant(f) == d
                assert 0 <= f[1] < 2 * q

    def test_against_representation_search(self):
        # the kinds come from the enumeration, the forms from a naive search
        for d in TEST_DISCRIMINANTS:
            group = class_group(QuadraticSpec(d))
            data = {f: c for f, c in zip(*_forms_and_classes(d))}
            primes = {p.label: p for p in enumerate_prime_ideals(QuadraticSpec(d), 900)}
            for q in sympy.primerange(2, 30):
                q = int(q)
                rep = naive_represented_primes(d, q)
                p = primes[f"p_{q}"]
                if p.norm == q * q:  # inert
                    assert rep is None
                    continue
                (a, b, c), x, y = rep.form, rep.x, rep.y
                assert a * x * x + b * x * y + c * y * y == q
                if f"p_{q}c" in primes:  # split
                    assert primes[f"p_{q}c"].cls == neg(group, p.cls)
                assert data[rep.form] in (p.cls, neg(group, p.cls))


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
                    assert neg(group, partner.cls) == p.cls
                    assert partner.norm == p.norm

    def test_inert_primes_are_principal_with_square_norm(self):
        data = enumerate_prime_ideals(QuadraticSpec(-20), 130)
        inert = [p for p in data if p.norm == 121]
        assert len(inert) == 1
        assert inert[0].cls == (0,)
        assert inert[0].residue_char == 11

    def test_no_norm_above_the_bound_limit_comes_back(self):
        # No bundle carries a norm above MAX_BOUND, so the consumer's
        # primality test need decide no larger norm.
        spec = load_spec(SyntheticSpec((2,), (
            datum("a", 3, (1,)),
            datum("b", 3137**2, (0,)),
            datum("c", 9_999_991, (1,)),
            datum("d", 2**24, (1,)),
            datum("e", 3**15, (0,)),
            datum("f", 9_999_991**2, (1,)),
        )))
        data = enumerate_prime_ideals(spec, MAX_BOUND)
        assert [p.label for p in data] == ["a", "b", "c"]

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
    # `synthetic_spec_from_json` alone decides whether a spec is valid; the
    # command-line refusals, line by line, are in `tests/test_cli.py`.
    def test_valid_spec(self):
        spec = SyntheticSpec(
            (2,), (datum("a", 3, (1,)), datum("b", 7, (1,)))
        )
        assert load_spec(spec) == spec

    def test_odd_classes_need_not_generate(self):
        # Whether the odd-norm classes generate is the blind consumer's
        # question, as for a quadratic field: the spec loads, and a round
        # trip refuses it with the consumer's line.
        too_few = [
            SyntheticSpec((2,), (datum("a", 3, (0,)),)),
            # an even-norm nontrivial class does not rescue generation
            SyntheticSpec((2,), (datum("a", 2, (1,)), datum("b", 3, (0,)))),
        ]
        for spec in too_few:
            assert load_spec(spec) == spec
            with pytest.raises(InsufficientGenerators, match="^odd-norm labels exhibit "
                               "a subgroup of order 1, but the class number is 2; "):
                roundtrip(class_group(spec), list(spec.primes), 10)

    def test_norms_must_be_prime_powers(self):
        # the loader refuses a norm that is not a power of its prime; the
        # record itself checks nothing
        assert datum("a", 6, (1,), 2).norm == 6
        doc = {
            "invariant_factors": ["2"],
            "primes": [{"norm": "6", "class": [1], "residue_char": "2"}],
        }
        with pytest.raises(InvalidSyntheticSpec, match="^prime s0: norm 6 is not a power of 2$"):
            synthetic_spec_from_json(doc)
        ok = SyntheticSpec((2,), (datum("a", 3, (1,)), datum("b", 25, (1,), 5)))
        assert load_spec(ok) == ok

    def test_duplicate_labels_rejected(self):
        spec = SyntheticSpec(
            (2,), (datum("a", 3, (1,)), datum("a", 5, (1,)))
        )
        with pytest.raises(InvalidSyntheticSpec, match="^duplicate prime labels"):
            load_spec(spec)

    def test_non_canonical_factors_rejected(self):
        with pytest.raises(InvalidSyntheticSpec, match="^invariant factors: factors "
                           r"\(4, 2\) are not in canonical form$"):
            load_spec(SyntheticSpec((4, 2), (datum("a", 3, (1, 1)),)))


class TestValueSemantics:
    def test_checked_types_compare_hash_and_print_by_fields(self):
        spec = QuadraticSpec(-23)
        assert spec == QuadraticSpec(-23) and spec != QuadraticSpec(-31)
        assert len({spec, QuadraticSpec(-23)}) == 1
        assert repr(spec) == "QuadraticSpec(discriminant=-23)"
        assert {class_group(spec): "h = 3"}[FinGenAbGroup((3,))] == "h = 3"
        assert enumerate_prime_ideals(spec, 50) == enumerate_prime_ideals(spec, 50)

    def test_unchecked_records_are_immutable_tuples(self):
        primes = tuple(enumerate_prime_ideals(QuadraticSpec(-23), 20))
        spec = SyntheticSpec((3,), primes)
        assert spec == ((3,), primes)
        with pytest.raises(AttributeError):
            spec.factors = (5,)
        assert spec == SyntheticSpec(spec.factors, tuple(spec.primes))
        assert hash(spec) == hash(SyntheticSpec(spec.factors, tuple(spec.primes)))


def test_quadratic_sweep_output_is_unchanged():
    # Every byte that `classgroup -D`, `roundtrip` and `invariants --set -o`
    # write, and every exit code, for the 319 discriminants of
    # `sweep_quadratic`: a change to the class-group build, the prime
    # enumeration or the bundle producer that changes any output changes the
    # digest.
    from sweep_quadratic import sweep

    digest, codes = sweep(300, 20261021)
    assert digest == "ff6bf743b03046d3189fdfa17990c08e981b84ae04f23d0d231f21ad92af312b"
    assert codes == {0: 957}
