"""Exact linear algebra and abelian group arithmetic, checked against oracles."""

import doctest
import operator
import random
import subprocess
import sys
import time
from math import isqrt

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import classrecon.abgroup
from classrecon.abgroup import (
    FinGenAbGroup,
    LimitExceeded,
    factorize,
    integer_nth_root,
    is_canonical,
    is_prime,
    is_prime_power,
    primes_up_to,
)
from classrecon.errors import MAX_BOUND
from classrecon.forms import _two_adic_roots, smallest_prime_factors, sqrt_mod_prime
from classrecon.lattice import index_and_relations, xgcd
from classrecon.oracle import (
    QUOTIENT_GUARD,
    cokernel_of_columns,
    determinant,
    element_order,
    group_add,
    naive_cokernel,
    naive_member,
    naive_order_index,
    primary_decomposition,
    smith_normal_form,
)
from classrecon.reconstruct import p_part

from helpers import matrix_product, subprocess_env, zero


def random_matrix(rng, max_dim=6, lo=-50, hi=50):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return tuple(tuple(rng.randint(lo, hi) for _ in range(c)) for _ in range(r))


def diagonal(rows):
    return tuple(rows[i][i] for i in range(min(len(rows), len(rows[0]))))


def test_doctests():
    failures, _ = doctest.testmod(classrecon.abgroup)
    assert failures == 0


def test_xgcd():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


class TestSmithNormalForm:
    def test_identity(self):
        eye = ((1, 0), (0, 1))
        s, u, v = smith_normal_form(eye)
        assert s == eye

    def test_zero(self):
        z = ((0, 0), (0, 0))
        s, u, v = smith_normal_form(z)
        assert s == z

    def test_diag_2_3(self):
        a = ((2, 0), (0, 3))
        s, u, v = smith_normal_form(a)
        assert s == ((1, 0), (0, 6))
        assert abs(determinant(s)) == 6
        assert matrix_product(u, a, v) == s

    def test_random_properties(self):
        rng = random.Random(42)
        for _ in range(150):
            a = random_matrix(rng)
            s, u, v = smith_normal_form(a)
            assert matrix_product(u, a, v) == s
            assert abs(determinant(u)) == 1
            assert abs(determinant(v)) == 1
            off_diagonal = [
                x for i, row in enumerate(s) for j, x in enumerate(row) if i != j
            ]
            assert not any(off_diagonal)
            diag = diagonal(s)
            assert all(d >= 0 for d in diag)
            nonzero = [d for d in diag if d]
            for x, y in zip(nonzero, nonzero[1:]):
                assert y % x == 0
            # zero diagonal entries only after all nonzero ones
            if 0 in diag:
                assert all(d == 0 for d in diag[diag.index(0) :])


class TestCokernel:
    def test_empty_columns(self):
        g, proj = cokernel_of_columns(2, [])
        assert g.factors == (0, 0)
        assert proj == ((1, 0), (0, 1))

    def test_identity_columns(self):
        g, _ = cokernel_of_columns(2, [(1, 0), (0, 1)])
        assert g.factors == ()

    def test_columns_must_have_the_ambient_rank(self):
        for cols in ([(1, 0), (1,)], [(1, 0, 0)], [()]):
            with pytest.raises(ValueError, match="ambient rank"):
                cokernel_of_columns(2, cols)

    def test_rank2_cyclic4(self):
        g, proj = cokernel_of_columns(2, [(1, -3), (-3, 1), (1, -7), (-7, 1)])
        assert g.factors == (4,)
        e0, e1 = proj
        assert element_order(g, e1) == 4
        assert g.element([3 * x for x in e1]) == e0
        assert g.element([3 * x for x in e0]) == e1  # 3*3 = 9 = 1 mod 4, so both relations hold

    def test_against_snf_diagonal(self):
        rng = random.Random(30)
        for _ in range(80):
            r = rng.randint(1, 6)
            ncols = rng.randint(0, 6)
            cols = [
                tuple(rng.randint(-50, 50) for _ in range(r)) for _ in range(ncols)
            ]
            g, _ = cokernel_of_columns(r, cols)
            if ncols:
                s, _, _ = smith_normal_form(tuple(zip(*cols)))
                diag = list(diagonal(s)) + [0] * (r - min(r, ncols))
            else:
                diag = [0] * r
            assert g == FinGenAbGroup.from_orders(diag)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda r: st.lists(
                st.tuples(*[st.integers(-9, 9)] * r), min_size=r, max_size=r + 2
            )
        )
    )
    def test_against_naive_enumeration(self, cols):
        r = len(cols[0])
        g, _ = cokernel_of_columns(r, cols)
        assume(g.is_finite and g.order() <= QUOTIENT_GUARD)
        assert g == naive_cokernel(r, cols)

    def test_proj_respects_relations(self):
        rng = random.Random(4)
        for _ in range(40):
            r = rng.randint(1, 4)
            cols = [
                tuple(rng.randint(-6, 6) for _ in range(r))
                for _ in range(rng.randint(0, r + 2))
            ]
            g, proj = cokernel_of_columns(r, cols)
            # every relation column maps to zero in the quotient
            for col in cols:
                img = zero(g)
                for i, coef in enumerate(col):
                    img = group_add(g, img, g.element([coef * x for x in proj[i]]))
                assert img == zero(g)


@st.composite
def groups_and_generators(draw):
    """A group of rank 1-4, free summands allowed, and 0-7 integer columns of its rank."""
    group = draw(st.lists(st.integers(2, 12) | st.just(0), min_size=1, max_size=4).map(
        FinGenAbGroup.from_orders))
    column = st.tuples(*[st.integers(-10**6, 10**6)] * len(group.factors))
    return group, draw(st.lists(column, max_size=7))


class TestIndexAndRelations:
    @settings(max_examples=200, deadline=None)
    @given(groups_and_generators())
    # rank 1 against a group of rank 2: the free row has no pivot
    @example((FinGenAbGroup((4, 0)), [(2, 0), (-6, 0), (1, 0)]))
    def test_against_smith_normal_form(self, case):
        group, gens = case
        r, n = len(group.factors), len(gens)
        index, relations = index_and_relations(gens, group.factors)
        diag = [tuple(d * (i == j) for i in range(r)) for j, d in enumerate(group.factors)]
        s, _, v = smith_normal_form(tuple(zip(*(gens + diag))))
        snf_index = 1
        for d in diagonal(s):
            snf_index *= d
        assert index == snf_index
        rank = sum(1 for d in diagonal(s) if d)
        assert len(relations) == n + r - rank
        for k in relations:
            image = [sum(c * g[i] for c, g in zip(k, gens)) for i in range(r)]
            assert group.element(image) == zero(group)
        # the kernel columns of V, cut to their first n entries, span the
        # same relation lattice
        kernel = [tuple(row[j] for row in v[:n]) for j in range(rank, len(v))]
        assert all(naive_member(relations, k) for k in kernel)
        assert all(naive_member(kernel, k) for k in relations)

    def test_infinite_index(self):
        assert index_and_relations([(1, 0)], (3, 0)) == (0, [(-3,), (0,)])

    def test_trivial_group(self):
        assert index_and_relations([(), ()], ()) == (1, [(1, 0), (0, 1)])


class TestGroupArithmetic:
    def test_element_order_examples(self):
        g = FinGenAbGroup((2, 4))
        assert element_order(g, zero(g)) == 1
        assert element_order(g, (0, 1)) == 4
        assert element_order(g, (1, 2)) == 2

    def test_element_order_infinite_rejected(self):
        with pytest.raises(ValueError):
            element_order(FinGenAbGroup((0,)), (1,))

    def test_subgroup_index_examples(self):
        g = FinGenAbGroup((6,))
        assert index_and_relations([], g.factors)[0] == 6
        assert index_and_relations([(2,)], g.factors)[0] == 2
        assert index_and_relations([(1,)], g.factors)[0] == 1

    def test_order_and_index_against_naive(self):
        rng = random.Random(6)
        for _ in range(80):
            g = FinGenAbGroup.from_orders(
                [rng.choice([2, 3, 4, 5, 6, 8, 9]) for _ in range(rng.randint(1, 3))]
            )
            if g.order() > 10_000:
                continue
            gens = [
                g.element([rng.randrange(d) for d in g.factors])
                for _ in range(rng.randint(0, 3))
            ]
            x = g.element([rng.randrange(d) for d in g.factors])
            order, index = naive_order_index(g, gens, x)
            assert element_order(g, x) == order
            assert index_and_relations(gens, g.factors)[0] == index

    def test_p_part(self):
        assert p_part(12, 2) == 4
        assert p_part(1, 5) == 1
        assert p_part(40, 5) == 5
        with pytest.raises(ValueError):
            p_part(0, 2)

    def test_primary_decomposition(self):
        assert primary_decomposition(FinGenAbGroup((12,))) == {2: [4], 3: [3]}
        assert primary_decomposition(FinGenAbGroup(())) == {}
        assert primary_decomposition(FinGenAbGroup((2, 4))) == {2: [2, 4]}
        with pytest.raises(ValueError):
            primary_decomposition(FinGenAbGroup((0,)))

    def test_primary_decomposition_multiplies_back(self):
        rng = random.Random(8)
        for _ in range(50):
            g = FinGenAbGroup.from_orders(
                [rng.randint(2, 40) for _ in range(rng.randint(1, 4))]
            )
            parts = primary_decomposition(g)
            prod = 1
            for factors in parts.values():
                for q in factors:
                    prod *= q
            assert prod == g.order()

    def test_iso_equal(self):
        assert FinGenAbGroup.from_orders([6]) == FinGenAbGroup.from_orders([2, 3])
        assert FinGenAbGroup.from_orders([4]) != FinGenAbGroup.from_orders([2, 2])
        g = FinGenAbGroup.from_orders([2, 4])
        assert g == g


class TestCanonicalForm:
    def test_crt_merge(self):
        assert FinGenAbGroup.from_orders([2, 3]).factors == (6,)
        assert FinGenAbGroup.from_orders([12, 60]).factors == (12, 60)
        assert FinGenAbGroup.from_orders([4, 6]).factors == (2, 12)
        assert FinGenAbGroup.from_orders([0, 30, 4]).factors == (2, 60, 0)

    def test_ones_dropped(self):
        assert FinGenAbGroup.from_orders([1, 1]).factors == ()
        assert FinGenAbGroup.from_orders([1, 5]).factors == (5,)

    def test_invalid_direct_construction(self):
        with pytest.raises(ValueError):
            FinGenAbGroup((4, 2))  # not ascending
        with pytest.raises(ValueError):
            FinGenAbGroup((2, 3))  # not a chain
        with pytest.raises(ValueError):
            FinGenAbGroup((0, 2))  # zeros must come last
        with pytest.raises(ValueError):
            FinGenAbGroup((1, 2))  # no factor 1

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 12, 24]), max_size=6).map(tuple)
        | st.lists(st.integers(0, 30), max_size=6).map(
            lambda o: tuple(x for x in FinGenAbGroup.from_orders(o).factors for _ in "ab")
        )
    )
    def test_is_canonical_exactly_on_canonical_forms(self, factors):
        # a tuple is canonical when canonicalizing its orders gives it back;
        # the second strategy repeats each factor of a canonical form, as the
        # equal copies of a homogeneous quotient do
        canonical = FinGenAbGroup.from_orders(factors).factors == factors
        assert is_canonical(factors) == canonical
        if not canonical:
            with pytest.raises(ValueError):
                FinGenAbGroup(factors)

    def test_constructor_refuses_lists(self):
        with pytest.raises(ValueError, match="not in canonical form"):
            FinGenAbGroup([2, 4])

    def test_from_orders_checks_the_chain_once(self, monkeypatch):
        calls = 0
        check = classrecon.abgroup.is_canonical

        def counted(factors):
            nonlocal calls
            calls += 1
            return check(factors)

        monkeypatch.setattr(classrecon.abgroup, "is_canonical", counted)
        cases = [[], [1, 1], [5], [2, 4, 0], [4, 6], [0, 30, 4], [47] * 47]
        for n, orders in enumerate(cases, start=1):
            FinGenAbGroup.from_orders(orders)
            assert calls == n
        with pytest.raises(ValueError):
            FinGenAbGroup.from_orders([2, -1])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 60), max_size=6))
    def test_from_orders_passes_the_constructor_checks(self, orders):
        g = FinGenAbGroup.from_orders(orders)
        assert FinGenAbGroup(g.factors) == g
        assert g.free_rank == orders.count(0)
        product = 1
        for x in orders:
            product *= x or 1
        assert FinGenAbGroup(tuple(x for x in g.factors if x)).order() == product

    def test_element_reduction(self):
        g = FinGenAbGroup((2, 4))
        assert g.element((5, -1)) == (1, 3)
        assert group_add(g, (1, 3), (1, 1)) == (0, 0)

    def test_str(self):
        assert str(FinGenAbGroup(())) == "trivial"
        assert str(FinGenAbGroup((2, 4, 0))) == "Z/2 x Z/4 x Z"


def test_integer_nth_root():
    assert integer_nth_root(9, 2) == 3
    assert integer_nth_root(8, 2) is None
    assert integer_nth_root(121, 1) == 121
    assert integer_nth_root(3**40, 40) == 3
    assert integer_nth_root(3**40 + 1, 40) is None
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(1, 7) == 1


@settings(deadline=None)
@given(st.integers(2, 2**200), st.integers(2, 300))
def test_integer_nth_root_of_powers_and_neighbours(root, n):
    x = root**n
    assert integer_nth_root(x, n) == root
    assert integer_nth_root(x - 1, n) is None
    assert integer_nth_root(x + 1, n) is None


def test_integer_nth_root_of_a_large_square_is_fast():
    root = 3**40000 + 2  # about 63 000 bits
    start = time.monotonic()
    assert integer_nth_root(root * root, 2) == root
    assert integer_nth_root(root**3 + 1, 3) is None
    assert time.monotonic() - start < 2


def test_matrix_basics():
    assert determinant(((1, 2), (3, 4))) == -2
    assert determinant(()) == 1
    with pytest.raises(ValueError):
        determinant(((1, 2), (3,)))


def factor_and_zip(orders):
    """Canonical form by factoring each order and zipping per-prime exponents."""
    by_prime = {}
    for d in orders:
        if d > 1:
            for p, e in sympy.factorint(d).items():
                by_prime.setdefault(p, []).append(e)
    width = max((len(v) for v in by_prime.values()), default=0)
    tors = []
    for i in range(width):
        f = 1
        for p, exps in by_prime.items():
            exps = sorted(exps, reverse=True)
            if i < len(exps):
                f *= p ** exps[i]
        tors.append(f)
    return tuple(reversed(tors)) + (0,) * orders.count(0)


ORDERS = st.one_of(
    st.sampled_from([0, 1]), st.integers(2, 100), st.integers(2, 10**12)
)


class TestFromOrders:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ORDERS, max_size=7))
    def test_matches_factor_and_zip(self, orders):
        assert FinGenAbGroup.from_orders(orders).factors == factor_and_zip(orders)

    def test_large_coprime_orders_need_no_factoring(self):
        orders = [97**193 - 1, 89**193 - 1]
        start = time.perf_counter()
        g = FinGenAbGroup.from_orders(orders)
        assert time.perf_counter() - start < 1.0
        assert g.order() == orders[0] * orders[1]
        assert g.factors[0] == sympy.gcd(*orders)


# the primes trial division tries: above MAX_BOUND, an integer with none of
# them as a factor is refused
TABLE_PRIMES = list(sympy.primerange(2, isqrt(MAX_BOUND) + 1))


def sympy_is_prime_power(n):
    # perfect_power gives the base of the largest exponent, or False
    power = sympy.perfect_power(n)
    return sympy.isprime(power[0] if power else n)


# powers of table primes, of primes beyond the table, and their products
_POWERS = st.builds(
    pow, st.sampled_from([2, 3, 1009, 3137, 3163, 9_999_991, 2**31 - 1]), st.integers(1, 12)
)
ABOVE_MAX_BOUND = st.one_of(
    st.integers(MAX_BOUND + 1, 2**100), _POWERS, st.builds(operator.mul, _POWERS, _POWERS)
).filter(lambda n: n > MAX_BOUND)


class TestIntegerHelpers:
    def test_sieve_small_bounds(self):
        assert [primes_up_to(n) for n in range(-1, 4)] == [[], [], [], [2], [2, 3]]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 20_000))
    def test_sieve_matches_primerange(self, n):
        assert primes_up_to(n) == list(sympy.primerange(2, n + 1))

    @settings(deadline=None)
    @given(st.integers(1, 10**9))
    def test_factorize_matches_factorint(self, n):
        assert factorize(n) == sympy.factorint(n)

    def test_agree_with_sympy_below_1e5(self):
        bound = 10**5
        primes = list(sympy.primerange(2, bound))
        powers = set()
        for p in primes:
            q = p
            while q < bound:
                powers.add(q)
                q *= p
        assert [n for n in range(2, bound) if is_prime(n)] == primes
        assert {n for n in range(2, bound) if is_prime_power(n)} == powers
        assert not any(is_prime(n) or is_prime_power(n) for n in (-7, 0, 1))

    @pytest.mark.parametrize(
        "n, decided",
        [(3215031751, True), (3825123056546413051, False), (3825123056546413051**2, False)],
        ids=["spsp-2357", "spsp-2-to-23", "spsp-squared"],
    )
    def test_strong_pseudoprimes(self, n, decided):
        # composites that pass Miller-Rabin to many bases: trial division
        # finds 151 in the first, and refuses the others, whose least prime
        # factor 149491 lies beyond the table
        assert not sympy.isprime(n) and len(sympy.factorint(n)) > 1
        for test in (is_prime, is_prime_power):
            if decided:
                assert test(n) is False
            else:
                with pytest.raises(LimitExceeded, match="cannot certify primality"):
                    test(n)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_powers_of_mersenne_61(self, k):
        # 2**61 - 1 is a prime beyond the table, so its powers are refused,
        # and a multiple by a table prime is decided
        n = (2**61 - 1) ** k
        for test in (is_prime, is_prime_power):
            with pytest.raises(LimitExceeded, match="cannot certify primality"):
                test(n)
        assert not is_prime(3 * n)
        assert not is_prime_power(3 * n)

    @settings(deadline=None)
    @given(st.integers(2, MAX_BOUND))
    @example(3137**2)  # the square of the largest table prime
    @example(9_999_991)  # the largest prime up to MAX_BOUND: no table factor
    @example(MAX_BOUND)
    def test_is_prime_matches_isprime_below_limit(self, n):
        assert is_prime(n) == sympy.isprime(n)
        assert is_prime_power(n) == sympy_is_prime_power(n)

    @settings(deadline=None)
    @given(ABOVE_MAX_BOUND)
    @example(2**31 - 1)
    @example(3**10000)
    def test_above_the_limit_agrees_with_sympy_or_refuses(self, n):
        # decided exactly when a table prime divides n
        decided = any(n % p == 0 for p in TABLE_PRIMES)
        for test, want in ((is_prime, sympy.isprime), (is_prime_power, sympy_is_prime_power)):
            if decided:
                assert test(n) == want(n)
            else:
                with pytest.raises(LimitExceeded, match="cannot certify primality"):
                    test(n)

    @settings(deadline=None)
    @given(st.sampled_from(TABLE_PRIMES[168:]), st.integers(1, 12))
    def test_large_prime_powers_are_decided_by_trial_division(self, p, k):
        # the table primes above 1000, up to 3137
        assert is_prime_power(p**k)
        assert is_prime(p**k) is (k == 1)
        q = 1013 if p == 1009 else 1009
        assert not is_prime_power(p**k * q)

    def test_smallest_prime_factors_match_factorize(self):
        spf = smallest_prime_factors(5000)
        assert spf[:2] == [0, 1]
        assert all(spf[k] == min(factorize(k)) for k in range(2, 5001))

    def test_sqrt_mod_prime_against_squares(self):
        # q = 1 (mod 8) and q = 1 (mod 16) exercise several Tonelli-Shanks steps
        for q in primes_up_to(300) + [7681, 65537]:
            squares = {x * x % q for x in range(q)}
            for a in range(-5, min(q, 400)):
                r = sqrt_mod_prime(a, q)
                if a % q in squares:
                    assert r is not None and r * r % q == a % q, (a, q)
                else:
                    assert r is None, (a, q)

    def test_two_adic_roots_against_brute_force(self):
        # every d of fundamental shape: d = 1 (mod 4), or 4n with n = 2, 3 (mod 4)
        for d in range(-300, -2):
            if d % 4 == 1 or (d % 4 == 0 and d // 4 % 4 in (2, 3)):
                want = [
                    [b for b in range(2 << e) if (b * b - d) % (4 << e) == 0] for e in range(8)
                ]
                assert list(map(sorted, _two_adic_roots(d, 8))) == want, d

    def test_refuses_above_the_proven_limit(self):
        # 2**31 - 1 is prime, 3163 the least prime beyond the table, and
        # 10000019 the least integer trial division refuses
        for n in (2**31 - 1, (2**31 - 1) ** 2, 3163**2, 3163 * 3167, 10_000_019):
            for test in (is_prime, is_prime_power):
                with pytest.raises(LimitExceeded, match="cannot certify primality"):
                    test(n)
        assert is_prime(9_999_991) and is_prime_power(3137**2)
        assert not is_prime_power(MAX_BOUND)
        # a factor in the table still settles the answer
        assert not is_prime(3 * (2**31 - 1))
        assert not is_prime_power(2 * (2**31 - 1))

    def test_the_prime_table_is_sieved_by_the_first_primality_test(self):
        # `classgroup -D` tests no primality, so a fresh call never sieves
        # the table; the first test fills it with the primes up to
        # isqrt(MAX_BOUND), and a refusal still names the last of them
        code = (
            "from classrecon import abgroup\n"
            "from classrecon.cli import main\n"
            "assert main(['classgroup', '-D', '-84']) == 0\n"
            "assert abgroup._SMALL_PRIMES == [], 'classgroup -D sieved the table'\n"
            "assert abgroup.is_prime(9_999_991)\n"
            "assert abgroup._SMALL_PRIMES == abgroup.primes_up_to(3162)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(LimitExceeded, match="no prime factor up to 3137$"):
            is_prime(2**31 - 1)

    def test_large_integer_without_small_factors_is_refused_fast(self):
        # one division per table prime refuses a 65 000-bit input
        n = 2**65536 + 1
        while any(n % p == 0 for p in TABLE_PRIMES):
            n += 2
        start = time.monotonic()
        with pytest.raises(LimitExceeded, match="cannot certify primality"):
            is_prime_power(n)
        assert is_prime_power(1009**3000)  # a power of a table prime, at any size
        assert time.monotonic() - start < 2

    def test_powers_of_small_primes_are_decided_by_one_power(self):
        # k = log2(n) / log2(p) gives the one exponent to try; stripping p one
        # division at a time took over a second for 2**65536
        start = time.monotonic()
        assert is_prime_power(2**65536)
        assert is_prime_power(3**40000)
        assert not is_prime_power(3 * 2**65536)
        assert not is_prime_power(2**65536 - 1)  # divisible by 3, not a power of 3
        assert time.monotonic() - start < 0.25

