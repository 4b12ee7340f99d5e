"""Exact linear algebra and abelian group arithmetic, checked against oracles."""

import doctest
import random
import time

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import classrecon.abgroup
from classrecon.abgroup import (
    MILLER_RABIN_LIMIT,
    FinGenAbGroup,
    IntMatrix,
    PrimalityLimitExceeded,
    cokernel_of_columns,
    factorize,
    integer_nth_root,
    is_prime,
    is_prime_power,
    iso_equal,
    p_part,
    primes_up_to,
    smith_normal_form,
    subgroup_index,
    xgcd,
)
from classrecon.oracle import (
    QUOTIENT_GUARD,
    determinant,
    element_order,
    naive_cokernel,
    naive_order_index,
    primary_decomposition,
)

from helpers import matrix_product


def random_matrix(rng, max_dim=6, lo=-50, hi=50):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]
    )


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
        s, u, v = smith_normal_form(IntMatrix.identity(2))
        assert s == IntMatrix.identity(2)

    def test_zero(self):
        z = IntMatrix.from_rows([[0, 0], [0, 0]])
        s, u, v = smith_normal_form(z)
        assert s == z

    def test_diag_2_3(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        s, u, v = smith_normal_form(a)
        assert s.diagonal() == (1, 6)
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
                x for i, row in enumerate(s.entries) for j, x in enumerate(row) if i != j
            ]
            assert not any(off_diagonal)
            diag = [d for d in s.diagonal()]
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
        assert g.is_trivial

    def test_rank2_cyclic4(self):
        g, proj = cokernel_of_columns(2, [(1, -3), (-3, 1), (1, -7), (-7, 1)])
        assert g.factors == (4,)
        e0, e1 = proj
        assert element_order(g, e1) == 4
        assert g.scale(3, e1) == e0
        assert g.scale(3, e0) == e1  # 3*3 = 9 = 1 mod 4, so both relations hold

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
                s, _, _ = smith_normal_form(IntMatrix.from_columns(cols, nrows=r))
                diag = list(s.diagonal()) + [0] * (r - min(r, ncols))
            else:
                diag = [0] * r
            assert iso_equal(g, FinGenAbGroup.from_orders(diag))

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
                img = g.zero()
                for i, coef in enumerate(col):
                    img = g.add(img, g.scale(coef, proj[i]))
                assert img == g.zero()


class TestGroupArithmetic:
    def test_element_order_examples(self):
        g = FinGenAbGroup((2, 4))
        assert element_order(g, g.zero()) == 1
        assert element_order(g, (0, 1)) == 4
        assert element_order(g, (1, 2)) == 2

    def test_element_order_infinite_rejected(self):
        with pytest.raises(ValueError):
            element_order(FinGenAbGroup((0,)), (1,))

    def test_subgroup_index_examples(self):
        g = FinGenAbGroup((6,))
        assert subgroup_index(g, []) == 6
        assert subgroup_index(g, [(2,)]) == 2
        assert subgroup_index(g, [(1,)]) == 1

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
            assert subgroup_index(g, gens) == index

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
        assert iso_equal(
            FinGenAbGroup.from_orders([6]), FinGenAbGroup.from_orders([2, 3])
        )
        assert not iso_equal(
            FinGenAbGroup.from_orders([4]), FinGenAbGroup.from_orders([2, 2])
        )
        g = FinGenAbGroup.from_orders([2, 4])
        assert iso_equal(g, g)


class TestCanonicalForm:
    def test_crt_merge(self):
        assert FinGenAbGroup.from_orders([2, 3]).factors == (6,)
        assert FinGenAbGroup.from_orders([12, 60]).factors == (12, 60)
        assert FinGenAbGroup.from_orders([4, 6]).factors == (2, 12)
        assert FinGenAbGroup.from_orders([0, 30, 4]).factors == (2, 60, 0)

    def test_ones_dropped(self):
        assert FinGenAbGroup.from_orders([1, 1]).is_trivial
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

    def test_element_reduction(self):
        g = FinGenAbGroup((2, 4))
        assert g.element((5, -1)) == (1, 3)
        assert g.add((1, 3), (1, 1)) == (0, 0)
        assert g.neg((1, 3)) == (1, 1)
        assert g.scale(3, (1, 1)) == (1, 3)

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
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a.column(1) == (2, 4)
    assert determinant(a) == -2
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


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
        "n",
        [3215031751, 3825123056546413051, 3825123056546413051**2],
        ids=["spsp-2357", "spsp-2-to-23", "spsp-squared"],
    )
    def test_strong_pseudoprimes(self, n):
        assert is_prime(n) is sympy.isprime(n) is False
        assert is_prime_power(n) is (len(sympy.factorint(n)) == 1) is False

    @pytest.mark.parametrize("k", range(1, 6))
    def test_powers_of_mersenne_61(self, k):
        n = (2**61 - 1) ** k
        assert is_prime(n) is sympy.isprime(n) is (k == 1)
        assert is_prime_power(n)
        assert not is_prime_power(3 * n)

    @settings(deadline=None)
    @given(st.integers(2, MILLER_RABIN_LIMIT - 1))
    def test_is_prime_matches_isprime_below_limit(self, n):
        assert is_prime(n) == sympy.isprime(n)

    @settings(deadline=None)
    @given(st.sampled_from(list(sympy.primerange(1000, 3000))), st.integers(1, 12))
    def test_large_prime_powers_need_root_reduction(self, p, k):
        assert is_prime_power(p**k)
        q = 1013 if p == 1009 else 1009
        if p**k * q < MILLER_RABIN_LIMIT:
            assert not is_prime_power(p**k * q)

    def test_refuses_above_the_proven_limit(self):
        mersenne_89 = 2**89 - 1  # prime, above the limit
        assert mersenne_89 > MILLER_RABIN_LIMIT
        with pytest.raises(PrimalityLimitExceeded):
            is_prime(mersenne_89)
        with pytest.raises(PrimalityLimitExceeded):
            is_prime_power(mersenne_89**2)
        # a small factor or a perfect-power shape still settles the answer
        assert not is_prime(3 * mersenne_89)
        assert not is_prime(mersenne_89**2)
        assert not is_prime_power(2 * mersenne_89)

    def test_large_integer_without_small_factors_is_refused_fast(self):
        # Power residues rule out almost every exponent before a root is
        # taken, so a 65 000-bit input costs milliseconds, not minutes.
        n = 2**65536 + 1
        while any(n % p == 0 for p in sympy.primerange(2, 1000)):
            n += 2
        start = time.monotonic()
        with pytest.raises(PrimalityLimitExceeded):
            is_prime_power(n)
        assert is_prime_power(1009**3000)  # the residue tests pass true powers
        assert time.monotonic() - start < 2

