"""Self-checks for the naive reference implementations."""

import pytest
from sympy.functions.combinatorial.numbers import kronecker_symbol as sympy_kronecker

from classrecon.abgroup import FinGenAbGroup
from classrecon.oracle import (
    OracleGuard,
    Representation,
    dirichlet_compose,
    kronecker_symbol,
    naive_cokernel,
    naive_member,
    naive_order_index,
    naive_reduce,
    naive_reduced_forms,
    naive_represented_primes,
)


class TestNaiveCokernel:
    def test_cyclic_four(self):
        g = naive_cokernel(2, [(1, -3), (0, 4)])
        assert g.factors == (4,)

    def test_identity_is_trivial(self):
        assert naive_cokernel(2, [(1, 0), (0, 1)]).factors == ()

    def test_infinite_quotient_guard(self):
        with pytest.raises(OracleGuard):
            naive_cokernel(1, [])

    def test_size_guard(self):
        with pytest.raises(OracleGuard):
            naive_cokernel(2, [(20001, 0), (0, 2)])

    def test_mixed_structure(self):
        g = naive_cokernel(2, [(2, 0), (0, 4)])
        assert g.factors == (2, 4)
        g = naive_cokernel(2, [(2, 0), (0, 6)])
        assert g.factors == (2, 6)

    def test_non_diagonal_lattice(self):
        # index-4 lattice spanned by (2, 1) and (0, 2): quotient is cyclic
        g = naive_cokernel(2, [(2, 1), (0, 2)])
        assert g.factors == (4,)


class TestNaiveMember:
    def test_zero_always_member(self):
        assert naive_member([(3, 1)], (0, 0))
        assert naive_member([], (0, 0))
        assert not naive_member([], (1, 0))

    def test_simple_cases(self):
        assert naive_member([(1, -3), (0, 4)], (-7, 1))
        assert not naive_member([(1, -3), (0, 4)], (1, -1))
        assert naive_member([(2,)], (-6,))
        assert not naive_member([(2,)], (3,))


class TestNaiveOrderIndex:
    def test_identity(self):
        g = FinGenAbGroup((6,))
        assert naive_order_index(g, [], (0,)) == (1, 6)

    def test_z6_subgroup(self):
        g = FinGenAbGroup((6,))
        order, index = naive_order_index(g, [(2,)], (2,))
        assert (order, index) == (3, 2)

    def test_product_group(self):
        g = FinGenAbGroup((2, 4))
        order, _ = naive_order_index(g, [], (1, 1))
        assert order == 4

    def test_guard(self):
        g = FinGenAbGroup((10007,))
        with pytest.raises(OracleGuard):
            naive_order_index(g, [], (1,))


def represented(rep: Representation) -> int:
    (a, b, c), x, y = rep.form, rep.x, rep.y
    return a * x * x + b * x * y + c * y * y


class TestRepresentedPrimes:
    def test_pinned_examples(self):
        rep = naive_represented_primes(-20, 7)
        assert rep is not None
        assert represented(rep) == 7
        assert rep.form == (2, 2, 3)

        rep = naive_represented_primes(-20, 29)
        assert rep is not None and represented(rep) == 29
        assert rep.form == (1, 0, 5)

        assert naive_represented_primes(-20, 11) is None

    def test_representation_record(self):
        rep = naive_represented_primes(-4, 5)
        assert isinstance(rep, Representation)
        assert rep.form == (1, 0, 1)
        assert represented(rep) == 5


class TestDirichletComposition:
    def test_reduction_lands_on_the_pair_scan(self):
        # each reduced form moved by x -> x + t*y and swapped comes back
        for d in (-23, -47, -84, -1031):
            forms = naive_reduced_forms(d)
            for f in forms:
                assert naive_reduce(*f) == f
                fa, fb, fc = f
                for t in (-3, 1, 5):
                    a, b, c = fa, fb + 2 * fa * t, fc + t * (fb + fa * t)
                    assert naive_reduce(a, b, c) == f
                    assert naive_reduce(c, -b, a) == f

    def test_pinned_composites(self):
        # D = -47.  B = 1 (mod 4) and (mod 6) gives (6, 1, 2), which
        # reduces to (2, -1, 6); B = 1 (mod 6) and -1 (mod 4) gives
        # (6, 7, 4) -> (6, -5, 3) -> (3, 5, 6) -> (3, -1, 4)
        assert dirichlet_compose((2, 1, 6), (3, 1, 4)) == (2, -1, 6)
        assert dirichlet_compose((3, 1, 4), (2, -1, 6)) == (3, -1, 4)
        assert dirichlet_compose((1, 1, 12), (3, -1, 4)) == (3, -1, 4)

    def test_refuses_what_it_does_not_cover(self):
        with pytest.raises(ValueError, match="not coprime"):
            dirichlet_compose((2, 2, 3), (2, 2, 3))
        with pytest.raises(ValueError, match="different discriminants"):
            dirichlet_compose((2, 1, 3), (3, 1, 4))
        with pytest.raises(ValueError, match="not positive definite"):
            naive_reduce(1, 3, 1)


class TestKroneckerSymbol:
    def test_matches_sympy(self):
        for a in range(-60, 61):
            for n in range(1, 70):
                assert kronecker_symbol(a, n) == sympy_kronecker(a, n), (a, n)

    def test_refuses_n_below_one(self):
        with pytest.raises(ValueError):
            kronecker_symbol(5, 0)
