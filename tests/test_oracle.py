"""Self-checks for the naive reference implementations."""

import pytest

from classrecon.abgroup import FinGenAbGroup
from classrecon.oracle import (
    OracleGuard,
    Representation,
    naive_cokernel,
    naive_member,
    naive_order_index,
    naive_represented_primes,
)


class TestNaiveCokernel:
    def test_cyclic_four(self):
        g = naive_cokernel(2, [(1, -3), (0, 4)])
        assert g.factors == (4,)

    def test_identity_is_trivial(self):
        assert naive_cokernel(2, [(1, 0), (0, 1)]).is_trivial

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


class TestRepresentedPrimes:
    def test_pinned_examples(self):
        rep = naive_represented_primes(-20, 7)
        assert rep is not None
        assert rep.form.value(rep.x, rep.y) == 7
        assert rep.form.triple == (2, 2, 3)

        rep = naive_represented_primes(-20, 29)
        assert rep is not None and rep.form.value(rep.x, rep.y) == 29
        assert rep.form.triple == (1, 0, 5)

        assert naive_represented_primes(-20, 11) is None

    def test_representation_record(self):
        rep = naive_represented_primes(-4, 5)
        assert isinstance(rep, Representation)
        assert rep.form.triple == (1, 0, 1)
        assert rep.form.value(rep.x, rep.y) == 5
