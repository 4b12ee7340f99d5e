"""Naive reference implementations used to certify the fast paths.

Everything here is deliberately simple and bounded: coset enumeration in a
box, exhaustive subgroup closure, exhaustive search for represented primes.
The guards are hard limits, not heuristics: an oracle that refuses to answer
is more trustworthy than one that silently takes shortcuts.

None of this code shares machinery with the Smith normal form it validates;
lattice questions, including the multiplier relations a quotient prediction
asserts, are settled by a plain insertion echelon basis and literal
enumeration.  The reference values the tests compare against live here too:
exact determinants, element orders and primary decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Sequence

from .abgroup import FinGenAbGroup, GroupElement, IntMatrix, factorize
from .fields import QuadraticForm, reduced_forms
from .lattice import (
    ClassGroupModel,
    PredictedQuotient,
    PrimeIdealDatum,
    sublattice_columns,
)

QUOTIENT_GUARD = 10_000
GROUP_GUARD = 10_000


class OracleGuard(Exception):
    """The requested instance exceeds the oracle's hard size limit."""


class _EchelonBasis:
    """Column-echelon lattice basis built by plain gcd insertion.

    Supports canonical coset reduction: reducing a vector by the basis
    top-down yields the same result for every member of a coset, so the
    residual decides membership and enumerates coset representatives.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.vectors: list[list[int]] = []  # sorted by pivot row

    def _pivot_row(self, v: list[int]) -> int:
        return next(i for i in range(self.dim) if v[i])

    def insert(self, vec: Sequence[int]) -> None:
        v = list(vec)
        while any(v):
            r = self._pivot_row(v)
            hit = next((b for b in self.vectors if self._pivot_row(b) == r), None)
            if hit is None:
                if v[r] < 0:
                    v = [-x for x in v]
                self.vectors.append(v)
                self.vectors.sort(key=self._pivot_row)
                return
            a, c = hit[r], v[r]
            if c % a == 0:
                q = c // a
                v = [x - q * y for x, y in zip(v, hit)]
            else:
                # gcd combine: replace hit by the gcd vector, continue with rest
                g = gcd(a, c)
                x, y = _bezout(a, c)
                new_hit = [x * p + y * q for p, q in zip(hit, v)]
                v = [(a // g) * q - (c // g) * p for p, q in zip(hit, v)]
                hit[:] = new_hit

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        v = list(vec)
        for b in self.vectors:  # pivots are positive and strictly descend the rows
            r = self._pivot_row(b)
            q = v[r] // b[r]
            if q:
                v = [x - q * y for x, y in zip(v, b)]
        return tuple(v)

    def pivots(self) -> list[tuple[int, int]]:
        return [(self._pivot_row(b), b[self._pivot_row(b)]) for b in self.vectors]


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def naive_member(columns: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Membership of v in the column span, by echelon reduction only."""
    if not columns:
        return not any(v)
    basis = _EchelonBasis(len(columns[0]))
    for c in columns:
        basis.insert(c)
    return not any(basis.reduce(v))


def predicted_relation_failures(
    cl: ClassGroupModel,
    primes: Sequence[PrimeIdealDatum],
    pred: PredictedQuotient,
) -> list[tuple[int, int, int]]:
    """The (class, multiplier, rep) relations of a prediction that fail.

    A prediction asserts that e_a - m * e_rep lies in the sublattice of F
    for every class a.  One echelon basis of the raw sublattice columns
    checks them all, independently of the induction and of SNF.
    """
    n = cl.size
    basis = _EchelonBasis(n)
    for c in sublattice_columns(cl, primes):
        basis.insert(c)
    failed = []
    for a, (pos, m) in sorted(pred.multipliers.items()):
        rep = pred.reps[pos]
        v = [0] * n
        v[a] += 1
        v[rep] -= m
        if any(basis.reduce(v)):
            failed.append((a, m, rep))
    return failed


def naive_cokernel(ambient_rank: int, columns: Sequence[Sequence[int]]) -> FinGenAbGroup:
    """Quotient of Z^rank by the column lattice, by literal coset enumeration.

    Enumerates one representative per coset inside the box cut out by the
    echelon pivots, computes each representative's order by scaling, and
    reads the structure off the order statistics.  Guarded at
    QUOTIENT_GUARD cosets; infinite quotients are rejected.
    """
    basis = _EchelonBasis(ambient_rank)
    for c in columns:
        if len(c) != ambient_rank:
            raise ValueError("column length does not match ambient rank")
        basis.insert(c)
    pivots = basis.pivots()
    if len(pivots) < ambient_rank:
        raise OracleGuard("quotient is infinite (column lattice not full rank)")
    size = 1
    for _, p in pivots:
        size *= p
        if size > QUOTIENT_GUARD:
            raise OracleGuard(f"quotient larger than {QUOTIENT_GUARD}")
    reps = [()]
    for _, p in pivots:
        reps = [r + (x,) for r in reps for x in range(p)]
    reps = [basis.reduce(r) for r in reps]
    if len(set(reps)) != size:
        raise AssertionError("box enumeration failed to separate cosets")

    def order_of(rep: tuple[int, ...]) -> int:
        for n in sorted(_divisors(size)):
            if not any(basis.reduce(tuple(n * x for x in rep))):
                return n
        raise AssertionError("element order does not divide the quotient size")

    orders = [order_of(r) for r in reps]
    divisors: list[int] = []
    for p in sorted(factorize(size)):
        sylow = 1
        m = size
        while m % p == 0:
            m //= p
            sylow *= p
        counts = [1]
        k = 1
        while counts[-1] != sylow:
            pk = p**k
            counts.append(sum(1 for o in orders if pk % o == 0))
            k += 1
        at_least = []
        for k in range(1, len(counts)):
            ratio = counts[k] // counts[k - 1]
            vk = 0
            while ratio > 1:
                ratio //= p
                vk += 1
            at_least.append(vk)
        for k, count_k in enumerate(at_least, start=1):
            count_next = at_least[k] if k < len(at_least) else 0
            divisors.extend([p**k] * (count_k - count_next))
    return FinGenAbGroup.from_orders(divisors)


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def naive_order_index(
    g: FinGenAbGroup, gens: Sequence[GroupElement], elem: GroupElement
) -> tuple[int, int]:
    """(order of elem, index of <gens>) by exhaustive enumeration."""
    if not g.is_finite:
        raise ValueError("naive enumeration requires a finite group")
    if g.order() > GROUP_GUARD:
        raise OracleGuard(f"group larger than {GROUP_GUARD}")
    elem = g.element(elem)
    order = 1
    acc = elem
    while any(acc):
        acc = g.add(acc, elem)
        order += 1
    closure = {g.zero()}
    frontier = [g.zero()]
    gens = [g.element(x) for x in gens]
    while frontier:
        nxt = []
        for v in frontier:
            for x in gens:
                w = g.add(v, x)
                if w not in closure:
                    closure.add(w)
                    nxt.append(w)
        frontier = nxt
    return order, g.order() // len(closure)


def determinant(a: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = a.nrows
    if n != a.ncols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def element_order(g: FinGenAbGroup, a: GroupElement) -> int:
    """Least n >= 1 with n*a == 0 in a finite group."""
    if not g.is_finite:
        raise ValueError("element order requires a finite group")
    a = g.element(a)
    return lcm(*(d // gcd(d, c) for d, c in zip(g.factors, a)), 1)


def primary_decomposition(g: FinGenAbGroup) -> dict[int, list[int]]:
    """Invariant factors of each p-primary component, ascending per prime.

    Factors by trial division, so it suits groups of modest order.

    >>> primary_decomposition(FinGenAbGroup.from_orders([12]))
    {2: [4], 3: [3]}
    """
    if not g.is_finite:
        raise ValueError("primary decomposition requires a finite group")
    out: dict[int, list[int]] = {}
    for d in g.factors:
        for p, e in factorize(d).items():
            out.setdefault(p, []).append(p**e)
    return {p: sorted(v) for p, v in sorted(out.items())}


@dataclass(frozen=True)
class Representation:
    form: QuadraticForm
    x: int
    y: int


def naive_represented_primes(d: int, q: int) -> Representation | None:
    """Search for a reduced form of discriminant d representing the prime q.

    Scans all (x, y) with |x|, |y| <= q; returns None when no reduced form
    represents q, which is exactly the inert case.
    """
    for form in reduced_forms(d):
        for x in range(-q, q + 1):
            for y in range(-q, q + 1):
                if form.value(x, y) == q:
                    return Representation(form, x, y)
    return None
