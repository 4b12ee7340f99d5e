"""Naive reference implementations used to certify the fast paths.

The paper's induction over F (`predicted_quotient` over `cycle_cokernel`,
with the one-prime case `singleton_quotient`) lives here as a second
route to the quotients, independent of the formula in
`lattice.quotient_group` and of Smith normal form.

Everything else here is deliberately simple and bounded: coset enumeration
in a box, exhaustive subgroup closure, the scan of every pair (a, b) for
reduced forms, exhaustive search for represented primes.  The guards are
hard limits, not heuristics: an oracle that refuses to answer is more
trustworthy than one that silently takes shortcuts.

None of this code shares machinery with the Smith normal form it validates;
lattice questions, including the multiplier relations a quotient prediction
asserts, are settled by a plain insertion echelon basis and literal
enumeration.  The reference values the tests compare against live here too:
exact determinants, element orders and primary decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm
from typing import Sequence

from .abgroup import FinGenAbGroup, GroupElement, IntMatrix, factorize
from .fields import QuadraticForm, _check_discriminant
from .lattice import (
    ClassGroupModel,
    InternalContradiction,
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


def cycle_cokernel(norms: list[int] | tuple[int, ...], modulus: int) -> tuple[int, tuple[int, ...]]:
    """Cokernel data of the cycle endomorphism e_i -> e_i - N_i * e_{i+1}.

    On a direct sum of n copies of Z/modulus (modulus 0 meaning Z), the
    endomorphism with matrix I minus the weighted cyclic shift has cyclic
    cokernel of order gcd(N_1 * ... * N_n - 1, modulus), generated by the
    image of e_n.  Chasing the relations e_i = N_i * e_{i+1} down to e_n
    shows the image of e_i is (N_i * N_{i+1} * ... * N_{n-1}) times that
    generator (the empty product for i = n).

    Returns (order, coeffs) where coeffs[i-1] is the coefficient of e_i's
    image, reduced modulo the order when it is nonzero.
    """
    if not norms:
        raise ValueError("at least one cycle factor is required")
    if any(n < 1 for n in norms):
        raise ValueError("cycle factors must be positive")
    if modulus < 0:
        raise ValueError("modulus must be non-negative")
    prod = 1
    for n in norms:
        prod *= n
    order = gcd(prod - 1, modulus)
    coeffs = [1 % order if order else 1]  # slot n carries the empty product
    acc = 1
    for n in reversed(norms[:-1]):  # build suffix products N_i ... N_{n-1}
        acc *= n
        coeffs.append(acc % order if order else acc)
    coeffs.reverse()
    return order, tuple(coeffs)


def singleton_quotient(cl: ClassGroupModel, p: PrimeIdealDatum) -> FinGenAbGroup:
    """Closed form for a one-prime quotient (any norm, even or odd).

    The quotient is [Cl : <[p]>] copies of Z/(N(p)**ord([p]) - 1).
    """
    c = cl.index_of(p.cls)
    orbit = cl.subgroup_closure((c,))
    ord_c = len(orbit)
    copies = cl.size // ord_c
    d = p.norm**ord_c - 1
    return FinGenAbGroup.from_orders([d] * copies)


@dataclass(frozen=True)
class PredictedQuotient:
    """Shape of a quotient as produced by the inductive prediction.

    The quotient is `coset_count` copies of Z/exponent (exponent 0 meaning
    Z), with one basis image per coset representative.  `multipliers` maps
    every class index to (position of its representative in `reps`, odd
    multiplier m) such that the image of the class's basis vector is m times
    the representative's image.
    """

    exponent: int
    reps: tuple[int, ...]
    multipliers: dict[int, tuple[int, int]]

    @property
    def coset_count(self) -> int:
        return len(self.reps)


def predicted_quotient(
    cl: ClassGroupModel, primes: list[PrimeIdealDatum] | tuple[PrimeIdealDatum, ...]
) -> PredictedQuotient:
    """Predict the quotient shape by induction over the primes in F.

    Every prime must have odd norm.  At each step the cosets of the current
    subgroup are permuted by the new ideal class; each orbit contributes a
    cycle endomorphism whose cokernel `cycle_cokernel` resolves.  All orbits
    must agree on the resulting order; disagreement is a bug, not a data
    error, and raises InternalContradiction.
    """
    for p in primes:
        if not p.has_odd_norm:
            raise ValueError(
                f"prime {p.label} has even norm {p.norm}; "
                "the inductive prediction requires odd norms"
            )
    n_cl = cl.size
    exponent = 0
    rep_of = {a: a for a in range(n_cl)}  # class index -> its coset representative
    mult = {a: 1 for a in range(n_cl)}  # image of e_a = mult[a] * image of e_rep
    cosets = {a: [a] for a in range(n_cl)}  # representative -> classes of its coset

    for p in primes:
        c = cl.index_of(p.cls)
        reps = sorted(cosets)
        shifted = {r: cl.add(r, c) for r in reps}
        # Orbits of the translation by c on the coset representatives.
        send = {r: rep_of[shifted[r]] for r in reps}
        merged: dict[int, list[int]] = {}  # new representative -> classes of its coset
        seen: set[int] = set()
        new_exponent: int | None = None
        updates: dict[int, tuple[int, int]] = {}  # class -> (new rep, new multiplier)
        for start in reps:
            if start in seen:
                continue
            orbit = [start]
            r = send[start]
            while r != start:
                orbit.append(r)
                r = send[r]
            rep_star = min(orbit)
            # Cycle slots 1..n: slot k holds the rep reached from rep_star
            # by k translations; slot n is rep_star itself.
            slots = []
            r = rep_star
            for _ in range(len(orbit)):
                r = send[r]
                slots.append(r)
            if slots[-1] != rep_star:
                raise InternalContradiction("coset translation orbit did not close")
            cycle_factors = [p.norm * mult[shifted[a_k]] for a_k in slots]
            order, coeffs = cycle_cokernel(cycle_factors, exponent)
            if new_exponent is None:
                new_exponent = order
            elif new_exponent != order:
                raise InternalContradiction(
                    f"orbits disagree on the quotient order: {new_exponent} vs {order}"
                )
            seen.update(orbit)
            merged[rep_star] = []
            for k, old_rep in enumerate(slots):
                for a in cosets[old_rep]:
                    updates[a] = (rep_star, mult[a] * coeffs[k])
                merged[rep_star] += cosets[old_rep]
        assert new_exponent is not None
        exponent = new_exponent
        for a, (r_a, m_a) in updates.items():
            rep_of[a] = r_a
            mult[a] = m_a % exponent if exponent else m_a
        cosets = merged

    subgroup = cl.subgroup_closure(tuple({cl.index_of(p.cls) for p in primes}))
    reps = tuple(sorted(set(rep_of.values())))
    if len(reps) * len(subgroup) != n_cl:
        raise InternalContradiction("coset count does not match subgroup order")
    if primes:
        if exponent <= 0 or exponent % 2:
            raise InternalContradiction(f"quotient order {exponent} not even positive")
        if any(m % 2 == 0 for m in mult.values()):
            raise InternalContradiction("even multiplier in an odd-norm prediction")
    rep_pos = {r: i for i, r in enumerate(reps)}
    multipliers = {a: (rep_pos[rep_of[a]], mult[a]) for a in range(n_cl)}
    return PredictedQuotient(exponent=exponent, reps=reps, multipliers=multipliers)


def predicted_group(pred: PredictedQuotient) -> FinGenAbGroup:
    """Quotient group described by a prediction, in canonical form."""
    return FinGenAbGroup.from_orders([pred.exponent] * pred.coset_count)


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


def naive_reduced_forms(d: int) -> list[QuadraticForm]:
    """All reduced forms of a negative fundamental discriminant, sorted.

    Tries every pair (a, b) with a <= sqrt(|d|/3) and -a < b <= a, about
    |d|/3 steps; the reference for `fields.reduced_forms`.
    """
    _check_discriminant(d)
    forms = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            forms.append(QuadraticForm(a, b, c))
    return sorted(forms)


def naive_represented_primes(d: int, q: int) -> Representation | None:
    """Search for a reduced form of discriminant d representing the prime q.

    Scans all (x, y) with |x|, |y| <= q; returns None when no reduced form
    represents q, which is exactly the inert case.
    """
    for form in naive_reduced_forms(d):
        for x in range(-q, q + 1):
            for y in range(-q, q + 1):
                if form.value(x, y) == q:
                    return Representation(form, x, y)
    return None
