"""Naive reference implementations used to certify the fast paths.

This is the one module that enumerates group elements or builds the
brute-force lattice, and nothing the CLI runs imports it.
`ClassGroupModel` enumerates a class group to index the lattice basis
(`class_group_model` builds it for a field spec), `sublattice_columns`
writes the raw columns of I - op_p, and `lattice_quotient` takes their
Smith normal form: the brute-force route to the quotients.

The paper's induction over F (`predicted_quotient` over `cycle_cokernel`,
with the one-prime case `singleton_quotient`) lives here as a second
route to the quotients, independent of the formula in
`lattice.quotient_from_terms` and of Smith normal form.

Everything else here is deliberately simple and bounded: coset enumeration
in a box, exhaustive subgroup closure, the scan of every pair (a, b) for
reduced forms, exhaustive search for represented primes.  The guards are
hard limits, not heuristics: an oracle that refuses to answer is more
trustworthy than one that silently takes shortcuts.

The general Smith normal form (`smith_normal_form`, with both transforms,
and `cokernel_of_columns` on top of it) lives here as well: it is the
brute-force route behind `lattice_quotient`, and the tests' reference for
the class-group build's own cokernel, `forms._cokernel`.  Apart from
those, none of this code shares machinery with the Smith normal form it
validates; lattice questions, including the multiplier relations a
quotient prediction asserts, are settled by a plain insertion echelon
basis and literal enumeration.  The reference values the
tests compare against live here too: exact determinants, element orders
and primary decompositions.  The class number has an analytic route too:
Dirichlet's formula over the Kronecker character (`class_number_formula`,
with its own `kronecker_symbol`), which shares nothing with the reduced
forms whose count gives h at runtime.  As in `forms`, a form is its
(a, b, c) int triple; a matrix is the tuple of its rows (`Matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm
from typing import Sequence

from .abgroup import FinGenAbGroup, GroupElement, factorize
from .errors import InternalContradiction
from .fields import FieldSpec, PrimeIdealDatum
from .forms import Triple, _check_discriminant, class_group
from .lattice import xgcd

QUOTIENT_GUARD = 10_000
GROUP_GUARD = 10_000

Matrix = tuple[tuple[int, ...], ...]  # the rows of an integer matrix


def _min_abs_pivot(m: list[list[int]], t: int) -> tuple[int, int] | None:
    best: tuple[int, int] | None = None
    best_val = 0
    for i in range(t, len(m)):
        for j in range(t, len(m[0])):
            x = m[i][j]
            if x != 0 and (best is None or abs(x) < best_val):
                best = (i, j)
                best_val = abs(x)
                if best_val == 1:
                    return best
    return best


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix given by its rows: (S, U, V) with U A V = S.

    U and V are unimodular and the diagonal of S is a non-negative
    divisibility chain; all three come back as tuples of row tuples.
    Pivots are chosen by minimal absolute value, which keeps intermediate
    growth tame at the sizes this package targets.

    >>> s, u, v = smith_normal_form([[2, 0], [0, 3]])
    >>> s
    ((1, 0), (0, 6))
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    m = [list(row) for row in rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def rows_combine(t: int, i: int, piv: int, other: int) -> None:
        """Unimodular 2-row transform putting gcd(piv, other) at (t, t)."""
        g, x, y = xgcd(piv, other)
        pg, og = piv // g, other // g
        m[t], m[i] = (
            [x * p + y * q for p, q in zip(m[t], m[i])],
            [-og * p + pg * q for p, q in zip(m[t], m[i])],
        )
        u[t], u[i] = (
            [x * p + y * q for p, q in zip(u[t], u[i])],
            [-og * p + pg * q for p, q in zip(u[t], u[i])],
        )

    def cols_combine(t: int, j: int, piv: int, other: int) -> None:
        g, x, y = xgcd(piv, other)
        pg, og = piv // g, other // g
        for row in m:
            row[t], row[j] = x * row[t] + y * row[j], -og * row[t] + pg * row[j]
        for row in v:
            row[t], row[j] = x * row[t] + y * row[j], -og * row[t] + pg * row[j]

    def clear_col(t: int) -> bool:
        changed = False
        for i in range(t + 1, nr):
            b = m[i][t]
            if b == 0:
                continue
            changed = True
            piv = m[t][t]
            if piv and b % piv == 0:
                q = b // piv
                m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            else:
                rows_combine(t, i, piv, b)
        return changed

    def clear_row(t: int) -> bool:
        changed = False
        for j in range(t + 1, nc):
            b = m[t][j]
            if b == 0:
                continue
            changed = True
            piv = m[t][t]
            if piv and b % piv == 0:
                q = b // piv
                for row in m:
                    row[j] -= q * row[t]
                for row in v:
                    row[j] -= q * row[t]
            else:
                cols_combine(t, j, piv, b)
        return changed

    t = 0
    while t < min(nr, nc):
        pos = _min_abs_pivot(m, t)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            m[t], m[pi] = m[pi], m[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            clear_col(t)
            while clear_row(t) and clear_col(t):
                pass
            # pivot must divide the remaining submatrix for the chain
            offender = None
            d = m[t][t]
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if m[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return tuple(map(tuple, m)), tuple(map(tuple, u)), tuple(map(tuple, v))


def cokernel_of_columns(
    ambient_rank: int, columns: Sequence[Sequence[int]]
) -> tuple[FinGenAbGroup, tuple[GroupElement, ...]]:
    """Quotient Z^ambient_rank / (column lattice), with basis-vector images.

    Returns (G, proj) where proj[i] is the class of the i-th standard basis
    vector, expressed in coordinates matching G.factors.
    """
    for c in columns:
        if len(c) != ambient_rank:
            raise ValueError("column length does not match ambient rank")
    s, u, _ = smith_normal_form([[c[i] for c in columns] for i in range(ambient_rank)])
    diag = [s[i][i] for i in range(min(ambient_rank, len(columns)))]
    kept = [i for i, d in enumerate(diag) if d != 1]
    free_tail = list(range(len(diag), ambient_rank))
    factors = [diag[i] for i in kept] + [0] * len(free_tail)
    g = FinGenAbGroup.from_orders(factors)
    positions = kept + free_tail
    return g, tuple(g.element([u[j][i] for j in positions]) for i in range(ambient_rank))


class OracleGuard(Exception):
    """The requested instance exceeds the oracle's hard size limit."""


def group_add(g: FinGenAbGroup, a: GroupElement, b: GroupElement) -> GroupElement:
    """The sum of two elements of g, reduced."""
    return g.element([x + y for x, y in zip(a, b)])


class ClassGroupModel:
    """A finite abelian group with every element enumerated.

    Elements are reduced coordinate tuples, enumerated in lexicographic
    order so index 0 is always the identity.  The enumeration indexes the
    basis of the lattice in `sublattice_columns`.
    """

    def __init__(self, group: FinGenAbGroup) -> None:
        if not group.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        elements: list[GroupElement] = [()]
        for d in group.factors:
            elements = [e + (r,) for e in elements for r in range(d)]
        self.group = group
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def index_of(self, coords: GroupElement) -> int:
        try:
            return self._index[self.group.element(coords)]
        except KeyError:
            raise ValueError(f"{coords} is not an element of this group") from None

    def add(self, i: int, j: int) -> int:
        return self._index[group_add(self.group, self.elements[i], self.elements[j])]

    def subgroup_closure(self, gens: tuple[int, ...] | list[int]) -> frozenset[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for g in gens:
                    j = self.add(i, g)
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        return frozenset(seen)


def class_group_model(spec: FieldSpec) -> ClassGroupModel:
    """The class group of a field spec with every element enumerated."""
    return ClassGroupModel(class_group(spec))


def sublattice_columns(
    cl: ClassGroupModel, primes: list[PrimeIdealDatum] | tuple[PrimeIdealDatum, ...]
) -> list[tuple[int, ...]]:
    """Generating columns of the sublattice: all columns of I - op_p, p in F.

    The prime's operator sends e_a to N(p) * e_{a+[p]}, so column a of
    I - op_p is e_a - N(p) * e_{a+[p]}.
    """
    n = cl.size
    cols: list[tuple[int, ...]] = []
    for p in primes:
        c = cl.index_of(p.cls)
        for a in range(n):
            col = [0] * n
            col[a] += 1
            col[cl.add(a, c)] -= p.norm
            cols.append(tuple(col))
    return cols


def lattice_quotient(
    cl: ClassGroupModel, primes: list[PrimeIdealDatum] | tuple[PrimeIdealDatum, ...]
) -> tuple[FinGenAbGroup, tuple[GroupElement, ...]]:
    """Brute-force quotient of the lattice by the sublattice attached to F.

    Returns the quotient group and the image of every basis class.
    """
    return cokernel_of_columns(cl.size, sublattice_columns(cl, primes))


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
                g, x, y = xgcd(a, c)
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
        acc = group_add(g, acc, elem)
        order += 1
    closure = {(0,) * len(g.factors)}
    frontier = list(closure)
    gens = [g.element(x) for x in gens]
    while frontier:
        nxt = []
        for v in frontier:
            for x in gens:
                w = group_add(g, v, x)
                if w not in closure:
                    closure.add(w)
                    nxt.append(w)
        frontier = nxt
    return order, g.order() // len(closure)


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square matrix given by its rows (Bareiss elimination)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in rows]
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
    form: Triple
    x: int
    y: int


def naive_reduced_forms(d: int) -> list[Triple]:
    """All reduced triples (a, b, c) of a negative fundamental discriminant, sorted.

    Tries every pair (a, b) with a <= sqrt(|d|/3) and -a < b <= a, about
    |d|/3 steps; the reference for `forms._reduced_triples`.
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
            forms.append((a, b, c))
    return sorted(forms)


def naive_reduce(a: int, b: int, c: int) -> Triple:
    """The reduced form equivalent to the positive definite form (a, b, c).

    Alternates two moves until the form is reduced: b goes to the
    representative of b modulo 2a in (-a, a], with c recomputed from the
    discriminant, and (a, b, c) goes to (c, -b, a) while c < a.  The
    reference for `forms._reduce_triple`, which keeps c by its shift.
    """
    d = b * b - 4 * a * c
    if a <= 0 or d >= 0:
        raise ValueError(f"form {(a, b, c)} is not positive definite")
    while True:
        b = a - (a - b) % (2 * a)
        c, rem = divmod(b * b - d, 4 * a)
        if rem:
            raise InternalContradiction(f"reduction of discriminant {d} left a remainder")
        if c >= a:
            break
        a, b, c = c, -b, a
    if a == c and b < 0:
        b = -b
    return (a, b, c)


def dirichlet_compose(f: Triple, g: Triple) -> Triple:
    """Dirichlet composition of two forms with coprime leading coefficients, reduced.

    Cox, Primes of the Form x^2 + ny^2, section 3: B is the class modulo
    2*a1*a2 with B = b1 (mod 2a1) and B = b2 (mod 2a2), found by CRT;
    then B^2 = D (mod 4*a1*a2), and the composite is
    (a1*a2, B, (B^2 - D)/(4*a1*a2)).  It shares no step with the
    united-forms kernel `forms._compose_triples` it certifies, and
    `naive_reduce` reduces it.
    """
    (a1, b1, c1), (a2, b2, c2) = f, g
    d = b1 * b1 - 4 * a1 * c1
    if b2 * b2 - 4 * a2 * c2 != d:
        raise ValueError("cannot compose forms of different discriminants")
    if gcd(a1, a2) != 1:
        raise ValueError(f"leading coefficients {a1} and {a2} are not coprime")
    # B = b1 + 2*a1*t, and B = b2 (mod 2a2) asks a1*t = (b2 - b1)/2 (mod a2)
    _, inverse, _ = xgcd(a1, a2)
    big_b = b1 + 2 * a1 * ((b2 - b1) // 2 * inverse % a2)
    a = a1 * a2
    c, rem = divmod(big_b * big_b - d, 4 * a)
    if rem:
        raise InternalContradiction(f"B^2 = D fails modulo 4*{a} for {f} and {g}")
    return naive_reduce(a, big_b, c)


def naive_represented_primes(d: int, q: int) -> Representation | None:
    """Search for a reduced form of discriminant d representing the prime q.

    Scans all (x, y) with |x|, |y| <= q; returns None when no reduced form
    represents q, which is exactly the inert case.
    """
    for a, b, c in naive_reduced_forms(d):
        for x in range(-q, q + 1):
            for y in range(-q, q + 1):
                if a * x * x + b * x * y + c * y * y == q:
                    return Representation((a, b, c), x, y)
    return None


def kronecker_symbol(a: int, n: int) -> int:
    """The Kronecker symbol (a/n) for n >= 1, by quadratic reciprocity.

    Each factor 2 of n gives (a/2): 0 for even a, else 1 or -1 as
    a = +-1 or +-3 (mod 8).  The odd rest is the Jacobi symbol, by the
    binary algorithm (after Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 1.4.10).  It shares nothing with the modular square
    roots of `forms`.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    sign = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def class_number_formula(d: int) -> int:
    """The class number of a fundamental discriminant d < -4, from Dirichlet's formula.

    h = (1 / (2 - chi(2))) * sum of chi(a) over 0 < a < |d|/2, with chi the
    Kronecker character (d/.) of the field: the finite form of Dirichlet's
    analytic class number formula when the field has only the units +-1.
    About |d|/2 symbols, one `kronecker_symbol` each: the analytic route to
    h, beside the count of reduced forms that the class-group build makes.
    """
    _check_discriminant(d)
    if d >= -4:
        raise ValueError(f"the formula holds for d < -4, got {d}")
    total = sum(kronecker_symbol(d, a) for a in range(1, (-d + 1) // 2))
    h, rem = divmod(total, 2 - kronecker_symbol(d, 2))
    if rem:
        raise InternalContradiction(f"class number formula of {d} left a remainder")
    return h
