"""Exact integer linear algebra and finitely generated abelian groups.

Everything here works with plain Python integers, so all results are exact
at any size.  Matrices are immutable; the normal-form routines return fresh
objects together with the unimodular transformations that witness them.

Groups are kept in canonical invariant-factor form (nonzero factors form a
divisibility chain, no factor equals 1, free factors encoded as trailing
zeros), which makes isomorphism testing a plain comparison.  Building that
form from arbitrary cyclic orders takes gcd/lcm exchanges only, never
factoring.

The integer helpers the package needs live here as well, with no
dependency outside the standard library: trial-division `factorize` for
integers of supported size (class numbers, small quotient sizes,
discriminants), the byte-array sieve `primes_up_to`, exact integer roots,
and exact `is_prime` / `is_prime_power`.  The primality test is trial
division below 10**6 and deterministic Miller-Rabin above; above the
proven limit `MILLER_RABIN_LIMIT` it refuses with `PrimalityLimitExceeded`
rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

# Group elements are reduced coordinate tuples; use FinGenAbGroup methods to
# construct and combine them so the reduction invariant holds.
GroupElement = tuple[int, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n (for n >= 1, p prime).

    >>> p_part(12, 2)
    4
    >>> p_part(40, 5)
    5
    >>> p_part(1, 7)
    1
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if p < 2:
        raise ValueError(f"expected a prime, got {p}")
    result = 1
    while n % p == 0:
        n //= p
        result *= p
    return result


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular matrix of arbitrary-precision integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows in matrix")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> IntMatrix:
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], nrows: int | None = None) -> IntMatrix:
        cols = [tuple(int(x) for x in c) for c in columns]
        if cols:
            n = len(cols[0])
            if any(len(c) != n for c in cols):
                raise ValueError("columns of unequal length")
        elif nrows is None:
            raise ValueError("nrows required for an empty column set")
        else:
            n = nrows
        if nrows is not None and cols and nrows != n:
            raise ValueError("nrows does not match column length")
        return cls(tuple(tuple(c[i] for c in cols) for i in range(n)))

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> IntMatrix:
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else IntMatrix(())

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        ot = list(zip(*other.entries)) if other.entries else []
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.entries
            )
        )

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def is_diagonal(self) -> bool:
        return all(
            x == 0 for i, row in enumerate(self.entries) for j, x in enumerate(row) if i != j
        )

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.nrows, self.ncols)))


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


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix: returns (S, U, V) with U @ A @ V == S.

    U and V are unimodular and the diagonal of S is a non-negative
    divisibility chain.  Pivots are chosen by minimal absolute value, which
    keeps intermediate growth tame at the sizes this package targets.

    >>> s, u, v = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    >>> s.diagonal()
    (1, 6)
    """
    nr, nc = a.nrows, a.ncols
    m = [list(row) for row in a.entries]
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

    s = IntMatrix.from_rows(m)
    return s, IntMatrix.from_rows(u), IntMatrix.from_rows(v)


def _echelon_insert(basis: list[list[int]], vec: list[int]) -> None:
    """Insert vec into a column-echelon basis (pivot = topmost nonzero entry)."""
    n = len(vec)
    while True:
        r = next((i for i in range(n) if vec[i]), None)
        if r is None:
            return
        hit = next((b for b in basis if next(i for i in range(n) if b[i]) == r), None)
        if hit is None:
            basis.append(vec)
            basis.sort(key=lambda b: next(i for i in range(n) if b[i]))
            return
        a, c = hit[r], vec[r]
        if c % a == 0:
            q = c // a
            vec = [x - q * y for x, y in zip(vec, hit)]
        else:
            g, x, y = xgcd(a, c)
            new_hit = [x * p + y * q for p, q in zip(hit, vec)]
            new_vec = [(a // g) * q - (c // g) * p for p, q in zip(hit, vec)]
            hit[:] = new_hit
            vec = new_vec


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Canonical column basis of the lattice spanned by the columns of `a`.

    The result is in column echelon form with positive pivots; in each pivot
    row the entries of the earlier columns are reduced into [0, pivot).
    Matrices with the same column span have the same normal form.
    """
    n = a.nrows
    basis: list[list[int]] = []
    for col in a.columns():
        if any(col):
            _echelon_insert(basis, list(col))
    for b in basis:
        r = next(i for i in range(n) if b[i])
        if b[r] < 0:
            b[:] = [-x for x in b]
    for j, b in enumerate(basis):
        r = next(i for i in range(n) if b[i])
        for k in range(j):
            q = basis[k][r] // b[r]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], b)]
    return IntMatrix.from_columns([tuple(b) for b in basis], nrows=n)


def lattice_membership(
    columns: Sequence[Sequence[int]], v: Sequence[int]
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether v lies in the integer column span; return a witness.

    On success the witness x satisfies sum(x[j] * columns[j]) == v.
    """
    if not columns:
        return (not any(v), () if not any(v) else None)
    n = len(columns[0])
    if len(v) != n or any(len(c) != n for c in columns):
        raise ValueError("dimension mismatch between columns and vector")
    a = IntMatrix.from_columns(columns)
    s, u, vt = smith_normal_form(a)
    uv = u.apply(v)
    diag = s.diagonal()
    z = [0] * a.ncols
    for i in range(n):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if uv[i]:
                return (False, None)
        else:
            q, r = divmod(uv[i], d)
            if r:
                return (False, None)
            z[i] = q
    witness = vt.apply(z)
    return (True, witness)


def _canonical_chain(orders: Sequence[int]) -> tuple[int, ...] | None:
    """Return the sorted orders if they already form a canonical chain."""
    tors = sorted(x for x in orders if x != 0 and x != 1)
    zeros = [0] * sum(1 for x in orders if x == 0)
    for a, b in zip(tors, tors[1:]):
        if b % a:
            return None
    return tuple(tors) + tuple(zeros)


@dataclass(frozen=True)
class FinGenAbGroup:
    """Finitely generated abelian group in invariant-factor form.

    `factors` lists the cyclic orders: nonzero entries form an ascending
    divisibility chain (none equal to 1) and each 0 contributes an infinite
    cyclic summand, listed last.

    >>> FinGenAbGroup.from_orders([2, 3])
    FinGenAbGroup(factors=(6,))
    >>> str(FinGenAbGroup.from_orders([4, 2, 0]))
    'Z/2 x Z/4 x Z'
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not isinstance(x, int) or x < 0 for x in self.factors):
            raise ValueError("factors must be non-negative integers")
        if any(x == 1 for x in self.factors):
            raise ValueError("factor 1 is not allowed in canonical form")
        if _canonical_chain(self.factors) != self.factors:
            raise ValueError(f"factors {self.factors} are not in canonical form")

    @classmethod
    def from_orders(cls, orders: Iterable[int]) -> FinGenAbGroup:
        """Build the direct sum of Z/d (d > 0) and Z (d == 0), canonicalized."""
        orders = [int(x) for x in orders]
        if any(x < 0 for x in orders):
            raise ValueError("cyclic orders must be non-negative")
        chain = _canonical_chain(orders)
        if chain is not None:
            return cls(chain)
        # Z/a x Z/b = Z/gcd(a, b) x Z/lcm(a, b): the diagonal case of Smith
        # normal form.  After pass i, tors[i] divides every later entry, so
        # the list ends as an ascending chain with any 1s at its front.
        tors = [x for x in orders if x > 1]
        for i in range(len(tors)):
            for j in range(i + 1, len(tors)):
                g = gcd(tors[i], tors[j])
                tors[i], tors[j] = g, tors[i] // g * tors[j]
        return cls(tuple(x for x in tors if x != 1) + (0,) * orders.count(0))

    @classmethod
    def trivial(cls) -> FinGenAbGroup:
        return cls(())

    @classmethod
    def free(cls, rank: int) -> FinGenAbGroup:
        return cls((0,) * rank)

    @property
    def free_rank(self) -> int:
        return sum(1 for x in self.factors if x == 0)

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        return tuple(x for x in self.factors if x != 0)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite group has no order")
        n = 1
        for x in self.factors:
            n *= x
        return n

    def direct_sum(self, other: FinGenAbGroup) -> FinGenAbGroup:
        return FinGenAbGroup.from_orders(self.factors + other.factors)

    # -- element arithmetic (elements are reduced coordinate tuples) --

    def element(self, coords: Sequence[int]) -> GroupElement:
        if len(coords) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} coordinates, got {len(coords)}"
            )
        return tuple(
            int(c) % d if d else int(c) for c, d in zip(coords, self.factors)
        )

    def zero(self) -> GroupElement:
        return (0,) * len(self.factors)

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.element([x + y for x, y in zip(a, b)])

    def neg(self, a: GroupElement) -> GroupElement:
        return self.element([-x for x in a])

    def scale(self, n: int, a: GroupElement) -> GroupElement:
        return self.element([n * x for x in a])

    def all_elements(self) -> list[GroupElement]:
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        elems = [()]
        for d in self.factors:
            elems = [e + (r,) for e in elems for r in range(d)]
        return elems

    def __str__(self) -> str:
        if not self.factors:
            return "trivial"
        return " x ".join("Z" if x == 0 else f"Z/{x}" for x in self.factors)


def element_order(g: FinGenAbGroup, a: GroupElement) -> int:
    """Least n >= 1 with n*a == 0 in a finite group."""
    if not g.is_finite:
        raise ValueError("element order requires a finite group")
    a = g.element(a)
    return lcm(*(d // gcd(d, c) for d, c in zip(g.factors, a)), 1)


def subgroup_index(g: FinGenAbGroup, gens: Sequence[GroupElement]) -> int:
    """Index [G : <gens>] in a finite group, computed exactly.

    The subgroup corresponds to the integer lattice spanned by the generator
    coordinates together with the relation lattice diag(factors); the index
    is the covolume of that lattice in Z^k.
    """
    if not g.is_finite:
        raise ValueError("subgroup index requires a finite group")
    k = len(g.factors)
    if k == 0:
        return 1
    cols = [list(g.element(x)) for x in gens]
    cols += [[g.factors[i] if j == i else 0 for j in range(k)] for i in range(k)]
    s, _, _ = smith_normal_form(IntMatrix.from_columns(cols))
    idx = 1
    for d in s.diagonal():
        idx *= d
    return idx


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


def iso_equal(g: FinGenAbGroup, h: FinGenAbGroup) -> bool:
    """Whether two groups are isomorphic (canonical forms coincide)."""
    return g.factors == h.factors


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
    if not columns:
        g = FinGenAbGroup.free(ambient_rank)
        eye = IntMatrix.identity(ambient_rank)
        return g, tuple(eye.column(i) for i in range(ambient_rank))
    a = IntMatrix.from_columns(columns)
    s, u, _ = smith_normal_form(a)
    diag = list(s.diagonal())
    kept = [i for i, d in enumerate(diag) if d != 1]
    free_tail = list(range(len(diag), ambient_rank))
    factors = [diag[i] for i in kept] + [0] * len(free_tail)
    g = FinGenAbGroup.from_orders(factors)
    positions = kept + free_tail
    proj = []
    for i in range(ambient_rank):
        col = u.column(i)
        proj.append(g.element([col[j] for j in positions]))
    return g, tuple(proj)


def integer_nth_root(x: int, n: int) -> int | None:
    """Exact n-th root of a non-negative integer, or None if not a power."""
    if x < 0 or n < 1:
        raise ValueError("need x >= 0 and n >= 1")
    if x in (0, 1) or n == 1:
        return x
    lo, hi = 1, 1
    while hi**n < x:
        lo, hi = hi, hi * 2
    while lo <= hi:
        mid = (lo + hi) // 2
        m = mid**n
        if m == x:
            return mid
        if m < x:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


class PrimalityLimitExceeded(Exception):
    """An integer is too large for the exact primality test."""


# Deterministic Miller-Rabin with the first 13 primes as bases is exact
# below psi_13 (Sorenson and Webster, Math. Comp. 86, 2017).
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_LIMIT = 1000  # no composite below _TRIAL_LIMIT**2 escapes trial division


def primes_up_to(n: int) -> list[int]:
    """All primes p <= n, by the sieve of Eratosthenes on a byte array.

    >>> primes_up_to(20)
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


_SMALL_PRIMES = primes_up_to(_TRIAL_LIMIT)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, by trial division.

    Costs O(sqrt(n)) divisions, which suits the integers the package
    factors: class numbers, oracle quotient sizes and discriminants, whose
    reduced-form enumeration costs more anyway.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _small_factor(n: int) -> int | None:
    """Least prime factor of n >= 2 if it is below _TRIAL_LIMIT.

    Returns n itself when n is a prime below _TRIAL_LIMIT**2, and None when
    n has no prime factor below _TRIAL_LIMIT and is at least that large.
    """
    for p in _SMALL_PRIMES:
        if p * p > n:
            return n
        if n % p == 0:
            return p
    return n if n < _TRIAL_LIMIT**2 else None


def _miller_rabin(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n with no factor below _TRIAL_LIMIT."""
    if n >= MILLER_RABIN_LIMIT:
        raise PrimalityLimitExceeded(
            f"cannot certify primality of a {n.bit_length()}-bit integer "
            f"(exact test limited to {MILLER_RABIN_LIMIT})"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _power_base(n: int) -> int:
    """Least r with n = r**k, for n with no prime factor below _TRIAL_LIMIT."""
    reduced = True
    while reduced:
        reduced = False
        # n = r**k with r > _TRIAL_LIMIT > 2**9 forces 9 * k < n.bit_length()
        for k in _SMALL_PRIMES:
            if 9 * k >= n.bit_length():
                break
            r = integer_nth_root(n, k)
            if r is not None:
                n, reduced = r, True
                break
    return n


def is_prime(n: int) -> bool:
    """Exact primality test; raises PrimalityLimitExceeded when it cannot be.

    >>> [q for q in range(20) if is_prime(q)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if n < 2:
        return False
    p = _small_factor(n)
    if p is not None:
        return p == n
    return _power_base(n) == n and _miller_rabin(n)


def is_prime_power(n: int) -> bool:
    """Whether n = p**k for a prime p and k >= 1, decided exactly.

    A small least prime factor is stripped by trial division.  Otherwise
    every prime factor exceeds _TRIAL_LIMIT, and n is a prime power exactly
    when the base of its highest perfect power is prime.  Raises
    PrimalityLimitExceeded when that base is too large to certify.

    >>> [q for q in range(20) if is_prime_power(q)]
    [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    """
    if n < 2:
        return False
    p = _small_factor(n)
    if p is not None:
        while n % p == 0:
            n //= p
        return n == 1
    return _miller_rabin(_power_base(n))
