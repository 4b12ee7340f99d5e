"""Exact integer linear algebra and finitely generated abelian groups.

Everything here works with plain Python integers, so all results are exact
at any size.  Nothing changes a matrix once built; the Smith normal form
returns a fresh matrix together with the unimodular transformations that
witness it; in the package only `cokernel_of_columns` calls it.  A subgroup's index and
the relations among its generators need less: `index_and_relations` reads
both off one column echelon.

Groups are kept in canonical invariant-factor form (nonzero factors form a
divisibility chain, no factor equals 1, free factors encoded as trailing
zeros), which makes isomorphism testing a plain comparison.  Building that
form from arbitrary cyclic orders takes gcd/lcm exchanges only, never
factoring.  No group element is enumerated here; `oracle.ClassGroupModel`
does that for the certifiers.

The integer helpers the package needs live here as well, with no
dependency outside the standard library: trial-division `factorize` for
integers of supported size (class numbers, small quotient sizes,
discriminants), the byte-array sieve `primes_up_to`, the least prime
factor table `smallest_prime_factors`, square roots modulo primes and
prime powers, exact integer roots, and exact `is_prime` /
`is_prime_power`.  The primality test is trial division below 10**6 and
deterministic Miller-Rabin above; above the proven limit
`MILLER_RABIN_LIMIT` it refuses with `PrimalityLimitExceeded` rather than
guess.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, log2
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


def brief(value: int | Sequence[int]) -> str:
    """An integer, or a tuple of them, as error-message text.

    Integers above 256 bits are shown by their bit size: CPython refuses
    str() of an int with more than 4300 digits, and a message must not
    fail while it is being built.
    """
    if isinstance(value, int):
        bits = value.bit_length()
        return str(value) if bits <= 256 else f"<{bits}-bit integer>"
    items = [brief(x) for x in value]
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


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


class SlotRecord:
    """Base of the validated value classes: equality, hash and repr by slots.

    A subclass lists its fields in `__slots__` and checks them in its
    `__init__`.  Two records are equal when they are of the same class and
    their fields are equal; the hash is that of the field tuple.  The fields
    are not write-protected, but nothing changes a record once it is built.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class IntMatrix(SlotRecord):
    """Rectangular matrix of arbitrary-precision integers, never changed once built."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        if len({len(row) for row in entries}) > 1:
            raise ValueError("ragged rows in matrix")
        self.entries = entries

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

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.nrows, self.ncols)))


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
    """Diagonalize an integer matrix: returns (S, U, V) with U A V = S.

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


def _canonical_chain(orders: Sequence[int]) -> tuple[int, ...] | None:
    """Return the sorted orders if they already form a canonical chain."""
    tors = sorted(x for x in orders if x != 0 and x != 1)
    zeros = [0] * sum(1 for x in orders if x == 0)
    for a, b in zip(tors, tors[1:]):
        if b % a:
            return None
    return tuple(tors) + tuple(zeros)


def is_canonical(factors: Sequence[int]) -> bool:
    """Whether integer factors are in canonical form, read in their given order.

    The torsion factors ascend from 2, each dividing the next, and the
    zeros come last.  Only adjacent distinct values are compared, so the
    [Cl : H] equal copies of a homogeneous quotient cost one comparison
    each, with no division.  `FinGenAbGroup` accepts exactly the tuples of
    non-negative ints that pass.
    """
    prev = 1
    for x in factors:
        if x == prev:
            if x == 1:
                return False
        elif x and (x < 2 or not prev or x % prev):
            return False
        else:
            prev = x
    return True


class FinGenAbGroup(SlotRecord):
    """Finitely generated abelian group in invariant-factor form.

    `factors` lists the cyclic orders: nonzero entries form an ascending
    divisibility chain (none equal to 1) and each 0 contributes an infinite
    cyclic summand, listed last.  Nothing changes a group after it is
    built, and groups compare and hash by their factors.

    >>> FinGenAbGroup.from_orders([2, 3])
    FinGenAbGroup(factors=(6,))
    >>> str(FinGenAbGroup.from_orders([4, 2, 0]))
    'Z/2 x Z/4 x Z'
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[int, ...]) -> None:
        if any(not isinstance(x, int) or x < 0 for x in factors):
            raise ValueError("factors must be non-negative integers")
        if any(x == 1 for x in factors):
            raise ValueError("factor 1 is not allowed in canonical form")
        if not (isinstance(factors, tuple) and is_canonical(factors)):
            raise ValueError(f"factors {brief(factors)} are not in canonical form")
        self.factors = factors

    @classmethod
    def trusted(cls, chain: tuple[int, ...]) -> FinGenAbGroup:
        """The group of a tuple already known to be canonical, not checked again."""
        group = object.__new__(cls)
        group.factors = chain
        return group

    @classmethod
    def from_orders(cls, orders: Iterable[int]) -> FinGenAbGroup:
        """Build the direct sum of Z/d (d > 0) and Z (d == 0), canonicalized.

        The chain is checked once: both routes below end in canonical form,
        so the group is built by `trusted`.
        """
        orders = [int(x) for x in orders]
        if any(x < 0 for x in orders):
            raise ValueError("cyclic orders must be non-negative")
        chain = _canonical_chain(orders)
        if chain is None:
            # Z/a x Z/b = Z/gcd(a, b) x Z/lcm(a, b): the diagonal case of
            # Smith normal form.  After pass i, tors[i] divides every later
            # entry, so the list ends as an ascending chain with any 1s at
            # its front.
            tors = [x for x in orders if x > 1]
            for i in range(len(tors)):
                for j in range(i + 1, len(tors)):
                    g = gcd(tors[i], tors[j])
                    tors[i], tors[j] = g, tors[i] // g * tors[j]
            chain = tuple(x for x in tors if x != 1) + (0,) * orders.count(0)
        return cls.trusted(chain)

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

    def __str__(self) -> str:
        if not self.factors:
            return "trivial"
        return " x ".join("Z" if x == 0 else f"Z/{x}" for x in self.factors)


def index_and_relations(
    gens: Sequence[Sequence[int]], factors: Sequence[int]
) -> tuple[int, list[tuple[int, ...]]]:
    """The index of <gens> in the group with these factors, and their relations.

    `gens` are coordinate columns.  The matrix [gens | diag(factors)] is
    brought to lower-triangular column echelon form by xgcd column
    operations (Cohen, GTM 138, section 2.4), and of the unimodular
    transform V only the first len(gens) rows are kept.  The index is the
    product of the pivots, or 0 when a row has none (infinite index, which
    needs a factor 0).  The columns of V past the pivot columns span the
    kernel of the matrix, so their first len(gens) entries span the
    relations {k : sum k_j gens_j = 0}.  Neither U nor a divisibility chain
    is computed; `smith_normal_form` does that.

    >>> index_and_relations([(2,), (3,)], (6,))
    (1, [(-3, 2), (6, -6)])
    >>> index_and_relations([(2, 0)], (4, 4))
    (8, [(-2,)])
    """
    r, n = len(factors), len(gens)
    # a column holds its r matrix entries, then its n entries of V
    cols = []
    for j, g in enumerate(gens):
        col = [*g] + [0] * n
        col[r + j] = 1
        cols.append(col)
    for j, d in enumerate(factors):
        col = [0] * (r + n)
        col[j] = d
        cols.append(col)
    index, t = 1, 0  # cols[:t] are the pivot columns
    for row in range(r):
        live = [j for j in range(t, len(cols)) if cols[j][row]]
        if not live:
            index = 0
            continue
        # the least entry leads, so most others reduce by one division
        lead = min(live, key=lambda k: abs(cols[k][row]))
        cols[t], cols[lead] = cols[lead], cols[t]
        for j in range(t + 1, len(cols)):
            b = cols[j][row]
            if not b:
                continue
            a = cols[t][row]
            if b % a == 0:
                q = b // a
                cols[j] = [y - q * x for x, y in zip(cols[t], cols[j])]
            else:
                g, x, y = xgcd(a, b)
                ag, bg = a // g, b // g
                cols[t], cols[j] = (
                    [x * u + y * w for u, w in zip(cols[t], cols[j])],
                    [ag * w - bg * u for u, w in zip(cols[t], cols[j])],
                )
        index *= abs(cols[t][row])
        t += 1
    return index, [tuple(c[r:]) for c in cols[t:]]


def subgroup_index(g: FinGenAbGroup, gens: Sequence[GroupElement]) -> int:
    """Index [G : <gens>] in a finite group, computed exactly.

    The subgroup corresponds to the integer lattice spanned by the generator
    coordinates together with the relation lattice diag(factors); the index
    is the covolume of that lattice in Z^k, read off `index_and_relations`.
    """
    if not g.is_finite:
        raise ValueError("subgroup index requires a finite group")
    return index_and_relations([g.element(x) for x in gens], g.factors)[0]


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
    a = IntMatrix.from_columns(columns, nrows=ambient_rank)
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
    """Exact n-th root of a non-negative integer, or None if not a power.

    Newton's iteration from above, started at a floating-point estimate of
    the root, so the cost is a few powers of x's size even when x has
    hundreds of thousands of bits.
    """
    if x < 0 or n < 1:
        raise ValueError("need x >= 0 and n >= 1")
    if x in (0, 1) or n == 1:
        return x
    bits = x.bit_length()
    if n >= bits:  # 1 < root < 2 would be needed
        return None
    if n == 2:
        y = isqrt(x)
        return y if y * y == x else None
    shift = max(bits - 64, 0)
    root_bits = (log2(x >> shift) + shift) / n
    shift = max(int(root_bits) - 52, 0)
    y = (int(2.0 ** (root_bits - shift) * (1 + 2.0**-30)) + 1) << shift
    while y**n < x:  # only if the estimate fell short
        y *= 2
    while True:  # decreases to the floor of the root, then stops
        z = ((n - 1) * y + x // y ** (n - 1)) // n
        if z >= y:
            break
        y = z
    return y if y**n == x else None


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


def smallest_prime_factors(n: int) -> list[int]:
    """The table spf with spf[k] the least prime factor of k, for 2 <= k <= n.

    spf[0] = 0 and spf[1] = 1.  The primes up to sqrt(n) mark their
    multiples in descending order, so the least prime marks last.

    >>> smallest_prime_factors(10)
    [0, 1, 2, 3, 2, 5, 2, 7, 2, 3, 2]
    """
    spf = list(range(n + 1))
    for p in reversed(primes_up_to(isqrt(n))):
        spf[p * p :: p] = [p] * len(range(p * p, n + 1, p))
    return spf


def sqrt_mod_prime(a: int, q: int) -> int | None:
    """A square root of a modulo the prime q, or None if a is a non-residue.

    The (q + 1)/4 power when q = 3 (mod 4), Tonelli-Shanks otherwise
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.5.1).

    >>> sqrt_mod_prime(2, 7) ** 2 % 7
    2
    >>> sqrt_mod_prime(3, 7) is None
    True
    """
    a %= q
    if a == 0 or q == 2:
        return a
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    t, s = q - 1, 0  # q - 1 = 2**s * t with t odd
    while t % 2 == 0:
        t, s = t // 2, s + 1
    z = 2
    while pow(z, (q - 1) // 2, q) == 1:
        z += 1
    y = pow(z, t, q)  # generates the 2-Sylow subgroup of (Z/q)*
    x, b = pow(a, (t + 1) // 2, q), pow(a, t, q)  # x*x = a*b, b in that subgroup
    while b != 1:
        m, power = 0, b  # the order of b is 2**m, with m < s
        while power != 1:
            power, m = power * power % q, m + 1
        c = pow(y, 1 << (s - m - 1), q)
        y, s = c * c % q, m
        x, b = x * c % q, b * y % q
    return x


def sqrt_mod_prime_power(a: int, q: int, e: int) -> list[int]:
    """Every root of x*x = a modulo q**e, sorted, for a prime q not dividing a.

    For odd q, a root modulo q lifts by Hensel's lemma one exponent at a
    time, and the roots are r and -r.  Powers of 2 are their own small
    case: an odd a has the root 1 modulo 2, the roots 1 and 3 modulo 4 when
    a = 1 (mod 4), and four roots +-r, +-r + 2**(e-1) modulo 2**e for e >= 3
    when a = 1 (mod 8); otherwise none.

    >>> sqrt_mod_prime_power(2, 7, 2)
    [10, 39]
    >>> sqrt_mod_prime_power(17, 2, 5)
    [7, 9, 23, 25]
    """
    if e < 1 or a % q == 0:
        raise ValueError(f"need e >= 1 and {q} not dividing {a}")
    n = q**e
    if q == 2:
        if e <= 2:
            return [1] if e == 1 else [1, 3] if a % 4 == 1 else []
        if a % 8 != 1:
            return []
        r = 1  # r*r = a (mod 2**k) for k = 3, then lifted to k = e
        for k in range(3, e):
            if (r * r - a) % (2 << k):
                r += 1 << (k - 1)
        half = n // 2
        return sorted({r, n - r, (r + half) % n, (half - r) % n})
    r = sqrt_mod_prime(a, q)
    if r is None:
        return []
    modulus = q
    for _ in range(1, e):
        modulus *= q
        r = (r - (r * r - a) * pow(2 * r, -1, modulus)) % modulus
    return sorted({r, n - r})


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, by trial division.

    Costs O(sqrt(n)) divisions, which suits the integers the package
    factors: class numbers, oracle quotient sizes and discriminants, whose
    reduced-form enumeration takes about as many steps.

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


@lru_cache(maxsize=None)
def _residue_moduli(k: int) -> tuple[int, ...]:
    """The three least primes q = 1 (mod 2k), for k-th power residue tests."""
    out: list[int] = []
    q = 1
    while len(out) < 3:
        q += 2 * k
        if is_prime(q):
            out.append(q)
    return tuple(out)


def _power_base(n: int) -> int:
    """Least r with n = r**k, for n with no prime factor below _TRIAL_LIMIT."""
    reduced = True
    while reduced:
        reduced = False
        # n = r**k with r > _TRIAL_LIMIT > 2**9 forces 9 * k < n.bit_length()
        for k in _SMALL_PRIMES:
            if 9 * k >= n.bit_length():
                break
            # a k-th power is 0 or a k-th power residue modulo every prime q;
            # ruling k out this way saves a root of n's size
            if any(pow(n % q, (q - 1) // k, q) > 1 for q in _residue_moduli(k)):
                continue
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
