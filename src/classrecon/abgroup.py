"""Finitely generated abelian groups and exact integer helpers.

Everything here works with plain Python integers, so all results are exact
at any size.  Both sides of the package import this module: the producer
(`forms`, `fields`, `lattice`) and the blind consumer (`reconstruct`,
`codec`).  So it holds only what both need or share, and every call of
either side compiles it.  Code with one runtime user lives beside that
user: the class-group build's cokernel and the square roots modulo prime
powers in `forms`, the column echelon `index_and_relations` in `lattice`,
and `p_part` in `reconstruct`.  The general Smith normal form is a
certifier, in `oracle`.

Groups are kept in canonical invariant-factor form (nonzero factors form a
divisibility chain, no factor equals 1, free factors encoded as trailing
zeros), so two groups are isomorphic exactly when they are `==`.  Building
that form from arbitrary cyclic orders takes gcd/lcm exchanges only, never
factoring.  No group element is enumerated here; `oracle.ClassGroupModel`
does that for the certifiers.

The integer helpers live here as well, with no dependency outside the
standard library: trial-division `factorize` for integers of supported
size (class numbers, small quotient sizes, discriminants), the byte-array
sieve `primes_up_to` and the guard `check_bound` on its bound, exact
integer roots, and `is_prime` / `is_prime_power` by trial division by the
primes up to isqrt(MAX_BOUND), a table sieved by the first test.  That
decides every integer up to MAX_BOUND, and no bundle carries a larger
norm; a larger integer with no factor in the table is refused with
`LimitExceeded`, as every limit of the package is.
"""

from __future__ import annotations

from math import gcd, isqrt, log2, prod
from typing import Iterable, Sequence

from .errors import MAX_BOUND, LimitExceeded

# Group elements are reduced coordinate tuples; use FinGenAbGroup methods to
# construct and combine them so the reduction invariant holds.
GroupElement = tuple[int, ...]


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
        if 1 in factors:
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

        The sorted orders are checked once, by `is_canonical`: both routes
        below end in canonical form, so the group is built by `trusted`.
        """
        orders = [int(x) for x in orders]
        if any(x < 0 for x in orders):
            raise ValueError("cyclic orders must be non-negative")
        tors = sorted(x for x in orders if x > 1)
        if not is_canonical(tors):
            # Z/a x Z/b = Z/gcd(a, b) x Z/lcm(a, b): the diagonal case of
            # Smith normal form.  After pass i, tors[i] divides every later
            # entry, so the list ends as an ascending chain with any 1s at
            # its front.
            for i in range(len(tors)):
                for j in range(i + 1, len(tors)):
                    g = gcd(tors[i], tors[j])
                    tors[i], tors[j] = g, tors[i] // g * tors[j]
            tors = [x for x in tors if x != 1]
        return cls.trusted(tuple(tors) + (0,) * orders.count(0))

    @property
    def free_rank(self) -> int:
        return self.factors.count(0)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite group has no order")
        return prod(self.factors)

    # -- element arithmetic (elements are reduced coordinate tuples) --

    def element(self, coords: Sequence[int]) -> GroupElement:
        if len(coords) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} coordinates, got {len(coords)}"
            )
        return tuple(
            c % d if d else c for c, d in zip(coords, self.factors)
        )

    def __str__(self) -> str:
        if not self.factors:
            return "trivial"
        return " x ".join("Z" if x == 0 else f"Z/{x}" for x in self.factors)


def integer_nth_root(x: int, n: int) -> int | None:
    """Exact n-th root of a non-negative integer, or None if not a power.

    A root under 53 bits, which a double holds exactly, is rounded from a
    floating-point estimate and confirmed with one power.  Otherwise, or if
    that check fails, Newton's iteration runs from above, started at the
    estimate, so the cost is a few powers of x's size even when x has
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
    if root_bits < 53:
        y = round(2.0**root_bits)
        if y**n == x:
            return y
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


# The primes up to isqrt(MAX_BOUND), so every n <= MAX_BOUND is decided.
# Sieved by the first primality test, not at import, since most commands
# test none; a plain list, not a memo cache, so that clearing the package's
# caches does not make the next test sieve again.
_SMALL_PRIMES: list[int] = []


def check_bound(bound: int, what: str) -> None:
    """Refuse a bound above MAX_BOUND before anything is allocated.

    The prime sieve and the zeta coefficients allocate one slot per integer
    up to their bound.
    """
    if bound > MAX_BOUND:
        raise LimitExceeded(
            f"{what} {brief(bound)} exceeds the limit {MAX_BOUND}: it allocates "
            "one slot per integer up to the bound"
        )


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
    if n > 1:  # a prime above every d tried
        out[n] = 1
    return out


def _least_prime_factor(n: int) -> int:
    """Least prime factor of n >= 2; LimitExceeded if it is not in the table."""
    if not _SMALL_PRIMES:
        _SMALL_PRIMES[:] = primes_up_to(isqrt(MAX_BOUND))  # one store: a racing fill is equal
    for p in _SMALL_PRIMES:
        if p * p > n:
            return n
        if n % p == 0:
            return p
    if n > MAX_BOUND:
        raise LimitExceeded(
            f"cannot certify primality of {brief(n)}: it is above {MAX_BOUND} "
            f"and has no prime factor up to {_SMALL_PRIMES[-1]}"
        )
    return n


def is_prime(n: int) -> bool:
    """Exact primality test; raises LimitExceeded when it cannot be.

    >>> [q for q in range(20) if is_prime(q)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    >>> is_prime(2**31 - 1)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    classrecon.errors.LimitExceeded: cannot certify primality of 2147483647: ...
    """
    return n >= 2 and _least_prime_factor(n) == n


def is_prime_power(n: int) -> bool:
    """Whether n = p**k for a prime p and k >= 1, decided exactly.

    p is the least prime factor, found and refused as in `is_prime`.  If
    n = p**k, then k = log2(n) / log2(p), and the floating-point quotient
    is off by far less than 1/2 for any n a bundle can hold, so one power
    p**k, rounded to that k, decides it.  A power of a small prime, such as
    3**10000, costs a few multiplications of its size, not k divisions.

    >>> [q for q in range(20) if is_prime_power(q)]
    [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    """
    if n < 2:
        return False
    p = _least_prime_factor(n)
    return p ** round(log2(n) / log2(p)) == n
