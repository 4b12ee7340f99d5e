"""The class-group lattice and its quotient invariants.

A finite abelian class group Cl indexes the basis of a free lattice of rank
#Cl.  Each prime-ideal datum p acts on that lattice by permuting the basis
(multiplication by the ideal class of p) and scaling by the norm N(p).  For
a finite set F of prime data, the columns of (I - op_p) over p in F span a
finite-index sublattice; the quotient is the invariant this package studies
and later reconstructs from.

`quotient_group` is the one seam that produces quotients, and one formula
serves every set F, whatever the parities of its norms.  Let H be the
subgroup generated by the classes [p], p in F.  The quotient is Z[Cl]
modulo the ideal generated by the 1 - N(p)[p]; Z[Cl] is free over Z[H] on
coset representatives, and Z[H] modulo that ideal is cyclic.  So the
quotient is [Cl : H] copies of Z/m, where m is the largest modulus on which
[p] -> N(p)^-1 is a character of H.  It takes the class group as a plain
`FinGenAbGroup`: the index and the relations among the [p] come from one
Smith normal form (SNF) with at most log2 #Cl rows, and no group element is
enumerated.  Two independent routes certify the formula in the tests: the
brute-force SNF of the whole sublattice, `lattice_quotient`, and the
paper's induction over F in `oracle`.  Only they need `ClassGroupModel`,
which enumerates every element to index the lattice basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm, log2

from .abgroup import (
    FinGenAbGroup,
    GroupElement,
    IntMatrix,
    brief,
    cokernel_of_columns,
    smith_normal_form,
)

# A quotient of F needs N(p)**ord[p] - 1 for every p in F, an integer of
# about ord[p] * log2 N(p) bits.  Its decimal form is quadratic in that size
# (about 0.1 s at this limit in CPython 3.11), and it goes into the bundle
# file once per coset.  A set above the limit is refused before any power.
MAX_QUOTIENT_BITS = 2**18


class InternalContradiction(Exception):
    """Raised when a structural invariant that should always hold fails.

    Seeing this means a bug in this package, not bad input data.
    """


class LimitExceeded(Exception):
    """An input is above one of the documented size limits.

    The limits are `MAX_QUOTIENT_BITS` here and `MAX_DISCRIMINANT`,
    `MAX_BOUND` and `MAX_SYNTHETIC_ORDER` in `fields`; each is checked
    before the work it bounds starts.
    """


@dataclass(frozen=True)
class ClassGroupModel:
    """A finite abelian group with every element enumerated, for the certifiers.

    Elements are reduced coordinate tuples, enumerated in lexicographic
    order so index 0 is always the identity.  The enumeration indexes the
    basis of the lattice in `sublattice_columns`; the runtime passes the
    plain group and never builds a model.
    """

    group: FinGenAbGroup
    elements: tuple[GroupElement, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        elements = tuple(self.group.all_elements())
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(elements)})

    @property
    def size(self) -> int:
        return len(self.elements)

    def index_of(self, coords: GroupElement) -> int:
        try:
            return self._index[self.group.element(coords)]
        except KeyError:
            raise ValueError(f"{coords} is not an element of this group") from None

    def add(self, i: int, j: int) -> int:
        return self._index[self.group.add(self.elements[i], self.elements[j])]

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


@dataclass(frozen=True)
class PrimeIdealDatum:
    """One prime ideal: a label, its norm, its ideal class, its residue prime.

    The norm must be a power of the residue characteristic.
    """

    label: str
    norm: int
    cls: GroupElement
    residue_char: int

    def __post_init__(self) -> None:
        if self.residue_char < 2:
            raise ValueError("residue characteristic must be a prime >= 2")
        n = self.norm
        if n < 2:
            raise ValueError("norm must be at least 2")
        while n % self.residue_char == 0:
            n //= self.residue_char
        if n != 1:
            raise ValueError(
                f"norm {self.norm} is not a power of {self.residue_char}"
            )

    @property
    def has_odd_norm(self) -> bool:
        return self.norm % 2 == 1


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


def quotient_group(
    group: FinGenAbGroup, primes: list[PrimeIdealDatum] | tuple[PrimeIdealDatum, ...]
) -> FinGenAbGroup:
    """The quotient attached to F: [Cl : H] copies of Z/m, for every F.

    `group` is the class group Cl.  The empty set gives the free group of
    rank #Cl.  Otherwise, with d_i the invariant factors and x the
    coordinates of a class, ord[p] is the lcm of d_i / gcd(d_i, x_i).  One
    SNF of the matrix [class coordinates | diag(d_i)] gives the index
    [Cl : H] as the product of its diagonal and a basis of the relations
    {k : sum k_p [p] = 0} as the kernel columns of V; one prime needs no
    SNF, since its relations are the multiples of ord[p].  Then
    m = gcd(N(p)**ord[p] - 1 over p, prod N(p)**k_p - 1 over the relations
    k), with every exponent reduced modulo ord[p] and every power taken
    modulo the running gcd.  A set whose N(p)**ord[p] would exceed
    MAX_QUOTIENT_BITS raises LimitExceeded before any power is taken.

    >>> z4 = FinGenAbGroup((4,))
    >>> p = PrimeIdealDatum(label="p", norm=2, cls=(2,), residue_char=2)
    >>> q = PrimeIdealDatum(label="q", norm=3, cls=(1,), residue_char=3)
    >>> str(quotient_group(z4, [p])), str(quotient_group(z4, [p, q]))
    ('Z/3 x Z/3', 'trivial')
    """
    h = group.order()
    if not primes:
        return FinGenAbGroup.free(h)
    factors = group.factors
    coords = [group.element(p.cls) for p in primes]
    orders = [lcm(*(d // gcd(d, x) for d, x in zip(factors, c))) for c in coords]
    for p, o in zip(primes, orders):
        bits = o * log2(p.norm)
        if bits > MAX_QUOTIENT_BITS:
            raise LimitExceeded(
                f"the quotient for {p.label} needs {p.norm}**{o} - 1, about "
                f"{bits:.0f} bits, above the limit {MAX_QUOTIENT_BITS} bits"
            )
    index, relations = 1, []
    if len(primes) == 1:  # the relations are the multiples of ord[p]
        index = h // orders[0]
    elif factors:
        r = len(factors)
        diag = [[d if i == j else 0 for i in range(r)] for j, d in enumerate(factors)]
        s, _, v = smith_normal_form(IntMatrix.from_columns(coords + diag))
        pivots = [d for d in s.diagonal() if d]
        if len(pivots) != r:
            raise InternalContradiction(
                f"relation matrix of {factors} has rank {len(pivots)}, not {r}"
            )
        for d in pivots:
            index *= d
        relations = [v.column(j)[: len(primes)] for j in range(r, v.ncols)]
    if h % index:
        raise InternalContradiction(f"subgroup index {index} does not divide {h}")
    m = 0
    for p, o in zip(primes, orders):
        m = gcd(m, p.norm**o - 1)
    for k in relations:
        x = 1
        for p, o, e in zip(primes, orders, k):
            x = x * pow(p.norm, e % o, m) % m
        m = gcd(m, x - 1)
    if all(p.has_odd_norm for p in primes) and (m <= 0 or m % 2):
        raise InternalContradiction(
            f"quotient order {brief(m)} of an odd-norm set is not even positive"
        )
    return FinGenAbGroup.from_orders([m] * index)
