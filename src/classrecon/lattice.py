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
column echelon over Z with at most log2 #Cl rows, and no group element is
enumerated.  The seam splits in two: `prime_terms` computes each prime's
class coordinates, ord[p] and N(p)**ord[p] - 1, and `quotient_from_terms`
combines the terms of a set.  A bundle computes the terms once per prime
and reuses them for every entry it produces.  Two independent routes in
`oracle` certify the formula in the tests: the brute-force Smith normal
form (SNF) of the whole sublattice, `oracle.lattice_quotient`, and the
paper's induction over F.  Only they enumerate group elements.
"""

from __future__ import annotations

from math import gcd, lcm, log2
from typing import NamedTuple, Sequence

from .abgroup import (
    FinGenAbGroup,
    GroupElement,
    SlotRecord,
    brief,
    index_and_relations,
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


class PrimeIdealDatum(SlotRecord):
    """One prime ideal: a label, its norm, its ideal class, its residue prime.

    The norm must be a power of the residue characteristic.
    """

    __slots__ = ("label", "norm", "cls", "residue_char")

    def __init__(
        self, label: str, norm: int, cls: GroupElement, residue_char: int
    ) -> None:
        if residue_char < 2:
            raise ValueError("residue characteristic must be a prime >= 2")
        n = norm
        if n < 2:
            raise ValueError("norm must be at least 2")
        while n % residue_char == 0:
            n //= residue_char
        if n != 1:
            raise ValueError(f"norm {norm} is not a power of {residue_char}")
        self.label, self.norm, self.cls, self.residue_char = label, norm, cls, residue_char

    @property
    def has_odd_norm(self) -> bool:
        return self.norm % 2 == 1


class PrimeTerms(NamedTuple):
    """One prime's share of every quotient whose set F contains it.

    `coords` are the reduced class coordinates, `order` is ord[p], the order
    of the class, and `power` is N(p)**ord[p] - 1.  `prime_terms` computes
    them; a bundle computes them once per prime and every entry reuses them.
    """

    coords: GroupElement
    order: int
    norm: int
    power: int


def prime_terms(
    group: FinGenAbGroup, primes: list[PrimeIdealDatum] | tuple[PrimeIdealDatum, ...]
) -> list[PrimeTerms]:
    """The terms of each prime, in order, with every size checked first.

    With d_i the invariant factors and x the coordinates of a class, ord[p]
    is the lcm of d_i / gcd(d_i, x_i).  A prime whose N(p)**ord[p] would
    exceed MAX_QUOTIENT_BITS raises LimitExceeded before any power is taken.
    """
    coords = [group.element(p.cls) for p in primes]
    factors = group.factors
    orders = [lcm(*(d // gcd(d, x) for d, x in zip(factors, c))) for c in coords]
    for p, o in zip(primes, orders):
        bits = o * log2(p.norm)
        if bits > MAX_QUOTIENT_BITS:
            raise LimitExceeded(
                f"the quotient for {p.label} needs {p.norm}**{o} - 1, about "
                f"{bits:.0f} bits, above the limit {MAX_QUOTIENT_BITS} bits"
            )
    return [
        PrimeTerms(coords=c, order=o, norm=p.norm, power=p.norm**o - 1)
        for p, c, o in zip(primes, coords, orders)
    ]


def quotient_from_terms(
    group: FinGenAbGroup, terms: Sequence[PrimeTerms]
) -> FinGenAbGroup:
    """The quotient attached to the primes with these terms; see `quotient_group`."""
    h = group.order()
    if not terms:
        return FinGenAbGroup.free(h)
    if len(terms) == 1:  # the relations are the multiples of ord[p]
        index, relations = h // terms[0].order, []
    else:
        factors = group.factors
        index, relations = index_and_relations([t.coords for t in terms], factors)
        if index == 0:
            raise InternalContradiction(
                f"relation matrix of {factors} has rank below {len(factors)}"
            )
    if h % index:
        raise InternalContradiction(f"subgroup index {index} does not divide {h}")
    m = 0
    for t in terms:
        m = gcd(m, t.power)
    for k in relations:
        x = 1
        for t, e in zip(terms, k):
            x = x * pow(t.norm, e % t.order, m) % m
        m = gcd(m, x - 1)
    if all(t.norm % 2 for t in terms) and (m <= 0 or m % 2):
        raise InternalContradiction(
            f"quotient order {brief(m)} of an odd-norm set is not even positive"
        )
    return FinGenAbGroup.from_orders([m] * index)


def quotient_group(
    group: FinGenAbGroup, primes: list[PrimeIdealDatum] | tuple[PrimeIdealDatum, ...]
) -> FinGenAbGroup:
    """The quotient attached to F: [Cl : H] copies of Z/m, for every F.

    `group` is the class group Cl.  The empty set gives the free group of
    rank #Cl.  Otherwise the terms of each prime come from `prime_terms`:
    its class coordinates, ord[p] and N(p)**ord[p] - 1.  One column
    echelon of the matrix [class coordinates | diag(d_i)], with d_i the
    invariant factors (`index_and_relations`), gives the index [Cl : H] as
    the product of its pivots and a generating set of the relations
    {k : sum k_p [p] = 0} from its column transform; one prime needs none,
    since its relations are the multiples of ord[p].  Then
    m = gcd(N(p)**ord[p] - 1 over p, prod N(p)**k_p - 1 over the relations
    k), with every exponent reduced modulo ord[p] and every power taken
    modulo the running gcd (`quotient_from_terms`).  A set whose
    N(p)**ord[p] would exceed MAX_QUOTIENT_BITS raises LimitExceeded before
    any power is taken.

    >>> z4 = FinGenAbGroup((4,))
    >>> p = PrimeIdealDatum(label="p", norm=2, cls=(2,), residue_char=2)
    >>> q = PrimeIdealDatum(label="q", norm=3, cls=(1,), residue_char=3)
    >>> str(quotient_group(z4, [p])), str(quotient_group(z4, [p, q]))
    ('Z/3 x Z/3', 'trivial')
    """
    return quotient_from_terms(group, prime_terms(group, primes))
