"""The class-group lattice and its quotient invariants.

A finite abelian class group Cl indexes the basis of a free lattice of rank
#Cl.  Each prime-ideal datum p acts on that lattice by permuting the basis
(multiplication by the ideal class of p) and scaling by the norm N(p).  For
a finite set F of prime data, the columns of (I - op_p) over p in F span a
finite-index sublattice; the quotient is the invariant this package studies
and later reconstructs from.

`quotient_group` is the one seam that produces quotients.  It serves the
sets reconstruction asks for from closed forms: the empty set is free, one
prime is `singleton_quotient`, and odd-norm sets follow an induction over F
that reduces every step to the cokernel of a cycle endomorphism
(`predicted_quotient`, `cycle_cokernel`).  Any other set, such as a
mixed-parity one, goes to the brute-force cokernel `lattice_quotient`, a
Smith normal form (SNF).  SNF is also the independent route that tests hold
the closed forms to, in exact agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .abgroup import (
    FinGenAbGroup,
    GroupElement,
    IntMatrix,
    cokernel_of_columns,
    lattice_membership,
)


class InternalContradiction(Exception):
    """Raised when a structural invariant that should always hold fails.

    Seeing this means a bug in this package, not bad input data.
    """


@dataclass(frozen=True)
class ClassGroupModel:
    """A finite abelian group with a fixed element enumeration.

    Elements are reduced coordinate tuples, enumerated in lexicographic
    order so index 0 is always the identity.  The enumeration indexes the
    basis of the associated lattice.
    """

    group: FinGenAbGroup
    elements: tuple[GroupElement, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.group.is_finite:
            raise ValueError("class group model requires a finite group")
        if not self.elements:
            object.__setattr__(self, "elements", tuple(self.group.all_elements()))
        if len(self.elements) != self.group.order():
            raise ValueError("enumeration must list every element exactly once")
        if self.elements[0] != self.group.zero():
            raise ValueError("element 0 must be the identity")
        object.__setattr__(
            self, "_index", {e: i for i, e in enumerate(self.elements)}
        )
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements in enumeration")

    @classmethod
    def from_group(cls, group: FinGenAbGroup) -> ClassGroupModel:
        return cls(group=group)

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

    def translation_perm(self, c: int) -> tuple[int, ...]:
        """Permutation of element indices given by adding element c."""
        return tuple(self.add(i, c) for i in range(self.size))

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


@dataclass(frozen=True)
class ClassLattice:
    """The free lattice whose basis is indexed by the class enumeration."""

    cl: ClassGroupModel

    @property
    def rank(self) -> int:
        return self.cl.size

    def basis_vector(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rank:
            raise ValueError("basis index out of range")
        return tuple(1 if j == i else 0 for j in range(self.rank))


def prime_operator_matrix(cl: ClassGroupModel, p: PrimeIdealDatum) -> IntMatrix:
    """Matrix of the prime's action: basis e_a -> N(p) * e_{[p]+a}."""
    c = cl.index_of(p.cls)
    perm = cl.translation_perm(c)
    n = cl.size
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        rows[perm[a]][a] = p.norm
    return IntMatrix.from_rows(rows)


def sublattice_columns(
    cl: ClassGroupModel, primes: list[PrimeIdealDatum] | tuple[PrimeIdealDatum, ...]
) -> list[tuple[int, ...]]:
    """Generating columns of the sublattice: all columns of I - op_p, p in F."""
    n = cl.size
    cols: list[tuple[int, ...]] = []
    for p in primes:
        m = prime_operator_matrix(cl, p)
        for j in range(n):
            col = m.column(j)
            cols.append(tuple((1 if i == j else 0) - col[i] for i in range(n)))
    return cols


def lattice_quotient(
    cl: ClassGroupModel, primes: list[PrimeIdealDatum] | tuple[PrimeIdealDatum, ...]
) -> tuple[FinGenAbGroup, tuple[GroupElement, ...]]:
    """Brute-force quotient of the lattice by the sublattice attached to F.

    Returns the quotient group and the image of every basis class.
    """
    return cokernel_of_columns(cl.size, sublattice_columns(cl, primes))


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


def quotient_group(
    cl: ClassGroupModel, primes: list[PrimeIdealDatum] | tuple[PrimeIdealDatum, ...]
) -> FinGenAbGroup:
    """The quotient attached to F, by a closed form wherever one applies.

    The route depends only on F: the empty set gives the free group of rank
    #Cl, one prime (of any norm) `singleton_quotient`, and a set of odd
    norms `predicted_quotient`.  Any other set, one that mixes an even norm
    with other primes, falls back to the brute-force `lattice_quotient`.
    """
    if not primes:
        return FinGenAbGroup.free(cl.size)
    if len(primes) == 1:
        return singleton_quotient(cl, primes[0])
    if all(p.has_odd_norm for p in primes):
        return predicted_group(predicted_quotient(cl, primes))
    return lattice_quotient(cl, primes)[0]


def relation_in_sublattice(
    cl: ClassGroupModel,
    primes: list[PrimeIdealDatum] | tuple[PrimeIdealDatum, ...],
    class_a: int,
    multiplier: int,
    class_rep: int,
) -> bool:
    """Check e_a - multiplier * e_rep against the raw sublattice.

    This validates predicted multiplier relations directly by lattice
    membership, independently of the induction that produced them.
    """
    n = cl.size
    v = [0] * n
    v[class_a] += 1
    v[class_rep] -= multiplier
    member, _ = lattice_membership(sublattice_columns(cl, primes), tuple(v))
    return member


def all_predicted_relations(
    cl: ClassGroupModel,
    primes: list[PrimeIdealDatum] | tuple[PrimeIdealDatum, ...],
    pred: PredictedQuotient,
) -> list[tuple[int, int, int]]:
    """(class, multiplier, rep) triples asserted by a prediction."""
    return [
        (a, m, pred.reps[pos]) for a, (pos, m) in sorted(pred.multipliers.items())
    ]

