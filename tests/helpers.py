"""Shared builders for the test suite: random groups, primes, synthetic specs."""

from __future__ import annotations

import random

from sympy import primefactors

from classrecon.abgroup import FinGenAbGroup, IntMatrix, subgroup_index
from classrecon.fields import SyntheticSpec
from classrecon.lattice import ClassGroupModel, PrimeIdealDatum

ODD_PRIME_POWERS = [
    3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
    53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101,
]


def z2_model() -> ClassGroupModel:
    return ClassGroupModel(FinGenAbGroup.from_orders([2]))


def matrix_product(*factors: IntMatrix) -> IntMatrix:
    """The product of non-empty integer matrices, left to right."""
    rows = factors[0].entries
    for m in factors[1:]:
        assert len(rows[0]) == m.nrows, "dimension mismatch in matrix product"
        rows = tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*m.entries))
            for row in rows
        )
    return IntMatrix(rows)


def datum(label: str, norm: int, cls: tuple[int, ...], char: int | None = None) -> PrimeIdealDatum:
    if char is None:
        char = min(primefactors(norm))
    return PrimeIdealDatum(label=label, norm=norm, cls=cls, residue_char=char)


def random_finite_group(
    rng: random.Random,
    max_order: int = 512,
    max_factors: int = 4,
    min_order: int = 2,
) -> FinGenAbGroup:
    """Random nontrivial finite group with a bounded invariant-factor chain."""
    while True:
        k = rng.randint(1, max_factors)
        factors = []
        d = 1
        for _ in range(k):
            d *= rng.choice([2, 2, 2, 3, 3, 4, 5, 6, 7, 8, 9])
            factors.append(d)
        order = 1
        for f in factors:
            order *= f
        if min_order <= order <= max_order:
            return FinGenAbGroup.from_orders(factors)


def random_generating_family(
    rng: random.Random, group: FinGenAbGroup, size: int
) -> list[tuple[int, ...]]:
    """A family of `size` elements whose classes generate the group."""
    size = max(size, len(group.factors))
    for _ in range(50):
        family = [
            group.element([rng.randrange(d) for d in group.factors])
            for _ in range(size)
        ]
        if subgroup_index(group, family) == 1:
            return family
    # fall back: basis vectors hidden among random elements
    basis = [
        group.element([1 if i == j else 0 for j in range(len(group.factors))])
        for i in range(len(group.factors))
    ]
    extra = [
        group.element([rng.randrange(d) for d in group.factors])
        for _ in range(max(0, size - len(basis)))
    ]
    family = basis + extra
    rng.shuffle(family)
    return family


def random_synthetic_spec(
    rng: random.Random, max_order: int = 16, extra_primes: int = 3, min_order: int = 2
) -> SyntheticSpec:
    """Synthetic spec with at least #Cl + extra odd-norm generating primes."""
    group = random_finite_group(
        rng, max_order=max_order, max_factors=3, min_order=min_order
    )
    count = group.order() + extra_primes
    family = random_generating_family(rng, group, count)
    norms = rng.sample(ODD_PRIME_POWERS, len(family))
    primes = tuple(
        datum(f"s{i}", n, cls) for i, (n, cls) in enumerate(zip(norms, family))
    )
    return SyntheticSpec(factors=group.factors, primes=primes)


def cycle_matrix_columns(norms: list[int], modulus: int) -> list[tuple[int, ...]]:
    """Integer relation columns realizing the cycle endomorphism over Z/modulus.

    Column k is e_k - N_{k+1} * e_{(k+1) mod n}; when the modulus is positive,
    the columns modulus * e_i are appended so the integer cokernel equals the
    cokernel over Z/modulus.
    """
    n = len(norms)
    cols = []
    for k in range(n):
        col = [0] * n
        col[k] += 1
        col[(k + 1) % n] -= norms[k]
        cols.append(tuple(col))
    if modulus:
        for i in range(n):
            col = [0] * n
            col[i] = modulus
            cols.append(tuple(col))
    return cols
