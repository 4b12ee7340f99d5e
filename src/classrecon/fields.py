"""Arithmetic ground truth for imaginary quadratic fields, plus synthetic data.

The class group of a negative fundamental discriminant is realized on the
reduced positive definite binary quadratic forms under composition; prime
splitting comes from the Kronecker symbol; the ideal class of a prime above
q is the class of a form with leading coefficient q.  Synthetic field
specifications carry an arbitrary finite abelian group and a free-form
prime stream, so class groups outside quadratic reach enter the test matrix.

The composition table is verified against the group axioms by the test
suite rather than trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .abgroup import (
    FinGenAbGroup,
    GroupElement,
    factorize,
    is_prime,
    is_prime_power,
    primes_up_to,
    subgroup_index,
    xgcd,
)
from .lattice import ClassGroupModel, InternalContradiction, PrimeIdealDatum


class InvalidDiscriminant(ValueError):
    """Discriminant is not negative and fundamental."""


class InvalidSyntheticSpec(ValueError):
    """A synthetic field spec is malformed or inconsistent."""


class NonPrimePowerNorm(InvalidSyntheticSpec):
    """A synthetic prime datum has a norm that is not a prime power."""


class OddNormClassesDoNotGenerate(InvalidSyntheticSpec):
    """The odd-norm classes of a synthetic spec fail to generate the group."""


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the quadratic character of discriminant a.

    Extends the Jacobi symbol to even and negative lower arguments with the
    standard conventions, in particular (a|2) = 0, 1, -1 according to
    a mod 8 in {even}, {1, 7}, {3, 5}.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        twos = 0
        while n % 2 == 0:
            n //= 2
            twos += 1
        if twos % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_fundamental_discriminant(d: int) -> bool:
    if d >= 0 or d % 4 not in (0, 1):
        return False
    if d % 4 == 1:
        return _squarefree(d)
    m = d // 4
    return _squarefree(m) and m % 4 in (2, 3)


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(abs(n)).values())


def _check_discriminant(d: int) -> None:
    if not is_fundamental_discriminant(d):
        raise InvalidDiscriminant(
            f"{d} is not a negative fundamental discriminant"
        )


@dataclass(frozen=True, order=True)
class QuadraticForm:
    """Positive definite integral binary quadratic form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.discriminant >= 0:
            raise ValueError(f"form {self.triple} is not positive definite")

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.triple
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def reduced(self) -> QuadraticForm:
        a, b, c = self.triple
        d = self.discriminant
        while True:
            if a > c:
                a, b, c = c, -b, a
                continue
            if b > a or b <= -a:
                r = b % (2 * a)
                if r > a:
                    r -= 2 * a
                b, c = r, (r * r - d) // (4 * a)
                continue
            if a == c and b < 0:
                b = -b
            return QuadraticForm(a, b, c)

    def opposite(self) -> QuadraticForm:
        """Inverse class: the reduced form of (a, -b, c)."""
        return QuadraticForm(self.a, -self.b, self.c).reduced()

    def compose(self, other: QuadraticForm) -> QuadraticForm:
        """Composition of form classes (united-forms algorithm), reduced."""
        d = self.discriminant
        if other.discriminant != d:
            raise ValueError("cannot compose forms of different discriminants")
        a1, b1, c1 = self.triple
        a2, b2, c2 = other.triple
        s = (b1 + b2) // 2
        n = (b2 - b1) // 2
        w = gcd(gcd(a1, a2), s)
        t1, t2, u = a1 // w, a2 // w, s // w
        mod1 = t1 * t2
        mu, step = _solve_congruence(t2 * u, n * u + t1 * c1, mod1)
        if t1 == 1:
            lam = 0
        else:
            lam, _ = _solve_congruence(t2 * step, n - t2 * mu, t1)
        k = mu + step * lam
        ell, rem1 = divmod(k * t2 - n, t1)
        m, rem2 = divmod(t2 * u * k - n * u - c1 * t1, t1 * t2)
        if rem1 or rem2:
            raise InternalContradiction("united-forms composition left a remainder")
        a3 = t1 * t2
        b3 = w * u - (k * t2 + ell * t1)
        c3 = k * ell - w * m
        return QuadraticForm(a3, b3, c3).reduced()


def _solve_congruence(a: int, b: int, m: int) -> tuple[int, int]:
    """Solve a*x = b (mod m); return (x0, step) describing all solutions."""
    if m == 1:
        return 0, 1
    a %= m
    g, inv, _ = xgcd(a, m)
    if b % g:
        raise InternalContradiction(f"{a}*x = {b} (mod {m}) has no solution")
    step = m // g
    return ((b // g) * inv) % step, step


def principal_form(d: int) -> QuadraticForm:
    _check_discriminant(d)
    if d % 2 == 0:
        return QuadraticForm(1, 0, -d // 4)
    return QuadraticForm(1, 1, (1 - d) // 4)


def reduced_forms(d: int) -> list[QuadraticForm]:
    """All reduced forms of a negative fundamental discriminant, sorted."""
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


@dataclass(frozen=True)
class _DiscriminantData:
    forms: tuple[QuadraticForm, ...]
    model: ClassGroupModel
    form_class: tuple[GroupElement, ...]  # class coordinates per form


def _scalar_multiples(
    compose_idx: list[list[int]], x: int, identity: int, count: int
) -> list[int]:
    """[0*x, 1*x, ..., (count-1)*x] under the composition table."""
    out = [identity]
    for _ in range(count - 1):
        out.append(compose_idx[out[-1]][x])
    return out


def _table_closure(compose_idx: list[list[int]], seed: set[int], x: int) -> set[int]:
    seen = set(seed)
    frontier = list(seen)
    while frontier:
        nxt = []
        for i in frontier:
            j = compose_idx[i][x]
            if j not in seen:
                seen.add(j)
                nxt.append(j)
        frontier = nxt
    # close under the seed as well (seed is already a subgroup in our uses)
    return seen


def _structure_from_table(
    compose_idx: list[list[int]], identity: int
) -> FinGenAbGroup:
    """Isomorphism type of a finite abelian group given by its table.

    Works from order statistics: the count of solutions of p^k * x = identity
    is p raised to sum_i min(k, e_i) over the p-primary exponents e_i, so the
    successive count ratios give the conjugate partition of the exponents.
    """
    h = len(compose_idx)
    divisors: list[int] = []
    for p in sorted(factorize(h)):
        sylow = 1
        m = h
        while m % p == 0:
            m //= p
            sylow *= p
        counts = [1]
        cur = list(range(h))  # cur[i] = p^k * i, starting at k = 0
        while counts[-1] != sylow:
            if len(counts) > sylow.bit_length() + 1:
                raise InternalContradiction("order statistics do not converge")
            for i in range(h):
                base = cur[i]
                y = base
                for _ in range(p - 1):
                    y = compose_idx[y][base]
                cur[i] = y
            counts.append(sum(1 for x in cur if x == identity))
        at_least = []  # at_least[k-1] = number of cyclic p-factors with exponent >= k
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


def _find_basis(
    compose_idx: list[list[int]],
    identity: int,
    orders: list[int],
    targets_desc: list[int],
) -> list[int] | None:
    """Backtracking search for table elements forming an independent basis."""

    def extend(basis: list[int], sub: set[int]) -> list[int] | None:
        if len(basis) == len(targets_desc):
            return basis
        target = targets_desc[len(basis)]
        needed = len(sub) * target
        for x in range(len(compose_idx)):
            if orders[x] != target:
                continue
            new_sub = _table_closure(compose_idx, sub, x)
            if len(new_sub) == needed:
                found = extend(basis + [x], new_sub)
                if found is not None:
                    return found
        return None

    return extend([], {identity})


@lru_cache(maxsize=None)
def _discriminant_data(d: int) -> _DiscriminantData:
    forms = reduced_forms(d)
    h = len(forms)
    index = {f: i for i, f in enumerate(forms)}
    compose_idx = [
        [index[forms[i].compose(forms[j])] for j in range(h)] for i in range(h)
    ]
    identity = index[principal_form(d).reduced()]
    orders = []
    for i in range(h):
        y, n = i, 1
        while y != identity:
            y = compose_idx[y][i]
            n += 1
        orders.append(n)
    group = _structure_from_table(compose_idx, identity)
    targets_desc = sorted(group.factors, reverse=True)
    basis = _find_basis(compose_idx, identity, orders, targets_desc)
    if basis is None:
        raise InternalContradiction(
            f"no independent basis found for the form class group of {d}"
        )
    multiples = [
        _scalar_multiples(compose_idx, b, identity, t)
        for b, t in zip(basis, targets_desc)
    ]
    coords_of: dict[int, tuple[int, ...]] = {}
    for combo in itertools.product(*(range(t) for t in targets_desc)):
        elem = identity
        for mults, r in zip(multiples, combo):
            elem = compose_idx[elem][mults[r]]
        coords_of[elem] = combo
    if len(coords_of) != h:
        raise InternalContradiction("basis does not enumerate the form classes")
    model = ClassGroupModel.from_group(group)
    # Coordinates were built against descending factors; canonical order is
    # ascending, so reverse each tuple.
    form_class = tuple(
        model.group.element(tuple(reversed(coords_of[i]))) for i in range(h)
    )
    return _DiscriminantData(forms=tuple(forms), model=model, form_class=form_class)


def class_group_of_discriminant(d: int) -> ClassGroupModel:
    """Class group of a negative fundamental discriminant, as a model."""
    return _discriminant_data(d).model


@dataclass(frozen=True)
class Splitting:
    """How a rational prime decomposes: kind, per-ideal norm, ideal count."""

    kind: str  # "split" | "inert" | "ramified"
    norm: int
    prime_count: int


def kronecker_splitting(d: int, q: int) -> Splitting:
    """Splitting of the rational prime q in the field of discriminant d."""
    _check_discriminant(d)
    if d % q == 0:
        return Splitting("ramified", q, 1)
    symbol = kronecker_symbol(d, q)
    if symbol == 1:
        return Splitting("split", q, 2)
    if symbol == -1:
        return Splitting("inert", q * q, 1)
    raise InternalContradiction(f"symbol ({d}|{q}) = 0 for unramified {q}")


def prime_form(d: int, q: int) -> QuadraticForm:
    """The form (q, b, c) of discriminant d with the smallest b in [0, 2q)."""
    split = kronecker_splitting(d, q)
    if split.kind == "inert":
        raise ValueError(f"{q} is inert in discriminant {d}; no form with a = {q}")
    for b in range(2 * q):
        num = b * b - d
        if num % (4 * q) == 0:
            form = QuadraticForm(q, b, num // (4 * q))
            if gcd(gcd(form.a, form.b), form.c) != 1:
                raise InternalContradiction(f"imprimitive prime form for ({d}, {q})")
            return form
    raise InternalContradiction(f"no prime form found for ({d}, {q})")


def ideal_class_of_prime(d: int, q: int) -> GroupElement:
    """Class of the canonical prime ideal above a non-inert rational prime."""
    data = _discriminant_data(d)
    reduced = prime_form(d, q).reduced()
    return data.form_class[data.forms.index(reduced)]


@dataclass(frozen=True)
class QuadraticSpec:
    """An imaginary quadratic field, given by its fundamental discriminant."""

    discriminant: int

    def __post_init__(self) -> None:
        _check_discriminant(self.discriminant)


@dataclass(frozen=True)
class SyntheticSpec:
    """A free-form field stand-in: a finite class group and a prime stream."""

    factors: tuple[int, ...]
    primes: tuple[PrimeIdealDatum, ...]


FieldSpec = QuadraticSpec | SyntheticSpec


def validate_synthetic(spec: SyntheticSpec) -> SyntheticSpec:
    """Check a synthetic spec; every failure is an InvalidSyntheticSpec.

    The factors must be canonical and finite, each norm a prime power over
    a prime residue characteristic, and the odd-norm classes must generate.
    """
    try:
        group = FinGenAbGroup(spec.factors)  # must already be canonical
    except ValueError as exc:
        raise InvalidSyntheticSpec(f"invariant factors: {exc}") from None
    if not group.is_finite:
        raise InvalidSyntheticSpec("synthetic class group must be finite")
    labels = [p.label for p in spec.primes]
    if len(set(labels)) != len(labels):
        raise InvalidSyntheticSpec("duplicate prime labels in synthetic spec")
    for p in spec.primes:
        if not is_prime_power(p.norm):
            raise NonPrimePowerNorm(f"norm {p.norm} of {p.label} is not a prime power")
        if not is_prime(p.residue_char):
            raise InvalidSyntheticSpec(
                f"residue characteristic {p.residue_char} of {p.label} is not a prime"
            )
        try:
            group.element(p.cls)
        except ValueError as exc:
            raise InvalidSyntheticSpec(f"class of {p.label}: {exc}") from None
    odd_classes = [group.element(p.cls) for p in spec.primes if p.has_odd_norm]
    if subgroup_index(group, odd_classes) != 1:
        raise OddNormClassesDoNotGenerate(
            "classes of the odd-norm primes do not generate the class group"
        )
    return spec


def class_group_model(spec: FieldSpec) -> ClassGroupModel:
    if isinstance(spec, QuadraticSpec):
        return class_group_of_discriminant(spec.discriminant)
    return ClassGroupModel.from_group(FinGenAbGroup(spec.factors))


def enumerate_prime_ideals(spec: FieldSpec, bound: int) -> list[PrimeIdealDatum]:
    """Every prime ideal of norm <= bound, one datum per ideal.

    Split rational primes contribute two data with mutually inverse classes;
    inert primes contribute one principal datum of norm q**2; ramified
    primes contribute one datum.  Completeness below the bound is exactly
    the contract the zeta truncation relies on.
    """
    if isinstance(spec, SyntheticSpec):
        return [p for p in spec.primes if p.norm <= bound]
    d = spec.discriminant
    data = _discriminant_data(d)
    model = data.model
    out: list[PrimeIdealDatum] = []
    for q in primes_up_to(bound):
        split = kronecker_splitting(d, q)
        if split.norm > bound:
            continue
        if split.kind == "inert":
            out.append(
                PrimeIdealDatum(
                    label=f"p_{q}", norm=split.norm, cls=model.group.zero(), residue_char=q
                )
            )
            continue
        cls = ideal_class_of_prime(d, q)
        out.append(
            PrimeIdealDatum(label=f"p_{q}", norm=split.norm, cls=cls, residue_char=q)
        )
        if split.kind == "split":
            inverse = model.group.neg(cls)
            out.append(
                PrimeIdealDatum(
                    label=f"p_{q}c", norm=split.norm, cls=inverse, residue_char=q
                )
            )
    return out


def reduced_forms_of_spec(spec: FieldSpec) -> list[QuadraticForm] | None:
    """Reduced forms for quadratic specs; None for synthetic ones."""
    if isinstance(spec, QuadraticSpec):
        return list(_discriminant_data(spec.discriminant).forms)
    return None
