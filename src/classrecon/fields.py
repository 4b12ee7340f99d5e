"""Arithmetic ground truth for imaginary quadratic fields, plus synthetic data.

The class group of a negative fundamental discriminant is realized on the
reduced positive definite binary quadratic forms under composition; prime
splitting comes from the Kronecker symbol; the ideal class of a prime above
q is the class of a form with leading coefficient q.  Synthetic field
specifications carry an arbitrary finite abelian group and a free-form
prime stream, so class groups outside quadratic reach enter the test matrix.

The class group is built by subgroup extension: walking the sorted forms,
each one outside the subgroup covered so far becomes a generator, its least
multiple inside that subgroup gives one relation, and its cosets are
covered by translation.  That takes fewer than 2h compositions, never an
h^2 table, and no GRH bound, since every reduced form is enumerated.  The
Smith normal form of the small relation matrix gives the structure and each
form's class.  The tests certify the build against raw composition: the
orders of the forms match the group's, and the map from forms to classes is
a bijective homomorphism.  `class_group` returns the group as a plain
`FinGenAbGroup`, which is all the runtime needs; `class_group_model` wraps
it in the enumerating `ClassGroupModel` for the certifiers and the tests.
Quadratic specs with |D| above MAX_DISCRIMINANT are refused before any
work, since form enumeration is linear in |D|; prime bounds above
MAX_BOUND and synthetic groups of order above MAX_SYNTHETIC_ORDER are
refused the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .abgroup import (
    FinGenAbGroup,
    GroupElement,
    brief,
    cokernel_of_columns,
    factorize,
    is_prime,
    is_prime_power,
    primes_up_to,
    subgroup_index,
    xgcd,
)
from .lattice import (
    ClassGroupModel,
    InternalContradiction,
    LimitExceeded,
    PrimeIdealDatum,
)


# Every quadratic spec enumerates its reduced forms, about |D|/3 loop steps:
# about 6 s at this limit in CPython 3.11 on a 2-core x86-64 machine.  A
# larger |D| is refused before any work, including the squarefree test.
MAX_DISCRIMINANT = 10**8

# The prime sieve and the zeta coefficients allocate one slot per integer up
# to their bound (about 0.6 s for the sieve alone at this limit).  A larger
# prime, comparison or zeta bound is refused before any work.
MAX_BOUND = 10**7

# A bundle lists h factors in its empty-set entry and one factor per coset
# in every other entry, so its size grows with the class group order h:
# `invariants --synthetic` on Z/100000 writes 1.4 MB.  A synthetic group of
# larger order is refused before any quotient is computed.
MAX_SYNTHETIC_ORDER = 10**5

# The fourth limit, on the bit size of a quotient order, is
# `lattice.MAX_QUOTIENT_BITS`, checked where quotients are computed.


class InvalidDiscriminant(ValueError):
    """Discriminant is not negative and fundamental."""


class DiscriminantTooLarge(Exception):
    """|D| exceeds MAX_DISCRIMINANT, beyond which form enumeration is refused."""


def check_bound(bound: int, what: str) -> None:
    """Refuse a bound above MAX_BOUND before anything is allocated."""
    if bound > MAX_BOUND:
        raise LimitExceeded(
            f"{what} {brief(bound)} exceeds the limit {MAX_BOUND}: it allocates "
            "one slot per integer up to the bound"
        )


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
    if d < -MAX_DISCRIMINANT:
        raise DiscriminantTooLarge(
            f"|D| = {-d} exceeds the limit {MAX_DISCRIMINANT}: enumerating "
            "the reduced forms costs time linear in |D|"
        )
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
    index: dict[QuadraticForm, int]  # position of each form in `forms`
    group: FinGenAbGroup
    form_class: tuple[GroupElement, ...]  # class coordinates per form


@lru_cache(maxsize=None)
def _discriminant_data(d: int) -> _DiscriminantData:
    """The form class group, built by subgroup extension in O(h) compositions.

    Walks the reduced forms in sorted order, keeping the coordinates of the
    covered subgroup H over the generators found so far.  A form x outside
    H becomes the next generator: its least multiple k*x in H gives the
    relation k*e_x - coords(k*x), and the cosets H + j*x for 0 < j < k are
    covered by translating H.  That takes fewer than 2h compositions.  The
    relations form a triangular matrix of determinant h on at most log2(h)
    generators; its Smith normal form gives the group and the image of each
    generator, and each form's class is the sum its coordinates name.
    """
    forms = reduced_forms(d)
    h = len(forms)
    index = {f: i for i, f in enumerate(forms)}
    coords: dict[int, tuple[int, ...]] = {index[principal_form(d)]: ()}
    relations: list[tuple[int, tuple[int, ...]]] = []  # (k, coords of k*x)
    for x, gen in enumerate(forms):
        if x in coords:
            continue
        r = len(relations)
        subgroup = [(forms[i], c + (0,) * (r - len(c))) for i, c in coords.items()]
        in_subgroup = set(coords)
        multiple, k = gen, 1
        while index[multiple] not in in_subgroup:
            for form, c in subgroup:
                y = index[form.compose(multiple)]
                if y in coords:
                    raise InternalContradiction(
                        f"translates of a form subgroup overlap for {d}"
                    )
                coords[y] = c + (k,)
            multiple, k = multiple.compose(gen), k + 1
        relations.append((k, coords[index[multiple]]))
    if len(coords) != h:
        raise InternalContradiction(f"subgroup extension missed forms of {d}")
    n = len(relations)
    columns = []
    for r, (k, c) in enumerate(relations):
        col = [-v for v in c] + [0] * (n - len(c))
        col[r] += k
        columns.append(col)
    group, images = cokernel_of_columns(n, columns)
    if group.order() != h:
        raise InternalContradiction(
            f"relation lattice of {d} has index {group.order()}, not {h}"
        )
    rank = len(group.factors)
    form_class = tuple(
        group.element(
            [sum(v * img[t] for v, img in zip(coords[i], images)) for t in range(rank)]
        )
        for i in range(h)
    )
    if len(set(form_class)) != h:
        raise InternalContradiction(f"form classes of {d} are not a bijection")
    return _DiscriminantData(
        forms=tuple(forms),
        index=index,
        group=group,
        form_class=form_class,
    )


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
    return data.form_class[data.index[prime_form(d, q).reduced()]]


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
    A group of order above MAX_SYNTHETIC_ORDER raises LimitExceeded.
    """
    try:
        group = FinGenAbGroup(spec.factors)  # must already be canonical
    except ValueError as exc:
        raise InvalidSyntheticSpec(f"invariant factors: {exc}") from None
    if not group.is_finite:
        raise InvalidSyntheticSpec("synthetic class group must be finite")
    if group.order() > MAX_SYNTHETIC_ORDER:
        raise LimitExceeded(
            f"synthetic class group order {group.order()} exceeds the limit "
            f"{MAX_SYNTHETIC_ORDER}: every bundle entry lists up to that many factors"
        )
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


def class_group(spec: FieldSpec) -> FinGenAbGroup:
    """The class group of a field spec, with no element enumerated."""
    if isinstance(spec, QuadraticSpec):
        return _discriminant_data(spec.discriminant).group
    return FinGenAbGroup(spec.factors)


def class_group_model(spec: FieldSpec) -> ClassGroupModel:
    """The class group with every element enumerated, for the certifiers."""
    return ClassGroupModel(class_group(spec))


def enumerate_prime_ideals(spec: FieldSpec, bound: int) -> list[PrimeIdealDatum]:
    """Every prime ideal of norm <= bound, one datum per ideal.

    Split rational primes contribute two data with mutually inverse classes;
    inert primes contribute one principal datum of norm q**2; ramified
    primes contribute one datum.  Completeness below the bound is exactly
    the contract the zeta truncation relies on.
    """
    check_bound(bound, "prime norm bound")
    if isinstance(spec, SyntheticSpec):
        return [p for p in spec.primes if p.norm <= bound]
    d = spec.discriminant
    group = _discriminant_data(d).group
    out: list[PrimeIdealDatum] = []
    for q in primes_up_to(bound):
        split = kronecker_splitting(d, q)
        if split.norm > bound:
            continue
        if split.kind == "inert":
            out.append(
                PrimeIdealDatum(
                    label=f"p_{q}", norm=split.norm, cls=group.zero(), residue_char=q
                )
            )
            continue
        cls = ideal_class_of_prime(d, q)
        out.append(
            PrimeIdealDatum(label=f"p_{q}", norm=split.norm, cls=cls, residue_char=q)
        )
        if split.kind == "split":
            inverse = group.neg(cls)
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
