"""The class group of an imaginary quadratic field, from its reduced forms.

The class group of a negative fundamental discriminant is realized on the
reduced positive definite binary quadratic forms under composition.  A
form a*x^2 + b*x*y + c*y^2 is the plain int triple (a, b, c) throughout,
and its arithmetic has one kernel: `_compose_triples` (the united-forms
algorithm, its congruences solved by `gcd` and a modular inverse) and
`_reduce_triple` (which keeps c by the shift c + k(b + ak), never from the
discriminant).  The tests certify it against Dirichlet composition
(`oracle.dirichlet_compose`) and the group axioms.

The class group is built on triples by subgroup extension: walking the
sorted reduced forms, each one outside the subgroup covered so far becomes
a generator, its least multiple inside that subgroup gives one relation,
and its cosets are covered by translation; the principal form translates
without one.  Inversion is free on reduced forms, (a, b, c) -> (a, -b, c),
so each coset covered by translation also gives its inverse coset.  That
takes (h - 1)/2 compositions for odd h and fewer than h for even h, never
an h^2 table, and no GRH bound, since every reduced form is enumerated.
A Smith normal form of the small relation matrix gives the structure and
each form's class; `_cokernel` computes it with the row transform alone,
since nothing reads the column transform.
The reduced forms come from square roots: for each a <= sqrt(|D|/3), the
b are the roots of b^2 = D (mod 4a), taken from a table of the roots
modulo smaller a (one square root modulo each prime a, CRT for coprime
factors, one Hensel step where the least prime divides a twice, and the
2-adic roots lifted one exponent at a time), about sqrt(|D|) steps
against the |D|/3 of `oracle.naive_reduced_forms`.

That cokernel, the square roots modulo a prime and the least prime factor
table live here, beside their one runtime user; the general Smith normal
form is a certifier in `oracle`.  The prime ideals and synthetic specs
are in `fields`, which imports this module.  This module imports only
`abgroup` and `errors`, and it holds the `classgroup` command's handler,
so `classgroup -D` loads only those three modules besides `cli`.

Quadratic specs with |D| above `errors.MAX_DISCRIMINANT` are refused
before any work, since the class group build grows with h, about
sqrt(|D|).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from operator import mul, neg
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .abgroup import FinGenAbGroup, GroupElement, SlotRecord, factorize, primes_up_to
from .errors import (
    MAX_DISCRIMINANT,
    InternalContradiction,
    InvalidDiscriminant,
    LimitExceeded,
)

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .fields import FieldSpec

# -- exact linear algebra and modular square roots --------------------------

def _cokernel(
    rank: int, columns: Sequence[Sequence[int]]
) -> tuple[FinGenAbGroup, list[list[int]]]:
    """Z^rank modulo the span of the columns, and the map onto it.

    A Smith normal form U A V = S of the matrix A of the columns, by row
    and column reduction with remainders: the entry of least absolute value
    left becomes the pivot, and a row holding an entry it does not divide
    is added to the pivot row.  The rows carry U beside A, so row
    operations act on both; V is never formed.  Returns the group and the
    rows of U whose diagonal entry is not 1, one per invariant factor:
    coordinate t of the image of e_i is row t at i, modulo factor t.
    `oracle.cokernel_of_columns`, the general route, certifies it in the
    tests.
    """
    n = len(columns)
    m = [[c[i] for c in columns] + [int(i == j) for j in range(rank)] for i in range(rank)]
    for t in range(min(rank, n)):
        while entries := [
            (abs(x), i, j) for i in range(t, rank) for j, x in enumerate(m[i][t:n], t) if x
        ]:
            _, i, j = min(entries)
            m[t], m[i] = m[i], m[t]
            for row in m:
                row[t], row[j] = row[j], row[t]
            p = m[t][t]
            for i in range(t + 1, rank):
                if q := m[i][t] // p:
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
            for j in range(t + 1, n):
                if q := m[t][j] // p:
                    for row in m:
                        row[j] -= q * row[t]
            if any(m[t][t + 1 : n]):
                continue  # a remainder left in the pivot row is the next pivot
            rest = [row for row in m[t + 1 :] if any(x % p for x in row[t:n])]
            if not rest:
                break
            m[t] = [x + y for x, y in zip(m[t], rest[0])]
    diag = [abs(m[t][t]) if t < n else 0 for t in range(rank)]
    kept = [t for t, d in enumerate(diag) if d != 1]
    return FinGenAbGroup(tuple(diag[t] for t in kept)), [m[t][n:] for t in kept]


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


# -- quadratic forms and their class group ----------------------------------


def is_fundamental_discriminant(d: int) -> bool:
    """Whether d < 0 is d = 1 (mod 4) squarefree, or 4m with m = 2, 3 (mod 4) squarefree."""
    if d >= 0 or d % 4 not in (0, 1):
        return False
    m = d if d % 4 == 1 else d // 4
    return (m == d or m % 4 in (2, 3)) and max(factorize(-m).values(), default=1) == 1


@lru_cache(maxsize=None)
def _check_discriminant(d: int) -> None:
    """Refuse d unless it is a negative fundamental discriminant within the limit.

    `QuadraticSpec` and `_reduced_triples` (and the oracle's reference
    forms) call this, and the squarefree test factors |D| by trial
    division, so a valid d is checked once and remembered: a call that
    builds a spec and then its reduced forms factors |D| once, not twice.
    A refusal raises and is not remembered.
    """
    if d < -MAX_DISCRIMINANT:
        raise LimitExceeded(
            f"|D| = {-d} exceeds the limit {MAX_DISCRIMINANT}: factoring it and "
            "building its class group grow with sqrt(|D|)"
        )
    if not is_fundamental_discriminant(d):
        raise InvalidDiscriminant(
            f"{d} is not a negative fundamental discriminant"
        )


Triple = tuple[int, int, int]  # the coefficients (a, b, c) of a form


def _reduce_triple(a: int, b: int, c: int) -> Triple:
    """The reduced form of the class of the positive definite form (a, b, c).

    The substitution x -> x + k*y takes (a, b, c) to (a, b + 2ak,
    c + k(b + ak)), and k = floor((a - b) / 2a) brings b into (-a, a];
    while a > c, the swap (a, b, c) -> (c, -b, a) follows.  No step
    recomputes c from the discriminant.
    """
    while True:
        if b > a or b <= -a:
            k = (a - b) // (2 * a)
            c += k * (b + a * k)
            b += 2 * a * k
        if a <= c:
            return (a, -b, c) if a == c and b < 0 else (a, b, c)
        a, b, c = c, -b, a


def _compose_triples(f: Triple, g: Triple) -> Triple:
    """The reduced composition of two forms of one discriminant.

    The united-forms algorithm: with s = (b1 + b2)/2, n = b2 - s and
    w = gcd(a1, a2, s), two linear congruences (`_solve_congruence`) give
    k, and k gives the composite of leading coefficient a1*a2/w^2, never
    using the discriminant.  A remainder in an exact division raises.
    """
    a1, b1, c1 = f
    a2, b2, _ = g
    s = (b1 + b2) // 2
    n = b2 - s
    w = gcd(a1, a2, s)
    t1, t2, u = a1 // w, a2 // w, s // w
    mu, step = _solve_congruence(t2 * u, n * u + t1 * c1, t1 * t2)
    lam, _ = _solve_congruence(t2 * step, n - t2 * mu, t1)
    k = mu + step * lam
    ell, rem1 = divmod(k * t2 - n, t1)
    m, rem2 = divmod(t2 * u * k - n * u - c1 * t1, t1 * t2)
    if rem1 or rem2:
        raise InternalContradiction("united-forms composition left a remainder")
    return _reduce_triple(t1 * t2, w * u - (k * t2 + ell * t1), k * ell - w * m)


def _solve_congruence(a: int, b: int, m: int) -> tuple[int, int]:
    """Solve a*x = b (mod m): the solutions are x0 + step*t, with 0 <= x0 < step."""
    g = gcd(a, m)
    if b % g:
        raise InternalContradiction(f"{a}*x = {b} (mod {m}) has no solution")
    step = m // g
    return (b // g) * pow(a // g, -1, step) % step, step


def _reduced_triples(d: int) -> list[Triple]:
    """The triples of the reduced forms of discriminant d, sorted.

    A reduced form (a, b, c) has a <= sqrt(|d|/3), and b lies in (-a, a]
    with b^2 = d (mod 4a); b and b + 2a give the same c, so the candidates
    for each a are the classes mod 2a of the roots of d modulo 4a.  The
    roots modulo each odd a are kept in (0, a], each built from the roots
    already in the table, with q the least prime factor of a and
    rest = a / q: for a prime (and for a = 1) from one square root modulo
    a, a root 0 kept as a; for q not dividing rest by CRT from the roots
    modulo q and modulo rest; for q dividing rest, none when q divides d,
    since a fundamental d is divisible by no odd prime square, and
    otherwise one Hensel step from each root r modulo rest, to
    r + rest*t with t = ((d - r^2)/rest) / 2r (mod q), since a divides
    rest^2.  For odd a, a parity test takes each root x to the b of the
    parity of d in (-a, a]: x itself, or x - a.  For a = 2^e * m with
    e > 0 and m odd, CRT combines the 2-adic roots (`_two_adic_roots`)
    with the roots modulo m, and each class above a becomes b - 2a.  A
    prime factor of a at which d is a non-residue leaves no roots, hence
    no forms.  The b of each a are sorted in place, and the conditions
    c >= a, and b >= 0 when a = c, then pick the reduced ones.
    """
    _check_discriminant(d)
    top = isqrt(-d // 3)
    spf = smallest_prime_factors(top)
    two_adic = _two_adic_roots(d, top.bit_length())
    odd_roots: list[list[int]] = [[]] * (top + 1)  # each odd a sets its entry before use
    forms = []
    for a in range(1, top + 1):
        if a % 2:
            q = spf[a]
            rest = a // q
            if q == a:  # a prime, or a = 1 with spf[1] = 1; r = 0 when a divides d
                r = sqrt_mod_prime(d, a)
                roots = [] if r is None else [r, a - r] if r else [a]
            elif rest % q:
                roots = _crt(odd_roots[q], q, odd_roots[rest], rest)
            elif d % q:  # q does not divide r, so 2r is invertible modulo q
                roots = [
                    r + rest * ((d - r * r) // rest * pow(2 * r, -1, q) % q)
                    for r in odd_roots[rest]
                ]
            else:  # a fundamental d is divisible by no odd prime square
                roots = []
            odd_roots[a] = roots
            if not roots:
                continue
            bs = [x - a if (x ^ d) & 1 else x for x in roots]
        else:
            e = (a & -a).bit_length() - 1
            m = a >> e
            if not (two_adic[e] and odd_roots[m]):
                continue
            bs = [x - 2 * a if x > a else x for x in _crt(two_adic[e], 2 << e, odd_roots[m], m)]
        bs.sort()
        four_a = 4 * a
        for b in bs:
            c = (b * b - d) // four_a
            if c > a or (c == a and b >= 0):
                forms.append((a, b, c))
    return forms


def _two_adic_roots(d: int, count: int) -> list[list[int]]:
    """Per e < count, every class b mod 2^(e+1) with b^2 = d (mod 2^(e+2)), each once.

    An odd d = 1 (mod 4) has the class 1 for e = 0, and for e >= 1 the
    classes r and -r of a root r of d modulo 2^(e+2) when d = 1 (mod 8),
    none otherwise.  The root r = 1 modulo 8, for e = 1, lifts one exponent
    at a time: for e >= 2, a root r modulo 2^(e+1) gives r or r + 2^e
    modulo 2^(e+2), since (r + 2^e)^2 = r^2 + 2^(e+1) (mod 2^(e+2)) for
    odd r.  An even d = 4n has n = 2 or 3 (mod 4), and b = 2b' needs
    b'^2 = n (mod 2^e): any b' for e = 0, b' = n (mod 2) for e = 1, and
    none above.
    """
    if d % 2:
        lists, r = [[1]], 1
        for e in range(1, count if d % 8 == 1 else 1):
            if (r * r - d) % (4 << e):
                r += 1 << e
            lists.append([r, (2 << e) - r])
    else:
        lists = [[0], [2 * (d // 4 % 2)]]
    return (lists + [[]] * count)[:count]


def _crt(r1: list[int], m1: int, r2: list[int], m2: int) -> list[int]:
    """Every x mod m1*m2 with x in r1 (mod m1) and in r2 (mod m2); gcd(m1, m2) = 1."""
    if not (r1 and r2):
        return []
    inverse = pow(m1, -1, m2)
    return [x + m1 * ((y - x) * inverse % m2) for x in r1 for y in r2]


class _DiscriminantData(NamedTuple):
    """The reduced forms of a discriminant, their positions, the group and their classes."""

    forms: tuple[Triple, ...]
    index: dict[Triple, int]  # position of each form in `forms`
    group: FinGenAbGroup
    form_class: tuple[GroupElement, ...]  # class coordinates per form


@lru_cache(maxsize=None)
def _discriminant_data(d: int) -> _DiscriminantData:
    """The form class group, built by subgroup extension in (h - 1)/2 compositions for odd h.

    Walks the reduced forms in sorted order, keeping in one list, per form
    position, the coordinates of each form of the covered subgroup H over
    the generators found so far, and None for a form not yet covered; the
    principal form (1, b, c) sorts first.  A form x outside H becomes the
    next generator, of order k modulo H.  For j = 1, 2, ... the coset
    H + j*x is covered by translating H, and then its inverse coset
    H - j*x = H + (k - j)*x by inverting each form, (a, b, c) -> (a, -b, c),
    with the coordinates negated, unless the coset is its own inverse,
    that is, unless the inverse of j*x is covered once H + j*x is.  A
    second list, built once, gives the position of each form's inverse; a
    form whose (a, -b, c) is not reduced is its own inverse.  Each position
    is checked to be uncovered before it is set.  The walk stops at the
    first multiple j*x already covered, and j*e_x - coords(j*x) is the
    relation, whose coefficient at x is k.  The principal form translates
    to j*x itself, since reduced forms are unique per class, so each
    translated form costs one composition: floor(k/2)*#H per generator,
    (h - 1)/2 in all for odd h and fewer than h for even h, against h - 1
    without inversion.  The relations form a triangular matrix of
    determinant h on at most log2(h) generators; its Smith normal form
    (`_cokernel`, which keeps only the row transform) gives the group and
    the image of each generator.  Each form's class is the sum its
    coordinates name, worked out one invariant factor at a time, one list
    per factor, and zipped into the class tuples; the trivial group has no
    factor, and its one form gets the empty class.  Which coordinates a
    class gets depends on the walk; every output of the package depends
    only on the group and the isomorphism types of its quotients.
    """
    triples = _reduced_triples(d)
    h = len(triples)
    index = {f: i for i, f in enumerate(triples)}
    # per position: the position of the inverse form, (a, b, c) -> (a, -b, c),
    # which is the form itself when (a, -b, c) is not reduced (order <= 2)
    inverse = [index.get((a, -b, c), i) for i, (a, b, c) in enumerate(triples)]
    coords = [()] + [None] * (h - 1)  # per position; the principal form sorts first
    relations = []  # (k, coords of k*x) per generator x
    for x, gen in enumerate(triples):
        if coords[x] is not None:
            continue
        subgroup = [  # (position, coordinates) over H
            (i, c + (0,) * (len(relations) - len(c)))
            for i, c in enumerate(coords) if c is not None
        ]
        multiple, k = gen, 1
        while coords[y := index[multiple]] is None:
            coset = []
            for i, c in subgroup:
                if coords[z := index[_compose_triples(triples[i], multiple)] if i else y] is not None:
                    raise InternalContradiction(f"translates of a form subgroup overlap for {d}")
                coords[z] = c + (k,)
                coset.append(z)
            if coords[inverse[y]] is None:  # H - k*x is not H + k*x
                for z in coset:
                    if coords[w := inverse[z]] is not None:
                        raise InternalContradiction(f"translates of a form subgroup overlap for {d}")
                    coords[w] = tuple(map(neg, coords[z]))
            multiple, k = _compose_triples(multiple, gen), k + 1
        relations.append((k, coords[y]))
    if None in coords:
        raise InternalContradiction(f"subgroup extension missed forms of {d}")
    n = len(relations)
    columns = []
    for r, (k, c) in enumerate(relations):
        col = [-v for v in c] + [0] * (n - len(c))
        col[r] += k
        columns.append(col)
    group, rows = _cokernel(n, columns)
    if group.order() != h:
        raise InternalContradiction(
            f"relation lattice of {d} has index {group.order()}, not {h}"
        )
    by_factor = [
        [sum(map(mul, c, w)) % f for c in coords] for f, w in zip(group.factors, rows)
    ]
    form_class = tuple(zip(*by_factor)) or ((),)  # h = 1 has no factor: the empty class
    if len(set(form_class)) != h:
        raise InternalContradiction(f"form classes of {d} are not a bijection")
    return _DiscriminantData(tuple(triples), index, group, form_class)



class QuadraticSpec(SlotRecord):
    """An imaginary quadratic field, given by its fundamental discriminant."""

    __slots__ = ("discriminant",)

    def __init__(self, discriminant: int) -> None:
        _check_discriminant(discriminant)
        self.discriminant = discriminant



def class_group(spec: FieldSpec) -> FinGenAbGroup:
    """The class group of a field spec, with no element enumerated."""
    if isinstance(spec, QuadraticSpec):
        return _discriminant_data(spec.discriminant).group
    return FinGenAbGroup(spec.factors)



# -- the classgroup command -------------------------------------------------


def _spec_from_args(args: SimpleNamespace, suffix: str = "") -> FieldSpec:
    """The spec that `-D` or `--synthetic` names (`-D2`/`--synthetic2` with suffix "2").

    A synthetic spec is read by `codec` and loaded by `fields`, imported only then.
    """
    disc = getattr(args, f"discriminant{suffix}")
    if disc is not None:
        return QuadraticSpec(disc)
    from .codec import _read_json
    from .fields import synthetic_spec_from_json

    return synthetic_spec_from_json(_read_json(getattr(args, f"synthetic{suffix}")))


def cmd_classgroup(args: SimpleNamespace) -> None:
    """The group, then the reduced forms (a, b, c) or the number of synthetic primes."""
    spec = _spec_from_args(args)
    line = str(class_group(spec))
    if isinstance(spec, QuadraticSpec):
        forms = _discriminant_data(spec.discriminant).forms
        line += "; forms: " + ",".join(f"({a},{b},{c})" for a, b, c in forms)
    else:
        line += f"; synthetic primes: {len(spec.primes)}"
    print(line)
