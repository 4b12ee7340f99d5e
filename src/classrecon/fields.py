"""The producer's field data: prime ideals of quadratic fields, and synthetic specs.

A rational prime q splits, ramifies or stays inert in an imaginary
quadratic field as D has two, one or no square roots modulo 4q, and a root
gives a form with leading coefficient q, whose class is the ideal class of
a prime above q.  For 4q^2 <= |D| every such form with -q < b <= q is
reduced, so prime enumeration reads q's splitting and prime form off the
reduced forms that the class-group build of `forms` already holds: none
with leading coefficient q when q is inert, one when q ramifies, a pair
(q, +-b, c) when q splits.  Each larger prime takes one square root of D,
which both decides its splitting and gives its prime form.  A prime's class
is then that of its form's reduced triple in the same build.  The conjugate
of a split prime has the inverse class, that of the inverse form
(q, -b, c), which the same table gives, so no group arithmetic runs.

Synthetic field specifications carry an arbitrary finite abelian group and
a free-form prime stream, so class groups outside quadratic reach enter
the test matrix.  `synthetic_spec_from_json` is
their one loader: it reads a spec document's JSON shape, with the codec's
integer and array readers, and decides every rule of a valid spec.
Either kind of spec yields its primes as `PrimeIdealDatum`s, plain records
that check nothing.

This module imports neither the lattice producer nor the blind consumer.
`classgroup -D` does not load it: it runs the class-group build in
`forms` alone.

Prime bounds above `errors.MAX_BOUND` and synthetic groups of order above
`errors.MAX_SYNTHETIC_ORDER` are refused before any work;
`errors.MAX_QUOTIENT_BITS` is checked where quotients are computed.
"""

from __future__ import annotations

from math import gcd
from typing import Any, NamedTuple

from .abgroup import (
    FinGenAbGroup,
    GroupElement,
    brief,
    check_bound,
    is_prime,
    primes_up_to,
)
from .codec import _decimal, _json_int, _json_list
from .errors import (
    MAX_SYNTHETIC_ORDER,
    InternalContradiction,
    InvalidSyntheticSpec,
    LimitExceeded,
)
from .forms import (
    QuadraticSpec,
    Triple,
    _discriminant_data,
    _reduce_triple,
    _two_adic_roots,
    sqrt_mod_prime,
)


def _prime_triple(d: int, q: int) -> Triple | None:
    """The form (q, b, c) of discriminant d with the least b in [0, 2q), or None.

    The b are the roots of d modulo 4q, one per class mod 2q, as in
    `_reduced_triples`: for q = 2, the 2-adic roots; for odd q, the roots
    r and q - r modulo q lifted to the parity of d.  Those two have
    opposite parities, so the least lift is the one of the parity of d,
    below q, as it is; the other gains q.  For r = 0 that is 0 or q.  No
    root means that q is inert, and gives None.  A form found must be
    primitive.  `enumerate_prime_ideals` calls this only for 4q^2 > |d|.
    """
    if q == 2:
        roots = _two_adic_roots(d, 2)[1]
    else:
        r = sqrt_mod_prime(d, q)
        roots = [] if r is None else [q - r if (r ^ d) & 1 else r]
    if not roots:
        return None
    b = min(roots)
    c, rem = divmod(b * b - d, 4 * q)
    if rem or gcd(q, b, c) != 1:
        raise InternalContradiction(f"no primitive prime form for ({d}, {q})")
    return (q, b, c)



class PrimeIdealDatum(NamedTuple):
    """One prime ideal: a label, its norm, its ideal class, its residue prime.

    The norm is a power of the residue characteristic: the quadratic
    enumeration builds it so, and `synthetic_spec_from_json` checks it.
    """

    label: str
    norm: int
    cls: GroupElement
    residue_char: int

    @property
    def has_odd_norm(self) -> bool:
        return self.norm % 2 == 1


class SyntheticSpec(NamedTuple):
    """A free-form field stand-in: a finite class group and a prime stream."""

    factors: tuple[int, ...]
    primes: tuple[PrimeIdealDatum, ...]


FieldSpec = QuadraticSpec | SyntheticSpec


def synthetic_spec_from_json(doc: Any) -> SyntheticSpec:
    """Load and validate a synthetic spec; every defect is an InvalidSyntheticSpec.

    Each prime is read and its norm checked to be a power of its residue
    characteristic before the next prime is read.  Then the factors must be
    canonical and finite, the labels distinct, each residue characteristic
    a prime (so each norm is a prime power) and each class an element of
    the group, stored reduced, as the quadratic build gives it.  A group of
    order above MAX_SYNTHETIC_ORDER raises LimitExceeded, as does a
    characteristic that `is_prime` cannot certify.
    Whether the odd-norm classes generate the group is not checked here:
    the blind consumer decides it, as for a quadratic field.
    """
    bad = InvalidSyntheticSpec
    if not isinstance(doc, dict):
        raise bad("a synthetic spec must hold a JSON object")
    factors = tuple(
        _json_int(x, "an invariant factor", bad)
        for x in _json_list(doc.get("invariant_factors"), "invariant_factors", bad)
    )
    primes = []
    for i, item in enumerate(_json_list(doc.get("primes"), "primes", bad)):
        if not isinstance(item, dict):
            raise bad(f"prime {i} must be a JSON object")
        label = str(item.get("label", f"s{i}"))
        norm = _json_int(item.get("norm"), f"norm of {label}", bad)
        cls = tuple(
            _json_int(c, f"class of {label}", bad)
            for c in _json_list(item.get("class"), f"class of {label}", bad)
        )
        char = _json_int(item.get("residue_char"), f"residue_char of {label}", bad)
        if char < 2:
            raise bad(f"prime {label}: residue characteristic must be a prime >= 2")
        if norm < 2:
            raise bad(f"prime {label}: norm must be at least 2")
        n = norm
        while n % char == 0:
            n //= char
        if n != 1:
            raise bad(f"prime {label}: norm {brief(norm)} is not a power of {brief(char)}")
        primes.append(PrimeIdealDatum(label, norm, cls, char))
    try:
        group = FinGenAbGroup(factors)  # must already be canonical
    except ValueError as exc:
        raise bad(f"invariant factors: {exc}") from None
    if not group.is_finite:
        raise bad("synthetic class group must be finite")
    if group.order() > MAX_SYNTHETIC_ORDER:
        raise LimitExceeded(
            f"synthetic class group order {_decimal(group.order())} exceeds the limit "
            f"{MAX_SYNTHETIC_ORDER}: every bundle entry lists up to that many factors"
        )
    if len({p.label for p in primes}) != len(primes):
        raise bad("duplicate prime labels in synthetic spec")
    for i, p in enumerate(primes):
        if not is_prime(p.residue_char):
            raise bad(f"residue characteristic {brief(p.residue_char)} of {p.label} is not a prime")
        try:
            primes[i] = p._replace(cls=group.element(p.cls))
        except ValueError as exc:
            raise bad(f"class of {p.label}: {exc}") from None
    return SyntheticSpec(factors, tuple(primes))


def enumerate_prime_ideals(spec: FieldSpec, bound: int) -> list[PrimeIdealDatum]:
    """Every prime ideal of norm <= bound, one datum per ideal.

    The prime form decides each rational prime q.  For 4q^2 <= |D| it is
    reduced, since c >= |D|/4q >= q, so it is read off the build: the
    reduced form with leading coefficient q and the largest b, which is
    the one with b >= 0 and the last of them in sorted order; with no
    reduced form of leading coefficient q, q is inert.  A larger q takes
    its prime form from one square root (`_prime_triple`).  With no prime
    form, q is inert and contributes one principal datum of norm q**2.
    Otherwise its class is that of a prime above q: a ramified q (dividing
    D) contributes that one datum, and a split q a second one of the
    inverse class, read from the build's table at the inverse form
    (q, -b, c).  An inert q's class is that of form 0, the principal form.
    Completeness below the bound is exactly the contract the zeta
    truncation relies on.
    """
    check_bound(bound, "prime norm bound")
    if isinstance(spec, SyntheticSpec):
        return [p for p in spec.primes if p.norm <= bound]
    d = spec.discriminant
    forms, index, _, form_class = _discriminant_data(d)
    prime_forms = {f[0]: f for f in forms}  # per leading coefficient, its last form
    out: list[PrimeIdealDatum] = []
    for q in primes_up_to(bound):
        form = prime_forms.get(q) if 4 * q * q <= -d else _prime_triple(d, q)
        if form is None:  # q is inert, and (q) is principal: form 0's class
            if q * q <= bound:
                out.append(PrimeIdealDatum(f"p_{q}", q * q, form_class[0], q))
            continue
        # a ramified q gives one prime; a split q a second, of the inverse form (q, -b, c)
        for suffix, b in ("", form[1]), ("c", -form[1]):
            out.append(PrimeIdealDatum(
                f"p_{q}{suffix}", q, form_class[index[_reduce_triple(q, b, form[2])]], q
            ))
            if d % q == 0:
                break
    return out
