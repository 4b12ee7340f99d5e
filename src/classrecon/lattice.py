"""The producer: quotient invariants of the class-group lattice, and bundles.

A finite abelian class group Cl indexes the basis of a free lattice of rank
#Cl.  Each prime-ideal datum p acts on that lattice by permuting the basis
(multiplication by the ideal class of p) and scaling by the norm N(p).  For
a finite set F of prime data, the columns of (I - op_p) over p in F span a
finite-index sublattice; the quotient is the invariant this package studies
and later reconstructs from.

One seam produces quotients, and one formula serves every set F, whatever
the parities of its norms.  Let H be the subgroup generated by the classes
[p], p in F.  The quotient is Z[Cl] modulo the ideal generated by the
1 - N(p)[p]; Z[Cl] is free over Z[H] on coset representatives, and Z[H]
modulo that ideal is cyclic.  So the quotient is [Cl : H] copies of Z/m,
where m is the largest modulus on which [p] -> N(p)^-1 is a character of
H.  It takes the class group as a plain `FinGenAbGroup`: the index and the
relations among the [p] come from one column echelon over Z with at most
log2 #Cl rows, and no group element is enumerated.  The seam has two
halves: `prime_terms` computes each prime's class coordinates, ord[p] and
N(p)**ord[p] - 1, and `quotient_from_terms` combines the terms of a set.
The column echelon `index_and_relations` and its `xgcd` live here, beside
their one runtime user, so the blind consumer does not compile them.
Two independent routes in `oracle` certify the formula in the tests: the
brute-force Smith normal form (SNF) of the whole sublattice,
`oracle.lattice_quotient`, and the paper's induction over F.  Only they
enumerate group elements.

`build_bundle` computes the terms once per prime and returns an opaque
`InvariantBundle` for the blind consumer in `reconstruct`.  It holds the
entries every reader reads, of the empty set and of every singleton, from
the start, and computes the entry of a larger set when it is first asked
for.  `add_chain_entries` is the one place that decides which larger sets
a blind reconstruction needs a bundle file to carry: those the consumer's
greedy chains will read, found by running those chains on the true norms.
The drivers that hold the ground truth beside a blind reconstruction,
`roundtrip` and `compare_fields`, live here too, so the consumer never
imports the producer.  So do the handlers of the commands that produce:
`cmd_invariants`, `cmd_roundtrip` and `cmd_compare`, which `cli` imports
on dispatch, and the writers of the files only they write, `bundle_to_json`
and `comparison_text`, laid out from fixed templates with the codec's
helpers as `codec.report_text` is; so a blind `reconstruct` compiles
neither writer.
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii
from math import gcd, inf, lcm, log2
from operator import floordiv
from types import SimpleNamespace
from typing import Mapping, NamedTuple, Sequence

from .abgroup import FinGenAbGroup, GroupElement, brief
from .codec import BUNDLE_VERSION, _array, _decimal, _factor_array, _write_output, report_text
from .errors import (
    MAX_QUOTIENT_BITS,
    InsufficientGenerators,
    InternalContradiction,
    LimitExceeded,
    UsageError,
    VerdictFailed,
)
from .fields import FieldSpec, PrimeIdealDatum, enumerate_prime_ideals
from .forms import _spec_from_args, class_group
from .reconstruct import (
    InvariantBundle,
    ReconstructionReport,
    Verdict,
    reconstruct_all,
    reconstruct_class_group,
    zeta_coefficients,
)

def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r, old_s, s = a, b, 1, 0
    while r:
        q = old_r // r
        old_r, r, old_s, s = r, old_r - q * r, s, old_s - q * s
    if old_r < 0:
        old_r, old_s = -old_r, -old_s
    # x*a + y*b = g, so x gives y exactly
    return old_r, old_s, (old_r - old_s * a) // b if b else 0


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
    is computed; `oracle.smith_normal_form` does that.

    >>> index_and_relations([(2,), (3,)], (6,))
    (1, [(-3, 2), (6, -6)])
    >>> index_and_relations([(2, 0)], (4, 4))
    (8, [(-2,)])
    """
    r, n = len(factors), len(gens)
    # a column holds its r matrix entries, then its n entries of V
    cols = [[*g, *[0] * n] for g in gens] + [[0] * (r + n) for _ in factors]
    for j, d in enumerate([*[1] * n, *factors]):  # V's identity, then diag(factors)
        cols[j][(r + j) % (r + n)] = d
    index, t = 1, 0  # cols[:t] are the pivot columns
    for row in range(r):
        # the least nonzero entry leads, so most others reduce by one division
        lead = min(range(t, len(cols)), key=lambda k: abs(cols[k][row]) or inf)
        if not cols[lead][row]:
            index = 0
            continue
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


class PrimeTerms(NamedTuple):
    """One prime's share of every quotient whose set F contains it.

    `coords` are the class coordinates as given, `order` is ord[p], the order
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
    is the lcm of d_i / gcd(d_i, x_i).  Neither that nor the column echelon
    needs x reduced modulo d_i, so each class is read as given (the
    producers give it reduced); a class of the wrong length raises
    ValueError.  A prime whose N(p)**ord[p] would exceed MAX_QUOTIENT_BITS
    raises LimitExceeded before any power is taken.
    """
    factors = group.factors
    orders = [lcm(*map(floordiv, factors, map(gcd, factors, p.cls))) for p in primes]
    for p, o in zip(primes, orders):
        if len(p.cls) != len(factors):
            raise ValueError(f"the class of {p.label} has the wrong length")
        bits = o * log2(p.norm)
        if bits > MAX_QUOTIENT_BITS:
            raise LimitExceeded(
                f"the quotient for {p.label} needs {p.norm}**{o} - 1, about "
                f"{bits:.0f} bits, above the limit {MAX_QUOTIENT_BITS} bits"
            )
    return [
        PrimeTerms(coords=p.cls, order=o, norm=p.norm, power=p.norm**o - 1)
        for p, o in zip(primes, orders)
    ]


def quotient_from_terms(
    group: FinGenAbGroup, terms: Sequence[PrimeTerms], h: int
) -> FinGenAbGroup:
    """The quotient attached to F: [Cl : H] copies of Z/m, for every F.

    `group` is the class group Cl, `h` its order, which a bundle computes
    once for all its entries, and `terms` those of the primes of F, from
    `prime_terms`.  The empty set gives the free group of rank #Cl.  One
    column echelon of the matrix [class coordinates | diag(d_i)], with d_i
    the invariant factors (`index_and_relations`), gives the index [Cl : H]
    as the product of its pivots and a generating set of the relations
    {k : sum k_p [p] = 0} from its column transform.  One prime needs
    none: its entry is h/ord[p] copies of Z/(N(p)**ord[p] - 1), read from
    its terms, or trivial when that order is 1.  Otherwise
    m = gcd(N(p)**ord[p] - 1 over p, prod N(p)**k_p - 1 over the relations
    k), with every exponent reduced modulo ord[p] and every power taken
    modulo the running gcd.  The quotient is canonical as built, so it is
    made by `FinGenAbGroup.trusted` and not checked again.

    >>> z4 = FinGenAbGroup((4,))
    >>> p = PrimeIdealDatum(label="p", norm=2, cls=(2,), residue_char=2)
    >>> q = PrimeIdealDatum(label="q", norm=3, cls=(1,), residue_char=3)
    >>> tp, tq = prime_terms(z4, [p, q])
    >>> str(quotient_from_terms(z4, [tp], 4)), str(quotient_from_terms(z4, [tp, tq], 4))
    ('Z/3 x Z/3', 'trivial')
    """
    if not terms:
        return FinGenAbGroup.trusted((0,) * h)
    if len(terms) == 1:  # H = <[p]> has index h/ord[p], and m = N(p)**ord[p] - 1
        [t] = terms
        if h % t.order:
            raise InternalContradiction(f"class order {t.order} does not divide {h}")
        index, m = h // t.order, t.power
    else:
        factors = group.factors
        index, relations = index_and_relations([t.coords for t in terms], factors)
        if index == 0:
            raise InternalContradiction(
                f"relation matrix of {factors} has rank below {len(factors)}"
            )
        if h % index:
            raise InternalContradiction(f"subgroup index {index} does not divide {h}")
        m = gcd(*[t.power for t in terms])
        for k in relations:
            x = 1
            for t, e in zip(terms, k):
                x = x * pow(t.norm, e % t.order, m) % m
            m = gcd(m, x - 1)
    if (m <= 0 or m % 2) and all(t.norm % 2 for t in terms):
        raise InternalContradiction(
            f"quotient order {brief(m)} of an odd-norm set is not even positive"
        )
    # m >= 1, since every N(p)**ord[p] - 1 is
    return FinGenAbGroup.trusted((m,) * index if m > 1 else ())


def build_bundle(group: FinGenAbGroup, primes: Sequence[PrimeIdealDatum]) -> InvariantBundle:
    """An opaque bundle over these primes, with its fixed entries made.

    `group` is the class group, and no element of it is enumerated.  Each
    prime's terms are computed here, once, by `prime_terms`, which checks
    every size before any power is taken.  The entries every reader reads,
    of the empty set and of each singleton, are made here from the terms by
    `quotient_from_terms`.  The supplier closes over the terms and makes
    the entry of a set of two or more primes the same way, whatever the
    parities of its norms, the first time that set is asked for; the bundle
    memoizes it (`InvariantBundle.entry`).  Such a set costs one column
    echelon of its class coordinates, never a Smith normal form.  The
    ground truth stays enclosed in the supplier and is never exposed.
    """
    labels = tuple(p.label for p in primes)
    terms = dict(zip(labels, prime_terms(group, primes)))
    h = group.order()
    entries = {frozenset(): quotient_from_terms(group, (), h)}
    for label, t in terms.items():
        entries[frozenset((label,))] = quotient_from_terms(group, (t,), h)

    def quotient_for(key: frozenset[str]) -> FinGenAbGroup:
        return quotient_from_terms(group, [*map(terms.__getitem__, sorted(key))], h)

    return InvariantBundle(rank=h, labels=labels, entries=entries, compute=quotient_for)


def add_chain_entries(
    bundle: InvariantBundle, primes: Sequence[PrimeIdealDatum]
) -> None:
    """Add to a bundle every entry a default blind reconstruction reads.

    This is the one place that decides which entries a bundle file needs
    beyond the empty-set and singleton entries, which `build_bundle` makes:
    those that a blind `reconstruct`'s greedy chains query.  The chains
    choose their queries from the label order and the values read
    (`reconstruct.greedy_primary_factors`), so running them here on the
    true norms asks for exactly the sets the consumer will ask for, and
    the bundle's supplier computes and keeps each one.  No norm is
    recovered and no zeta coefficient computed.  Raises
    InsufficientGenerators, after every chain entry is in the bundle, when
    the odd-norm classes do not generate the class group.
    """
    reconstruct_class_group(bundle, {p.label: p.norm for p in primes})


def roundtrip(
    group: FinGenAbGroup,
    primes: Sequence[PrimeIdealDatum],
    zeta_bound: int,
) -> ReconstructionReport:
    """Build a bundle, reconstruct blind, and compare with the ground truth.

    The blind report comes back with its four verdicts filled in.  The
    ground truth decides nothing before the blind side: when the odd-norm
    classes do not generate the class group, the reconstruction raises
    InsufficientGenerators, as `reconstruct` and `compare` do.
    """
    report = reconstruct_all(build_bundle(group, primes), zeta_bound)
    true_norms = {p.label: p.norm for p in primes}
    verdicts = (
        Verdict(
            "class_number",
            report.class_number == group.order(),
            f"recovered {report.class_number}, true {group.order()}",
        ),
        Verdict(
            "class_group",
            report.class_group == group,
            f"recovered {report.class_group}, true {group}",
        ),
        Verdict(
            "norms",
            report.norms == true_norms,
            "all labelwise norms agree"
            if report.norms == true_norms
            else f"norm map differs: {_norm_diff(report.norms, true_norms)}",
        ),
        Verdict(
            "zeta",
            report.zeta == tuple(zeta_coefficients(true_norms.values(), zeta_bound)),
            f"coefficients up to {zeta_bound} compared",
        ),
    )
    return report._replace(verdicts=verdicts)


def _norm_diff(got: Mapping[str, int], want: Mapping[str, int]) -> str:
    keys = [k for k in want if got.get(k) != want[k]]
    return ", ".join(f"{k}: got {got.get(k)}, want {want[k]}" for k in keys[:5])


class ComparisonResult(NamedTuple):
    """Two fields compared through the blind pipeline up to a bound.

    The verdicts `groups_isomorphic` and `equivalent` are read off the four
    fields, so no result can contradict itself.
    """

    bound: int
    first_zeta_difference: tuple[int, int, int] | None  # (n, a_n left, a_n right)
    group_left: FinGenAbGroup
    group_right: FinGenAbGroup

    @property
    def groups_isomorphic(self) -> bool:
        return self.group_left == self.group_right

    @property
    def equivalent(self) -> bool:
        return self.first_zeta_difference is None and self.groups_isomorphic

    def describe(self) -> str:
        if self.equivalent:
            return f"equivalent at bound {self.bound}"
        parts = []
        if self.first_zeta_difference:
            n, a, b = self.first_zeta_difference
            parts.append(f"zeta coefficients differ at n = {n} ({a} vs {b})")
        if not self.groups_isomorphic:
            parts.append(
                f"class groups differ ({self.group_left} vs {self.group_right})"
            )
        return "; ".join(parts)


def compare_fields(
    spec_left: FieldSpec, spec_right: FieldSpec, bound: int
) -> ComparisonResult:
    """Compare two field specs through the blind pipeline, up to a bound.

    Both sides get a bundle built from their prime data and a blind
    reconstruction with zeta coefficients up to the bound.
    """
    left, right = [
        reconstruct_all(build_bundle(class_group(spec), enumerate_prime_ideals(spec, bound)), bound)
        for spec in (spec_left, spec_right)
    ]
    differences = (
        (n, x, y) for n, (x, y) in enumerate(zip(left.zeta, right.zeta), start=1) if x != y
    )
    return ComparisonResult(
        bound=bound, first_zeta_difference=next(differences, None),
        group_left=left.class_group, group_right=right.class_group,
    )


# -- the producer's commands and the files only they write ------------------

# Each file is json.dumps(doc, indent=2, sort_keys=True) of one document
# shape, so it is laid out from these templates, keys in order.
_BUNDLE = '{\n  "entries": %s,\n  "labels": %s,\n  "rank": %d,\n  "version": %d\n}'
_ENTRY = '{\n      "factors": %s,\n      "labels": %s\n    }'
_COMPARISON = (
    '{\n  "bound": %d,\n  "class_group_left": %s,\n  "class_group_right": %s,\n'
    '  "detail": %s,\n  "equivalent": %s%s\n}'
)
_ZETA_DIFFERENCE = (
    ',\n  "first_zeta_difference": {\n    "left": %d,\n    "n": %d,\n    "right": %d\n  }'
)


def bundle_to_json(bundle: InvariantBundle) -> str:
    """The bundle file's text, with labels replaced by opaque integers.

    Label i becomes the integer i.  The entries are laid out by size, then
    by their sorted integers: the empty set, then singleton i as [i] in
    label order, so only the larger sets are sorted.  A bundle repeats few
    distinct factors many times (a homogeneous entry is [Cl : H] copies of
    one, and many entries share it), so each distinct factor tuple is laid
    out, and each factor converted, once per bundle.  A bundle lacking an
    entry its reader requires, as one built by hand may, raises ValueError
    instead.
    """
    try:  # the empty set and each singleton, in label order
        groups = [*map(bundle.entries.__getitem__,
                       [frozenset(), *map(frozenset, zip(bundle.labels))])]
    except KeyError:
        raise ValueError("bundle lacks the empty-set or a singleton entry; "
                         "lattice.build_bundle makes them") from None
    numbers = [*map(repr, range(len(bundle.labels)))]
    id_of = dict(zip(bundle.labels, range(len(numbers)))).__getitem__
    # each entry's labels as text: the empty set, each singleton in label
    # order, then the larger sets by size and ids; their ids are distinct,
    # so the sort never compares groups
    members = ["", *numbers]
    for _, ids, group in sorted((len(key), sorted(map(id_of, key)), group)
                                for key, group in bundle.entries.items() if len(key) > 1):
        members.append(",\n        ".join(map(numbers.__getitem__, ids)))
        groups.append(group)
    # each distinct factor quoted, and each distinct factor tuple laid out
    text, blocks, entries = {}, {}, []
    for member_text, group in zip(members, groups):
        factors = group.factors
        block = blocks.get(factors)
        if block is None:
            for x in set(factors):
                if x not in text:
                    text[x] = f'"{_decimal(x)}"'
            block = blocks[factors] = _array(
                ",\n        ".join(map(text.__getitem__, factors)), "\n      ")
        entries.append(_ENTRY % (block, _array(member_text, "\n      ")))
    entries = ",\n    ".join(entries)
    labels = _array(",\n    ".join(numbers), "\n  ")
    return _BUNDLE % (_array(entries, "\n  "), labels, bundle.rank, BUNDLE_VERSION)


def comparison_text(result: ComparisonResult) -> str:
    """The compare result's text; `first_zeta_difference` appears only
    when the two fields' zeta coefficients differ."""
    difference = ""
    if result.first_zeta_difference:
        n, left, right = result.first_zeta_difference
        difference = _ZETA_DIFFERENCE % (left, n, right)
    return _COMPARISON % (result.bound, _factor_array(result.group_left),
                          _factor_array(result.group_right),
                          encode_basestring_ascii(result.describe()),
                          "true" if result.equivalent else "false", difference)


def cmd_invariants(args: SimpleNamespace) -> None:
    """Write the bundle of a spec's prime ideals up to `--primes`, with the `--set` entries."""
    spec = _spec_from_args(args)
    group = class_group(spec)
    primes = enumerate_prime_ideals(spec, args.primes)
    known = {p.label for p in primes}
    subsets = [tuple(s.strip() for s in raw.split(",") if s.strip()) for raw in args.set or []]
    for subset in subsets:
        if missing := set(subset) - known:
            raise UsageError(f"unknown labels in --set: {sorted(missing)}")
    bundle = build_bundle(group, primes)
    for subset in subsets:
        bundle.entry(subset)
    # The file must also carry every entry a blind `reconstruct` will read:
    # the greedy chains, run on the true norms, query the same sets as the
    # consumer's.  When the odd-norm classes fall short of the class group,
    # the file is still written, with a warning.
    try:
        add_chain_entries(bundle, primes)
    except InsufficientGenerators as exc:
        print(f"warning: {exc}", file=sys.stderr)
    if args.show_labels:
        for i, label in enumerate(bundle.labels):
            print(f"# {i} = {label}", file=sys.stderr)
    _write_output(bundle_to_json(bundle), args.output)


def cmd_roundtrip(args: SimpleNamespace) -> None:
    """Write the round-trip report of a spec; a failed verdict raises once it is written."""
    if args.zeta is not None and args.zeta > args.primes:
        # the true coefficients, like the blind ones, see only these primes
        raise UsageError(f"--zeta {args.zeta} is above the --primes bound {args.primes}")
    spec = _spec_from_args(args)
    group = class_group(spec)
    primes = enumerate_prime_ideals(spec, args.primes)
    zeta_bound = args.zeta if args.zeta is not None else args.primes
    report = roundtrip(group, primes, zeta_bound)
    _write_output(report_text(report), args.output)
    if not report.all_passed:
        failed = ", ".join(v.name for v in report.verdicts if not v.passed)
        raise VerdictFailed(f"failed verdicts: {failed}")


def cmd_compare(args: SimpleNamespace) -> None:
    """Write the comparison of two specs; a difference raises once it is written."""
    spec_a = _spec_from_args(args)
    spec_b = _spec_from_args(args, suffix="2")
    result = compare_fields(spec_a, spec_b, args.bound)
    _write_output(comparison_text(result), args.output)
    if not result.equivalent:
        raise VerdictFailed(result.describe())
