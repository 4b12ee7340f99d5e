"""Blind reconstruction of arithmetic data from quotient invariants.

The only reconstruction input is an `InvariantBundle`: a rank, a set of
opaque labels, and for finite label sets F the isomorphism type of the
lattice quotient attached to F.  From that alone the pipeline recovers

  * the class number (the rank),
  * the norm behind every label (inverting the one-prime closed form),
  * which labels have odd norm,
  * subgroup orders of the classes behind odd-norm label sets, and
  * the isomorphism type of the class group, one prime at a time, by a
    greedy maximal-order chain.

Labels never carry arithmetic annotations here; `build_bundle` erases them.
The round-trip driver compares the reconstruction against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from .abgroup import (
    FinGenAbGroup,
    brief,
    factorize,
    integer_nth_root,
    is_prime_power,
    iso_equal,
    p_part,
    subgroup_index,
)
from .fields import FieldSpec, check_bound, class_group, enumerate_prime_ideals
from .lattice import PrimeIdealDatum, quotient_group


class MalformedBundle(Exception):
    """The bundle's entries cannot come from consistent arithmetic data."""


class InsufficientGenerators(Exception):
    """The label set is too small to exhibit the whole class group."""


class BundleEntryMissing(Exception):
    """A required entry is absent and the bundle cannot compute it."""


@dataclass
class InvariantBundle:
    """Opaque quotient data: label sets to isomorphism types, plus a rank.

    Entries may be precomputed or supplied lazily through `compute`; lazy
    results are memoized in `entries`.
    """

    rank: int
    labels: tuple[str, ...]
    entries: dict[frozenset[str], FinGenAbGroup] = field(default_factory=dict)
    compute: Callable[[frozenset[str]], FinGenAbGroup] | None = None

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise MalformedBundle("rank must be at least 1")
        self._label_set = frozenset(self.labels)
        if len(self._label_set) != len(self.labels):
            raise MalformedBundle("duplicate labels")
        unknown = set().union(*self.entries) - self._label_set if self.entries else set()
        if unknown:
            raise MalformedBundle(f"entries mention unknown labels {sorted(unknown)}")

    def entry(self, labels: Iterable[str]) -> FinGenAbGroup:
        key = frozenset(labels)
        if not key <= self._label_set:
            raise BundleEntryMissing(
                f"labels {sorted(key - self._label_set)} are not in the bundle"
            )
        got = self.entries.get(key)
        if got is not None:
            return got
        if self.compute is None:
            raise BundleEntryMissing(
                f"no entry for {sorted(key)} and the bundle is not computable"
            )
        return self.entries.setdefault(key, self.compute(key))


def build_bundle(
    group: FinGenAbGroup,
    primes: Sequence[PrimeIdealDatum],
    subsets: Sequence[Iterable[str]] = (),
) -> InvariantBundle:
    """Evaluate quotients through `quotient_group` and erase all annotations.

    `group` is the class group, and no element of it is enumerated.  One
    closed formula produces every entry: the empty set, the singletons,
    the odd-norm sets the reconstruction asks for and the `subsets` given,
    whatever their parities.  The empty set and every singleton are always
    included.  Later requests for other subsets are served on demand (and
    memoized); the ground truth stays enclosed in the supplier and is never
    exposed.  Smith normal form of the whole sublattice and the induction
    in `oracle` only certify these entries in the tests.
    """
    labels = tuple(p.label for p in primes)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate prime labels")
    by_label = {p.label: p for p in primes}

    def quotient_for(key: frozenset[str]) -> FinGenAbGroup:
        return quotient_group(group, [by_label[l] for l in sorted(key)])

    entries: dict[frozenset[str], FinGenAbGroup] = {}
    wanted: list[frozenset[str]] = [frozenset()]
    wanted += [frozenset({l}) for l in labels]
    for subset in subsets:
        key = frozenset(subset)
        if not key <= set(labels):
            raise ValueError(f"unknown labels in subset {sorted(key)}")
        wanted.append(key)
    for key in wanted:
        if key not in entries:
            entries[key] = quotient_for(key)
    return InvariantBundle(
        rank=group.order(),
        labels=labels,
        entries=entries,
        compute=quotient_for,
    )


def recover_class_number(bundle: InvariantBundle) -> int:
    """The class number is the free rank of the empty-set entry."""
    empty = bundle.entry(())
    if len(empty.factors) != bundle.rank or any(empty.factors):
        raise MalformedBundle(
            f"empty-set entry {brief(empty.factors)} is not free of rank "
            f"{bundle.rank}"
        )
    return bundle.rank


def recover_norm(bundle: InvariantBundle, label: str, h: int) -> int:
    """Invert the one-prime closed form: read N off the singleton entry.

    A singleton entry is s copies of Z/t with s * ord = class number and
    t + 1 = N**ord; the exact ord-th root gives N, which must be a prime
    power.  A trivial entry forces N**ord = 2, hence N = 2.  Anything else
    is not arithmetic data.  `h` is the class number, validated once by
    `recover_class_number`.
    """
    entry = bundle.entry((label,))
    if not entry.is_finite:
        raise MalformedBundle(f"singleton entry for {label} has free summands")
    if entry.is_trivial:
        return 2
    values = set(entry.factors)
    if len(values) != 1:
        raise MalformedBundle(
            f"singleton entry for {label} is not homogeneous: "
            f"{brief(entry.factors)}"
        )
    t = entry.factors[0]
    s = len(entry.factors)
    if h % s:
        raise MalformedBundle(
            f"summand count {s} for {label} does not divide the class number {h}"
        )
    ord_p = h // s
    n = integer_nth_root(t + 1, ord_p)
    if n is None:
        raise MalformedBundle(
            f"torsion {brief(t)} + 1 for {label} is not a perfect {ord_p}-th power"
        )
    if not is_prime_power(n):
        raise MalformedBundle(
            f"recovered norm {brief(n)} for {label} is not a prime power"
        )
    return n


def recover_norms(bundle: InvariantBundle, h: int) -> dict[str, int]:
    """The norm behind every label, each recovered once; `h` as in `recover_norm`."""
    return {label: recover_norm(bundle, label, h) for label in bundle.labels}


def subgroup_order_from_bundle(
    bundle: InvariantBundle,
    labels: Iterable[str],
    odd_labels: AbstractSet[str],
    h: int,
) -> int:
    """Order of the subgroup generated by the classes behind odd-norm labels.

    The entry for F is homogeneous with one summand per coset, so the
    summand count is the subgroup index; dividing the class number gives
    the subgroup order.  `odd_labels` are the labels of odd recovered norm,
    and `h` the class number from `recover_class_number`.
    """
    key = tuple(labels)
    if not key:
        raise ValueError("subgroup order requires a non-empty label set")
    for label in key:
        if label not in odd_labels:
            raise ValueError(f"label {label} has even norm; not allowed in chains")
    entry = bundle.entry(key)
    if not entry.is_finite or entry.is_trivial or len(set(entry.factors)) != 1:
        raise MalformedBundle(
            f"entry for {sorted(key)} is not homogeneous torsion: "
            f"{brief(entry.factors)}"
        )
    s = len(entry.factors)
    if h % s:
        raise MalformedBundle(
            f"summand count {s} for {sorted(key)} does not divide {h}"
        )
    return h // s


TieBreak = Callable[[list[str]], str]


def _first(candidates: list[str]) -> str:
    return candidates[0]


def greedy_primary_factors(
    p: int,
    candidates: Sequence[str],
    subgroup_order: Callable[[tuple[str, ...]], int],
    tie_break: TieBreak = _first,
) -> list[int]:
    """Greedy chain recovering the p-primary invariant factors.

    At each step, pick the unused candidate maximizing the p-part of the
    index [<chain, c> : <chain>]; the maxima are the cyclic orders of the
    p-primary component, largest first.  Any maximizer may be chosen.
    `subgroup_order` maps a non-empty candidate tuple to the order of the
    subgroup its classes generate.
    """
    chain: list[str] = []
    chain_order = 1
    out: list[int] = []
    remaining = list(candidates)
    while remaining:
        best_val = 1
        best: list[str] = []
        for c in remaining:
            order = subgroup_order(tuple(chain) + (c,))
            if order % chain_order:
                raise MalformedBundle(
                    f"subgroup order {order} of {chain + [c]} is not a multiple "
                    f"of {chain_order}, the order of {chain}"
                )
            val = p_part(order // chain_order, p)
            if val > best_val:
                best_val, best = val, [c]
            elif val == best_val and val > 1:
                best.append(c)
        if best_val == 1:
            break
        pick = tie_break(best)
        chain.append(pick)
        remaining.remove(pick)
        chain_order = subgroup_order(tuple(chain))
        out.append(best_val)
    return out


def reconstruct_class_group(
    bundle: InvariantBundle, norms: Mapping[str, int], h: int
) -> FinGenAbGroup:
    """Isomorphism type of the class group, from the bundle alone.

    Runs the greedy chain for every prime dividing the class number over
    the odd-norm labels, then audits completeness: the recovered orders
    must multiply to the class number, else the label set cannot exhibit
    the whole group and InsufficientGenerators is raised.  `norms` are the
    recovered label norms (`recover_norms`), and `h` the class number from
    `recover_class_number`.
    """
    if h == 1:
        return FinGenAbGroup.trivial()
    odd_labels = [l for l in bundle.labels if norms[l] % 2 == 1]
    odd = frozenset(odd_labels)

    def subgroup_order(key: tuple[str, ...]) -> int:
        return subgroup_order_from_bundle(bundle, key, odd, h)

    cyclic_orders: list[int] = []
    total = 1
    for p in sorted(factorize(h)):
        parts = greedy_primary_factors(p, odd_labels, subgroup_order)
        cyclic_orders.extend(parts)
        for d in parts:
            total *= d
    if total != h:
        raise InsufficientGenerators(
            f"odd-norm labels exhibit a subgroup of order {total}, "
            f"but the class number is {h}; supply more primes"
        )
    return FinGenAbGroup.from_orders(cyclic_orders)


@dataclass(frozen=True)
class ZetaData:
    """Truncated Dirichlet coefficients of the zeta function.

    `coefficients[n-1]` counts the multisets of prime-ideal norms whose
    product is n (that is, ideals of norm n), for n up to the bound.
    """

    norms: tuple[int, ...]
    bound: int
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coefficients[0] != 1:
            raise ValueError("the unit ideal must be counted exactly once")
        if not all(is_prime_power(n) for n in self.norms):
            raise ValueError("every norm must be a prime power > 1")


def zeta_coefficients(norms: Iterable[int], bound: int) -> list[int]:
    """Ideal counts a_1..a_bound from a complete multiset of prime norms.

    Each prime ideal of norm N contributes the Euler factor
    1 + N^-s + N^-2s + ...; multiplying the factors out is a multiplicative
    sieve: walking the multiples of N in ascending order picks up all powers
    of N automatically.  Completeness of `norms` below the bound is the
    caller's contract.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    a = [0] * (bound + 1)
    a[1] = 1  # the unit ideal
    for n in norms:
        if n < 2:
            raise ValueError(f"norm {n} is below 2")
        if n > bound:
            continue
        for k in range(n, bound + 1, n):
            a[k] += a[k // n]
    return a[1:]


def zeta_data(norms: Iterable[int], bound: int) -> ZetaData:
    norms = tuple(sorted(norms))
    return ZetaData(
        norms=norms,
        bound=bound,
        coefficients=tuple(zeta_coefficients(norms, bound)),
    )


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    message: str


@dataclass(frozen=True)
class ReconstructionReport:
    class_number: int
    class_group: FinGenAbGroup
    norms: Mapping[str, int]
    zeta: ZetaData
    verdicts: tuple[Verdict, ...]

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def reconstruct_all(
    bundle: InvariantBundle, zeta_bound: int | None = None
) -> ReconstructionReport:
    """Full blind reconstruction: class number, group, norms, zeta data.

    The zeta coefficients run up to `zeta_bound`, by default the largest
    recovered norm; a bound above `fields.MAX_BOUND` raises LimitExceeded
    before the group is reconstructed.  The class number is validated once
    and every norm is recovered once.
    """
    h = recover_class_number(bundle)
    norms = recover_norms(bundle, h)
    if zeta_bound is None:
        zeta_bound = max(norms.values(), default=1)
    check_bound(zeta_bound, "zeta bound")
    group = reconstruct_class_group(bundle, norms, h)
    zeta = zeta_data(norms.values(), zeta_bound)
    if group.order() != h:
        raise MalformedBundle("recovered group order disagrees with the rank")
    return ReconstructionReport(
        class_number=h, class_group=group, norms=norms, zeta=zeta, verdicts=()
    )


def roundtrip(
    group: FinGenAbGroup,
    primes: Sequence[PrimeIdealDatum],
    zeta_bound: int,
) -> ReconstructionReport:
    """Build a bundle, reconstruct blind, and compare with the ground truth.

    The classes of the odd-norm primes must generate the class group; for
    genuine fields that always holds once enough primes are supplied, so
    failure carries guidance to raise the norm bound.
    """
    odd = [group.element(p.cls) for p in primes if p.has_odd_norm]
    if subgroup_index(group, odd) != 1:
        raise InsufficientGenerators(
            "the odd-norm primes supplied do not generate the class group; "
            "raise the prime norm bound"
        )
    report = reconstruct_all(build_bundle(group, primes), zeta_bound)
    true_norms = {p.label: p.norm for p in primes}
    verdicts = [
        Verdict(
            "class_number",
            report.class_number == group.order(),
            f"recovered {report.class_number}, true {group.order()}",
        ),
        Verdict(
            "class_group",
            iso_equal(report.class_group, group),
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
            report.zeta.coefficients
            == tuple(zeta_coefficients(true_norms.values(), zeta_bound)),
            f"coefficients up to {zeta_bound} compared",
        ),
    ]
    return ReconstructionReport(
        class_number=report.class_number,
        class_group=report.class_group,
        norms=report.norms,
        zeta=report.zeta,
        verdicts=tuple(verdicts),
    )


def _norm_diff(got: Mapping[str, int], want: Mapping[str, int]) -> str:
    keys = [k for k in want if got.get(k) != want[k]]
    return ", ".join(f"{k}: got {got.get(k)}, want {want[k]}" for k in keys[:5])


@dataclass(frozen=True)
class ComparisonResult:
    equivalent: bool
    bound: int
    first_zeta_difference: tuple[int, int, int] | None  # (n, a_n left, a_n right)
    groups_isomorphic: bool
    group_left: FinGenAbGroup
    group_right: FinGenAbGroup

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
    sides = []
    for spec in (spec_left, spec_right):
        primes = enumerate_prime_ideals(spec, bound)
        report = reconstruct_all(build_bundle(class_group(spec), primes), bound)
        sides.append((report.zeta.coefficients, report.class_group))
    (za, ga), (zb, gb) = sides
    first_diff = None
    for n, (x, y) in enumerate(zip(za, zb), start=1):
        if x != y:
            first_diff = (n, x, y)
            break
    groups_ok = iso_equal(ga, gb)
    return ComparisonResult(
        equivalent=first_diff is None and groups_ok,
        bound=bound,
        first_zeta_difference=first_diff,
        groups_isomorphic=groups_ok,
        group_left=ga,
        group_right=gb,
    )
