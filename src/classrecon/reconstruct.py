"""The blind consumer: arithmetic data from quotient invariants alone.

The only reconstruction input is an `InvariantBundle`: a rank, a set of
opaque labels, and for finite label sets F the isomorphism type of the
lattice quotient attached to F.  From that alone the pipeline recovers

  * the class number (the rank),
  * the norm behind every label (inverting the one-prime closed form),
  * which labels have odd norm,
  * subgroup orders of the classes behind odd-norm label sets,
  * the isomorphism type of the class group, one prime at a time, by a
    greedy maximal-order chain, and
  * the truncated zeta coefficients, from the recovered norms.

Labels never carry arithmetic annotations here.  This module imports only
`abgroup` and `errors`, so the blinding rule is a fact of the import
graph: nothing the producer knows (`fields`, `lattice`) is loaded by a
blind `reconstruct`.  `lattice.build_bundle` erases the labels, and the
round-trip and comparison drivers that hold the ground truth live there.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Iterable, Mapping, NamedTuple, Sequence

from .abgroup import (
    FinGenAbGroup,
    SlotRecord,
    brief,
    check_bound,
    factorize,
    integer_nth_root,
    is_prime_power,
    p_part,
)
from .errors import BundleEntryMissing, InsufficientGenerators, MalformedBundle


class InvariantBundle:
    """Opaque quotient data: label sets to isomorphism types, plus a rank.

    Entries may be precomputed or supplied lazily through `compute`; lazy
    results are memoized in `entries`.
    """

    __slots__ = ("rank", "labels", "entries", "compute", "_label_set")

    def __init__(
        self,
        rank: int,
        labels: tuple[str, ...],
        entries: dict[frozenset[str], FinGenAbGroup] | None = None,
        compute: Callable[[frozenset[str]], FinGenAbGroup] | None = None,
    ) -> None:
        if entries is None:
            entries = {}
        if rank < 1:
            raise MalformedBundle("rank must be at least 1")
        label_set = frozenset(labels)
        if len(label_set) != len(labels):
            raise MalformedBundle("duplicate labels")
        unknown = set().union(*entries) - label_set if entries else set()
        if unknown:
            raise MalformedBundle(f"entries mention unknown labels {sorted(unknown)}")
        self.rank, self.labels, self.entries, self.compute = rank, labels, entries, compute
        self._label_set = label_set

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
    factors = bundle.entry((label,)).factors
    if not factors:
        return 2
    # canonical factors ascend with the free summands last, so the ends
    # decide finiteness and homogeneity
    if factors[-1] == 0:
        raise MalformedBundle(f"singleton entry for {label} has free summands")
    if factors[0] != factors[-1]:
        raise MalformedBundle(
            f"singleton entry for {label} is not homogeneous: {brief(factors)}"
        )
    t = factors[0]
    s = len(factors)
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
    factors = bundle.entry(key).factors
    # canonical factors ascend with the free summands last: the ends decide
    if not factors or factors[0] != factors[-1] or factors[-1] == 0:
        raise MalformedBundle(
            f"entry for {sorted(key)} is not homogeneous torsion: {brief(factors)}"
        )
    s = len(factors)
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
    p_order: int,
    candidates: Sequence[str],
    subgroup_order: Callable[[tuple[str, ...]], int],
    tie_break: TieBreak = _first,
) -> list[int]:
    """Greedy chain recovering the p-primary invariant factors.

    At each step, pick a candidate maximizing the p-part of the index
    [<chain, c> : <chain>], the gain of c; the maxima are the cyclic orders
    of the p-primary component, largest first.  `p_order` is the p-part of
    the class number, and `subgroup_order` maps a non-empty candidate tuple
    to the order of the subgroup its classes generate.

    Three exact cuts read only the entries that can change the answer:

      * the chain stops once its picks multiply to `p_order`;
      * the gain |<c>| / |<c> & <chain>| divides its value over any shorter
        chain, so a candidate whose gain is 1 is dropped for good;
      * a gain read earlier bounds the current one (Minoux's lazy greedy),
        and an unread one is bounded by the p-part the chain still lacks.
        Each pass queries candidates in descending order of their bounds,
        ties in candidate order, and stops once the best gain read is at
        least the next bound.

    `tie_break` picks among the queried maximizers; any maximizer gives the
    same factors.  Which sets are queried depends only on the candidate
    order and the values read, so a producer that runs the chain and a
    consumer that reruns it on the written entries ask for the same sets.
    """
    chain: list[str] = []
    chain_order = 1
    out: list[int] = []
    left = p_order  # the p-part the picks have yet to reach
    bound = dict.fromkeys(candidates, p_order)
    while left > 1 and bound:
        best_val = 1
        best: list[str] = []
        orders: dict[str, int] = {}
        for c in sorted(bound, key=lambda c: -min(bound[c], left)):
            if best_val >= min(bound[c], left):
                break
            order = orders[c] = subgroup_order(tuple(chain) + (c,))
            if order % chain_order:
                raise MalformedBundle(
                    f"subgroup order {order} of {chain + [c]} is not a multiple "
                    f"of {chain_order}, the order of {chain}"
                )
            val = p_part(order // chain_order, p)
            if bound[c] % val:
                raise MalformedBundle(
                    f"the {p}-part {val} of the gain of {c} over {chain} does not "
                    f"divide {bound[c]}, its bound over a shorter chain"
                )
            if val == 1:
                del bound[c]
                continue
            bound[c] = val
            if val > best_val:
                best_val, best = val, [c]
            elif val == best_val:
                best.append(c)
        if not best:
            break
        pick = tie_break(best)
        del bound[pick]
        chain.append(pick)
        chain_order = orders[pick]
        out.append(best_val)
        left //= best_val
    return out


def _check_carried_orders(
    bundle: InvariantBundle,
    odd_labels: AbstractSet[str],
    subgroup_order: Callable[[tuple[str, ...]], int],
) -> None:
    """Reject carried odd-norm entries whose subgroup orders shrink.

    A subgroup grows with its generating set: for carried entries F and
    F - {x} of odd-norm labels, the order of F must be a multiple of that of
    F - {x}.  The greedy chains need not read every carried entry, so each
    is checked here, with one lookup per label of F.
    """
    carried = bundle.entries
    for key in list(carried):
        if len(key) < 2 or not key <= odd_labels:
            continue
        order = subgroup_order(tuple(key))
        for x in key:
            sub = key - {x}
            if sub in carried and order % (sub_order := subgroup_order(tuple(sub))):
                raise MalformedBundle(
                    f"subgroup order {order} of {sorted(key)} is not a multiple "
                    f"of {sub_order}, the order of {sorted(sub)}"
                )


def _check_torsion(bundle: InvariantBundle, norms: Mapping[str, int], h: int) -> None:
    """Refuse carried multi-label entries that the closed form rules out.

    The entry of a label set F is s_F copies of Z/m, and that of a label p
    is s_p copies of Z/t_p with t_p = N(p)**ord[p] - 1 (the `lattice`
    docstring).  So, for every p in F:

      * m divides t_p, since m is a gcd that t_p enters;
      * s_F divides s_p, since [Cl : H_F] divides [Cl : <p>];
      * m is even when every norm in F is odd, since then every term of
        that gcd is even.

    A trivial entry has m = 1 and shows no summand count; a trivial
    singleton has N = 2, ord = 1, t_p = 1 and s_p = h.  Each check is one
    modulus per label.  A bundle read from a file computes no entry, so
    every entry the chains read from it is carried and checked here.
    """
    for key, group in bundle.entries.items():  # every singleton is read by now
        if len(key) < 2:
            continue
        factors = group.factors
        if factors and (factors[0] != factors[-1] or factors[-1] == 0):
            raise MalformedBundle(
                f"entry for {sorted(key)} is not homogeneous torsion: {brief(factors)}"
            )
        m, s = (factors[0], len(factors)) if factors else (1, 0)
        for label in sorted(key):
            single = bundle.entry((label,)).factors
            t, s_p = (single[0], len(single)) if single else (1, h)
            if t % m:
                raise MalformedBundle(
                    f"torsion {brief(m)} of {sorted(key)} does not divide "
                    f"{brief(t)}, the torsion of {label}"
                )
            if s and s_p % s:
                raise MalformedBundle(
                    f"summand count {s} of {sorted(key)} does not divide {s_p}, "
                    f"the summand count of {label}"
                )
        if m % 2 and all(norms[l] % 2 for l in key):
            raise MalformedBundle(
                f"torsion {brief(m)} of the odd-norm set {sorted(key)} is not even"
            )


def reconstruct_class_group(
    bundle: InvariantBundle, norms: Mapping[str, int], h: int
) -> FinGenAbGroup:
    """Isomorphism type of the class group, from the bundle alone.

    Runs the greedy chain for every prime dividing the class number over
    the odd-norm labels, then audits completeness: the recovered orders
    must multiply to the class number, else the label set cannot exhibit
    the whole group and InsufficientGenerators is raised.  Carried entries
    the chains may not read are checked first (`_check_carried_orders`).
    `norms` are the recovered label norms (`recover_norms`), and `h` the
    class number from `recover_class_number`.
    """
    if h == 1:
        return FinGenAbGroup.trivial()
    odd_labels = [l for l in bundle.labels if norms[l] % 2 == 1]
    odd = frozenset(odd_labels)

    def subgroup_order(key: tuple[str, ...]) -> int:
        return subgroup_order_from_bundle(bundle, key, odd, h)

    _check_carried_orders(bundle, odd, subgroup_order)
    cyclic_orders: list[int] = []
    total = 1
    for p, e in sorted(factorize(h).items()):
        parts = greedy_primary_factors(p, p**e, odd_labels, subgroup_order)
        cyclic_orders.extend(parts)
        for d in parts:
            total *= d
    if total != h:
        raise InsufficientGenerators(
            f"odd-norm labels exhibit a subgroup of order {total}, "
            f"but the class number is {h}; supply more primes"
        )
    return FinGenAbGroup.from_orders(cyclic_orders)


class ZetaData(SlotRecord):
    """Truncated Dirichlet coefficients of the zeta function.

    `coefficients[n-1]` counts the multisets of prime-ideal norms whose
    product is n (that is, ideals of norm n), for n up to the bound.  The
    norms are prime powers: `reconstruct_all` passes norms that
    `recover_norm` has proven.
    """

    __slots__ = ("norms", "bound", "coefficients")

    def __init__(
        self, norms: tuple[int, ...], bound: int, coefficients: tuple[int, ...]
    ) -> None:
        if coefficients[0] != 1:
            raise ValueError("the unit ideal must be counted exactly once")
        self.norms, self.bound, self.coefficients = norms, bound, coefficients


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
    """Zeta data from norms already proven prime powers, not checked again.

    `reconstruct_all` passes the norms `recover_norm` has proven; norms
    from outside the program are checked where they enter.
    """
    norms = tuple(sorted(norms))
    return ZetaData(
        norms=norms,
        bound=bound,
        coefficients=tuple(zeta_coefficients(norms, bound)),
    )


class Verdict(NamedTuple):
    """One comparison of a reconstruction with the ground truth."""

    name: str
    passed: bool
    message: str


class ReconstructionReport(NamedTuple):
    """What a reconstruction recovered, and its verdicts (none when blind)."""

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
    recovered norm; a bound above `errors.MAX_BOUND` raises LimitExceeded
    before the group is reconstructed.  The class number is validated once
    and every norm is recovered, and proven a prime power, once.  Carried
    multi-label entries the closed form rules out raise MalformedBundle
    (`_check_torsion`) before any chain runs.
    """
    h = recover_class_number(bundle)
    norms = recover_norms(bundle, h)
    if zeta_bound is None:
        zeta_bound = max(norms.values(), default=1)
    check_bound(zeta_bound, "zeta bound")
    _check_torsion(bundle, norms, h)
    group = reconstruct_class_group(bundle, norms, h)
    zeta = zeta_data(norms.values(), zeta_bound)
    if group.order() != h:
        raise MalformedBundle("recovered group order disagrees with the rank")
    return ReconstructionReport(
        class_number=h, class_group=group, norms=norms, zeta=zeta, verdicts=()
    )
