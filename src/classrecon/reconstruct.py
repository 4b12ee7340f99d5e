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
graph: nothing the producer knows (`forms`, `fields`, `lattice`) is
loaded by a blind `reconstruct`.  `lattice.build_bundle` erases the labels, and the
round-trip and comparison drivers that hold the ground truth live there.
"""

from __future__ import annotations

from functools import partial
from math import prod
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .abgroup import (
    FinGenAbGroup,
    brief,
    check_bound,
    factorize,
    integer_nth_root,
    is_prime_power,
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
        unknown = set().union(*entries) - label_set
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


def _shape(factors: tuple[int, ...], key: Iterable[str], h: int) -> tuple[int, int] | None:
    """Read an entry as s copies of Z/m: (m, s), or None when it is trivial.

    Anything else is not arithmetic data: free summands, unequal torsion, or
    a summand count s that does not divide the class number `h`.
    """
    if not factors:
        return None
    # canonical factors ascend with the free summands last: the ends decide
    if factors[0] != factors[-1] or factors[-1] == 0:
        raise MalformedBundle(
            f"entry for {sorted(key)} is not homogeneous torsion: {brief(factors)}"
        )
    if h % len(factors):
        raise MalformedBundle(
            f"summand count {len(factors)} for {sorted(key)} does not divide "
            f"the class number {h}"
        )
    return factors[0], len(factors)


def recover_norm(factors: tuple[int, ...], label: str, h: int) -> int:
    """Invert the one-prime closed form: read N off a singleton entry.

    `factors` are the invariant factors of the entry of `label`, and `h` is
    the class number.  A singleton entry is s copies of Z/t with
    s * ord = class number and t + 1 = N**ord; the exact ord-th root gives
    N, which must be a prime power.  A trivial entry forces N**ord = 2,
    hence N = 2.  Anything else is not arithmetic data.
    """
    shape = _shape(factors, (label,), h)
    if shape is None:
        return 2
    t, s = shape
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


def recover_norms(bundle: InvariantBundle) -> dict[str, int]:
    """The norm behind every label, reading each singleton entry once.

    The class number is the bundle's rank, which `recover_class_number`
    has checked.  A singleton entry decides its norm, so `recover_norm`
    runs once per distinct entry, at its first label: the two primes above
    a split prime have inverse classes, hence equal entries, and share one
    root.
    """
    norm_of = {}  # each distinct singleton entry's norm
    norms = {}
    for label in bundle.labels:
        factors = bundle.entry((label,)).factors
        if factors not in norm_of:
            norm_of[factors] = recover_norm(factors, label, bundle.rank)
        norms[label] = norm_of[factors]
    return norms


def subgroup_order_from_bundle(bundle: InvariantBundle, labels: Iterable[str]) -> int:
    """Order of the subgroup generated by the classes behind odd-norm labels.

    The entry for F is homogeneous with one summand per coset, so the
    summand count is the subgroup index; dividing the class number, the
    bundle's rank, gives the subgroup order.  The labels must be a
    non-empty set of odd recovered norm, as `reconstruct_class_group` picks
    them.  The entry is not re-checked: a singleton was shaped by
    `recover_norm`, and a carried larger set by `_check_torsion`, whose
    parity rule refuses it when trivial.
    """
    return bundle.rank // len(bundle.entry(labels).factors)


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n (for n >= 1, p prime).

    >>> p_part(12, 2)
    4
    >>> p_part(40, 5)
    5
    >>> p_part(1, 7)
    1
    """
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if p < 2:
        raise ValueError(f"expected a prime, got {p}")
    result = 1
    while n % p == 0:
        n //= p
        result *= p
    return result


def greedy_primary_factors(
    p: int,
    p_order: int,
    candidates: Sequence[str],
    subgroup_order: Callable[[tuple[str, ...]], int],
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
        each capped at that p-part, ties in candidate order, and stops once
        the best gain read is at least the next bound.

    Each pass picks the first maximizer it queried; any maximizer gives the
    same factors.  Which sets are queried depends only on the candidate
    order and the values read, so a producer that runs the chain and a
    consumer that reruns it on the written entries ask for the same sets.
    The order of each set read must be a multiple of the chain's order, as
    the caller decides: for a bundle file `_check_torsion` does, since the
    chain's set was read, and so carried, a pass before.
    """
    chain: list[str] = []
    chain_order = 1
    out: list[int] = []
    left = p_order  # the p-part the picks have yet to reach
    bound = dict.fromkeys(candidates, p_order)
    while left > 1 and bound:
        best_val = 1
        # the capped bounds, in one table: a stable sort on it keeps ties in
        # candidate order, and no key function runs per candidate
        key = {c: b if b < left else left for c, b in bound.items()}
        for c in sorted(bound, key=key.__getitem__, reverse=True):
            if best_val >= key[c]:
                break
            order = subgroup_order(tuple(chain) + (c,))
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
                best_val, best, best_order = val, c, order
        if best_val == 1:
            break
        del bound[best]
        chain.append(best)
        chain_order = best_order
        out.append(best_val)
        left //= best_val
    return out


def _check_torsion(bundle: InvariantBundle, norms: Mapping[str, int]) -> None:
    """Refuse carried multi-label entries that the closed form rules out.

    The entry of a label set F is s_F copies of Z/m_F, where s_F is the
    index [Cl : H_F] of the subgroup the classes of F generate and m_F the
    gcd of terms N(p)**k - 1 (the `lattice` docstring).  A subset G of F
    generates a subgroup of H_F and enters fewer terms, so

      * m_F divides m_G and s_F divides s_G;
      * m_F is even when every norm in F is odd, since every term is even.

    Every carried F of two or more labels, whatever its parities, is checked
    against its singletons and its carried sets F - {x}.  A trivial entry
    has m = 1 and shows no summand count, except a trivial singleton: its
    norm is 2, so ord = 1 and s = h, the class number (the bundle's rank).
    A bundle read from a file computes no entry, so every entry the chains
    read from it is carried and checked here.
    """
    h = bundle.rank
    carried = bundle.entries  # every singleton is in it by now
    for key, group in carried.items():
        if len(key) < 2:
            continue
        m, s = _shape(group.factors, key, h) or (1, 0)
        subs = [frozenset((l,)) for l in sorted(key)]
        if len(key) > 2:
            subs += [key - {x} for x in sorted(key) if key - {x} in carried]
        for sub in subs:
            m_g, s_g = _shape(carried[sub].factors, sub, h) or (1, h if len(sub) == 1 else 0)
            name = sorted(sub) if len(sub) > 1 else min(sub)
            if m_g % m:
                raise MalformedBundle(
                    f"torsion {brief(m)} of {sorted(key)} does not divide "
                    f"{brief(m_g)}, the torsion of {name}"
                )
            if s and s_g % s:
                raise MalformedBundle(
                    f"summand count {s} of {sorted(key)} does not divide {s_g}, "
                    f"the summand count of {name}"
                )
        if m % 2 and all(norms[l] % 2 for l in key):
            raise MalformedBundle(
                f"torsion {brief(m)} of the odd-norm set {sorted(key)} is not even"
            )


def reconstruct_class_group(
    bundle: InvariantBundle, norms: Mapping[str, int]
) -> FinGenAbGroup:
    """Isomorphism type of the class group, from the bundle alone.

    Picks the odd-norm labels, the only ones a chain may read, and runs the
    greedy chain over them for every prime dividing the class number (none
    when it is 1, which gives the trivial group).  Then it audits
    completeness: the recovered orders must multiply to the class number,
    else the label set cannot exhibit the whole group and
    InsufficientGenerators is raised.  This is the one place that decides
    whether the supplied primes exhibit all of Cl.  The chains re-check
    nothing they read but that each gain divides its bound, so the bundle
    must be a producer's or one that `_check_torsion` has accepted, as in
    `reconstruct_without_zeta`.  `norms` are the recovered label norms
    (`recover_norms`), and the class number is the bundle's rank.
    """
    h = bundle.rank
    odd_labels = [l for l in bundle.labels if norms[l] % 2]
    subgroup_order = partial(subgroup_order_from_bundle, bundle)
    cyclic_orders: list[int] = []
    for p, e in sorted(factorize(h).items()):
        cyclic_orders += greedy_primary_factors(p, p**e, odd_labels, subgroup_order)
    total = prod(cyclic_orders)
    if total != h:
        raise InsufficientGenerators(
            f"odd-norm labels exhibit a subgroup of order {total}, "
            f"but the class number is {h}; supply more primes"
        )
    return FinGenAbGroup.from_orders(cyclic_orders)


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
        for k in range(n, bound + 1, n):  # none when n > bound
            a[k] += a[k // n]
    return a[1:]


class Verdict(NamedTuple):
    """One comparison of a reconstruction with the ground truth."""

    name: str
    passed: bool
    message: str


class ReconstructionReport(NamedTuple):
    """What a reconstruction recovered, and its verdicts (none when blind).

    `zeta` holds the truncated Dirichlet coefficients a_1..a_B of the zeta
    function: `zeta[n-1]` counts the ideals of norm n, and the truncation
    bound B is `len(zeta)`.
    """

    class_number: int
    class_group: FinGenAbGroup
    norms: Mapping[str, int]
    zeta: tuple[int, ...]
    verdicts: tuple[Verdict, ...]

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def reconstruct_without_zeta(
    bundle: InvariantBundle, zeta_bound: int | None = None
) -> tuple[ReconstructionReport, int]:
    """Everything a blind reconstruction does before the zeta sieve.

    Returns the report with no zeta coefficients yet, and their bound:
    `zeta_bound`, by default the largest recovered norm.  A bound above
    `errors.MAX_BOUND` raises LimitExceeded before the group is
    reconstructed.  The class number is validated once and every norm is
    recovered, and proven a prime power, once.  Then one audit refuses,
    with MalformedBundle, every carried multi-label entry the closed form
    rules out (`_check_torsion`), before any chain runs.  A caller that
    refuses a bound the bundle cannot back, as `reconstruct --zeta` does,
    decides it between this and the sieve, so it costs no sieve and every
    refusal here keeps its precedence.
    """
    h = recover_class_number(bundle)
    norms = recover_norms(bundle)
    if zeta_bound is None:
        zeta_bound = max(norms.values(), default=1)
    check_bound(zeta_bound, "zeta bound")
    _check_torsion(bundle, norms)
    group = reconstruct_class_group(bundle, norms)
    return ReconstructionReport(h, group, norms, (), ()), zeta_bound


def reconstruct_all(
    bundle: InvariantBundle, zeta_bound: int | None = None
) -> ReconstructionReport:
    """Full blind reconstruction: class number, group, norms, zeta data.

    `reconstruct_without_zeta`, then the zeta coefficients up to its bound.
    """
    report, zeta_bound = reconstruct_without_zeta(bundle, zeta_bound)
    return report._replace(zeta=tuple(zeta_coefficients(report.norms.values(), zeta_bound)))
