"""Shared builders for the test suite: random groups, primes, synthetic specs,
the documents that the output file writers are checked against, and
reference copies of the bundle loader and the greedy chain, written the
plain way, that the fast ones are checked against."""

from __future__ import annotations

import random
from typing import Any, Callable, Sequence

from sympy import primefactors

from classrecon.abgroup import FinGenAbGroup, is_canonical
from classrecon.codec import (
    BUNDLE_VERSION,
    _decimal,
    _is_int,
    _json_factor,
    _json_int,
    _json_list,
)
from classrecon.errors import MalformedBundle
from classrecon.fields import PrimeIdealDatum, SyntheticSpec, synthetic_spec_from_json
from classrecon.lattice import ComparisonResult, build_bundle, index_and_relations
from classrecon.oracle import ClassGroupModel, Matrix
from classrecon.reconstruct import InvariantBundle, ReconstructionReport, p_part

ODD_PRIME_POWERS = [
    3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
    53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101,
]


def z2_model() -> ClassGroupModel:
    return ClassGroupModel(FinGenAbGroup.from_orders([2]))


def matrix_product(*factors: Matrix) -> Matrix:
    """The product of non-empty integer matrices given by their rows, left to right."""
    rows = tuple(map(tuple, factors[0]))
    for m in factors[1:]:
        assert len(rows[0]) == len(m), "dimension mismatch in matrix product"
        rows = tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*m)) for row in rows
        )
    return rows


def zero(group: FinGenAbGroup) -> tuple[int, ...]:
    """The identity of a group, as reduced coordinates."""
    return (0,) * len(group.factors)


def neg(group: FinGenAbGroup, a: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a group element, as reduced coordinates."""
    return group.element([-x for x in a])


def datum(label: str, norm: int, cls: tuple[int, ...], char: int | None = None) -> PrimeIdealDatum:
    if char is None:
        char = min(primefactors(norm))
    return PrimeIdealDatum(label=label, norm=norm, cls=cls, residue_char=char)


def load_spec(spec: SyntheticSpec) -> SyntheticSpec:
    """`spec` written as its spec document and read back by the one loader,
    which refuses it if it is invalid."""
    return synthetic_spec_from_json({
        "invariant_factors": [str(x) for x in spec.factors],
        "primes": [
            {"label": p.label, "norm": str(p.norm), "class": list(p.cls),
             "residue_char": str(p.residue_char)}
            for p in spec.primes
        ],
    })


def bundle_carrying(
    group: FinGenAbGroup, primes: Sequence[PrimeIdealDatum], sets: Sequence[Sequence[str]] = ()
) -> InvariantBundle:
    """A bundle of these primes that holds the entries of the empty set, every
    singleton and `sets`, and no other yet."""
    bundle = build_bundle(group, primes)
    for key in [(), *((p.label,) for p in primes), *sets]:
        bundle.entry(key)
    return bundle


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
        if index_and_relations(family, group.factors)[0] == 1:
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


def reference_bundle_doc(bundle: InvariantBundle) -> dict[str, Any]:
    """The document a bundle file holds, with labels replaced by opaque integers.

    Entries are sorted by label count, then by their sorted label ids;
    `lattice.bundle_to_json(bundle)` must be exactly
    `json.dumps(reference_bundle_doc(bundle), indent=2, sort_keys=True)`.
    """
    id_of = {label: i for i, label in enumerate(bundle.labels)}
    rows = sorted(
        (len(key), sorted(id_of[l] for l in key), [_decimal(x) for x in group.factors])
        for key, group in bundle.entries.items()
    )
    return {
        "version": BUNDLE_VERSION,
        "rank": bundle.rank,
        "labels": list(range(len(bundle.labels))),
        "entries": [{"labels": labels, "factors": strings} for _, labels, strings in rows],
    }


def reference_report_doc(report: ReconstructionReport) -> dict[str, Any]:
    """The document a report file holds.

    `codec.report_text(report)` must be exactly
    `json.dumps(reference_report_doc(report), indent=2, sort_keys=True)`.
    Group factors and norms are decimal strings of any length.
    """
    return {
        "class_number": report.class_number,
        "class_group_factors": [_decimal(x) for x in report.class_group.factors],
        "norms": {str(k): _decimal(v) for k, v in report.norms.items()},
        "zeta": {"bound": len(report.zeta), "coefficients": list(report.zeta)},
        "verdicts": [
            {"name": v.name, "pass": v.passed, "message": v.message}
            for v in report.verdicts
        ],
    }


def reference_comparison_doc(result: ComparisonResult) -> dict[str, Any]:
    """The document a compare result file holds.

    `lattice.comparison_text(result)` must be exactly
    `json.dumps(reference_comparison_doc(result), indent=2, sort_keys=True)`.
    """
    doc = {
        "equivalent": result.equivalent,
        "bound": result.bound,
        "detail": result.describe(),
        "class_group_left": [_decimal(x) for x in result.group_left.factors],
        "class_group_right": [_decimal(x) for x in result.group_right.factors],
    }
    if result.first_zeta_difference:
        n, a, b = result.first_zeta_difference
        doc["first_zeta_difference"] = {"n": n, "left": a, "right": b}
    return doc


def _reference_label_ids(value: Any, what: str) -> list[int]:
    ids = _json_list(value, what, MalformedBundle)
    if not all(_is_int(i) for i in ids):
        raise MalformedBundle(f"{what} must be integers")
    return ids


def reference_bundle_from_json(doc: Any) -> InvariantBundle:
    """`codec.bundle_from_json` as a plain loop: every factor read one by one.

    Each distinct factor string is converted once per file, every factor
    list goes through the same per-factor loop, and each entry is checked
    on its own, so every group, message and refusal order of the fast
    loader must be this one's.
    """
    if not isinstance(doc, dict):
        raise MalformedBundle("a bundle file must hold a JSON object")
    version = doc.get("version")
    if not (_is_int(version) and version == BUNDLE_VERSION):
        raise MalformedBundle(f"unsupported bundle version {version!r:.40}")
    rank = _json_int(doc.get("rank"), "rank", MalformedBundle)
    ids = _reference_label_ids(doc.get("labels"), "labels")
    labels = tuple(map(str, ids))
    names = dict(zip(ids, labels))
    read: dict[str, int] = {}
    entries: dict[frozenset[str], FinGenAbGroup] = {}
    for item in _json_list(doc.get("entries"), "entries", MalformedBundle):
        if not isinstance(item, dict):
            raise MalformedBundle("every entry must be a JSON object")
        keys = [
            names.get(i) or str(i)
            for i in _reference_label_ids(item.get("labels"), "entry labels")
        ]
        key = frozenset(keys)
        if len(key) != len(keys):
            raise MalformedBundle(f"entry labels {sorted(keys)} repeat a label")
        if key in entries:
            raise MalformedBundle(f"two entries for labels {sorted(key)}")
        factors = []
        for x in _json_list(item.get("factors"), "entry factors", MalformedBundle):
            if isinstance(x, str):
                if x not in read:
                    read[x] = _json_factor(x)
                factors.append(read[x])
            else:
                factors.append(_json_factor(x))
        factors = tuple(factors)
        if is_canonical(factors):
            entries[key] = FinGenAbGroup.trusted(factors)
            continue
        try:
            entries[key] = FinGenAbGroup(factors)
        except ValueError as exc:
            raise MalformedBundle(f"entry {sorted(key)}: {exc}") from None
    bundle = InvariantBundle(rank=rank, labels=labels, entries=entries)
    if frozenset() not in entries:
        raise MalformedBundle("bundle file lacks the empty-set entry")
    for label in labels:
        if frozenset({label}) not in entries:
            raise MalformedBundle(f"bundle file lacks the singleton entry for {label}")
    return bundle


def reference_greedy_primary_factors(
    p: int,
    p_order: int,
    candidates: Sequence[str],
    subgroup_order: Callable[[tuple[str, ...]], int],
) -> list[int]:
    """`reconstruct.greedy_primary_factors` with each pass sorted by a key
    function, `-min(bound, left)` per candidate: the order the fast chain's
    passes must query in, and its factors and refusals."""
    chain: list[str] = []
    chain_order = 1
    out: list[int] = []
    left = p_order
    bound = dict.fromkeys(candidates, p_order)
    while left > 1 and bound:
        best_val, best = 1, ""
        orders: dict[str, int] = {}
        for c in sorted(bound, key=lambda c: -min(bound[c], left)):
            if best_val >= min(bound[c], left):
                break
            orders[c] = subgroup_order(tuple(chain) + (c,))
            val = p_part(orders[c] // chain_order, p)
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
                best_val, best = val, c
        if best_val == 1:
            break
        del bound[best]
        chain.append(best)
        chain_order = orders[best]
        out.append(best_val)
        left //= best_val
    return out
