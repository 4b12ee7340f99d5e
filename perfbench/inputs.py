"""Seeded input generation for the three workloads.

Everything here runs outside timing.  The same seed gives the same inputs,
and every generated input is recorded in the result so a run can be
replayed.  Class numbers are found by counting reduced forms directly, so
the generator does not depend on the package's own class-group code.
"""

from __future__ import annotations

import random
from math import isqrt

# Round-trip rungs from the ROADMAP ladder (h = 4, 35, 77).
LADDER_RUNGS = (-84, -1031, -10007)
LADDER_PRIME_BOUND = 100
# Synthetic non-cyclic spec: Z/2 x Z/4 x Z/8 over 13 odd norms and norm 2.
SYNTHETIC_FACTORS = (2, 4, 8)
SYNTHETIC_ODD_NORMS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# `invariants` inputs.  The cost of one field swings with which norms its
# chain and sets touch, so a round runs many fields drawn from a small
# fixed population: fields with |D| prime in [1000, 40000], h = 47 and
# 25-29 labels (11 fields).  That keeps the cost of a round similar from
# seed to seed.
INVARIANTS_FIELDS = 6
INVARIANTS_RANGE = (1000, 40000)
INVARIANTS_H = 47
INVARIANTS_LABEL_BAND = (25, 29)
INVARIANTS_SETS = 3

# `blind` bundle files: h with several prime factors or a non-cyclic group
# (Z/35, Z/3 x Z/9, Z/2 x Z/12, Z/30, Z/2 x Z/2 x Z/6), with many labels.
# An odd count keeps the median inside one file's cost.  (D, prime bound)
BLIND_FILES = ((-1031, 400), (-3299, 300), (-2408, 200), (-2036, 200), (-2184, 120))

# `cli` inputs.  Large fields have |D| prime, so h is odd and the group is
# almost always cyclic, and h in a narrow band, so the O(h^2) model build
# costs about the same for every field.  At h near 300 the build is about
# two thirds of a call; larger h made the scaled times spread more.
CLI_SMALL_POOL = 6
CLI_SMALL_RANGE = (20, 3000)
CLI_SMALL_BUNDLE_BOUND = 50
CLI_LARGE_FIELDS = 3
CLI_LARGE_H_BAND = (297, 303)
CLI_LARGE_RANGE = (200_000, 1_500_000)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def is_fundamental(d: int) -> bool:
    """Whether d is a negative fundamental discriminant."""
    if d >= 0:
        return False
    if d % 4 == 1:
        m = -d
    elif d % 16 in (8, 12):
        m = -d // 4
    else:
        return False
    k = 2
    while k * k <= m:
        if m % (k * k) == 0:
            return False
        k += 1
    return True


def count_reduced_forms(d: int) -> int:
    """Class number of a negative fundamental discriminant d < -4.

    Counts the reduced forms (a, b, c): |b| <= a <= c, b >= 0 when
    |b| = a or a = c, b = d mod 2.
    """
    count = 0
    for a in range(1, isqrt(-d // 3) + 1):
        b = -a + 1
        if (b - d) % 2:
            b += 1
        four_a = 4 * a
        while b <= a:
            num = b * b - d
            if num % four_a == 0:
                c = num // four_a
                if c > a or (c == a and b >= 0):
                    count += 1
            b += 2
    return count


_EULER_PRIMES = [q for q in range(2, 200) if is_prime(q)]


def estimated_class_number(d: int) -> float:
    """h(d) from the class number formula with L(1) truncated at q < 200.

    Within about 5% for |d| near 10^6; used only to skip form counts for
    fields that cannot be in a band.
    """
    l_value = 1.0
    for q in _EULER_PRIMES:
        if q == 2:
            chi = 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
        else:
            r = pow(d % q, (q - 1) // 2, q)
            chi = 0 if r == 0 else (1 if r == 1 else -1)
        l_value /= 1 - chi / q
    return isqrt(-d) / 3.141592653589793 * l_value


def draw_fields(rng: random.Random, lo: int, hi: int, band: tuple[int, int], n: int,
                prime_only: bool = False) -> list[dict]:
    """n distinct fundamental discriminants in [-hi, -lo] with h in band.

    With prime_only, only D = -p for primes p = 3 mod 4 are drawn.
    """
    out: dict[int, int] = {}
    while len(out) < n:
        d = -rng.randrange(lo, hi)
        if d in out or not is_fundamental(d) or (prime_only and not is_prime(-d)):
            continue
        if not band[0] / 1.1 <= estimated_class_number(d) <= band[1] * 1.1:
            continue
        h = count_reduced_forms(d)
        if band[0] <= h <= band[1]:
            out[d] = h
    return [{"D": d, "h": h} for d, h in out.items()]


def invariants_population(field_info) -> list[int]:
    """Every field of the `invariants` population, in ascending |D|."""
    lo, hi = INVARIANTS_LABEL_BAND
    out = []
    for p in range(INVARIANTS_RANGE[0] | 3, INVARIANTS_RANGE[1], 4):
        if is_prime(p) and count_reduced_forms(-p) == INVARIANTS_H:
            info = field_info(-p, LADDER_PRIME_BOUND)
            if info["generates"] and lo <= len(info["labels"]) <= hi:
                out.append(-p)
    return out


def _rand_elem(rng: random.Random) -> list[int]:
    return [rng.randrange(f) for f in SYNTHETIC_FACTORS]


def _span(gens: list[list[int]]) -> int:
    """Order of the subgroup of Z/2 x Z/4 x Z/8 generated by gens."""
    seen = {(0, 0, 0)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % f for a, b, f in zip(x, g, SYNTHETIC_FACTORS))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def _apply(images: list[list[int]], x: list[int]) -> list[int]:
    """The image of x under the homomorphism sending e_k to images[k]."""
    return [sum(c * img[j] for c, img in zip(x, images)) % f
            for j, f in enumerate(SYNTHETIC_FACTORS)]


def synthetic_spec(rng: random.Random) -> dict:
    """A seeded Z/2 x Z/4 x Z/8 spec in the CLI's JSON format.

    The classes are one fixed assignment moved by a seeded automorphism of
    the group.  An automorphism only relabels the group elements, so every
    seed asks for the same quotients up to a permutation of the lattice
    basis, at a similar cost.  In the fixed assignment the classes of
    norms 3, 5 and 7 extend a chain of subgroup orders 8, 32, 64, so the
    greedy chain picks them first.
    """
    base_rng = random.Random("synthetic-base")
    base: list[list[int]] = []
    for target in (8, 32, 64):
        while True:
            g = _rand_elem(base_rng)
            if _span(base + [g]) == target:
                base.append(g)
                break
    base += [_rand_elem(base_rng) for _ in range(len(SYNTHETIC_ODD_NORMS) - 2)]
    while True:
        # e_k (of order f_k) may go to any element whose order divides f_k;
        # the map is an automorphism when the images generate the group.
        images = []
        for order in SYNTHETIC_FACTORS:
            while True:
                g = _rand_elem(rng)
                if all(order * x % f == 0 for x, f in zip(g, SYNTHETIC_FACTORS)):
                    images.append(g)
                    break
        if _span(images) == 64:
            break
    classes = [_apply(images, c) for c in base]
    norms = SYNTHETIC_ODD_NORMS + (2,)
    primes = [
        {"norm": str(q), "class": c, "residue_char": str(q), "label": f"s{i}"}
        for i, (q, c) in enumerate(zip(norms, classes))
    ]
    return {"invariant_factors": [str(f) for f in SYNTHETIC_FACTORS], "primes": primes}


def mixed_sets(rng: random.Random, labels: list[tuple[str, int]], n: int) -> list[list[str]]:
    """n distinct label sets, each two odd-norm labels and one even-norm label."""
    odd = [l for l, norm in labels if norm % 2]
    even = [l for l, norm in labels if norm % 2 == 0]
    order = {l: i for i, (l, _) in enumerate(labels)}
    out: list[list[str]] = []
    while len(out) < n:
        s = sorted(rng.sample(odd, 2) + [rng.choice(even)], key=order.__getitem__)
        if s not in out:
            out.append(s)
    return out


def generate(workload: str, seed: int, field_info) -> dict:
    """Inputs for one run.

    field_info(D, bound) -> {"labels": [(label, norm), ...], "generates":
    bool}, where "generates" says whether the odd-norm prime classes
    generate the class group (else blind reconstruction cannot finish).
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ladder":
        fields = []
        for d in rng.sample(invariants_population(field_info), INVARIANTS_FIELDS):
            labels = field_info(d, LADDER_PRIME_BOUND)["labels"]
            fields.append({"D": d, "h": INVARIANTS_H,
                           "sets": mixed_sets(rng, labels, INVARIANTS_SETS)})
        return {
            "prime_bound": LADDER_PRIME_BOUND,
            "roundtrip": [{"D": d} for d in LADDER_RUNGS]
            + [{"synthetic": synthetic_spec(rng)}],
            "invariants": fields,
        }
    if workload == "blind":
        return {
            "files": [{"D": d, "bound": x} for d, x in BLIND_FILES],
            "order_seed": rng.randrange(2**32),
        }
    if workload == "cli":
        small = draw_fields(rng, *CLI_SMALL_RANGE, (0, 10**9), CLI_SMALL_POOL)
        bundle_field = next(
            (f["D"] for f in small if field_info(f["D"], CLI_SMALL_BUNDLE_BOUND)["generates"]),
            -84,
        )
        return {
            "small": small,
            "small_bundle": {"D": bundle_field, "bound": CLI_SMALL_BUNDLE_BOUND},
            "large": draw_fields(rng, *CLI_LARGE_RANGE, CLI_LARGE_H_BAND, CLI_LARGE_FIELDS,
                                 prime_only=True),
        }
    raise ValueError(f"unknown workload {workload!r}")
