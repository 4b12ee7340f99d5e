"""Differential sweep of `reconstruct` over bundle files.

    python tests/sweep_reconstruct.py [--src DIR] [--mutations N] [--seed S]

The corpus is the `invariants -D d --primes 100` output of each discriminant
in `DISCRIMINANTS`, plus N seeded mutations of those files.  A mutation
applies one to three edits:

  * to a carried non-empty-set entry (three in four from a set of two or
    more labels, when the file has one): its torsion m divided by
    gcd(m, r) for r in [2, 1000] or multiplied by k in [2, 12], its summand
    count set to a divisor of h, the entry made trivial, given another
    carried entry's factors, or dropped;
  * to an entry's factor list: some factors written as JSON numbers, one
    replaced by a bool, a float, null, a nested or empty list, a string
    with leading zeros, a negative or an over-long digit string, or the
    list made non-homogeneous;
  * to the label ids of an entry or of the file: a bool, a float, a
    string, an unknown or a repeated id.

Every file runs through an in-process `cli.main(["reconstruct", file])` of
the package under `--src` (by default this checkout's `src`).  The sweep
prints the exit-code tally and one SHA-256 digest over (file name, exit
code, stdout, stderr) of every file, the `invariants` outputs included, so
two trees that give the same digest agree on every file.
`tests/test_reconstruct.py::test_blind_sweep_output_is_unchanged` pins the
digest and tally of the default run; to compare two trees, run the script
once per tree with `--src` and compare the digests.  Importing this module
runs nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

DISCRIMINANTS = (
    -84, -420, -455, -644, -1031, -1319, -2184, -3299, -4231, -5204, -7151,
    -10007, -15431, -23603,
)
PRIMES = 100
OVER_LONG = "7" * 80000  # longer than any factor a bundle may carry


def _run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _int(value, default: int = 2) -> int:
    """A factor's value when it is still a digit string or an int, else `default`."""
    if isinstance(value, str) and value.isdigit() and len(value) < 100:
        return int(value)
    return value if type(value) is int else default


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _edit_entry(doc: dict, rng: random.Random) -> None:
    """One of the closed-form edits, to a carried non-empty-set entry."""
    entries = doc["entries"]
    carried = [e for e in entries if e["labels"]]
    multi = [e for e in carried if len(e["labels"]) > 1]
    entry = rng.choice(multi if multi and rng.random() < 0.75 else carried)
    factors = entry["factors"]
    kind = rng.randrange(6)
    if kind < 2 and factors:
        m = _int(factors[0])
        if kind == 0:
            r = rng.randint(2, 1000)
            while m % r == 0:
                m //= r
        else:
            m *= rng.randint(2, 12)
        entry["factors"] = [str(m)] * len(factors)
    elif kind == 2 and factors:
        entry["factors"] = [factors[0]] * rng.choice(_divisors(doc["rank"]))
    elif kind == 3:
        entry["factors"] = []
    elif kind == 4:
        entry["factors"] = list(rng.choice(carried)["factors"])
    else:
        entries.remove(entry)


def _edit_factors(doc: dict, rng: random.Random) -> None:
    """A mixed-type, odd-valued or non-homogeneous factor list."""
    entry = rng.choice(doc["entries"])
    factors = entry["factors"]
    if not factors:
        factors.append(rng.choice(["2", 2, "1", "0"]))
    i = rng.randrange(len(factors))
    kind = rng.randrange(10)
    if kind == 0:  # the same values, some as JSON numbers
        entry["factors"] = [_int(x, x) if rng.random() < 0.5 else x for x in factors]
    elif kind == 1:
        factors[i] = rng.choice([True, False])
    elif kind == 2:
        factors[i] = float(_int(factors[i]))
    elif kind == 3:
        factors[i] = rng.choice([None, [], [factors[i]], {}])
    elif kind == 4:
        factors[i] = "0" + str(factors[i])
    elif kind == 5:
        factors[i] = "-" + str(factors[i])
    elif kind == 6:
        factors[i] = OVER_LONG
    elif kind == 7:  # one copy of another value
        factors[i] = str(_int(factors[i]) * rng.choice([2, 3, 4]))
    elif kind == 8:
        factors.append(rng.choice(["2", "4", "6", "1", "0"]))
    else:
        entry["factors"] = []


def _edit_ids(doc: dict, rng: random.Random) -> None:
    """A label id the loader must refuse or report."""
    bad = rng.choice([True, 0.0, "0", 10**6, None])
    if rng.random() < 0.2:
        doc["labels"][rng.randrange(len(doc["labels"]))] = bad
        return
    entry = rng.choice([e for e in doc["entries"] if e["labels"]])
    if rng.random() < 0.5:
        entry["labels"] = entry["labels"] + entry["labels"][:1]  # repeated
    else:
        entry["labels"][rng.randrange(len(entry["labels"]))] = bad


def mutate(doc: dict, rng: random.Random) -> dict:
    """A copy of a bundle document with one to three seeded edits."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        rng.choice([_edit_entry, _edit_entry, _edit_factors, _edit_ids])(doc, rng)
    return doc


def sweep(mutations: int, seed: int) -> tuple[str, Counter]:
    """Write the corpus into a temporary directory and run `reconstruct` on it.

    Returns the digest and the exit-code tally.  Call it with the package
    under test importable as `classrecon`.
    """
    from classrecon.cli import main

    digest, codes = hashlib.sha256(), Counter()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # files are named relative to it, so messages hold no path
        try:
            names, docs = [], []
            for d in DISCRIMINANTS:
                name = f"invariants_{-d}.json"
                result = _run(main, ["invariants", "-D", str(d), "--primes", str(PRIMES),
                                     "-o", name])
                digest.update(repr((name, *result, Path(name).read_text())).encode())
                names.append(name)
                docs.append(json.loads(Path(name).read_text()))
            rng = random.Random(seed)
            for i in range(mutations):
                name = f"mutation_{i:05d}.json"
                Path(name).write_text(json.dumps(mutate(rng.choice(docs), rng)))
                names.append(name)
            for name in names:
                result = _run(main, ["reconstruct", name])
                codes[result[0]] += 1
                digest.update(repr((name, *result)).encode())
        finally:
            os.chdir(cwd)
    return digest.hexdigest(), codes


def _main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="the directory holding the classrecon package under test")
    parser.add_argument("--mutations", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=20261020)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    digest, codes = sweep(args.mutations, args.seed)
    tally = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items()))
    print(f"package {sys.modules['classrecon'].__file__}")
    print(f"{sum(codes.values())} files: {tally}")
    print(f"digest {digest}")


if __name__ == "__main__":
    _main()
