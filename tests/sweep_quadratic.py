"""Differential sweep of the quadratic producer commands.

    python tests/sweep_quadratic.py [--src DIR] [--count N] [--seed S]

The corpus is `FIXED`, the discriminants every build shape must keep,
plus N seeded fundamental discriminants in (-10**6, -3): four in five
with |D| < 20000, the rest above.  For each D, in order, it runs
`classgroup -D d`, `roundtrip -D d --primes 60` and `invariants -D d
--primes 60 --set LABELS -o FILE`, where LABELS are up to three labels
drawn from the norms that the `roundtrip` report names (`p_2` when it
names none).

Every command runs through an in-process `cli.main` of the package under
`--src` (by default this checkout's `src`).  The sweep prints the
exit-code tally and one SHA-256 digest over (argv, exit code, stdout,
stderr, text of the file written or None) of every command, so two trees
that give the same digest agree on every byte.
`tests/test_fields.py::test_quadratic_sweep_output_is_unchanged` pins the
digest and tally of the default run; to compare two trees, run the script
once per tree with `--src` and compare the digests.  Importing this module
runs nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

from sweep_reconstruct import _run

# Class number one, four non-cyclic groups, and the six `invariants` fields
# of the benchmark's `ladder` workload at seed 1.
FIXED = (
    -3, -4, -7, -8, -11, -19, -43, -67, -163,
    -84, -420, -2184, -3299,
    -3023, -33083, -19207, -7927, -32603, -23603,
)
PRIMES = "60"


def _is_fundamental(d: int) -> bool:
    """Whether d < 0 is a fundamental discriminant, by trial division."""
    m = -d if d % 4 == 1 else -d // 4 if d % 16 in (8, 12) else 0
    if m == 0:
        return False
    q = 2 if d % 4 == 1 else 3
    while q * q <= m:
        if m % (q * q) == 0:
            return False
        q += 1 if q == 2 else 2
    return True


def discriminants(count: int, seed: int) -> list[int]:
    """`FIXED`, then `count` distinct seeded fundamental discriminants."""
    rng = random.Random(seed)
    out = list(FIXED)
    while len(out) < len(FIXED) + count:
        top = 20_000 if rng.random() < 0.8 else 10**6
        d = -rng.randrange(4, top)
        if d not in out and _is_fundamental(d):
            out.append(d)
    return out


def sweep(count: int, seed: int) -> tuple[str, Counter]:
    """Run the three commands on each discriminant in a temporary directory.

    Returns the digest and the exit-code tally.  Call it with the package
    under test importable as `classrecon`.
    """
    from classrecon.cli import main

    digest, codes = hashlib.sha256(), Counter()
    rng = random.Random(seed)
    cwd = os.getcwd()

    def record(argv: list[str], name: str | None = None) -> tuple[int, str, str]:
        result = _run(main, argv)
        text = Path(name).read_text() if name and Path(name).exists() else None
        codes[result[0]] += 1
        digest.update(repr((argv, *result, text)).encode())
        return result

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # files are named relative to it, so messages hold no path
        try:
            for d in discriminants(count, seed):
                record(["classgroup", "-D", str(d)])
                code, out, _ = record(["roundtrip", "-D", str(d), "--primes", PRIMES])
                labels = sorted(json.loads(out)["norms"]) if code == 0 else []
                chosen = rng.sample(labels, min(3, len(labels))) or ["p_2"]
                name = f"invariants_{-d}.json"
                record(["invariants", "-D", str(d), "--primes", PRIMES,
                        "--set", ",".join(chosen), "-o", name], name)
        finally:
            os.chdir(cwd)
    return digest.hexdigest(), codes


def _main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="the directory holding the classrecon package under test")
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--seed", type=int, default=20261021)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    digest, codes = sweep(args.count, args.seed)
    tally = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items()))
    print(f"package {sys.modules['classrecon'].__file__}")
    print(f"{sum(codes.values())} commands: {tally}")
    print(f"digest {digest}")


if __name__ == "__main__":
    _main()
