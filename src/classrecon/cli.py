"""Command-line front end: one handler per subcommand, and the exit codes.

Subcommands: classgroup, invariants, reconstruct, roundtrip, compare.
The shell stays thin: every verdict printed is the library's verdict.

Each handler imports the modules it runs when it starts, so a call
compiles only those (the package ships no bytecode, and a run with
`PYTHONDONTWRITEBYTECODE=1` caches none).  Importing this module loads
only `errors`, which `main` needs to map exceptions to exit codes.  The
modules each subcommand loads, besides `cli` and `errors`:

  classgroup -D           fields, abgroup
  classgroup --synthetic  fields, abgroup, codec
  invariants, roundtrip,  fields, abgroup, codec, lattice, reconstruct
  compare
  reconstruct             reconstruct, abgroup, codec

So a blind `reconstruct` never loads the producer (`fields`, `lattice`),
and `classgroup -D` loads neither the consumer, the codec nor `json`.
The JSON formats live in `codec`.

There is one argument parser per process: `build_parser` builds it on the
first `main` call, not at import, and every later call reuses it.

Exit codes: 0 success/pass, 1 verdict failure, malformed bundle or internal
contradiction, 2 usage or spec error (including unreadable or non-JSON
input files), 3 insufficient data, an integer too large for the exact
primality test, a discriminant above `errors.MAX_DISCRIMINANT`, a prime,
comparison or zeta bound above `errors.MAX_BOUND`, a synthetic class group
of order above `errors.MAX_SYNTHETIC_ORDER`, or a quotient order above
`errors.MAX_QUOTIENT_BITS` bits.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .errors import (
    BundleEntryMissing,
    DiscriminantTooLarge,
    InsufficientGenerators,
    InternalContradiction,
    InvalidDiscriminant,
    InvalidSyntheticSpec,
    LimitExceeded,
    MalformedBundle,
    PrimalityLimitExceeded,
    UnreadableInput,
)

if TYPE_CHECKING:
    from .fields import FieldSpec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INSUFFICIENT = 3


# -- argument plumbing ------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type for bounds: a bad value is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_spec_args(parser: argparse.ArgumentParser, suffix: str = "") -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        f"-D{suffix}",
        dest=f"discriminant{suffix}",
        type=int,
        help="negative fundamental discriminant of an imaginary quadratic field",
    )
    group.add_argument(
        f"--synthetic{suffix}",
        dest=f"synthetic{suffix}",
        metavar="FILE",
        help="JSON file with a synthetic field spec",
    )


def _spec_from_args(args: argparse.Namespace, suffix: str = "") -> FieldSpec:
    disc = getattr(args, f"discriminant{suffix}")
    if disc is not None:
        from .fields import QuadraticSpec

        return QuadraticSpec(disc)
    from .codec import _read_json, synthetic_spec_from_json

    return synthetic_spec_from_json(_read_json(getattr(args, f"synthetic{suffix}")))


# -- subcommands ------------------------------------------------------------


def cmd_classgroup(args: argparse.Namespace) -> int:
    from .fields import class_group, reduced_forms_of_spec

    spec = _spec_from_args(args)
    forms = reduced_forms_of_spec(spec)
    line = str(class_group(spec))
    if forms is not None:
        line += "; forms: " + ",".join(f"({a},{b},{c})" for a, b, c in forms)
    else:
        line += f"; synthetic primes: {len(spec.primes)}"
    print(line)
    return EXIT_OK


def cmd_invariants(args: argparse.Namespace) -> int:
    from .codec import _write_output, bundle_to_json
    from .fields import class_group, enumerate_prime_ideals
    from .lattice import add_chain_entries, build_bundle

    spec = _spec_from_args(args)
    group = class_group(spec)
    primes = enumerate_prime_ideals(spec, args.primes)
    known = {p.label for p in primes}
    subsets = []
    for raw in args.set or []:
        subset = tuple(s.strip() for s in raw.split(",") if s.strip())
        missing = set(subset) - known
        if missing:
            message = f"unknown labels in --set: {sorted(missing)}"
            return _error(ValueError(message), EXIT_USAGE)
        subsets.append(subset)
    bundle = build_bundle(group, primes, subsets=subsets)
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
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    from .codec import _read_json, _write_output, bundle_from_json, report_to_json
    from .reconstruct import reconstruct_all

    report = reconstruct_all(bundle_from_json(_read_json(args.bundle)), args.zeta)
    _write_output(report_to_json(report), args.output)
    return EXIT_OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    from .codec import _write_output, report_to_json
    from .fields import class_group, enumerate_prime_ideals
    from .lattice import roundtrip

    spec = _spec_from_args(args)
    group = class_group(spec)
    primes = enumerate_prime_ideals(spec, args.primes)
    zeta_bound = args.zeta if args.zeta is not None else args.primes
    report = roundtrip(group, primes, zeta_bound)
    _write_output(report_to_json(report), args.output)
    return EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_compare(args: argparse.Namespace) -> int:
    from .codec import _write_output
    from .lattice import compare_fields

    spec_a = _spec_from_args(args)
    spec_b = _spec_from_args(args, suffix="2")
    result = compare_fields(spec_a, spec_b, args.bound)
    doc = {
        "equivalent": result.equivalent,
        "bound": result.bound,
        "detail": result.describe(),
        "class_group_left": [str(x) for x in result.group_left.factors],
        "class_group_right": [str(x) for x in result.group_right.factors],
    }
    if result.first_zeta_difference:
        n, a, b = result.first_zeta_difference
        doc["first_zeta_difference"] = {"n": n, "left": a, "right": b}
    _write_output(doc, args.output)
    return EXIT_OK if result.equivalent else EXIT_FAIL


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing keeps no state in the parser: every call fills a fresh
    namespace, so one parser serves every `main` call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="classrecon",
        description="Class-group lattice invariants and blind reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", help="print invariant factors and reduced forms")
    _add_spec_args(p)
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("invariants", help="compute quotient invariants into a bundle file")
    _add_spec_args(p)
    p.add_argument("--primes", type=_positive_int, default=50, metavar="X",
                   help="include every prime ideal of norm <= X (default 50)")
    p.add_argument("--set", action="append", metavar="LABELS",
                   help="comma-separated labels; adds the subset's entry (repeatable)")
    p.add_argument("--show-labels", action="store_true",
                   help="print the label-id mapping to stderr")
    p.add_argument("-o", "--output", metavar="FILE", help="write JSON here (default stdout)")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("reconstruct", help="blind reconstruction from a bundle file")
    p.add_argument("bundle", help="bundle JSON file, or - for stdin")
    p.add_argument("--zeta", type=_positive_int, metavar="X",
                   help="zeta truncation bound (default: largest recovered norm)")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="reconstruct blind and compare to ground truth")
    _add_spec_args(p)
    p.add_argument("--primes", type=_positive_int, default=50, metavar="X",
                   help="prime ideal norm bound (default 50)")
    p.add_argument("--zeta", type=_positive_int, metavar="X",
                   help="zeta truncation bound (default: the --primes bound)")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("compare", help="compare two field specs")
    _add_spec_args(p)
    _add_spec_args(p, suffix="2")
    p.add_argument("--bound", type=_positive_int, default=50, metavar="X",
                   help="norm and zeta bound for the comparison (default 50)")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and on usage errors
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (InvalidDiscriminant, InvalidSyntheticSpec, UnreadableInput, OSError) as exc:
        return _error(exc, EXIT_USAGE)
    except (
        InsufficientGenerators,
        BundleEntryMissing,
        PrimalityLimitExceeded,
        DiscriminantTooLarge,
        LimitExceeded,
    ) as exc:
        return _error(exc, EXIT_INSUFFICIENT)
    except (MalformedBundle, InternalContradiction) as exc:
        return _error(exc, EXIT_FAIL)


def _error(exc: Exception, code: int) -> int:
    """Print the error on one line of stderr and return its exit code."""
    print("error: " + " ".join(str(exc).split()), file=sys.stderr)
    return code


# The benchmark (`perfbench/`) reads these names from this module.  They
# resolve on first access, so importing `cli` loads neither side.  ROADMAP
# item 1, the next change to the benchmark, re-points it to the names'
# homes and deletes this hook.
_FROM_CODEC = (
    "bundle_from_json",
    "bundle_to_json",
    "report_to_json",
    "synthetic_spec_from_json",
)


def __getattr__(name: str):
    if name in _FROM_CODEC:
        from . import codec

        return getattr(codec, name)
    if name == "reconstruct_all":
        from .reconstruct import reconstruct_all

        return reconstruct_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
