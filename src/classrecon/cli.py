"""Command-line front end and file formats.

Subcommands: classgroup, invariants, reconstruct, roundtrip, compare.
The shell stays thin: every verdict printed is the library's verdict.

Bundle and report files are JSON.  All potentially large integers (group
factors, norms) are serialized as decimal strings; labels in bundle files
are opaque consecutive integers so the files carry no arithmetic hints.
Bundle factors may run past CPython's limit on int/str conversion (4300
digits by default); the codec converts them in chunks below that limit, so
the interpreter-wide setting is never changed.

Each file type has one validating loader (`bundle_from_json`,
`synthetic_spec_from_json`) that turns any defect into its one-line error.

Exit codes: 0 success/pass, 1 verdict failure, malformed bundle or internal
contradiction, 2 usage or spec error (including unreadable or non-JSON
input files), 3 insufficient data, an integer too large for the exact
primality test, a discriminant above `fields.MAX_DISCRIMINANT`, a prime,
comparison or zeta bound above `fields.MAX_BOUND`, a synthetic class group
of order above `fields.MAX_SYNTHETIC_ORDER`, or a quotient order above
`lattice.MAX_QUOTIENT_BITS` bits.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import log10
from typing import Any, Sequence

from .abgroup import FinGenAbGroup, PrimalityLimitExceeded, is_prime_power
from .fields import (
    DiscriminantTooLarge,
    FieldSpec,
    InvalidDiscriminant,
    InvalidSyntheticSpec,
    LimitExceeded,
    NonPrimePowerNorm,
    QuadraticSpec,
    SyntheticSpec,
    class_group,
    enumerate_prime_ideals,
    reduced_forms_of_spec,
    validate_synthetic,
)
from .lattice import MAX_QUOTIENT_BITS, InternalContradiction, PrimeIdealDatum
from .reconstruct import (
    BundleEntryMissing,
    InsufficientGenerators,
    InvariantBundle,
    MalformedBundle,
    ReconstructionReport,
    build_bundle,
    compare_fields,
    reconstruct_all,
    roundtrip,
)

BUNDLE_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INSUFFICIENT = 3


class UnreadableInput(Exception):
    """An input file does not hold a JSON document."""


# -- file formats -----------------------------------------------------------

# Every int/str conversion of at most 640 digits is exempt from CPython's
# conversion limit, whatever it is set to.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS
# No quotient this package writes has a longer factor.
_MAX_FACTOR_DIGITS = int(MAX_QUOTIENT_BITS * log10(2)) + 1


def _decimal(n: int) -> str:
    """str(n) for a non-negative n of any size, split at powers of ten."""
    if n < _CHUNK:
        return str(n)
    power, digits = _CHUNK, _CHUNK_DIGITS
    while power * power <= n:
        power, digits = power * power, 2 * digits
    high, low = divmod(n, power)
    return _decimal(high) + _decimal(low).zfill(digits)


def _from_decimal(text: str) -> int:
    """int(text) for a string of ASCII digits of any length."""
    if len(text) <= _CHUNK_DIGITS:
        return int(text)
    half = len(text) // 2
    return _from_decimal(text[:-half]) * 10**half + _from_decimal(text[-half:])


def bundle_to_json(bundle: InvariantBundle) -> dict[str, Any]:
    """Serialize known entries with labels replaced by opaque integers."""
    ids = {label: i for i, label in enumerate(bundle.labels)}
    entries = [
        {
            "labels": sorted(ids[l] for l in key),
            "factors": [_decimal(x) for x in group.factors],
        }
        for key, group in bundle.entries.items()
    ]
    entries.sort(key=lambda e: (len(e["labels"]), e["labels"]))
    return {
        "version": BUNDLE_VERSION,
        "rank": bundle.rank,
        "labels": list(range(len(bundle.labels))),
        "entries": entries,
    }


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(value: Any, what: str, error: type[Exception]) -> int:
    """An integer given as a JSON number or a decimal string, else `error`."""
    if _is_int(value):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise error(f"{what} must be an integer, got {value!r:.40}")


def _json_factor(value: Any) -> int:
    """A bundle factor, as `_json_int` reads it, or a digit string of any length.

    A digit string longer than any quotient order below `MAX_QUOTIENT_BITS`
    raises LimitExceeded before it is converted.
    """
    if isinstance(value, str) and value.isascii() and value.isdigit():
        if len(value) > _MAX_FACTOR_DIGITS:
            raise LimitExceeded(
                f"a factor of {len(value)} digits exceeds the limit of "
                f"{MAX_QUOTIENT_BITS} bits on quotient orders"
            )
        return _from_decimal(value)
    return _json_int(value, "a factor", MalformedBundle)


def _json_list(value: Any, what: str, error: type[Exception]) -> list[Any]:
    if not isinstance(value, list):
        raise error(f"{what} must be a JSON array, got {value!r:.40}")
    return value


def _json_label_ids(value: Any, what: str) -> list[str]:
    ids = _json_list(value, what, MalformedBundle)
    if not all(_is_int(i) for i in ids):
        raise MalformedBundle(f"{what} must be integers")
    return [str(i) for i in ids]


def bundle_from_json(doc: Any) -> InvariantBundle:
    """Load a bundle document; every defect raises a one-line MalformedBundle."""
    if not isinstance(doc, dict):
        raise MalformedBundle("a bundle file must hold a JSON object")
    version = doc.get("version")
    if not (_is_int(version) and version == BUNDLE_VERSION):
        raise MalformedBundle(f"unsupported bundle version {version!r:.40}")
    rank = _json_int(doc.get("rank"), "rank", MalformedBundle)
    labels = tuple(_json_label_ids(doc.get("labels"), "labels"))
    entries: dict[frozenset[str], FinGenAbGroup] = {}
    for item in _json_list(doc.get("entries"), "entries", MalformedBundle):
        if not isinstance(item, dict):
            raise MalformedBundle("every entry must be a JSON object")
        key = frozenset(_json_label_ids(item.get("labels"), "entry labels"))
        factors = tuple(
            _json_factor(x)
            for x in _json_list(item.get("factors"), "entry factors", MalformedBundle)
        )
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


def report_to_json(report: ReconstructionReport) -> dict[str, Any]:
    return {
        "class_number": report.class_number,
        "class_group_factors": [str(x) for x in report.class_group.factors],
        "norms": {str(k): str(v) for k, v in sorted(report.norms.items())},
        "zeta": {
            "bound": report.zeta.bound,
            "coefficients": list(report.zeta.coefficients),
        },
        "verdicts": [
            {"name": v.name, "pass": v.passed, "message": v.message}
            for v in report.verdicts
        ],
    }


def synthetic_spec_from_json(doc: Any) -> SyntheticSpec:
    """Load and validate a synthetic spec; every defect is an InvalidSyntheticSpec."""
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
        if not is_prime_power(norm):
            raise NonPrimePowerNorm(f"norm {norm} is not a prime power")
        cls = tuple(
            _json_int(c, f"class of {label}", bad)
            for c in _json_list(item.get("class"), f"class of {label}", bad)
        )
        residue_char = _json_int(item.get("residue_char"), f"residue_char of {label}", bad)
        try:
            datum = PrimeIdealDatum(
                label=label, norm=norm, cls=cls, residue_char=residue_char
            )
        except ValueError as exc:
            raise InvalidSyntheticSpec(f"prime {label}: {exc}") from None
        primes.append(datum)
    return validate_synthetic(SyntheticSpec(factors=factors, primes=tuple(primes)))


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
        return QuadraticSpec(disc)
    return synthetic_spec_from_json(_read_json(getattr(args, f"synthetic{suffix}")))


def _read_json(path: str) -> Any:
    """The JSON document in a file, or on stdin for "-"."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, encoding or nesting
        raise UnreadableInput(f"invalid JSON input {path}: {exc}") from None


def _write_output(doc: dict[str, Any], path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


# -- subcommands ------------------------------------------------------------


def cmd_classgroup(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    forms = reduced_forms_of_spec(spec)
    line = str(class_group(spec))
    if forms is not None:
        line += "; forms: " + ",".join(f"({f.a},{f.b},{f.c})" for f in forms)
    else:
        line += f"; synthetic primes: {len(spec.primes)}"
    print(line)
    return EXIT_OK


def cmd_invariants(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    group = class_group(spec)
    primes = enumerate_prime_ideals(spec, args.primes)
    known = {p.label for p in primes}
    subsets = []
    for raw in args.set or []:
        subset = tuple(s.strip() for s in raw.split(",") if s.strip())
        missing = set(subset) - known
        if missing:
            print(f"unknown labels in --set: {sorted(missing)}", file=sys.stderr)
            return EXIT_USAGE
        subsets.append(subset)
    bundle = build_bundle(group, primes, subsets=subsets)
    # Run a default reconstruction so the file also contains every entry a
    # blind consumer with default settings will request.
    try:
        reconstruct_all(bundle, zeta_bound=2)
    except InsufficientGenerators as exc:
        print(f"warning: {exc}", file=sys.stderr)
    if args.show_labels:
        for i, label in enumerate(bundle.labels):
            print(f"# {i} = {label}", file=sys.stderr)
    _write_output(bundle_to_json(bundle), args.output)
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    report = reconstruct_all(bundle_from_json(_read_json(args.bundle)), args.zeta)
    _write_output(report_to_json(report), args.output)
    return EXIT_OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    group = class_group(spec)
    primes = enumerate_prime_ideals(spec, args.primes)
    zeta_bound = args.zeta if args.zeta is not None else args.primes
    report = roundtrip(group, primes, zeta_bound)
    _write_output(report_to_json(report), args.output)
    return EXIT_OK if report.all_passed else EXIT_FAIL


def cmd_compare(args: argparse.Namespace) -> int:
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


def build_parser() -> argparse.ArgumentParser:
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


if __name__ == "__main__":
    sys.exit(main())
