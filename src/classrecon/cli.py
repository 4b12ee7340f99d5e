"""Command-line front end and file formats.

Subcommands: classgroup, invariants, reconstruct, roundtrip, compare.
The shell stays thin: every verdict printed is the library's verdict.

Bundle and report files are JSON.  All potentially large integers (group
factors, norms) are serialized as decimal strings; labels in bundle files
are opaque consecutive integers so the files carry no arithmetic hints.

Exit codes: 0 success/pass, 1 verdict failure or internal contradiction,
2 usage or spec error, 3 insufficient data or an integer too large for the
exact primality test.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from .abgroup import FinGenAbGroup, PrimalityLimitExceeded, is_prime_power
from .fields import (
    FieldSpec,
    InvalidDiscriminant,
    InvalidSyntheticSpec,
    NonPrimePowerNorm,
    QuadraticSpec,
    SyntheticSpec,
    class_group_model,
    enumerate_prime_ideals,
    reduced_forms_of_spec,
    validate_synthetic,
)
from .lattice import InternalContradiction, PrimeIdealDatum
from .reconstruct import (
    BundleEntryMissing,
    InsufficientGenerators,
    InvariantBundle,
    MalformedBundle,
    ReconstructionReport,
    build_bundle,
    compare_fields,
    reconstruct_all,
    recover_norm,
    roundtrip,
)

BUNDLE_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INSUFFICIENT = 3


# -- file formats -----------------------------------------------------------


def bundle_to_json(bundle: InvariantBundle) -> dict[str, Any]:
    """Serialize known entries with labels replaced by opaque integers."""
    ids = {label: i for i, label in enumerate(bundle.labels)}
    entries = [
        {
            "labels": sorted(ids[l] for l in key),
            "factors": [str(x) for x in group.factors],
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


def bundle_from_json(doc: dict[str, Any]) -> InvariantBundle:
    if doc.get("version") != BUNDLE_VERSION:
        raise MalformedBundle(f"unsupported bundle version {doc.get('version')!r}")
    labels = tuple(str(i) for i in doc["labels"])
    entries: dict[frozenset[str], FinGenAbGroup] = {}
    for item in doc["entries"]:
        key = frozenset(str(i) for i in item["labels"])
        factors = tuple(int(x) for x in item["factors"])
        entries[key] = FinGenAbGroup(factors)
    bundle = InvariantBundle(rank=int(doc["rank"]), labels=labels, entries=entries)
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


def synthetic_spec_from_json(doc: dict[str, Any]) -> SyntheticSpec:
    factors = tuple(int(x) for x in doc["invariant_factors"])
    primes = []
    for i, item in enumerate(doc["primes"]):
        label = str(item.get("label", f"s{i}"))
        norm = int(item["norm"])
        if not is_prime_power(norm):
            raise NonPrimePowerNorm(f"norm {norm} is not a prime power")
        try:
            datum = PrimeIdealDatum(
                label=label,
                norm=norm,
                cls=tuple(int(c) for c in item["class"]),
                residue_char=int(item["residue_char"]),
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
    path = getattr(args, f"synthetic{suffix}")
    with open(path) as fh:
        return synthetic_spec_from_json(json.load(fh))


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
    model = class_group_model(spec)
    forms = reduced_forms_of_spec(spec)
    line = str(model.group)
    if forms is not None:
        line += "; forms: " + ",".join(f"({f.a},{f.b},{f.c})" for f in forms)
    else:
        line += f"; synthetic primes: {len(spec.primes)}"
    print(line)
    return EXIT_OK


def cmd_invariants(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    model = class_group_model(spec)
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
    bundle = build_bundle(model, primes, subsets=subsets, lazy=True)
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
    if args.bundle == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.bundle) as fh:
            doc = json.load(fh)
    bundle = bundle_from_json(doc)
    norms = [recover_norm(bundle, label) for label in bundle.labels]
    zeta_bound = args.zeta if args.zeta is not None else max(norms, default=1)
    report = reconstruct_all(bundle, zeta_bound)
    _write_output(report_to_json(report), args.output)
    return EXIT_OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    model = class_group_model(spec)
    primes = enumerate_prime_ideals(spec, args.primes)
    zeta_bound = args.zeta if args.zeta is not None else args.primes
    report = roundtrip(model, primes, zeta_bound)
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
    except (InvalidDiscriminant, InvalidSyntheticSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InsufficientGenerators, BundleEntryMissing, PrimalityLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (MalformedBundle, InternalContradiction) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
