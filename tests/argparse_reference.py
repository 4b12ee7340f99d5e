"""The argparse front end the CLI used to have, kept as a reference parser.

`classrecon.cli` now parses argv from one command table by a single walk.
This module keeps the argparse parser it replaced, unchanged except that
no parser accepts prefix abbreviations (`allow_abbrev=False`), which the
table parser refuses, so that `tests/test_cli.py` can check that both
parsers agree on every argv drawn from the documented grammar.
"""

from __future__ import annotations

import argparse

from classrecon.codec import cmd_reconstruct
from classrecon.forms import cmd_classgroup
from classrecon.lattice import cmd_compare, cmd_invariants, cmd_roundtrip


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classrecon",
        description="Class-group lattice invariants and blind reconstruction",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", help="print invariant factors and reduced forms",
                       allow_abbrev=False)
    _add_spec_args(p)
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("invariants", help="compute quotient invariants into a bundle file",
                       allow_abbrev=False)
    _add_spec_args(p)
    p.add_argument("--primes", type=_positive_int, default=50, metavar="X",
                   help="include every prime ideal of norm <= X (default 50)")
    p.add_argument("--set", action="append", metavar="LABELS",
                   help="comma-separated labels; adds the subset's entry (repeatable)")
    p.add_argument("--show-labels", action="store_true",
                   help="print the label-id mapping to stderr")
    p.add_argument("-o", "--output", metavar="FILE", help="write JSON here (default stdout)")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("reconstruct", help="blind reconstruction from a bundle file",
                       allow_abbrev=False)
    p.add_argument("bundle", help="bundle JSON file, or - for stdin")
    p.add_argument("--zeta", type=_positive_int, metavar="X",
                   help="zeta truncation bound (default: largest recovered norm)")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="reconstruct blind and compare to ground truth",
                       allow_abbrev=False)
    _add_spec_args(p)
    p.add_argument("--primes", type=_positive_int, default=50, metavar="X",
                   help="prime ideal norm bound (default 50)")
    p.add_argument("--zeta", type=_positive_int, metavar="X",
                   help="zeta truncation bound (default: the --primes bound)")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("compare", help="compare two field specs", allow_abbrev=False)
    _add_spec_args(p)
    _add_spec_args(p, suffix="2")
    p.add_argument("--bound", type=_positive_int, default=50, metavar="X",
                   help="norm and zeta bound for the comparison (default 50)")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_compare)

    return parser
