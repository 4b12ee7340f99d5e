"""Command-line front end: the command table, its dispatch and the exit codes.

Subcommands: classgroup, invariants, reconstruct, roundtrip, compare.
The shell stays thin: every verdict printed is the library's verdict.

Each handler lives beside the work it runs, and its module is imported
only once argv has parsed, so a call compiles only what it runs (the
package ships no bytecode, and a run with `PYTHONDONTWRITEBYTECODE=1`
caches none): `classgroup` is in `forms`, `invariants`, `roundtrip` and
`compare` in `lattice`, and `reconstruct` in `codec`, on the consumer
side.  Importing this module loads only `errors`, which `main` needs to
map exceptions to exit codes; the help text, in `usage`, loads only for
`-h`/`--help`.  The modules each subcommand loads, besides `cli` and
`errors`:

  classgroup -D           forms, abgroup
  classgroup --synthetic  forms, abgroup, codec, fields
  invariants, roundtrip,  forms, fields, abgroup, codec, lattice,
  compare                 reconstruct
  reconstruct             reconstruct, abgroup, codec

So a blind `reconstruct` never loads the producer (`forms`, `fields`,
`lattice`), and `classgroup -D` loads neither the consumer, the codec,
the prime ideals in `fields` nor `json`.  The JSON readers and the report
writer live in `codec`, and the writers only producers run, of bundles and
compare results, in `lattice`; synthetic specs are loaded, and every spec
error decided, by `fields.synthetic_spec_from_json` alone.

`COMMANDS` is the one table of the command line.  `_parse` fills a
handler's arguments in one walk over argv; `-h`/`--help` prints usage made
from the table.  An option is named exactly, and its value is the next
token (which may be `-` or a negative integer, as in `-D -20`) or follows
`=`.  The last of a repeated option wins; `--set` keeps every one.  A usage
error, such as an abbreviation (`--prim`), an attached short value (`-D-20`)
or `--`, is one stderr line, `error: ` and argparse's message, with exit 2.

Every failure is one stderr line, `error: ` and its message (a failed
verdict's report is written first).  A handler refuses by raising, a
failed verdict too (`errors.VerdictFailed`, once its report is written),
and `main` alone maps each refusal to its exit code.  Exit codes: 0
success/pass, 1 verdict failure, malformed bundle or internal
contradiction, 2 usage or spec error (including unreadable or non-JSON
input files, unknown `--set` labels, a `roundtrip --zeta` above
`--primes`, and a `reconstruct --zeta` that reaches a prime power above
the largest recovered norm) or unwritable output (an `-o` path that is a
directory, lies in a missing directory or is on a full device, and a
stdout closed by its reader when the write fails inside `main`, as it does
for unbuffered stdout), 3 insufficient data or `LimitExceeded`.
Insufficient data is decided by the blind consumer alone, so `roundtrip`,
`compare` and `reconstruct` refuse too few odd-norm primes with one
message.  `LimitExceeded` covers a discriminant above
`errors.MAX_DISCRIMINANT`, a prime, comparison or zeta bound above
`errors.MAX_BOUND` or an integer above it that trial division cannot
certify, a synthetic class group of order above
`errors.MAX_SYNTHETIC_ORDER`, and a quotient order above
`errors.MAX_QUOTIENT_BITS` bits.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Callable, Sequence

from .errors import (
    BundleEntryMissing,
    InsufficientGenerators,
    InternalContradiction,
    InvalidDiscriminant,
    InvalidSyntheticSpec,
    LimitExceeded,
    MalformedBundle,
    UnreadableInput,
    UsageError,
    VerdictFailed,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INSUFFICIENT = 3


# -- the command table ------------------------------------------------------

# An option is (names, dest, kind, default, metavar, help).  Its kind says
# what the walk reads: "int" and "positive" (a bound) convert one value,
# "text" keeps it, "repeat" appends it to a list; "flag" and "help" take none.
_HELP = (("-h", "--help"), "help", "help", None, None, "show this help message and exit")
_OUTPUT = (("-o", "--output"), "output", "text", None, "FILE", "write JSON here (default stdout)")
_D_HELP = "negative fundamental discriminant of an imaginary quadratic field"
_FILE_HELP = "JSON file with a synthetic field spec"
_SPEC = ((("-D",), "discriminant", "int", None, "D", _D_HELP),
         (("--synthetic",), "synthetic", "text", None, "FILE", _FILE_HELP))
_SPEC2 = ((("-D2",), "discriminant2", "int", None, "D", _D_HELP),
          (("--synthetic2",), "synthetic2", "text", None, "FILE", _FILE_HELP))

# name: (the handler's module and name, help, positionals as (dest, help),
# the required pairs of options that exclude each other, the other options).
# Each handler lives beside the work it runs and is imported on dispatch.
COMMANDS = {
    "classgroup": ("forms", "cmd_classgroup", "print invariant factors and reduced forms",
                   (), (_SPEC,), ()),
    "invariants": ("lattice", "cmd_invariants", "compute quotient invariants into a bundle file",
                   (), (_SPEC,), (
        (("--primes",), "primes", "positive", 50, "X",
         "include every prime ideal of norm <= X (default 50)"),
        (("--set",), "set", "repeat", None, "LABELS",
         "comma-separated labels; adds the subset's entry (repeatable)"),
        (("--show-labels",), "show_labels", "flag", False, None,
         "print the label-id mapping to stderr"),
        _OUTPUT,
    )),
    "reconstruct": ("codec", "cmd_reconstruct", "blind reconstruction from a bundle file",
                    (("bundle", "bundle JSON file, or - for stdin"),), (), (
        (("--zeta",), "zeta", "positive", None, "X",
         "zeta truncation bound (default: the largest recovered norm; "
         "maximum: one below the next prime power)"),
        _OUTPUT,
    )),
    "roundtrip": ("lattice", "cmd_roundtrip", "reconstruct blind and compare to ground truth",
                  (), (_SPEC,), (
        (("--primes",), "primes", "positive", 50, "X", "prime ideal norm bound (default 50)"),
        (("--zeta",), "zeta", "positive", None, "X",
         "zeta truncation bound (default and maximum: the --primes bound)"),
        _OUTPUT,
    )),
    "compare": ("lattice", "cmd_compare", "compare two field specs", (), (_SPEC, _SPEC2), (
        (("--bound",), "bound", "positive", 50, "X",
         "norm and zeta bound for the comparison (default 50)"),
        _OUTPUT,
    )),
}


def _is_value(token: str, by_name: dict) -> bool:
    """Whether a token is a value, not an option, by argparse's rule: no
    option is named before its `=`, and it is `-`, a negative number, holds
    a space or does not start with `-`."""
    number = token[1:].replace(".", "", 1)
    return token.partition("=")[0] not in by_name and (
        token[:1] != "-" or len(token) == 1 or " " in token
        or (number.isdecimal() and token[-1] != "."))


def _parse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], None] | None, SimpleNamespace]:
    """The handler for argv and its arguments; no handler once help is printed.

    Until the first value, the subcommand, only -h/--help is an option.
    A usage error raises `UsageError` with argparse's message text.  The
    handler's module is imported once argv has parsed.
    """
    command, pairs, values, missing, extras = None, (), {}, ["command"], []
    by_name = dict.fromkeys(_HELP[0], _HELP)
    i = -1
    while (i := i + 1) < len(argv):
        name, eq, value = argv[i].partition("=")
        option = by_name.get(name)
        if option is None:
            if not (missing and _is_value(argv[i], by_name)):
                extras.append(argv[i])
            elif command is None:
                if argv[i] not in COMMANDS:
                    choices = ", ".join(map(repr, COMMANDS))
                    raise UsageError(
                        f"argument command: invalid choice: {argv[i]!r} (choose from {choices})")
                command = argv[i]
                *_, positionals, pairs, table = COMMANDS[command]
                options = [_HELP, *(o for pair in pairs for o in pair), *table]
                by_name = {alias: o for o in options for alias in o[0]}
                values = {o[1]: o[3] for o in options[1:]}  # all but help
                missing = [dest for dest, _ in positionals]
            else:
                values[missing.pop(0)] = argv[i]
            continue
        label = "argument " + "/".join(option[0])
        dest, kind = option[1:3]
        if kind in ("flag", "help"):
            if eq:
                raise UsageError(f"{label}: ignored explicit argument {value!r}")
            if kind == "help":
                from .usage import usage_text

                print(usage_text(COMMANDS, _HELP, command))
                return None, SimpleNamespace()
            value = True
        elif not eq:
            if i + 1 == len(argv) or not _is_value(argv[i + 1], by_name):
                raise UsageError(f"{label}: expected one argument")
            i += 1
            value = argv[i]
        if kind in ("int", "positive"):
            try:
                value = int(value)
            except ValueError:
                text = "invalid int value:" if kind == "int" else "invalid integer"
                raise UsageError(f"{label}: {text} {value!r}") from None
            if kind == "positive" and value < 1:
                raise UsageError(f"{label}: must be a positive integer, got {value}")
        rival = next((a if b is option else b for a, b in pairs if option in (a, b)), None)
        if rival and values[rival[1]] is not None:
            raise UsageError(f"{label}: not allowed with argument {rival[0][0]}")
        values[dest] = [*(values[dest] or ()), value] if kind == "repeat" else value
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    for a, b in pairs:
        if values[a[1]] is None and values[b[1]] is None:
            raise UsageError(f"one of the arguments {a[0][0]} {b[0][0]} is required")
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    module, name = COMMANDS[command][:2]
    # `__import__` rather than `importlib.import_module`: `-X importtime`
    # reports only the former
    handler = getattr(__import__(module, globals(), level=1), name)
    return handler, SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        if handler is not None:  # None: help printed
            handler(args)
        return EXIT_OK
    except (UsageError, InvalidDiscriminant, InvalidSyntheticSpec, UnreadableInput,
            OSError) as exc:
        return _error(exc, EXIT_USAGE)
    except (InsufficientGenerators, BundleEntryMissing, LimitExceeded) as exc:
        return _error(exc, EXIT_INSUFFICIENT)
    except (MalformedBundle, InternalContradiction, VerdictFailed) as exc:
        return _error(exc, EXIT_FAIL)


def _error(exc: Exception, code: int) -> int:
    """Print the error on one line of stderr and return its exit code."""
    print("error: " + " ".join(str(exc).split()), file=sys.stderr)
    return code


# The benchmark (`perfbench/`) reads these names from this module, each from
# the module it names here.  They resolve on first access, so importing
# `cli` loads neither side.  ROADMAP item 12 re-points the benchmark to the
# names' homes and deletes this hook.
_BENCHMARK_NAMES = {
    "bundle_from_json": "codec",
    "bundle_to_json": "lattice",
    "report_to_json": "codec",
    "synthetic_spec_from_json": "fields",
    "reconstruct_all": "reconstruct",
}


def __getattr__(name: str):
    if name in _BENCHMARK_NAMES:
        return getattr(__import__(_BENCHMARK_NAMES[name], globals(), level=1), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
