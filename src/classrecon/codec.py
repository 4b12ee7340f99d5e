"""The JSON file formats (bundles, reports, compare results) and the shared readers.

Only the commands that read or write JSON import this module, so
`classgroup -D` loads neither it nor `json`.  `bundle_from_json` imports
the blind consumer's `InvariantBundle` when it runs, so the codec loads no
producer, and reading a bundle never loads one.  Synthetic specs are read
by `fields.synthetic_spec_from_json`, beside the field data it builds,
with this module's `_read_json`, `_json_int` and `_json_list`; so the
blind consumer compiles no spec code.  The `reconstruct` command's handler,
`cmd_reconstruct`, lives here on the consumer side for the same reason:
it reads a bundle file and writes a report, with `reconstruct` alone.

All potentially large integers (group factors, norms) are serialized as
decimal strings; labels in bundle files are opaque consecutive integers so
the files carry no arithmetic hints.  Bundle factors may run past CPython's
limit on int/str conversion (4300 digits by default); the codec converts
them in chunks below that limit, so the interpreter-wide setting is never
changed.  A bundle repeats few distinct factors many times, so the writer
converts each distinct factor once per bundle and the loader reads each
distinct factor string once per file; an entry of s copies of one string
is read as that one string.

Each input file type has one validating loader (`bundle_from_json` here,
`fields.synthetic_spec_from_json`) that turns any defect into its one-line
error.  Input files and stdin are read as UTF-8 whatever the locale (RFC
8259).  Every output is the text of `json.dumps(doc, indent=2,
sort_keys=True)`, written as ASCII without the pure-Python encoder
json.dumps runs when it indents.  Each output has one fixed shape, so it
is laid out from fixed templates, keys in sorted order: strings go through
the C `encode_basestring_ascii`, and every integer written as a string
through `_decimal`.  The report's writer, `report_text`, is here; the
writers that only producers run, `bundle_to_json` and `comparison_text`,
live in `lattice` beside their commands, so a blind `reconstruct` does not
compile them.  Property tests hold each to json.dumps of a plain document
builder kept in the tests.  An output file is written in place and then
cut to length, not truncated to zero first: ext4, XFS and btrfs flush a
truncated-and-rewritten file on close, a wait of about a fifth of a
`reconstruct` call.  Writes are still not atomic: an interrupted write
exits non-zero and may leave the old file's tail, where truncating first
left a cut-off file.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from math import log10
from typing import TYPE_CHECKING, Any

from .abgroup import FinGenAbGroup, is_canonical, is_prime_power
from .errors import (
    MAX_QUOTIENT_BITS,
    LimitExceeded,
    MalformedBundle,
    UnreadableInput,
    UsageError,
)

if TYPE_CHECKING:
    from types import SimpleNamespace

    from .reconstruct import InvariantBundle, ReconstructionReport

BUNDLE_VERSION = 1

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


# Each output file is json.dumps(doc, indent=2, sort_keys=True) of one
# document shape, so it is laid out from these templates, keys in order.
_REPORT = (
    '{\n  "class_group_factors": %s,\n  "class_number": %d,\n  "norms": %s,\n'
    '  "verdicts": %s,\n  "zeta": {\n    "bound": %d,\n    "coefficients": %s\n  }\n}'
)
_VERDICT = '{\n      "message": %s,\n      "name": %s,\n      "pass": %s\n    }'


def _array(items: str, indent: str, brackets: str = "[]") -> str:
    """A JSON array (or object) around its items, already joined, closed at `indent`."""
    return f"{brackets[0]}{indent}  {items}{indent}{brackets[1]}" if items else brackets


def _factor_array(group: FinGenAbGroup) -> str:
    """A group's invariant factors as a top-level array of decimal strings."""
    return _array(",\n    ".join([f'"{_decimal(x)}"' for x in group.factors]), "\n  ")


def report_text(report: ReconstructionReport) -> str:
    """The report file's text; norms are keyed by label, in label-text order.

    The zeta block's `bound` is the number of coefficients, `len(report.zeta)`.
    """
    norms = ",\n    ".join([
        f'{encode_basestring_ascii(label)}: "{_decimal(norm)}"'
        for label, norm in sorted(report.norms.items())
    ])
    verdicts = ",\n    ".join([
        _VERDICT % (encode_basestring_ascii(v.message), encode_basestring_ascii(v.name),
                    "true" if v.passed else "false")
        for v in report.verdicts
    ])
    coefficients = _array(",\n      ".join(map(repr, report.zeta)), "\n    ")
    return _REPORT % (_factor_array(report.class_group), report.class_number,
                      _array(norms, "\n  ", "{}"), _array(verdicts, "\n  "),
                      len(report.zeta), coefficients)


def report_to_json(report: ReconstructionReport) -> dict[str, Any]:
    """The document a report file holds."""
    return json.loads(report_text(report))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(value: Any, what: str, error: type[Exception]) -> int:
    """An integer given as a JSON number or a decimal string, else `error`.

    A decimal string is an optional "-" and ASCII digits, nothing else: no
    sign "+", no spaces, no underscores, no digits of other scripts.
    """
    if _is_int(value):
        return value
    if isinstance(value, str):
        digits = value.removeprefix("-")
        if digits.isascii() and digits.isdigit():
            try:
                return int(value)
            except ValueError:  # past the interpreter's int/str digit limit
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


def _json_label_ids(value: Any, what: str) -> list[int]:
    ids = _json_list(value, what, MalformedBundle)
    if {*map(type, ids)} - {int}:  # json reads an integer as an exact int
        raise MalformedBundle(f"{what} must be integers")
    return ids


def bundle_from_json(doc: Any) -> InvariantBundle:
    """Load a bundle document; every defect raises a one-line MalformedBundle.

    Each distinct factor string is converted once per file: an entry of s
    copies of one string converts it at most once, and any other list is
    read factor by factor through the same table, so its first bad factor
    is the one refused.  Each list of label ids is type-checked in one pass
    and named through one table built from `labels`.  An entry whose
    factors pass `is_canonical` becomes a group with no further check;
    only one that fails goes through the `FinGenAbGroup` constructor, whose
    message names the defect.
    """
    from .reconstruct import InvariantBundle

    if not isinstance(doc, dict):
        raise MalformedBundle("a bundle file must hold a JSON object")
    version = doc.get("version")
    if not (_is_int(version) and version == BUNDLE_VERSION):
        raise MalformedBundle(f"unsupported bundle version {version!r:.40}")
    rank = _json_int(doc.get("rank"), "rank", MalformedBundle)
    ids = _json_label_ids(doc.get("labels"), "labels")
    labels = tuple(map(str, ids))
    names = dict(zip(ids, labels))
    read: dict[str, int] = {}  # each distinct factor string, converted

    def factor(x: Any) -> int:
        if isinstance(x, str):
            if x not in read:
                read[x] = _json_factor(x)
            return read[x]
        return _json_factor(x)

    entries: dict[frozenset[str], FinGenAbGroup] = {}
    for item in _json_list(doc.get("entries"), "entries", MalformedBundle):
        if not isinstance(item, dict):
            raise MalformedBundle("every entry must be a JSON object")
        # an id missing from the table keeps its own name, and the bundle
        # reports it as unknown
        keys = [
            names.get(i) or str(i)
            for i in _json_label_ids(item.get("labels"), "entry labels")
        ]
        key = frozenset(keys)
        if len(key) != len(keys):
            raise MalformedBundle(f"entry labels {sorted(keys)} repeat a label")
        if key in entries:
            raise MalformedBundle(f"two entries for labels {sorted(key)}")
        raw = _json_list(item.get("factors"), "entry factors", MalformedBundle)
        # s copies of one string, as a producer writes every entry, read once
        if raw and isinstance(raw[0], str) and raw.count(raw[0]) == len(raw):
            factors = (factor(raw[0]),) * len(raw)
        else:
            factors = tuple(map(factor, raw))
        try:
            entries[key] = (
                FinGenAbGroup.trusted if is_canonical(factors) else FinGenAbGroup
            )(factors)
        except ValueError as exc:
            raise MalformedBundle(f"entry {sorted(key)}: {exc}") from None
    bundle = InvariantBundle(rank, labels, entries)
    if frozenset() not in entries:
        raise MalformedBundle("bundle file lacks the empty-set entry")
    for label in labels:
        if frozenset({label}) not in entries:
            raise MalformedBundle(f"bundle file lacks the singleton entry for {label}")
    return bundle


def _read_json(path: str) -> Any:
    """The JSON document in a file, or on stdin for "-", read as UTF-8."""
    try:
        if path == "-":
            return json.loads(sys.stdin.buffer.read().decode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, encoding or nesting
        raise UnreadableInput(f"invalid JSON input {path}: {exc}") from None


def _write_output(text: str, path: str | None) -> None:
    """Write the text and a newline to stdout, or over `path`.

    The file is written in place (see the module docstring); the old tail
    is cut off after the write, and only from a regular file that was
    longer, so `/dev/null`, FIFOs and devices are never truncated.
    """
    if path is None or path == "-":
        print(text)
        return
    data = memoryview((text + "\n").encode("ascii"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old = os.fstat(fd)
        size = len(data)
        while data:  # a write may be short, as above 2 GiB on Linux
            data = data[os.write(fd, data) :]
        if stat.S_ISREG(old.st_mode) and old.st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


# -- the blind consumer's command -------------------------------------------


def cmd_reconstruct(args: SimpleNamespace) -> None:
    """Write the blind report of a bundle file, its zeta coefficients up to `--zeta`."""
    from .reconstruct import reconstruct_without_zeta, zeta_coefficients

    report, bound = reconstruct_without_zeta(bundle_from_json(_read_json(args.bundle)), args.zeta)
    largest = max(report.norms.values(), default=1)
    # A bundle carries every prime ideal up to its producer's bound, which is
    # at least its largest norm M.  An ideal of norm n <= Z factors through
    # carried norms when no prime power lies in (M, Z]; otherwise a
    # coefficient may miss primes, so such a Z is refused before the sieve.
    missed = next(filter(is_prime_power, range(largest + 1, bound + 1)), None)
    if missed is not None:
        raise UsageError(f"--zeta {bound} reaches the prime power {missed}, "
                         f"above the largest recovered norm {largest}")
    report = report._replace(zeta=tuple(zeta_coefficients(report.norms.values(), bound)))
    _write_output(report_text(report), args.output)
