"""The bundle loader's verdicts, pinned: one message and one exit code per defect.

Every case runs `reconstruct` on a bundle file and compares its exit code,
its stdout and its one-line stderr exactly, so a faster loader must find
the same first defect and word it the same way.  A property test holds the
loader to the plain per-factor reference in `tests/helpers.py` on drawn
factor lists and label ids: the same groups, or the same refusal, and the
same `reconstruct` output.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classrecon import codec, lattice
from classrecon.cli import EXIT_FAIL, EXIT_INSUFFICIENT, EXIT_OK, main

from helpers import reference_bundle_from_json

EMPTY = {"labels": [], "factors": ["0", "0"]}


def _doc(*entries, labels=(0,), rank=2):
    return {"version": 1, "rank": rank, "labels": list(labels), "entries": list(entries)}


def _single(factors, labels=(0,)):
    return {"labels": list(labels), "factors": factors}


TOO_LONG = "7" * (codec._MAX_FACTOR_DIGITS + 1)

# name -> (document, exit code, stderr)
MALFORMED = {
    "negative-factor-string": (
        _doc(EMPTY, _single(["-8"])),
        EXIT_FAIL,
        "error: entry ['0']: factors must be non-negative integers\n",
    ),
    "negative-factor-number": (
        _doc(EMPTY, _single([-8])),
        EXIT_FAIL,
        "error: entry ['0']: factors must be non-negative integers\n",
    ),
    "factor-one": (
        _doc(EMPTY, _single(["1", "8"])),
        EXIT_FAIL,
        "error: entry ['0']: factor 1 is not allowed in canonical form\n",
    ),
    "chain-not-divisible": (
        _doc(EMPTY, _single(["4", "6"])),
        EXIT_FAIL,
        "error: entry ['0']: factors (4, 6) are not in canonical form\n",
    ),
    "chain-descending": (
        _doc(EMPTY, _single(["8", "4"])),
        EXIT_FAIL,
        "error: entry ['0']: factors (8, 4) are not in canonical form\n",
    ),
    "torsion-after-free": (
        _doc(_single(["0", "2"], labels=()), _single(["8"])),
        EXIT_FAIL,
        "error: entry []: factors (0, 2) are not in canonical form\n",
    ),
    "bad-entry-after-bad-chain": (
        _doc(EMPTY, _single(["4", "6"]), _single("8", labels=(1,))),
        EXIT_FAIL,
        "error: entry ['0']: factors (4, 6) are not in canonical form\n",
    ),
    "bool-label-id": (
        _doc(EMPTY, _single(["8"], labels=(True,))),
        EXIT_FAIL,
        "error: entry labels must be integers\n",
    ),
    "string-label-id": (
        _doc(EMPTY, _single(["8"], labels=("0",))),
        EXIT_FAIL,
        "error: entry labels must be integers\n",
    ),
    "bool-bundle-label": (
        _doc(EMPTY, labels=(True,)),
        EXIT_FAIL,
        "error: labels must be integers\n",
    ),
    "string-bundle-label": (
        _doc(EMPTY, labels=("0",)),
        EXIT_FAIL,
        "error: labels must be integers\n",
    ),
    "repeated-label-in-entry": (
        _doc(EMPTY, _single(["8"]), _single(["8"], labels=(0, 0))),
        EXIT_FAIL,
        "error: entry labels ['0', '0'] repeat a label\n",
    ),
    "repeated-bundle-label": (
        _doc(EMPTY, _single(["8"]), labels=(0, 0)),
        EXIT_FAIL,
        "error: duplicate labels\n",
    ),
    "repeated-entry": (
        _doc(EMPTY, _single(["8"]), _single(["8"])),
        EXIT_FAIL,
        "error: two entries for labels ['0']\n",
    ),
    "unknown-label": (
        _doc(EMPTY, _single(["8"]), _single(["8"], labels=(5,))),
        EXIT_FAIL,
        "error: entries mention unknown labels ['5']\n",
    ),
    "factors-not-a-list": (
        _doc(EMPTY, _single("8")),
        EXIT_FAIL,
        "error: entry factors must be a JSON array, got '8'\n",
    ),
    "factors-missing": (
        _doc(EMPTY, {"labels": [0]}),
        EXIT_FAIL,
        "error: entry factors must be a JSON array, got None\n",
    ),
    "factor-a-float": (
        _doc(EMPTY, _single([8.0])),
        EXIT_FAIL,
        "error: a factor must be an integer, got 8.0\n",
    ),
    "factor-too-long": (
        _doc(EMPTY, _single([TOO_LONG])),
        EXIT_INSUFFICIENT,
        f"error: a factor of {len(TOO_LONG)} digits exceeds the limit of "
        "262144 bits on quotient orders\n",
    ),
    "factor-too-long-after-bad-chain": (
        _doc(EMPTY, _single(["4", "6"]), _single([TOO_LONG], labels=(1,)), labels=(0, 1)),
        EXIT_FAIL,
        "error: entry ['0']: factors (4, 6) are not in canonical form\n",
    ),
}


def _run(doc, tmp_path, capsys, argv_tail=()):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    code = main(["reconstruct", str(path), *argv_tail])
    return code, capsys.readouterr()


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_bundle_message_and_exit_code(name, tmp_path, capsys):
    doc, want_code, want_err = MALFORMED[name]
    code, captured = _run(doc, tmp_path, capsys)
    assert (code, captured.out, captured.err) == (want_code, "", want_err)


# `invariants -D -84 --primes 12`: the strings "24", "120" and "8" recur
# across entries.
REPEATING = {
    "entries": [
        {"factors": ["0", "0", "0", "0"], "labels": []},
        {"factors": ["3", "3"], "labels": [0]},
        {"factors": ["8", "8"], "labels": [1]},
        {"factors": ["24", "24"], "labels": [2]},
        {"factors": ["24", "24"], "labels": [3]},
        {"factors": ["48", "48"], "labels": [4]},
        {"factors": ["120", "120"], "labels": [5]},
        {"factors": ["120", "120"], "labels": [6]},
        {"factors": ["8"], "labels": [1, 2]},
    ],
    "labels": [0, 1, 2, 3, 4, 5, 6],
    "rank": 4,
    "version": 1,
}
REPEATING_REPORT = (
    '{\n  "class_group_factors": [\n    "2",\n    "2"\n  ],\n  "class_number": 4,\n'
    '  "norms": {\n    "0": "2",\n    "1": "3",\n    "2": "5",\n    "3": "5",\n'
    '    "4": "7",\n    "5": "11",\n    "6": "11"\n  },\n  "verdicts": [],\n'
    '  "zeta": {\n    "bound": 11,\n    "coefficients": [\n      1,\n      1,\n'
    "      1,\n      1,\n      2,\n      1,\n      1,\n      1,\n      1,\n"
    "      2,\n      2\n    ]\n  }\n}\n"
)


def test_factor_strings_repeating_across_entries(tmp_path, capsys):
    code, captured = _run(REPEATING, tmp_path, capsys)
    assert (code, captured.out, captured.err) == (EXIT_OK, REPEATING_REPORT, "")
    assert json.loads(lattice.bundle_to_json(codec.bundle_from_json(REPEATING))) == REPEATING


def test_each_distinct_factor_string_is_converted_once_per_file(monkeypatch):
    read = []
    json_factor = codec._json_factor
    monkeypatch.setattr(codec, "_json_factor", lambda v: read.append(v) or json_factor(v))
    codec.bundle_from_json(REPEATING)
    assert read == ["0", "3", "8", "24", "48", "120"]


# Factor values a file may hold: digit strings with and without leading
# zeros, the strings of the bundle above, other strings, JSON numbers,
# bools, nested and empty lists, null and an over-long digit string.
FACTOR = st.one_of(
    st.from_regex(r"\A0{0,2}[0-9]{1,4}\Z"),
    st.sampled_from(["0", "3", "8", "24", "120", "1", "-8", " 8", "8.0", "", TOO_LONG]),
    st.integers(-3, 130),
    st.booleans(),
    st.floats(allow_nan=False),
    st.lists(st.integers(0, 9), max_size=2),
    st.none(),
)
FACTOR_LISTS = st.one_of(
    st.builds(lambda x, n: [x] * n, FACTOR, st.integers(1, 6)),  # homogeneous
    st.builds(lambda x, y, n: [x] * n + [y], FACTOR, FACTOR, st.integers(1, 4)),
    st.lists(FACTOR, max_size=6),
)
LABEL_IDS = st.lists(
    st.one_of(st.integers(0, 8), st.booleans(), st.floats(0, 8), st.text(max_size=2)),
    max_size=3,
)
ENTRY = st.integers(0, len(REPEATING["entries"]) - 1)


def _loaded(load, doc):
    """What a loader makes of a document: its bundle's contents, or its refusal."""
    try:
        bundle = load(doc)
    except Exception as exc:  # the refusals must match, whatever they are
        return type(exc), str(exc)
    return bundle.rank, bundle.labels, bundle.entries


def _reconstructed(doc):
    """Exit code, stdout and stderr of `reconstruct` on the document's file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bundle.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["reconstruct", path])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(ENTRY, FACTOR_LISTS), min_size=1, max_size=3),
    st.lists(st.tuples(ENTRY, LABEL_IDS), max_size=1),
)
@example([(2, ["8", 8, "8"])], [])  # one value, one list, two types
@example([(2, ["8", 8.0])], [])
@example([(3, [1, True])], [])
@example([(3, ["24", "024"])], [])
@example([(1, ["3", TOO_LONG])], [])
def test_loader_matches_the_reference_decoder(factor_edits, label_edits):
    doc = copy.deepcopy(REPEATING)
    for i, factors in factor_edits:
        doc["entries"][i]["factors"] = factors
    for i, ids in label_edits:
        doc["entries"][i]["labels"] = ids
    assert _loaded(codec.bundle_from_json, doc) == _loaded(reference_bundle_from_json, doc)
    with mock.patch.object(codec, "bundle_from_json", reference_bundle_from_json):
        want = _reconstructed(doc)
    assert _reconstructed(doc) == want
