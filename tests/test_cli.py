"""Command-line behavior: output shapes, file formats, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classrecon
from classrecon import cli, fields, lattice, reconstruct
from classrecon.cli import (
    EXIT_FAIL,
    EXIT_INSUFFICIENT,
    EXIT_OK,
    EXIT_USAGE,
    bundle_from_json,
    bundle_to_json,
    main,
    synthetic_spec_from_json,
)
from classrecon.fields import QuadraticSpec, class_group, enumerate_prime_ideals
from classrecon.reconstruct import build_bundle

SYNTHETIC_DOC = {
    "invariant_factors": ["2", "2"],
    "primes": [
        {"norm": "3", "class": [1, 0], "residue_char": "3"},
        {"norm": "5", "class": [0, 1], "residue_char": "5"},
        {"norm": "7", "class": [1, 1], "residue_char": "7"},
        {"norm": "11", "class": [0, 0], "residue_char": "11"},
    ],
}


@pytest.fixture
def synthetic_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SYNTHETIC_DOC))
    return str(path)


class TestClassGroupCommand:
    def test_disc_minus_20(self, capsys):
        assert main(["classgroup", "-D", "-20"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "Z/2; forms: (1,0,5),(2,2,3)"

    def test_disc_minus_4(self, capsys):
        assert main(["classgroup", "-D", "-4"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("trivial")

    def test_positive_discriminant_usage_error(self):
        assert main(["classgroup", "-D", "5"]) == EXIT_USAGE

    def test_discriminant_above_limit_exits_3(self, capsys, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("work started on a refused discriminant")

        monkeypatch.setattr(fields, "is_fundamental_discriminant", no_enumeration)
        assert main(["classgroup", "-D", "-1000000000007"]) == EXIT_INSUFFICIENT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: |D| = 1000000000007 exceeds")
        assert captured.err.count("\n") == 1

    def test_synthetic(self, synthetic_file, capsys):
        assert main(["classgroup", "--synthetic", synthetic_file]) == EXIT_OK
        assert capsys.readouterr().out.startswith("Z/2 x Z/2")


class TestInvariantsCommand:
    def test_bundle_contents(self, tmp_path, capsys):
        out = tmp_path / "bundle.json"
        code = main(
            ["invariants", "-D", "-20", "--primes", "12", "--set", "p_3,p_7",
             "-o", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["version"] == 1
        assert doc["rank"] == 2
        by_key = {tuple(e["labels"]): e["factors"] for e in doc["entries"]}
        assert by_key[()] == ["0", "0"]
        # the requested pair entry is present with the expected quotient
        assert ["4"] in list(by_key.values())
        # a norm-3 singleton appears with its expected invariant factor
        singles = [v for k, v in by_key.items() if len(k) == 1]
        assert ["8"] in singles
        # every singleton present
        for i in doc["labels"]:
            assert (i,) in by_key

    def test_primes_bound_one_gives_empty_universe(self, tmp_path):
        out = tmp_path / "bundle.json"
        assert main(["invariants", "-D", "-20", "--primes", "1", "-o", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["labels"] == []
        assert [e["labels"] for e in doc["entries"]] == [[]]

    def test_unknown_set_label(self, tmp_path):
        code = main(
            ["invariants", "-D", "-20", "--primes", "12", "--set", "nope",
             "-o", str(tmp_path / "b.json")]
        )
        assert code == EXIT_USAGE

    def test_serialization_round_trip(self):
        spec = QuadraticSpec(-20)
        bundle = build_bundle(class_group(spec), enumerate_prime_ideals(spec, 30))
        doc = bundle_to_json(bundle)
        parsed = bundle_from_json(json.loads(json.dumps(doc)))
        assert parsed.rank == bundle.rank
        assert len(parsed.labels) == len(bundle.labels)
        relabel = {l: str(i) for i, l in enumerate(bundle.labels)}
        for key, group in bundle.entries.items():
            assert parsed.entries[frozenset(relabel[l] for l in key)] == group
        assert bundle_to_json(parsed)["entries"] == doc["entries"]


class TestReconstructCommand:
    def test_blind_reconstruction_from_file(self, tmp_path, capsys):
        bundle_path = tmp_path / "bundle.json"
        report_path = tmp_path / "report.json"
        assert main(
            ["invariants", "-D", "-20", "--primes", "130", "-o", str(bundle_path)]
        ) == EXIT_OK
        assert main(
            ["reconstruct", str(bundle_path), "-o", str(report_path)]
        ) == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert doc["class_number"] == 2
        assert doc["class_group_factors"] == ["2"]
        norms = sorted(int(v) for v in doc["norms"].values())
        assert 121 in norms and 3 in norms
        assert doc["zeta"]["coefficients"][0] == 1

    def test_generator_starved_bundle_exits_3(self, tmp_path):
        bundle_path = tmp_path / "bundle.json"
        # norm bound 2 leaves no odd-norm primes at all for disc -20
        assert main(
            ["invariants", "-D", "-20", "--primes", "2", "-o", str(bundle_path)]
        ) == EXIT_OK
        assert main(["reconstruct", str(bundle_path)]) == EXIT_INSUFFICIENT

    def test_corrupt_bundle_exits_1(self, tmp_path):
        bundle_path = tmp_path / "bundle.json"
        assert main(
            ["invariants", "-D", "-20", "--primes", "12", "-o", str(bundle_path)]
        ) == EXIT_OK
        doc = json.loads(bundle_path.read_text())
        for entry in doc["entries"]:
            if len(entry["labels"]) == 1 and entry["factors"] == ["8"]:
                entry["factors"] = ["7"]
        bundle_path.write_text(json.dumps(doc))
        assert main(["reconstruct", str(bundle_path)]) == EXIT_FAIL

    def test_missing_file_usage_error(self):
        assert main(["reconstruct", "/nonexistent/bundle.json"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "torsion, code",
        [("5", EXIT_FAIL), (str(2**89 - 2), EXIT_INSUFFICIENT)],
        ids=["norm-6", "norm-beyond-primality-limit"],
    )
    def test_singleton_norm_must_be_a_prime_power(self, tmp_path, capsys, torsion, code):
        # rank 1: the singleton Z/t gives the norm t + 1 directly
        doc = {
            "version": 1,
            "rank": 1,
            "labels": [0],
            "entries": [
                {"labels": [], "factors": ["0"]},
                {"labels": [0], "factors": [torsion]},
            ],
        }
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        assert main(["reconstruct", str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSizeLimits:
    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started on a refused bound")

        monkeypatch.setattr(fields, "primes_up_to", refuse)
        monkeypatch.setattr(reconstruct, "zeta_coefficients", refuse)

    @pytest.mark.parametrize(
        "torsion, extra",
        [(str(2**40 - 1), []), ("4", ["--zeta", str(fields.MAX_BOUND + 1)])],
        ids=["default-zeta-bound-2^40", "explicit-zeta-bound"],
    )
    def test_zeta_bound_above_limit_exits_3(self, tmp_path, capsys, torsion, extra):
        # rank 1: the singleton Z/t gives the norm t + 1, the default zeta bound
        doc = {
            "version": 1,
            "rank": 1,
            "labels": [0],
            "entries": [
                {"labels": [], "factors": ["0"]},
                {"labels": [0], "factors": [torsion]},
            ],
        }
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        assert main(["reconstruct", str(path), *extra]) == EXIT_INSUFFICIENT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: zeta bound ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "-D", "-20", "--primes"],
            ["roundtrip", "-D", "-20", "--primes"],
            ["compare", "-D", "-4", "-D2", "-20", "--bound"],
        ],
        ids=["invariants", "roundtrip", "compare"],
    )
    def test_prime_bound_above_limit_exits_3(self, capsys, argv):
        assert main([*argv, str(fields.MAX_BOUND + 1)]) == EXIT_INSUFFICIENT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: prime norm bound ")
        assert captured.err.count("\n") == 1


# Z/2000 with generating norms 149 and 151: each singleton order
# N**2000 - 1 has about 14 400 bits, more than 4300 decimal digits.
LONG_FACTOR_DOC = {
    "invariant_factors": ["2000"],
    "primes": [
        {"label": "s0", "norm": "149", "class": [1], "residue_char": "149"},
        {"label": "s1", "norm": "151", "class": [3], "residue_char": "151"},
    ],
}

# Z/12000 with the prime norm 9999991 of order 12000: about 279 000 bits.
OVERSIZED_QUOTIENT_DOC = {
    "invariant_factors": ["12000"],
    "primes": [{"norm": "9999991", "class": [1], "residue_char": "9999991"}],
}


class TestLongIntegers:
    def test_factors_past_the_str_limit_write_and_reconstruct(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(LONG_FACTOR_DOC))
        bundle = tmp_path / "bundle.json"
        argv = ["invariants", "--synthetic", str(spec), "--primes", "200"]
        assert main([*argv, "-o", str(bundle)]) == EXIT_OK
        doc = json.loads(bundle.read_text())
        longest = max(len(f) for e in doc["entries"] for f in e["factors"])
        assert longest > 4300
        assert bundle_to_json(bundle_from_json(doc)) == doc
        report = tmp_path / "report.json"
        assert main(["reconstruct", str(bundle), "-o", str(report)]) == EXIT_OK
        got = json.loads(report.read_text())
        assert got["class_number"] == 2000
        assert got["class_group_factors"] == ["2000"]
        assert got["norms"] == {"0": "149", "1": "151"}
        rt = ["roundtrip", "--synthetic", str(spec), "--primes", "200"]
        assert main([*rt, "-o", str(report)]) == EXIT_OK
        assert all(v["pass"] for v in json.loads(report.read_text())["verdicts"])
        assert capsys.readouterr().err == ""
        assert sys.get_int_max_str_digits() == limit

    def test_decimal_codec_matches_str(self):
        for n in (0, 7, 10**600 - 1, 10**600, 10**1201 + 1, 3**40000, 149**2000 - 1):
            text = cli._decimal(n)
            assert text.isdigit() and (text == "0" or text[0] != "0")
            assert cli._from_decimal(text) == n
            if n < 10**4000:
                assert text == str(n)

    @pytest.mark.parametrize(
        "empty, single, code",
        [
            (["0"], [10**5000 + 1, 3**12000 - 1], EXIT_FAIL),  # not homogeneous
            (["0", "0"], [10**5000 + 1, 7], EXIT_FAIL),  # not canonical
            ([10**5000 + 1, "0"], [8], EXIT_FAIL),  # torsion in the empty entry
            (["0"], [10**5000 + 1], EXIT_FAIL),  # norm not a prime power
            (["0"], [3**10000 - 1], EXIT_INSUFFICIENT),  # zeta bound 3**10000
            (["0"], ["7" * 80000], EXIT_INSUFFICIENT),  # above the factor limit
        ],
        ids=["mixed", "non-canonical", "empty-torsion", "not-prime-power",
             "huge-norm", "too-long"],
    )
    def test_long_factors_in_bad_bundles_exit_with_one_line(
        self, tmp_path, capsys, empty, single, code
    ):
        def text(x):
            return x if isinstance(x, str) else cli._decimal(x)

        doc = {
            "version": 1,
            "rank": len(empty),
            "labels": [0],
            "entries": [
                {"labels": [], "factors": [text(x) for x in empty]},
                {"labels": [0], "factors": [text(x) for x in single]},
            ],
        }
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        assert main(["reconstruct", str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "int_max_str_digits" not in err

    @pytest.mark.parametrize("command", ["invariants", "roundtrip"])
    def test_quotient_above_bit_limit_exits_3(self, tmp_path, capsys, command):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(OVERSIZED_QUOTIENT_DOC))
        out = tmp_path / "out.json"
        argv = [command, "--synthetic", str(spec), "--primes", "9999991", "-o", str(out)]
        assert main(argv) == EXIT_INSUFFICIENT
        err = capsys.readouterr().err
        assert err.startswith("error: the quotient for s0 needs ")
        assert f"above the limit {lattice.MAX_QUOTIENT_BITS} bits" in err
        assert err.count("\n") == 1
        assert not out.exists()


def test_runtime_needs_no_brute_force_quotient(tmp_path, monkeypatch):
    # Every quotient the CLI computes comes from the closed formula on the
    # plain class group; the brute-force Smith normal form of the sublattice
    # and the enumerating ClassGroupModel are test-only routes.
    def refuse(*args):
        raise AssertionError("brute-force quotient or element enumeration at runtime")

    monkeypatch.setattr(lattice, "lattice_quotient", refuse)
    monkeypatch.setattr(lattice, "sublattice_columns", refuse)
    monkeypatch.setattr(lattice.ClassGroupModel, "__post_init__", refuse)
    out = str(tmp_path / "out.json")
    synthetic = os.path.join(os.path.dirname(__file__), "golden", "synthetic_248.json")
    assert main(["roundtrip", "-D", "-10007", "--primes", "100", "-o", out]) == EXIT_OK
    argv = ["invariants", "-D", "-23603", "--primes", "100", "--set", "p_2,p_3c,p_37"]
    assert main([*argv, "-o", out]) == EXIT_OK
    assert main(["reconstruct", out, "-o", str(tmp_path / "report.json")]) == EXIT_OK
    assert main(["classgroup", "--synthetic", synthetic]) == EXIT_OK
    assert main(["roundtrip", "--synthetic", synthetic, "-o", out]) == EXIT_OK
    assert main(["classgroup", "-D", "-202127"]) == EXIT_OK
    # the two fields differ, so the verdict is a failure, not an error
    argv = ["compare", "-D", "-3299", "-D2", "-2408", "--bound", "200", "-o", out]
    assert main(argv) == EXIT_FAIL


class TestRoundTripCommand:
    def test_disc_minus_20(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            ["roundtrip", "-D", "-20", "--primes", "50", "-o", str(out)]
        ) == EXIT_OK
        doc = json.loads(out.read_text())
        assert all(v["pass"] for v in doc["verdicts"])
        assert doc["class_group_factors"] == ["2"]

    def test_synthetic_spec(self, synthetic_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            ["roundtrip", "--synthetic", synthetic_file, "--primes", "12",
             "-o", str(out)]
        ) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["class_group_factors"] == ["2", "2"]


class TestCompareCommand:
    def test_differ_at_three(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", "-D", "-4", "-D2", "-20", "--bound", "10", "-o", str(out)]
        )
        assert code == EXIT_FAIL
        doc = json.loads(out.read_text())
        assert doc["equivalent"] is False
        assert doc["first_zeta_difference"] == {"n": 3, "left": 0, "right": 2}

    def test_equivalent_to_itself(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert main(
            ["compare", "-D", "-20", "-D2", "-20", "--bound", "10", "-o", str(out)]
        ) == EXIT_OK
        assert json.loads(out.read_text())["equivalent"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["roundtrip", "-D", "-20", "--zeta", "0"],
        ["compare", "-D", "-4", "-D2", "-20", "--bound", "0"],
        ["invariants", "-D", "-20", "--primes", "-5"],
    ],
    ids=["zeta-0", "bound-0", "primes-negative"],
)
def test_non_positive_bound_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a positive integer" in captured.err.splitlines()[-1]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "usage: classrecon" in capsys.readouterr().out


def test_cli_import_does_not_load_sympy():
    src = os.path.dirname(os.path.dirname(classrecon.__file__))
    code = (
        "import classrecon.cli, sys; "
        "assert 'sympy' not in sys.modules; assert 'classrecon.oracle' not in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


class TestSyntheticParsing:
    def test_parses_and_validates(self):
        spec = synthetic_spec_from_json(SYNTHETIC_DOC)
        assert spec.factors == (2, 2)
        assert [p.label for p in spec.primes] == ["s0", "s1", "s2", "s3"]

    def test_custom_labels(self):
        doc = {
            "invariant_factors": ["2"],
            "primes": [
                {"label": "alpha", "norm": "3", "class": [1], "residue_char": "3"}
            ],
        }
        spec = synthetic_spec_from_json(doc)
        assert spec.primes[0].label == "alpha"

    @pytest.mark.parametrize(
        "doc",
        [
            {
                "invariant_factors": ["2"],
                "primes": [{"norm": "3", "class": [1], "residue_char": "5"}],
            },
            {
                "invariant_factors": ["2", "3"],
                "primes": [{"norm": "3", "class": [1, 1], "residue_char": "3"}],
            },
            {
                "invariant_factors": ["2"],
                "primes": [{"norm": "9", "class": [1], "residue_char": "9"}],
            },
        ],
        ids=["norm-not-power-of-char", "non-canonical-factors", "composite-char"],
    )
    def test_inconsistent_spec_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["classgroup", "--synthetic", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_group_order_above_limit_exits_3(self, tmp_path, capsys):
        doc = {
            "invariant_factors": ["100000000"],
            "primes": [{"norm": "3", "class": [1], "residue_char": "3"}],
        }
        with pytest.raises(fields.LimitExceeded):
            synthetic_spec_from_json(doc)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["classgroup", "--synthetic", str(path)]) == EXIT_INSUFFICIENT
        err = capsys.readouterr().err
        assert err.startswith("error: synthetic class group order ")
        assert err.count("\n") == 1

    def test_bad_synthetic_spec_exits_2(self, tmp_path):
        doc = {
            "invariant_factors": ["2"],
            "primes": [{"norm": "3", "class": [0], "residue_char": "3"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["classgroup", "--synthetic", str(path)]) == EXIT_USAGE

    def test_bundle_version_check(self):
        from classrecon.reconstruct import MalformedBundle

        with pytest.raises(MalformedBundle):
            bundle_from_json({"version": 99, "rank": 1, "labels": [], "entries": []})


MALFORMED_BUNDLES = {
    "no-rank": {"version": 1, "labels": [0], "entries": []},
    "top-level-array": [1, 2],
    "rank-not-integer": {"version": 1, "rank": "x", "labels": [], "entries": []},
    "non-canonical-factors": {
        "version": 1,
        "rank": 2,
        "labels": [],
        "entries": [{"labels": [], "factors": ["4", "2"]}],
    },
    "entry-not-object": {"version": 1, "rank": 1, "labels": [], "entries": [3]},
    "labels-not-integers": {"version": 1, "rank": 1, "labels": ["a"], "entries": []},
    "rank-is-bool": {"version": 1, "rank": True, "labels": [], "entries": []},
}


@pytest.mark.parametrize("doc", MALFORMED_BUNDLES.values(), ids=MALFORMED_BUNDLES.keys())
def test_malformed_bundle_exits_1(doc, tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    assert main(["reconstruct", str(path)]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


MALFORMED_SPECS = {
    "missing-keys": {"invariant_factors": ["2"]},
    "top-level-array": [],
    "factor-not-integer": {"invariant_factors": ["x"], "primes": []},
    "prime-not-object": {"invariant_factors": ["2"], "primes": [7]},
    "prime-missing-class": {
        "invariant_factors": ["2"],
        "primes": [{"norm": "3", "residue_char": "3"}],
    },
}


@pytest.mark.parametrize("doc", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS.keys())
def test_malformed_synthetic_spec_exits_2(doc, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["classgroup", "--synthetic", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000, b"{"],
    ids=["not-utf8", "deep-nesting", "truncated"],
)
def test_unreadable_input_exits_2(content, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main(["reconstruct", str(path)]) == EXIT_USAGE
    assert main(["classgroup", "--synthetic", str(path)]) == EXIT_USAGE
    assert main(["reconstruct", str(tmp_path)]) == EXIT_USAGE  # a directory


# Integers stay small: a singleton factor t with t + 1 a prime power sets the
# default zeta bound to t + 1, and the sieve allocates that many slots.
SMALL_INTS = st.integers(-3, 40)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10_000, 10_000)
    | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
INTEGERS = SMALL_INTS | SMALL_INTS.map(str) | JSON_VALUES
LABEL_IDS = st.lists(st.integers(-1, 3), max_size=3) | JSON_VALUES
BUNDLE_DOCS = st.fixed_dictionaries(
    {
        "version": st.just(1) | JSON_VALUES,
        "rank": INTEGERS,
        "labels": LABEL_IDS,
        "entries": st.lists(
            st.fixed_dictionaries(
                {"labels": LABEL_IDS, "factors": st.lists(INTEGERS, max_size=3)}
            )
            | JSON_VALUES,
            max_size=6,
        )
        | JSON_VALUES,
    }
)


@st.composite
def shaped_bundle_docs(draw):
    """Well-formed bundle files whose homogeneous entries may not be arithmetic."""
    rank = draw(st.integers(1, 6))
    n = draw(st.integers(0, 4))
    label_sets = [[i] for i in range(n)]
    if n > 1:
        label_sets += draw(
            st.lists(st.lists(st.integers(0, n - 1), min_size=2, unique=True), max_size=4)
        )
    entries = [{"labels": [], "factors": ["0"] * rank}]
    for labels in label_sets:
        # a singleton Z/t with s summands reads as norm N where t + 1 = N**(rank/s)
        s = draw(st.sampled_from([s for s in range(1, rank + 1) if rank % s == 0]))
        norm = draw(st.sampled_from([2, 3, 4, 5, 7, 9, 11, 12]))
        t = norm ** (rank // s) - 1 if len(labels) == 1 else draw(st.integers(1, 40))
        entries.append({"labels": labels, "factors": [str(t)] * s if t > 1 else []})
    return {"version": 1, "rank": rank, "labels": list(range(n)), "entries": entries}


SPEC_DOCS = st.fixed_dictionaries(
    {
        "invariant_factors": st.lists(INTEGERS, max_size=3) | JSON_VALUES,
        "primes": st.lists(
            st.fixed_dictionaries(
                {
                    "norm": INTEGERS,
                    "class": st.lists(INTEGERS, max_size=3) | JSON_VALUES,
                    "residue_char": INTEGERS,
                },
                optional={"label": JSON_VALUES},
            )
            | JSON_VALUES,
            max_size=4,
        )
        | JSON_VALUES,
    }
)


def _exit_code_for_file(argv_head, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv_head, path])
    if code != EXIT_OK:
        assert err.getvalue().count("\n") == 1, err.getvalue()
    return code


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | BUNDLE_DOCS | shaped_bundle_docs())
def test_arbitrary_json_bundle_never_raises(doc):
    assert _exit_code_for_file(["reconstruct"], doc) in range(4)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | SPEC_DOCS)
def test_arbitrary_json_synthetic_spec_never_raises(doc):
    assert _exit_code_for_file(["classgroup", "--synthetic"], doc) in range(4)
