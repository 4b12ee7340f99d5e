"""Command-line behavior: output shapes, file formats, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import classrecon
from classrecon import build_bundle, class_group_model
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
from classrecon.fields import QuadraticSpec, enumerate_prime_ideals

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
        bundle = build_bundle(
            class_group_model(spec), enumerate_prime_ideals(spec, 30), lazy=False
        )
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
    code = "import classrecon.cli, sys; assert 'sympy' not in sys.modules"
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
