"""Command-line behavior: output shapes, file formats, exit codes."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classrecon
from classrecon import cli, codec, errors, fields, forms, lattice, oracle, reconstruct
from classrecon.cli import EXIT_FAIL, EXIT_INSUFFICIENT, EXIT_OK, EXIT_USAGE, main
from classrecon.codec import bundle_from_json
from classrecon.fields import enumerate_prime_ideals, synthetic_spec_from_json
from classrecon.forms import QuadraticSpec, class_group
from classrecon.abgroup import FinGenAbGroup
from classrecon.lattice import build_bundle, bundle_to_json
from classrecon.reconstruct import InvariantBundle

import argparse_reference
from helpers import (
    bundle_carrying,
    reference_bundle_doc,
    reference_comparison_doc,
    reference_report_doc,
)
from test_golden import BUNDLE_1031, GOLDEN, run_case

SYNTHETIC_248 = str(GOLDEN / "synthetic_248.json")

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

        monkeypatch.setattr(forms, "is_fundamental_discriminant", no_enumeration)
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

    def test_unknown_set_label(self, tmp_path, capsys):
        code = main(
            ["invariants", "-D", "-20", "--primes", "12", "--set", "nope",
             "-o", str(tmp_path / "b.json")]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: unknown labels in --set: ['nope']\n"

    def test_serialization_round_trip(self):
        spec = QuadraticSpec(-20)
        bundle = bundle_carrying(class_group(spec), enumerate_prime_ideals(spec, 30))
        doc = json.loads(bundle_to_json(bundle))
        parsed = bundle_from_json(doc)
        assert parsed.rank == bundle.rank
        assert len(parsed.labels) == len(bundle.labels)
        relabel = {l: str(i) for i, l in enumerate(bundle.labels)}
        for key, group in bundle.entries.items():
            assert parsed.entries[frozenset(relabel[l] for l in key)] == group
        assert json.loads(bundle_to_json(parsed))["entries"] == doc["entries"]

    def test_writer_refuses_a_bundle_its_reader_refuses(self):
        # a lazy bundle holds no entry until one is asked for, and a reader
        # needs the empty-set and every singleton entry
        spec = QuadraticSpec(-20)
        primes = enumerate_prime_ideals(spec, 30)
        bundle = build_bundle(class_group(spec), primes)
        with pytest.raises(ValueError, match="lattice.add_chain_entries"):
            bundle_to_json(bundle)
        bundle.entry(())
        with pytest.raises(ValueError, match="lattice.add_chain_entries"):
            bundle_to_json(bundle)
        lattice.add_chain_entries(bundle, primes)
        assert bundle_from_json(json.loads(bundle_to_json(bundle))).rank == bundle.rank

    def test_codec_converts_each_distinct_factor_once_per_entry(self, monkeypatch):
        bundle = InvariantBundle(
            rank=3,
            labels=("a",),
            entries={
                frozenset(): FinGenAbGroup((0, 0, 0)),
                frozenset({"a"}): FinGenAbGroup((2, 6, 6)),
            },
        )
        written, read = [], []
        decimal, json_factor = lattice._decimal, codec._json_factor
        monkeypatch.setattr(lattice, "_decimal", lambda n: written.append(n) or decimal(n))
        monkeypatch.setattr(
            codec, "_json_factor", lambda v: read.append(v) or json_factor(v)
        )
        text = bundle_to_json(bundle)
        doc = json.loads(text)
        assert [e["factors"] for e in doc["entries"]] == [["0"] * 3, ["2", "6", "6"]]
        assert sorted(written) == [0, 2, 6]
        assert bundle_to_json(bundle_from_json(doc)) == text
        assert read == ["0", "2", "6"]

    def test_codec_converts_a_factor_shared_by_entries_once(self, monkeypatch):
        bundle = InvariantBundle(
            rank=4,
            labels=("a", "b"),
            entries={
                frozenset(): FinGenAbGroup((0,) * 4),
                frozenset({"a"}): FinGenAbGroup((8,) * 4),
                frozenset({"b"}): FinGenAbGroup((24,) * 2),
                frozenset({"a", "b"}): FinGenAbGroup((8,) * 2),
            },
        )
        written = []
        decimal = lattice._decimal
        monkeypatch.setattr(lattice, "_decimal", lambda n: written.append(n) or decimal(n))
        doc = json.loads(bundle_to_json(bundle))
        assert [e["labels"] for e in doc["entries"]] == [[], [0], [1], [0, 1]]
        assert sorted(written) == [0, 8, 24]


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

    def test_zeta_above_the_largest_norm_is_refused(self, capsys):
        # The bundle was written at --primes 400, and its largest norm is 397.
        # It lacks the primes above 400, so a_401 and a_421 would read 0.
        assert main(["reconstruct", BUNDLE_1031, "--zeta", "500"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: --zeta 500 reaches the prime power "
                                       "401, above the largest recovered norm 397\n")
        # 401 is prime, so a_401 would miss the primes of norm 401
        assert main(["reconstruct", BUNDLE_1031, "--zeta", "401"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: --zeta 401 reaches the prime power "
                                       "401, above the largest recovered norm 397\n")
        # the largest norm itself is the default bound
        assert main(["reconstruct", BUNDLE_1031, "--zeta", "397"]) == EXIT_OK
        assert capsys.readouterr() == ((GOLDEN / "reconstruct_1031.stdout").read_text(), "")

    def test_zeta_refusal_is_decided_before_the_sieve(self, capsys, monkeypatch):
        # The refusal needs only the recovered norms, so it costs what a
        # default call costs, not a zeta sieve up to 10**7.
        def best_of_three(argv, code):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                assert main(argv) == code
                times.append(time.perf_counter() - start)
            return min(times)

        default = best_of_three(["reconstruct", BUNDLE_1031], EXIT_OK)
        refused = best_of_three(["reconstruct", BUNDLE_1031, "--zeta", "10000000"], EXIT_USAGE)
        assert refused < 2 * default + 0.05
        capsys.readouterr()

        def refuse(*args):
            raise AssertionError("sieved before the refusal")

        monkeypatch.setattr(reconstruct, "zeta_coefficients", refuse)
        assert main(["reconstruct", BUNDLE_1031, "--zeta", "10000000"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: --zeta 10000000 reaches the prime power "
                                       "401, above the largest recovered norm 397\n")

    def test_zeta_below_the_next_prime_power_is_accepted(self, capsys):
        # 398, 399 and 400 are not prime powers: every ideal of norm at most
        # 400 is a product of prime ideals of norm at most 397, all carried.
        assert main(["reconstruct", BUNDLE_1031, "--zeta", "400"]) == EXIT_OK
        blind = json.loads(capsys.readouterr().out)["zeta"]
        assert main(["roundtrip", "-D", "-1031", "--primes", "400", "--zeta", "400"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["zeta"] == blind
        assert blind["bound"] == 400

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


def test_handlers_raise_their_usage_refusals(tmp_path):
    # `main` alone maps a refusal to its exit code
    out = str(tmp_path / "out.json")
    for argv, message in [
        (["invariants", "-D", "-20", "--set", "p_3,nope", "-o", out],
         "unknown labels in --set: ['nope']"),
        (["roundtrip", "-D", "-20", "--primes", "30", "--zeta", "31"],
         "--zeta 31 is above the --primes bound 30"),
        (["reconstruct", BUNDLE_1031, "--zeta", "500"],
         "--zeta 500 reaches the prime power 401, above the largest recovered norm 397"),
    ]:
        handler, args = cli._parse(argv)
        with pytest.raises(errors.UsageError) as refused:
            handler(args)
        assert str(refused.value) == message


class TestSizeLimits:
    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started on a refused bound")

        monkeypatch.setattr(fields, "primes_up_to", refuse)
        monkeypatch.setattr(reconstruct, "zeta_coefficients", refuse)

    @pytest.mark.parametrize(
        "torsion, extra",
        [(str(2**40 - 1), []), ("4", ["--zeta", str(errors.MAX_BOUND + 1)])],
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
        assert main([*argv, str(errors.MAX_BOUND + 1)]) == EXIT_INSUFFICIENT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: prime norm bound ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["classgroup", "--synthetic"], {"invariant_factors": ["2"], "primes": [
                {"norm": "3", "class": [1], "residue_char": "3"},
                {"norm": "2147483647", "class": [0], "residue_char": "2147483647"},
            ]}),
            (["reconstruct", "--zeta", "10"], {"version": 1, "rank": 1, "labels": [0], "entries": [
                {"labels": [], "factors": ["0"]},
                {"labels": [0], "factors": ["2147483646"]},
            ]}),
        ],
        ids=["synthetic-residue-char", "recovered-norm"],
    )
    def test_prime_trial_division_cannot_certify_exits_3(self, tmp_path, capsys, argv, doc):
        # 2**31 - 1 is prime, but it is above MAX_BOUND and has no prime
        # factor up to isqrt(MAX_BOUND), so trial division cannot certify it
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        assert main([*argv, str(path)]) == EXIT_INSUFFICIENT
        assert capsys.readouterr() == ("", (
            "error: cannot certify primality of 2147483647: it is above 10000000 "
            "and has no prime factor up to 3137\n"))


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
        text = bundle.read_text()
        doc = json.loads(text)
        longest = max(len(f) for e in doc["entries"] for f in e["factors"])
        assert longest > 4300
        assert bundle_to_json(bundle_from_json(doc)) + "\n" == text
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

    def test_norm_past_the_str_limit_reconstructs(self, tmp_path, capsys):
        # rank 1: the singleton Z/(3**10000 - 1) gives the norm 3**10000,
        # 4772 digits, far above the zeta bound
        doc = {
            "version": 1,
            "rank": 1,
            "labels": [0],
            "entries": [
                {"labels": [], "factors": ["0"]},
                {"labels": [0], "factors": [codec._decimal(3**10000 - 1)]},
            ],
        }
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(doc))
        assert main(["reconstruct", str(path), "--zeta", "10"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        [norm] = report["norms"].values()
        assert len(norm) == 4772 and codec._from_decimal(norm) == 3**10000
        assert report["class_group_factors"] == []
        assert report["zeta"] == {"bound": 10, "coefficients": [1] + [0] * 9}

    def test_power_of_two_norm_is_refused_cold_without_delay(self, tmp_path):
        # The singleton Z/(2**65536 - 1) gives the norm 2**65536, a prime power
        # far above the zeta limit.  Deciding the prime power takes one power
        # of 2, so a cold call reaches its one exit-3 line about as fast as a
        # cold call on a small bundle (stripping 2 took over a second).
        def cold(doc):
            path = tmp_path / "bundle.json"
            path.write_text(json.dumps(doc))
            env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(classrecon.__file__)))
            times = []
            for _ in range(2):
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "classrecon.cli", "reconstruct", str(path)],
                    env=env, capture_output=True, text=True, timeout=60,
                )
                times.append(time.perf_counter() - start)
            return proc, min(times)

        def rank_one(factor):
            return {"version": 1, "rank": 1, "labels": [0], "entries": [
                {"labels": [], "factors": ["0"]}, {"labels": [0], "factors": [factor]}]}

        small, baseline = cold(rank_one("4"))
        assert small.returncode == EXIT_OK
        big, elapsed = cold(rank_one(codec._decimal(2**65536 - 1)))
        assert (big.returncode, big.stdout) == (EXIT_INSUFFICIENT, "")
        assert big.stderr == ("error: zeta bound <65537-bit integer> exceeds the limit "
                              "10000000: it allocates one slot per integer up to the bound\n")
        assert elapsed < baseline + 0.4

    def test_decimal_codec_matches_str(self):
        for n in (0, 7, 10**600 - 1, 10**600, 10**1201 + 1, 3**40000, 149**2000 - 1):
            text = codec._decimal(n)
            assert text.isdigit() and (text == "0" or text[0] != "0")
            assert codec._from_decimal(text) == n
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
            return x if isinstance(x, str) else codec._decimal(x)

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


def test_runtime_needs_no_brute_force_quotient(tmp_path):
    # Every quotient the CLI computes comes from the closed formula on the
    # plain class group; the brute-force Smith normal form of the sublattice,
    # the enumerating ClassGroupModel and every other certifier live in
    # `oracle`, which a fresh interpreter running every subcommand never loads.
    out = str(tmp_path / "out.json")
    synthetic = os.path.join(os.path.dirname(__file__), "golden", "synthetic_248.json")
    calls = [
        (["roundtrip", "-D", "-10007", "--primes", "100", "-o", out], EXIT_OK),
        (["invariants", "-D", "-23603", "--primes", "100", "--set", "p_2,p_3c,p_37",
          "-o", out], EXIT_OK),
        (["reconstruct", out, "-o", str(tmp_path / "report.json")], EXIT_OK),
        (["classgroup", "--synthetic", synthetic], EXIT_OK),
        (["roundtrip", "--synthetic", synthetic, "-o", out], EXIT_OK),
        (["classgroup", "-D", "-202127"], EXIT_OK),
        # the two fields differ, so the verdict is a failure, not an error
        (["compare", "-D", "-3299", "-D2", "-2408", "--bound", "200", "-o", out],
         EXIT_FAIL),
    ]
    code = (
        "import json, sys\n"
        "from classrecon.cli import main\n"
        "for argv, want in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == want, argv\n"
        "assert 'classrecon.oracle' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(classrecon.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(calls)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def snf_calls(monkeypatch):
    """Calls to the general `oracle.smith_normal_form` and to the class-group
    build's `forms._cokernel`, counted at every binding in the package.

    The package's memo caches are cleared first, so a call pays its class
    group build as it would in a fresh process.
    """
    calls = {"smith_normal_form": [], "_cokernel": []}
    originals = {oracle.smith_normal_form: "smith_normal_form", forms._cokernel: "_cokernel"}

    def counting(original, name):
        def counted(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)

        return counted

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("classrecon") and module is not None:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in originals:
                    monkeypatch.setattr(module, attr, counting(value, originals[value]))
                elif callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    return calls


@pytest.mark.parametrize(
    ("argv", "code", "expected"),
    [
        (["roundtrip", "--synthetic", SYNTHETIC_248], EXIT_OK, 0),
        (["invariants", "-D", "-23603", "--primes", "100", "--set", "p_2,p_3c,p_37"], EXIT_OK, 1),
        (["classgroup", "-D", "-3299"], EXIT_OK, 1),
        (["roundtrip", "-D", "-2184", "--primes", "60"], EXIT_OK, 1),
        (["compare", "-D", "-3299", "-D2", "-2408", "--bound", "60"], EXIT_FAIL, 2),
        (["reconstruct", BUNDLE_1031], EXIT_OK, 0),
    ],
    ids=["roundtrip-synthetic", "invariants-sets", "classgroup-D", "roundtrip-D", "compare",
         "reconstruct"],
)
def test_smith_normal_form_stays_off_the_hot_path(argv, code, expected, snf_calls, capsys):
    # Indices and relations come from a column echelon, and no command runs
    # the general Smith normal form, a certifier in `oracle`.  A quadratic
    # class-group build reduces its relation matrix once, by `_cokernel`.
    assert main(argv) == code
    capsys.readouterr()
    assert snf_calls == {"smith_normal_form": [], "_cokernel": snf_calls["_cokernel"]}
    assert len(snf_calls["_cokernel"]) == expected


@pytest.mark.parametrize(("d", "h", "calls"), [(-10007, 77, 38), (-3000047, 955, 477)])
def test_odd_class_number_takes_half_the_compositions(d, h, calls, monkeypatch):
    # Each coset the build covers by translation gives its inverse coset by
    # negation, (a, b, c) -> (a, -b, c), so odd h takes (h - 1)/2
    # compositions, where translation alone took h - 1.
    count = 0
    compose = forms._compose_triples

    def counted(f, g):
        nonlocal count
        count += 1
        return compose(f, g)

    monkeypatch.setattr(forms, "_compose_triples", counted)
    data = forms._discriminant_data.__wrapped__(d)
    assert len(data.forms) == h
    assert count == calls == (h - 1) // 2


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "-D", "-3299", "--primes", "100",
         "--set", "p_2,p_3c,p_7", "--set", "p_3,p_5"],
        ["roundtrip", "-D", "-3299", "--primes", "100"],
    ],
    ids=["invariants-sets", "roundtrip"],
)
def test_each_prime_power_is_computed_once_per_bundle(argv, tmp_path, monkeypatch):
    # A bundle computes each prime's N(p)**ord[p] - 1 once, in prime_terms,
    # and every entry it computes on demand reuses it.  On Z/3 x Z/9 the
    # chains need multi-label entries too.
    seen = []
    powers = 0
    terms_of, make = lattice.prime_terms, lattice.PrimeTerms

    def recorded(group, primes):
        seen.extend(p.label for p in primes)
        return terms_of(group, primes)

    def counted(**kwargs):
        nonlocal powers
        powers += 1
        return make(**kwargs)

    monkeypatch.setattr(lattice, "prime_terms", recorded)
    monkeypatch.setattr(lattice, "PrimeTerms", counted)
    on_demand = 0
    entry = reconstruct.InvariantBundle.entry

    def counted_entry(bundle, labels):
        nonlocal on_demand
        on_demand += frozenset(labels) not in bundle.entries  # a `compute` call
        return entry(bundle, labels)

    monkeypatch.setattr(reconstruct.InvariantBundle, "entry", counted_entry)
    assert main([*argv, "-o", str(tmp_path / "out.json")]) == EXIT_OK
    labels = [p.label for p in enumerate_prime_ideals(QuadraticSpec(-3299), 100)]
    assert sorted(seen) == sorted(labels)
    assert powers == len(labels)
    assert on_demand > 0


def test_invariants_of_a_cyclic_group_writes_no_chain_entries(tmp_path):
    # On Z/47 the first candidate of gain 47 completes the chain, so the
    # file holds the empty set, the singletons and the --set entries only.
    out = tmp_path / "out.json"
    sets = ["p_2,p_3c,p_37", "p_3,p_5", "p_5,p_3"]
    argv = ["invariants", "-D", "-23603", "--primes", "100", "-o", str(out)]
    assert main([*argv, *(a for s in sets for a in ("--set", s))]) == EXIT_OK
    labels = enumerate_prime_ideals(QuadraticSpec(-23603), 100)
    distinct_sets = {frozenset(s.split(",")) for s in sets}
    assert len(json.loads(out.read_text())["entries"]) == 1 + len(labels) + len(distinct_sets)


@pytest.mark.parametrize(
    ("argv", "factors"),
    [
        (["-D", "-84", "--primes", "50"], ["2", "2"]),
        (["-D", "-2036", "--primes", "200"], ["30"]),
        (["-D", "-2184", "--primes", "120"], ["2", "2", "6"]),
        (["-D", "-3299", "--primes", "300"], ["3", "9"]),
        (["--synthetic", SYNTHETIC_248, "--primes", "50"], ["2", "4", "8"]),
    ],
    ids=["84", "2036", "2184", "3299", "synthetic-248"],
)
def test_written_bundles_are_self_sufficient(argv, factors, tmp_path, capsys):
    # A loaded bundle cannot compute entries, so its blind reconstruction
    # succeeds only if `invariants` wrote every entry the chains read.
    out = tmp_path / "bundle.json"
    report = tmp_path / "report.json"
    assert main(["invariants", *argv, "-o", str(out)]) == EXIT_OK
    assert main(["reconstruct", str(out), "-o", str(report)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert json.loads(report.read_text())["class_group_factors"] == factors


def test_invariants_warns_when_odd_norms_miss_the_class_group(tmp_path, capsys):
    # Cl(-420) = (Z/2)^3, and the classes of p_3, p_5 and p_7 span only Z/2 x Z/2:
    # the file is written all the same, and one warning line says why.
    out = tmp_path / "out.json"
    code = main(["invariants", "-D", "-420", "--primes", "10", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out == ""
    assert captured.err == (
        "warning: odd-norm labels exhibit a subgroup of order 4, but the class "
        "number is 8; supply more primes\n"
    )
    assert out.read_bytes() == (GOLDEN / "invariants_420.out").read_bytes()


def test_too_few_odd_norm_primes_give_one_message(tmp_path, capsys):
    # Below norm 3, -20 (h = 2) has only the prime above 2, of even norm;
    # the synthetic Z/2 below has its one odd-norm prime in the trivial
    # class.  The blind consumer alone decides this, so the spec loads,
    # every command that runs the consumer refuses with its line, and
    # `invariants` prints it as its warning.
    message = ("odd-norm labels exhibit a subgroup of order 1, but the class number "
               "is 2; supply more primes")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "invariant_factors": ["2"],
        "primes": [{"norm": "3", "class": [0], "residue_char": "3"},
                   {"norm": "2", "class": [1], "residue_char": "2"}],
    }))
    assert main(["classgroup", "--synthetic", str(spec)]) == EXIT_OK
    assert capsys.readouterr() == ("Z/2; synthetic primes: 2\n", "")
    for field, bound in ((["-D", "-20"], "2"), (["--synthetic", str(spec)], "50")):
        bundle = str(tmp_path / "bundle.json")
        assert main(["invariants", *field, "--primes", bound, "-o", bundle]) == EXIT_OK
        assert capsys.readouterr() == ("", f"warning: {message}\n"), field
        for argv in (["roundtrip", *field, "--primes", bound],
                     ["compare", *field, "-D2", "-4", "--bound", bound],
                     ["reconstruct", bundle]):
            assert main(argv) == EXIT_INSUFFICIENT, argv
            assert capsys.readouterr() == ("", f"error: {message}\n"), argv


GOLDEN_BUNDLES = sorted(GOLDEN.glob("invariants_*.out")) + sorted(
    GOLDEN.glob("legacy_invariants_*.json")
)


@pytest.mark.parametrize("path", GOLDEN_BUNDLES, ids=lambda p: p.name)
def test_golden_bundles_reconstruct_from_the_file_alone(path):
    # A loaded bundle cannot compute entries: every entry the chains read
    # must be in the file, or BundleEntryMissing escapes.
    bundle = bundle_from_json(json.loads(path.read_text()))
    assert bundle.compute is None
    if path.name == "invariants_420.out":  # the chains read all, then fall short
        with pytest.raises(errors.InsufficientGenerators):
            reconstruct.reconstruct_all(bundle)
    else:
        reconstruct.reconstruct_all(bundle)


@pytest.mark.parametrize(
    "name", ["invariants_1031", "invariants_23603_sets", "invariants_3299",
             "invariants_420", "invariants_synthetic_sets"],
)
def test_invariants_recovers_no_norm_and_sieves_no_zeta(name, tmp_path, monkeypatch):
    # The producer knows the norms; only the blind consumer recovers them.
    def refuse(*args, **kwargs):
        raise AssertionError("the producer ran consumer-only work")

    monkeypatch.setattr(reconstruct, "recover_norm", refuse)
    monkeypatch.setattr(reconstruct, "zeta_coefficients", refuse)
    out = tmp_path / "out"
    assert run_case(name, out) == (EXIT_OK, "")
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize(
    ("torsion", "message"),
    [
        ("1000", "error: torsion 1000 of ['1', '2'] does not divide 19682, the torsion of 1"),
        ("3", "error: torsion 3 of ['1', '2'] does not divide 19682, the torsion of 1"),
        # the odd part of gcd(t_1, t_2) = 19682 divides both, but is odd
        ("9841", "error: torsion 9841 of the odd-norm set ['1', '2'] is not even"),
        ("2" * 400, "error: torsion <1327-bit integer> of ['1', '2'] does not divide"),
    ],
    ids=["not-a-divisor", "odd-non-divisor", "odd", "huge"],
)
def test_reconstruct_refuses_torsion_the_closed_form_rules_out(
    torsion, message, tmp_path, capsys
):
    # In this bundle of Cl = Z/3 x Z/9, entry {1, 2} is 3 copies of Z/2, and
    # t_1 = 3**9 - 1 = 19682.
    path = tmp_path / "bundle.json"
    assert main(["invariants", "-D", "-3299", "--primes", "100", "-o", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    entry = next(e for e in doc["entries"] if e["labels"] == [1, 2])
    assert entry["factors"] == ["2", "2", "2"]
    entry["factors"] = [torsion] * 3
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["reconstruct", str(path)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


OVERSIZED_SECOND_PRIME_DOC = {
    "invariant_factors": ["12000"],
    "primes": [
        {"label": "small", "norm": "3", "class": [0], "residue_char": "3"},
        {"norm": "9999991", "class": [1], "residue_char": "9999991"},
    ],
}


@pytest.mark.parametrize("command", ["invariants", "roundtrip"])
def test_every_prime_is_checked_before_any_power(command, tmp_path, capsys, monkeypatch):
    # The small prime comes first; its power must not be taken before the
    # second prime is refused.
    def refuse(**kwargs):
        raise AssertionError("a power was taken before every size was checked")

    monkeypatch.setattr(lattice, "PrimeTerms", refuse)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(OVERSIZED_SECOND_PRIME_DOC))
    out = tmp_path / "out.json"
    argv = [command, "--synthetic", str(spec), "--primes", "9999991", "-o", str(out)]
    assert main(argv) == EXIT_INSUFFICIENT
    err = capsys.readouterr().err
    assert err == (
        "error: the quotient for s1 needs 9999991**12000 - 1, about 279042 bits, "
        f"above the limit {lattice.MAX_QUOTIENT_BITS} bits\n"
    )
    assert not out.exists()


class TestRoundTripCommand:
    def test_disc_minus_20(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            ["roundtrip", "-D", "-20", "--primes", "50", "-o", str(out)]
        ) == EXIT_OK
        doc = json.loads(out.read_text())
        assert all(v["pass"] for v in doc["verdicts"])
        assert doc["class_group_factors"] == ["2"]

    def test_class_number_4325(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["roundtrip", "-D", "-30000023", "--primes", "200", "-o", str(out)]
        assert main(argv) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["class_number"] == 4325
        assert len(doc["verdicts"]) == 4
        assert all(v["pass"] for v in doc["verdicts"])

    def test_synthetic_spec(self, synthetic_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(
            ["roundtrip", "--synthetic", synthetic_file, "--primes", "12",
             "-o", str(out)]
        ) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["class_group_factors"] == ["2", "2"]

    def test_failed_verdict_is_named_on_one_line(self, capsys, monkeypatch):
        # the ground truth's zeta coefficients, tampered: only that verdict fails
        argv = ["roundtrip", "-D", "-20", "--primes", "20"]
        assert main(argv) == EXIT_OK
        passed = capsys.readouterr()
        truth = lattice.zeta_coefficients
        monkeypatch.setattr(lattice, "zeta_coefficients", lambda *a: truth(*a)[:-1] + [-1])
        assert main(argv) == EXIT_FAIL
        failed = capsys.readouterr()
        assert failed.err == "error: failed verdicts: zeta\n"
        doc = json.loads(failed.out)
        assert [v["name"] for v in doc["verdicts"] if not v["pass"]] == ["zeta"]
        assert doc["class_group_factors"] == json.loads(passed.out)["class_group_factors"]


    def test_zeta_above_the_prime_bound_is_refused(self, capsys):
        # Both sides would count only the primes of norm <= 10, so for Q(i)
        # the verdicts would pass with a_13 = a_17 = 0.
        argv = ["roundtrip", "-D", "-4", "--primes", "10", "--zeta", "20"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --zeta 20 is above the --primes bound 10\n"
        assert main(["roundtrip", "-D", "-4", "--primes", "20", "--zeta", "20"]) == EXIT_OK
        coefficients = json.loads(capsys.readouterr().out)["zeta"]["coefficients"]
        assert coefficients[12] == coefficients[16] == 2


class TestCompareCommand:
    def test_differ_at_three(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = main(
            ["compare", "-D", "-4", "-D2", "-20", "--bound", "10", "-o", str(out)]
        )
        assert code == EXIT_FAIL
        doc = json.loads(out.read_text())
        assert doc["equivalent"] is False
        assert doc["first_zeta_difference"] == {"n": 3, "left": 0, "right": 2}
        assert capsys.readouterr().err == f"error: {doc['detail']}\n"

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


# -- the argv grammar: the command table against the argparse reference -----

OPTION_NAMES = {
    "classgroup": ["-D", "--synthetic"],
    "invariants": ["-D", "--synthetic", "--primes", "--set", "--show-labels", "-o", "--output"],
    "reconstruct": ["--zeta", "-o", "--output"],
    "roundtrip": ["-D", "--synthetic", "--primes", "--zeta", "-o", "--output"],
    "compare": ["-D", "--synthetic", "-D2", "--synthetic2", "--bound", "-o", "--output"],
}
# Positive, zero, negative and non-integer values, `-`, the empty string and
# a value with a space (argparse reads it as a value, never as an option).
ARG_VALUES = st.integers(-100, 100).map(str) | st.sampled_from(
    ["1e3", "1.5", "-1.5", "-.5", "-5.", "x", "-", "", "a b", "-x y", "p_2,p_3", " 7"]
)
# Unknown options, abbreviations and tokens that only look like numbers.
JUNK = st.sampled_from(["--bogus", "-x", "foo", "--prim", "--out", "--synth", "-5x", "-1e3"])


@st.composite
def grammar_argvs(draw):
    """Argv from the documented grammar: exact names, `--name=value`, values
    in the next token, junk and -h; no attached short values and no `--`,
    which only argparse accepts."""
    command = draw(st.sampled_from([*OPTION_NAMES, "bogus"]))
    names = ["-h", "--help", *OPTION_NAMES.get(command, [])]
    long_names = [n for n in names if n.startswith("--")]
    token = (
        st.sampled_from(names)
        | ARG_VALUES
        | JUNK
        | st.tuples(st.sampled_from(long_names), ARG_VALUES).map("=".join)
    )
    head = draw(st.lists(JUNK | st.sampled_from(["-h", "--help=x", "-20"]), max_size=2))
    named = [command] if draw(st.integers(0, 9)) else []
    return [*head, *named, *draw(st.lists(token, max_size=8))]


def _reference_parse(argv):
    """(exit code, handler, arguments) from argparse; on exit, its message."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            args = argparse_reference.build_parser().parse_args(argv)
    except SystemExit as exc:
        message = err.getvalue().splitlines()[-1].partition(": error: ")[2] if exc.code else None
        return exc.code, message
    values = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return EXIT_OK, args.func, values


def _table_parse(argv):
    """The same triple from the command table."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            handler, args = cli._parse(argv)
    except errors.UsageError as exc:
        return EXIT_USAGE, str(exc)
    return (EXIT_OK, None) if handler is None else (EXIT_OK, handler, vars(args))


@settings(max_examples=400, deadline=None)
@given(grammar_argvs())
def test_table_parser_agrees_with_argparse(argv):
    assert _table_parse(argv) == _reference_parse(argv)


@pytest.mark.parametrize(
    ("argv", "values"),
    [
        (["classgroup", "-D", "-20"], {"discriminant": -20, "synthetic": None}),
        (["classgroup", "--synthetic=-"], {"discriminant": None, "synthetic": "-"}),
        (
            ["invariants", "--primes=7", "-D", "-20", "--primes", "12", "--set", "a",
             "--set=b,c", "--show-labels", "-o", "-"],
            {"discriminant": -20, "synthetic": None, "primes": 12, "set": ["a", "b,c"],
             "show_labels": True, "output": "-"},
        ),
        (["reconstruct", "--zeta", "3", "-"], {"bundle": "-", "zeta": 3, "output": None}),
        (
            ["compare", "-D2", "-4", "--synthetic", "f", "--output=o"],
            {"discriminant": None, "synthetic": "f", "discriminant2": -4,
             "synthetic2": None, "bound": 50, "output": "o"},
        ),
    ],
    ids=["next-token", "equals", "last-wins-and-repeat", "positional", "pairs"],
)
def test_accepted_forms(argv, values):
    handler, args = cli._parse(argv)
    module, name = cli.COMMANDS[argv[0]][:2]
    assert handler is getattr(importlib.import_module(f"classrecon.{module}"), name)
    assert vars(args) == values


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["invariants", "-D", "-20", "--prim", "5"], "unrecognized arguments: --prim 5"),
        (["classgroup", "-D-20"], "one of the arguments -D --synthetic is required"),
        (["classgroup", "-D", "-20", "--", "x"], "unrecognized arguments: -- x"),
        (["reconstruct", "--", "-x"], "the following arguments are required: bundle"),
        (["classgroup", "-D", "-20", "--synthetic", "f"],
         "argument --synthetic: not allowed with argument -D"),
        (["invariants", "-D", "-20", "--show-labels=yes"],
         "argument --show-labels: ignored explicit argument 'yes'"),
        (["-D", "-20"], "argument command: invalid choice: '-20' (choose from 'classgroup', "
         "'invariants', 'reconstruct', 'roundtrip', 'compare')"),
    ],
    ids=["abbreviation", "attached-short-value", "double-dash", "double-dash-positional",
         "pair", "flag-value", "no-command"],
)
def test_refused_forms_exit_2_with_one_line(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


# Small inputs only: every call must finish in milliseconds.
DISCRIMINANTS = ["-3", "-4", "-20", "-84", "-1031", "5", "-1000000000007", "x"]
FILES = [SYNTHETIC_248, BUNDLE_1031, "missing.json", "-"]
SMALL_VALUES = {
    "--primes": ["1", "12", "0", "1e3"], "--zeta": ["1", "12", "0"], "--bound": ["12", "0"],
    "--set": ["p_2,p_3", "p_3", "nope"], "--show-labels": [None], "-o": ["out", "-"],
}
NOISE = st.sampled_from(["-h", "--bogus", "--", "x", "-D", "--primes", "--synthetic"])


@st.composite
def small_argvs(draw):
    """A subcommand with its spec or bundle and options of small values,
    sometimes with a noise token put in."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    argv = [command]
    if command == "reconstruct":
        argv.append(draw(st.sampled_from(FILES)))
    for suffix in ("", "2") if command == "compare" else ("",) * (command != "reconstruct"):
        argv += draw(
            st.tuples(st.just(f"-D{suffix}"), st.sampled_from(DISCRIMINANTS))
            | st.tuples(st.just(f"--synthetic{suffix}"), st.sampled_from(FILES))
        )
    names = [n for n in OPTION_NAMES[command] if n in SMALL_VALUES]
    for name in draw(st.lists(st.sampled_from(names), max_size=3)) if names else ():
        value = draw(st.sampled_from(SMALL_VALUES[name]))
        argv += [name] if value is None else [name, value]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(NOISE))
    return argv


@settings(max_examples=150, deadline=None)
@given(small_argvs())
def test_any_argv_exits_with_a_documented_code_and_one_error_line(argv):
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        out, err = io.StringIO(), io.StringIO()
        stdin = io.TextIOWrapper(io.BytesIO(b"not json"))
        os.chdir(tmp)  # relative -o paths land here
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    mock.patch.object(sys, "stdin", stdin):
                code = main(argv)
        finally:
            os.chdir(here)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INSUFFICIENT)
    if code != EXIT_OK:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err



# The exit code of every exception class in `classrecon.errors`, as the `cli`
# docstring and the README give them.
DOCUMENTED_EXIT_CODES = {
    "InternalContradiction": EXIT_FAIL,
    "MalformedBundle": EXIT_FAIL,
    "InvalidDiscriminant": EXIT_USAGE,
    "InvalidSyntheticSpec": EXIT_USAGE,
    "UnreadableInput": EXIT_USAGE,
    "UsageError": EXIT_USAGE,
    "InsufficientGenerators": EXIT_INSUFFICIENT,
    "BundleEntryMissing": EXIT_INSUFFICIENT,
    "LimitExceeded": EXIT_INSUFFICIENT,
    "VerdictFailed": EXIT_FAIL,
}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, Exception)]


def test_every_error_class_has_a_documented_exit_code():
    assert sorted(c.__name__ for c in ERROR_CLASSES) == sorted(DOCUMENTED_EXIT_CODES)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_code_and_one_line(cls, capsys, monkeypatch):
    # An unmapped class would escape `main` as a traceback.
    def handler(args):
        raise cls("a message\n  on two lines")

    monkeypatch.setattr(forms, "cmd_classgroup", handler)
    assert main(["classgroup", "-D", "-4"]) == DOCUMENTED_EXIT_CODES[cls.__name__]
    assert capsys.readouterr() == ("", "error: a message on two lines\n")


def test_calls_in_one_process_match_fresh_interpreters(tmp_path, capsys):
    # A call leaves no state behind: each step's exit code, output and
    # written file equal those of the same step in a fresh interpreter.
    out = tmp_path / "out.json"
    invariants = ["invariants", "-D", "-23603", "--primes", "100", "-o", str(out)]
    steps = [
        ["invariants", "-D", "-20", "--primes", "many"],
        ["--help"],
        [*invariants, "--set", "p_2,p_3c,p_37"],
        invariants,
    ]

    def written():
        return out.exists() and out.read_bytes()

    def in_process(argv):
        out.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err.encode(), written()

    def fresh(argv):
        out.unlink(missing_ok=True)
        return (*_run_cli(argv), written())

    shared = [in_process(argv) for argv in steps]
    assert shared == [fresh(argv) for argv in steps]
    assert [step[0] for step in shared] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]
    assert shared[2][3] != shared[3][3]  # only the first holds the --set entry
    code, stdout = run_case("invariants_23603_sets", out)
    assert (code, stdout) == (EXIT_OK, "")
    assert out.read_bytes() == (GOLDEN / "invariants_23603_sets.out").read_bytes()


def test_a_call_loads_no_argparse_gettext_or_locale():
    src = os.path.dirname(os.path.dirname(classrecon.__file__))
    code = (
        "import sys\n"
        "import classrecon.cli\n"
        "assert classrecon.cli.main(['classgroup', '-D', '-20']) == 0\n"
        "loaded = {'argparse', 'gettext', 'locale'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_does_not_load_sympy():
    src = os.path.dirname(os.path.dirname(classrecon.__file__))
    code = (
        # `cli` imports the rest on demand, so every runtime module is imported
        "import classrecon.cli, classrecon.codec, classrecon.lattice, sys; "
        "assert 'sympy' not in sys.modules; assert 'classrecon.oracle' not in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def _run_cli(args, input_bytes=None, env_extra=None):
    """Run `python -m classrecon.cli` in a fresh interpreter; (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(classrecon.__file__))
    env = dict(os.environ, PYTHONPATH=src, **(env_extra or {}))
    proc = subprocess.run(
        [sys.executable, "-m", "classrecon.cli", *args],
        input=input_bytes,
        env=env,
        capture_output=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


# A locale whose preferred encoding is ASCII, with no coercion to UTF-8.
C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_input_files_are_read_as_utf8_in_any_locale(tmp_path):
    doc = {
        "invariant_factors": ["2"],
        "primes": [{"label": "p\u2081", "norm": "3", "class": [1], "residue_char": "3"}],
    }
    spec = tmp_path / "spec.json"
    spec.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    assert "\u2081".encode("utf-8") in spec.read_bytes()
    code, out, err = _run_cli(["classgroup", "--synthetic", str(spec)], env_extra=C_LOCALE)
    assert (code, out, err) == (EXIT_OK, b"Z/2; synthetic primes: 1\n", b"")
    report = tmp_path / "report.json"
    argv = ["roundtrip", "--synthetic", str(spec), "--primes", "5", "-o", str(report)]
    assert _run_cli(argv, env_extra=C_LOCALE)[0] == EXIT_OK
    assert json.loads(report.read_bytes())["norms"] == {"p\u2081": "3"}


def test_reconstruct_reads_the_bundle_from_stdin():
    bundle = (GOLDEN / "invariants_1031.out").read_bytes()
    code, out, err = _run_cli(["reconstruct", "-"], input_bytes=bundle, env_extra=C_LOCALE)
    assert (code, err) == (EXIT_OK, b"")
    assert out == (GOLDEN / "reconstruct_1031.stdout").read_bytes()
    code, out, err = _run_cli(["reconstruct", "-"], input_bytes=b"\xff\xfe{}")
    assert (code, out) == (EXIT_USAGE, b"")
    assert err.startswith(b"error: invalid JSON input -: 'utf-8' codec can't decode")
    assert err.count(b"\n") == 1


class TestOutputFile:
    """Unwritable output: the error is one line and exit 2.

    That holds for an -o path that is a directory, in a missing directory
    or on a full device, and for an unbuffered stdout closed by its reader.

    A read-only file cannot stand in for a refused open when the tests run
    as root, so only paths that refuse every user are covered.
    """

    @pytest.mark.parametrize(
        "target, message",
        [
            ("{tmp}", "[Errno 21] Is a directory: {path!r}"),
            ("{tmp}/missing/out.json", "[Errno 2] No such file or directory: {path!r}"),
            pytest.param(
                "/dev/full",
                "[Errno 28] No space left on device",
                marks=pytest.mark.skipif(
                    not os.path.exists("/dev/full"), reason="no /dev/full"
                ),
            ),
        ],
        ids=["directory", "missing-directory", "device-full"],
    )
    def test_unwritable_output_exits_2(self, target, message, tmp_path, capsys):
        path = target.format(tmp=tmp_path)
        assert main(["reconstruct", BUNDLE_1031, "-o", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + message.format(path=path) + "\n"

    def test_stdout_closed_by_its_reader_exits_2(self):
        # the read end is closed before the call starts, so the write fails
        # every time, inside the print since stdout is unbuffered
        src = os.path.dirname(os.path.dirname(classrecon.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "classrecon.cli", "classgroup", "-D", "-84"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (EXIT_USAGE, b"error: [Errno 32] Broken pipe\n")

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        out = tmp_path / "report.json"
        umask = os.umask(0o022)
        try:
            assert main(["reconstruct", BUNDLE_1031, "-o", str(out)]) == EXIT_OK
        finally:
            os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o644

    @pytest.mark.parametrize("old_size", [0.5, 2], ids=["over-shorter", "over-longer"])
    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("reconstruct_1031.stdout", ["reconstruct", BUNDLE_1031]),
            ("invariants_1031.out", ["invariants", "-D", "-1031", "--primes", "400"]),
        ],
        ids=["reconstruct", "invariants"],
    )
    def test_overwrite_leaves_exactly_the_golden_bytes(self, golden, argv, old_size, tmp_path):
        want = (GOLDEN / golden).read_bytes()
        out = tmp_path / "out.json"
        out.write_bytes(b"x" * int(len(want) * old_size))
        assert main([*argv, "-o", str(out)]) == EXIT_OK
        assert out.read_bytes() == want

    def test_overwrite_keeps_the_inode_and_its_hard_links(self, tmp_path):
        out, link = tmp_path / "out.json", tmp_path / "link.json"
        out.write_bytes(b"x" * 100_000)
        os.link(out, link)
        inode = out.stat().st_ino
        assert main(["reconstruct", BUNDLE_1031, "-o", str(out)]) == EXIT_OK
        assert out.stat().st_ino == inode
        assert link.read_bytes() == (GOLDEN / "reconstruct_1031.stdout").read_bytes()

    def test_symlink_target_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"x" * 100_000)
        link.symlink_to(target)
        assert main(["reconstruct", BUNDLE_1031, "-o", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert target.read_bytes() == (GOLDEN / "reconstruct_1031.stdout").read_bytes()

    def test_dev_null_is_written_without_truncation(self, capsys):
        assert main(["reconstruct", BUNDLE_1031, "-o", os.devnull]) == EXIT_OK
        assert capsys.readouterr() == ("", "")


def _prime(**fields):
    """A prime of a synthetic spec: norm 3, class (1,), residue characteristic 3."""
    return {"norm": "3", "class": [1], "residue_char": "3", **fields}


# Specs that parse as JSON but describe no field, each with its one line.
# The last two have two defects each: a prime's datum is checked before the
# next prime is read, and before the invariant factors.
INCONSISTENT_SPECS = {
    "norm-not-power-of-char": (
        {"invariant_factors": ["2"], "primes": [_prime(residue_char="5")]},
        "prime s0: norm 3 is not a power of 5",
    ),
    "non-canonical-factors": (
        {"invariant_factors": ["2", "3"], "primes": [_prime(**{"class": [1, 1]})]},
        "invariant factors: factors (2, 3) are not in canonical form",
    ),
    "composite-char": (
        {"invariant_factors": ["2"], "primes": [_prime(norm="9", residue_char="9")]},
        "residue characteristic 9 of s0 is not a prime",
    ),
    "huge-non-prime-power-norm": (
        {"invariant_factors": ["2"], "primes": [_prime(norm="2" + "0" * 4000, residue_char="2")]},
        "prime s0: norm <13289-bit integer> is not a power of 2",
    ),
    "huge-norm-not-power-of-char": (
        {"invariant_factors": ["2"], "primes": [_prime(norm=str(3**3000), residue_char="5")]},
        "prime s0: norm <4755-bit integer> is not a power of 5",
    ),
    "huge-composite-char": (
        {"invariant_factors": ["2"],
         "primes": [_prime(norm=str(3**3000), residue_char=str(3**1000))]},
        "residue characteristic <1585-bit integer> of s0 is not a prime",
    ),
    "char-below-2": (
        {"invariant_factors": ["2"], "primes": [_prime(residue_char="1")]},
        "prime s0: residue characteristic must be a prime >= 2",
    ),
    "norm-below-2": (
        {"invariant_factors": ["2"], "primes": [_prime(norm="1")]},
        "prime s0: norm must be at least 2",
    ),
    "factor-1": (
        {"invariant_factors": ["1", "2"], "primes": []},
        "invariant factors: factor 1 is not allowed in canonical form",
    ),
    "negative-factor": (
        {"invariant_factors": ["-2"], "primes": []},
        "invariant factors: factors must be non-negative integers",
    ),
    "infinite-group": (
        {"invariant_factors": ["2", "0"], "primes": []},
        "synthetic class group must be finite",
    ),
    "duplicate-labels": (
        {"invariant_factors": ["2"],
         "primes": [_prime(label="a"), _prime(label="a", norm="5", residue_char="5")]},
        "duplicate prime labels in synthetic spec",
    ),
    "class-of-wrong-length": (
        {"invariant_factors": ["2"], "primes": [_prime(**{"class": [1, 0]})]},
        "class of s0: expected 1 coordinates, got 2",
    ),
    "bad-datum-before-non-object-prime": (
        {"invariant_factors": ["2"], "primes": [_prime(norm="6", residue_char="2"), 7]},
        "prime s0: norm 6 is not a power of 2",
    ),
    "bad-datum-before-non-canonical-factors": (
        {"invariant_factors": ["4", "2"], "primes": [_prime(norm="6", residue_char="2")]},
        "prime s0: norm 6 is not a power of 2",
    ),
}


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
        ("doc", "line"), INCONSISTENT_SPECS.values(), ids=INCONSISTENT_SPECS.keys()
    )
    def test_inconsistent_spec_exits_2(self, tmp_path, capsys, doc, line):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["classgroup", "--synthetic", str(path)]) == EXIT_USAGE
        # integers above 256 bits are named by their size
        assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_group_order_above_limit_exits_3(self, tmp_path, capsys):
        doc = {
            "invariant_factors": ["100000000"],
            "primes": [{"norm": "3", "class": [1], "residue_char": "3"}],
        }
        with pytest.raises(errors.LimitExceeded):
            synthetic_spec_from_json(doc)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["classgroup", "--synthetic", str(path)]) == EXIT_INSUFFICIENT
        err = capsys.readouterr().err
        assert err.startswith("error: synthetic class group order ")
        assert err.count("\n") == 1

    def test_group_order_past_the_digit_limit_exits_3(self, tmp_path, capsys):
        # an order of 6001 digits: str() would refuse it, so the line is
        # written by the codec's decimal writer
        big = "1" + "0" * 3000
        doc = {"invariant_factors": [big, big], "primes": []}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["classgroup", "--synthetic", str(path)]) == EXIT_INSUFFICIENT
        assert capsys.readouterr() == ("", (
            f"error: synthetic class group order 1{'0' * 6000} exceeds the limit "
            f"{errors.MAX_SYNTHETIC_ORDER}: every bundle entry lists up to that many factors\n"
        ))

    def test_bad_synthetic_spec_exits_2(self, tmp_path, capsys):
        doc = {
            "invariant_factors": ["2"],
            "primes": [{"norm": "4", "class": [1], "residue_char": "4"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["classgroup", "--synthetic", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "error: residue characteristic 4 of s0 is not a prime\n"
        )

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


def _one_label_bundle(*singletons):
    """A rank-2 bundle document with one label and these singleton entries."""
    entries = [{"labels": [], "factors": ["0", "0"]}]
    entries += [{"labels": labels, "factors": [t]} for labels, t in singletons]
    return {"version": 1, "rank": 2, "labels": [0], "entries": entries}


def _reconstruct_doc(doc, tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    code = main(["reconstruct", str(path), "-o", str(tmp_path / "report.json")])
    return code, capsys.readouterr()


@pytest.mark.parametrize(
    "singletons, message",
    [
        ((([0], "8"), ([0, 0], "8")), "error: entry labels ['0', '0'] repeat a label\n"),
        ((([0], "24"), ([0], "8")), "error: two entries for labels ['0']\n"),
        ((([0], "8"), ([0], "24")), "error: two entries for labels ['0']\n"),
        ((([0], "8"), ([0], "8")), "error: two entries for labels ['0']\n"),
    ],
    ids=["label-repeated", "24-then-8", "8-then-24", "same-twice"],
)
def test_repeated_label_sets_exit_1(singletons, message, tmp_path, capsys):
    code, captured = _reconstruct_doc(_one_label_bundle(*singletons), tmp_path, capsys)
    assert code == EXIT_FAIL
    assert captured.out == ""
    assert captured.err == message
    assert not (tmp_path / "report.json").exists()


LOOSE_INTEGER_SPELLINGS = {
    "space": " 1",
    "plus": "+1",
    "underscore": "1_1",
    "arabic-indic": "\u0661",
}


@pytest.mark.parametrize(
    "text", LOOSE_INTEGER_SPELLINGS.values(), ids=LOOSE_INTEGER_SPELLINGS.keys()
)
def test_bundle_integer_strings_are_strict(text, tmp_path, capsys):
    doc = {"version": 1, "rank": text, "labels": [], "entries": [
        {"labels": [], "factors": ["0"]},
    ]}
    code, captured = _reconstruct_doc(doc, tmp_path, capsys)
    assert code == EXIT_FAIL
    assert captured.err == f"error: rank must be an integer, got {text!r}\n"
    for rank in ("1", 1):  # a decimal string and a JSON number
        doc["rank"] = rank
        assert _reconstruct_doc(doc, tmp_path, capsys)[0] == EXIT_OK


@pytest.mark.parametrize(
    "text", LOOSE_INTEGER_SPELLINGS.values(), ids=LOOSE_INTEGER_SPELLINGS.keys()
)
def test_spec_integer_strings_are_strict(text, tmp_path, capsys):
    path = tmp_path / "spec.json"
    prime = {"norm": "3", "class": [text], "residue_char": "3"}
    path.write_text(json.dumps({"invariant_factors": ["2"], "primes": [prime]}))
    assert main(["classgroup", "--synthetic", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: class of s0 must be an integer, got {text!r}\n"
    for coordinate in ("1", "-1", 1):  # decimal strings and a JSON number
        prime["class"] = [coordinate]
        path.write_text(json.dumps({"invariant_factors": ["2"], "primes": [prime]}))
        assert main(["classgroup", "--synthetic", str(path)]) == EXIT_OK


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


# Spec integers also reach the limits a spec meets: MAX_SYNTHETIC_ORDER
# (10**5) and a prime above it, the largest prime below MAX_BOUND (10**7)
# and a prime above it that trial division cannot certify, and large prime
# powers.  `classgroup --synthetic` runs no sieve, so they cost no time.
LIMIT_INTS = st.sampled_from([100_000, 100_003, 9_999_991, 10**7, 10**7 + 19, 3**20, 2**31 - 1])
SPEC_INTEGERS = INTEGERS | LIMIT_INTS | LIMIT_INTS.map(str)
SPEC_DOCS = st.fixed_dictionaries(
    {
        "invariant_factors": st.lists(SPEC_INTEGERS, max_size=3) | JSON_VALUES,
        "primes": st.lists(
            st.fixed_dictionaries(
                {
                    "norm": SPEC_INTEGERS,
                    "class": st.lists(SPEC_INTEGERS, max_size=3) | JSON_VALUES,
                    "residue_char": SPEC_INTEGERS,
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


# Factors up to 2**20000 run past CPython's 4300-digit conversion limit.
FACTOR_ORDERS = st.integers(0, 40) | st.integers(0, 2**20000)


@st.composite
def written_bundle_docs(draw):
    """Bundle files as `bundle_to_json` writes them, with repeated factors."""
    n = draw(st.integers(0, 4))
    label_sets = [[]] + [[i] for i in range(n)]
    if n > 1:
        label_sets += draw(
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=2, unique=True).map(sorted),
                max_size=4,
                unique_by=tuple,
            )
        )
    entries = []
    for labels in label_sets:
        orders = draw(st.lists(FACTOR_ORDERS, max_size=3)) * draw(st.integers(1, 3))
        factors = FinGenAbGroup.from_orders(orders).factors
        entries.append({"labels": labels, "factors": [codec._decimal(x) for x in factors]})
    entries.sort(key=lambda e: (len(e["labels"]), e["labels"]))
    rank = draw(st.integers(1, 6))
    return {"version": 1, "rank": rank, "labels": list(range(n)), "entries": entries}


@settings(max_examples=100, deadline=None)
@given(written_bundle_docs())
def test_bundle_file_survives_load_and_save(doc):
    text = json.dumps(doc, indent=2, sort_keys=True)
    saved = bundle_to_json(bundle_from_json(json.loads(text)))
    assert json.loads(saved) == doc
    assert saved == text


@lru_cache(maxsize=None)
def _field_at_100(d):
    spec = QuadraticSpec(d)
    return class_group(spec), tuple(enumerate_prime_ideals(spec, 100))


@st.composite
def built_bundles(draw):
    """Bundles as `invariants -D d --primes 100 --set ...` builds them."""
    group, primes = _field_at_100(draw(st.sampled_from([-84, -1031, -23603])))
    labels = st.sampled_from([p.label for p in primes])
    sets = draw(st.lists(st.lists(labels, min_size=2, max_size=4, unique=True), max_size=3))
    bundle = build_bundle(group, primes)
    for subset in sets:
        bundle.entry(subset)
    lattice.add_chain_entries(bundle, primes)
    return bundle


@settings(max_examples=150, deadline=None)
@given(written_bundle_docs().map(bundle_from_json) | built_bundles())
def test_bundle_text_is_json_dumps_of_the_reference_doc(bundle):
    want = json.dumps(reference_bundle_doc(bundle), indent=2, sort_keys=True)
    assert bundle_to_json(bundle) == want


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | SPEC_DOCS)
def test_arbitrary_json_synthetic_spec_never_raises(doc):
    assert _exit_code_for_file(["classgroup", "--synthetic"], doc) in range(4)


# Strings with quotes, backslashes, control characters, non-ASCII and
# astral characters and lone surrogates.
JSON_TEXT = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001F600')
    | st.characters(blacklist_categories=()),
    max_size=6,
)
# Norms and factors up to 3**10000 run past CPython's 4300-digit str limit.
REPORT_INTEGERS = st.integers(0, 10**6) | st.just(3**10000) | st.integers(0, 2**20000)


@lru_cache(maxsize=None)
def _blind_report(d, zeta_bound):
    group, primes = _field_at_100(d)
    return reconstruct.reconstruct_all(build_bundle(group, primes), zeta_bound)


@lru_cache(maxsize=None)
def _roundtrip_report(d, zeta_bound):
    group, primes = _field_at_100(d)
    return lattice.roundtrip(group, primes, zeta_bound)


@st.composite
def real_reports(draw):
    """Blind and roundtrip reports of real fields, some with a failed verdict."""
    d = draw(st.sampled_from([-84, -1031, -23603]))
    zeta_bound = draw(st.integers(1, 100))
    if draw(st.booleans()):
        return _blind_report(d, zeta_bound)
    report = _roundtrip_report(d, zeta_bound)
    i = draw(st.integers(-1, len(report.verdicts) - 1))
    if i < 0:
        return report
    verdicts = list(report.verdicts)
    verdicts[i] = verdicts[i]._replace(passed=False)
    return report._replace(verdicts=tuple(verdicts))


@st.composite
def built_reports(draw):
    """Reports with any labels and messages, no labels, trivial groups and
    norms past the str limit."""
    coefficients = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
    return reconstruct.ReconstructionReport(
        class_number=draw(st.integers(1, 10**6)),
        class_group=FinGenAbGroup.from_orders(draw(st.lists(REPORT_INTEGERS, max_size=3))),
        norms=draw(st.dictionaries(JSON_TEXT, REPORT_INTEGERS, max_size=4)),
        zeta=tuple(coefficients),
        verdicts=tuple(
            reconstruct.Verdict(name, passed, message)
            for name, passed, message in draw(
                st.lists(st.tuples(JSON_TEXT, st.booleans(), JSON_TEXT), max_size=4))
        ),
    )


@settings(max_examples=150, deadline=None)
@given(real_reports() | built_reports())
def test_report_text_is_json_dumps_of_the_reference_doc(report):
    want = json.dumps(reference_report_doc(report), indent=2, sort_keys=True)
    assert codec.report_text(report) == want


@lru_cache(maxsize=None)
def _comparison(d, d2, bound):
    return lattice.compare_fields(QuadraticSpec(d), QuadraticSpec(d2), bound)


SMALL_GROUPS = st.lists(st.integers(0, 60), max_size=3).map(FinGenAbGroup.from_orders)


@st.composite
def built_comparisons(draw):
    """Comparison results with and without a first zeta difference."""
    left = draw(SMALL_GROUPS)
    return lattice.ComparisonResult(
        bound=draw(st.integers(1, 10**7)),
        first_zeta_difference=draw(st.none() | st.tuples(*[st.integers(1, 10**6)] * 3)),
        group_left=left,
        group_right=draw(st.just(left) | SMALL_GROUPS),
    )


FIELDS = st.sampled_from([-3, -4, -20, -84, -2408, -3299])


@settings(max_examples=100, deadline=None)
@given(st.builds(_comparison, FIELDS, FIELDS, st.sampled_from([100, 200])) | built_comparisons())
def test_comparison_text_is_json_dumps_of_the_reference_doc(result):
    want = json.dumps(reference_comparison_doc(result), indent=2, sort_keys=True)
    assert lattice.comparison_text(result) == want


@settings(max_examples=100, deadline=None)
@given(st.text(st.characters(max_codepoint=127)), st.text(st.characters(max_codepoint=127)))
def test_writing_over_a_file_leaves_exactly_the_new_text(old, new):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        codec._write_output(old, path)
        codec._write_output(new, path)
        with open(path, "rb") as fh:
            assert fh.read() == (new + "\n").encode("ascii")
