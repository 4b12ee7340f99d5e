"""Byte-identity of CLI output against stored expectations.

Each case runs `cli.main` in-process and compares its exit code, its stdout
and the file it writes with `-o` (if any) byte for byte with the files in
`tests/golden/`.  The expectations were written by an earlier version of the
package, so any change to a quotient, a reconstruction or a file format
shows up here.  After a deliberate format change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from classrecon.cli import main

GOLDEN = Path(__file__).parent / "golden"
SYNTHETIC = str(GOLDEN / "synthetic_248.json")  # Z/2 x Z/4 x Z/8, one norm 2
BUNDLE_1031 = str(GOLDEN / "invariants_1031.out")

# name -> argv; "{out}" marks the output file argument.
CASES: dict[str, list[str]] = {
    "classgroup_100019": ["classgroup", "-D", "-100019"],
    "classgroup_2184": ["classgroup", "-D", "-2184"],
    "classgroup_synthetic": ["classgroup", "--synthetic", SYNTHETIC],
    "invariants_23603_sets": [
        "invariants", "-D", "-23603", "--primes", "100",
        "--set", "p_2,p_3c,p_37", "-o", "{out}",
    ],
    "invariants_3299": ["invariants", "-D", "-3299", "--primes", "300", "-o", "{out}"],
    "invariants_1031": ["invariants", "-D", "-1031", "--primes", "400", "-o", "{out}"],
    "invariants_synthetic_sets": [
        "invariants", "--synthetic", SYNTHETIC, "--primes", "50",
        "--set", "s3,s10,s13", "--set", "s6,s13", "--set", "s0,s1,s13", "-o", "{out}",
    ],
    "roundtrip_3299": ["roundtrip", "-D", "-3299", "--primes", "300", "-o", "{out}"],
    "roundtrip_1031": ["roundtrip", "-D", "-1031", "--primes", "400"],
    "roundtrip_10007": ["roundtrip", "-D", "-10007", "--primes", "100"],
    "reconstruct_1031": ["reconstruct", BUNDLE_1031],
    "compare_3299_2408": ["compare", "-D", "-3299", "-D2", "-2408", "--bound", "200"],
    "roundtrip_synthetic": ["roundtrip", "--synthetic", SYNTHETIC, "--primes", "50"],
}


def run_case(name: str, out_path: Path) -> tuple[int, str]:
    """Exit code and stdout of one case; its -o file, if any, goes to out_path."""
    argv = [str(out_path) if a == "{out}" else a for a in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


def _writes_file(name: str) -> bool:
    return "{out}" in CASES[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, tmp_path):
    out_path = tmp_path / "out"
    code, stdout = run_case(name, out_path)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    assert stdout == (GOLDEN / f"{name}.stdout").read_text()
    if _writes_file(name):
        assert out_path.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


def regenerate() -> None:
    """Rewrite every expectation from the current code."""
    codes = {}
    # invariants_1031 writes the bundle that reconstruct_1031 reads
    for name in sorted(CASES, key=lambda n: n != "invariants_1031"):
        out_path = GOLDEN / f"{name}.out"
        codes[name], stdout = run_case(name, out_path)
        (GOLDEN / f"{name}.stdout").write_text(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_golden.py --regenerate")
    regenerate()
