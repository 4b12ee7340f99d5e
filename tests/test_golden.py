"""Byte-identity of CLI output against stored expectations.

Each case runs `cli.main` in-process and compares its exit code, its stdout
and the file it writes with `-o` (if any) byte for byte with the files in
`tests/golden/`.  The expectations were written by an earlier version of the
package, so any change to a quotient, a reconstruction or a file format
shows up here.  After a deliberate format change, rewrite them with

    PYTHONPATH=src python tests/test_golden.py --regenerate [NAME...]

and review the diff.  With names, only those cases and their exit codes
are rewritten; without, every case is.

The `reconstruct_legacy_*` cases read bundle files written by an earlier
`invariants`, which carried more entries than a reconstruction needs.  A
file with extra entries must still reconstruct to the same report.

The runtime needs nothing outside the standard library: every case also
runs in one `python -I -S -B` child, with no site-packages and no
`PYTHON*` variables, and must give the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from classrecon.cli import main

GOLDEN = Path(__file__).parent / "golden"
SYNTHETIC = str(GOLDEN / "synthetic_248.json")  # Z/2 x Z/4 x Z/8, one norm 2
BUNDLE_1031 = str(GOLDEN / "invariants_1031.out")
LEGACY = ("1031", "23603_sets", "3299", "synthetic_sets")

# name -> argv; "{out}" marks the output file argument.
CASES: dict[str, list[str]] = {
    "classgroup_100019": ["classgroup", "-D", "-100019"],
    "classgroup_2184": ["classgroup", "-D", "-2184"],
    "classgroup_3000047": ["classgroup", "-D", "-3000047"],
    "classgroup_1000040": ["classgroup", "-D", "-1000040"],
    "classgroup_synthetic": ["classgroup", "--synthetic", SYNTHETIC],
    "invariants_23603_sets": [
        "invariants", "-D", "-23603", "--primes", "100",
        "--set", "p_2,p_3c,p_37", "-o", "{out}",
    ],
    "invariants_3299": ["invariants", "-D", "-3299", "--primes", "300", "-o", "{out}"],
    "invariants_1031": ["invariants", "-D", "-1031", "--primes", "400", "-o", "{out}"],
    # the odd-norm primes below 10 miss Cl(-420) = (Z/2)^3: a warning, exit 0
    "invariants_420": ["invariants", "-D", "-420", "--primes", "10", "-o", "{out}"],
    # Z/2 x Z/10, Z/2 x Z/8 and Z/45: fields whose class coordinates depend on
    # how the build walks the cosets, while every entry is an isomorphism type
    "invariants_455": ["invariants", "-D", "-455", "--primes", "60", "-o", "{out}"],
    "invariants_644": ["invariants", "-D", "-644", "--primes", "60", "-o", "{out}"],
    "invariants_1319": ["invariants", "-D", "-1319", "--primes", "60", "-o", "{out}"],
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
    # usage, generated from the command table, and usage errors (exit 2, no stdout)
    "help": ["--help"],
    "invariants_help": ["invariants", "--help"],
    "classgroup_1e3": ["classgroup", "-D", "1e3"],
    "classgroup_no_spec": ["classgroup"],
    "reconstruct_no_bundle": ["reconstruct"],
    "invariants_primes_0": ["invariants", "-D", "-20", "--primes", "0"],
}
CASES.update(
    (f"reconstruct_legacy_{n}", ["reconstruct", str(GOLDEN / f"legacy_invariants_{n}.json")])
    for n in LEGACY
)


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


# Runs the cases given as JSON in argv[2] with `src` (argv[1]) first on the
# path, and prints each case's exit code and stdout as one JSON object.
_STDLIB_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from classrecon.cli import main
results = {}
for name, argv in json.loads(sys.argv[2]).items():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        results[name] = [main(argv), stdout.getvalue()]
print(json.dumps(results))
"""


def test_cases_run_on_the_standard_library_alone(tmp_path):
    src = str(Path(__file__).parent.parent / "src")
    cases = {
        name: [str(tmp_path / f"{name}.out") if a == "{out}" else a for a in argv]
        for name, argv in CASES.items()
    }
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", _STDLIB_CHILD, src, json.dumps(cases)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    for name in sorted(CASES):
        code, stdout = results[name]
        assert code == expected_codes[name], name
        assert stdout == (GOLDEN / f"{name}.stdout").read_text(), name
        if _writes_file(name):
            assert (tmp_path / f"{name}.out").read_bytes() == (
                GOLDEN / f"{name}.out"
            ).read_bytes(), name


def regenerate(names: list[str]) -> None:
    """Rewrite the named expectations, or every one, from the current code."""
    unknown = set(names) - set(CASES)
    if unknown:
        sys.exit(f"unknown cases: {sorted(unknown)}")
    codes_path = GOLDEN / "exit_codes.json"
    codes = json.loads(codes_path.read_text()) if names else {}
    # invariants_1031 writes the bundle that reconstruct_1031 reads
    for name in sorted(names or CASES, key=lambda n: n != "invariants_1031"):
        out_path = GOLDEN / f"{name}.out"
        codes[name], stdout = run_case(name, out_path)
        (GOLDEN / f"{name}.stdout").write_text(stdout)
    codes_path.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--regenerate"]:
        sys.exit("usage: test_golden.py --regenerate [NAME...]")
    regenerate(sys.argv[2:])
