"""In-process A/B timing of two source trees on the `ladder` operations.

    python tests/ab_ladder.py TREE_A TREE_B ROUNDS

TREE_A and TREE_B are source checkouts, each holding `src/classrecon`.
Both packages are imported side by side in one interpreter, as
`classrecon_a` and `classrecon_b`, so the two trees share one machine
state and one process.  The operations are those of the benchmark's
`ladder` workload at seed 1, generated by this checkout's
`perfbench/inputs.py` (imported, not changed): four `roundtrip` calls and
six `invariants` calls with their `--set` subsets, at prime bound 100.

Every round clears both packages' memo caches, as `perfbench/worker.py`
does, then runs each operation on both trees, alternating which tree goes
first.  Each operation's exit code and output file must be the same on
both trees.  The script prints, per operation kind, the median over
rounds of the summed wall time of that kind on each tree, B against A,
and the number of rounds in which B was faster.  Times are raw wall
times in ms, not scaled as the benchmark scales them.

Importing this module runs nothing.
"""

from __future__ import annotations

import importlib.util
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def load_tree(tree: str, name: str):
    """Import `tree`/src/classrecon as the package `name`; return its `cli`."""
    init = Path(tree, "src", "classrecon", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".cli")


def clear_caches(name: str) -> None:
    """Clear every memo cache of the package `name`, as the benchmark worker does."""
    for key, module in list(sys.modules.items()):
        if (key == name or key.startswith(name + ".")) and module is not None:
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def ladder_operations(package: str, workdir: str) -> list[tuple[str, list[str]]]:
    """(kind, argv without -o) of every `ladder` operation at seed 1."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    fields = importlib.import_module(package + ".fields")
    forms = importlib.import_module(package + ".forms")
    lattice = importlib.import_module(package + ".lattice")

    def field_info(d: int, bound: int) -> dict:
        spec = forms.QuadraticSpec(d)
        group = forms.class_group(spec)
        primes = fields.enumerate_prime_ideals(spec, bound)
        odd = [p.cls for p in primes if p.norm % 2]
        return {
            "labels": [(p.label, p.norm) for p in primes],
            "generates": lattice.index_and_relations(odd, group.factors)[0] == 1,
        }

    inp = inputs.generate("ladder", SEED, field_info)
    bound = str(inp["prime_bound"])
    ops = []
    for i, item in enumerate(inp["roundtrip"]):
        if "synthetic" in item:
            path = os.path.join(workdir, f"synthetic-{i}.json")
            with open(path, "w") as fh:
                json.dump(item["synthetic"], fh)
            spec = ["--synthetic", path]
        else:
            spec = ["-D", str(item["D"])]
        ops.append(("roundtrip", ["roundtrip", *spec, "--primes", bound]))
    for item in inp["invariants"]:
        argv = ["invariants", "-D", str(item["D"]), "--primes", bound]
        for s in item["sets"]:
            argv += ["--set", ",".join(s)]
        ops.append(("invariants", argv))
    return ops


def run_once(cli, argv: list[str], out: str) -> tuple[float, tuple[int, str]]:
    """Wall time of one call, and its exit code with the file it wrote."""
    start = perf_counter()
    code = cli.main([*argv, "-o", out])
    wall = perf_counter() - start
    with open(out) as fh:
        return wall, (code, fh.read())


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree_a, tree_b, rounds = argv[0], argv[1], int(argv[2])
    clis = {"a": load_tree(tree_a, "classrecon_a"), "b": load_tree(tree_b, "classrecon_b")}
    with tempfile.TemporaryDirectory() as workdir:
        ops = ladder_operations("classrecon_a", workdir)
        out = os.path.join(workdir, "out.json")
        kinds = sorted({kind for kind, _ in ops})
        # times[kind][side] holds one summed wall time per round
        times = {kind: {"a": [], "b": []} for kind in kinds}
        for r in range(rounds):
            order = ("a", "b") if r % 2 == 0 else ("b", "a")
            sums = {(kind, side): 0.0 for kind in kinds for side in "ab"}
            for side in "ab":
                clear_caches("classrecon_" + side)
            for kind, op in ops:
                results = {}
                for side in order:
                    wall, results[side] = run_once(clis[side], op, out)
                    sums[kind, side] += wall
                if results["a"] != results["b"]:
                    print(f"outputs differ on {' '.join(op)}", file=sys.stderr)
                    return 1
            for (kind, side), total in sums.items():
                times[kind][side].append(total)
    print(f"{rounds} rounds, {len(ops)} operations each; medians of per-round sums (ms)")
    for kind in kinds:
        a, b = times[kind]["a"], times[kind]["b"]
        ma, mb = statistics.median(a), statistics.median(b)
        wins = sum(y < x for x, y in zip(a, b))
        print(f"  {kind:<11} A {ma * 1e3:8.3f}  B {mb * 1e3:8.3f}  "
              f"B/A - 1 {mb / ma - 1:+7.2%}  B faster in {wins}/{rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
