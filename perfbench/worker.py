"""Timed side of one benchmark run, in a fresh interpreter.

    python perfbench/worker.py SPEC_FILE

SPEC_FILE (JSON, written by run.py) names the workload, the inputs, the
work directory, the run length, the trace flag, whether to stop after
set-up, the parent's clock reading at spawn and the result file.  The
worker imports the package, performs the workload's set-up, runs rounds
over the inputs until the run length is used, and writes every operation's
wall time, exit code and output digest to the result file.  Checks happen
in the parent.

The load is closed-loop with one client: each operation starts after the
previous one ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from time import perf_counter

from speed import reference, spawn_reference

CALIBRATE_EVERY_S = 0.25


def main() -> int:
    import_start = perf_counter()
    import classrecon.cli as cli

    import_end = perf_counter()

    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    workload, inp, workdir = spec["workload"], spec["inputs"], spec["workdir"]

    if workload == "blind":
        for i, f in enumerate(inp["files"]):
            path = os.path.join(workdir, f"bundle-{i}.json")
            argv = ["invariants", "-D", str(f["D"]), "--primes", str(f["bound"]), "-o", path]
            if cli.main(argv) != 0:
                raise RuntimeError(f"invariants {argv} failed")
            f["path"] = path
    setup_s = perf_counter() - spec["spawned_at"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    result = {"setup_s": setup_s, "setup_ref_s": spawn_reference(env)[1],
              "import_s": import_end - import_start}
    if spec["setup_only"]:
        return _write(spec["result"], result)

    if workload == "blind":
        for f in inp["files"]:
            with open(f["path"]) as fh:
                f["labels"] = len(json.load(fh)["labels"])

    from tracer import Tracer

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None and workload != "cli":  # `cli` times the import in each child
        tracer.span("cli.import", import_start, import_end)
    runner = Runner(cli, workload, inp, workdir, tracer)
    deadline = perf_counter() + spec["seconds"]
    rounds = 0
    # Traced runs alternate untraced and traced rounds over the same inputs;
    # the wall-time ratio between them is the tracing overhead.
    while rounds < (2 if tracer else 1) or perf_counter() < deadline:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            runner.round(rounds, traced)
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
    runner.calibrate(force=True)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        ops=runner.ops,
        calibrations=runner.cals,
        kernel=runner.kernel,
        outputs=runner.outputs,
        rounds=rounds,
        peak_rss_kb=children if workload == "cli" else own,
    )
    if tracer is not None:
        result.update(spans=tracer.spans, absent=sorted(set(tracer.absent)),
                      sympy_s=runner.sympy_s)
    return _write(spec["result"], result)


def _write(path: str, doc: dict) -> int:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return 0


class Runner:
    """Runs one round of a workload's operations and records each one."""

    def __init__(self, cli, workload, inp, workdir, tracer) -> None:
        self.cli, self.workload, self.inp = cli, workload, inp
        self.workdir, self.tracer = workdir, tracer
        # [kind, input index, wall s, exit code, digest, round, traced, start]
        self.ops: list[list] = []
        # Speed samples: subprocess operations (`cli`) are scaled by the
        # interpreter-start kernel, in-process ones by the in-process kernel.
        self.kernel = "spawn" if workload == "cli" else "cpu"
        self.cals: list[tuple[float, float]] = []
        self.outputs: dict[str, str] = {}
        self.sympy_s: list[float] = []
        self.out_path = os.path.join(workdir, "out.json")
        self.order_rng = random.Random(inp.get("order_seed", 0))
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def round(self, r: int, traced: bool) -> None:
        if self.workload == "ladder":
            _fresh_caches()
            bound = str(self.inp["prime_bound"])
            for i, item in enumerate(self.inp["roundtrip"]):
                spec = ["--synthetic", item["path"]] if "path" in item else ["-D", str(item["D"])]
                argv = ["roundtrip", *spec, "--primes", bound, "-o", self.out_path]
                self.in_process("roundtrip", i, argv, r, traced, labels=item["labels"])
            for i, item in enumerate(self.inp["invariants"]):
                argv = ["invariants", "-D", str(item["D"]), "--primes", bound, "-o", self.out_path]
                for s in item["sets"]:
                    argv += ["--set", ",".join(s)]
                self.in_process("invariants", i, argv, r, traced, labels=item["labels"],
                                json_out=True)
        elif self.workload == "blind":
            files = self.inp["files"]
            for i in self.order_rng.sample(range(len(files)), len(files)):
                argv = ["reconstruct", files[i]["path"], "-o", self.out_path]
                self.in_process("reconstruct", i, argv, r, traced, labels=files[i]["labels"],
                                json_in=files[i]["path"])
        else:
            # Traced runs repeat each round's inputs in the traced round after it.
            k = r // 2 if self.tracer else r
            small, large, sb = self.inp["small"], self.inp["large"], self.inp["small_bundle"]
            i = k % len(small)
            self.spawn("classgroup", i, ["classgroup", "-D", str(small[i]["D"])], r, traced)
            i = 2 * k % len(large)
            self.spawn("classgroup_large", i, ["classgroup", "-D", str(large[i]["D"])],
                       r, traced)
            self.spawn("reconstruct_small", 0, ["reconstruct", sb["path"]], r, traced,
                       labels=sb["labels"], json_in=sb["path"])
            i = (2 * k + 1) % len(large)
            self.spawn("classgroup_large", i, ["classgroup", "-D", str(large[i]["D"])],
                       r, traced)

    def calibrate(self, force: bool = False) -> None:
        """Sample machine speed, at most every CALIBRATE_EVERY_S."""
        if force or not self.cals or perf_counter() - self.cals[-1][0] > CALIBRATE_EVERY_S:
            self.cals.append(spawn_reference(self.env) if self.kernel == "spawn" else reference())

    def _open(self, kind: str, traced: bool) -> int | None:
        self.calibrate()
        if not traced:
            return None
        self.tracer.op = len(self.ops)
        return self.tracer.open("op." + kind)

    def _record(self, kind, i, start, wall, rc, text, r, traced, span, extra) -> None:
        if span is not None:
            self.tracer.close(span, extra)
            self.tracer.op = -1
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        self.outputs.setdefault(digest, text)
        self.ops.append([kind, i, wall, rc, digest, r, traced, start])

    def in_process(self, kind, i, argv, r, traced, labels=0, json_in=None, json_out=False):
        span = self._open(kind, traced)
        start = perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            rc = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        text = ""
        if rc == 0:
            with open(self.out_path) as fh:
                text = fh.read()
        extra = {"labels": labels}
        if json_in:
            extra["json_in"] = os.path.getsize(json_in)
        if json_out and text:
            extra["json_out"] = len(text.encode())
        self._record(kind, i, start, wall, rc, text, r, traced, span, extra)

    def spawn(self, kind, i, args, r, traced, labels=0, json_in=None):
        here = os.path.dirname(os.path.abspath(__file__))
        spans_file = os.path.join(self.workdir, "child-spans.json")
        if traced:
            cmd = [sys.executable, "-X", "importtime", os.path.join(here, "cli_entry.py"),
                   spans_file, *args]
        else:
            cmd = [sys.executable, "-m", "classrecon.cli", *args]
        if traced and os.path.exists(spans_file):
            os.remove(spans_file)
        span = self._open(kind, traced)
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=120)
        wall = perf_counter() - start
        extra = {"labels": labels}
        if json_in:
            extra["json_in"] = os.path.getsize(json_in)
        if traced:
            self._adopt(spans_file, span)
            from tracer import parse_importtime

            self.sympy_s.append(parse_importtime(proc.stderr, "sympy") or 0.0)
        self._record(kind, i, start, wall, proc.returncode, proc.stdout, r, traced, span, extra)

    def _adopt(self, spans_file: str, parent: int) -> None:
        """Append a child process's spans under the operation's span."""
        if not os.path.exists(spans_file):  # the child failed before writing them
            return
        with open(spans_file) as fh:
            child = json.load(fh)
        base = len(self.tracer.spans)
        for name, start, end, p, _, extra in child["spans"]:
            self.tracer.spans.append(
                [name, start, end, parent if p < 0 else p + base, self.tracer.op, extra])
        self.tracer.absent.extend(child["absent"])


def _fresh_caches() -> None:
    """Clear every memo cache in the package so each round pays model builds.

    In-process rounds repeat fields; a user pays these builds on every CLI
    call, so a round must too.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith("classrecon") and module is not None:
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


if __name__ == "__main__":
    sys.exit(main())
