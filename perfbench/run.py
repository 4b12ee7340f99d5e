"""Benchmark for classrecon: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {ladder,blind,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding `src/`).
The inputs are generated from the seed; the timed work runs in a fresh
worker interpreter (perfbench/worker.py), and every operation's output is
checked here against ground truth.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from a traced run.
perfbench/README.md lists the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ladder", "blind", "cli")
# Set-up is repeated in a run and its median reported.  `blind` set-up
# writes bundle files and takes longer, so it is repeated fewer times.
SETUPS = {"ladder": 5, "blind": 3, "cli": 5}
WORKER_TIMEOUT_S = 150


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "classrecon", "cli.py")):
        print(f"error: no package source at {src}/classrecon; "
              "run from the root of a classrecon checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import truth

    workdir = os.path.join(root, ".perfbench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, root, src, workdir, truth)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, root: str, src: str, workdir: str, truth) -> int:
    import speed

    inputs, truths = truth.build(args.workload, args.seed, workdir)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    setups = []  # (raw seconds, scaled seconds)
    for k in range(1 if args.trace else SETUPS[args.workload]):
        ref = speed.spawn_reference(env)[1]
        doc, stderr = spawn_worker(args, inputs, workdir, env,
                                   setup_only=k < SETUPS[args.workload] - 1 and not args.trace)
        raw = doc["setup_s"]
        setups.append((raw, raw * speed.NOMINAL["spawn"] * 2 / (ref + doc["setup_ref_s"])))
    result = doc
    ops = [dict(zip(("kind", "i", "wall", "rc", "digest", "round", "traced", "start"), op))
           for op in result["ops"]]
    nominal = speed.NOMINAL[result["kernel"]]
    for op in ops:
        end = op["start"] + op["wall"]
        op["scaled"] = op["wall"] * speed.scale_at(result["calibrations"], op["start"], end,
                                                   nominal)

    verdicts: dict[tuple, str | None] = {}
    failures = []
    for op in ops:
        key = (op["kind"], op["i"], op["digest"])
        if key not in verdicts:
            verdicts[key] = truth.check_output(op["kind"], op["rc"], result["outputs"][op["digest"]],
                                               truths[op["kind"]][op["i"]])
            if verdicts[key]:
                failures.append(f"{op['kind']}[{op['i']}]: {verdicts[key]}")
    attempted = len(ops)
    failed = sum(1 for op in ops if verdicts[(op["kind"], op["i"], op["digest"])])
    self_test_ok = truth.self_test(*_tamper_target(args.workload, inputs, truths, result, workdir))

    samples: dict[str, int] = {}
    if args.trace:
        metrics = layer_metrics(result, ops, stderr)
    else:
        metrics, named = end_to_end(args.workload, result, ops, setups, samples)
        named["fail_frac"] = (failed / attempted, None, f"{failed}/{attempted} ops", attempted)
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"rounds {result['rounds']}  (times scaled to reference speed; raw beside)")
        for name, (value, raw, unit, n) in named.items():
            raw_text = f"raw {raw:<10.6g}" if raw is not None else " " * 14
            print(f"  {name:<24} {value:>12.6g} {raw_text} {unit:<14} n={n}")
    for reason in failures:
        print(f"  FAILED {reason}")
    print(f"  self-test (tampered bundle counted as a failure): {'ok' if self_test_ok else 'FAILED'}")
    print(json.dumps({
        "record": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "inputs": _strip_paths(inputs), "samples": samples,
            "env": environment(root, src),
        }
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and self_test_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def spawn_worker(args, inputs, workdir, env, setup_only: bool) -> tuple[dict, str]:
    spec_path = os.path.join(workdir, "worker-spec.json")
    result_path = os.path.join(workdir, "worker-result.json")
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd.append(os.path.join(HERE, "worker.py"))
    cmd.append(spec_path)
    spec = {
        "workload": args.workload, "inputs": inputs, "workdir": workdir,
        "seconds": args.seconds, "trace": bool(args.trace), "setup_only": setup_only,
        "result": result_path,
    }
    spec["spawned_at"] = perf_counter()
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    # A session of its own, so a timeout also stops the worker's CLI children.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh), stderr


def _tamper_target(workload, inputs, truths, result, workdir):
    """A bundle of this run and its ground truth, for the tamper self-test."""
    if workload == "ladder":
        digest = next(op[4] for op in result["ops"] if op[0] == "invariants" and op[1] == 0)
        path = os.path.join(workdir, "selftest-bundle.json")
        with open(path, "w") as fh:
            fh.write(result["outputs"][digest])
        return path, truths["invariants"][0], workdir
    if workload == "blind":
        return os.path.join(workdir, "bundle-0.json"), truths["reconstruct"][0], workdir
    return inputs["small_bundle"]["path"], truths["reconstruct_small"][0], workdir


def end_to_end(workload, result, ops, setups, samples):
    """Gated metrics (name -> (value, unit)) and the issue-named figures.

    The gated names are shared by all workloads; README.md maps them to the
    named figures: `main_ms` and `second_ms` are the workload's two timed
    figures, `ops_per_s` is operations per second of operation time.
    Named figures are (scaled value, raw value, unit, sample count).
    """
    def stat(kinds, how, key):
        return how([op[key] for op in ops if op["kind"] in kinds])

    def per_round(kind, key):
        sums: dict[int, float] = {}
        for op in ops:
            if op["kind"] == kind:
                sums[op["round"]] = sums.get(op["round"], 0.0) + op[key]
        return list(sums.values())

    def p90(values):
        return statistics.quantiles(values, n=10)[8]

    rss_mb = result["peak_rss_kb"] / 1024
    setup = statistics.median(s for _, s in setups)
    rate = {key: len(ops) / sum(op[key] for op in ops) for key in ("scaled", "wall")}
    named: dict[str, tuple] = {
        "setup_s": (setup, statistics.median(r for r, _ in setups), "s", len(setups)),
        "peak_rss_mb": (rss_mb, None, "MB", 1),
    }
    if workload == "ladder":
        rt = {key: statistics.median(per_round("roundtrip", key)) for key in ("scaled", "wall")}
        inv = {key: statistics.median(per_round("invariants", key)) for key in ("scaled", "wall")}
        main, second = rt, inv
        main_n, second_n = len(per_round("roundtrip", "wall")), len(per_round("invariants", "wall"))
        named["roundtrip_s"] = (rt["scaled"], rt["wall"], "s", main_n)
        named["invariants_s"] = (inv["scaled"], inv["wall"], "s", second_n)
        named["ops_per_s"] = (rate["scaled"], rate["wall"], "1/s", len(ops))
    elif workload == "blind":
        kinds = ("reconstruct",)
        main = {key: stat(kinds, statistics.median, key) for key in ("scaled", "wall")}
        second = {key: stat(kinds, p90, key) for key in ("scaled", "wall")}
        main_n = second_n = len(ops)
        beyond = sum(1 for op in ops if op["scaled"] > second["scaled"])
        named["reconstruct_p50_ms"] = (main["scaled"] * 1e3, main["wall"] * 1e3, "ms", main_n)
        named["reconstruct_p90_ms"] = (second["scaled"] * 1e3, second["wall"] * 1e3,
                                       f"ms ({beyond} >)", second_n)
        named["reconstruct_per_s"] = (rate["scaled"], rate["wall"], "1/s", len(ops))
    else:
        small, large = ("classgroup", "reconstruct_small"), ("classgroup_large",)
        main = {key: stat(small, statistics.median, key) for key in ("scaled", "wall")}
        second = {key: stat(large, statistics.median, key) for key in ("scaled", "wall")}
        main_n = sum(1 for op in ops if op["kind"] in small)
        second_n = sum(1 for op in ops if op["kind"] in large)
        named["cold_start_p50_s"] = (main["scaled"], main["wall"], "s", main_n)
        named["classgroup_large_p50_s"] = (second["scaled"], second["wall"], "s", second_n)
        named["ops_per_s"] = (rate["scaled"], rate["wall"], "1/s", len(ops))
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "main_ms": (main["scaled"] * 1e3, "ms"),
        "second_ms": (second["scaled"] * 1e3, "ms"),
        "ops_per_s": (rate["scaled"], "1/s"),
    }
    samples.update(setup_s=len(setups), peak_rss_mb=1, main_ms=main_n, second_ms=second_n,
                   ops_per_s=len(ops))
    return metrics, named


LAYER_UNITS = {"calls": "count", "self_s": "s", "max_factor_bits": "bits", "cells": "count",
               "primes": "count", "misses": "count", "hit_ratio": "ratio",
               "per_label": "ratio", "bytes": "bytes"}
# (span name, [figures]) in the order of README.md.
LAYERS = [
    ("abgroup.smith_normal_form", ["calls", "self_s", "max_factor_bits"]),
    ("lattice.lattice_quotient", ["calls", "self_s", "cells"]),
    ("lattice.singleton_quotient", ["calls", "self_s"]),
    ("lattice.predicted_quotient", ["calls", "self_s"]),
    ("abgroup.FinGenAbGroup.from_orders", ["calls", "self_s"]),
    ("fields.class_group_model", ["calls", "self_s"]),
    ("fields.enumerate_prime_ideals", ["self_s", "primes"]),
    ("reconstruct.recover_norm", ["calls", "per_label"]),
    ("abgroup.integer_nth_root", ["calls", "self_s"]),
    ("reconstruct.InvariantBundle.entry", ["calls", "misses", "hit_ratio"]),
    ("reconstruct.subgroup_order_from_bundle", ["calls", "per_label"]),
    ("reconstruct.greedy_primary_factors", ["self_s"]),
    ("reconstruct.zeta_coefficients", ["self_s"]),
    ("cli.bundle_from_json", ["self_s", "bytes"]),
    ("cli.bundle_to_json", ["self_s", "bytes"]),
]


def layer_metrics(result, ops, worker_stderr: str) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced round, computed from the spans."""
    from tracer import parse_importtime, self_times

    spans = result["spans"]
    own = self_times(spans)
    traced_rounds = max(1, result["rounds"] // 2)
    agg: dict[str, Counter] = defaultdict(Counter)
    op_labels = json_in = json_out = 0
    op_wall: Counter = Counter()
    op_self: dict[str, Counter] = defaultdict(Counter)  # op kind -> span name -> self s
    op_kind = {s[4]: s[0] for s in spans if s[0].startswith("op.")}
    imports = []
    for span, self_s in zip(spans, own):
        name, start, end, _, op, extra = span
        extra = extra or {}
        if op in op_kind:
            op_self[op_kind[op]]["(own code)" if name.startswith("op.") else name] += self_s
        if name == "cli.import":
            imports.append(end - start)
        elif name.startswith("op."):
            op_labels += extra.get("labels", 0)
            json_in += extra.get("json_in", 0)
            json_out += extra.get("json_out", 0)
            op_wall[name] += end - start
        else:
            a = agg[name]
            a["calls"] += 1
            a["self_s"] += self_s
            a["max_factor_bits"] = max(a["max_factor_bits"], extra.get("bits", 0))
            a["cells"] += extra.get("cells", 0)
            a["primes"] += extra.get("primes", 0)
            a["misses"] += extra.get("miss", 0)

    absent = set(result["absent"])
    metrics: dict[str, tuple[float, str]] = {}
    for name, figures in LAYERS:
        a = agg[name]
        for fig in figures:
            if fig == "hit_ratio":
                value = 1 - a["misses"] / a["calls"] if a["calls"] else 0.0
            elif fig == "per_label":
                value = a["calls"] / op_labels if op_labels else 0.0
            elif fig == "bytes":
                value = (json_in if name == "cli.bundle_from_json" else json_out) / traced_rounds
            elif fig == "max_factor_bits":
                value = a[fig]
            else:
                value = a[fig] / traced_rounds
            metrics[f"{name}.{fig}"] = (value, LAYER_UNITS[fig])
    sympy = result["sympy_s"] or [parse_importtime(worker_stderr, "sympy") or 0.0]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["cli.sympy_import_s"] = (statistics.median(sympy), "s")
    untraced = sum(op["scaled"] for op in ops if not op["traced"] and op["round"] < 2 * traced_rounds)
    traced = sum(op["scaled"] for op in ops if op["traced"])
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")

    print(f"traced rounds {traced_rounds}; figures are per traced round")
    for name, (value, unit) in metrics.items():
        layer = name.rpartition(".")[0]
        note = "  (absent from the tree)" if layer in absent else ""
        print(f"  {name:<48} {value:>12.6g} {unit}{note}")
    for kind, wall in sorted(op_wall.items()):
        print(f"  self-time share of {kind} wall ({wall / traced_rounds:.4g} s per round, raw):")
        for name, s in op_self[kind].most_common(6):
            print(f"    {name:<46} {s / wall:6.1%}")
    return metrics


def environment(root: str, src: str) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(src, "classrecon")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    sympy = sys.modules.get("sympy")
    return {
        "commit": _git_head(root),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "sympy": getattr(sympy, "__version__", None),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _git_head(root: str) -> str | None:
    """HEAD's commit, read from .git in the checkout only (None outside git)."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(root, ".git", ref)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _strip_paths(inputs: dict) -> dict:
    """The generated inputs without work-directory paths, for replay."""
    if isinstance(inputs, dict):
        return {k: _strip_paths(v) for k, v in inputs.items() if k != "path"}
    if isinstance(inputs, list):
        return [_strip_paths(v) for v in inputs]
    return inputs


if __name__ == "__main__":
    sys.exit(main())
