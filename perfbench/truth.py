"""Ground truth and output checks, computed in the parent process.

The parent imports the package only to build inputs and ground truth; all
timed work happens in a separate worker process, so nothing here warms a
cache the timed operations use.  Every operation's output is checked: the
worker returns a digest per operation, and each distinct output is checked
once against the ground truth of its input.
"""

from __future__ import annotations

import json
import os

import classrecon.cli as cli
from classrecon import (
    QuadraticSpec,
    class_group_model,
    enumerate_prime_ideals,
    lattice_quotient,
)

import inputs as gen


def ideal_counts(norms: list[int], bound: int) -> list[int]:
    """a_1..a_bound: the number of multisets of norms with product n."""
    a = [0] * (bound + 1)
    a[1] = 1
    for n in norms:
        for k in range(n, bound + 1, n) if n <= bound else ():
            a[k] += a[k // n]
    return a[1:]


def field_truth(spec, bound: int, zeta_bound: int | None = None) -> dict:
    """The report a correct reconstruction of this field must produce.

    Norms are listed in label order; a round-trip report keys them by
    prime label, a blind report by the label's position (its opaque id).
    """
    model = class_group_model(spec)
    primes = enumerate_prime_ideals(spec, bound)
    norms = [p.norm for p in primes]
    zb = zeta_bound if zeta_bound is not None else max(norms, default=1)
    return {
        "class_number": model.size,
        "class_group_factors": [str(x) for x in model.group.factors],
        "group": str(model.group),
        "labels": [p.label for p in primes],
        "norms": norms,
        "zeta": {"bound": zb, "coefficients": ideal_counts(norms, zb)},
    }


def _check_report(doc: dict, truth: dict, keyed_by_label: bool) -> str | None:
    keys = truth["labels"] if keyed_by_label else [str(i) for i in range(len(truth["labels"]))]
    want_norms = {k: str(n) for k, n in zip(keys, truth["norms"])}
    for field in ("class_number", "class_group_factors", "zeta"):
        if doc.get(field) != truth[field]:
            return f"{field}: got {doc.get(field)!r}, want {truth[field]!r}"
    if doc.get("norms") != want_norms:
        return "norms differ from ground truth"
    return None


def check_output(kind: str, rc, text: str, truth: dict) -> str | None:
    """None when an operation's output is correct, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    if kind.startswith("classgroup"):
        group, _, forms = text.strip().partition("; forms: ")
        if group != truth["group"]:
            return f"group {group!r}, want {truth['group']!r}"
        if len(forms.split("),(")) != truth["class_number"]:
            return "form count differs from the class number"
        return None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if kind == "roundtrip":
        if not doc.get("verdicts") or not all(v["pass"] for v in doc["verdicts"]):
            return "a verdict failed"
        return _check_report(doc, truth, keyed_by_label=True)
    if kind in ("reconstruct", "reconstruct_small"):
        if doc.get("verdicts") != []:
            return "blind report carries verdicts"
        return _check_report(doc, truth, keyed_by_label=False)
    if kind == "invariants":
        return _check_bundle(doc, truth)
    raise ValueError(kind)


def _check_bundle(doc: dict, truth: dict) -> str | None:
    """A bundle reconstructs blind to ground truth and holds the --set entries."""
    ids = {label: i for i, label in enumerate(truth["labels"])}
    factors = {tuple(e["labels"]): e["factors"] for e in doc.get("entries", [])}
    for subset, want in truth["sets"]:
        got = factors.get(tuple(sorted(ids[l] for l in subset)))
        if got != want:
            return f"--set {','.join(subset)}: got {got}, want {want}"
    report = blind_report(doc, truth["zeta"]["bound"])
    if isinstance(report, str):
        return report
    return _check_report(report, truth, keyed_by_label=False)


def blind_report(doc: dict, zeta_bound: int) -> dict | str:
    """The package's own blind reconstruction of a bundle document."""
    try:
        bundle = cli.bundle_from_json(doc)
        return cli.report_to_json(cli.reconstruct_all(bundle, zeta_bound))
    except Exception as exc:  # any failure of the program is a failed check
        return f"blind reconstruction raised {type(exc).__name__}: {exc}"


def tamper(doc: dict, truth: dict) -> dict:
    """Copy of a bundle with one singleton factor changed to a wrong norm.

    The factor N**ord - 1 of an odd-norm label becomes M**ord - 1 for the
    next odd prime M, so the file still looks like arithmetic data and only
    the comparison with ground truth can catch it.
    """
    doc = json.loads(json.dumps(doc))
    for entry in doc["entries"]:
        if len(entry["labels"]) != 1:
            continue
        norm = truth["norms"][entry["labels"][0]]
        if norm % 2 == 0 or norm != _prime_at_least(norm):
            continue
        t, order = int(entry["factors"][0]), 1
        while norm**order - 1 < t:
            order += 1
        if norm**order - 1 != t:
            continue
        wrong = _prime_at_least(norm + 2) ** order - 1
        entry["factors"] = [str(wrong)] * len(entry["factors"])
        return doc
    raise ValueError("bundle has no odd prime-norm singleton to tamper with")


def _prime_at_least(n: int) -> int:
    while any(n % p == 0 for p in range(2, int(n**0.5) + 1)):
        n += 1
    return n


def self_test(bundle_path: str, truth: dict, workdir: str) -> bool:
    """True when the checks count a tampered bundle's report as a failure."""
    try:
        with open(bundle_path) as fh:
            bad = tamper(json.load(fh), truth)
    except (OSError, ValueError, KeyError):  # no usable bundle: the test cannot pass
        return False
    bad_path = os.path.join(workdir, "tampered.json")
    out_path = os.path.join(workdir, "tampered-report.json")
    with open(bad_path, "w") as fh:
        json.dump(bad, fh)
    try:
        rc = cli.main(["reconstruct", bad_path, "-o", out_path])
        with open(out_path) as fh:
            text = fh.read()
    except Exception:  # the program may reject it outright, which also counts
        return True
    return check_output("reconstruct", rc, text, truth) is not None


def field_info(d: int, bound: int) -> dict:
    """Labels with norms, and whether the odd-norm classes generate."""
    spec = QuadraticSpec(d)
    model = class_group_model(spec)
    primes = enumerate_prime_ideals(spec, bound)
    odd = [model.index_of(p.cls) for p in primes if p.has_odd_norm]
    return {
        "labels": [(p.label, p.norm) for p in primes],
        "generates": len(model.subgroup_closure(tuple(odd))) == model.size,
    }


def build(workload: str, seed: int, workdir: str) -> tuple[dict, list]:
    """Inputs for the worker, and the ground truth for each input.

    Returns (inputs, truths) where truths[kind][i] belongs to input i of
    that kind.  Input files (synthetic specs, the small CLI bundle) are
    written to workdir.
    """
    inp = gen.generate(workload, seed, field_info)
    truths: dict[str, list[dict]] = {}
    if workload == "ladder":
        bound = inp["prime_bound"]
        truths["roundtrip"] = []
        for i, item in enumerate(inp["roundtrip"]):
            if "synthetic" in item:
                path = os.path.join(workdir, f"synthetic-{i}.json")
                with open(path, "w") as fh:
                    json.dump(item["synthetic"], fh)
                item["path"] = path
                spec = cli.synthetic_spec_from_json(item["synthetic"])
            else:
                spec = QuadraticSpec(item["D"])
            t = field_truth(spec, bound, zeta_bound=bound)
            item["labels"] = len(t["labels"])
            truths["roundtrip"].append(t)
        truths["invariants"] = []
        for item in inp["invariants"]:
            spec = QuadraticSpec(item["D"])
            t = field_truth(spec, bound, zeta_bound=bound)
            model = class_group_model(spec)
            by_label = {p.label: p for p in enumerate_prime_ideals(spec, bound)}
            t["sets"] = [
                (s, [str(x) for x in lattice_quotient(model, [by_label[l] for l in s])[0].factors])
                for s in item["sets"]
            ]
            item["labels"] = len(t["labels"])
            truths["invariants"].append(t)
    elif workload == "blind":
        truths["reconstruct"] = [field_truth(QuadraticSpec(f["D"]), f["bound"]) for f in inp["files"]]
    elif workload == "cli":
        truths["classgroup"] = [field_truth(QuadraticSpec(f["D"]), 2) for f in inp["small"]]
        truths["classgroup_large"] = [field_truth(QuadraticSpec(f["D"]), 2) for f in inp["large"]]
        sb = inp["small_bundle"]
        path = os.path.join(workdir, "small-bundle.json")
        if cli.main(["invariants", "-D", str(sb["D"]), "--primes", str(sb["bound"]), "-o", path]) != 0:
            raise RuntimeError("could not write the small bundle")
        sb["path"] = path
        t = field_truth(QuadraticSpec(sb["D"]), sb["bound"])
        sb["labels"] = len(t["labels"])
        truths["reconstruct_small"] = [t]
    return inp, truths
