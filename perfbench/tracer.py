"""Span tracer for the package's public functions, installed from outside.

`Tracer.install()` replaces each traced function at every binding across
the `classrecon.*` modules (including names copied by `from x import f`),
the classmethod `FinGenAbGroup.from_orders` and the method
`InvariantBundle.entry`.  `uninstall()` puts the originals back.  Nothing
under `src/` is edited.

Spans stay in memory as [name, start, end, parent, op, extra] and are
written out when the run ends; self time is computed from them afterwards
(`summarize`).  A name that is absent from the tree is reported as absent.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# Span name -> (module, attribute path).  Names follow module.function.
TARGETS = {
    "abgroup.smith_normal_form": ("abgroup", "smith_normal_form"),
    "abgroup.FinGenAbGroup.from_orders": ("abgroup", "FinGenAbGroup.from_orders"),
    "abgroup.integer_nth_root": ("abgroup", "integer_nth_root"),
    "lattice.lattice_quotient": ("lattice", "lattice_quotient"),
    "lattice.singleton_quotient": ("lattice", "singleton_quotient"),
    "lattice.predicted_quotient": ("lattice", "predicted_quotient"),
    "fields.class_group_model": ("fields", "class_group_model"),
    "fields.enumerate_prime_ideals": ("fields", "enumerate_prime_ideals"),
    "reconstruct.recover_norm": ("reconstruct", "recover_norm"),
    "reconstruct.InvariantBundle.entry": ("reconstruct", "InvariantBundle.entry"),
    "reconstruct.subgroup_order_from_bundle": ("reconstruct", "subgroup_order_from_bundle"),
    "reconstruct.greedy_primary_factors": ("reconstruct", "greedy_primary_factors"),
    "reconstruct.zeta_coefficients": ("reconstruct", "zeta_coefficients"),
    "cli.bundle_from_json": ("cli", "bundle_from_json"),
    "cli.bundle_to_json": ("cli", "bundle_to_json"),
}


def _snf_extra(args, kwargs, result):
    bits = max((abs(d).bit_length() for d in result[0].diagonal()), default=0)
    return {"bits": bits}


def _quotient_extra(args, kwargs, result):
    cl, primes = args[0], args[1]
    return {"cells": cl.size * len(primes) * cl.size}


def _primes_extra(args, kwargs, result):
    return {"primes": len(result)}


EXTRAS = {
    "abgroup.smith_normal_form": _snf_extra,
    "lattice.lattice_quotient": _quotient_extra,
    "fields.enumerate_prime_ideals": _primes_extra,
}


class Tracer:
    """Spans in memory; `install` wraps the TARGETS, `uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, start: float, end: float, extra: dict | None = None) -> int:
        """Record a span measured by the caller, as a child of the open one."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.op, extra])
        return len(self.spans) - 1

    def open(self, name: str) -> int:
        idx = self.span(name, perf_counter(), 0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, extra: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        if extra:
            span[5] = extra
        self.stack.pop()

    def _wrap(self, name, func):
        spans, stack, extra_of = self.spans, self.stack, EXTRAS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None])
            stack.append(idx)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if extra_of is not None:
                spans[idx][5] = extra_of(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _wrap_entry(self, name, func):
        """Like _wrap, and marks calls whose entry was not yet stored (lazy computes)."""
        inner = self._wrap(name, func)
        spans = self.spans

        def entry(bundle, labels):
            labels = tuple(labels)
            miss = frozenset(labels) not in getattr(bundle, "entries", {})
            idx = len(spans)
            result = inner(bundle, labels)
            spans[idx][5] = {"miss": int(miss)}
            return result

        return entry

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "classrecon" or n.startswith("classrecon."))]
        for name, (mod_name, path) in TARGETS.items():
            try:
                module = importlib.import_module(f"classrecon.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if isinstance(owner, type) else None
                if raw is None:
                    self.absent.append(name)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                elif name == "reconstruct.InvariantBundle.entry":
                    new = self._wrap_entry(name, raw)
                else:
                    new = self._wrap(name, raw)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
                continue
            func = getattr(module, attr, None)
            if not callable(func):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, func)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is func:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, func))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def parse_importtime(stderr: str, package: str) -> float | None:
    """Cumulative import seconds of a top-level package from -X importtime."""
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[2].strip() == package:
            return int(parts[1]) / 1e6
    return None
