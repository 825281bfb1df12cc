"""Timing spans around the package's public functions, from outside it.

``Tracer.install`` wraps each function in ``TARGETS`` and puts the
wrapper into every ``extremalcurves`` module namespace that holds the
original (``extremalcurves.cli.baseline_ledger`` as well as
``extremalcurves.gonality.baseline_ledger``), and onto the class for
methods (``GonalityLedger.propagate``), so calls between modules are
traced as well as calls from outside.  A span is the tuple
``(name, op, parent, start_ns, end_ns, size, error)``; ``parent`` is the
index of the enclosing span or -1, ``size`` is the input or output size
the scaling fits use (-1 where none).  Spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from contextlib import contextmanager

import oracles


def _ledger_genus(args, kwargs, result):
    return args[0].g


def _utf8_len(args, kwargs, result):
    return len(result.encode("utf-8"))


def _scan_records(args, kwargs, result):
    # from the arguments, not len(result): scan may come to return a stream
    return oracles.scan_count(*args, **kwargs)


def _size(size_of, args, kwargs, result) -> int:
    """The size of one call, or -1 when it cannot be had (a result with no
    len(), a changed signature).  Only these errors are caught: a deadline
    alarm raised meanwhile must still reach the caller."""
    try:
        return size_of(args, kwargs, result)
    except (TypeError, ValueError, LookupError, AttributeError):
        return -1


# (module, attribute, size of one call or None).  Metric names drop the
# class: "gonality.propagate".
TARGETS = (
    ("lattice", "intersect", None),
    ("lattice", "adjunction_genus", None),
    ("lattice", "formal_genus", None),
    ("lattice", "intersect_on_scroll", None),
    ("lattice", "class_in_HL", None),
    ("castelnuovo", "profile", None),
    ("castelnuovo", "brill_noether", None),
    ("extremal", "classify_extremal", lambda a, k, res: len(res)),
    ("extremal", "embed_extremal", None),
    ("extremal", "verify_extremal_class", None),
    ("gonality", "GonalityLedger.propagate", None),
    ("gonality", "baseline_ledger", lambda a, k, res: a[1]),
    ("gonality", "with_assumptions", _ledger_genus),
    ("gonality", "apply_extremal_facts", None),
    ("gonality", "verylast_sequence", None),
    ("gonality", "slope_verdict", None),
    ("tables", "scan", _scan_records),
    ("tables", "serialize", _utf8_len),
    ("tables", "table1", None),
    ("selfcheck", "run_selfcheck", lambda a, k, res: res[0]),
    ("cli", "run", None),
)


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rpartition('.')[2]}"


class Tracer:
    def __init__(self, op: int = -1):
        self.op = op
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index, name_id, parent, start, end, size, error) -> None:
        self._stack.pop()
        self.spans[index] = (name_id, self.op, parent, start,
                             time.perf_counter_ns() if end is None else end, size, error)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextmanager
    def span(self, name: str):
        name_id = self._name_id(name)
        index, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, name_id, parent, start, None, -1, "")

    def _wrap(self, name: str, fn, size_of):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            end, size, error = None, -1, ""
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter_ns()
                if size_of is not None:
                    size = _size(size_of, args, kwargs, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self._close(index, name_id, parent, start, end, size, error)

        return traced

    def install(self) -> None:
        """Wrap every target in every namespace that refers to it."""
        for module, _, _ in TARGETS:
            importlib.import_module(f"extremalcurves.{module}")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "extremalcurves" or key.startswith("extremalcurves.")]
        for module, attr, size_of in TARGETS:
            home = sys.modules[f"extremalcurves.{module}"]
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else None
            original = getattr(owner or home, fn_name)
            wrapper = self._wrap(metric_name(module, attr), original, size_of)
            if owner is not None:
                self._patch(owner, fn_name, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, target, key, original, wrapper) -> None:
        setattr(target, key, wrapper)
        self._patches.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


class Layers:
    """Per-function totals over many span lists: calls, self time, and the
    (size, duration) pairs the scaling fits need."""

    SIZED = ("gonality.baseline_ledger", "gonality.with_assumptions", "tables.scan")

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.size_sum: dict[str, int] = {}
        self.size_last: dict[str, int] = {}
        self.sized: dict[str, list[tuple[int, int]]] = {name: [] for name in self.SIZED}

    def add(self, names: list[str], spans: list[tuple]) -> None:
        child_ns = [0] * len(spans)
        for name_id, _op, parent, start, end, _size, _err in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name_id, _op, _parent, start, end, size, _err) in enumerate(spans):
            name = names[name_id]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + (end - start) - child_ns[i]
            if size >= 0:
                self.size_sum[name] = self.size_sum.get(name, 0) + size
                self.size_last[name] = size
                if name in self.sized:
                    self.sized[name].append((size, end - start))

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e6

    def p50_ms(self, name: str) -> float:
        durs = sorted(d for _, d in self.sized[name])
        return durs[len(durs) // 2] / 1e6 if durs else 0.0

    def exponent(self, name: str) -> float:
        """Least-squares slope of log duration against log size, or 0.0
        when fewer than two distinct sizes were seen."""
        pts = [(math.log(s), math.log(d)) for s, d in self.sized[name] if s > 0 and d > 0]
        if len({x for x, _ in pts}) < 2:
            return 0.0
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        return sum((x - mx) * (y - my) for x, y in pts) / sxx
