"""Spans around the public functions of each fivm module, installed from outside.

``Tracer.install`` replaces every name a caller binds (``fivm.ivm.rel_join``,
``fivm.relations.ring_mul``, ``Relation.accumulate`` ...) with a wrapper and
``uninstall`` puts the originals back. Each call becomes a span with a
parent; its self time is its duration minus the time of its child spans.
Functions that run millions of times (ring operations, ``accumulate``,
index probes) are kept as aggregates per (phase, name, parent) instead of
one record per call. Spans only record while a benchmark phase is open,
so correctness checks between phases leave no trace.
"""

from __future__ import annotations

import json
import re
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns
from typing import Any, Callable, Optional

import fivm.apps
import fivm.enumeration
import fivm.ivm
import fivm.relations
import fivm.rings
import fivm.viewtree
from fivm.ivm import RuntimeState
from fivm.relations import Relation

MODULES = ("rings", "relations", "ivm", "viewtree", "enumeration", "apps")
PHASES = ("apply", "enumerate", "app")

# (span name, owner, attribute, kept as aggregate)
TARGETS = (
    ("rings.add", fivm.rings, "ring_add", True),
    ("rings.mul", fivm.rings, "ring_mul", True),
    ("rings.lift", fivm.rings, "lift", True),
    ("rings.is_zero", fivm.rings, "is_zero", True),
    ("relations.accumulate", Relation, "accumulate", True),
    ("relations.index_lookup", Relation, "index_lookup", True),
    ("relations.ensure_index", Relation, "ensure_index", True),
    ("relations.join", fivm.relations, "rel_join", False),
    ("relations.marginalize", fivm.relations, "rel_marginalize", False),
    ("relations.apply_delta", fivm.relations, "rel_apply_delta", False),
    ("ivm.apply_batch", RuntimeState, "apply_batch", False),
    ("ivm.propagate", RuntimeState, "propagate", False),
    ("ivm.optimize_factorized", fivm.ivm, "optimize_factorized", False),
    ("ivm.load", RuntimeState, "load", False),
    ("viewtree.plan", fivm.viewtree, "plan_view_tree", False),
    ("enumeration.enumerate", fivm.enumeration, "enumerate_result", False),
    ("apps.regression", fivm.apps, "train_linear_regression", False),
    ("apps.second_moment", fivm.apps, "second_moment_matrix", False),
    ("apps.mcm_rank_update", fivm.apps, "mcm_rank_update", False),
)


def metric_safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


class Tracer:
    """Installs the wrappers, keeps what they record, and removes them."""

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.agg: dict[tuple, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[tuple, int] = defaultdict(int)
        self.phase_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[tuple, int] = defaultdict(int)
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    # --- phases ----------------------------------------------------------

    @contextmanager
    def open_phase(self, phase: str):
        """Record every wrapped call made inside as part of ``phase``."""
        self.phase = phase
        frame = [f"bench.{phase}", 0, 0]
        self.stack.append(frame)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.phase_ns[phase] += perf_counter_ns() - start
            self.stack.pop()
            self.phase = None

    # --- wrappers --------------------------------------------------------

    def _enter(self, name: str) -> tuple[list, Optional[list]]:
        parent = self.stack[-1] if self.stack else None
        frame = [name, self._next_id, 0]
        self._next_id += 1
        self.stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, dur: int, keep_span: bool, charge_parent: bool = True) -> None:
        self.stack.pop()
        self_time = dur - frame[2]
        if parent is not None and charge_parent:
            parent[2] += dur
        parent_name = parent[0] if parent is not None else ""
        self.self_ns[(self.phase, frame[0].split(".", 1)[0])] += self_time
        if keep_span:
            parent_id = parent[1] if parent is not None else 0
            self.spans.append((frame[1], frame[0], parent_id, self.phase, dur, self_time))
        else:
            a = self.agg[(self.phase, frame[0], parent_name)]
            a[0] += 1
            a[1] += dur
            a[2] += self_time

    def _wrap(self, name: str, fn: Callable, aggregate: bool) -> Callable:
        tracer = self
        after = _AFTER.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            frame, parent = tracer._enter(name)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                tracer._exit(frame, parent, dur, not aggregate)
            if after is not None:
                after(tracer, args, out, dur)
            return out

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A generator's span covers only the time spent inside ``next``."""
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if tracer.phase is None:
                yield from inner
                return
            frame, creator = tracer._enter(name)
            tracer.stack.pop()
            total = 0
            try:
                while True:
                    parent = tracer.stack[-1] if tracer.stack else None
                    tracer.stack.append(frame)
                    start = perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dur = perf_counter_ns() - start
                        tracer.stack.pop()
                        total += dur
                        if parent is not None:
                            parent[2] += dur
                    tracer.counts[(tracer.phase, "enumeration.tuples")] += 1
                    yield item
            finally:
                inner.close()
                # Each resume already charged its parent.
                tracer.stack.append(frame)
                tracer._exit(frame, creator, total, True, charge_parent=False)

        return wrapper

    def install(self) -> None:
        for name, owner, attr, aggregate in TARGETS:
            original = getattr(owner, attr)
            if name == "enumeration.enumerate":
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, aggregate)
            # Patch every module that imported the function by name, not
            # only the one that defines it.
            owners = [owner] if isinstance(owner, type) else [
                m for m in list(sys.modules.values())
                if m is not None and vars(m).get(attr) is original
            ]
            for o in owners:
                self._patches.append((o, attr, original))
                setattr(o, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results ---------------------------------------------------------

    def calls(self, name: str, phases=PHASES) -> int:
        n = sum(a[0] for (ph, nm, _), a in self.agg.items() if nm == name and ph in phases)
        return n + sum(1 for s in self.spans if s[1] == name and s[3] in phases)

    def total_s(self, name: str, phases=PHASES) -> float:
        ns = sum(a[1] for (ph, nm, _), a in self.agg.items() if nm == name and ph in phases)
        ns += sum(s[4] for s in self.spans if s[1] == name and s[3] in phases)
        return ns / 1e9

    def self_s(self, name: str, phases=PHASES) -> float:
        ns = sum(a[2] for (ph, nm, _), a in self.agg.items() if nm == name and ph in phases)
        ns += sum(s[5] for s in self.spans if s[1] == name and s[3] in phases)
        return ns / 1e9

    def count(self, name: str, phases=PHASES) -> int:
        return sum(v for (ph, nm), v in self.counts.items() if nm == name and ph in phases)

    def module_self_s(self, phase: str) -> dict[str, float]:
        return {m: self.self_ns.get((phase, m), 0) / 1e9 for m in MODULES}

    def dump(self, path: str, extra: dict) -> None:
        """Write aggregates, counts and every recorded span as JSON."""
        doc = {
            **extra,
            "aggregates": [
                {"phase": ph, "name": nm, "parent": par, "calls": a[0], "total_ns": a[1], "self_ns": a[2]}
                for (ph, nm, par), a in sorted(self.agg.items(), key=lambda kv: str(kv[0]))
            ],
            "counts": [
                {"phase": ph, "name": nm, "value": v} for (ph, nm), v in sorted(self.counts.items(), key=str)
            ],
            "span_fields": ["id", "name", "parent_id", "phase", "dur_ns", "self_ns"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _after_join(tracer: Tracer, args, out, dur) -> None:
    tracer.counts[(tracer.phase, "relations.join.out_entries")] += len(out.entries)


def _after_marginalize(tracer: Tracer, args, out, dur) -> None:
    tracer.counts[(tracer.phase, "relations.marginalize.out_entries")] += len(out.entries)


def _after_apply_delta(tracer: Tracer, args, out, dur) -> None:
    target, delta = args[0], args[1]
    n = len(delta.entries)
    view = metric_safe(target.name)
    tracer.counts[(tracer.phase, "relations.apply_delta.delta_entries")] += n
    tracer.counts[(tracer.phase, f"ivm.view.{view}.delta_entries")] += n
    tracer.counts[(tracer.phase, f"ivm.view.{view}.apply_ns")] += dur


def _after_regression(tracer: Tracer, args, out, dur) -> None:
    tracer.counts[(tracer.phase, "apps.gd_iterations")] += out.iterations
    tracer.counts[(tracer.phase, "apps.gd_converged")] += int(out.converged)


_AFTER = {
    "relations.join": _after_join,
    "relations.marginalize": _after_marginalize,
    "relations.apply_delta": _after_apply_delta,
    "apps.regression": _after_regression,
}
