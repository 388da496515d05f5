"""Closed-loop driver for one workload: phases, timings, checks, metrics.

One caller, one call at a time, each call issued after the previous one
returns. A run sets up the state several times (``SETUP_REPS``), then
runs two phases in alternating slices: single-tuple (or single rank-one)
updates, and batches of 1000 tuples. Every call that carries at least
1000 tuples of change -- a batch call, or a rank-one update of a 64 x 64
matrix -- is followed by one answer: a full ``enumerate_result`` listing,
then the workload's post-processing of it. At the end of each phase the
maintained result and a fresh listing are checked against the workload's
independently computed expected result. Between calls, never inside one, the machine's
speed is sampled (``speed.py``), and every timing is scaled to the
reference speed before it enters a metric.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import traceback
from array import array
from contextlib import nullcontext
from time import perf_counter, perf_counter_ns
from typing import Optional

import numpy as np

from fivm.enumeration import enumerate_result
from fivm.ivm import RuntimeState

from speed import LONG_NS, REF_NS, Speed
from tracing import PHASES, Tracer
from workloads import BATCH, Workload

# At least three set-ups per run, more (up to fifteen) while the timed
# set-up total is under three seconds, so that cheap set-ups get more
# samples.
SETUP_REPS = (3, 3.0, 15)
UPDATE_SHARE = 0.5
# Time-limited runs alternate update and batch slices, so that both phases
# sample the machine over the whole run rather than one half each.
SLICES = 6
# Percentile of the delays within one listing that enum_delay_tail_us takes.
DELAY_TAIL_PCT = 99.0
# update_tail_us takes this percentile within each block of TAIL_BLOCK
# consecutive single updates (the whole run if it holds fewer). A p99
# lands among the 1-3% of calls that bursts of load from the host's other
# guests slow down; how many a run meets varies, and the median of block
# p99s moved by 0.2-0.37 of itself from run to run on housing_cov.
UPDATE_TAIL_PCT = 90.0
TAIL_BLOCK = 1000


def percentile(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    a = np.asarray(values)
    rank = max(1, math.ceil(pct / 100.0 * len(a)))
    return np.partition(a, rank - 1)[rank - 1].item(), len(a) - rank


def block_tail(values, pct: float) -> float:
    """Median over blocks of ``TAIL_BLOCK`` consecutive values of each
    block's percentile; a last, shorter block joins the one before it.

    The slowest calls come in bursts, when a neighbour on the host is
    busy for a few milliseconds; a block that meets many of them does not
    move the median.
    """
    n = max(1, len(values) // TAIL_BLOCK)
    return float(np.median([percentile(b, pct)[0] for b in np.array_split(values, n)]))


class Timings:
    """Start and duration (ns) of one kind of call, with what each carried.

    Kept in ``array('q')`` (8 bytes a number), so the benchmark's own
    memory barely grows with the number of calls a run makes.
    """

    def __init__(self, *extra: str) -> None:
        self.at = array("q")
        self.ns = array("q")
        self.extra = {name: array("q") for name in extra}

    def add(self, at: int, ns: int, **extra: int) -> None:
        self.at.append(at)
        self.ns.append(ns)
        for name, value in extra.items():
            self.extra[name].append(value)

    def __len__(self) -> int:
        return len(self.ns)

    def raw(self, name: str = "ns") -> np.ndarray:
        return np.frombuffer(self.extra.get(name, self.ns), dtype=np.int64)

    def scaled(self, speed: Speed, name: str = "ns") -> np.ndarray:
        """``name`` of every call, scaled to the reference speed."""
        if not len(self):
            return np.zeros(0)
        return self.raw(name) * speed.scale(self.at, self.ns)


class Driver:
    """Runs one workload against one state and keeps every sample."""

    def __init__(self, wl: Workload, tracer: Optional[Tracer] = None):
        self.wl = wl
        self.tracer = tracer
        self.speed = Speed()
        self.setups = Timings()
        self.updates = Timings()
        self.batches = Timings("tuples")
        # per listing: tuples, delay to the first tuple, tail delay
        self.listings = Timings("tuples", "first", "tail")
        self.answers = Timings()
        self.phase_ns = {p: 0 for p in PHASES}
        self.ops = [0, 0, 0]
        self.tuples = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _phase(self, name: str):
        return self.tracer.open_phase(name) if self.tracer else nullcontext()

    def _fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{self.wl.name} {what}: {detail}")

    def setup(self, reps: int, until_s: float = 0.0, max_reps: int = 0) -> RuntimeState:
        """Set up ``reps`` times, then again while less than ``until_s``
        seconds of set-up have been timed, up to ``max_reps`` in all."""
        state = None
        while len(self.setups) < reps or (
            sum(self.setups.ns) < until_s * 1e9 and len(self.setups) < max_reps
        ):
            state = None
            gc.collect()
            self.speed.tick()
            with self._phase("setup"):
                t0 = perf_counter_ns()
                state = self.wl.setup()
                self.setups.add(t0, perf_counter_ns() - t0)
        self.speed.sample(3)
        return state

    def _apply(self, state: RuntimeState, call, tuples: int) -> tuple[int, int]:
        self.attempted += 1
        before = state.counters.snapshot()
        self.speed.tick()
        with self._phase("apply"):
            t0 = perf_counter_ns()
            try:
                call(state)
            except Exception:
                self._fail("update", traceback.format_exc(limit=3))
            dur = perf_counter_ns() - t0
        after = state.counters.snapshot()
        for i in range(3):
            self.ops[i] += after[i] - before[i]
        self.tuples += tuples
        self.phase_ns["apply"] += dur
        return t0, dur

    def answer(self, state: RuntimeState) -> None:
        """One full listing, then the workload's post-processing of it."""
        self.attempted += 1
        gaps = array("q")
        rows: list = []
        self.speed.tick()
        with self._phase("enumerate"):
            t0 = last = perf_counter_ns()
            try:
                for row in enumerate_result(state):
                    now = perf_counter_ns()
                    gaps.append(now - last)
                    last = now
                    rows.append(row)
            except Exception:
                self._fail("listing", traceback.format_exc(limit=3))
            t1 = perf_counter_ns()
        with self._phase("app"):
            try:
                self.wl.app(rows)
            except Exception:
                self._fail("app", traceback.format_exc(limit=3))
            t2 = perf_counter_ns()
        if gaps:
            tail = percentile(gaps, DELAY_TAIL_PCT)[0]
            self.listings.add(t0, t1 - t0, tuples=len(gaps), first=gaps[0], tail=tail)
        self.answers.add(t0, t2 - t0)
        self.phase_ns["enumerate"] += t1 - t0
        self.phase_ns["app"] += t2 - t1

    def check(self, state: RuntimeState, label: str) -> None:
        """Compare the maintained result and a fresh listing with the
        expected result. The comparison runs in a forked child, so the
        memory it needs never counts toward the run's peak."""
        self.attempted += 1
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read)
            try:
                diff = self.wl.check(state, list(enumerate_result(state)))
            except BaseException:
                diff = traceback.format_exc(limit=3)
            with os.fdopen(write, "w") as fh:
                fh.write(diff or "")
            os._exit(0)
        os.close(write)
        with os.fdopen(read) as fh:
            diff = fh.read()
        _, status = os.waitpid(pid, 0)
        if status:
            diff = diff or f"check process ended with status {status}"
        if diff:
            self._fail(f"check after {label}", diff)

    def _loop(self, state, limit: tuple[str, float], step, label: str, last: bool):
        """Run ``step`` until the limit.

        A time limit stops before a step that would likely end more than
        half a step past it, but always runs at least one step. The last
        slice of a phase ends with the phase's check.
        """
        kind, amount = limit
        start = perf_counter()
        n = 0
        while True:
            if kind == "n" and n >= amount:
                break
            if kind == "s" and n > 0:
                now = perf_counter()
                if now - start + 0.5 * (now - start) / n >= amount:
                    break
            step()
            n += 1
        if last:
            self.speed.tick()
            self.check(state, label)

    def run(self, state: RuntimeState, updates: tuple, batches: tuple, slices: int = 1) -> None:
        """Alternate ``slices`` slices of single updates and of batches;
        each slice gets an equal share of the two limits."""
        wl = self.wl

        def update() -> None:
            self.updates.add(*self._apply(state, wl.next_update(), wl.update_tuples))
            if wl.update_tuples >= BATCH:
                self.answer(state)

        def batch() -> None:
            call, n = wl.next_batch()
            self.batches.add(*self._apply(state, call, n), tuples=n)
            # When answers take long, sample the speed before this one too,
            # so that the batch call has samples on both sides. Otherwise
            # the kernel would run just before every short listing, and
            # the listing would be timed in the caches the kernel left.
            if len(self.answers) and self.answers.ns[-1] >= LONG_NS:
                self.speed.sample(3)
            self.answer(state)

        for i in range(slices):
            last = i == slices - 1
            for limit, step, label in (
                (updates, update, "single updates"),
                (batches, batch, "batches"),
            ):
                self._loop(state, (limit[0], limit[1] / slices), step, label, last)


def _figures(d: Driver, scaled: bool) -> dict[str, float]:
    """The end-to-end figures, from scaled or from raw timings."""

    def t(tm: Timings, name: str = "ns") -> np.ndarray:
        return tm.scaled(d.speed, name) if scaled else tm.raw(name)

    updates = t(d.updates)
    return {
        "setup_s": float(np.median(t(d.setups))) / 1e9,
        "update_p50_us": float(np.median(updates)) / 1e3,
        "update_tail_us": block_tail(updates, UPDATE_TAIL_PCT) / 1e3,
        "batch_tuples_per_s": float(np.median(d.batches.raw("tuples") / t(d.batches))) * 1e9,
        "enum_tuples_per_s": float(np.median(d.listings.raw("tuples") / t(d.listings))) * 1e9,
        "enum_delay_tail_us": float(np.median(t(d.listings, "tail"))) / 1e3,
        "app_ms": float(np.median(t(d.answers))) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end(d: Driver) -> dict[str, float]:
    """Every figure over the whole run, from timings scaled to the
    reference speed: medians over calls (a rate is the median of each
    call's tuples over its time, so that one call stalled by a garbage
    collection does not move it), the tail of single updates, and the
    median of the set-ups."""
    return _figures(d, scaled=True)


def end_to_end_notes(d: Driver) -> list[str]:
    blocks = max(1, len(d.updates) // TAIL_BLOCK)
    split = np.array_split(d.updates.raw(), blocks)
    beyond = sum(percentile(b, UPDATE_TAIL_PCT)[1] for b in split)
    share = d.failed / d.attempted if d.attempted else 0.0
    ref = np.frombuffer(d.speed.ns, dtype=np.int64) / 1e3
    raw = _figures(d, scaled=False)
    return [
        f"setup_s is the median of {len(d.setups)} set-ups; the run made "
        f"{len(d.updates)} single updates, {len(d.batches)} batch calls and "
        f"{len(d.listings)} listings",
        f"update_tail_us is the median of p{UPDATE_TAIL_PCT} over {blocks} blocks of "
        f"{len(d.updates) // blocks} updates, {beyond} beyond it in all",
        f"enum_delay_tail_us is the median over listings of each listing's "
        f"p{DELAY_TAIL_PCT} delay",
        f"reference kernel: {len(ref)} samples, median {np.median(ref):.0f} us, "
        f"quartiles {np.percentile(ref, 25):.0f}-{np.percentile(ref, 75):.0f} us; "
        f"figures above are scaled to {REF_NS / 1e3:.0f} us per kernel",
        "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb"),
        f"failed_ops_share {share:.6g} ({d.failed} of {d.attempted} calls and checks)",
    ]


def _count_entries(state: RuntimeState) -> tuple[int, int]:
    rels = list(state.leaves.values()) + list(state.views.values())
    rels += list(state.indicator_rels.values())
    stored = sum(len(r.entries) for r in rels)
    indexed = 0
    for r in rels:
        for table in r.indexes.values():
            for bucket in table.values():
                indexed += sum(len(keys) for keys in bucket.values())
    return stored, indexed


def per_layer(tracer: Tracer, traced: Driver, plain: Driver, state: RuntimeState) -> dict:
    """Per-module metrics of the traced pass; overheads against the plain one."""
    t = tracer
    m: dict[str, float] = {}
    for op in ("add", "mul", "lift", "is_zero"):
        m[f"rings.{op}.calls"] = t.calls(f"rings.{op}")
        m[f"rings.{op}.self_s"] = t.self_s(f"rings.{op}")
    apply_wall = t.phase_ns["apply"] / 1e9
    m["rings.share"] = t.module_self_s("apply")["rings"] / apply_wall if apply_wall else 0.0
    for op in ("accumulate", "join", "marginalize", "apply_delta"):
        m[f"relations.{op}.calls"] = t.calls(f"relations.{op}")
        m[f"relations.{op}.self_s"] = t.self_s(f"relations.{op}")
    join_out = t.count("relations.join.out_entries")
    marg_out = t.count("relations.marginalize.out_entries")
    delta_in = t.count("relations.apply_delta.delta_entries")
    m["relations.join.out_entries"] = join_out
    m["relations.marginalize.out_entries"] = marg_out
    m["relations.apply_delta.delta_entries"] = delta_in
    m["relations.index_lookup.calls"] = t.calls("relations.index_lookup")
    m["relations.ensure_index.self_s"] = t.self_s("relations.ensure_index")
    for i, name in enumerate(("entry_reads", "entry_writes", "index_probes")):
        m[f"relations.{name}_per_tuple"] = traced.ops[i] / traced.tuples
    m["relations.useful_ratio"] = delta_in / (join_out + marg_out) if join_out + marg_out else 0.0
    m["ivm.apply_batch.self_s"] = t.self_s("ivm.apply_batch")
    for op in ("propagate", "optimize_factorized"):
        m[f"ivm.{op}.calls"] = t.calls(f"ivm.{op}")
        m[f"ivm.{op}.self_s"] = t.self_s(f"ivm.{op}")
    m["ivm.load_s"] = t.total_s("ivm.load", phases=("setup",))
    m["ivm.stored_entries"], m["ivm.index_entries"] = _count_entries(state)
    m["viewtree.plan_s"] = t.total_s("viewtree.plan", phases=("setup",))
    nodes = state.tree.nodes
    m["viewtree.views_materialized"] = sum(1 for n in nodes if n.materialized and n.kind != "leaf")
    m["viewtree.indexes_planned"] = sum(len(n.required_indices) for n in nodes)
    m["enumeration.enumerate_s"] = t.total_s("enumeration.enumerate")
    m["enumeration.tuples"] = t.count("enumeration.tuples")
    first = plain.listings.raw("first")
    m["enumeration.first_tuple_us"] = float(np.median(first)) / 1e3 if len(first) else 0.0
    regressions = t.calls("apps.regression")
    m["apps.regression_s"] = t.total_s("apps.regression")
    m["apps.gd_iterations"] = t.count("apps.gd_iterations")
    m["apps.gd_converged_share"] = (
        t.count("apps.gd_converged") / regressions if regressions else 0.0
    )
    m["apps.second_moment_s"] = t.total_s("apps.second_moment")
    m["apps.mcm_rank_update_s"] = t.total_s("apps.mcm_rank_update")
    for phase in PHASES:
        wall = t.phase_ns[phase] / 1e9
        m[f"bench.{phase}.wall_s"] = wall
        m[f"bench.{phase}.loop_s"] = wall - sum(t.module_self_s(phase).values())
        # Both passes time their calls the same way, so the difference is
        # what the wrappers cost.
        m[f"bench.{phase}.overhead_s"] = (traced.phase_ns[phase] - plain.phase_ns[phase]) / 1e9
    return m


def per_view_lines(tracer: Tracer) -> list[str]:
    """Which view paid: delta entries and apply time per stored relation."""
    lines = []
    views = sorted(
        {nm.rsplit(".", 1)[0] for (_, nm) in tracer.counts if nm.startswith("ivm.view.")}
    )
    for v in views:
        n = tracer.count(f"{v}.delta_entries")
        s = tracer.count(f"{v}.apply_ns") / 1e9
        lines.append(f"{v}.delta_entries {n} count")
        lines.append(f"{v}.apply_s {s:.6f} s")
    for phase in PHASES:
        mods = tracer.module_self_s(phase)
        lines.append(
            f"bench.{phase} self_s by module: "
            + ", ".join(f"{k}={v:.4f}" for k, v in mods.items())
        )
    return lines
