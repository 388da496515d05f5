"""Three ways to answer the same stream, and the glue to race them.

All three run one maintenance engine, :class:`~fivm.ivm.RuntimeState`.
``fivm`` maintains the planned view tree by delta propagation.
``first_order`` stores only the inputs and the result
(:func:`~fivm.viewtree.plan_flat_tree`): a delta to one input joins the
others through planned leaf indexes. ``reevaluate`` stores the same and
rebuilds the result from the inputs after every batch. The baselines list
by recomputing over their inputs, trusting no maintained view. All three
expose identical snapshots, so a verification run is nothing but
dictionary comparisons at agreed checkpoints, payloads compared as their
ring defines equality.

Every engine's state owns its counter block; the per-batch metric rows
therefore show what each strategy actually paid, in the same units. Runs and
verifications drive every engine through one batch step, which applies
the batch, lists the result at the enumeration cadence, runs a run's
application and builds the metric row, with the three phases timed apart;
verification compares the listings those steps took.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterable, Optional, Sequence

from ..apps import chow_liu_tree, mutual_information_matrix, train_linear_regression, write_csv
from ..enumeration import enumerate_result
from ..ivm import RuntimeState, UpdateDelta, recompute_query
from ..relations import from_pairs
from ..rings import RingSpec, ring_negate
from ..viewtree import plan_flat_tree
from .scenario import CompiledScenario, ScenarioError
from .streams import StreamEvent, synthesize_stream

__all__ = [
    "ENGINE_NAMES",
    "METRIC_COLUMNS",
    "make_engine",
    "run_scenario",
    "verify_scenarios",
    "emit_metrics",
    "RunReport",
]

ENGINE_NAMES = ("fivm", "first_order", "reevaluate")

METRIC_COLUMNS = (
    "scenario",
    "engine",
    "batch_index",
    "tuples_processed",
    "entry_reads",
    "entry_writes",
    "index_probes",
    "apply_ns",
    "enumerate_ns",
    "app_ns",
    "enumerated_tuples",
)


class FivmEngine:
    """The maintained view tree, driven through its runtime state."""

    name = "fivm"

    def __init__(self, compiled: CompiledScenario):
        self.compiled = compiled
        self.state = RuntimeState(compiled.tree)

    def setup(self) -> None:
        data = {
            name: [(e.key, e.payload) for e in events]
            for name, events in self.compiled.static_events.items()
        }
        self.state.load(data)

    def apply(self, batch: Sequence[StreamEvent]) -> int:
        return self.state.apply_batch(_batch_deltas(self.compiled, batch))

    def root_snapshot(self) -> dict[tuple, Any]:
        return dict(self.state.result().entries)

    def listing_snapshot(self) -> dict[tuple, Any]:
        return dict(enumerate_result(self.state))


class FirstOrderEngine(FivmEngine):
    """The inputs plus the result, one stored view that joins them all.

    A delta to one input joins the other inputs through the leaf indexes
    its planned path probes and lands in the result; no intermediate view
    exists, which is what makes the comparison with fivm interesting.
    """

    name = "first_order"

    def __init__(self, compiled: CompiledScenario, updatable: Optional[Sequence[str]] = None):
        c = self.compiled = compiled
        if updatable is None:
            updatable = c.scenario.updatable
        tree = plan_flat_tree(c.query, c.order, c.result_schema, updatable)
        # Payloads stay whole, as a recompute over the inputs keeps them.
        self.state = RuntimeState(tree, factorized_payloads=False)

    def listing_snapshot(self) -> dict[tuple, Any]:
        query = self.compiled.query
        return dict(recompute_query(query, self.state.leaves, query.free).entries)


class ReevaluateEngine(FirstOrderEngine):
    """The inputs plus the result, rebuilt from the inputs after every batch."""

    name = "reevaluate"

    def __init__(self, compiled: CompiledScenario):
        super().__init__(compiled, updatable=())

    def apply(self, batch: Sequence[StreamEvent]) -> int:
        """Add the batch to the inputs and rebuild the result, every row
        checked (:meth:`Query.checked`) before any input changes. Returns
        the key-level changes the batch makes, merged off the state's counters
        as :meth:`RuntimeState.apply_batch` counts them."""
        state, query = self.state, self.compiled.query
        deltas = _batch_deltas(self.compiled, batch)
        checked = [(d.target, query.checked(d.pairs, d.target)) for d in deltas]
        touched = 0
        for name, pairs in checked:
            occurrences = query.occurrences[name]
            for occ in occurrences:
                state.leaves[occ.leaf_id].accumulate_all(pairs)
            touched += len(from_pairs(occurrences[0].schema, query.ring, pairs).entries)
        state.initialize(state.leaves)
        return touched

    # Bound here, not inherited: each engine class owns its listing method.
    listing_snapshot = FirstOrderEngine.listing_snapshot


_ENGINES = {
    "fivm": FivmEngine,
    "first_order": FirstOrderEngine,
    "reevaluate": ReevaluateEngine,
}


def make_engine(name: str, compiled: CompiledScenario):
    cls = _ENGINES.get(name)
    if cls is None:
        raise ScenarioError(f"unknown engine {name!r}; pick one of {ENGINE_NAMES}")
    return cls(compiled)


def _batch_deltas(
    compiled: CompiledScenario, batch: Sequence[StreamEvent]
) -> list[UpdateDelta]:
    """Group a batch's events into one keyed delta per relation."""
    ring = compiled.query.ring
    grouped: dict[str, list[tuple[tuple, Any]]] = {}
    for e in batch:
        val = e.payload if e.sign > 0 else ring_negate(ring, e.payload)
        grouped.setdefault(e.relation, []).append((e.key, val))
    return [UpdateDelta(name, tuple(pairs)) for name, pairs in grouped.items()]


@dataclass
class RunReport:
    """Everything one engine produced over one scenario run."""

    scenario: str
    engine_name: str
    rows: list[tuple]
    engine: Any
    app_results: dict[str, Any] = field(default_factory=dict)


def _run_app(
    compiled: CompiledScenario, engine, report: RunReport, prior: Optional[dict]
) -> Optional[dict]:
    app = compiled.scenario.app
    if app is None:
        return prior
    root = engine.root_snapshot()
    stats = root.get(())
    if stats is None:
        return prior
    spec = compiled.query.ring
    slots = compiled.slots
    if app.kind == "regression":
        res = train_linear_regression(spec, slots, stats, compiled.regression, prior=prior)
        report.app_results["regression"] = res
        return res.theta
    if app.kind == "covariance":
        report.app_results["covariance"] = stats
    else:
        mi = report.app_results["mi"] = mutual_information_matrix(spec, slots, stats)
        if app.kind == "chow_liu":
            report.app_results["chow_liu"] = chow_liu_tree(mi)
    return prior


def _stream(
    compiled: CompiledScenario,
    batch_size: Optional[int] = None,
    seed: Optional[int] = None,
) -> list[list[StreamEvent]]:
    scn = compiled.scenario
    return synthesize_stream(
        compiled.stream_events,
        scn.batch_size if batch_size is None else batch_size,
        seed=scn.seed if seed is None else seed,
        shuffle=scn.shuffle,
    )


def _step(
    engine, bi: int, batch: Sequence[StreamEvent], intvl: int,
    app: Optional[Callable[[], Any]] = None,
) -> tuple[tuple, Optional[dict[tuple, Any]]]:
    """Apply one batch, listing the result every ``intvl`` batches, then
    run ``app`` when given.

    Returns the batch's metric row and the listing, or None off the
    cadence. The counters cover the apply and the listing; each of the
    three phases is timed on its own clock.
    """
    counters = engine.state.counters
    before = counters.snapshot()
    t0 = perf_counter_ns()
    touched = engine.apply(batch)
    t1 = perf_counter_ns()
    listing = engine.listing_snapshot() if intvl and bi % intvl == 0 else None
    t2 = perf_counter_ns()
    reads, writes, probes = (a - b for a, b in zip(counters.snapshot(), before))
    if app is not None:
        app()
    t3 = perf_counter_ns()
    enumerated = 0 if listing is None else len(listing)
    row = (
        engine.compiled.scenario.name, engine.name, bi, touched,
        reads, writes, probes, t1 - t0, t2 - t1, t3 - t2, enumerated,
    )
    return row, listing


def run_scenario(
    compiled: CompiledScenario,
    engine_name: str = "fivm",
    batch_size: Optional[int] = None,
    seed: Optional[int] = None,
    intvl: Optional[int] = None,
) -> RunReport:
    """Stream one scenario through one engine, collecting metric rows.

    ``batch_size``, ``seed`` and ``intvl`` override the scenario's own
    settings when given. Each batch contributes one metric row; listing
    enumeration happens every ``intvl`` batches (never, when zero). A
    configured application reruns after every batch, with regression
    coefficients warm-started from the previous batch when the scenario
    asks for that.
    """
    scn = compiled.scenario
    iv = intvl if intvl is not None else scn.intvl

    engine = make_engine(engine_name, compiled)
    engine.setup()
    report = RunReport(scn.name, engine_name, [], engine)
    prior: Optional[dict] = None

    def app() -> None:
        nonlocal prior
        prior = _run_app(compiled, engine, report, prior)

    for bi, batch in enumerate(_stream(compiled, batch_size, seed), start=1):
        row, _ = _step(engine, bi, batch, iv, app)
        report.rows.append(row)
    return report


def _divergence(label: str, name: str, ring: RingSpec, base: dict, other: dict) -> Optional[str]:
    """Name the first key, in fivm's order, where engine ``name``'s snapshot
    differs from fivm's ``base``; None when they agree. Payloads agree as
    :attr:`RingSpec.close` says. On an exact ring both snapshots must hold
    the key; on a real-based one a missing key reads as the ring zero."""
    if other == base:
        return None
    missing = None if ring.exact else ring.zero
    for key in {**base, **other}:
        if not ring.close(base.get(key, missing), other.get(key, missing)):
            ours = repr(base[key]) if key in base else "absent"
            theirs = repr(other[key]) if key in other else "absent"
            return f"{label} diverges from fivm at key {key!r}: fivm {ours}, {name} {theirs}"
    return None


def _verify_one(compiled: CompiledScenario) -> tuple[list[str], list[tuple]]:
    scn = compiled.scenario
    ring = compiled.query.ring
    engines = [make_engine(n, compiled) for n in ENGINE_NAMES]
    for e in engines:
        e.setup()
    found: list[Optional[str]] = []
    rows: list[tuple] = []
    for bi, batch in enumerate(_stream(compiled), start=1):
        steps = [_step(e, bi, batch, scn.intvl) for e in engines]
        rows.extend(row for row, _ in steps)
        where = f"{scn.name} batch {bi}"
        root, listing = engines[0].root_snapshot(), steps[0][1]
        for e in engines[1:]:
            found.append(
                _divergence(f"{where}: {e.name} root", e.name, ring, root, e.root_snapshot())
            )
        if listing is not None:
            for e, (_, other) in zip(engines[1:], steps[1:]):
                found.append(
                    _divergence(f"{where}: {e.name} listing", e.name, ring, listing, other)
                )
    return [msg for msg in found if msg], rows


def verify_scenarios(
    compiled: Iterable[CompiledScenario],
) -> tuple[bool, list[str], list[tuple]]:
    """Race all three engines over each scenario and compare snapshots.

    Roots are compared after every batch and listings at the scenario's
    enumeration cadence, using the listings the batch steps took; payloads
    agree as their ring's ``close`` says (:func:`_divergence`). The
    metric rows come back in (scenario, engine, batch) order.
    """
    problems: list[str] = []
    rows: list[tuple] = []
    for c in compiled:
        found, scn_rows = _verify_one(c)
        problems.extend(found)
        rows.extend(scn_rows)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return not problems, problems, rows


def emit_metrics(rows: Iterable[tuple], path: str | Path) -> None:
    """Write metric rows as CSV with the pinned column set."""
    write_csv(path, METRIC_COLUMNS, rows)
