"""Scenario files, synthesized streams, engine races, and the CLI."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
from collections import Counter
from pathlib import Path

import pytest

import fivm.harness.engines as engines
from fivm.harness.cli import main
from fivm.harness.engines import (
    ENGINE_NAMES,
    METRIC_COLUMNS,
    FirstOrderEngine,
    FivmEngine,
    ReevaluateEngine,
    emit_metrics,
    make_engine,
    run_scenario,
    verify_scenarios,
)
from fivm.harness.scenario import (
    RelationSpec,
    ScenarioError,
    bundled_scenarios,
    compile_scenario,
    load_scenario,
    scenario_from_dict,
)
from fivm.harness.streams import StreamEvent, synthesize_stream
from fivm.apps import RegressionConfig
from fivm.ivm import RuntimeState, recompute_query
from fivm.relations import Relation
from fivm.rings import CovarianceTriple, integer_ring, real_ring, relational_ring
from fivm.viewtree import INDICATOR, plan_flat_tree

COUNT_SCN = {
    "name": "pair_count",
    "ring": {"kind": "integer"},
    "relations": [
        {"name": "R", "schema": ["A", "B"], "rows": [[1, 1], [1, 2], [2, 2], [2, 3]]},
        {"name": "S", "schema": ["B", "C"], "rows": [[1, 0], [2, 0], [2, 1], [3, 1]]},
    ],
    "order": [["B", ["A"], ["C"]]],
    "lifts": {"A": "one", "B": "one", "C": "one"},
}


def scn(**overrides):
    doc = dict(COUNT_SCN)
    doc.update(overrides)
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# scenario documents


def test_defaults_fill_in():
    parsed = scenario_from_dict(
        {"relations": COUNT_SCN["relations"], "order": COUNT_SCN["order"],
         "lifts": COUNT_SCN["lifts"]},
        default_name="from_stem",
    )
    assert parsed.name == "from_stem"
    assert parsed.updatable == ("R", "S")
    assert parsed.free == ()
    assert (parsed.batch_size, parsed.intvl, parsed.seed) == (1, 0, 0)
    assert parsed.shuffle
    assert parsed.ring_doc == {"kind": "integer"}


def test_a_self_join_is_updatable_once(capsys):
    """The default ``updatable`` names a self join's relation once, not
    once per occurrence, and ``fivm compile`` prints it once."""
    path = bundled_scenarios()["triangle_retract"]
    assert [r.name for r in load_scenario(path).relations] == ["E", "E", "E"]
    assert load_scenario(path).updatable == ("E",)
    assert main(["compile", "-s", str(path)]) == 0
    assert "\nupdatable: E\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"typo_key": 1}, "unknown scenario keys"),
        ({"relations": []}, "at least one relation"),
        ({"batch_size": 0}, "batch_size"),
        ({"intvl": -1}, "intvl"),
        ({"updatable": ["Q"]}, "updatable names not declared"),
        ({"mode": "nu"}, "unknown scenario keys"),
        ({"free_lift_mode": "flat"}, "unknown free_lift_mode"),
        ({"app": {"kind": "forecast"}}, "unknown app kind"),
        ({"relations": [{"name": "R", "rows": [[1]]}]}, "needs a name and a schema"),
        ({"relations": [{"schema": ["A"], "rows": [[1]]}]}, "needs a name and a schema"),
        ({"timeout_s": 5}, "unknown scenario keys"),
        ({"sorted_updates": True}, "unknown scenario keys"),
    ],
)
def test_document_validation(overrides, message):
    doc = dict(COUNT_SCN)
    doc.update(overrides)
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(doc)


def test_unknown_relation_keys_are_rejected():
    doc = dict(COUNT_SCN)
    doc["relations"] = [{"name": "R", "schema": ["A"], "rows": [], "color": "red"}]
    with pytest.raises(ScenarioError, match="unknown relation keys"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key", ["payload_column", "signed"])
def test_relation_flags_must_be_booleans(key):
    doc = dict(COUNT_SCN)
    r, s = COUNT_SCN["relations"]
    doc["relations"] = [dict(r, **{key: "false"}), s]
    with pytest.raises(ScenarioError, match=f"{key} must be true or false, not 'false'"):
        scenario_from_dict(doc)


def test_loading_files_and_bad_json(tmp_path):
    path = tmp_path / "pair_count.json"
    path.write_text(json.dumps(COUNT_SCN))
    assert load_scenario(path).name == "pair_count"
    doc = dict(COUNT_SCN)
    del doc["name"]
    unnamed = tmp_path / "stem_name.json"
    unnamed.write_text(json.dumps(doc))
    assert load_scenario(unnamed).name == "stem_name"
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(broken)


# ---------------------------------------------------------------------------
# row decoding


def test_rows_become_unit_payload_events():
    spec = RelationSpec("R", ("A",), ((1,), (2,)))
    events = spec.events(integer_ring())
    assert events == [StreamEvent("R", (1,), 1, 1), StreamEvent("R", (2,), 1, 1)]


def test_payload_column_parses_per_ring():
    spec = RelationSpec("R", ("A",), ((1, "7"),), payload_column=True)
    assert spec.events(integer_ring())[0].payload == 7
    assert spec.events(real_ring())[0].payload == 7.0
    whole = RelationSpec("R", ("A",), ((1, 2.0),), payload_column=True)
    assert whole.events(integer_ring())[0].payload == 2
    with pytest.raises(ScenarioError, match="numeric ring"):
        spec.events(relational_ring())


def test_signed_rows_carry_deletes():
    spec = RelationSpec("R", ("A",), ((1, 1), (1, -1)), signed=True)
    signs = [e.sign for e in spec.events(integer_ring())]
    assert signs == [1, -1]
    bad = RelationSpec("R", ("A",), ((1, 2),), signed=True)
    with pytest.raises(ScenarioError, match="sign must be"):
        bad.events(integer_ring())


@pytest.mark.parametrize(
    "ring, raw, message",
    [
        (integer_ring(), 2.7, "payload 2.7 is not an integer"),
        (integer_ring(), True, "payload True is not an integer"),
        (integer_ring(), "2.5", "payload '2.5' is not an integer"),
        (integer_ring(), "abc", "payload 'abc' is not an integer"),
        (real_ring(), "abc", "payload 'abc' is not a finite number"),
        (real_ring(), True, "payload True is not a finite number"),
        (real_ring(), math.nan, "payload nan is not a finite number"),
    ],
)
def test_payload_column_refuses_inexact_values(ring, raw, message):
    """A payload is read exactly or refused, naming the relation and row."""
    spec = RelationSpec("R", ("A",), ((1, 1), (2, raw)), payload_column=True)
    with pytest.raises(ScenarioError, match=f"^R row 1: {re.escape(message)}$"):
        spec.events(ring)


@pytest.mark.parametrize("sign", [1.5, True, "1", -1.0, 2, None])
def test_signs_are_the_integers_one_and_minus_one(sign):
    spec = RelationSpec("R", ("A",), ((1, -1), (2, sign)), signed=True)
    message = f"R row 1: sign must be +1 or -1, not {sign!r}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        spec.events(integer_ring())


def test_row_width_is_checked():
    spec = RelationSpec("R", ("A", "B"), ((1,),))
    with pytest.raises(ScenarioError, match="expected 2"):
        spec.events(integer_ring())


# ---------------------------------------------------------------------------
# compilation


def test_compile_splits_static_from_streamed():
    compiled = compile_scenario(scn(updatable=["R"]))
    assert [name for name, _ in compiled.stream_events] == ["R"]
    assert set(compiled.static_events) == {"S"}
    assert compiled.result_schema == ()
    assert len(compiled.tree.nodes) > 0


def test_static_relations_cannot_delete():
    doc = dict(COUNT_SCN)
    doc["relations"] = [
        dict(doc["relations"][0]),
        {"name": "S", "schema": ["B", "C"], "rows": [[1, 0, -1]], "signed": True},
    ]
    doc["updatable"] = ["R"]
    with pytest.raises(ScenarioError, match="static but has a signed delete"):
        compile_scenario(scenario_from_dict(doc))


def test_canonical_order_for_a_hierarchical_query():
    doc = {
        "relations": [
            {"name": "R", "schema": ["A", "B"], "rows": [[1, 1]]},
            {"name": "S", "schema": ["A", "C"], "rows": [[1, 2]]},
        ],
        "free": ["A", "B", "C"],
        "order": "canonical",
        "free_lift_mode": "relational_payload",
        "ring": {"kind": "relational"},
    }
    compiled = compile_scenario(scenario_from_dict(doc))
    assert compiled.order.to_nested() == [["A", "B", "C"]]


def test_canonical_order_refuses_other_shapes():
    with pytest.raises(ScenarioError, match="not q-hierarchical"):
        compile_scenario(scn(order="canonical", free=["A", "C"]))


def test_functional_dependencies_admit_a_canonical_order():
    """With A -> B, R(A,B) S(B,C) over free (A, C) is q-hierarchical once
    reduced: B goes on top and the tree maintains what the baselines do."""
    compiled = compile_scenario(scn(order="canonical", free=["A", "C"], fds=[[["A"], ["B"]]]))
    assert compiled.order.to_nested() == [["B", "A", "C"]]
    assert compiled.tree.mode == "tau"
    ok, problems, _ = verify_scenarios([compiled])
    assert ok, problems


def test_orders_must_place_every_variable():
    with pytest.raises(ScenarioError, match="does not place"):
        compile_scenario(scn(order=[["B", ["A"]]]))
    with pytest.raises(ScenarioError, match="needs an 'order'"):
        compile_scenario(scn(order=None))


def test_unknown_lift_and_ring_names():
    with pytest.raises(ScenarioError, match="unknown lift"):
        compile_scenario(scn(lifts={"A": "double"}))
    with pytest.raises(ScenarioError, match="unknown ring kind"):
        compile_scenario(scn(ring={"kind": "quaternion"}))
    with pytest.raises(ScenarioError, match="unknown relational base"):
        compile_scenario(scn(ring={"kind": "relational", "base": "covariance"}))


@pytest.mark.parametrize(
    "ring, message",
    [
        ({"kind": "integer", "zero_tolerance": 0.5}, "integer ring is exact"),
        ({"kind": "relational", "zero_tolerance": 0.5}, "over integers is exact"),
        ({"kind": "real", "zero_tolerance": -1}, "must be non-negative"),
        ({"kind": "real", "zero_tolerence": 1e-9}, r"real ring: \['zero_tolerence'\]"),
        ({"kind": "real", "base": "real"}, r"real ring: \['base'\]"),
        ({"kind": "integer", "base": "integer"}, r"integer ring: \['base'\]"),
    ],
)
def test_ring_documents_take_only_their_own_keys(ring, message):
    with pytest.raises(ScenarioError, match=message):
        compile_scenario(scn(ring=ring))


def test_ring_documents_pass_the_tolerance():
    ring = compile_scenario(scn(ring={"kind": "real", "zero_tolerance": 1e-9})).query.ring
    assert ring.zero_tolerance == 1e-9
    ring = compile_scenario(
        scn(ring={"kind": "relational", "base": "real", "zero_tolerance": 1e-6})
    ).query.ring
    assert (ring.base, ring.zero_tolerance) == ("real", 1e-6)


def test_chain_scenarios_pin_their_relations():
    doc = {
        "name": "tiny_chain",
        "chain": [2, 3, 2],
        "relations": [
            {"name": "A1", "schema": ["X1", "X2"], "rows": [[0, 0, 2.0]],
             "payload_column": True},
            {"name": "A2", "schema": ["X2", "X3"], "rows": [[0, 1, 3.0]],
             "payload_column": True},
        ],
    }
    compiled = compile_scenario(scenario_from_dict(doc))
    assert compiled.query.free == ("X1", "X3")
    doc["relations"] = list(reversed(doc["relations"]))
    with pytest.raises(ScenarioError, match="chain relations must be exactly"):
        compile_scenario(scenario_from_dict(doc))
    doc["relations"] = []
    with pytest.raises(ScenarioError, match="at least one relation"):
        scenario_from_dict(doc)
    doc["relations"] = [{"name": "A1", "schema": ["X1", "X2"], "rows": []}]
    doc["kinds"] = {"X1": "continuous"}
    with pytest.raises(ScenarioError, match="cannot also declare kinds"):
        compile_scenario(scenario_from_dict(doc))


STATS_DOC = {
    "name": "tiny_stats",
    "relations": [
        {"name": "R", "schema": ["X", "Y"],
         "rows": [[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]]}
    ],
    "kinds": {"X": "continuous", "Y": "continuous"},
    "order": [["X", ["Y"]]],
}


def stats_doc(**app):
    doc = json.loads(json.dumps(STATS_DOC))
    if app:
        doc["app"] = app
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(COUNT_SCN, app={"kind": "covariance"}), "needs a statistics query"),
        (stats_doc(kind="regression", label="Z"), "is not a slot"),
        (stats_doc(kind="regression", label="Y", features=["W"]), "are not slots"),
        (stats_doc(kind="mi"), "needs categorical"),
        (stats_doc(kind="covariance"), None),
        (dict(stats_doc(kind="covariance"), kinds={"X": "categorical", "Y": "categorical"}),
         "covariance export needs continuous slots"),
        (stats_doc(kind="regression", label="Y", features=["X"], momentum=0.9),
         r"^unknown keys for a regression app: \['momentum'\]; it takes \['label', 'features', "
         r"'step_size', 'gradient_threshold', 'max_iterations', 'warm_start'\]$"),
        (stats_doc(kind="regression", features=["X"]), r"^regression app needs a 'label'$"),
        (stats_doc(kind="regression", label="Y", features="X"),
         "^regression app features must be a list, not 'X'$"),
    ],
)
def test_app_checks(doc, message):
    parsed = scenario_from_dict(doc)
    if message is None:
        compile_scenario(parsed)
    else:
        with pytest.raises(ScenarioError, match=message):
            compile_scenario(parsed)


def test_regression_options_become_one_config():
    doc = stats_doc(kind="regression", label="Y", features=["X"], step_size=0.05)
    assert compile_scenario(scenario_from_dict(doc)).regression == RegressionConfig(
        "Y", ("X",), step_size=0.05
    )
    assert compile_scenario(scenario_from_dict(stats_doc(kind="covariance"))).regression is None


@pytest.mark.parametrize(
    "app, message",
    [
        ({"kind": "regression", "label": "Y", "max_iteration": 5}, "'max_iteration'"),
        ({"kind": "regression", "label": "Y", "step_size": -1}, "step size must be positive"),
        ({"kind": "regression", "label": "Y", "step_size": "big"}, "regression app"),
        ({"kind": "regression", "label": "Y", "max_iterations": 2.5}, "positive integer"),
        ({"kind": "regression", "label": "Y", "gradient_threshold": -1}, "cannot be negative"),
        ({"kind": "regression", "features": ["X"]}, "'label'"),
        ({"kind": "covariance", "label": "Y"}, r"'covariance' takes no options: \['label'\]"),
        ({"kind": "mi", "bins": 3}, r"'mi' takes no options: \['bins'\]"),
        ({"kind": "chow_liu", "root": "X"}, r"'chow_liu' takes no options: \['root'\]"),
    ],
)
def test_app_options_are_checked_at_compile_time(app, message):
    with pytest.raises(ScenarioError, match=message):
        compile_scenario(scenario_from_dict(stats_doc(**app)))


def test_mi_needs_two_categorical_slots():
    doc = stats_doc(kind="mi")
    doc["kinds"] = {"X": "categorical"}
    with pytest.raises(ScenarioError, match="at least two slots"):
        compile_scenario(scenario_from_dict(doc))


def test_binned_kind_document():
    doc = stats_doc()
    doc["kinds"] = {"X": {"binned": {"lo": 0.0, "hi": 2.0, "bins": 3}}, "Y": "continuous"}
    with pytest.raises(ScenarioError, match="regression needs every slot continuous"):
        compile_scenario(scenario_from_dict(dict(doc, app={"kind": "regression",
                                                           "label": "Y",
                                                           "features": ["X"]})))
    compiled = compile_scenario(scenario_from_dict(doc))
    assert compiled.slots == ("X", "Y")
    doc["kinds"] = {"X": {"clipped": True}}
    with pytest.raises(ScenarioError, match="unknown column kind"):
        compile_scenario(scenario_from_dict(doc))


# ---------------------------------------------------------------------------
# streams


def events(name, keys):
    one = 1
    return [StreamEvent(name, (k,), one, 1) for k in keys]


def test_round_robin_interleaving_without_shuffle():
    batches = synthesize_stream(
        [("R", events("R", [1, 2, 3])), ("S", events("S", [9, 8]))],
        batch_size=2,
        shuffle=False,
    )
    flat = [(e.relation, e.key[0]) for b in batches for e in b]
    assert flat == [("R", 1), ("S", 9), ("R", 2), ("S", 8), ("R", 3)]
    assert [len(b) for b in batches] == [2, 2, 1]


def test_seeded_shuffles_replay_identically():
    per = [("R", events("R", range(10))), ("S", events("S", range(10, 16)))]
    a = synthesize_stream(per, batch_size=3, seed=5)
    b = synthesize_stream(per, batch_size=3, seed=5)
    assert a == b
    c = synthesize_stream(per, batch_size=3, seed=6)
    assert a != c


def test_stream_batch_size_bound():
    with pytest.raises(ValueError):
        synthesize_stream([], batch_size=0)


# ---------------------------------------------------------------------------
# engines


def test_engines_agree_batch_by_batch():
    compiled = compile_scenario(scn())
    engines = [make_engine(n, compiled) for n in ENGINE_NAMES]
    for e in engines:
        e.setup()
    batches = synthesize_stream(compiled.stream_events, batch_size=3, seed=2)
    for batch in batches:
        snaps = []
        for e in engines:
            e.apply(batch)
            snaps.append(e.root_snapshot())
        assert snaps[0] == snaps[1] == snaps[2]
    assert snaps[0] == {(): 6}


def test_every_engine_counts_a_batch_by_its_merged_key_changes():
    """Two inserts on one key are one key-level change, and an insert and
    a delete of one key are none, whichever engine applies the batch."""
    compiled = compile_scenario(scn())
    batch = [
        StreamEvent("R", (5, 1), 1),
        StreamEvent("R", (5, 1), 1),
        StreamEvent("S", (1, 0), 1),
        StreamEvent("S", (3, 1), 1),
        StreamEvent("S", (3, 1), 1, sign=-1),
    ]
    touched = {}
    for name in ENGINE_NAMES:
        engine = make_engine(name, compiled)
        engine.setup()
        touched[name] = engine.apply(batch)
    assert touched == {name: 2 for name in ENGINE_NAMES}


@pytest.mark.parametrize(
    "bad", [StreamEvent("T", ("only-one",), 1), StreamEvent("T", ("c1", "d9"), "x")]
)
def test_every_engine_refuses_a_bad_batch_before_any_change(bad):
    """A valid R row followed by a bad T row (a short key, or a payload off
    the integer ring) is refused with one message by all three engines,
    and none of them changes a leaf or its root."""
    compiled = compile_scenario(load_scenario(bundled_scenarios()["count_chain"]))
    batch = [StreamEvent("R", ("a9", "b9"), 1), bad]
    messages = set()
    for name in ENGINE_NAMES:
        engine = make_engine(name, compiled)
        engine.setup()
        state = engine.state
        leaves = {i: dict(rel.entries) for i, rel in state.leaves.items()}
        root = engine.root_snapshot()
        with pytest.raises(ValueError) as err:
            engine.apply(batch)
        messages.add(str(err.value))
        assert {i: dict(rel.entries) for i, rel in state.leaves.items()} == leaves, name
        assert engine.root_snapshot() == root, name
    assert len(messages) == 1, messages


def fanout_chain(n):
    """R(A,B)-S(B,C)-T(C,D) counted, S and T static with ``n`` rows each.
    Every B value meets two C values and every C value one D value at any
    ``n``, and R streams the same 20 single inserts."""
    return scenario_from_dict({
        "name": f"fanout_chain_{n}",
        "ring": {"kind": "integer"},
        "relations": [
            {"name": "R", "schema": ["A", "B"], "rows": [[i, 7 * i] for i in range(20)]},
            {"name": "S", "schema": ["B", "C"], "rows": [[c // 2, c] for c in range(n)]},
            {"name": "T", "schema": ["C", "D"], "rows": [[c, c % 10] for c in range(n)]},
        ],
        "order": [["B", ["A"], ["C", ["D"]]]],
        "lifts": {v: "one" for v in "ABCD"},
        "updatable": ["R"],
    })


def test_first_order_work_per_update_does_not_grow_with_the_inputs():
    """A first-order update joins its delta with the other inputs through
    their indexes, so its entry reads stay flat when the static inputs
    grow fourfold at a fixed fan-out; its root equals a recompute over the
    inputs after every batch."""
    reads = {}
    for n in (500, 2000):
        compiled = compile_scenario(fanout_chain(n))
        query = compiled.query
        engine = make_engine("first_order", compiled)
        engine.setup()
        inputs = {d.name: Relation(d.schema, query.ring) for d in query.relations}
        for name, events in compiled.static_events.items():
            inputs[name].accumulate_all((e.key, e.payload) for e in events)
        spent = []
        for batch in synthesize_stream(compiled.stream_events, batch_size=1):
            before = engine.state.counters.entry_reads
            engine.apply(batch)
            spent.append(engine.state.counters.entry_reads - before)
            inputs["R"].accumulate_all((e.key, e.payload) for e in batch)
            expect = recompute_query(query, inputs, compiled.result_schema)
            assert engine.root_snapshot() == dict(expect.entries)
        assert len(spent) == 20
        reads[n] = sum(spent) / len(spent)
    assert reads[2000] <= 1.5 * reads[500], reads


def test_unknown_engine_names_fail():
    compiled = compile_scenario(scn())
    with pytest.raises(ScenarioError, match="unknown engine"):
        make_engine("magic", compiled)


def test_run_produces_one_metric_row_per_batch():
    compiled = compile_scenario(scn(batch_size=3))
    report = run_scenario(compiled, engine_name="fivm")
    total = sum(len(ev) for _, ev in compiled.stream_events)
    assert len(report.rows) == (total + 2) // 3
    for row in report.rows:
        assert len(row) == len(METRIC_COLUMNS)
        assert row[0] == "pair_count"
        assert row[1] == "fivm"
    assert [r[2] for r in report.rows] == list(range(1, len(report.rows) + 1))
    assert sum(r[3] for r in report.rows) == total


def test_enumeration_cadence_controls_the_last_column():
    enumerated = METRIC_COLUMNS.index("enumerated_tuples")
    compiled = compile_scenario(scn())
    silent = run_scenario(compiled, engine_name="fivm", intvl=0)
    assert all(r[enumerated] == 0 for r in silent.rows)
    compiled = compile_scenario(scn())
    chatty = run_scenario(compiled, engine_name="fivm", intvl=1)
    assert chatty.rows[-1][enumerated] == 1  # one empty-key group once data arrives


def test_metric_rows_time_apply_listing_and_app_apart(monkeypatch):
    """Each phase of a batch step has its own timing column, the app's
    time too: on a clock that only the phases advance, each column reads
    its own phase's time."""
    clock = [0]
    monkeypatch.setattr(engines, "perf_counter_ns", lambda: clock[0])

    def ticking(fn, ns):
        def run(*args, **kwargs):
            clock[0] += ns
            return fn(*args, **kwargs)

        return run

    monkeypatch.setattr(FivmEngine, "apply", ticking(FivmEngine.apply, 1))
    monkeypatch.setattr(FivmEngine, "listing_snapshot", ticking(FivmEngine.listing_snapshot, 10))
    monkeypatch.setattr(engines, "_run_app", ticking(engines._run_app, 100))
    doc = stats_doc(kind="regression", label="Y", features=["X"], step_size=0.05)
    report = run_scenario(compile_scenario(scenario_from_dict(doc)), engine_name="fivm", intvl=2)
    at = [METRIC_COLUMNS.index(c) for c in ("apply_ns", "enumerate_ns", "app_ns")]
    timed = [tuple(row[i] for i in at) for row in report.rows]
    assert timed == [(1, 0 if bi % 2 else 10, 100) for bi in range(1, len(timed) + 1)]
    assert len(timed) > 2


def test_regression_app_reports_through_the_run():
    doc = stats_doc(kind="regression", label="Y", features=["X"], step_size=0.05)
    report = run_scenario(compile_scenario(scenario_from_dict(doc)), engine_name="fivm")
    result = report.app_results["regression"]
    assert result.converged
    assert result.theta["intercept"] == pytest.approx(1.0, abs=1e-6)
    assert result.theta["X"] == pytest.approx(2.0, abs=1e-6)


def test_an_all_deleting_regression_run_keeps_its_last_coefficients(tmp_path, monkeypatch):
    """A regression scenario whose stream deletes every tuple it inserted
    leaves the root with no triple after its last batch. The app then
    skips that batch: the run keeps the coefficients of the batch before,
    and ``fivm run`` exports them and exits 0."""
    doc = stats_doc(kind="regression", label="Y", features=["X"], step_size=0.05)
    rows = doc["relations"][0]["rows"]
    signed = [r + [1] for r in rows] + [r + [-1] for r in rows]
    doc["relations"][0].update(signed=True, rows=signed)
    doc.update(batch_size=2, shuffle=False)
    returned = []
    run_app = engines._run_app

    def spy(*args):
        returned.append(run_app(*args))
        return returned[-1]

    monkeypatch.setattr(engines, "_run_app", spy)
    report = run_scenario(compile_scenario(scenario_from_dict(doc)), engine_name="fivm")
    assert len(report.rows) == len(returned) == 3
    assert report.engine.root_snapshot() == {}
    assert returned[-1] is returned[-2]
    theta = report.app_results["regression"].theta
    assert theta is returned[-1]
    # the last fit saw (1, 3) and (2, 5), both on y = 1 + 2x
    assert theta["intercept"] == pytest.approx(1.0, abs=1e-6)
    assert theta["X"] == pytest.approx(2.0, abs=1e-6)
    out = tmp_path / "theta.csv"
    assert main(["run", "-s", write_scenario(tmp_path, doc), "--export", str(out)]) == 0
    with out.open() as f:
        exported = {row[0]: float(row[1]) for row in list(csv.reader(f))[1:]}
    assert exported == pytest.approx(theta)


@pytest.mark.parametrize("name", ["triangle_count", "triangle_retract"])
def test_indicator_deltas_climb_as_plain_dicts(name, monkeypatch):
    """Every delta of the bundled triangle scenarios, indicator deltas
    included, enters its path as a plain dict over the entry's keys."""
    entered = []
    enter = RuntimeState._enter

    def record(self, entry, form):
        entered.append((entry, form))
        return enter(self, entry, form)

    monkeypatch.setattr(RuntimeState, "_enter", record)
    run_scenario(compile_scenario(load_scenario(bundled_scenarios()[name])), engine_name="fivm")
    indicators = [(entry, form) for entry, form in entered if entry.kind == INDICATOR]
    assert any(form for _, form in indicators)
    assert all(type(form) is dict for _, form in entered)
    assert all(len(k) == len(entry.keys) for entry, form in indicators for k in form)


def test_every_bundled_scenario_verifies():
    paths = bundled_scenarios()
    assert len(paths) >= 7
    compiled = [compile_scenario(load_scenario(p)) for p in paths.values()]
    ok, problems, rows = verify_scenarios(compiled)
    assert ok, problems
    assert problems == []
    seen = {(r[0], r[1]) for r in rows}
    assert len(seen) == len(paths) * len(ENGINE_NAMES)


@pytest.mark.parametrize(
    "name, static",
    [
        (name, rel.name)
        for name, path in sorted(bundled_scenarios().items())
        # a relation that streams deletes cannot be static: compile refuses it
        for rel in load_scenario(path).relations
        if not rel.signed
    ],
)
def test_bundled_scenarios_verify_with_one_relation_static(name, static):
    """A relation left out of ``updatable`` is loaded once at setup; every
    engine must start from the same root and stay in step."""
    base = load_scenario(bundled_scenarios()[name])
    updatable = tuple(r for r in base.updatable if r != static)
    compiled = compile_scenario(dataclasses.replace(base, updatable=updatable))
    assert compiled.static_events[static]
    engines = [make_engine(n, compiled) for n in ENGINE_NAMES]
    for e in engines:
        e.setup()
    roots = [e.root_snapshot() for e in engines]
    assert roots[1:] == roots[:1] * (len(engines) - 1)
    ok, problems, _ = verify_scenarios([compiled])
    assert ok, problems


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_every_leaf_is_stored_in_both_plans(name):
    """fivm's tree and first_order's flat tree store every leaf: a delta
    that climbs level by level ends at its entry's stored relation."""
    c = compile_scenario(load_scenario(bundled_scenarios()[name]))
    flat = plan_flat_tree(c.query, c.order, c.result_schema, c.scenario.updatable)
    for tree in (c.tree, flat):
        assert tree.leaf_nodes.keys() == {d.leaf_id for d in c.query.relations}
        assert all(leaf.materialized for leaf in tree.leaf_nodes.values())


def bundled_compiled():
    return [compile_scenario(load_scenario(p)) for p in bundled_scenarios().values()]


def test_verify_lists_each_engine_once_per_checkpoint(monkeypatch):
    calls = Counter()
    for cls in (FivmEngine, FirstOrderEngine, ReevaluateEngine):

        def counted(self, real=cls.listing_snapshot):
            calls[self.name] += 1
            return real(self)

        monkeypatch.setattr(cls, "listing_snapshot", counted)
    compiled = bundled_compiled()
    ok, _, rows = verify_scenarios(compiled)
    assert ok
    checkpoints = 0
    for c in compiled:
        batches = sum(1 for r in rows if r[0] == c.scenario.name and r[1] == "fivm")
        if c.scenario.intvl:
            checkpoints += batches // c.scenario.intvl
    assert checkpoints > 0
    assert calls == {name: checkpoints for name in ENGINE_NAMES}


def untimed(rows):
    """Metric rows without their timing (``_ns``) columns, picked by name."""
    keep = [i for i, c in enumerate(METRIC_COLUMNS) if not c.endswith("_ns")]
    return [[r[i] for i in keep] for r in rows]


def test_verify_rows_match_run_rows():
    for c in bundled_compiled():
        _, _, rows = verify_scenarios([c])
        for engine in ENGINE_NAMES:
            run = run_scenario(c, engine_name=engine)
            assert untimed(r for r in rows if r[1] == engine) == untimed(run.rows)


@pytest.mark.parametrize(
    "method, what", [("root_snapshot", "root"), ("listing_snapshot", "listing")]
)
def test_divergence_names_the_first_differing_key(monkeypatch, method, what):
    real = getattr(ReevaluateEngine, method)

    def skewed(self):
        snap = real(self)
        if (2,) in snap:
            snap[(2,)] += 100
        return snap

    monkeypatch.setattr(ReevaluateEngine, method, skewed)
    ok, problems, _ = verify_scenarios([compile_scenario(scn(free=["B"], intvl=1))])
    assert not ok
    found = re.search(
        rf"reevaluate {what} diverges from fivm at key \(2,\): "
        r"fivm (\d+), reevaluate (\d+)",
        problems[0],
    )
    assert found, problems[0]
    assert int(found[2]) == int(found[1]) + 100


def _nudged(payload, step):
    """``payload`` with ``step`` applied to every non-zero real in it."""
    if isinstance(payload, CovarianceTriple):
        return CovarianceTriple(
            _nudged(payload.c, step),
            {j: _nudged(v, step) for j, v in payload.s.items()},
            {ij: _nudged(v, step) for ij, v in payload.Q.items()},
        )
    return step(payload) if payload else payload


@pytest.mark.parametrize("name", ["real_pair_count", "covariance_regression"])
def test_verify_compares_real_payloads_by_the_ring(monkeypatch, name):
    """One ulp of rounding is agreement on a real-based ring; a relative
    error of 1e-6 is a divergence that names its key."""
    if name == "real_pair_count":
        compiled = compile_scenario(scn(ring={"kind": "real"}, free=["B"], intvl=1))
    else:
        compiled = compile_scenario(load_scenario(bundled_scenarios()[name]))
    real = ReevaluateEngine.root_snapshot
    step = {}

    def skewed(self):
        return {k: _nudged(v, step["f"]) for k, v in real(self).items()}

    monkeypatch.setattr(ReevaluateEngine, "root_snapshot", skewed)
    step["f"] = lambda v: math.nextafter(v, math.inf)
    ok, problems, _ = verify_scenarios([compiled])
    assert ok, problems
    step["f"] = lambda v: v * (1 + 1e-6)
    ok, problems, _ = verify_scenarios([compiled])
    assert not ok
    assert re.search(r"reevaluate root diverges from fivm at key \(.*\): fivm ", problems[0])


@pytest.mark.parametrize(
    "doc, reported",
    [("pair_count", True), ("listing_factorized", True), ("real_pair_count", False)],
)
def test_verify_reads_a_missing_key_as_zero_only_on_real_rings(monkeypatch, doc, reported):
    """A key one engine keeps with a zero payload and the other lacks is a
    divergence on the exact integer and relational rings; on a real-based
    ring, where rounding can leave or drop such an entry, it is agreement."""
    if doc == "pair_count":
        compiled = compile_scenario(scn())
    elif doc == "real_pair_count":
        compiled = compile_scenario(scn(ring={"kind": "real"}))
    else:
        compiled = compile_scenario(load_scenario(bundled_scenarios()[doc]))
    zero = compiled.query.ring.zero
    real = ReevaluateEngine.root_snapshot
    monkeypatch.setattr(
        ReevaluateEngine, "root_snapshot", lambda self: {**real(self), ("zz",): zero}
    )
    ok, problems, _ = verify_scenarios([compiled])
    assert ok is not reported, problems
    if reported:
        assert re.search(
            r"reevaluate root diverges from fivm at key \('zz',\): fivm absent, reevaluate ",
            problems[0],
        )


def test_metric_rows_are_stable_across_reruns():
    path = bundled_scenarios()["count_chain"]

    def one_run():
        report = run_scenario(
            compile_scenario(load_scenario(path)), engine_name="fivm", intvl=2
        )
        return untimed(report.rows)

    assert one_run() == one_run()


GOLDEN = Path(__file__).parent / "data"


def counter_columns(path):
    """A metrics CSV's rows with every pinned column but the timing ones,
    picked by name."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [[r[c] for c in METRIC_COLUMNS if not c.endswith("_ns")] for r in rows]


def test_run_counters_match_the_golden_rows(tmp_path, capsys):
    """Every bundled scenario on every engine counts the same reads, writes
    and probes per batch as the rows recorded in ``data/counters_run.csv``:
    how the engine does its work may change, the work counted may not."""
    got = []
    for name, path in bundled_scenarios().items():
        for engine in ENGINE_NAMES:
            out = tmp_path / f"{name}-{engine}.csv"
            assert main(["run", "-s", str(path), "--engine", engine, "--metrics", str(out)]) == 0
            got += counter_columns(out)
    assert got == counter_columns(GOLDEN / "counters_run.csv")


def test_verify_counters_match_the_golden_rows(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    args = [a for p in bundled_scenarios().values() for a in ("-s", str(p))]
    assert main(["verify", *args, "--metrics", str(out)]) == 0
    assert counter_columns(out) == counter_columns(GOLDEN / "counters_verify.csv")


def test_emit_metrics_writes_the_pinned_header(tmp_path):
    report = run_scenario(compile_scenario(scn()), engine_name="fivm")
    out = tmp_path / "metrics.csv"
    emit_metrics(report.rows, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(METRIC_COLUMNS)
    assert len(rows) == len(report.rows) + 1
    assert rows[1][0] == "pair_count"


# ---------------------------------------------------------------------------
# command line


def write_scenario(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_compile_prints_the_plan(tmp_path, capsys):
    rc = main(["compile", "-s", write_scenario(tmp_path, COUNT_SCN)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scenario: pair_count" in out
    assert "class: acyclic=True" in out
    assert "mode:" in out
    # one line per level of each delta path: the view, the child the delta
    # arrives through, and every sibling with its join route
    assert [line for line in out.splitlines() if line.startswith("delta ")] == [
        "delta R: V@A(R) <- R",
        "delta R: V@B(R+S) <- V@A(R); V@C(S) by key",
        "delta S: V@C(S) <- S",
        "delta S: V@B(R+S) <- V@C(S); V@A(R) by key",
    ]
    # each path's generated function follows its delta lines, indented;
    # at R's root level it probes V@C(S) by key and multiplies, with
    # Python's own `*` on the integer ring
    lines = out.splitlines()
    assert lines[lines.index("delta R: V@B(R+S) <- V@A(R); V@C(S) by key") + 1] == (
        "    def climb(d1):"
    )
    assert (
        "            for k19, v20 in d2.items():\n"
        "                r14 += 1\n"
        "                v22 = e17.get(k19)\n"
        "                if v22 is None:\n"
        "                    continue\n"
        "                v23 = v20 * v22\n"
    ) in out
    assert main(["compile", "-s", str(bundled_scenarios()["triangle_count"])]) == 0
    out = capsys.readouterr().out
    assert "* exists(R)[A,B] exists(R)\n" in out
    assert "delta S: V@C(S+T) <- S; T by index on C; exists(R)[A,B] by key\n" in out
    assert not [line for line in out.splitlines() if line.startswith("list ")]
    assert "def walk" not in out  # a root-scanned listing generates no walk
    # a walked listing: per step the view its index groups, the variables it
    # probes with, and the payload covers that step completes
    listing = {
        "qhier_pairs": [
            "list A: H@A(R+S) probe (); covers ()",
            "list B: R probe A; covers R",
            "list C: S probe A; covers S",
        ],
        "listing_factorized": [
            "list A: H@A(R+S+T) probe (); covers ()",
            "list B: R probe A; covers R",
            "list C: H@C(S+T) probe A; covers V@E(S)",
            "list D: T probe C; covers T",
        ],
    }
    for name, want in listing.items():
        assert main(["compile", "-s", str(bundled_scenarios()[name])]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("list ")] == want
        assert "enumeration views" not in out  # the list lines name those views
        # the generated walk follows the list lines, indented: one loop per
        # step, the first over the first step's bucket under no bound value
        walk = lines[lines.index(want[-1]) + 1:]
        assert walk[:2] == ["    def walk():", "        C.index_probes += 1"]
        assert re.fullmatch(r" {8}for x1 in T\d+\.get\(\(\), \(\)\):", walk[2])
        loops = [line for line in walk if line.lstrip().startswith("for ")]
        assert len(loops) == len(want)
        for i, line in enumerate(loops):
            assert line.startswith(f"{'    ' * (i + 2)}for x{i + 1} in T")
        assert walk[-1].lstrip().startswith("yield (x1, x2, x3")
    # the matrix chain declares its coordinate ranges: every stored
    # relation is one 4 x 4 array; nothing else is dense
    assert "dense" not in out
    assert main(["compile", "-s", str(bundled_scenarios()["mcm_chain"])]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("* ")] == [
        "* A2[X2,X3] input  dense 4x4",
        "* A3[X3,X4] input  dense 4x4",
        "* V@X3(A2+A3)[X4,X2] = sum_{X3} A2 * A3  dense 4x4",
        "* A1[X1,X2] input  dense 4x4",
        "* V@top(A1+A2+A3)[X1,X4] = sum_{X2} V@X3(A2+A3) * A1  dense 4x4",
    ]


def test_cli_compile_prints_a_scan_route(tmp_path, capsys):
    """R(A) and S(B) share no variable, so a delta to S joins R by
    scanning it; the engines still agree on the result."""
    doc = {
        "name": "cross_count",
        "ring": {"kind": "integer"},
        "relations": [
            {"name": "R", "schema": ["A"], "rows": [[1], [2]]},
            {"name": "S", "schema": ["B"], "rows": [[1], [3], [4]]},
        ],
        "order": ["A", "B"],
        "lifts": {"A": "one", "B": "one"},
    }
    path = write_scenario(tmp_path, doc)
    assert main(["compile", "-s", path]) == 0
    assert "delta S: V@A(R+S) <- V@B(S); R by scan\n" in capsys.readouterr().out
    assert main(["verify", "-s", path]) == 0
    assert capsys.readouterr().out == "cross_count: ok\n"


def test_cli_run_writes_metrics_and_export(tmp_path, capsys):
    scn_path = write_scenario(tmp_path, dict(COUNT_SCN, intvl=1))
    metrics = tmp_path / "m.csv"
    export = tmp_path / "listing.csv"
    rc = main(["run", "-s", scn_path, "--metrics", str(metrics), "--export", str(export)])
    assert rc == 0
    assert "pair_count:" in capsys.readouterr().out
    with open(metrics, newline="") as fh:
        assert next(csv.reader(fh)) == list(METRIC_COLUMNS)
    with open(export, newline="") as fh:
        listing = list(csv.reader(fh))
    assert listing[0] == ["payload"]
    assert listing[1] == ["6"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--batch-size", "0"], "argument --batch-size: 0 is below 1"),
        (["--intvl", "-1"], "argument --intvl: -1 is below 0"),
        (["--intvl", "often"], "argument --intvl: invalid count value: 'often'"),
    ],
)
def test_cli_run_refuses_bad_overrides_before_the_replay(capsys, monkeypatch, flags, message):
    def no_run(*args, **kwargs):
        raise AssertionError("the scenario was replayed")

    monkeypatch.setattr("fivm.harness.cli.run_scenario", no_run)
    with pytest.raises(SystemExit) as raised:
        main(["run", "-s", str(bundled_scenarios()["count_chain"]), *flags])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"fivm run: error: {message}"


EXPORT_HEADERS = {
    "count_chain": ["payload"],
    "covariance_mi": ["from", "to", "score"],
    "covariance_regression": ["coefficient", "value"],
    "covariance_star": ["", "X", "Y", "Z", "W"],
    "listing_factorized": ["A", "B", "C", "D", "payload"],
    "mcm_chain": ["X1", "X4", "payload"],
    "qhier_pairs": ["A", "B", "C", "payload"],
    "triangle_count": ["payload"],
    "triangle_retract": ["payload"],
    "stats_mi": ["", "X", "Y"],
    "stats_covariance": ["", "X", "Y"],
}


def test_cli_run_exports_every_bundled_scenario(tmp_path, capsys):
    """Each app's exporter and the listing export write their header; the
    bundled scenarios cover the listings, Chow-Liu and regression, and two
    small statistics scenarios the mutual information and covariance."""
    cat = {"X": "categorical", "Y": "categorical"}
    paths = {
        **{name: str(path) for name, path in bundled_scenarios().items()},
        "stats_mi": write_scenario(tmp_path, dict(stats_doc(kind="mi"), kinds=cat), "mi.json"),
        "stats_covariance": write_scenario(tmp_path, stats_doc(kind="covariance"), "cov.json"),
    }
    assert set(paths) == set(EXPORT_HEADERS)
    for name, path in paths.items():
        out = tmp_path / f"{name}.csv"
        assert main(["run", "-s", path, "--export", str(out)]) == 0, name
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == EXPORT_HEADERS[name], name
        assert len(rows) > 1, name


def test_cli_enumerate_exports_the_listing(tmp_path, capsys):
    out = tmp_path / "listing.csv"
    rc = main(["enumerate", "-s", str(bundled_scenarios()["qhier_pairs"]), "--export", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"qhier_pairs: 200 rows -> {out}\n"
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["A", "B", "C", "payload"]
    assert len(rows) == 201


@pytest.mark.parametrize(
    "name", ["count_chain", "qhier_pairs", "triangle_count", "listing_factorized"]
)
def test_cli_listing_exports_match_the_golden_files(tmp_path, capsys, name):
    """``run --export`` and ``enumerate --export`` of an exact-ring scenario
    both write, byte for byte, ``data/listing_<name>.csv``. Real-valued
    exports are not pinned: libm and BLAS may differ in the last digit
    between hosts."""
    path = str(bundled_scenarios()[name])
    golden = (GOLDEN / f"listing_{name}.csv").read_bytes()
    for command in ("run", "enumerate"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "-s", path, "--export", str(out)]) == 0, command
        assert out.read_bytes() == golden, command


def chain_doc(row):
    """The bundled matrix chain with ``row`` appended to A1."""
    doc = json.loads(bundled_scenarios()["mcm_chain"].read_text())
    doc["relations"][0]["rows"].append(row)
    return doc


def count_doc(row, **overrides):
    """The count scenario with ``row`` appended to R."""
    r, s = COUNT_SCN["relations"]
    r = dict(r, rows=r["rows"] + [row])
    return dict(COUNT_SCN, relations=[r, s], **overrides)


IDENTITY_A = {"A": "identity", "B": "one", "C": "one"}


@pytest.mark.parametrize(
    "doc, message",
    [
        (stats_doc(kind="regression", label="Y", features=["X"], step_size=-1),
         "step size must be positive"),
        (stats_doc(kind="regression", label="Y", features=["X"], max_iteration=5),
         r"unknown keys for a regression app: \['max_iteration'\]; it takes \[.*'max_iterations'"),
        (dict(COUNT_SCN, ring={"kind": "integer", "zero_tolerance": 0.5}),
         "integer ring is exact"),
        (dict(COUNT_SCN, ring={"kind": "real", "zero_tolerence": 1e-9}),
         r"unknown keys for a real ring: \['zero_tolerence'\]"),
        (dict(COUNT_SCN, lifts={"A": "one"}), "no lifting function for aggregated variable"),
        (dict(COUNT_SCN, shuffle="false"), "shuffle must be true or false, not 'false'"),
        (stats_doc(kind="regression", label="Y", features=["X"], warm_start="false"),
         "warm_start must be true or false, not 'false'"),
        (chain_doc([0, 4, 1.0]), r"A1 row \(0, 4\): X2=4 is outside \[0, 4\)"),
        (chain_doc([-1, 0, 1.0]), r"A1 row \(-1, 0\): X1=-1 is outside \[0, 4\)"),
        # rows the engine's lift refuses, streamed or static
        (count_doc(["x", 1], lifts=IDENTITY_A),
         r"R row \('x', 1\): identity lift of non-numeric value 'x'"),
        (count_doc(["x", 1], lifts=IDENTITY_A, updatable=["S"]),
         r"R row \('x', 1\): identity lift of non-numeric value 'x'"),
        (count_doc([1, [2]]), r"R row 4: B=\[2\] is not a JSON scalar"),
        # integers and lists of the wrong JSON type are refused, not coerced
        (dict(COUNT_SCN, batch_size=2.5), "batch_size must be an integer, not 2.5"),
        (dict(COUNT_SCN, intvl=True), "intvl must be an integer, not True"),
        (dict(COUNT_SCN, seed="7"), "seed must be an integer, not '7'"),
        (dict(COUNT_SCN, free="A"), "free must be a list, not 'A'"),
        (dict(COUNT_SCN, updatable="R"), "updatable must be a list, not 'R'"),
        (dict(COUNT_SCN, relations=[dict(COUNT_SCN["relations"][0], schema="AB"),
                                    COUNT_SCN["relations"][1]]),
         "R schema must be a list, not 'AB'"),
        (count_doc("a9"), "R row 4: 'a9' is not a list"),
        (count_doc(5), "R row 4: 5 is not a list"),
        (dict(COUNT_SCN, relations=[dict(COUNT_SCN["relations"][0], rows="ab"),
                                    COUNT_SCN["relations"][1]]),
         "R rows must be a list, not 'ab'"),
        (dict(COUNT_SCN, relations=[5]), "a relation must be a JSON object, not 5"),
        (dict(chain_doc([0, 0, 1.0]), chain=[4, 4.5, 4.9, 4]),
         r"chain must list integers, not \[4, 4.5, 4.9, 4\]"),
        (dict(COUNT_SCN, fds=[["AB", "B"]]),
         r"fds entry 0 must be two lists of names, not \['AB', 'B'\]"),
        (dict(COUNT_SCN, fds=[[["A"], [1]]]),
         r"fds entry 0 must be two lists of names, not \[\['A'\], \[1\]\]"),
        (dict(COUNT_SCN, fds=[[["A"], ["B"], ["C"]]]), "fds entry 0 must be two lists"),
        (dict(COUNT_SCN, fds="AB"), "fds must be a list, not 'AB'"),
        (dict(COUNT_SCN, ring={"kind": "real", "zero_tolerance": "1e-9"}),
         "ring zero_tolerance must be a number, not '1e-9'"),
        (dict(COUNT_SCN, ring={"kind": "real", "zero_tolerance": True}),
         "ring zero_tolerance must be a number, not True"),
        (dict(stats_doc(), kinds={"X": {"binned": {"lo": "0", "hi": 10}}, "Y": "continuous"}),
         "binned lo must be a number, not '0'"),
        (dict(stats_doc(), kinds={"X": {"binned": {"lo": 0, "hi": True}}, "Y": "continuous"}),
         "binned hi must be a number, not True"),
        (dict(stats_doc(), kinds={"X": {"binned": {"lo": 0}}, "Y": "continuous"}),
         "binned hi must be a number, not None"),
        (dict(stats_doc(), kinds={"X": {"binned": {"lo": 0, "hi": 10, "bins": 2.5}},
                                  "Y": "continuous"}),
         "binned bins must be an integer, not 2.5"),
        (dict(stats_doc(), kinds={"X": {"binned": {"lo": 0, "hi": 10, "bins": True}},
                                  "Y": "continuous"}),
         "binned bins must be an integer, not True"),
        (dict(stats_doc(), app="regression"), "app must be a JSON object, not 'regression'"),
        (dict(stats_doc(), kinds={"X": {"binned": {"lo": 0, "hi": 2, "bin": 3}},
                                  "Y": "continuous"}),
         r"unknown keys for a binned kind: \['bin'\]"),
        # a setting the query would never read is refused, not dropped
        (dict(stats_doc(), lifts={"X": "one"}), "a statistics scenario cannot also declare lifts"),
        (dict(chain_doc([0, 0, 1.0]), lifts={"X2": "identity"}),
         "a chain scenario cannot also declare lifts"),
        # settings of the wrong JSON shape name their key, not a Python error
        (dict(COUNT_SCN, order=[]),
         r'order must be a non-empty nested list or "canonical", not \[\]'),
        (dict(COUNT_SCN, order=[[]]), r"order: bad variable order node: \[\]"),
        (dict(COUNT_SCN, order={}), r"order must be a non-empty nested list .*, not \{\}"),
        (dict(COUNT_SCN, order=5), "order must be a non-empty nested list .*, not 5"),
        (dict(COUNT_SCN, ring="integer"), "ring must be a JSON object, not 'integer'"),
        (dict(COUNT_SCN, lifts=[1]), r"lifts must be a JSON object, not \[1\]"),
        (dict(COUNT_SCN, lifts="one"), "lifts must be a JSON object, not 'one'"),
        (dict(stats_doc(), kinds=["X"]), r"kinds must be a JSON object, not \['X'\]"),
        (dict(COUNT_SCN, free=[["A"]]), r"free must list names, not \[\['A'\]\]"),
        (dict(COUNT_SCN, updatable=[["R"]]), r"updatable must list names, not \[\['R'\]\]"),
        (dict(COUNT_SCN, lifts={"A": ["one"], "B": "one", "C": "one"}),
         r"unknown lift \['one'\] for A"),
        (dict(COUNT_SCN, relations=[dict(COUNT_SCN["relations"][0], schema=[["A"], "B"]),
                                    COUNT_SCN["relations"][1]]),
         r"R schema must list names, not \[\['A'\], 'B'\]"),
        (dict(COUNT_SCN, relations=[dict(COUNT_SCN["relations"][0], name=["R"]),
                                    COUNT_SCN["relations"][1]]),
         r"a relation name must be a string, not \['R'\]"),
        # a setting that would be dropped or fail only once the data moves
        (dict(COUNT_SCN, fds=[[["A"], ["B"]]]), 'fds apply only to a "canonical" order'),
        (dict(COUNT_SCN, free_lift_mode="relational_payload"),
         "relational_payload needs a relational ring, not integer"),
        # a chain fixes its ring, order and free variables, a statistics
        # triple its ring and free variables: the settings are refused
        (dict(chain_doc([0, 0, 1.0]), ring={"kind": "integer"}),
         "a chain scenario does not read 'ring'"),
        (dict(chain_doc([0, 0, 1.0]), order=[["X9"]]), "a chain scenario does not read 'order'"),
        (dict(chain_doc([0, 0, 1.0]), free=["X2"]), "a chain scenario does not read 'free'"),
        (dict(chain_doc([0, 0, 1.0]), free_lift_mode="relational_payload"),
         "a chain scenario does not read 'free_lift_mode'"),
        (dict(stats_doc(), ring={"kind": "relational"}),
         "a statistics scenario does not read 'ring'"),
        (dict(stats_doc(), free=["X"]), "a statistics scenario does not read 'free'"),
        (dict(stats_doc(), free_lift_mode="relational_payload"),
         "a statistics scenario does not read 'free_lift_mode'"),
    ],
)
def test_cli_refuses_bad_settings_before_the_replay(tmp_path, capsys, monkeypatch, doc, message):
    def no_run(*args, **kwargs):
        raise AssertionError("the scenario was replayed")

    monkeypatch.setattr("fivm.harness.cli.run_scenario", no_run)
    monkeypatch.setattr("fivm.harness.cli.verify_scenarios", no_run)
    path = write_scenario(tmp_path, doc)
    for command in ("compile", "run", "enumerate", "verify"):
        assert main([command, "-s", path]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and re.search(message, line), line


@pytest.mark.parametrize("engine", ["first_order", "reevaluate"])
def test_cli_run_listing_export_needs_the_fivm_engine(tmp_path, capsys, engine):
    export = tmp_path / "x.csv"
    scn_path = str(bundled_scenarios()["count_chain"])
    rc = main(["run", "-s", scn_path, "--engine", engine, "--export", str(export)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before any batch ran
    assert captured.err.startswith("error: --export without an app")
    assert len(captured.err.splitlines()) == 1
    assert not export.exists()


def test_cli_enumerate_refuses_a_listing_without_csv_form_before_the_run(
    monkeypatch, capsys
):
    def no_run(*args, **kwargs):
        raise AssertionError("the scenario was replayed")

    monkeypatch.setattr("fivm.harness.cli.run_scenario", no_run)
    rc = main(["enumerate", "-s", str(bundled_scenarios()["covariance_mi"])])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: covariance_mi: triples over grouped scalars have no flat CSV form"
    ]


def test_cli_enumerate_refuses_a_negative_limit(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the scenario was replayed")

    monkeypatch.setattr("fivm.harness.cli.run_scenario", no_run)
    with pytest.raises(SystemExit) as raised:
        main(["enumerate", "-s", str(bundled_scenarios()["count_chain"]), "--limit", "-1"])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "fivm enumerate: error: argument --limit: -1 is below 0"


def test_cli_enumerate_dumps_rows(tmp_path, capsys):
    paths = bundled_scenarios()
    rc = main(["enumerate", "-s", str(paths["listing_factorized"]), "--limit", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert len(out.strip().splitlines()) == 4  # header plus the limit
    # a root-scanned listing honours the limit the same way, even at zero
    rc = main(["enumerate", "-s", str(paths["count_chain"]), "--limit", "0"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["payload"]


def test_cli_enumerate_quotes_rows_like_the_export(tmp_path, capsys):
    """stdout is the exported CSV with bare newlines: a key holding a comma
    or a quote is quoted, not split into extra columns."""
    doc = {
        "name": "quoted",
        "relations": [{"name": "R", "schema": ["A", "B"], "rows": [["x,y", 1], ['say "hi"', 2]]}],
        "free": ["A"],
        "order": [["A", ["B"]]],
        "lifts": {"B": "one"},
    }
    path = write_scenario(tmp_path, doc)
    assert main(["enumerate", "-s", path]) == 0
    out = capsys.readouterr().out
    assert sorted(out.splitlines()) == sorted(['A,payload', '"x,y",1', '"say ""hi""",1'])
    export = tmp_path / "listing.csv"
    assert main(["enumerate", "-s", path, "--export", str(export)]) == 0
    assert export.read_bytes().replace(b"\r\n", b"\n").decode() == out


def test_cli_verify_reports_ok(tmp_path, capsys):
    paths = bundled_scenarios()
    rc = main([
        "verify",
        "-s", str(paths["count_chain"]),
        "-s", str(paths["qhier_pairs"]),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "count_chain: ok" in out
    assert "qhier_pairs: ok" in out


def test_cli_verify_failure_exits_one(tmp_path, capsys, monkeypatch):
    import fivm.harness.cli as cli

    monkeypatch.setattr(cli, "verify_scenarios", lambda c: (False, ["boom"], []))
    rc = main(["verify", "-s", str(bundled_scenarios()["count_chain"])])
    assert rc == 1


def test_cli_verify_status_matches_scenario_names_exactly(tmp_path, capsys, monkeypatch):
    real = FirstOrderEngine.root_snapshot

    def skewed(self):
        snap = real(self)
        if self.compiled.scenario.name == "count_chain":
            snap[(99,)] = 1
        return snap

    monkeypatch.setattr(FirstOrderEngine, "root_snapshot", skewed)
    short = write_scenario(tmp_path, dict(COUNT_SCN, name="count"), name="a.json")
    long = write_scenario(tmp_path, dict(COUNT_SCN, name="count_chain"), name="b.json")
    rc = main(["verify", "-s", short, "-s", long])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == ["count: ok", "count_chain: FAIL"]


def test_cli_errors_exit_two(tmp_path, capsys):
    assert main(["compile", "-s", str(tmp_path / "missing.json")]) == 2
    bad = write_scenario(tmp_path, {"relations": []}, name="bad.json")
    assert main(["compile", "-s", bad]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
