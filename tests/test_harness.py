"""Scenario files, synthesized streams, engine races, and the CLI."""

from __future__ import annotations

import csv
import json
import re
from collections import Counter

import pytest

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
    load_relation_csv,
    load_scenario,
    scenario_from_dict,
)
from fivm.harness.streams import StreamEvent, synthesize_stream
from fivm.rings import integer_ring, real_ring, relational_ring

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
    assert parsed.shuffle and not parsed.sorted_updates
    assert parsed.ring_doc == {"kind": "integer"}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"typo_key": 1}, "unknown scenario keys"),
        ({"relations": []}, "at least one relation"),
        ({"batch_size": 0}, "batch_size"),
        ({"intvl": -1}, "intvl"),
        ({"updatable": ["Q"]}, "updatable names not declared"),
        ({"mode": "sideways"}, "unknown tree mode"),
        ({"free_lift_mode": "flat"}, "unknown free_lift_mode"),
        ({"app": {"kind": "forecast"}}, "unknown app kind"),
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
    with pytest.raises(ScenarioError, match="numeric ring"):
        spec.events(relational_ring())


def test_signed_rows_carry_deletes():
    spec = RelationSpec("R", ("A",), ((1, 1), (1, -1)), signed=True)
    signs = [e.sign for e in spec.events(integer_ring())]
    assert signs == [1, -1]
    bad = RelationSpec("R", ("A",), ((1, 2),), signed=True)
    with pytest.raises(ScenarioError, match="sign must be"):
        bad.events(integer_ring())


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
    assert len(compiled.plan().nodes) > 0


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


def test_orders_must_place_every_variable():
    with pytest.raises(ScenarioError, match="does not place"):
        compile_scenario(scn(order=[["B", ["A"]]]))
    with pytest.raises(ScenarioError, match="needs an 'order'"):
        compile_scenario(scn(order=None))


def test_output_mode_needs_free_on_top():
    with pytest.raises(ScenarioError, match="free variables on top"):
        compile_scenario(
            scn(free=["A", "C"], mode="nu", free_lift_mode="relational_payload",
                ring={"kind": "relational"}, lifts={"B": "unit"})
        )


def test_unknown_lift_and_ring_names():
    with pytest.raises(ScenarioError, match="unknown lift"):
        compile_scenario(scn(lifts={"A": "double"}))
    with pytest.raises(ScenarioError, match="unknown ring kind"):
        compile_scenario(scn(ring={"kind": "quaternion"}))
    with pytest.raises(ScenarioError, match="unknown relational base"):
        compile_scenario(scn(ring={"kind": "relational", "base": "covariance"}))


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
    ],
)
def test_app_checks(doc, message):
    parsed = scenario_from_dict(doc)
    if message is None:
        compile_scenario(parsed)
    else:
        with pytest.raises(ScenarioError, match=message):
            compile_scenario(parsed)


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
# CSV relations


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_csv_relations_parse_and_accumulate(tmp_path):
    path = tmp_path / "edges.csv"
    write_csv(path, [["A", "B"], ["1", "x"], ["2", "y"], ["1", "x"]])
    rel = load_relation_csv(path, ("A", "B"), integer_ring())
    assert dict(rel.entries) == {(1, "x"): 2, (2, "y"): 1}
    assert rel.name == "edges"


def test_csv_payload_column(tmp_path):
    path = tmp_path / "w.csv"
    write_csv(path, [["A", "w"], ["1", "1.5"], ["1", "2.5"]])
    rel = load_relation_csv(path, ("A",), real_ring(), payload_column="w")
    assert dict(rel.entries) == {(1,): 4.0}


@pytest.mark.parametrize(
    "rows, fragment",
    [
        ([], ":1: empty file"),
        ([["A", "C"]], ":1: header"),
        ([["A", "B"], ["1"]], ":2: 1 fields"),
    ],
)
def test_csv_failures_name_the_line(tmp_path, rows, fragment):
    path = tmp_path / "bad.csv"
    write_csv(path, rows)
    with pytest.raises(ValueError, match=fragment.replace("[", "\\[")):
        load_relation_csv(path, ("A", "B"), integer_ring())


def test_csv_bad_payload_names_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, [["A", "w"], ["1", "much"]])
    with pytest.raises(ValueError, match=":2: bad payload"):
        load_relation_csv(path, ("A",), integer_ring(), payload_column="w")


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


def test_sorted_updates_replay_in_key_order():
    per = [("R", events("R", [3, 1, 2]))]
    batches = synthesize_stream(per, batch_size=10, sorted_updates=True)
    assert [e.key[0] for e in batches[0]] == [1, 2, 3]


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
    compiled = compile_scenario(scn())
    silent = run_scenario(compiled, engine_name="fivm", intvl=0)
    assert all(r[8] == 0 for r in silent.rows)
    compiled = compile_scenario(scn())
    chatty = run_scenario(compiled, engine_name="fivm", intvl=1)
    assert chatty.rows[-1][8] == 1  # one empty-key group once data arrives


def test_regression_app_reports_through_the_run():
    doc = stats_doc(kind="regression", label="Y", features=["X"], step_size=0.05)
    report = run_scenario(scenario_from_dict(doc), engine_name="fivm")
    result = report.app_results["regression"]
    assert result.converged
    assert result.theta["intercept"] == pytest.approx(1.0, abs=1e-6)
    assert result.theta["X"] == pytest.approx(2.0, abs=1e-6)


def test_every_bundled_scenario_verifies():
    paths = bundled_scenarios()
    assert len(paths) >= 7
    compiled = [compile_scenario(load_scenario(p)) for p in paths.values()]
    ok, problems, rows = verify_scenarios(compiled)
    assert ok, problems
    assert problems == []
    seen = {(r[0], r[1]) for r in rows}
    assert len(seen) == len(paths) * len(ENGINE_NAMES)


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


def test_verify_rows_match_run_rows():
    elapsed = METRIC_COLUMNS.index("elapsed_ns")

    def untimed(rows):
        return [r[:elapsed] + r[elapsed + 1:] for r in rows]

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
    ok, problems, _ = verify_scenarios([scn(free=["B"], intvl=1)])
    assert not ok
    found = re.search(
        rf"reevaluate {what} diverges from fivm at key \(2,\): "
        r"fivm (\d+), reevaluate (\d+)",
        problems[0],
    )
    assert found, problems[0]
    assert int(found[2]) == int(found[1]) + 100


def test_metric_rows_are_stable_across_reruns():
    path = bundled_scenarios()["count_chain"]

    def one_run():
        report = run_scenario(
            compile_scenario(load_scenario(path)), engine_name="fivm", intvl=2
        )
        return [r[:7] + r[8:] for r in report.rows]  # drop elapsed_ns

    assert one_run() == one_run()


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
