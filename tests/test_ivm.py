"""Incremental maintenance: delta propagation, batches, self joins,
factorized updates, and indicator upkeep."""

from __future__ import annotations

import cProfile
import math
import operator
import pstats
import random
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fivm.ivm
import fivm.relations
import fivm.rings
import oracles
from fivm.apps import build_matrix_chain
from fivm.enumeration import compiled_walk, enumerate_result
from fivm.harness import bundled_scenarios, compile_scenario, load_scenario
from fivm.ivm import (
    FactorizedDelta,
    RuntimeState,
    UpdateDelta,
    factorized_steps,
    optimize_factorized,
    recompute_query,
)
from fivm.queries import Query, VariableOrder
from fivm.relations import (
    DenseRelation,
    OpCounters,
    Relation,
    from_pairs,
    plan_sum,
    rel_join,
    rel_marginalize,
)
from fivm.rings import (
    COVARIANCE,
    REAL,
    CovarianceTriple,
    RingSpec,
    covariance_ring,
    integer_ring,
    lift_continuous,
    lift_identity,
    lift_to_one,
    real_ring,
    ring_one,
)
from fivm.viewtree import plan_view_tree

Z = integer_ring()

CHAIN_RELS = [("R", ("A", "B")), ("S", ("A", "C", "E")), ("T", ("C", "D"))]
CHAIN_ORDER = VariableOrder([["A", ["B"], ["C", ["D"], ["E"]]]])

COUNT_DB = {
    "R": [(k, 1) for k in [("a1", "b1"), ("a1", "b2"), ("a2", "b3"), ("a3", "b4")]],
    "S": [
        (k, 1)
        for k in [
            ("a1", "c1", "e1"),
            ("a1", "c1", "e2"),
            ("a1", "c2", "e3"),
            ("a2", "c2", "e4"),
        ]
    ],
    "T": [(k, 1) for k in [("c1", "d1"), ("c2", "d2"), ("c2", "d3"), ("c3", "d4")]],
}


def counted_relation(schema, ring, pairs, counters):
    """A relation of ``pairs`` that counts on ``counters``."""
    rel = Relation(schema, ring, counters)
    rel.accumulate_all(pairs)
    return rel


def chain_state(updatable=("R", "S", "T")):
    query = Query(CHAIN_RELS, (), Z, lifts=tuple(lift_to_one(v) for v in "ABCDE"))
    tree = plan_view_tree(query, CHAIN_ORDER, updatable=updatable)
    state = RuntimeState(tree)
    state.load(COUNT_DB)
    return state


def view_entries(state, view_id):
    return dict(state.views[view_id].entries)


def assert_views_match_fresh(state):
    """Every stored view must equal the one a from-scratch build produces."""
    fresh = RuntimeState(state.tree)
    data = {}
    for d in state.query.relations:
        if d.name not in data:
            data[d.name] = list(state.leaves[d.leaf_id].entries.items())
    fresh.load(data)
    for vid, rel in state.views.items():
        assert rel.entries == fresh.views[vid].entries, vid
    for iid, rel in state.indicator_rels.items():
        assert rel.entries == fresh.indicator_rels[iid].entries, iid


# ---------------------------------------------------------------------------
# the worked four-tuple database


def test_initial_views_of_the_count_database():
    state = chain_state()
    assert dict(state.result().entries) == {(): 10}
    assert view_entries(state, "V@B(R)") == {("a1",): 2, ("a2",): 1, ("a3",): 1}
    assert view_entries(state, "V@D(T)") == {("c1",): 1, ("c2",): 2, ("c3",): 1}
    assert view_entries(state, "V@E(S)") == {
        ("a1", "c1"): 2,
        ("a1", "c2"): 1,
        ("a2", "c2"): 1,
    }
    assert view_entries(state, "V@C(S+T)") == {("a1",): 4, ("a2",): 2}


def test_mixed_batch_delta_trace_through_every_level():
    """One deletion and one triple insertion to T: the change at each level
    of the tree is pinned."""
    state = chain_state()
    before = {vid: dict(rel.entries) for vid, rel in state.views.items()}
    state.apply_batch(
        [UpdateDelta("T", (((("c1", "d1")), -1), ((("c2", "d2")), 3)))]
    )

    def diff(view_id):
        after = view_entries(state, view_id)
        keys = set(before[view_id]) | set(after)
        return {
            k: after.get(k, 0) - before[view_id].get(k, 0)
            for k in keys
            if after.get(k, 0) != before[view_id].get(k, 0)
        }

    assert diff("V@D(T)") == {("c1",): -1, ("c2",): 3}
    assert diff("V@C(S+T)") == {("a1",): 1, ("a2",): 3}
    assert diff("V@A(R+S+T)") == {(): 5}
    assert dict(state.result().entries) == {(): 15}
    assert_views_match_fresh(state)


def test_deleting_everything_empties_every_view():
    state = chain_state()
    for name, rows in COUNT_DB.items():
        state.apply_batch([UpdateDelta(name, tuple((k, -v) for k, v in rows))])
    assert state.result().entries == {}
    for rel in state.views.values():
        assert rel.entries == {}
    for d in state.query.relations:
        assert state.leaves[d.leaf_id].entries == {}


def test_unstored_views_are_skipped_but_result_stays_right():
    state = chain_state(updatable=("T",))
    assert "V@C(S+T)" not in state.views
    state.apply_batch([UpdateDelta("T", ((("c3", "d9"), 1),))])
    # c3 has no matching S tuple, so nothing reaches the root
    assert dict(state.result().entries) == {(): 10}
    state.apply_batch([UpdateDelta("T", ((("c2", "d9"), 1),))])
    # the c2 tuple pairs with (a1, c2) twice through R and (a2, c2) once
    assert dict(state.result().entries) == {(): 13}
    assert_views_match_fresh(state)


def test_batch_merges_plain_deltas_before_propagating():
    state = chain_state()
    n = state.apply_batch(
        [
            UpdateDelta("T", ((("c9", "d9"), 1),)),
            UpdateDelta("T", ((("c9", "d9"), -1),)),
        ]
    )
    assert n == 0  # the merged delta is empty, nothing propagates
    assert dict(state.result().entries) == {(): 10}


def test_dict_batches_check_each_relation_once_and_never_scatter(monkeypatch):
    """A dict-stored query merges a relation's point pairs in one checked
    pass per batch, never asking about dense cells or scattering."""
    state = chain_state()
    names = []
    checked = Query.checked

    def counted(self, pairs, name, schema=None):
        names.append(name)
        return checked(self, pairs, name, schema)

    def dense_only(*args):
        raise AssertionError("a dict query took the dense path")

    monkeypatch.setattr(Query, "checked", counted)
    monkeypatch.setattr(Query, "checks_cells", dense_only)
    monkeypatch.setattr(DenseRelation, "scatter", dense_only)
    state.apply_batch(
        [
            UpdateDelta("R", ((("a1", "b9"), 1),)),
            UpdateDelta("T", ((("c1", "d9"), 1), (("c2", "d2"), -1))),
            UpdateDelta("R", ((("a2", "b9"), 1), (("a3", "b4"), -1))),
        ]
    )
    assert names == ["R", "T"]
    assert dict(state.result().entries) == dict(state.recompute_oracle().entries)
    assert_views_match_fresh(state)


def test_update_for_unknown_relation_rejected():
    state = chain_state()
    with pytest.raises(ValueError):
        state.apply_batch([UpdateDelta("X", ((("k",), 1),))])


def snapshot(state):
    """Entries of every leaf, stored view and indicator relation."""
    return [
        {name: dict(rel.entries) for name, rel in group.items()}
        for group in (state.leaves, state.views, state.indicator_rels)
    ]


@pytest.mark.parametrize(
    "bad",
    [
        UpdateDelta("X", ((("k",), 1),)),
        UpdateDelta("T", ((("c1", "d1", "x"), 1),)),
        UpdateDelta("T", ((("c1",), 1),)),
    ],
    ids=["unknown-relation", "long-key", "short-key"],
)
def test_rejected_batch_changes_nothing(bad):
    # The valid insert comes first, so a batch that validated lazily
    # would already have pushed it into every view before failing.
    state = chain_state()
    before = snapshot(state)
    with pytest.raises(ValueError):
        state.apply_batch([UpdateDelta("R", ((("a1", "b9"), 1),)), bad])
    assert snapshot(state) == before
    assert dict(state.result().entries) == {(): 10}


def test_batch_with_uncovering_factors_changes_nothing():
    state = chain_state()
    before = snapshot(state)
    u = from_pairs(("C",), Z, [(("c1",), 1)])
    with pytest.raises(ValueError):
        state.apply_batch(
            [UpdateDelta("R", ((("a1", "b9"), 1),)), FactorizedDelta("T", (u,))]
        )
    assert snapshot(state) == before


def test_update_to_relation_outside_the_plan_changes_nothing():
    # Only R is maintained, so nothing is stored for a T delta to join
    # against; the R delta ahead of it must not go in either.
    state = chain_state(updatable=("R",))
    before = snapshot(state)
    with pytest.raises(ValueError, match="not updatable"):
        state.apply_batch(
            [UpdateDelta("R", ((("a1", "b9"), 1),)), UpdateDelta("T", ((("c1", "d9"), 1),))]
        )
    assert snapshot(state) == before
    assert dict(state.result().entries) == {(): 10}


def loaded_two_path_state():
    state = two_path_state()
    state.load({"R": [((1, 2), 1), ((2, 3), 1), ((1, 3), 1)]})
    return state


# (state maker, relation, pairs); a pair's key may come again
MERGE_CASES = {
    "chain": (
        chain_state,
        "S",
        [
            (("a1", "c1", "e9"), 1),
            (("a2", "c2", "e4"), -1),
            (("a1", "c1", "e9"), 2),
            (("a3", "c3", "e1"), 1),
        ],
    ),
    "self-join": (
        loaded_two_path_state, "R", [((3, 1), 1), ((2, 3), -1), ((3, 1), 1), ((1, 1), 1)]
    ),
    "cancelling": (
        chain_state,
        "T",
        [(("c9", "d9"), 1), (("c1", "d1"), -1), (("c9", "d9"), -1), (("c1", "d1"), 1)],
    ),
}


@pytest.mark.parametrize("case", MERGE_CASES)
def test_one_pair_deltas_merge_into_one_delta(case):
    """A batch of k one-pair ``UpdateDelta``s to one relation is merged
    before anything climbs: it leaves every leaf (each self-join
    occurrence too), view and root, and returns and charges, what one
    ``UpdateDelta`` carrying the k pairs does. Pairs that cancel inside the
    batch change nothing, return 0 and charge the merge alone."""
    make, name, pairs = MERGE_CASES[case]
    outcomes = []
    for batch in ([UpdateDelta(name, (p,)) for p in pairs], [UpdateDelta(name, tuple(pairs))]):
        state = make()
        start = snapshot(state)
        before = state.counters.snapshot()
        n = state.apply_batch(batch)
        units = [a - b for a, b in zip(state.counters.snapshot(), before)]
        outcomes.append((n, units, snapshot(state), dict(state.result().entries)))
        assert dict(state.result().entries) == dict(state.recompute_oracle().entries)
        assert_views_match_fresh(state)
        occurrences = state.query.occurrences[name]
        for occ in occurrences[1:]:
            assert state.leaves[occ.leaf_id].entries == state.leaves[occurrences[0].leaf_id].entries
    assert outcomes[0] == outcomes[1]
    if case == "cancelling":
        merged = counted_relation(state.query.occurrences[name][0].schema, Z, pairs, OpCounters())
        assert not merged.entries
        assert outcomes[0][0] == 0
        assert outcomes[0][1] == list(merged.counters.snapshot())
        assert outcomes[0][2] == start


@pytest.mark.parametrize("case", ["chain", "self-join"])
def test_a_one_pair_update_on_a_dict_plan_builds_no_relation(case, monkeypatch):
    """A one-pair ``UpdateDelta`` to a dict-stored relation is checked and
    merged into one plain dict, which each occurrence's generated climb
    takes as it is, a self join's later occurrence too: once the paths are
    compiled, no ``Relation`` is made between the row check and the climb.
    The views and the root equal a recompute."""
    make, name, pairs = MERGE_CASES[case]
    state = make()
    state.apply_batch([UpdateDelta(name, (pairs[0],))])  # compiles the paths
    made = []
    init = Relation.__init__

    def counted(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Relation, "__init__", counted)
    for pair in pairs[1:]:
        state.apply_batch([UpdateDelta(name, (pair,))])
    monkeypatch.undo()
    assert made == []
    assert dict(state.result().entries) == dict(state.recompute_oracle().entries)
    assert_views_match_fresh(state)


def test_update_keys_land_as_loaded_keys():
    """Update keys are normalised as ``load`` normalises them: list keys
    land under the tuple keys, and on a query with declared ranges so do
    numpy integers. A bad row later in such a batch is still refused
    before any state changes."""
    pairs = [(("a1", "b9"), 1), (("a2", "b3"), -1)]
    tupled, listed = chain_state(), chain_state()
    tupled.apply_batch([UpdateDelta("R", tuple(pairs))])
    listed.apply_batch([UpdateDelta("R", tuple((list(k), v) for k, v in pairs))])
    assert snapshot(listed) == snapshot(tupled)
    assert all(type(k) is tuple for k in listed.leaves["R"].entries)
    loaded = RuntimeState(listed.tree)
    loaded.load({n: [(list(k), v) for k, v in rows] for n, rows in COUNT_DB.items()})
    assert snapshot(loaded) == snapshot(chain_state())
    before = snapshot(listed)
    with pytest.raises(ValueError, match="does not match"):
        listed.apply_batch([UpdateDelta("R", ((["a3", "b9"], 1), (["a3"], 1)))])
    assert snapshot(listed) == before

    mc = build_matrix_chain((3, 4, 2))
    data = {"A1": [((0, 1), 2.0), ((1, 2), 1.0)], "A2": [((1, 0), 3.0), ((2, 1), -1.0)]}
    states = []
    for form in (tuple, list, lambda k: tuple(np.int64(x) for x in k)):
        state = RuntimeState(plan_view_tree(mc.query, mc.order, updatable=("A1", "A2")))
        state.load({n: [(form(k), v) for k, v in rows] for n, rows in data.items()})
        state.apply_batch([UpdateDelta("A1", ((form((2, 3)), 4.0), (form((0, 1)), -2.0)))])
        assert all(type(k) is tuple for k in state.leaves["A1"].entries)
        states.append(snapshot(state))
        before = snapshot(state)
        with pytest.raises(ValueError, match="outside"):
            state.apply_batch(
                [
                    UpdateDelta("A1", ((form((1, 1)), 1.0),)),
                    UpdateDelta("A1", ((form((3, 0)), 1.0),)),
                ]
            )
        assert snapshot(state) == before
    assert states[1] == states[0] and states[2] == states[0]


def lifted_chain_state():
    """The count chain with A lifted by its value; S holds an "x" row that
    meets no R row, so no join has lifted it."""
    query = Query(
        CHAIN_RELS, (), Z, lifts=(lift_identity("A"),) + tuple(lift_to_one(v) for v in "BCDE")
    )
    state = RuntimeState(plan_view_tree(query, CHAIN_ORDER, updatable=("R", "S", "T")))
    state.load(
        {
            "R": [((1, "b1"), 1)],
            "S": [((1, "c1", "e1"), 1), (("x", "c1", "e2"), 1)],
            "T": [(("c1", "d1"), 1)],
        }
    )
    return state


def test_update_that_fails_partway_up_changes_nothing():
    # A is lifted by its value, so the root raises on the non-numeric "x"
    # that the R delta carries up to it; S already holds an "x" row, which
    # never met R before. The level below the root has computed its delta
    # by then, and none of it may be stored.
    query = Query(
        CHAIN_RELS, (), Z, lifts=(lift_identity("A"),) + tuple(lift_to_one(v) for v in "BCDE")
    )
    state = RuntimeState(plan_view_tree(query, CHAIN_ORDER, updatable=("R", "S", "T")))
    state.load(
        {
            "R": [((1, "b1"), 1)],
            "S": [((1, "c1", "e1"), 1), (("x", "c1", "e2"), 1)],
            "T": [(("c1", "d1"), 1)],
        }
    )
    assert [step.node.id for step in state.tree.delta_paths["R"]] == ["V@B(R)", "V@A(R+S+T)"]
    before = snapshot(state)
    with pytest.raises(ValueError, match="identity lift"):
        state.apply_batch([UpdateDelta("R", ((("x", 10), 1),))])
    assert snapshot(state) == before
    assert dict(state.result().entries) == {(): 1}
    assert_views_match_fresh(state)


class FailingProduct(int):
    """A count the entry check accepts whose products raise: the ring's
    ``mul`` fails on it at the first join it reaches."""

    def __mul__(self, other):
        raise RuntimeError("root level failed")

    __rmul__ = __mul__


def test_a_level_that_fails_partway_up_stores_no_level():
    # Entering values are checked, so no lift fails on the way up any more;
    # a failure there must still leave every level as it was. R's first
    # level only sums B out, so the delta reaches the root, whose join
    # multiplies it.
    state = chain_state()
    before = snapshot(state)
    assert [step.joins for step in state.tree.delta_paths["R"]] == [(), (("V@C(S+T)", "primary"),)]
    with pytest.raises(RuntimeError, match="root level failed"):
        state.apply_batch([UpdateDelta("R", ((("a1", "b9"), FailingProduct(1)),))])
    assert snapshot(state) == before


def test_batch_that_fails_in_a_later_relation_changes_nothing():
    # T's insert would reach the root and count one more row; R's "x"
    # would then fail at the root's lift. The batch applies fully or not
    # at all, so T's insert must not stay.
    state = lifted_chain_state()
    before = snapshot(state)
    with pytest.raises(ValueError, match="identity lift"):
        state.apply_batch(
            [UpdateDelta("T", ((("c1", "d2"), 1),)), UpdateDelta("R", ((("x", 10), 1),))]
        )
    assert snapshot(state) == before
    assert dict(state.result().entries) == {(): 1}
    state.apply_batch([UpdateDelta("T", ((("c1", "d2"), 1),))])
    assert dict(state.result().entries) == {(): 2}


def test_a_value_equal_to_one_that_passed_is_still_checked():
    # R was loaded with the int 1; np.int64(1) equals and hashes like it,
    # yet the identity lift refuses it, so it must be refused at entry and
    # not at the root after T's insert has gone up.
    state = lifted_chain_state()
    before = snapshot(state)
    with pytest.raises(ValueError, match="identity lift"):
        state.apply_batch(
            [
                UpdateDelta("T", ((("c1", "d2"), 1),)),
                UpdateDelta("R", (((np.int64(1), "b2"), 1),)),
            ]
        )
    assert snapshot(state) == before
    assert dict(state.result().entries) == {(): 1}


def test_load_that_a_lift_refuses_leaves_the_loaded_state():
    state = lifted_chain_state()
    before = snapshot(state)
    bad = {
        "R": [(("x", "b1"), 1)],
        "S": [(("x", "c1", "e1"), 1)],
        "T": [(("c1", "d1"), 1)],
    }
    with pytest.raises(ValueError, match="identity lift"):
        state.load(bad)
    assert snapshot(state) == before
    assert dict(state.result().entries) == {(): 1}
    assert_views_match_fresh(state)


def test_a_failed_evaluation_stores_nothing(monkeypatch):
    state = chain_state()
    before = snapshot(state)
    calls = []

    def fail_on_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("join failed")
        return rel_marginalize(*args, **kwargs)

    monkeypatch.setattr(fivm.ivm, "rel_marginalize", fail_on_second)
    with pytest.raises(RuntimeError, match="join failed"):
        state.load({"R": [(("a9", "b9"), 1)], "S": COUNT_DB["S"], "T": COUNT_DB["T"]})
    assert snapshot(state) == before


def test_delta_steps_are_resolved_when_planned(monkeypatch):
    state = chain_state()
    for leaf_id in ("R", "S", "T"):
        node = state.tree.leaf_nodes[leaf_id]
        for step in state.tree.delta_paths[node.id]:
            parent = node.parent
            assert step.node is parent
            assert list(step.inner_first) == sorted(
                step.node.marg_vars, key=state.tree.order.index, reverse=True
            )
            for sib_id, idx in step.joins:
                assert idx in ("primary", None) or idx in state.stored(sib_id).indexes
            node = parent
    # T's delta probes the E view through its planned index on C; nothing
    # is looked up or built per update
    calls = []
    monkeypatch.setattr(Relation, "ensure_index", lambda self, *a: calls.append(a))
    for name, key in (("R", ("a1", "b9")), ("S", ("a1", "c9", "e9")), ("T", ("c1", "d9"))):
        state.apply_batch([UpdateDelta(name, ((key, 1),))])
    assert calls == []
    monkeypatch.undo()
    assert dict(state.result().entries) == {(): 20}
    assert_views_match_fresh(state)


def test_one_tuple_updates_build_no_intermediate_relation(monkeypatch):
    """Each level of the delta path is one operator call building one
    relation; apply_batch adds the merged delta and its rebinding."""
    state = chain_state()
    built = []
    init = Relation.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["schema"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Relation, "__init__", counting)
    updates = [
        (name, key, val)
        for name, key in (("R", ("a1", "b9")), ("S", ("a1", "c2", "e9")), ("T", ("c2", "d9")))
        for val in (1, -1)
    ]
    for name, key, val in updates:
        levels = len(state.tree.delta_paths[name])
        built.clear()
        state.apply_batch([UpdateDelta(name, ((key, val),))])
        assert len(built) <= levels + 2, (name, val, built)
    monkeypatch.undo()
    assert dict(state.result().entries) == {(): 10}
    assert_views_match_fresh(state)


def test_to_one_lifts_are_not_applied(monkeypatch):
    """Summing out a variable lifted to one multiplies by nothing: a
    count-ring update and batch never call ``lift``, nor build a row's
    lift operation."""
    state = chain_state()
    calls = []
    lift, lift_row = fivm.rings.lift, fivm.rings.lift_row
    monkeypatch.setattr(fivm.rings, "lift", lambda *a: calls.append(a) or lift(*a))
    for module in (fivm.relations, fivm.ivm):
        monkeypatch.setattr(module, "lift_row", lambda *a: calls.append(a) or lift_row(*a))
    state.apply_batch([UpdateDelta("R", ((("a1", "b9"), 1),))])
    state.apply_batch(
        [UpdateDelta("S", ((("a1", "c2", "e9"), 1),)), UpdateDelta("T", ((("c2", "d9"), 1),))]
    )
    assert calls == []
    monkeypatch.undo()
    assert state.result().entries == state.recompute_oracle().entries
    assert_views_match_fresh(state)


def test_compiled_levels_follow_rebinding():
    """A delta path compiled against the stored views of one evaluation
    must not keep writing into them once a load, or a rebuild over the
    leaves as the reevaluate engine makes after every batch, has
    replaced them."""
    state = chain_state()
    state.apply_batch([UpdateDelta("R", ((("a1", "b9"), 1),))])
    state.load({"R": [(("a2", "b1"), 2)], "S": COUNT_DB["S"], "T": COUNT_DB["T"][1:]})
    state.apply_batch([UpdateDelta("R", ((("a1", "b9"), 1),))])
    assert_views_match_fresh(state)
    assert dict(state.result().entries) == dict(state.recompute_oracle().entries) == {(): 6}
    for i in range(3):
        for d in state.query.relations:
            if d.name == "T":
                state.leaves[d.leaf_id].accumulate_all([((f"c{i}", "d9"), 1)])
        state.initialize(state.leaves)
        state.apply_batch(
            [UpdateDelta("R", (((f"a{i}", "b9"), 1),)), UpdateDelta("S", ((("a1", f"c{i}", "e9"), 1),))]
        )
        assert_views_match_fresh(state)
        assert dict(state.result().entries) == dict(state.recompute_oracle().entries)


def test_no_update_plans_its_path(monkeypatch):
    """Once every path has taken a delta, single updates and batches run
    on the functions generated for the state: nothing is planned, and no
    source is generated or compiled, again."""
    state = chain_state()
    calls = []
    walk_plan, add = fivm.relations._walk_plan, fivm.relations.RowCode.add
    monkeypatch.setattr(
        fivm.relations, "_walk_plan", lambda *a: calls.append(a) or walk_plan(*a)
    )
    monkeypatch.setattr(
        fivm.relations.RowCode, "add", lambda *a: calls.append(a) or add(*a)
    )
    monkeypatch.setattr(
        fivm.relations, "compile", lambda *a: calls.append(a) or compile(*a), raising=False
    )
    for name, key in (("R", ("a1", "b9")), ("S", ("a1", "c2", "e9")), ("T", ("c2", "d9"))):
        state.apply_batch([UpdateDelta(name, ((key, 1),))])
    # the first delta of each path plans, generates and compiles its climb
    assert {type(c[0]) for c in calls} == {tuple, fivm.relations.RowCode, str}
    calls.clear()
    for i in range(10):
        name, key = [("R", ("a2", f"b{i}")), ("S", ("a2", "c1", f"e{i}")), ("T", ("c1", f"d{i}"))][i % 3]
        state.apply_batch([UpdateDelta(name, ((key, 1 if i % 2 else -1),))])
    state.apply_batch(
        [
            UpdateDelta("T", ((("c2", "d7"), 1), (("c1", "d1"), -1))),
            UpdateDelta("R", ((("a1", "b7"), 1),)),
            UpdateDelta("S", ((("a1", "c1", "e1"), -1),)),
        ]
    )
    assert calls == []
    monkeypatch.undo()
    assert dict(state.result().entries) == dict(state.recompute_oracle().entries)
    assert_views_match_fresh(state)


def test_profiles_keep_each_path_apart():
    """Each path's function compiles under its own file name, which a
    profile keys functions by, so R's climb and S's keep a row each."""
    state = chain_state()
    profile = cProfile.Profile()
    profile.enable()
    state.apply_batch([UpdateDelta("R", ((("a1", "b9"), 1),))])
    state.apply_batch([UpdateDelta("S", ((("a1", "c2", "e9"), 1),))])
    profile.disable()
    climbs = {file for file, _, name in pstats.Stats(profile).stats if name == "climb"}
    assert climbs == {"<fivm climb R>", "<fivm climb S>"}


def test_initialize_refuses_a_leaf_on_foreign_counters():
    """A generated climb charges every level to the state's one counter
    block, so a leaf counting elsewhere is refused before anything
    changes, and the state goes on maintaining what it held."""
    state = chain_state()
    before, units = snapshot(state), state.counters.snapshot()
    leaves = dict(state.leaves)
    leaves["T"] = counted_relation(("C", "D"), Z, COUNT_DB["T"], OpCounters())
    with pytest.raises(ValueError, match="counters"):
        state.initialize(leaves)
    assert snapshot(state) == before
    assert state.counters.snapshot() == units
    state.apply_batch([UpdateDelta("T", ((("c1", "d9"), 1),))])
    assert dict(state.result().entries) == dict(state.recompute_oracle().entries)
    assert_views_match_fresh(state)


def test_load_rejects_key_of_wrong_arity_and_keeps_old_state():
    state = chain_state()
    before = snapshot(state)
    bad = dict(COUNT_DB, R=[(("a1", "b1", "x"), 1)])
    with pytest.raises(ValueError):
        state.load(bad)
    assert snapshot(state) == before
    assert dict(state.result().entries) == {(): 10}


# A payload with slot 5 under a degree-2 ring: the engine's covariance
# operators trust their operands, so it has to be stopped at the door.
OUT_OF_DEGREE = CovarianceTriple(1.0, {5: 2.0}, {(5, 5): 4.0})


def cov_pair_state():
    """R(A,B)-S(B,C) under a degree-2 covariance ring, loaded."""
    ring = covariance_ring(2)
    lifts = (lift_continuous("A", 1), lift_continuous("B", 2), lift_to_one("C"))
    query = Query([("R", ("A", "B")), ("S", ("B", "C"))], (), ring, lifts=lifts)
    tree = plan_view_tree(query, VariableOrder([["B", ["A"], ["C"]]]), updatable=("R", "S"))
    state = RuntimeState(tree)
    state.load({"R": [((1, 10), ring_one(ring))], "S": [((10, 3), ring_one(ring))]})
    return state


def test_out_of_degree_update_payload_changes_nothing():
    # R's valid delta comes first; it must not land before S's is refused.
    state = cov_pair_state()
    before = snapshot(state)
    with pytest.raises(ValueError, match="slot 5 outside degree 2"):
        state.apply_batch(
            [
                UpdateDelta("R", (((2, 10), ring_one(state.ring)),)),
                UpdateDelta("S", (((10, 8), OUT_OF_DEGREE),)),
            ]
        )
    assert snapshot(state) == before


def test_load_rejects_out_of_degree_payload_and_keeps_old_state():
    state = cov_pair_state()
    before = snapshot(state)
    with pytest.raises(ValueError, match="slot 5 outside degree 2"):
        state.load({"R": [((2, 10), ring_one(state.ring))], "S": [((10, 8), OUT_OF_DEGREE)]})
    assert snapshot(state) == before


def test_recompute_oracle_agrees_with_nested_loop_reference():
    state = chain_state()
    recomputed = state.recompute_oracle()
    assert dict(recomputed.entries) == dict(state.result().entries)
    tables = [
        (("A", "B"), {k: v for k, v in COUNT_DB["R"]}),
        (("A", "C", "E"), {k: v for k, v in COUNT_DB["S"]}),
        (("C", "D"), {k: v for k, v in COUNT_DB["T"]}),
    ]
    assert dict(recomputed.entries) == oracles.aggregate(tables, ())


@settings(max_examples=40, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["R", "S", "T"]),
                st.integers(0, 2),
                st.integers(0, 2),
                st.sampled_from([1, 1, 1, -1]),
            ),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_random_update_stream_keeps_views_consistent(batches):
    """Random inserts and deletes over a small domain: after every batch
    all stored views equal a from-scratch rebuild and the root equals the
    nested-loop aggregate."""
    query = Query(CHAIN_RELS, (), Z, lifts=tuple(lift_to_one(v) for v in "ABCDE"))
    tree = plan_view_tree(query, CHAIN_ORDER, updatable=("R", "S", "T"))
    state = RuntimeState(tree)
    state.load({})
    widths = {"R": 2, "S": 3, "T": 2}
    for batch in batches:
        updates = []
        for name, x, y, sign in batch:
            key = tuple(f"v{(x + i * y) % 3}" for i in range(widths[name]))
            updates.append(UpdateDelta(name, ((key, sign),)))
        state.apply_batch(updates)
        assert_views_match_fresh(state)
        tables = [
            (d.schema, dict(state.leaves[d.leaf_id].entries))
            for d in query.relations
        ]
        assert dict(state.result().entries) == oracles.aggregate(tables, ())


# ---------------------------------------------------------------------------
# a star whose static siblings fold into one stored product

STAR_RELS = [(f"R{i}", ("A", f"B{i}")) for i in range(4)]
STAR_ORDER = VariableOrder([["A", ["B0"], ["B1"], ["B2"], ["B3"]]])
# Values the continuous lifts read, chosen so sums are inexact in binary.
STAR_VALUES = (0.1, 2.7, 1.3, 5.9)
STAR_STATIC = {
    f"R{i}": [(a, b) for a in range(3) for b in range(4) if (a + b + i) % 3] for i in (1, 2, 3)
}


def star_state(ring_kind):
    if ring_kind == "integer":
        ring = Z
        lifts = tuple(lift_to_one(v) for v in ("A", "B0", "B1", "B2", "B3"))
    else:
        ring = RingSpec(COVARIANCE, degree=4, base=REAL, zero_tolerance=1e-9)
        lifts = (lift_to_one("A"),) + tuple(
            lift_continuous(f"B{i}", i + 1, valuer=STAR_VALUES.__getitem__) for i in range(4)
        )
    tree = plan_view_tree(Query(STAR_RELS, (), ring, lifts=lifts), STAR_ORDER, updatable=("R0",))
    state = RuntimeState(tree)
    one = ring_one(ring)
    state.load({name: [(k, one) for k in keys] for name, keys in STAR_STATIC.items()})
    return state


def close(ring, a, b):
    """Payload equality up to the ring's tolerance: exact on the integers,
    componentwise within a relative 1e-9 on covariance triples."""
    if ring.kind == "integer":
        return a == b
    pairs = [(a.c, b.c)] + [
        (x.get(k, 0.0), y.get(k, 0.0)) for x, y in ((a.s, b.s), (a.Q, b.Q)) for k in {**x, **y}
    ]
    return all(math.isclose(x, y, rel_tol=1e-9, abs_tol=ring.zero_tolerance) for x, y in pairs)


def assert_relations_close(ring, got, want, label):
    for key in {**got.entries, **want.entries}:
        a = got.entries.get(key, ring.zero)
        b = want.entries.get(key, ring.zero)
        assert close(ring, a, b), (label, key, a, b)


@pytest.mark.parametrize("ring_kind", ["integer", "covariance"])
@settings(max_examples=30, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3), st.booleans()),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_folded_star_stays_equal_to_a_recompute(ring_kind, batches):
    """Inserts and deletes interleaved on the one streamed relation: after
    every batch each stored view, the folded product included, equals a
    from-scratch rebuild and the root equals ``recompute_oracle``."""
    state = star_state(ring_kind)
    ring = state.ring
    assert "F@A(R1+R2+R3)" in state.views
    live: dict[tuple, int] = {}
    for batch in batches:
        pairs = []
        for a, b, delete in batch:
            present = [k for k, m in live.items() if m]
            if delete and present:
                key, sign = present[(a * 4 + b) % len(present)], -1
            else:
                key, sign = (a, b), 1
            live[key] = live.get(key, 0) + sign
            pairs.append((key, ring_one(ring) if sign > 0 else ring.neg(ring_one(ring))))
        state.apply_batch([UpdateDelta("R0", tuple(pairs))])
        fresh = RuntimeState(state.tree)
        data = {name: list(state.leaves[name].entries.items()) for name in ("R0", "R1", "R2", "R3")}
        fresh.load(data)
        assert state.views.keys() == fresh.views.keys()
        for vid, rel in state.views.items():
            assert_relations_close(ring, rel, fresh.views[vid], vid)
        assert_relations_close(ring, state.result(), state.recompute_oracle(), "root")


# ---------------------------------------------------------------------------
# the spelling of ring operators in generated code

TOLERANT = RingSpec(REAL, zero_tolerance=1e-3)


def clear_kernel_caches():
    """Empty the cache of every kernel builder, so the next kernel of any
    shape and ring is generated again."""
    for build in (
        fivm.relations._level_function,
        fivm.relations._store_function,
        fivm.relations._bare_store,
        fivm.relations._fill_function,
    ):
        build.cache_clear()


def generated_sources(ring, monkeypatch):
    """Every source generated for the listed chain over ``ring``, by kind
    (``climb``, ``store``, ``marginalize``, ``walk``, ``fill``): a load,
    one update per relation and one listing. Every kernel cache starts
    empty, so a kernel generated earlier is generated again."""
    sources: dict[str, list[str]] = {}
    compile_code = fivm.relations.RowCode.compile

    def spied(self, name, label):
        sources.setdefault(label.split()[0], []).append(self.source)
        return compile_code(self, name, label)

    monkeypatch.setattr(fivm.relations.RowCode, "compile", spied)
    clear_kernel_caches()
    query = Query(CHAIN_RELS, ("A", "B", "C", "D"), ring, lifts=(lift_to_one("E"),))
    state = RuntimeState(plan_view_tree(query, CHAIN_ORDER, updatable=("R", "S", "T")))
    one = ring_one(ring)
    state.load({name: [(key, one) for key, _ in pairs] for name, pairs in COUNT_DB.items()})
    for name, key in (("R", ("a1", "b9")), ("S", ("a1", "c2", "e9")), ("T", ("c1", "d9"))):
        state.apply_batch([UpdateDelta(name, ((key, one),))])
    assert list(enumerate_result(state))
    return sources


def calls(source, op):
    return len(re.findall(rf"\b{op}\(", source))


KINDS = ("climb", "store", "marginalize", "walk")

# Per ring operation: Python's own operator, the name generated code
# calls the ring's bound operator by, and the spelling RowCode writes
# when the two are one (on payload locals named ``v``, ``o`` and ``a``).
SPELLINGS = (
    ("mul", operator.mul, "M", r"\b[av]\d* \* "),
    ("add", operator.add, "A", r"\bo\d* \+ v\d*"),
    ("is_zero", operator.not_, "Z", r"\bnot [av]\d*\b|\bif [av]\d*:"),
)


def assert_spelled_by_its_ring(ring, source):
    """Generated code calls a bound operator exactly when the ring's
    operator is not Python's own, and writes it as Python's otherwise."""
    for op, own, name, native in SPELLINGS:
        if getattr(ring, op) is own:
            assert not calls(source, name), (op, source)
        else:
            assert not re.search(native, source), (op, source)


@pytest.mark.parametrize("scenario", sorted(bundled_scenarios()))
def test_every_bundled_scenario_spells_the_operators_of_its_ring(scenario):
    """Every delta path's climb and the listing walk of each bundled
    scenario, read from the state rather than from ``fivm compile``'s
    text, whose view ids hold ``@A(``."""
    compiled = compile_scenario(load_scenario(bundled_scenarios()[scenario]))
    state = RuntimeState(compiled.tree)
    state.load({})
    sources = [state.climb_source(entry) for entry in compiled.tree.delta_paths]
    if compiled.tree.listing_steps:
        sources.append(compiled_walk(state).source)
    for source in sources:
        assert_spelled_by_its_ring(compiled.query.ring, source)


def test_exact_ring_kernels_write_python_operators(monkeypatch):
    """On the integer ring every generated kernel adds, multiplies and
    tests for zero with Python's own ``+``, ``*`` and ``not``: none calls
    the ring's bound ``A``, ``M`` or ``Z``."""
    sources = generated_sources(Z, monkeypatch)
    for kind in KINDS:
        assert_spelled_by_its_ring(Z, "".join(sources[kind]))
    assert re.search(r"= v\d+ \* v\d+\n", "".join(sources["climb"]))
    # the bare store, which merges every plain update, is generated too
    assert "def bind():\n" in "".join(sources["store"]) and sources["fill"]
    assert "v = o + v\n" in "".join(sources["store"])


def test_covariance_kernels_call_the_bound_operators(monkeypatch):
    ring = covariance_ring(2)
    sources = generated_sources(ring, monkeypatch)
    for kind in KINDS:
        source = "".join(sources[kind])
        ops = "MZ" if kind == "walk" else "Z" if kind == "store" else "AMZ"
        assert all(calls(source, op) for op in ops), (kind, source)
        assert_spelled_by_its_ring(ring, source)


def test_a_tolerant_ring_keeps_its_zero_test_and_native_arithmetic(monkeypatch):
    """A real ring with a zero tolerance adds and multiplies with ``+``
    and ``*``, but every zero test still calls its ``Z``."""
    sources = generated_sources(TOLERANT, monkeypatch)
    for kind in KINDS:
        source = "".join(sources[kind])
        assert_spelled_by_its_ring(TOLERANT, source)
        assert calls(source, "Z"), (kind, source)


def real_chain_state(ring):
    """The count chain over the real ``ring``, loaded with T(c3, d4) at 0.05."""
    query = Query(CHAIN_RELS, (), ring, lifts=tuple(lift_to_one(v) for v in "ABCDE"))
    state = RuntimeState(plan_view_tree(query, CHAIN_ORDER, updatable=("R", "S", "T")))
    data = {name: [(key, 1.0) for key, _ in pairs] for name, pairs in COUNT_DB.items()}
    data["T"] = [(("c3", "d4"), 0.05) if key == ("c3", "d4") else (key, 1.0) for key, _ in COUNT_DB["T"]]
    state.load(data)
    return state


def assert_close_to_a_rebuild(state):
    fresh = RuntimeState(state.tree)
    fresh.load({name: list(state.leaves[name].entries.items()) for name in ("R", "S", "T")})
    ring = state.ring
    for vid, rel in state.views.items():
        want = fresh.views[vid].entries
        for key in {**rel.entries, **want}:
            a, b = rel.entries.get(key, ring.zero), want.get(key, ring.zero)
            assert ring.close(a, b), (vid, key, a, b)


def test_a_product_within_the_tolerance_climbs_no_further():
    """S(a4, c3, e9) at 0.01 is stored in S and V@E(S); joined with
    V@D(T)[c3] = 0.05 its product 0.0005 is within the 1e-3 tolerance,
    so the climb stores nothing at V@C(S+T) or above."""
    state = real_chain_state(TOLERANT)
    before = {vid: dict(rel.entries) for vid, rel in state.views.items()}
    state.apply_batch([UpdateDelta("S", ((("a4", "c3", "e9"), 0.01),))])
    assert state.leaves["S"].entries[("a4", "c3", "e9")] == 0.01
    assert state.views["V@E(S)"].entries == {**before["V@E(S)"], ("a4", "c3"): 0.01}
    for vid in ("V@B(R)", "V@D(T)", "V@C(S+T)", "V@A(R+S+T)"):
        assert state.views[vid].entries == before[vid], vid
    assert_close_to_a_rebuild(state)


def test_a_kernel_is_keyed_by_its_whole_ring_not_by_its_spelling():
    """Real rings with zero tolerance 0, 1e-6 and 1e-3, in one process: the
    last two spell every operation alike (``+``, ``*`` and a call of
    ``Z``), yet each one's stores and climbs test zero with its own ring.
    A payload of 5e-4 is dropped by the 1e-3 ring's bare store, which
    merges a batch, and by its climb, where S(a4, c3, e9) at 0.01 meets
    V@D(T)[c3] = 0.05, and kept by the other two rings'."""
    clear_kernel_caches()
    for tol in (0.0, 1e-6, 1e-3):
        state = real_chain_state(RingSpec(REAL, zero_tolerance=tol))
        kept = tol < 5e-4
        state.apply_batch([UpdateDelta("R", ((("a9", "b9"), 5e-4),))])
        assert (("a9", "b9") in state.leaves["R"].entries) == kept, tol
        state.apply_batch([UpdateDelta("S", ((("a4", "c3", "e9"), 0.01),))])
        assert ("a4", "c3", "e9") in state.leaves["S"].entries
        assert (("a4",) in state.views["V@C(S+T)"].entries) == kept, tol
        assert_close_to_a_rebuild(state)


def test_a_tolerant_ring_stays_close_to_a_rebuild_under_inserts_and_deletes():
    """A seeded stream of batches mixing float inserts with deletes of
    what is stored: after each, every view is within ``ring.close`` of a
    from-scratch rebuild, and a view whose sums cancel holds no residue."""
    state = real_chain_state(TOLERANT)
    rng = random.Random(35)
    arity = dict(CHAIN_RELS)
    for _ in range(40):
        batch = []
        for _ in range(rng.randint(1, 4)):
            name = rng.choice(sorted(arity))
            stored = list(state.leaves[name].entries.items())
            if stored and rng.random() < 0.5:
                key, val = rng.choice(stored)
                batch.append(UpdateDelta(name, ((key, -val),)))
            else:
                key = tuple(f"{v.lower()}{rng.randint(1, 4)}" for v in arity[name])
                batch.append(UpdateDelta(name, ((key, rng.choice((0.1, 0.3, 2.7))),)))
        state.apply_batch(batch)
        assert_close_to_a_rebuild(state)
    for rel in state.views.values():
        assert all(abs(v) > TOLERANT.zero_tolerance for v in rel.entries.values())


# ---------------------------------------------------------------------------
# self joins


def two_path_state():
    query = Query(
        [("R", ("A", "B")), ("R", ("B", "C"))],
        (),
        Z,
        lifts=tuple(lift_to_one(v) for v in "ABC"),
    )
    order = VariableOrder([["B", ["A"], ["C"]]])
    tree = plan_view_tree(query, order, updatable=("R",))
    return RuntimeState(tree)


def test_self_join_counts_two_edge_paths():
    state = two_path_state()
    edges = [((1, 2), 1), ((2, 3), 1), ((1, 3), 1)]
    state.load({"R": edges})
    assert dict(state.result().entries) == {(): 1}

    state.apply_batch([UpdateDelta("R", (((3, 1), 1),))])
    assert dict(state.result().entries) == {(): 5}
    # both occurrence copies carry the same content
    assert state.leaves["R#1"].entries == state.leaves["R#2"].entries
    assert_views_match_fresh(state)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from([1, 1, -1])),
        min_size=1,
        max_size=10,
    )
)
def test_self_join_random_stream_matches_oracle(steps):
    state = two_path_state()
    state.load({})
    support: dict[tuple, int] = {}
    for a, b, sign in steps:
        if sign < 0 and support.get((a, b), 0) == 0:
            continue  # keep multiplicities non-negative, like real streams
        support[(a, b)] = support.get((a, b), 0) + sign
        state.apply_batch([UpdateDelta("R", (((a, b), sign),))])
        table = {k: v for k, v in support.items() if v}
        want = oracles.aggregate([(("A", "B"), table), (("B", "C"), table)], ())
        assert dict(state.result().entries) == want
    assert_views_match_fresh(state)


def test_each_self_join_occurrence_climbs_its_own_function(monkeypatch):
    """A self join's plain delta reaches each occurrence as one plain dict,
    its keys positional, so the same pairs are a delta over either
    occurrence's keys, and each climbs its path by the function generated
    for that occurrence: every delta entering R#1 or R#2 is the update's
    one pair in a dict, and each runs that occurrence's function. The
    stored views, the root and the listing stay equal to a recompute after
    every step."""
    query = Query(
        [("R", ("A", "B")), ("R", ("B", "C"))],
        ("A", "B", "C"),
        Z,
        lifts=tuple(lift_to_one(v) for v in "ABC"),
    )
    tree = plan_view_tree(query, VariableOrder([["B", ["A"], ["C"]]]), updatable=("R",))
    state = RuntimeState(tree)
    state.load({"R": [((1, 2), 1), ((2, 3), 1)]})
    forms = {"R#1": [], "R#2": []}
    runs = {"R#1": 0, "R#2": 0}
    climbs = {}
    enter, compile_path = state._enter, state._compile

    def record(entry, form):
        forms[entry.id].append((type(form), dict(form)))
        return enter(entry, form)

    def counted(entry):
        climb, *rest = compile_path(entry)
        climbs[entry.id] = climb

        def run(d):
            runs[entry.id] += 1
            return climb(d)

        return (run, *rest)

    monkeypatch.setattr(state, "_enter", record)
    monkeypatch.setattr(state, "_compile", counted)
    rng = random.Random(21)
    live = {(1, 2): 1, (2, 3): 1}
    sent = []
    for _ in range(30):
        key = (rng.randrange(4), rng.randrange(4))
        sign = -1 if live.get(key) and rng.random() < 0.4 else 1
        live[key] = live.get(key, 0) + sign
        sent.append((dict, {key: sign}))
        state.apply_batch([UpdateDelta("R", ((key, sign),))])
        assert dict(state.result().entries) == dict(state.recompute_oracle().entries)
        assert_views_match_fresh(state)
        listing = recompute_query(query, state.leaves, query.free)
        assert dict(enumerate_result(state)) == dict(listing.entries)
    assert forms == {"R#1": sent, "R#2": sent}
    assert runs == {"R#1": 30, "R#2": 30}
    assert climbs["R#1"] is not climbs["R#2"]
    assert climbs["R#1"].__code__.co_filename == "<fivm climb R#1>"
    assert climbs["R#2"].__code__.co_filename == "<fivm climb R#2>"


def test_a_dense_self_join_contracts_every_occurrence_like_the_dict_path(monkeypatch):
    """A(X,Y) A(Y,Z) with X, Y and Z ranged 4 is stored dense; its twin
    without ranges in dicts. A rank-one update to A reaches A#2 renamed
    (``RuntimeState.apply_batch``) and still dense, so both occurrences
    contract through ``_contract``, and each update's counted units, the
    stored views and the root equal the dict twin's."""
    states = []
    for ranges in ({v: 4 for v in "XYZ"}, None):
        query = Query(
            [("A", ("X", "Y")), ("A", ("Y", "Z"))], (), real_ring(),
            lifts=[lift_to_one(v) for v in "XYZ"], ranges=ranges,
        )
        tree = plan_view_tree(query, VariableOrder([["Y", ["X"], ["Z"]]]), updatable=("A",))
        states.append(RuntimeState(tree))
    dense, plain = states
    entered, contracted = [], []
    propagate, contract = RuntimeState.propagate, fivm.relations._contract

    def spy_propagate(state, leaf_id, form):
        entered.append(leaf_id)
        return propagate(state, leaf_id, form)

    def spy_contract(plan, ops):
        contracted.append(entered[-1])
        return contract(plan, ops)

    rng = random.Random(31)
    data = {"A": [((x, y), float(rng.choice([-1, 1, 2]))) for x in range(4) for y in range(4)
                  if rng.random() < 0.6]}
    for state in (dense, plain):
        state.load(data)
    assert isinstance(dense.leaves["A#2"], DenseRelation)
    assert dense.counters.snapshot() == plain.counters.snapshot()
    monkeypatch.setattr(RuntimeState, "propagate", spy_propagate)
    monkeypatch.setattr(fivm.relations, "_contract", spy_contract)

    def factor(state, var, values):
        rel = state.relation((var,))
        rel.accumulate_all([((i,), x) for i, x in enumerate(values) if x])
        return rel

    for _ in range(6):
        u = [float(rng.choice([-2, -1, 0, 1, 3])) for _ in range(4)]
        v = [float(rng.choice([-1, 1, 2])) for _ in range(4)]
        spent = []
        for state in (dense, plain):
            contracted.clear()
            before = state.counters.snapshot()
            state.apply_batch([FactorizedDelta("A", (factor(state, "X", u), factor(state, "Y", v)))])
            spent.append(tuple(b - a for a, b in zip(before, state.counters.snapshot())))
            assert set(contracted) == ({"A#1", "A#2"} if state is dense else set()), contracted
        assert spent[0] == spent[1]
        for node_id in plain.views:
            assert dict(dense.stored(node_id).entries.items()) == dict(plain.stored(node_id).entries)
        assert dict(dense.result().entries.items()) == dict(plain.result().entries)
        assert dict(plain.result().entries) == dict(plain.recompute_oracle().entries)


def lifted_level_twins():
    """A(X,Y) B(Y,Z) with free X and Z, Y lifted by identity, loaded: the
    state stored dense (ranges 3, 4, 2), its twin in dicts, and the random
    source that made the data."""
    states = []
    for ranges in ({"X": 3, "Y": 4, "Z": 2}, None):
        query = Query(
            [("A", ("X", "Y")), ("B", ("Y", "Z"))], ("X", "Z"), real_ring(),
            lifts=[lift_to_one("X"), lift_identity("Y"), lift_to_one("Z")], ranges=ranges,
        )
        tree = plan_view_tree(query, VariableOrder([["Y", ["X"], ["Z"]]]), updatable=("A",))
        states.append(RuntimeState(tree))
    rng = random.Random(5)
    data = {
        "A": [((x, y), float(rng.choice([-1, 1, 2]))) for x in range(3) for y in range(4)
              if rng.random() < 0.7],
        "B": [((y, z), float(rng.choice([-2, 1, 3]))) for y in range(4) for z in range(2)
              if rng.random() < 0.7],
    }
    for state in states:
        state.load(data)
    return states, rng


def test_a_product_with_a_lifted_level_is_planned_once_per_signature(monkeypatch):
    """The twins of :func:`lifted_level_twins`. The lift keeps the level
    that sums Y out of an ``einsum``, so the dense path mixes contracted
    and row-loop steps. A rank-one update to A plans every product step
    at the path's first update of its signature: the third calls
    ``plan_shape`` not once on either twin, and each update's counted
    units, the stored views and the root equal the dict twin's."""
    states, rng = lifted_level_twins()
    dense, plain = states
    assert isinstance(dense.leaves["A"], DenseRelation)
    assert dense.counters.snapshot() == plain.counters.snapshot()
    planned = []
    plan_shape = fivm.relations.plan_shape
    monkeypatch.setattr(
        fivm.relations, "plan_shape", lambda *a: planned.append(a) or plan_shape(*a)
    )
    plans = []
    for _ in range(3):
        u = [float(rng.choice([-1, 0, 2])) for _ in range(3)]
        v = [float(rng.choice([1, -3])) for _ in range(4)]
        spent = []
        for state in states:
            fu, fv = state.relation(("X",)), state.relation(("Y",))
            fu.accumulate_all([((i,), x) for i, x in enumerate(u) if x])
            fv.accumulate_all([((i,), x) for i, x in enumerate(v) if x])
            before = state.counters.snapshot()
            planned.clear()
            state.apply_batch([FactorizedDelta("A", (fu, fv))])
            plans.append(len(planned))
            spent.append(tuple(b - a for a, b in zip(before, state.counters.snapshot())))
        assert spent[0] == spent[1]
        for node_id in plain.views:
            assert dict(dense.stored(node_id).entries.items()) == dict(plain.stored(node_id).entries)
        assert dict(dense.result().entries.items()) == dict(plain.result().entries)
        assert dict(plain.result().entries) == dict(plain.recompute_oracle().entries)
    assert plans[-2:] == [0, 0], plans


def test_a_view_whose_level_lifts_a_ranged_variable_is_stored_dense():
    """In the dense twin of :func:`lifted_level_twins` the level of
    ``V@Y(A+B)`` sums Y, lifted by identity, by the row loop, and the view
    over the ranged X and Z is stored dense all the same, like every
    relation over ranged variables. Under point and rank-one updates to A
    its entries, the root and each update's counted units equal the dict
    twin's."""
    states, rng = lifted_level_twins()
    dense, plain = states
    assert isinstance(dense.views["V@Y(A+B)"], DenseRelation)
    assert type(plain.views["V@Y(A+B)"]) is Relation
    assert dense.counters.snapshot() == plain.counters.snapshot()
    for step in range(6):
        pairs = tuple(((rng.randrange(3), rng.randrange(4)), float(rng.choice([-1, 2])))
                      for _ in range(step % 3 + 1))
        u = [float(rng.choice([-1, 0, 2])) for _ in range(3)]
        v = [float(rng.choice([1, -3])) for _ in range(4)]
        spent = []
        for state in states:
            if step % 2:
                batch = [UpdateDelta("A", pairs)]
            else:
                fu, fv = state.relation(("X",)), state.relation(("Y",))
                fu.accumulate_all([((i,), x) for i, x in enumerate(u) if x])
                fv.accumulate_all([((i,), x) for i, x in enumerate(v) if x])
                batch = [FactorizedDelta("A", (fu, fv))]
            before = state.counters.snapshot()
            state.apply_batch(batch)
            spent.append(tuple(b - a for a, b in zip(before, state.counters.snapshot())))
        assert spent[0] == spent[1]
        assert isinstance(dense.views["V@Y(A+B)"], DenseRelation)
        for node_id in plain.views:
            assert dict(dense.stored(node_id).entries.items()) == dict(plain.stored(node_id).entries)
        assert dict(dense.result().entries.items()) == dict(plain.result().entries)
        assert dict(plain.result().entries) == dict(plain.recompute_oracle().entries)


# ---------------------------------------------------------------------------
# factorized deltas


def rank_one_pair(state, rows, cols):
    u = counted_relation(("A",), state.ring, [((a,), v) for a, v in rows], state.counters)
    v = counted_relation(("B",), state.ring, [((b,), w) for b, w in cols], state.counters)
    return u, v


def test_factorized_delta_matches_expanded_delta():
    query = Query(
        [("R", ("A", "B")), ("S", ("B", "C"))],
        (),
        Z,
        lifts=tuple(lift_to_one(v) for v in "ABC"),
    )
    order = VariableOrder([["B", ["A"], ["C"]]])
    data = {
        "R": [((i, j), 1) for i in range(2) for j in range(2)],
        "S": [((j, k), k + 1) for j in range(2) for k in range(2)],
    }

    s_fact = RuntimeState(plan_view_tree(query, order, updatable=("R", "S")))
    s_fact.load(data)
    s_flat = RuntimeState(plan_view_tree(query, order, updatable=("R", "S")))
    s_flat.load(data)

    rows = [(0, 2), (1, -1)]
    cols = [(0, 3), (1, 1)]
    u, v = rank_one_pair(s_fact, rows, cols)
    s_fact.apply_batch([FactorizedDelta("R", (u, v))])
    expanded = [((a, b), x * y) for a, x in rows for b, y in cols]
    s_flat.apply_batch([UpdateDelta("R", tuple(expanded))])

    assert dict(s_fact.result().entries) == dict(s_flat.result().entries)
    for vid in s_fact.views:
        assert s_fact.views[vid].entries == s_flat.views[vid].entries
    assert s_fact.leaves["R"].entries == s_flat.leaves["R"].entries


def test_a_factor_over_permuted_columns_runs_the_generated_climb(monkeypatch):
    """A one-factor ``FactorizedDelta`` over R's columns in another order
    is reordered into R's schema once, as it is checked, so it enters as
    one plain dict over R's keys and climbs by the path's generated
    function, like the same factor in R's order: nothing walks level by
    level, and both charge the same units. Either leaves the views, root
    and leaf the equivalent ``UpdateDelta`` leaves."""
    pairs = ((("a1", "b9"), 2), (("a9", "b1"), 1), (("a1", "b1"), -1))
    flat = chain_state()
    flat.apply_batch([UpdateDelta("R", pairs)])
    walked = []
    marginalize = fivm.ivm.rel_marginalize
    monkeypatch.setattr(
        fivm.ivm, "rel_marginalize", lambda *a, **k: walked.append(a) or marginalize(*a, **k)
    )
    units = {}
    for schema in (("A", "B"), ("B", "A")):
        rows = [(k if schema == ("A", "B") else k[::-1], v) for k, v in pairs]
        factor = counted_relation(schema, Z, rows, OpCounters())
        state = chain_state()
        forms = []
        enter = state._enter

        def record(entry, form, enter=enter):
            forms.append((type(form), dict(form)))
            return enter(entry, form)

        monkeypatch.setattr(state, "_enter", record)
        before = state.counters.snapshot()
        walked.clear()
        assert state.apply_batch([FactorizedDelta("R", (factor,))]) == 3
        units[schema] = [a - b for a, b in zip(state.counters.snapshot(), before)]
        assert walked == []
        assert forms == [(dict, dict(pairs))]
        assert snapshot(state) == snapshot(flat)
        assert dict(state.result().entries) == dict(flat.result().entries)
    assert units[("B", "A")] == units[("A", "B")] == [23, 10, 0]


def test_factorized_delta_must_cover_the_schema():
    state = two_path_state()
    state.load({})
    u = from_pairs(("A",), Z, [((1,), 1)])
    with pytest.raises(ValueError):
        state.apply_batch([FactorizedDelta("R", (u,))])


def test_optimize_factorized_contracts_one_variable_at_a_time():
    u = from_pairs(("A",), Z, [((1,), 2), ((2,), 1)])
    v = from_pairs(("B",), Z, [((5,), 3)])
    w = from_pairs(("B", "C"), Z, [((5, 7), 1), ((5, 8), 2), ((6, 7), 9)])
    lifts = {"B": lift_to_one("B"), "C": lift_to_one("C")}
    steps, operands = factorized_steps(
        [(f.schema, f.shape) for f in (u, v, w)], ("B",), partial(plan_sum, Z, None, lifts)
    )
    out = optimize_factorized([u, v, w], steps)
    assert [(f.schema, f.shape) for f in out] == operands
    # u does not mention B, so it must be untouched
    assert any(f is u for f in out)
    assert len(out) == 2
    prod = out[0]
    for f in out[1:]:
        prod = rel_join(prod, f)
    direct = rel_marginalize(rel_join(rel_join(u, v), w), ("B",), lifts)
    got = {k: v2 for k, v2 in prod.entries.items()}
    # compare over a common column order
    pos = [prod.schema.index(c) for c in direct.schema]
    got = {tuple(k[i] for i in pos): v2 for k, v2 in prod.entries.items()}
    assert got == dict(direct.entries)


def test_optimize_factorized_needs_the_variable_somewhere():
    u = from_pairs(("A",), Z, [((1,), 1)])
    with pytest.raises(ValueError):
        factorized_steps(
            [(u.schema, u.shape)], ("Z",), partial(plan_sum, Z, None, {"Z": lift_to_one("Z")})
        )


# ---------------------------------------------------------------------------
# indicators under maintenance


def triangle_state():
    query = Query(
        [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))],
        (),
        Z,
        lifts=tuple(lift_to_one(v) for v in "ABC"),
    )
    tree = plan_view_tree(query, VariableOrder([["A", ["B", ["C"]]]]), updatable=("R", "S", "T"))
    return RuntimeState(tree)


def test_triangle_root_tracks_brute_force_count():
    state = triangle_state()
    r = [(0, 1), (1, 2), (3, 4)]
    s = [(1, 2), (2, 0), (4, 3)]
    t = [(2, 0), (0, 1), (3, 3)]
    state.load(
        {
            "R": [(k, 1) for k in r],
            "S": [(k, 1) for k in s],
            "T": [(k, 1) for k in t],
        }
    )
    want = oracles.triangle_count(r, s, t)
    assert dict(state.result().entries) == ({(): want} if want else {})

    # deleting an R edge retracts its indicator key and all triangles on it
    state.apply_batch([UpdateDelta("R", (((0, 1), -1),))])
    r2 = [e for e in r if e != (0, 1)]
    want2 = oracles.triangle_count(r2, s, t)
    assert dict(state.result().entries) == ({(): want2} if want2 else {})
    assert_views_match_fresh(state)

    # and putting it back restores the count
    state.apply_batch([UpdateDelta("R", (((0, 1), 1),))])
    assert dict(state.result().entries) == ({(): want} if want else {})


def test_indicator_bounds_the_wide_view():
    state = triangle_state()
    # bipartite-ish load: many (b, c) pairs, no triangles at all
    state.load(
        {
            "R": [(((0, b)), 1) for b in range(4)],
            "S": [(((b, c)), 1) for b in range(4) for c in range(4)],
            "T": [(((c, 9)), 1) for c in range(4)],
        }
    )
    assert state.result().entries == {}
    wide = state.views["V@C(S+T)"]
    # R only pairs node 0 with b in 0..3; the indicator keeps exactly the
    # (a=0, b) groups alive, never the full 4x4 cross product
    assert all(k[0] == 0 for k in wide.entries)
    assert len(wide.entries) <= 4


def test_duplicate_support_keeps_indicator_silent():
    """With two S tuples per (b, c) group, deleting one leaves every view
    unchanged except the S marginal itself."""
    query = Query(
        [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))],
        (),
        Z,
        lifts=tuple(lift_to_one(v) for v in "ABC"),
    )
    tree = plan_view_tree(query, VariableOrder([["A", ["B", ["C"]]]]), updatable=("R", "S", "T"))
    state = RuntimeState(tree)
    state.load(
        {
            "R": [((0, 1), 1), ((0, 1), 1)],  # doubled edge: support 2
            "S": [((1, 2), 1)],
            "T": [((2, 0), 1)],
        }
    )
    assert dict(state.result().entries) == {(): 2}
    ind_id = state.tree.indicator_nodes[0].id
    before = dict(state.indicator_rels[ind_id].entries)
    state.apply_batch([UpdateDelta("R", (((0, 1), -1),))])
    assert dict(state.indicator_rels[ind_id].entries) == before
    assert dict(state.result().entries) == {(): 1}
    assert_views_match_fresh(state)


def test_an_unstored_indicator_climbs_its_path(monkeypatch):
    """With only R updatable, the triangle's indicator over R is fed by R
    but stored nowhere, since its siblings hold no updatable relation. Its
    support transitions still climb its path: after each of 40 random
    single inserts and deletes of R, the root equals a recompute and every
    stored view a fresh load."""
    query = Query(
        [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))],
        (),
        Z,
        lifts=tuple(lift_to_one(v) for v in "ABC"),
    )
    tree = plan_view_tree(query, VariableOrder([["A", ["B", ["C"]]]]), updatable=("R",))
    (ind,) = tree.feeds["R"]
    assert not ind.materialized and ind.id in tree.delta_paths
    state = RuntimeState(tree)
    rng = random.Random(11)
    edges = [(a, b) for a in range(4) for b in range(4)]
    state.load({
        "R": [(e, 1) for e in rng.sample(edges, 6)],
        "S": [(e, 1) for e in rng.sample(edges, 10)],
        "T": [(e, 1) for e in rng.sample(edges, 10)],
    })
    entered = []
    enter = state._enter

    def record(entry, form):
        out = enter(entry, form)
        if entry is ind:
            entered.append((form, out))
        return out

    monkeypatch.setattr(state, "_enter", record)
    for _ in range(40):
        live = [k for k, m in state.leaves["R"].entries.items() if m > 0]
        if live and rng.random() < 0.5:
            pair = (rng.choice(live), -1)
        else:
            pair = (rng.choice(edges), 1)
        state.apply_batch([UpdateDelta("R", (pair,))])
        assert dict(state.result().entries) == dict(state.recompute_oracle().entries)
        assert_views_match_fresh(state)
    # every indicator delta, a plain dict over the indicator's keys, ran
    # the path's generated function, which stores no entry and so returns
    # no transitions
    assert entered and any(form for form, _ in entered)
    assert all(type(form) is dict for form, _ in entered)
    assert all(
        len(k) == len(ind.keys) and v in (1, -1) for form, _ in entered for k, v in form.items()
    )
    assert all(out == [] for _, out in entered)
    assert state.climb_source(ind.id).endswith("    return []\n")


@pytest.mark.parametrize("free", [(), ("A", "B")], ids=["count", "pairs"])
def test_a_two_root_result_joins_its_roots(free):
    """R(A) and S(B) under the two-root order [A], [B]: the result joins
    the two roots at every read. After a load, inserts and deletes to
    both relations, it and the listing equal a recompute."""
    lifts = (lift_to_one("A"), lift_to_one("B"))
    query = Query([("R", ("A",)), ("S", ("B",))], free, Z, lifts=lifts)
    tree = plan_view_tree(query, VariableOrder([["A"], ["B"]]), updatable=("R", "S"))
    assert len(tree.roots) == 2
    state = RuntimeState(tree)
    state.load({"R": [((1,), 2), ((2,), 1)], "S": [((5,), 3)]})
    batches = [
        [],
        [UpdateDelta("R", (((3,), 4),)), UpdateDelta("S", (((6,), 1), ((5,), -1)))],
        [UpdateDelta("R", (((1,), -2), ((2,), -1))), UpdateDelta("S", (((5,), 2),))],
        [UpdateDelta("R", (((3,), -4),))],
    ]
    results = []
    for batch in batches:
        state.apply_batch(batch)
        want = dict(recompute_query(query, state.leaves, tree.result_schema).entries)
        assert dict(state.result().entries) == dict(state.recompute_oracle().entries) == want
        assert dict(enumerate_result(state)) == want
        results.append(want)
    pairs = {(1, 5): 4, (1, 6): 2, (2, 5): 2, (2, 6): 1, (3, 5): 8, (3, 6): 4}
    assert results[1] == (pairs if free else {(): 21})
    assert results[2] == ({(3, 5): 16, (3, 6): 4} if free else {(): 20})
    assert results[3] == {}


# ---------------------------------------------------------------------------
# construction guards


def test_factorized_payloads_need_relational_ring():
    query = Query(CHAIN_RELS, (), Z, lifts=tuple(lift_to_one(v) for v in "ABCDE"))
    tree = plan_view_tree(query, CHAIN_ORDER, updatable=())
    with pytest.raises(ValueError):
        RuntimeState(tree, factorized_payloads=True)


def test_load_rejects_unknown_relation_data():
    state = chain_state()
    with pytest.raises(ValueError):
        state.load({"Q": []})


def test_recompute_query_reorders_to_requested_schema():
    real = real_ring()
    query = Query([("R", ("A", "B"))], ("B", "A"), real)
    leaves = {"R": from_pairs(("A", "B"), real, [((1.0, 2.0), 3.0)])}
    out = recompute_query(query, leaves, ("B", "A"))
    assert out.schema == ("B", "A")
    assert dict(out.entries) == {(2.0, 1.0): 3.0}
