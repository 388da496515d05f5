"""Incremental maintenance: delta propagation, batches, self joins,
factorized updates, and indicator upkeep."""

from __future__ import annotations

import cProfile
import math
import pstats
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fivm.ivm
import fivm.relations
import oracles
from fivm.apps import build_matrix_chain
from fivm.enumeration import enumerate_result
from fivm.ivm import (
    FactorizedDelta,
    RuntimeState,
    UpdateDelta,
    optimize_factorized,
    recompute_query,
)
from fivm.queries import Query, VariableOrder
from fivm.relations import (
    DenseRelation,
    OpCounters,
    Relation,
    from_pairs,
    rel_join,
    rel_marginalize,
)
from fivm.rings import (
    CovarianceTriple,
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
        merged = from_pairs(state.query.occurrences[name][0].schema, Z, pairs, OpCounters())
        assert not merged.entries
        assert outcomes[0][0] == 0
        assert outcomes[0][1] == list(merged.counters.snapshot())
        assert outcomes[0][2] == start


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
    count-ring update and batch never call ``lift``."""
    state = chain_state()
    calls = []
    lift = fivm.relations.lift
    monkeypatch.setattr(
        fivm.relations, "lift", lambda *a: calls.append(a) or lift(*a)
    )
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
    leaves["T"] = from_pairs(("C", "D"), Z, COUNT_DB["T"], counters=OpCounters())
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
    lifts = (lift_continuous("A", 1), lift_continuous("B", 2), lift_continuous("C", 2))
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
        ring = covariance_ring(4, zero_tolerance=1e-9)
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
    """A self join's delta reaches each occurrence under that occurrence's
    variables (``RuntimeState._rebound``), and each climbs its path by the
    function generated for that occurrence: every delta entering R#1 or
    R#2 is one plain relation over the occurrence's keys, and each runs
    that occurrence's function. The stored views, the root and the listing
    stay equal to a recompute after every step."""
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
        forms[entry.id].append([(type(f), f.schema) for f in form])
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
    for _ in range(30):
        key = (rng.randrange(4), rng.randrange(4))
        sign = -1 if live.get(key) and rng.random() < 0.4 else 1
        live[key] = live.get(key, 0) + sign
        state.apply_batch([UpdateDelta("R", ((key, sign),))])
        assert dict(state.result().entries) == dict(state.recompute_oracle().entries)
        assert_views_match_fresh(state)
        listing = recompute_query(query, state.leaves, query.free)
        assert dict(enumerate_result(state)) == dict(listing.entries)
    assert forms == {
        "R#1": [[(Relation, ("A", "B"))]] * 30,
        "R#2": [[(Relation, ("B", "C"))]] * 30,
    }
    assert runs == {"R#1": 30, "R#2": 30}
    assert climbs["R#1"] is not climbs["R#2"]
    assert climbs["R#1"].__code__.co_filename == "<fivm climb R#1>"
    assert climbs["R#2"].__code__.co_filename == "<fivm climb R#2>"


# ---------------------------------------------------------------------------
# factorized deltas


def rank_one_pair(state, rows, cols):
    u = from_pairs(("A",), state.ring, [((a,), v) for a, v in rows], counters=state.counters)
    v = from_pairs(("B",), state.ring, [((b,), w) for b, w in cols], counters=state.counters)
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
    is reordered into R's schema once, as it is bound to the occurrence,
    so it enters as one plain relation over R's keys and climbs by the
    path's generated function, like the same factor in R's order: nothing
    walks level by level, and both charge the same units. Either leaves
    the views, root and leaf the equivalent ``UpdateDelta`` leaves."""
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
        factor = from_pairs(schema, Z, rows, counters=OpCounters())
        state = chain_state()
        forms = []
        enter = state._enter

        def record(entry, form, enter=enter):
            forms.append([(type(f), f.schema) for f in form])
            return enter(entry, form)

        monkeypatch.setattr(state, "_enter", record)
        before = state.counters.snapshot()
        walked.clear()
        assert state.apply_batch([FactorizedDelta("R", (factor,))]) == 3
        units[schema] = [a - b for a, b in zip(state.counters.snapshot(), before)]
        assert walked == []
        assert forms == [[(Relation, ("A", "B"))]]
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
    out = optimize_factorized([u, v, w], ("B",), lifts)
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
        optimize_factorized([u], ("Z",), {"Z": lift_to_one("Z")})


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
    # every indicator delta ran the path's generated function, which
    # stores no entry and so returns no transitions
    assert entered and any(form[0].entries for form, _ in entered)
    assert all(type(f) is Relation and f.schema == ind.keys for (f,), _ in entered)
    assert all(out == [] for _, out in entered)
    assert state.climb_source(ind.id).endswith("    return []\n")


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
