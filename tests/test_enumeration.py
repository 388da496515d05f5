"""Result enumeration over planned trees, in both payload layouts.

The pinned values all come from one four-tuple-per-relation database whose
listing has eight rows. "Flat" states store complete value listings in
each view; "factorized" states total child payloads at every join and keep
only each view's own column, so the listing is reassembled on the fly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fivm.enumeration import (
    enumerate_result,
    listing_csv_rows,
    materialize_listing,
    payload_of_tuple,
)
from fivm.ivm import RuntimeState, UpdateDelta
from fivm.queries import RELATIONAL_PAYLOAD, Query, VariableOrder
from fivm.relations import Relation
from fivm.rings import (
    RelationalPayload,
    covariance_ring,
    integer_ring,
    lift_categorical,
    lift_continuous,
    lift_to_one,
    lift_unit,
    relational_payload,
    relational_ring,
    ring_one,
    ring_zero,
)
from fivm.viewtree import plan_view_tree

CHAIN_RELS = [("R", ("A", "B")), ("S", ("A", "C", "E")), ("T", ("C", "D"))]
CHAIN_ORDER = VariableOrder([["A", ["B"], ["C", ["D"], ["E"]]]])

ROWS = {
    "R": [("a1", "b1"), ("a1", "b2"), ("a2", "b3"), ("a3", "b4")],
    "S": [("a1", "c1", "e1"), ("a1", "c1", "e2"), ("a1", "c2", "e3"), ("a2", "c2", "e4")],
    "T": [("c1", "d1"), ("c2", "d2"), ("c2", "d3"), ("c3", "d4")],
}

LISTING = {
    ("a1", "b1", "c1", "d1"): 2,
    ("a1", "b1", "c2", "d2"): 1,
    ("a1", "b1", "c2", "d3"): 1,
    ("a1", "b2", "c1", "d1"): 2,
    ("a1", "b2", "c2", "d2"): 1,
    ("a1", "b2", "c2", "d3"): 1,
    ("a2", "b3", "c2", "d2"): 1,
    ("a2", "b3", "c2", "d3"): 1,
}


def rp(schema, entries):
    return relational_payload(schema, entries)


def listing_state(factorized, data=ROWS):
    ring = relational_ring()
    query = Query(
        CHAIN_RELS,
        ("A", "B", "C", "D"),
        ring,
        lifts=(lift_unit("E"),),
        free_lift_mode=RELATIONAL_PAYLOAD,
    )
    tree = plan_view_tree(query, CHAIN_ORDER, updatable=("R", "S", "T"))
    state = RuntimeState(tree, factorized_payloads=factorized)
    one = ring_one(ring)
    state.load({name: [(k, one) for k in rows] for name, rows in data.items()})
    return state


def totals(state, limit=None):
    return {k: v.total() for k, v in enumerate_result(state, limit=limit)}


# ---------------------------------------------------------------------------
# the eight-row listing, both layouts


@pytest.mark.parametrize("factorized", [False, True], ids=["flat", "factorized"])
def test_enumeration_yields_the_full_listing(factorized):
    state = listing_state(factorized)
    assert totals(state) == LISTING


def test_listing_agrees_with_nested_loop_oracle():
    tables = [(schema, {k: 1 for k in ROWS[n]}) for n, schema in CHAIN_RELS]
    assert oracles.aggregate(tables, ("A", "B", "C", "D")) == LISTING


def test_flat_views_hold_value_listings():
    state = listing_state(factorized=False)
    assert dict(state.views["V@C(S+T)"].entries) == {
        ("a1",): rp(("C", "D"), {("c1", "d1"): 2, ("c2", "d2"): 1, ("c2", "d3"): 1}),
        ("a2",): rp(("C", "D"), {("c2", "d2"): 1, ("c2", "d3"): 1}),
    }
    root = dict(state.result().entries)
    assert root[("a1",)] == rp(
        ("B", "C", "D"),
        {
            ("b1", "c1", "d1"): 2,
            ("b1", "c2", "d2"): 1,
            ("b1", "c2", "d3"): 1,
            ("b2", "c1", "d1"): 2,
            ("b2", "c2", "d2"): 1,
            ("b2", "c2", "d3"): 1,
        },
    )


def test_factorized_views_keep_only_their_own_column():
    state = listing_state(factorized=True)
    assert dict(state.views["V@C(S+T)"].entries) == {
        ("a1",): rp(("C",), {("c1",): 2, ("c2",): 2}),
        ("a2",): rp(("C",), {("c2",): 2}),
    }
    assert dict(state.result().entries) == {
        ("a1",): rp((), {(): 8}),
        ("a2",): rp((), {(): 2}),
    }


@pytest.mark.parametrize("factorized", [False, True], ids=["flat", "factorized"])
def test_shared_views_are_layout_independent(factorized):
    state = listing_state(factorized)
    assert dict(state.views["V@B(R)"].entries) == {
        ("a1",): rp(("B",), {("b1",): 1, ("b2",): 1}),
        ("a2",): rp(("B",), {("b3",): 1}),
        ("a3",): rp(("B",), {("b4",): 1}),
    }
    assert dict(state.views["V@D(T)"].entries) == {
        ("c1",): rp(("D",), {("d1",): 1}),
        ("c2",): rp(("D",), {("d2",): 1, ("d3",): 1}),
        ("c3",): rp(("D",), {("d4",): 1}),
    }
    assert dict(state.views["V@E(S)"].entries) == {
        ("a1", "c1"): rp((), {(): 2}),
        ("a1", "c2"): rp((), {(): 1}),
        ("a2", "c2"): rp((), {(): 1}),
    }


@pytest.mark.parametrize("factorized", [False, True], ids=["flat", "factorized"])
def test_payload_of_single_tuples(factorized):
    state = listing_state(factorized)
    assert payload_of_tuple(state, ("a1", "b1", "c1", "d1")).total() == 2
    assert payload_of_tuple(state, ("a1", "b2", "c2", "d3")).total() == 1
    # a3's row dangles: no S tuple ever matches it
    missing = payload_of_tuple(state, ("a3", "b4", "c3", "d4"))
    assert missing == RelationalPayload((), {})
    with pytest.raises(ValueError):
        payload_of_tuple(state, ("a1", "b1"))


def test_enumeration_walks_prefixes_in_order():
    state = listing_state(factorized=True)
    keys = [k for k, _ in enumerate_result(state)]
    assert len(keys) == 8
    assert [k[0] for k in keys] == ["a1"] * 6 + ["a2"] * 2
    # within one (A, B) prefix the C values stay grouped as well
    assert keys[0][:2] == keys[1][:2] == keys[2][:2]


def test_enumeration_limit_stops_early():
    state = listing_state(factorized=True)
    assert len(totals(state, limit=3)) == 3
    assert len(totals(state, limit=100)) == 8


@pytest.mark.parametrize("factorized", [False, True], ids=["flat", "factorized"])
def test_enumeration_tracks_updates(factorized):
    state = listing_state(factorized)
    one = ring_one(state.ring)
    state.apply_batch([UpdateDelta("T", ((("c3", "d4"), one),))])
    # c3 now has a doubled row, but still no S partner: listing unchanged
    assert totals(state) == LISTING
    state.apply_batch([UpdateDelta("S", ((("a3", "c3", "e9"), one),))])
    want = dict(LISTING)
    want[("a3", "b4", "c3", "d4")] = 2
    assert totals(state) == want


@settings(max_examples=30, deadline=None)
@given(
    r=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=6),
    s=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), max_size=6),
    t=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=6),
)
def test_layouts_always_agree_on_the_listing(r, s, t):
    """Random databases: the factorized reassembly must reproduce exactly
    the flat listing, which in turn must match the nested-loop oracle."""
    data = {"R": sorted(r), "S": sorted(s), "T": sorted(t)}
    flat = listing_state(False, data)
    fact = listing_state(True, data)
    oracle = oracles.aggregate(
        [(schema, {k: 1 for k in data[n]}) for n, schema in CHAIN_RELS],
        ("A", "B", "C", "D"),
    )
    assert totals(flat) == oracle
    assert totals(fact) == oracle


# ---------------------------------------------------------------------------
# other tree shapes


def test_general_tree_enumerates_from_its_root():
    Z = integer_ring()
    query = Query(CHAIN_RELS, (), Z, lifts=tuple(lift_to_one(v) for v in "ABCDE"))
    tree = plan_view_tree(query, CHAIN_ORDER, updatable=("T",))
    state = RuntimeState(tree)
    state.load({name: [(k, 1) for k in rows] for name, rows in ROWS.items()})
    assert list(enumerate_result(state)) == [((), 10)]


def test_root_covering_free_variables_scans_the_root():
    Z = integer_ring()
    query = Query(
        [("R", ("A", "B")), ("S", ("A", "C"))],
        ("A",),
        Z,
        lifts=(lift_to_one("B"), lift_to_one("C")),
    )
    tree = plan_view_tree(query, VariableOrder([["A", ["B"], ["C"]]]), updatable=("R", "S"))
    state = RuntimeState(tree)
    state.load(
        {
            "R": [((1, 10), 1), ((1, 11), 1), ((2, 12), 1)],
            "S": [((1, 20), 1), ((2, 21), 1), ((2, 22), 1)],
        }
    )
    assert tree.enum_views == {}
    got = dict(enumerate_result(state))
    assert got == {(1,): 2, (2,): 2}
    assert len(list(enumerate_result(state, limit=1))) == 1


# ---------------------------------------------------------------------------
# the listing plan on every kind of tree


def integer_state(rels, free, order, mode=None, data=ROWS):
    query = Query(
        rels,
        free,
        integer_ring(),
        lifts=tuple(lift_to_one(v) for _, schema in rels for v in schema if v not in free),
    )
    tree = plan_view_tree(query, VariableOrder(order), updatable=(rels[0][0],), mode=mode)
    state = RuntimeState(tree)
    state.load({name: [(k, 1) for k in data[name]] for name, _ in rels})
    return state


TWO_ROOTS = [("R", ("A", "B")), ("T", ("C", "D"))]
TWO_ROOT_ORDER = [["A", ["B"]], ["C", ["D"]]]

TREES = {
    # free variables listed against the order, so root keys are re-tupled
    "tau": lambda: integer_state(CHAIN_RELS, ("C", "A"), CHAIN_ORDER.to_nested(), mode="tau"),
    "root-keyed-nu": lambda: integer_state(
        [("R", ("A", "B")), ("S", ("A", "C", "E"))], ("A",), [["A", ["B"], ["C", ["E"]]]]
    ),
    "walked-nu-flat": lambda: listing_state(factorized=False),
    "walked-nu-factorized": lambda: listing_state(factorized=True),
    "two-root-nu": lambda: integer_state(TWO_ROOTS, ("A", "C"), TWO_ROOT_ORDER),
    "two-root-tau": lambda: integer_state(TWO_ROOTS, ("A", "C"), TWO_ROOT_ORDER, mode="tau"),
}


def test_the_trees_cover_every_listing_path():
    assert TREES["tau"]().tree.mode == "tau"
    assert not TREES["root-keyed-nu"]().tree.listing_steps
    for name in ("walked-nu-flat", "two-root-nu"):
        state = TREES[name]()
        assert state.tree.mode == "nu" and state.tree.listing_steps
    assert len(TREES["two-root-nu"]().tree.roots) == 2


@pytest.mark.parametrize("name", ["tau", "root-keyed-nu", "walked-nu-factorized"])
def test_limit_zero_lists_nothing_and_reads_nothing(name):
    state = TREES[name]()
    first = next(iter(enumerate_result(state)))
    before = state.counters.snapshot()
    assert list(enumerate_result(state, limit=0)) == []
    assert state.counters.snapshot() == before
    assert list(enumerate_result(state, limit=1)) == [first]


def test_walked_listing_ensures_each_index_once(monkeypatch):
    state = listing_state(factorized=True)
    calls = []
    ensure = Relation.ensure_index

    def counted(self, *args, **kwargs):
        calls.append(args)
        return ensure(self, *args, **kwargs)

    monkeypatch.setattr(Relation, "ensure_index", counted)
    assert totals(state) == LISTING
    assert len(calls) <= len(state.query.free)


@pytest.mark.parametrize("name", sorted(TREES))
def test_payload_of_tuple_matches_every_listed_row(name):
    state = TREES[name]()
    rows = list(enumerate_result(state))
    assert rows
    for key, val in rows:
        assert payload_of_tuple(state, key) == val
    missing = tuple("zz" for _ in state.query.free)
    assert payload_of_tuple(state, missing) == ring_zero(state.ring)


# ---------------------------------------------------------------------------
# listings as data


def test_materialize_listing_as_relation_and_as_payload():
    state = listing_state(factorized=True)
    rel = materialize_listing(state, kind="keys")
    assert rel.schema == ("A", "B", "C", "D")
    assert {k: v.total() for k, v in rel.entries.items()} == LISTING
    nested = materialize_listing(state, kind="relational_payload")
    assert nested == relational_payload(("A", "B", "C", "D"), LISTING)
    with pytest.raises(ValueError):
        materialize_listing(state, kind="csv")


def test_csv_rows_for_scalar_payloads():
    state = listing_state(factorized=False)
    header, rows = listing_csv_rows(state)
    assert header == ["A", "B", "C", "D", "payload"]
    got = {tuple(row[:4]): row[4] for row in rows}
    assert got == LISTING


def covariance_by_group_state(base="real"):
    ring = covariance_ring(1, base=base)
    if base == "real":
        lift_x = lift_continuous("X", 1)
        rows = [(("u", 1.0), None), (("u", 3.0), None), (("w", 2.0), None)]
    else:
        lift_x = lift_categorical("X", 1)
        rows = [(("u", "p"), None), (("w", "q"), None)]
    query = Query([("R", ("A", "X"))], ("A",), ring, lifts=(lift_x,))
    tree = plan_view_tree(query, VariableOrder([["A", ["X"]]]), updatable=("R",))
    state = RuntimeState(tree)
    one = ring_one(ring)
    state.load({"R": [(k, one) for k, _ in rows]})
    return state


def test_csv_rows_expand_statistics_triples():
    state = covariance_by_group_state()
    header, rows = listing_csv_rows(state)
    assert header == ["A", "c", "s_1", "q_1_1"]
    got = {row[0]: row[1:] for row in rows}
    assert got == {"u": [2, 4.0, 10.0], "w": [1, 2.0, 4.0]}


def test_csv_rows_reject_grouped_statistics():
    state = covariance_by_group_state(base="relational")
    with pytest.raises(ValueError):
        listing_csv_rows(state)
