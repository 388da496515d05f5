"""Result enumeration over planned trees, in both payload layouts.

The pinned values all come from one four-tuple-per-relation database whose
listing has eight rows. "Flat" states store complete value listings in
each view; "factorized" states total child payloads at every join and keep
only each view's own column, so the listing is reassembled on the fly.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from plans import plan_general_tree
from fivm.enumeration import (
    enumerate_result,
    listing_csv_rows,
)
from fivm.harness import bundled_scenarios, compile_scenario, load_scenario, run_scenario
from fivm.ivm import FactorizedDelta, RuntimeState, UpdateDelta, recompute_query
from fivm.queries import RELATIONAL_PAYLOAD, Query, VariableOrder
from fivm.relations import Relation, RowCode
from fivm.rings import (
    REAL,
    RingSpec,
    covariance_ring,
    integer_ring,
    lift_categorical,
    lift_continuous,
    lift_to_one,
    lift_unit,
    relational_payload,
    relational_ring,
    ring_one,
)
from fivm.viewtree import payload_covers, plan_view_tree

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
    listing = dict(enumerate_result(listing_state(factorized)))
    assert listing[("a1", "b1", "c1", "d1")].total() == 2
    assert listing[("a1", "b2", "c2", "d3")].total() == 1
    # a3's row dangles: no S tuple ever matches it
    assert ("a3", "b4", "c3", "d4") not in listing


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


MARKED = rp(("K",), {("k1",): 1, ("k2",): 2})


@pytest.mark.parametrize(
    "target, factors, pinned",
    [
        # two factors, at the fresh keys a9 and b9
        ("R", [(("A",), "a9", MARKED), (("B",), "b9", None)],
         ("V@B(R)", ("a9",), rp(("B",), {("b9",): 3}))),
        # three factors given in the column order C, A, E; every stored
        # key the delta reaches is fresh, up to the root's a3
        ("S", [(("C",), "c3", MARKED), (("A",), "a3", None), (("E",), "e9", rp(("J",), {("j1",): 5}))],
         ("V@C(S+T)", ("a3",), rp(("C",), {("c3",): 15}))),
    ],
    ids=["R_two_factors", "S_three_factors_out_of_order"],
)
def test_factorized_payloads_expand_a_product_delta_before_totalling(
    monkeypatch, target, factors, pinned
):
    """Payload totals do not distribute over a product's factors, so a
    product-form delta is expanded once, when it is checked, and climbs
    as a plain dict: it stores what its expansion stores, view for view,
    no plan is ever made for it, and the batch counts its expansion's
    keys. The keys are fresh: at a key that already holds a payload,
    adding payloads of two schemas projects both onto the shared
    columns, which would hide a wrongly kept column."""
    product, expanded = listing_state(factorized=True), listing_state(factorized=True)
    ring = product.ring
    rels, key, payload = [], {}, ring_one(ring)
    for schema, value, factor_payload in factors:
        factor_payload = factor_payload or ring_one(ring)
        f = product.relation(schema)
        f.accumulate_all([((value,), factor_payload)])
        rels.append(f)
        key[schema[0]] = value
        payload = ring.mul(payload, factor_payload)
    schema = dict(CHAIN_RELS)[target]
    forms, plans = [], []
    enter, plan = RuntimeState._enter, RuntimeState._plan
    monkeypatch.setattr(
        RuntimeState, "_enter", lambda self, entry, form: forms.append(form) or enter(self, entry, form)
    )
    monkeypatch.setattr(RuntimeState, "_plan", lambda self, *a: plans.append(a) or plan(self, *a))
    assert product.apply_batch([FactorizedDelta(target, tuple(rels))]) == 1
    monkeypatch.undo()
    assert forms and all(type(form) is dict for form in forms)
    assert plans == []
    pairs = ((tuple(key[v] for v in schema), payload),)
    assert expanded.apply_batch([UpdateDelta(target, pairs)]) == 1
    for kind in ("leaves", "views", "indicator_rels"):
        got, want = getattr(product, kind), getattr(expanded, kind)
        assert got.keys() == want.keys()
        for vid, rel in want.items():
            assert dict(got[vid].entries) == dict(rel.entries), vid
    view, at, total = pinned
    assert dict(expanded.views[view].entries)[at] == total


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


@pytest.mark.xfail(
    strict=True, reason="the walk takes a hub's payload sum for its support (ROADMAP item 2)"
)
def test_a_listing_keeps_rows_whose_hub_aggregate_cancels():
    """R(a1, b1) = 1 and R(a1, b2) = -1 sum B away to 0 at a1, so the hub
    at A holds no a1; both rows through a1 still have nonzero payloads."""
    query = Query(CHAIN_RELS, ("A", "B", "C", "D"), integer_ring(), lifts=(lift_to_one("E"),))
    state = RuntimeState(plan_view_tree(query, CHAIN_ORDER, updatable=("R", "S", "T")))
    state.load({
        "R": [(("a1", "b1"), 1), (("a1", "b2"), -1)],
        "S": [(("a1", "c1", "e1"), 1)],
        "T": [(("c1", "d1"), 1)],
    })
    want = dict(recompute_query(query, state.leaves, query.free).entries)
    assert want == {("a1", "b1", "c1", "d1"): 1, ("a1", "b2", "c1", "d1"): -1}
    assert dict(enumerate_result(state)) == want


# ---------------------------------------------------------------------------
# the listing plan on every kind of tree


def integer_state(rels, free, order, general=False, data=ROWS):
    query = Query(
        rels,
        free,
        integer_ring(),
        lifts=tuple(lift_to_one(v) for _, schema in rels for v in schema if v not in free),
    )
    plan = plan_general_tree if general else plan_view_tree
    tree = plan(query, VariableOrder(order), updatable=(rels[0][0],))
    state = RuntimeState(tree)
    state.load({name: [(k, 1) for k in data[name]] for name, _ in rels})
    return state


def tolerant_state():
    """The chain listing on a real ring with a zero tolerance of 1e-3. The
    product of R's and the E view's payloads, read at the C step, lies
    within the tolerance; T's payloads scale every row well out of it."""
    query = Query(
        CHAIN_RELS, ("A", "B", "C", "D"), RingSpec(REAL, zero_tolerance=1e-3),
        lifts=(lift_to_one("E"),),
    )
    tree = plan_view_tree(query, CHAIN_ORDER, updatable=("R", "S", "T"))
    state = RuntimeState(tree)
    scale = {"R": 0.02, "S": 0.02, "T": 1e4}
    state.load({name: [(k, scale[name]) for k in rows] for name, rows in ROWS.items()})
    return state


TWO_ROOTS = [("R", ("A", "B")), ("T", ("C", "D"))]
TWO_ROOT_ORDER = [["A", ["B"]], ["C", ["D"]]]

TREES = {
    # free variables listed against the order, so root keys are re-tupled
    "tau": lambda: integer_state(CHAIN_RELS, ("C", "A"), CHAIN_ORDER.to_nested(), general=True),
    "root-keyed-nu": lambda: integer_state(
        [("R", ("A", "B")), ("S", ("A", "C", "E"))], ("A",), [["A", ["B"], ["C", ["E"]]]]
    ),
    "walked-nu-flat": lambda: listing_state(factorized=False),
    "walked-nu-factorized": lambda: listing_state(factorized=True),
    "walked-real-tolerance": tolerant_state,
    "two-root-nu": lambda: integer_state(TWO_ROOTS, ("A", "C"), TWO_ROOT_ORDER),
    "two-root-tau": lambda: integer_state(TWO_ROOTS, ("A", "C"), TWO_ROOT_ORDER, general=True),
}


def test_the_trees_cover_every_listing_path():
    assert TREES["tau"]().tree.mode == "tau"
    assert not TREES["root-keyed-nu"]().tree.listing_steps
    for name in ("walked-nu-flat", "two-root-nu"):
        state = TREES[name]()
        assert state.tree.mode == "nu" and state.tree.listing_steps
    assert len(TREES["two-root-nu"]().tree.roots) == 2


def test_a_prefix_within_the_zero_tolerance_is_not_cut():
    """Only an exact zero cuts a prefix: a partial product within the
    tolerance can grow out of it once the remaining covers multiply in."""
    state = TREES["walked-real-tolerance"]()
    assert [[n.id for n in group] for group in state.tree.listing_covers] == [
        [], ["R"], ["V@E(S)"], ["T"]
    ]
    # per row: 0.02 from R, 0.02 per S tuple under (A, C), 1e4 from T
    want = {k: 4.0 * n for k, n in LISTING.items()}
    assert dict(enumerate_result(state)) == pytest.approx(want)


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


def qhier_pairs_state():
    """The bundled q-hierarchical scenario's state after its whole stream."""
    compiled = compile_scenario(load_scenario(bundled_scenarios()["qhier_pairs"]))
    return run_scenario(compiled, engine_name="fivm").engine.state


@pytest.mark.parametrize(
    "make", [TREES["walked-nu-flat"], qhier_pairs_state], ids=["walked-nu-flat", "qhier_pairs"]
)
def test_listing_reads_each_cover_once_per_prefix(make):
    """A full listing reads each payload cover once per prefix of the step
    that binds the last of its keys: the covers keyed by a row's leading
    values are shared by every row under them. Every prefix of these
    listings reaches a row, so the prefixes are the rows' projections."""
    state = make()
    tree = state.tree
    before = state.counters.entry_reads
    rows = [key for key, _ in enumerate_result(state)]
    reads = state.counters.entry_reads - before
    depth = {var: i for i, (var, _, _) in enumerate(tree.listing_steps)}
    at = [state.query.free.index(var) for var, _, _ in tree.listing_steps]
    prefixes = [len({tuple(k[j] for j in at[: i + 1]) for k in rows}) for i in range(len(at))]
    free = frozenset(state.query.free)
    covers = [n for r in tree.roots for n in payload_covers(r, free)]
    assert reads == sum(prefixes[max(depth[v] for v in n.keys)] for n in covers)
    assert len(rows) < reads < len(rows) * len(covers)


# ---------------------------------------------------------------------------
# the generated walk under inserts and deletes, reloads and deep plans


def marked_state():
    """The four-step chain listing over relational payloads that each base
    tuple marks with a value of column X. A row's payload joins its tuples'
    marks, so a prefix whose marks disagree has a product of exactly zero
    though every cover it read was nonzero."""
    query = Query(CHAIN_RELS, ("A", "B", "C", "D"), relational_ring(), lifts=(lift_to_one("E"),))
    state = RuntimeState(plan_view_tree(query, CHAIN_ORDER, updatable=("R", "S", "T")))
    state.load({})
    return state


def mark(x, sign=1):
    return rp(("X",), {(x,): sign})


ARITY = {name: len(schema) for name, schema in CHAIN_RELS}
VALUE = st.integers(0, 2)
EVENTS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(sorted(ARITY)), st.tuples(VALUE, VALUE, VALUE), st.integers(0, 1)),
        st.integers(0, 40),
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(events=EVENTS, cut=st.integers(0, 40))
# R(0, 0)'s mark disagrees with S(0, 1, *)'s: the (0, 0, 1) prefix is zero
@example(events=[("R", (0, 0, 0), 0), ("R", (0, 1, 0), 1), ("S", (0, 1, 0), 1), ("T", (1, 2, 0), 1)], cut=1)
# deletes empty R's group under A=0 and T's under C=1, then refill one
@example(
    events=[("R", (0, 0, 0), 1), ("S", (0, 1, 0), 1), ("T", (1, 2, 0), 1), ("T", (1, 0, 0), 1),
            0, 2, 1, ("R", (0, 2, 0), 1)],
    cut=0,
)
def test_the_walk_lists_the_recomputed_result_under_inserts_and_deletes(events, cut):
    """Each event inserts a marked tuple or deletes one still present (an
    index into those, modulo their number). The listing must equal the
    result recomputed from the base relations, each row once, and ``limit``
    must stop the walk after its first ``limit`` rows."""
    state = marked_state()
    live = []
    for event in events:
        if isinstance(event, int):
            if live:
                name, key, x = live.pop(event % len(live))
                state.apply_batch([UpdateDelta(name, ((key, mark(x, -1)),))])
            continue
        name, values, x = event
        key = values[: ARITY[name]]
        state.apply_batch([UpdateDelta(name, ((key, mark(x)),))])
        live.append((name, key, x))
    query = state.query
    rows = list(enumerate_result(state))
    assert dict(rows) == dict(recompute_query(query, state.leaves, query.free).entries)
    assert len(dict(rows)) == len(rows)
    k = cut % (len(rows) + 1)
    assert list(enumerate_result(state, limit=k)) == rows[:k]


def test_an_exactly_zero_prefix_is_cut_before_the_next_step():
    """R(a, b1)'s mark meets no mark of S(a, c, e): the (a, b1, c) prefix is
    zero and nothing under it is probed or read, while (a, b2, c) goes on
    to T. Probes: one per step A and B, two at C, one at D; reads: two
    covers of R, two of the E view, one of T."""
    state = marked_state()
    state.load(
        {
            "R": [(("a", "b1"), mark(0)), (("a", "b2"), mark(1))],
            "S": [(("a", "c", "e"), mark(1))],
            "T": [(("c", "d"), mark(1))],
        }
    )
    before = state.counters.snapshot()
    assert list(enumerate_result(state)) == [(("a", "b2", "c", "d"), mark(1))]
    reads, writes, probes = (b - a for a, b in zip(before, state.counters.snapshot()))
    assert (reads, writes, probes) == (5, 0, 5)


def test_the_walk_is_compiled_once_per_state(monkeypatch):
    """Ten listings with a batch between each two compile one walk. A
    reload rebinds the stored relations, so the next listing compiles a
    new walk, which lists the reloaded data and not the old."""
    names = []
    compile_code = RowCode.compile

    def spied(self, name, label):
        names.append(name)
        return compile_code(self, name, label)

    monkeypatch.setattr(RowCode, "compile", spied)
    state = marked_state()
    query = state.query

    def recomputed():
        return dict(recompute_query(query, state.leaves, query.free).entries)

    for i in range(10):
        state.apply_batch([
            UpdateDelta("R", ((("a", f"b{i % 3}"), mark(i % 2)),)),
            UpdateDelta("S", ((("a", "c", "e"), mark(1)),)),
            UpdateDelta("T", ((("c", f"d{i % 2}"), mark(1)),)),
        ])
        assert dict(enumerate_result(state)) == recomputed()
    assert recomputed() and names.count("walk") == 1
    state.load({"R": [(("a2", "b"), mark(0))], "S": [(("a2", "c2", "e"), mark(0))],
                "T": [(("c2", "d"), mark(0))]})
    assert dict(enumerate_result(state)) == recomputed() == {("a2", "b", "c2", "d"): mark(0)}
    assert names.count("walk") == 2


def test_a_walk_deeper_than_python_nests_lists_the_recomputed_result():
    """A 22-arm star R_i(A, B_i) with every variable free is listed in 23
    steps, more loops than Python nests in one function: the walk goes on
    in a generator of its own and still lists the recomputed result."""
    arms = [(f"R{i}", ("A", f"B{i}")) for i in range(1, 23)]
    free = ("A", *(schema[1] for _, schema in arms))
    query = Query(arms, free, integer_ring())
    order = VariableOrder([["A", *([schema[1]] for _, schema in arms)]])
    state = RuntimeState(plan_view_tree(query, order, updatable=[name for name, _ in arms]))
    # A=0 under every arm, two values of B1 and B2; A=1 under all arms but
    # the last, so no row; A=2 under every arm once
    data = {name: [((0, 0), 1), ((2, 0), 1), ((1, 0), 1)] for name, _ in arms}
    data["R22"].pop()
    data["R1"].append(((0, 1), 2))
    data["R2"].append(((0, 1), -3))
    state.load(data)
    assert state.tree.mode == "nu" and len(state.tree.listing_steps) == 23
    for batch in ([], [UpdateDelta("R2", (((0, 0), -1),))]):
        state.apply_batch(batch)
        rows = list(enumerate_result(state))
        assert dict(rows) == dict(recompute_query(query, state.leaves, free).entries)
        assert len(rows) == len(dict(rows)) == (5 if not batch else 3)


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
