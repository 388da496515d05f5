"""Construction, planning, and maintenance-time analysis of view trees."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from plans import plan_general_tree

from fivm.queries import GROUP_BY, RELATIONAL_PAYLOAD, Query, VariableOrder
from fivm.rings import (
    integer_ring,
    lift_singleton,
    lift_to_one,
    lift_unit,
    relational_ring,
)
from fivm.viewtree import (
    INDICATOR,
    LEAF,
    VIEW,
    ViewNode,
    add_indicator_projections,
    build_free_connex_tree,
    build_view_tree,
    choose_materialization,
    compact_and_dedupe,
    delta_join_order,
    payload_covers,
    plan_view_tree,
)

Z = integer_ring()

CHAIN_RELS = [("R", ("A", "B")), ("S", ("A", "C", "E")), ("T", ("C", "D"))]
CHAIN_ORDER = [["A", ["B"], ["C", ["D"], ["E"]]]]


def chain_query(free=()):
    bound = {"A", "B", "C", "D", "E"} - set(free)
    return Query(CHAIN_RELS, free, Z, lifts=tuple(lift_to_one(v) for v in sorted(bound)))


def listing_query():
    return Query(
        CHAIN_RELS,
        ("A", "B", "C", "D"),
        relational_ring(),
        lifts=(lift_unit("E"),),
        free_lift_mode=RELATIONAL_PAYLOAD,
    )


def views_of(tree):
    return {n.id: n for n in tree.nodes if n.kind == VIEW}


# ---------------------------------------------------------------------------
# the general construction


def test_general_tree_one_view_per_variable():
    tree = build_view_tree(chain_query(), VariableOrder(CHAIN_ORDER))
    assert tree.mode == "tau"
    vs = views_of(tree)
    assert set(vs) == {"V@B(R)", "V@C(S+T)", "V@D(T)", "V@E(S)", "V@A(R+S+T)"}
    assert vs["V@B(R)"].keys == ("A",)
    assert vs["V@B(R)"].marg_vars == ("B",)
    assert vs["V@E(S)"].keys == ("A", "C")
    assert vs["V@D(T)"].keys == ("C",)
    assert vs["V@C(S+T)"].keys == ("A",)
    assert vs["V@C(S+T)"].marg_vars == ("C",)
    assert [c.id for c in vs["V@C(S+T)"].children] == ["V@D(T)", "V@E(S)"]
    root = tree.roots[0]
    assert root.id == "V@A(R+S+T)"
    assert root.keys == ()
    assert [c.id for c in root.children] == ["V@B(R)", "V@C(S+T)"]


def test_general_tree_keys_are_dependency_plus_free_below():
    # same shape, A and D free: the D view keeps D, C's view inherits it
    tree = build_view_tree(chain_query(free=("A", "D")), VariableOrder(CHAIN_ORDER))
    vs = views_of(tree)
    assert vs["V@D(T)"].keys == ("C", "D")
    assert vs["V@D(T)"].marg_vars == ()
    assert vs["V@C(S+T)"].keys == ("A", "D")
    # the root lists every free variable below it
    assert tree.roots[0].keys == ("A", "D")


def test_general_tree_rejects_order_missing_a_join_path():
    query = Query(
        [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))],
        (),
        Z,
        lifts=tuple(lift_to_one(v) for v in "ABC"),
    )
    with pytest.raises(ValueError):
        build_view_tree(query, VariableOrder([["A", ["B"], ["C"]]]))


def test_leaf_and_rels_bookkeeping():
    tree = build_view_tree(chain_query(), VariableOrder(CHAIN_ORDER))
    assert set(tree.leaf_nodes) == {"R", "S", "T"}
    assert tree.by_id["V@C(S+T)"].rels_under == {"S", "T"}
    assert tree.roots[0].rels_under == {"R", "S", "T"}
    assert tree.by_id["V@E(S)"].vars_under == {"A", "C", "E"}


# ---------------------------------------------------------------------------
# the output-oriented construction


def test_free_connex_tree_hubs_wraps_and_enum_views():
    tree = build_free_connex_tree(listing_query(), VariableOrder(CHAIN_ORDER))
    assert tree.mode == "nu"
    vs = views_of(tree)
    assert set(vs) == {
        "V@B(R)",
        "V@D(T)",
        "V@E(S)",
        "H@C(S+T)",
        "V@C(S+T)",
        "H@A(R+S+T)",
    }
    # the C hub joins D's wrapped marginal with the E aggregate; the raw
    # T leaf only serves enumeration
    hub_c = vs["H@C(S+T)"]
    assert hub_c.keys == ("A", "C")
    assert hub_c.marg_vars == ()
    assert {c.id for c in hub_c.children} == {"V@D(T)", "V@E(S)"}
    # C is then summed into the payload so the A hub stays narrow
    wrap_c = vs["V@C(S+T)"]
    assert wrap_c.children == [hub_c]
    assert wrap_c.marg_vars == ("C",)
    assert wrap_c.lifts["C"].mode == "relational_singleton"
    # enumeration reads leaves directly where possible
    assert tree.enum_views == {
        "A": "H@A(R+S+T)",
        "B": "R",
        "C": "H@C(S+T)",
        "D": "T",
    }


def test_free_connex_tree_requires_free_top_order():
    query = listing_query()
    bad = VariableOrder([["E", ["A", ["B"], ["C", ["D"]]]]])
    with pytest.raises(ValueError):
        build_free_connex_tree(query, bad)


def test_bound_leftovers_sweep_into_a_separate_view():
    """A free variable wrapped away while bound variables linger in its
    child gets a two-stage sum: first the bound sweep, then itself."""
    query = Query(
        [("R", ("A", "B", "C")), ("S", ("A", "D"))],
        ("A", "C"),
        Z,
        lifts=(lift_to_one("B"), lift_to_one("D")),
    )
    order = VariableOrder([["A", ["C", ["B"]], ["D"]]])
    tree = build_free_connex_tree(query, order)
    vs = views_of(tree)
    sweep = vs["B@C(R)"]
    assert sweep.marg_vars == ("B",)
    assert sweep.keys == ("A", "C")
    wrap = vs["V@C(R)"]
    assert wrap.children == [sweep]
    assert wrap.marg_vars == ("C",)
    # enumeration for C points at the sweep, not the raw leaf below it
    assert tree.enum_views["C"] == "B@C(R)"


def test_root_leftover_bound_variables_get_a_top_wrapper():
    # B stays in the root child's schema; a final wrapper sums it away.
    query = Query([("R", ("A", "B"))], ("A",), Z, lifts=(lift_to_one("B"),))
    order = VariableOrder([["A", ["B"]]])
    tree = build_free_connex_tree(query, order)
    root = tree.roots[0]
    assert root.id == "V@top(R)"
    assert root.keys == ("A",)
    assert root.marg_vars == ("B",)


# ---------------------------------------------------------------------------
# indicator projections


def triangle_query(free=()):
    return Query(
        [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))],
        free,
        Z,
        lifts=tuple(lift_to_one(v) for v in "ABC" if v not in free),
    )


@pytest.mark.parametrize(
    "free, mode",
    [((), "tau"), (("C",), "tau"), (("B", "C"), "tau"), (("A",), "nu"), (("A", "B"), "nu")],
)
def test_the_planner_picks_the_tree_and_always_projects(free, mode):
    """The free-top tree exactly when there are free variables and none lies
    below a bound one, the general tree otherwise; either way the cyclic
    core gets its existence projection."""
    tree = plan_view_tree(triangle_query(free), VariableOrder([["A", ["B", ["C"]]]]), updatable=("R", "S", "T"))
    assert tree.mode == mode
    assert tree.indicator_nodes


def test_indicator_added_on_the_cyclic_core():
    tree = build_view_tree(triangle_query(), VariableOrder([["A", ["B", ["C"]]]]))
    add_indicator_projections(tree)
    inds = tree.indicator_nodes
    assert len(inds) == 1
    ind = inds[0]
    assert ind.source == "R"
    assert ind.keys == ("A", "B")
    # it filters the wide C view, the only place R is not already joined in
    assert ind.parent.at_variable == "C"


def test_plan_lists_the_indicators_each_updatable_relation_feeds():
    order = VariableOrder([["A", ["B", ["C"]]]])
    tree = plan_view_tree(triangle_query(), order, updatable=("R", "S", "T"))
    (ind,) = tree.indicator_nodes
    assert tree.feeds == {"R": (ind,), "S": (), "T": ()}
    # an indicator whose source never changes is neither fed nor entered
    tree = plan_view_tree(triangle_query(), order, updatable=("S", "T"))
    assert tree.feeds == {"S": (), "T": ()}
    assert list(tree.delta_paths) == ["S", "T"]


def test_no_indicator_on_acyclic_chain():
    tree = build_view_tree(chain_query(), VariableOrder(CHAIN_ORDER))
    add_indicator_projections(tree)
    assert tree.indicator_nodes == []


# ---------------------------------------------------------------------------
# materialization choice


def stored_view_ids(tree):
    return {n.id for n in tree.nodes if n.kind == VIEW and n.materialized}


def test_materialization_keeps_only_delta_join_partners():
    order = VariableOrder(CHAIN_ORDER)

    tree = plan_view_tree(chain_query(), order, updatable=("T",))
    assert stored_view_ids(tree) == {"V@A(R+S+T)", "V@B(R)", "V@E(S)"}

    tree = plan_view_tree(chain_query(), order, updatable=())
    assert stored_view_ids(tree) == {"V@A(R+S+T)"}

    tree = plan_view_tree(chain_query(), order, updatable=("R", "S", "T"))
    assert stored_view_ids(tree) == {
        "V@A(R+S+T)",
        "V@B(R)",
        "V@C(S+T)",
        "V@D(T)",
        "V@E(S)",
    }


def test_materialization_rejects_unknown_relations():
    with pytest.raises(ValueError):
        plan_view_tree(chain_query(), VariableOrder(CHAIN_ORDER), updatable=("X",))


def test_enumeration_views_stay_stored_even_without_updates():
    tree = plan_view_tree(listing_query(), VariableOrder(CHAIN_ORDER), updatable=())
    stored = stored_view_ids(tree)
    for vid in tree.enum_views.values():
        node = tree.by_id[vid]
        assert node.kind == LEAF or vid in stored


def test_root_covering_all_free_variables_drops_enum_views():
    query = Query(
        [("R", ("A", "B")), ("S", ("A", "C"))],
        ("A",),
        Z,
        lifts=(lift_to_one("B"), lift_to_one("C")),
    )
    tree = plan_view_tree(query, VariableOrder([["A", ["B"], ["C"]]]), updatable=("R", "S"))
    assert tree.enum_views == {}
    assert set(tree.roots[0].keys) == {"A"}


# ---------------------------------------------------------------------------
# folding static siblings

STAR_RELS = [(f"R{i}", ("A", f"B{i}")) for i in range(4)]
STAR_ORDER = VariableOrder([["A", ["B0"], ["B1"], ["B2"], ["B3"]]])
STAR_VARS = ("A", "B0", "B1", "B2", "B3")


def star_query(free=()):
    bound = [v for v in STAR_VARS if v not in free]
    return Query(STAR_RELS, free, Z, lifts=tuple(lift_to_one(v) for v in bound))


def fold_views(tree):
    return [n for n in tree.nodes if n.id.startswith("F@")]


def test_static_siblings_fold_into_one_stored_view():
    tree = plan_view_tree(star_query(), STAR_ORDER, updatable=("R0",))
    (fold,) = fold_views(tree)
    root = tree.roots[0]
    assert [c.id for c in root.children] == ["V@B0(R0)", fold.id]
    # keyed by the folded children's keys, not by the root's ()
    assert root.keys == ()
    assert fold.keys == ("A",)
    assert fold.marg_vars == ()
    assert [c.id for c in fold.children] == ["V@B1(R1)", "V@B2(R2)", "V@B3(R3)"]
    assert fold.materialized
    assert not any(c.materialized for c in fold.children)
    assert stored_view_ids(tree) == {root.id, fold.id}
    assert "* F@A(R1+R2+R3)[A] = V@B1(R1) * V@B2(R2) * V@B3(R3)" in tree.dump().splitlines()
    # the updatable leaf's delta joins the one product at the root
    last = tree.delta_paths["R0"][-1]
    assert last.node is root
    assert last.joins == ((fold.id, "primary"),)


def test_no_fold_with_fewer_than_two_static_siblings():
    tree = plan_view_tree(star_query(), STAR_ORDER, updatable=("R0", "R1", "R2"))
    assert fold_views(tree) == []
    assert len(tree.delta_paths["R0"][-1].joins) == 3
    # two static siblings are enough
    tree = plan_view_tree(star_query(), STAR_ORDER, updatable=("R0", "R1"))
    assert [n.id for n in fold_views(tree)] == ["F@A(R2+R3)"]


def test_no_fold_over_static_siblings_keyed_apart():
    # at A (below B and C) the static views are keyed A,B and A,C: their
    # product could hold |V@D1| * |V@D2| / |A| entries, so they stay apart
    rels = [("R0", ("A", "D0")), ("R1", ("A", "B", "D1")), ("R2", ("A", "C", "D2"))]
    lifts = tuple(lift_to_one(v) for v in ("A", "B", "C", "D0", "D1", "D2"))
    query = Query(rels, (), Z, lifts=lifts)
    order = VariableOrder([["B", ["C", ["A", ["D0"], ["D1"], ["D2"]]]]])
    tree = plan_view_tree(query, order, updatable=("R0",))
    assert fold_views(tree) == []
    at_a = tree.delta_paths["R0"][1]
    assert {c.keys for c in at_a.node.children} == {("A",), ("B", "A"), ("C", "A")}


def test_static_siblings_that_hold_free_variables_stay_out_of_the_fold():
    # a full listing: every child of the hub holds the free A
    tree = plan_view_tree(star_query(free=STAR_VARS), STAR_ORDER, updatable=("R0",))
    assert fold_views(tree) == []
    assert len(tree.roots[0].children) == 4
    # B1 free: R1 stays a child of the root, R2 and R3 fold
    tree = plan_general_tree(star_query(free=("B1",)), STAR_ORDER, updatable=("R0",))
    (fold,) = fold_views(tree)
    assert [c.id for c in fold.children] == ["V@B2(R2)", "V@B3(R3)"]
    assert [c.id for c in tree.roots[0].children] == ["V@B0(R0)", "R1", fold.id]


# ---------------------------------------------------------------------------
# compaction


def test_single_path_query_collapses_to_one_view():
    query = Query([("R", ("A", "B"))], (), Z, lifts=(lift_to_one("A"), lift_to_one("B")))
    tree = plan_view_tree(query, VariableOrder([["A", ["B"]]]), updatable=("R",))
    assert len(tree.nodes) == 2
    root = tree.roots[0]
    assert root.marg_vars == ("A", "B")
    assert root.children[0].kind == LEAF


def test_compaction_spares_stored_and_enumerated_views():
    tree = plan_view_tree(listing_query(), VariableOrder(CHAIN_ORDER), updatable=("R", "S", "T"))
    vs = views_of(tree)
    assert "H@C(S+T)" in vs
    assert "V@C(S+T)" in vs


def test_identity_wrapper_disappears():
    # a stored child blocks inlining, so the join-only wrapper with the
    # same schema is the one that goes
    inner = ViewNode("inner", VIEW, keys=("A",), at_variable="A", children=[])
    inner.materialized = True
    outer = ViewNode("outer", VIEW, keys=("A",), children=[inner])

    class FakeTree:
        order = VariableOrder([["A"]])
        enum_views = {}
        roots = [outer]

        def finalize(self):
            pass

    t = FakeTree()
    compact_and_dedupe(t)
    assert t.roots == [inner]
    assert inner.materialized


# ---------------------------------------------------------------------------
# delta join planning


def _node(nid, schema):
    return ViewNode(nid, VIEW, keys=tuple(schema), children=[])


def test_delta_join_order_greedy_and_mode_tagged():
    d = _node("d", ("A", "B"))
    s1 = _node("s1", ("B", "C"))
    s2 = _node("s2", ("C",))
    s3 = _node("s3", ("A", "B"))
    parent = ViewNode("p", VIEW, keys=("A", "B", "C"), children=[s1, s2, s3, d])
    steps = delta_join_order(parent, d)
    assert steps == [
        ("s3", "primary"),
        ("s1", (("B",), None)),
        ("s2", "primary"),
    ]


def test_delta_join_order_scans_unconnected_siblings():
    d = _node("d", ("A",))
    s = _node("s", ("Z",))
    parent = ViewNode("p", VIEW, keys=("A", "Z"), children=[d, s])
    assert delta_join_order(parent, d) == [("s", None)]


def test_planned_indices_on_the_chain():
    tree = plan_view_tree(chain_query(), VariableOrder(CHAIN_ORDER), updatable=("R", "S", "T"))
    required = {n.id: n.required_indices for n in tree.nodes if n.required_indices}
    # the only partially-bound probe on any delta path: T's delta carries C
    # up to the C view, where the E view is keyed by (A, C)
    assert required == {"V@E(S)": [(("C",), None)]}


def test_planned_indices_for_enumeration_group_by_variable():
    tree = plan_view_tree(listing_query(), VariableOrder(CHAIN_ORDER), updatable=("R", "S", "T"))
    hub = tree.by_id[tree.enum_views["C"]]
    assert ((("A",), "C")) in hub.required_indices
    leaf_t = tree.by_id["T"]
    assert ((("C",), "D")) in leaf_t.required_indices


def test_listing_plan_walks_the_grouped_indexes():
    tree = plan_view_tree(listing_query(), VariableOrder(CHAIN_ORDER), updatable=("R", "S", "T"))
    assert [var for var, _, _ in tree.listing_steps] == ["A", "B", "C", "D"]
    for var, view_id, probe in tree.listing_steps:
        assert tree.enum_views[var] == view_id
        assert (probe, var) in tree.by_id[view_id].required_indices
    # B's values come from R and D's from T; C's hub is summed into the A
    # hub, so a row's payload is R's times the product under C
    plan = payload_covers(tree.roots[0], frozenset(tree.query.free))
    assert [n.id for n in plan] == ["R", "T", "V@E(S)"]
    # each cover is read at the step binding the last of its keys: R per
    # (A, B), the E view per (A, C), T per row
    assert [[n.id for n in group] for group in tree.listing_covers] == [
        [], ["R"], ["V@E(S)"], ["T"]
    ]


def test_payload_covers_are_keyed_by_their_free_variables_and_stored():
    free = frozenset(listing_query().free)
    tree = plan_view_tree(listing_query(), VariableOrder(CHAIN_ORDER), updatable=())
    covers = [node for group in tree.listing_covers for node in group]
    assert covers
    for node in covers:
        assert set(node.keys) == free & node.vars_under
        assert node.materialized
    assert sorted(n.id for n in payload_covers(tree.roots[0], free)) == sorted(
        n.id for n in covers
    )


def test_root_scanned_trees_have_no_listing_steps():
    general = plan_general_tree(
        chain_query(free=("A", "C")), VariableOrder(CHAIN_ORDER), updatable=("R",)
    )
    assert general.listing_steps == ()
    assert general.listing_covers == (tuple(general.roots),)
    query = Query(
        [("R", ("A", "B")), ("S", ("A", "C"))],
        ("A",),
        Z,
        lifts=(lift_to_one("B"), lift_to_one("C")),
    )
    keyed = plan_view_tree(query, VariableOrder([["A", ["B"], ["C"]]]), updatable=("R", "S"))
    assert keyed.listing_steps == ()
    assert keyed.listing_covers == (tuple(keyed.roots),)


# ---------------------------------------------------------------------------
# whole-pipeline invariants


@st.composite
def random_star_or_chain(draw):
    """Small random star or chain queries with a compatible order."""
    shape = draw(st.sampled_from(["star", "chain"]))
    n = draw(st.integers(2, 4))
    if shape == "star":
        rels = [(f"R{i}", ("A", f"B{i}")) for i in range(n)]
        order = [["A"] + [[f"B{i}"] for i in range(n)]]
        vars_all = ["A"] + [f"B{i}" for i in range(n)]
    else:
        rels = [(f"R{i}", (f"X{i}", f"X{i+1}")) for i in range(n)]
        nest: object = [f"X{n}"]
        for i in reversed(range(n)):
            nest = [f"X{i}", nest]
        order = [nest]
        vars_all = [f"X{i}" for i in range(n + 1)]
    updatable = draw(st.sets(st.sampled_from([r for r, _ in rels])))
    return rels, order, vars_all, sorted(updatable)


@settings(max_examples=50, deadline=None)
@given(random_star_or_chain())
def test_planned_trees_satisfy_schema_invariants(case):
    rels, order, vars_all, updatable = case
    query = Query(rels, (), Z, lifts=tuple(lift_to_one(v) for v in vars_all))
    tree = plan_view_tree(query, VariableOrder(order), updatable=updatable)
    seen_leaves = set()
    for node in tree.nodes:
        if node.kind == LEAF:
            seen_leaves.add(node.leaf_id)
            continue
        if node.kind == INDICATOR:
            continue
        joined = set()
        for c in node.children:
            joined |= set(c.keys)
        assert joined == set(node.keys) | set(node.marg_vars)
        for v in node.marg_vars:
            assert v in node.lifts
    assert seen_leaves == {name for name, _ in rels}
    assert tree.roots[0].materialized
