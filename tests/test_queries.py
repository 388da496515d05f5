"""Query declarations, variable orders, and structural classification."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivm.ivm import RuntimeState, UpdateDelta
from fivm.queries import (
    FDSet,
    Query,
    VariableOrder,
    canonical_free_top_order,
    classify,
    fd_closure,
    gyo_reduce,
    infer_dep,
    sigma_reduct,
)
from fivm.rings import (
    RELATIONAL,
    covariance_ring,
    integer_ring,
    lift_categorical,
    lift_continuous,
    lift_to_one,
    real_ring,
)
from fivm.viewtree import plan_view_tree

Z = integer_ring()


def q(relations, free, lifts=None):
    if lifts is None:
        bound = {v for _, s in relations for v in s} - set(free)
        lifts = tuple(lift_to_one(v) for v in sorted(bound))
    return Query(relations, free, Z, lifts=lifts)


CHAIN = [("R", ("A", "B")), ("S", ("A", "C", "E")), ("T", ("C", "D"))]
TRIANGLE = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))]
TWO_REL = [("R", ("A", "B")), ("S", ("A", "C"))]


# ---------------------------------------------------------------------------
# declarations


def test_repeated_relation_names_become_numbered_occurrences():
    query = q([("R", ("A", "B")), ("R", ("B", "C"))], ("A", "B", "C"))
    assert [d.leaf_id for d in query.relations] == ["R#1", "R#2"]
    assert [d.name for d in query.relations] == ["R", "R"]
    assert query.decl("R#2").schema == ("B", "C")


def test_occurrences_route_a_name_to_each_leaf_with_its_renaming():
    query = q([("R", ("A", "B")), ("S", ("B", "C")), ("R", ("B", "C"))], ())
    first, second = query.occurrences["R"]
    assert (first.leaf_id, first.schema) == ("R#1", ("A", "B"))
    assert (second.leaf_id, second.schema) == ("R#2", ("B", "C"))
    assert first.renaming == {"A": "A", "B": "B"}
    assert second.renaming == {"A": "B", "B": "C"}
    assert first is query.relations[0] and second is query.relations[2]
    assert [o.leaf_id for o in query.occurrences["S"]] == ["S"]


def test_variables_keep_first_appearance_order():
    query = q(CHAIN, ())
    assert query.variables == ("A", "B", "C", "E", "D")


def test_rels_of_uses_leaf_ids():
    query = q(CHAIN, ())
    assert query.rels_of("A") == {"R", "S"}
    assert query.rels_of("D") == {"T"}


def test_query_validation():
    with pytest.raises(ValueError):
        q([("R", ("A", "A"))], ())
    with pytest.raises(ValueError):
        q([("R", ("A",))], ("Z",))
    with pytest.raises(ValueError):
        Query([("R", ("A",))], (), Z, lifts=(lift_to_one("A"), lift_to_one("A")))
    with pytest.raises(ValueError):
        Query([("R", ("A",))], ("A", "A"), Z)
    with pytest.raises(ValueError):
        Query([("R", ("A",))], (), Z, free_lift_mode="nested")
    with pytest.raises(ValueError, match="arity"):
        q([("R", ("A", "B")), ("R", ("B",))], ())
    with pytest.raises(ValueError, match="relational_payload needs a relational ring, not integer"):
        Query([("R", ("A",))], ("A",), Z, free_lift_mode="relational_payload")


@pytest.mark.parametrize("base", ["real", RELATIONAL])
def test_covariance_lifts_are_refused_by_slot_when_the_query_is_built(base):
    """Two covariance lifts into one slot, or one above the ring's degree,
    are refused by name when the query is built, before any state exists:
    a row would otherwise meet the first only when it arrives, and the
    second never."""
    ring = covariance_ring(2, base=base)
    rels = [("R", ("A", "B")), ("S", ("B", "C"))]
    second = lift_categorical if base == RELATIONAL else lift_continuous
    with pytest.raises(ValueError, match="lifts of B and C share covariance slot 2"):
        Query(rels, (), ring, lifts=(
            lift_continuous("A", 1), lift_continuous("B", 2), second("C", 2),
        ))
    with pytest.raises(ValueError, match="lift of C to slot 3 is outside degree 2"):
        Query(rels, (), ring, lifts=(
            lift_continuous("A", 1), lift_continuous("B", 2), second("C", 3),
        ))
    # distinct slots within the degree, a to-one lift beside them
    Query(rels, (), ring, lifts=(
        lift_continuous("A", 1), second("B", 2), lift_to_one("C"),
    ))


# ---------------------------------------------------------------------------
# variable orders


def test_order_roundtrips_through_nested_lists():
    nested = [["A", "B", ["C", ["D"], "E"]]]
    order = VariableOrder(nested)
    assert order.to_nested() == [["A", "B", ["C", "D", "E"]]]
    assert order.roots == ("A",)
    assert order.parent["E"] == "C"
    assert order.children["C"] == ("D", "E")


def test_order_rejects_duplicates():
    with pytest.raises(ValueError):
        VariableOrder([["A", "B"], ["B"]])


def test_order_navigation():
    order = VariableOrder([["A", ["B"], ["C", ["D"], ["E"]]]])
    assert order.ancestors("E") == ("A", "C")
    assert order.subtree("C") == ("C", "D", "E")
    assert order.sort_vars({"E", "A", "C"}) == ("A", "C", "E")
    assert order.comparable("A", "D")
    assert not order.comparable("B", "D")
    assert order.is_free_top(("A", "B"))
    assert not order.is_free_top(("B", "D"))


def test_order_forest_has_multiple_roots():
    order = VariableOrder(["A", ["B", ["C"]]])
    assert order.roots == ("A", "B")
    assert order.variables == ("A", "B", "C")


def test_infer_dep_on_the_chain_query():
    query = q(CHAIN, ())
    order = VariableOrder([["A", ["B"], ["C", ["D"], ["E"]]]])
    binding = infer_dep(query, order)
    assert binding.dep == {
        "A": (),
        "B": ("A",),
        "C": ("A",),
        "D": ("C",),
        "E": ("A", "C"),
    }
    assert binding.leaf_parent == {"R": "B", "S": "E", "T": "D"}


def test_infer_dep_rejects_split_relations():
    """An order where some relation's variables are not on one root-to-leaf
    path cannot host that relation."""
    query = q(TRIANGLE, ())
    order = VariableOrder([["A", ["B"], ["C"]]])
    with pytest.raises(ValueError):
        infer_dep(query, order)


# ---------------------------------------------------------------------------
# hypergraph reduction and classification


def test_gyo_accepts_chain_rejects_triangle():
    chain = [(n, s, "rel") for n, s in CHAIN]
    assert gyo_reduce(chain) == []
    tri = [(n, s, "rel") for n, s in TRIANGLE]
    assert gyo_reduce(tri) != []


def test_gyo_equal_edges_drop_indicator_first():
    edges = [
        ("R", ("A", "B"), "rel"),
        ("R!", ("A", "B"), "indicator"),
    ]
    out = gyo_reduce(edges)
    assert out == []
    # an indicator strictly inside a relation edge also reduces away
    edges = [("R", ("A", "B"), "rel"), ("X!", ("A",), "indicator")]
    assert gyo_reduce(edges) == []


def test_classification_of_the_pinned_shapes():
    chain = classify(q(CHAIN, ()))
    assert chain.acyclic
    assert chain.free_connex
    assert not chain.hierarchical
    assert not chain.q_hierarchical

    tri = classify(q(TRIANGLE, ()))
    assert not tri.acyclic
    assert not tri.hierarchical

    two = classify(q(TWO_REL, ("A", "B", "C")))
    assert two.acyclic and two.free_connex
    assert two.hierarchical and two.q_hierarchical


def test_q_hierarchical_needs_free_above_bound():
    # B free while the strictly wider A stays bound: hierarchical, not q-.
    query = q(TWO_REL, ("B",))
    cls = classify(query)
    assert cls.hierarchical
    assert not cls.q_hierarchical


def test_free_connex_can_fail_on_acyclic_queries():
    # path R(A,B)-S(B,C) with endpoints free but the middle bound
    query = q([("R", ("A", "B")), ("S", ("B", "C"))], ("A", "C"))
    cls = classify(query)
    assert cls.acyclic
    assert not cls.free_connex


def test_canonical_order_of_the_two_relation_query():
    order = canonical_free_top_order(q(TWO_REL, ("A", "B", "C")))
    assert order.to_nested() == [["A", "B", "C"]]


def test_canonical_order_puts_free_before_bound_in_a_chain():
    # A and B share the same relation set {R}; free B goes above bound A.
    query = q([("R", ("A", "B"))], ("B",))
    order = canonical_free_top_order(query)
    assert order.to_nested() == [["B", "A"]]
    assert order.is_free_top(query.free)


def test_canonical_order_breaks_ties_alphabetically():
    query = q([("R", ("B", "A"))], ("A", "B"))
    assert canonical_free_top_order(query).to_nested() == [["A", "B"]]


def test_canonical_order_rejects_non_q_hierarchical():
    with pytest.raises(ValueError):
        canonical_free_top_order(q(CHAIN, ()))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_order_is_free_top_and_hosts_every_relation(data):
    """Random q-hierarchical star queries: the canonical order must accept
    the query (dep inference succeeds) and keep free variables on top."""
    n = data.draw(st.integers(1, 4))
    rels = [("R%d" % i, ("A", "B%d" % i)) for i in range(n)]
    free_all = ["A"] + ["B%d" % i for i in range(n)]
    # free = either everything, or everything minus some leaf variables
    drop = data.draw(st.sets(st.sampled_from(free_all[1:]), max_size=n) if n else st.just(set()))
    free = tuple(v for v in free_all if v not in drop)
    query = q(rels, free)
    if not classify(query).q_hierarchical:
        return
    order = canonical_free_top_order(query)
    assert order.is_free_top(free)
    binding = infer_dep(query, order)
    assert set(binding.leaf_parent) == {name for name, _ in rels}


# ---------------------------------------------------------------------------
# functional dependencies


def test_fd_closure_chases_through_intermediate_attributes():
    fds = FDSet([(("A",), ("D",)), (("B", "D"), ("E",))])
    assert fd_closure(fds, ("A", "B", "C")) == {"A", "B", "C", "D", "E"}
    assert fd_closure(fds, ("B",)) == {"B"}


def test_fdset_rejects_empty_left_side():
    with pytest.raises(ValueError):
        FDSet([((), ("A",))])


def test_sigma_reduct_widens_schemas_and_free_set():
    query = q(
        [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))],
        ("A", "B"),
    )
    fds = FDSet([(("B",), ("C",)), (("C",), ("D",))])
    reduct = sigma_reduct(query, fds)
    assert [(d.name, d.schema) for d in reduct.relations] == [
        ("R", ("A", "B", "C", "D")),
        ("S", ("B", "C", "D")),
        ("T", ("C", "D")),
    ]
    assert reduct.free == ("A", "B", "C", "D")
    # widened free variables shed their lifting functions
    assert set(reduct.lifts) == set()


def test_sigma_reduct_turns_the_chain_q_hierarchical():
    query = q(
        [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))],
        ("A", "B", "C", "D"),
    )
    assert not classify(query).q_hierarchical
    reduct = sigma_reduct(query, FDSet([(("B",), ("C",)), (("C",), ("D",))]))
    assert classify(reduct).q_hierarchical
    order = canonical_free_top_order(reduct)
    # one path: C, then D, then B, then A
    assert order.to_nested() == [["C", ["D", ["B", "A"]]]]
    assert order.ancestors("A") == ("C", "D", "B")


# ---------------------------------------------------------------------------
# entry checks


def pair_state(ring, one):
    query = Query(TWO_REL, ("A", "B", "C"), ring)
    order = VariableOrder([["A", ["B"], ["C"]]])
    state = RuntimeState(plan_view_tree(query, order, updatable=("R", "S")))
    state.load({"R": [((1, 10), one)], "S": [((1, 20), one + one)]})
    return state


def stored(state):
    return [
        {name: dict(rel.entries) for name, rel in group.items()}
        for group in (state.leaves, state.views, state.indicator_rels)
    ]


@pytest.mark.parametrize("via", ["load", "apply_batch"])
@pytest.mark.parametrize(
    "ring, one, bad",
    [
        (Z, 1, "x"),
        (Z, 1, None),
        (Z, 1, True),
        (Z, 1, 1.5),
        (real_ring(), 1.0, "x"),
        (real_ring(), 1.0, None),
        (real_ring(), 1.0, True),
    ],
    ids=["int-str", "int-none", "int-bool", "int-float", "real-str", "real-none", "real-bool"],
)
def test_plain_rings_refuse_a_payload_of_another_type(via, ring, one, bad):
    """A payload outside the ring is refused at entry, naming the relation
    and the row, after a valid delta and a valid row, and nothing changes."""
    state = pair_state(ring, one)
    before = stored(state)
    rows = [((1, 11), one), ((1, 12), bad)]
    with pytest.raises(ValueError, match=r"^R row \(1, 12\): payload "):
        if via == "load":
            state.load({"R": rows, "S": [((1, 20), one)]})
        else:
            state.apply_batch([UpdateDelta("S", (((1, 21), one),)), UpdateDelta("R", tuple(rows))])
    assert stored(state) == before


@pytest.mark.parametrize(
    "ring, good",
    [(Z, np.int64(3)), (Z, -2), (real_ring(), 2), (real_ring(), np.float64(0.5))],
    ids=["int-numpy", "int", "real-int", "real-numpy"],
)
def test_plain_rings_take_any_integral_or_real_payload(ring, good):
    state = pair_state(ring, 1 if ring == Z else 1.0)
    state.apply_batch([UpdateDelta("R", (((1, 11), good),))])
    assert state.leaves["R"].entries[(1, 11)] == good


def test_a_range_is_an_integer_not_a_bool():
    # True would be accepted as an extent of 1
    with pytest.raises(ValueError, match="bad range True for X"):
        Query([("A", ("X", "Y"))], ("X", "Y"), real_ring(), ranges={"X": True})


def test_checks_cells_keeps_the_answer_a_fresh_query_gives(monkeypatch):
    def dense():
        return Query([("A", ("X", "Y"))], ("X", "Y"), real_ring(), ranges={"X": 3, "Y": 4})

    shapes = [(3, 4), (3, 5), (4, 3)]
    fresh = [dense().checks_cells("A", ("X", "Y"), shape) for shape in shapes]
    assert fresh == [False, True, True]
    query = dense()
    assert [query.checks_cells("A", ("X", "Y"), shape) for shape in shapes] == fresh

    def planned_again(self, schema):
        raise AssertionError("checks_cells planned a cached answer again")

    monkeypatch.setattr(Query, "dense_shape", planned_again)
    assert [query.checks_cells("A", ("X", "Y"), shape) for shape in shapes] == fresh
