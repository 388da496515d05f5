"""Ring-annotated relation storage and the bulk operators over it."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fivm.relations import (
    IndicatorState,
    OpCounters,
    Relation,
    from_pairs,
    indicator_delta,
    indicator_project,
    rel_apply_delta,
    rel_join,
    rel_marginalize,
    rel_union,
)
from fivm.rings import (
    integer_ring,
    lift_identity,
    lift_to_one,
    real_ring,
)

Z = integer_ring()


def rel(schema, pairs, counters=None, name=""):
    return from_pairs(schema, Z, pairs, counters=counters, name=name)


# ---------------------------------------------------------------------------
# storage


def test_accumulate_reports_support_transitions():
    r = Relation(("A",), Z)
    assert r.accumulate((1,), 5) == 1
    assert r.accumulate((1,), 2) == 0
    assert r.accumulate((1,), -7) == -1
    assert (1,) not in r.entries


def test_accumulate_zero_on_absent_key_is_noop():
    r = Relation(("A",), Z)
    assert r.accumulate((1,), 0) == 0
    assert r.entries == {}


def test_duplicate_schema_variables_rejected():
    with pytest.raises(ValueError):
        Relation(("A", "A"), Z)


def test_counters_track_reads_writes_probes():
    c = OpCounters()
    r = Relation(("A",), Z, counters=c)
    r.accumulate((1,), 5)          # one read (miss), one write
    assert c.snapshot() == (1, 1, 0)
    r.payload((1,))                # one read
    assert c.snapshot() == (2, 1, 0)
    list(r.items())                # one read per entry
    assert c.snapshot() == (3, 1, 0)
    r.ensure_index(("A",))         # one probe per existing entry
    assert c.snapshot() == (3, 1, 1)
    r.accumulate((2,), 1)          # maintains the index: one extra probe
    assert c.snapshot() == (4, 2, 2)
    c.reset()
    assert c.total() == 0


def test_index_probe_order_follows_schema():
    r = rel(("A", "B", "C"), [((1, 2, 3), 1)])
    spec = r.ensure_index(("C", "A"))
    assert spec == (("A", "C"), None)
    assert r.index_lookup(spec, (1, 3)) == [(1, 2, 3)]


def test_index_rejects_foreign_variables():
    r = rel(("A",), [])
    with pytest.raises(ValueError):
        r.ensure_index(("B",))
    with pytest.raises(ValueError):
        r.ensure_index(("A",), group_var="B")


def test_index_stays_live_under_mutation():
    r = rel(("A", "B"), [((1, 10), 1), ((1, 11), 1), ((2, 12), 1)])
    spec = r.ensure_index(("A",), group_var="B")
    assert sorted(r.index_lookup(spec, (1,))) == [(1, 10), (1, 11)]
    r.accumulate((1, 10), -1)  # deletes the entry
    assert r.index_lookup(spec, (1,)) == [(1, 11)]
    r.accumulate((1, 13), 4)
    assert sorted(r.index_lookup(spec, (1,))) == [(1, 11), (1, 13)]
    groups = r.index_groups(spec, (1,))
    assert list(groups) == [11, 13]
    assert r.index_groups(spec, (9,)) == {}


def test_grouped_index_drops_empty_buckets():
    r = rel(("A", "B"), [((1, 10), 1)])
    spec = r.ensure_index(("A",), group_var="B")
    r.accumulate((1, 10), -1)
    assert r.index_groups(spec, (1,)) == {}
    assert r.indexes[spec] == {}


def test_clone_shares_payloads_not_indexes():
    c1, c2 = OpCounters(), OpCounters()
    r = rel(("A",), [((1,), 3)], counters=c1)
    r.ensure_index(("A",))
    d = r.clone(counters=c2)
    assert d.entries == r.entries
    assert d.indexes == {}
    d.accumulate((1,), 1)
    assert r.payload((1,)) == 3
    assert c2.entry_writes == 1


def test_total_sums_every_payload():
    r = rel(("A", "B"), [((1, 2), 3), ((4, 5), -1)])
    assert r.total() == 2


# ---------------------------------------------------------------------------
# union / join / marginalize, pinned to the worked two-column example:
#   R = {(a1,b1): 2, (a2,b1): 3}, S = {(a2,b1): 5, (a3,b2): 7}
#   T = {(b1,c1): 11, (b2,c2): 13}

R_PAIRS = [(("a1", "b1"), 2), (("a2", "b1"), 3)]
S_PAIRS = [(("a2", "b1"), 5), (("a3", "b2"), 7)]
T_PAIRS = [(("b1", "c1"), 11), (("b2", "c2"), 13)]


def test_union_adds_payloads_keywise():
    u = rel_union(rel(("A", "B"), R_PAIRS), rel(("A", "B"), S_PAIRS))
    assert dict(u.entries) == {
        ("a1", "b1"): 2,
        ("a2", "b1"): 3 + 5,
        ("a3", "b2"): 7,
    }


def test_union_schema_mismatch_rejected():
    with pytest.raises(ValueError):
        rel_union(rel(("A",), []), rel(("B",), []))


def test_join_multiplies_matching_payloads():
    u = rel_union(rel(("A", "B"), R_PAIRS), rel(("A", "B"), S_PAIRS))
    j = rel_join(u, rel(("B", "C"), T_PAIRS))
    assert j.schema == ("A", "B", "C")
    assert dict(j.entries) == {
        ("a1", "b1", "c1"): 2 * 11,
        ("a2", "b1", "c1"): (3 + 5) * 11,
        ("a3", "b2", "c2"): 7 * 13,
    }


def test_marginalize_with_counting_lift():
    u = rel_union(rel(("A", "B"), R_PAIRS), rel(("A", "B"), S_PAIRS))
    j = rel_join(u, rel(("B", "C"), T_PAIRS))
    m = rel_marginalize(j, ("A",), {"A": lift_to_one("A")})
    assert m.schema == ("B", "C")
    assert dict(m.entries) == {
        ("b1", "c1"): 2 * 11 + (3 + 5) * 11,
        ("b2", "c2"): 7 * 13,
    }


def test_marginalize_with_value_lift_weights_each_row():
    # Same shape, numeric A values, summing A itself into the payload.
    real = real_ring()
    u = from_pairs(("A", "B"), real, [((101.0, "b1"), 2.0), ((102.0, "b1"), 8.0)])
    t = from_pairs(("B", "C"), real, [(("b1", "c1"), 11.0)])
    j = rel_join(u, t)
    m = rel_marginalize(j, ("A",), {"A": lift_identity("A")})
    assert dict(m.entries) == {("b1", "c1"): 2.0 * 11.0 * 101.0 + 8.0 * 11.0 * 102.0}


def test_marginalize_requires_a_lift():
    r = rel(("A", "B"), [((1, 2), 1)])
    with pytest.raises(ValueError):
        rel_marginalize(r, ("A",), {})
    with pytest.raises(ValueError):
        rel_marginalize(r, ("Z",), {"Z": lift_to_one("Z")})


def test_join_drops_cancelled_outputs():
    left = rel(("A",), [((1,), 2), ((2,), 1)])
    right = rel(("A", "B"), [((1, 5), 3), ((1, 6), -3)])
    j = rel_marginalize(
        rel_join(left, right), ("B",), {"B": lift_to_one("B")}
    )
    assert dict(j.entries) == {}


JOIN_ROUTES = ["transient", "primary", "index", "cartesian"]


def _join_via(route, left, right, shared):
    if route == "primary":
        if set(shared) != set(right.schema):
            pytest.skip("primary probe needs full-schema binding")
        return rel_join(left, right, right_index="primary")
    if route == "index":
        spec = right.ensure_index(shared)
        return rel_join(left, right, right_index=spec)
    if route == "cartesian":
        if shared:
            pytest.skip("cartesian route only without shared variables")
        return rel_join(left, right)
    return rel_join(left, right)


@pytest.mark.parametrize("route", JOIN_ROUTES)
def test_join_routes_agree(route):
    left = rel(("A", "B"), [((1, 10), 2), ((2, 10), 3), ((2, 11), 1)])
    right = rel(("B", "C"), [((10, 5), 7), ((11, 6), 1), ((12, 7), 9)])
    out = _join_via(route, left, right, ("B",))
    assert dict(out.entries) == {
        (1, 10, 5): 14,
        (2, 10, 5): 21,
        (2, 11, 6): 1,
    }


@settings(max_examples=80, deadline=None)
@given(
    left=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-4, 4).filter(bool),
        max_size=8,
    ),
    right=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-4, 4).filter(bool),
        max_size=8,
    ),
)
def test_join_matches_nested_loop_oracle(left, right):
    lrel = rel(("A", "B"), left.items())
    rrel = rel(("B", "C"), right.items())
    got = dict(rel_join(lrel, rrel).entries)
    want = {}
    for assign, mult in oracles.join_rows([(("A", "B"), left), (("B", "C"), right)]):
        key = (assign["A"], assign["B"], assign["C"])
        want[key] = want.get(key, 0) + mult
    want = {k: v for k, v in want.items() if v != 0}
    assert got == want
    # and the indexed route agrees entry for entry
    spec = rrel.ensure_index(("B",))
    assert dict(rel_join(lrel, rrel, right_index=spec).entries) == want


def test_primary_probe_needs_fully_bound_right():
    left = rel(("A",), [((1,), 1)])
    right = rel(("A", "B"), [((1, 2), 1)])
    with pytest.raises(ValueError):
        rel_join(left, right, right_index="primary")


def test_index_probe_must_cover_join_vars():
    left = rel(("A", "B"), [((1, 2), 1)])
    right = rel(("B", "C"), [((2, 3), 1)])
    spec = right.ensure_index(("C",))
    with pytest.raises(ValueError):
        rel_join(left, right, right_index=spec)


def test_join_right_map_rewrites_payload_before_multiplying():
    left = rel(("A",), [((1,), 2)])
    right = rel(("A",), [((1,), 5)])
    out = rel_join(left, right, right_index="primary", right_map=lambda v: 10 * v)
    assert dict(out.entries) == {(1,): 100}


# ---------------------------------------------------------------------------
# deltas and indicators


def test_apply_delta_returns_transitions_in_delta_order():
    target = rel(("A",), [((1,), 1), ((2,), 4)])
    delta = rel(("A",), [((1,), -1), ((2,), 1), ((3,), 9)])
    transitions = rel_apply_delta(target, delta)
    assert transitions == [((1,), -1), ((3,), 1)]
    assert dict(target.entries) == {(2,): 5, (3,): 9}


def test_apply_delta_schema_checked():
    with pytest.raises(ValueError):
        rel_apply_delta(rel(("A",), []), rel(("B",), []))


def test_indicator_project_counts_support():
    r = rel(("A", "B"), [(("a1", "b1"), 1), (("a1", "b2"), 1), (("a2", "b3"), 1)])
    state, proj = indicator_project(r, ("A",))
    assert dict(proj.entries) == {("a1",): 1, ("a2",): 1}
    assert state.counts == {("a1",): 2, ("a2",): 1}


def test_indicator_delta_fires_only_on_zero_crossings():
    """Dropping one of two supporting rows is silent; dropping the last
    one retracts the key."""
    r = rel(("A", "B"), [(("a1", "b1"), 1), (("a1", "b2"), 1), (("a2", "b3"), 1)])
    state, _ = indicator_project(r, ("A",))

    d1 = indicator_delta(state, [(("a1", "b2"), -1)])
    assert dict(d1.entries) == {}
    d2 = indicator_delta(state, [(("a1", "b1"), -1)])
    assert dict(d2.entries) == {("a1",): -1}
    assert state.counts == {("a2",): 1}

    d3 = indicator_delta(state, [(("a1", "b9"), 1)])
    assert dict(d3.entries) == {("a1",): 1}


def test_indicator_negative_support_rejected():
    state = IndicatorState(("A",), Z, ("A", "B"))
    with pytest.raises(ValueError):
        indicator_delta(state, [(("a1", "b1"), -1)])


def test_indicator_projection_schema_checked():
    r = rel(("A",), [])
    with pytest.raises(ValueError):
        indicator_project(r, ("B",))


def test_prefix_enumerate_in_first_insertion_order():
    # a prefix's groups come out of index_groups in first-insertion order, not sorted
    r = rel(("A", "B"), [((1, 30), 1), ((1, 10), 1), ((2, 5), 1), ((1, 20), 1)])
    spec = r.ensure_index(("A",), group_var="B")
    groups = r.index_groups(spec, (1,))
    assert list(groups) == [30, 10, 20]
    assert list(groups[30]) == [(1, 30)]
