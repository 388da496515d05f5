"""Ring-annotated relation storage and the bulk operators over it."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fivm.relations import (
    DenseRelation,
    IndicatorState,
    OpCounters,
    Relation,
    from_pairs,
    indicator_delta,
    rel_apply_delta,
    rel_join,
    rel_marginalize,
)
from fivm.rings import (
    integer_ring,
    lift_identity,
    lift_singleton,
    lift_to_one,
    lift_unit,
    real_ring,
    relational_payload,
    relational_ring,
)

Z = integer_ring()


def rel(schema, pairs):
    return from_pairs(schema, Z, pairs)


# ---------------------------------------------------------------------------
# storage


def test_a_relation_made_without_counters_counts_on_its_own():
    """``Relation(schema, ring)`` gets a counter block of its own, not
    None: its stores and scans charge it, and no other relation's."""
    first, second = Relation(("A",), Z), Relation(("A",), Z)
    assert type(first.counters) is OpCounters
    assert first.counters is not second.counters
    first.accumulate_all([((1,), 2), ((2,), 3), ((1,), -2)])
    assert first.counters.snapshot() == (3, 3, 0)
    assert list(first.items()) == [((2,), 3)]
    assert first.counters.snapshot() == (4, 3, 0)
    assert second.counters.snapshot() == (0, 0, 0)
    assert type(rel(("A",), [((1,), 1)]).counters) is OpCounters


def test_dense_relation_stores_and_counts_like_a_dict():
    dense = DenseRelation(("A", "B"), real_ring(), (2, 3), OpCounters())
    plain = Relation(("A", "B"), real_ring(), OpCounters())
    rows = [((1, 2), 2.0), ((1, 0), 3.0), ((0, 2), 1.5), ((1, 2), -2.0), ((0, 1), 0.0)]
    for r in (dense, plain):
        r.ensure_index(("A",))
        assert [r.accumulate(k, v) for k, v in rows] == [1, 1, 1, -1, 0]
    assert dense.counters.snapshot() == plain.counters.snapshot()
    assert dense.entries == plain.entries
    # listed in row-major order, as Python ints and floats, counted up front
    listing = dense.items()
    assert dense.counters.entry_reads == plain.counters.entry_reads + 2
    assert list(listing) == [((0, 2), 1.5), ((1, 0), 3.0)]
    key, val = next(dense.entries.items())
    assert [type(x) for x in (*key, val)] == [int, int, float]
    assert dense.index_lookup((("A",), None), (1,)) == [(1, 0)]
    # keys naming no cell are absent, never wrapped or read as flat positions
    for key in [(1, 2), (-1, 0), (0,), (2, 0), ("x", 0)]:
        assert dense.entries.get(key) is None
    for key in [(-1, 0), (0,), (2, 0), ("x", 0), (1.0, 0), (True, 0)]:
        with pytest.raises(ValueError, match="outside the cells"):
            dense.accumulate(key, 1.0)
    assert len(dense.entries) == 2 and sum(dense.entries.values()) == 4.5


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dense_cells_keep_their_nonzero_count(data):
    """Every kind of write keeps ``len`` equal to a fresh count of the
    array: point accumulates and deletes, ``fill``, a contraction's output
    (a copy, not a view of its operand) and an applied delta."""
    ring = real_ring()
    value = st.sampled_from([0.0, 1.0, -1.0, 2.5])
    key = st.tuples(st.integers(0, 2), st.integers(0, 3))

    def counted(rel):
        assert len(rel.entries) == np.count_nonzero(rel.entries.array)
        return rel

    def drawn(schema, shape):
        rel = DenseRelation(schema, ring, shape, OpCounters())
        for k in np.ndindex(shape):
            rel.accumulate(k, data.draw(value, label="cell"))
        return counted(rel)

    rel = DenseRelation(("A", "B"), ring, (3, 4), OpCounters())
    for _ in range(data.draw(st.integers(1, 12), label="writes")):
        op = data.draw(st.sampled_from(["point", "delete", "fill", "contract", "delta"]))
        if op == "point":
            rel.accumulate(data.draw(key), data.draw(value))
        elif op == "delete":
            del rel.entries[data.draw(key)]
        elif op == "fill":
            vec = DenseRelation(("B",), ring, (4,), OpCounters())
            vec.fill(data.draw(st.lists(value, max_size=4), label="values"))
            counted(vec)
        elif op == "contract":
            vec = drawn(("B",), (4,))
            counted(rel_marginalize(rel, ("B",), {"B": lift_to_one("B")}, [(vec, None)]))
            flipped = counted(rel_marginalize(rel, (), {}, schema=("B", "A")))
            flipped.accumulate((0, 0), 1.0)
            assert not np.shares_memory(flipped.entries.array, rel.entries.array)
        else:
            rel_apply_delta(rel, drawn(("A", "B"), (3, 4)))
        counted(rel)


def merged_twice(prefill, rows, indexed=False, shape=(2, 3)):
    """The same rows accumulated into two equal dense relations, one by
    ``DenseRelation.scatter`` (row by row where it declines) and one by
    the row loop; returns both relations."""
    out = []
    for scatter in (True, False):
        rel = DenseRelation(("A", "B"), real_ring(), shape, OpCounters())
        Relation.accumulate_all(rel, prefill)
        if indexed:
            rel.ensure_index(("A",), "B")
        if not (scatter and rel.scatter(rows)):
            Relation.accumulate_all(rel, rows)
        out.append(rel)
    return out


def assert_same_merge(scatter, loop):
    assert scatter.entries.array.tobytes() == loop.entries.array.tobytes()
    assert scatter.entries.count == loop.entries.count
    assert scatter.counters.snapshot() == loop.counters.snapshot()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dense_scatter_merges_like_the_row_loop(data):
    """Repeated keys, exact cancellations, float residues, zero payloads on
    empty and filled cells, pre-filled relations and indexes: the scatter
    and the row loop end with the same bits, count and counters."""
    # a zero payload or an index sends the merge row by row
    mode = data.draw(st.sampled_from(["scatter", "scatter", "zeros", "indexed"]))
    key = st.tuples(st.integers(0, 1), st.integers(0, 2))
    values = [0.1, 0.2, 0.7, -0.1, -0.2, -0.7, 1.0, -1.0, 3, -3, 1e16]
    value = st.sampled_from(values + ([0.0, 0] if mode == "zeros" else []))
    prefill = data.draw(st.lists(st.tuples(key, st.sampled_from(values)), max_size=6))
    rows = data.draw(st.lists(st.tuples(key, value), max_size=24), label="rows")
    scatter, loop = merged_twice(prefill, rows, mode == "indexed")
    assert_same_merge(scatter, loop)


def test_dense_scatter_adds_each_row_in_order():
    """(0.1 + 0.2) + 0.7 is 1.0, but 0.1 + (0.2 + 0.7) is not: a merge that
    summed a cell's rows before adding them to the cell would differ."""
    scatter, loop = merged_twice([((0, 0), 0.1)], [((0, 0), 0.2), ((0, 0), 0.7)])
    assert_same_merge(scatter, loop)
    assert scatter.entries[(0, 0)] == 1.0
    # cells cancelled to zero leave the count, each once however often hit
    rows = [((1, 2), 0.5), ((1, 2), -0.5), ((0, 0), -1.0), ((0, 0), -1.0), ((0, 1), 1)]
    scatter, loop = merged_twice([((0, 0), 2.0), ((1, 2), 1.0)], rows)
    assert scatter.scatter([]) and not scatter.scatter([((1, 2), 0.0)])
    assert_same_merge(scatter, loop)
    assert scatter.entries == {(0, 1): 1.0, (1, 2): 1.0}
    assert scatter.counters.snapshot() == (2 + 5, 2 + 5, 0)


@pytest.mark.parametrize(
    "row",
    [((0, 3), 1.0), ((-1, 0), 1.0), ((True, 0), 1.0), ((np.int64(1), 0), 1.0), ((0,), 1.0),
     ([0, 1], 1.0), ((0, 1), np.float64(1.0)), ((0, 1), True), ((0, 1), 0.0), ((0, 1), 10**400)],
    ids=["high", "negative", "bool", "numpy-int", "short", "list-key", "numpy-float",
         "bool-payload", "zero", "huge-int"],
)
def test_dense_scatter_takes_only_plain_rows(row):
    """A batch with any row the scatter does not take changes nothing and
    is left to the row loop."""
    rel = DenseRelation(("A", "B"), real_ring(), (2, 3), OpCounters())
    assert not rel.scatter([((1, 1), 2.0), row])
    assert rel.counters.snapshot() == (0, 0, 0)
    assert not rel.entries and not rel.entries.array.any()
    assert rel.scatter([((1, 1), 2.0), ((1, 1), 1)]) and rel.entries == {(1, 1): 3.0}


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
    list(r.items())                # one read per entry
    assert c.snapshot() == (2, 1, 0)
    r.ensure_index(("A",))         # one probe per existing entry
    assert c.snapshot() == (2, 1, 1)
    r.accumulate((2,), 1)          # maintains the index: one extra probe
    assert c.snapshot() == (3, 2, 2)
    r.index_lookup((("A",), None), (2,))  # one probe
    assert c.snapshot() == (3, 2, 3)
    assert OpCounters().snapshot() == (0, 0, 0)


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
    groups = r.indexes[spec].get((1,), {})
    assert list(groups) == [11, 13]
    assert r.indexes[spec].get((9,), {}) == {}


def test_grouped_index_drops_empty_buckets():
    r = rel(("A", "B"), [((1, 10), 1)])
    spec = r.ensure_index(("A",), group_var="B")
    r.accumulate((1, 10), -1)
    assert r.indexes[spec] == {}


def test_an_index_added_after_a_store_is_kept_up():
    """A relation that has stored a delta gets a new index, as a listing's
    lazy ``ensure_index`` gives one; the next insert and delete keep it."""
    r = Relation(("A", "B"), Z, OpCounters())
    rel_apply_delta(r, rel(("A", "B"), [((1, 10), 1), ((2, 20), 1)]))
    spec = r.ensure_index(("A",), group_var="B")
    rel_apply_delta(r, rel(("A", "B"), [((1, 11), 1)]))
    assert r.indexes[spec] == {
        (1,): {10: {(1, 10): None}, 11: {(1, 11): None}},
        (2,): {20: {(2, 20): None}},
    }
    r.accumulate((2, 20), -1)
    assert r.indexes[spec] == {(1,): {10: {(1, 10): None}, 11: {(1, 11): None}}}
    # two entries walked by the build, then one probe per support change
    assert r.counters.index_probes == 4


# The index forms a plan asks for: a probe with a group column, a probe
# without one, and the hub form (no probe, grouped by the variable).
INDEX_SPECS = [(("A",), "B"), (("B",), None), ((), "A")]
CELLS = [(a, b) for a in range(3) for b in range(3)]


def positions(spec):
    probe, group = spec
    return tuple("AB".index(v) for v in probe), None if group is None else "AB".index(group)


def reference_store(model, indexes, rows):
    """The row loop as it stood before it was generated: accumulate every
    (key, payload) row into the dict ``model`` and keep each table of
    ``indexes`` (spec -> table) up with ``setdefault`` chains, dropping
    emptied groups and buckets. Returns the support moves and the
    (reads, writes, probes) spent."""
    moves, reads, writes = [], 0, 0
    for key, val in rows:
        reads += 1
        old = model.get(key)
        if old is None:
            if val == 0:
                continue
            model[key] = val
            move = 1
        else:
            val = old + val
            if val != 0:
                model[key] = val
                writes += 1
                continue
            del model[key]
            move = -1
        writes += 1
        for spec, table in indexes.items():
            probe_pos, group_pos = positions(spec)
            probe = tuple(key[i] for i in probe_pos)
            group = None if group_pos is None else key[group_pos]
            if move > 0:
                table.setdefault(probe, {}).setdefault(group, {})[key] = None
            else:
                keys = table[probe][group]
                del keys[key]
                if not keys:
                    del table[probe][group]
                if not table[probe]:
                    del table[probe]
        moves.append((key, move))
    return moves, (reads, writes, len(indexes) * len(moves))


def as_nested(table, spec):
    """An index table as nested dicts, probe -> group -> keys; a dense
    relation's table is read at every probe of its cells."""
    if isinstance(table, dict):
        return {p: {g: dict(keys) for g, keys in b.items()} for p, b in table.items()}
    probe_pos = positions(spec)[0]
    probes = dict.fromkeys(tuple(key[i] for i in probe_pos) for key in CELLS)
    return {p: b for p in probes if (b := table.get(p))}


def in_order(table):
    """A dict index table with the insertion order of every level spelled out."""
    return [(p, [(g, list(keys)) for g, keys in b.items()]) for p, b in table.items()]


def fresh_copy(r):
    """A relation of ``r``'s kind holding its entries and no index."""
    if isinstance(r, DenseRelation):
        copy = DenseRelation(r.schema, r.ring, r.entries.array.shape)
        copy.entries.array[...] = r.entries.array
        copy.entries.count = r.entries.count
    else:
        copy = Relation(r.schema, r.ring)
        copy.entries = dict(r.entries)
    return copy


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_indexes_follow_any_stream_of_stores(data):
    """Dict and dense relations with up to two indexes, some added midway,
    under random ``accumulate`` / ``accumulate_all`` / ``rel_apply_delta``
    steps whose payloads cancel: after every step each index equals a
    fresh build on a copy and holds no empty bucket or group, and the
    moves and counters equal the reference row loop's. A dict index also
    keeps the reference's insertion order at every level."""
    ring = real_ring()
    dense = data.draw(st.booleans(), label="dense")
    counters = OpCounters()
    if dense:
        r = DenseRelation(("A", "B"), ring, (3, 3), counters)
    else:
        r = Relation(("A", "B"), ring, counters)
    model: dict = {}
    ref_indexes: dict = {}
    units = [0, 0, 0]

    def add_index(spec):
        r.ensure_index(*spec)
        units[2] += len(model)
        ref_indexes[spec] = {}
        reference_store({}, {spec: ref_indexes[spec]}, model.items())

    for spec in data.draw(st.lists(st.sampled_from(INDEX_SPECS), max_size=2, unique=True)):
        add_index(spec)
    row = st.tuples(st.sampled_from(CELLS), st.sampled_from([-2, -1, 0, 1, 2]))
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        op = data.draw(st.sampled_from(["accumulate", "all", "delta", "cancel", "index"]))
        if op == "index":
            left = [s for s in INDEX_SPECS if s not in r.indexes]
            if len(r.indexes) < 2:
                add_index(data.draw(st.sampled_from(left)))
            continue
        if op == "accumulate":
            rows = [data.draw(row)]
        elif op == "cancel":
            rows = [(key, -val) for key, val in model.items()]
        else:
            rows = data.draw(st.lists(row, max_size=6))
        if op == "delta":
            if dense and data.draw(st.booleans(), label="dense delta"):
                delta = DenseRelation(("A", "B"), ring, (3, 3))
            else:
                delta = Relation(("A", "B"), ring)
            delta.accumulate_all(rows)
            rows = list(delta.entries.items())
        moves, spent = reference_store(model, ref_indexes, rows)
        units = [u + s for u, s in zip(units, spent)]
        if op == "accumulate":
            move = r.accumulate(*rows[0])
            got = [(rows[0][0], move)] if move else []
        elif op == "delta":
            got = rel_apply_delta(r, delta)
        elif data.draw(st.booleans(), label="moves kept"):
            got = []
            r.accumulate_all(rows, got)
        else:
            r.accumulate_all(rows)
            got = moves
        assert got == moves
        assert dict(r.entries) == model
        assert counters.snapshot() == tuple(units)
        assert r.indexes.keys() == ref_indexes.keys()
        copy = fresh_copy(r)
        for spec, table in r.indexes.items():
            copy.ensure_index(*spec)
            assert as_nested(table, spec) == as_nested(copy.indexes[spec], spec)
            assert as_nested(table, spec) == as_nested(ref_indexes[spec], spec)
            if not dense:
                assert all(bucket and all(bucket.values()) for bucket in table.values())
                assert in_order(table) == in_order(ref_indexes[spec])


# ---------------------------------------------------------------------------
# join / marginalize, pinned to the worked two-column example:
#   R = {(a1,b1): 2, (a2,b1): 3}, S = {(a2,b1): 5, (a3,b2): 7}
#   T = {(b1,c1): 11, (b2,c2): 13}

R_PAIRS = [(("a1", "b1"), 2), (("a2", "b1"), 3)]
S_PAIRS = [(("a2", "b1"), 5), (("a3", "b2"), 7)]
T_PAIRS = [(("b1", "c1"), 11), (("b2", "c2"), 13)]


def test_join_multiplies_matching_payloads():
    u = rel(("A", "B"), R_PAIRS + S_PAIRS)
    j = rel_join(u, rel(("B", "C"), T_PAIRS))
    assert j.schema == ("A", "B", "C")
    assert dict(j.entries) == {
        ("a1", "b1", "c1"): 2 * 11,
        ("a2", "b1", "c1"): (3 + 5) * 11,
        ("a3", "b2", "c2"): 7 * 13,
    }


def test_marginalize_with_counting_lift():
    u = rel(("A", "B"), R_PAIRS + S_PAIRS)
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


def test_dense_operands_that_disagree_on_an_extent_sum_by_the_row_loop():
    """``einsum`` would stretch X's one cell in ``a`` over all four of
    ``b``'s. Operands that disagree on a variable's extent are summed by
    the row loop, which joins only the cells both hold; the same operands
    in one extent are contracted, to the same cells."""
    real = real_ring()
    b = DenseRelation(("X", "Y"), real, (4, 2))
    b.entries[(0, 1)] = 3.0
    b.entries[(2, 0)] = 5.0
    lifts = {"X": lift_to_one("X")}
    for shape, kind in (((1,), Relation), ((4,), DenseRelation)):
        a = DenseRelation(("X",), real, shape)
        a.fill([2.0])
        out = rel_marginalize(a, ("X",), lifts, [(b, None)])
        assert type(out) is kind
        assert dict(out.entries.items()) == {(1,): 6.0}


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
    out = rel_join(left, right, right_index="primary", payload_map=lambda v: 10 * v)
    # the map rewrites every operand, the left one included
    assert dict(out.entries) == {(1,): 20 * 50}


# ---------------------------------------------------------------------------
# the fused operator against the nested-loop oracle

OPERATOR_VARS = "ABCDEF"
PROBE_ROUTES = ["primary", "index", "grouping", "nothing shared"]

# Per ring: payload strategy, ring one, and two lifts per variable with the
# value each gives (a value-weighting lift and one that only counts).
INT_RING = (
    Z,
    st.integers(-3, 3).filter(bool),
    1,
    ((lift_identity, lambda v, x: x), (lift_to_one, lambda v, x: 1)),
)
REL = relational_ring()
REL_RING = (
    REL,
    # payloads over one column "x", so products of disjoint ones cancel
    st.dictionaries(
        st.tuples(st.integers(0, 1)), st.integers(-2, 2).filter(bool), min_size=1, max_size=2
    ).map(lambda d: relational_payload(("x",), d)),
    relational_payload((), {(): 1}),
    (
        (lift_singleton, lambda v, x: relational_payload((v,), {(x,): 1})),
        (lift_unit, lambda v, x: relational_payload((), {(): 1})),
    ),
)


def _operand(draw, ring, payloads, schema):
    keys = st.tuples(*[st.integers(0, 2) for _ in schema])
    pairs = draw(st.dictionaries(keys, payloads, min_size=1, max_size=5))
    return from_pairs(schema, ring, pairs.items())


def _right_schema(draw, route, bound):
    fresh = [v for v in OPERATOR_VARS if v not in bound]
    if route == "nothing shared":
        return tuple(draw(st.permutations(fresh))[:1])
    shared = draw(st.permutations(bound))[: draw(st.integers(1, min(2, len(bound))))]
    if route == "primary":
        return tuple(shared)
    return tuple(draw(st.permutations(list(shared) + fresh[:1])))


@pytest.mark.parametrize("ring_case", [INT_RING, REL_RING], ids=["integer", "relational"])
@pytest.mark.parametrize("route", PROBE_ROUTES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_operator_matches_nested_loop_oracle(ring_case, route, data):
    """Joins of 1-3 relations, the given probe route at one of them, a random
    subset of variables summed out and a permuted output schema."""
    ring, payloads, one, lift_kinds = ring_case
    draw = data.draw
    left_schema = draw(st.permutations("AB"))[: draw(st.integers(1, 2))]
    left = _operand(draw, ring, payloads, tuple(left_schema))
    n_joins = draw(st.integers(1, 3))
    forced = draw(st.integers(0, n_joins - 1))
    bound = left.schema
    joins = []
    for level in range(n_joins):
        r = route if level == forced else draw(st.sampled_from(PROBE_ROUTES))
        right = _operand(draw, ring, payloads, _right_schema(draw, r, bound))
        shared = tuple(v for v in right.schema if v in bound)
        if r == "primary":
            probe = "primary"
        elif r == "index":
            probe = right.ensure_index(shared)
        else:
            probe = None
        joins.append((right, probe))
        bound += tuple(v for v in right.schema if v not in bound)
    drop = [v for v in bound if draw(st.booleans())]
    chosen = {v: draw(st.sampled_from(lift_kinds)) for v in drop}
    keep = [v for v in bound if v not in drop]
    schema = tuple(draw(st.permutations(keep)))

    out = rel_marginalize(
        left, drop, {v: make(v) for v, (make, _) in chosen.items()}, joins, schema
    )

    tables = [(left.schema, left.entries)] + [(r.schema, r.entries) for r, _ in joins]
    want: dict = {}
    for assign, val in oracles.join_rows(tables, one=one):
        for v in drop:
            val = val * chosen[v][1](v, assign[v])
        key = tuple(assign[v] for v in schema)
        want[key] = want[key] + val if key in want else val
    assert out.schema == schema
    assert dict(out.entries) == {k: v for k, v in want.items() if v}


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


def load_indicator(r, schema):
    """An indicator over ``r`` loaded as the runtime loads one: every entry a
    +1 support transition into an empty state."""
    state = IndicatorState(schema, r.ring, r.schema)
    return state, indicator_delta(state, [(k, 1) for k in r.entries])


def test_indicator_project_counts_support():
    r = rel(("A", "B"), [(("a1", "b1"), 1), (("a1", "b2"), 1), (("a2", "b3"), 1)])
    state, proj = load_indicator(r, ("A",))
    assert dict(proj.entries) == {("a1",): 1, ("a2",): 1}
    assert state.counts == {("a1",): 2, ("a2",): 1}


def test_indicator_delta_fires_only_on_zero_crossings():
    """Dropping one of two supporting rows is silent; dropping the last
    one retracts the key."""
    r = rel(("A", "B"), [(("a1", "b1"), 1), (("a1", "b2"), 1), (("a2", "b3"), 1)])
    state, _ = load_indicator(r, ("A",))

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
        load_indicator(r, ("B",))


def test_prefix_enumerate_in_first_insertion_order():
    # a prefix's groups come out of its index bucket in first-insertion order, not sorted
    r = rel(("A", "B"), [((1, 30), 1), ((1, 10), 1), ((2, 5), 1), ((1, 20), 1)])
    spec = r.ensure_index(("A",), group_var="B")
    groups = r.indexes[spec].get((1,), {})
    assert list(groups) == [30, 10, 20]
    assert list(groups[30]) == [(1, 30)]


@pytest.mark.xfail(strict=True, reason="float residue outlives a retraction (ROADMAP item 7)")
def test_real_payloads_retracted_in_another_order_leave_no_entry():
    """0.1 + 0.2 + 0.7 - 0.7 - 0.1 - 0.2 is 2.78e-17 in floating point,
    under ``real_ring``'s default zero tolerance of 0."""
    rel = Relation(("A",), real_ring(), OpCounters())
    for x in (0.1, 0.2, 0.7):
        rel.accumulate(("a",), x)
    for x in (0.7, 0.1, 0.2):
        rel.accumulate(("a",), -x)
    assert dict(rel.entries) == {}
