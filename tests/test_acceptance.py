"""Acceptance gate: seven end-to-end checks, one verdict line apiece.

Every check here pins its own tolerances and budgets as module constants.
A red criterion means the engine is wrong; the numbers below are part of
the contract and never move to make a run green.

Run with plain pytest; the verdict lines bypass capture so a full suite
run still shows the seven-line summary.
"""

from __future__ import annotations

import csv
import math
import random
import time
from contextlib import contextmanager

import numpy as np

import oracles
from fivm.apps import (
    CATEGORICAL,
    CONTINUOUS,
    RegressionConfig,
    build_covariance_query,
    build_matrix_chain,
    chow_liu_tree,
    mcm_rank_update,
    mutual_information_matrix,
    train_linear_regression,
)
from fivm.enumeration import enumerate_result
from fivm.harness.engines import ENGINE_NAMES, emit_metrics, run_scenario, verify_scenarios
from fivm.harness.scenario import bundled_scenarios, compile_scenario, load_scenario
from fivm.ivm import RuntimeState, UpdateDelta
from fivm.queries import (
    RELATIONAL_PAYLOAD,
    FDSet,
    Query,
    VariableOrder,
    canonical_free_top_order,
    classify,
    sigma_reduct,
)
from fivm.rings import (
    RELATIONAL,
    CovarianceTriple,
    covariance_ring,
    integer_ring,
    is_zero,
    lift_categorical,
    lift_continuous,
    lift_singleton,
    lift_to_one,
    lift_unit,
    real_ring,
    relational_ring,
    ring_add,
    ring_negate,
    ring_one,
)
from fivm.viewtree import plan_view_tree

TRIAL_COUNT = 500
TRIAL_BUDGET_S = 300.0
SCALING_BUDGET_S = 120.0
GROWTH_RANGE = (2.0, 6.0)
THETA_TOL = 1e-6
TREE_WEIGHT_TOL = 1e-9
PRODUCT_MI_TOL = 1e-12
CHAIN_REL_ERR = 1e-9
UPDATE_SLOPE_RANGE = (1.7, 2.3)
REBUILD_SLOPE_RANGE = (2.7, 3.3)


@contextmanager
def verdict(capsys, number, label):
    """Print one PASS/FAIL line per criterion, visible despite capture."""
    info = {"detail": ""}
    started = time.perf_counter()
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    tail = f"; {info['detail']}" if info["detail"] else ""
    with capsys.disabled():
        print(f"criterion {number} ({label}): PASS ({elapsed:.1f}s{tail})")


def entry_dict(value):
    """Payloads, plain numbers, and oracle dicts in one comparable form."""
    if value is None:
        return {}
    if hasattr(value, "entries"):
        return dict(value.entries)
    if isinstance(value, dict):
        return {k: v for k, v in value.items() if v}
    return {(): value} if value else {}


# ---------------------------------------------------------------------------
# criterion 1: randomized maintenance trials across shapes and rings


SHAPES = ("star", "chain", "snowflake", "triangle", "four_loop")


def _shape(kind, rng):
    """Relations and a matching variable order for one join shape."""
    if kind == "star":
        k = rng.randint(2, 4)
        rels = [(f"R{i}", ("J", f"A{i}")) for i in range(1, k + 1)]
        return rels, VariableOrder([["J"] + [[f"A{i}"] for i in range(1, k + 1)]])
    if kind == "chain":
        k = rng.randint(2, 4)
        rels = [(f"R{i}", (f"V{i}", f"V{i + 1}")) for i in range(1, k + 1)]
        node = [f"V{k + 1}"]
        for i in range(k, 2, -1):
            node = [f"V{i}", node]
        return rels, VariableOrder([["V2", ["V1"], node]])
    if kind == "snowflake":
        k = rng.randint(2, 3)
        rels = [("F", tuple(f"J{i}" for i in range(1, k + 1)))]
        rels += [(f"D{i}", (f"J{i}", f"A{i}")) for i in range(1, k + 1)]
        node = [f"J{k}", [f"A{k}"]]
        for i in range(k - 1, 0, -1):
            node = [f"J{i}", node, [f"A{i}"]]
        return rels, VariableOrder([node])
    if kind == "triangle":
        rels = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))]
        return rels, VariableOrder([["A", ["B", ["C"]]]])
    rels = [
        ("R1", ("A", "B")),
        ("R2", ("B", "C")),
        ("R3", ("C", "D")),
        ("R4", ("A", "D")),
    ]
    return rels, VariableOrder([["A", ["B", ["C", ["D"]]]]])


def _trial_query(kind, rels, ring_kind, rng):
    variables = []
    for _, schema in rels:
        for v in schema:
            if v not in variables:
                variables.append(v)
    if ring_kind in ("integer", "real"):
        ring = integer_ring() if ring_kind == "integer" else real_ring()
        free = tuple(v for v in variables if rng.random() < 0.4)
        lifts = tuple(lift_to_one(v) for v in variables if v not in free)
        return Query(rels, free, ring, lifts=lifts)
    if ring_kind == "relational":
        ring = relational_ring()
        if kind == "star" and rng.random() < 0.5:
            # root-anchored free variable, factorized payload layout
            lifts = tuple(
                (lift_singleton if rng.random() < 0.5 else lift_unit)(v)
                for v in variables
                if v != "J"
            )
            return Query(
                rels, ("J",), ring, lifts=lifts, free_lift_mode=RELATIONAL_PAYLOAD
            )
        free = tuple(v for v in variables if rng.random() < 0.3)
        lifts = tuple(
            (lift_singleton if rng.random() < 0.5 else lift_unit)(v)
            for v in variables
            if v not in free
        )
        return Query(rels, free, ring, lifts=lifts)
    m = rng.randint(2, min(6, len(variables)))
    slot_vars = rng.sample(variables, m)
    cat_var = rng.choice(slot_vars) if rng.random() < 0.3 else None
    ring = covariance_ring(m, base=RELATIONAL if cat_var else "real")
    free = tuple(
        v for v in variables if v not in slot_vars and rng.random() < 0.2
    )
    lifts = []
    for v in variables:
        if v in slot_vars:
            slot = slot_vars.index(v) + 1
            maker = lift_categorical if v == cat_var else lift_continuous
            lifts.append(maker(v, slot))
        elif v not in free:
            lifts.append(lift_to_one(v))
    return Query(rels, free, ring, lifts=tuple(lifts))


def _draw_payload(ring_kind, ring, rng):
    if ring_kind == "integer":
        return rng.choice((-2, -1, 1, 2, 3))
    if ring_kind == "real":
        return float(rng.choice((-2, -1, 1, 2, 3)))
    one = ring_one(ring)
    return ring_negate(ring, one) if rng.random() < 0.25 else one


def _shadow_add(ring, table, key, val):
    cur = table.get(key)
    new = val if cur is None else ring_add(ring, cur, val)
    if is_zero(ring, new):
        table.pop(key, None)
    else:
        table[key] = new


def _assert_matches_fresh(state, shadow):
    fresh = RuntimeState(
        state.tree, factorized_payloads=state.payload_xform is not None
    )
    fresh.load({name: list(table.items()) for name, table in shadow.items()})
    for decl in state.query.relations:
        got = state.leaves[decl.leaf_id].entries
        assert dict(got) == shadow[decl.name], f"leaf {decl.leaf_id}"
    for vid, rel in state.views.items():
        assert rel.entries == fresh.views[vid].entries, vid
    for iid, rel in state.indicator_rels.items():
        assert rel.entries == fresh.indicator_rels[iid].entries, iid
    assert dict(state.result().entries) == dict(fresh.result().entries)


def test_criterion_1_randomized_maintenance(capsys):
    rng = random.Random(2026)
    with verdict(capsys, 1, "randomized maintenance trials") as info:
        started = time.perf_counter()
        combos = set()
        max_rows = 0
        for trial in range(TRIAL_COUNT):
            kind = SHAPES[trial % len(SHAPES)]
            ring_kind = rng.choice(("integer", "real", "covariance", "relational"))
            combos.add((kind, ring_kind))
            rels, order = _shape(kind, rng)
            query = _trial_query(kind, rels, ring_kind, rng)
            ring = query.ring
            names = [n for n, _ in rels]
            updatable = list(names)
            if trial % 7 == 3 and len(updatable) > 1:
                updatable.remove(rng.choice(updatable))
            tree = plan_view_tree(query, order, updatable=tuple(updatable))
            state = RuntimeState(tree)

            heavy = ring_kind in ("integer", "real") and trial % 11 == 5
            doms = {
                v: rng.randint(5, 12) if heavy else rng.randint(2, 6)
                for _, schema in rels
                for v in schema
            }
            schemas = dict(rels)
            shadow = {n: {} for n in names}
            for name in names:
                rows = rng.randint(100, 200) if heavy else rng.randint(8, 40)
                max_rows = max(max_rows, rows)
                for _ in range(rows):
                    key = tuple(rng.randrange(doms[v]) for v in schemas[name])
                    _shadow_add(ring, shadow[name], key, _draw_payload(ring_kind, ring, rng))
            state.load({n: list(t.items()) for n, t in shadow.items()})

            for _ in range(rng.randint(2, 4)):
                batch = {}
                for _ in range(rng.randint(1, 6)):
                    name = rng.choice(updatable)
                    existing = list(shadow[name])
                    if existing and rng.random() < 0.4:
                        key = rng.choice(existing)
                    else:
                        key = tuple(rng.randrange(doms[v]) for v in schemas[name])
                    cur = shadow[name].get(key)
                    if cur is not None and rng.random() < 0.3:
                        val = ring_negate(ring, cur)  # full removal
                    else:
                        val = _draw_payload(ring_kind, ring, rng)
                    batch.setdefault(name, []).append((key, val))
                    _shadow_add(ring, shadow[name], key, val)
                state.apply_batch(
                    [UpdateDelta(n, tuple(p)) for n, p in batch.items()]
                )
                _assert_matches_fresh(state, shadow)

            if ring_kind == "integer" and not query.free:
                sizes = 1
                for n in names:
                    sizes *= max(len(shadow[n]), 1)
                if sizes <= 200_000:
                    expect = oracles.aggregate(
                        [(schemas[n], dict(shadow[n])) for n in names], ()
                    )
                    assert dict(state.result().entries) == expect

        elapsed = time.perf_counter() - started
        assert elapsed < TRIAL_BUDGET_S
        info["detail"] = (
            f"{TRIAL_COUNT} trials over {len(combos)} shape/ring mixes, "
            f"largest relation {max_rows} rows"
        )


# ---------------------------------------------------------------------------
# criterion 2: the worked-example pack, exact values


PACK_RELS = [("R", ("A", "B")), ("S", ("A", "C", "E")), ("T", ("C", "D"))]
PACK_ORDER = VariableOrder([["A", ["B"], ["C", ["D"], ["E"]]]])

PACK_ROWS = {
    "R": [("a1", "b1"), ("a1", "b2"), ("a2", "b3"), ("a3", "b4")],
    "S": [
        ("a1", "c1", "e1"),
        ("a1", "c1", "e2"),
        ("a1", "c2", "e3"),
        ("a2", "c2", "e4"),
    ],
    "T": [("c1", "d1"), ("c2", "d2"), ("c2", "d3"), ("c3", "d4")],
}

PACK_LISTING = {
    ("a1", "b1", "c1", "d1"): 2,
    ("a1", "b1", "c2", "d2"): 1,
    ("a1", "b1", "c2", "d3"): 1,
    ("a1", "b2", "c1", "d1"): 2,
    ("a1", "b2", "c2", "d2"): 1,
    ("a1", "b2", "c2", "d3"): 1,
    ("a2", "b3", "c2", "d2"): 1,
    ("a2", "b3", "c2", "d3"): 1,
}

PACK_NUM_RELS = [("R", ("A", "B")), ("T", ("C", "D")), ("S", ("A", "C", "E"))]

PACK_NUM_ROWS = {
    "R": [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)],
    "S": [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (1.0, 2.0, 3.0), (2.0, 2.0, 4.0)],
    "T": [(1.0, 1.0), (2.0, 2.0), (2.0, 3.0), (3.0, 4.0)],
}


def _count_state():
    ring = integer_ring()
    query = Query(
        PACK_RELS, (), ring, lifts=tuple(lift_to_one(v) for v in "ABCDE")
    )
    tree = plan_view_tree(query, PACK_ORDER, updatable=("R", "S", "T"))
    state = RuntimeState(tree)
    state.load({n: [(k, 1) for k in rows] for n, rows in PACK_ROWS.items()})
    return state


def _listing_state(factorized):
    ring = relational_ring()
    query = Query(
        PACK_RELS,
        ("A", "B", "C", "D"),
        ring,
        lifts=(lift_unit("E"),),
        free_lift_mode=RELATIONAL_PAYLOAD,
    )
    tree = plan_view_tree(query, PACK_ORDER, updatable=("R", "S", "T"))
    state = RuntimeState(tree, factorized_payloads=factorized)
    one = ring_one(ring)
    state.load({n: [(k, one) for k in rows] for n, rows in PACK_ROWS.items()})
    return state


def test_criterion_2_worked_example_pack(capsys):
    with verdict(capsys, 2, "worked example pack") as info:
        # count aggregate and a mixed deletion/insertion trace
        state = _count_state()
        assert dict(state.result().entries) == {(): 10}
        assert dict(state.views["V@C(S+T)"].entries) == {("a1",): 4, ("a2",): 2}
        before = {vid: dict(rel.entries) for vid, rel in state.views.items()}
        state.apply_batch([UpdateDelta("T", ((("c1", "d1"), -1), (("c2", "d2"), 3)))])
        assert dict(state.views["V@D(T)"].entries) == {
            k: v
            for k, v in {
                ("c1",): before["V@D(T)"][("c1",)] - 1,
                ("c2",): before["V@D(T)"][("c2",)] + 3,
                ("c3",): before["V@D(T)"][("c3",)],
            }.items()
            if v
        }
        assert dict(state.views["V@C(S+T)"].entries) == {("a1",): 5, ("a2",): 5}
        assert dict(state.result().entries) == {(): 15}

        # covariance triples collected level by level over the same shape
        cq = build_covariance_query(
            PACK_NUM_RELS, {v: CONTINUOUS for v in "ABCDE"}
        )
        tree = plan_view_tree(cq.query, PACK_ORDER, updatable=("R", "S", "T"))
        cov = RuntimeState(tree)
        one = ring_one(cq.query.ring)
        cov.load(
            {n: [(tuple(k), one) for k in rows] for n, rows in PACK_NUM_ROWS.items()}
        )
        assert cov.views["V@C(S+T)"].entries.get((2.0,)) == CovarianceTriple(
            2.0,
            {3: 4.0, 4: 5.0, 5: 8.0},
            {
                (3, 3): 8.0,
                (3, 4): 10.0,
                (3, 5): 16.0,
                (4, 4): 13.0,
                (4, 5): 20.0,
                (5, 5): 32.0,
            },
        )
        c, s, q = oracles.statistics(
            [(dict(PACK_NUM_RELS)[n], {tuple(k): 1 for k in rows}) for n, rows in PACK_NUM_ROWS.items()],
            cq.slots,
        )
        root = cov.result().entries.get(())
        assert entry_dict(root.c) == entry_dict(c)
        for j in range(1, 6):
            assert entry_dict(root.s.get(j)) == entry_dict(s[j])

        # the eight-row listing, in both payload layouts
        flat = _listing_state(False)
        packed = _listing_state(True)
        for st in (flat, packed):
            assert {k: v.total() for k, v in enumerate_result(st)} == PACK_LISTING

        # structural classifications
        count_query = _count_state().query
        cls = classify(count_query)
        assert cls.acyclic and not cls.hierarchical and not cls.q_hierarchical
        tri = classify(
            Query(
                [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))],
                (),
                integer_ring(),
                lifts=tuple(lift_to_one(v) for v in "ABC"),
            )
        )
        assert not tri.acyclic
        pairs = Query(
            [("R", ("A", "B")), ("S", ("A", "C"))],
            ("A", "B", "C"),
            integer_ring(),
        )
        assert classify(pairs).q_hierarchical

        # dependency-set reduct turns the chain q-hierarchical
        chain = Query(
            [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))],
            ("A", "B", "C", "D"),
            integer_ring(),
        )
        assert not classify(chain).q_hierarchical
        reduct = sigma_reduct(chain, FDSet([(("B",), ("C",)), (("C",), ("D",))]))
        assert [(d.name, d.schema) for d in reduct.relations] == [
            ("R", ("A", "B", "C", "D")),
            ("S", ("B", "C", "D")),
            ("T", ("C", "D")),
        ]
        assert classify(reduct).q_hierarchical
        assert canonical_free_top_order(reduct).to_nested() == [
            ["C", ["D", ["B", "A"]]]
        ]

        info["detail"] = "root 10 -> 15 trace, 8-row listing both layouts, reduct path C/D/B/A"


# ---------------------------------------------------------------------------
# criterion 3: update and enumeration cost scaling


def _pairs_state(n):
    ring = relational_ring()
    query = Query(
        [("R", ("A", "B")), ("S", ("A", "C"))],
        ("A", "B", "C"),
        ring,
        free_lift_mode=RELATIONAL_PAYLOAD,
    )
    order = canonical_free_top_order(query)
    tree = plan_view_tree(query, order, updatable=("R", "S"))
    state = RuntimeState(tree)
    one = ring_one(ring)
    state.load(
        {
            "R": [((i, 10 * i), one) for i in range(n)],
            "S": [((i, 10 * i + 1), one) for i in range(n)],
        }
    )
    return state, one


def _single_insert_cost(n):
    state, one = _pairs_state(n)
    before = state.counters.snapshot()
    state.apply_batch([UpdateDelta("R", (((7, -1), one),))])
    after = state.counters.snapshot()
    return tuple(b - a for a, b in zip(before, after))


def _growing_insert_cost(n):
    # Full listing over a non-hierarchical chain: one new T tuple at a hub
    # value must touch every S row referencing that hub, so the cost of a
    # single-tuple update scales with the database.
    ring = integer_ring()
    query = Query(
        [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))],
        ("A", "B", "C", "D"),
        ring,
    )
    order = VariableOrder([["B", ["A"], ["C", ["D"]]]])
    tree = plan_view_tree(query, order, updatable=("R", "S", "T"))
    state = RuntimeState(tree)
    hubs = 10
    state.load(
        {
            "R": [((i, i), 1) for i in range(n)],
            "S": [((i, i % hubs), 1) for i in range(n)],
            "T": [((j % hubs, 1_000_000 + j), 1) for j in range(100)],
        }
    )
    before = sum(state.counters.snapshot())
    state.apply_batch([UpdateDelta("T", (((3, -1), 1),))])
    return sum(state.counters.snapshot()) - before


def _max_enumeration_gap(state, limit=200):
    gaps = []
    prev = None
    produced = 0
    for _ in enumerate_result(state):
        cur = sum(state.counters.snapshot())
        if prev is not None:
            gaps.append(cur - prev)
        prev = cur
        produced += 1
        if produced >= limit:
            break
    return max(gaps)


def test_criterion_3_cost_scaling(capsys):
    with verdict(capsys, 3, "update and enumeration scaling") as info:
        started = time.perf_counter()
        small = _single_insert_cost(1000)
        big = _single_insert_cost(4000)
        # writes and probes for one insert must not budge with scale
        assert small[1] == big[1], (small, big)
        assert small[2] == big[2], (small, big)
        ratio = (big[1] + big[2]) / (small[1] + small[2])

        grow_small = _growing_insert_cost(1000)
        grow_big = _growing_insert_cost(4000)
        growth = grow_big / grow_small
        assert GROWTH_RANGE[0] <= growth <= GROWTH_RANGE[1], growth

        gap_small = _max_enumeration_gap(_pairs_state(1000)[0])
        gap_big = _max_enumeration_gap(_pairs_state(4000)[0])
        assert gap_small == gap_big, (gap_small, gap_big)

        elapsed = time.perf_counter() - started
        assert elapsed < SCALING_BUDGET_S
        info["detail"] = (
            f"insert ratio {ratio:.2f}, growth x{growth:.2f}, "
            f"enumeration gap {gap_big} ops at both sizes"
        )


# ---------------------------------------------------------------------------
# criterion 4: indicator projections bound the cyclic intermediate


def _triangle_state(r_edges, s_edges, t_edges, indicators=True):
    query = Query(
        [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))],
        (),
        integer_ring(),
        lifts=tuple(lift_to_one(v) for v in "ABC"),
    )
    tree = plan_view_tree(
        query,
        VariableOrder([["A", ["B", ["C"]]]]),
        updatable=("R", "S", "T"),
        indicators=indicators,
    )
    state = RuntimeState(tree)
    state.load(
        {
            "R": [(e, 1) for e in r_edges],
            "S": [(e, 1) for e in s_edges],
            "T": [(e, 1) for e in t_edges],
        }
    )
    return state


def _view_at_c(state):
    matches = [vid for vid in state.views if vid.startswith("V@C")]
    assert len(matches) == 1, matches
    return state.views[matches[0]]


def test_criterion_4_triangle_indicators(capsys):
    with verdict(capsys, 4, "triangle indicator bounds") as info:
        rng = random.Random(41)
        edges = set()
        while len(edges) < 20_000:
            u = rng.randrange(5000)
            v = rng.randrange(5000)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        edges = sorted(edges)
        state = _triangle_state(edges, edges, edges)
        guarded = len(_view_at_c(state).entries)
        assert guarded <= 20_000
        expected = oracles.triangle_count(edges, edges, [(c, a) for a, c in edges])
        assert state.result().entries.get((), 0) == expected

        # dense bipartite halves sharing every hub: the unguarded join of
        # S and T pairs all (a, b), the guarded one stays within R
        a_side = range(150)
        b_side = range(1000, 1150)
        hubs = range(2000, 2040)
        s_edges = [(b, c) for b in b_side for c in hubs]
        t_edges = [(a, c) for a in a_side for c in hubs]
        r_edges = sorted(
            {(rng.randrange(150), 1000 + rng.randrange(150)) for _ in range(400)}
        )
        n_adv = len(s_edges)
        with_ind = _triangle_state(r_edges, s_edges, t_edges)
        without = _triangle_state(r_edges, s_edges, t_edges, indicators=False)
        bound = len(_view_at_c(with_ind).entries)
        blowup = len(_view_at_c(without).entries)
        assert bound <= n_adv
        assert bound <= len(r_edges)
        assert blowup > n_adv
        adv_expected = oracles.triangle_count(
            r_edges, s_edges, [(c, a) for a, c in t_edges]
        )
        assert with_ind.result().entries.get((), 0) == adv_expected
        assert without.result().entries.get((), 0) == adv_expected

        info["detail"] = (
            f"{expected} triangles in the random graph, guarded view {guarded} <= 20000; "
            f"adversarial {blowup} unguarded vs {bound} guarded (N={n_adv})"
        )


# ---------------------------------------------------------------------------
# criterion 5: statistics applications against independent oracles


def _path_order(schema):
    node = [schema[-1]]
    for v in reversed(schema[:-1]):
        node = [v, node]
    return VariableOrder([node])


def _stats_state(schema, kinds, keyed_rows):
    cq = build_covariance_query([("R", schema)], kinds)
    tree = plan_view_tree(cq.query, _path_order(schema), updatable=("R",))
    state = RuntimeState(tree)
    one = ring_one(cq.query.ring)
    state.load({"R": [(tuple(k), one) for k in keyed_rows]})
    return cq, state


def _assert_one_hot_equivalent(rows, cats):
    """A categorical slot must carry the same mass as data-level 0/1 columns."""
    cat_cq, cat_state = _stats_state(
        ("G", "X", "Y"),
        {"G": CATEGORICAL, "X": CONTINUOUS, "Y": CONTINUOUS},
        rows,
    )
    hot_schema = tuple(f"I{g}" for g in range(cats)) + ("X", "Y")
    hot_rows = [
        tuple(1 if r[0] == g else 0 for g in range(cats)) + (r[1], r[2])
        for r in rows
    ]
    _, hot_state = _stats_state(
        hot_schema, {v: CONTINUOUS for v in hot_schema}, hot_rows
    )
    ct = cat_state.result().entries.get(())
    ht = hot_state.result().entries.get(())
    assert entry_dict(ct.c) == entry_dict(float(len(rows)))
    counts = entry_dict(ct.s.get(1))
    diag = entry_dict(ct.Q.get((1, 1)))
    cx = entry_dict(ct.Q.get((1, 2)))
    cy = entry_dict(ct.Q.get((1, 3)))
    for g in range(cats):
        assert counts.get((g,), 0) == entry_dict(ht.s.get(g + 1)).get((), 0)
        assert diag.get((g,), 0) == entry_dict(ht.Q.get((g + 1, g + 1))).get((), 0)
        assert cx.get((g,), 0) == entry_dict(ht.Q.get((g + 1, cats + 1))).get((), 0)
        assert cy.get((g,), 0) == entry_dict(ht.Q.get((g + 1, cats + 2))).get((), 0)
        for h in range(g + 1, cats):
            assert entry_dict(ht.Q.get((g + 1, h + 1))) == {}
    for j, j2 in ((2, cats + 1), (3, cats + 2)):
        assert entry_dict(ct.s.get(j)) == entry_dict(ht.s.get(j2))
    pairs = (((2, 2), (cats + 1, cats + 1)), ((2, 3), (cats + 1, cats + 2)),
             ((3, 3), (cats + 2, cats + 2)))
    for (i, j), (i2, j2) in pairs:
        assert entry_dict(ct.Q.get((i, j))) == entry_dict(ht.Q.get((i2, j2)))
    c, s, q = oracles.statistics(
        [(("G", "X", "Y"), _as_table(rows))], ("G", "X", "Y"), categorical=("G",)
    )
    assert entry_dict(ct.c) == entry_dict(c)
    for j in (1, 2, 3):
        assert entry_dict(ct.s.get(j)) == entry_dict(s[j])
    for key in q:
        assert entry_dict(ct.Q.get(key)) == entry_dict(q[key])


def _as_table(rows):
    table = {}
    for r in rows:
        table[tuple(r)] = table.get(tuple(r), 0) + 1
    return table


def test_criterion_5_statistics_applications(capsys):
    rng = random.Random(77)
    with verdict(capsys, 5, "statistics applications") as info:
        for _ in range(10):
            cats = rng.randint(2, 3)
            rows = [
                (rng.randrange(cats), rng.randint(-3, 4), rng.randint(-2, 3))
                for _ in range(rng.randint(6, 14))
            ]
            _assert_one_hot_equivalent(rows, cats)

        worst_theta = 0.0
        for _ in range(3):
            planted = [rng.randint(-4, 4) for _ in range(3)]
            rows = [
                (float(a), float(b), float(planted[0] + planted[1] * a + planted[2] * b))
                for a in range(4)
                for b in range(4)
            ]
            cq, state = _stats_state(
                ("X1", "X2", "Y"), {v: CONTINUOUS for v in ("X1", "X2", "Y")}, rows
            )
            fit = train_linear_regression(
                cq.query.ring,
                cq.slots,
                state.result().entries.get(()),
                RegressionConfig("Y", ("X1", "X2"), step_size=0.01),
            )
            got = (fit.theta["intercept"], fit.theta["X1"], fit.theta["X2"])
            worst_theta = max(
                worst_theta, max(abs(g - p) for g, p in zip(got, planted))
            )
        assert worst_theta < THETA_TOL, worst_theta

        worst_tree = 0.0
        for t in range(20):
            m = 3 + t % 4
            schema = tuple(f"V{i}" for i in range(1, m + 1))
            rows = []
            for _ in range(rng.randint(5, 12)):
                key = tuple(rng.randrange(2 + (i % 2)) for i in range(m))
                rows.extend([key] * rng.randint(1, 3))
            cq, state = _stats_state(schema, {v: CATEGORICAL for v in schema}, rows)
            mi = mutual_information_matrix(
                cq.query.ring, cq.slots, state.result().entries.get(())
            )
            tree = chow_liu_tree(mi)
            best = oracles.best_spanning_tree_weight(mi.values)
            worst_tree = max(worst_tree, abs(tree.weight - best))
        assert worst_tree <= TREE_WEIGHT_TOL, worst_tree

        worst_mi = 0.0
        for _ in range(5):
            nx = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
            ny = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
            rows = []
            for x, cx in enumerate(nx):
                for y, cy in enumerate(ny):
                    rows.extend([(x, y)] * (cx * cy))
            cq, state = _stats_state(
                ("X", "Y"), {"X": CATEGORICAL, "Y": CATEGORICAL}, rows
            )
            mi = mutual_information_matrix(
                cq.query.ring, cq.slots, state.result().entries.get(())
            )
            worst_mi = max(worst_mi, abs(mi.values[0][1]))
        assert worst_mi < PRODUCT_MI_TOL, worst_mi

        info["detail"] = (
            f"10 one-hot datasets exact, theta err {worst_theta:.1e}, "
            f"20 tree weights within {TREE_WEIGHT_TOL:g}, product MI {worst_mi:.1e}"
        )


# ---------------------------------------------------------------------------
# criterion 6: matrix chain updates beat rebuilds by an order


def _sparse_chain(p, seed):
    mc = build_matrix_chain((p, p, p, p))
    names = ("A1", "A2", "A3")
    tree = plan_view_tree(mc.query, mc.order, updatable=names)
    state = RuntimeState(tree)
    rng = np.random.default_rng(seed)
    mats = []
    data = {}
    for name in names:
        m = rng.integers(-3, 4, size=(p, p)).astype(float)
        m *= rng.random((p, p)) < 0.25
        mats.append(m)
        data[name] = [
            ((int(r), int(c)), float(m[r, c])) for r, c in zip(*np.nonzero(m))
        ]
    state.load(data)
    return state, mats


def _chain_dense(state, p):
    out = np.zeros((p, p))
    for (r, c), v in state.result().entries.items():
        out[r, c] = v
    return out


def test_criterion_6_matrix_chain_scaling(capsys):
    with verdict(capsys, 6, "matrix chain rank-one updates") as info:
        sizes = (64, 128, 256)
        update_costs = []
        rebuild_costs = []
        worst_rel = 0.0
        for p in sizes:
            state, mats = _sparse_chain(p, seed=p)
            rebuild_costs.append(sum(state.counters.snapshot()))
            rng = np.random.default_rng(1000 + p)
            u = rng.integers(-2, 3, size=p)
            v = rng.integers(-2, 3, size=p)
            u[0], v[0] = 1, 2
            before = sum(state.counters.snapshot())
            touched = mcm_rank_update(
                state, 2, [float(x) for x in u], [float(x) for x in v]
            )
            update_costs.append(sum(state.counters.snapshot()) - before)
            assert touched > 0
            mats[1] += np.outer(u, v)
            exact = oracles.chain_product(mats)
            got = _chain_dense(state, p)
            denom = np.linalg.norm(exact)
            rel = np.linalg.norm(got - exact) / denom if denom else np.linalg.norm(got)
            worst_rel = max(worst_rel, rel)
        assert worst_rel < CHAIN_REL_ERR, worst_rel

        logs = np.log(np.array(sizes, dtype=float))
        upd_slope = float(np.polyfit(logs, np.log(update_costs), 1)[0])
        reb_slope = float(np.polyfit(logs, np.log(rebuild_costs), 1)[0])
        assert UPDATE_SLOPE_RANGE[0] <= upd_slope <= UPDATE_SLOPE_RANGE[1], upd_slope
        assert REBUILD_SLOPE_RANGE[0] <= reb_slope <= REBUILD_SLOPE_RANGE[1], reb_slope
        info["detail"] = (
            f"rel err {worst_rel:.1e}, update slope {upd_slope:.2f}, "
            f"rebuild slope {reb_slope:.2f}"
        )


# ---------------------------------------------------------------------------
# criterion 7: engine cross-validation and reproducible metrics


def test_criterion_7_engine_cross_validation(capsys, tmp_path):
    with verdict(capsys, 7, "engine cross-validation") as info:
        paths = bundled_scenarios()
        compiled = [compile_scenario(load_scenario(p)) for p in paths.values()]
        ok, problems, _ = verify_scenarios(compiled)
        assert ok, problems
        assert problems == []

        def metrics_without_time(out):
            rows = []
            for name, path in sorted(paths.items()):
                report = run_scenario(
                    compile_scenario(load_scenario(path)), engine_name="fivm"
                )
                rows.extend(report.rows)
            emit_metrics(rows, out)
            with open(out, newline="") as fh:
                header, *body = csv.reader(fh)
            keep = [i for i, c in enumerate(header) if not c.endswith("_ns")]
            return [[r[i] for i in keep] for r in [header, *body]]

        first = metrics_without_time(tmp_path / "metrics_a.csv")
        second = metrics_without_time(tmp_path / "metrics_b.csv")
        assert first == second
        info["detail"] = (
            f"{len(paths)} scenarios x {len(ENGINE_NAMES)} engines agree, "
            f"{len(first) - 1} metric rows stable across reruns"
        )
