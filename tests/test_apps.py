"""Statistics, regression, dependence trees, and matrix chains.

The numeric fixtures reuse the four-tuple-per-relation chain database with
values mapped to small integers, so every floating-point operation is exact
and the pinned triples can be asserted with plain equality.
"""

from __future__ import annotations

import csv
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fivm.apps import (
    Binned,
    DivergenceError,
    MIMatrix,
    RegressionConfig,
    build_covariance_query,
    build_matrix_chain,
    chow_liu_tree,
    covariance_matrix,
    export_chow_liu_csv,
    export_covariance_csv,
    export_mi_csv,
    export_theta_csv,
    mcm_rank_update,
    mutual_information_matrix,
    second_moment_matrix,
    train_linear_regression,
)
from fivm import ivm, relations
from fivm.ivm import FactorizedDelta, RuntimeState, UpdateDelta
from fivm.queries import Query, VariableOrder
from fivm.relations import DenseRelation, Relation
from fivm.rings import (
    CovarianceTriple,
    covariance_ring,
    lift_to_one,
    real_ring,
    relational_payload,
    ring_negate,
    ring_one,
)
from fivm.viewtree import plan_view_tree

# T is declared before S so the slot numbering follows the alphabet:
# A=1, B=2, C=3, D=4, E=5 in first-appearance order.
CHAIN_STAT_RELS = [("R", ("A", "B")), ("T", ("C", "D")), ("S", ("A", "C", "E"))]
CHAIN_ORDER = VariableOrder([["A", ["B"], ["C", ["D"], ["E"]]]])

NUM_ROWS = {
    "R": [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)],
    "S": [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (1.0, 2.0, 3.0), (2.0, 2.0, 4.0)],
    "T": [(1.0, 1.0), (2.0, 2.0), (2.0, 3.0), (3.0, 4.0)],
}

MIX_ROWS = {
    "R": [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)],
    "S": [(1.0, "c1", 1.0), (1.0, "c1", 2.0), (1.0, "c2", 3.0), (2.0, "c2", 4.0)],
    "T": [("c1", 1.0), ("c2", 2.0), ("c2", 3.0), ("c3", 4.0)],
}


def rp(schema, entries):
    return relational_payload(schema, entries)


def stats_state(relations, kinds, data, order):
    cq = build_covariance_query(relations, kinds)
    tree = plan_view_tree(cq.query, order, updatable=tuple(n for n, _ in relations))
    state = RuntimeState(tree)
    one = ring_one(cq.query.ring)
    state.load({name: [(tuple(k), one) for k in rows] for name, rows in data.items()})
    return cq, state


def root_triple(state):
    return state.result().entries.get(())


def entries_form(value):
    """Uniform comparison form: payloads and plain numbers as entry dicts."""
    if value is None:
        return {}
    if hasattr(value, "entries"):
        return dict(value.entries)
    if isinstance(value, dict):
        return {k: v for k, v in value.items() if v}
    return {(): value} if value else {}


def assert_triple_matches_oracle(spec, slots, triple, tables, categorical=()):
    c, s, q = oracles.statistics(tables, slots, categorical)
    assert entries_form(triple.c) == entries_form(c)
    for j in range(1, len(slots) + 1):
        assert entries_form(triple.s.get(j)) == entries_form(s[j]), f"slot {j}"
    for i in range(1, len(slots) + 1):
        for j in range(i, len(slots) + 1):
            got = entries_form(triple.Q.get((i, j)))
            assert got == entries_form(q[(i, j)]), f"pair {(i, j)}"


def num_tables(data, relations):
    schemas = dict((n, s) for n, s in relations)
    return [(schemas[n], {tuple(k): 1 for k in rows}) for n, rows in data.items()]


# ---------------------------------------------------------------------------
# query compilation


def test_slots_follow_first_appearance():
    cq = build_covariance_query(CHAIN_STAT_RELS, {v: "continuous" for v in "ABCDE"})
    assert cq.slots == ("A", "B", "C", "D", "E")
    assert cq.query.ring.base == "real"
    assert cq.query.free == ()


def test_untagged_variables_only_count():
    cq = build_covariance_query(CHAIN_STAT_RELS, {"D": "continuous"})
    assert cq.slots == ("D",)
    modes = {v: l.mode for v, l in cq.query.lifts.items()}
    assert modes["D"] == "covariance_continuous"
    assert all(m == "to_one" for v, m in modes.items() if v != "D")


def test_one_categorical_switches_the_base():
    cq = build_covariance_query(CHAIN_STAT_RELS, {"C": "categorical", "D": "continuous"})
    assert cq.query.ring.base == "relational"


@pytest.mark.parametrize(
    "kinds, message",
    [
        ({"Z": "continuous"}, "unknown variables"),
        ({}, "no variable was tagged"),
        ({"D": "weird"}, "unknown column kind"),
    ],
)
def test_compilation_rejects_bad_kinds(kinds, message):
    with pytest.raises(ValueError, match=message):
        build_covariance_query(CHAIN_STAT_RELS, kinds)


def test_binned_columns_group_by_bin_index():
    b = Binned(0.0, 1.0, bins=4)
    assert [b.bin_of(x) for x in (-0.5, 0.0, 0.25, 0.999, 1.0, 5.0)] == [0, 0, 1, 3, 3, 3]
    cq, state = stats_state(
        [("R", ("X",))],
        {"X": Binned(0.0, 1.0, bins=4)},
        {"R": [(0.1,), (0.35,), (0.9,), (0.9,)]},
        VariableOrder([["X"]]),
    )
    triple = root_triple(state)
    assert triple.s[1] == rp(("X",), {(0,): 1, (1,): 1, (3,): 2})


def test_binned_validates_its_range():
    with pytest.raises(ValueError):
        Binned(1.0, 1.0)
    with pytest.raises(ValueError):
        Binned(0.0, 1.0, bins=0)


# ---------------------------------------------------------------------------
# maintained statistics triples, pinned by hand


def test_leaf_view_triples_over_the_chain():
    _, state = stats_state(
        CHAIN_STAT_RELS, {v: "continuous" for v in "ABCDE"}, NUM_ROWS, CHAIN_ORDER
    )
    assert dict(state.views["V@D(T)"].entries) == {
        (1.0,): CovarianceTriple(1.0, {4: 1.0}, {(4, 4): 1.0}),
        (2.0,): CovarianceTriple(2.0, {4: 5.0}, {(4, 4): 13.0}),
        (3.0,): CovarianceTriple(1.0, {4: 4.0}, {(4, 4): 16.0}),
    }


def test_inner_view_triple_for_one_group():
    _, state = stats_state(
        CHAIN_STAT_RELS, {v: "continuous" for v in "ABCDE"}, NUM_ROWS, CHAIN_ORDER
    )
    # group a=2 joins one S row (c=2, e=4) with two T rows (d=2 and d=3)
    assert state.views["V@C(S+T)"].entries.get((2.0,)) == CovarianceTriple(
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


def test_grouped_scalars_for_a_categorical_column():
    kinds = {"A": "continuous", "B": "continuous", "C": "categorical",
             "D": "continuous", "E": "continuous"}
    _, state = stats_state(CHAIN_STAT_RELS, kinds, MIX_ROWS, CHAIN_ORDER)
    assert state.views["V@C(S+T)"].entries.get((2.0,)) == CovarianceTriple(
        rp((), {(): 2}),
        {3: rp(("C",), {("c2",): 2}), 4: rp((), {(): 5.0}), 5: rp((), {(): 8.0})},
        {
            (3, 3): rp(("C",), {("c2",): 2}),
            (3, 4): rp(("C",), {("c2",): 5.0}),
            (3, 5): rp(("C",), {("c2",): 8.0}),
            (4, 4): rp((), {(): 13.0}),
            (4, 5): rp((), {(): 20.0}),
            (5, 5): rp((), {(): 32.0}),
        },
    )


def test_root_triple_matches_scan_oracle():
    cq, state = stats_state(
        CHAIN_STAT_RELS, {v: "continuous" for v in "ABCDE"}, NUM_ROWS, CHAIN_ORDER
    )
    assert_triple_matches_oracle(
        cq.query.ring, cq.slots, root_triple(state), num_tables(NUM_ROWS, CHAIN_STAT_RELS)
    )


def test_mixed_root_triple_matches_scan_oracle():
    kinds = {"A": "continuous", "B": "continuous", "C": "categorical",
             "D": "continuous", "E": "continuous"}
    cq, state = stats_state(CHAIN_STAT_RELS, kinds, MIX_ROWS, CHAIN_ORDER)
    assert_triple_matches_oracle(
        cq.query.ring,
        cq.slots,
        root_triple(state),
        num_tables(MIX_ROWS, CHAIN_STAT_RELS),
        categorical=("C",),
    )


def test_triple_maintenance_under_insert_and_delete():
    cq, state = stats_state(
        CHAIN_STAT_RELS, {v: "continuous" for v in "ABCDE"}, NUM_ROWS, CHAIN_ORDER
    )
    spec = cq.query.ring
    one = ring_one(spec)
    state.apply_batch(
        [UpdateDelta("T", (((2.0, 9.0), one), ((1.0, 1.0), ring_negate(spec, one))))]
    )
    updated = dict(NUM_ROWS)
    updated["T"] = [(2.0, 2.0), (2.0, 3.0), (3.0, 4.0), (2.0, 9.0)]
    assert_triple_matches_oracle(
        spec, cq.slots, root_triple(state), num_tables(updated, CHAIN_STAT_RELS)
    )


# ---------------------------------------------------------------------------
# one-hot equivalence


def categorical_vs_onehot(rows, categories):
    """Run the same dataset through a categorical slot and through
    explicit 0/1 indicator columns; return both engine-side triples."""
    _, cat_state = stats_state(
        [("R", ("X", "Y"))],
        {"X": "categorical", "Y": "continuous"},
        {"R": [(x, float(y)) for x, y in rows]},
        VariableOrder([["X", ["Y"]]]),
    )
    ind_vars = tuple(f"I{i}" for i in range(len(categories)))
    expanded = [
        tuple(1.0 if x == c else 0.0 for c in categories) + (float(y),)
        for x, y in rows
    ]
    nest = ["Y"]
    for v in reversed(ind_vars):
        nest = [v, nest]
    cq, hot_state = stats_state(
        [("R1", ind_vars + ("Y",))],
        {v: "continuous" for v in ind_vars + ("Y",)},
        {"R1": expanded},
        VariableOrder([nest]),
    )
    return root_triple(cat_state), (cq, root_triple(hot_state))


def assert_onehot_equivalent(rows, categories):
    cat, (hot_cq, hot) = categorical_vs_onehot(rows, categories)
    moments = second_moment_matrix(hot_cq.query.ring, hot_cq.slots, hot)
    c, s, q = moments[0, 0], moments[0, 1:], moments[1:, 1:]
    m = len(categories)
    assert entries_form(cat.c) == ({(): c} if c else {})
    assert entries_form(cat.s.get(1)) == {
        (x,): s[i] for i, x in enumerate(categories) if s[i]
    }
    assert entries_form(cat.s.get(2)) == ({(): s[m]} if s[m] else {})
    assert entries_form(cat.Q.get((1, 1))) == {
        (x,): q[i][i] for i, x in enumerate(categories) if q[i][i]
    }
    for i, x in enumerate(categories):
        for j in range(i + 1, m):
            assert q[i][j] == 0.0, "indicator columns never co-fire"
    assert entries_form(cat.Q.get((1, 2))) == {
        (x,): q[i][m] for i, x in enumerate(categories) if q[i][m]
    }
    assert entries_form(cat.Q.get((2, 2))) == ({(): q[m][m]} if q[m][m] else {})


def test_onehot_equivalence_on_a_pinned_dataset():
    rows = [("p", 1), ("p", 2), ("q", 3), ("r", 4), ("r", 4)]
    assert_onehot_equivalent(rows, ("p", "q", "r"))


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["a", "b"]), st.integers(-3, 3)), min_size=1, max_size=8
    )
)
def test_onehot_equivalence_on_random_data(rows):
    assert_onehot_equivalent(rows, ("a", "b"))


# ---------------------------------------------------------------------------
# moment and covariance matrices


def test_second_moment_matrix_layout():
    cq, state = stats_state(
        [("R", ("X", "Y"))],
        {"X": "continuous", "Y": "continuous"},
        {"R": [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]},
        VariableOrder([["X", ["Y"]]]),
    )
    moments = second_moment_matrix(cq.query.ring, cq.slots, root_triple(state))
    assert np.array_equal(
        moments, np.array([[3.0, 6.0, 12.0], [6.0, 14.0, 28.0], [12.0, 28.0, 56.0]])
    )


def test_covariance_matrix_of_two_points():
    cq, state = stats_state(
        [("R", ("X", "Y"))],
        {"X": "continuous", "Y": "continuous"},
        {"R": [(0.0, 0.0), (2.0, 4.0)]},
        VariableOrder([["X", ["Y"]]]),
    )
    cov = covariance_matrix(cq.query.ring, cq.slots, root_triple(state))
    assert np.array_equal(cov, np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_moment_matrix_needs_a_real_base():
    spec = covariance_ring(1, base="relational")
    triple = ring_one(spec)
    with pytest.raises(ValueError, match="real scalar base"):
        second_moment_matrix(spec, ("X",), triple)


def test_moment_matrix_checks_the_slot_count():
    spec = covariance_ring(2)
    with pytest.raises(ValueError, match="2 slots expected"):
        second_moment_matrix(spec, ("X",), ring_one(spec))


def test_covariance_of_nothing_is_an_error():
    spec = covariance_ring(1)
    empty = CovarianceTriple(0.0, {}, {})
    with pytest.raises(ValueError, match="empty population"):
        covariance_matrix(spec, ("X",), empty)


# ---------------------------------------------------------------------------
# regression


GRID_ROWS = [
    (float(a), float(b), float(3 + 2 * a - b)) for a in range(4) for b in range(4)
]


def grid_stats():
    return stats_state(
        [("R", ("X1", "X2", "Y"))],
        {v: "continuous" for v in ("X1", "X2", "Y")},
        {"R": GRID_ROWS},
        VariableOrder([["X1", ["X2", ["Y"]]]]),
    )


def test_regression_recovers_planted_coefficients():
    cq, state = grid_stats()
    config = RegressionConfig("Y", ("X1", "X2"), step_size=0.01)
    result = train_linear_regression(cq.query.ring, cq.slots, root_triple(state), config)
    assert result.converged
    xs = np.array([r[:2] for r in GRID_ROWS])
    ys = np.array([r[2] for r in GRID_ROWS])
    direct = oracles.least_squares(xs, ys)
    for got, want in zip(
        (result.theta["intercept"], result.theta["X1"], result.theta["X2"]), direct
    ):
        assert got == pytest.approx(want, abs=1e-6)
    assert direct == pytest.approx([3.0, 2.0, -1.0], abs=1e-9)


def test_warm_start_resumes_from_a_prior_fit():
    cq, state = grid_stats()
    config = RegressionConfig("Y", ("X1", "X2"), step_size=0.01)
    spec, slots, triple = cq.query.ring, cq.slots, root_triple(state)
    cold = train_linear_regression(spec, slots, triple, config)
    warm_config = RegressionConfig("Y", ("X1", "X2"), step_size=0.01, warm_start=True)
    warm = train_linear_regression(spec, slots, triple, warm_config, prior=cold.theta)
    assert warm.converged
    assert warm.iterations < cold.iterations
    for name in ("intercept", "X1", "X2"):
        assert warm.theta[name] == pytest.approx(cold.theta[name], abs=1e-8)


def test_oversized_steps_raise_instead_of_looping():
    cq, state = grid_stats()
    config = RegressionConfig("Y", ("X1", "X2"), step_size=1.0)
    with pytest.raises(DivergenceError) as info:
        train_linear_regression(cq.query.ring, cq.slots, root_triple(state), config)
    err = info.value
    assert err.step_size == 1.0
    assert len(err.norms) == 11
    assert err.norms[-1] > err.norms[0]


def test_iteration_cap_reports_no_convergence():
    cq, state = grid_stats()
    config = RegressionConfig(
        "Y", ("X1", "X2"), step_size=1e-7, gradient_threshold=1e-9, max_iterations=3
    )
    result = train_linear_regression(cq.query.ring, cq.slots, root_triple(state), config)
    assert not result.converged
    assert result.iterations == 3


def test_regression_config_validation():
    with pytest.raises(ValueError, match="label cannot also be a feature"):
        RegressionConfig("Y", ("Y", "X1"))
    with pytest.raises(ValueError, match="duplicate feature"):
        RegressionConfig("Y", ("X1", "X1"))
    with pytest.raises(ValueError, match="step size"):
        RegressionConfig("Y", ("X1",), step_size=0.0)
    cq, state = grid_stats()
    with pytest.raises(ValueError, match="not a slot"):
        train_linear_regression(
            cq.query.ring, cq.slots, root_triple(state), RegressionConfig("Z", ("X1",))
        )


# ---------------------------------------------------------------------------
# mutual information and the dependence tree


def pair_stats(rows):
    return stats_state(
        [("R", ("X", "Y"))],
        {"X": "categorical", "Y": "categorical"},
        {"R": rows},
        VariableOrder([["X", ["Y"]]]),
    )


def test_identical_columns_score_ln_two():
    cq, state = pair_stats({"R": [(0, 0), (1, 1)]}["R"])
    mi = mutual_information_matrix(cq.query.ring, cq.slots, root_triple(state))
    assert mi.values[0][1] == pytest.approx(math.log(2.0), abs=1e-15)
    assert mi.values[0][0] == 0.0
    assert mi.labels == ("X", "Y")


def test_product_distribution_scores_zero():
    cq, state = pair_stats([(x, y) for x in (0, 1) for y in (0, 1)])
    mi = mutual_information_matrix(cq.query.ring, cq.slots, root_triple(state))
    assert abs(mi.values[0][1]) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    joint=st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(1, 4),
        min_size=1,
        max_size=9,
    )
)
def test_mutual_information_matches_the_oracle(joint):
    rows = [k for k, n in joint.items() for _ in range(n)]
    cq, state = pair_stats(rows)
    mi = mutual_information_matrix(cq.query.ring, cq.slots, root_triple(state))
    want = oracles.mutual_information(joint)
    assert mi.values[0][1] == pytest.approx(want, abs=1e-12)
    assert mi.values[1][0] == mi.values[0][1]


def test_mutual_information_rejects_real_bases():
    spec = covariance_ring(2)
    with pytest.raises(ValueError, match="categorical slots"):
        mutual_information_matrix(spec, ("X", "Y"), ring_one(spec))


def test_mutual_information_of_nothing_is_an_error():
    spec = covariance_ring(2, base="relational")
    empty = CovarianceTriple(relational_payload((), {}), {}, {})
    with pytest.raises(ValueError, match="empty population"):
        mutual_information_matrix(spec, ("X", "Y"), empty)


def test_tree_follows_the_strongest_links():
    mi = MIMatrix(
        ("X", "Y", "Z"),
        ((0.0, 0.9, 0.1), (0.9, 0.0, 0.5), (0.1, 0.5, 0.0)),
    )
    tree = chow_liu_tree(mi)
    assert tree.edges == ((0, 1), (1, 2))
    assert tree.weight == pytest.approx(1.4)


def test_tree_ties_break_toward_low_indices():
    mi = MIMatrix(("X", "Y", "Z"), ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)))
    assert chow_liu_tree(mi).edges == ((0, 1), (0, 2))


def test_tree_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        chow_liu_tree(MIMatrix((), ()))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), m=st.integers(2, 5))
def test_tree_weight_is_the_spanning_maximum(data, m):
    weights = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            w = data.draw(st.integers(0, 20)) / 4.0
            weights[i][j] = weights[j][i] = w
    mi = MIMatrix(tuple(f"V{i}" for i in range(m)), tuple(map(tuple, weights)))
    tree = chow_liu_tree(mi)
    assert len(tree.edges) == m - 1
    assert tree.weight == pytest.approx(oracles.best_spanning_tree_weight(weights))
    assert tree.weight == pytest.approx(sum(weights[a][b] for a, b in tree.edges))


# ---------------------------------------------------------------------------
# matrix chains


def test_textbook_chain_splits_the_cheap_way():
    mc = build_matrix_chain((10, 100, 5, 50))
    assert mc.bracketing == ((1, 2), 3)
    assert mc.cost == 7500
    assert mc.order.to_nested() == [["X1", ["X4", ["X3", "X2"]]]]
    assert mc.query.free == ("X1", "X4")
    assert [d.name for d in mc.query.relations] == ["A1", "A2", "A3"]


def test_equal_chains_balance_and_lean_left():
    four = build_matrix_chain((8, 8, 8, 8, 8))
    assert four.bracketing == ((1, 2), (3, 4))
    assert four.cost == 1536
    assert four.order.to_nested() == [["X1", ["X5", ["X3", "X2", "X4"]]]]
    three = build_matrix_chain((4, 4, 4, 4))
    assert three.bracketing == (1, (2, 3))
    assert three.cost == 128


def test_single_matrix_chain_is_trivial():
    mc = build_matrix_chain((3, 4))
    assert mc.bracketing == 1
    assert mc.cost == 0
    assert len(mc.dims) == 2
    assert mc.order.to_nested() == [["X1", "X2"]]


def test_chain_validation():
    with pytest.raises(ValueError):
        build_matrix_chain((5,))
    with pytest.raises(ValueError):
        build_matrix_chain((3, 0, 2))


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(1, 9), min_size=3, max_size=6))
def test_chain_cost_is_the_exhaustive_minimum(dims):
    mc = build_matrix_chain(dims)
    best, winners = oracles.min_chain_cost(dims)
    assert mc.cost == best
    assert mc.bracketing in winners


def chain_runtime(dims, seed=7, values=(-3, 4)):
    mc = build_matrix_chain(dims)
    names = tuple(f"A{i}" for i in range(1, len(mc.dims)))
    tree = plan_view_tree(mc.query, mc.order, updatable=names)
    state = RuntimeState(tree)
    rng = np.random.default_rng(seed)
    mats = [
        rng.integers(*values, size=(dims[i], dims[i + 1])).astype(float)
        for i in range(len(dims) - 1)
    ]
    data = {}
    for name, m in zip(names, mats):
        data[name] = [
            ((r, c), float(m[r, c]))
            for r in range(m.shape[0])
            for c in range(m.shape[1])
            if m[r, c] != 0.0
        ]
    state.load(data)
    return state, mats


def to_dense(state, shape):
    out = np.zeros(shape)
    for (r, c), v in state.result().entries.items():
        out[r, c] = v
    return out


def test_chain_root_is_the_product():
    dims = (3, 4, 2, 5)
    state, mats = chain_runtime(dims)
    assert np.array_equal(to_dense(state, (3, 5)), oracles.chain_product(mats))


def test_rank_one_updates_track_the_dense_product():
    dims = (3, 4, 2, 5)
    state, mats = chain_runtime(dims)
    u = [1.0, 0.0, -2.0, 1.0]
    v = {0: 2.0, 1: -1.0}
    touched = mcm_rank_update(state, 2, u, v)
    assert touched > 0
    mats[1] += np.outer(u, [v.get(j, 0.0) for j in range(dims[2])])
    assert np.array_equal(to_dense(state, (3, 5)), oracles.chain_product(mats))


def test_zero_rank_updates_do_nothing():
    state, mats = chain_runtime((3, 4, 2, 5))
    before = to_dense(state, (3, 5))
    assert mcm_rank_update(state, 1, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]) == 0
    assert np.array_equal(to_dense(state, (3, 5)), before)


@pytest.mark.parametrize(
    "dims", [[2] * 41, [2] + [1] * 59 + [3]], ids=["41-variables", "61-variables"]
)
def test_long_chains_recompute_their_product(dims):
    # 41 variables make one einsum over 40 operands, far too many index
    # combinations for one plain loop; 61 are more than einsum has letters
    # for, so that join runs on the dict path. All-ones matrices keep every
    # relation nonempty and every product exact.
    state, mats = chain_runtime(dims, values=(1, 2))
    u, v = [1.0] + [0.0] * (dims[1] - 1), [1.0] * dims[2]
    mcm_rank_update(state, 2, u, v)
    mats[1] += np.outer(u, v)
    shape = (dims[0], dims[-1])
    assert np.array_equal(to_dense(state, shape), oracles.chain_product(mats))
    assert dict(state.recompute_oracle().entries) == dict(state.result().entries)


def chain_snapshot(state):
    return [{k: dict(r.entries) for k, r in group.items()} for group in (state.leaves, state.views)]


@pytest.mark.parametrize(
    "act",
    [
        lambda s: s.load({"A1": [((0, 4), 1.0)]}),
        lambda s: s.load({"A3": [((-1, 0), 1.0)]}),
        lambda s: s.load({"A2": [(("x", 0), 1.0)]}),
        lambda s: s.load({"A2": [((1.0, 0), 1.0)]}),
        lambda s: s.apply_batch(
            [UpdateDelta("A1", (((0, 1), 1.0),)), UpdateDelta("A2", (((4, 0), 1.0),))]
        ),
        lambda s: mcm_rank_update(s, 2, [1.0, 0.0, 0.0, 0.0, 2.0], [1.0, 1.0]),
        lambda s: mcm_rank_update(s, 3, [1.0, 1.0], {-1: 1.0}),
    ],
    ids=[
        "load-high", "load-negative", "load-string", "load-float", "points", "rank-long",
        "rank-negative",
    ],
)
def test_chain_coordinates_outside_their_ranges_change_nothing(act):
    state, _ = chain_runtime((3, 4, 2, 5))
    before = chain_snapshot(state)
    with pytest.raises(ValueError, match="outside"):
        act(state)
    assert chain_snapshot(state) == before


def dense_cells(state):
    """Bytes and nonzero count of every dense leaf and view array."""
    return {
        name: (rel.entries.array.tobytes(), rel.entries.count)
        for group in (state.leaves, state.views)
        for name, rel in group.items()
    }


@pytest.mark.parametrize(
    "bad, message",
    [
        ((((3, 0), 1.0),), "A1 row (3, 0): X1=3 is outside [0, 3)"),
        ((((-1, 0), 1.0),), "A1 row (-1, 0): X1=-1 is outside [0, 3)"),
        ((((True, 0), 1.0),), "A1 row (True, 0): X1=True is outside [0, 3)"),
        ((((0,), 1.0),), "key (0,) does not match A1('X1', 'X2')"),
        ((((0, 1, 2), 1.0),), "key (0, 1, 2) does not match A1('X1', 'X2')"),
        ((((1, 1), "x"),), "A1 row (1, 1): payload 'x' is not a real number"),
    ],
    ids=["high", "negative", "bool", "short-key", "long-key", "string-payload"],
)
def test_a_dense_point_batch_is_refused_as_row_by_row(bad, message):
    """A point batch the scatter cannot take goes through the entry check
    and the row loop, so it is refused with their message, here in the
    second of two deltas to A1, and nothing changes."""
    state, _ = chain_runtime((3, 4, 2, 5))
    before = dense_cells(state)
    good = (((0, 1), 1.0), ((1, 3), -1.5))
    batch = [UpdateDelta("A1", good), UpdateDelta("A3", good), UpdateDelta("A1", good + bad)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        state.apply_batch(batch)
    assert dense_cells(state) == before


def test_plain_dense_point_deltas_merge_in_one_scatter_per_run(monkeypatch):
    """In-range plain rows skip the entry check: a relation's point deltas
    merge in one scatter, split only where a factorized delta comes
    between them."""
    state, _ = chain_runtime((3, 4, 2, 5))
    calls = []
    scatter = DenseRelation.scatter

    def counted(self, rows):
        calls.append(len(rows))
        return scatter(self, rows)

    def refused(*args):
        raise AssertionError("rows were checked one by one")

    monkeypatch.setattr(DenseRelation, "scatter", counted)
    monkeypatch.setattr(Query, "checked", refused)
    u, v = state.relation(("X1",)), state.relation(("X2",))
    u.fill([1.0, 0.0, 2.0])
    v.fill([0.5, 0.0, 0.0, -1.0])
    rows = (((0, 1), 1.0), ((1, 3), -1.5))
    state.apply_batch(
        [
            UpdateDelta("A1", rows),
            UpdateDelta("A3", rows[:1]),
            UpdateDelta("A1", rows + rows),
            FactorizedDelta("A1", (u, v)),
            UpdateDelta("A1", rows),
        ]
    )
    assert calls == [6, 2, 1]
    assert dict(state.result().entries) == dict(state.recompute_oracle().entries)


def test_a_bad_pair_is_refused_before_a_later_factor_of_its_relation():
    """A relation's deltas are checked in arrival order, so a bad point pair
    is reported before the coverage error of a factorized delta after it."""
    state, _ = chain_runtime((3, 4, 2, 5))
    before = dense_cells(state)
    u = state.relation(("X1",))
    u.fill([1.0, 2.0, 3.0])
    batch = [UpdateDelta("A1", (((3, 0), 1.0),)), FactorizedDelta("A1", (u,))]
    with pytest.raises(ValueError, match=r"^A1 row \(3, 0\): X1=3 is outside \[0, 3\)$"):
        state.apply_batch(batch)
    with pytest.raises(ValueError, match="^factors cover"):
        state.apply_batch(batch[::-1])
    assert dense_cells(state) == before


def test_numpy_integer_coordinates_merge_like_plain_ints():
    """An np.int64 coordinate sends its batch row by row, to the same end."""
    plain, _ = chain_runtime((3, 4, 2, 5))
    numpy_ints, _ = chain_runtime((3, 4, 2, 5))
    rows = (((0, 1), 1.0), ((1, 3), -1.5), ((0, 1), 0.25))
    plain.apply_batch([UpdateDelta("A1", rows)])
    numpy_ints.apply_batch(
        [UpdateDelta("A1", tuple(((np.int64(r), c), v) for (r, c), v in rows))]
    )
    assert dense_cells(numpy_ints) == dense_cells(plain)
    assert numpy_ints.counters.snapshot() == plain.counters.snapshot()


def twin_chains(dims):
    """One chain stored dense (the ranges its builder declares) and the same
    chain without declared ranges, stored in dicts."""
    mc = build_matrix_chain(dims)
    q = mc.query
    plain = Query([(d.name, d.schema) for d in q.relations], q.free, q.ring, q.lifts.values())
    names = [d.name for d in q.relations]
    return [RuntimeState(plan_view_tree(query, mc.order, updatable=names)) for query in (q, plain)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dense_chains_count_and_answer_like_the_dict_path(data):
    dims = data.draw(st.lists(st.integers(1, 9), min_size=4, max_size=5), label="dims")
    n = len(dims) - 1
    value = st.integers(-3, 3).map(float)

    def cells(i):
        key = st.tuples(st.integers(0, dims[i] - 1), st.integers(0, dims[i + 1] - 1))
        return st.lists(st.tuples(key, value), max_size=10)

    dense, plain = twin_chains(dims)
    assert dense.leaves["A1"].entries.array.shape == (dims[0], dims[1])
    assert isinstance(plain.leaves["A1"].entries, dict)

    def run(step):
        for state in (dense, plain):
            step(state)
        assert dense.counters.snapshot() == plain.counters.snapshot()
        shape = (dims[0], dims[-1])
        assert np.array_equal(to_dense(dense, shape), to_dense(plain, shape))
        assert chain_snapshot(dense) == chain_snapshot(plain)
        want = dict(plain.recompute_oracle().entries)
        assert dict(dense.recompute_oracle().entries) == want
        assert dense.counters.snapshot() == plain.counters.snapshot()

    init = {f"A{i + 1}": data.draw(cells(i), label="load") for i in range(n)}
    run(lambda s: s.load(init))
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        kind = data.draw(st.sampled_from(["rank", "insert", "delete", "zero"]), label="kind")
        i = data.draw(st.integers(0, n - 1), label="matrix")
        name = f"A{i + 1}"
        u = data.draw(st.lists(value, min_size=dims[i], max_size=dims[i]), label="u")
        v = data.draw(st.lists(value, min_size=dims[i + 1], max_size=dims[i + 1]), label="v")
        if kind == "zero":
            u = [0.0] * dims[i]
        if kind in ("rank", "zero"):
            run(lambda s: mcm_rank_update(s, i + 1, u, v))
            continue
        if kind == "insert":
            pairs = data.draw(cells(i), label="inserts")
        else:
            live = sorted(plain.leaves[name].entries.items())
            gone = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
            pairs = [(k, -val) for k, val in gone]
        run(lambda s: s.apply_batch([UpdateDelta(name, tuple(pairs))]))



@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_full_dense_targets_move_like_the_dict_path(data):
    """Fully nonzero loads, so stores meet full targets: a positive
    rank-one update keeps every target full with no move, a point delta
    that cancels one cell moves exactly that key by -1, and one that fills
    the last zero cell moves it by +1. After every step, random ones too,
    each store's moves and the counters equal the dict twin's."""
    dims = data.draw(st.lists(st.integers(1, 5), min_size=4, max_size=4), label="dims")
    positive = st.sampled_from([0.5, 1.0, 2.0, 3.0])
    dense, plain = twin_chains(dims)
    init = {
        f"A{i + 1}": [
            ((r, c), data.draw(positive, label="load"))
            for r in range(dims[i])
            for c in range(dims[i + 1])
        ]
        for i in range(3)
    }
    stores = {id(dense): [], id(plain): []}
    store = ivm.rel_apply_delta

    def spy(target, delta):
        """Record, per state, the target's name, whether it was full, its
        moves and its count after the store."""
        cells = target.entries
        full = isinstance(target, DenseRelation) and cells.count == cells.array.size
        moves = store(target, delta)
        for state in (dense, plain):
            for name, rel in (*state.leaves.items(), *state.views.items()):
                if rel is target:
                    stores[id(state)].append((name, full, sorted(moves), len(cells)))
        return moves

    def run(step):
        for state in (dense, plain):
            stores[id(state)].clear()
            step(state)
        got = stores[id(dense)]
        assert [(n, m, c) for n, _, m, c in got] == [(n, m, c) for n, _, m, c in stores[id(plain)]]
        assert dense.counters.snapshot() == plain.counters.snapshot()
        for rel in (*dense.leaves.values(), *dense.views.values()):
            assert rel.entries.count == np.count_nonzero(rel.entries.array)
        assert chain_snapshot(dense) == chain_snapshot(plain)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ivm, "rel_apply_delta", spy)
        run(lambda s: s.load(init))
        i = data.draw(st.integers(0, 2), label="matrix")
        u = data.draw(st.lists(positive, min_size=dims[i], max_size=dims[i]), label="u")
        v = data.draw(st.lists(positive, min_size=dims[i + 1], max_size=dims[i + 1]), label="v")
        got = run(lambda s: mcm_rank_update(s, i + 1, u, v))
        assert got and all(full and moves == [] for _, full, moves, _ in got)

        j = data.draw(st.integers(0, 2), label="cancelled matrix")
        name, size = f"A{j + 1}", dims[j] * dims[j + 1]
        key = (data.draw(st.integers(0, dims[j] - 1)), data.draw(st.integers(0, dims[j + 1] - 1)))
        val = plain.leaves[name].entries[key]
        got = run(lambda s: s.apply_batch([UpdateDelta(name, ((key, -val),))]))
        assert got[-1] == (name, True, [(key, -1)], size - 1)
        refill = data.draw(positive, label="refill")
        got = run(lambda s: s.apply_batch([UpdateDelta(name, ((key, refill),))]))
        assert got[-1] == (name, False, [(key, 1)], size)

        for _ in range(data.draw(st.integers(0, 4), label="steps")):
            k = data.draw(st.integers(0, 2), label="matrix")
            signed = st.sampled_from([-2.0, -1.0, 1.0, 2.0])
            if data.draw(st.booleans(), label="rank"):
                u = data.draw(st.lists(signed, min_size=dims[k], max_size=dims[k]), label="u")
                v = data.draw(
                    st.lists(signed, min_size=dims[k + 1], max_size=dims[k + 1]), label="v"
                )
                run(lambda s: mcm_rank_update(s, k + 1, u, v))
            else:
                live = sorted(plain.leaves[f"A{k + 1}"].entries.items())
                gone = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
                pairs = tuple((key, -val) for key, val in gone)
                run(lambda s: s.apply_batch([UpdateDelta(f"A{k + 1}", pairs)]))


def test_dense_primary_probes_count_like_the_dict_path(monkeypatch):
    """R(A,B), S(A,B) and T(B,C) under B -> (A, C), only R updatable: both
    levels of R's path probe their sibling by its whole key. Stored dense,
    the climb contracts through the primary route and counts what the
    dict layout counts, and both roots agree."""
    routes = []
    contract = relations._contract

    def spy(plan, ops):
        routes.extend(level[1] for level in plan.levels)
        return contract(plan, ops)

    monkeypatch.setattr(relations, "_contract", spy)
    data = {
        "R": [((a, b), 1.0) for a in range(3) for b in range(2) if (a + b) % 2 == 0],
        "S": [((a, b), 2.0) for a in range(3) for b in range(2)],
        "T": [((b, c), 1.0) for b in range(2) for c in range(3) if b or c],
    }
    spent, roots = [], []
    for ranges in ({"A": 3, "B": 2, "C": 3}, None):
        rels = [("R", ("A", "B")), ("S", ("A", "B")), ("T", ("B", "C"))]
        lifts = [lift_to_one(v) for v in "ABC"]
        query = Query(rels, (), real_ring(), lifts, ranges=ranges)
        state = RuntimeState(plan_view_tree(query, VariableOrder([["B", ["A"], ["C"]]]), ("R",)))
        state.load(data)
        assert isinstance(state.leaves["R"], DenseRelation) is (ranges is not None)
        before = state.counters.snapshot()
        routes.clear()
        state.apply_batch([UpdateDelta("R", (((1, 0), 1.0), ((2, 1), 1.0)))])
        if ranges is not None:
            assert routes == ["primary", "primary"]
        spent.append(tuple(b - a for a, b in zip(before, state.counters.snapshot())))
        roots.append(dict(state.result().entries))
        assert roots[-1] == dict(state.recompute_oracle().entries)
    assert spent[0] == spent[1] == (20, 9, 0)
    assert roots[0] == roots[1] == {(): 24.0}


def test_dense_relations_answer_their_indexes_from_the_array():
    dims = (3, 4, 2, 5)
    dense, plain = twin_chains(dims)
    _, mats = chain_runtime(dims)
    data = {
        f"A{i + 1}": [(k, float(x)) for k, x in np.ndenumerate(m) if x] for i, m in enumerate(mats)
    }
    for state in (dense, plain):
        state.load(data)
        state.leaves["A1"].ensure_index(("X2",), "X1")
        state.apply_batch([UpdateDelta("A1", (((0, 1), 5.0), ((2, 3), -mats[0][2, 3])))])
    assert dense.counters.snapshot() == plain.counters.snapshot()
    pairs = [(r, plain.stored(r.name)) for r in [*dense.leaves.values(), *dense.views.values()]]
    assert sum(len(d.indexes) for d, _ in pairs) == 5
    for d, p in pairs:
        # no stored table: each lookup reads the array
        assert isinstance(d, DenseRelation)
        assert not any(isinstance(t, dict) for t in d.indexes.values())
        assert d.indexes.keys() == p.indexes.keys()
        for spec in d.indexes:
            probe = spec[0]
            values = [range(-1, 1 + max(dims))] * len(probe)
            # a bool names no cell of a dense relation, as in its cells
            assert d.indexes[spec].get((True,) * len(probe), {}) == {}
            for key in [*itertools.product(*values), ("x",) * len(probe)]:
                got = d.indexes[spec].get(key, {})
                want = p.indexes[spec].get(key, {})
                assert {g: sorted(ks) for g, ks in got.items()} == {
                    g: sorted(ks) for g, ks in want.items()
                }
                assert sorted(d.index_lookup(spec, key)) == sorted(p.index_lookup(spec, key))
    assert dense.counters.snapshot() == plain.counters.snapshot()


@pytest.mark.parametrize("shape", [(4,), (9,), None], ids=["foreign", "long", "dict"])
def test_a_factor_not_stored_in_its_declared_shape_is_checked_cell_by_cell(shape):
    state, _ = chain_runtime((3, 4, 2, 5))
    before = chain_snapshot(state)
    if shape is None:
        u = Relation(("X1",), state.ring)
        u.accumulate((0,), 1.0)
    else:
        u = DenseRelation(("X1",), state.ring, shape)
        u.fill([1.0] + [0.0] * (shape[0] - 2))
    u.accumulate((3,), 2.0)
    v = state.relation(("X2",))
    v.fill([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=r"A1 row \(3,\): X1=3 is outside \[0, 3\)"):
        state.apply_batch([UpdateDelta("A2", (((0, 0), 1.0),)), FactorizedDelta("A1", (u, v))])
    assert chain_snapshot(state) == before


@pytest.mark.parametrize(
    "values", [[2.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 0.0, 0.0]], ids=["one", "short", "long"]
)
def test_a_factor_in_a_foreign_shape_climbs_in_its_declared_one(values):
    """A dense factor over X2 whose array is not the declared 4 cells, but
    whose nonzero cells are all in range, passes the cell check and is
    copied into the declared shape: the whole batch applies, a point
    update before it included, and the root is the numpy product. In its
    own shape ``einsum`` would refuse it, or stretch one cell over four."""
    state, mats = chain_runtime((4, 4, 4, 4))
    u = DenseRelation(("X2",), state.ring, (len(values),))
    u.fill(values)
    v = state.relation(("X3",))
    v.fill([2.0, -1.0, 0.0, 1.0])
    state.apply_batch([UpdateDelta("A1", (((0, 0), 5.0),)), FactorizedDelta("A2", (u, v))])
    mats[0][0, 0] += 5.0
    mats[1] += np.outer((values + [0.0] * 4)[:4], [2.0, -1.0, 0.0, 1.0])
    assert np.allclose(to_dense(state, (4, 4)), oracles.chain_product(mats), rtol=1e-12)
    recomputed = state.recompute_oracle().entries.array
    assert np.allclose(state.result().entries.array, recomputed, rtol=1e-12)


def test_a_dict_product_factor_over_ranged_variables_reaches_the_plan_dense(monkeypatch):
    """A rank-one factor given as a dict relation over X2, whose range is
    declared, is copied into the dense relation the state makes over X2
    before it enters A2's plan. So it plans and counts as a state-made
    factor does: the same update with a state-made factor spends the same
    units and leaves the same leaves, views and root."""
    values, col = [1.0, 0.0, -2.0, 3.0], [2.0, -1.0, 0.0, 1.0]
    runs = []
    for made in ("dict", "state"):
        state, _ = chain_runtime((4, 4, 4, 4))
        if made == "dict":
            u = Relation(("X2",), state.ring)
            u.accumulate_all(((i,), x) for i, x in enumerate(values) if x)
        else:
            u = state.relation(("X2",))
            u.fill(values)
        v = state.relation(("X3",))
        v.fill(col)
        forms = []
        enter = state._enter

        def record(entry, form, enter=enter, forms=forms):
            forms.append([(type(f), f.shape) for f in form])
            return enter(entry, form)

        monkeypatch.setattr(state, "_enter", record)
        before = state.counters.snapshot()
        state.apply_batch([FactorizedDelta("A2", (u, v))])
        units = tuple(b - a for a, b in zip(before, state.counters.snapshot()))
        runs.append((forms, units, chain_snapshot(state), dict(state.result().entries)))
    assert runs[0][0] == [[(DenseRelation, (4,)), (DenseRelation, (4,))]]
    assert runs[0] == runs[1]


def test_a_full_rank_one_update_pays_one_einsum_per_contraction(monkeypatch):
    """Fully nonzero operands count their joined rows in closed form, and
    factors stored as their relation's cells skip the per-cell check."""
    p = 8
    state, mats = chain_runtime((p,) * 4, values=(1, 3))
    calls = {"einsum": 0, "contract": 0, "checked_rows": 0}
    einsum, contract, checked = np.einsum, relations._contract, Query.checked

    def counted_einsum(*args, **kwargs):
        calls["einsum"] += 1
        return einsum(*args, **kwargs)

    def counted_contract(*args):
        calls["contract"] += 1
        return contract(*args)

    def counted_checked(self, *args):
        for row in checked(self, *args):
            calls["checked_rows"] += 1
            yield row

    monkeypatch.setattr(np, "einsum", counted_einsum)
    monkeypatch.setattr(relations, "_contract", counted_contract)
    monkeypatch.setattr(Query, "checked", counted_checked)
    rng = np.random.default_rng(5)
    for i in range(3):
        u, v = rng.uniform(1, 2, p), rng.uniform(1, 2, p)
        assert mcm_rank_update(state, i + 1, u.tolist(), v.tolist()) == 2 * p
        mats[i] = mats[i] + np.outer(u, v)
    monkeypatch.undo()
    assert calls["contract"] >= 12
    assert calls["einsum"] == calls["contract"] and calls["checked_rows"] == 0
    want = oracles.chain_product(mats)
    assert np.allclose(to_dense(state, (p, p)), want, rtol=1e-12)


def test_a_rank_one_path_is_planned_once_per_state(monkeypatch):
    """Ten rank-one updates to one matrix plan its path once. A load drops
    the plan with the paths, and the next update plans again against the
    new relations and answers like the recompute."""
    dims = (4, 5, 3, 6)
    state, mats = chain_runtime(dims)
    planned = []
    plan = RuntimeState._plan

    def spy(self, entry, levels, form):
        planned.append((entry.id, [f.schema for f in form]))
        return plan(self, entry, levels, form)

    monkeypatch.setattr(RuntimeState, "_plan", spy)
    rng = np.random.default_rng(11)
    for _ in range(10):
        u, v = rng.uniform(-1, 1, dims[1]), rng.uniform(-1, 1, dims[2])
        assert mcm_rank_update(state, 2, u.tolist(), v.tolist()) == dims[1] + dims[2]
        mats[1] = mats[1] + np.outer(u, v)
    assert planned == [("A2", [("X2",), ("X3",)])]
    assert np.allclose(to_dense(state, (dims[0], dims[-1])), oracles.chain_product(mats))

    fresh, mats = chain_runtime(dims, seed=12)
    state.load({name: list(fresh.leaves[name].items()) for name in ("A1", "A2", "A3")})
    u, v = rng.uniform(-1, 1, dims[1]), rng.uniform(-1, 1, dims[2])
    mcm_rank_update(state, 2, u.tolist(), v.tolist())
    mats[1] = mats[1] + np.outer(u, v)
    assert len(planned) == 2
    recomputed = state.recompute_oracle().entries.array
    assert np.allclose(state.result().entries.array, recomputed, rtol=1e-12, atol=1e-12)
    assert np.allclose(recomputed, oracles.chain_product(mats), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_a_sparse_rank_one_update_after_a_full_one_moves_like_the_dict_path(i):
    """A rank-one update whose ``u`` has zero cells, after a fully nonzero
    one on the same planned path, takes the counted branch of
    ``_contract`` where the first took the planned units. Each store's
    moves, the counters and the arrays equal the dict twin's."""
    dims = (3, 4, 2, 5)
    dense, plain = twin_chains(dims)
    data = {
        f"A{j + 1}": [
            ((r, c), float(1 + (r + c) % 3)) for r in range(dims[j]) for c in range(dims[j + 1])
        ]
        for j in range(3)
    }
    stores = {id(dense): [], id(plain): []}
    store, joined = ivm.rel_apply_delta, relations._joined
    counted = []

    def spy(target, delta):
        moves = store(target, delta)
        for state in (dense, plain):
            if any(rel is target for rel in (*state.leaves.values(), *state.views.values())):
                stores[id(state)].append((target.name, sorted(moves)))
        return moves

    def counting(*args):
        counted.append(1)
        return joined(*args)

    u_full = [1.0 + r for r in range(dims[i])]
    u_zeros = [0.0 if r % 2 else -1.0 - r for r in range(dims[i])]
    v = [1.0 + c for c in range(dims[i + 1])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ivm, "rel_apply_delta", spy)
        mp.setattr(relations, "_joined", counting)
        for state in (dense, plain):
            state.load(data)
        for u, sparse in ((u_full, False), (u_zeros, True), (u_full, False)):
            counted.clear()
            for state in (dense, plain):
                stores[id(state)].clear()
                mcm_rank_update(state, i + 1, u, v)
            assert bool(counted) is sparse
            assert stores[id(dense)] == stores[id(plain)] != []
            assert dense.counters.snapshot() == plain.counters.snapshot()
            assert chain_snapshot(dense) == chain_snapshot(plain)
            shape = (dims[0], dims[-1])
            assert np.array_equal(to_dense(dense, shape), to_dense(plain, shape))


def test_factors_do_not_alias_their_vectors():
    """A rank-one update's factors hold copies of ``u`` and ``v``: changing
    the numpy vectors in place afterwards changes no stored view."""
    state, _ = chain_runtime((3, 4, 2, 5))
    u, v = np.array([1.0, -2.0, 3.0]), np.array([0.5, 1.0, -1.0, 2.0])
    factors = []
    fill = DenseRelation.fill

    def kept(self, values):
        fill(self, values)
        factors.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DenseRelation, "fill", kept)
        assert mcm_rank_update(state, 1, u, v) == 7
    assert [f.schema for f in factors] == [("X1",), ("X2",)]
    before = dense_cells(state)
    u[:] = 9.0
    v *= -3.0
    assert dense_cells(state) == before
    assert factors[0].entries.array.tolist() == [1.0, -2.0, 3.0]
    assert factors[1].entries.array.tolist() == [0.5, 1.0, -1.0, 2.0]


def test_rank_updates_need_a_real_matrix():
    state, _ = chain_runtime((3, 4, 2, 5))
    with pytest.raises(ValueError, match="no matrix named A9"):
        mcm_rank_update(state, 9, [1.0], [1.0])


# ---------------------------------------------------------------------------
# exports


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_covariance_export_round_trips(tmp_path):
    cq, state = stats_state(
        [("R", ("X", "Y"))],
        {"X": "continuous", "Y": "continuous"},
        {"R": [(0.0, 0.0), (2.0, 4.0)]},
        VariableOrder([["X", ["Y"]]]),
    )
    path = tmp_path / "cov.csv"
    export_covariance_csv(str(path), cq.query.ring, cq.slots, root_triple(state))
    rows = read_csv(path)
    assert rows[0] == ["", "X", "Y"]
    assert [float(x) for x in rows[1][1:]] == [1.0, 2.0]
    assert [float(x) for x in rows[2][1:]] == [2.0, 4.0]


def test_mi_and_tree_exports(tmp_path):
    mi = MIMatrix(("X", "Y"), ((0.0, 0.25), (0.25, 0.0)))
    mi_path = tmp_path / "mi.csv"
    export_mi_csv(str(mi_path), mi)
    assert read_csv(mi_path) == [["", "X", "Y"], ["X", "0.0", "0.25"], ["Y", "0.25", "0.0"]]
    tree = chow_liu_tree(mi)
    tree_path = tmp_path / "tree.csv"
    export_chow_liu_csv(str(tree_path), tree, mi)
    assert read_csv(tree_path) == [["from", "to", "score"], ["X", "Y", "0.25"]]


def test_theta_export(tmp_path):
    cq, state = grid_stats()
    config = RegressionConfig("Y", ("X1", "X2"), step_size=0.01)
    result = train_linear_regression(cq.query.ring, cq.slots, root_triple(state), config)
    path = tmp_path / "theta.csv"
    export_theta_csv(str(path), result)
    rows = read_csv(path)
    assert rows[0] == ["coefficient", "value"]
    got = {name: float(val) for name, val in rows[1:]}
    assert got["intercept"] == pytest.approx(3.0, abs=1e-6)
    assert got["X1"] == pytest.approx(2.0, abs=1e-6)
    assert got["X2"] == pytest.approx(-1.0, abs=1e-6)
