"""Payload algebra: ring laws, lifting functions, and the two structured
payload types (relational maps and degree-m statistic triples)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivm.rings import (
    COVARIANCE,
    INTEGER,
    REAL,
    RELATIONAL,
    CovarianceTriple,
    LiftingFunction,
    RelationalPayload,
    RingSpec,
    covariance_ring,
    integer_ring,
    is_zero,
    lift,
    lift_categorical,
    lift_continuous,
    lift_identity,
    lift_singleton,
    lift_to_one,
    lift_unit,
    real_ring,
    relational_payload,
    relational_ring,
    relational_total,
    ring_add,
    ring_mul,
    ring_negate,
    ring_one,
    ring_zero,
)

# ---------------------------------------------------------------------------
# element strategies, one per ring kind

ints = st.integers(min_value=-30, max_value=30)
int_floats = ints.map(float)


def payloads_over(schema):
    values = st.integers(min_value=0, max_value=3)
    keys = st.tuples(*[values for _ in schema])
    return st.dictionaries(keys, ints, max_size=4).map(
        lambda d: relational_payload(tuple(schema), d)
    )


def payloads(columns=("x", "y")):
    schemas = st.lists(st.sampled_from(columns), unique=True, max_size=len(columns))
    return schemas.flatmap(payloads_over)


def payload_triples(columns=("x", "y")):
    """Three payloads sharing one schema.

    Payload addition in the engine always happens between values of the
    same view, hence the same column set; the laws are stated (and hold)
    on that domain. Cross-schema addition exists only as a totality
    fallback and is exercised separately.
    """
    schemas = st.lists(st.sampled_from(columns), unique=True, max_size=len(columns))
    return schemas.flatmap(
        lambda s: st.tuples(payloads_over(s), payloads_over(s), payloads_over(s))
    )


def triples(degree=2):
    # Ring operations keep triples normalized (no stored zeros), so the
    # strategy must produce normalized ones too or equality checks would
    # compare representations rather than values.
    slot = st.integers(min_value=1, max_value=degree)
    pair = st.tuples(slot, slot).map(lambda p: (min(p), max(p)))
    nonzero = ints.filter(lambda v: v != 0)
    return st.builds(
        CovarianceTriple,
        ints,
        st.dictionaries(slot, nonzero, max_size=degree),
        st.dictionaries(pair, nonzero, max_size=3),
    )


# Column sets of a degree-2 triple over relational payloads: slot 1 is
# categorical (grouped by x), slot 2 continuous. Every component carries the
# columns of its slots, as lifts and products produce them in the engine.
REL_SLOT_COLUMNS = {1: ("x",), 2: ()}


def relational_triples():
    def part(keys, columns_of):
        # Normalized like ring results: zero components are not stored.
        optional = {k: payloads_over(columns_of(k)) for k in keys}
        return st.fixed_dictionaries({}, optional=optional).map(
            lambda d: {k: v for k, v in d.items() if v.entries}
        )

    def pair_columns(ij):
        return tuple(sorted(set(REL_SLOT_COLUMNS[ij[0]] + REL_SLOT_COLUMNS[ij[1]])))

    return st.builds(
        CovarianceTriple,
        payloads_over(()),
        part(REL_SLOT_COLUMNS, REL_SLOT_COLUMNS.get),
        part([(1, 1), (1, 2), (2, 2)], pair_columns),
    )


def triple_of(elems):
    return st.tuples(elems, elems, elems)


# (ring, any three elements, three addition-compatible elements)
RING_CASES = [
    pytest.param(integer_ring(), triple_of(ints), triple_of(ints), id="integer"),
    pytest.param(real_ring(), triple_of(int_floats), triple_of(int_floats), id="real"),
    pytest.param(relational_ring(), triple_of(payloads()), payload_triples(), id="relational"),
    pytest.param(covariance_ring(2), triple_of(triples()), triple_of(triples()), id="covariance"),
    pytest.param(
        covariance_ring(2, base=RELATIONAL),
        triple_of(relational_triples()),
        triple_of(relational_triples()),
        id="covariance-relational",
    ),
]


@pytest.mark.parametrize("spec,any3,addable3", RING_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_additive_group_laws(spec, any3, addable3, data):
    a, b, c = data.draw(addable3)
    assert ring_add(spec, a, b) == ring_add(spec, b, a)
    assert ring_add(spec, ring_add(spec, a, b), c) == ring_add(spec, a, ring_add(spec, b, c))
    assert ring_add(spec, a, ring_zero(spec)) == a
    assert is_zero(spec, ring_add(spec, a, ring_negate(spec, a)))


@pytest.mark.parametrize("spec,any3,addable3", RING_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multiplicative_laws(spec, any3, addable3, data):
    a, b, c = data.draw(any3)
    assert ring_mul(spec, a, b) == ring_mul(spec, b, a)
    assert ring_mul(spec, ring_mul(spec, a, b), c) == ring_mul(spec, a, ring_mul(spec, b, c))
    one = ring_one(spec)
    assert ring_mul(spec, a, one) == a
    assert is_zero(spec, ring_mul(spec, a, ring_zero(spec)))


@pytest.mark.parametrize("spec,any3,addable3", RING_CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_distributivity(spec, any3, addable3, data):
    b, c, _ = data.draw(addable3)
    a, _, _ = data.draw(any3)
    left = ring_mul(spec, a, ring_add(spec, b, c))
    right = ring_add(spec, ring_mul(spec, a, b), ring_mul(spec, a, c))
    assert left == right


@pytest.mark.parametrize("spec,any3,addable3", RING_CASES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bound_operators_match_the_ring_functions(spec, any3, addable3, data):
    a, b, _ = data.draw(addable3)
    c, d, _ = data.draw(any3)
    assert spec.add(a, b) == ring_add(spec, a, b)
    assert spec.mul(c, d) == ring_mul(spec, c, d)
    assert spec.neg(c) == ring_negate(spec, c)
    assert spec.is_zero(c) == is_zero(spec, c)
    assert spec.zero == ring_zero(spec) and spec.is_zero(spec.zero)
    assert spec.one == ring_one(spec) and not spec.is_zero(spec.one)
    spec.check(c)


@pytest.mark.parametrize("spec", [p.values[0] for p in RING_CASES] + [real_ring(1e-9)])
def test_specs_compare_on_their_descriptor_fields_only(spec):
    twin = RingSpec(spec.kind, spec.degree, spec.base, spec.zero_tolerance)
    assert twin == spec and hash(twin) == hash(spec) and repr(twin) == repr(spec)
    assert "add" not in repr(spec)


def test_zero_tolerance_only_affects_real_comparisons():
    tight = real_ring()
    loose = real_ring(zero_tolerance=1e-9)
    assert not is_zero(tight, 1e-12)
    assert is_zero(loose, 1e-12)
    assert not is_zero(loose, 1e-6)


def test_ring_kind_constants_line_up():
    assert integer_ring().kind == INTEGER
    assert real_ring().kind == REAL
    assert covariance_ring(3).kind == COVARIANCE
    assert relational_ring().kind == RELATIONAL


# ---------------------------------------------------------------------------
# relational payloads


def test_payload_schema_is_name_sorted():
    p = relational_payload(("B", "A"), {(1, 2): 3})
    assert p.schema == ("A", "B")
    assert p.entries == {(2, 1): 3}


def test_payload_zero_normalizes_to_empty_schema():
    p = relational_payload(("A",), {(1,): 0})
    assert p.schema == ()
    assert p.entries == {}
    assert p == RelationalPayload((), {})


def test_payload_total_and_collapse():
    p = relational_payload(("A",), {(1,): 2, (2,): 5})
    assert p.total() == 7
    assert relational_total(p) == relational_payload((), {(): 7})
    assert relational_total(relational_payload((), {})) == RelationalPayload((), {})


def test_payload_add_same_schema_cancels_to_zero():
    spec = relational_ring()
    p = relational_payload(("A",), {(1,): 2})
    n = relational_payload(("A",), {(1,): -2})
    assert is_zero(spec, ring_add(spec, p, n))


def test_payload_add_mismatched_schemas_meets_on_shared_columns():
    # Not reachable from the engine itself, but addition stays total:
    # both operands collapse onto the common columns first.
    spec = relational_ring()
    a = relational_payload(("A", "B"), {(1, 10): 2, (2, 11): 1})
    b = relational_payload(("A",), {(1,): 5})
    merged = ring_add(spec, a, b)
    assert merged == relational_payload(("A",), {(1,): 7, (2,): 1})


def test_payload_multiply_joins_on_shared_columns():
    a = relational_payload(("A", "B"), {(1, 10): 2, (2, 10): 3})
    b = relational_payload(("B", "C"), {(10, 7): 5, (11, 8): 9})
    spec = relational_ring()
    prod = ring_mul(spec, a, b)
    assert prod == relational_payload(
        ("A", "B", "C"), {(1, 10, 7): 10, (2, 10, 7): 15}
    )


def test_payload_multiply_disjoint_schemas_is_cartesian():
    a = relational_payload(("A",), {(1,): 2})
    b = relational_payload(("B",), {(5,): 3, (6,): 1})
    prod = ring_mul(relational_ring(), a, b)
    assert prod == relational_payload(("A", "B"), {(1, 5): 6, (1, 6): 2})


def test_payload_duplicate_columns_rejected():
    with pytest.raises(ValueError):
        relational_payload(("A", "A"), {(1, 1): 1})


@settings(max_examples=60, deadline=None)
@given(pair=payload_triples(), other=payloads())
def test_payload_operators_agree_with_ring_functions(pair, other):
    spec = relational_ring()
    a, b, _ = pair
    assert a + b == ring_add(spec, a, b)
    assert a * other == ring_mul(spec, a, other)
    assert -a == ring_negate(spec, a)
    assert (not a) == is_zero(spec, a)
    assert not (a + -a)


def test_relational_identity_elements():
    spec = relational_ring()
    assert ring_one(spec) == relational_payload((), {(): 1})
    assert ring_zero(spec) == RelationalPayload((), {})
    assert is_zero(spec, ring_zero(spec))


# ---------------------------------------------------------------------------
# lifting functions


def test_lift_to_one_yields_multiplicative_identity():
    for spec in (integer_ring(), real_ring(), covariance_ring(2), relational_ring()):
        assert lift(spec, lift_to_one("A"), "whatever") == ring_one(spec)


def test_lift_identity_passes_value_through():
    spec = real_ring()
    assert lift(spec, lift_identity("A"), 4.0) == 4.0
    doubled = lift_identity("A", valuer=lambda x: 2 * x)
    assert lift(spec, doubled, 4.0) == 8.0


def test_lift_continuous_builds_rank_one_triple():
    spec = covariance_ring(3)
    t = lift(spec, lift_continuous("X", 2), 5.0)
    assert t.c == 1
    assert t.s == {2: 5.0}
    assert t.Q == {(2, 2): 25.0}


def test_lift_categorical_builds_frequency_triple():
    spec = covariance_ring(3, base=RELATIONAL)
    t = lift(spec, lift_categorical("X", 2), "red")
    one = relational_payload(("X",), {("red",): 1})
    assert t.c == relational_payload((), {(): 1})
    assert t.s == {2: one}
    assert t.Q == {(2, 2): one}


def test_lift_categorical_valuer_coarsens_values():
    spec = covariance_ring(1, base=RELATIONAL)
    binned = lift_categorical("X", 1, valuer=lambda x: x // 10)
    t = lift(spec, binned, 37)
    assert t.s == {1: relational_payload(("X",), {(3,): 1})}


def test_lift_singleton_and_unit():
    spec = relational_ring()
    assert lift(spec, lift_singleton("A"), 7) == relational_payload(("A",), {(7,): 1})
    assert lift(spec, lift_unit("A"), 7) == ring_one(spec)


def test_lift_slot_bounds_checked():
    spec = covariance_ring(2)
    with pytest.raises(ValueError):
        lift(spec, lift_continuous("X", 3), 1.0)
    with pytest.raises(ValueError):
        LiftingFunction("X", "covariance_continuous", slot=0)


def test_lift_continuous_valuer_bins_before_aggregating():
    spec = covariance_ring(1)
    f = lift_continuous("X", 1, valuer=lambda x: float(int(x)))
    t = lift(spec, f, 2.75)
    assert t.s == {1: 2.0}


# ---------------------------------------------------------------------------
# covariance triples


def lifted_point(spec, xs):
    """Product of per-slot continuous lifts: the triple of one data point."""
    acc = ring_one(spec)
    for slot, x in enumerate(xs, start=1):
        acc = ring_mul(spec, acc, lift(spec, lift_continuous(f"X{slot}", slot), x))
    return acc


def test_triple_of_single_point_matches_direct_formulas():
    spec = covariance_ring(2)
    t = lifted_point(spec, (3.0, 4.0))
    assert t.c == 1
    assert t.s == {1: 3.0, 2: 4.0}
    assert t.Q == {(1, 1): 9.0, (1, 2): 12.0, (2, 2): 16.0}


def test_triple_sum_accumulates_raw_statistics():
    spec = covariance_ring(2)
    pts = [(1.0, 2.0), (3.0, 5.0), (-2.0, 0.5)]
    acc = ring_zero(spec)
    for p in pts:
        acc = ring_add(spec, acc, lifted_point(spec, p))
    assert acc.c == 3
    assert acc.s[1] == sum(x for x, _ in pts)
    assert acc.s[2] == sum(y for _, y in pts)
    assert acc.Q[(1, 2)] == sum(x * y for x, y in pts)
    assert acc.Q[(1, 1)] == sum(x * x for x, _ in pts)


def test_triple_product_scales_counts_and_crosses_sums():
    """Multiplying partitioned statistics behaves like joining two
    independent data fragments: counts multiply, each side's sums scale by
    the other's count, and cross moments are products of sums."""
    spec = covariance_ring(2)
    left = ring_add(
        spec,
        lift(spec, lift_continuous("X", 1), 2.0),
        lift(spec, lift_continuous("X", 1), 4.0),
    )
    right = lift(spec, lift_continuous("Y", 2), 10.0)
    prod = ring_mul(spec, left, right)
    assert prod.c == 2
    assert prod.s == {1: 6.0, 2: 20.0}
    assert prod.Q == {(1, 1): 20.0, (2, 2): 200.0, (1, 2): 60.0}


def test_triple_degree_mismatch_rejected():
    spec = covariance_ring(1)
    bad = CovarianceTriple(1, {2: 1.0}, {})
    with pytest.raises(ValueError):
        ring_add(spec, bad, ring_zero(spec))


@pytest.mark.parametrize("op", [ring_add, ring_mul])
@pytest.mark.parametrize(
    "bad",
    [
        CovarianceTriple(1.0, {3: 1.0}, {}),
        CovarianceTriple(1.0, {0: 1.0}, {}),
        CovarianceTriple(1.0, {}, {(2, 3): 1.0}),
        CovarianceTriple(1.0, {}, {(2, 1): 1.0}),
    ],
    ids=["slot-above", "slot-zero", "pair-above", "mirrored-pair"],
)
def test_out_of_degree_operand_rejected_on_either_side(op, bad):
    spec = covariance_ring(2)
    good = lifted_point(spec, (1.0, 2.0))
    with pytest.raises(ValueError):
        op(spec, bad, good)
    with pytest.raises(ValueError):
        op(spec, good, bad)


def test_covariance_relational_base_keeps_grouped_scalars():
    spec = covariance_ring(2, base=RELATIONAL)
    f_cat = lift_categorical("C", 1)
    f_num = lift_continuous("X", 2)
    t = ring_mul(spec, lift(spec, f_cat, "u"), lift(spec, f_num, 3.0))
    assert t.c == relational_payload((), {(): 1})
    assert t.s[2] == relational_payload((), {(): 3.0})
    assert t.Q[(1, 2)] == relational_payload(("C",), {("u",): 3.0})
    two = ring_add(spec, t, t)
    assert two.Q[(1, 1)] == relational_payload(("C",), {("u",): 2})


def test_negate_is_additive_inverse_for_triples():
    spec = covariance_ring(2)
    t = lifted_point(spec, (5.0, -1.0))
    assert is_zero(spec, ring_add(spec, t, ring_negate(spec, t)))
    assert math.isclose(ring_negate(spec, t).s[1], -5.0)
