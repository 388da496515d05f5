"""Result enumeration and per-tuple payload lookup.

Enumeration runs the listing plan the planner left on the view tree
(``ViewTree.listing_steps`` and ``ViewTree.payload_plan``). A tree that
keeps the whole result keyed in its roots is listed by scanning the root.
Otherwise the result streams without being stored anywhere: free variables
are walked in variable order, each one iterating the distinct values one
grouped index holds under the values already fixed, and the payload of a
complete row multiplies the stored payloads of the views that cover it.
Views, indexes and key positions are resolved once when a listing starts,
so the work per row is index iteration and payload lookups.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator, Optional, Sequence

from fivm.ivm import RuntimeState
from fivm.relations import Relation
from fivm.rings import (
    COVARIANCE,
    REAL,
    RelationalPayload,
    covariance_dense,
    relational_payload,
)
from fivm.viewtree import ViewNode

__all__ = [
    "check_csv_form",
    "listing_csv_rows",
    "enumerate_result",
    "payload_of_tuple",
    "materialize_listing",
]


def enumerate_result(
    state: RuntimeState, limit: Optional[int] = None
) -> Iterator[tuple[tuple, Any]]:
    """Yield (key, payload) result rows, keys in the query's free order.

    Under an output-oriented tree the rows come out in the nested order of
    the variable order's walk; payloads whose contributions cancel to zero
    are skipped. Otherwise the rows are read straight from the root view.
    ``limit``, when given, caps the number of rows.
    """
    steps = state.tree.listing_steps
    if steps:
        rows = _walk(state, steps)
    else:
        root = state.result()
        rows = root.items()
        if root.schema != state.query.free:
            pos = [root.schema.index(v) for v in state.query.free]
            rows = ((tuple(k[i] for i in pos), v) for k, v in rows)
    if limit is not None:
        rows = islice(rows, max(limit, 0))
    # A plain loop: on one-row listings ``yield from`` delays the row more.
    for row in rows:
        yield row


def _walk(state: RuntimeState, steps) -> Iterator[tuple[tuple, Any]]:
    """Rows of an output-oriented tree, its listing steps resolved once."""
    at = {var: i for i, (var, _, _) in enumerate(steps)}
    levels = []
    for var, view_id, probe in steps:
        rel = state.stored(view_id)
        levels.append((rel, rel.ensure_index(probe, var), tuple(at[v] for v in probe)))
    covers = _bind(state, state.tree.payload_plan, at)
    out_pos = [at[v] for v in state.query.free]
    ring = state.ring
    is_zero = ring.is_zero
    row: list[Any] = [None] * len(levels)
    last = len(levels) - 1

    def walk(i: int) -> Iterator[tuple[tuple, Any]]:
        rel, spec, probe_pos = levels[i]
        for value in rel.index_groups(spec, tuple(row[j] for j in probe_pos)):
            row[i] = value
            if i < last:
                yield from walk(i + 1)
                continue
            val = _product(ring, covers, row, stop_at_zero=False)
            if not is_zero(val):
                yield tuple(row[j] for j in out_pos), val

    return walk(0)


def payload_of_tuple(state: RuntimeState, key: tuple) -> Any:
    """Payload of one would-be result row, given in the query's free order.

    Multiplies the stored payloads of the views that jointly cover the
    row, as the tree's payload plan lists them. Returns the ring zero when
    the row is not in the result.
    """
    free = state.query.free
    if len(key) != len(free):
        raise ValueError(f"expected values for {free}, got {key}")
    covers = _bind(state, state.tree.payload_plan, {v: i for i, v in enumerate(free)})
    ring = state.ring
    val = _product(ring, covers, key, stop_at_zero=False)
    return ring.zero if ring.is_zero(val) else val


def _bind(state: RuntimeState, parts, at: dict[str, int]) -> list:
    """Payload plan parts with each covering view replaced by its stored
    relation and the row positions of its keys; products stay lists."""
    return [
        (state.stored(p.id), tuple(at[v] for v in p.keys))
        if isinstance(p, ViewNode)
        else _bind(state, p, at)
        for p in parts
    ]


def _product(ring, parts: list, row: Sequence, stop_at_zero: bool = True) -> Any:
    """Multiply the payloads of bound plan parts for one row of values.
    Below the roots a product stops at its first zero; across them it does not."""
    mul, is_zero, zero = ring.mul, ring.is_zero, ring.zero
    acc = None
    for part in parts:
        if isinstance(part, list):
            val = _product(ring, part, row)
        else:
            rel, pos = part
            if rel.counters is not None:
                rel.counters.entry_reads += 1
            val = rel.entries.get(tuple([row[i] for i in pos]), zero)
        acc = val if acc is None else mul(acc, val)
        if stop_at_zero and is_zero(acc):
            return zero
    return acc


def materialize_listing(state: RuntimeState, kind: str = "keys"):
    """Collect the full result, either as a relation or one nested payload.

    ``kind="keys"`` returns a relation keyed by the free variables holding
    each row's payload. ``kind="relational_payload"`` returns a single map
    from free-variable tuples to scalars, totalizing relational payloads
    where needed; it is how a listing result nests into one value.
    """
    query = state.query
    if kind == "keys":
        out = Relation(query.free, state.ring, counters=state.counters)
        out.accumulate_all(enumerate_result(state))
        return out
    if kind != "relational_payload":
        raise ValueError(f"unknown listing kind: {kind!r}")
    entries: dict[tuple, Any] = {}
    for key, val in enumerate_result(state):
        if isinstance(val, RelationalPayload):
            entries[key] = val.total()
        elif isinstance(val, (int, float)):
            entries[key] = val
        else:
            raise ValueError("relational_payload listing needs scalar-like payloads")
    return relational_payload(query.free, entries)


def check_csv_form(ring) -> None:
    """Raise ValueError when a listing over ``ring`` has no flat CSV form."""
    if ring.kind == COVARIANCE and ring.base != REAL:
        raise ValueError("triples over grouped scalars have no flat CSV form")


def listing_csv_rows(
    state: RuntimeState, limit: Optional[int] = None
) -> tuple[list[str], Iterator[list]]:
    """Header and row iterator for a CSV dump of the result listing.

    The header starts with the free variables. Plain payloads add one
    ``payload`` column; relational payloads export their total; a
    real-based statistics triple expands into its count, the per-slot
    sums, and the upper triangle of the pairwise products.
    """
    ring = state.ring
    free = list(state.query.free)
    check_csv_form(ring)
    if ring.kind == COVARIANCE:
        m = ring.degree
        header = (
            free
            + ["c"]
            + [f"s_{j}" for j in range(1, m + 1)]
            + [f"q_{i}_{j}" for i in range(1, m + 1) for j in range(i, m + 1)]
        )

        def rows() -> Iterator[list]:
            for key, val in enumerate_result(state, limit=limit):
                c, s, q = covariance_dense(ring, val)
                flat = [c] + list(s)
                for i in range(m):
                    flat.extend(q[i][i:])
                yield list(key) + flat

        return header, rows()
    header = free + ["payload"]

    def plain_rows() -> Iterator[list]:
        for key, val in enumerate_result(state, limit=limit):
            if isinstance(val, RelationalPayload):
                yield list(key) + [val.total()]
            else:
                yield list(key) + [val]

    return header, plain_rows()
