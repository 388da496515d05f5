"""Result enumeration and per-tuple payload lookup.

Enumeration runs the listing plan the planner left on the view tree
(``ViewTree.listing_steps`` and ``ViewTree.listing_covers``). A tree that
keeps the whole result keyed in its roots is listed by scanning the root.
Otherwise the result streams without being stored anywhere: free variables
are walked in variable order, each step iterating the distinct values one
grouped index holds under the values already fixed. A row's payload is the
product of the stored payloads of the views that cover it, and each of
those covers is read at the step that binds the last of its keys: once
per prefix of the walk, the partial product passed down to the next step,
and a subtree cut as soon as that product is zero (on rings without a zero
tolerance, where a zero stays one whatever multiplies it). Views, indexes and key
positions are resolved once when a listing starts, so the work per row is
one index step and the reads of the covers the last step completes.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Any, Iterator, Optional

from fivm.ivm import RuntimeState
from fivm.rings import COVARIANCE, REAL, RELATIONAL

__all__ = [
    "check_csv_form",
    "listing_csv_rows",
    "enumerate_result",
    "payload_of_tuple",
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
    for (var, view_id, probe), group in zip(steps, state.tree.listing_covers):
        rel = state.stored(view_id)
        pos = tuple(at[v] for v in probe)
        levels.append((rel, rel.ensure_index(probe, var), pos, _bind(state, group, at)))
    out_pos = [at[v] for v in state.query.free]
    ring = state.ring
    is_zero = ring.is_zero
    # A zero within a tolerance need not stay one after later covers
    # multiply in, so only an exact zero cuts a prefix.
    cut = (lambda _: False) if ring.zero_tolerance else is_zero
    row: list[Any] = [None] * len(levels)
    times = _times(state, row)
    last = len(levels) - 1

    def walk(i: int, acc: Any) -> Iterator[tuple[tuple, Any]]:
        """Rows under the values bound before step ``i``; ``acc`` is the
        product of the covers they complete (None before the first)."""
        rel, spec, probe_pos, covers = levels[i]
        values = rel.index_groups(spec, tuple([row[j] for j in probe_pos]))
        if i < last:
            for value in values:
                row[i] = value
                prod = times(acc, covers)
                if prod is None or not cut(prod):
                    yield from walk(i + 1, prod)
            return
        # The last step completes at least the cover holding its variable.
        for value in values:
            row[i] = value
            prod = times(acc, covers)
            if not is_zero(prod):
                yield tuple([row[j] for j in out_pos]), prod

    return walk(0, None)


def payload_of_tuple(state: RuntimeState, key: tuple) -> Any:
    """Payload of one would-be result row, given in the query's free order.

    Multiplies the stored payloads of the views that jointly cover the
    row, in the order the listing reads them. Returns the ring zero when
    the row is not in the result.
    """
    free = state.query.free
    if len(key) != len(free):
        raise ValueError(f"expected values for {free}, got {key}")
    covers = chain.from_iterable(state.tree.listing_covers)
    val = _times(state, key)(None, _bind(state, covers, {v: i for i, v in enumerate(free)}))
    return state.ring.zero if state.ring.is_zero(val) else val


def _bind(state: RuntimeState, covers, at: dict[str, int]) -> list:
    """Each covering view's entry dict and the row positions of its keys."""
    return [(state.stored(n.id).entries, tuple(at[v] for v in n.keys)) for n in covers]


def _times(state: RuntimeState, row):
    """A function multiplying a partial product (None when empty) by bound
    covers' payloads under the values in ``row``, counting each read."""
    mul, zero, counters = state.ring.mul, state.ring.zero, state.counters

    def times(acc: Any, covers: list) -> Any:
        counters.entry_reads += len(covers)
        for entries, pos in covers:
            val = entries.get(tuple([row[j] for j in pos]), zero)
            acc = val if acc is None else mul(acc, val)
        return acc

    return times


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
    sums, and the upper triangle of the pairwise products, an absent
    slot or pair read as 0.0.
    """
    ring = state.ring
    check_csv_form(ring)
    header = list(state.query.free)
    if ring.kind == COVARIANCE:
        slots = range(1, ring.degree + 1)
        pairs = [(i, j) for i in slots for j in slots if i <= j]
        header += ["c", *(f"s_{j}" for j in slots), *(f"q_{i}_{j}" for i, j in pairs)]

        def flat(t: Any) -> list:
            return [t.c, *(t.s.get(j, 0.0) for j in slots), *(t.Q.get(p, 0.0) for p in pairs)]

    else:
        header.append("payload")
        flat = (lambda p: [p.total()]) if ring.kind == RELATIONAL else (lambda p: [p])
    rows = (list(key) + flat(val) for key, val in enumerate_result(state, limit=limit))
    return header, rows
