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
tolerance, where a zero stays one whatever multiplies it).

The walk is one generator frame over an explicit stack of per-step value
iterators and partial products. Each step's index table, probe-key getter
and cover readers (an entry lookup and a key getter each) are resolved
once when a listing starts, and the cover reads and products run inline,
so the work per row is one index step and the reads of the covers the
last step completes."""

from __future__ import annotations

from itertools import chain, islice
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional, Sequence

from fivm.ivm import RuntimeState

__all__ = [
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
    """Rows of an output-oriented tree, walked depth first in this one
    frame: ``groups[i]`` iterates step ``i``'s values under the values bound
    before it, and ``accs[i]`` is the product of the covers those values
    complete (None before the first)."""
    at = {var: i for i, (var, _, _) in enumerate(steps)}
    tables, probes, covers = [], [], []
    for (var, view_id, probe), group in zip(steps, state.tree.listing_covers):
        rel = state.stored(view_id)
        tables.append(rel.indexes[rel.ensure_index(probe, var)].get)
        probes.append(_getter([at[v] for v in probe]))
        covers.append(_readers(state, group, at))
    out = _getter([at[v] for v in state.query.free])
    ring, counters = state.ring, state.counters
    mul, zero, is_zero = ring.mul, ring.zero, ring.is_zero
    # A zero within a tolerance need not stay one after later covers
    # multiply in, so only an exact zero cuts a prefix.
    cut = (lambda _: False) if ring.zero_tolerance else is_zero
    last = len(steps) - 1
    row: list[Any] = [None] * len(steps)
    groups: list[Any] = [None] * len(steps)
    accs: list[Any] = [None] * len(steps)
    counters.index_probes += 1
    groups[0] = iter(tables[0](probes[0](row), ()))
    i = 0
    while i >= 0:
        readers, above, n = covers[i], accs[i], len(covers[i])
        for value in groups[i]:
            row[i] = value
            acc = above
            counters.entry_reads += n
            for get, key in readers:
                val = get(key(row), zero)
                acc = val if acc is None else mul(acc, val)
            if i == last:
                # The last step completes at least the cover of its variable.
                if not is_zero(acc):
                    yield out(row), acc
            elif acc is None or not cut(acc):
                i += 1
                accs[i] = acc
                counters.index_probes += 1
                groups[i] = iter(tables[i](probes[i](row), ()))
                break
        else:
            i -= 1


def payload_of_tuple(state: RuntimeState, key: tuple) -> Any:
    """Payload of one would-be result row, given in the query's free order.

    Multiplies the stored payloads of the views that jointly cover the
    row, in the order the listing reads them. Returns the ring zero when
    the row is not in the result.
    """
    free = state.query.free
    if len(key) != len(free):
        raise ValueError(f"expected values for {free}, got {key}")
    ring = state.ring
    covers = chain.from_iterable(state.tree.listing_covers)
    readers = _readers(state, covers, {v: i for i, v in enumerate(free)})
    state.counters.entry_reads += len(readers)
    val = None
    for get, key_of in readers:
        cover = get(key_of(key), ring.zero)
        val = cover if val is None else ring.mul(val, cover)
    return ring.zero if ring.is_zero(val) else val


def _readers(state: RuntimeState, covers, at: dict[str, int]) -> list:
    """Each covering view's entry lookup and the getter of its key out of a
    row whose variables sit at the positions ``at`` gives."""
    return [(state.stored(n.id).entries.get, _getter([at[v] for v in n.keys])) for n in covers]


def _getter(pos: list[int]) -> Callable[[Sequence], tuple]:
    """A function returning the tuple of a row's values at ``pos``."""
    if len(pos) > 1:
        return itemgetter(*pos)
    if pos:
        i = pos[0]
        return lambda row: (row[i],)
    return lambda row: ()


def listing_csv_rows(
    state: RuntimeState, limit: Optional[int] = None
) -> tuple[list[str], Iterator[list]]:
    """Header and row iterator for a CSV dump of the result listing.

    The header starts with the free variables, then the ring's flat
    columns (:attr:`RingSpec.columns`), and each row holds its payload's
    flat form. Raises ValueError when the ring has no flat form.
    """
    ring = state.ring
    flat = ring.flat
    if flat is None:
        raise ValueError("triples over grouped scalars have no flat CSV form")
    header = [*state.query.free, *ring.columns]
    rows = (list(key) + flat(val) for key, val in enumerate_result(state, limit=limit))
    return header, rows
