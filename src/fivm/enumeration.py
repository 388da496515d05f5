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

The walk is Python code generated for the state's plan (:func:`compiled_walk`)
at its first walked listing and kept until the stored relations are
rebound: one generator with one ``for`` loop per step over the step's
index bucket, probed with the values the enclosing loops bound, and one
entry lookup per cover the step completes, multiplied into a local. The
work per row is one index step and the reads of the covers the last step
completes. Python nests at most 20 blocks, so a deeper plan goes on in a
second generated generator, given the bound values and the product so far."""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterator, Optional

from fivm.ivm import RuntimeState
from fivm.relations import _MAX_LOOPS, RowCode

__all__ = [
    "compiled_walk",
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
        rows = compiled_walk(state)()
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


def compiled_walk(state: RuntimeState) -> Callable[[], Iterator[tuple[tuple, Any]]]:
    """The generator function ``walk()`` that lists the rows of ``state``'s
    output-oriented tree, its source kept as ``walk.source``. It is compiled
    at the state's first walked listing and kept until
    :meth:`RuntimeState.initialize` rebinds the stored relations it reads.
    Each step charges one index probe when it opens its bucket and one
    entry read per cover for every value it binds, as it goes, so a listing
    dropped early has charged exactly what it read."""
    if state.walk is not None:
        return state.walk
    steps, ring = state.tree.listing_steps, state.ring
    code = RowCode()
    code.consts.update(M=ring.mul, Z=ring.is_zero, ZERO=ring.zero, C=state.counters)
    bound = {var: code.name("x") for var, _, _ in steps}

    def values(variables) -> str:
        names = [bound[v] for v in variables]
        return f"({', '.join(names)}{',' if len(names) == 1 else ''})"

    acc, depth, last = None, 0, len(steps) - 1
    for i, ((var, view_id, probe), covers) in enumerate(zip(steps, state.tree.listing_covers)):
        if i % _MAX_LOOPS == 0:
            # Python nests at most 20 blocks: past the bound the walk goes
            # on in a generator of its own, given the values bound so far
            # and their product.
            name = code.name("walk") if i else "walk"
            params = ", ".join([*list(bound.values())[:i], *([acc] if acc else [])])
            if i:
                code.add(depth, f"yield from {name}({params})")
            code.add(0, f"def {name}({params}):")
            depth = 1
        rel = state.stored(view_id)
        table = code.const("T", rel.indexes[rel.ensure_index(probe, var)])
        code.add(depth, "C.index_probes += 1")
        code.add(depth, f"for {bound[var]} in {table}.get({values(probe)}, ()):")
        depth += 1
        if covers:
            code.add(depth, f"C.entry_reads += {len(covers)}")
        for node in covers:
            entries = code.const("E", state.stored(node.id).entries)
            read = f"{entries}.get({values(node.keys)}, ZERO)"
            prod = code.name("a")
            code.add(depth, f"{prod} = {read}" if acc is None else f"{prod} = M({acc}, {read})")
            acc = prod
        if i == last:
            # The last step completes at least the cover of its variable.
            code.add(depth, f"if not Z({acc}):")
            code.add(depth + 1, f"yield {values(state.query.free)}, {acc}")
        elif covers and not ring.zero_tolerance:
            # A zero within a tolerance need not stay one after later covers
            # multiply in, so only an exact zero cuts a prefix.
            code.add(depth, f"if Z({acc}):")
            code.add(depth + 1, "continue")
    walk = state.walk = code.compile("walk", f"walk {','.join(bound)}")
    walk.source = code.source
    return walk


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
    at = {v: i for i, v in enumerate(free)}
    covers = [node for group in state.tree.listing_covers for node in group]
    state.counters.entry_reads += len(covers)
    val = None
    for node in covers:
        cover = state.stored(node.id).entries.get(tuple(key[at[v]] for v in node.keys), ring.zero)
        val = cover if val is None else ring.mul(val, cover)
    return ring.zero if ring.is_zero(val) else val


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
