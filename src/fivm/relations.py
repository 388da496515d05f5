"""Ring-annotated relations and the bulk operators over them.

A relation maps key tuples over a fixed variable schema to non-zero ring
payloads. Storage is a plain insertion-ordered dict plus any number of
secondary hash indexes, each grouping full keys first by a probe prefix and
then by an optional group column. All data access is counted so that
maintenance cost can be measured in ring-agnostic units: payload reads,
payload writes, and index probes. Bulk operators fetch the ring's bound
operators once and add their units to the counter block once per call.

Values inside key tuples are dictionary-encoded (plain ints), which keeps
hashing cheap and makes streams reproducible.

A :class:`DenseRelation` stores its entries as one numpy array instead
(:class:`DenseCells`, which keeps its nonzero count) and answers index
lookups from it, storing no index table. Over dense operands
:func:`rel_marginalize` runs one ``einsum`` and :func:`rel_apply_delta`
adds arrays, each counting the units the dict path spends on the same
nonzero cells. A batch of point rows merges with one ``np.add.at``
(:meth:`DenseRelation.scatter`), whose bounds test over the whole batch
is the query's entry check when ``Query.checks_cells`` is false for the
relation; a batch it does not take outright goes row by row.
"""

from __future__ import annotations

import math
import string
from collections.abc import MutableMapping
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, compress, product
from numbers import Integral
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from fivm.rings import TO_ONE, LiftingFunction, RingSpec, lift

__all__ = [
    "Tuple",
    "OpCounters",
    "Relation",
    "DenseCells",
    "DenseRelation",
    "IndicatorState",
    "rel_join",
    "rel_marginalize",
    "rel_apply_delta",
    "indicator_delta",
]

Tuple = tuple


@dataclass
class OpCounters:
    """Running totals of the three cost units.

    ``entry_reads`` counts payload lookups against a relation's entry store,
    hit or miss, including full scans (one read per entry visited).
    ``entry_writes`` counts mutations of the entry store (insert, overwrite,
    delete). ``index_probes`` counts secondary index lookups plus the per-
    index bookkeeping done when entries change.
    """

    entry_reads: int = 0
    entry_writes: int = 0
    index_probes: int = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.entry_reads, self.entry_writes, self.index_probes)

    def reset(self) -> None:
        self.entry_reads = 0
        self.entry_writes = 0
        self.index_probes = 0

    def total(self) -> int:
        return self.entry_reads + self.entry_writes + self.index_probes


def _tally(counters: Optional[OpCounters], reads: int = 0, writes: int = 0, probes: int = 0) -> None:
    """Add one call's units to ``counters``; a relation without one counts nothing."""
    if counters is not None:
        counters.entry_reads += reads
        counters.entry_writes += writes
        counters.index_probes += probes


@lru_cache(maxsize=64)
def _cell_keys(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every key of an array of ``shape``, in row-major order."""
    return tuple(product(*map(range, shape)))


class DenseCells(MutableMapping):
    """The entry store of a dense relation: a float array over the declared
    ranges, read and written as a mapping from coordinate tuples to the
    nonzero cells. Iteration is in row-major order and yields Python ints
    and floats; a key outside the array is absent and cannot be stored.
    ``count`` is the number of nonzero cells, kept at every write: code
    that writes ``array`` past the mapping sets ``count`` too."""

    __slots__ = ("array", "count")

    def __init__(self, shape: tuple[int, ...]):
        self.array = np.zeros(shape)
        self.count = 0

    @property
    def cell_keys(self) -> tuple[tuple[int, ...], ...]:
        return _cell_keys(self.array.shape)

    def _fits(self, key: tuple) -> bool:
        # numpy reads a short key as a flat position and wraps negative ones
        return len(key) == self.array.ndim and min(key, default=0) >= 0

    def get(self, key: tuple, default: Any = None) -> Any:
        try:
            val = self.array.item(key) if self._fits(key) else 0.0
        except (IndexError, TypeError):
            val = 0.0
        return val if val else default

    def __getitem__(self, key: tuple) -> float:
        val = self.get(key)
        if val is None:
            raise KeyError(key)
        return val

    def __setitem__(self, key: tuple, val: float) -> None:
        try:
            old = self.array.item(key)  # refuses a bool, which indexing reads as a mask
        except (IndexError, TypeError):
            old = None
        if old is None or not self._fits(key):
            raise ValueError(f"key {key!r} is outside the cells of a {self.array.shape} array")
        self.array[key] = val
        # the cell holds float(val): a nonzero that rounds to 0.0 is stored as zero
        self.count += bool(float(val)) - bool(old)

    def __delitem__(self, key: tuple) -> None:
        self[key] = 0.0

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[tuple]:
        return compress(self.cell_keys, self.array.ravel().tolist())

    def items(self) -> Iterator[tuple[tuple, float]]:
        vals = self.array.ravel().tolist()
        return compress(zip(self.cell_keys, vals), vals)


class _CellIndex:
    """A secondary index of a dense relation, stored as nothing: ``get``
    reads the cells matching ``probe`` off the array and returns them as
    the bucket a dict index would hold (group value to key dict, groups
    and keys in row-major order), or ``default`` when none matches."""

    __slots__ = ("cells", "probe_pos", "group_pos")

    def __init__(self, cells: DenseCells, probe_pos: tuple, group_pos: Optional[int]):
        self.cells, self.probe_pos, self.group_pos = cells, probe_pos, group_pos

    def get(self, probe: tuple, default: Any = None) -> Any:
        arr = self.cells.array
        at = [slice(None)] * arr.ndim
        lo = [0] * arr.ndim
        for i, x in zip(self.probe_pos, probe):
            if type(x) is bool or not isinstance(x, Integral) or not 0 <= x < arr.shape[i]:
                return default
            at[i], lo[i] = slice(x, x + 1), x
        bucket: dict = {}
        g = self.group_pos
        for key in map(tuple, (np.argwhere(arr[tuple(at)]) + lo).tolist()):
            bucket.setdefault(None if g is None else key[g], {})[key] = None
        return bucket or default

    def values(self) -> tuple:
        """The stored buckets: none."""
        return ()


class Relation:
    """A mutable ring-annotated relation with optional secondary indexes.

    An index is declared by ``(probe_vars, group_var)``: lookups supply
    values for ``probe_vars`` and get back the matching keys, grouped by the
    value of ``group_var`` when one is set. Indexes are maintained eagerly
    and empty buckets are removed, so iterating a bucket's groups always
    yields live values only.
    """

    __slots__ = ("schema", "ring", "entries", "indexes", "_index_pos", "counters", "name")

    def __init__(
        self,
        schema: Iterable[str],
        ring: RingSpec,
        counters: Optional[OpCounters] = None,
        name: str = "",
    ):
        self.schema = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise ValueError(f"duplicate variables in schema: {self.schema}")
        self.ring = ring
        self.entries: dict[tuple, Any] = {}
        self.indexes: dict[tuple, dict] = {}
        self._index_pos: dict[tuple, tuple] = {}
        self.counters = counters
        self.name = name

    def __repr__(self) -> str:
        label = self.name or "rel"
        return f"<{label}({','.join(self.schema)}) {len(self.entries)} entries>"

    def payload(self, key: tuple) -> Any:
        """Stored payload for ``key``, or None when absent. Counts one read."""
        _tally(self.counters, reads=1)
        return self.entries.get(key)

    def items(self) -> Iterator[tuple[tuple, Any]]:
        """Scan all entries in insertion order, counting one read each."""
        counters = self.counters
        for key, val in self.entries.items():
            if counters is not None:
                counters.entry_reads += 1
            yield key, val

    def accumulate(self, key: tuple, payload: Any) -> int:
        """Add ``payload`` onto ``key`` and report the support transition.

        Returns +1 when the key goes from absent to present, -1 when it is
        deleted because the sum reached zero, and 0 otherwise. Zero payloads
        on absent keys are a no-op.
        """
        moves: list[tuple[tuple, int]] = []
        self.accumulate_all(((key, payload),), moves)
        return moves[0][1] if moves else 0

    def accumulate_all(
        self, rows: Iterable[tuple[tuple, Any]], moves: Optional[list] = None
    ) -> None:
        """:meth:`accumulate` every (key, payload) row in order, appending
        each support transition to ``moves`` as (key, +1 | -1) when given."""
        add, is_zero = self.ring.add, self.ring.is_zero
        entries = self.entries
        indexed = bool(self.indexes)
        reads = writes = 0
        for key, val in rows:
            reads += 1
            old = entries.get(key)
            if old is None:
                if is_zero(val):
                    continue
                entries[key] = val
                move = 1
            else:
                val = add(old, val)
                if not is_zero(val):
                    entries[key] = val
                    writes += 1
                    continue
                del entries[key]
                move = -1
            writes += 1
            if indexed:
                (self._index_add if move > 0 else self._index_remove)(key)
            if moves is not None:
                moves.append((key, move))
        _tally(self.counters, reads, writes)

    def ensure_index(self, probe_vars: Iterable[str], group_var: Optional[str] = None) -> tuple:
        """Create (or find) the index keyed by ``probe_vars`` / ``group_var``.

        Returns the canonical index id. Building walks every current entry
        once, which is charged to the probe counter; a dense relation
        charges the same and builds nothing (see :class:`_CellIndex`).
        """
        probe = tuple(v for v in self.schema if v in set(probe_vars))
        if len(probe) != len(set(probe_vars)):
            missing = set(probe_vars) - set(self.schema)
            raise ValueError(f"index vars {sorted(missing)} not in schema {self.schema}")
        if group_var is not None and group_var not in self.schema:
            raise ValueError(f"group var {group_var} not in schema {self.schema}")
        spec = (probe, group_var)
        if spec in self.indexes:
            return spec
        pos = {v: i for i, v in enumerate(self.schema)}
        probe_pos = tuple(pos[v] for v in probe)
        group_pos = pos[group_var] if group_var is not None else None
        self._index_pos[spec] = (probe_pos, group_pos)
        _tally(self.counters, probes=len(self.entries))
        self.indexes[spec] = self._new_index(probe_pos, group_pos)
        return spec

    def _new_index(self, probe_pos: tuple, group_pos: Optional[int]) -> Any:
        table: dict = {}
        for key in self.entries:
            self._index_insert(table, probe_pos, group_pos, key)
        return table

    @staticmethod
    def _index_insert(table: dict, probe_pos: tuple, group_pos, key: tuple) -> None:
        probe = tuple(key[i] for i in probe_pos)
        group = key[group_pos] if group_pos is not None else None
        table.setdefault(probe, {}).setdefault(group, {})[key] = None

    def _index_add(self, key: tuple) -> None:
        _tally(self.counters, probes=len(self.indexes))
        for spec, table in self.indexes.items():
            probe_pos, group_pos = self._index_pos[spec]
            self._index_insert(table, probe_pos, group_pos, key)

    def _index_remove(self, key: tuple) -> None:
        _tally(self.counters, probes=len(self.indexes))
        for spec, table in self.indexes.items():
            probe_pos, group_pos = self._index_pos[spec]
            probe = tuple(key[i] for i in probe_pos)
            group = key[group_pos] if group_pos is not None else None
            bucket = table.get(probe)
            if bucket is None:
                continue
            keys = bucket.get(group)
            if keys is None:
                continue
            keys.pop(key, None)
            if not keys:
                del bucket[group]
            if not bucket:
                del table[probe]

    def index_lookup(self, spec: tuple, probe: tuple) -> list[tuple]:
        """All keys matching ``probe``, flattened across groups."""
        return [key for keys in self.index_groups(spec, probe).values() for key in keys]

    def index_groups(self, spec: tuple, probe: tuple) -> dict:
        """Mapping of group value to key dict for ``probe`` (may be empty)."""
        _tally(self.counters, probes=1)
        return self.indexes[spec].get(probe, {})

    def total(self) -> Any:
        """Ring sum of every payload (the relation marginalized to nothing)."""
        _tally(self.counters, reads=len(self.entries))
        return reduce(self.ring.add, self.entries.values(), self.ring.zero)


def from_pairs(
    schema: Iterable[str],
    ring: RingSpec,
    pairs: Iterable[tuple[tuple, Any]],
    counters: Optional[OpCounters] = None,
    name: str = "",
) -> Relation:
    """Build a relation by accumulating (key, payload) pairs in order."""
    rel = Relation(schema, ring, counters=counters, name=name)
    rel.accumulate_all((tuple(key), val) for key, val in pairs)
    return rel


class DenseRelation(Relation):
    """A relation whose entries are :class:`DenseCells` of ``shape``. Its
    indexes are :class:`_CellIndex` readers of the array, so keeping them
    up costs only the probes the dict path counts for it."""

    __slots__ = ()

    def __init__(self, schema, ring: RingSpec, shape: tuple[int, ...], counters=None, name=""):
        super().__init__(schema, ring, counters, name)
        self.entries = DenseCells(shape)

    def items(self) -> Iterator[tuple[tuple, Any]]:
        """The nonzero cells in row-major order, all counted when the scan
        starts."""
        _tally(self.counters, reads=len(self.entries))
        return self.entries.items()

    def scatter(self, rows: Sequence[tuple[tuple, Any]]) -> bool:
        """Add every (key, payload) row into the array with one
        ``np.add.at`` and return True, when the relation keeps no index,
        each key is a tuple of plain ints naming a cell and each payload a
        nonzero int or float; otherwise change nothing and return False,
        leaving the rows to :meth:`Relation.accumulate_all`. ``np.add.at``
        adds in row order, so each cell ends bit-identical to the row
        loop's ``(old + v1) + v2``, and the counters get the loop's one
        read and one write per row (it skips a write only for a zero
        payload). The nonzero count is updated from the touched cells
        alone, so a batch's cost does not grow with the array."""
        cells = self.entries
        arr = cells.array
        n = len(rows)
        if self.indexes or not (n and arr.ndim and arr.flags.c_contiguous):
            return not n
        try:
            if set(map(len, rows)) != {2}:
                return False
            keys, vals = zip(*rows)
            if (
                set(map(type, keys)) != {tuple}
                or set(map(len, keys)) != {arr.ndim}
                or not set(map(type, vals)) <= {int, float}
            ):
                return False
            coords = tuple(chain.from_iterable(keys))
            if set(map(type, coords)) != {int}:  # no bool, no numpy integer
                return False
            flat = np.ravel_multi_index(
                np.fromiter(coords, np.int64, len(coords)).reshape(n, arr.ndim).T, arr.shape
            )
            payloads = np.fromiter(vals, float, n)
        except (TypeError, ValueError, OverflowError):
            return False
        if np.count_nonzero(payloads) < n:
            return False
        # each touched cell once (np.unique's hash table is slower here)
        touched = np.sort(flat)
        touched = touched[np.concatenate(([True], touched[1:] != touched[:-1]))]
        cell = arr.reshape(-1)
        before = np.count_nonzero(cell[touched])
        np.add.at(cell, flat, payloads)
        cells.count += int(np.count_nonzero(cell[touched]) - before)
        _tally(self.counters, n, n)
        return True

    def fill(self, values: Sequence[float]) -> None:
        """Store ``values`` into the first cells of an empty one-variable
        relation, counted as accumulating each nonzero one."""
        cells = self.entries
        if len(values) > len(cells.array):
            raise ValueError(
                f"{len(values)} values are outside the cells of a {cells.array.shape} array"
            )
        cells.array[: len(values)] = values
        cells.count = n = int(np.count_nonzero(cells.array))
        _tally(self.counters, reads=n, writes=n)

    def _new_index(self, probe_pos: tuple, group_pos: Optional[int]) -> _CellIndex:
        return _CellIndex(self.entries, probe_pos, group_pos)

    def _index_add(self, key: tuple) -> None:
        _tally(self.counters, probes=len(self.indexes))

    _index_remove = _index_add


# A plan has a few shapes; the bound only keeps a long-lived process flat.
@lru_cache(maxsize=1024)
def _walk_plan(
    left: tuple[str, ...],
    rights: tuple[tuple[tuple[str, ...], Any], ...],
    drop_vars: tuple[str, ...],
    schema: Optional[tuple[str, ...]],
) -> tuple:
    """Row positions for one shape of :func:`rel_marginalize`.

    They depend only on the schemas, the probe routes, the summed-out
    variables and the output schema, so each shape is planned once. Every
    join level is (probe positions in the partial key, or None when the
    probe is the whole key; route; the right relation's positions of the
    probe variables; right positions appended). ``out_pos`` is None when
    the joined key is already the output key.
    """
    bound = left
    levels = []
    for rschema, route in rights:
        pos = {v: i for i, v in enumerate(bound)}
        shared = tuple(v for v in rschema if v in pos)
        ext = tuple(i for i, v in enumerate(rschema) if v not in pos)
        if route == "primary":
            if ext:
                raise ValueError(f"primary probe needs all of {rschema} bound, have {shared}")
            probe = rschema
        elif route is not None:
            probe = route[0]
            if set(probe) != set(shared):
                raise ValueError(f"index {route} does not cover join vars {shared}")
        else:
            probe = shared
        probe_pos = tuple(pos[v] for v in probe)
        if probe_pos == tuple(range(len(bound))):
            probe_pos = None
        levels.append((probe_pos, route, tuple(rschema.index(v) for v in probe), ext))
        bound += tuple(rschema[i] for i in ext)
    drop = tuple(v for v in bound if v in drop_vars)
    if len(drop) != len(set(drop_vars)):
        missing = set(drop_vars) - set(bound)
        raise ValueError(f"cannot marginalize {sorted(missing)}: not in {bound}")
    keep = tuple(v for v in bound if v not in drop)
    if schema is None:
        schema = keep
    elif sorted(schema) != sorted(keep):
        raise ValueError(f"output schema {schema} is not a permutation of {keep}")
    out_pos = tuple(bound.index(v) for v in schema)
    if out_pos == tuple(range(len(bound))):
        out_pos = None
    return tuple(levels), tuple((bound.index(v), v) for v in drop), schema, out_pos


def plan_shape(
    left: tuple, rights: tuple, drop_vars: tuple, lifts: dict, schema: Optional[tuple] = None
) -> tuple:
    """The shape :func:`marginalize_shape` runs to join a relation over
    ``left`` with relations over the (schema, route) pairs ``rights`` and
    sum out ``drop_vars`` by ``lifts`` into ``schema``: the join levels of
    :func:`_walk_plan`, whether anything is summed out, the (position,
    lifting function) of each summed-out variable not lifted to one, the
    output schema and its positions in the joined key, and whether every
    variable gets one of the 52 letters ``einsum`` names variables by."""
    levels, drop, out_schema, out_pos = _walk_plan(left, rights, drop_vars, schema)
    lifted = []
    for pos, v in drop:
        if v not in lifts:
            raise ValueError(f"no lifting function for marginalized variable {v}")
        if lifts[v].mode != TO_ONE:
            lifted.append((pos, lifts[v]))
    lettered = len(set(left).union(*(s for s, _ in rights))) <= len(string.ascii_letters)
    return levels, bool(drop), tuple(lifted), out_schema, out_pos, lettered


def rel_marginalize(
    rel: Relation,
    drop_vars: Iterable[str],
    lifts: dict[str, LiftingFunction],
    joins: Sequence[tuple[Relation, Any]] = (),
    schema: Optional[Iterable[str]] = None,
    payload_map=None,
) -> Relation:
    """Join ``rel`` with ``joins`` and sum out ``drop_vars``, in one pass.

    ``joins`` lists (relation, route) pairs in join order. Each entry of
    ``rel`` is walked depth-first through them: a join probes its
    relation's primary entry store when the partial key binds its whole
    schema (route ``"primary"``), a persistent index whose probe variables
    are exactly the shared ones (route = the index id), or otherwise a
    grouping on the shared variables built the first time a row reaches
    it (with nothing shared it is a single group). Payloads are multiplied
    in join order, zero partial products are skipped, and each full row is
    then multiplied by the lifted images of its dropped values, in joined-
    schema order, before it is added into the output; a lift to the ring's
    one is left out, since multiplying by one changes nothing. ``payload_map``, when
    given, rewrites every operand's payload before it is multiplied.

    The joined schema lists ``rel``'s variables, then each joined
    relation's new ones in its own order; the output keeps the rest in
    that order unless ``schema`` names a permutation of them. Every
    dropped variable needs a lifting function. No intermediate relation is
    built. Dense operands with no ``payload_map`` and only to-one lifts are
    contracted by :func:`_contract` instead, into a dense relation. The
    shape is planned by :func:`plan_shape` and run by
    :func:`marginalize_shape`.
    """
    shape = plan_shape(
        rel.schema,
        tuple([(r.schema, route) for r, route in joins]),
        tuple(drop_vars),
        lifts,
        None if schema is None else tuple(schema),
    )
    return marginalize_shape(rel, [r for r, _ in joins], shape, payload_map)


def marginalize_shape(
    rel: Relation, rights: Sequence[Relation], shape: tuple, payload_map=None
) -> Relation:
    """:func:`rel_marginalize` of ``rel`` joined with ``rights`` in a
    planned ``shape`` (:func:`plan_shape`): the one row loop of the
    operator and of each level of a delta's climb
    (``RuntimeState._enter``). Rows are chained through the joins
    (:func:`_join_rows`), so no level's rows are ever held together, then
    lifted, cut down to the output key and summed into the output's
    entries, counted as accumulating them."""
    levels, sums, lifted, schema, out_pos, lettered = shape
    dense = type(rel) is DenseRelation and all(type(r) is DenseRelation for r in rights)
    if dense and payload_map is None and not lifted and lettered:
        return _contract(rel, rights, levels, schema)
    ring, counters = rel.ring, rel.counters
    out = Relation(schema, ring, counters)
    left = rel.entries
    if not left:
        return out
    for right in rights:
        if not right.entries:
            return out
    mul, add, is_zero = ring.mul, ring.add, ring.is_zero
    rows: Iterable[tuple[tuple, Any]] = left.items()
    if payload_map is not None:
        rows = ((k, v) for k, v in ((k, payload_map(v)) for k, v in rows) if not is_zero(v))
    # When nothing is summed out, the last join skips the zero test: each
    # of its rows has its own output key, and a zero on a new key is not
    # stored.
    last = len(rights) - 1
    for i, (right, level) in enumerate(zip(rights, levels)):
        rows = _join_rows(rows, right, level, mul, is_zero, payload_map, counters, i < last or sums)
    entries = out.entries
    reads, writes = len(left), 0
    for key, val in rows:
        for pos, fn in lifted:
            val = mul(val, lift(ring, fn, key[pos]))
        if out_pos is not None:
            key = tuple([key[i] for i in out_pos])
        reads += 1
        old = entries.get(key)
        if old is not None:
            val = add(old, val)
            if is_zero(val):
                del entries[key]
                writes += 1
                continue
        elif is_zero(val):
            continue
        entries[key] = val
        writes += 1
    _tally(counters, reads, writes)
    return out


@lru_cache(maxsize=1024)
def _einsum_path(spec: str, shapes: tuple) -> Any:
    """The pairwise contraction order numpy's greedy search picks for
    ``spec``, or False for one plain loop over every index combination.
    The loop is taken up to 2^13 combinations, where it runs faster than
    the pairwise steps: past about 2^13 for three or four operands and
    2^15 for two, the pairwise steps win, and the loop grows with the
    product of every dimension. numpy 1.x loops over at most 32 operands."""
    size = dict(zip("".join(spec.split("->")[0].split(",")), (n for s in shapes for n in s)))
    if len(shapes) <= 32 and math.prod(size.values()) <= 1 << 13:
        return False
    return np.einsum_path(spec, *(np.empty(s) for s in shapes), optimize="greedy")[0]


def _einsum(spec: str, arrays: Sequence[np.ndarray]) -> Any:
    return np.einsum(spec, *arrays, optimize=_einsum_path(spec, tuple(a.shape for a in arrays)))


@lru_cache(maxsize=1024)
def _contract_plan(schemas: tuple, shapes: tuple, out_schema: tuple) -> tuple:
    """What :func:`_contract` needs for one shape of operands: the
    ``einsum`` spec and contraction order, the output shape, and per join
    level the spec that counts the joined nonzero patterns and the count
    when every operand is fully nonzero (the product of the sizes of the
    distinct variables joined so far)."""
    size = {v: n for schema, shape in zip(schemas, shapes) for v, n in zip(schema, shape)}
    letter = dict(zip(size, string.ascii_letters))
    subs = ["".join(letter[v] for v in schema) for schema in schemas]
    seen: dict = dict.fromkeys(schemas[0])
    levels = []
    for i in range(1, len(schemas)):
        seen.update(dict.fromkeys(schemas[i]))
        levels.append((",".join(subs[: i + 1]) + "->", math.prod(size[v] for v in seen)))
    spec = ",".join(subs) + "->" + "".join(letter[v] for v in out_schema)
    return spec, _einsum_path(spec, shapes), tuple(size[v] for v in out_schema), tuple(levels)


def _contract(
    rel: Relation, rights: Sequence[Relation], levels: tuple, out_schema: tuple
) -> Relation:
    """:func:`rel_marginalize` of dense operands with to-one lifts: one
    ``einsum``, counted as the dict path counts the same nonzero cells.

    The rows reaching a join level are the nonzero cells of the join so
    far: when every operand is fully nonzero, the product of the sizes of
    its variables; else counted by contracting the operands' nonzero
    patterns. Per incoming row a primary probe reads once, an index route
    probes once and reads each match, and a scan that shares variables
    probes its grouping once; the scan reads the relation once if any row
    arrives. The output reads and writes once per joined row.
    """
    ops = [rel, *rights]
    arrays = [r.entries.array for r in ops]
    spec, path, shape, counts = _contract_plan(
        tuple(r.schema for r in ops), tuple(a.shape for a in arrays), out_schema
    )
    out = DenseRelation(out_schema, rel.ring, shape, rel.counters)
    if not all(r.entries for r in ops):
        return out
    full = all(len(r.entries) == a.size for r, a in zip(ops, arrays))
    masks = [] if full else [(a != 0).astype(float) for a in arrays]
    rows = len(rel.entries)
    _tally(rel.counters, reads=rows)
    for i, (right, level, (partial, product)) in enumerate(zip(rights, levels, counts), 1):
        joined = product if full else round(float(_einsum(partial, masks[: i + 1])))
        route = level[1]
        if route == "primary":
            _tally(right.counters, reads=rows)
        elif route is not None:
            _tally(right.counters, reads=joined, probes=rows)
        elif rows:
            _tally(right.counters, reads=len(right.entries))
            if level[2]:
                _tally(rel.counters, probes=rows)
        rows = joined
    result = np.einsum(spec, *arrays, optimize=path)
    cells = out.entries
    # one operand may come back as a view of its own array
    cells.array = np.array(result) if not rights else np.asarray(result)
    cells.count = int(np.count_nonzero(cells.array))
    _tally(out.counters, reads=rows, writes=rows)
    return out


def _join_rows(
    rows: Iterable[tuple[tuple, Any]], right: Relation, level: tuple, mul, is_zero,
    payload_map, scan_counters: Optional[OpCounters], drop_zero: bool,
) -> Iterator[tuple[tuple, Any]]:
    """Extend each row by its matches in ``right`` (one join level of
    :func:`rel_marginalize`), dropping zero products if ``drop_zero``.
    Reads and probes are tallied once the rows run out; probes of the
    grouping built by a scan are charged to ``scan_counters``."""
    probe_pos, route, right_pos, ext = level
    entries = right.entries
    table = right.indexes[route] if route not in (None, "primary") else None
    grouping: Optional[dict] = None
    reads = probes = scan_probes = 0
    for key, val in rows:
        probe = key if probe_pos is None else tuple([key[i] for i in probe_pos])
        if route == "primary":
            reads += 1
            rval = entries.get(probe)
            matches = () if rval is None else ((probe, rval),)
        elif table is not None:
            probes += 1
            bucket = table.get(probe)
            matches = [(k, entries[k]) for keys in bucket.values() for k in keys] if bucket else ()
            reads += len(matches)
        else:
            if grouping is None:
                grouping = {}
                for rkey, rval in entries.items():
                    grouping.setdefault(tuple([rkey[i] for i in right_pos]), []).append(
                        (rkey, rval)
                    )
                reads += len(entries)
            if right_pos:
                scan_probes += 1
            matches = grouping.get(probe, ())
        for rkey, rval in matches:
            if payload_map is not None:
                rval = payload_map(rval)
            prod = mul(val, rval)
            if not drop_zero or not is_zero(prod):
                yield (key + tuple([rkey[i] for i in ext]) if ext else key), prod
    _tally(right.counters, reads, 0, probes)
    _tally(scan_counters, probes=scan_probes)


def rel_join(
    left: Relation,
    right: Relation,
    right_index=None,
    payload_map=None,
) -> Relation:
    """Natural join with ring-multiplied payloads: :func:`rel_marginalize`
    with one join (``right_index`` is its route) and nothing summed out.
    The schema lists the left variables, then the right-only ones."""
    return rel_marginalize(left, (), {}, ((right, right_index),), payload_map=payload_map)


def rel_apply_delta(target: Relation, delta: Relation) -> list[tuple[tuple, int]]:
    """Accumulate ``delta`` into ``target`` in place.

    Returns the support transitions as (key, +1 | -1) pairs in delta order,
    which is what indicator maintenance consumes.
    """
    if target.schema != delta.schema:
        raise ValueError(f"delta schema mismatch: {target.schema} vs {delta.schema}")
    transitions: list[tuple[tuple, int]] = []
    n = len(delta.entries)
    _tally(delta.counters, reads=n)
    if not (type(target) is DenseRelation and type(delta) is DenseRelation):
        target.accumulate_all(delta.entries.items(), transitions)
        return transitions
    # Adding arrays does what accumulating each nonzero delta cell does:
    # two reads and a write per cell, index upkeep per support change.
    cells = target.entries
    was = cells.array != 0
    cells.array += delta.entries.array
    _tally(target.counters, reads=n, writes=n)
    for i in np.flatnonzero(was != (cells.array != 0)).tolist():
        move = -1 if was.flat[i] else 1
        transitions.append((cells.cell_keys[i], move))
        cells.count += move
    _tally(target.counters, probes=len(target.indexes) * len(transitions))
    return transitions


class IndicatorState:
    """Support counts behind an existence projection of one relation.

    For a projection onto ``schema``, ``counts`` tracks how many base
    tuples currently project onto each key. The projected relation holds
    payload one exactly on keys with a positive count, so only transitions
    through zero emit output deltas.
    """

    __slots__ = ("schema", "ring", "counts", "source_pos")

    def __init__(self, schema: tuple[str, ...], ring: RingSpec, source_schema: tuple[str, ...]):
        self.schema = schema
        self.ring = ring
        self.counts: dict[tuple, int] = {}
        missing = [v for v in schema if v not in source_schema]
        if missing:
            raise ValueError(f"indicator vars {missing} not in source schema {source_schema}")
        pos = {v: i for i, v in enumerate(source_schema)}
        self.source_pos = tuple(pos[v] for v in schema)

    def project(self, key: tuple) -> tuple:
        return tuple(key[i] for i in self.source_pos)


def indicator_delta(
    state: IndicatorState,
    transitions: Iterable[tuple[tuple, int]],
    counters: Optional[OpCounters] = None,
) -> Relation:
    """Fold base-table support transitions into the indicator state.

    Produces the delta of the projected relation: +one where a projected
    key's count rose from zero, -one where it fell back to zero. The delta
    is usually far smaller than the transitions that caused it.
    """
    out = Relation(state.schema, state.ring, counters=counters)
    one = state.ring.one
    neg = state.ring.neg(one)
    rows: list[tuple[tuple, Any]] = []
    for key, t in transitions:
        pk = state.project(key)
        c = state.counts.get(pk, 0) + t
        if c < 0:
            raise ValueError(f"indicator count for {pk} went negative")
        if c == 0:
            state.counts.pop(pk, None)
        else:
            state.counts[pk] = c
        if t == 1 and c == 1:
            rows.append((pk, one))
        elif t == -1 and c == 0:
            rows.append((pk, neg))
    out.accumulate_all(rows)
    return out

