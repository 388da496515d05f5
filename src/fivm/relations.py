"""Ring-annotated relations and the bulk operators over them.

A relation maps key tuples over a fixed variable schema to non-zero ring
payloads. Storage is a plain insertion-ordered dict plus any number of
secondary hash indexes, each grouping full keys first by a probe prefix and
then by an optional group column. All data access is counted so that
maintenance cost can be measured in ring-agnostic units: payload reads,
payload writes, and index probes. Every relation counts on a counter
block (:class:`OpCounters`), the one it is made with or else one of its
own, so no operator tests for a missing one. Bulk operators add their
units to the counter block once per call.

One planner, :func:`plan_sum`, picks how every join-and-sum runs: one
``einsum`` over dense cells, or a row loop generated as Python source
for the shape of its operands and its ring (:class:`RowCode`) and
compiled once per shape and ring. The delta climbs of ``fivm.ivm`` are
generated by the same code, one level after another, so there is one
row loop. The source holds only generated names and integer positions:
relations, index tables, lifts and ring operators enter through the
compiled function's globals or arguments. :class:`RowCode` alone binds
the ring's operators and writes those that are Python's own as ``+``,
``*`` and ``not``.

Stores are generated by the same code: :meth:`Relation.accumulate_all`
and :func:`rel_apply_delta` run a store loop generated per index shape
and ring (:func:`_store_function`) with each index's upkeep written
out. A relation binds it to its index tables whenever one is added; a
store takes only entries, rows, moves and counters.

Values inside key tuples are dictionary-encoded (plain ints), which keeps
hashing cheap and makes streams reproducible.

A :class:`DenseRelation` stores its entries as one numpy array instead
(:class:`DenseCells`, which keeps its nonzero count) and answers index
lookups from it, storing no index table. Over dense operands a planned
sum may run one ``einsum`` and :func:`rel_apply_delta` adds arrays,
each counting the units the dict path spends on the same nonzero
cells. A batch of point rows merges with one ``np.add.at``
(:meth:`DenseRelation.scatter`), whose bounds test over the whole batch
is the query's entry check when ``Query.checks_cells`` is false for the
relation; a batch it does not take outright goes row by row.
"""

from __future__ import annotations

import builtins
import math
import operator
import string
from collections.abc import MutableMapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, product
from numbers import Integral
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from fivm.rings import TO_ONE, LiftingFunction, RingSpec, lift_row

__all__ = [
    "Tuple",
    "OpCounters",
    "Relation",
    "DenseCells",
    "DenseRelation",
    "IndicatorState",
    "rel_join",
    "plan_sum",
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


def _tally(counters: OpCounters, reads: int = 0, writes: int = 0, probes: int = 0) -> None:
    """Add one call's units to ``counters``."""
    counters.entry_reads += reads
    counters.entry_writes += writes
    counters.index_probes += probes


@lru_cache(maxsize=64)
def _cell_keys(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Every key of an array of ``shape``, in row-major order."""
    return tuple(product(*map(range, shape)))


def _nonzero(array: np.ndarray) -> int:
    """The nonzero cells of a float ``array``. Past about 1,500 cells numpy
    counts the bool mask ``array != 0`` faster than the floats themselves,
    and below it slower: 1.9 against 3.2 us at 64 x 64, 1.0 against 0.3 us
    at 64 (numpy 2.4, x86-64)."""
    if array.size < 1536:
        return int(np.count_nonzero(array))
    return int(np.count_nonzero(array != 0))


class DenseCells(MutableMapping):
    """The entry store of a dense relation: a float array over the declared
    ranges, read and written as a mapping from coordinate tuples to the
    nonzero cells. Iteration is in row-major order and yields Python ints
    and floats; a key outside the array is absent and cannot be stored.
    ``count`` is the number of nonzero cells, kept at every write: code
    that writes ``array`` past the mapping sets ``count`` too."""

    __slots__ = ("array", "count")

    def __init__(self, array: np.ndarray, count: int):
        self.array, self.count = array, count

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

    Every access is charged to ``counters``. A relation made without a
    counter block gets its own :class:`OpCounters`, so it still counts,
    on a block no runtime state reads.
    """

    __slots__ = ("schema", "ring", "entries", "indexes", "_store", "counters", "name")

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
        # the store loop, bound to the index tables by ensure_index
        self._store: Any = _bare_store(ring)
        self.counters = OpCounters() if counters is None else counters
        self.name = name

    def __repr__(self) -> str:
        label = self.name or "rel"
        return f"<{label}({','.join(self.schema)}) {len(self.entries)} entries>"

    def items(self) -> Iterator[tuple[tuple, Any]]:
        """Scan all entries in insertion order, counting one read each."""
        counters = self.counters
        for key, val in self.entries.items():
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
        each support transition to ``moves`` as (key, +1 | -1) when given.
        The rows run through the store loop generated for the relation's
        index shape (:func:`_store_function`) and bound to its tables."""
        self._store(self.entries, rows, moves, self.counters)

    def ensure_index(self, probe_vars: Iterable[str], group_var: Optional[str] = None) -> tuple:
        """Create (or find) the index keyed by ``probe_vars`` / ``group_var``.

        Returns the canonical index id. Building walks every current entry
        once, which is charged to the probe counter; a dense relation
        charges the same and builds nothing (see :class:`_CellIndex`). The
        store loop is bound anew, to every table.
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
        _tally(self.counters, probes=len(self.entries))
        pos = {v: i for i, v in enumerate(self.schema)}
        # (probe positions, group position) of every index, the new one last
        shape = tuple((tuple(map(pos.get, p)), pos.get(g)) for p, g in (*self.indexes, spec))
        self.indexes[spec] = self._new_index(*shape[-1])
        dense = type(self) is DenseRelation
        self._store = _store_function(dense, shape, self.ring)(*self.indexes.values())
        return spec

    @classmethod
    def of(
        cls, schema: tuple, ring: RingSpec, entries: Any, counters: Optional[OpCounters]
    ) -> Relation:
        """A relation of this class over ``schema`` whose entries are
        ``entries`` themselves, not a copy: a dict, or a dense relation's
        cells (None for one whose cells are set before each use)."""
        rel = cls.__new__(cls)
        Relation.__init__(rel, schema, ring, counters)
        rel.entries = entries
        return rel

    def _new_index(self, probe_pos: tuple, group_pos: Optional[int]) -> Any:
        return _fill_function(probe_pos, group_pos, self.ring)(self.entries)

    @property
    def shape(self) -> Optional[tuple[int, ...]]:
        """The shape of a dense relation's cells; None for dict entries."""
        return None

    def index_lookup(self, spec: tuple, probe: tuple) -> list[tuple]:
        """All keys matching ``probe``, flattened across groups."""
        _tally(self.counters, probes=1)
        return [key for keys in self.indexes[spec].get(probe, {}).values() for key in keys]


def from_pairs(
    schema: Iterable[str], ring: RingSpec, pairs: Iterable[tuple[tuple, Any]]
) -> Relation:
    """Build a relation on its own counters by accumulating (key, payload)
    pairs in order."""
    rel = Relation(schema, ring)
    rel.accumulate_all((tuple(key), val) for key, val in pairs)
    return rel


class DenseRelation(Relation):
    """A relation whose entries are :class:`DenseCells` of ``shape``. Its
    indexes are :class:`_CellIndex` readers of the array, so keeping them
    up costs only the probes the dict path counts for it."""

    __slots__ = ()

    def __init__(self, schema, ring: RingSpec, shape: tuple[int, ...], counters=None, name=""):
        super().__init__(schema, ring, counters, name)
        self.entries = DenseCells(np.zeros(shape), 0)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.entries.array.shape

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
        """Store a copy of ``values`` into the first cells of an empty
        one-variable relation, counted as accumulating each nonzero one."""
        cells = self.entries
        vals = np.array(values, dtype=float)
        if vals.shape == cells.array.shape:
            cells.array = vals
        elif len(vals) > len(cells.array):
            raise ValueError(
                f"{len(vals)} values are outside the cells of a {cells.array.shape} array"
            )
        else:
            cells.array[: len(vals)] = vals
        cells.count = n = int(np.count_nonzero(cells.array))
        _tally(self.counters, reads=n, writes=n)

    def _new_index(self, probe_pos: tuple, group_pos: Optional[int]) -> _CellIndex:
        return _CellIndex(self.entries, probe_pos, group_pos)


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
    """How to join a relation over ``left`` with relations over the
    (schema, route) pairs ``rights`` and sum out ``drop_vars`` by ``lifts``
    into ``schema``: the join levels of :func:`_walk_plan`, whether
    anything is summed out, the (position, lifting function) of each
    summed-out variable not lifted to one, and the output schema and its
    positions in the joined key."""
    levels, drop, out_schema, out_pos = _walk_plan(left, rights, drop_vars, schema)
    lifted = []
    for pos, v in drop:
        if v not in lifts:
            raise ValueError(f"no lifting function for marginalized variable {v}")
        if lifts[v].mode != TO_ONE:
            lifted.append((pos, lifts[v]))
    return levels, bool(drop), tuple(lifted), out_schema, out_pos


def plan_sum(
    ring: RingSpec, counters: Optional[OpCounters], lifts: dict, operands: Sequence[tuple],
    routes: Sequence, drop_vars: tuple, schema: Optional[tuple], payload_map: Any,
) -> tuple[Callable[[Sequence[Relation]], Relation], tuple]:
    """Plan the join-and-sum of :func:`rel_marginalize` once, for operands
    described by (schema, shape) pairs (:attr:`Relation.shape`) joined by
    ``routes``: ``step(rels)`` runs it on relations so described, and the
    (schema, shape) of its output. The one place that picks how a sum
    runs: when every operand is dense, no payload map applies, every lift
    is to one and :func:`_contract_plan` can contract the operands, one
    ``einsum`` (:func:`_contract`) sets the cells of a dense relation made
    here and returned at every call; otherwise the generated row loop
    (:func:`_level_function`) fills a new dict relation per call. Outputs
    count on ``ring`` and ``counters``."""
    schemas, shapes = zip(*operands)
    levels, sums, lifted, out_schema, out_pos = plan_shape(
        schemas[0], tuple(zip(schemas[1:], routes)), drop_vars, lifts, schema
    )
    dense = payload_map is None and not lifted and None not in shapes
    plan = _contract_plan(levels, schemas, shapes, out_schema) if dense else None
    if plan is not None:
        out = DenseRelation.of(out_schema, ring, None, counters)

        def contract(rels: Sequence[Relation]) -> Relation:
            out.entries = _contract(plan, rels)
            return out

        return contract, (out_schema, plan.shape)
    run = _level_function(levels, sums, bool(lifted), out_pos, payload_map is not None, ring)
    lifter = lift_row(ring, lifted) if lifted else None

    def walk(rels: Sequence[Relation]) -> Relation:
        rel = Relation(out_schema, ring, counters)
        run(rels[0], rels[1:], lifter, payload_map, rel.entries)
        return rel

    return walk, (out_schema, None)


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
    built. Each call plans the sum (:func:`plan_sum`) and runs it once.
    """
    ops = [rel, *[r for r, _ in joins]]
    step, _ = plan_sum(
        rel.ring, rel.counters, lifts, [(r.schema, r.shape) for r in ops],
        [route for _, route in joins], tuple(drop_vars),
        None if schema is None else tuple(schema), payload_map,
    )
    return step(ops)


# The loops a generated row loop nests before it lists the rows reaching
# a join and starts over; the scan grouping adds one more inside.
_MAX_LOOPS = 12


def _pick(row: str, positions: Sequence[int]) -> str:
    """Source for the tuple of ``row``'s values at ``positions``."""
    items = [f"{row}[{i}]" for i in positions]
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class RowCode:
    """Python source for row loops over payloads of ``ring``, written line
    by line and compiled once.

    Local names are generated (a stem and a number). Every value the code
    uses, relations, index tables, lifting functions and ring operators,
    enters through the compiled function's globals (:meth:`const`), so the
    source holds only those names and integer positions. This is the one
    place that binds and spells the ring's operators: ``mul``, ``add`` and
    ``is_zero`` are bound as ``M``, ``A`` and ``Z``, and written by
    :meth:`times`, :meth:`plus`, :meth:`zero` and :meth:`nonzero` as
    Python's ``*``, ``+`` and ``not`` where the ring's operator is
    Python's own (``operator.mul``, ``operator.add``, ``operator.not_``),
    else as calls of ``M``, ``A`` and ``Z``. A payload map is called as
    ``X``, and a level's lifts as one operation
    (:func:`fivm.rings.lift_row`) on the row's payload and joined key."""

    def __init__(self, ring: RingSpec) -> None:
        self.lines: list[str] = []
        self.consts: dict[str, Any] = {"M": ring.mul, "A": ring.add, "Z": ring.is_zero}
        self._n = 0
        self.ring = ring

    def times(self, a: str, b: str) -> str:
        """Source for the ring product of ``a`` and ``b``."""
        return f"{a} * {b}" if self.ring.mul is operator.mul else f"M({a}, {b})"

    def plus(self, a: str, b: str) -> str:
        """Source for the ring sum of ``a`` and ``b``."""
        return f"{a} + {b}" if self.ring.add is operator.add else f"A({a}, {b})"

    def zero(self, v: str) -> str:
        """Source for the test that ``v`` is the ring's zero."""
        return f"not {v}" if self.ring.is_zero is operator.not_ else f"Z({v})"

    def nonzero(self, v: str) -> str:
        """Source for the test that ``v`` is not the ring's zero."""
        return v if self.ring.is_zero is operator.not_ else f"not Z({v})"

    def name(self, stem: str) -> str:
        self._n += 1
        return f"{stem}{self._n}"

    def const(self, stem: str, value: Any) -> str:
        name = self.name(stem)
        self.consts[name] = value
        return name

    def add(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    @property
    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    def compile(self, name: str, label: str) -> Any:
        """The function ``name`` the source defines, compiled under the file
        name ``<fivm LABEL>``: profilers key a function by its file, so each
        label keeps its own row."""
        scope = {"__builtins__": builtins, **self.consts}
        exec(compile(self.source, f"<fivm {label}>", "exec"), scope)
        return scope[name]

    def level(
        self, depth: int, src: str, dst: str, plan: tuple, lifter: Optional[str],
        mapped: bool, side: tuple[str, str, str], rights: Sequence[tuple],
        setup: Sequence[str] = (),
    ) -> None:
        """Emit one join-and-sum: every row of the dict ``src`` extended
        through the join levels of ``plan`` (:func:`_walk_plan`'s levels,
        whether anything is summed out, output positions), passed with its
        joined key through the level's lift operation named ``lifter``
        (none when nothing is lifted other than to one), cut to
        its output key and summed into the dict ``dst``. ``rights`` names
        per join the right entries, index table (None unless the route is
        an index), and read and probe tallies; ``side`` names the reads,
        writes and probes charged to ``src``'s relation: its scan, the
        output and the groupings built by scans. ``mapped`` passes every
        operand's payload through ``X`` first. Nothing runs, not even the
        ``setup`` lines, when ``src`` or a right is empty."""
        joins, sums, out_pos = plan
        reads, writes, probes = side
        self.add(depth, f"if {' and '.join([src, *(r[0] for r in rights)])}:")
        depth += 1
        for line in setup:
            self.add(depth, line)
        self.add(depth, f"{reads} += len({src})")
        groupings = {}
        for j, level in enumerate(joins):
            if level[1] is None:
                groupings[j] = self.name("g")
                self.add(depth, f"{groupings[j]} = None")
        key, val = self.name("k"), self.name("v")
        top, head = depth, len(self.lines)
        self.add(depth, f"for {key}, {val} in {src}.items():")
        depth += 1
        loops = 1
        if mapped:
            self.add(depth, f"{val} = X({val})")
            self.add(depth, f"if {self.zero(val)}:")
            self.add(depth + 1, "continue")
        last = len(joins) - 1
        for j, ((probe_pos, route, right_pos, ext), (entries, table, r, p)) in enumerate(
            zip(joins, rights)
        ):
            adds = 0 if route == "primary" else 1 if route is None else 2
            if loops + adds > _MAX_LOOPS:
                # Python nests at most 20 blocks: past the bound the rows
                # reaching this join are listed, in the order they arrive,
                # and a fresh loop takes them on.
                rows = self.name("s")
                self.lines.insert(head, "    " * top + f"{rows} = []")
                head += 1
                self.add(depth, f"{rows}.append(({key}, {val}))")
                key, val, depth, loops = self.name("k"), self.name("v"), top + 1, 1
                self.add(top, f"for {key}, {val} in {rows}:")
            loops += adds
            probe = key if probe_pos is None else _pick(key, probe_pos)
            rkey, rval = self.name("k"), self.name("v")
            if route == "primary":
                self.add(depth, f"{r} += 1")
                self.add(depth, f"{rval} = {entries}.get({probe})")
                self.add(depth, f"if {rval} is None:")
                self.add(depth + 1, "continue")
            elif route is not None:
                bucket, group = self.name("b"), self.name("g")
                self.add(depth, f"{p} += 1")
                self.add(depth, f"{bucket} = {table}.get({probe})")
                self.add(depth, f"if not {bucket}:")
                self.add(depth + 1, "continue")
                self.add(depth, f"for {group} in {bucket}.values():")
                self.add(depth + 1, f"for {rkey} in {group}:")
                depth += 2
                self.add(depth, f"{r} += 1")
                self.add(depth, f"{rval} = {entries}[{rkey}]")
            else:
                g = groupings[j]
                self.add(depth, f"if {g} is None:")
                self.add(depth + 1, f"{g} = {{}}")
                self.add(depth + 1, f"for {rkey}, {rval} in {entries}.items():")
                self.add(
                    depth + 2,
                    f"{g}.setdefault({_pick(rkey, right_pos)}, []).append(({rkey}, {rval}))",
                )
                self.add(depth + 1, f"{r} += len({entries})")
                if right_pos:
                    self.add(depth, f"{probes} += 1")
                self.add(depth, f"for {rkey}, {rval} in {g}.get({probe}, ()):")
                depth += 1
            if mapped:
                self.add(depth, f"{rval} = X({rval})")
            prod = self.name("v")
            self.add(depth, f"{prod} = {self.times(val, rval)}")
            # When nothing is summed out, the last join skips the zero
            # test: each of its rows has its own output key, and a zero on
            # a new key is not stored.
            if j < last or sums:
                self.add(depth, f"if {self.zero(prod)}:")
                self.add(depth + 1, "continue")
            if ext:
                joined = self.name("k")
                self.add(depth, f"{joined} = {key} + {_pick(rkey, ext)}")
                key = joined
            val = prod
        if lifter is not None:
            self.add(depth, f"{val} = {lifter}({val}, {key})")
        if out_pos is not None:
            cut = self.name("k")
            self.add(depth, f"{cut} = {_pick(key, out_pos)}")
            key = cut
        old = self.name("o")
        self.add(depth, f"{reads} += 1")
        self.add(depth, f"{old} = {dst}.get({key})")
        self.add(depth, f"if {old} is None:")
        self.add(depth + 1, f"if {self.nonzero(val)}:")
        self.add(depth + 2, f"{dst}[{key}] = {val}")
        self.add(depth + 2, f"{writes} += 1")
        self.add(depth, "else:")
        self.add(depth + 1, f"{val} = {self.plus(old, val)}")
        self.add(depth + 1, f"if {self.zero(val)}:")
        self.add(depth + 2, f"del {dst}[{key}]")
        self.add(depth + 1, "else:")
        self.add(depth + 2, f"{dst}[{key}] = {val}")
        self.add(depth + 1, f"{writes} += 1")

    def upkeep(self, depth: int, key: str, tables: Sequence[tuple], insert: bool) -> None:
        """Emit the index upkeep for ``key`` entering (``insert``) or
        leaving the entries: per (table, probe positions, group position),
        the key is added to the group of its probe bucket, or dropped from
        it and an emptied group and bucket removed."""
        for table, probe_pos, group_pos in tables:
            probe = _pick(key, probe_pos)
            group = "None" if group_pos is None else f"{key}[{group_pos}]"
            if insert:
                self.add(depth, f"{table}.setdefault({probe}, {{}}).setdefault({group}, {{}})"
                                f"[{key}] = None")
                continue
            bucket, keys = self.name("b"), self.name("g")
            self.add(depth, f"{bucket} = {table}.get({probe})")
            self.add(depth, f"if {bucket} is not None:")
            self.add(depth + 1, f"{keys} = {bucket}.get({group})")
            self.add(depth + 1, f"if {keys} is not None:")
            self.add(depth + 2, f"{keys}.pop({key}, None)")
            self.add(depth + 2, f"if not {keys}:")
            self.add(depth + 3, f"del {bucket}[{group}]")
            self.add(depth + 3, f"if not {bucket}:")
            self.add(depth + 4, f"del {table}[{probe}]")


# A plan has a few shapes; the bound only keeps a long-lived process flat.
@lru_cache(maxsize=1024)
def _level_function(
    levels: tuple, sums: bool, lifts: bool, out_pos: Optional[tuple], mapped: bool,
    ring: RingSpec,
) -> Any:
    """The row loop of :func:`rel_marginalize` for one shape
    (:func:`plan_shape`) over payloads of ``ring`` (:class:`RowCode`),
    generated and compiled once:
    ``run(left, rights, lifter, payload_map, out)`` sums ``left`` joined
    with ``rights`` into the dict ``out``, passing each row through
    ``lifter`` (:func:`fivm.rings.lift_row`) when ``lifts``, and tallies
    each relation's units on its own counters."""
    code = RowCode(ring)
    code.consts["_tally"] = _tally
    code.add(0, "def marginalize(left, rights, L, X, out):")
    side = (code.name("r"), code.name("w"), code.name("p"))
    code.add(1, " = ".join(side) + " = 0")
    src = code.name("d")
    code.add(1, f"{src} = left.entries")
    rights, setup = [], []
    for j, (_, route, _, _) in enumerate(levels):
        entries, r, p = code.name("e"), code.name("r"), code.name("p")
        code.add(1, f"{entries} = rights[{j}].entries")
        code.add(1, f"{r} = {p} = 0")
        table = None
        if route not in (None, "primary"):
            table = code.name("t")
            setup.append(f"{table} = rights[{j}].indexes[{code.const('q', route)}]")
        rights.append((entries, table, r, p))
    lifter = "L" if lifts else None
    code.level(1, src, "out", (levels, sums, out_pos), lifter, mapped, side, rights, setup)
    code.add(1, f"_tally(left.counters, {', '.join(side)})")
    for j, (_, _, r, p) in enumerate(rights):
        code.add(1, f"_tally(rights[{j}].counters, {r}, 0, {p})")
    label = (levels, sums, lifts, out_pos, mapped)
    return code.compile("marginalize", f"marginalize {label}")


# A relation has a few index shapes; the bound only keeps a long-lived process flat.
@lru_cache(maxsize=1024)
def _store_function(dense: bool, shape: tuple, ring: RingSpec) -> Any:
    """The store loop of :meth:`Relation.accumulate_all` for indexes of
    ``shape``, (probe positions, group position) each, over payloads of
    ``ring`` (:class:`RowCode`), generated once: ``bind(*tables)`` returns
    ``store(entries, rows, moves, counters)``, which adds each (key,
    payload) row into ``entries``, keeps the tables up at each support
    change, appends it to ``moves`` unless that is None, and tallies
    ``counters`` once: per row a read, per insert, overwrite or delete a
    write, per support change a probe per index. A dense relation's tables
    store nothing, so it only tallies the probes."""
    code = RowCode(ring)
    tables = [(code.name("t"), *spec) for spec in shape]
    upkept = () if dense else tables
    code.add(0, f"def bind({', '.join(t for t, _, _ in tables)}):")
    code.add(1, "def store(entries, rows, moves, counters):")
    code.add(2, "r = w = c = 0")
    code.add(2, "for k, v in rows:")
    code.add(3, "r += 1")
    code.add(3, "o = entries.get(k)")
    code.add(3, "if o is None:")
    code.add(4, f"if {code.zero('v')}:")
    code.add(5, "continue")
    code.add(4, "entries[k] = v")
    code.upkeep(4, "k", upkept, True)
    code.add(4, "m = 1")
    code.add(3, "else:")
    code.add(4, f"v = {code.plus('o', 'v')}")
    code.add(4, f"if {code.nonzero('v')}:")
    code.add(5, "entries[k] = v")
    code.add(5, "w += 1")
    code.add(5, "continue")
    code.add(4, "del entries[k]")
    code.upkeep(4, "k", upkept, False)
    code.add(4, "m = -1")
    code.add(3, "c += 1")
    code.add(3, "if moves is not None:")
    code.add(4, "moves.append((k, m))")
    code.add(2, "counters.entry_reads += r")
    code.add(2, "counters.entry_writes += w + c")
    if shape:
        code.add(2, f"counters.index_probes += {len(shape)} * c")
    code.add(1, "return store")
    return code.compile("bind", f"store {(dense, shape)}")


@lru_cache(maxsize=1024)
def _bare_store(ring: RingSpec) -> Any:
    """The store of every relation over ``ring`` without an index, dict or
    dense."""
    return _store_function(False, (), ring)()


@lru_cache(maxsize=1024)
def _fill_function(probe_pos: tuple, group_pos: Optional[int], ring: RingSpec) -> Any:
    """``fill(keys)``: a new index table holding every key of ``keys``,
    inserted by the upkeep of :func:`_store_function`."""
    code = RowCode(ring)
    code.add(0, "def fill(keys):")
    code.add(1, "t = {}")
    code.add(1, "for k in keys:")
    code.upkeep(2, "k", [("t", probe_pos, group_pos)], True)
    code.add(1, "return t")
    return code.compile("fill", f"fill {(probe_pos, group_pos)}")


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


class Contraction(NamedTuple):
    """One shape of :func:`_contract`'s operands, planned once
    (:func:`_contract_plan`)."""

    spec: str  # the einsum spec
    path: Any  # its contraction order (:func:`_einsum_path`)
    shape: tuple  # the output's shape
    sizes: tuple  # every operand's number of cells
    units: tuple  # per operand, the units charged when every operand is full
    levels: tuple  # the join levels of :func:`_walk_plan`
    subs: tuple  # every operand's einsum letters
    extent: dict  # every letter's extent


@lru_cache(maxsize=1024)
def _contract_plan(
    levels: tuple, schemas: tuple, shapes: tuple, out_schema: tuple
) -> Optional[Contraction]:
    """What :func:`_contract` needs for operands over ``schemas`` of
    ``shapes`` joined by ``levels`` into ``out_schema``: the ``einsum``
    spec and contraction order, the output shape, the size of every
    operand, and the units every operand is charged when all of them are
    fully nonzero (:func:`_contract_units` over the products of the
    extents of the distinct variables joined so far). None when two
    operands disagree on a variable's extent, which ``einsum`` would
    stretch when one of them is 1, or ``einsum`` has too few letters."""
    cols = [(v, n) for schema, shape in zip(schemas, shapes) for v, n in zip(schema, shape)]
    size = dict(cols)
    if len(set(cols)) > len(size) or len(size) > len(string.ascii_letters):
        return None
    letter = dict(zip(size, string.ascii_letters))
    subs = tuple("".join(letter[v] for v in schema) for schema in schemas)
    extent = {letter[v]: n for v, n in size.items()}
    seen: dict = dict.fromkeys(schemas[0])
    joined = []
    for schema in schemas[1:]:
        seen.update(dict.fromkeys(schema))
        joined.append(math.prod(size[v] for v in seen))
    spec = ",".join(subs) + "->" + "".join(letter[v] for v in out_schema)
    sizes = tuple(math.prod(shape) for shape in shapes)
    return Contraction(
        spec, _einsum_path(spec, shapes), tuple(size[v] for v in out_schema), sizes,
        _contract_units(levels, sizes, joined), levels, subs, extent,
    )


def _contract_units(levels: tuple, sizes: Sequence[int], joined: Sequence[int]) -> tuple:
    """The (reads, writes, probes) :func:`_contract` charges each operand,
    ``rel`` first, given each operand's nonzero cells ``sizes`` and the
    rows ``joined`` after each join level. Per incoming row a primary probe
    reads once, an index route probes once and reads each match, and a
    scan that shares variables probes its grouping once; the scan reads
    the relation once if any row arrives. The output, on ``rel``'s
    counters, reads and writes once per joined row."""
    rows = sizes[0]
    units = [[rows, 0, 0]] + [[0, 0, 0] for _ in levels]
    for i, (level, size, after) in enumerate(zip(levels, sizes[1:], joined), 1):
        route = level[1]
        if route == "primary":
            units[i][0] += rows
        elif route is not None:
            units[i][0] += after
            units[i][2] += rows
        elif rows:
            units[i][0] += size
            if level[2]:
                units[0][2] += rows
        rows = after
    units[0][0] += rows
    units[0][1] += rows
    return tuple(map(tuple, units))


def _joined(plan: Contraction, cells: Sequence[DenseCells], nonzero: tuple) -> list[int]:
    """The rows reaching each join level of ``plan``: the nonzero cells of
    the join of the operands so far. The nonzero patterns of the operands
    that are not full are contracted as float masks. A full operand's
    pattern is all ones, so it only multiplies the count by the extents of
    its variables that no such operand has; one operand that is not full
    counts its own nonzero cells, with no mask."""
    subs, extent, sizes = plan.subs, plan.extent, plan.sizes
    masks: dict[int, np.ndarray] = {}
    joined = []
    for i in range(2, len(subs) + 1):
        part = [j for j in range(i) if nonzero[j] != sizes[j]]
        free = set("".join(subs[:i])).difference(*(subs[j] for j in part))
        rows = math.prod(extent[c] for c in free)
        if len(part) == 1:
            rows *= nonzero[part[0]]
        elif part:
            for j in part:
                if j not in masks:
                    masks[j] = (cells[j].array != 0).astype(float)
            spec = ",".join(subs[j] for j in part) + "->"
            rows *= round(float(_einsum(spec, [masks[j] for j in part])))
        joined.append(rows)
    return joined


def _contract(plan: Contraction, ops: Sequence[Relation]) -> DenseCells:
    """The cells of dense ``ops`` joined and summed as ``plan`` says, with
    to-one lifts: one ``einsum``, counted as the dict path counts the same
    nonzero cells (:func:`_contract_units`). When every operand is fully
    nonzero the planned units are charged; else the rows reaching each
    join level are counted (:func:`_joined`)."""
    cells = [r.entries for r in ops]
    nonzero = tuple([c.count for c in cells])
    units = plan.units
    if nonzero != plan.sizes:
        if 0 in nonzero:
            return DenseCells(np.zeros(plan.shape), 0)
        units = _contract_units(plan.levels, nonzero, _joined(plan, cells, nonzero))
    for r, (reads, writes, probes) in zip(ops, units):
        _tally(r.counters, reads, writes, probes)
    array = np.einsum(plan.spec, *[c.array for c in cells], optimize=plan.path)
    if len(cells) == 1:
        # one operand may come back as a view of its own array
        array = np.array(array)
    elif type(array) is not np.ndarray:
        array = np.asarray(array)  # a sum over every variable gives a scalar
    return DenseCells(array, _nonzero(array))


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
    delta.counters.entry_reads += n
    if not (type(target) is DenseRelation and type(delta) is DenseRelation):
        target._store(target.entries, delta.entries.items(), transitions, target.counters)
        return transitions
    # Adding arrays does what accumulating each nonzero delta cell does:
    # two reads and a write per cell, index upkeep per support change.
    cells = target.entries
    arr = cells.array
    if cells.count == arr.size:
        # a full target can only lose cells: those the add left zero
        arr += delta.entries.array
        cells.count = _nonzero(arr)
        if cells.count < arr.size:
            keys = cells.cell_keys
            transitions = [(keys[i], -1) for i in np.flatnonzero(arr == 0).tolist()]
    else:
        was = arr != 0
        arr += delta.entries.array
        for i in np.flatnonzero(was != (arr != 0)).tolist():
            move = -1 if was.flat[i] else 1
            transitions.append((cells.cell_keys[i], move))
            cells.count += move
    _tally(target.counters, n, n, len(target.indexes) * len(transitions))
    return transitions


class IndicatorState:
    """Support counts behind an existence projection of one relation.

    For a projection onto ``schema``, ``counts`` tracks how many base
    tuples currently project onto each key. The projected relation holds
    payload one exactly on keys with a positive count, so only transitions
    through zero emit output deltas, of the ring's ``one`` or its ``neg``
    (negation), both made once.
    """

    __slots__ = ("schema", "ring", "counts", "source_pos", "one", "neg")

    def __init__(self, schema: tuple[str, ...], ring: RingSpec, source_schema: tuple[str, ...]):
        self.schema = schema
        self.ring = ring
        self.one = ring.one
        self.neg = ring.neg(ring.one)
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
    one, neg = state.one, state.neg
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

