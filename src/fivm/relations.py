"""Ring-annotated relations and the bulk operators over them.

A relation maps key tuples over a fixed variable schema to non-zero ring
payloads. Storage is a plain insertion-ordered dict plus any number of
secondary hash indexes, each grouping full keys first by a probe prefix and
then by an optional group column. All data access funnels through counting
hooks so that maintenance cost can be measured in ring-agnostic units:
payload reads, payload writes, and index probes.

Values inside key tuples are dictionary-encoded (plain ints), which keeps
hashing cheap and makes streams reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from fivm.rings import (
    LiftingFunction,
    RingSpec,
    is_zero,
    lift,
    ring_add,
    ring_mul,
    ring_negate,
    ring_one,
)

__all__ = [
    "Tuple",
    "OpCounters",
    "Relation",
    "IndicatorState",
    "rel_union",
    "rel_join",
    "rel_marginalize",
    "rel_apply_delta",
    "indicator_project",
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

    def _read(self, n: int = 1) -> None:
        if self.counters is not None:
            self.counters.entry_reads += n

    def _write(self, n: int = 1) -> None:
        if self.counters is not None:
            self.counters.entry_writes += n

    def _probe(self, n: int = 1) -> None:
        if self.counters is not None:
            self.counters.index_probes += n

    def payload(self, key: tuple) -> Any:
        """Stored payload for ``key``, or None when absent. Counts one read."""
        self._read()
        return self.entries.get(key)

    def items(self) -> Iterator[tuple[tuple, Any]]:
        """Scan all entries in insertion order, counting one read each."""
        for key, val in self.entries.items():
            self._read()
            yield key, val

    def accumulate(self, key: tuple, payload: Any) -> int:
        """Add ``payload`` onto ``key`` and report the support transition.

        Returns +1 when the key goes from absent to present, -1 when it is
        deleted because the sum reached zero, and 0 otherwise. Zero payloads
        on absent keys are a no-op.
        """
        self._read()
        old = self.entries.get(key)
        if old is None:
            if is_zero(self.ring, payload):
                return 0
            self.entries[key] = payload
            self._write()
            self._index_add(key)
            return 1
        merged = ring_add(self.ring, old, payload)
        if is_zero(self.ring, merged):
            del self.entries[key]
            self._write()
            self._index_remove(key)
            return -1
        self.entries[key] = merged
        self._write()
        return 0

    def ensure_index(self, probe_vars: Iterable[str], group_var: Optional[str] = None) -> tuple:
        """Create (or find) the index keyed by ``probe_vars`` / ``group_var``.

        Returns the canonical index id. Building walks every current entry
        once, which is charged to the probe counter.
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
        table: dict = {}
        for key in self.entries:
            self._probe()
            self._index_insert(table, probe_pos, group_pos, key)
        self.indexes[spec] = table
        return spec

    @staticmethod
    def _index_insert(table: dict, probe_pos: tuple, group_pos, key: tuple) -> None:
        probe = tuple(key[i] for i in probe_pos)
        group = key[group_pos] if group_pos is not None else None
        table.setdefault(probe, {}).setdefault(group, {})[key] = None

    def _index_add(self, key: tuple) -> None:
        for spec, table in self.indexes.items():
            self._probe()
            probe_pos, group_pos = self._index_pos[spec]
            self._index_insert(table, probe_pos, group_pos, key)

    def _index_remove(self, key: tuple) -> None:
        for spec, table in self.indexes.items():
            self._probe()
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
        self._probe()
        bucket = self.indexes[spec].get(probe)
        if not bucket:
            return []
        out: list[tuple] = []
        for keys in bucket.values():
            out.extend(keys)
        return out

    def index_groups(self, spec: tuple, probe: tuple) -> dict:
        """Mapping of group value to key dict for ``probe`` (may be empty)."""
        self._probe()
        return self.indexes[spec].get(probe, {})

    def total(self) -> Any:
        """Ring sum of every payload (the relation marginalized to nothing)."""
        from fivm.rings import ring_zero

        acc = ring_zero(self.ring)
        for _, val in self.items():
            acc = ring_add(self.ring, acc, val)
        return acc

    def clone(self, counters: Optional[OpCounters] = None) -> "Relation":
        """Entry-level copy without indexes; payloads are shared."""
        out = Relation(self.schema, self.ring, counters=counters, name=self.name)
        out.entries = dict(self.entries)
        return out


def from_pairs(
    schema: Iterable[str],
    ring: RingSpec,
    pairs: Iterable[tuple[tuple, Any]],
    counters: Optional[OpCounters] = None,
    name: str = "",
) -> Relation:
    """Build a relation by accumulating (key, payload) pairs in order."""
    rel = Relation(schema, ring, counters=counters, name=name)
    for key, val in pairs:
        rel.accumulate(tuple(key), val)
    return rel


def _result(schema: Iterable[str], like: Relation, name: str = "") -> Relation:
    return Relation(schema, like.ring, counters=like.counters, name=name)


def rel_union(a: Relation, b: Relation) -> Relation:
    """Key-wise ring sum of two relations over the same schema."""
    if a.schema != b.schema:
        raise ValueError(f"union schema mismatch: {a.schema} vs {b.schema}")
    out = _result(a.schema, a)
    for key, val in a.items():
        out.accumulate(key, val)
    for key, val in b.items():
        out.accumulate(key, val)
    return out


def rel_join(
    left: Relation,
    right: Relation,
    right_index=None,
    right_map=None,
) -> Relation:
    """Natural join with ring-multiplied payloads.

    The left relation is scanned; the right one is probed, through a
    persistent index (its probe vars must be exactly the shared variables),
    through its primary entry store when the shared variables cover its
    whole schema (``right_index="primary"``), or through a transient
    grouping built on the fly. ``right_map``, when given, rewrites each
    right payload before multiplying. The result schema lists the left
    variables first, then the right-only ones in the right relation's
    order.
    """
    shared = tuple(v for v in right.schema if v in set(left.schema))
    out_schema = left.schema + tuple(v for v in right.schema if v not in set(left.schema))
    out = _result(out_schema, left)
    if not left.entries or not right.entries:
        return out
    left_pos = {v: i for i, v in enumerate(left.schema)}
    left_shared = tuple(left_pos[v] for v in shared)
    right_pos = {v: i for i, v in enumerate(right.schema)}
    right_keep = tuple(right_pos[v] for v in out_schema[len(left.schema):])
    ring = left.ring

    if right_index == "primary":
        if set(shared) != set(right.schema):
            raise ValueError(
                f"primary probe needs all of {right.schema} bound, have {shared}"
            )
        build = tuple(left_pos[v] for v in right.schema)
        for lkey, lval in left.items():
            rval = right.payload(tuple(lkey[i] for i in build))
            if rval is None:
                continue
            if right_map is not None:
                rval = right_map(rval)
            out.accumulate(lkey, ring_mul(ring, lval, rval))
        return out

    if right_index is not None:
        probe_vars, _ = right_index
        if set(probe_vars) != set(shared):
            raise ValueError(f"index {right_index} does not cover join vars {shared}")
        reorder = tuple(shared.index(v) for v in probe_vars)
        for lkey, lval in left.items():
            raw = tuple(lkey[i] for i in left_shared)
            probe = tuple(raw[i] for i in reorder)
            for rkey in right.index_lookup(right_index, probe):
                rval = right.payload(rkey)
                if right_map is not None:
                    rval = right_map(rval)
                prod = ring_mul(ring, lval, rval)
                out.accumulate(lkey + tuple(rkey[i] for i in right_keep), prod)
        return out

    if not shared:
        right_items = list(right.items())
        for lkey, lval in left.items():
            for rkey, rval in right_items:
                if right_map is not None:
                    rval = right_map(rval)
                prod = ring_mul(ring, lval, rval)
                out.accumulate(lkey + tuple(rkey[i] for i in right_keep), prod)
        return out

    right_shared = tuple(right_pos[v] for v in shared)
    groups: dict[tuple, list[tuple[tuple, Any]]] = {}
    for rkey, rval in right.items():
        groups.setdefault(tuple(rkey[i] for i in right_shared), []).append((rkey, rval))
    for lkey, lval in left.items():
        left._probe()
        matches = groups.get(tuple(lkey[i] for i in left_shared))
        if not matches:
            continue
        for rkey, rval in matches:
            if right_map is not None:
                rval = right_map(rval)
            prod = ring_mul(ring, lval, rval)
            out.accumulate(lkey + tuple(rkey[i] for i in right_keep), prod)
    return out


def rel_marginalize(
    rel: Relation,
    drop_vars: Iterable[str],
    lifts: dict[str, LiftingFunction],
) -> Relation:
    """Sum out ``drop_vars``, multiplying each payload by the dropped
    values' lifted images first.

    Every dropped variable needs a lifting function. The surviving schema
    keeps the source order.
    """
    drop = tuple(v for v in rel.schema if v in set(drop_vars))
    if len(drop) != len(set(drop_vars)):
        missing = set(drop_vars) - set(rel.schema)
        raise ValueError(f"cannot marginalize {sorted(missing)}: not in {rel.schema}")
    for v in drop:
        if v not in lifts:
            raise ValueError(f"no lifting function for marginalized variable {v}")
    keep_pos = tuple(i for i, v in enumerate(rel.schema) if v not in set(drop))
    drop_pos = tuple((rel.schema.index(v), lifts[v]) for v in drop)
    out = _result(tuple(rel.schema[i] for i in keep_pos), rel)
    ring = rel.ring
    for key, val in rel.items():
        for pos, fn in drop_pos:
            val = ring_mul(ring, val, lift(ring, fn, key[pos]))
        out.accumulate(tuple(key[i] for i in keep_pos), val)
    return out


def rel_apply_delta(target: Relation, delta: Relation) -> list[tuple[tuple, int]]:
    """Accumulate ``delta`` into ``target`` in place.

    Returns the support transitions as (key, +1 | -1) pairs in delta order,
    which is what indicator maintenance consumes.
    """
    if target.schema != delta.schema:
        raise ValueError(f"delta schema mismatch: {target.schema} vs {delta.schema}")
    transitions: list[tuple[tuple, int]] = []
    for key, val in delta.items():
        t = target.accumulate(key, val)
        if t != 0:
            transitions.append((key, t))
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


def indicator_project(
    rel: Relation,
    target_schema: Iterable[str],
    name: str = "",
) -> tuple[IndicatorState, Relation]:
    """Build the existence projection of ``rel`` onto ``target_schema``.

    Returns the tracking state plus the projected relation, whose payload
    is ring one on every key some base tuple projects to.
    """
    schema = tuple(target_schema)
    missing = [v for v in schema if v not in rel.schema]
    if missing:
        raise ValueError(f"indicator vars {missing} not in schema {rel.schema}")
    state = IndicatorState(schema, rel.ring, rel.schema)
    out = _result(schema, rel, name=name)
    one = ring_one(rel.ring)
    for key in rel.entries:
        rel._read()
        pk = state.project(key)
        state.counts[pk] = state.counts.get(pk, 0) + 1
        if state.counts[pk] == 1:
            out.accumulate(pk, one)
    return state, out


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
    one = ring_one(state.ring)
    neg = ring_negate(state.ring, one)
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
            out.accumulate(pk, one)
        elif t == -1 and c == 0:
            out.accumulate(pk, neg)
    return out

