"""Incremental maintenance of a view tree under inserts and deletes.

The runtime holds the base relations, the stored views picked by the
planner, and the support counts behind existence projections. A delta
enters the tree at an updatable relation occurrence or at an existence
projection, and one routine handles both: it climbs the path the planner
fixed for the entry (``ViewTree.delta_paths``), at every level joining the
pre-update state of the sibling views and summing out the level's
variables. Each path is compiled once per evaluated state, at its first
delta: every level's stored view and sibling relations are resolved then,
and one Python function is generated that runs the whole update of a
dict delta over the entry's own keys (``RuntimeState._climb``), its row
positions, probes, lifts, zero tests and counter tallies written out, so
an update plans nothing and interprets no plan. Only once the whole path
is computed are the stored levels updated, through ``rel_apply_delta``,
the entry's own relation last, so an update that fails partway up
changes nothing. The occurrence's support transitions then become the
(usually tiny) delta of each projection the plan says it feeds
(``ViewTree.feeds``), which climbs its own path against the updated state.

Updates that arrive as products of independent factors are propagated
without expanding the product: each variable is summed out by joining only
the factors that mention it, which is what makes low-rank matrix updates
cheap.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Any, Iterable, Optional

from fivm.queries import RELATIONAL_PAYLOAD, Occurrence, Query
from fivm.relations import (
    DenseRelation,
    IndicatorState,
    OpCounters,
    Relation,
    RowCode,
    indicator_delta,
    plan_shape,
    rel_apply_delta,
    rel_marginalize,
)
from fivm.rings import relational_total
from fivm.viewtree import INDICATOR, LEAF, ViewNode, ViewTree, flat_lifts

__all__ = [
    "UpdateDelta",
    "FactorizedDelta",
    "RuntimeState",
    "optimize_factorized",
    "recompute_query",
]


@dataclass(frozen=True)
class UpdateDelta:
    """A keyed change to one relation: (key, payload) pairs in the
    relation's schema order. Deletes are encoded by negated payloads."""

    target: str
    pairs: tuple[tuple[tuple, Any], ...]


@dataclass(frozen=True)
class FactorizedDelta:
    """A change to one relation given as a product of factor relations.

    The factors' schemas must cover the target schema; their natural join
    is the actual delta, but propagation keeps the product symbolic for as
    long as possible.
    """

    target: str
    factors: tuple[Relation, ...]


def optimize_factorized(
    factors: list[Relation],
    marg_vars: Iterable[str],
    lifts: dict,
) -> list[Relation]:
    """Sum variables out of a symbolic product one at a time.

    For each variable, only the factors mentioning it are joined and
    reduced; everything else stays untouched. The result is again a list
    of factors whose product equals the marginalized input product.
    """
    current = list(factors)
    for var in marg_vars:
        touching = [f for f in current if var in f.schema]
        if not touching:
            raise ValueError(f"variable {var} appears in no factor")
        rest = [f for f in current if var not in f.schema]
        first_at = current.index(touching[0])
        acc = rel_marginalize(touching[0], (var,), lifts, [(f, None) for f in touching[1:]])
        rest.insert(min(first_at, len(rest)), acc)
        current = rest
    return current


class RuntimeState:
    """Live storage for one planned view tree.

    Owns the base relations (one copy per occurrence, so self joins update
    slot by slot), the materialized views, and the indicator support
    counts. All owned relations share one counter block, so the cost of
    loading, maintaining, and enumerating is observable per phase.
    """

    def __init__(
        self,
        tree: ViewTree,
        counters: Optional[OpCounters] = None,
        factorized_payloads: Optional[bool] = None,
    ):
        self.tree = tree
        self.query: Query = tree.query
        self.ring = tree.query.ring
        self.counters = counters if counters is not None else OpCounters()
        self.leaves: dict[str, Relation] = {}
        self.views: dict[str, Relation] = {}
        self.indicator_rels: dict[str, Relation] = {}
        self.indicator_states: dict[str, IndicatorState] = {}
        if factorized_payloads is None:
            factorized_payloads = tree.query.free_lift_mode == RELATIONAL_PAYLOAD
        if factorized_payloads and tree.query.ring.kind != "relational":
            raise ValueError("factorized payloads need a relational-payload ring")
        if factorized_payloads:
            # Each view totals the payloads it receives from below, keeping
            # only its own variable's column; value listings then span the
            # stored views instead of piling up in one place.
            self.payload_xform = relational_total
        else:
            self.payload_xform = None
        for d in self.query.relations:
            self.leaves[d.leaf_id] = self.relation(d.schema, d.leaf_id)
        # Per updatable relation name: its occurrences, its update schema
        # and the maker of its merged deltas.
        self._targets = {
            name: (occs, occs[0].schema, self._maker(occs[0].schema))
            for name, occs in self.query.occurrences.items()
            if occs[0].leaf_id in tree.updatable
        }
        # Per delta entry id, its compiled path (see _compile), and the
        # compiled listing walk (see fivm.enumeration.compiled_walk).
        self._paths: dict[str, tuple] = {}
        self.walk: Optional[Any] = None
        self._root: Optional[Relation] = None

    def relation(self, schema: tuple[str, ...], name: str = "") -> Relation:
        """An empty relation over ``schema`` on this state's counters,
        dense when the query declares the ranges of all its variables."""
        return self._maker(schema)(name=name)

    def _maker(self, schema: tuple[str, ...]) -> partial:
        """What :meth:`relation` calls to make an empty relation over ``schema``."""
        shape = self.query.dense_shape(schema)
        if shape is None:
            return partial(Relation, schema, self.ring, self.counters)
        return partial(DenseRelation, schema, self.ring, shape, self.counters)

    def load(self, data: dict[str, Iterable[tuple[tuple, Any]]]) -> None:
        """Fill the base relations and evaluate every view bottom-up.

        ``data`` maps relation names to (key, payload) pairs; a name used
        by several occurrences loads each occurrence's copy. Data for an
        unknown relation, a key of the wrong length, a payload outside the
        ring's degree, a value outside its declared range or one its lift
        refuses is rejected before any state changes.
        """
        unknown = set(data) - self.query.occurrences.keys()
        if unknown:
            raise ValueError(f"data for unknown relations: {sorted(unknown)}")
        fresh: dict[str, Relation] = {}
        for d in self.query.relations:
            rel = fresh[d.leaf_id] = self.relation(d.schema, d.leaf_id)
            self._accumulate(rel, d.name, data.get(d.name, ()))
        self.initialize(fresh)

    def _accumulate(self, rel: Relation, name: str, pairs: Iterable[tuple[tuple, Any]]) -> None:
        """Accumulate ``name``'s ``pairs`` into ``rel``, all of them passing
        :meth:`Query.checked` first. When ``rel`` is dense and the check
        can refuse none of its cells (:meth:`Query.checks_cells`), the
        array's bounds test is that check: the pairs go straight to
        :meth:`DenseRelation.scatter`, and only a batch it does not take
        outright is checked and merged row by row."""
        if type(rel) is DenseRelation:
            schema = self.query.occurrences[name][0].schema
            if not self.query.checks_cells(name, schema, rel.entries.array.shape):
                pairs = tuple(pairs)
                if rel.scatter(pairs):
                    return
        rel.accumulate_all(self.query.checked(pairs, name))

    def initialize(self, leaves: dict[str, Relation]) -> None:
        """Evaluate the tree bottom-up over ``leaves`` and store the flagged
        nodes. Nothing is stored until every node is evaluated, so an error
        leaves the state as it was. A leaf must count on this state's
        counters, the one block a generated climb charges."""
        for leaf_id, rel in leaves.items():
            if rel.counters is not self.counters:
                raise ValueError(f"leaf {leaf_id} does not count on this state's counters")
        views: dict[str, Relation] = {}
        indicator_rels: dict[str, Relation] = {}
        indicator_states: dict[str, IndicatorState] = {}
        values: dict[str, Relation] = {}
        for node in self.tree.nodes:
            if node.kind == LEAF:
                rel = leaves[node.leaf_id]
            elif node.kind == INDICATOR:
                # Loaded as the update routine would: every source entry
                # a +1 support transition into an empty state.
                source = leaves[node.source]
                state = IndicatorState(node.keys, self.ring, source.schema)
                rel = indicator_delta(state, ((k, 1) for k, _ in source.items()), self.counters)
                rel.name = node.id
                indicator_states[node.id] = state
                if node.materialized:
                    indicator_rels[node.id] = rel
            else:
                first, *rest = node.children
                joins = [(values[c.id], None) for c in rest]
                rel = rel_marginalize(
                    values[first.id], node.marg_vars, node.lifts, joins,
                    schema=node.keys, payload_map=self.payload_xform,
                )
                rel.name = node.id
                if node.materialized:
                    views[node.id] = rel
            values[node.id] = rel
            if node.materialized:
                for probe, group in node.required_indices:
                    rel.ensure_index(probe, group)
        self.leaves, self.views = dict(leaves), views
        self.indicator_rels, self.indicator_states = indicator_rels, indicator_states
        self._paths, self.walk = {}, None
        # A single root is resolved here too, so that reading the result
        # (a listing right after a batch) looks up no registry.
        roots = self.tree.roots
        self._root = self.stored(roots[0].id) if len(roots) == 1 else None

    def stored(self, node_id: str) -> Relation:
        node = self.tree.by_id[node_id]
        if node.kind == LEAF:
            return self.leaves[node.leaf_id]
        if node.kind == INDICATOR:
            return self.indicator_rels[node_id]
        return self.views[node_id]

    def result(self) -> Relation:
        """The maintained query result (joining roots if there are several)."""
        if self._root is not None:
            return self._root
        return self._expand([self.stored(r.id) for r in self.tree.roots])

    @staticmethod
    def _expand(form: list[Relation], schema: Optional[tuple[str, ...]] = None) -> Relation:
        """The relation a product of factors stands for, over ``schema``."""
        if len(form) == 1 and schema in (None, form[0].schema):
            return form[0]
        return rel_marginalize(form[0], (), {}, [(f, None) for f in form[1:]], schema=schema)

    def _enter(self, entry: ViewNode, form: list[Relation]) -> list[tuple[tuple, int]]:
        """Push a delta that enters at ``entry`` up its compiled path.

        A single dict delta over the entry's own keys runs the path's
        generated function (:meth:`_climb`). Any other form, a product of
        factors or a dense delta, climbs level by level: a product by
        :func:`optimize_factorized`, anything else, or a product expanded
        when payloads are totalled, joined with the level's siblings and
        summed by :func:`rel_marginalize`. Either
        way every level is computed against the state before the delta;
        only then are the stored levels updated, and the entry's own
        relation last, so an error on the way up changes nothing. Returns
        the support transitions of the entry's relation (none when unstored).
        """
        path = self._paths.get(entry.id)
        if path is None:
            path = self._paths[entry.id] = self._compile(entry)
        climb, stored, levels = path
        if len(form) == 1 and type(form[0]) is Relation and form[0].schema == entry.keys:
            return climb(form[0].entries)
        xform = self.payload_xform
        deltas: list[tuple[ViewNode, Optional[Relation], list[Relation]]] = []
        level = form
        for node, target, joins, inner_first in levels:
            if any(not f.entries for f in level):
                break
            if len(level) > 1 and not xform:
                level = optimize_factorized(level + [r for r, _ in joins], inner_first, node.lifts)
            else:
                # Payload totals do not distribute over a product's factors.
                delta = self._expand(level)
                level = [rel_marginalize(delta, node.marg_vars, node.lifts, joins, node.keys, xform)]
            deltas.append((node, target, level))
        for node, target, level in deltas:
            if target is not None:
                rel_apply_delta(target, self._expand(level, node.keys))
        if stored is None:
            return []
        return rel_apply_delta(stored, self._expand(form, entry.keys))

    def _compile(self, entry: ViewNode) -> tuple:
        """``entry``'s path compiled against the stored relations: the
        function a dict delta over the entry's keys runs (:meth:`_climb`),
        the entry's stored relation (None when unstored) and the levels.
        Per level: the node, its stored relation (None when unstored), the
        (sibling relation, route) pairs it joins and the order in which a
        product-form delta sums out the node's variables. A path is
        compiled at its first delta and dropped whenever :meth:`initialize`
        rebinds the stored relations."""
        stored = self.stored(entry.id) if entry.materialized else None
        levels = tuple(
            (step.node, self.stored(step.node.id) if step.node.materialized else None,
             [(self.stored(sib_id), route) for sib_id, route in step.joins], step.inner_first)
            for step in self.tree.delta_paths[entry.id]
        )
        return self._climb(entry, stored, levels), stored, levels

    def _climb(self, entry: ViewNode, stored: Optional[Relation], levels: tuple) -> Any:
        """``climb(d)`` compiled, its source kept as ``climb.source``: given
        a dict delta's entries over ``entry``'s keys, it computes every level
        (one :meth:`RowCode.level` each), adds the units each level tallied
        to the state's counters, then stores each stored level and, last,
        ``stored`` through ``rel_apply_delta``, looked up in this module when
        it runs. A shell takes each dict as its entries for the call and lets
        go of it after: a batch's deltas kept alive until the path's next
        update slow the batches that follow. Returns the entry's support
        transitions, none when ``stored`` is None."""
        ring = self.ring
        code = RowCode()
        code.consts.update(
            M=ring.mul, A=ring.add, Z=ring.is_zero, X=self.payload_xform, RING=ring,
            ivm=sys.modules[__name__],
        )
        src = entry_src = code.name("d")
        code.add(0, f"def climb({src}):")
        schema = entry.keys
        mapped = self.payload_xform is not None
        counters = None
        tallies, stores = [], []
        for node, target, joins, _ in levels:
            steps, sums, lifted, _, out_pos = plan_shape(
                schema, tuple((r.schema, route) for r, route in joins),
                node.marg_vars, node.lifts, node.keys,
            )
            schema = node.keys
            dst = code.name("d")
            code.add(1, f"{dst} = {{}} if {src} else None")
            # named at the first level: a path without levels charges nothing
            counters = counters or code.const("C", self.counters)
            side = code.name("r"), code.name("w"), code.name("p")
            code.add(1, f"{' = '.join(side)} = 0")
            tallies.append(side)
            names = []
            for right, route in joins:
                entries = code.name("e")
                code.add(1, f"{entries} = {code.const('R', right)}.entries")
                table = None if route in (None, "primary") else code.const("T", right.indexes[route])
                names.append((entries, table, side[0], side[2]))
            fns = [(pos, code.const("F", fn)) for pos, fn in lifted]
            code.level(1, src, dst, (steps, sums, out_pos), fns, mapped, side, names)
            if target is not None:
                shell = Relation(node.keys, ring, self.counters)
                stores.append((dst, code.const("S", shell), code.const("V", target)))
            src = dst
        for field, units in zip(("entry_reads", "entry_writes", "index_probes"), zip(*tallies)):
            code.add(1, f"{counters}.{field} += {' + '.join(units)}")
        for dst, shell, target in stores:
            code.add(1, f"if {dst} is not None:")
            code.add(2, f"{shell}.entries = {dst}")
            code.add(2, f"ivm.rel_apply_delta({target}, {shell})")
            code.add(2, f"{shell}.entries = None")
        if stored is not None:  # the caller's entries are never None: no test
            shell = code.const("S", Relation(entry.keys, ring, self.counters))
            code.add(1, f"{shell}.entries = {entry_src}")
            code.add(1, f"moves = ivm.rel_apply_delta({code.const('V', stored)}, {shell})")
            code.add(1, f"{shell}.entries = None")
        code.add(1, "return []" if stored is None else "return moves")
        climb = code.compile("climb", f"climb {entry.id}")
        climb.source = code.source
        return climb

    def climb_source(self, entry_id: str) -> str:
        """The source of the function a dict delta over ``entry_id``'s own
        schema climbs its path by (a loaded state compiles it)."""
        return self._compile(self.tree.by_id[entry_id])[0].source

    def propagate(self, leaf_id: str, form: list[Relation]) -> None:
        """Push one relation occurrence's delta through the whole tree.

        The occurrence's delta climbs its path first; its support
        transitions then become the delta of each existence projection it
        feeds, which climbs its own path against the updated state.
        """
        transitions = self._enter(self.tree.leaf_nodes[leaf_id], form)
        for ind in self.tree.feeds[leaf_id]:
            state = self.indicator_states[ind.id]
            self._enter(ind, [indicator_delta(state, transitions, counters=self.counters)])

    def apply_batch(self, updates: Iterable[UpdateDelta | FactorizedDelta]) -> int:
        """Apply a batch of updates, one relation at a time in arrival order.

        Plain deltas to the same relation are merged into one delta first,
        all those between two of its factorized deltas checked in one pass
        (:meth:`_accumulate`); factorized deltas keep their product form
        (:meth:`_factors`). The whole batch is checked (known, updatable
        targets, key lengths, factor coverage, payloads within the ring's
        degree) before anything propagates, so a rejected batch changes no
        state. Values pass the query's entry check (``Query.checked``:
        declared ranges and lifts) then too, so a later join never lifts an
        unchecked value and the batch applies fully or not at all. Each
        delta then enters each occurrence of its relation through
        :meth:`propagate`, renamed (:meth:`_rebound`) for a self join's
        later occurrences; nothing else is built around the climbs, so a
        one-pair update costs one merged relation, one checked row and one
        store call beyond its path. Returns the number of key-level changes
        processed.
        """
        by_name: dict[str, list[UpdateDelta | FactorizedDelta]] = {}
        for u in updates:
            by_name.setdefault(u.target, []).append(u)
        batch: list[tuple[tuple[Occurrence, ...], tuple[str, ...], list[list[Relation]]]] = []
        for name, items in by_name.items():
            target = self._targets.get(name)
            if target is None:
                if name in self.query.occurrences:
                    raise ValueError(f"relation {name} is not updatable in this plan")
                raise ValueError(f"update for unknown relation {name}")
            occurrences, schema, make = target
            merged: Optional[Relation] = None
            units: list[list[Relation]] = []
            pending: list[tuple] = []
            for u in items:
                if isinstance(u, UpdateDelta):
                    if merged is None:
                        merged = make()
                        units.append([merged])
                    pending += u.pairs
                else:
                    if pending:
                        # the pairs that came first are checked first
                        self._accumulate(merged, name, pending)
                        pending = []
                    units.append(self._factors(name, schema, u.factors))
            if pending:
                self._accumulate(merged, name, pending)
            batch.append((occurrences, schema, units))
        touched = 0
        for occurrences, schema, units in batch:
            for form in units:
                sizes = [len(f.entries) for f in form]
                if 0 in sizes:
                    continue
                touched += sum(sizes)
                for occ in occurrences:
                    # Each occurrence binds the relation's columns to its
                    # own variables, so a delta entering another occurrence
                    # than the first is renamed positionally.
                    self.propagate(
                        occ.leaf_id,
                        form if occ.schema == schema
                        else [self._rebound(f, occ.renaming) for f in form],
                    )
        return touched

    def _factors(
        self, name: str, schema: tuple[str, ...], factors: tuple[Relation, ...]
    ) -> list[Relation]:
        """A factorized delta's ``factors``, checked: each factor's rows
        pass ``Query.checked`` (a dense factor whose cells it cannot refuse
        skips it) and the factors together cover ``schema``. They come back
        on this state's counters; a single dict factor over ``schema``'s
        columns in another order comes back reordered into ``schema``, so
        it climbs by the path's generated function."""
        covered: set[str] = set()
        for f in factors:
            covered.update(f.schema)
            if isinstance(f, DenseRelation) and not self.query.checks_cells(
                name, f.schema, f.entries.array.shape
            ):
                continue
            self.query.checked(f.entries.items(), name, f.schema)
        if covered != set(schema):
            raise ValueError(f"factors cover {sorted(covered)}, not schema {schema}")
        if len(factors) == 1 and type(factors[0]) is Relation and factors[0].schema != schema:
            f = factors[0]
            # a permutation moves two columns or more, so pick gives tuples
            pick = itemgetter(*[f.schema.index(v) for v in schema])
            out = Relation(schema, self.ring, self.counters, f.name)
            out.entries = {pick(k): v for k, v in f.entries.items()}
            return [out]
        return [f if f.counters is self.counters else self._rebound(f, {}) for f in factors]

    def _rebound(self, rel: Relation, renaming: dict[str, str]) -> Relation:
        """``rel`` on this state's counters with each column renamed by
        ``renaming`` (a column it misses keeps its name), sharing its
        entries."""
        schema = tuple([renaming.get(v, v) for v in rel.schema])
        out = Relation(schema, rel.ring, counters=self.counters, name=rel.name)
        out.entries = rel.entries
        return out

    def recompute_oracle(self) -> Relation:
        """Recompute the result from the current base relations only."""
        return recompute_query(self.query, self.leaves, self.tree.result_schema)


def recompute_query(
    query: Query,
    leaves: dict[str, Relation],
    result_schema: tuple[str, ...],
) -> Relation:
    """Join every occurrence and sum out everything off the result schema.

    Each variable is summed out by the lift :func:`flat_lifts` gives it.
    Works from the base relations alone, so it checks a maintained result
    without trusting any stored view.
    """
    first, *rest = [leaves[d.leaf_id] for d in query.relations]
    lifts = flat_lifts(query, result_schema)
    return rel_marginalize(first, tuple(lifts), lifts, [(r, None) for r in rest], result_schema)
