"""Incremental maintenance of a view tree under inserts and deletes.

The runtime holds the base relations, the stored views picked by the
planner, and the support counts behind existence projections. A delta
enters the tree at an updatable relation occurrence or at an existence
projection, and one routine handles both: it climbs the path the planner
fixed for the entry (``ViewTree.delta_paths``), at every level joining the
pre-update state of the sibling views and summing out the level's
variables. Each path is compiled once per evaluated state, at its first
delta: every level's stored view, sibling relations, row positions and
lifts are resolved then, so a climb runs one row loop per level
(``relations.marginalize_shape``) and plans nothing. Only once the whole
path is computed are the stored levels updated, the entry's own relation
last, so an update that fails partway up changes nothing. The
occurrence's support transitions then become the (usually tiny) delta of
each projection the plan says it feeds (``ViewTree.feeds``), which climbs
its own path against the updated state.

Updates that arrive as products of independent factors are propagated
without expanding the product: each variable is summed out by joining only
the factors that mention it, which is what makes low-rank matrix updates
cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Iterable, Optional

from fivm.queries import RELATIONAL_PAYLOAD, Occurrence, Query
from fivm.relations import (
    DenseRelation,
    IndicatorState,
    OpCounters,
    Relation,
    indicator_delta,
    marginalize_shape,
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
        # Per delta entry id, its compiled path (see _compile).
        self._paths: dict[str, tuple] = {}
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
        """Accumulate ``name``'s ``pairs`` into ``rel``, each passing
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
        leaves the state as it was."""
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
        self._paths = {}
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

        The climb runs in this one frame: at each level a single relation
        is joined with the level's siblings and summed by
        :func:`marginalize_shape` in the shape planned for its schema, and
        a product of factors by :func:`optimize_factorized`. Every level is
        computed against the state before the delta; only then are the
        stored levels updated, and the entry's own relation last, so an
        error on the way up changes nothing. Returns the support
        transitions of the entry's relation (none when unstored).
        """
        path = self._paths.get(entry.id)
        if path is None:
            path = self._paths[entry.id] = self._compile(entry)
        stored, levels = path
        xform = self.payload_xform
        deltas: list[tuple[ViewNode, Optional[Relation], list[Relation]]] = []
        level = form
        for node, target, rights, joins, inner_first, shapes in levels:
            if any(not f.entries for f in level):
                break
            if xform and len(level) > 1:
                # Payload totals do not distribute over a product's factors.
                level = [self._expand(level)]
            if len(level) > 1:
                level = optimize_factorized(level + rights, inner_first, node.lifts)
            else:
                rel = level[0]
                shape = shapes.get(rel.schema)
                if shape is None:
                    shape = shapes[rel.schema] = plan_shape(
                        rel.schema, joins, node.marg_vars, node.lifts, node.keys
                    )
                level = [marginalize_shape(rel, rights, shape, xform)]
            deltas.append((node, target, level))
        for node, target, level in deltas:
            if target is not None:
                rel_apply_delta(target, self._expand(level, node.keys))
        if stored is None:
            return []
        return rel_apply_delta(stored, self._expand(form, entry.keys))

    def _compile(self, entry: ViewNode) -> tuple:
        """``entry``'s stored relation (None when unstored) and the levels
        of its delta path, resolved against the stored relations: per
        level the node, its stored relation (None when unstored), the
        sibling relations and their (schema, route) pairs, the order in
        which a product-form delta sums out the node's variables, and the
        shapes planned so far, keyed by the schema of the delta reaching
        the level. A path is compiled at its first delta and dropped
        whenever :meth:`initialize` rebinds the stored relations."""
        levels = []
        for step in self.tree.delta_paths[entry.id]:
            rights = [self.stored(sib_id) for sib_id, _ in step.joins]
            joins = tuple((r.schema, route) for r, (_, route) in zip(rights, step.joins))
            target = self.stored(step.node.id) if step.node.materialized else None
            levels.append((step.node, target, rights, joins, step.inner_first, {}))
        return (self.stored(entry.id) if entry.materialized else None), tuple(levels)

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

        Plain deltas to the same relation are merged first, all those
        between two of its factorized deltas in one pass
        (:meth:`_accumulate`); factorized deltas keep their product form.
        The whole batch is checked (known, updatable targets, key lengths,
        factor coverage, payloads within the ring's degree) before anything
        propagates, so a rejected batch changes no state. Values pass the
        query's entry check (``Query.checked``: declared ranges and lifts)
        then too, so a later join never lifts an unchecked value and the
        batch applies fully or not at all. Returns the number of key-level
        changes processed.
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
                    covered: set[str] = set()
                    for f in u.factors:
                        covered |= set(f.schema)
                        if isinstance(f, DenseRelation) and not self.query.checks_cells(
                            name, f.schema, f.entries.array.shape
                        ):
                            continue
                        for _ in self.query.checked(f.entries.items(), name, f.schema):
                            pass
                    if covered != set(schema):
                        raise ValueError(
                            f"factors cover {sorted(covered)}, not schema {schema}"
                        )
                    units.append(list(u.factors))
            if pending:
                self._accumulate(merged, name, pending)
            batch.append((occurrences, schema, units))
        touched = 0
        for occurrences, schema, units in batch:
            for form in units:
                if any(not f.entries for f in form):
                    continue
                touched += sum(len(f.entries) for f in form)
                for occ in occurrences:
                    # Each occurrence binds the relation's columns to its
                    # own variables, so the delta's schema is renamed
                    # positionally before it enters that occurrence's path.
                    self.propagate(occ.leaf_id, [self._rebound(f, occ, schema) for f in form])
        return touched

    def _rebound(self, rel: Relation, occ: Occurrence, schema: tuple[str, ...]) -> Relation:
        """``rel`` under ``occ``'s variable names, sharing its entries: a
        delta over the update ``schema`` takes the occurrence's own schema,
        and a factor's columns are renamed one by one."""
        renamed = occ.schema
        if rel.schema != schema:
            renamed = tuple(occ.renaming.get(v, v) for v in rel.schema)
        if renamed == rel.schema and rel.counters is self.counters:
            return rel
        out = Relation(renamed, rel.ring, counters=self.counters, name=rel.name)
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
