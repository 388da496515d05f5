"""Incremental maintenance of a view tree under inserts and deletes.

The runtime holds the base relations, the stored views picked by the
planner, and the support counts behind existence projections. An update to
one relation turns into a delta that climbs the tree: at every level it
joins the pre-update state of the sibling views, sums out the level's
variables, and moves up; once the whole path is computed, the changes are
applied. Existence projections are refreshed afterwards from the support
transitions of their source, each one propagating its (usually tiny) delta
the same way against the then-current state.

Updates that arrive as products of independent factors are propagated
without expanding the product: each variable is summed out by joining only
the factors that mention it, which is what makes low-rank matrix updates
cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from fivm.queries import GROUP_BY, RELATIONAL_PAYLOAD, Occurrence, Query
from fivm.relations import (
    IndicatorState,
    OpCounters,
    Relation,
    indicator_delta,
    indicator_project,
    rel_apply_delta,
    rel_join,
    rel_marginalize,
)
from fivm.rings import lift_to_one, lift_unit, relational_total
from fivm.viewtree import INDICATOR, LEAF, VIEW, ViewNode, ViewTree, delta_join_order

__all__ = [
    "UpdateDelta",
    "FactorizedDelta",
    "DeltaStep",
    "DeltaPlan",
    "RuntimeState",
    "delta_view_tree",
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


@dataclass(frozen=True)
class DeltaStep:
    """One level of a propagation path: join the delta coming through
    ``via_id`` with the listed (sibling id, ``rel_join`` right_index) pairs,
    then sum out ``marg_vars`` (``inner_first`` when factorized)."""

    parent_id: str
    via_id: str
    joins: tuple[tuple[str, Any], ...]
    marg_vars: tuple[str, ...]
    inner_first: tuple[str, ...]
    lifts: dict
    keys: tuple[str, ...]


@dataclass(frozen=True)
class DeltaPlan:
    """The bottom-up propagation path from one entry node to its root."""

    entry_id: str
    steps: tuple[DeltaStep, ...]


def delta_view_tree(tree: ViewTree, entry_id: str) -> DeltaPlan:
    """Plan the propagation path for deltas entering at ``entry_id``."""
    node = tree.by_id[entry_id]
    steps: list[DeltaStep] = []
    while node.parent is not None:
        parent = node.parent
        # A sibling is probed through its entry store or a planned index,
        # or scanned when it shares no variable with the delta.
        joins = tuple(
            (sib_id, {"primary": "primary", "index": (probe, None)}.get(mode))
            for sib_id, mode, probe in delta_join_order(parent, node)
        )
        steps.append(
            DeltaStep(
                parent_id=parent.id,
                via_id=node.id,
                joins=joins,
                marg_vars=parent.marg_vars,
                inner_first=tuple(
                    sorted(parent.marg_vars, key=tree.order.index, reverse=True)
                ),
                lifts=parent.lifts,
                keys=parent.keys,
            )
        )
        node = parent
    return DeltaPlan(entry_id, tuple(steps))


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
        acc = touching[0]
        for f in touching[1:]:
            acc = rel_join(acc, f)
        acc = rel_marginalize(acc, (var,), lifts)
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
        # Deltas enter at leaves and existence projections.
        self._plans: dict[str, DeltaPlan] = {
            n.id: delta_view_tree(tree, n.id) for n in tree.nodes if n.kind != VIEW
        }
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
            self.leaves[d.leaf_id] = Relation(
                d.schema, self.ring, counters=self.counters, name=d.leaf_id
            )

    def load(self, data: dict[str, Iterable[tuple[tuple, Any]]]) -> None:
        """Fill the base relations and evaluate every view bottom-up.

        ``data`` maps relation names to (key, payload) pairs; a name used
        by several occurrences loads each occurrence's copy. Data for an
        unknown relation or a key of the wrong length is rejected before
        any state changes.
        """
        unknown = set(data) - self.query.occurrences.keys()
        if unknown:
            raise ValueError(f"data for unknown relations: {sorted(unknown)}")
        # Fill fresh copies and swap them in only once every key has been
        # checked, so rejected data leaves the loaded state as it was.
        fresh: dict[str, Relation] = {}
        for d in self.query.relations:
            rel = Relation(d.schema, self.ring, counters=self.counters, name=d.leaf_id)
            arity = len(d.schema)
            for key, val in data.get(d.name, ()):
                if len(key) != arity:
                    raise ValueError(f"key {key!r} does not match {d.name}{d.schema}")
                rel.accumulate(tuple(key), val)
            fresh[d.leaf_id] = rel
        self.leaves.update(fresh)
        self.initialize()

    def initialize(self) -> None:
        """Evaluate the tree bottom-up and store the flagged nodes."""
        self.views.clear()
        self.indicator_rels.clear()
        self.indicator_states.clear()
        values: dict[str, Relation] = {}
        for node in self.tree.nodes:
            if node.kind == LEAF:
                rel = self.leaves[node.leaf_id]
            elif node.kind == INDICATOR:
                state, rel = indicator_project(
                    self.leaves[node.source], node.keys, name=node.id
                )
                self.indicator_states[node.id] = state
                if node.materialized:
                    self.indicator_rels[node.id] = rel
            else:
                rel = self._evaluate_view(node, values)
                if node.materialized:
                    self.views[node.id] = rel
            values[node.id] = rel
            if node.materialized:
                for probe, group in node.required_indices:
                    rel.ensure_index(probe, group)

    def _evaluate_view(self, node: ViewNode, values: dict[str, Relation]) -> Relation:
        ops = [values[c.id] for c in node.children]
        acc = self._xformed(ops[0]) if self.payload_xform else ops[0].clone(self.counters)
        acc.name = node.id
        for rel in ops[1:]:
            acc = rel_join(acc, rel, right_map=self.payload_xform)
        if node.marg_vars:
            acc = rel_marginalize(acc, node.marg_vars, node.lifts)
        return self._reorder(acc, node.keys, name=node.id)

    def _xformed(self, rel: Relation) -> Relation:
        out = Relation(rel.schema, rel.ring, counters=self.counters, name=rel.name)
        for key, val in rel.items():
            out.accumulate(key, self.payload_xform(val))
        return out

    def _reorder(self, rel: Relation, schema: tuple[str, ...], name: str = "") -> Relation:
        if rel.schema == schema:
            if name:
                rel.name = name
            return rel
        pos = [rel.schema.index(v) for v in schema]
        out = Relation(schema, rel.ring, counters=self.counters, name=name or rel.name)
        for key, val in rel.items():
            out.accumulate(tuple(key[i] for i in pos), val)
        return out

    def stored(self, node_id: str) -> Relation:
        node = self.tree.by_id[node_id]
        if node.kind == LEAF:
            return self.leaves[node.leaf_id]
        if node.kind == INDICATOR:
            return self.indicator_rels[node_id]
        return self.views[node_id]

    def result(self) -> Relation:
        """The maintained query result (joining roots if there are several)."""
        roots = self.tree.roots
        acc = self.stored(roots[0].id)
        for r in roots[1:]:
            acc = rel_join(acc, self.stored(r.id))
        return acc

    @property
    def result_schema(self) -> tuple[str, ...]:
        out: list[str] = []
        for r in self.tree.roots:
            out.extend(v for v in r.keys if v not in out)
        return tuple(out)

    def _expand(self, form: list[Relation]) -> Relation:
        acc = form[0]
        for f in form[1:]:
            acc = rel_join(acc, f)
        return acc

    def _delta_step(self, step: DeltaStep, form: list[Relation]) -> list[Relation]:
        if self.payload_xform:
            form = [self._xformed(self._expand(form))]
        if len(form) == 1:
            acc = form[0]
            for sib_id, idx in step.joins:
                acc = rel_join(
                    acc, self.stored(sib_id), right_index=idx, right_map=self.payload_xform
                )
            if step.marg_vars:
                acc = rel_marginalize(acc, step.marg_vars, step.lifts)
            return [self._reorder(acc, step.keys)]
        operands = form + [self.stored(sib_id) for sib_id, _ in step.joins]
        return optimize_factorized(operands, step.inner_first, step.lifts)

    def _propagate_form(
        self, entry_id: str, form: list[Relation]
    ) -> list[tuple[str, list[Relation]]]:
        """Compute the delta at every level above the entry, pre-state."""
        path: list[tuple[str, list[Relation]]] = []
        for step in self._plans[entry_id].steps:
            if any(not f.entries for f in form):
                break
            form = self._delta_step(step, form)
            path.append((step.parent_id, form))
        return path

    def _apply_path(self, path: list[tuple[str, list[Relation]]]) -> None:
        for node_id, form in path:
            node = self.tree.by_id[node_id]
            if not node.materialized:
                continue
            delta = self._reorder(self._expand(form), node.keys)
            rel_apply_delta(self.stored(node_id), delta)

    def propagate(self, leaf_id: str, form: list[Relation]) -> None:
        """Push one relation occurrence's delta through the whole tree.

        The main path is computed against pre-update state and applied,
        the occurrence's stored copy last; then each existence projection
        fed by this occurrence folds in the support transitions and its
        own delta climbs the tree against the current state.
        """
        leaf_node = self.tree.leaf_nodes[leaf_id]
        path = self._propagate_form(leaf_node.id, form)
        self._apply_path(path)
        delta_rel = self._reorder(self._expand(form), leaf_node.keys)
        transitions = rel_apply_delta(self.leaves[leaf_id], delta_rel)
        for ind in self.tree.indicator_nodes:
            if ind.source != leaf_id:
                continue
            d_ind = indicator_delta(
                self.indicator_states[ind.id], transitions, counters=self.counters
            )
            if not d_ind.entries:
                continue
            d_ind = self._reorder(d_ind, ind.keys)
            ind_path = self._propagate_form(ind.id, [d_ind])
            self._apply_path(ind_path)
            if ind.materialized:
                rel_apply_delta(self.indicator_rels[ind.id], d_ind)

    def apply_batch(self, updates: Iterable[UpdateDelta | FactorizedDelta]) -> int:
        """Apply a batch of updates, one relation at a time in arrival order.

        Plain deltas to the same relation are merged first; factorized
        deltas keep their product form. The whole batch is checked (known,
        updatable targets, key lengths, factor coverage) before anything
        propagates, so a rejected batch changes no state. Returns the
        number of key-level changes processed.
        """
        by_name: dict[str, list[UpdateDelta | FactorizedDelta]] = {}
        for u in updates:
            by_name.setdefault(u.target, []).append(u)
        batch: list[tuple[tuple[Occurrence, ...], list[list[Relation]]]] = []
        for name, items in by_name.items():
            occurrences = self.query.occurrences.get(name)
            if occurrences is None:
                raise ValueError(f"update for unknown relation {name}")
            if occurrences[0].leaf_id not in self.tree.updatable:
                raise ValueError(f"relation {name} is not updatable in this plan")
            schema = occurrences[0].schema
            arity = len(schema)
            merged: Optional[Relation] = None
            units: list[list[Relation]] = []
            for u in items:
                if isinstance(u, UpdateDelta):
                    if merged is None:
                        merged = Relation(schema, self.ring, counters=self.counters)
                        units.append([merged])
                    for key, val in u.pairs:
                        if len(key) != arity:
                            raise ValueError(f"key {key!r} does not match {name}{schema}")
                        merged.accumulate(tuple(key), val)
                else:
                    covered: set[str] = set()
                    for f in u.factors:
                        covered |= set(f.schema)
                    if covered != set(schema):
                        raise ValueError(
                            f"factors cover {sorted(covered)}, not schema {schema}"
                        )
                    units.append(list(u.factors))
            batch.append((occurrences, units))
        touched = 0
        for occurrences, units in batch:
            for form in units:
                if any(not f.entries for f in form):
                    continue
                touched += sum(len(f.entries) for f in form)
                for occ in occurrences:
                    # Each occurrence binds the relation's columns to its
                    # own variables, so the delta's schema is renamed
                    # positionally before it enters that occurrence's path.
                    self.propagate(occ.leaf_id, [self._rebound(f, occ.renaming) for f in form])
        return touched

    def _rebound(self, rel: Relation, mapping: dict[str, str]) -> Relation:
        out = Relation(
            tuple(mapping.get(v, v) for v in rel.schema),
            rel.ring,
            counters=self.counters,
            name=rel.name,
        )
        out.entries = dict(rel.entries)
        return out

    def recompute_oracle(self) -> Relation:
        """Recompute the result from the current base relations only."""
        return recompute_query(
            self.query, self.leaves, self.result_schema, counters=self.counters
        )


def recompute_query(
    query: Query,
    leaves: dict[str, Relation],
    result_schema: tuple[str, ...],
    counters: Optional[OpCounters] = None,
) -> Relation:
    """Join every occurrence and sum out everything off the result schema.

    Bound variables use the query's lifting functions; free variables that
    the result schema nests into payloads fold to one (or to a unit payload
    under relational output). Works from the base relations alone, so it
    checks a maintained result without trusting any stored view.
    """
    decls = query.relations
    acc: Optional[Relation] = None
    for d in decls:
        rel = leaves[d.leaf_id]
        if acc is None:
            acc = rel.clone(counters=counters)
        else:
            acc = rel_join(acc, rel)
    assert acc is not None
    drop = tuple(v for v in acc.schema if v not in set(result_schema))
    if drop:
        lifts = dict(query.lifts)
        for v in drop:
            if v in lifts:
                continue
            if query.free_lift_mode == GROUP_BY:
                lifts[v] = lift_to_one(v)
            else:
                lifts[v] = lift_unit(v)
        acc = rel_marginalize(acc, drop, lifts)
    if acc.schema != result_schema:
        pos = [acc.schema.index(v) for v in result_schema]
        out = Relation(result_schema, acc.ring, counters=counters)
        for key, val in acc.items():
            out.accumulate(tuple(key[i] for i in pos), val)
        return out
    return acc

