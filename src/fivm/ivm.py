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
cheap. Each such step is planned once per entry and delta signature by
``relations.plan_sum``, the one planner that picks ``einsum`` or the row
loop for every join-and-sum. Payload totals do not distribute over
factors, so a product under them is expanded once, when it is checked.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional, Sequence

from fivm.queries import RELATIONAL_PAYLOAD, Query, RelationDecl
from fivm.relations import (
    DenseRelation,
    IndicatorState,
    OpCounters,
    Relation,
    RowCode,
    _bare_store,
    indicator_delta,
    plan_shape,
    plan_sum,
    rel_apply_delta,
    rel_marginalize,
)
from fivm.rings import lift_row, relational_total
from fivm.viewtree import INDICATOR, LEAF, ViewNode, ViewTree, flat_lifts

__all__ = [
    "UpdateDelta",
    "FactorizedDelta",
    "RuntimeState",
    "optimize_factorized",
    "factorized_steps",
    "summing",
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


def optimize_factorized(factors: list[Relation], steps: Sequence[tuple]) -> list[Relation]:
    """Sum variables out of a symbolic product one planned step at a time.

    Each step (:func:`factorized_steps`) joins only the factors that
    mention its variable and sums it out; the result takes the place of
    the first of them, and everything else stays untouched. The result is
    again a list of factors whose product equals the marginalized input
    product.
    """
    current = factors
    for take, rest, at, contract in steps:
        acc = contract([current[i] for i in take])
        current = [current[i] for i in rest]
        current.insert(at, acc)
    return current


def factorized_steps(
    operands: list[tuple], marg_vars: Iterable[str], contraction: Callable
) -> tuple[list[tuple], list[tuple]]:
    """The steps :func:`optimize_factorized` takes to sum ``marg_vars``, in
    order, out of a product of factors described by ``operands``, one
    (schema, shape) pair each (``Relation.shape``), and the descriptions of
    the factors left. Each step is (positions of the factors it joins,
    positions of the rest, where its result goes, the callable that joins
    and sums). ``contraction(operands, routes, drop_vars, schema,
    payload_map)`` gives that callable and the description of its output
    (:func:`fivm.relations.plan_sum` with its ring, counters and lifts
    bound)."""
    current = list(operands)
    steps = []
    for var in marg_vars:
        take = [i for i, (s, _) in enumerate(current) if var in s]
        if not take:
            raise ValueError(f"variable {var} appears in no factor")
        rest = [i for i, (s, _) in enumerate(current) if var not in s]
        at = min(take[0], len(rest))
        joined = [current[i] for i in take]
        contract, out = contraction(joined, (None,) * (len(take) - 1), (var,), None, None)
        steps.append((take, rest, at, contract))
        current = [current[i] for i in rest]
        current.insert(at, out)
    return steps, current


def summing(
    lifts: dict, routes: tuple, drop_vars: tuple, schema: tuple[str, ...]
) -> Callable[[list[Relation]], Relation]:
    """The callable that joins relations by ``routes`` and sums
    ``drop_vars`` out by ``lifts`` into ``schema`` in one
    :func:`rel_marginalize` call, which plans the sum at every call."""

    def contract(rels: list[Relation]) -> Relation:
        return rel_marginalize(rels[0], drop_vars, lifts, list(zip(rels[1:], routes)), schema)

    return contract


class RuntimeState:
    """Live storage for one planned view tree.

    Owns the base relations (one copy per occurrence, so self joins update
    slot by slot), the materialized views, and the indicator support
    counts. All owned relations share the one counter block the state
    makes (``counters``), so the cost of loading, maintaining, and
    enumerating is observable per phase.
    """

    def __init__(self, tree: ViewTree, factorized_payloads: Optional[bool] = None):
        self.tree = tree
        self.query: Query = tree.query
        self.ring = tree.query.ring
        self.counters = OpCounters()
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
        # Per schema, what relation() calls to make an empty one (see _maker).
        self._makers: dict[tuple[str, ...], tuple[partial, Optional[tuple[int, ...]]]] = {}
        for d in self.query.relations:
            self.leaves[d.leaf_id] = self.relation(d.schema, d.leaf_id)
        # Per updatable relation name: its occurrences, its update schema
        # and the maker of its merged plain deltas: a plain dict, unless
        # the relation is stored dense.
        self._targets = {}
        for name, occs in self.query.occurrences.items():
            if occs[0].leaf_id in tree.updatable:
                make, shape = self._maker(occs[0].schema)
                self._targets[name] = occs, occs[0].schema, dict if shape is None else make
        # The store loop that merges a batch's plain deltas (see _accumulate).
        self._merge = _bare_store(self.ring)
        # Per delta entry id, its compiled path (see _compile), and the
        # compiled listing walk (see fivm.enumeration.compiled_walk).
        self._paths: dict[str, tuple] = {}
        self.walk: Optional[Any] = None
        self._root: Optional[Relation] = None

    def relation(self, schema: tuple[str, ...], name: str = "") -> Relation:
        """An empty relation over ``schema`` on this state's counters,
        dense when the query declares the ranges of all its variables."""
        return self._maker(schema)[0](name=name)

    def _maker(self, schema: tuple[str, ...]) -> tuple[partial, Optional[tuple[int, ...]]]:
        """What :meth:`relation` calls for ``schema`` and the shape of its
        cells (None for a dict), fixed at the schema's first relation."""
        layout = self._makers.get(schema)
        if layout is None:
            shape = self.query.dense_shape(schema)
            if shape is None:
                make = partial(Relation, schema, self.ring, self.counters)
            else:
                make = partial(DenseRelation, schema, self.ring, shape, self.counters)
            layout = self._makers[schema] = make, shape
        return layout

    def _adopt(self, rel: Relation) -> Relation:
        """``rel`` in the layout :meth:`relation` makes for its variables, on
        this state's counters: itself if it is, sharing its entries if only
        the counters differ, else copied (each of its keys must fit)."""
        make, shape = self._maker(rel.schema)
        if rel.shape != shape:
            copy = make(name=rel.name)
            copy.entries.update(rel.entries.items())
            return copy
        if rel.counters is not self.counters:
            rel = type(rel).of(rel.schema, self.ring, rel.entries, self.counters)
        return rel

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

    def _accumulate(
        self, rel: Relation | dict, name: str, pairs: Iterable[tuple[tuple, Any]]
    ) -> None:
        """Accumulate ``name``'s ``pairs`` into ``rel``, all of them passing
        :meth:`Query.checked` first. A plain dict (a merged delta) takes
        them through the store loop of a relation without indexes, charged
        the same units. When ``rel`` is dense and the check can refuse none
        of its cells (:meth:`Query.checks_cells`), the array's bounds test
        is that check: the pairs go straight to
        :meth:`DenseRelation.scatter`, and only a batch it does not take
        outright is checked and merged row by row."""
        if type(rel) is dict:
            self._merge(rel, self.query.checked(pairs, name), None, self.counters)
            return
        if type(rel) is DenseRelation:
            schema = self.query.occurrences[name][0].schema
            if not self.query.checks_cells(name, schema, rel.shape):
                pairs = tuple(pairs)
                if rel.scatter(pairs):
                    return
        rel.accumulate_all(self.query.checked(pairs, name))

    def initialize(self, leaves: dict[str, Relation]) -> None:
        """Evaluate the tree bottom-up over ``leaves`` and store the flagged
        nodes. Nothing is stored until every node is evaluated, so an error
        leaves the state as it was. A leaf must count on this state's
        counters, the one block a generated climb charges. A stored view
        is kept in the layout :meth:`_adopt` gives it, so a view over ranged
        variables is dense even when its level, lifting a ranged variable
        other than to one, sums by the row loop."""
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
                if node.materialized:
                    rel = views[node.id] = self._adopt(rel)
                rel.name = node.id
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
        first, *rest = [self.stored(r.id) for r in self.tree.roots]
        return rel_marginalize(first, (), {}, [(r, None) for r in rest])

    def _enter(self, entry: ViewNode, form: dict | list[Relation]) -> list[tuple[tuple, int]]:
        """Push a delta that enters at ``entry`` up its compiled path.

        ``form`` has one of two forms. A plain dict, keyed positionally by
        the entry's own keys, runs the path's generated function
        (:meth:`_climb`) directly (a product under payload totals comes
        expanded to one). A list of factors, a plain-payload product or a
        dense delta, runs the plan made for its signature, each factor's
        (schema, shape) (:meth:`_plan`): at every level
        :func:`optimize_factorized` takes the planned steps over the
        level's factors and siblings. Either way every level is computed
        against the state before the delta; only then are the stored
        levels updated, and the entry's own relation last, so an error on
        the way up changes nothing. Returns the support transitions of the
        entry's relation. Only a dict delta can enter at an unstored node
        (an indicator), so a plan always has the entry's relation.
        """
        path = self._paths.get(entry.id)
        if path is None:
            path = self._paths[entry.id] = self._compile(entry)
        climb, stored, levels, plans = path
        if type(form) is dict:
            return climb(form)
        signature = tuple([(f.schema, f.shape) for f in form])
        plan = plans.get(signature)
        if plan is None:
            plan = plans[signature] = self._plan(entry, levels, form)
        planned, expand = plan
        stores = []
        level = form
        for siblings, steps, target, store in planned:
            if any(not f.entries for f in level):
                break
            level = optimize_factorized(level + siblings, steps)
            if target is not None:
                stores.append((target, store, level))
        for target, store, level in stores:
            rel_apply_delta(target, level[0] if store is None else store(level))
        return rel_apply_delta(stored, form[0] if expand is None else expand(form))

    def _compile(self, entry: ViewNode) -> tuple:
        """``entry``'s path compiled against the stored relations: the
        function a dict delta over the entry's keys runs (:meth:`_climb`),
        the entry's stored relation (None when unstored), the levels and
        the plans of other deltas by signature, filled as they come
        (:meth:`_plan`). Per level: the node, its stored relation (None
        when unstored), the (sibling relation, route) pairs it joins and
        the order in which a product-form delta sums out the node's
        variables. A path is compiled at its first delta and dropped,
        plans and all, whenever :meth:`initialize` rebinds the stored
        relations."""
        stored = self.stored(entry.id) if entry.materialized else None
        levels = tuple(
            (step.node, self.stored(step.node.id) if step.node.materialized else None,
             [(self.stored(sib_id), route) for sib_id, route in step.joins], step.inner_first)
            for step in self.tree.delta_paths[entry.id]
        )
        return self._climb(entry, stored, levels), stored, levels, {}

    def _plan(self, entry: ViewNode, levels: tuple, form: list[Relation]) -> tuple:
        """How a delta shaped like ``form`` climbs ``entry``'s ``levels``.

        Per level: the sibling relations, the steps
        :func:`optimize_factorized` takes over the level's factors followed
        by the siblings, the stored relation (None when unstored) and the
        callable that expands the level's factors to the node's keys (None
        when the one factor is over them). Then the entry store's
        expansion. A product sums each variable out of the factors that
        mention it (:func:`factorized_steps`); a single relation joins the
        level's siblings by their routes and sums the node's variables in
        one step. Each step of a product is planned here, once
        (:func:`plan_sum`); a single relation's level, a dense point
        batch's, is one :func:`rel_marginalize` call (:func:`summing`),
        planned per call. No payload is totalled here."""
        contraction = partial(plan_sum, self.ring, self.counters)
        first = operands = [(f.schema, f.shape) for f in form]
        planned = []
        for node, target, joins, inner_first in levels:
            sums = partial(contraction, node.lifts)
            siblings = [r for r, _ in joins]
            current = operands + [(r.schema, r.shape) for r in siblings]
            if len(operands) > 1:
                steps, operands = factorized_steps(current, inner_first, sums)
            else:
                routes = tuple(route for _, route in joins)
                out = sums(current, routes, node.marg_vars, node.keys, None)[1]
                contract = summing(node.lifts, routes, node.marg_vars, node.keys)
                steps = [(range(len(current)), (), 0, contract)]
                operands = [out]
            store = None if target is None else self._expansion(operands, node.keys, sums)
            planned.append((siblings, steps, target, store))
        return planned, self._expansion(first, entry.keys, partial(contraction, {}))

    @staticmethod
    def _expansion(operands: list[tuple], keys: tuple[str, ...], contraction) -> Any:
        """The callable that joins factors described by ``operands`` into one
        relation over ``keys``, or None when the one factor is over them."""
        if len(operands) == 1 and operands[0][0] == keys:
            return None
        return contraction(operands, (None,) * (len(operands) - 1), (), keys, None)[0]

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
        code = RowCode(ring)
        code.consts.update(X=self.payload_xform, ivm=sys.modules[__name__])
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
            lifter = code.const("L", lift_row(ring, lifted)) if lifted else None
            code.level(1, src, dst, (steps, sums, out_pos), lifter, mapped, side, names)
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

    def propagate(self, leaf_id: str, form: dict | list[Relation]) -> None:
        """Push one relation occurrence's delta through the whole tree.

        The occurrence's delta climbs its path first; its support
        transitions then become each fed existence projection's delta, a
        plain dict that climbs its own path against the updated state.
        """
        transitions = self._enter(self.tree.leaf_nodes[leaf_id], form)
        for ind in self.tree.feeds[leaf_id]:
            state = self.indicator_states[ind.id]
            self._enter(ind, indicator_delta(state, transitions, self.counters).entries)

    def apply_batch(self, updates: Iterable[UpdateDelta | FactorizedDelta]) -> int:
        """Apply a batch of updates, one relation at a time in arrival order.

        Plain deltas to the same relation are merged into one delta first, all
        those between two of its factorized deltas checked in one pass
        (:meth:`_accumulate`): into one plain dict, or one dense relation when
        the relation is stored dense. A factorized delta's factors take their
        relations' declared layouts; a lone dict-layout factor or a product
        under payload totals enters as a plain dict (:meth:`_factors`). The
        whole batch is checked (known, updatable targets, key lengths, factor
        coverage, payloads within the ring's degree) before anything
        propagates, so a rejected batch changes no state. Values pass the
        query's entry check (``Query.checked``: declared ranges and lifts) then
        too, so a later join never lifts an unchecked value and the batch
        applies fully or not at all. Each delta then enters each occurrence of
        its relation through :meth:`propagate`: a dict as it is, its keys being
        positional, and any other form renamed for a self join's later
        occurrences (a dense factor stays dense). Nothing else is built around
        the climbs, so a one-pair update costs one checked row and one bare
        store call into a dict besides its path.
        Returns the entries climbed: a plain delta's merged keys, a product's
        factor entries, or a product under payload totals its expansion's."""
        by_name: dict[str, list[UpdateDelta | FactorizedDelta]] = {}
        for u in updates:
            by_name.setdefault(u.target, []).append(u)
        batch: list[tuple[tuple[RelationDecl, ...], tuple[str, ...], list]] = []
        for name, items in by_name.items():
            target = self._targets.get(name)
            if target is None:
                if name in self.query.occurrences:
                    raise ValueError(f"relation {name} is not updatable in this plan")
                raise ValueError(f"update for unknown relation {name}")
            occurrences, schema, make = target
            merged: Optional[Relation | dict] = None
            units: list[dict | list[Relation]] = []
            pending: list[tuple] = []
            for u in items:
                if isinstance(u, UpdateDelta):
                    if merged is None:
                        merged = make()
                        units.append(merged if type(merged) is dict else [merged])
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
                if type(form) is dict:
                    if form:
                        touched += len(form)
                        for occ in occurrences:
                            self.propagate(occ.leaf_id, form)
                    continue
                sizes = [len(f.entries) for f in form]
                if 0 in sizes:
                    continue
                touched += sum(sizes)
                for occ in occurrences:
                    # Each occurrence binds the relation's columns to its
                    # own variables, so a product entering another
                    # occurrence than the first is renamed, sharing entries.
                    self.propagate(occ.leaf_id, form if occ.schema == schema else [
                        type(f).of(tuple([occ.renaming[v] for v in f.schema]),
                                   self.ring, f.entries, self.counters)
                        for f in form
                    ])
        return touched

    def _factors(
        self, name: str, schema: tuple[str, ...], factors: tuple[Relation, ...]
    ) -> dict | list[Relation]:
        """A factorized delta's ``factors``, checked: each factor's rows
        pass ``Query.checked`` (a dense factor whose cells it cannot refuse
        skips it) and the factors together cover ``schema``, each in the
        layout :meth:`relation` makes for its variables, on this state's
        counters (:meth:`_adopt`), so every operand a plan sees has its
        declared layout. A single factor in a dict layout comes back as a
        plain dict keyed in ``schema``'s column order, the form of a merged
        plain delta, so it climbs by the path's generated function; so does
        a product under payload totals, which do not distribute over
        factors, expanded by one :func:`rel_marginalize` call."""
        covered: set[str] = set()
        checked = []
        for f in factors:
            covered.update(f.schema)
            if not isinstance(f, DenseRelation) or self.query.checks_cells(name, f.schema, f.shape):
                self.query.checked(f.entries.items(), name, f.schema)
            # the check has put every nonzero cell in range
            checked.append(self._adopt(f))
        if covered != set(schema):
            raise ValueError(f"factors cover {sorted(covered)}, not schema {schema}")
        if len(checked) > 1 and self.payload_xform is not None:
            first, *rest = checked
            return rel_marginalize(first, (), {}, [(f, None) for f in rest], schema).entries
        if len(checked) != 1 or type(checked[0]) is not Relation:
            return checked
        f = checked[0]
        if f.schema == schema:
            return f.entries
        # a permutation moves two columns or more, so pick gives tuples
        pick = itemgetter(*[f.schema.index(v) for v in schema])
        return {pick(k): v for k, v in f.entries.items()}

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
