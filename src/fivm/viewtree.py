"""View trees: the materialization plans behind maintained queries.

A variable order turns a join-aggregate query into a tree of views. Each
view joins its children and, unless its variable stays in the output, sums
that variable out through its lifting function. Leaves are the input
relation occurrences. Two constructions live here: the general one that
keys every view by its dependency set plus the free variables below it,
and the output-oriented one for free-top orders, which keeps each free
variable enumerable from a dedicated hub view. A third, flat plan joins
every occurrence in one stored view: first-order maintenance.

On top of the raw construction this module places existence projections of
absent relations onto cyclic cores (so joins like the triangle stay
bounded), decides which views are worth storing given the updatable
relations, compacts marginalization chains and identity wrappers, and
plans the delta path of every updatable relation and the listing plan
that enumeration runs, together with the secondary indexes both probe.

Before storage is chosen, static siblings are folded: when a view has a
child that updates and two or more children with no updatable relation
and no free variable below them, one of them keyed by all their keys,
those children move under one join-only view keyed by the union of their
keys. Their product never changes after
load, so it is computed once and stored, and a delta arriving at the view
joins that one product instead of each static child in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from fivm.queries import (
    GROUP_BY,
    OrderBinding,
    Query,
    VariableOrder,
    gyo_reduce,
    infer_dep,
)
from fivm.rings import LiftingFunction, lift_singleton, lift_to_one, lift_unit

__all__ = [
    "DeltaStep",
    "ViewNode",
    "ViewTree",
    "build_view_tree",
    "build_free_connex_tree",
    "add_indicator_projections",
    "choose_materialization",
    "compact_and_dedupe",
    "fold_static_siblings",
    "flat_lifts",
    "payload_covers",
    "plan_delta_paths",
    "plan_flat_tree",
    "plan_listing",
    "plan_view_tree",
    "delta_join_order",
]

LEAF = "leaf"
VIEW = "view"
INDICATOR = "indicator"


class ViewNode:
    """One node of a view tree.

    A ``leaf`` stands for an input relation occurrence. A ``view`` joins
    its children and sums out ``marg_vars`` (empty for join-only views),
    leaving ``keys`` as its schema. An ``indicator`` is the existence
    projection of some relation occurrence onto ``keys``; it joins into its
    parent like any other child but is maintained from support transitions
    of its source.
    """

    __slots__ = (
        "id",
        "kind",
        "at_variable",
        "keys",
        "marg_vars",
        "lifts",
        "children",
        "rels_under",
        "vars_under",
        "materialized",
        "required_indices",
        "leaf_id",
        "source",
        "parent",
    )

    def __init__(
        self,
        id: str,
        kind: str,
        keys: tuple[str, ...],
        at_variable: Optional[str] = None,
        marg_vars: tuple[str, ...] = (),
        lifts: Optional[dict[str, LiftingFunction]] = None,
        children: Optional[list["ViewNode"]] = None,
        leaf_id: Optional[str] = None,
        source: Optional[str] = None,
    ):
        self.id = id
        self.kind = kind
        self.at_variable = at_variable
        self.keys = keys
        self.marg_vars = marg_vars
        self.lifts = lifts or {}
        self.children = children or []
        self.rels_under: frozenset[str] = frozenset()
        self.vars_under: frozenset[str] = frozenset()
        self.materialized = False
        self.required_indices: list[tuple[tuple[str, ...], Optional[str]]] = []
        self.leaf_id = leaf_id
        self.source = source
        self.parent: Optional[ViewNode] = None

    def __repr__(self) -> str:
        return f"<{self.kind} {self.id}[{','.join(self.keys)}]>"


@dataclass(frozen=True)
class DeltaStep:
    """One level of a delta path: a delta arriving at ``node`` through its
    child ``via_id`` joins the listed (sibling id, ``rel_marginalize``
    route) pairs, then sums out ``node.marg_vars``, innermost variable
    first (``inner_first``) when the delta is a product of factors."""

    node: ViewNode
    via_id: str
    joins: tuple[tuple[str, Any], ...]
    inner_first: tuple[str, ...]


class ViewTree:
    """A finished view tree plus the bookkeeping the runtime needs."""

    def __init__(self, query: Query, order: VariableOrder, mode: str):
        self.query = query
        self.order = order
        self.mode = mode
        self.roots: list[ViewNode] = []
        self.nodes: list[ViewNode] = []
        self.by_id: dict[str, ViewNode] = {}
        self.leaf_nodes: dict[str, ViewNode] = {}
        self.indicator_nodes: list[ViewNode] = []
        self.enum_views: dict[str, str] = {}
        # Set by plan_listing: a (variable, view id, probe vars) step per
        # walked free variable (none when the root is scanned instead), and
        # the roots' payload_covers grouped by the listing step that binds
        # the last of their keys (the first step when none does; one group
        # when the root is scanned).
        self.listing_steps: tuple[tuple[str, str, tuple[str, ...]], ...] = ()
        self.listing_covers: tuple[tuple[ViewNode, ...], ...] = ()
        # Set by plan_delta_paths: the delta path of every node a delta enters
        # at (updatable leaves and the indicators they feed), bottom-up, and
        # per updatable leaf id the indicators its support transitions feed.
        self.delta_paths: dict[str, tuple[DeltaStep, ...]] = {}
        self.feeds: dict[str, tuple[ViewNode, ...]] = {}
        self.updatable: frozenset[str] = frozenset()
        self._ids: set[str] = set()

    @property
    def result_schema(self) -> tuple[str, ...]:
        """The result's variables: every root's keys, each once, in root order."""
        return tuple(dict.fromkeys(v for r in self.roots for v in r.keys))

    def claim_id(self, base: str) -> str:
        if base not in self._ids:
            self._ids.add(base)
            return base
        n = 2
        while f"{base}~{n}" in self._ids:
            n += 1
        name = f"{base}~{n}"
        self._ids.add(name)
        return name

    def finalize(self) -> None:
        """Recompute traversal order, parents, and per-node summaries."""
        self.nodes = []
        self.by_id = {}
        self.leaf_nodes = {}
        self.indicator_nodes = []

        def visit(node: ViewNode, parent: Optional[ViewNode]) -> None:
            node.parent = parent
            for c in node.children:
                visit(c, node)
            under: set[str] = set()
            vars_under: set[str] = set(node.keys) | set(node.marg_vars)
            if node.kind == LEAF:
                under.add(node.leaf_id)
            elif node.kind == INDICATOR:
                under.add(node.source)
            for c in node.children:
                under |= c.rels_under
                vars_under |= c.vars_under
            node.rels_under = frozenset(under)
            node.vars_under = frozenset(vars_under)
            self.nodes.append(node)
            self.by_id[node.id] = node
            if node.kind == LEAF:
                self.leaf_nodes[node.leaf_id] = node
            elif node.kind == INDICATOR:
                self.indicator_nodes.append(node)

        for r in self.roots:
            visit(r, None)

    def dump(self) -> str:
        """One line per node, definition last, bottom-up; a node stored
        as one array ends in its shape."""
        lines: list[str] = []
        for node in self.nodes:
            flag = "*" if node.materialized else " "
            keys = ",".join(node.keys)
            if node.kind == LEAF:
                line = f"{flag} {node.id}[{keys}] input"
            elif node.kind == INDICATOR:
                line = f"{flag} {node.id} exists({node.source})"
            else:
                body = " * ".join(c.id for c in node.children)
                if node.marg_vars:
                    agg = "sum_{" + ",".join(node.marg_vars) + "} "
                else:
                    agg = ""
                line = f"{flag} {node.id}[{keys}] = {agg}{body}"
            dense = node.materialized and node.kind != INDICATOR
            if dense and (shape := self.query.dense_shape(node.keys)):
                line += f"  dense {'x'.join(map(str, shape))}"
            lines.append(line)
        return "\n".join(lines)


def _leaves_at(query: Query, binding: OrderBinding) -> dict[str, list[str]]:
    at: dict[str, list[str]] = {}
    for d in query.relations:
        at.setdefault(binding.leaf_parent[d.leaf_id], []).append(d.leaf_id)
    return at


def _leaf_node(tree: ViewTree, query: Query, leaf_id: str) -> ViewNode:
    decl = query.decl(leaf_id)
    return ViewNode(
        tree.claim_id(leaf_id),
        LEAF,
        keys=decl.schema,
        leaf_id=leaf_id,
    )


def _bound_lift(query: Query, var: str) -> LiftingFunction:
    f = query.lifts.get(var)
    if f is None:
        raise ValueError(f"no lifting function for aggregated variable {var}")
    return f


def _free_lift(query: Query, var: str) -> LiftingFunction:
    if query.free_lift_mode == GROUP_BY:
        return lift_to_one(var)
    return lift_singleton(var)


def _view_id(tree: ViewTree, prefix: str, var: Optional[str], nodes: Iterable[ViewNode]) -> str:
    """A fresh id naming the view at ``var`` over ``nodes``' relations."""
    tag = "+".join(sorted(_rels_below(*nodes)))
    at = var if var is not None else "top"
    return tree.claim_id(f"{prefix}@{at}({tag})")


def _rels_below(*nodes: ViewNode) -> set[str]:
    """The relation occurrences at or below ``nodes``."""
    below = {n.leaf_id for n in nodes if n.kind == LEAF}
    return below.union(*(_rels_below(*n.children) for n in nodes))


def build_view_tree(query: Query, order: VariableOrder) -> ViewTree:
    """Build the general view tree for ``query`` along ``order``.

    Every variable gets one view: it joins the views of its child variables
    together with the relations hanging off it. A variable outside the
    output set is summed out on the spot; output variables stay in the
    keys, which always consist of the variable's dependency set plus the
    output variables of its subtree.
    """
    binding = infer_dep(query, order)
    tree = ViewTree(query, order, mode="tau")
    leaves_at = _leaves_at(query, binding)
    free = set(query.free)

    def build(x: str) -> ViewNode:
        children: list[ViewNode] = [build(c) for c in order.children[x]]
        for leaf_id in leaves_at.get(x, ()):
            children.append(_leaf_node(tree, query, leaf_id))
        sub_free = tuple(v for v in order.subtree(x) if v in free)
        keys = order.sort_vars(set(binding.dep[x]) | set(sub_free))
        if x in free:
            marg: tuple[str, ...] = ()
            lifts: dict[str, LiftingFunction] = {}
        else:
            marg = (x,)
            lifts = {x: _bound_lift(query, x)}
        joined = set()
        for c in children:
            joined |= set(c.keys)
        if joined != set(keys) | set(marg):
            raise ValueError(
                f"view at {x} joins schema {sorted(joined)} but needs {sorted(set(keys) | set(marg))}"
            )
        node = ViewNode(
            _view_id(tree, "V", x, children),
            VIEW,
            keys=keys,
            at_variable=x,
            marg_vars=marg,
            lifts=lifts,
            children=children,
        )
        return node

    tree.roots = [build(r) for r in order.roots]
    tree.finalize()
    return tree


def build_free_connex_tree(query: Query, order: VariableOrder) -> ViewTree:
    """Build the output-oriented view tree for a free-top order.

    Free variables must sit above bound ones on every path. Each variable
    with several children gets a join-only hub keyed by the variable and
    its dependencies; the hub (or the single child) is what result
    enumeration walks for that variable. A variable with a sibling is then
    summed away into a narrower view so the parent join stays small; free
    variables summed this way enter the payload (ring one under plain
    grouping, a singleton map under relational payloads). Bound variables
    that survive their own level because no sibling forced a view are swept
    up by the nearest enclosing view, or by a final wrapper at the root.
    """
    binding = infer_dep(query, order)
    if not order.is_free_top(query.free):
        raise ValueError("order is not free-top: some free variable sits below a bound one")
    tree = ViewTree(query, order, mode="nu")
    leaves_at = _leaves_at(query, binding)
    free = set(query.free)
    bound = set(query.variables) - free

    def wrap(child: ViewNode, x: str) -> ViewNode:
        """Sum x (plus any leftover bound descendants) out of ``child``."""
        in_subtree = set(order.subtree(x))
        leftovers = order.sort_vars(
            v for v in child.keys if v != x and v in bound and v in in_subtree
        )
        node = child
        if leftovers and x in free:
            # Sweep the bound leftovers below a separate view first, so that
            # the listing's covers can stop at an all-free view instead of
            # descending past the sum over the bound variables.
            node = ViewNode(
                _view_id(tree, "B", x, [child]),
                VIEW,
                keys=order.sort_vars(
                    v for v in child.keys if v not in set(leftovers)
                ),
                at_variable=x,
                marg_vars=leftovers,
                lifts={v: _bound_lift(query, v) for v in leftovers},
                children=[child],
            )
            if tree.enum_views.get(x) == child.id:
                tree.enum_views[x] = node.id
            leftovers = ()
        marg = order.sort_vars((x,) + tuple(leftovers))
        lifts = {}
        for v in marg:
            lifts[v] = _free_lift(query, v) if v in free else _bound_lift(query, v)
        keys = tuple(v for v in node.keys if v not in set(marg))
        return ViewNode(
            _view_id(tree, "V", x, [node]),
            VIEW,
            keys=order.sort_vars(keys),
            at_variable=x,
            marg_vars=marg,
            lifts=lifts,
            children=[node],
        )

    def build(x: str, has_sibling: bool) -> ViewNode:
        var_kids = order.children[x]
        leaf_ids = leaves_at.get(x, ())
        k = len(var_kids) + len(leaf_ids)
        children: list[ViewNode] = [build(c, k >= 2) for c in var_kids]
        for leaf_id in leaf_ids:
            children.append(_leaf_node(tree, query, leaf_id))
        if k >= 2:
            joined: set[str] = set()
            for c in children:
                joined |= set(c.keys)
            if x not in joined:
                raise ValueError(f"hub at {x} lost its own variable: {sorted(joined)}")
            hub = ViewNode(
                _view_id(tree, "H", x, children),
                VIEW,
                keys=order.sort_vars(joined),
                at_variable=x,
                children=children,
            )
            if x in free:
                tree.enum_views[x] = hub.id
            return wrap(hub, x) if has_sibling else hub
        single = children[0]
        if x in free:
            tree.enum_views[x] = single.id
        if x not in set(single.keys):
            raise ValueError(f"variable {x} missing from its only child {single.id}")
        return wrap(single, x) if has_sibling else single

    roots: list[ViewNode] = []
    for r in order.roots:
        top = build(r, has_sibling=False)
        leftover = order.sort_vars(v for v in top.keys if v in bound)
        if leftover:
            lifts = {v: _bound_lift(query, v) for v in leftover}
            top = ViewNode(
                _view_id(tree, "V", None, [top]),
                VIEW,
                keys=tuple(v for v in top.keys if v not in set(leftover)),
                marg_vars=leftover,
                lifts=lifts,
                children=[top],
            )
        roots.append(top)
    tree.roots = roots
    tree.finalize()
    return tree


def add_indicator_projections(tree: ViewTree) -> ViewTree:
    """Attach existence projections where a view would otherwise blow up.

    For each view, every relation occurrence outside the view's subtree
    whose schema meets the view's keys is a candidate constraint. The
    candidates' key sets plus the subtree relations' schemas form a
    hypergraph; candidates surviving its reduction sit on a cyclic core, so
    their existence projections join into the view to filter it. Reducible
    candidates are dropped as redundant.
    """
    query = tree.query
    all_decls = list(query.relations)

    def visit(node: ViewNode) -> None:
        for c in list(node.children):
            visit(c)
        if node.kind != VIEW:
            return
        rels = _rels_below(node)
        candidates: list[tuple[str, tuple[str, ...]]] = []
        for d in all_decls:
            if d.leaf_id in rels:
                continue
            pk = tuple(v for v in d.schema if v in set(node.keys))
            if pk:
                candidates.append((d.leaf_id, pk))
        if not candidates:
            return
        edges = [(lid, pk, "indicator") for lid, pk in candidates]
        for d in all_decls:
            if d.leaf_id in rels:
                edges.append((d.leaf_id, d.schema, "rel"))
        residual = gyo_reduce(edges)
        survivors = {eid for eid, _, tag in residual if tag == "indicator"}
        for lid, pk in candidates:
            if lid not in survivors:
                continue
            keys = tree.order.sort_vars(pk)
            node.children.append(
                ViewNode(
                    tree.claim_id(f"exists({lid})[{','.join(keys)}]"),
                    INDICATOR,
                    keys=keys,
                    source=lid,
                )
            )

    for r in tree.roots:
        visit(r)
    tree.finalize()
    return tree


def _updatable_ids(query: Query, updatable: Iterable[str]) -> frozenset[str]:
    names = set(updatable)
    return frozenset(d.leaf_id for d in query.relations if d.name in names)


def fold_static_siblings(tree: ViewTree, updatable: Iterable[str]) -> ViewTree:
    """Join each view's static children into one view, computed at load.

    A child is static when no updatable relation (nor an indicator of one)
    and no free variable lies below it: no delta ever reaches it and no
    listing reads inside it. A view with an updating child and two or more
    static ones gets them replaced, at the first one's place, by a
    join-only view keyed by the union of their keys (not the parent's: a
    root keyed by nothing still joins its static children on theirs).
    They fold only when one of them is keyed by that whole union: each of
    its entries then meets at most one entry of every other, so the stored
    product is no larger than that child, where children keyed apart
    (say by A,B and A,C) could multiply out.
    """
    ids = _updatable_ids(tree.query, updatable)
    free = frozenset(tree.query.free)
    for node in tree.nodes:
        if node.kind != VIEW or not any(c.rels_under & ids for c in node.children):
            continue
        static = [c for c in node.children if not (c.rels_under & ids or c.vars_under & free)]
        keys = set().union(*(c.keys for c in static))
        if len(static) < 2 or all(set(c.keys) != keys for c in static):
            continue
        fold = ViewNode(
            _view_id(tree, "F", node.at_variable, static),
            VIEW,
            keys=tree.order.sort_vars(keys),
            at_variable=node.at_variable,
            children=static,
        )
        at = node.children.index(static[0])
        node.children = [c for c in node.children if c not in static]
        node.children.insert(at, fold)
    tree.finalize()
    return tree


def choose_materialization(tree: ViewTree, updatable: Iterable[str]) -> ViewTree:
    """Flag the views worth storing for the given updatable relations.

    Roots and leaves are always kept. Any other child view is kept exactly
    when some sibling's subtree contains an updatable relation, because a
    delta arriving through that sibling joins against it. A view made by
    ``fold_static_siblings`` is such a child, so it is stored while the
    static views under it, with no updating sibling, are not. In an
    output-oriented tree the views that result enumeration touches are
    kept as well.
    """
    names = set(updatable)
    unknown = names - tree.query.occurrences.keys()
    if unknown:
        raise ValueError(f"updatable relations {sorted(unknown)} are not in the query")
    ids = _updatable_ids(tree.query, names)
    tree.updatable = ids

    for node in tree.nodes:
        node.materialized = node.kind == LEAF
    for r in tree.roots:
        r.materialized = True
    for node in tree.nodes:
        if node.kind != VIEW:
            continue
        for i, c in enumerate(node.children):
            if c.kind == LEAF:
                continue
            if any(
                j != i and sib.rels_under & ids for j, sib in enumerate(node.children)
            ):
                c.materialized = True

    if tree.mode == "nu" and tree.query.free:
        free = frozenset(tree.query.free)
        if len(tree.roots) == 1 and free <= set(tree.roots[0].keys):
            # The root already lists every result tuple by key; walking
            # per-variable listing views would only duplicate it (and force
            # storage of wide intermediates), so drop them.
            tree.enum_views = {}
            return tree

        for r in tree.roots:
            for node in payload_covers(r, free):
                node.materialized = True
        for node_id in tree.enum_views.values():
            tree.by_id[node_id].materialized = True
    return tree


def compact_and_dedupe(tree: ViewTree) -> ViewTree:
    """Collapse marginalization chains and identity wrappers.

    An unstored view that is the only child of another view is inlined
    into its parent: the parent sums out both variable sets over the
    grandchildren at once. A join-only view whose keys match its only
    child's schema adds nothing; it disappears, passing its storage flag
    down (such wrappers only occur in general trees, which list from the
    root). Views kept for enumeration are never inlined.
    """
    protected = set(tree.enum_views.values())

    def compact(node: ViewNode) -> ViewNode:
        node.children = [compact(c) for c in node.children]
        while (
            node.kind == VIEW
            and len(node.children) == 1
            and node.children[0].kind == VIEW
            and not node.children[0].materialized
            and node.children[0].id not in protected
        ):
            child = node.children[0]
            node.marg_vars = tree.order.sort_vars(set(node.marg_vars) | set(child.marg_vars))
            node.lifts = {**node.lifts, **child.lifts}
            node.children = child.children
        if (
            node.kind == VIEW
            and not node.marg_vars
            and len(node.children) == 1
            and set(node.keys) == set(node.children[0].keys)
        ):
            child = node.children[0]
            child.materialized = child.materialized or node.materialized
            return child
        return node

    tree.roots = [compact(r) for r in tree.roots]
    tree.finalize()
    return tree


def delta_join_order(parent: ViewNode, delta_child: ViewNode) -> list[tuple[str, Any]]:
    """Greedy join order for a delta arriving at ``parent`` via one child.

    Returns (sibling id, ``rel_marginalize`` route) pairs. Siblings are
    taken most-connected first; a sibling whose whole schema is already
    bound is probed through its entry store (``"primary"``), a partially
    bound one through a secondary index on the bound variables
    (``(probe, None)``), and an unconnected one is scanned (``None``).
    """
    bound = set(delta_child.keys)
    rest = [c for c in parent.children if c is not delta_child]
    steps: list[tuple[str, Any]] = []
    while rest:
        best_i = 0
        best_n = -1
        for i, c in enumerate(rest):
            n = len(set(c.keys) & bound)
            if n > best_n:
                best_i, best_n = i, n
        sib = rest.pop(best_i)
        probe = tuple(v for v in sib.keys if v in bound)
        if len(probe) == len(sib.keys):
            steps.append((sib.id, "primary"))
        elif probe:
            steps.append((sib.id, (probe, None)))
        else:
            steps.append((sib.id, None))
        bound |= set(sib.keys)
    return steps


def payload_covers(node: ViewNode, free: frozenset[str]) -> tuple[ViewNode, ...]:
    """The views whose stored payloads multiply to a result row's below ``node``.

    A view covers its subtree when it is keyed by exactly the free variables
    below it, so a row's values pick out one stored payload. Otherwise the
    payload is the product of the children's, their covers in child order.
    """
    if set(node.keys) == free & node.vars_under:
        return (node,)
    if not node.children:
        raise ValueError(f"no view at or below {node.id} is keyed by its free variables")
    return tuple(n for c in node.children for n in payload_covers(c, free))


def _need(node: ViewNode, probe: tuple[str, ...], group: Optional[str]) -> None:
    spec = (probe, group)
    if spec not in node.required_indices:
        node.required_indices.append(spec)


def plan_delta_paths(tree: ViewTree) -> ViewTree:
    """Fix the delta paths and the secondary indexes they probe.

    Walks the propagation path of every updatable relation occurrence (and
    of every indicator fed by one) into ``delta_paths``, resolving each
    sibling's join route, and notes a plain index on each sibling probed
    on part of its schema; ``feeds`` lists the indicators each updatable
    occurrence feeds. Clears every index planned before.
    """
    for node in tree.nodes:
        node.required_indices = []

    def walk_up(node: ViewNode) -> tuple[DeltaStep, ...]:
        steps = []
        while node.parent is not None:
            parent = node.parent
            joins = tuple(delta_join_order(parent, node))
            for sib_id, route in joins:
                if isinstance(route, tuple):
                    _need(tree.by_id[sib_id], *route)
            inner_first = tuple(sorted(parent.marg_vars, key=tree.order.index, reverse=True))
            steps.append(DeltaStep(parent, node.id, joins, inner_first))
            node = parent
        return tuple(steps)

    fed = [ind for ind in tree.indicator_nodes if ind.source in tree.updatable]
    tree.feeds = {
        leaf_id: tuple(ind for ind in fed if ind.source == leaf_id)
        for leaf_id in sorted(tree.updatable)
    }
    entries = [tree.leaf_nodes[leaf_id] for leaf_id in sorted(tree.updatable)] + fed
    tree.delta_paths = {node.id: walk_up(node) for node in entries}
    return tree


def plan_listing(tree: ViewTree) -> ViewTree:
    """Fix the listing plan and the grouped indexes it probes.

    Enumeration hubs get an index grouping by their own variable under the
    enumerable prefix; each such index is also a step of the listing plan,
    and each of the roots' payload covers is read at the deepest step that
    binds one of its keys.
    """
    free = frozenset(tree.query.free)
    steps = []
    for var in sorted(tree.enum_views, key=tree.order.index):
        node = tree.by_id[tree.enum_views[var]]
        fixed = set(tree.order.ancestors(var)) & free
        probe = tuple(v for v in node.keys if v in fixed)
        _need(node, probe, var)
        steps.append((var, node.id, probe))
    tree.listing_steps = tuple(steps)
    depth = {var: i for i, (var, _, _) in enumerate(steps)}
    groups: list[list[ViewNode]] = [[] for _ in range(max(len(steps), 1))]
    for r in tree.roots:
        for node in payload_covers(r, free):
            groups[max((depth.get(v, 0) for v in node.keys), default=0)].append(node)
    tree.listing_covers = tuple(map(tuple, groups))
    return tree


def plan_view_tree(query: Query, order: VariableOrder, updatable: Iterable[str]) -> ViewTree:
    """Run the whole planning pipeline for one query: the free-top
    construction when the query has free variables and the order keeps
    them on top, else the general one, then the existence projections a
    cyclic core needs."""
    if query.free and order.is_free_top(query.free):
        tree = build_free_connex_tree(query, order)
    else:
        tree = build_view_tree(query, order)
    add_indicator_projections(tree)
    updatable = tuple(updatable)
    fold_static_siblings(tree, updatable)
    choose_materialization(tree, updatable)
    compact_and_dedupe(tree)
    plan_delta_paths(tree)
    plan_listing(tree)
    return tree


def flat_lifts(query: Query, schema: Iterable[str]) -> dict[str, LiftingFunction]:
    """The variables a join of every occurrence sums out to keep only
    ``schema``, in order of first appearance, each with its lift: the
    query's own, else to one under plain grouping, else a unit payload
    under relational payloads."""
    keep = set(schema)
    fold = lift_to_one if query.free_lift_mode == GROUP_BY else lift_unit
    summed = (v for d in query.relations for v in d.schema if v not in keep)
    return {v: query.lifts[v] if v in query.lifts else fold(v) for v in summed}


def plan_flat_tree(
    query: Query, order: VariableOrder, schema: Iterable[str], updatable: Iterable[str]
) -> ViewTree:
    """Plan first-order maintenance: one stored view over ``schema`` whose
    children are every relation occurrence, summing out the rest by
    :func:`flat_lifts`. A delta to an updatable occurrence joins the
    other occurrences through the leaf indexes its delta path plans, and
    no view stands between the inputs and the result."""
    tree = ViewTree(query, order, mode="flat")
    leaves = [_leaf_node(tree, query, d.leaf_id) for d in query.relations]
    lifts = flat_lifts(query, schema)
    root = ViewNode(
        _view_id(tree, "V", None, leaves), VIEW, keys=tuple(schema),
        marg_vars=tuple(lifts), lifts=lifts, children=leaves,
    )
    tree.roots = [root]
    tree.finalize()
    choose_materialization(tree, updatable)
    return plan_delta_paths(tree)
