"""Query descriptions, variable orders, and structural analysis.

A query is a natural join of named relations with a set of free (output)
variables, a payload ring, and lifting functions for the variables that get
aggregated away. The structural side of this module decides how such a
query can be maintained: hypergraph reduction for acyclicity tests, the
hierarchy tests that characterize constant-time maintenance, dependency
sets induced by a variable order, a canonical order construction, and
functional-dependency closures for schema widening.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Any, Iterable, Optional, Sequence

from fivm.rings import REAL, TO_ONE, LiftingFunction, RingSpec, lift

__all__ = [
    "RelationDecl",
    "Occurrence",
    "Query",
    "VariableOrder",
    "OrderBinding",
    "QueryClass",
    "FDSet",
    "infer_dep",
    "gyo_reduce",
    "classify",
    "canonical_free_top_order",
    "fd_closure",
    "sigma_reduct",
]

GROUP_BY = "group_by"
RELATIONAL_PAYLOAD = "relational_payload"


@dataclass(frozen=True)
class RelationDecl:
    """One input relation occurrence: a stable leaf id, the relation name
    (repeated for self joins), and its variable schema."""

    leaf_id: str
    name: str
    schema: tuple[str, ...]


@dataclass(frozen=True)
class Occurrence:
    """Where an update to a relation name lands: one leaf, that leaf's
    schema, and the positional renaming from the name's update schema (its
    first occurrence's) to this leaf's variables."""

    leaf_id: str
    schema: tuple[str, ...]
    renaming: dict[str, str]


class Query:
    """A join-aggregate query over ring-annotated relations.

    ``relations`` is a list of (name, schema) pairs; repeated names become
    distinct leaf occurrences with ids ``name#1``, ``name#2``, and so on.
    ``free`` lists the output variables. ``lifts`` supplies the lifting
    function for every aggregated variable; free variables only need one in
    special output modes, where the tree builder injects it itself.
    ``free_lift_mode`` picks how free variables present results: plain keys
    ("group_by") or nested relational payloads ("relational_payload").
    ``occurrences`` routes an update keyed by relation name to every leaf
    that name occurs as. ``ranges`` declares variables whose values are
    the integers [0, n); on the exact real ring, a relation over declared
    variables only is stored as one array (``dense_shape``).
    """

    def __init__(
        self,
        relations: Sequence[tuple[str, Iterable[str]]],
        free: Iterable[str],
        ring: RingSpec,
        lifts: Iterable[LiftingFunction] = (),
        free_lift_mode: str = GROUP_BY,
        ranges: Optional[dict[str, int]] = None,
    ):
        if free_lift_mode not in (GROUP_BY, RELATIONAL_PAYLOAD):
            raise ValueError(f"unknown free lift mode: {free_lift_mode!r}")
        names = [name for name, _ in relations]
        repeats = {n for n in names if names.count(n) > 1}
        decls: list[RelationDecl] = []
        seen: dict[str, int] = {}
        for name, schema in relations:
            schema = tuple(schema)
            if len(set(schema)) != len(schema):
                raise ValueError(f"duplicate variable in schema of {name}: {schema}")
            if name in repeats:
                seen[name] = seen.get(name, 0) + 1
                leaf_id = f"{name}#{seen[name]}"
            else:
                leaf_id = name
            decls.append(RelationDecl(leaf_id, name, schema))
        self.relations: tuple[RelationDecl, ...] = tuple(decls)
        routes: dict[str, list[Occurrence]] = {}
        for d in decls:
            occs = routes.setdefault(d.name, [])
            update_schema = occs[0].schema if occs else d.schema
            if len(d.schema) != len(update_schema):
                raise ValueError(f"occurrences of {d.name} differ in arity")
            occs.append(Occurrence(d.leaf_id, d.schema, dict(zip(update_schema, d.schema))))
        self.occurrences: dict[str, tuple[Occurrence, ...]] = {
            name: tuple(occs) for name, occs in routes.items()
        }
        self.free: tuple[str, ...] = tuple(free)
        if len(set(self.free)) != len(self.free):
            raise ValueError(f"duplicate free variables: {self.free}")
        all_vars: list[str] = []
        for d in self.relations:
            for v in d.schema:
                if v not in all_vars:
                    all_vars.append(v)
        self.variables: tuple[str, ...] = tuple(all_vars)
        unknown = [v for v in self.free if v not in set(all_vars)]
        if unknown:
            raise ValueError(f"free variables {unknown} appear in no relation")
        self.ring = ring
        self.lifts: dict[str, LiftingFunction] = {}
        for f in lifts:
            if f.target_variable in self.lifts:
                raise ValueError(f"duplicate lift for {f.target_variable}")
            self.lifts[f.target_variable] = f
        self.free_lift_mode = free_lift_mode
        self.ranges: dict[str, int] = dict(ranges or {})
        for v, n in self.ranges.items():
            if v not in all_vars or not isinstance(n, int) or n < 1:
                raise ValueError(f"bad range {n!r} for {v}: need a query variable and n >= 1")
        # A lifted variable's values are checked as tuples enter the first
        # occurrence holding it: every row a join lifts holds such a tuple.
        # A lift is a function of the value and its type, so (up to a bound
        # on memory) a value that passed once is not lifted again.
        self._lifted: dict[tuple[str, str], tuple[LiftingFunction, set]] = {}
        for v, fn in self.lifts.items():
            owner = next((d.leaf_id for d in decls if v in d.schema), None)
            if fn.mode != TO_ONE and owner is not None:
                self._lifted[owner, v] = (fn, set())
        self._entry_checks: dict[tuple, tuple[tuple, list]] = {}
        self._cell_checks: dict[tuple, bool] = {}

    def dense_shape(self, schema: Iterable[str]) -> Optional[tuple[int, ...]]:
        """The array shape a relation over ``schema`` is stored in: the
        declared ranges, when every variable has one and the ring is the
        real ring with exact zeros; otherwise None, for a dict."""
        ring, ranges = self.ring, self.ranges
        if ring.kind == REAL and not ring.zero_tolerance and ranges and set(schema) <= set(ranges):
            return tuple(ranges[v] for v in schema)
        return None

    def checked(
        self, pairs: Iterable[tuple[tuple, Any]], name: str, schema: Optional[tuple] = None
    ) -> Sequence[tuple[tuple, Any]]:
        """``pairs`` over ``schema`` (by default ``name``'s update schema)
        as key tuples, each checked first: the key's length, the payload,
        each value against its declared range [0, n), and the lift of each
        value this relation is the first occurrence of. A list or tuple
        whose keys are all tuples comes back as it is, so a load keeps no
        second copy of its data; other input comes back as a new list.
        This is the one entry check of load, update and scenario
        compilation. Rows bound for a dense relation for which
        :meth:`checks_cells` is false may skip it: the array's bounds test
        over the batch is the same check (``RuntimeState._accumulate``)."""
        schema, checks = self._checks(name, schema)
        check, ring = self.ring.check, self.ring
        rows = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        keyed = True
        for key, val in rows:
            if len(key) != len(schema):
                raise ValueError(f"key {key!r} does not match {name}{schema}")
            try:
                check(val)
            except (TypeError, ValueError) as e:
                raise ValueError(f"{name} row {key!r}: {e}") from None
            for i, var, n, lifted in checks:
                x = key[i]
                if n is not None and not (
                    (type(x) is int or isinstance(x, Integral) and type(x) is not bool) and 0 <= x < n
                ):
                    raise ValueError(f"{name} row {key!r}: {var}={x!r} is outside [0, {n})")
                # an np.int64(1) equals a passed int 1 yet may be refused
                if lifted is not None and (type(x), x) not in lifted[1]:
                    try:
                        lift(ring, lifted[0], x)
                    except ValueError as e:
                        raise ValueError(f"{name} row {key!r}: {e}") from None
                    if len(lifted[1]) < 4096:
                        lifted[1].add((type(x), x))
            if type(key) is not tuple:
                keyed = False
        return rows if keyed else [(tuple(key), val) for key, val in rows]

    def checks_cells(self, name: str, schema: tuple, shape: tuple[int, ...]) -> bool:
        """Whether :meth:`checked` could refuse a cell of an array of
        ``shape`` over ``schema``. It cannot when the array is the one a
        dense relation over ``schema`` is stored in and its extents are
        the declared ranges of every occurrence's variables, for then
        every cell is in range by construction, and no value has a lift
        to check. The answer is kept per (name, schema, shape)."""
        key = (name, schema, shape)
        answer = self._cell_checks.get(key)
        if answer is None:
            _, checks = self._checks(name, schema)
            answer = shape != self.dense_shape(schema) or any(
                lifted is not None or n != shape[i] for i, _, n, lifted in checks
            )
            self._cell_checks[key] = answer
        return answer

    def _checks(self, name: str, schema: Optional[tuple]) -> tuple[tuple, list]:
        """The schema :meth:`checked` reads ``name``'s keys over and its
        (position, variable, range or None, lift owner entry or None)
        checks, planned once per (name, schema)."""
        plan = self._entry_checks.get((name, schema))
        if plan is None:
            occs, ranges = self.occurrences[name], self.ranges
            over = occs[0].schema if schema is None else schema
            plan = self._entry_checks[name, schema] = over, [
                (i, w, ranges.get(w), self._lifted.get((occ.leaf_id, w)))
                for i, v in enumerate(over)
                for occ in occs
                if (w := occ.renaming[v]) in ranges or (occ.leaf_id, w) in self._lifted
            ]
        return plan

    @property
    def bound(self) -> tuple[str, ...]:
        return tuple(v for v in self.variables if v not in set(self.free))

    def rels_of(self, var: str) -> frozenset[str]:
        """Leaf ids whose schema mentions ``var``."""
        return frozenset(d.leaf_id for d in self.relations if var in d.schema)

    def decl(self, leaf_id: str) -> RelationDecl:
        for d in self.relations:
            if d.leaf_id == leaf_id:
                return d
        raise KeyError(leaf_id)

    def __repr__(self) -> str:
        rels = ", ".join(f"{d.leaf_id}({','.join(d.schema)})" for d in self.relations)
        return f"Query[{','.join(self.free)}]({rels})"


class VariableOrder:
    """A rooted forest over a query's variables.

    Built from nested lists: each tree is ``[var, child, child, ...]`` where
    a child is either a bare variable name or another such list. The DFS
    position of a variable doubles as the canonical sort key for view key
    schemas, so ancestors always precede descendants.
    """

    def __init__(self, forest: Sequence[Any]):
        self.parent: dict[str, Optional[str]] = {}
        self.children: dict[str, tuple[str, ...]] = {}
        self.roots: tuple[str, ...] = ()
        self._index: dict[str, int] = {}
        roots: list[str] = []
        for tree in forest:
            roots.append(self._build(tree, None))
        self.roots = tuple(roots)
        order: list[str] = []

        def dfs(v: str) -> None:
            self._index[v] = len(order)
            order.append(v)
            for c in self.children[v]:
                dfs(c)

        for r in self.roots:
            dfs(r)
        self.variables: tuple[str, ...] = tuple(order)

    def _build(self, tree: Any, parent: Optional[str]) -> str:
        if isinstance(tree, str):
            var, kids = tree, []
        else:
            var, kids = tree[0], list(tree[1:])
        if not isinstance(var, str):
            raise ValueError(f"bad variable order node: {tree!r}")
        if var in self.parent:
            raise ValueError(f"variable {var} appears twice in the order")
        self.parent[var] = parent
        self.children[var] = ()
        for kid in kids:
            child = self._build(kid, var)
            self.children[var] = self.children[var] + (child,)
        return var

    def to_nested(self) -> list:
        def render(v: str):
            kids = self.children[v]
            if not kids:
                return v
            return [v] + [render(c) for c in kids]

        return [render(r) for r in self.roots]

    def index(self, var: str) -> int:
        return self._index[var]

    def sort_vars(self, vars: Iterable[str]) -> tuple[str, ...]:
        """Order a variable set top-down (ancestors first)."""
        return tuple(sorted(vars, key=self._index.__getitem__))

    def ancestors(self, var: str) -> tuple[str, ...]:
        """Strict ancestors of ``var``, root first."""
        chain: list[str] = []
        p = self.parent[var]
        while p is not None:
            chain.append(p)
            p = self.parent[p]
        return tuple(reversed(chain))

    def subtree(self, var: str) -> tuple[str, ...]:
        out: list[str] = []

        def dfs(v: str) -> None:
            out.append(v)
            for c in self.children[v]:
                dfs(c)

        dfs(var)
        return tuple(out)

    def comparable(self, a: str, b: str) -> bool:
        """True when one variable is an ancestor of the other (or equal)."""
        return a == b or a in self.ancestors(b) or b in self.ancestors(a)

    def is_free_top(self, free: Iterable[str]) -> bool:
        """True when every free variable has only free ancestors."""
        fs = set(free)
        return all(set(self.ancestors(v)) <= fs for v in fs if v in self.parent)

    def __repr__(self) -> str:
        return f"VariableOrder({self.to_nested()!r})"


@dataclass(frozen=True)
class OrderBinding:
    """A variable order bound to one query.

    ``dep`` maps each variable to the ancestors it still depends on: those
    sharing a relation with the variable's subtree. ``leaf_parent`` maps
    each relation occurrence to the deepest variable of its schema, which
    is where it hangs off the order.
    """

    dep: dict[str, tuple[str, ...]]
    leaf_parent: dict[str, str]


def infer_dep(query: Query, order: VariableOrder) -> OrderBinding:
    """Bind ``order`` to ``query``, checking coverage and the path property.

    Every relation's schema must sit on a single root-to-leaf path of the
    order; each relation attaches below its deepest variable. A variable's
    dependency set collects the ancestors that co-occur with any variable
    of its subtree in some relation schema.
    """
    order_vars = set(order.variables)
    for d in query.relations:
        for v in d.schema:
            if v not in order_vars:
                raise ValueError(f"variable {v} of {d.leaf_id} missing from the order")
    used = {v for d in query.relations for v in d.schema}
    unused = [v for v in order.variables if v not in used]
    if unused:
        raise ValueError(f"order variables {unused} appear in no relation")

    leaf_parent: dict[str, str] = {}
    for d in query.relations:
        if not d.schema:
            raise ValueError(f"relation {d.leaf_id} has an empty schema")
        for a in d.schema:
            for b in d.schema:
                if not order.comparable(a, b):
                    raise ValueError(
                        f"schema of {d.leaf_id} is not on one path: {a} and {b} are unrelated"
                    )
        leaf_parent[d.leaf_id] = max(d.schema, key=order.index)

    dep: dict[str, tuple[str, ...]] = {}
    for x in order.variables:
        sub = set(order.subtree(x))
        touching: set[str] = set()
        for d in query.relations:
            if sub & set(d.schema):
                touching.update(d.schema)
        dep[x] = tuple(v for v in order.ancestors(x) if v in touching)
    return OrderBinding(dep=dep, leaf_parent=leaf_parent)


def gyo_reduce(
    edges: Iterable[tuple[str, Iterable[str], str]],
) -> list[tuple[str, frozenset[str], str]]:
    """Reduce a tagged hypergraph by repeated ear removal.

    Two rules run to a fixpoint: a vertex contained in exactly one edge is
    dropped from it, and an edge contained in another edge is dropped
    entirely. When two edges hold the same vertex set, the one with the
    lexicographically larger (tag, id) goes first, so "indicator" tagged
    edges lose ties against plain relation edges. The hypergraph is acyclic
    exactly when the residual comes back empty.
    """
    work: list[tuple[str, frozenset[str], str]] = [
        (eid, frozenset(vs), tag) for eid, vs, tag in edges
    ]
    work.sort(key=lambda e: (e[2], e[0]))
    changed = True
    while changed and work:
        changed = False
        for i, (eid, vs, tag) in enumerate(work):
            absorbed = False
            for j, (oid, ovs, otag) in enumerate(work):
                if i == j:
                    continue
                if vs < ovs:
                    absorbed = True
                    break
                if vs == ovs and (tag, eid) > (otag, oid):
                    absorbed = True
                    break
            if absorbed:
                work.pop(i)
                changed = True
                break
        if changed:
            continue
        counts: dict[str, int] = {}
        for _, vs, _ in work:
            for v in vs:
                counts[v] = counts.get(v, 0) + 1
        lonely = {v for v, c in counts.items() if c == 1}
        if lonely:
            trimmed: list[tuple[str, frozenset[str], str]] = []
            for eid, vs, tag in work:
                kept = vs - lonely
                if vs != kept:
                    changed = True
                if kept:
                    trimmed.append((eid, kept, tag))
                else:
                    changed = True
            work = trimmed
    return work


@dataclass(frozen=True)
class QueryClass:
    """Structural classification of a query."""

    acyclic: bool
    free_connex: bool
    hierarchical: bool
    q_hierarchical: bool


def classify(query: Query) -> QueryClass:
    """Classify a query's join structure.

    Acyclicity is hypergraph reducibility; free-connex additionally keeps
    the hypergraph reducible with the free variables added as one extra
    edge. Hierarchical means any two variables have nested or disjoint
    relation sets; the q-variant further demands that whenever one
    variable's relation set strictly contains another's and the smaller one
    is free, the larger one is free too.
    """
    base = [(d.leaf_id, d.schema, "rel") for d in query.relations]
    acyclic = not gyo_reduce(base)
    if query.free and acyclic:
        free_connex = not gyo_reduce(base + [("[free]", query.free, "rel")])
    else:
        free_connex = acyclic
    rels = {v: query.rels_of(v) for v in query.variables}
    hierarchical = True
    q_hier = True
    fs = set(query.free)
    for x in query.variables:
        for y in query.variables:
            rx, ry = rels[x], rels[y]
            if not (rx <= ry or ry <= rx or not (rx & ry)):
                hierarchical = False
                q_hier = False
            if rx > ry and y in fs and x not in fs:
                q_hier = False
    if not hierarchical:
        q_hier = False
    return QueryClass(acyclic, free_connex, hierarchical, q_hierarchical=q_hier)


def canonical_free_top_order(query: Query) -> VariableOrder:
    """Build the canonical variable order of a q-hierarchical query.

    Variables with identical relation sets form a chain (free ones first,
    then alphabetical); chains nest by strict containment of their relation
    sets, hanging off the deepest variable of the containing chain. The
    result keeps every free variable above every bound one.
    """
    qc = classify(query)
    if not qc.q_hierarchical:
        raise ValueError("query is not q-hierarchical; supply a variable order explicitly")
    blocks: dict[frozenset[str], list[str]] = {}
    for v in query.variables:
        blocks.setdefault(query.rels_of(v), []).append(v)
    fs = set(query.free)
    for key in blocks:
        blocks[key].sort(key=lambda v: (v not in fs, v))
    block_keys = sorted(blocks, key=lambda k: (-len(k), sorted(k)))

    def parent_of(key: frozenset[str]) -> Optional[frozenset[str]]:
        best: Optional[frozenset[str]] = None
        for other in block_keys:
            if key < other and (best is None or other < best):
                best = other
        return best

    kids: dict[Optional[frozenset[str]], list[frozenset[str]]] = {}
    for key in block_keys:
        kids.setdefault(parent_of(key), []).append(key)

    def render(key: frozenset[str]):
        chain = blocks[key]
        below = [render(k) for k in kids.get(key, [])]
        node: Any = chain[-1] if not below else [chain[-1]] + below
        for v in reversed(chain[:-1]):
            node = [v, node]
        return node

    forest = [render(k) for k in kids.get(None, [])]
    order = VariableOrder(forest)
    infer_dep(query, order)
    return order


class FDSet:
    """A set of functional dependencies between query variables."""

    def __init__(self, fds: Iterable[tuple[Iterable[str], Iterable[str]]] = ()):
        self.fds: tuple[tuple[frozenset[str], frozenset[str]], ...] = tuple(
            (frozenset(lhs), frozenset(rhs)) for lhs, rhs in fds
        )
        for lhs, _ in self.fds:
            if not lhs:
                raise ValueError("functional dependency with empty left side")

    def __bool__(self) -> bool:
        return bool(self.fds)

    def __repr__(self) -> str:
        body = "; ".join(
            f"{','.join(sorted(l))}->{','.join(sorted(r))}" for l, r in self.fds
        )
        return f"FDSet({body})"


def fd_closure(fds: FDSet, attrs: Iterable[str]) -> frozenset[str]:
    """Attribute closure: everything derivable from ``attrs`` under ``fds``."""
    closure = set(attrs)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds.fds:
            if lhs <= closure and not rhs <= closure:
                closure |= rhs
                changed = True
    return frozenset(closure)


def sigma_reduct(query: Query, fds: FDSet) -> Query:
    """Widen a query under functional dependencies, for analysis only.

    Each relation schema and the free set grow to their closures (clipped
    to the query's variables). Lifts for variables that switch from bound
    to free are dropped. The result classifies and orders like the
    dependency-aware original but no longer matches physical arities, so it
    must not be evaluated against data.
    """
    all_vars = set(query.variables)
    new_rels = []
    for d in query.relations:
        wide = fd_closure(fds, d.schema) & all_vars
        schema = tuple(v for v in query.variables if v in wide)
        new_rels.append((d.name, schema))
    new_free_set = fd_closure(fds, query.free) & all_vars
    new_free = tuple(v for v in query.variables if v in new_free_set)
    lifts = [f for v, f in query.lifts.items() if v not in new_free_set]
    return Query(
        new_rels,
        new_free,
        query.ring,
        lifts=lifts,
        free_lift_mode=query.free_lift_mode,
    )
