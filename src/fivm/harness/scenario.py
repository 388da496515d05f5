"""Scenario files: what to maintain, over which data, updated how.

A scenario is a JSON document naming the relations (with their initial
rows), the query shape, the variable order, which relations receive
updates, and how the update stream is batched and checked. Everything a
run needs is in the file, so a scenario is reproducible by path plus
seed alone.

Top-level keys:

``name``              display name (defaults to the file stem)
``ring``              {"kind": "integer"|"real"|"relational",
                      "zero_tolerance"?, "base"? (relational only)}
``relations``         [{"name", "schema", "rows", "payload_column"?,
                      "signed"?}, ...]
``free``              output variables (default [])
``order``             nested variable order, or "canonical"
``lifts``             {var: "one"|"identity"|"unit"|"singleton"}; not
                      beside ``kinds`` or ``chain``, which fix the lifts
``kinds``             {var: "continuous"|"categorical"|
                      {"binned": {"lo", "hi", "bins"?}}};
                      presence switches the query to a statistics triple
``chain``             [p1, ..., pn+1]; presence compiles the matrix chain
                      A1(X1,X2), ..., An(Xn,Xn+1), where Xi takes the
                      integers [0, pi)
``free_lift_mode``    "group_by" (default) or "relational_payload"
``updatable``         relation names that stream (default: all)
``fds``               [[["A"], ["B"]], ...] functional dependencies
``batch_size``        events per batch (default 1)
``intvl``             enumerate every this many batches (0 = never)
``seed``              stream shuffling seed (default 0)
``shuffle``           shuffle per-relation event order (true or false,
                      default true)
``app``               {"kind": "regression"|"mi"|"chow_liu"|"covariance",
                      ...options}; only regression takes options, the
                      fields of ``RegressionConfig``

Rows hold one value per schema column; a relation with
``payload_column`` true carries the payload after the key (an exact
integer on the integer ring, a finite number on the real ring, either
also as a numeral string), and one with ``signed`` true ends each row
with the integer 1 or -1 (deletes). Key values are JSON scalars, and
compiling refuses any row the engine's entry check would. Integer
settings (the ``chain`` dims and a binned kind's ``bins`` too) are JSON
integers; a binned kind's ``lo`` and ``hi`` and a ring's
``zero_tolerance`` are finite JSON numbers; list settings (``schema``,
``free``, ``updatable``, each row, each side of an ``fds`` entry) are
JSON lists. Nothing is coerced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Optional

from ..apps import Binned, RegressionConfig, build_covariance_query, build_matrix_chain
from ..queries import (
    FDSet,
    GROUP_BY,
    Query,
    RELATIONAL_PAYLOAD,
    VariableOrder,
    canonical_free_top_order,
    classify,
)
from ..rings import (
    INTEGER,
    REAL,
    RELATIONAL,
    RingSpec,
    lift_identity,
    lift_singleton,
    lift_to_one,
    lift_unit,
    ring_one,
)
from ..viewtree import ViewTree, plan_view_tree
from .streams import StreamEvent

__all__ = [
    "ScenarioError",
    "RelationSpec",
    "AppSpec",
    "Scenario",
    "CompiledScenario",
    "load_scenario",
    "scenario_from_dict",
    "compile_scenario",
    "bundled_scenarios",
]


class ScenarioError(ValueError):
    """A scenario file that cannot be run as written."""


_TOP_KEYS = {
    "name",
    "ring",
    "relations",
    "free",
    "order",
    "lifts",
    "kinds",
    "chain",
    "free_lift_mode",
    "updatable",
    "fds",
    "batch_size",
    "intvl",
    "seed",
    "shuffle",
    "app",
}

_LIFTS = {
    "one": lift_to_one,
    "identity": lift_identity,
    "unit": lift_unit,
    "singleton": lift_singleton,
}

_APP_KINDS = ("regression", "mi", "chow_liu", "covariance")


@dataclass(frozen=True)
class RelationSpec:
    name: str
    schema: tuple[str, ...]
    rows: tuple[tuple, ...]
    payload_column: bool = False
    signed: bool = False

    def events(self, ring: RingSpec) -> list[StreamEvent]:
        """Decode raw rows into stream events with ring payloads."""
        width = len(self.schema) + int(self.payload_column) + int(self.signed)
        out = []
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ScenarioError(
                    f"{self.name} row {i}: {len(row)} fields, expected {width}"
                )
            key = tuple(row[: len(self.schema)])
            for var, x in zip(self.schema, key):
                if not (x is None or isinstance(x, (str, int, float))):
                    raise ScenarioError(f"{self.name} row {i}: {var}={x!r} is not a JSON scalar")
            rest = list(row[len(self.schema) :])
            payload: Any = ring_one(ring)
            if self.payload_column:
                if ring.kind not in (INTEGER, REAL):
                    raise ScenarioError(
                        f"{self.name}: payload column needs a numeric ring"
                    )
                payload = self._payload(ring, rest.pop(0), i)
            sign = 1
            if self.signed:
                sign = rest.pop(0)
                if type(sign) is not int or sign not in (1, -1):
                    raise ScenarioError(
                        f"{self.name} row {i}: sign must be +1 or -1, not {sign!r}"
                    )
            out.append(StreamEvent(self.name, key, payload, sign))
        return out

    def _payload(self, ring: RingSpec, raw: Any, i: int) -> Any:
        """Row ``i``'s payload field on a numeric ring: an exact integer
        (a JSON number or numeral string) on the integer ring, a finite
        number on the real ring."""
        try:
            if isinstance(raw, bool):
                raise ValueError
            if ring.kind == INTEGER:
                value = int(raw)
                if isinstance(raw, float) and value != raw:
                    raise ValueError
                return value
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError
            return value
        except (TypeError, ValueError, OverflowError):
            want = "an integer" if ring.kind == INTEGER else "a finite number"
            raise ScenarioError(
                f"{self.name} row {i}: payload {raw!r} is not {want}"
            ) from None


@dataclass(frozen=True)
class AppSpec:
    kind: str
    options: Mapping[str, Any]


@dataclass(frozen=True)
class Scenario:
    name: str
    relations: tuple[RelationSpec, ...]
    ring_doc: Mapping[str, Any]
    free: tuple[str, ...]
    order_doc: Any
    lift_doc: Mapping[str, str]
    kinds_doc: Optional[Mapping[str, Any]]
    chain: Optional[tuple[int, ...]]
    free_lift_mode: str
    updatable: tuple[str, ...]
    fds: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    batch_size: int
    intvl: int
    seed: int
    shuffle: bool
    app: Optional[AppSpec]


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: {e}") from e
    return scenario_from_dict(doc, default_name=path.stem)


def scenario_from_dict(doc: Mapping[str, Any], default_name: str = "scenario") -> Scenario:
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario document must be a JSON object")
    junk = set(doc) - _TOP_KEYS
    if junk:
        raise ScenarioError(f"unknown scenario keys: {sorted(junk)}")
    rels_doc = _list(doc, "relations", [])
    if not rels_doc:
        raise ScenarioError("a scenario needs at least one relation")
    rel_specs = []
    for r in rels_doc:
        if not isinstance(r, Mapping):
            raise ScenarioError(f"a relation must be a JSON object, not {r!r}")
        extra = set(r) - {"name", "schema", "rows", "payload_column", "signed"}
        if extra:
            raise ScenarioError(f"unknown relation keys: {sorted(extra)}")
        if not {"name", "schema"} <= set(r):
            raise ScenarioError(f"a relation needs a name and a schema: {dict(r)}")
        name = r["name"]
        rows = _list(r, "rows", [], f"{name} ")
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                raise ScenarioError(f"{name} row {i}: {row!r} is not a list")
        rel_specs.append(
            RelationSpec(
                name=name,
                schema=tuple(_list(r, "schema", None, f"{name} ")),
                rows=tuple(tuple(row) for row in rows),
                payload_column=_flag(r, "payload_column", False),
                signed=_flag(r, "signed", False),
            )
        )

    names = [r.name for r in rel_specs]
    # a self join declares its relation once per occurrence
    updatable = tuple(dict.fromkeys(_list(doc, "updatable", names)))
    unknown = set(updatable) - set(names)
    if unknown:
        raise ScenarioError(f"updatable names not declared: {sorted(unknown)}")

    chain = None
    if doc.get("chain"):
        chain = tuple(_list(doc, "chain", None))
        if not all(type(d) is int for d in chain):
            raise ScenarioError(f"chain must list integers, not {doc['chain']!r}")
    batch_size = _int(doc, "batch_size", 1)
    if batch_size < 1:
        raise ScenarioError("batch_size must be at least 1")
    intvl = _int(doc, "intvl", 0)
    if intvl < 0:
        raise ScenarioError("intvl cannot be negative")

    app_doc = doc.get("app")
    app = None
    if app_doc is not None:
        if not isinstance(app_doc, Mapping):
            raise ScenarioError(f"app must be a JSON object, not {app_doc!r}")
        kind = app_doc.get("kind")
        if kind not in _APP_KINDS:
            raise ScenarioError(f"unknown app kind {kind!r}")
        app = AppSpec(kind, {k: v for k, v in app_doc.items() if k != "kind"})

    fds = tuple(_fd(i, fd) for i, fd in enumerate(_list(doc, "fds", [])))
    flm = doc.get("free_lift_mode", "group_by")
    if flm not in ("group_by", "relational_payload"):
        raise ScenarioError(f"unknown free_lift_mode {flm!r}")

    return Scenario(
        name=doc.get("name", default_name),
        relations=tuple(rel_specs),
        ring_doc=doc.get("ring", {"kind": "integer"}),
        free=tuple(_list(doc, "free", [])),
        order_doc=doc.get("order"),
        lift_doc=doc.get("lifts", {}),
        kinds_doc=doc.get("kinds"),
        chain=chain,
        free_lift_mode=GROUP_BY if flm == "group_by" else RELATIONAL_PAYLOAD,
        updatable=updatable,
        fds=fds,
        batch_size=batch_size,
        intvl=intvl,
        seed=_int(doc, "seed", 0),
        shuffle=_flag(doc, "shuffle", True),
        app=app,
    )


def _int(doc: Mapping[str, Any], key: str, default: int, where: str = "") -> int:
    """An integer setting; 2.5, "7" and true are refused, not rounded."""
    value = doc.get(key, default)
    if type(value) is not int:
        raise ScenarioError(f"{where}{key} must be an integer, not {value!r}")
    return value


def _list(doc: Mapping[str, Any], key: str, default: Any, where: str = "") -> list:
    """A list setting; a string is refused, not split into characters."""
    value = doc.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{where}{key} must be a list, not {value!r}")
    return value


def _fd(i: int, fd: Any) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """One functional dependency: two lists of names; "AB" is refused, not
    read as ["A", "B"]."""
    names = lambda side: isinstance(side, (list, tuple)) and all(isinstance(v, str) for v in side)
    if not (isinstance(fd, (list, tuple)) and len(fd) == 2 and all(map(names, fd))):
        raise ScenarioError(f"fds entry {i} must be two lists of names, not {fd!r}")
    return tuple(fd[0]), tuple(fd[1])


def _number(doc: Mapping[str, Any], key: str, where: str, default: Any = None) -> float:
    """A finite JSON number; "0" and true are refused, not converted."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ScenarioError(f"{where}{key} must be a number, not {value!r}")
    return float(value)


def _flag(doc: Mapping[str, Any], key: str, default: bool) -> bool:
    """A boolean setting; the JSON string "false" is refused, not true."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioError(f"{key} must be true or false, not {value!r}")
    return value


def _ring_from_doc(doc: Mapping[str, Any]) -> RingSpec:
    kind = doc.get("kind", INTEGER)
    if kind not in (INTEGER, REAL, RELATIONAL):
        raise ScenarioError(f"unknown ring kind {kind!r} (covariance comes from 'kinds')")
    junk = set(doc) - {"kind", "zero_tolerance"} - ({"base"} if kind == RELATIONAL else set())
    if junk:
        raise ScenarioError(f"unknown keys for a {kind} ring: {sorted(junk)}")
    base = doc.get("base", INTEGER) if kind == RELATIONAL else ""
    if base not in (INTEGER, REAL, ""):
        raise ScenarioError(f"unknown relational base {base!r}")
    tol = _number(doc, "zero_tolerance", "ring ", 0.0)
    try:
        return RingSpec(kind=kind, base=base, zero_tolerance=tol)
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"ring: {e}") from None


def _kind_from_doc(v: Any) -> Any:
    if isinstance(v, str):
        return v
    if isinstance(v, Mapping) and isinstance(v.get("binned"), Mapping):
        b = v["binned"]
        junk = set(b) - {"lo", "hi", "bins"}
        if junk:
            raise ScenarioError(f"unknown keys for a binned kind: {sorted(junk)}")
        lo, hi = _number(b, "lo", "binned "), _number(b, "hi", "binned ")
        return Binned(lo=lo, hi=hi, bins=_int(b, "bins", 100, "binned "))
    raise ScenarioError(f"unknown column kind {v!r}")


@dataclass
class CompiledScenario:
    """A scenario turned into runnable pieces, shared by every engine."""

    scenario: Scenario
    query: Query
    order: VariableOrder
    slots: Optional[tuple[str, ...]]
    tree: ViewTree
    static_events: dict[str, list[StreamEvent]]
    stream_events: list[tuple[str, list[StreamEvent]]]
    regression: Optional[RegressionConfig]

    @property
    def result_schema(self) -> tuple[str, ...]:
        return self.tree.result_schema


def compile_scenario(scn: Scenario) -> CompiledScenario:
    """Build the query and order, then validate them against the scenario.

    Everything that can be rejected is rejected here, before any data
    moves: unknown lifts, ring settings the ring does not take, orders over
    the wrong variables, apps pointed at the wrong ring or given options
    they do not take, payload columns on non-numeric rings, and any row
    that load or update would refuse (by the same ``Query.checked``).
    """
    rel_decls = [(r.name, r.schema) for r in scn.relations]
    slots: Optional[tuple[str, ...]] = None

    if scn.chain is not None:
        if scn.kinds_doc is not None:
            raise ScenarioError("a chain scenario cannot also declare kinds")
        if scn.lift_doc:
            raise ScenarioError("a chain scenario cannot also declare lifts")
        mc = build_matrix_chain(scn.chain)
        expect = [(d.name, d.schema) for d in mc.query.relations]
        if [(n, tuple(s)) for n, s in rel_decls] != expect:
            raise ScenarioError(
                f"chain relations must be exactly {expect} in order"
            )
        query, order = mc.query, mc.order
    elif scn.kinds_doc is not None:
        if scn.lift_doc:
            raise ScenarioError("a statistics scenario cannot also declare lifts")
        kinds = {v: _kind_from_doc(k) for v, k in scn.kinds_doc.items()}
        cq = build_covariance_query(rel_decls, kinds)
        query, slots = cq.query, cq.slots
        order = _order_from_doc(scn, query)
    else:
        ring = _ring_from_doc(scn.ring_doc)
        lifts = []
        for var, lift_name in scn.lift_doc.items():
            maker = _LIFTS.get(lift_name)
            if maker is None:
                raise ScenarioError(f"unknown lift {lift_name!r} for {var}")
            lifts.append(maker(var))
        query = Query(
            relations=rel_decls,
            free=scn.free,
            ring=ring,
            lifts=tuple(lifts),
            free_lift_mode=scn.free_lift_mode,
        )
        order = _order_from_doc(scn, query)

    regression = None if scn.app is None else _check_app(scn.app, query, slots)
    tree = plan_view_tree(query, order, updatable=scn.updatable)

    static_events: dict[str, list[StreamEvent]] = {}
    stream_events: list[tuple[str, list[StreamEvent]]] = []
    upd = set(scn.updatable)
    for r in scn.relations:
        events = r.events(query.ring)
        try:
            query.checked([(e.key, e.payload) for e in events], r.name)
        except ValueError as e:
            raise ScenarioError(str(e)) from None
        if r.name in upd:
            stream_events.append((r.name, events))
        else:
            for e in events:
                if e.sign < 0:
                    raise ScenarioError(
                        f"{r.name} is static but has a signed delete row"
                    )
            static_events.setdefault(r.name, []).extend(events)

    return CompiledScenario(
        scenario=scn,
        query=query,
        order=order,
        slots=slots,
        tree=tree,
        static_events=static_events,
        stream_events=stream_events,
        regression=regression,
    )


def _order_from_doc(scn: Scenario, query: Query) -> VariableOrder:
    doc = scn.order_doc
    if doc == "canonical":
        fdset = FDSet(scn.fds) if scn.fds else None
        q = query
        if fdset is not None:
            from ..queries import sigma_reduct

            q = sigma_reduct(query, fdset)
        cls = classify(q)
        if not cls.q_hierarchical:
            raise ScenarioError(
                "canonical order requested but the query is not q-hierarchical"
            )
        return canonical_free_top_order(q)
    if doc is None:
        raise ScenarioError("scenario needs an 'order' (or \"canonical\")")
    roots = doc if isinstance(doc[0], list) else [doc]
    order = VariableOrder(roots)
    missing = set(query.variables) - set(order.variables)
    if missing:
        raise ScenarioError(f"order does not place variables {sorted(missing)}")
    return order


def _check_app(
    app: AppSpec, query: Query, slots: Optional[tuple[str, ...]]
) -> Optional[RegressionConfig]:
    """Check an app against the query; a regression's options become its
    ``RegressionConfig``, the other apps take none."""
    if query.ring.kind != "covariance":
        raise ScenarioError(f"app {app.kind!r} needs a statistics query (use 'kinds')")
    assert slots is not None
    if app.kind != "regression" and app.options:
        raise ScenarioError(f"app {app.kind!r} takes no options: {sorted(app.options)}")
    if app.kind in ("mi", "chow_liu"):
        if query.ring.base != RELATIONAL:
            raise ScenarioError(f"{app.kind} needs categorical (or binned) slots")
        if len(slots) < 2:
            raise ScenarioError(f"{app.kind} needs at least two slots")
    if app.kind == "covariance" and query.ring.base != REAL:
        raise ScenarioError("covariance export needs continuous slots")
    if app.kind != "regression":
        return None
    takes = [f.name for f in fields(RegressionConfig)]
    junk = set(app.options) - set(takes)
    if junk:
        raise ScenarioError(f"unknown keys for a regression app: {sorted(junk)}; it takes {takes}")
    if "label" not in app.options:
        raise ScenarioError("regression app needs a 'label'")
    try:
        cfg = RegressionConfig(**app.options)
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"regression app: {e}") from None
    if cfg.label not in slots:
        raise ScenarioError(f"regression label {cfg.label!r} is not a slot")
    bad = [f for f in cfg.features if f not in slots]
    if bad:
        raise ScenarioError(f"regression features {bad} are not slots")
    if query.ring.base != REAL:
        raise ScenarioError("regression needs every slot continuous")
    return cfg


def bundled_scenarios() -> dict[str, Path]:
    """Name to path for every scenario shipped inside the package."""
    root = resources.files("fivm") / "scenarios"
    out: dict[str, Path] = {}
    with resources.as_file(root) as folder:
        for p in sorted(Path(folder).glob("*.json")):
            out[p.stem] = p
    return out

