"""Payload algebra for ring-annotated relations.

Every relation in this package maps key tuples to payloads drawn from a
commutative ring. The ring is pluggable: plain integer or real arithmetic,
degree-m covariance triples for statistics workloads, or relational payloads
(finite maps from tuples to scalars) that let query results live inside
payloads. This module defines the ring descriptor, the payload types, the
five ring operations, and the lifting functions that inject domain values
into a ring during marginalization: :func:`lift` for one value, and
:func:`lift_row` for all the columns a row loop level lifts, in one call.

Payloads are plain values (ints, floats) or small immutable-by-convention
objects; all operations are pure and never mutate their arguments.
Covariance components (floats or relational payloads) are combined with
``+``, ``*`` and unary ``-`` and tested for exact zero with ``not v``.
Each ring descriptor binds its operators once, when it is built, so bulk
code never dispatches on the ring kind per payload.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral, Real
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "RingSpec",
    "RelationalPayload",
    "CovarianceTriple",
    "LiftingFunction",
    "integer_ring",
    "real_ring",
    "covariance_ring",
    "relational_ring",
    "relational_payload",
    "relational_total",
    "lift_to_one",
    "lift_identity",
    "lift_continuous",
    "lift_categorical",
    "lift_singleton",
    "lift_unit",
    "ring_add",
    "ring_mul",
    "ring_negate",
    "ring_one",
    "is_zero",
    "lift",
    "lift_row",
]

INTEGER = "integer"
REAL = "real"
COVARIANCE = "covariance"
RELATIONAL = "relational"

TO_ONE = "to_one"
IDENTITY = "identity"
COVARIANCE_CONTINUOUS = "covariance_continuous"
COVARIANCE_CATEGORICAL = "covariance_categorical"
RELATIONAL_SINGLETON = "relational_singleton"
RELATIONAL_UNIT = "relational_unit"


@dataclass(frozen=True)
class RingSpec:
    """Descriptor of one payload ring.

    ``kind`` selects the algebra. Covariance rings carry a ``degree`` (the
    number of aggregate slots) and a ``base`` of either "real" (plain float
    components) or "relational" (components are relational payloads, which
    is what mixed categorical data needs). Relational rings carry a scalar
    ``base`` of "integer" or "real". ``zero_tolerance`` applies only to
    zero tests of real-based payloads; exact rings must keep it at 0.

    Building a spec binds, outside its fields: ``add``, ``mul``, ``neg``,
    ``is_zero``, the constants ``zero`` and ``one``, ``check``, which
    raises on a covariance payload outside the degree and on a plain
    payload of another type (a bool, or not an ``Integral`` on the integer
    ring and not a ``Real`` on the real ring), and ``pairs``, the
    covariance pair keys (``pairs[i][j]`` is the one tuple every product
    and lift stores for the slot pair {i, j}; empty for other rings). The
    bound covariance operators trust their operands, so payloads from
    outside are checked.

    ``close(a, b)`` is ``==`` on integer and relational bases, which
    ``exact`` marks, and on real bases a relative 1e-9 or the zero
    tolerance, component by component. ``flat`` gives a payload's flat
    form as a list, named by ``columns``: one ``payload`` (a relational
    payload's total), or a real-based triple's count, slot sums and pair
    sums, its moment matrix's upper triangle row by row, absent parts
    0.0. Triples over grouped scalars have none: both are None.
    """

    kind: str
    degree: int = 0
    base: str = ""
    zero_tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (INTEGER, REAL, COVARIANCE, RELATIONAL):
            raise ValueError(f"unknown ring kind: {self.kind!r}")
        if self.kind == COVARIANCE:
            if self.degree < 1:
                raise ValueError("covariance ring needs degree >= 1")
            if self.base not in (REAL, RELATIONAL):
                raise ValueError("covariance base must be 'real' or 'relational'")
        if self.kind == RELATIONAL and self.base not in (INTEGER, REAL):
            raise ValueError("relational base must be 'integer' or 'real'")
        if self.zero_tolerance < 0:
            raise ValueError("zero_tolerance must be non-negative")
        if self.kind == INTEGER and self.zero_tolerance != 0:
            raise ValueError("integer ring is exact; zero_tolerance must be 0")
        if self.kind == RELATIONAL and self.base == INTEGER and self.zero_tolerance != 0:
            raise ValueError("relational ring over integers is exact; zero_tolerance must be 0")
        for name, op in _operators(self).items():
            object.__setattr__(self, name, op)


def integer_ring() -> RingSpec:
    return RingSpec(kind=INTEGER)


def real_ring() -> RingSpec:
    return RingSpec(kind=REAL)


def covariance_ring(degree: int, base: str = REAL) -> RingSpec:
    return RingSpec(kind=COVARIANCE, degree=degree, base=base)


def relational_ring() -> RingSpec:
    return RingSpec(kind=RELATIONAL, base=INTEGER)


class RelationalPayload:
    """A finite map from tuples over a fixed column set to non-zero scalars.

    The schema is kept sorted by column name so that payloads built along
    different join orders compare equal. The additive zero is the empty map
    and is normalized to an empty schema; the multiplicative one maps the
    empty tuple to scalar 1. ``+``, ``*`` and unary ``-`` are the ring
    operations, and a payload is falsy exactly when it is zero.
    """

    __slots__ = ("schema", "entries")

    def __init__(self, schema: tuple[str, ...], entries: dict[tuple, Any]):
        self.schema = schema if entries else ()
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationalPayload):
            return NotImplemented
        return self.schema == other.schema and self.entries == other.entries

    def __repr__(self) -> str:
        cols = ",".join(self.schema)
        body = ", ".join(f"{k}->{v}" for k, v in self.entries.items())
        return f"RelationalPayload[{cols}]{{{body}}}"

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __add__(self, other: RelationalPayload) -> RelationalPayload:
        return _rp_add(self, other)

    def __mul__(self, other: RelationalPayload) -> RelationalPayload:
        return _rp_mul(self, other)

    def __neg__(self) -> RelationalPayload:
        return _rp_neg(self)

    def total(self) -> Any:
        """Sum of all stored scalars (the payload marginalized to nothing)."""
        return sum(self.entries.values())


def relational_payload(schema, entries) -> RelationalPayload:
    """Build a canonical relational payload from possibly unsorted input.

    Columns are sorted by name, key tuples are permuted to match, and zero
    scalars are dropped. Accepts any iterable of column names and any
    mapping from tuples to scalars.
    """
    cols = tuple(schema)
    order = tuple(sorted(range(len(cols)), key=lambda i: cols[i]))
    sorted_cols = tuple(cols[i] for i in order)
    if len(set(sorted_cols)) != len(sorted_cols):
        raise ValueError(f"duplicate columns in payload schema: {cols}")
    out: dict[tuple, Any] = {}
    for key, val in entries.items():
        if val == 0:
            continue
        key = tuple(key)
        if len(key) != len(cols):
            raise ValueError(f"key {key} does not match schema {cols}")
        out[tuple(key[i] for i in order)] = val
    return RelationalPayload(sorted_cols, out)


def relational_total(p: RelationalPayload) -> RelationalPayload:
    """Collapse a payload to a single scalar entry {() -> total}."""
    t = p.total()
    if t == 0:
        return RelationalPayload((), {})
    return RelationalPayload((), {(): t})


def _rp_add(a: RelationalPayload, b: RelationalPayload) -> RelationalPayload:
    if not a.entries:
        return b
    if not b.entries:
        return a
    if a.schema != b.schema:
        # Mismatched non-zero schemas combine on their shared columns: both
        # sides are first marginalized onto the intersection. This keeps
        # addition total and distributivity intact; the engine itself only
        # ever adds payloads of equal schema.
        shared = tuple(c for c in a.schema if c in set(b.schema))
        a = _rp_project(a, shared)
        b = _rp_project(b, shared)
        if not a.entries:
            return b
        if not b.entries:
            return a
    out = dict(a.entries)
    for key, val in b.entries.items():
        merged = out.get(key, 0) + val
        if merged == 0:
            out.pop(key, None)
        else:
            out[key] = merged
    return RelationalPayload(a.schema, out)


def _rp_project(p: RelationalPayload, cols: tuple[str, ...]) -> RelationalPayload:
    pos = [p.schema.index(c) for c in cols]
    out: dict[tuple, Any] = {}
    for key, val in p.entries.items():
        k = tuple(key[i] for i in pos)
        merged = out.get(k, 0) + val
        if merged == 0:
            out.pop(k, None)
        else:
            out[k] = merged
    return RelationalPayload(cols, out)


def _rp_mul(a: RelationalPayload, b: RelationalPayload) -> RelationalPayload:
    if not a.entries or not b.entries:
        return RelationalPayload((), {})
    shared = tuple(c for c in a.schema if c in set(b.schema))
    merged_schema = tuple(sorted(set(a.schema) | set(b.schema)))
    a_pos = {c: i for i, c in enumerate(a.schema)}
    b_pos = {c: i for i, c in enumerate(b.schema)}
    out: dict[tuple, Any] = {}
    # With no shared columns every entry of b lands in the one group (),
    # which makes the product cartesian.
    groups: dict[tuple, list[tuple[tuple, Any]]] = {}
    b_shared = [b_pos[c] for c in shared]
    for key, val in b.entries.items():
        groups.setdefault(tuple(key[i] for i in b_shared), []).append((key, val))
    a_shared = [a_pos[c] for c in shared]
    for akey, aval in a.entries.items():
        probe = tuple(akey[i] for i in a_shared)
        for bkey, bval in groups.get(probe, ()):
            prod = aval * bval
            if prod == 0:
                continue
            mk = tuple(akey[a_pos[c]] if c in a_pos else bkey[b_pos[c]] for c in merged_schema)
            acc = out.get(mk, 0) + prod
            if acc == 0:
                out.pop(mk, None)
            else:
                out[mk] = acc
    return RelationalPayload(merged_schema, out)


def _rp_neg(a: RelationalPayload) -> RelationalPayload:
    return RelationalPayload(a.schema, {k: -v for k, v in a.entries.items()})


class CovarianceTriple:
    """Compound aggregate (count, per-slot sums, pairwise sums of products).

    Components are stored sparsely: ``s`` maps slot index (1-based) to the
    slot's sum, ``Q`` maps an index pair (i, j) with i <= j to the pairwise
    sum of products. A reader of the mirror pair (j, i) normalizes it to
    (i, j) itself; an absent slot or pair is zero. Component values are
    floats for a real base and relational payloads for the generalized ring
    over mixed data.
    """

    __slots__ = ("c", "s", "Q")

    def __init__(self, c: Any, s: dict[int, Any], Q: dict[tuple[int, int], Any]):
        self.c = c
        self.s = s
        self.Q = Q

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CovarianceTriple):
            return NotImplemented
        return self.c == other.c and self.s == other.s and self.Q == other.Q

    def __repr__(self) -> str:
        return f"CovarianceTriple(c={self.c!r}, s={self.s!r}, Q={self.Q!r})"


@dataclass(frozen=True)
class LiftingFunction:
    """How one variable's values enter the payload ring when marginalized.

    ``valuer`` translates a dictionary-encoded key id into the numeric value
    a continuous lift should use; when omitted, the id itself is the value,
    which keeps raw integer data exact.
    """

    target_variable: str
    mode: str
    slot: Optional[int] = None
    valuer: Optional[Callable[[int], float]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in (
            TO_ONE,
            IDENTITY,
            COVARIANCE_CONTINUOUS,
            COVARIANCE_CATEGORICAL,
            RELATIONAL_SINGLETON,
            RELATIONAL_UNIT,
        ):
            raise ValueError(f"unknown lift mode: {self.mode!r}")
        if self.mode in (COVARIANCE_CONTINUOUS, COVARIANCE_CATEGORICAL):
            if self.slot is None or self.slot < 1:
                raise ValueError("covariance lifts need a slot index >= 1")


def lift_to_one(var: str) -> LiftingFunction:
    return LiftingFunction(var, TO_ONE)


def lift_identity(var: str) -> LiftingFunction:
    return LiftingFunction(var, IDENTITY)


def lift_continuous(var: str, slot: int, valuer: Optional[Callable[[int], float]] = None) -> LiftingFunction:
    return LiftingFunction(var, COVARIANCE_CONTINUOUS, slot=slot, valuer=valuer)


def lift_categorical(
    var: str, slot: int, valuer: Optional[Callable[[int], Any]] = None
) -> LiftingFunction:
    """Categorical lift; ``valuer`` can coarsen values, e.g. into bin ids."""
    return LiftingFunction(var, COVARIANCE_CATEGORICAL, slot=slot, valuer=valuer)


def lift_singleton(var: str) -> LiftingFunction:
    return LiftingFunction(var, RELATIONAL_SINGLETON)


def lift_unit(var: str) -> LiftingFunction:
    return LiftingFunction(var, RELATIONAL_UNIT)


def _pair_table(degree: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``table[i][j]`` is the key (min, max) of slots i and j, 0..m, one
    tuple per pair, so triples share their pair keys instead of each
    holding its own copies (index 0 only pads)."""
    keys = {(i, j): (i, j) for i in range(degree + 1) for j in range(i, degree + 1)}
    return tuple(
        tuple(keys[min(i, j), max(i, j)] for j in range(degree + 1)) for i in range(degree + 1)
    )


def _cov_check(degree: int, slots: frozenset, pairs: frozenset, t: CovarianceTriple) -> None:
    """Raise unless every slot and pair of ``t`` lies within ``degree``,
    whose valid ``slots`` are 1..m and ``pairs`` the (i, j) with i <= j."""
    if t.s.keys() <= slots and t.Q.keys() <= pairs:
        return
    for j in t.s:
        if j not in slots:
            raise ValueError(f"slot {j} outside degree {degree}")
    for i, j in t.Q:
        if (i, j) not in pairs:
            raise ValueError(f"pair ({i},{j}) outside degree {degree}")


def _cov_add(a: CovarianceTriple, b: CovarianceTriple) -> CovarianceTriple:
    s = dict(a.s)
    for j, val in b.s.items():
        if j in s:
            merged = s[j] + val
            if merged:
                s[j] = merged
            else:
                del s[j]
        else:
            s[j] = val
    q = dict(a.Q)
    for ij, val in b.Q.items():
        if ij in q:
            merged = q[ij] + val
            if merged:
                q[ij] = merged
            else:
                del q[ij]
        else:
            q[ij] = val
    return CovarianceTriple(a.c + b.c, s, q)


def _cov_mul(pairs: tuple, a: CovarianceTriple, b: CovarianceTriple) -> CovarianceTriple:
    """Multiply two covariance triples.

    Counts multiply; each sum slot is cross-scaled by the other side's count;
    each pairwise block combines both cross-scaled blocks with a_i*b_j for
    every slot i of ``a`` and j of ``b``, keyed by ``pairs[i][j]``, so that
    (i, j) with i != j picks up a_i*b_j plus a_j*b_i, and the diagonal
    (i, i) picks up a_i*b_i once: ``lift(3) * lift(3)`` on one slot has
    Q_ii = 9 + 9 + 9 = 27. Plans whose lifts go to distinct slots never
    multiply two sums on one slot. Zero terms are never stored.
    """
    ac, bc = a.c, b.c
    s: dict[int, Any] = {}
    for j, val in a.s.items():
        term = bc * val
        if term:
            s[j] = term
    for j, val in b.s.items():
        term = ac * val
        if j in s:
            merged = s[j] + term
            if merged:
                s[j] = merged
            else:
                del s[j]
        elif term:
            s[j] = term
    # a's pairs are distinct and normalized, so they cannot collide.
    q: dict[tuple[int, int], Any] = {}
    for ij, val in a.Q.items():
        term = bc * val
        if term:
            q[ij] = term
    for ij, val in b.Q.items():
        term = ac * val
        if not term:
            continue
        if ij in q:
            merged = q[ij] + term
            if merged:
                q[ij] = merged
            else:
                del q[ij]
        else:
            q[ij] = term
    for i, av in a.s.items():
        for j, bv in b.s.items():
            term = av * bv
            if not term:
                continue
            ij = pairs[i][j]
            if ij in q:
                merged = q[ij] + term
                if merged:
                    q[ij] = merged
                else:
                    del q[ij]
            else:
                q[ij] = term
    return CovarianceTriple(ac * bc, s, q)


def _operators(spec: RingSpec) -> dict[str, Any]:
    """The operators and constants :class:`RingSpec` binds for ``spec``."""
    tol = spec.zero_tolerance
    ops: dict[str, Any] = dict(
        is_zero=operator.not_, check=lambda payload: None, pairs=(),
        close=operator.eq, exact=True, flat=lambda p: [p], columns=("payload",),
    )
    isclose = partial(math.isclose, rel_tol=1e-9, abs_tol=tol)
    if spec.kind in (INTEGER, REAL):
        exact = spec.kind == INTEGER
        fast, kind = (int, Integral) if exact else (float, Real)

        def check(p: Any) -> None:
            if type(p) is not fast and (type(p) is bool or not isinstance(p, kind)):
                raise TypeError(f"payload {p!r} is not {'an integer' if exact else 'a real number'}")

        ops.update(add=operator.add, mul=operator.mul, neg=operator.neg, check=check,
                   zero=0 if exact else 0.0, one=1 if exact else 1.0)
        if not exact:
            ops.update(close=isclose, exact=False)
        if tol:
            ops["is_zero"] = lambda a: abs(a) <= tol
    elif spec.kind == RELATIONAL:
        # ``not_`` holds exactly for the empty map.
        ops.update(add=_rp_add, mul=_rp_mul, neg=_rp_neg, flat=lambda p: [p.total()],
                   zero=RelationalPayload((), {}), one=RelationalPayload((), {(): 1}))
        if tol:
            ops["is_zero"] = lambda a: all(abs(v) <= tol for v in a.entries.values())
    else:
        real = spec.base == REAL
        pairs = _pair_table(spec.degree)
        slots = frozenset(range(1, spec.degree + 1))
        valid = frozenset(pairs[i][j] for i in slots for j in slots)
        ops.update(
            add=_cov_add, mul=partial(_cov_mul, pairs), pairs=pairs,
            check=partial(_cov_check, spec.degree, slots, valid),
            neg=lambda a: CovarianceTriple(
                -a.c, {j: -v for j, v in a.s.items()}, {ij: -v for ij, v in a.Q.items()}
            ),
            is_zero=lambda a: not (a.c or any(a.s.values()) or any(a.Q.values())),
            zero=CovarianceTriple(0.0 if real else RelationalPayload((), {}), {}, {}),
            one=CovarianceTriple(1.0 if real else RelationalPayload((), {(): 1}), {}, {}),
            flat=None, columns=None,
        )
        if real and tol:
            ops["is_zero"] = lambda a: abs(a.c) <= tol and all(
                abs(v) <= tol for part in (a.s, a.Q) for v in part.values()
            )
        if real:
            ids = range(1, spec.degree + 1)
            upper = [pairs[i][j] for i in ids for j in ids if i <= j]

            def flat(t: CovarianceTriple) -> list:
                s, q = t.s.get, t.Q.get
                return [t.c, *[s(j, 0.0) for j in ids], *[q(ij, 0.0) for ij in upper]]

            ops.update(
                flat=flat, exact=False,
                close=lambda a, b: all(map(isclose, flat(a), flat(b))),
                columns=("c", *(f"s_{j}" for j in ids), *(f"q_{i}_{j}" for i, j in upper)),
            )
    return ops


def ring_one(spec: RingSpec) -> Any:
    return spec.one


def ring_add(spec: RingSpec, a: Any, b: Any) -> Any:
    """``a + b``; both operands pass the ring's ``check`` first."""
    spec.check(a)
    spec.check(b)
    return spec.add(a, b)


def ring_mul(spec: RingSpec, a: Any, b: Any) -> Any:
    """``a * b``; both operands pass the ring's ``check`` first."""
    spec.check(a)
    spec.check(b)
    return spec.mul(a, b)


def ring_negate(spec: RingSpec, a: Any) -> Any:
    return spec.neg(a)


def is_zero(spec: RingSpec, a: Any) -> bool:
    return spec.is_zero(a)


def lift(spec: RingSpec, f: LiftingFunction, x: Any) -> Any:
    """Map one domain value into the ring through the lifting function ``f``."""
    mode = f.mode
    if mode == TO_ONE:
        return spec.one
    if mode == IDENTITY:
        if spec.kind not in (INTEGER, REAL):
            raise ValueError("identity lift needs a plain numeric ring")
        v = f.valuer(x) if f.valuer is not None else x
        if not isinstance(v, (int, float)):
            raise ValueError(f"identity lift of non-numeric value {v!r}")
        return int(v) if spec.kind == INTEGER else float(v)
    if mode == COVARIANCE_CONTINUOUS:
        if spec.kind != COVARIANCE:
            raise ValueError("continuous lift needs a covariance ring")
        v = f.valuer(x) if f.valuer is not None else x
        if not isinstance(v, (int, float)):
            raise ValueError(f"continuous lift of non-numeric value {v!r}")
        j = f.slot
        if j > spec.degree:
            raise ValueError(f"slot {j} outside degree {spec.degree}")
        if spec.base == REAL:
            v = float(v)
            one, sv, qv = 1.0, v, v * v
        else:
            one, sv, qv = (RelationalPayload((), {(): n}) for n in (1, v, v * v))
        if v == 0:
            return CovarianceTriple(one, {}, {})
        return CovarianceTriple(one, {j: sv}, {spec.pairs[j][j]: qv})
    if mode == COVARIANCE_CATEGORICAL:
        if spec.kind != COVARIANCE or spec.base != RELATIONAL:
            raise ValueError("categorical lift needs a covariance ring over relational payloads")
        j = f.slot
        if j > spec.degree:
            raise ValueError(f"slot {j} outside degree {spec.degree}")
        if f.valuer is not None:
            x = f.valuer(x)
        group = RelationalPayload((f.target_variable,), {(x,): 1})
        return CovarianceTriple(
            RelationalPayload((), {(): 1}),
            {j: group},
            {spec.pairs[j][j]: group},
        )
    if mode == RELATIONAL_SINGLETON:
        if spec.kind != RELATIONAL:
            raise ValueError("singleton lift needs a relational ring")
        return RelationalPayload((f.target_variable,), {(x,): 1})
    if mode == RELATIONAL_UNIT:
        if spec.kind != RELATIONAL:
            raise ValueError("unit lift needs a relational ring")
        return RelationalPayload((), {(): 1})
    raise ValueError(f"unknown lift mode: {mode!r}")


def lift_row(spec: RingSpec, lifted: Sequence[tuple[int, LiftingFunction]]) -> Callable:
    """``op(v, key)``: the payload ``v`` multiplied by the lift of
    ``key[pos]`` through ``f`` for each (position, function) pair of
    ``lifted`` in turn, as ``spec.mul`` and :func:`lift` give it, in one
    call. Built once per row loop level, since a level's lifts are fixed.

    On a real-based covariance ring whose lifts are all continuous and go
    to distinct slots within the degree, a payload holding only a count c
    becomes one triple, built in the order the chain of single lifts and
    ``_cov_mul`` calls computes it, so its floats are the same: for each
    value x_b (in ``lifted`` order, zeros skipped), Q_bb = c*(x_b*x_b),
    then Q_ab = s_a*x_b for each slot a lifted before, then s_b = c*x_b,
    each zero term left out. Those ring, mode and slot tests are made
    here, once; a value the valuer maps to no number still raises
    ``ValueError``. Any other ring, lift or payload (one that already
    holds sums) gets the chain of single lifts, each checked per value.
    """
    lifted = tuple(lifted)
    mul = spec.mul

    def chain(v: Any, key: tuple) -> Any:
        for pos, f in lifted:
            v = mul(v, lift(spec, f, key[pos]))
        return v

    slots = {f.slot for _, f in lifted}
    if not (
        spec.kind == COVARIANCE
        and spec.base == REAL
        and lifted
        and all(f.mode == COVARIANCE_CONTINUOUS for _, f in lifted)
        and len(slots) == len(lifted)
        and max(slots) <= spec.degree
    ):
        return chain
    pairs = spec.pairs
    plan = tuple((pos, f.slot, pairs[f.slot], f.valuer) for pos, f in lifted)

    def direct(v: Any, key: tuple) -> Any:
        if v.s or v.Q:
            return chain(v, key)
        # the chain multiplies the count by each lift's 1.0
        c = v.c * 1.0
        s: dict[int, Any] = {}
        q: dict[tuple[int, int], Any] = {}
        for pos, j, row, valuer in plan:
            x = key[pos] if valuer is None else valuer(key[pos])
            if type(x) is not float:
                if not isinstance(x, (int, float)):
                    raise ValueError(f"continuous lift of non-numeric value {x!r}")
                x = float(x)
            if x == 0:
                continue
            term = c * (x * x)
            if term:
                q[row[j]] = term
            for i, si in s.items():
                term = si * x
                if term:
                    q[row[i]] = term
            term = c * x
            if term:
                s[j] = term
        return CovarianceTriple(c, s, q)

    return direct
