"""Deterministic workloads for the fivm benchmark.

Each workload owns its generated data and hands the engine nothing but
(key, payload) pairs through the public API: ``plan_view_tree``,
``RuntimeState.load`` / ``apply_batch``, ``enumerate_result``,
``train_linear_regression`` and ``mcm_rank_update``. Every tuple stream is
a sliding window: inserts of fresh tuples alternate with deletes of the
oldest live tuple, so deletes are always exercised and the live size stays
put. The same seed gives the same data and the same event sequence.

Alongside the engine, each workload keeps its own plain-Python (or numpy)
copy of the live data, from which ``check`` derives the expected result
without touching any engine code.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from typing import Any, Callable, Optional

import numpy as np

from fivm.apps import (
    RegressionConfig,
    build_covariance_query,
    build_matrix_chain,
    mcm_rank_update,
    second_moment_matrix,
    train_linear_regression,
)
from fivm.ivm import RuntimeState, UpdateDelta
from fivm.queries import Query, VariableOrder, canonical_free_top_order
from fivm.rings import (
    CovarianceTriple,
    integer_ring,
    lift_continuous,
    lift_to_one,
    ring_negate,
    ring_one,
)
from fivm.viewtree import ViewTree, plan_view_tree

BATCH = 1000
REL_TOL = 1e-9


class Window:
    """Sliding-window event stream over one relation.

    ``live`` holds the current (key, payload) tuples, oldest first.
    ``next`` alternates between inserting ``fresh()`` and deleting the
    oldest live tuple (its payload negated).
    """

    def __init__(self, name: str, live: list, fresh: Callable[[], tuple], neg):
        self.name = name
        self.live = deque(live)
        self.fresh = fresh
        self.neg = neg
        self.inserting = True

    def next(self) -> tuple[tuple, Any]:
        if self.inserting:
            key, val = self.fresh()
            self.live.append((key, val))
        else:
            key, val = self.live.popleft()
            val = self.neg(val)
        self.inserting = not self.inserting
        return key, val


class Workload:
    """One benchmark workload: data, plan, update stream, answer and check.

    Subclasses pass their windows (round-robin event sources) to
    ``_start`` and set ``ring``. A traced run replays ``trace_rates``
    (updates, batches) per second of budget. ``update_tuples`` is the number of
    tuples of change one single update carries.
    """

    name = ""
    trace_rates = (100.0, 1.0)
    update_tuples = 1

    def __init__(self, seed: int, scale: float = 1.0):
        self.rng = random.Random(seed)
        self.scale = scale
        self.windows: list[Window] = []
        self.live: dict[str, dict] = {}
        self._turn = 0
        self._next_id = 0

    def _fresh_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _size(self, n: int, floor: int = 4) -> int:
        return max(floor, int(n * self.scale))

    def _start(self, windows: list[Window]) -> None:
        self.windows = windows
        for w in windows:
            for key, val in w.live:
                self.observe(w.name, key, val)

    # --- engine side -----------------------------------------------------

    def plan(self) -> ViewTree:
        raise NotImplementedError

    def initial(self) -> dict[str, list]:
        return {w.name: list(w.live) for w in self.windows}

    def setup(self) -> RuntimeState:
        """Plan, load and evaluate; this is what ``setup_s`` times."""
        state = RuntimeState(self.plan())
        state.load(self.initial())
        return state

    def _event(self, w: Optional[Window] = None) -> tuple[str, tuple, Any]:
        """Next event of ``w``, or of the windows in round-robin order."""
        if w is None:
            w = self.windows[self._turn]
            # Each relation gets an insert and its paired delete before the
            # turn moves on, so every window stays at its initial size.
            if not w.inserting:
                self._turn = (self._turn + 1) % len(self.windows)
        key, val = w.next()
        self.observe(w.name, key, val)
        return w.name, key, val

    def next_update(self) -> Callable[[RuntimeState], int]:
        """The next single-update call, ready to run against a state."""
        name, key, val = self._event()
        deltas = [UpdateDelta(name, ((key, val),))]
        return lambda state: state.apply_batch(deltas)

    def next_batch(self) -> tuple[Callable[[RuntimeState], int], int]:
        """The next batch-1000 call and the number of tuples it carries."""
        grouped: dict[str, list] = {}
        for _ in range(BATCH):
            name, key, val = self._event()
            grouped.setdefault(name, []).append((key, val))
        deltas = [UpdateDelta(name, tuple(pairs)) for name, pairs in grouped.items()]
        return (lambda state: state.apply_batch(deltas)), BATCH

    def app(self, rows: list) -> Any:
        """Post-process one full listing into the user's answer."""
        return len(rows)

    # --- benchmark side --------------------------------------------------

    def observe(self, name: str, key: tuple, val: Any) -> None:
        """Track one event in the benchmark's own copy of the live data."""
        rel = self.live.setdefault(name, {})
        c = rel.get(key, 0) + val
        if c:
            rel[key] = c
        else:
            del rel[key]

    def check(self, state: RuntimeState, rows: list) -> Optional[str]:
        """First difference of the maintained result, or of the listing
        ``rows`` just taken from it, from the expected result; None if none."""
        raise NotImplementedError


def first_scalar_diff(got: dict, want: dict, exact: bool) -> Optional[str]:
    """First key whose scalar payloads differ; a missing key counts as 0."""
    scale = max((abs(v) for v in want.values()), default=1.0) or 1.0
    for key in list(want) + [k for k in got if k not in want]:
        a = got.get(key, 0)
        b = want.get(key, 0)
        if exact:
            same = a == b
        else:
            same = math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL * scale)
        if not same:
            return f"key {key!r}: maintained {a!r}, expected {b!r}"
    return None


def _cov_components(t: Optional[CovarianceTriple]) -> dict:
    if t is None:
        return {}
    out = {("c",): t.c}
    out.update({("s", j): v for j, v in t.s.items()})
    out.update({("Q",) + ij: v for ij, v in t.Q.items()})
    return out


class ChainInt(Workload):
    """Count of the path join R(A,B) - S(B,C) - T(C,D) over the integers."""

    name = "chain_int"
    trace_rates = (1000.0, 2.0)

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        n = self._size(20_000)
        nb = nc = max(2, n // 10)
        rng = self.rng
        self.ring = integer_ring()
        neg = lambda v: -v
        fresh_r = lambda: ((self._fresh_id(), rng.randrange(nb)), 1)
        fresh_s = lambda: ((rng.randrange(nb), rng.randrange(nc)), 1)
        fresh_t = lambda: ((rng.randrange(nc), self._fresh_id()), 1)
        self._start(
            [
                Window(name, [fresh() for _ in range(n)], fresh, neg)
                for name, fresh in (("R", fresh_r), ("S", fresh_s), ("T", fresh_t))
            ]
        )

    def plan(self) -> ViewTree:
        query = Query(
            [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))],
            free=(),
            ring=self.ring,
            lifts=tuple(lift_to_one(v) for v in "ABCD"),
        )
        order = VariableOrder([["B", "A", ["C", "D"]]])
        return plan_view_tree(query, order, updatable=("R", "S", "T"))

    def expected(self) -> dict:
        by_b: dict = {}
        for (_a, b), c in self.live["R"].items():
            by_b[b] = by_b.get(b, 0) + c
        by_c: dict = {}
        for (c, _d), m in self.live["T"].items():
            by_c[c] = by_c.get(c, 0) + m
        total = 0
        for (b, c), m in self.live["S"].items():
            total += m * by_b.get(b, 0) * by_c.get(c, 0)
        return {(): total} if total else {}

    def check(self, state, rows):
        want = self.expected()
        diff = first_scalar_diff(dict(state.result().entries), want, exact=True)
        return diff or first_scalar_diff(dict(rows), want, exact=True)


class QhierListing(Workload):
    """Full listing of R(A,B) join S(A,C), free A,B,C, canonical order."""

    name = "qhier_listing"
    trace_rates = (1000.0, 0.1)

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        n = self._size(20_000)
        na = max(2, n // 10)
        rng = self.rng
        self.ring = integer_ring()
        neg = lambda v: -v
        fresh_r = lambda: ((rng.randrange(na), self._fresh_id()), 1)
        fresh_s = lambda: ((rng.randrange(na), self._fresh_id()), 1)
        self._start(
            [
                Window("R", [fresh_r() for _ in range(n)], fresh_r, neg),
                Window("S", [fresh_s() for _ in range(n)], fresh_s, neg),
            ]
        )

    def plan(self) -> ViewTree:
        query = Query(
            [("R", ("A", "B")), ("S", ("A", "C"))], free=("A", "B", "C"), ring=self.ring
        )
        return plan_view_tree(query, canonical_free_top_order(query), updatable=("R", "S"))

    def expected(self) -> dict:
        s_by_a: dict = {}
        for (a, c), m in self.live["S"].items():
            s_by_a.setdefault(a, []).append((c, m))
        return {
            (a, b, c): mr * ms
            for (a, b), mr in self.live["R"].items()
            for c, ms in s_by_a.get(a, ())
        }

    def check(self, state, rows):
        diff = first_scalar_diff(dict(rows), self.expected(), exact=True)
        if diff is None:
            want = dict(state.recompute_oracle().entries)
            diff = first_scalar_diff(dict(state.result().entries), want, exact=True)
        return diff


HOUSING = (
    ("House", ("P", "H1", "H2", "H3")),
    ("Shop", ("P", "S1", "S2")),
    ("Institution", ("P", "I1")),
    ("Restaurant", ("P", "R1")),
    ("Demographics", ("P", "D1")),
    ("Transport", ("P", "T1")),
)
# Tuples per postcode of each static relation.
HOUSING_FANOUT = {"Shop": 2, "Institution": 1, "Restaurant": 2, "Demographics": 1, "Transport": 1}
GD_ITERATIONS = 2000


class HousingCov(Workload):
    """Covariance triple of a Housing-style star join on postcode P."""

    name = "housing_cov"
    trace_rates = (100.0, 0.5)

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        n = self._size(20_000)
        self.postcodes = max(2, n // 20)
        rng = self.rng
        columns = [v for _, schema in HOUSING for v in schema[1:]]
        # Dictionary-encoded attribute ids; the lifts read real values
        # (two decimals, like prices and distances) through these tables.
        self.values = {v: [round(rng.uniform(1.0, 500.0), 2) for _ in range(997)] for v in columns}
        cq = build_covariance_query(
            list(HOUSING), {v: "continuous" for v in columns}
        )
        lifts = [
            lift_continuous(v, cq.slots.index(v) + 1, valuer=self.values[v].__getitem__)
            if v in self.values
            else lift_to_one(v)
            for v in cq.query.variables
        ]
        self.query = Query(list(HOUSING), free=(), ring=cq.query.ring, lifts=lifts)
        self.slots = cq.slots
        self.ring = cq.query.ring
        one = ring_one(self.ring)
        neg = lambda v: ring_negate(self.ring, v)

        def row(schema) -> tuple:
            return tuple(rng.randrange(997) for _ in schema[1:])

        self.static = {
            name: [
                ((p,) + row(schema), one)
                for p in range(self.postcodes)
                for _ in range(HOUSING_FANOUT[name])
            ]
            for name, schema in HOUSING[1:]
        }
        fresh = lambda: ((rng.randrange(self.postcodes),) + row(HOUSING[0][1]), one)
        self._start([Window("House", [fresh() for _ in range(n)], fresh, neg)])
        self.theta: Optional[dict] = None

    def plan(self) -> ViewTree:
        order = VariableOrder(
            [["P", ["H1", ["H2", "H3"]], ["S1", "S2"], "I1", "R1", "D1", "T1"]]
        )
        return plan_view_tree(self.query, order, updatable=("House",))

    def initial(self):
        data = super().initial()
        data.update(self.static)
        return data

    def observe(self, name, key, val):
        super().observe(name, key, 1 if val.c > 0 else -1)

    def app(self, rows):
        stats = rows[0][1]
        moments = second_moment_matrix(self.ring, self.slots, stats)
        features = self.slots[1:]
        idx = [0] + [self.slots.index(f) + 1 for f in features]
        # 1/trace bounds the step by 1/lambda_max of the feature block, so
        # gradient descent cannot diverge; the iteration cap is fixed.
        step = 1.0 / float(np.trace(moments[np.ix_(idx, idx)]))
        cfg = RegressionConfig(
            label=self.slots[0],
            features=features,
            step_size=step,
            max_iterations=GD_ITERATIONS,
            warm_start=True,
        )
        res = train_linear_regression(self.ring, self.slots, stats, cfg, prior=self.theta)
        self.theta = res.theta
        return res

    def expected(self) -> dict:
        """Count, sums and second moments of the join, computed with numpy."""
        per_p: dict = {}
        for name, _schema in HOUSING[1:]:
            for key, _ in self.static[name]:
                per_p.setdefault(key[0], {}).setdefault(name, []).append(key[1:])
        rows = []
        for key, m in self.live["House"].items():
            parts = [[key[1:]]] + [per_p[key[0]][name] for name, _ in HOUSING[1:]]
            for combo in itertools.product(*parts):
                rows.extend([sum(combo, ())] * m)
        cols = [v for _, schema in HOUSING for v in schema[1:]]
        x = np.array(
            [[self.values[v][r[i]] for i, v in enumerate(cols)] for r in rows], dtype=float
        ).reshape(len(rows), len(cols))
        order = [cols.index(v) for v in self.slots]
        x = x[:, order]
        m = len(self.slots)
        out = {("c",): float(len(rows))}
        sums = x.sum(axis=0)
        q = x.T @ x
        for j in range(m):
            out[("s", j + 1)] = float(sums[j])
            for k in range(j, m):
                out[("Q", j + 1, k + 1)] = float(q[j, k])
        return out

    def check(self, state, rows):
        want = self.expected()
        for got in (state.result().entries.get(()), rows[0][1] if rows else None):
            got = _cov_components(got)
            # Counts, sums and second moments differ in scale by orders of
            # magnitude, so each kind gets its own tolerance.
            for kind in ("c", "s", "Q"):
                diff = first_scalar_diff(
                    {k: v for k, v in got.items() if k[0] == kind},
                    {k: v for k, v in want.items() if k[0] == kind},
                    exact=False,
                )
                if diff:
                    return diff
        return None


class McmP64(Workload):
    """Product of three dense p x p real matrices under rank-one and point updates.

    Single updates are rank-one updates cycling over A1, A2, A3, each a
    change to all p * p entries of one matrix; batches are point updates
    to the entries of all three, from the sliding windows.
    """

    name = "mcm_p64"
    trace_rates = (1.5, 0.1)
    window = 2

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        p = self.p = self._size(64, floor=3)
        self.update_tuples = p * p
        rng = self.rng
        self.chain = build_matrix_chain([p] * 4)
        self.ring = self.chain.query.ring
        self.dense = [np.zeros((p, p)) for _ in range(3)]
        neg = lambda v: -v
        point = lambda: ((rng.randrange(p), rng.randrange(p)), rng.uniform(-1.0, 1.0))
        self._start(
            [
                Window(
                    f"A{i + 1}",
                    [((r, c), rng.uniform(-1.0, 1.0)) for r in range(p) for c in range(p)],
                    point,
                    neg,
                )
                for i in range(3)
            ]
        )
        self.rank_live: list[deque] = [deque() for _ in range(3)]
        self._rank_turn = 0

    def plan(self) -> ViewTree:
        return plan_view_tree(self.chain.query, self.chain.order, updatable=("A1", "A2", "A3"))

    def observe(self, name, key, val):
        self.dense[int(name[1:]) - 1][key] += val

    def next_update(self):
        """A rank-one update u v^T; a full window retracts its oldest term."""
        i = self._rank_turn
        self._rank_turn = (i + 1) % 3
        live = self.rank_live[i]
        if len(live) >= self.window:
            u, v = live.popleft()
            u = [-x for x in u]
        else:
            u = [self.rng.uniform(-1.0, 1.0) for _ in range(self.p)]
            v = [self.rng.uniform(-1.0, 1.0) for _ in range(self.p)]
            live.append((u, v))
        self.dense[i] += np.outer(u, v)
        return lambda state: mcm_rank_update(state, i + 1, u, v)

    def app(self, rows):
        out = np.zeros((self.p, self.p))
        for (r, c), val in rows:
            out[r, c] = val
        return out

    def check(self, state, rows):
        want_m = self.dense[0] @ self.dense[1] @ self.dense[2]
        want = {(r, c): float(want_m[r, c]) for r in range(self.p) for c in range(self.p)}
        diff = first_scalar_diff(dict(state.result().entries), want, exact=False)
        return diff or first_scalar_diff(dict(rows), want, exact=False)


WORKLOADS = {w.name: w for w in (ChainInt, QhierListing, HousingCov, McmP64)}
