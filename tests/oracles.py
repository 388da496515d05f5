"""Independent reference implementations used to freeze expected values.

Nothing in here touches the package under test. Each oracle is the most
direct computation available: nested loops over explicit tuples, dense
numpy linear algebra, exhaustive search over small combinatorial spaces.
They are deliberately slow and obvious.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

Row = tuple
Table = Mapping[Row, Any]


def join_rows(
    tables: Sequence[tuple[Sequence[str], Table]],
    one: Any = 1,
) -> list[tuple[dict[str, Any], Any]]:
    """All consistent assignments of the joined tables, with payloads
    multiplied left to right starting from ``one``, by plain nested loops."""
    out: list[tuple[dict[str, Any], Any]] = [({}, one)]
    for schema, table in tables:
        nxt: list[tuple[dict[str, Any], Any]] = []
        for assign, mult in out:
            for key, payload in table.items():
                merged = dict(assign)
                ok = True
                for var, val in zip(schema, key):
                    if merged.get(var, val) != val:
                        ok = False
                        break
                    merged[var] = val
                if ok:
                    nxt.append((merged, mult * payload))
        out = nxt
    return out


def aggregate(
    tables: Sequence[tuple[Sequence[str], Table]],
    free: Sequence[str],
) -> dict[Row, Any]:
    """Group-by-free sum of products over the natural join (scalar payloads)."""
    acc: dict[Row, Any] = {}
    for assign, mult in join_rows(tables):
        key = tuple(assign[v] for v in free)
        acc[key] = acc.get(key, 0) + mult
    return {k: v for k, v in acc.items() if v != 0}


def statistics(
    tables: Sequence[tuple[Sequence[str], Table]],
    slots: Sequence[str],
    categorical: Sequence[str] = (),
) -> tuple[Any, dict, dict]:
    """Count, per-slot sums, and pairwise products by scanning the join.

    Continuous slots produce numbers; categorical slots produce frequency
    dictionaries keyed by the value (pairs of categoricals by value pairs,
    mixed pairs by the categorical value scaled by the continuous one).
    Matches the nested layout (1-based slots, i <= j pairs) used by the
    maintained triples so tests can compare block by block.
    """
    cat = set(categorical)
    rows = join_rows(tables)
    c = sum(m for _, m in rows)
    s: dict[int, Any] = {}
    q: dict[tuple[int, int], Any] = {}
    for idx, v in enumerate(slots, start=1):
        if v in cat:
            d: dict = {}
            for assign, m in rows:
                d[(assign[v],)] = d.get((assign[v],), 0) + m
            s[idx] = {k: n for k, n in d.items() if n != 0}
        else:
            s[idx] = sum(m * assign[v] for assign, m in rows)
    for i, vi in enumerate(slots, start=1):
        for j, vj in enumerate(slots, start=1):
            if i > j:
                continue
            if vi in cat and vj in cat:
                d = {}
                for assign, m in rows:
                    if i == j:
                        key = (assign[vi],)
                    else:
                        pair = sorted(((vi, assign[vi]), (vj, assign[vj])))
                        key = tuple(val for _, val in pair)
                    d[key] = d.get(key, 0) + m
                q[(i, j)] = {k: n for k, n in d.items() if n != 0}
            elif vi in cat or vj in cat:
                cvar, nvar = (vi, vj) if vi in cat else (vj, vi)
                d = {}
                for assign, m in rows:
                    key = (assign[cvar],)
                    d[key] = d.get(key, 0) + m * assign[nvar]
                q[(i, j)] = {k: n for k, n in d.items() if n != 0}
            else:
                q[(i, j)] = sum(m * assign[vi] * assign[vj] for assign, m in rows)
    return c, s, q


def mutual_information(joint: Mapping[tuple[Any, Any], float]) -> float:
    """MI in nats from a two-way contingency table of counts."""
    n = sum(joint.values())
    if n <= 0:
        raise ValueError("empty table")
    left: dict[Any, float] = {}
    right: dict[Any, float] = {}
    for (x, y), cnt in joint.items():
        left[x] = left.get(x, 0) + cnt
        right[y] = right.get(y, 0) + cnt
    total = 0.0
    for (x, y), cnt in joint.items():
        if cnt == 0:
            continue
        total += (cnt / n) * math.log(n * cnt / (left[x] * right[y]))
    return total


def spanning_trees(m: int) -> Iterable[list[tuple[int, int]]]:
    """Every labeled spanning tree on m nodes, decoded from Pruefer sequences."""
    if m == 1:
        yield []
        return
    if m == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(m), repeat=m - 2):
        degree = [1] * m
        for x in seq:
            degree[x] += 1
        edges = []
        heap = [i for i in range(m) if degree[i] == 1]
        heapq.heapify(heap)
        for x in seq:
            leaf = heapq.heappop(heap)
            edges.append((min(leaf, x), max(leaf, x)))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(heap, x)
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        edges.append((min(a, b), max(a, b)))
        yield edges


def best_spanning_tree_weight(weights: Sequence[Sequence[float]]) -> float:
    """Maximum total weight over every spanning tree (exhaustive)."""
    m = len(weights)
    best = -math.inf
    for edges in spanning_trees(m):
        w = sum(weights[a][b] for a, b in edges)
        best = max(best, w)
    return best


def least_squares(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Coefficients [intercept, slopes...] from dense least squares."""
    design = np.hstack([np.ones((len(xs), 1)), xs])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return coef


def triangle_count(
    r: Iterable[tuple[Any, Any]],
    s: Iterable[tuple[Any, Any]],
    t: Iterable[tuple[Any, Any]],
) -> int:
    """Number of (a, b, c) with (a,b) in R, (b,c) in S, (c,a) in T."""
    s_by_b: dict[Any, list] = {}
    for b, c in s:
        s_by_b.setdefault(b, []).append(c)
    t_set = set(t)
    count = 0
    for a, b in r:
        for c in s_by_b.get(b, ()):
            if (c, a) in t_set:
                count += 1
    return count


def chain_costs(dims: Sequence[int]):
    """(bracketing, cost) for every full parenthesization of the chain."""
    n = len(dims) - 1

    def walk(i: int, j: int):
        if i == j:
            yield i, 0, (dims[i - 1], dims[i])
        else:
            for k in range(i, j):
                for lb, lc, (lr, _lc2) in walk(i, k):
                    for rb, rc, (_rr, rc2) in walk(k + 1, j):
                        yield (lb, rb), lc + rc + lr * dims[k] * rc2, (lr, rc2)

    for b, c, _shape in walk(1, n):
        yield b, c


def min_chain_cost(dims: Sequence[int]) -> tuple[int, list]:
    """Exhaustive minimum multiplication count and the bracketings that hit it."""
    best = None
    winners: list = []
    for b, c in chain_costs(dims):
        if best is None or c < best:
            best, winners = c, [b]
        elif c == best:
            winners.append(b)
    return best, winners


def chain_product(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = out @ m
    return out
