"""Consumers of maintained aggregate payloads.

The engine keeps one payload per result group; everything in this module
turns such payloads into answers people actually want. Degree-m triples
feed covariance matrices, batch-gradient regression, and pairwise mutual
information with a maximum-dependence spanning tree on top. A separate
family of helpers compiles a matrix chain product into a join-aggregate
query whose maintained root is the product matrix, with rank-one factor
updates propagated without ever expanding them into full matrices.

Slot bookkeeping is deliberately explicit: every builder hands back the
tuple of variable names in slot order, and every consumer takes it again,
so there is no hidden registry tying a triple to its meaning.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from .ivm import FactorizedDelta, RuntimeState
from .queries import Query, VariableOrder
from .relations import DenseRelation, Relation
from .rings import (
    REAL,
    RELATIONAL,
    CovarianceTriple,
    RingSpec,
    covariance_ring,
    lift_categorical,
    lift_continuous,
    lift_to_one,
    real_ring,
)

__all__ = [
    "Binned",
    "CovarianceQuery",
    "build_covariance_query",
    "second_moment_matrix",
    "covariance_matrix",
    "RegressionConfig",
    "RegressionResult",
    "DivergenceError",
    "train_linear_regression",
    "MIMatrix",
    "mutual_information_matrix",
    "ChowLiuTree",
    "chow_liu_tree",
    "MatrixChain",
    "build_matrix_chain",
    "mcm_rank_update",
    "export_covariance_csv",
    "export_mi_csv",
    "export_theta_csv",
    "export_chow_liu_csv",
    "write_csv",
]

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Binned:
    """Equal-width binning of a numeric column into ``bins`` categories.

    Values below ``lo`` land in bin 0 and values at or above ``hi`` in the
    last bin, so a slightly misjudged range degrades instead of crashing.
    """

    lo: float
    hi: float
    bins: int = 100

    def __post_init__(self) -> None:
        if not self.hi > self.lo:
            raise ValueError(f"empty bin range [{self.lo}, {self.hi})")
        if self.bins < 1:
            raise ValueError("need at least one bin")

    def bin_of(self, x: Any) -> int:
        i = int((float(x) - self.lo) * self.bins / (self.hi - self.lo))
        return min(max(i, 0), self.bins - 1)


@dataclass(frozen=True)
class CovarianceQuery:
    """A compiled statistics query plus the slot order of its triple."""

    query: Query
    slots: tuple[str, ...]


def build_covariance_query(
    relations: Sequence[tuple[str, Sequence[str]]],
    kinds: Mapping[str, Union[str, Binned]],
) -> CovarianceQuery:
    """Compile a join over ``relations`` into a degree-m triple query.

    ``kinds`` tags the variables that become slots: ``"continuous"`` enters
    sums and products by value, ``"categorical"`` (or a :class:`Binned`)
    enters as a per-value group. Untagged variables are summed out with the
    one-lift and only contribute multiplicity. Slots are numbered 1..m in
    first-appearance order across the relation schemas; the scalar base is
    real exactly when every tagged variable is continuous.
    """
    seen: list[str] = []
    for _name, schema in relations:
        for v in schema:
            if v not in seen:
                seen.append(v)
    unknown = set(kinds) - set(seen)
    if unknown:
        raise ValueError(f"kinds given for unknown variables: {sorted(unknown)}")
    slots = tuple(v for v in seen if v in kinds)
    if not slots:
        raise ValueError("no variable was tagged continuous or categorical")
    all_continuous = all(kinds[v] == CONTINUOUS for v in slots)
    base = REAL if all_continuous else RELATIONAL
    ring = covariance_ring(len(slots), base=base)
    lifts = []
    for v in seen:
        kind = kinds.get(v)
        if kind is None:
            lifts.append(lift_to_one(v))
        elif kind == CONTINUOUS:
            lifts.append(lift_continuous(v, slots.index(v) + 1))
        elif kind == CATEGORICAL:
            lifts.append(lift_categorical(v, slots.index(v) + 1))
        elif isinstance(kind, Binned):
            lifts.append(lift_categorical(v, slots.index(v) + 1, valuer=kind.bin_of))
        else:
            raise ValueError(f"unknown column kind {kind!r} for {v}")
    query = Query(
        relations=[(name, tuple(schema)) for name, schema in relations],
        free=(),
        ring=ring,
        lifts=tuple(lifts),
    )
    return CovarianceQuery(query=query, slots=slots)


# The row and column indices of an n x n upper triangle, built once per n.
_upper_triangle = lru_cache(maxsize=None)(np.triu_indices)


def second_moment_matrix(
    spec: RingSpec, slots: Sequence[str], stats: CovarianceTriple
) -> np.ndarray:
    """Dense (m+1) x (m+1) moment matrix with an intercept row and column.

    Entry (0, 0) is the tuple count, row and column 0 hold the slot sums,
    and the rest holds the pairwise products: the ring's ``flat`` form of
    the triple is the upper triangle, row by row. Real base only.
    """
    if spec.base != REAL:
        raise ValueError("dense moments need a real scalar base")
    m = spec.degree
    if len(slots) != m:
        raise ValueError(f"{m} slots expected, got {len(slots)}")
    rows, cols = _upper_triangle(m + 1)
    out = np.zeros((m + 1, m + 1))
    out[rows, cols] = spec.flat(stats)
    out[cols, rows] = out[rows, cols]
    return out


def covariance_matrix(
    spec: RingSpec, slots: Sequence[str], stats: CovarianceTriple
) -> np.ndarray:
    """Sample covariance of the slots, normalized by the tuple count."""
    moments = second_moment_matrix(spec, slots, stats)
    n = moments[0, 0]
    if n <= 0:
        raise ValueError("covariance of an empty population")
    mean = moments[0, 1:] / n
    return moments[1:, 1:] / n - np.outer(mean, mean)


def _finite(x: Any) -> bool:
    """Whether ``x`` is a finite real number, a bool not counted as one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class RegressionConfig:
    """Settings for gradient training over a maintained moment triple."""

    label: str
    features: tuple[str, ...] = ()
    step_size: float = 1e-3
    gradient_threshold: float = 1e-9
    max_iterations: int = 200_000
    warm_start: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        if self.label in self.features:
            raise ValueError("the label cannot also be a feature")
        if len(set(self.features)) != len(self.features):
            raise ValueError("duplicate feature")
        # a bool or an infinity is no setting: true would run as 1
        if not _finite(self.step_size) or not self.step_size > 0:
            raise ValueError(f"step size must be positive and a finite number, not {self.step_size!r}")
        if not _finite(self.gradient_threshold) or not self.gradient_threshold >= 0:
            raise ValueError(
                "gradient threshold cannot be negative and must be a finite number,"
                f" not {self.gradient_threshold!r}"
            )
        if type(self.max_iterations) is not int or self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")
        if not isinstance(self.warm_start, bool):
            raise ValueError(f"warm_start must be true or false, not {self.warm_start!r}")


@dataclass(frozen=True)
class RegressionResult:
    theta: dict[str, float]
    iterations: int
    converged: bool
    gradient_norm: float


class DivergenceError(RuntimeError):
    """Raised when gradient norms grow for ten straight iterations.

    Carries enough to diagnose a bad step size: the iteration it happened
    at, the step size used, and the run of growing norms.
    """

    def __init__(self, iteration: int, step_size: float, norms: Sequence[float]):
        self.iteration = iteration
        self.step_size = step_size
        self.norms = tuple(norms)
        super().__init__(
            f"gradient norm grew for {len(norms)} consecutive iterations "
            f"(at iteration {iteration}, step size {step_size}, "
            f"norms {self.norms[0]:.3e} -> {self.norms[-1]:.3e})"
        )


def train_linear_regression(
    spec: RingSpec,
    slots: Sequence[str],
    stats: CovarianceTriple,
    config: RegressionConfig,
    prior: Optional[Mapping[str, float]] = None,
) -> RegressionResult:
    """Fit least squares by fixed-step gradient descent on the triple.

    The parameter vector ranges over the intercept and the configured
    features while the label's coefficient stays pinned at -1, so the
    gradient is a single (m+1)-sized matrix-vector product per step and
    never revisits the data. Training stops when the gradient's Euclidean
    norm drops below the threshold; a run of ten strictly growing norms
    raises :class:`DivergenceError` instead of looping to the iteration
    cap. With ``warm_start`` the ``prior`` coefficients (from an earlier
    fit on a previous snapshot) seed the search.
    """
    slots = tuple(slots)
    for v in (config.label, *config.features):
        if v not in slots:
            raise ValueError(f"{v} is not a slot of this triple")
    moments = second_moment_matrix(spec, slots, stats)
    names = ("intercept",) + config.features
    idx = [0] + [slots.index(f) + 1 for f in config.features]
    label_at = slots.index(config.label) + 1
    a = moments[np.ix_(idx, idx)]
    b = moments[idx, label_at]

    theta = np.zeros(len(idx))
    if config.warm_start and prior is not None:
        theta = np.array([float(prior.get(n, 0.0)) for n in names])

    growing: list[float] = []
    norm = float("inf")
    steps = 0
    for steps in range(1, config.max_iterations + 1):
        grad = a @ theta - b
        norm = float(np.linalg.norm(grad))
        if norm <= config.gradient_threshold:
            coefs = {n: float(t) for n, t in zip(names, theta)}
            return RegressionResult(coefs, steps, True, norm)
        if growing and norm > growing[-1]:
            growing.append(norm)
            if len(growing) > 10:
                raise DivergenceError(steps, config.step_size, growing)
        else:
            growing = [norm]
        theta = theta - config.step_size * grad
    coefs = {n: float(t) for n, t in zip(names, theta)}
    return RegressionResult(coefs, steps, False, norm)


@dataclass(frozen=True)
class MIMatrix:
    """Pairwise mutual information, natural log, zero diagonal."""

    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]


def mutual_information_matrix(
    spec: RingSpec, slots: Sequence[str], stats: CovarianceTriple
) -> MIMatrix:
    """Mutual information between every pair of categorical slots.

    Reads the per-slot and pairwise frequency maps straight out of the
    triple; nothing rescans the data. Empty input is an error. Scores of
    independent pairs come out as floating-point noise around zero rather
    than being clamped, so callers can see how close to exact they are.
    """
    if spec.base != RELATIONAL:
        raise ValueError("mutual information needs categorical slots")
    slots = tuple(slots)
    m = spec.degree
    if len(slots) != m:
        raise ValueError(f"{m} slots expected, got {len(slots)}")
    n = float(stats.c.total())
    if n <= 0:
        raise ValueError("mutual information of an empty population")

    def dist(j: int) -> dict[Any, float]:
        payload = stats.s.get(j + 1)
        if payload is None:
            return {}
        return {key[0]: float(cnt) for key, cnt in payload.entries.items()}

    singles = [dist(j) for j in range(m)]
    values = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            joint = stats.Q.get((i + 1, j + 1))
            if joint is None:
                continue
            # Payload schemas are name-sorted, not slot-sorted.
            pos_i = joint.schema.index(slots[i])
            pos_j = joint.schema.index(slots[j])
            score = 0.0
            for key, cnt in joint.entries.items():
                nxy = float(cnt)
                if nxy == 0.0:
                    continue
                nx = singles[i][key[pos_i]]
                ny = singles[j][key[pos_j]]
                score += (nxy / n) * math.log(n * nxy / (nx * ny))
            values[i][j] = values[j][i] = score
    return MIMatrix(slots, tuple(tuple(row) for row in values))


@dataclass(frozen=True)
class ChowLiuTree:
    """A maximum-dependence spanning tree over the MI matrix's labels."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    weight: float


def chow_liu_tree(mi: MIMatrix) -> ChowLiuTree:
    """Grow the maximum-weight spanning tree of the MI matrix.

    Starts from the first variable and repeatedly attaches the outside
    variable with the strongest link into the tree so far; among equally
    strong links the lowest index pair wins, which pins the result on
    tied inputs. Edges come back in attachment order as (low, high)
    index pairs.
    """
    m = len(mi.labels)
    if m == 0:
        raise ValueError("no variables to span")
    inside = [0]
    outside = set(range(1, m))
    edges: list[tuple[int, int]] = []
    weight = 0.0
    while outside:
        best: Optional[tuple[float, tuple[int, int]]] = None
        for a in inside:
            for b in outside:
                pair = (min(a, b), max(a, b))
                cand = (mi.values[a][b], pair)
                if best is None or cand[0] > best[0] or (
                    cand[0] == best[0] and pair < best[1]
                ):
                    best = cand
        score, pair = best
        edges.append(pair)
        weight += score
        new = pair[1] if pair[0] in inside else pair[0]
        inside.append(new)
        outside.discard(new)
    return ChowLiuTree(mi.labels, tuple(edges), weight)


Bracketing = Union[int, tuple]


@dataclass(frozen=True)
class MatrixChain:
    """A matrix chain product compiled to a maintainable query.

    ``dims`` lists the n+1 boundary dimensions of n matrices named
    ``A1`` .. ``An``, each stored as a relation over its row and column
    coordinate variables. The query's free variables are the outermost
    coordinates, so the maintained root is the chain product itself.
    ``bracketing`` records the multiplication order the variable order
    was derived from, as nested pairs of matrix indices.
    """

    dims: tuple[int, ...]
    query: Query
    order: VariableOrder
    bracketing: Bracketing
    cost: int


def _chain_splits(dims: Sequence[int]) -> tuple[dict, dict]:
    """Classic chain-product dynamic program with a balance tie-break.

    Among splits of equal multiplication cost the one nearest the middle
    of the chain wins (the lower of two equidistant ones), which keeps
    the derived variable order as shallow as possible.
    """
    n = len(dims) - 1
    cost: dict[tuple[int, int], int] = {(i, i): 0 for i in range(1, n + 1)}
    split: dict[tuple[int, int], int] = {}
    for span in range(2, n + 1):
        for i in range(1, n - span + 2):
            j = i + span - 1
            center = (i + j - 1) / 2
            best = None
            for k in range(i, j):
                c = cost[i, k] + cost[k + 1, j] + dims[i - 1] * dims[k] * dims[j]
                cand = (c, abs(k - center), k)
                if best is None or cand < best:
                    best = cand
            cost[i, j] = best[0]
            split[i, j] = best[2]
    return cost, split


def build_matrix_chain(dims: Sequence[int]) -> MatrixChain:
    """Compile matrices of shapes dims[0] x dims[1], ... into a chain query.

    The multiplication order comes from the minimal-cost dynamic program;
    every split point becomes an aggregated coordinate variable placed so
    that the two sub-chains hang below it. Payloads are real numbers and
    all inner coordinates are summed out with the one-lift, so joining and
    marginalizing reproduces exactly the row-times-column sums. Each
    coordinate declares its range, so the engine stores every matrix and
    view as one array.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("a chain needs at least one matrix")
    if any(d < 1 for d in dims):
        raise ValueError("dimensions must be positive")
    n = len(dims) - 1
    cost, split = _chain_splits(dims)

    def bracket(i: int, j: int) -> Bracketing:
        if i == j:
            return i
        k = split[i, j]
        return (bracket(i, k), bracket(k + 1, j))

    def nest(i: int, j: int) -> Optional[list]:
        if i == j:
            return None
        k = split[i, j]
        kids = [t for t in (nest(i, k), nest(k + 1, j)) if t is not None]
        return [f"X{k + 1}", *kids]

    inner = nest(1, n)
    top: list = [f"X{n + 1}"] if inner is None else [f"X{n + 1}", inner]
    order = VariableOrder([["X1", top]])
    query = Query(
        relations=[(f"A{i}", (f"X{i}", f"X{i + 1}")) for i in range(1, n + 1)],
        free=("X1", f"X{n + 1}"),
        ring=real_ring(),
        lifts=tuple(lift_to_one(f"X{i}") for i in range(2, n + 1)),
        ranges={f"X{i}": dims[i - 1] for i in range(1, n + 2)},
    )
    return MatrixChain(
        dims=dims,
        query=query,
        order=order,
        bracketing=bracket(1, n),
        cost=cost[1, n],
    )


Vector = Union[Mapping[Any, float], Sequence[float]]


def _vector_relation(state: RuntimeState, var: str, values: Vector) -> Relation:
    rel = state.relation((var,))
    # the plain sequences come first: testing for the Mapping ABC is slower
    sequence = type(values) in (list, tuple, np.ndarray) or not isinstance(values, Mapping)
    if sequence and type(rel) is DenseRelation:
        rel.fill(values)
        return rel
    items: Iterable[tuple[Any, float]] = enumerate(values) if sequence else values.items()
    rel.accumulate_all(((key,), float(val)) for key, val in items if val)
    return rel


def mcm_rank_update(state: RuntimeState, i: int, u: Vector, v: Vector) -> int:
    """Add the rank-one outer product u v^T to matrix ``Ai`` in place.

    ``u`` spans the matrix's rows and ``v`` its columns, each given either
    as a sparse mapping from coordinate to value or as a dense sequence
    indexed from zero. The product is handed to the engine as a factorized
    change, so propagation contracts one factor at a time and the full
    p x p delta never materializes anywhere but in the stored views it
    finally lands in. Subtraction is a negated ``u`` away. Returns what
    ``apply_batch`` counts for the product, its factors' nonzero entries.
    """
    name = f"A{i}"
    occurrences = state.query.occurrences.get(name)
    if not occurrences:
        raise ValueError(f"no matrix named {name} in this chain")
    row_var, col_var = occurrences[0].schema
    u_rel = _vector_relation(state, row_var, u)
    v_rel = _vector_relation(state, col_var, v)
    if not u_rel.entries or not v_rel.entries:
        return 0
    return state.apply_batch([FactorizedDelta(name, (u_rel, v_rel))])


def write_csv(
    out: str | Path | TextIO,
    header: Sequence,
    rows: Iterable[Sequence],
    lineterminator: str = "\r\n",
) -> int:
    """Write ``header`` and then ``rows`` as CSV to ``out``, a path or an
    open text stream; returns the number of rows written."""
    if isinstance(out, (str, Path)):
        with open(out, "w", newline="") as fh:
            return write_csv(fh, header, rows, lineterminator)
    w = csv.writer(out, lineterminator=lineterminator)
    w.writerow(header)
    count = 0
    for count, row in enumerate(rows, 1):
        w.writerow(row)
    return count


def export_covariance_csv(
    path: str, spec: RingSpec, slots: Sequence[str], stats: CovarianceTriple
) -> None:
    """Write the slot-by-slot covariance matrix with labeled axes."""
    cov = covariance_matrix(spec, slots, stats)
    rows = ([name, *(repr(float(x)) for x in row)] for name, row in zip(slots, cov))
    write_csv(path, ["", *slots], rows)


def export_mi_csv(path: str, mi: MIMatrix) -> None:
    rows = ([name, *(repr(x) for x in row)] for name, row in zip(mi.labels, mi.values))
    write_csv(path, ["", *mi.labels], rows)


def export_theta_csv(path: str, result: RegressionResult) -> None:
    rows = ([name, repr(float(val))] for name, val in result.theta.items())
    write_csv(path, ["coefficient", "value"], rows)


def export_chow_liu_csv(path: str, tree: ChowLiuTree, mi: MIMatrix) -> None:
    rows = ([tree.labels[a], tree.labels[b], repr(mi.values[a][b])] for a, b in tree.edges)
    write_csv(path, ["from", "to", "score"], rows)
