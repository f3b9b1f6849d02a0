"""Correlation estimators with explicit tie and missing-data policies.

Three coefficients are offered: Pearson on raw values, Spearman on
average ranks (closed form when rank ties are absent, Pearson-on-ranks
otherwise; the two agree exactly in the no-tie case), and Kendall from the
signs of every pairwise difference (tau-a by default, tau-b behind a
variant switch).

Missing data is handled by pairwise-complete deletion: each matrix cell
keeps exactly the years where both series have a value, and records the
effective n it was computed from.  Undefined cells stay undefined.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    EmptyMatrixError,
    TooFewPairsError,
    ZeroVarianceError,
)
from .corpus import JoinedTable

MIN_PAIRS = 3
DEFAULT_SIGNIFICANCE = 0.8


def _present(column: Sequence[float | None]) -> tuple[np.ndarray, np.ndarray]:
    """A column as float64 values (None as nan) plus its presence mask."""
    mask = np.fromiter((v is not None for v in column), dtype=bool, count=len(column))
    return np.array(column, dtype=float), mask


def _complete(x, y) -> tuple[np.ndarray, np.ndarray]:
    """The values of two ``_present`` columns where both are present."""
    (ax, mx), (ay, my) = x, y
    both = mx & my
    n = int(np.count_nonzero(both))
    if n < MIN_PAIRS:
        raise TooFewPairsError(n, MIN_PAIRS)
    return ax[both], ay[both]


def _as_checked_arrays(x, y) -> tuple[np.ndarray, np.ndarray]:
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.shape != ay.shape or ax.ndim != 1:
        raise DataError(f"incompatible shapes: {ax.shape} vs {ay.shape}")
    if ax.size < 2:
        raise TooFewPairsError(ax.size, 2)
    if not (np.isfinite(ax).all() and np.isfinite(ay).all()):
        raise DataError("non-finite values in input")
    return ax, ay


def _clamp(r: float) -> float:
    # floating-point overshoot beyond +/-1 is bounded by ~1e-12; cut it off
    return max(-1.0, min(1.0, r))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Linear correlation, computed in two passes (means, then moments)."""
    ax, ay = _as_checked_arrays(x, y)
    if ax.min() == ax.max() or ay.min() == ay.max():
        raise ZeroVarianceError("constant series has no linear correlation")
    dx = ax - ax.mean()
    dy = ay - ay.mean()
    moments = float(np.dot(dx, dx)) * float(np.dot(dy, dy))
    if not math.isfinite(moments):
        # magnitudes past ~1e154 overflow a mean or a moment (numpy warns);
        # r does not depend on scale, so divide each series by its largest
        # magnitude and start again
        ax, ay = ax / np.abs(ax).max(), ay / np.abs(ay).max()
        dx = ax - ax.mean()
        dy = ay - ay.mean()
        moments = float(np.dot(dx, dx)) * float(np.dot(dy, dy))
    denominator = math.sqrt(moments)
    if denominator == 0.0:
        # a spread of subnormal width squares to an exact zero moment
        raise ZeroVarianceError("series variance underflows to zero")
    return _clamp(float(np.dot(dx, dy)) / denominator)


def _average_ranks(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """1-based average ranks of *a*, and whether any value is tied."""
    n = a.size
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.concatenate(([True], np.not_equal(ordered[1:], ordered[:-1]))))
    ends = np.append(starts[1:], n)
    ranks = np.empty(n, dtype=float)
    # a group spanning sorted positions s..e-1 shares rank (s + 1 + e) / 2,
    # an exact half, so an untied value gets exactly s + 1
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return ranks, starts.size < n


def rank_average_ties(values: Sequence[float]) -> tuple[float, ...]:
    """1-based ranks; tied values share the mean of the positions they span."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise DataError("non-finite values in input")
    return tuple(_average_ranks(a)[0].tolist())


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation.

    Without ties the closed form 1 - 6*sum(d^2)/(n(n^2-1)) is used; with
    ties the coefficient is Pearson over average ranks.  The two paths
    agree exactly when no ties exist.
    """
    ax, ay = _as_checked_arrays(x, y)
    rx, x_tied = _average_ranks(ax)
    ry, y_tied = _average_ranks(ay)
    if not x_tied and not y_tied:
        n = ax.size
        d = rx - ry
        return _clamp(1.0 - 6.0 * float(np.dot(d, d)) / (n * (n * n - 1)))
    return pearson(rx, ry)


# (later, earlier) index of every unordered pair among the first N
# positions, ordered by the later one; any n < N uses a prefix
_pairs = np.tril_indices(0, -1)


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    global _pairs
    m = n * (n - 1) // 2
    if _pairs[0].size < m:
        _pairs = np.tril_indices(n, -1)
    return _pairs[0][:m], _pairs[1][:m]


def kendall(x: Sequence[float], y: Sequence[float], variant: str = "tau-a") -> float:
    """Kendall's tau from the signs of every pairwise difference.

    tau-a divides the concordant/discordant surplus by all n(n-1)/2
    pairs, exactly as defined without tie correction; tau-b divides it by
    the geometric mean of the pairs untied in x and untied in y, and is
    undefined when either series is constant.
    """
    if variant not in ("tau-a", "tau-b"):
        raise ValueError(f"variant must be 'tau-a' or 'tau-b', not {variant!r}")
    ax, ay = _as_checked_arrays(x, y)
    later, earlier = _pair_indices(ax.size)
    sx = np.sign(ax[later] - ax[earlier])
    sy = np.sign(ay[later] - ay[earlier])
    # signs are -1, 0 or 1, so the surplus and the counts are exact integers
    surplus = int(np.dot(sx, sy))
    if variant == "tau-a":
        return _clamp(surplus / later.size)
    denom = int(np.count_nonzero(sx)) * int(np.count_nonzero(sy))
    if denom == 0:
        raise ZeroVarianceError("fully tied series: tau-b denominator is zero")
    return _clamp(surplus / math.sqrt(denom))


METHODS = ("pearson", "spearman", "kendall-tau-a", "kendall-tau-b")

METHOD_ALIASES = {
    "pearson": "pearson",
    "spearman": "spearman",
    "kendall": "kendall-tau-a",
    "kendall-tau-a": "kendall-tau-a",
    "tau-a": "kendall-tau-a",
    "kendall-tau-b": "kendall-tau-b",
    "tau-b": "kendall-tau-b",
}


def normalize_method(name: str) -> str:
    try:
        return METHOD_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown correlation method {name!r}") from None


def _estimator(method: str):
    if method == "pearson":
        return pearson
    if method == "spearman":
        return spearman
    if method == "kendall-tau-a":
        return lambda x, y: kendall(x, y, "tau-a")
    return lambda x, y: kendall(x, y, "tau-b")


@dataclass(frozen=True)
class CorrelationMatrix:
    """A labeled, symmetric coefficient matrix with per-cell bookkeeping.

    ``values[i][j]`` is None when the cell is undefined (too few complete
    pairs, or zero variance); the reason is kept in ``reasons``.  The
    diagonal is 1 by definition whenever the series itself is usable.
    """

    labels: tuple[str, ...]
    values: tuple[tuple[float | None, ...], ...]
    counts: tuple[tuple[int, ...], ...]
    method: str
    reasons: dict[tuple[int, int], str] = field(default_factory=dict)

    def __post_init__(self):
        k = len(self.labels)
        if len(set(self.labels)) != k:
            raise DataError("matrix labels are not unique")
        if len(self.values) != k or any(len(row) != k for row in self.values):
            raise DataError("matrix is not square")
        for i in range(k):
            for j in range(k):
                v = self.values[i][j]
                if v is None:
                    continue
                if not -1.0 <= v <= 1.0:
                    raise DataError(f"cell ({i},{j}) out of range: {v!r}")
                if self.values[j][i] != v:
                    raise DataError(f"matrix not symmetric at ({i},{j})")

    @property
    def size(self) -> int:
        return len(self.labels)

    def cell(self, row_label: str, col_label: str) -> float | None:
        i = self.labels.index(row_label)
        j = self.labels.index(col_label)
        return self.values[i][j]

    def defined_cells(self) -> int:
        return sum(v is not None for row in self.values for v in row)

    def to_delimited(self) -> str:
        """Labels as first row and column, six decimals, blank = undefined."""
        lines = ["," + ",".join(self.labels)]
        for label, row in zip(self.labels, self.values):
            cells = ["" if v is None else f"{v:.6f}" for v in row]
            lines.append(",".join([label] + cells))
        return "\n".join(lines) + "\n"

    def significant_pairs(
        self, threshold: float = DEFAULT_SIGNIFICANCE
    ) -> list[tuple[str, str, float]]:
        """Unordered label pairs meeting the magnitude rule, strongest first."""
        hits = []
        for i in range(self.size):
            for j in range(i + 1, self.size):
                v = self.values[i][j]
                if v is not None and abs(v) >= threshold:
                    hits.append((self.labels[i], self.labels[j], v))
        hits.sort(key=lambda item: (-abs(item[2]), item[0], item[1]))
        return hits


def correlation_matrix(table: JoinedTable, method: str = "pearson") -> CorrelationMatrix:
    """Coefficient for every unordered column pair after pairwise completion.

    Each column becomes a float64 array and a presence mask once per call;
    a pair is completed by ANDing the two masks, keeping exactly the years
    where both series have a value.  Exactly one estimator call is issued per
    pair with at least MIN_PAIRS complete values; the (j, i) mirror is
    copied, and the diagonal is set (not computed) to 1 where the column
    has at least MIN_PAIRS defined values and is not constant.
    """
    method = normalize_method(method)
    estimate = _estimator(method)
    k = len(table.labels)
    if k < 2:
        raise EmptyMatrixError(f"need at least 2 series, got {k}")
    values: list[list[float | None]] = [[None] * k for _ in range(k)]
    counts = [[0] * k for _ in range(k)]
    reasons: dict[tuple[int, int], str] = {}

    for i, column in enumerate(table.columns):
        defined = [v for v in column if v is not None]
        counts[i][i] = len(defined)
        if len(defined) < MIN_PAIRS:
            reasons[(i, i)] = f"only {len(defined)} defined values"
        elif min(defined) == max(defined):
            reasons[(i, i)] = "constant series"
        else:
            values[i][i] = 1.0

    present = [_present(column) for column in table.columns]
    for i in range(k):
        for j in range(i + 1, k):
            try:
                x, y = _complete(present[i], present[j])
            except TooFewPairsError as exc:
                counts[i][j] = counts[j][i] = exc.n
                reasons[(i, j)] = reasons[(j, i)] = str(exc)
                continue
            counts[i][j] = counts[j][i] = x.size
            try:
                r = estimate(x, y)
            except ZeroVarianceError as exc:
                reasons[(i, j)] = reasons[(j, i)] = str(exc)
                continue
            values[i][j] = values[j][i] = r

    return CorrelationMatrix(
        labels=table.labels,
        values=tuple(tuple(row) for row in values),
        counts=tuple(tuple(row) for row in counts),
        method=method,
        reasons=reasons,
    )
