"""Correlation estimators with explicit tie and missing-data policies.

Three coefficients are offered: Pearson on raw values, Spearman on
average ranks (closed form when rank ties are absent, Pearson-on-ranks
otherwise; the two agree exactly in the no-tie case), and Kendall from the
signs of every pairwise difference (tau-a by default, tau-b behind a
variant switch).

Missing data is handled by pairwise-complete deletion: each matrix cell
keeps exactly the years where both series have a value, and records the
effective n it was computed from.  Undefined cells stay undefined.

The four matrices of one table share its per-table work: one float64
array and one presence mask per table, its pair overlaps, each column's
diagonal verdict, its non-finite verdict and Kendall's sign sums are
computed by the table's first matrix and kept with the table.  A Pearson
matrix calls ``pearson`` once per pair, and ``pearson`` reads its finite
and constant checks off each series' two extremes.  Spearman and Kendall
matrices share per-column work instead: each column is sorted once, and
its average ranks within every partner's overlap are read off counts
along that sort, so a cell indexes two rows of ranks (and calls
``pearson`` on them when ties need it); the Kendall sums of every pair
come from products of per-column sign blocks, summed once for tau-a and
tau-b together, and every tau from one array division, so a cell is a
lookup.  ``spearman``, ``kendall`` and ``rank_average_ties`` are the two-
and one-column cases of the same helpers, so a matrix cell equals the
scalar estimator on the pair's completed values, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TooFewPairsError, ZeroVarianceError
from .corpus import JoinedTable

MIN_PAIRS = 3
DEFAULT_SIGNIFICANCE = 0.8


def _as_arrays(x, y) -> tuple[np.ndarray, np.ndarray]:
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.shape != ay.shape or ax.ndim != 1:
        raise DataError(f"incompatible shapes: {ax.shape} vs {ay.shape}")
    if ax.size < 2:
        raise TooFewPairsError(ax.size, 2)
    return ax, ay


def _as_checked_arrays(x, y) -> tuple[np.ndarray, np.ndarray]:
    ax, ay = _as_arrays(x, y)
    if not (np.isfinite(ax).all() and np.isfinite(ay).all()):
        raise DataError("non-finite values in input")
    return ax, ay


def _clamp(r: float) -> float:
    # floating-point overshoot beyond +/-1 is bounded by ~1e-12; cut it off
    return max(-1.0, min(1.0, r))


def _centred(a: np.ndarray) -> np.ndarray:
    # np.add.reduce is the sum ndarray.mean() divides, without its wrapper
    return a - float(np.add.reduce(a)) / a.size


def _moments_r(ax: np.ndarray, ay: np.ndarray) -> float:
    dx, dy = _centred(ax), _centred(ay)
    moments = float(np.dot(dx, dx)) * float(np.dot(dy, dy))
    if not math.isfinite(moments):
        # magnitudes past ~1e154 overflow a mean or a moment; r does not
        # depend on scale, so divide each series by its largest magnitude
        # and start again
        ax, ay = ax / np.abs(ax).max(), ay / np.abs(ay).max()
        dx, dy = _centred(ax), _centred(ay)
        moments = float(np.dot(dx, dx)) * float(np.dot(dy, dy))
    denominator = math.sqrt(moments)
    if denominator == 0.0:
        # a spread of subnormal width squares to an exact zero moment
        raise ZeroVarianceError("series variance underflows to zero")
    return _clamp(float(np.dot(dx, dy)) / denominator)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Linear correlation, computed in two passes (means, then moments).

    Each series' two extremes make its checks: nan propagates through both
    reductions, so a non-finite extreme means a non-finite value, and equal
    extremes a constant series.  Below 1e100 in magnitude no sum, mean or
    moment of a series can overflow; past it the moments run with numpy's
    overflow warnings off, since ``_moments_r`` rescales on overflow.
    """
    ax, ay = _as_arrays(x, y)
    lo_x, hi_x = np.minimum.reduce(ax), np.maximum.reduce(ax)
    lo_y, hi_y = np.minimum.reduce(ay), np.maximum.reduce(ay)
    if not (-math.inf < lo_x and hi_x < math.inf and -math.inf < lo_y and hi_y < math.inf):
        raise DataError("non-finite values in input")
    if lo_x == hi_x or lo_y == hi_y:
        raise ZeroVarianceError("constant series has no linear correlation")
    if max(-lo_x, hi_x, -lo_y, hi_y) < 1e100:
        return _moments_r(ax, ay)
    with np.errstate(over="ignore", invalid="ignore"):
        return _moments_r(ax, ay)


def _overlap_ranks(data: np.ndarray, present: np.ndarray) -> tuple[np.ndarray, list]:
    """The average rank of each value within every column pair's overlap.

    ``ranks[i, j, t]`` is (2*less + eq + 1) / 2 for column i's value in year
    t, where less and eq count the years both i and j have whose value in i
    is below, or equal to, it: the 1-based average rank of the value among
    the pair's completed values.  The numerator is an integer, so halving it
    is exact.  Both counts are read off column j's presence, summed along
    one stable sort of column i.  ``tied[i][j]`` says whether two of those
    values are equal.  Cells for years column i lacks are 0.
    """
    k, n = data.shape
    ranks = np.zeros((k, k, n))
    tied = np.zeros((k, k), dtype=bool)
    for i in range(k):
        years = np.flatnonzero(present[i])
        order = years[np.argsort(data[i, years], kind="stable")]
        ordered = data[i, order]
        starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        ends = np.append(starts[1:], order.size)
        # seen[j, p]: how many of the first p sorted years column j has
        seen = np.zeros((k, order.size + 1), dtype=np.int32)
        np.cumsum(present[:, order], axis=1, out=seen[:, 1:])
        below, through = seen[:, starts], seen[:, ends]
        ranks[i][:, order] = np.repeat((below + through + 1) / 2, ends - starts, axis=1)
        tied[i] = (through - below > 1).any(axis=1)
    return ranks, tied.tolist()


def rank_average_ties(values: Sequence[float]) -> tuple[float, ...]:
    """1-based ranks; tied values share the mean of the positions they span."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise DataError("non-finite values in input")
    ranks, _ = _overlap_ranks(a[np.newaxis], np.ones((1, a.size), dtype=bool))
    return tuple(ranks[0, 0].tolist())


def _spearman_cells(data: np.ndarray, present: np.ndarray):
    """Spearman's rho of a column pair (i, j) over the years both columns have."""
    ranks, tied = _overlap_ranks(data, present)

    def cell(i: int, j: int) -> float:
        both = present[i] & present[j]
        rx, ry = ranks[i, j][both], ranks[j, i][both]
        if not (tied[i][j] or tied[j][i]):
            n = rx.size
            d = rx - ry
            return _clamp(1.0 - 6.0 * float(np.dot(d, d)) / (n * (n * n - 1)))
        return pearson(rx, ry)

    return cell


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation.

    Without ties the closed form 1 - 6*sum(d^2)/(n(n^2-1)) is used; with
    ties the coefficient is Pearson over average ranks.  The two paths
    agree exactly when no ties exist.
    """
    ax, ay = _as_checked_arrays(x, y)
    every = np.ones((2, ax.size), dtype=bool)
    return _spearman_cells(np.stack((ax, ay)), every)(0, 1)


# column x year-pair sign cells held at once while summing Kendall's signs,
# give or take one later year's pairs
_SIGN_BLOCK = 1 << 13


def _pair_blocks(n: int, size: int):
    """(later, earlier) indices of every year pair among n years, in blocks.

    A block holds the pairs of a range of later years, at least *size* of
    them unless it is the last; year b is the later year of b pairs, whose
    numbers start at b(b-1)/2.
    """
    start = 1
    while start < n:
        stop, count = start + 1, start
        while stop < n and count < size:
            count += stop
            stop += 1
        later = np.arange(start, stop)
        firsts = later * (later - 1) // 2
        earlier = np.arange(firsts[0], firsts[0] + count) - np.repeat(firsts, later)
        yield np.repeat(later, later), earlier
        start = stop


def _kendall_sums(
    data: np.ndarray, present: np.ndarray, count_untied: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Kendall's concordant/discordant surplus and untied pair counts, per column pair.

    For years a < b, column i's sign is sign(x_b - x_a) if it has both years
    and 0 otherwise.  Summed over every year pair, signs times signs give
    each column pair's concordant/discordant surplus, and sign magnitudes
    times the partner's presence give ``untied[i, j]``, the year pairs both
    columns have that are untied in column i (None unless *count_untied*:
    only tau-b reads it).  Signs are -1, 0 or 1, so the float products sum
    to exact integers, one block of year pairs at a time.
    """
    k, n = data.shape
    surplus = np.zeros((k, k))
    untied = np.zeros((k, k)) if count_untied else None
    for b, a in _pair_blocks(n, max(1, _SIGN_BLOCK // k)):
        # an overflowing difference keeps its sign as +/-inf, and the nan of
        # a missing year compares false both ways
        with np.errstate(over="ignore", invalid="ignore"):
            diff = data[:, b] - data[:, a]
        signs = (diff > 0).astype(float) - (diff < 0)
        surplus += signs @ signs.T
        if count_untied:
            untied += np.abs(signs) @ (present[:, b] & present[:, a]).T.astype(float)
    return surplus, untied


def _kendall_cells(sums: tuple[np.ndarray, np.ndarray | None], overlap: np.ndarray, variant: str):
    """Kendall's tau of a column pair (i, j) from ``_kendall_sums`` and the overlap sizes.

    Every tau is one array operation: tau-a divides the surplus by the
    m(m-1)/2 pairs of the overlap m, tau-b by sqrt(untied * untied.T), and
    a zero tau-b denominator leaves the cell undefined.  Each operand is an
    exact integer and each operation is correctly rounded, as Python's int
    arithmetic is, so a cell is a lookup.
    """
    surplus, untied = sums
    if variant == "tau-a":
        denominator = overlap * (overlap - 1) / 2
    else:
        denominator = np.sqrt(untied * untied.T)
    tau = np.zeros_like(surplus)
    np.divide(surplus, denominator, out=tau, where=denominator > 0)
    taus, undefined = np.clip(tau, -1.0, 1.0).tolist(), (denominator == 0).tolist()

    def cell(i: int, j: int) -> float:
        if undefined[i][j]:
            raise ZeroVarianceError("fully tied series: tau-b denominator is zero")
        return taus[i][j]

    return cell


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
    every = np.ones((2, ax.size), dtype=bool)
    sums = _kendall_sums(np.stack((ax, ay)), every, count_untied=variant == "tau-b")
    return _kendall_cells(sums, np.full((2, 2), float(ax.size)), variant)(0, 1)


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


def _table_work(table: JoinedTable) -> dict:
    """The work every matrix of *table* shares, computed by its first matrix.

    It lives in the table's private ``_derived`` dict, so it lives and dies
    with the table, and a table cannot change after it is built, so the
    work cannot go stale.  It holds the stacked array and presence mask,
    the pair overlaps (as floats and as the matrix's ``counts``), each
    column's diagonal verdict (None for a diagonal 1, else the reason), and
    whether a completed pair meets a non-finite value.  The first Kendall
    matrix adds its sign sums, which tau-a and tau-b share.
    """
    work = table._derived
    if work:
        return work
    diagonal = []
    for column in table.columns:
        defined = [v for v in column if v is not None]
        if len(defined) < MIN_PAIRS:
            diagonal.append(f"only {len(defined)} defined values")
        elif min(defined) == max(defined):
            diagonal.append("constant series")
        else:
            diagonal.append(None)
    # the columns as one k x N float64 array (None as nan) and its presence mask
    present = np.array([[v is not None for v in column] for column in table.columns], dtype=bool)
    data = np.array(table.columns, dtype=float)
    weights = present.astype(float)
    overlap = weights @ weights.T
    counts = overlap.astype(int)
    non_finite = False
    if not np.isfinite(data[present]).all():
        # the non-finite values of either column in each pair's overlap
        bad = (present & ~np.isfinite(data)).astype(float) @ weights.T
        bad += bad.T
        np.fill_diagonal(bad, 0)
        non_finite = bool(((bad > 0) & (counts >= MIN_PAIRS)).any())
    work.update(
        data=data,
        present=present,
        overlap=overlap,
        counts=tuple(map(tuple, counts.tolist())),
        diagonal=diagonal,
        non_finite=non_finite,
    )
    return work


def _cells(method: str, work: dict):
    """*method*'s coefficient as a function of a column pair (i, j) of the table behind *work*."""
    data, present = work["data"], work["present"]
    if method == "pearson":

        def cell(i: int, j: int) -> float:
            both = present[i] & present[j]
            return pearson(data[i][both], data[j][both])

        return cell
    if method == "spearman":
        return _spearman_cells(data, present)
    if "kendall" not in work:
        work["kendall"] = _kendall_sums(data, present)
    return _kendall_cells(work["kendall"], work["overlap"], method.removeprefix("kendall-"))


def _same_sign(a: float, b: float) -> bool:
    # exactly: -0.0 == 0.0, but the two print differently
    return math.copysign(1.0, a) == math.copysign(1.0, b)


def _cell_fault(i: int, j: int, v, mirror) -> tuple[tuple[int, int], str] | None:
    """Why cell (i, j), holding *v* opposite *mirror*, is invalid, or None."""
    if v is None:
        return None
    if not -1.0 <= v <= 1.0:
        return (i, j), f"cell ({i},{j}) out of range: {v!r}"
    if mirror != v or (v == 0 and not _same_sign(v, mirror)):
        return (i, j), f"matrix not symmetric at ({i},{j})"
    return None


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
        # each pair of mirrored cells is checked once, from the upper
        # triangle; the first bad cell in row-major order is reported
        faults = []
        for i, (row, mirrors) in enumerate(zip(self.values, zip(*self.values))):
            for j in range(i, k):
                v, m = row[j], mirrors[j]
                if v == m and (v is None or -1.0 <= v <= 1.0 and (v or _same_sign(v, m))):
                    continue
                faults += filter(None, (_cell_fault(i, j, v, m), _cell_fault(j, i, m, v)))
        if faults:
            raise DataError(min(faults)[1])

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

    The columns become one float64 array and one presence mask per table,
    shared by every matrix of that table (see ``_table_work``); a pair is
    completed by ANDing its two masks, keeping exactly the years where both
    series have a value.  A pair with at least MIN_PAIRS complete values
    gets one ``pearson`` call, a Spearman cell from two rows of ranks
    computed once per column (plus a ``pearson`` call on them when either
    has ties), or a Kendall tau computed for every pair at once; every call
    raises ``DataError`` if any of those values is non-finite.  The (j, i)
    mirror is copied, and the diagonal is set (not computed) to 1 where the
    column has at least MIN_PAIRS defined values and is not constant.
    """
    method = normalize_method(method)
    k = len(table.labels)
    if k < 2:
        raise DataError(f"need at least 2 series, got {k}")
    work = _table_work(table)
    if work["non_finite"]:
        raise DataError("non-finite values in input")
    values: list[list[float | None]] = [[None] * k for _ in range(k)]
    reasons: dict[tuple[int, int], str] = {}
    for i, reason in enumerate(work["diagonal"]):
        if reason is None:
            values[i][i] = 1.0
        else:
            reasons[(i, i)] = reason

    counts = work["counts"]
    cell = _cells(method, work)
    for i in range(k):
        for j in range(i + 1, k):
            n = counts[i][j]
            if n < MIN_PAIRS:
                reasons[(i, j)] = reasons[(j, i)] = str(TooFewPairsError(n, MIN_PAIRS))
                continue
            try:
                values[i][j] = values[j][i] = cell(i, j)
            except ZeroVarianceError as exc:
                reasons[(i, j)] = reasons[(j, i)] = str(exc)

    return CorrelationMatrix(
        labels=table.labels,
        values=tuple(tuple(row) for row in values),
        counts=counts,
        method=method,
        reasons=reasons,
    )
