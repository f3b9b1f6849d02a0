"""Independent pure-Python estimators the benchmark checks disclim against.

Written from the textbook definitions, sharing no code with disclim.  Each
returns None exactly where disclim leaves a matrix cell undefined: fewer
than three complete pairs, or a zero denominator (tau-a has none, so a
constant series gives tau-a = 0).
"""

from __future__ import annotations

import math

MIN_PAIRS = 3


def complete_pairs(x, y):
    """The (x, y) values at positions where both are present."""
    return [(a, b) for a, b in zip(x, y) if a is not None and b is not None]


def pearson(x, y):
    n = len(x)
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if min(x) == max(x) or min(y) == max(y) or sxx * syy == 0.0:
        return None
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def average_ranks(values):
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        for k in range(start, end + 1):
            ranks[order[k]] = (start + end) / 2 + 1
        start = end + 1
    return ranks


def spearman(x, y):
    return pearson(average_ranks(x), average_ranks(y))


def _kendall_counts(x, y):
    surplus = tied_x = tied_y = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            sx = (x[j] > x[i]) - (x[j] < x[i])
            sy = (y[j] > y[i]) - (y[j] < y[i])
            surplus += sx * sy
            tied_x += sx == 0
            tied_y += sy == 0
    return surplus, tied_x, tied_y, n * (n - 1) // 2


def kendall_tau_a(x, y):
    surplus, _, _, total = _kendall_counts(x, y)
    return max(-1.0, min(1.0, surplus / total))


def kendall_tau_b(x, y):
    surplus, tied_x, tied_y, total = _kendall_counts(x, y)
    denominator = (total - tied_x) * (total - tied_y)
    if denominator == 0:
        return None
    return max(-1.0, min(1.0, surplus / math.sqrt(denominator)))


ESTIMATORS = {
    "pearson": pearson,
    "spearman": spearman,
    "kendall-tau-a": kendall_tau_a,
    "kendall-tau-b": kendall_tau_b,
}


def cell(method, x, y):
    """(n, coefficient or None) for one matrix cell under pairwise deletion."""
    kept = complete_pairs(x, y)
    if len(kept) < MIN_PAIRS:
        return len(kept), None
    xs = [float(a) for a, _ in kept]
    ys = [float(b) for _, b in kept]
    return len(kept), ESTIMATORS[method](xs, ys)
