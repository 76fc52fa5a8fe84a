"""Reference values the benchmark checks the program against.

Everything here is written from the definitions, independently of
`src/negdep_qmc`, and imports nothing from it: a later change to the program
cannot move a reference. The formulas are the laws the program documents at
the commit that introduced this benchmark.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# Stratified laws: each point sits in its own stratum, the strata of the first
# t rows are a uniform ordered t-tuple of distinct strata, and points are
# uniform inside their stratum.


def _esym(values, t: int) -> float:
    """Elementary symmetric polynomial e_t of a vector (e_0 = 1)."""
    e = [1.0] + [0.0] * t
    for v in values:
        for j in range(t, 0, -1):
            e[j] += float(v) * e[j - 1]
    return e[t]


def strata_t_prob(fractions, t: int) -> float:
    """P(first t points all in a region) when point j's stratum holds the
    region with probability fractions[j], over uniform distinct strata."""
    n = len(fractions)
    return math.factorial(t) * _esym(fractions, t) / math.perm(n, t)


def axis_fractions(n: int, lo: float, hi: float) -> np.ndarray:
    """Share of each stratum [c/n, (c+1)/n) that lies in [lo, hi)."""
    c = np.arange(n, dtype=float)
    return np.clip(np.minimum(hi * n, c + 1.0) - np.maximum(lo * n, c), 0.0, 1.0)


def lhs_corner_prob(n: int, upper, t: int) -> float:
    """P(first t Latin hypercube points all in [0, upper)); axes independent."""
    prob = 1.0
    for u in upper:
        prob *= strata_t_prob(axis_fractions(n, 0.0, u), t)
    return prob


def lhs_corner_outside_prob(n: int, upper, t: int) -> float:
    """P(first t Latin hypercube points all outside [0, upper)), by
    inclusion-exclusion over exchangeable rows."""
    return sum(
        (-1) ** k * math.comb(t, k) * (lhs_corner_prob(n, upper, k) if k else 1.0)
        for k in range(t + 1)
    )


def distinct_strata_pair_prob(n: int, rect1, rect2) -> float:
    """P(p1 in rect1, p2 in rect2) for two rows in distinct, uniformly chosen
    strata of width 1/n on every axis, independently across axes.

    This is the two-point law of Latin hypercube sampling, of the jittered
    rank-1 lattice with a random generator and shift (the cell difference of
    two rows is uniform over the nonzero residues on each axis), and of each
    one-dimensional projection of a scrambled (0, m, s)-net with n = b^m.
    rect1 and rect2 are per-axis (lo, hi) lists.
    """
    prob = 1.0
    for (a1, b1), (a2, b2) in zip(rect1, rect2):
        f1 = axis_fractions(n, a1, b1)
        f2 = axis_fractions(n, a2, b2)
        prob *= (f1.sum() * f2.sum() - float(f1 @ f2)) / (n * (n - 1))
    return prob


def swap_pair_prob(rect1, rect2) -> float:
    """P(p1 in rect1, p2 in rect2) for p1 = (X, Y), p2 = (Y, X), X, Y uniform."""

    def overlap(a, b):
        return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))

    return overlap(rect1[0], rect2[1]) * overlap(rect1[1], rect2[0])


# ---------------------------------------------------------------------------
# Generalized stratified sampling on rank-1 lattice cells


def _reduced_basis(n: int, g) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange-reduced basis of n * (lattice generated by g/n, plus Z^2)."""
    c = (g[1] * pow(g[0], -1, n)) % n
    v1 = np.array([1, c], dtype=np.int64)
    v2 = np.array([0, n], dtype=np.int64)
    while True:
        if v1 @ v1 > v2 @ v2:
            v1, v2 = v2, v1
        mu = round(int(v1 @ v2) / int(v1 @ v1))
        if mu == 0:
            return v1, v2
        v2 = v2 - mu * v1


def _clip_area(poly, lo, hi) -> float:
    """Area of a convex polygon clipped to the rectangle [lo, hi]."""
    pts = [tuple(p) for p in poly]
    for axis, bound, keep_above in ((0, lo[0], True), (0, hi[0], False),
                                    (1, lo[1], True), (1, hi[1], False)):
        out = []
        for k, cur in enumerate(pts):
            prev = pts[k - 1]
            s_cur = (cur[axis] - bound) if keep_above else (bound - cur[axis])
            s_prev = (prev[axis] - bound) if keep_above else (bound - prev[axis])
            if (s_cur >= 0) != (s_prev >= 0):
                w = s_prev / (s_prev - s_cur)
                out.append((prev[0] + w * (cur[0] - prev[0]), prev[1] + w * (cur[1] - prev[1])))
            if s_cur >= 0:
                out.append(cur)
        pts = out
        if not pts:
            return 0.0
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return 0.5 * abs(float(xs @ np.roll(ys, -1) - ys @ np.roll(xs, -1)))


def lattice_cell_overlaps(n: int, g, upper) -> np.ndarray:
    """Measure of [0, upper) inside each cell y_k + [0,1) b1 + [0,1) b2 (mod 1)."""
    v1, v2 = _reduced_basis(n, g)
    b1, b2 = v1 / n, v2 / n
    out = np.zeros(n)
    for k in range(n):
        y = np.array([(k * g[0]) % n, (k * g[1]) % n], dtype=float) / n
        cell = np.array([y, y + b1, y + b1 + b2, y + b2])
        lo_c, hi_c = cell.min(axis=0), cell.max(axis=0)
        for sx in range(math.floor(lo_c[0]), math.ceil(hi_c[0]) + 1):
            for sy in range(math.floor(lo_c[1]), math.ceil(hi_c[1]) + 1):
                shift = np.array([sx, sy], dtype=float)
                out[k] += _clip_area(cell, shift, shift + np.asarray(upper, dtype=float))
    return out


def gss_cells_corner_prob(beta: int, g, upper, t: int) -> float:
    """P(first t points of generalized stratified sampling on the beta lattice
    cells all in [0, upper)): a cell holds the box with share beta * overlap."""
    return strata_t_prob(beta * lattice_cell_overlaps(beta, g, upper), t)


# ---------------------------------------------------------------------------
# Jittered random rank-1 lattice, exact enumeration


def rsj_corner_block_prob(n: int, k: int, t: int) -> float:
    """P(first t points of the jittered rank-1 lattice lie in the k x k block of
    grid cells at the origin), averaged over every generator and shift.

    For generator (a, b) and shift (s1, s2) the lattice occupies cells
    ((j a + s1) mod n, (j b + s2) mod n), j = 0..n-1; with K of them in the
    block, t distinct rows all land there with probability (K)_t / (n)_t.
    """
    gens = np.arange(1, n) if n > 2 else np.array([1])
    j = np.arange(n)
    s = np.arange(n)
    # inside[a, s, j]: coordinate of lattice point j under generator a, shift s
    inside = (((gens[:, None, None] * j[None, None, :]) + s[None, :, None]) % n < k)
    flat = inside.reshape(-1, n).astype(np.float64)
    counts = flat @ flat.T  # K for every (a, s1) x (b, s2)
    falling = np.ones_like(counts)
    for r in range(t):
        falling *= counts - r
    return float(falling.mean()) / math.perm(n, t)


# ---------------------------------------------------------------------------
# Star discrepancy


def _grid_counts(pts: np.ndarray, cands: list[np.ndarray]) -> np.ndarray:
    """counts[j] = #points whose coordinate is <= cands[a][j_a] on every axis."""
    idx = tuple(np.searchsorted(cands[a], pts[:, a], side="left") for a in range(pts.shape[1]))
    counts = np.zeros([c.size for c in cands], dtype=np.int32)
    np.add.at(counts, idx, 1)
    for a in range(pts.shape[1]):
        np.cumsum(counts, axis=a, out=counts)
    return counts


def star_discrepancy(pts: np.ndarray) -> float:
    """Exact star discrepancy: over the critical grid (distinct coordinates
    plus 1 per axis), the larger of vol - #[0,x)/n and #[0,x]/n - vol."""
    n, d = pts.shape
    cands = [np.unique(np.append(pts[:, a], 1.0)) for a in range(d)]
    closed = _grid_counts(pts, cands)
    # open box [0, x): points strictly below x, i.e. closed count one node down
    openc = np.zeros_like(closed)
    openc[(slice(1, None),) * d] = closed[(slice(0, -1),) * d]
    best = 0.0
    for i0 in range(cands[0].size):
        vol = cands[0][i0]
        for a in range(1, d):
            vol = np.multiply.outer(vol, cands[a])
        best = max(
            best,
            float(np.max(vol - openc[i0] / n)),
            float(np.max(closed[i0] / n - vol)),
        )
    return best


def cover_lower(pts: np.ndarray, delta: float) -> float:
    """max |#[0,x)/n - vol([0,x))| over the delta-cover grid {1/m..1}^d with
    m = ceil(1/delta) for d = 1 and ceil(d/delta) otherwise."""
    n, d = pts.shape
    m = math.ceil(1.0 / delta) if d == 1 else math.ceil(d / delta)
    vals = np.arange(1, m + 1, dtype=float) / m
    # a point is below node j on an axis iff (#grid values <= coordinate) <= j
    idx = tuple(np.searchsorted(vals, pts[:, a], side="right") for a in range(d))
    counts = np.zeros((m,) * d, dtype=np.int64)
    np.add.at(counts, idx, 1)
    for a in range(d):
        np.cumsum(counts, axis=a, out=counts)
    vol = vals
    for _ in range(1, d):
        vol = np.multiply.outer(vol, vals)
    return float(np.max(np.abs(counts / n - vol)))


def weighted_star_discrepancy(pts: np.ndarray, gamma) -> float:
    """max over nonempty coordinate subsets u of prod(gamma_u) * D*(pts_u)."""
    d = pts.shape[1]
    best = 0.0
    for size in range(1, d + 1):
        for u in combinations(range(d), size):
            w = float(np.prod(np.asarray(gamma, dtype=float)[list(u)]))
            if w:
                best = max(best, w * star_discrepancy(pts[:, list(u)]))
    return best


# ---------------------------------------------------------------------------
# Structure of sampled sets and closed-form bounds


def is_one_per_stratum(pts: np.ndarray) -> bool:
    """Latin hypercube structure: on every axis the n points occupy the n
    strata [c/n, (c+1)/n) once each."""
    n = pts.shape[0]
    cells = np.floor(pts * n).astype(np.int64)
    return all(np.array_equal(np.sort(cells[:, a]), np.arange(n)) for a in range(pts.shape[1]))


def is_base2_net(pts: np.ndarray, m: int) -> bool:
    """(0, m, s)-net property in base 2: every elementary interval of volume
    2^-m holds exactly one point. Coordinates are dyadic-exact, so flooring
    needs no snapping."""
    n, s = pts.shape
    if n != 2**m:
        return False

    def splits(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in splits(total - head, parts - 1):
                yield (head,) + rest

    for j in splits(m, s):
        ids = np.zeros(n, dtype=np.int64)
        for a in range(s):
            ids = ids * 2 ** j[a] + np.floor(pts[:, a] * 2 ** j[a]).astype(np.int64)
        if not np.array_equal(np.bincount(ids, minlength=n), np.ones(n, dtype=np.int64)):
            return False
    return True


def simplex_centroid(n_vars: int, t: int, xi: float) -> float:
    """e_t at the centroid of the simplex {x >= 0, sum x = xi}."""
    return math.comb(n_vars, t) * (xi / n_vars) ** t


def corner_bound_theta(n: int, d: int, theta: float) -> float:
    """sqrt(2/n) sqrt(d ln(eta) + ln(2/(1-theta))), with
    eta = 6e sqrt(max(1, n / (2 d ln(6e))))."""
    eta = 6.0 * math.e * math.sqrt(max(1.0, n / (2.0 * d * math.log(6.0 * math.e))))
    return math.sqrt(2.0 / n) * math.sqrt(d * math.log(eta) + math.log(2.0 / (1.0 - theta)))
