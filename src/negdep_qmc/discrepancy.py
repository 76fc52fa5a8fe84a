"""Local, star, covered, and weighted star discrepancy.

Exact, cover and weighted star discrepancy read one padded cumulative
histogram over a product grid, the count of points strictly below each node.
It is never held whole: it is built and read in blocks of consecutive axis-0
slabs, slab i0 + 1 being slab i0 plus the points of axis-0 slot i0 + 1 (the
sweep of Dobkin, Eppstein and Mitchell, ACM TOG 1996). Memory is one block and
its temporaries, which `_NODE_CAP` bounds; budgets charge the cells of the
whole grid, summed over the projections of the weighted variant. Both limits
are checked before anything is allocated.

Exact enumerates the critical grid spanned by the point coordinates plus 1
along each axis. At each grid node x two candidates are evaluated: the
deficiency of the half-open box [0, x) (volume of the closed box minus the
strictly-dominated point fraction) and the excess of the closed box [0, x]
(weakly-dominated fraction minus its volume, the right-limit over shrinking
half-open boxes). The maximum over nodes and sides is exact. Cover evaluates
the delta-cover grid instead, which brackets D* to within delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Mapping

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .geometry import contains_points, delta_cover_axis, volume
from .samplers import PointSet

__all__ = [
    "ProductWeights",
    "ExplicitWeights",
    "Weights",
    "DiscrepancyResult",
    "local_discrepancy",
    "star_discrepancy_exact",
    "star_discrepancy_cover",
    "weighted_star_discrepancy",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**8
_BLOCK_CELLS = 2**15  # a block holds this many cells of whole slabs, at least one slab
_BLOCK_COPIES = 4  # block-sized arrays alive at once: the block, its binning and evaluation
_NODE_CAP = 2**24  # float64 cells held at once (128 MiB), the block's copies included


# A weight family owns `check(d)` (it fits dimension d), `of(u)` (the weight
# of coordinate subset u, 0-based) and `best(k, d)` (the largest weight of a
# k-subset of the d coordinates).


@dataclass(frozen=True)
class ProductWeights:
    """Coordinate weights gamma_j >= 0; a subset u gets prod_{j in u} gamma_j."""

    gamma: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if arr.ndim != 1 or not np.all(arr >= 0):
            raise ValidationError("product weights must be a vector of nonnegative reals")
        arr.setflags(write=False)
        object.__setattr__(self, "gamma", arr)

    def check(self, d: int) -> None:
        if self.gamma.size != d:
            raise ValidationError("product weight vector length must equal dimension")

    def of(self, u) -> float:
        return float(np.prod(self.gamma[list(u)]))

    def best(self, k: int, d: int) -> float:
        # the k largest factors, multiplied from the largest down
        return math.prod(np.sort(self.gamma)[::-1][:k])


@dataclass(frozen=True)
class ExplicitWeights:
    """Explicit weight per coordinate subset (0-based indices); enumerating
    them is capped at d = 20."""

    table: Mapping[frozenset, float]

    def __post_init__(self):
        tbl = {frozenset(int(i) for i in k): float(v) for k, v in dict(self.table).items()}
        if not all(v >= 0 for v in tbl.values()):
            raise ValidationError("subset weights must be nonnegative")
        object.__setattr__(self, "table", tbl)

    def check(self, d: int) -> None:
        if d > 20:
            raise ValidationError("explicit weight enumeration is capped at d = 20")
        if any(max(u, default=0) >= d for u in self.table):
            raise ValidationError(f"explicit weights name a coordinate above d = {d}")

    def of(self, u) -> float:
        if frozenset(u) not in self.table:
            raise ValidationError(f"no weight declared for subset {sorted(u)}")
        return self.table[frozenset(u)]

    def best(self, k: int, d: int) -> float:
        return max(self.of(u) for u in combinations(range(d), k))


Weights = ProductWeights | ExplicitWeights


@dataclass(frozen=True)
class DiscrepancyResult:
    value: float
    witness: np.ndarray
    # "open": [0, witness) undercounts; "closed": [0, witness] overcounts
    witness_side: str


def local_discrepancy(ps: PointSet, box) -> float:
    """|fraction of points in the region - its volume| for any box-like region."""
    inside = contains_points(box, ps.data)
    return abs(float(inside.mean()) - volume(box))


def _axis_candidates(pts: np.ndarray) -> list[np.ndarray]:
    return [np.unique(np.concatenate([pts[:, a], [1.0]])) for a in range(pts.shape[1])]


def _block_rows(axis_values: list[np.ndarray], budget: int) -> int:
    """Slabs per block for the grid over `axis_values`, once its cells fit.

    Raises BudgetExceededError, before anything is allocated, when the grid's
    cells exceed `budget` or a block and its temporaries exceed `_NODE_CAP`.
    """
    slab = math.prod(v.size + 1 for v in axis_values[1:])
    cells = (axis_values[0].size + 1) * slab
    if cells > budget:
        raise BudgetExceededError(f"discrepancy needs {cells} histogram cells; limit is {budget}")
    rows = max(1, _BLOCK_CELLS // slab)
    held = _BLOCK_COPIES * (rows + 1) * slab
    if held > _NODE_CAP:
        raise BudgetExceededError(f"discrepancy needs {held} cells in memory; limit is {_NODE_CAP}")
    return rows


def _slabs(pts: np.ndarray, axis_values: list[np.ndarray], rows: int):
    """Walk the padded cumulative histogram H, as fractions of the points, in
    blocks of up to `rows` axis-0 slabs.

    H[i] = #{p : p_a < axis_values[a][i_a] for all a}; axis a has
    len(axis_values[a]) + 1 slots, the last counting every point. Yields
    (i0, F) with F[k] = H[i0 + k] / n over axes 1..d-1 for k = 0..m, m <= rows;
    consecutive blocks share one slab, and F is overwritten by the next block.

    Row k of a block is row k - 1 plus the points of axis-0 slot i0 + k,
    counted below each cell over axes 1..d-1. A block with no more points than
    new slabs adds one orthant per point (the sweep of Dobkin, Eppstein and
    Mitchell, ACM TOG 1996); a denser one bins its points and takes a
    cumulative sum along each of those axes. Either way a block costs O(d)
    passes over its cells.
    """
    n, d = pts.shape
    shape = tuple(v.size + 1 for v in axis_values)
    slab = math.prod(shape[1:])
    # each point's cell in the padded grid, in axis-0 order
    idx = [np.searchsorted(v, pts[:, a], side="right") for a, v in enumerate(axis_values)]
    cells = np.sort(np.ravel_multi_index(idx, shape))
    block = np.empty((rows + 1,) + shape[1:])
    carry = np.zeros(shape[1:])  # counts of H[i0], the slab the block starts from
    for i0 in range(0, shape[0] - 1, rows):
        m = min(rows, shape[0] - 1 - i0)
        first = 1 if i0 else 0  # the first block's row 0 is slot 0's points alone
        lo, hi = np.searchsorted(cells, [(i0 + first) * slab, (i0 + m + 1) * slab])
        mine = cells[lo:hi] - i0 * slab  # the block's points, as cells of the block
        counts = block[: m + 1]
        if mine.size <= m:
            counts.fill(0.0)
            for j0, *rest in np.transpose(np.unravel_index(mine, counts.shape)).tolist():
                counts[(j0, *(slice(j, None) for j in rest))] += 1
        else:
            counts[...] = np.bincount(mine, minlength=counts.size).reshape(counts.shape)
            for a in range(1, d):
                np.cumsum(counts[first:], axis=a, out=counts[first:])
        counts[0] += carry
        for k in range(1, m + 1):
            counts[k] += counts[k - 1]
        carry[...] = counts[m]
        counts /= n
        yield i0, counts


def star_discrepancy_exact(ps: PointSet, budget: int = DEFAULT_BUDGET) -> DiscrepancyResult:
    """Exact star discrepancy by critical-grid enumeration.

    Work is O(d) passes over the histogram's prod(s_a + 1) cells, s_a counting
    the distinct coordinates on axis a plus 1; BudgetExceededError above
    `budget`. Ties go to the first node in the order (axis-0 index, open before
    closed, index over the other axes).
    """
    pts = ps.data
    n, d = pts.shape
    if d < 1:
        raise ValidationError("point set must have dimension >= 1")
    cands = _axis_candidates(pts)
    rows = _block_rows(cands, budget)
    vols_rest = reduce(np.multiply, np.ix_(*cands[1:]), np.float64(1.0))
    # gaps[k, 0] is the deficiency of [0, x), gaps[k, 1] the excess of [0, x]
    gaps = np.empty((rows, 2) + vols_rest.shape)
    strict, closed = (slice(0, -1),) * d, (slice(1, None),) * d
    best, best_node, best_side = -1.0, None, None
    for i0, frac in _slabs(pts, cands, rows):
        m = frac.shape[0] - 1
        g = gaps[:m]
        np.multiply(cands[0][i0 : i0 + m].reshape((m,) + (1,) * (d - 1)), vols_rest, out=g[:, 0])
        np.subtract(frac[closed], g[:, 0], out=g[:, 1])
        np.subtract(g[:, 0], frac[strict], out=g[:, 0])
        flat = int(np.argmax(g))
        if (val := float(g.flat[flat])) > best:
            k, side, *rest = (int(i) for i in np.unravel_index(flat, g.shape))
            best, best_node, best_side = val, (i0 + k, *rest), ("open", "closed")[side]
    witness = np.array([cands[a][best_node[a]] for a in range(d)])
    return DiscrepancyResult(best, witness, best_side)


def star_discrepancy_cover(
    ps: PointSet, delta: float, budget: int = DEFAULT_BUDGET
) -> tuple[float, float]:
    """Bracket the star discrepancy through a delta-cover.

    Returns (lower, lower + delta): the max local discrepancy over the cover
    grid is a lower bound and underestimates by at most delta. Work is O(d)
    passes over the histogram's (m+1)^d cells plus one over the points;
    BudgetExceededError above `budget`.
    """
    vals = [delta_cover_axis(ps.d, delta)] * ps.d
    rows = _block_rows(vals, budget)
    strict = (slice(0, -1),) * ps.d
    lower = 0.0
    for i0, frac in _slabs(ps.data, vals, rows):
        axes = np.ix_(vals[0][i0 : i0 + frac.shape[0] - 1], *vals[1:])
        lower = max(lower, float(np.max(np.abs(frac[strict] - reduce(np.multiply, axes)))))
    return lower, lower + float(delta)


def weighted_star_discrepancy(
    ps: PointSet, weights: Weights, budget: int = DEFAULT_BUDGET
) -> float:
    """max over nonempty coordinate subsets u of gamma_u * D*(projection onto u).

    `budget` covers the whole call: the histogram cells of every
    nonzero-weight projection are summed and checked before any is evaluated.
    """
    d = ps.d
    weights.check(d)
    subsets = [u for size in range(1, d + 1) for u in combinations(range(d), size)]
    terms = [(g, list(u)) for u in subsets if (g := weights.of(u)) != 0.0]
    sizes = [c.size for c in _axis_candidates(ps.data)]
    cells = sum(math.prod(sizes[a] + 1 for a in u) for _, u in terms)
    if cells > budget:
        raise BudgetExceededError(f"projections need {cells} histogram cells; budget is {budget}")
    values = (g * star_discrepancy_exact(PointSet(ps.data[:, u]), budget).value for g, u in terms)
    return max(values, default=0.0)
