"""Local, star, covered, and weighted star discrepancy.

One padded cumulative histogram serves exact, cover and weighted star
discrepancy: over a product grid it counts the points strictly below each
node, in O(grid cells) after an O(N log N) binning per axis. Budgets charge
those cells, summed over the projections of the weighted variant.

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
_NODE_CAP = 2**25  # grid cells held in memory at once


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


def _cum_hist(pts: np.ndarray, axis_values: list[np.ndarray], budget: int) -> np.ndarray:
    """Padded cumulative histogram H with H[i] = #{p : p_a < axis_values[a][i_a] for all a}.

    Axis a has len(axis_values[a]) + 1 slots; the last one counts every point.
    """
    cells = math.prod(v.size + 1 for v in axis_values)
    limit = min(budget, _NODE_CAP)
    if cells > limit:
        raise BudgetExceededError(f"discrepancy needs {cells} histogram cells; limit is {limit}")
    hist = np.zeros([v.size + 1 for v in axis_values], dtype=np.int32)
    idx = tuple(np.searchsorted(v, pts[:, a], side="right") for a, v in enumerate(axis_values))
    np.add.at(hist, idx, 1)
    for a in range(hist.ndim):
        np.cumsum(hist, axis=a, out=hist)
    return hist


def star_discrepancy_exact(ps: PointSet, budget: int = DEFAULT_BUDGET) -> DiscrepancyResult:
    """Exact star discrepancy by critical-grid enumeration.

    Work and memory are the histogram's prod(s_a + 1) cells, s_a counting the
    distinct coordinates on axis a plus 1; BudgetExceededError above `budget`.
    """
    pts = ps.data
    n, d = pts.shape
    if d < 1:
        raise ValidationError("point set must have dimension >= 1")
    cands = _axis_candidates(pts)
    hist = _cum_hist(pts, cands, budget)
    vols_rest = reduce(np.multiply, np.ix_(*cands[1:]), np.float64(1.0))
    inner_strict = (slice(0, -1),) * (d - 1)
    inner_closed = (slice(1, None),) * (d - 1)
    best, best_node, best_side = -1.0, None, None
    for i0, x0 in enumerate(cands[0]):
        strict = np.asarray(hist[i0][inner_strict], dtype=float)
        closed = np.asarray(hist[i0 + 1][inner_closed], dtype=float)
        vols = x0 * vols_rest
        defic = vols - strict / n
        exces = closed / n - vols
        for arr, side in ((defic, "open"), (exces, "closed")):
            flat = int(np.argmax(arr))
            val = float(np.ravel(arr)[flat])
            if val > best:
                best = val
                rest_idx = np.unravel_index(flat, np.shape(arr)) if d > 1 else ()
                best_node = (i0,) + tuple(rest_idx)
                best_side = side
    witness = np.array([cands[a][best_node[a]] for a in range(d)])
    return DiscrepancyResult(best, witness, best_side)


def star_discrepancy_cover(
    ps: PointSet, delta: float, budget: int = DEFAULT_BUDGET
) -> tuple[float, float]:
    """Bracket the star discrepancy through a delta-cover.

    Returns (lower, lower + delta): the max local discrepancy over the cover
    grid is a lower bound and underestimates by at most delta. Work and memory
    are the histogram's (m+1)^d cells; BudgetExceededError above `budget`.
    """
    vals = [delta_cover_axis(ps.d, delta)] * ps.d
    counts = _cum_hist(ps.data, vals, budget)[(slice(0, -1),) * ps.d]
    lower = float(np.max(np.abs(counts / ps.n - reduce(np.multiply, np.ix_(*vals)))))
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
