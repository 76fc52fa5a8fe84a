"""Star, covered, and weighted star discrepancy.

Exact, cover and weighted star discrepancy read one padded cumulative
histogram over a product grid, the count of points strictly below each node.
It is never held whole: it is built and read in blocks of consecutive axis-0
slabs, slab i0 + 1 being slab i0 plus the points of axis-0 slot i0 + 1 (the
sweep of Dobkin, Eppstein and Mitchell, ACM TOG 1996). Memory is one block and
its temporaries, which `_NODE_CAP` bounds; budgets charge the cells of the
whole grid, summed over the projections of the weighted variant. The budget
is checked before any work, from the grid's node counts alone, so the cover
is charged before its node values are built; the memory cap is checked
before each pass allocates anything: the pruned search's coarse pass (its
block and its arrays of bounds), or the walk of the whole grid.

Exact enumerates the critical grid spanned by the point coordinates plus 1
along each axis. At each grid node x two candidates are evaluated: the
deficiency of the half-open box [0, x) (volume of the closed box minus the
strictly-dominated point fraction) and the excess of the closed box [0, x]
(weakly-dominated fraction minus its volume, the right-limit over shrinking
half-open boxes). The maximum over nodes and sides is exact. Cover evaluates
the delta-cover grid instead, which brackets D* to within delta.

Exact prunes a grid of more than _SMALL_GRID * 4^min(d, 4) cells before it
evaluates it (past d = 4, a slab of the whole grid soon outgrows the cap).
The nodes are cut into tiles of w per axis, w = max(2, round(n^(1/4))). A
coarse pass walks the histogram over every w-th node per axis: it gives each
tile the count H(Lo) below its low corner and H(Hi + 1) up to its high corner,
the padded last slot counting every point. The deficiency at Lo and the excess
at Hi are values the full walk computes too, and the largest so far is `best`.
Every node x of the tile has vol(x) <= vol(Hi), H(x) >= H(Lo) and
H(x + 1) <= H(Hi + 1). Correctly rounded products, quotients and differences
are monotone, so vol(Hi) - H(Lo)/n and H(Hi + 1)/n - vol(Lo), computed in the
walk's operation order, bound every double the walk computes in the tile. A
tile whose bound is below `best` holds neither the maximum nor a tie with it,
and is skipped; the others are evaluated exactly, so the result is the walk's
first maximum, bit for bit. The walk runs instead on a small grid, or once
the kept tiles pass one cap, set before the coarse pass: they may hold at most
1/_FINE_SHARE of the grid's cells, and at 4d + 3 cells a tile (the coarse
pass's lists, then the fine pass's arrays) must fit in what the coarse block
leaves of _NODE_CAP. The coarse pass is the walk of a smaller grid, and the
kept tiles are evaluated in chunks of about one block. Budgets still charge
every cell of the whole grid before any work: conservative, as far fewer are
computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from typing import Mapping

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .geometry import _cover_nodes, delta_cover_axis
from .samplers import PointSet

__all__ = [
    "ProductWeights",
    "ExplicitWeights",
    "Weights",
    "DiscrepancyResult",
    "star_discrepancy_exact",
    "star_discrepancy_cover",
    "weighted_star_discrepancy",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**8
_BLOCK_CELLS = 2**15  # a block holds this many cells of whole slabs, at least one slab
_BLOCK_COPIES = 4  # block-sized arrays alive at once: the block, its binning and evaluation
_COARSE_COPIES = _BLOCK_COPIES + 4  # the coarse pass adds its four arrays of bounds
_NODE_CAP = 2**24  # float64 cells held at once (128 MiB), the block's copies included
_SMALL_GRID = 2**11  # exact walks a grid of at most _SMALL_GRID * 4^min(d, 4) cells whole
_FINE_SHARE = 4  # exact prunes only while the kept tiles hold at most 1/4 of the grid's cells


# A weight family owns `check(d)` (it fits dimension d), `of(u)` (the weight
# of coordinate subset u, 0-based), `best(k, d)` (the largest weight of a
# k-subset of the d coordinates) and `support(d)` (coordinates outside it zero
# the weight of every subset that holds one).


@dataclass(frozen=True)
class ProductWeights:
    """Coordinate weights gamma_j >= 0; a subset u gets prod_{j in u} gamma_j."""

    gamma: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if arr.ndim != 1 or not np.all((arr >= 0) & np.isfinite(arr)):
            raise ValidationError("product weights must be a vector of finite nonnegative reals")
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

    def support(self, d: int) -> list[int]:
        return np.flatnonzero(self.gamma).tolist()


@dataclass(frozen=True)
class ExplicitWeights:
    """Explicit weight per coordinate subset (0-based indices); enumerating
    them is capped at d = 20."""

    table: Mapping[frozenset, float]

    def __post_init__(self):
        tbl = {frozenset(int(i) for i in k): float(v) for k, v in dict(self.table).items()}
        if not all(0 <= v < math.inf for v in tbl.values()):
            raise ValidationError("subset weights must be finite and nonnegative")
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

    def support(self, d: int) -> range:
        # every subset is looked up, so an undeclared one is refused
        return range(d)


Weights = ProductWeights | ExplicitWeights


@dataclass(frozen=True)
class DiscrepancyResult:
    value: float
    witness: np.ndarray
    # "open": [0, witness) undercounts; "closed": [0, witness] overcounts
    witness_side: str
    # histogram cells computed: the coarse and fine passes, or the whole grid
    cells: int


def _axis_candidates(pts: np.ndarray) -> list[np.ndarray]:
    return [np.unique(np.concatenate([pts[:, a], [1.0]])) for a in range(pts.shape[1])]


def _charge(slots, budget: int, spent: int = 0) -> int:
    """`spent` plus the cells of the histogram over a grid of `slots[a]` nodes
    on axis a; BudgetExceededError above `budget`."""
    cells = spent + math.prod(s + 1 for s in slots)
    if cells > budget:
        raise BudgetExceededError(f"discrepancy needs {cells} histogram cells; limit is {budget}")
    return cells


def _block_rows(axis_values: list[np.ndarray], copies=_BLOCK_COPIES) -> tuple[int, int]:
    """Slabs per block for the grid over `axis_values`, and the cells of
    `_NODE_CAP` the pass leaves.

    A pass holds `copies` arrays of a block's size. Raises BudgetExceededError,
    before anything is allocated, when they exceed `_NODE_CAP`.
    """
    slab = math.prod(v.size + 1 for v in axis_values[1:])
    rows = max(1, _BLOCK_CELLS // slab)
    held = copies * (rows + 1) * slab
    if held > _NODE_CAP:
        raise BudgetExceededError(f"discrepancy needs {held} cells in memory; limit is {_NODE_CAP}")
    return rows, _NODE_CAP - held


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


def _walk_exact(pts: np.ndarray, cands: list[np.ndarray], rows: int):
    """(value, node, side) of the first maximum over every node of the grid."""
    d = pts.shape[1]
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
            best, best_node, best_side = val, (i0 + k, *rest), side
    return best, best_node, best_side


def _kept_tiles(pts: np.ndarray, cands: list[np.ndarray], w: int, floor: float = -1.0):
    """The coarse pass: the tiles of w nodes per axis that can hold the maximum.

    Walks the histogram over each tile's low corner; its strict slice gives
    H(Lo)/n and its closed slice H(Hi + 1)/n. Returns ((flat tile indices,
    H(Lo) counts) of the tiles whose bound reaches the best value found, or
    `floor` when that is higher, or None once they would pass one cap, set
    before the walk: 1/_FINE_SHARE of the grid's cells, and what the coarse
    block leaves of _NODE_CAP at 4d + 3 cells a tile; the coarse cells
    computed). The lists drop the tiles that the best excludes whenever they
    double, so they hold about twice what it keeps.
    """
    n, d = pts.shape
    lo = [c[::w] for c in cands]
    hi = [c[np.minimum(np.arange(w - 1, c.size - 1 + w, w), c.size - 1)] for c in cands]
    rows, spare = _block_rows(lo, _COARSE_COPIES)
    # a kept tile's cells: its lists here; in _tiles_exact 2 inputs, 1 cost, 4 d-cell arrays
    cap = min(math.prod(c.size + 1 for c in cands) / _FINE_SHARE / (w + 1) ** d, spare / (4*d + 3))
    rest_lo = reduce(np.multiply, np.ix_(*lo[1:]), np.float64(1.0))
    rest_hi = reduce(np.multiply, np.ix_(*hi[1:]), np.float64(1.0))
    vol_lo, vol_hi, gap, ub = (np.empty((rows,) + rest_lo.shape) for _ in range(4))
    strict, closed = (slice(0, -1),) * d, (slice(1, None),) * d
    best, ids, ubs, fracs, held, trimmed = floor, [], [], [], 0, 0
    for j0, frac in _slabs(pts, lo, rows):
        m = frac.shape[0] - 1
        done = (j0 + m + 1) * rest_lo.size
        col = (m,) + (1,) * (d - 1)
        below, upto = frac[strict], frac[closed]
        v_lo, v_hi, g, u = vol_lo[:m], vol_hi[:m], gap[:m], ub[:m]
        np.multiply(lo[0][j0 : j0 + m].reshape(col), rest_lo, out=v_lo)
        np.multiply(hi[0][j0 : j0 + m].reshape(col), rest_hi, out=v_hi)
        # the deficiency at Lo and the excess at Hi are attained
        best = max(best, float(np.max(np.subtract(v_lo, below, out=g))))
        best = max(best, float(np.max(np.subtract(upto, v_hi, out=g))))
        np.maximum(np.subtract(v_hi, below, out=u), np.subtract(upto, v_lo, out=g), out=u)
        keep = np.flatnonzero(u >= best)
        held += keep.size
        if held > min(cap, 2 * trimmed):  # keep what the best found so far keeps, then decide
            ok = [v >= best for v in ubs]
            held = trimmed = keep.size + sum(int(np.count_nonzero(k)) for k in ok)
            if held > cap:
                return None, done
            ids, ubs, fracs = ([a[k] for a, k in zip(arrs, ok)] for arrs in (ids, ubs, fracs))
        ids.append(keep + j0 * rest_lo.size)
        ubs.append(u.ravel()[keep])
        fracs.append(below.ravel()[keep])
    ok = np.concatenate(ubs) >= best
    # counts c < 2^51 come back exactly from the doubles c / n
    return (np.concatenate(ids)[ok], np.rint(np.concatenate(fracs)[ok] * n).astype(np.int64)), done


def _tiles_exact(pts: np.ndarray, cands: list[np.ndarray], w: int, tiles, base):
    """(value, node, side) of the first maximum over the nodes of `tiles`.

    Each tile's local histogram over slots Lo .. Lo + w is its H(Lo) count plus
    the orthants of the points whose slots cross it: those at or below Lo + w
    on every axis and above Lo on some axis, found per axis through the points
    sorted by slot. Tiles go in chunks of about _BLOCK_CELLS cells and pairs,
    the tile index innermost so that every pass runs over long contiguous rows.
    """
    n, d = pts.shape
    sizes = [c.size for c in cands]
    local = (w + 1,) * d
    per_tile = math.prod(local)
    low = np.stack(np.unravel_index(tiles, [-(-s // w) for s in sizes])) * w  # (d, tiles)
    order = np.argsort(pts.T, axis=1, kind="stable")  # per axis, the points by slot
    ranked = np.stack([np.searchsorted(cands[a], pts[order[a], a], side="right") for a in range(d)])
    slots = np.empty_like(ranked)
    np.put_along_axis(slots, order, ranked, axis=1)
    first = np.stack([np.searchsorted(ranked[a], low[a], side="right") for a in range(d)])
    last = np.stack([np.searchsorted(ranked[a], low[a] + w, side="right") for a in range(d)])
    cost = np.cumsum(per_tile + (last - first).sum(axis=0))
    offsets = np.arange(w)[:, None]
    strict, closed = (slice(0, -1),) * d, (slice(1, None),) * d

    def along(a, arr):  # arr (w, T) laid along node axis a of (w, ..., w, T)
        return arr.reshape((1,) * a + (w,) + (1,) * (d - 1 - a) + (-1,))

    best, best_key = -math.inf, None
    t0 = 0
    while t0 < tiles.size:
        spent = cost[t0 - 1] if t0 else 0
        t1 = max(t0 + 1, int(np.searchsorted(cost, spent + _BLOCK_CELLS, side="right")))
        T, lo = t1 - t0, low[:, t0:t1]
        flat = []
        for a in range(d):  # the points that cross each tile on axis a, and on no axis before it
            cnt = last[a, t0:t1] - first[a, t0:t1]
            tile = np.repeat(np.arange(T), cnt)
            start = np.repeat(first[a, t0:t1] - (np.cumsum(cnt) - cnt), cnt)
            pt = order[a][start + np.arange(tile.size)]
            ok, cell = np.ones(tile.size, dtype=bool), 0
            for b in range(d):
                off = slots[b, pt] - lo[b, tile]
                ok &= off <= (0 if b < a else w)
                cell = cell * (w + 1) + np.maximum(off, 0)
            flat.append((cell * T + tile)[ok])
        hist = np.bincount(np.concatenate(flat), minlength=per_tile * T).reshape(local + (T,))
        for a in range(d):  # slice adds: np.cumsum is slow along short axes
            rows = hist.swapaxes(0, a)
            for k in range(1, w + 1):
                rows[k] += rows[k - 1]
        hist += base[t0:t1]
        frac = hist / n
        # a node past the last on an axis repeats the last node's values (x = 1, every
        # point counted) and comes after it in the walk's order, so it is never first
        nodes = lo[:, None, :] + offsets  # (d, w, T) node indices
        xs = [along(a, cands[a][np.minimum(nodes[a], sizes[a] - 1)]) for a in range(d)]
        vol = xs[0] * reduce(np.multiply, xs[1:], np.float64(1.0))
        g = np.empty((w, 2) + (w,) * (d - 1) + (T,))
        np.subtract(vol, frac[strict], out=g[:, 0])
        np.subtract(frac[closed], vol, out=g[:, 1])
        g = g.reshape(-1, T)
        tops = g.max(axis=0)
        top = float(tops.max())
        if top >= best:
            for t in np.flatnonzero(tops == top):
                k0, side, *rest = np.unravel_index(int(np.argmax(g[:, t])), (w, 2) + (w,) * (d - 1))
                i0, *others = (lo[:, t] + (k0, *rest)).tolist()
                key = (i0, int(side), *others)  # the walk's order
                if top > best or key < best_key:
                    best, best_key = top, key
        t0 = t1
    i0, side, *rest = best_key
    return best, (i0, *rest), side


def star_discrepancy_exact(ps: PointSet, budget: int = DEFAULT_BUDGET, *,
                           _floor: float = -1.0) -> DiscrepancyResult | None:
    """Exact star discrepancy by critical-grid enumeration.

    The walk costs O(d) passes over the histogram's prod(s_a + 1) cells, s_a
    counting the distinct coordinates on axis a plus 1; a large grid is pruned
    first (module docstring), and `cells` reports the cells computed.
    BudgetExceededError when the whole grid exceeds `budget`, before any work,
    or when the pass it runs would hold more than `_NODE_CAP` cells, before
    that pass allocates anything. Ties go to the first node in the order
    (axis-0 index, open before closed, index over the other axes).

    `_floor` is private to `weighted_star_discrepancy`: the pruned search also
    skips the tiles whose bound is below it. The result is then exact when it
    reaches the floor and below the floor otherwise, and None when no tile is
    kept, as every value is below the floor.
    """
    pts = ps.data
    n, d = pts.shape
    if d < 1:
        raise ValidationError("point set must have dimension >= 1")
    cands = _axis_candidates(pts)
    grid = _charge([c.size for c in cands], budget)
    found, cells = None, 0
    if grid > _SMALL_GRID * 4 ** min(d, 4):
        w = max(2, round(n**0.25))
        kept, cells = _kept_tiles(pts, cands, w, _floor)
        if kept is not None:
            if kept[0].size == 0:
                return None
            found = _tiles_exact(pts, cands, w, *kept)
            cells += kept[0].size * (w + 1) ** d
    if found is None:
        found = _walk_exact(pts, cands, _block_rows(cands)[0])
        cells += grid
    best, node, side = found
    witness = np.array([cands[a][node[a]] for a in range(d)])
    return DiscrepancyResult(best, witness, ("open", "closed")[side], cells)


def star_discrepancy_cover(
    ps: PointSet, delta: float, budget: int = DEFAULT_BUDGET
) -> tuple[float, float]:
    """Bracket the star discrepancy through a delta-cover.

    Returns (lower, lower + delta): the max local discrepancy over the cover
    grid is a lower bound and underestimates by at most delta. Work is O(d)
    passes over the histogram's (m+1)^d cells plus one over the points;
    BudgetExceededError above `budget`, charged from m before anything is built.
    """
    _charge([_cover_nodes(ps.d, delta)] * ps.d, budget)
    vals = [delta_cover_axis(ps.d, delta)] * ps.d
    rows, _ = _block_rows(vals)
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

    Only the subsets of `weights.support(d)` are visited: for product weights
    the coordinates of positive weight. `budget` covers the whole call: the
    histogram cells of every nonzero-weight projection are summed before any
    is evaluated, and the call is refused at the first projection that takes
    the sum past it. The projections go in descending gamma_u, and each one's
    pruned search skips the tiles that cannot lift gamma_u * D* above the
    largest term so far, so a projection that cannot win costs its coarse pass.
    """
    best = 0.0
    for g, u in sorted(_weighted_terms(ps, weights, budget), key=lambda term: -term[0]):
        found = star_discrepancy_exact(PointSet(ps.data[:, u]), budget, _floor=_floor(best, g))
        if found is not None:
            best = max(best, g * found.value)
    return best


def _floor(best: float, gamma: float) -> float:
    """A value f with gamma * f <= best as doubles, just below best / gamma: every
    D <= f, rounding being monotone, gives gamma * D <= best. -1 if there is none."""
    floor = math.nextafter(best / gamma, 0.0)
    return floor if gamma * floor <= best else -1.0


def _weighted_terms(ps: PointSet, weights: Weights, budget: int) -> list[tuple[float, list[int]]]:
    """(gamma_u, u) for each nonzero-weight projection u, once all are charged."""
    d = ps.d
    if d < 1:
        raise ValidationError("point set must have dimension >= 1")
    weights.check(d)
    sizes = [c.size for c in _axis_candidates(ps.data)]
    terms, cells = [], 0
    axes = weights.support(d)
    for u in chain.from_iterable(combinations(axes, k) for k in range(1, len(axes) + 1)):
        if (g := weights.of(u)) == 0.0:
            continue
        cells = _charge([sizes[a] for a in u], budget, cells)
        terms.append((g, list(u)))
    return terms


def _charge_request(ps: PointSet, budget: int, exact: bool, delta, weights) -> None:
    """Charge each quantity asked for (exact, the cover when `delta` is given,
    the weighted sum when `weights` are) against `budget`, as its own call
    charges it, before any is computed."""
    if exact:
        _charge([c.size for c in _axis_candidates(ps.data)], budget)
    if delta is not None:
        _charge([_cover_nodes(ps.d, delta)] * ps.d, budget)
    if weights is not None:
        _weighted_terms(ps, weights, budget)
