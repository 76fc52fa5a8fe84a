"""Axis-parallel regions of the half-open unit cube [0,1)^d.

Region types (boxes anchored at either corner, and intervals), all
rectangles, each owning its volume, membership, label and per-axis ranges;
the delta-cover grid, and an exact (t,m,s)-net checker.

Membership is half-open throughout: lower edges closed, upper edges open.
Comparisons are exact floating point; no epsilons except where documented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "CornerBox0",
    "CornerBox1",
    "Interval",
    "contains_points",
    "build_delta_cover",
    "delta_cover_axis",
    "is_net",
    "clip_convex_to_box",
    "polygon_area",
]


def _unit_vector(x, name):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 1-d coordinate vector")
    if not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):
        raise ValidationError(f"{name} coordinates must lie in [0,1]")
    arr.setflags(write=False)
    return arr


def _fmt(v) -> str:
    return "(" + ",".join(f"{x:g}" for x in np.atleast_1d(v)) + ")"


def _all_axes(test, pts, bound):
    """`np.all(test(pts, bound), axis=-1)`, anded one axis at a time: the same
    booleans without a reduction over a last axis of length d."""
    out = test(pts[..., 0], bound[0])
    for a in range(1, bound.size):
        out &= test(pts[..., a], bound[a])
    return out


class _Region:
    """The rectangle [lo, hi) that every region type is. Each type sets its
    corners `lo` and `hi` once, from its own fields, and owns its vectorized
    membership `contains(pts)` over the last axis of `pts` and a short
    `label()` for reports; the dimension `d`, the Lebesgue `volume()` and the
    per-axis (lo, hi) ranges `axes()` are the rectangle's."""

    def _corners(self, lo, hi) -> None:
        for name, arr in (("lo", lo), ("hi", hi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return self.lo.size

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def axes(self):
        return [(float(a), float(b)) for a, b in zip(self.lo, self.hi)]


@dataclass(frozen=True)
class CornerBox0(_Region):
    """Half-open box [0, upper) anchored at the origin."""

    upper: np.ndarray

    def __post_init__(self):
        upper = _unit_vector(self.upper, "upper")
        object.__setattr__(self, "upper", upper)
        self._corners(np.zeros(upper.size), upper)

    def contains(self, pts):
        return _all_axes(np.less, pts, self.upper)

    def label(self) -> str:
        return f"[0,{_fmt(self.upper)})"


@dataclass(frozen=True)
class CornerBox1(_Region):
    """Half-open box [lower, 1) anchored at the upper corner."""

    lower: np.ndarray

    def __post_init__(self):
        lower = _unit_vector(self.lower, "lower")
        object.__setattr__(self, "lower", lower)
        self._corners(lower, np.ones(lower.size))

    def contains(self, pts):
        return _all_axes(np.greater_equal, pts, self.lower)

    def label(self) -> str:
        return f"[{_fmt(self.lower)},1)"


@dataclass(frozen=True)
class Interval(_Region):
    """Half-open axis-parallel box [a, b)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _unit_vector(self.a, "a")
        b = _unit_vector(self.b, "b")
        if a.size != b.size:
            raise ValidationError("interval endpoints must have equal dimension")
        if not np.all(a <= b):
            raise ValidationError("interval requires a <= b componentwise")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        self._corners(a, b)

    def contains(self, pts):
        return _all_axes(np.greater_equal, pts, self.a) & _all_axes(np.less, pts, self.b)

    def label(self) -> str:
        return f"[{_fmt(self.a)},{_fmt(self.b)})"


def contains_points(box, pts) -> np.ndarray:
    """Vectorized membership: pts has shape (..., d), result has shape (...)."""
    pts = np.asarray(pts, dtype=float)
    if not isinstance(box, _Region):
        raise ValidationError(f"unsupported region type: {type(box).__name__}")
    if pts.shape[-1] != box.d:
        raise ValidationError(
            f"point dimension {pts.shape[-1]} does not match region dimension {box.d}"
        )
    return box.contains(pts)


# ---------------------------------------------------------------------------
# Delta-covers


def _cover_nodes(d: int, delta: float) -> int:
    """The node count m per axis of the delta-cover grid in dimension d.

    m = ceil(d/delta): the floor/ceil brackets in the product grid have
    volume gap at most d/m <= delta, and d = 1 gives the exact minimal grid.
    """
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    if not (0.0 < delta <= 1.0):
        raise ValidationError("delta must lie in (0, 1]")
    return math.ceil(d / delta)


def delta_cover_axis(d: int, delta: float) -> np.ndarray:
    """Per-axis node values {1/m, ..., 1} of the delta-cover grid in dimension d."""
    m = _cover_nodes(d, delta)
    return np.arange(1, m + 1, dtype=float) / m


def build_delta_cover(d: int, delta: float) -> np.ndarray:
    """The delta-cover of anchored boxes in dimension d: the (m^d, d) array of
    nodes of the d-fold product grid of `delta_cover_axis(d, delta)`."""
    vals = delta_cover_axis(d, delta)
    return np.stack(np.meshgrid(*([vals] * d), indexing="ij"), axis=-1).reshape(-1, d)


# ---------------------------------------------------------------------------
# Net checking


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


_NET_SNAP = 1e-9


def is_net(points, b: int, m: int, s: int, t: int = 0) -> bool:
    """Check the (t,m,s)-net property in base b exactly.

    Every elementary interval of volume b^(t-m) must contain exactly b^t of
    the b^m points. `points` is an (N, s) array or anything with a `.data`
    attribute holding one. Digit extraction adds _NET_SNAP before flooring so
    that raw net coordinates sitting exactly on cell boundaries (not binary-
    representable for odd b) are classified consistently; desk-scale safe. A
    coordinate the snap lifts to 1 stays in the last cell; one outside [0, 1)
    is refused.
    """
    pts = np.asarray(getattr(points, "data", points), dtype=float)
    if b < 2:
        raise ValidationError("base must be >= 2")
    if m < 1 or s < 1:
        raise ValidationError("m and s must be >= 1")
    if not (0 <= t <= m):
        raise ValidationError("strength t must satisfy 0 <= t <= m")
    n = b**m
    if pts.ndim != 2 or pts.shape != (n, s):
        raise ValidationError(f"expected a point set of shape ({n}, {s})")
    if not np.all((pts >= 0.0) & (pts < 1.0)):
        raise ValidationError("point coordinates must lie in [0,1)")
    q = m - t
    target = b**t
    for j in _compositions(q, s):
        dims = [b**jl for jl in j]
        cells = [np.floor(pts[:, l] * dims[l] + _NET_SNAP).astype(np.int64) for l in range(s)]
        for cell, dim in zip(cells, dims):
            np.minimum(cell, dim - 1, out=cell)
        ids = np.ravel_multi_index(cells, dims)
        counts = np.bincount(ids, minlength=b**q)
        if not np.all(counts == target):
            return False
    return True


# ---------------------------------------------------------------------------
# Convex polygon clipping (used by 2-d lattice-cell strata)


def polygon_area(poly) -> float:
    """Unsigned shoelace area of a polygon given as an (k, 2) vertex array."""
    poly = np.asarray(poly, dtype=float)
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def clip_convex_to_box(poly, lo, hi) -> np.ndarray:
    """Clip a convex polygon to the axis box [lo, hi] (Sutherland-Hodgman): a table of
    four half-planes (axis, bound, side), each keeping the vertices v whose signed
    distance side * (v[axis] - bound), computed once per plane, is >= 0."""
    verts = [tuple(map(float, v)) for v in np.asarray(poly, dtype=float)]
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    for axis, bound, side in ((0, lo[0], 1.0), (0, hi[0], -1.0), (1, lo[1], 1.0), (1, hi[1], -1.0)):
        dist = [side * (v[axis] - bound) for v in verts]
        nxt = []
        for i, cur in enumerate(verts):
            a, b = dist[i - 1], dist[i]
            if (a >= 0.0) != (b >= 0.0):
                prv = verts[i - 1]
                frac = a / (a - b)
                nxt.append((prv[0] + frac * (cur[0] - prv[0]), prv[1] + frac * (cur[1] - prv[1])))
            if b >= 0.0:
                nxt.append(cur)
        verts = nxt
    return np.asarray(verts, dtype=float).reshape(-1, 2)
