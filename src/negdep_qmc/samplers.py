"""Randomized point-set constructions on [0,1)^d.

Every samplable scheme here produces N points with uniform marginals whose
rows are exchangeable, either by construction or through a final row shuffle.
Each scheme is a dataclass deriving from SchemeSpec that owns what is known
about it (JSON kind, label, validation, its one sampler `draw`, and where one
exists its closed-form pair law and anchored-box law); SCHEMES maps each
JSON kind to its class. The exact anchored-box laws sit beside their schemes,
and `Mixed` multiplies those of its factors. `sample_batch` draws many
independent replications at once as an (R, N, d) array, or only their first
rows where the scheme draws them alone; `map_chunks` applies a function to
chunked batches, and `sample` is the single-draw wrapper returning a PointSet.
Every scheme's `draw` returns a (d, rows, reps) buffer, and `sample_batch`
alone presents it as (R, rows, d), so each coordinate of each row is
contiguous over the replications.

All randomness flows through RngStream, a splittable deterministic stream:
the same seed and call sequence reproduce the same output bit for bit, and
`split(i)` yields statistically independent child streams.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import ValidationError
from .geometry import CornerBox0, clip_convex_to_box, polygon_area

__all__ = [
    "PointSet",
    "RngStream",
    "MonteCarlo",
    "SimpleStratified",
    "GeneralizedStratified",
    "RsjLattice",
    "LatinHypercube",
    "ScrambledNet",
    "Mixed",
    "MinCopula",
    "FourSlot",
    "SwapScheme",
    "SchemeSpec",
    "SCHEMES",
    "Stripes",
    "LatticeCells",
    "StrataSpec",
    "STRATA",
    "sample",
    "sample_batch",
    "map_chunks",
    "net_points",
    "save_pointset",
    "load_pointset",
    "stratum_corner_overlap",
    "is_prime",
    "min_copula_cdf",
    "lhs_anchored_prob_exact",
    "gss_anchored_prob_exact",
    "mixed_anchored_prob_exact",
    "rsj_small_prob",
    "corner_cells",
]


# ---------------------------------------------------------------------------
# RNG plumbing


class RngStream:
    """Splittable deterministic random stream on top of numpy's SeedSequence.

    `split(i)` derives an independent child stream addressed by the integer
    path (i, ...); identical seeds and paths always reproduce identical draws.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in _path)
        self._seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self.gen = np.random.default_rng(self._seq)

    def split(self, child_index: int) -> "RngStream":
        return RngStream(self.seed, self.path + (int(child_index),))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


# ---------------------------------------------------------------------------
# Point sets


@dataclass(frozen=True)
class PointSet:
    """An (n, d) array of points in the half-open unit cube, held read-only.

    The array is copied unless it is read-only and owns its memory, as the one
    `load_pointset` hands over is, so no array a caller can write to is aliased.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValidationError("point set must be a 2-d array with at least one row")
        if arr.shape[1] > 0 and not (np.all(arr >= 0.0) and np.all(arr < 1.0)):
            raise ValidationError("point coordinates must lie in [0,1)")
        if arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


# Values formatted per write: the writer holds one block of rows as text,
# whatever n is.
_WRITE_BLOCK = 1 << 15


def _row_format(d: int) -> str:
    """The %-template of one row of d coordinates. 17 significant digits read
    back as the same doubles."""
    return " ".join(["%.17g"] * d)


def save_pointset(ps: PointSet, path) -> None:
    """Write the text format to `path` (stdout when None): header "d n", then
    n rows of d reals (17 sig digits)."""
    rows = max(1, _WRITE_BLOCK // max(ps.d, 1))
    row_format = _row_format(ps.d) + "\n"
    with open(path, "w") if path is not None else nullcontext(sys.stdout) as fh:
        fh.write(f"{ps.d} {ps.n}\n")
        for start in range(0, ps.n, rows):
            block = ps.data[start:start + rows]
            fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def load_pointset(path) -> PointSet:
    """Read the text format written by save_pointset; round-trips exactly.

    Blank lines are skipped, and every other line after the header holds d
    reals; comments are not allowed. A malformed file raises ValidationError.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValidationError("point-set file must start with a 'd n' header")
        try:
            d, n = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValidationError("point-set header must contain two integers") from exc
        if d < 1 or n < 1:
            raise ValidationError("point-set header must be two integers d >= 1 and n >= 1")
        with warnings.catch_warnings():
            # a file with no rows is refused below, by its row count
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(fh, comments=None, ndmin=2)
            except ValueError as exc:  # a ragged row or a token that is no real
                raise ValidationError(f"malformed point-set row: {exc}") from exc
    if data.size and data.shape[1] != d:
        raise ValidationError(f"expected {d} coordinates per row, got {data.shape[1]}")
    if data.shape[0] != n:
        raise ValidationError(f"expected {n} rows, got {data.shape[0]}")
    data.setflags(write=False)  # no one else holds it: PointSet takes it without a copy
    return PointSet(data)


# ---------------------------------------------------------------------------
# Strata


# A strata kind is one frozen dataclass plus one STRATA entry: its JSON `kind`,
# `count` equal-measure strata, `label()`, `validate(d)`, `index(pts)` (the
# stratum of each point), `corner_overlap(upper)` (the measure of [0, upper)
# in each stratum) and `place(chosen, d, g)` (a uniform point in each stratum of
# the (rows, reps) index array `chosen`, as a (d, rows, reps) array).


@dataclass(frozen=True)
class Stripes:
    """Partition of [0,1)^d into `count` vertical stripes along coordinate 1."""

    count: int
    kind = "stripes"

    def label(self) -> str:
        return self.kind

    def validate(self, d: int) -> None:
        if self.count < 1:
            raise ValidationError("stripe count must be >= 1")

    def index(self, pts) -> np.ndarray:
        idx = np.floor(np.asarray(pts, dtype=float)[..., 0] * self.count).astype(np.int64)
        return np.minimum(idx, self.count - 1)

    def corner_overlap(self, upper: np.ndarray) -> np.ndarray:
        edges = np.arange(self.count + 1) / self.count
        first = np.clip(np.minimum(upper[0], edges[1:]) - edges[:-1], 0.0, None)
        return first * float(np.prod(upper[1:]))

    def place(self, chosen: np.ndarray, d: int, g: np.random.Generator) -> np.ndarray:
        # coordinate 1 is jittered within its stripe, coordinates 2..d are uniform
        pts = g.random((d,) + chosen.shape)
        pts[0] += chosen
        pts[0] /= self.count
        return pts


@dataclass(frozen=True)
class LatticeCells:
    """Partition of [0,1)^2 into the n fundamental-parallelepiped cells of a
    rank-1 lattice with generator (g1/n, g2/n), n prime."""

    g: tuple[int, int]
    n: int
    kind = "cells"

    @property
    def count(self) -> int:
        return self.n

    def label(self) -> str:
        return f"cells(g={self.g},n={self.n})"

    def validate(self, d: int) -> None:
        if d != 2:
            raise ValidationError("lattice-cell strata are 2-d only")
        if len(self.g) != 2:
            raise ValidationError("lattice generator g must have exactly two entries")
        if not is_prime(self.n):
            raise ValidationError("lattice-cell count n must be prime")
        if not all(1 <= gi < self.n for gi in self.g):
            raise ValidationError("lattice generator entries must lie in [1, n-1]")

    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Lagrange-reduced integer basis of n * (lattice + Z^2); det = +-n."""
        c = (self.g[1] * pow(self.g[0], -1, self.n)) % self.n
        v1 = np.array([1, c], dtype=np.int64)
        v2 = np.array([0, self.n], dtype=np.int64)
        while True:
            if v1 @ v1 > v2 @ v2:
                v1, v2 = v2, v1
            mu = round(int(v1 @ v2) / int(v1 @ v1))
            if mu == 0:
                return v1, v2
            v2 = v2 - mu * v1

    def _origins(self) -> np.ndarray:
        """(n, 2) array whose row k is the lattice point k g / n, the corner that spans cell k."""
        k = np.arange(self.n)
        return np.stack([(k * self.g[0]) % self.n, (k * self.g[1]) % self.n], axis=-1) / self.n

    def index(self, pts) -> np.ndarray:
        n = self.n
        v1, v2 = self.basis()
        det = int(v1[0] * v2[1] - v2[0] * v1[1])
        pts = n * np.asarray(pts, dtype=float)
        x1, x2 = pts[..., 0], pts[..., 1]
        i = np.floor((v2[1] * x1 - v2[0] * x2) / det).astype(np.int64)
        j = np.floor((-v1[1] * x1 + v1[0] * x2) / det).astype(np.int64)
        # cell k's lattice point has first coordinate k g1 mod n
        return ((i * v1[0] + j * v2[0]) % n * pow(self.g[0], -1, n)) % n

    def corner_overlap(self, upper: np.ndarray) -> np.ndarray:
        b1, b2 = (v / self.n for v in self.basis())
        y = self._origins()
        out = np.zeros(self.n)
        # cell k meets the box's integer shifts s + [0, upper) only for s in (min - upper, max)
        for k, corners in enumerate(np.stack([y, y + b1, y + b1 + b2, y + b2], axis=1)):
            first = np.ceil(corners.min(axis=0) - upper).astype(int)
            last = np.floor(corners.max(axis=0)).astype(int)
            for sx in range(first[0], last[0] + 1):
                for sy in range(first[1], last[1] + 1):
                    lo = np.array([sx, sy], dtype=float)
                    out[k] += polygon_area(clip_convex_to_box(corners, lo, lo + upper))
        return out

    def place(self, chosen: np.ndarray, d: int, g: np.random.Generator) -> np.ndarray:
        pts = np.empty((2,) + chosen.shape)
        flat, index = pts.reshape(2, -1), chosen.reshape(-1)
        blocks = _blocks(index.size, 1)
        for origin, axis in zip(self._origins().T, flat):
            for blk in blocks:
                # every index is in range: "clip" only spares `take` a buffered copy of `out`
                np.take(origin, index[blk], out=axis[blk], mode="clip")
        # every point's offset along b1 is drawn before any along b2
        for step in (v / self.n for v in self.basis()):
            for blk in blocks:
                offset = g.random(flat[0, blk].shape)
                for axis, length in zip(flat, step):
                    axis[blk] += offset * length
        # wrap into [0, 1): x - floor(x) equals np.mod(x, 1.0) for every finite double
        for axis in flat:
            for blk in blocks:
                axis[blk] -= np.floor(axis[blk])
        return pts


StrataSpec = Union[Stripes, LatticeCells]
STRATA = {cls.kind: cls for cls in (Stripes, LatticeCells)}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def stratum_corner_overlap(strata: StrataSpec, upper, d: int) -> np.ndarray:
    """Vector of Lebesgue measures of [0, upper) intersected with each stratum."""
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if upper.size != d:
        raise ValidationError("corner box dimension mismatch")
    return strata.corner_overlap(upper)


# ---------------------------------------------------------------------------
# Schemes


class SchemeSpec:
    """Base of the scheme dataclasses; a new scheme is one subclass plus one
    `SCHEMES` entry.

    A scheme owns its JSON `kind`, its `label()` (the CSV `scheme` column),
    `validate(n, d)`, and `draw(n, d, rows, reps, rng)`, its construction
    alone: it returns points 1..rows of `reps` replications as a (d, rows,
    reps) array, indexed (coordinate, point, replication). `sample_batch`
    calls it once `validate` has passed, passes it `prefix_rows(n, rows)`,
    sees the result as (reps, rows, d) and clamps it below 1. A scheme that
    sets `draws_prefix` is passed any 1 <= rows <= n and draws those rows
    alone, with the joint law of the first rows of a whole draw; the others
    are passed n. Two-point analytic
    schemes set `pair_dim` and give `pair_prob(rect1, rect2)`, the exact
    P(p1 in rect1, p2 in rect2) for rectangles given as per-axis (lo, hi)
    ranges. Schemes with an exact anchored-box law give
    `anchored_prob(n, box, t)`, the probability that points 1..t all fall in
    the origin-anchored box; the others return None.
    """

    kind: ClassVar[str]
    pair_dim: ClassVar[Optional[int]] = None
    draws_prefix: ClassVar[bool] = False

    def label(self) -> str:
        return self.kind

    def validate(self, n: int, d: int) -> None:
        pass

    def anchored_prob(self, n: int, box, t: int) -> Optional[float]:
        return None

    def prefix_rows(self, n: int, rows: int) -> int:
        return rows if self.draws_prefix else n


# Random values drawn at once: sort keys, lattice-cell offsets and integers come in
# blocks of whole rows of the array a single call would fill, at most this many values,
# or one row if that is more (a net level's permutations: one digit prefix's reps * b
# entries); jitter drawn straight into the result needs none. The generator fills
# arrays in C order, so the blocks draw exactly that call's values, and a draw holds
# its result plus one block.
_KEY_BLOCK = 1 << 16


def _blocks(count: int, row_size: int) -> list[slice]:
    """Slices that cover `count` rows of `row_size` values each, in order, at
    most `_KEY_BLOCK` values (or one row) a slice."""
    step = max(1, _KEY_BLOCK // max(1, row_size))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _index_dtype(n: int):
    """The integer type of indices below n: int32, or int64 past 2^31."""
    return np.int32 if n <= 2**31 else np.int64


def _integers(g: np.random.Generator, low: int, high: int, shape: tuple) -> np.ndarray:
    """g.integers(low, high, size=shape), drawn in blocks into the index type of `high`."""
    out = np.empty(shape, dtype=_index_dtype(high))
    flat = out.reshape(-1)
    for blk in _blocks(flat.size, 1):
        flat[blk] = g.integers(low, high, size=flat[blk].shape)
    return out


# The most entries of a table of ordered prefixes that `_perm_prefix` reads, 2^17
# (512 KiB of int32): past 7 rows a table holds at least 8! * 8 of them, so every
# row order of n >= 8 points is sorted. The 16 tables kept hold at most 8 MiB.
_PERM_TABLE_ENTRIES = 1 << 17


@functools.lru_cache(maxsize=16)
def _perm_table(n: int, rows: int) -> np.ndarray:
    """Read-only (n!/(n - rows)!, rows) int32 array of the ordered `rows`-prefixes
    of the permutations of 0..n-1, in `itertools.permutations(range(n), rows)` order."""
    values = np.arange(n, dtype=np.int32)
    table = np.empty((1, 0), dtype=np.int32)
    for k in range(rows):
        # each prefix, in order, followed by each value it has not taken, ascending
        free = (table[:, :, None] != values).all(axis=1)
        table = np.column_stack([np.repeat(table, n - k, axis=0),
                                 np.broadcast_to(values, free.shape)[free]])
    table.setflags(write=False)
    return table


def _perm_prefix(g: np.random.Generator, reps: int, n: int, rows: int) -> np.ndarray:
    """(rows, reps) int32 array (`_index_dtype(n)`): column r holds the first
    `rows` entries of replication r's uniform permutation of 0..n-1.

    One row is one uniform integer below n. Otherwise each replication draws
    one uniform index into the table of all n!/(n - rows)! ordered prefixes
    (`_perm_table`) while it holds at most `_PERM_TABLE_ENTRIES` entries.
    Past that, entry k is drawn uniformly from the n - k values not yet
    taken: an index into them is drawn, then raised past each taken value,
    in ascending order, that it reaches. That is O(rows^2) per replication,
    so when rows^2 > n, whole permutations are sorted instead from n uniform
    keys, a block of them at a time.
    """
    if rows == 1:  # the table of one-entry prefixes is the identity
        return _integers(g, 0, n, (1, reps))
    count = math.perm(n, rows) if rows <= 7 else _PERM_TABLE_ENTRIES  # past 7: too many
    out = np.empty((rows, reps), dtype=_index_dtype(n))
    if count * rows <= _PERM_TABLE_ENTRIES:
        table = _perm_table(n, rows)
        index = _integers(g, 0, count, (reps,))
        for column, entries in zip(table.T, out):
            # every index is in range: "clip" only spares `take` a buffered copy of `out`
            np.take(column, index, out=entries, mode="clip")
    elif rows * rows > n:
        for blk in _blocks(reps, n):
            keys = g.random((out[:, blk].shape[1], n))
            out[:, blk] = np.argsort(keys, axis=1)[:, :rows].T
    else:
        for k in range(rows):
            for blk in _blocks(reps, 1):  # `_integers`' blocks, so the same draws
                out[k, blk] = _next_perm_entry(g, n, out[:k, blk])
    return out


def _next_perm_entry(g: np.random.Generator, n: int, head: np.ndarray) -> np.ndarray:
    """The next (int64) entry of each permutation of 0..n-1 that begins with a column of
    `head`, drawn as `_perm_prefix` says. Its temporaries are freed before the next block
    draws."""
    entry = g.integers(0, n - len(head), size=head.shape[1])
    for taken in np.sort(head, axis=0):
        entry += taken <= entry
    return entry


@dataclass(frozen=True)
class MonteCarlo(SchemeSpec):
    """Independent uniform points: points 1..t all fall in a box with
    probability its volume to the power t."""

    kind = "mc"
    draws_prefix = True

    def draw(self, n, d, rows, reps, rng):
        return rng.gen.random((d, rows, reps))

    def anchored_prob(self, n, box, t):
        if not (1 <= t <= n):
            raise ValidationError("need 1 <= t <= n")
        return box.volume() ** t


@dataclass(frozen=True)
class GeneralizedStratified(SchemeSpec):
    """Points placed in a uniformly chosen N-subset of beta equal-measure strata."""

    beta: int
    strata: StrataSpec
    kind = "gss"
    draws_prefix = True

    def label(self):
        return f"gss(beta={self.beta},{self.strata.label()})"

    def validate(self, n, d):
        self.strata.validate(d)
        if self.beta != self.strata.count:
            raise ValidationError("beta must equal the number of strata")
        if self.beta < n:
            raise ValidationError("need beta >= n strata")

    def draw(self, n, d, rows, reps, rng):
        chosen = _perm_prefix(rng.gen, reps, self.beta, rows)
        return self.strata.place(chosen, d, rng.gen)

    def anchored_prob(self, n, box, t):
        return gss_anchored_prob_exact(self.beta, self.strata, box, n, t)


def elementary_symmetric(x, t: int) -> float:
    """e_t(x) by the stable one-pass recurrence; e_0 = 1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not (0 <= t <= x.size):
        raise ValidationError("need 0 <= t <= len(x)")
    return float(_esp_batch(x[:, None], t)[0])


def _esp_batch(x: np.ndarray, t: int) -> np.ndarray:
    """e_t per column of an (n, M) array."""
    e = np.zeros((t + 1, x.shape[1]))
    e[0] = 1.0
    for i, xi in enumerate(x):
        for j in range(min(t, i + 1), 0, -1):
            e[j] += xi * e[j - 1]
    return e[t]


def gss_anchored_prob_exact(beta: int, strata: StrataSpec, box: CornerBox0, n: int, t: int) -> float:
    """Exact P(points 1..t of generalized stratified sampling all in box).

    The ordered strata of the first t points are uniform over ordered
    t-tuples of distinct strata, so the probability is
    t!/(beta)_t * e_t(beta * overlap_j) with overlap_j the Lebesgue measure
    of box within stratum j.
    """
    if beta != strata.count:
        raise ValidationError("beta must equal the number of strata")
    if not (1 <= t <= n <= beta):
        raise ValidationError("need 1 <= t <= n <= beta")
    if not isinstance(box, CornerBox0):
        raise ValidationError("oracle supports origin-anchored boxes only")
    overlaps = stratum_corner_overlap(strata, box.upper, box.d)
    vals = beta * overlaps
    return math.factorial(t) / math.perm(beta, t) * elementary_symmetric(vals, t)


@dataclass(frozen=True)
class RsjLattice(SchemeSpec):
    """Rank-1 lattice with random generator, random digital shift, and jitter.

    N must be prime. N = 2 is accepted: the generator group degenerates to
    the single generator 1, which the generator draw returns without
    consuming randomness.
    """

    kind = "rsj"
    draws_prefix = True

    def validate(self, n, d):
        if not is_prime(n):
            raise ValidationError("rank-1 lattice point count must be prime")

    def draw(self, n, d, rows, reps, rng):
        g = rng.gen
        gvec = _integers(g, 1, n, (d, 1, reps))
        shift = _integers(g, 0, n, (d, 1, reps))
        perm = _perm_prefix(g, reps, n, rows)
        # at rows = 1 each cell overwrites its own generator
        cell = gvec if rows == 1 else np.empty((d, rows, reps), dtype=perm.dtype)
        for a in range(d):
            for blk in _blocks(reps, rows):
                value = np.multiply(perm[:, blk], gvec[a, :, blk], dtype=np.int64)
                value += shift[a, :, blk]
                np.remainder(value, n, out=cell[a, :, blk])
        del gvec, shift, perm
        pts = g.random(cell.shape)  # the jitter
        pts += cell
        return np.divide(pts, n, out=pts)


def corner_cells(n: int, counts) -> np.ndarray:
    """Boolean (n, n) mask marking the k1 x k2 block of grid cells at the origin."""
    k1, k2 = int(counts[0]), int(counts[1])
    if not (0 <= k1 <= n and 0 <= k2 <= n):
        raise ValidationError("cell counts must lie in [0, n]")
    mask = np.zeros((n, n), dtype=bool)
    mask[:k1, :k2] = True
    return mask


def rsj_small_prob(n: int, qcells, t: int) -> float:
    """Exact P(points 1..t of the jittered random rank-1 lattice all in Q).

    Q is a union of cells of the n x n grid, given as a boolean (n, n) mask
    such as `corner_cells` returns; the jitter never crosses cell
    boundaries and the row order is exchangeable, so conditioning on the
    generator and shift gives (K)_t / (n)_t with K the number of lattice
    cells inside Q. For prime n the lattice of generator (a, b) and shift
    (x, y) is the line of slope c = b/a mod n and offset y' = (y - c*x) mod n,
    with cells (u, (y' + c*u) mod n): each of the (n-1)*n lines is taken by
    n-1 generators and n shifts alike. Every line is enumerated, and the
    falling factorials of its cell counts are summed as exact integers. n
    must be prime and at most 31.
    """
    if not is_prime(n):
        raise ValidationError("n must be prime")
    if n > 31:
        raise ValidationError("exact lattice enumeration is capped at n = 31")
    if not (1 <= t <= n):
        raise ValidationError("need 1 <= t <= n")
    mask = np.asarray(qcells)
    if mask.dtype != bool or mask.shape != (n, n):
        raise ValidationError(f"cells must be a boolean ({n}, {n}) mask")
    k = np.arange(n)
    slopes = np.arange(1, n)[:, None, None]  # for n = 2 the only generator is (1, 1)
    # K(c, y') = sum_u Q[u, (y' + c*u) mod n], over slopes c, offsets y' = k[:, None], steps u = k
    lines = mask[k, (k[:, None] + slopes * k) % n].sum(axis=2)
    hist = np.bincount(lines.ravel(), minlength=n + 1)
    total = sum(int(h) * math.perm(K, t) for K, h in enumerate(hist))
    return total / (len(slopes) * n * math.perm(n, t))


@dataclass(frozen=True)
class LatinHypercube(SchemeSpec):
    """Coordinatewise independent stratified permutations."""

    kind = "lhs"
    draws_prefix = True

    def draw(self, n, d, rows, reps, rng):
        g = rng.gen
        perm = _perm_prefix(g, reps * d, n, rows).reshape(rows, d, reps)
        # jitter each point within its strata
        pts = g.random((d, rows, reps))
        pts += perm.transpose(1, 0, 2)
        return np.divide(pts, n, out=pts)

    def anchored_prob(self, n, box, t):
        return lhs_anchored_prob_exact(n, box.upper, t)


def lhs_anchored_prob_exact(n: int, q, t: int) -> float:
    """Exact P(points 1..t of an n-point Latin hypercube all in [0, q)).

    Per axis write q_i * n = k_i + theta_i with integer k_i and theta_i in
    [0, 1); the axis factor is ((k_i)_t + t * theta_i * (k_i)_(t-1)) / (n)_t
    and the axes multiply because coordinates are stratified independently.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if not (np.all(q >= 0.0) and np.all(q <= 1.0)):  # NaN fails both
        raise ValidationError("anchor coordinates must lie in [0, 1]")
    if not (1 <= t <= n):
        raise ValidationError("need 1 <= t <= n")
    denom = math.perm(n, t)
    prob = 1.0
    for qi in q:
        x = qi * n
        k = min(int(math.floor(x)), n)
        theta = x - k
        prob *= (math.perm(k, t) + t * theta * math.perm(k, t - 1)) / denom
    return float(prob)


@dataclass(frozen=True)
class SimpleStratified(LatinHypercube):
    """One uniform point per stratum [(j-1)/N, j/N), order randomized: the
    Latin hypercube in d = 1, with its prefix draw and exact oracle."""

    kind = "sss"

    def validate(self, n, d):
        if d != 1:
            raise ValidationError("simple stratified sampling is 1-d only")


def _cell_map(g: np.random.Generator, b: int, m: int, reps: int) -> np.ndarray:
    """(b^m, reps) int32 array: the cell of the b^-m grid that nested uniform
    scrambling sends each cell to, on one coordinate of each replication.

    Level r permutes the b digits after each of the b^r prefixes, so the map
    grows one digit at a time: sigma[p*b + a] = sigma_r[p]*b + perm_p(a).
    The permutations of level r are drawn prefix by prefix, each prefix's
    `reps` of them by `_perm_prefix`, in blocks of consecutive prefixes
    (`_KEY_BLOCK`). Each level fills the tail of the one result array: level
    r + 1 is written over level r from the front, and prefix p's digits land
    before any later prefix's entry. A block is summed straight into the map,
    one (digit, replication) plane per prefix.
    """
    n = b**m
    sigma = np.zeros((n, reps), dtype=np.int32)
    for r in range(m):
        prefixes = b**r
        level = sigma[n - prefixes:]
        grown = sigma[n - prefixes * b:].reshape(prefixes, b, reps)
        for blk in _blocks(prefixes, reps * b):
            high = level[blk] * b  # read before this block overwrites it
            perms = _perm_prefix(g, high.size, b, b).reshape(b, len(high), reps)
            np.add(perms.transpose(1, 0, 2), high[:, None, :], out=grown[blk])
    return sigma


@dataclass(frozen=True)
class ScrambledNet(SchemeSpec):
    """Base-b digital net (b prime, s <= b), nested uniform scrambling to depth
    m plus uniform jitter below b^-m, rows shuffled.

    Drawn as the Latin hypercube is: cell indices plus jitter, over n = b^m.
    Base point i lies in cell c_l(i) of the b^-m grid on coordinate l, the
    cell map sigma_l (`_cell_map`) scrambles the cells, and one uniform row
    order pi (`_perm_prefix`) shuffles the points: row j's coordinate l is
    (sigma_l(c_l(pi(j))) + u_l(c_l(pi(j)))) / n. The jitter is drawn per cell;
    it is independent per point because each c_l is a bijection, as each
    generating matrix P^l is unit upper triangular. The draw holds its (s, n,
    reps) result beside one cell map (and, while it grows, its previous level)
    or one block's row order, and one block of permutations or keys.
    """

    b: int
    m: int
    s: int
    kind = "net"

    def label(self):
        return f"net(b={self.b},m={self.m},s={self.s})"

    def validate(self, n, d):
        if not is_prime(self.b):
            raise ValidationError("net base must be prime")
        if not (1 <= self.s <= self.b):
            raise ValidationError("net dimension s must satisfy 1 <= s <= b")
        if self.m < 1:
            raise ValidationError("net digit depth m must be >= 1")
        if n != self.b**self.m:
            raise ValidationError(f"net point count must be b^m = {self.b ** self.m}")
        if d != self.s:
            raise ValidationError("net dimension mismatch: d must equal s")

    def draw(self, n, d, rows, reps, rng):
        b, m, s = self.b, self.m, self.s
        g = rng.gen
        cells = _net_base_digits(b, m, s) @ b ** np.arange(m - 1, -1, -1)  # (n, s)
        pts = g.random((s, n, reps))  # the jitter of each cell
        for coord in pts:
            coord += _cell_map(g, b, m, reps)
        for blk in _blocks(reps, n):
            width = min(blk.stop, reps) - blk.start
            order = _perm_prefix(g, width, n, n)
            for cell, coord in zip(cells.T, pts):
                # row j of a replication reads the cell its base point order[j] lies in
                coord[:, blk] = np.take(coord[:, blk], cell[order] * width + np.arange(width))
        return np.divide(pts, n, out=pts)


@dataclass(frozen=True)
class Mixed(SchemeSpec):
    """Independent concatenation: left scheme on the first d_left coordinates,
    right scheme on the remaining d_right. It draws prefixes when both factors
    do, and its anchored-box law is the product of theirs. `validate` checks
    both factors, so each factor's `draw` is called directly, and its part is
    copied into the result's (d, rows, reps) planes as it is drawn."""

    left: SchemeSpec
    d_left: int
    right: SchemeSpec
    d_right: int
    kind = "mixed"

    def label(self):
        return f"mixed({self.left.label()}|{self.d_left}+{self.right.label()}|{self.d_right})"

    def validate(self, n, d):
        if self.d_left < 1 or self.d_right < 1:
            raise ValidationError("mixed factors must have dimension >= 1")
        if d != self.d_left + self.d_right:
            raise ValidationError("mixed dimension must equal d_left + d_right")
        _validate(self.left, n, self.d_left)
        _validate(self.right, n, self.d_right)

    def draw(self, n, d, rows, reps, rng):
        factors = [(self.left, 0, slice(0, self.d_left)), (self.right, 1, slice(self.d_left, d))]
        # factor k draws from rng.split(k) alone, so the order is free: the wider
        # factor goes first, and the result is allocated once it is drawn
        factors.sort(key=lambda f: f[2].start - f[2].stop)
        out = None
        for spec, k, cols in factors:
            part = spec.draw(n, cols.stop - cols.start, rows, reps, rng.split(k))
            if out is None:
                out = np.empty((d, rows, reps))
            out[cols] = part
            del part
        return out

    @property
    def draws_prefix(self):
        return self.left.draws_prefix and self.right.draws_prefix

    def anchored_prob(self, n, box, t):
        # the factors are independent, so their laws multiply
        q = box.upper
        left = self.left.anchored_prob(n, CornerBox0(q[: self.d_left]), t)
        right = self.right.anchored_prob(n, CornerBox0(q[self.d_left:]), t)
        return None if left is None or right is None else left * right


def mixed_anchored_prob_exact(n: int, q_left, q_right, t: int) -> float:
    """Exact anchored-box probability for a concatenation of two independent
    n-point Latin hypercube factors: `Mixed`'s product of the factor laws."""
    spec = Mixed(LatinHypercube(), len(q_left), LatinHypercube(), len(q_right))
    return spec.anchored_prob(n, CornerBox0(np.concatenate([q_left, q_right])), t)


# ---------------------------------------------------------------------------
# Two-point analytic schemes


def _overlap(a, b) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


class _TwoPoint(SchemeSpec):
    """A pair of points in dimension `pair_dim` with a closed-form joint law."""

    pair_dim: ClassVar[int]

    def validate(self, n, d):
        if n != 2 or d != self.pair_dim:
            raise ValidationError(
                f"{self.label()} is a two-point scheme in dimension {self.pair_dim}; "
                f"got n={n}, d={d}"
            )


def min_copula_cdf(x: float, y: float) -> float:
    """Joint CDF of the dependent uniform pair: min(x, y, (x^2 + y^2)/2)."""
    return min(x, y, 0.5 * (x * x + y * y))


@dataclass(frozen=True)
class MinCopula(_TwoPoint):
    """Two-point analytic scheme on [0,1) with joint CDF min(x, y, (x^2+y^2)/2).

    Probability-only: it has closed-form orthant probabilities but no sampler.
    """

    kind = "mincopula"
    pair_dim = 1

    def draw(self, n, d, rows, reps, rng):
        raise ValidationError("the min-copula scheme has no sampler; use its probability oracle")

    def pair_prob(self, rect1, rect2):
        a1, b1 = rect1[0]
        a2, b2 = rect2[0]
        return (
            min_copula_cdf(b1, b2)
            - min_copula_cdf(a1, b2)
            - min_copula_cdf(b1, a2)
            + min_copula_cdf(a1, a2)
        )


_FOURSLOT_LOWER = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])

# joint slot probabilities, symmetric, rows/columns sum to 1/4; unlisted pairs are 0
_FOURSLOT_TABLE = {
    (0, 0): 1 / 16, (1, 1): 1 / 16, (2, 2): 1 / 16, (3, 3): 1 / 16,
    (0, 2): 1 / 32, (2, 0): 1 / 32, (1, 3): 1 / 32, (3, 1): 1 / 32,
    (0, 3): 5 / 32, (3, 0): 5 / 32, (1, 2): 5 / 32, (2, 1): 5 / 32,
}


def _fourslot_weights(rect) -> np.ndarray:
    # P(point in rect | slot i) = area(rect intersect slot_i) / (1/4)
    return np.array([
        4.0 * _overlap(rect[0], (x, x + 0.5)) * _overlap(rect[1], (y, y + 0.5))
        for x, y in _FOURSLOT_LOWER.tolist()
    ])


@dataclass(frozen=True)
class FourSlot(_TwoPoint):
    """Two-point analytic scheme on [0,1)^2: quadrant slots with a fixed joint
    slot table, uniform within slots."""

    kind = "fourslot"
    pair_dim = 2

    def draw(self, n, d, rows, reps, rng):
        g = rng.gen
        pairs = sorted(_FOURSLOT_TABLE)
        probs = np.array([_FOURSLOT_TABLE[p] for p in pairs])
        pick = g.choice(len(pairs), size=reps, p=probs)
        slot = np.array(pairs)[pick]  # (reps, 2)
        u = g.random((reps, 2, 2)) * 0.5
        return (_FOURSLOT_LOWER[slot] + u).transpose(2, 1, 0)

    def pair_prob(self, rect1, rect2):
        w1 = _fourslot_weights(rect1)
        w2 = _fourslot_weights(rect2)
        return float(sum(p * w1[i] * w2[j] for (i, j), p in _FOURSLOT_TABLE.items()))


@dataclass(frozen=True)
class SwapScheme(_TwoPoint):
    """Two-point analytic scheme on [0,1)^2: p1 = (X, Y), p2 = (Y, X)."""

    kind = "swap"
    pair_dim = 2

    def draw(self, n, d, rows, reps, rng):
        g = rng.gen
        x = g.random(reps)
        y = g.random(reps)
        return np.array([[x, y], [y, x]])  # (coordinate, point, replication)

    def pair_prob(self, rect1, rect2):
        # X must fall in rect1_x intersect rect2_y, Y in rect1_y intersect rect2_x
        return _overlap(rect1[0], rect2[1]) * _overlap(rect1[1], rect2[0])


SCHEMES = {
    cls.kind: cls
    for cls in (
        MonteCarlo, SimpleStratified, GeneralizedStratified, RsjLattice, LatinHypercube,
        ScrambledNet, Mixed, MinCopula, FourSlot, SwapScheme,
    )
}


def _scheme(spec) -> SchemeSpec:
    if not isinstance(spec, SchemeSpec):
        raise ValidationError(f"unknown scheme: {type(spec).__name__}")
    return spec


def _validate(spec, n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise ValidationError("need n >= 1 and d >= 1")
    _scheme(spec).validate(n, d)


# ---------------------------------------------------------------------------
# Digital nets


def _net_base_digits(b: int, m: int, s: int) -> np.ndarray:
    """Digits of the deterministic base net: shape (n, s, m), digit r has weight b^-(r+1).

    Coordinate l maps the base-b digits a of i (least significant first) to P^l a mod b, P
    the Pascal matrix: (P^l)[r, c] = C(c, r) l^(c-r), 0 below the diagonal (Faure 1982).
    """
    n = b**m
    i = np.arange(n)
    a = np.stack([(i // b**c) % b for c in range(m)], axis=1)  # LSB first
    digs = np.empty((n, s, m), dtype=np.int64)
    for l in range(s):  # math.comb(c, r) is 0 below the diagonal, where c < r
        power = [[math.comb(c, r) * l ** max(c - r, 0) % b for c in range(m)] for r in range(m)]
        digs[:, l, :] = a @ np.array(power, dtype=np.int64).T % b
    return digs


def net_points(b: int, m: int, s: int) -> PointSet:
    """The deterministic digital net underlying ScrambledNet, unscrambled and
    unjittered: b^m points in [0,1)^s with coordinates on the b^-m grid."""
    _validate(ScrambledNet(b, m, s), b**m, s)
    digits = _net_base_digits(b, m, s)
    weights = b ** -(np.arange(m, dtype=float) + 1)
    return PointSet(digits @ weights)


# The largest double below 1. `Generator.random` returns at most 1 - 2^-53, and with it
# a stratum's top point (k + u) / count rounds up to 1.0, as do a net's top cell plus its
# jitter and a lattice cell's point wrapped by `np.mod`: every draw is clamped to it.
_BELOW_ONE = np.nextafter(1.0, 0.0)


def sample_batch(
    spec: SchemeSpec, n: int, d: int, reps: int, rng: RngStream, rows: Optional[int] = None
) -> np.ndarray:
    """Draw `reps` independent replications of the scheme: shape (reps, n, d).

    With `rows` < n, only points 1..rows of each replication are needed:
    schemes that set `draws_prefix` draw exactly those (shape (reps, rows,
    d)), the others all n. `rows` None or >= n draws whole replications.
    The scheme's (d, rows, reps) draw is returned through one transpose, and
    every coordinate is clamped in place to the largest double below 1.
    """
    if reps < 1:
        raise ValidationError("need reps >= 1")
    _validate(spec, n, d)
    rows = n if rows is None else min(rows, n)
    if rows < 1:
        raise ValidationError("need rows >= 1")
    pts = spec.draw(n, d, spec.prefix_rows(n, rows), reps, rng).transpose(2, 1, 0)
    return np.minimum(pts, _BELOW_ONE, out=pts)


_CHUNK_SCALARS = 4_000_000


def map_chunks(spec: SchemeSpec, n: int, d: int, reps: int, rng: RngStream, fn,
               rows: Optional[int] = None):
    """Apply fn to `reps` replications of the scheme drawn in chunks.

    `rows` is passed on to `sample_batch`. A chunk holds about 4e6 scalars of
    the rows really drawn, and chunk k draws from rng.split(k); the results
    are returned in chunk order. Drawing a chunk costs, at its peak, the chunk
    plus its integer strata or cell map and one block of keys (README, "What
    a chunk costs").
    """
    if reps < 1:
        raise ValidationError("need at least one replication")
    drawn = _scheme(spec).prefix_rows(n, n if rows is None else min(rows, n))
    chunk = max(1, _CHUNK_SCALARS // max(1, drawn * d))
    return [
        fn(sample_batch(spec, n, d, min(chunk, reps - pos), rng.split(k), rows))
        for k, pos in enumerate(range(0, reps, chunk))
    ]


def sample(spec: SchemeSpec, n: int, d: int, rng: RngStream) -> PointSet:
    """Draw one replication of the scheme."""
    return PointSet(sample_batch(spec, n, d, 1, rng)[0])
