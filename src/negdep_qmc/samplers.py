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

All randomness flows through RngStream, a splittable deterministic stream:
the same seed and call sequence reproduce the same output bit for bit, and
`split(i)` yields statistically independent child streams.
"""

from __future__ import annotations

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
    """An (n, d) array of points in the half-open unit cube."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValidationError("point set must be a 2-d array with at least one row")
        if arr.shape[1] > 0 and not (np.all(arr >= 0.0) and np.all(arr < 1.0)):
            raise ValidationError("point coordinates must lie in [0,1)")
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
    return PointSet(data)


# ---------------------------------------------------------------------------
# Strata


# A strata kind is one frozen dataclass plus one STRATA entry: its JSON `kind`,
# `count` equal-measure strata, `label()`, `validate(d)`, `index(pts)` (the
# stratum of each point), `corner_overlap(upper, d)` (the measure of [0, upper)
# in each stratum) and `place(chosen, d, g)` (a uniform point in each stratum of
# the (reps, rows) index array `chosen`).


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

    def corner_overlap(self, upper: np.ndarray, d: int) -> np.ndarray:
        edges = np.arange(self.count + 1) / self.count
        first = np.clip(np.minimum(upper[0], edges[1:]) - edges[:-1], 0.0, None)
        return first * (float(np.prod(upper[1:])) if d > 1 else 1.0)

    def place(self, chosen: np.ndarray, d: int, g: np.random.Generator) -> np.ndarray:
        first = (chosen + g.random(chosen.shape)) / self.count
        # coordinates 2..d are uniform; at d = 1 the empty draw takes no randomness
        return np.concatenate([first[:, :, None], g.random(chosen.shape + (d - 1,))], axis=2)


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

    def corner_overlap(self, upper: np.ndarray, d: int) -> np.ndarray:
        b1, b2 = (v / self.n for v in self.basis())
        y = self._origins()
        out = np.zeros(self.n)
        # cell k is a parallelepiped in R^2; its pieces mod 1 lie in the unit squares it meets
        for k, corners in enumerate(np.stack([y, y + b1, y + b1 + b2, y + b2], axis=1)):
            (xmin, ymin), (xmax, ymax) = corners.min(axis=0), corners.max(axis=0)
            for sx in range(math.floor(xmin), math.ceil(xmax) + 1):
                for sy in range(math.floor(ymin), math.ceil(ymax) + 1):
                    lo = np.array([sx, sy], dtype=float)
                    out[k] += polygon_area(clip_convex_to_box(corners, lo, lo + upper))
        return out

    def place(self, chosen: np.ndarray, d: int, g: np.random.Generator) -> np.ndarray:
        b1, b2 = (v / self.n for v in self.basis())
        u = g.random(chosen.shape + (1,))
        w = g.random(chosen.shape + (1,))
        pts = np.mod(self._origins()[chosen] + u * b1 + w * b2, 1.0)
        pts[pts >= 1.0] = 0.0  # fp guard: mod of a tiny negative can round to 1.0
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
    return strata.corner_overlap(upper, d)


# ---------------------------------------------------------------------------
# Schemes


class SchemeSpec:
    """Base of the scheme dataclasses; a new scheme is one subclass plus one
    `SCHEMES` entry.

    A scheme owns its JSON `kind`, its `label()` (the CSV `scheme` column),
    `validate(n, d)`, and `draw(n, d, rows, reps, rng)`, which draws points
    1..rows (1 <= rows <= n) of `reps` replications once `validate` has
    passed. A scheme that sets `draws_prefix` returns exactly those rows,
    with the joint law of the first rows of a whole draw; the others return
    all n, and `prefix_rows` says how many come back. Two-point analytic
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


def _row_perms(g: np.random.Generator, reps: int, n: int) -> np.ndarray:
    """(reps, n) array of independent uniform permutations of 0..n-1."""
    return np.argsort(g.random((reps, n)), axis=1)


def _perm_prefix(g: np.random.Generator, reps: int, n: int, rows: int, whole: bool) -> np.ndarray:
    """(reps, rows) array: the first `rows` entries of independent uniform
    permutations of 0..n-1.

    Entry k is drawn uniformly from the n - k values not yet taken: an index
    into them is drawn, then raised past each taken value, in ascending
    order, that it reaches. That is O(rows^2) per replication, so when
    rows^2 > n, or the scheme draws its `whole` point set, the whole
    permutation is drawn by argsort instead.
    """
    if whole or rows * rows > n:
        return _row_perms(g, reps, n)[:, :rows]
    out = np.empty((reps, rows), dtype=np.int64)
    for k in range(rows):
        v = g.integers(0, n - k, size=reps)
        for taken in np.sort(out[:, :k], axis=1).T:
            v += taken <= v
        out[:, k] = v
    return out


@dataclass(frozen=True)
class MonteCarlo(SchemeSpec):
    """Independent uniform points."""

    kind = "mc"
    draws_prefix = True

    def draw(self, n, d, rows, reps, rng):
        return rng.gen.random((reps, rows, d))


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
        chosen = _perm_prefix(rng.gen, reps, self.beta, rows, rows == n)
        return self.strata.place(chosen, d, rng.gen)

    def anchored_prob(self, n, box, t):
        return gss_anchored_prob_exact(self.beta, self.strata, box, n, t)


def elementary_symmetric(x, t: int) -> float:
    """e_t(x) by the stable one-pass recurrence; e_0 = 1."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not (0 <= t <= x.size):
        raise ValidationError("need 0 <= t <= len(x)")
    return float(_esp_batch(x[None, :], t)[0])


def _esp_batch(x: np.ndarray, t: int) -> np.ndarray:
    """e_t per row of an (M, n) array."""
    e = np.zeros((t + 1, x.shape[0]))
    e[0] = 1.0
    for i, xi in enumerate(np.ascontiguousarray(x.T)):
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

    N must be prime. N = 2 is accepted: the generator group degenerates to a
    single element, which keeps the construction valid but trivial.
    """

    kind = "rsj"
    draws_prefix = True

    def validate(self, n, d):
        if not is_prime(n):
            raise ValidationError("rank-1 lattice point count must be prime")

    def draw(self, n, d, rows, reps, rng):
        g = rng.gen
        gvec = g.integers(1, n, size=(reps, 1, d)) if n > 2 else np.ones((reps, 1, d), dtype=np.int64)
        shift = g.integers(0, n, size=(reps, 1, d))
        perm = _perm_prefix(g, reps, n, rows, rows == n)[:, :, None]
        jitter = g.random((reps, rows, d))
        cell = (perm * gvec + shift) % n
        return (cell + jitter) / n


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
    cells inside Q. For prime n the lattice of generator (a, b) is the line
    of slope c = b/a mod n, so the (n-1)^2 generators reduce to the n-1
    slopes, each taken n-1 times; every slope and all n^2 shifts are
    enumerated, and the falling factorials are summed as exact integers. n
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
    x = (k[:, None, None] + k[None, None, :]) % n  # shift x, step k
    slopes = range(1, n)  # for n = 2 the only generator is (1, 1)
    # hist[K]: number of (slope, shift) pairs whose line has K cells in Q
    hist = np.zeros(n + 1, dtype=np.int64)
    for c in slopes:
        y = (k[None, :, None] + c * k[None, None, :]) % n  # shift y, step k
        hist += np.bincount(mask[x, y].sum(axis=2).ravel(), minlength=n + 1)
    total = sum(int(h) * math.perm(K, t) for K, h in enumerate(hist))
    return total / (len(slopes) * n * n * math.perm(n, t))


@dataclass(frozen=True)
class LatinHypercube(SchemeSpec):
    """Coordinatewise independent stratified permutations."""

    kind = "lhs"
    draws_prefix = True

    def draw(self, n, d, rows, reps, rng):
        g = rng.gen
        perm = _perm_prefix(g, reps * d, n, rows, rows == n).reshape(reps, d, rows)
        # jitter each point within its strata
        return np.swapaxes((perm + g.random(perm.shape)) / n, 1, 2)

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


@dataclass(frozen=True)
class ScrambledNet(SchemeSpec):
    """Base-b digital net (b prime, s <= b), nested uniform scrambling to depth
    m plus uniform jitter below b^-m, rows shuffled."""

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
        base = _net_base_digits(b, m, s)
        weights = b ** -(np.arange(m, dtype=float) + 1)
        out = np.empty((reps, n, s))
        digits = np.empty((reps, n, m), dtype=np.int64)
        for l in range(s):
            prefix = np.zeros(n, dtype=np.int64)
            for r in range(m):
                # one permutation of the b digits per prefix and replication. The
                # generating matrices are unit upper triangular, so all b^r
                # prefixes occur at level r and are drawn in ascending order.
                perms = np.argsort(g.random((b**r, reps, b)), axis=2)
                digits[:, :, r] = perms[prefix, :, base[:, l, r]].T
                prefix = prefix * b + base[:, l, r]
            out[:, :, l] = digits @ weights + g.random((reps, n)) * b ** (-m)
        rp = _row_perms(g, reps, n)
        return out.reshape(reps * n, s)[rp + n * np.arange(reps)[:, None]]


@dataclass(frozen=True)
class Mixed(SchemeSpec):
    """Independent concatenation: left scheme on the first d_left coordinates,
    right scheme on the remaining d_right. It draws prefixes when both factors
    do, and its anchored-box law is the product of theirs."""

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
        rows = self.prefix_rows(n, rows)
        left = sample_batch(self.left, n, self.d_left, reps, rng.split(0), rows)
        right = sample_batch(self.right, n, self.d_right, reps, rng.split(1), rows)
        return np.concatenate([left, right], axis=2)

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
    n-point Latin hypercube factors: the factor probabilities multiply."""
    return lhs_anchored_prob_exact(n, q_left, t) * lhs_anchored_prob_exact(n, q_right, t)


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
        return _FOURSLOT_LOWER[slot] + u

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
        return np.stack([np.stack([x, y], axis=1), np.stack([y, x], axis=1)], axis=1)

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


def _pascal_matrix_powers(b: int, m: int, s: int) -> list[np.ndarray]:
    pascal = np.zeros((m, m), dtype=np.int64)
    for r in range(m):
        for c in range(r, m):
            pascal[r, c] = math.comb(c, r) % b
    mats = []
    cur = np.eye(m, dtype=np.int64)
    for _ in range(s):
        mats.append(cur.copy())
        cur = (cur @ pascal) % b
    return mats


def _net_base_digits(b: int, m: int, s: int) -> np.ndarray:
    """Digits of the deterministic base net: shape (n, s, m), digit r has weight b^-(r+1)."""
    n = b**m
    i = np.arange(n)
    a = np.stack([(i // b**c) % b for c in range(m)], axis=1)  # LSB first
    mats = _pascal_matrix_powers(b, m, s)
    digs = np.empty((n, s, m), dtype=np.int64)
    for l in range(s):
        digs[:, l, :] = (a @ mats[l].T) % b
    return digs


def net_points(b: int, m: int, s: int) -> PointSet:
    """The deterministic digital net underlying ScrambledNet, unscrambled and
    unjittered: b^m points in [0,1)^s with coordinates on the b^-m grid."""
    _validate(ScrambledNet(b, m, s), b**m, s)
    digits = _net_base_digits(b, m, s)
    weights = b ** -(np.arange(m, dtype=float) + 1)
    return PointSet(digits @ weights)


def sample_batch(
    spec: SchemeSpec, n: int, d: int, reps: int, rng: RngStream, rows: Optional[int] = None
) -> np.ndarray:
    """Draw `reps` independent replications of the scheme: shape (reps, n, d).

    With `rows` < n, only points 1..rows of each replication are needed:
    schemes that set `draws_prefix` draw exactly those (shape (reps, rows,
    d)), the others all n. `rows` None or >= n draws whole replications.
    """
    if reps < 1:
        raise ValidationError("need reps >= 1")
    _validate(spec, n, d)
    rows = n if rows is None else min(rows, n)
    if rows < 1:
        raise ValidationError("need rows >= 1")
    return spec.draw(n, d, rows, reps, rng)


_CHUNK_SCALARS = 4_000_000


def map_chunks(spec: SchemeSpec, n: int, d: int, reps: int, rng: RngStream, fn,
               rows: Optional[int] = None):
    """Apply fn to `reps` replications of the scheme drawn in chunks.

    `rows` is passed on to `sample_batch`. A chunk holds about 4e6 scalars of
    the rows really drawn, and chunk k draws from rng.split(k); the results
    are returned in chunk order.
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
