"""Boxes, delta covers, and the net property."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep_qmc import (
    CornerBox0,
    CornerBox1,
    Interval,
    RngStream,
    ValidationError,
    build_delta_cover,
    clip_convex_to_box,
    contains_points,
    is_net,
    net_points,
    polygon_area,
    sample,
    MonteCarlo,
)


# ---------------------------------------------------------------------------
# Boxes


def test_volume_of_each_box_kind():
    assert CornerBox0((0.5, 0.4)).volume() == pytest.approx(0.2)
    assert CornerBox1((0.5, 0.4)).volume() == pytest.approx(0.3)
    assert Interval((0.1, 0.2), (0.6, 0.7)).volume() == pytest.approx(0.25)


def test_membership_half_open_semantics():
    box = CornerBox0((0.5, 0.5))
    assert contains_points(box, [(0.0, 0.0), (0.5, 0.25)]).tolist() == [True, False]
    up = CornerBox1((0.5, 0.5))
    assert contains_points(up, [(0.5, 0.5), (0.999, 0.5), (0.4999, 0.9)]).tolist() == [
        True, True, False,
    ]
    iv = Interval((0.2,), (0.8,))
    assert contains_points(iv, [(0.2,), (0.8,)]).tolist() == [True, False]


def test_membership_frequency_matches_volume():
    # Binomial check: fraction of uniform points inside each region tracks
    # its Lebesgue measure within 5 sigma.
    rng = RngStream(101)
    pts = sample(MonteCarlo(), 20_000, 3, rng).data
    regions = [
        CornerBox0((0.3, 0.7, 0.5)),
        CornerBox1((0.2, 0.5, 0.1)),
        Interval((0.1, 0.0, 0.4), (0.9, 0.6, 1.0)),
    ]
    for region in regions:
        frac = float(np.mean(contains_points(region, pts)))
        v = region.volume()
        sigma = math.sqrt(v * (1 - v) / 20_000)
        assert abs(frac - v) < 5 * sigma, region.label()


def reference_contains(region, pts):
    """Membership as np.all over the last axis, the definition each region's
    axis-by-axis `contains` must reproduce."""
    if isinstance(region, CornerBox0):
        return np.all(pts < region.upper, axis=-1)
    if isinstance(region, CornerBox1):
        return np.all(pts >= region.lower, axis=-1)
    return np.all(pts >= region.a, axis=-1) & np.all(pts < region.b, axis=-1)


_EDGES = [0.0, 0.25, 0.5, 0.75, 1.0]


@st.composite
def boxes(draw, d):
    """A region of dimension d whose edges often sit on `_EDGES`."""
    edge = st.one_of(st.sampled_from(_EDGES), st.floats(0.0, 1.0))
    corners = [np.array(draw(st.lists(edge, min_size=d, max_size=d))) for _ in range(2)]
    lo, hi = np.minimum(*corners), np.maximum(*corners)
    kind = draw(st.sampled_from(["corner0", "corner1", "interval"]))
    if kind == "corner0":
        return CornerBox0(hi)
    if kind == "corner1":
        return CornerBox1(lo)
    return Interval(lo, hi)


def _edges_of(region):
    return [edge for side in region.axes() for edge in side]


@st.composite
def regions_and_points(draw):
    d = draw(st.integers(1, 4))
    region = draw(boxes(d))
    coord = st.one_of(
        st.sampled_from(_edges_of(region)),  # exactly on this region's edges
        st.sampled_from(_EDGES + [-0.0, np.nextafter(1.0, 0.0)]),
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([-0.5, -1e-300, np.nextafter(1.0, 2.0), 1.5, -np.inf, np.inf, np.nan]),
    )
    shape = draw(st.sampled_from([(), (draw(st.integers(0, 6)),),
                                  (draw(st.integers(1, 3)), draw(st.integers(0, 5)))]))
    size = int(np.prod(shape, dtype=int)) * d
    pts = np.array(draw(st.lists(coord, min_size=size, max_size=size)), dtype=float)
    return region, pts.reshape(shape + (d,))


@settings(max_examples=300, deadline=None)
@given(regions_and_points())
def test_contains_points_matches_the_all_axes_reference(case):
    region, pts = case
    got = contains_points(region, pts)
    expected = reference_contains(region, pts)
    assert np.shape(got) == pts.shape[:-1]
    assert np.asarray(got).dtype == bool
    assert np.array_equal(got, expected)


def reference_rectangle(region):
    """The corners and volume each region type states through its own fields."""
    if isinstance(region, CornerBox0):
        return np.zeros(region.d), region.upper, np.prod(region.upper)
    if isinstance(region, CornerBox1):
        return region.lower, np.ones(region.d), np.prod(1.0 - region.lower)
    return region.a, region.b, np.prod(region.b - region.a)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(boxes))
def test_each_region_is_the_rectangle_of_its_own_fields(region):
    lo, hi, volume = reference_rectangle(region)
    assert region.d == lo.size == hi.size
    assert region.axes() == [(float(a), float(b)) for a, b in zip(lo, hi)]
    assert region.volume() == float(volume)


def test_box_validation_errors():
    with pytest.raises(ValidationError):
        CornerBox0((1.2, 0.5))
    with pytest.raises(ValidationError):
        Interval((0.5,), (0.4,))
    with pytest.raises(ValidationError):
        contains_points(CornerBox0((0.5, 0.5)), np.zeros((4, 3)))


def test_describe_box_labels():
    assert CornerBox0((0.25, 0.5)).label() == "[0,(0.25,0.5))"
    assert CornerBox1((0.75,)).label() == "[(0.75),1)"


# ---------------------------------------------------------------------------
# Delta covers


def test_one_dimensional_cover_is_minimal_grid():
    for delta, m in [(1.0, 1), (0.5, 2), (0.3, 4), (0.25, 4), (0.1, 10), (0.07, 15)]:
        cover = build_delta_cover(1, delta)
        assert cover.shape == (m, 1) and m == math.ceil(1 / delta)
        nodes = np.sort(cover[:, 0])
        assert np.allclose(nodes, np.arange(1, m + 1) / m)


def test_cover_sandwich_brackets_exact_discrepancy():
    from negdep_qmc import PointSet, star_discrepancy_cover, star_discrepancy_exact

    rng = RngStream(11)
    for k in range(20):
        n = 4 + k
        d = 1 + (k % 2)
        ps = sample(MonteCarlo(), n, d, rng.split(k))
        delta = 0.2
        lower, upper = star_discrepancy_cover(ps, delta)
        exact = star_discrepancy_exact(ps).value
        assert lower <= exact + 1e-12
        assert exact <= lower + delta + 1e-12
        assert upper == pytest.approx(lower + delta)


def test_cover_rejects_bad_delta():
    for delta in (0.0, -0.1, 1.5):
        with pytest.raises(ValidationError):
            build_delta_cover(2, delta)


# ---------------------------------------------------------------------------
# Nets


def test_raw_net_has_net_property():
    for b, m, s in [(2, 4, 2)] + [(b, m, s) for b in (2, 3, 5, 7)
                                  for m in (1, 2, 3) for s in range(1, b + 1)]:
        assert is_net(net_points(b, m, s), b, m, s), (b, m, s)


def test_shifted_points_lose_net_property():
    ps = net_points(2, 4, 2)
    broken = np.clip(ps.data + 0.37, 0.0, 0.999999)
    assert not is_net(broken, 2, 4, 2)


def test_is_net_keeps_coordinates_the_snap_lifts_to_1_in_the_last_cell():
    # within _NET_SNAP * b^-j of 1, floor(x b^j + snap) is b^j: one past the last cell
    for b, m in [(2, 1), (2, 3), (3, 2)]:
        pts = np.asarray(net_points(b, m, 1).data).copy()
        pts[np.argmax(pts[:, 0])] = 1.0 - 1e-11
        assert is_net(pts, b, m, 1), (b, m)
    assert is_net(np.array([[0.25], [0.99999999999]]), 2, 1, 1)
    assert not is_net(np.array([[0.75], [0.99999999999]]), 2, 1, 1)


def test_uniform_points_are_a_trivial_net_only_at_t_equals_m():
    rng = RngStream(5)
    ps = sample(MonteCarlo(), 8, 2, rng)
    # t = m makes every elementary interval constraint vacuous.
    assert is_net(ps, 2, 3, 2, t=3)


# ---------------------------------------------------------------------------
# Polygon helpers


def test_polygon_area_and_clipping():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    assert polygon_area(square) == pytest.approx(1.0)
    clipped = clip_convex_to_box(square, (0.25, 0.25), (0.75, 0.75))
    assert polygon_area(clipped) == pytest.approx(0.25)
    # Triangle fully outside the clip window vanishes.
    tri = [(2.0, 2.0), (3.0, 2.0), (2.5, 3.0)]
    assert polygon_area(clip_convex_to_box(tri, (0.0, 0.0), (1.0, 1.0))) == 0.0


GEOMETRY_REFUSALS = [
    pytest.param(lambda: CornerBox0(np.full((2, 2), 0.5)), "nonempty 1-d coordinate vector",
                 id="box-2-d-array"),
    pytest.param(lambda: Interval((0.1,), (0.2, 0.3)), "equal dimension", id="interval-ragged"),
    pytest.param(lambda: contains_points("box", [[0.5]]), "unsupported region type: str",
                 id="region-not-a-box"),
    pytest.param(lambda: is_net(net_points(2, 2, 1), 1, 2, 1), "base must be >= 2", id="net-b-1"),
    pytest.param(lambda: is_net(net_points(2, 2, 1), 2, 0, 1), "m and s must be >= 1",
                 id="net-m-0"),
    pytest.param(lambda: is_net(net_points(2, 2, 1), 2, 2, 1, t=3), "0 <= t <= m",
                 id="net-t-above-m"),
    pytest.param(lambda: is_net(np.zeros((3, 1)), 2, 2, 1), "shape (4, 1)", id="net-shape"),
    pytest.param(lambda: is_net(np.array([[0.25], [1.5]]), 2, 1, 1), "must lie in [0,1)",
                 id="net-coordinate-above-1"),
    pytest.param(lambda: is_net(np.array([[-0.25], [0.5]]), 2, 1, 1), "must lie in [0,1)",
                 id="net-coordinate-below-0"),
    pytest.param(lambda: is_net(np.array([[np.nan], [0.5]]), 2, 1, 1), "must lie in [0,1)",
                 id="net-coordinate-nan"),
]


@pytest.mark.parametrize("call, message", GEOMETRY_REFUSALS)
def test_geometry_refusals(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()
