"""Gauge and neighborhood geometry against bisection and axioms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldplab import BallShape, BoxShape, ConvexNbhd, gauge

from oracles import gauge_bisect

finite_coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def _box_unit_pred(radii):
    return lambda y: all(abs(c) < r for c, r in zip(y, radii))


def _ball_unit_pred(radius):
    return lambda y: float(np.linalg.norm(y)) < radius


def test_gauge_matches_bisection_boxes_and_balls():
    rng = np.random.default_rng(7)
    for _ in range(40):
        y = rng.uniform(-3, 3, size=2)
        radii = tuple(rng.uniform(0.1, 2.0, size=2))
        b = BoxShape(radii)
        assert gauge(b, y) == pytest.approx(
            gauge_bisect(_box_unit_pred(radii), y), abs=1e-9)
        s = BallShape(float(rng.uniform(0.1, 2.0)), 2)
        assert gauge(s, y) == pytest.approx(
            gauge_bisect(_ball_unit_pred(s.radius), y), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(y=st.tuples(finite_coord, finite_coord),
       c=st.floats(-4, 4, allow_nan=False),
       r1=st.floats(0.1, 3, allow_nan=False),
       r2=st.floats(0.1, 3, allow_nan=False))
def test_gauge_homogeneity_box(y, c, r1, r2):
    shape = BoxShape((r1, r2))
    assert gauge(shape, tuple(c * v for v in y)) == pytest.approx(
        abs(c) * gauge(shape, y), rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(y=st.tuples(finite_coord, finite_coord),
       z=st.tuples(finite_coord, finite_coord),
       r=st.floats(0.1, 3, allow_nan=False))
def test_gauge_subadditive_ball(y, z, r):
    shape = BallShape(r, 2)
    s = tuple(a + b for a, b in zip(y, z))
    assert gauge(shape, s) <= gauge(shape, y) + gauge(shape, z) + 1e-9


def test_membership_is_strict_at_the_boundary():
    nbhd = ConvexNbhd((0.0,), BoxShape((0.5,)))
    assert nbhd.member_mask([(0.49999,), (0.5,), (0.7,)]).tolist() == [
        True, False, False]


def test_shrink_scales_the_open_set():
    # dyadic values keep the boundary arithmetic exact
    nbhd = ConvexNbhd((1.0,), BoxShape((0.5,)), shrink=0.5)
    # effective radius 0.25 around center 1.0
    assert nbhd.member_mask([(1.24,), (1.25,)]).tolist() == [True, False]
    again = nbhd.shrunk(0.75)
    assert again.shrink == 0.75
    assert again.member_mask([(1.1875,), (1.0625,)]).tolist() == [
        False, True]


def test_member_mask_agrees_with_pointwise_contains():
    nbhd = ConvexNbhd((0.2, -0.1), BallShape(0.7, 2))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.5, 1.5, size=(50, 2))
    mask = nbhd.member_mask(pts)
    # pointwise: the scalar gauge of p - center against 1
    assert list(mask) == [gauge(nbhd.shape, p - np.asarray(nbhd.center)) < 1.0
                          for p in pts]


def test_support_inf_matches_dense_minimum():
    rng = np.random.default_rng(11)
    for shape in (BoxShape((0.5, 1.5)), BallShape(0.8, 2)):
        nbhd = ConvexNbhd((0.3, -0.4), shape, shrink=0.25)
        pts = rng.uniform(-1, 1, size=(20000, 2))
        mask = nbhd.member_mask(pts)
        members = pts[mask]
        for lam in ((1.0, 0.0), (-2.0, 1.0), (0.5, 0.5)):
            dense = float(np.min(members @ np.asarray(lam)))
            assert nbhd.support_inf(lam) <= dense + 1e-9


def test_support_inf_grid_rows_equal_one_tilt_calls():
    rng = np.random.default_rng(5)
    grid = np.vstack([rng.uniform(-3, 3, size=(40, 2)), [(0.0, -0.0)]])
    for shape in (BoxShape((0.5, 1.5)), BallShape(0.8, 2)):
        nbhd = ConvexNbhd((0.3, -0.4), shape, shrink=0.25)
        rows = nbhd.support_inf(grid)
        assert rows.shape == (len(grid),)
        assert rows.tobytes() == np.array(
            [nbhd.support_inf(lam) for lam in grid]).tobytes()
    with pytest.raises(ValueError):
        nbhd.support_inf(np.zeros((3, 1)))


def test_shape_validation():
    with pytest.raises(ValueError):
        BoxShape((0.0,))
    with pytest.raises(ValueError):
        BallShape(-1.0)
    with pytest.raises(ValueError):
        ConvexNbhd((0.0,), BoxShape((1.0,)), shrink=1.0)
