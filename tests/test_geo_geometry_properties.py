"""Hypothesis property tests for the geometry kernel.

The K-norm mechanism's privacy proof leans on the gauge being a genuine
(semi)norm of a symmetric convex body: positive homogeneity, the triangle
inequality, symmetry, and agreement with membership.  These are exactly the
properties generated here over random symmetric hulls.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.geo.geometry import ConvexPolygon, convex_hull

coordinate = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
point = st.tuples(coordinate, coordinate)


def symmetric_hull(points):
    """Build a symmetric convex body from generator points (like P-PIM)."""
    generators = [p for p in points] + [(-x, -y) for x, y in points]
    return ConvexPolygon.from_points(generators, min_width=1e-6)


nontrivial_points = st.lists(
    point.filter(lambda p: abs(p[0]) + abs(p[1]) > 1e-3), min_size=1, max_size=8
)


@given(nontrivial_points)
@settings(max_examples=60, deadline=None)
def test_hull_contains_generators(points):
    hull = symmetric_hull(points)
    for x, y in points:
        assert hull.contains((x, y), tol=1e-6)
        assert hull.contains((-x, -y), tol=1e-6)


@given(nontrivial_points, point)
@settings(max_examples=60, deadline=None)
def test_gauge_symmetry(points, vector):
    hull = symmetric_hull(points)
    forward = hull.gauge(vector)
    backward = hull.gauge((-vector[0], -vector[1]))
    assert math.isclose(forward, backward, rel_tol=1e-9, abs_tol=1e-12)


@given(nontrivial_points, point, st.floats(min_value=0.01, max_value=100))
@settings(max_examples=60, deadline=None)
def test_gauge_positive_homogeneity(points, vector, scale):
    hull = symmetric_hull(points)
    base = hull.gauge(vector)
    scaled = hull.gauge((vector[0] * scale, vector[1] * scale))
    assert math.isclose(scaled, base * scale, rel_tol=1e-6, abs_tol=1e-9)


@given(nontrivial_points, point, point)
@settings(max_examples=60, deadline=None)
def test_gauge_triangle_inequality(points, u, v):
    hull = symmetric_hull(points)
    combined = hull.gauge((u[0] + v[0], u[1] + v[1]))
    assert combined <= hull.gauge(u) + hull.gauge(v) + 1e-7


@given(nontrivial_points, point)
@settings(max_examples=60, deadline=None)
def test_gauge_agrees_with_membership(points, vector):
    hull = symmetric_hull(points)
    gauge = hull.gauge(vector)
    assume(gauge > 1e-6)
    # v / gauge lies on the boundary; inside for smaller scale, outside for larger.
    assert hull.contains((vector[0] / gauge, vector[1] / gauge), tol=1e-6)
    assert not hull.contains((vector[0] / gauge * 1.01, vector[1] / gauge * 1.01), tol=1e-9)


@given(st.lists(point, min_size=3, max_size=15))
@settings(max_examples=60, deadline=None)
def test_hull_idempotent(points):
    hull = convex_hull(points)
    assume(len(hull) >= 3)
    again = convex_hull(hull)
    assert {tuple(v) for v in hull} == {tuple(v) for v in again}


@given(st.lists(point, min_size=3, max_size=15))
@example([(0.0, 1.0), (9.071193079749018e-148, 1.0), (-1.0, 0.0)])
@settings(max_examples=60, deadline=None)
def test_hull_area_dominates_any_triangle(points):
    hull = convex_hull(points)
    assume(len(hull) >= 3)
    poly = ConvexPolygon(hull)
    a, b, c = hull[0], hull[1], hull[2]
    tri_area = 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    assert poly.area >= tri_area - 1e-9


@given(nontrivial_points)
@settings(max_examples=30, deadline=None)
def test_samples_lie_inside_hull(points):
    hull = symmetric_hull(points)
    samples = hull.sample(rng=0, size=50)
    for sample in np.asarray(samples):
        assert hull.contains(sample, tol=1e-6)
