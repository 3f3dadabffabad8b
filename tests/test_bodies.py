import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocal_limits.bodies import (ConvexBody, body_points, equivalence_constants,
                                    from_descriptor, sample_in_body, zpm_norm)

BODIES = [
    ConvexBody.ball(1.0, 2),
    ConvexBody.box([1.0, 1.0]),
    ConvexBody.ellipsoid([2.0, 1.0]),
    ConvexBody.lp_ball(3.0, 1.0, 2),
    ConvexBody.polytope([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]],
                        [1.0, 1.0, 1.0, 1.0]),
]


def test_gauge_examples():
    assert ConvexBody.ball(1.0, 2).gauge([2.0, 0.0]) == pytest.approx(2.0)
    assert ConvexBody.box([1.0, 1.0]).gauge([2.0, 1.0]) == pytest.approx(2.0)
    assert ConvexBody.ellipsoid([2.0, 1.0]).gauge([2.0, 0.0]) == pytest.approx(1.0)
    assert ConvexBody.lp_ball(1.0, 1.0, 2).gauge([0.5, 0.5]) == pytest.approx(1.0)


def _axis_reduction_gauge(body, pts):
    # the gauge formulas as axis reductions, the reference for the column loops
    if body.kind == "box":
        return np.max(np.abs(pts) / np.asarray(body.params), axis=-1)
    if body.kind == "ellipsoid":
        return np.sqrt(np.sum((pts / np.asarray(body.params)) ** 2, axis=-1))
    if body.kind == "lp_ball":
        q, radius = body.params
        return np.sum(np.abs(pts) ** q, axis=-1) ** (1.0 / q) / radius
    nm = np.asarray(body._normals)
    return np.max((pts @ nm.T) / np.asarray(body._offsets), axis=-1)


@pytest.mark.parametrize("body", [
    ConvexBody.box([1.0]), ConvexBody.box([1.0, 0.5]), ConvexBody.box([1.0, 0.5, 2.0]),
    ConvexBody.ellipsoid([0.7]), ConvexBody.ellipsoid([2.0, 1.0]),
    ConvexBody.ellipsoid([2.0, 1.0, 0.3]),
    ConvexBody.lp_ball(3.0, 1.0, 1), ConvexBody.lp_ball(4.0, 1.0, 2),
    ConvexBody.lp_ball(1.5, 2.0, 3),
    ConvexBody.polytope([[1.0], [-1.0]], [0.5, 0.5]),
    ConvexBody.polytope([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.8660254037844386],
                         [-0.5, -0.8660254037844386], [-0.5, 0.8660254037844386],
                         [0.5, -0.8660254037844386]], [1.0] * 6),
    ConvexBody.polytope([[1, 1, 1], [-1, -1, -1], [1, 0, 0], [-1, 0, 0],
                         [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], [2, 2, 1, 1, 1, 1, 1, 1]),
], ids=lambda b: f"{b.kind}-{b.dim}d")
def test_gauge_column_loop_is_bitwise_the_axis_reduction(body, rng):
    for shape in ((5000, body.dim), (7, 3, body.dim)):
        pts = rng.normal(size=shape) * 2.0
        got = body.gauge(pts)
        ref = _axis_reduction_gauge(body, pts)
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_gauge_zero_only_at_origin(rng):
    for body in BODIES:
        assert body.gauge(np.zeros(2)) == 0.0
        x = rng.normal(size=2)
        assert body.gauge(x) > 0.0


def test_contains_examples():
    ball = ConvexBody.ball(1.0, 2)
    assert ball.contains([0.0, 0.0])
    assert ball.contains([1.0, 0.0])  # boundary point
    assert not ConvexBody.box([1.0, 1.0]).contains([1.5, 0.0])


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        ConvexBody.ball(1.0, 2).gauge([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ConvexBody.box([1.0, 1.0]).contains([0.1, 0.2, 0.3])


def test_polytope_requires_symmetry():
    with pytest.raises(ValueError, match="negation"):
        ConvexBody.polytope([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        ConvexBody.polytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(BODIES) - 1),
       st.lists(st.floats(-3, 3), min_size=2, max_size=2),
       st.floats(0.01, 50.0))
def test_gauge_is_a_norm(idx, coords, lam):
    body = BODIES[idx]
    x = np.asarray(coords)
    g = float(body.gauge(x))
    # positive homogeneity and symmetry
    assert abs(float(body.gauge(lam * x)) - lam * g) <= 1e-12 * max(1.0, lam * g)
    assert abs(float(body.gauge(-x)) - g) <= 1e-12 * max(1.0, g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(BODIES) - 1),
       st.lists(st.floats(-3, 3), min_size=2, max_size=2),
       st.lists(st.floats(-3, 3), min_size=2, max_size=2))
def test_gauge_triangle_inequality(idx, xc, yc):
    body = BODIES[idx]
    x, y = np.asarray(xc), np.asarray(yc)
    lhs = float(body.gauge(x + y))
    rhs = float(body.gauge(x)) + float(body.gauge(y))
    assert lhs <= rhs + 1e-12 * max(1.0, rhs)


def test_norm_axioms_thousand_random_points(rng):
    for body in BODIES:
        x = rng.normal(size=(1000, 2)) * rng.uniform(0.1, 3.0, size=(1000, 1))
        lam = rng.uniform(0.01, 40.0, size=1000)
        g = body.gauge(x)
        scaled = body.gauge(lam[:, None] * x)
        assert np.max(np.abs(scaled - lam * g) / np.maximum(1.0, scaled)) <= 1e-12
        assert np.max(np.abs(body.gauge(-x) - g)) <= 1e-12 * np.max(g)
        y = rng.normal(size=(1000, 2))
        lhs = body.gauge(x + y)
        rhs = body.gauge(x) + body.gauge(y)
        assert np.all(lhs <= rhs + 1e-12 * np.maximum(1.0, rhs))


def test_sandwich_constants(rng):
    for body in BODIES:
        a, b = equivalence_constants(body)
        x = rng.normal(size=(500, 2))
        norms = np.linalg.norm(x, axis=1)
        g = body.gauge(x)
        assert np.all(g >= a * norms * (1 - 1e-12))
        assert np.all(g <= b * norms * (1 + 1e-12))


def test_equivalence_constant_values():
    assert equivalence_constants(ConvexBody.ball(1.0, 2)) == pytest.approx((1.0, 1.0))
    # farthest corner of the unit square at distance sqrt(2), inscribed radius 1
    a, b = equivalence_constants(ConvexBody.box([1.0, 1.0]))
    assert (a, b) == pytest.approx((1.0 / math.sqrt(2.0), 1.0))
    a, b = equivalence_constants(ConvexBody.ellipsoid([2.0, 1.0]))
    assert (a, b) == pytest.approx((0.5, 1.0))


def test_contains_matches_gauge(rng):
    for body in BODIES:
        x = rng.uniform(-2, 2, size=(400, 2))
        g = body.gauge(x)
        interior = g < 0.999
        exterior = g > 1.001
        assert np.all(body.contains(x[interior]))
        assert not np.any(body.contains(x[exterior]))


def test_sampling_interval_moments(rng):
    interval = ConvexBody.box([1.0])
    pts = sample_in_body(interval, rng, 100_000)[:, 0]
    assert abs(pts.mean()) <= 0.01
    # analytic oracle: mean of x^2 over [-1, 1] is 1/3
    assert abs((pts ** 2).mean() - 1.0 / 3.0) <= 0.01


def test_sampling_rejection_matches_exact(rng):
    # the exact polar disc sampler against rejection from the bounding square
    disc = ConvexBody.ball(1.0, 2)
    pts = sample_in_body(disc, rng, 50_000)
    cand = rng.uniform(-1.0, 1.0, size=(64_000, 2))
    kept = cand[disc.contains(cand)]
    assert np.all(disc.contains(pts))
    for sample in (pts, kept):
        assert abs((sample[:, 0] ** 2).mean() - 0.25) < 0.01  # disc moment pi/4 / pi


def test_disc_acceptance_rate(rng):
    # area-ratio oracle: disc area / bounding-box area = pi/4
    disc = ConvexBody.ball(1.0, 2)
    draws = rng.uniform(-1, 1, size=(100_000, 2))
    rate = float(np.mean(disc.contains(draws)))
    assert abs(rate - math.pi / 4.0) <= 0.01


def test_sampling_inside_every_body(rng):
    for body in BODIES[:3]:
        pts = sample_in_body(body, rng, 2000)
        assert np.all(body.gauge(pts) <= 1.0 + 1e-12)
    for body in BODIES[3:]:
        with pytest.raises(ValueError, match="no exact uniform sampler"):
            sample_in_body(body, rng, 10)


def test_body_points_weights(rng):
    # exact kinds: every point in K, weight vol(K)
    for body in BODIES[:3]:
        pts, w = body_points(body, rng, 500)
        assert np.all(body.contains(pts)) and w == body.volume
    # other kinds: the bounding box, weight vol(box) inside K and 0 outside
    for body in BODIES[3:]:
        pts, w = body_points(body, rng, 500)
        half = body.outer_radius
        assert pts.shape == (500, 2) and np.all(np.abs(pts) <= half)
        inside = body.contains(pts)
        assert 0 < inside.sum() < 500
        np.testing.assert_array_equal(w, np.where(inside, (2.0 * half) ** 2, 0.0))


def test_volumes():
    assert ConvexBody.ball(1.0, 2).volume == pytest.approx(math.pi)
    assert ConvexBody.box([1.0, 2.0]).volume == pytest.approx(8.0)
    assert ConvexBody.ellipsoid([2.0, 1.0]).volume == pytest.approx(2.0 * math.pi)
    # l1 unit ball in the plane is the square of diagonal 2: area 2
    assert ConvexBody.lp_ball(1.0, 1.0, 2).volume == pytest.approx(2.0)
    assert BODIES[4].volume is None


def test_zpm_norm_interval_m1():
    # ((3/2) * int_{-1}^{1} y^2 dy)^(1/2) = 1
    interval = ConvexBody.box([1.0])
    assert zpm_norm(interval, [1.0], 1, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_zpm_norm_interval_m2():
    # ((5/64) * int y^4 dy)^(1/2) = (1/32)^(1/2) = 1/(4 sqrt(2))
    interval = ConvexBody.box([1.0])
    expected = 1.0 / (4.0 * math.sqrt(2.0))
    assert zpm_norm(interval, [1.0], 2, 2.0) == pytest.approx(expected, rel=1e-12)


def test_zpm_norm_zero_vector():
    for body in BODIES[:3]:
        n_coeffs = {1: 2, 2: 3}[1]
        assert zpm_norm(body, [0.0] * n_coeffs, 1, 2.0) == 0.0


def test_zpm_norm_ellipse_anisotropy():
    # ellipse moment oracle: int_K y1^2 dy = (pi/4) a^3 b = 2 pi for (a, b) = (2, 1)
    ellipse = ConvexBody.ellipsoid([2.0, 1.0])
    expected = math.sqrt(2.0 * 2.0 * math.pi)
    assert zpm_norm(ellipse, [1.0, 0.0], 1, 2.0) == pytest.approx(expected, rel=1e-10)


def test_zpm_norm_polytope_and_lp_ball():
    # ((2 + 2) / 2 * int_K y1^2 dy)^(1/2), with int y1^2 = 5 sqrt(3) / 9 on the
    # unit-inradius hexagon and pi sqrt(2) / 4 on the unit l4 ball
    hexagon = ConvexBody.polytope([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.8660254037844386],
                                   [-0.5, -0.8660254037844386], [-0.5, 0.8660254037844386],
                                   [0.5, -0.8660254037844386]], [1.0] * 6)
    expected = math.sqrt(2.0 * 5.0 * math.sqrt(3.0) / 9.0)
    assert zpm_norm(hexagon, [1.0, 0.0], 1, 2.0) == pytest.approx(expected, rel=1e-12)
    expected = math.sqrt(2.0 * math.pi * math.sqrt(2.0) / 4.0)
    l4 = ConvexBody.lp_ball(4.0, 1.0, 2)
    assert zpm_norm(l4, [1.0, 0.0], 1, 2.0) == pytest.approx(expected, rel=1e-12)


def test_zpm_norm_rejects_bad_p():
    with pytest.raises(ValueError):
        zpm_norm(ConvexBody.box([1.0]), [1.0], 1, 0.5)
    with pytest.raises(ValueError):
        zpm_norm(ConvexBody.box([1.0]), [1.0, 1.0], 1, 2.0)


def test_scaled_bodies():
    for body in BODIES:
        double = body.scaled(2.0)
        x = np.array([0.3, -0.7])
        assert float(double.gauge(x)) == pytest.approx(float(body.gauge(x)) / 2.0)


def test_descriptor_round_trip():
    for body in BODIES:
        rebuilt = from_descriptor(body.descriptor())
        x = np.array([0.4, 0.9])
        assert float(rebuilt.gauge(x)) == pytest.approx(float(body.gauge(x)))
