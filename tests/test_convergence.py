import math

import numpy as np
import pytest

from nonlocal_limits.bodies import ConvexBody
from nonlocal_limits.convergence import MAX_SCHEDULE_POINTS, Schedule, aitken, fit_power_law, sweep
from nonlocal_limits.engine import IntegrationPlan
from nonlocal_limits.functionals import FunctionalSpec
from nonlocal_limits.functions import make_function


def test_fit_recovers_linear_model():
    params = [0.2 * 0.5 ** i for i in range(7)]
    values = [1.0 + 0.5 * d for d in params]
    limit, coef, rate, _ = fit_power_law(params, values)
    assert limit == pytest.approx(1.0, abs=1e-9)
    assert rate == pytest.approx(1.0, abs=1e-6)
    assert coef == pytest.approx(0.5, rel=1e-6)


def test_fit_recovers_sqrt_model():
    params = [0.2 * 0.5 ** i for i in range(7)]
    values = [2.0 + d ** 0.5 for d in params]
    limit, _, rate, _ = fit_power_law(params, values)
    assert limit == pytest.approx(2.0, abs=1e-7)
    assert rate == pytest.approx(0.5, abs=1e-6)


def test_fit_needs_three_points():
    with pytest.raises(ValueError):
        fit_power_law([0.1, 0.05], [1.0, 1.0])


def test_fit_overflow_raises_floating_point_error():
    # parameter^rate overflows for rates above 1 at 1e300: a clean error, not a LAPACK failure
    with pytest.raises(FloatingPointError, match="overflows"):
        fit_power_law([1e300, 5e299, 2.5e299, 1.25e299], [1.0, 1.0, 1.0, 1.0])


def test_aitken_geometric_exact():
    values = [1.0 + 2.0 ** (-i) for i in range(6)]
    limit, fallback = aitken(values)
    assert limit == 1.0 and not fallback


def test_aitken_constant_sequence():
    limit, fallback = aitken([3.5, 3.5, 3.5, 3.5])
    assert limit == 3.5 and fallback


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(start=-0.1)
    with pytest.raises(ValueError):
        Schedule(start=0.1, ratio=1.5)
    with pytest.raises(ValueError):
        Schedule(start=0.1, points=3)
    # a pass runs every point at once: 65 is one more than its memory allows
    assert len(Schedule(start=0.1, points=MAX_SCHEDULE_POINTS).values()) == 64
    with pytest.raises(ValueError, match="4 to 64 points; got 65"):
        Schedule(start=0.1, points=65)
    # values that underflow to 0, or round to equal subnormals, are no schedule
    for start, ratio in ((1e-300, 1e-10), (5e-324, 0.9)):
        with pytest.raises(ValueError, match="strictly decreasing"):
            Schedule(start=start, ratio=ratio, points=4)
    vals = Schedule(start=0.4, ratio=0.5, points=4).values()
    assert vals == pytest.approx([0.4, 0.2, 0.1, 0.05])
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sweep_level_set_gaussian():
    f = make_function("gaussian", 1)
    body = ConvexBody.box([1.0])
    plan = IntegrationPlan("monte_carlo", samples=200_000, seed=11)
    spec = FunctionalSpec("nguyen_centered", f, body, 1, 2.0, 0.2)
    res = sweep(spec, Schedule(0.2, 0.5, 7), plan, tolerance=0.03)
    assert res.passed
    assert res.rel_gap <= 0.03
    assert res.target == pytest.approx(math.sqrt(math.pi / 2), rel=1e-9)
    # fit and Aitken cross-check
    combined = max(3 * res.limit_uncertainty, 0.01 * abs(res.target))
    assert abs(res.extrapolated_limit - res.aitken_limit) <= combined
    # uncertainty floor: never below the smallest per-point standard error
    assert res.limit_uncertainty >= min(pt.stderr for pt in res.points)


def test_sweep_mollified_quadrature():
    f = make_function("gaussian", 1)
    body = ConvexBody.box([1.0])
    plan = IntegrationPlan("tensor_quadrature", x_nodes=160, t_nodes=40)
    spec = FunctionalSpec("bbm_centered", f, body, 2, 2.0, 0.4, "shell")
    res = sweep(spec, Schedule(0.4, 0.5, 7), plan, tolerance=0.05)
    assert res.passed
    assert res.rel_gap <= 0.01
    assert res.target == pytest.approx(3 * math.sqrt(math.pi / 2) / 8, rel=1e-9)


def test_sweep_fractional_quadrature():
    # most of the fractional profile's mass lies at radii where R rounds to 0;
    # the leading-term payoff there keeps the values climbing to the target
    f = make_function("poly_bump", 1)
    plan = IntegrationPlan("tensor_quadrature", x_nodes=120, t_nodes=32)
    spec = FunctionalSpec("bbm_centered", f, ConvexBody.box([1.0]), 1, 2.0, 0.4, "fractional")
    res = sweep(spec, Schedule(0.4, 0.5, 5), plan, tolerance=0.05)
    assert res.passed
    values = [pt.value for pt in res.points]
    assert values == sorted(values)


def test_sweep_polytope_body_uses_quadrature_target():
    # l1 unit ball: int |y|^2 = 2/3, so the target is 2 (pi/2) (2/3) for the 2-D Gaussian
    diamond = ConvexBody.polytope([[1, 1], [-1, -1], [1, -1], [-1, 1]], [1, 1, 1, 1])
    f = make_function("gaussian", 2)
    plan = IntegrationPlan("monte_carlo", samples=150_000, seed=2)
    spec = FunctionalSpec("nguyen_centered", f, diamond, 1, 2.0, 0.1)
    res = sweep(spec, Schedule(0.1, 0.5, 4), plan, tolerance=0.2)
    assert res.target == pytest.approx(2.0 * math.pi / 3.0, rel=1e-10)
    assert math.isfinite(res.extrapolated_limit)


@pytest.mark.parametrize("body, theorem, kind, target", [
    (ConvexBody.polytope([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.8660254037844386],
                          [-0.5, -0.8660254037844386], [-0.5, 0.8660254037844386],
                          [0.5, -0.8660254037844386]], [1.0] * 6),
     "bbm_centered", "shell", 20.0 * math.sqrt(3.0) * math.pi / 9.0),
    (ConvexBody.lp_ball(4.0, 1.0, 2), "nguyen_centered", None, math.pi ** 2 / math.sqrt(2.0)),
], ids=["hexagon", "l4-ball"])
def test_sweep_target_does_not_depend_on_the_seed(body, theorem, kind, target):
    spec = FunctionalSpec(theorem, make_function("gaussian", 2), body, 1, 2.0, 0.4, kind)
    targets = set()
    for seed in (1311, 703):
        plan = IntegrationPlan("monte_carlo", samples=2_000, seed=seed)
        res = sweep(spec, Schedule(0.4, 0.5, 4), plan, tolerance=0.05)
        targets.add(res.target)
    assert len(targets) == 1
    assert targets.pop() == pytest.approx(target, rel=1e-10)


def test_sweep_points_strictly_decreasing():
    f = make_function("gaussian", 1)
    body = ConvexBody.box([1.0])
    plan = IntegrationPlan("monte_carlo", samples=20_000, seed=1)
    res = sweep(FunctionalSpec("nguyen_centered", f, body, 1, 2.0, 0.2), Schedule(0.2, 0.5, 4),
                plan, tolerance=0.05)
    params = [pt.parameter for pt in res.points]
    assert all(a > b for a, b in zip(params, params[1:]))
