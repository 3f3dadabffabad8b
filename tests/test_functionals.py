import math

import mpmath
import numpy as np
import pytest

from nonlocal_limits import functionals
from nonlocal_limits.bodies import ConvexBody
from nonlocal_limits.calculus import centered_remainder, directional_m_form
from nonlocal_limits.engine import (IntegralEstimate, IntegrationPlan, outer_points,
                                    outer_weights)
from nonlocal_limits.functionals import (FunctionalSpec, SpecError, derivative_norm_p,
                                         evaluate, local_limit, shared_local_integral,
                                         theorem_constant, uniform_bound_check)
from nonlocal_limits.functions import make_function


INTERVAL = ConvexBody.box([1.0])
GAUSS1 = make_function("gaussian", 1)
GAUSS2 = make_function("gaussian", 2)
ROOT_PI_HALF = math.sqrt(math.pi / 2.0)

BODY_SUITE = [ConvexBody.box([1.0]), ConvexBody.ball(1.0, 2),
              ConvexBody.box([1.0, 0.5]), ConvexBody.ellipsoid([2.0, 1.0])]


def mc_plan(samples=200_000, seed=7, **kw):
    return IntegrationPlan.monte_carlo(samples=samples, seed=seed, **kw)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_theorem_constants_values():
    # dim 1, m 1, p 2: mollified (1+2)/1 = 3, level-set 3/2
    assert theorem_constant("bbm_centered", 1, 2.0, 1) == pytest.approx(3.0)
    assert theorem_constant("nguyen_centered", 1, 2.0, 1) == pytest.approx(1.5)
    # dim 1, m 2, p 2: mollified 5/16, level-set 5/64; Taylor 5/4 and 5/16
    assert theorem_constant("bbm_centered", 2, 2.0, 1) == pytest.approx(5.0 / 16.0)
    assert theorem_constant("nguyen_centered", 2, 2.0, 1) == pytest.approx(5.0 / 64.0)
    assert theorem_constant("bbm_taylor", 2, 2.0, 1) == pytest.approx(5.0 / 4.0)
    assert theorem_constant("nguyen_taylor", 2, 2.0, 1) == pytest.approx(5.0 / 16.0)


def test_constant_ratio_is_m_times_p():
    for m in (1, 2, 3):
        for p in (1.5, 2.0, 3.0):
            for dim in (1, 2, 3):
                ratio = (theorem_constant("bbm_centered", m, p, dim)
                         / theorem_constant("nguyen_centered", m, p, dim))
                assert ratio == pytest.approx(m * p, rel=1e-14)
                ratio = (theorem_constant("bbm_taylor", m, p, dim)
                         / theorem_constant("nguyen_taylor", m, p, dim))
                assert ratio == pytest.approx(m * p, rel=1e-14)


def test_taylor_and_centered_agree_at_m1():
    for theorem in ("nguyen", "bbm"):
        a = theorem_constant(f"{theorem}_centered", 1, 2.5, 2)
        b = theorem_constant(f"{theorem}_taylor", 1, 2.5, 2)
        assert a == b


# ---------------------------------------------------------------------------
# local limits
# ---------------------------------------------------------------------------

def test_local_limit_gaussian_m1():
    # derivative-energy oracle: int (f')^2 = sqrt(pi/2) for f = exp(-x^2)
    spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, 0.1)
    assert local_limit(spec) == pytest.approx(ROOT_PI_HALF, rel=1e-10)


def test_local_limit_gaussian_m2():
    # oracle: int (f'')^2 = 3 sqrt(pi/2); mollified target (5/16).(2/5).3 sqrt(pi/2)
    spec = FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 2, 2.0, 0.1, "shell")
    assert local_limit(spec) == pytest.approx(3.0 * ROOT_PI_HALF / 8.0, rel=1e-10)
    spec = FunctionalSpec("bbm_taylor", GAUSS1, INTERVAL, 2, 2.0, 0.1, "shell")
    assert local_limit(spec) == pytest.approx(1.5 * ROOT_PI_HALF, rel=1e-10)


def test_local_limit_ratio_shared_factor():
    # same cached integral feeds both constants, so only float rounding remains
    for m in (1, 2, 3):
        for p in (1.5, 2.0, 3.0):
            for body in BODY_SUITE:
                f = make_function("gaussian", body.dim)
                a = local_limit(FunctionalSpec("bbm_centered", f, body, m, p, 0.1, "shell"),
                                outer_nodes=24)
                b = local_limit(FunctionalSpec("nguyen_centered", f, body, m, p, 0.1),
                                outer_nodes=24)
                assert a / b == pytest.approx(m * p, rel=1e-13)


def test_classical_ball_reduction():
    # the ball limit reduces to (1/p) K_{dim,p} int |grad f|^p
    from nonlocal_limits.engine import sphere_constant
    spec = FunctionalSpec("nguyen_centered", GAUSS1, ConvexBody.ball(1.0, 1), 1, 2.0, 0.1)
    target = 0.5 * sphere_constant(1, 2.0) * ROOT_PI_HALF
    assert local_limit(spec) == pytest.approx(target, rel=1e-3)

    spec2 = FunctionalSpec("nguyen_centered", GAUSS2, ConvexBody.ball(1.0, 2), 1, 2.0, 0.1)
    grad_sq = derivative_norm_p(GAUSS2, 1, 2.0)  # == int |grad f|^2 for m = 1
    target2 = 0.5 * sphere_constant(2, 2.0) * grad_sq
    assert local_limit(spec2) == pytest.approx(target2, rel=1e-3)


def test_classical_ball_reduction_dim3():
    gauss3 = make_function("gaussian", 3)
    from nonlocal_limits.engine import sphere_constant
    # gradient-energy oracle: 16 pi int r^4 e^{-2 r^2} dr = 16 pi (3/32) sqrt(pi/2)
    energy = 16.0 * math.pi * (3.0 / 32.0) * ROOT_PI_HALF
    target = 0.5 * sphere_constant(3, 2.0) * energy
    spec = FunctionalSpec("nguyen_centered", gauss3, ConvexBody.ball(1.0, 3), 1, 2.0, 0.1)
    assert local_limit(spec) == pytest.approx(target, rel=1e-3)


def test_gauge_scaling_covariance():
    # dilation of the body scales the shared integral by lam^(dim + m p)
    for lam in (0.5, 2.0):
        for body, m in ((INTERVAL, 1), (ConvexBody.ellipsoid([2.0, 1.0]), 2)):
            f = make_function("gaussian", body.dim)
            base = shared_local_integral(f, body, m, 2.0).value
            scaled = shared_local_integral(f, body.scaled(lam), m, 2.0).value
            assert scaled / base == pytest.approx(lam ** (body.dim + 2 * m), rel=0.01)


# Gaussian f = exp(-|x|^2) in 2-D, m = 1, p = 2: int grad f grad f^T dx = (pi/2) I, so the
# shared integral is (pi/2) int_K |y|^2 dy, and the constant is 4 (bbm) or 2 (nguyen)
HEXAGON = ConvexBody.polytope([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.8660254037844386],
                               [-0.5, -0.8660254037844386], [-0.5, 0.8660254037844386],
                               [0.5, -0.8660254037844386]], [1.0] * 6)
L4_BALL = ConvexBody.lp_ball(4.0, 1.0, 2)


def test_local_limit_polytope_and_lp_ball_closed_forms():
    # unit-inradius hexagon: int |y|^2 = 10 sqrt(3) / 9
    spec = FunctionalSpec("bbm_centered", GAUSS2, HEXAGON, 1, 2.0, 0.4, "shell")
    assert local_limit(spec) == pytest.approx(20.0 * math.sqrt(3.0) * math.pi / 9.0, rel=1e-10)
    # unit l4 ball: int y1^2 = Gamma(3/4) Gamma(1/4) / 4 = pi sqrt(2) / 4
    spec = FunctionalSpec("nguyen_centered", GAUSS2, L4_BALL, 1, 2.0, 0.2)
    assert local_limit(spec) == pytest.approx(math.pi ** 2 / math.sqrt(2.0), rel=1e-10)


def test_local_limit_monte_carlo_agrees():
    # an independent statistical check of the cone-rule target: x from the
    # defensive mixture, y uniform on the ellipse's bounding box times its indicator
    ellipse = ConvexBody.ellipsoid([2.0, 1.0])
    rng = np.random.default_rng(3)
    n, k, radius = 400_000, 320_000, GAUSS2.support_radius
    xs = np.concatenate([outer_points(rng.random((2, k)), radius, GAUSS2.proposal),
                         outer_points(rng.random((2, n - k)), radius, None)])
    wx = outer_weights(xs, radius, GAUSS2.proposal, k / n, 1.0)
    ys = rng.uniform(-1.0, 1.0, size=(n, 2)) * [2.0, 1.0]
    payoff = wx * 8.0 * ellipse.contains(ys) * directional_m_form(GAUSS2, xs, ys, 1) ** 2
    value, stderr = payoff.mean(), payoff.std(ddof=1) / math.sqrt(n)
    exact = shared_local_integral(GAUSS2, ellipse, 1, 2.0).value
    assert abs(value - exact) <= max(3 * stderr, 0.02 * exact)


def test_local_limit_zero_function():
    z = make_function("zero", 1)
    spec = FunctionalSpec("nguyen_centered", z, INTERVAL, 1, 2.0, 0.1)
    assert local_limit(spec) == 0.0


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def test_level_set_single_point_close_to_limit():
    spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, 0.01)
    est = evaluate(spec, mc_plan())
    assert abs(est.value - ROOT_PI_HALF) / ROOT_PI_HALF <= 0.05


def test_zero_function_maps_to_zero_exactly():
    z = make_function("zero", 1)
    for theorem in ("nguyen_centered", "nguyen_taylor"):
        spec = FunctionalSpec(theorem, z, INTERVAL, 1, 2.0, 0.05)
        est = evaluate(spec, mc_plan(samples=10))
        assert est.value == 0.0 and est.stderr == 0.0
    for theorem in ("bbm_centered", "bbm_taylor"):
        spec = FunctionalSpec(theorem, z, INTERVAL, 1, 2.0, 0.05, "shell")
        est = evaluate(spec, mc_plan(samples=10))
        assert est.value == 0.0


def test_threshold_above_range_is_exact_zero():
    # |remainder| <= 2^m sup|f| = 2 here, so delta = 2.5 never fires
    spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, 2.5)
    est = evaluate(spec, mc_plan(samples=1000))
    assert est.value == 0.0
    assert "exact_zero" in est.info


def test_taylor_threshold_beyond_remainder_range():
    # sup of the Taylor remainder over the truncated region is finite; far
    # above it the estimate must vanish (indicator never fires in range)
    spec = FunctionalSpec("nguyen_taylor", GAUSS1, INTERVAL, 2, 2.0, 500.0)
    est = evaluate(spec, mc_plan(samples=20_000))
    assert est.value == 0.0


def test_radial_cutoff_beyond_t_max_is_exact_zero():
    # the Taylor threshold fires only beyond t_min = delta / M_1, about 22.9 here, and the
    # derived truncation is t_max = m (r + support) + 2 = 17; ten samples would not run
    spec = FunctionalSpec("nguyen_taylor", GAUSS1, INTERVAL, 1, 2.0, 20.0)
    zero = functionals._exact_zero(spec)
    assert zero.value == 0.0 and zero.stderr == 0.0
    assert zero.info["exact_zero"] == "radial cutoff beyond t_max"
    for key in ("tail_beyond_t_max", "tail_outside_box"):
        assert 0.0 < zero.info[key] < math.inf
    assert evaluate(spec, mc_plan(samples=10)).info == zero.info


def test_m1_collapse_matched_seeds():
    plan = mc_plan(samples=50_000, seed=21)
    a = evaluate(FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, 0.05), plan)
    b = evaluate(FunctionalSpec("nguyen_taylor", GAUSS1, INTERVAL, 1, 2.0, 0.05), plan)
    assert a.value == pytest.approx(b.value, rel=1e-12)
    c = evaluate(FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 1, 2.0, 0.1, "shell"), plan)
    d = evaluate(FunctionalSpec("bbm_taylor", GAUSS1, INTERVAL, 1, 2.0, 0.1, "shell"), plan)
    assert c.value == pytest.approx(d.value, rel=1e-12)


def test_mollified_quadrature_near_limit():
    spec = FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 1, 2.0, 0.02, "shell")
    est = evaluate(spec, IntegrationPlan.quadrature(x_nodes=160, t_nodes=48))
    assert est.value == pytest.approx(2.0 * ROOT_PI_HALF, rel=0.02)


def test_m3_mollified_matches_hand_oracle():
    # third-derivative energy of the gaussian: int ((-8x^3+12x) e^{-x^2})^2 dx
    # = (64*15/64 - 192*3/16 + 144/4) sqrt(pi/2) = 15 sqrt(pi/2);
    # constant (1+6)/3^6 and interval moment int y^6 = 2/7 give (10/243) sqrt(pi/2)
    target = (10.0 / 243.0) * ROOT_PI_HALF
    spec = FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 3, 2.0, 0.02, "shell")
    assert local_limit(spec) == pytest.approx(target, rel=1e-10)
    est = evaluate(spec, IntegrationPlan.quadrature(x_nodes=200, t_nodes=48))
    assert est.value == pytest.approx(target, rel=0.01)


def test_general_exponents_track_local_limits():
    # exponent plumbing (kernels, importance laws, constants) beyond p = 2
    qplan = IntegrationPlan.quadrature(x_nodes=200, t_nodes=48)
    for m, p in ((1, 1.5), (1, 3.0), (2, 3.0)):
        spec = FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, m, p, 0.02, "shell")
        value = evaluate(spec, qplan).value
        assert value == pytest.approx(local_limit(spec), rel=0.01)
    for p in (1.5, 3.0):
        spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, p, 0.004)
        est = evaluate(spec, mc_plan(samples=400_000, seed=5))
        assert abs(est.value - local_limit(spec)) <= max(4 * est.stderr,
                                                         0.02 * local_limit(spec))


def test_level_set_tail_bounds_reported():
    # truncation-tail bounds are surfaced with the estimate and scale as delta^p
    infos = []
    for delta in (0.05, 0.025):
        spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, delta)
        infos.append(evaluate(spec, mc_plan(samples=20_000)).info)
    for key in ("tail_beyond_t_max", "tail_outside_box"):
        assert 0.0 < infos[0][key] < 0.1
        assert infos[1][key] == pytest.approx(infos[0][key] / 4.0, rel=1e-9)


def test_spec_validation_errors():
    with pytest.raises(SpecError, match="p > 1"):
        evaluate(FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 0.5, 0.1),
                 mc_plan(samples=10))
    with pytest.raises(SpecError, match="unknown theorem"):
        evaluate(FunctionalSpec("nope", GAUSS1, INTERVAL, 1, 2.0, 0.1), mc_plan(samples=10))
    with pytest.raises(SpecError, match="mollifier"):
        evaluate(FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 1, 2.0, 0.1), mc_plan(samples=10))
    with pytest.raises(SpecError, match="identity tests"):
        evaluate(FunctionalSpec("nguyen_centered", make_function("quadratic", 1),
                                INTERVAL, 1, 2.0, 0.1), mc_plan(samples=10))
    with pytest.raises(SpecError, match="parameter"):
        evaluate(FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, -0.1),
                 mc_plan(samples=10))
    with pytest.raises(SpecError):
        evaluate(FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 4, 2.0, 0.1),
                 mc_plan(samples=10))


# ---------------------------------------------------------------------------
# boundedness diagnostic
# ---------------------------------------------------------------------------

def test_uniform_bound_check():
    spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, 0.1)
    grid = [0.2 * 0.5 ** i for i in range(5)]
    report = uniform_bound_check(spec, grid, mc_plan(samples=50_000))
    assert report.passed
    assert report.max_ratio <= 50.0
    # derivative-norm oracle for the gaussian: sqrt(pi/2)
    assert report.derivative_norm == pytest.approx(ROOT_PI_HALF, rel=1e-10)
    assert report.max_ratio == pytest.approx(1.0, rel=0.25)


def test_uniform_bound_check_zero_function():
    z = make_function("zero", 1)
    spec = FunctionalSpec("nguyen_centered", z, INTERVAL, 1, 2.0, 0.1)
    report = uniform_bound_check(spec, [0.1, 0.05], mc_plan(samples=100))
    assert report.passed and report.max_ratio == 0.0


def test_polytope_and_lp_bodies_evaluate():
    diamond = ConvexBody.polytope([[1, 1], [-1, -1], [1, -1], [-1, 1]], [1, 1, 1, 1])
    lp = ConvexBody.lp_ball(3.0, 1.0, 2)
    plan = mc_plan(samples=100_000, seed=3)
    for body, theorem, kind in ((diamond, "nguyen_centered", None), (lp, "bbm_centered", "shell")):
        spec = FunctionalSpec(theorem, GAUSS2, body, 1, 2.0, 0.1, kind)
        est = evaluate(spec, plan)
        target = local_limit(spec)
        assert est.value > 0.0
        # finite-parameter value within 25% of the limit: a smoke bound only
        assert abs(est.value - target) / target < 0.25


def test_uniform_bound_check_empty_grid():
    spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, 0.1)
    with pytest.raises(ValueError):
        uniform_bound_check(spec, [], mc_plan(samples=100))
    with pytest.raises(SpecError):
        uniform_bound_check(FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 1, 2.0,
                                           0.1, "shell"), [0.1], mc_plan(samples=100))


@pytest.mark.parametrize("theorem", ["nguyen_centered", "bbm_centered"])
def test_payoff_matches_integrand_over_density(theorem, monkeypatch):
    # reference: payoff x law.mass = pair integrand x t^(N-1) / law.pdf
    body, m, p, par = ConvexBody.ellipsoid([2.0, 1.0]), 2, 2.5, 0.05
    spec = FunctionalSpec(theorem, GAUSS2, body, m, p, par,
                          "shell" if theorem.startswith("bbm") else None)
    captured = {}

    def capture(kernel, plan, radius, dim, law, proposal):
        captured.update(kernel=kernel, law=law)
        return [IntegralEstimate(0.0, 0.0)]

    monkeypatch.setattr(functionals, "integrate_double", capture)
    evaluate(spec, mc_plan(samples=1))
    kernel, law = captured["kernel"], captured["law"]

    rng = np.random.default_rng(11)
    n = 20_000
    x = rng.uniform(-3.0, 3.0, size=(n, 2))
    sigma = rng.normal(size=(n, 2))
    sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
    aux = law.prepare(sigma)
    t = law.sample(rng.random(n), aux)[0]  # one point: row 0
    payoff = (kernel(x, sigma, t[np.newaxis]) * law.mass(aux))[0]

    remainder = centered_remainder(GAUSS2, x, x + t[:, np.newaxis] * sigma, m)
    gauge = body.gauge(t[:, np.newaxis] * sigma)
    if spec.mollifier_kind is None:
        integrand = (np.abs(remainder) > par) * par ** p * gauge ** (-(2 + m * p))
    else:
        integrand = np.abs(remainder) ** p * gauge ** (-m * p) * spec.mollifier.evaluate(gauge)
    reference = integrand * t / law.pdf(t, aux)[0]  # t^(N-1) with N = 2
    assert np.count_nonzero(payoff) > 100
    np.testing.assert_allclose(payoff, reference, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("theorem", ["bbm_centered", "bbm_taylor"])
def test_leading_term_payoff_matches_exact_remainder(theorem, m, monkeypatch):
    # below t_c the kernel pays for the leading term of R; from t_c/2 to 2 t_c it must
    # agree with the exact payoff, R in 50 digits, within the per-row share of
    # small_radius_bias, which grows at most like (t/t_c)^p above t_c
    p, eps, box = 2.0, 0.05, 7.0
    captured = {}

    def capture(kernel, plan, radius, dim, law, proposal):
        captured["kernel"] = kernel
        return [IntegralEstimate(0.0, 0.0)]

    monkeypatch.setattr(functionals, "integrate_double", capture)
    spec = FunctionalSpec(theorem, GAUSS1, INTERVAL, m, p, eps, "shell")
    est, = functionals._mollified_pass([spec], IntegrationPlan.quadrature(), box)
    t_c = np.finfo(float).eps ** (1.0 / (m + 1))
    per_row = est.info["small_radius_bias"] / (2.0 * box * 2.0 * spec.mollifier.mass_below(t_c))

    x = np.linspace(-2.5, 2.5, 41)
    xs = np.concatenate([x, x])[:, np.newaxis]
    sigma = np.repeat([[1.0], [-1.0]], x.size, axis=0)
    lead = captured["kernel"](xs, sigma, np.full((1, 2 * x.size), 0.25 * t_c))[0]

    def f(u):
        return mpmath.exp(-u * u)

    def exact_remainder(x0, y0):
        if theorem == "bbm_centered":
            return sum((-1) ** j * math.comb(m, j) * f(x0 + j * (y0 - x0) / m)
                       for j in range(m + 1))
        return f(x0) - sum(mpmath.diff(f, y0, k) * (x0 - y0) ** k / math.factorial(k)
                           for k in range(m))

    with mpmath.workdps(50):
        for t in np.geomspace(0.5 * t_c, 2.0 * t_c, 5):
            for x0, s0, payoff in zip(xs[:, 0], sigma[:, 0], lead):
                x0, h = mpmath.mpf(float(x0)), mpmath.mpf(float(t * s0))
                exact = abs(exact_remainder(x0, x0 + h)) ** p * mpmath.mpf(float(t)) ** (-m * p)
                assert abs(float(exact) - payoff) <= per_row * max(1.0, t / t_c) ** p


def test_fractional_profile_at_small_index_is_finite():
    # gauge radii underflow to 0 here; below t_c the payoff does not depend on t
    eps = 0.00625
    spec = FunctionalSpec("bbm_centered", make_function("poly_bump", 1), INTERVAL, 1, 2.0,
                          eps, "fractional")
    est = evaluate(spec, IntegrationPlan.quadrature(x_nodes=200, t_nodes=48))
    assert math.isfinite(est.value)
