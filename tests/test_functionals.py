import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from conftest import libm_turns

from nonlocal_limits import functionals
from nonlocal_limits.bodies import ConvexBody
from nonlocal_limits.calculus import centered_remainder, directional_m_form, m_form_tableau
from nonlocal_limits.engine import (IntegralEstimate, IntegrationPlan, MollifierRadial,
                                    cone_nodes, gauss_legendre, outer_points, outer_weights)
from nonlocal_limits.functionals import (FunctionalSpec, SpecError, evaluate, local_limit,
                                         theorem_constant)
from nonlocal_limits.functions import list_functions, make_function, polynomial_function


INTERVAL = ConvexBody.box([1.0])
GAUSS1 = make_function("gaussian", 1)
GAUSS2 = make_function("gaussian", 2)
ROOT_PI_HALF = math.sqrt(math.pi / 2.0)

BODY_SUITE = [ConvexBody.box([1.0]), ConvexBody.ball(1.0, 2),
              ConvexBody.box([1.0, 0.5]), ConvexBody.ellipsoid([2.0, 1.0])]


def mc_plan(samples=200_000, seed=7, **kw):
    return IntegrationPlan("monte_carlo", samples=samples, seed=seed, **kw)


def capture_pass(monkeypatch, points=1):
    """The kernel and the radial law of the next pass, filled in when it runs; the pass
    then integrates nothing and returns ``points`` zero estimates."""
    captured = {}

    def capture(kernel, plan, radius, dim, proposal):
        captured["kernel"] = kernel
        return [IntegralEstimate(0.0, 0.0) for _ in range(points)]

    for name in ("PowerLaw", "MollifierRadial"):
        def built(*args, law=getattr(functionals, name)):
            captured["law"] = law(*args)
            return captured["law"]
        monkeypatch.setattr(functionals, name, built)
    monkeypatch.setattr(functionals, "integrate_double", capture)
    return captured


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
                a = local_limit(FunctionalSpec("bbm_centered", f, body, m, p, 0.1, "shell"))
                b = local_limit(FunctionalSpec("nguyen_centered", f, body, m, p, 0.1))
                assert a / b == pytest.approx(m * p, rel=1e-13)


def test_classical_ball_reduction():
    # the ball limit reduces to (1/p) K_{dim,p} int |grad f|^p, with the sphere
    # constants K_(1,2) = 2 and K_(2,2) = pi
    spec = FunctionalSpec("nguyen_centered", GAUSS1, ConvexBody.ball(1.0, 1), 1, 2.0, 0.1)
    target = 0.5 * 2.0 * ROOT_PI_HALF
    assert local_limit(spec) == pytest.approx(target, rel=1e-3)

    spec2 = FunctionalSpec("nguyen_centered", GAUSS2, ConvexBody.ball(1.0, 2), 1, 2.0, 0.1)
    # gradient-energy oracle: int |grad e^(-|x|^2)|^2 = 8 pi int r^3 e^(-2 r^2) dr = pi
    target2 = 0.5 * math.pi * math.pi
    assert local_limit(spec2) == pytest.approx(target2, rel=1e-3)


def test_classical_ball_reduction_dim3():
    gauss3 = make_function("gaussian", 3)
    # gradient-energy oracle: 16 pi int r^4 e^{-2 r^2} dr = 16 pi (3/32) sqrt(pi/2)
    energy = 16.0 * math.pi * (3.0 / 32.0) * ROOT_PI_HALF
    # the sphere constant K_(3,2) = 4 pi / 3
    target = 0.5 * (4.0 * math.pi / 3.0) * energy
    spec = FunctionalSpec("nguyen_centered", gauss3, ConvexBody.ball(1.0, 3), 1, 2.0, 0.1)
    assert local_limit(spec) == pytest.approx(target, rel=1e-3)


def test_gauge_scaling_covariance():
    # dilation of the body scales the shared integral, so the limit, by lam^(dim + m p)
    for lam in (0.5, 2.0):
        for body, m, dilated in ((INTERVAL, 1, ConvexBody.box([lam])),
                                 (ConvexBody.ellipsoid([2.0, 1.0]), 2,
                                  ConvexBody.ellipsoid([2.0 * lam, lam]))):
            f = make_function("gaussian", body.dim)
            base = local_limit(FunctionalSpec("nguyen_centered", f, body, m, 2.0, 0.1))
            scaled = local_limit(FunctionalSpec("nguyen_centered", f, dilated, m, 2.0, 0.1))
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
    u = rng.random((2, k))
    xs = np.concatenate([outer_points(u, radius, GAUSS2.proposal, libm_turns(u, GAUSS2.proposal)),
                         outer_points(rng.random((2, n - k)), radius, None)])
    wx = outer_weights(xs, radius, GAUSS2.proposal, k / n, 1.0)
    ys = rng.uniform(-1.0, 1.0, size=(n, 2)) * [2.0, 1.0]
    payoff = wx * 8.0 * (ellipse.gauge(ys) <= 1.0) * directional_m_form(GAUSS2, xs, ys, 1) ** 2
    value, stderr = payoff.mean(), payoff.std(ddof=1) / math.sqrt(n)
    spec = FunctionalSpec("nguyen_centered", GAUSS2, ellipse, 1, 2.0, 0.1)
    exact = local_limit(spec) / theorem_constant("nguyen_centered", 1, 2.0, 2)
    assert abs(value - exact) <= max(3 * stderr, 0.02 * exact)


LEAD_BODIES = [INTERVAL, ConvexBody.ellipsoid([2.0, 1.0]), ConvexBody.box([1.0, 0.5]), HEXAGON,
               ConvexBody.lp_ball(1.5, 1.0, 2), L4_BALL]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("body", LEAD_BODIES, ids=lambda b: f"{b.kind}{b.dim}-{b.params[0]}")
def test_lead_integral_matches_local_limit(body, m):
    # C integrates the leading term over box x sphere with the kink-split sphere rule; by
    # the sphere-to-body identity it is the p = 2 target, which takes the cone rule over K
    f = make_function("gaussian", body.dim)
    for theorem, c_m in (("bbm_centered", float(m) ** -m), ("bbm_taylor", 1 / math.factorial(m))):
        lead = functionals._lead_integral(f, body, m, c_m, 7.5)
        target = local_limit(FunctionalSpec(theorem, f, body, m, 2.0, 0.1, "shell"))
        assert lead == pytest.approx(target, rel=1e-12)


def tableau_integral(f, body, m, p):
    # the reference: the N_x x N_z tableau of m-form values on the target's grids
    xs, wx = functionals._outer_grid(f)
    zs, wz = cone_nodes(body)
    return float(wx @ np.abs(m_form_tableau(f, m, xs, zs)) ** p @ wz) / (body.dim + m * p)


@pytest.mark.parametrize("name", ["gaussian", "poly_bump", "sine_bump"])
@pytest.mark.parametrize("body", [INTERVAL, ConvexBody.ellipsoid([2.0, 1.0]),
                                  ConvexBody.box([1.0, 0.5]), HEXAGON, L4_BALL],
                         ids=lambda b: f"{b.kind}{b.dim}")
def test_gram_targets_match_tableau(name, body):
    f = make_function(name, body.dim)
    for m in (1, 2, 3):
        gram = functionals._shared_integral_quadrature.__wrapped__(f, body, m, 2.0)
        assert gram == pytest.approx(tableau_integral(f, body, m, 2.0), rel=1e-13)


def test_gram_target_matches_tableau_on_3d_ball(monkeypatch):
    # a coarser outer grid keeps the 3-D tableau small; the identity does not depend on it
    monkeypatch.setitem(functionals._OUTER_NODES, 3, 16)
    f, ball = make_function("gaussian", 3), ConvexBody.ball(1.0, 3)
    gram = functionals._shared_integral_quadrature.__wrapped__(f, ball, 2, 2.0)
    assert gram == pytest.approx(tableau_integral(f, ball, 2, 2.0), rel=1e-13)


def test_lead_integral_split_rule_is_converged(monkeypatch):
    # poly_bump's plateau is not analytic at +-0.8 and +-2: panels end there
    f, body = make_function("poly_bump", 2), ConvexBody.box([1.0, 0.5])
    lead = functionals._lead_integral(f, body, 2, 1.0, 4.0)
    monkeypatch.setitem(functionals._OUTER_NODES, 2, 400)
    assert lead == pytest.approx(functionals._lead_integral(f, body, 2, 1.0, 4.0), rel=1e-12)


def test_lead_control_variate_matches_quadrature_in_1d():
    # Monte Carlo integrates payoff - l and adds C back; quadrature integrates the payoff
    spec = FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 2, 2.0, 0.1, "shell")
    mc = evaluate(spec, mc_plan(samples=100_000, seed=5))
    quad = evaluate(spec, IntegrationPlan("tensor_quadrature", x_nodes=200, t_nodes=48))
    assert mc.info["lead_integral"] == pytest.approx(local_limit(spec), rel=1e-12)
    assert "lead_integral" not in quad.info
    assert 0.0 < mc.stderr and abs(mc.value - quad.value) <= 4.0 * mc.stderr
    # other exponents keep the plain payoff
    assert "lead_integral" not in evaluate(replace(spec, p=3.0), mc_plan(samples=20_000)).info


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
    est = evaluate(spec, IntegrationPlan("tensor_quadrature", x_nodes=160, t_nodes=48))
    assert est.value == pytest.approx(2.0 * ROOT_PI_HALF, rel=0.02)


def test_m3_mollified_matches_hand_oracle():
    # third-derivative energy of the gaussian: int ((-8x^3+12x) e^{-x^2})^2 dx
    # = (64*15/64 - 192*3/16 + 144/4) sqrt(pi/2) = 15 sqrt(pi/2);
    # constant (1+6)/3^6 and interval moment int y^6 = 2/7 give (10/243) sqrt(pi/2)
    target = (10.0 / 243.0) * ROOT_PI_HALF
    spec = FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 3, 2.0, 0.02, "shell")
    assert local_limit(spec) == pytest.approx(target, rel=1e-10)
    est = evaluate(spec, IntegrationPlan("tensor_quadrature", x_nodes=200, t_nodes=48))
    assert est.value == pytest.approx(target, rel=0.01)


def test_general_exponents_track_local_limits():
    # exponent plumbing (kernels, importance laws, constants) beyond p = 2
    qplan = IntegrationPlan("tensor_quadrature", x_nodes=200, t_nodes=48)
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
        evaluate(FunctionalSpec("nguyen_centered", polynomial_function([[0.0, 0.0, 1.0]]),
                                INTERVAL, 1, 2.0, 0.1), mc_plan(samples=10))
    with pytest.raises(SpecError, match="parameter"):
        evaluate(FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, -0.1),
                 mc_plan(samples=10))
    with pytest.raises(SpecError):
        evaluate(FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 4, 2.0, 0.1),
                 mc_plan(samples=10))


def test_every_registered_function_is_valid_in_a_spec():
    # the registry holds no identity-test polynomial, so validate_spec accepts every name
    for name in list_functions():
        functionals.validate_spec(FunctionalSpec("nguyen_centered", make_function(name, 1),
                                                 INTERVAL, 1, 2.0, 0.1))


# ---------------------------------------------------------------------------
# boundedness diagnostic: a sweep's largest value over its target
# ---------------------------------------------------------------------------

def test_uniform_bound_check():
    from nonlocal_limits.convergence import Schedule, sweep
    spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, 0.1)
    res = sweep(spec, Schedule(0.2, 0.5, 5), mc_plan(samples=50_000), tolerance=0.05)
    # the target is the local limit, sqrt(pi/2) for the gaussian
    assert res.target == pytest.approx(ROOT_PI_HALF, rel=1e-3)
    ratio = res.info["max_ratio_to_target"]
    assert ratio == max(pt.value for pt in res.points) / res.target
    assert ratio == pytest.approx(1.0, rel=0.25)


def test_uniform_bound_check_zero_function():
    from nonlocal_limits.convergence import Schedule, sweep
    z = make_function("zero", 1)
    spec = FunctionalSpec("nguyen_centered", z, INTERVAL, 1, 2.0, 0.1)
    res = sweep(spec, Schedule(0.1, 0.5, 4), mc_plan(samples=100), tolerance=0.05)
    # a zero target has no ratio to report, and every point is zero
    assert res.target == 0.0
    assert "max_ratio_to_target" not in res.info
    assert all(pt.value == 0.0 for pt in res.points)


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


@pytest.mark.parametrize("theorem", ["nguyen_centered", "bbm_centered"])
def test_payoff_matches_integrand_over_density(theorem, monkeypatch):
    # reference: payoff = pair integrand x t^(N-1) / law.pdf, t drawn from the kernel's v,
    # which a Monte Carlo shell pass folds by the tent 1 - |2v - 1| first
    body, m, p, par = ConvexBody.ellipsoid([2.0, 1.0]), 2, 2.5, 0.05
    spec = FunctionalSpec(theorem, GAUSS2, body, m, p, par,
                          "shell" if theorem.startswith("bbm") else None)
    captured = capture_pass(monkeypatch)
    evaluate(spec, mc_plan(samples=1))
    kernel, law = captured["kernel"], captured["law"]

    rng = np.random.default_rng(11)
    n = 20_000
    x = rng.uniform(-3.0, 3.0, size=(n, 2))
    sigma = rng.normal(size=(n, 2))
    sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
    v, aux = rng.random(n), law.prepare(sigma)
    folded = 1.0 - np.abs(2.0 * v - 1.0) if spec.mollifier_kind == "shell" else v
    t = law.sample(folded, aux)[0]  # one point: row 0
    payoff = kernel(x, sigma, v)[0]

    remainder = centered_remainder(GAUSS2, x, x + t[:, np.newaxis] * sigma, m)
    gauge = body.gauge(t[:, np.newaxis] * sigma)
    if spec.mollifier_kind is None:
        integrand = (np.abs(remainder) > par) * par ** p * gauge ** (-(2 + m * p))
    else:
        integrand = np.abs(remainder) ** p * gauge ** (-m * p) * spec.mollifier.evaluate(gauge)
    reference = integrand * t / law.pdf(t, aux)[0]  # t^(N-1) with N = 2
    assert np.count_nonzero(payoff) > 100
    np.testing.assert_allclose(payoff, reference, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p", [2.0, 3.0], ids=["control-variate", "plain"])
def test_shell_payoff_is_finite_where_the_tent_folds_to_0_and_1(p, monkeypatch):
    # a Monte Carlo shell pass draws at 1 - |2v - 1|: v = 0 gives radius 0, below t_c, where
    # payoff - l is exactly 0, and v = 1/2 gives the shell's edge; the plain kernel there is
    # the unfolded one at 0 and 1, and at radius 0 it pays exactly l = |c_m D|^p g^-(mp+N)
    body, m = ConvexBody.ellipsoid([2.0, 1.0]), 2
    spec = FunctionalSpec("bbm_centered", GAUSS2, body, m, p, 0.05, "shell")
    kernels = []
    for plan in (mc_plan(samples=1), IntegrationPlan("tensor_quadrature")):
        captured = capture_pass(monkeypatch)
        evaluate(spec, plan)
        kernels.append(captured["kernel"])
    rng = np.random.default_rng(13)
    n = 2000
    x = rng.uniform(-3.0, 3.0, size=(n, 2))
    sigma = rng.normal(size=(n, 2))
    sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
    folded, plain = kernels
    lead = np.abs(m ** -m * directional_m_form(GAUSS2, x, sigma, m)) ** p
    lead *= body.gauge(sigma) ** (-m * p - 2)
    assert plain(x, sigma, np.zeros(n))[0].tobytes() == lead.tobytes()
    for v, edge in ((0.0, 0.0), (0.5, 1.0)):
        payoff = folded(x, sigma, np.full(n, v))
        assert np.all(np.isfinite(payoff))
        if p == 2.0:
            assert np.count_nonzero(payoff) == (0 if v == 0.0 else n)
        else:
            assert np.count_nonzero(payoff) > n // 2
            assert payoff.tobytes() == plain(x, sigma, np.full(n, edge)).tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("theorem", ["bbm_centered", "bbm_taylor"])
def test_leading_term_payoff_matches_exact_remainder(theorem, m, monkeypatch):
    # below t_c the kernel pays for the leading term of R; from t_c/2 to 2 t_c it must
    # agree with the exact payoff, R in 50 digits, within the per-row share of
    # small_radius_bias, which grows at most like (t/t_c)^p above t_c
    p, eps, box = 2.0, 0.05, 7.0
    c_m = float(m) ** -m if theorem == "bbm_centered" else 1.0 / math.factorial(m)
    t_c = (np.finfo(float).eps / c_m) ** (1.0 / (m + 1))

    class Pinned(MollifierRadial):
        """Every radius at 0.25 t_c, which no shell profile draws."""

        def sample(self, v, gauge_sigma):
            return np.full((len(self.families), len(v)), 0.25 * t_c)

    monkeypatch.setattr(functionals, "MollifierRadial", Pinned)
    captured = capture_pass(monkeypatch)
    spec = FunctionalSpec(theorem, GAUSS1, INTERVAL, m, p, eps, "shell")
    est, = functionals._mollified_pass([spec], IntegrationPlan("tensor_quadrature"), box)
    per_row = est.info["small_radius_bias"] / (2.0 * box * 2.0 * spec.mollifier.mass_below(t_c))

    x = np.linspace(-2.5, 2.5, 41)
    xs = np.concatenate([x, x])[:, np.newaxis]
    sigma = np.repeat([[1.0], [-1.0]], x.size, axis=0)
    lead = captured["kernel"](xs, sigma, np.zeros(2 * x.size))[0]

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
    # gauge radii underflow to 0 here; below t_c the payoff does not depend on t.  On the
    # lattice most radii fall below t_c, where payoff - l is 0: at seed 1 the control
    # variate (p = 2) hits 727 of 4032 pairs and the plain payoff (p = 3) 3659
    eps = 0.00625
    spec = FunctionalSpec("bbm_centered", make_function("poly_bump", 1), INTERVAL, 1, 2.0,
                          eps, "fractional")
    est = evaluate(spec, IntegrationPlan("tensor_quadrature", x_nodes=200, t_nodes=48))
    assert math.isfinite(est.value)
    for p, hits in ((2.0, 727), (3.0, 3659)):
        est = evaluate(replace(spec, p=p), mc_plan(samples=4096, seed=1))
        assert math.isfinite(est.value) and est.info["hit_fraction"] == hits / 4032


# ---------------------------------------------------------------------------
# the level-set ladder against a closed-form firing set
# ---------------------------------------------------------------------------

def _gaussian_level_set_oracle(delta, p=2.0):
    """nguyen_centered, m = 1, exp(-x^2) on the interval [-1, 1] (gauge 1), on the pass's
    box and t_max: |f(x) - f(y)| > delta exactly where e^-y^2 > e^-x^2 + delta, |y| < r1,
    or e^-y^2 < e^-x^2 - delta, |y| > r2; t = (y - x) sigma carries each y-interval to a
    t-interval, whose t^-(1+p) mass is closed-form, and a composite Gauss rule takes x."""
    spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, p, delta)
    radius, t_max = functionals._level_set_box(spec)
    xg, wg = gauss_legendre(8, unit=True)
    edges = np.linspace(-radius, radius, 4001)
    x = (edges[:-1, np.newaxis] + np.diff(edges)[:, np.newaxis] * xg).ravel()
    wx = (np.diff(edges)[:, np.newaxis] * wg).ravel()
    a = np.exp(-x * x)
    inner, outer = a + delta < 1.0, a > delta
    r1 = np.sqrt(-np.log(np.where(inner, a + delta, 0.5)))
    r2 = np.sqrt(-np.log(np.where(outer, a - delta, 0.5)))
    total = 0.0
    for sigma in (-1.0, 1.0):
        for lo_y, hi_y, fires in ((-r1, r1, inner), (-np.inf, -r2, outer), (r2, np.inf, outer)):
            ends = np.sort([(lo_y - x) * sigma, (hi_y - x) * sigma], axis=0)
            t1, t2 = np.maximum(ends[0], 0.0), np.minimum(ends[1], t_max)
            keep = fires & (t2 > t1)
            t1, t2 = np.where(keep, t1, 1.0), np.where(keep, t2, 1.0)
            total += float(wx @ ((t1 ** -p - t2 ** -p) / p))
    return delta ** p * total


@pytest.mark.parametrize("grid", [(0.2, 0.1, 0.05, 0.025), (0.05,)], ids=["ladder", "one-stratum"])
def test_level_set_ladder_is_unbiased_against_the_closed_form(grid):
    # the mean of 40 seeded passes lies within 2.576 standard errors of the oracle at
    # every point; one threshold is a single stratum [lo, t_max], the plain law
    values = np.array([[evaluate(FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0,
                                                delta, None, grid), mc_plan(2000, seed)).value
                        for delta in grid] for seed in range(880, 920)])
    error = values.mean(axis=0) - [_gaussian_level_set_oracle(delta) for delta in grid]
    assert np.all(np.abs(error) <= 2.576 * values.std(axis=0, ddof=1) / math.sqrt(len(values)))


def test_level_set_stderr_matches_the_seed_to_seed_spread():
    # 20 seeds of the 2-D ellipse m = 1 sweep: each point's sd across seeds over its
    # median stderr, in the band of the lattice test
    ellipse = ConvexBody.ellipsoid([2.0, 1.0])
    grid = tuple(0.2 * 0.5 ** k for k in range(6))
    values, stderrs = [], []
    for seed in range(7300, 7320):
        points = [evaluate(FunctionalSpec("nguyen_centered", GAUSS2, ellipse, 1, 2.0, delta,
                                          None, grid), mc_plan(50_000, seed))
                  for delta in grid]
        values.append([e.value for e in points])
        stderrs.append([e.stderr for e in points])
    ratios = np.std(values, axis=0, ddof=1) / np.median(stderrs, axis=0)
    assert np.all((0.6 <= ratios) & (ratios <= 1.6)), ratios


@pytest.mark.parametrize("theorem, m", [("nguyen_centered", 1), ("nguyen_taylor", 2)])
def test_level_set_kernel_is_the_sum_over_strata(theorem, m, monkeypatch):
    # reference: point j's payoff is delta_j^p g^-(N+mp) times the sum over strata k <= j
    # of w_k 1{|R_k| > delta_j}, w_k = mass_k - mass_(k-1)
    body, grid = ConvexBody.ellipsoid([2.0, 1.0]), (0.2, 0.1, 0.05, 0.025, 0.0125)
    captured = capture_pass(monkeypatch, len(grid))
    specs = [FunctionalSpec(theorem, GAUSS2, body, m, 2.0, delta, None, grid) for delta in grid]
    functionals._level_set_pass(specs, mc_plan(samples=1), 3.0)
    kernel, law = captured["kernel"], captured["law"]

    rng = np.random.default_rng(23)
    n = 4000
    x = rng.normal(size=(n, 2))
    sigma = rng.normal(size=(n, 2))
    sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
    v, lo_s = rng.random(n), law.prepare(sigma)
    t = law.sample(v, lo_s)
    payoff = kernel(x, sigma, v)

    remainder = functionals._remainder(theorem)
    size = np.abs([remainder(GAUSS2, x, x + tk[:, np.newaxis] * sigma, m) for tk in t])
    strata = np.diff(law.mass(lo_s), axis=0, prepend=0.0)
    g_pow = body.gauge(sigma) ** (-(2 + m * 2.0))
    reference = np.array([delta ** 2 * g_pow * sum(strata[k] * (size[k] > delta)
                                                   for k in range(j + 1))
                          for j, delta in enumerate(grid)])
    assert np.count_nonzero(reference[-1]) > n // 4
    np.testing.assert_allclose(payoff, reference, rtol=1e-12, atol=0.0)
