import math

import numpy as np
import pytest

from nonlocal_limits import engine
from nonlocal_limits.bodies import ConvexBody
from nonlocal_limits.calculus import monomial, multi_indices
from nonlocal_limits.engine import (PROPOSAL_SHARE, EngineError, IntegrationPlan,
                                    MollifierRadial, PowerLaw, body_quadrature_nodes,
                                    cone_nodes, integrate_body, integrate_double,
                                    outer_points, sphere_body_identity_check,
                                    sphere_constant, sphere_quadrature)
from nonlocal_limits.functions import make_function
from nonlocal_limits.mollifiers import make_mollifier

GAUSS2_PROPOSAL = make_function("gaussian", 2).proposal


def ones_kernel(x, sigma, t):
    return np.ones_like(t)


def test_constant_kernel_box_measure():
    # product of measures: box 2 x two directions x radial length 0.5 = 2
    plan = IntegrationPlan.monte_carlo(samples=20_000, seed=1, outer_box_radius=1.0)
    law = PowerLaw(0.0, 0.5, 1.0)  # uniform radial density, no importance weighting
    est = integrate_double(ones_kernel, plan, 1, law)
    assert est.stderr < 0.02
    assert abs(est.value - 2.0) <= 3 * max(est.stderr, 1e-12)


def test_matched_importance_has_zero_variance():
    # integrand 1/t^2 over the law's shape t^-2: per-sample payoff is constant
    plan = IntegrationPlan.monte_carlo(samples=5_000, seed=2, outer_box_radius=1.0)
    law = PowerLaw(-2.0, 0.25, 2.0)
    est = integrate_double(lambda x, s, t: np.ones_like(t), plan, 1, law)
    expected = 2.0 * 2.0 * (1.0 / 0.25 - 1.0 / 2.0)  # box x sphere x int t^-2
    assert est.value == pytest.approx(expected, rel=1e-12)
    assert est.stderr <= 1e-12 * expected


def test_empty_plan_rejected():
    plan = IntegrationPlan.monte_carlo(samples=0, seed=0, outer_box_radius=1.0)
    with pytest.raises(ValueError, match="empty plan"):
        integrate_double(ones_kernel, plan, 1, PowerLaw(0.0, 0.5, 1.0))


def test_power_law_rejects_empty_radial_interval():
    with pytest.raises(ValueError, match="radial interval"):
        PowerLaw(-3.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="radial interval"):
        PowerLaw(-3.0, 2.0, 1.0)


def test_nonfinite_kernel_reports_coordinates():
    plan = IntegrationPlan.monte_carlo(samples=100, seed=0, outer_box_radius=1.0)

    def bad(x, sigma, t):
        return np.full_like(t, np.nan)

    with pytest.raises(EngineError, match="nonfinite kernel value at x="):
        integrate_double(bad, plan, 1, PowerLaw(0.0, 0.5, 1.0))


def test_determinism_bitwise():
    plan = IntegrationPlan.monte_carlo(samples=30_000, seed=9, workers=3,
                                       outer_box_radius=1.0)
    law = PowerLaw(-1.5, 0.1, 2.0)
    kernel = lambda x, s, t: np.exp(-x[:, 0] ** 2) / t
    a = integrate_double(kernel, plan, 1, law)
    b = integrate_double(kernel, plan, 1, law)
    assert a.value == b.value and a.stderr == b.stderr


def test_seed_independence():
    law = PowerLaw(-1.5, 0.1, 2.0)
    kernel = lambda x, s, t: np.exp(-x[:, 0] ** 2) / t
    est = []
    for seed in (101, 202):
        plan = IntegrationPlan.monte_carlo(samples=40_000, seed=seed, outer_box_radius=1.0)
        est.append(integrate_double(kernel, plan, 1, law))
    z = abs(est[0].value - est[1].value) / math.hypot(est[0].stderr, est[1].stderr)
    assert z <= 4.0


def test_worker_split_covers_all_samples():
    law = PowerLaw(0.0, 0.5, 1.0)
    for workers in (1, 2, 5):
        plan = IntegrationPlan.monte_carlo(samples=10_001, seed=3, workers=workers,
                                           outer_box_radius=1.0)
        est = integrate_double(ones_kernel, plan, 1, law)
        assert est.info["workers"] == workers
        assert abs(est.value - 2.0) <= 4 * max(est.stderr, 1e-12)


def test_quadrature_matches_monte_carlo_on_smooth_kernel():
    law = PowerLaw(-1.0, 0.2, 1.5)
    kernel = lambda x, s, t: np.exp(-x[:, 0] ** 2) * t
    qplan = IntegrationPlan.quadrature(x_nodes=80, t_nodes=48, outer_box_radius=3.0)
    quad = integrate_double(kernel, qplan, 1, law)
    mplan = IntegrationPlan.monte_carlo(samples=300_000, seed=5, outer_box_radius=3.0)
    mc = integrate_double(kernel, mplan, 1, law)
    assert quad.stderr == 0.0
    gap = abs(quad.value - mc.value)
    assert gap <= max(3 * mc.stderr, 1e-3 * abs(quad.value))


def test_importance_sampling_unbiased_over_repetitions():
    # closed-form radial integral oracle; mean over 50 independent estimates
    # must sit within the 1% critical value of its standard error
    law = PowerLaw(-2.0, 0.5, 4.0)
    kernel = lambda x, s, t: 1.0 + x[:, 0] ** 2  # integrand (1 + x^2) / t^2
    truth = 2.0 * (1.0 + 1.0 / 3.0) * 2.0 * (1.0 / 0.5 - 1.0 / 4.0)
    values = []
    for rep in range(50):
        plan = IntegrationPlan.monte_carlo(samples=2_000, seed=1000 + rep,
                                           outer_box_radius=1.0, stratification=1)
        values.append(integrate_double(kernel, plan, 1, law).value)
    values = np.asarray(values)
    z = abs(values.mean() - truth) / (values.std(ddof=1) / math.sqrt(len(values)))
    assert z <= 2.576


def test_mollifier_radial_law_normalizes():
    # payoff 1 integrates the law's own radial shape, i.e. the unit profile mass
    moll = make_mollifier("shell", 1, 0.3)
    body = ConvexBody.box([1.0])
    law = MollifierRadial(moll, body.gauge, mass_floor=0.0)
    plan = IntegrationPlan.monte_carlo(samples=20_000, seed=4, outer_box_radius=1.0)
    est = integrate_double(ones_kernel, plan, 1, law)
    assert est.value == pytest.approx(4.0, rel=1e-12)  # box 2 x sphere 2 x mass 1


def test_integrate_body_examples(rng):
    disc = ConvexBody.ball(1.0, 2)
    plan = IntegrationPlan.monte_carlo(samples=200_000, seed=6)
    est = integrate_body(lambda y: np.ones(y.shape[:-1]), disc, plan)
    assert abs(est.value - math.pi) <= max(3 * est.stderr, 1e-12)

    interval = ConvexBody.box([1.0])
    est = integrate_body(lambda y: y[..., 0] ** 2, interval, plan)
    assert abs(est.value - 2.0 / 3.0) <= 3 * est.stderr

    est = integrate_body(lambda y: y[..., 0] ** 3, interval, plan)  # odd integrand
    assert abs(est.value) <= 3 * est.stderr


def test_integrate_body_quadrature_exact():
    plan = IntegrationPlan.quadrature(x_nodes=48, t_nodes=64)
    disc = ConvexBody.ball(1.0, 2)
    assert integrate_body(lambda y: np.ones(y.shape[:-1]), disc, plan).value == pytest.approx(math.pi, rel=1e-12)
    ellipse = ConvexBody.ellipsoid([2.0, 1.0])
    # moment oracle: (pi/4) a^3 b
    assert integrate_body(lambda y: y[..., 0] ** 2, ellipse, plan).value == pytest.approx(2 * math.pi, rel=1e-10)
    ball3 = ConvexBody.ball(1.0, 3)
    assert integrate_body(lambda y: np.ones(y.shape[:-1]), ball3, plan).value == pytest.approx(4 * math.pi / 3, rel=1e-10)


def test_integrate_body_polytope_box_indicator():
    diamond = ConvexBody.polytope([[1, 1], [-1, -1], [1, -1], [-1, 1]], [1, 1, 1, 1])
    plan = IntegrationPlan.monte_carlo(samples=400_000, seed=12)
    est = integrate_body(lambda y: np.ones(y.shape[:-1]), diamond, plan)
    assert abs(est.value - 2.0) <= 3 * est.stderr  # l1 ball area


def test_sphere_quadrature_measures():
    for dim, expected in ((1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi)):
        dirs, w = sphere_quadrature(dim, 512)
        assert w.sum() == pytest.approx(expected, rel=1e-9)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_sphere_constant_values():
    assert sphere_constant(1, 2.0) == pytest.approx(2.0, rel=1e-12)
    # int_0^2pi cos^2 = pi
    assert sphere_constant(2, 2.0) == pytest.approx(math.pi, rel=1e-10)


def test_sphere_body_identity_examples():
    # both sides analytic: interval gives 2 = 3 * (2/3); disc gives pi = 4 * (pi/4)
    lhs, rhs, gap = sphere_body_identity_check(lambda s: s[..., 0], ConvexBody.box([1.0]), 1, 2.0)
    assert lhs == pytest.approx(2.0, rel=1e-10) and rhs == pytest.approx(2.0, rel=1e-10)
    lhs, rhs, gap = sphere_body_identity_check(lambda s: s[..., 0], ConvexBody.ball(1.0, 2), 1, 2.0)
    assert lhs == pytest.approx(math.pi, rel=1e-9) and gap <= 1e-3
    lhs, rhs, gap = sphere_body_identity_check(lambda s: np.zeros(s.shape[:-1]), ConvexBody.ball(1.0, 2), 1, 2.0)
    assert (lhs, rhs, gap) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# cone-measure rule: sum w h(z) = (N + d) integral_K h for h homogeneous of degree d
# ---------------------------------------------------------------------------

HEXAGON = ConvexBody.polytope([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.8660254037844386],
                               [-0.5, -0.8660254037844386], [-0.5, 0.8660254037844386],
                               [0.5, -0.8660254037844386]], [1.0] * 6)
# the cube [-1, 1]^3 with the corners x + y + z >= 2 and <= -2 cut off
CUT_CUBE = ConvexBody.polytope([[1, 1, 1], [-1, -1, -1], [1, 0, 0], [-1, 0, 0],
                                [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                               [2, 2, 1, 1, 1, 1, 1, 1])
TENSOR_BODIES = [body for dim in (1, 2, 3) for body in (
    ConvexBody.ball(1.3, dim), ConvexBody.box([1.0, 0.5, 2.0][:dim]),
    ConvexBody.ellipsoid([2.0, 1.0, 0.3][:dim]))]


CONE_VOLUMES = {f"{b.kind}-{b.dim}d": (b, b.volume) for b in TENSOR_BODIES}
CONE_VOLUMES.update({f"lp{q}-2d": (ConvexBody.lp_ball(q, 1.2, 2),
                                   ConvexBody.lp_ball(q, 1.2, 2).volume)
                     for q in (1.0, 1.5, 3.0, 4.0)})
CONE_VOLUMES.update({"hexagon": (HEXAGON, 2.0 * math.sqrt(3.0)),
                     "cut-cube": (CUT_CUBE, 23.0 / 3.0),
                     "polytope-1d": (ConvexBody.polytope([[2.0], [-2.0]], [1.0, 1.0]), 1.0),
                     # the square [-1, 1]^2 with a facet listed twice (scaled), and
                     # with an inequality that touches it only at a corner
                     "square-doubled-facet": (ConvexBody.polytope(
                         [[1, 0], [-1, 0], [0, 1], [0, -1], [2, 0], [-2, 0]],
                         [1, 1, 1, 1, 2, 2]), 4.0),
                     "square-corner-facet": (ConvexBody.polytope(
                         [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]],
                         [1, 1, 1, 1, 2, 2]), 4.0)})


@pytest.mark.parametrize("body, volume", CONE_VOLUMES.values(), ids=CONE_VOLUMES.keys())
def test_cone_weights_sum_to_dim_times_volume(body, volume):
    z, w = cone_nodes(body)
    assert abs(w.sum() - body.dim * volume) <= 1e-10
    np.testing.assert_allclose(body.gauge(z), 1.0, rtol=1e-12)  # boundary points


def test_cone_nodes_box_with_extreme_half_widths():
    # box vertices are the sign patterns of the half-widths, exact at any scale
    box = ConvexBody.box([2.0e16, 5e-324])
    z, w = cone_nodes(box)
    assert w.sum() == pytest.approx(2.0 * box.volume, rel=1e-12)
    assert np.all(np.abs(z) <= np.array([2.0e16, 5e-324]))


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_cone_weights_lp_ball_3d(q):
    # non-even exponents are only |angle|^q smooth at the coordinate planes;
    # measured relative errors: 7.9e-9 (q = 1.5), 4.4e-15 (q = 2), 1.4e-9 (q = 3)
    body = ConvexBody.lp_ball(q, 1.0, 3)
    _, w = cone_nodes(body)
    assert abs(w.sum() / (3.0 * body.volume) - 1.0) <= 1e-4


@pytest.mark.parametrize("body", TENSOR_BODIES, ids=lambda b: f"{b.kind}-{b.dim}d")
def test_cone_rule_matches_volume_rule_on_monomials(body):
    # y^alpha is homogeneous of degree |alpha|: the cone sum over (N + |alpha|)
    # against the tensor volume rule, exact for these degrees
    z, w = cone_nodes(body)
    ys, wy = body_quadrature_nodes(body, radial_nodes=8, angular_nodes=16)
    for degree in range(7):
        for alpha in multi_indices(body.dim, degree):
            got = w @ monomial(z, alpha) / (body.dim + degree)
            ref = wy @ monomial(ys, alpha)
            scale = np.abs(wy) @ np.abs(monomial(ys, alpha))  # odd monomials integrate to 0
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-13 * scale)


# ---------------------------------------------------------------------------
# defensive-mixture proposal for the outer point
# ---------------------------------------------------------------------------

# payoff (1 + x0^2) over the law's shape t^-2 on the box [-2, 2]^2: most of the
# integrand sits where the N(0, 1) proposal is thin, and 4.6% of proposal
# coordinates land outside the box
MIXTURE_LAW = PowerLaw(-2.0, 0.5, 4.0)
MIXTURE_TRUTH = (112.0 / 3.0) * 2.0 * math.pi * (1.0 / 0.5 - 1.0 / 4.0)


def mixture_kernel(x, sigma, t):
    return 1.0 + x[:, 0] ** 2


def _repeated_z(samples, workers, reps, seed0):
    values = []
    for rep in range(reps):
        plan = IntegrationPlan.monte_carlo(samples=samples, seed=seed0 + rep, workers=workers,
                                           outer_box_radius=2.0, stratification=1)
        values.append(integrate_double(mixture_kernel, plan, 2, MIXTURE_LAW,
                                       GAUSS2_PROPOSAL).value)
    values = np.asarray(values)
    return abs(values.mean() - MIXTURE_TRUTH) / (values.std(ddof=1) / math.sqrt(reps))


def test_mixture_unbiased_over_repetitions():
    assert _repeated_z(2_000, 1, 50, 3000) <= 2.576


def test_mixture_unbiased_for_odd_block_sizes(monkeypatch):
    # blocks of 3, 3 and 1 rows draw 2, 2 and 0 proposal rows: only the
    # realised share 2/3 keeps these estimates unbiased (a fixed 0.8 is off
    # by about a quarter of the truth here)
    monkeypatch.setattr(engine, "_CHUNK", 3)
    assert _repeated_z(7, 1, 600, 5000) <= 2.576


@pytest.mark.parametrize("n", [2, 7, 1001, 32768])
def test_mixture_weights_bounded_and_exact(n):
    rng = np.random.default_rng(n)
    radius, mass = 8.5, 2.0 * math.pi
    x, w = outer_points(rng, n, 2, radius, GAUSS2_PROPOSAL, mass)
    k = min(round(PROPOSAL_SHARE * n), n - 1)
    uniform = mass * (2.0 * radius) ** 2
    assert x.shape == (n, 2) and np.all(np.abs(x) <= radius)
    assert np.all(w > 0.0)
    # the box share n - k caps every weight at n / (n - k) uniform weights
    assert np.all(w <= uniform * n / (n - k) * (1.0 + 1e-12))
    if n >= 1000:
        assert w.max() <= 5.01 * uniform
    q = k / n * GAUSS2_PROPOSAL.pdf(x) + (1.0 - k / n) / (2.0 * radius) ** 2
    np.testing.assert_allclose(w, mass / q, rtol=1e-15)


def test_single_row_chunk_is_a_box_row():
    x, w = outer_points(np.random.default_rng(1), 1, 2, 8.5, GAUSS2_PROPOSAL, 1.0)
    assert x.shape == (1, 2) and w == 17.0 ** 2


def test_out_of_box_proposal_draw_gets_zero_weight():
    rng = np.random.default_rng(4)
    n, radius = 4000, 0.5
    x, w = outer_points(rng, n, 2, radius, GAUSS2_PROPOSAL, 1.0)
    k = round(PROPOSAL_SHARE * n)
    outside = np.any(np.abs(x) > radius, axis=1)
    assert outside[:k].sum() > 1000 and not outside[k:].any()
    assert np.all(w[outside] == 0.0) and np.all(w[~outside] > 0.0)


def test_no_proposal_keeps_the_uniform_box():
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    x, w = outer_points(rng_a, 100, 2, 3.0, None, 2.0)
    np.testing.assert_array_equal(x, rng_b.uniform(-3.0, 3.0, size=(100, 2)))
    assert w == 2.0 * 36.0


class _RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records the request, runs serially."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_threads_capped_at_cpu_count(monkeypatch):
    # four blocks, so the cap is the CPU count and not the block count
    plan = IntegrationPlan.monte_carlo(samples=3 * engine._CHUNK + 1, seed=9, workers=6,
                                       outer_box_radius=2.0)
    reference = integrate_double(mixture_kernel, plan, 2, MIXTURE_LAW, GAUSS2_PROPOSAL)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    _RecordingExecutor.requested = []
    capped = integrate_double(mixture_kernel, plan, 2, MIXTURE_LAW, GAUSS2_PROPOSAL)
    assert _RecordingExecutor.requested == [2]
    assert (capped.value, capped.stderr) == (reference.value, reference.stderr)
    # one thread runs the blocks in the calling thread, without a pool
    monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
    integrate_double(mixture_kernel, plan, 2, MIXTURE_LAW, GAUSS2_PROPOSAL)
    assert _RecordingExecutor.requested == [2]


# ---------------------------------------------------------------------------
# one seeded block driver: the worker count never changes the numbers
# ---------------------------------------------------------------------------

# three full blocks and a partial fourth
BLOCKED_SAMPLES = 3 * engine._CHUNK + 1001


def _assert_same_at_workers(run, monkeypatch):
    # a large CPU count, so that workers 1, 2 and 3 really run 1, 2 and 3 threads
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    results = set()
    for workers in (1, 2, 3):
        est = run(IntegrationPlan.monte_carlo(samples=BLOCKED_SAMPLES, seed=31,
                                              workers=workers, outer_box_radius=2.0))
        results.add((est.value, est.stderr))
    assert len(results) == 1


def test_integrate_double_bitwise_across_workers(monkeypatch):
    _assert_same_at_workers(lambda plan: integrate_double(mixture_kernel, plan, 2, MIXTURE_LAW,
                                                          GAUSS2_PROPOSAL), monkeypatch)


def test_integrate_body_bitwise_across_workers(monkeypatch):
    for body in (ConvexBody.ellipsoid([2.0, 1.0]), ConvexBody.lp_ball(4.0, 1.0, 2)):
        _assert_same_at_workers(lambda plan: integrate_body(lambda y: y[..., 0] ** 2, body, plan),
                                monkeypatch)


def test_block_streams_and_offsets():
    # block i draws from SeedSequence((seed, stream, i)) and starts at row i * _CHUNK
    seen = []

    def chunk(rng, n, offset):
        seen.append((n, offset, rng.random()))
        return np.zeros(n)

    plan = IntegrationPlan.monte_carlo(samples=BLOCKED_SAMPLES, seed=31, workers=1)
    engine.monte_carlo(plan, 5, chunk)
    expected = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((31, 5, i)))).random()
                for i in range(4)]
    assert seen == [(engine._CHUNK, 0, expected[0]),
                    (engine._CHUNK, engine._CHUNK, expected[1]),
                    (engine._CHUNK, 2 * engine._CHUNK, expected[2]),
                    (1001, 3 * engine._CHUNK, expected[3])]


def test_power_law_bitwise_against_unprepared_formulas():
    # prepare() returns lo ** (exponent + 1); t and mass must equal the
    # formulas that raise lo themselves, bit for bit
    rng = np.random.default_rng(17)
    sigma = rng.normal(size=(1000, 2))
    v = rng.random(1000)
    cutoff = lambda s: 0.05 + np.abs(s[:, 0])
    for exponent in (-3.0, -1.0, -2.5, 0.0):
        law = PowerLaw(exponent, cutoff, 2.0)
        lo = np.minimum(cutoff(sigma), 0.5 * 2.0)
        s1 = exponent + 1.0
        aux = law.prepare(sigma)
        if s1 == 0.0:
            t_old = lo * (2.0 / lo) ** v
            mass_old = np.log(2.0 / lo)
        else:
            a_s = lo ** s1
            t_old = (a_s + v * (2.0 ** s1 - a_s)) ** (1.0 / s1)
            mass_old = (2.0 ** s1 - lo ** s1) / s1
        np.testing.assert_array_equal(law.sample(v, aux), t_old)
        np.testing.assert_array_equal(law.mass(aux), mass_old)
