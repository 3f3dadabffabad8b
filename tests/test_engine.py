import math
from dataclasses import replace

import numpy as np
import pytest

from nonlocal_limits import engine
from nonlocal_limits.bodies import ConvexBody
from nonlocal_limits.calculus import monomial, multi_indices
from nonlocal_limits.engine import (PROPOSAL_SHARE, SHIFTS, EngineError, IntegrationPlan,
                                    MollifierRadial, PowerLaw, body_quadrature_nodes, cone_nodes,
                                    gauss_legendre, integrate_double, lattice_sizes, outer_points,
                                    outer_weights, sphere_body_identity_check, sphere_constant,
                                    sphere_quadrature)
from nonlocal_limits.functionals import FunctionalSpec, evaluate
from nonlocal_limits.functions import make_function
from nonlocal_limits.mollifiers import make_mollifier

GAUSS2_PROPOSAL = make_function("gaussian", 2).proposal


def ones_kernel(x, sigma, t):
    return np.ones_like(t)


def test_constant_kernel_box_measure():
    # product of measures: box 2 x two directions x radial length 0.5 = 2
    plan = IntegrationPlan.monte_carlo(samples=20_000, seed=1)
    law = PowerLaw(0.0, 0.5, 1.0)  # uniform radial density, no importance weighting
    est, = integrate_double(ones_kernel, plan, 1.0, 1, law)
    assert est.stderr < 0.02
    assert abs(est.value - 2.0) <= 3 * max(est.stderr, 1e-12)


def test_matched_importance_has_zero_variance():
    # integrand 1/t^2 over the law's shape t^-2: per-sample payoff is constant
    plan = IntegrationPlan.monte_carlo(samples=5_000, seed=2)
    law = PowerLaw(-2.0, 0.25, 2.0)
    est, = integrate_double(lambda x, s, t: np.ones_like(t), plan, 1.0, 1, law)
    expected = 2.0 * 2.0 * (1.0 / 0.25 - 1.0 / 2.0)  # box x sphere x int t^-2
    assert est.value == pytest.approx(expected, rel=1e-12)
    assert est.stderr <= 1e-12 * expected


def test_empty_plan_rejected():
    plan = IntegrationPlan.monte_carlo(samples=0, seed=0)
    with pytest.raises(ValueError, match="empty plan"):
        integrate_double(ones_kernel, plan, 1.0, 1, PowerLaw(0.0, 0.5, 1.0))


def test_power_law_rejects_empty_radial_interval():
    with pytest.raises(ValueError, match="radial interval"):
        PowerLaw(-3.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="radial interval"):
        PowerLaw(-3.0, 2.0, 1.0)


def test_nonfinite_kernel_reports_coordinates():
    plan = IntegrationPlan.monte_carlo(samples=100, seed=0)

    def bad(x, sigma, t):
        return np.full_like(t, np.nan)

    with pytest.raises(EngineError, match="nonfinite kernel value at x="):
        integrate_double(bad, plan, 1.0, 1, PowerLaw(0.0, 0.5, 1.0))


def test_determinism_bitwise():
    plan = IntegrationPlan.monte_carlo(samples=30_000, seed=9, workers=3)
    law = PowerLaw(-1.5, 0.1, 2.0)
    kernel = lambda x, s, t: np.exp(-x[..., 0] ** 2) / t
    a, = integrate_double(kernel, plan, 1.0, 1, law)
    b, = integrate_double(kernel, plan, 1.0, 1, law)
    assert a.value == b.value and a.stderr == b.stderr


def test_seed_independence():
    law = PowerLaw(-1.5, 0.1, 2.0)
    kernel = lambda x, s, t: np.exp(-x[..., 0] ** 2) / t
    est = []
    for seed in (101, 202):
        plan = IntegrationPlan.monte_carlo(samples=40_000, seed=seed)
        est += integrate_double(kernel, plan, 1.0, 1, law)
    z = abs(est[0].value - est[1].value) / math.hypot(est[0].stderr, est[1].stderr)
    assert z <= 4.0


def test_worker_split_covers_all_samples():
    law = PowerLaw(0.0, 0.5, 1.0)
    for workers in (1, 2, 5):
        plan = IntegrationPlan.monte_carlo(samples=10_001, seed=3, workers=workers)
        est, = integrate_double(ones_kernel, plan, 1.0, 1, law)
        assert est.info["workers"] == workers
        assert abs(est.value - 2.0) <= 4 * max(est.stderr, 1e-12)


def test_quadrature_matches_monte_carlo_on_smooth_kernel():
    law = PowerLaw(-1.0, 0.2, 1.5)
    kernel = lambda x, s, t: np.exp(-x[..., 0] ** 2) * t
    qplan = IntegrationPlan.quadrature(x_nodes=80, t_nodes=48)
    quad, = integrate_double(kernel, qplan, 3.0, 1, law)
    mplan = IntegrationPlan.monte_carlo(samples=300_000, seed=5)
    mc, = integrate_double(kernel, mplan, 3.0, 1, law)
    assert quad.stderr == 0.0
    gap = abs(quad.value - mc.value)
    assert gap <= max(3 * mc.stderr, 1e-3 * abs(quad.value))


def test_quadrature_integrates_every_point_of_a_law():
    # one cutoff row per point: each estimate is the quadrature of its own law
    cutoffs = [0.5, 0.25, 0.125]
    law = PowerLaw(-1.0, lambda s: np.repeat([[c] for c in cutoffs], len(s), axis=1), 1.5)
    kernel = lambda x, s, t: np.exp(-x * x).T * t
    plan = IntegrationPlan.quadrature(x_nodes=40, t_nodes=24)
    together = integrate_double(kernel, plan, 3.0, 1, law)
    alone = [integrate_double(kernel, plan, 3.0, 1, PowerLaw(-1.0, c, 1.5))[0] for c in cutoffs]
    assert [e.value for e in together] == pytest.approx([e.value for e in alone], rel=1e-14)


def test_importance_sampling_unbiased_over_repetitions():
    # closed-form radial integral oracle; mean over 50 independent estimates
    # must sit within the 1% critical value of its standard error
    law = PowerLaw(-2.0, 0.5, 4.0)
    # integrand (1 + x^2) / t^2; x is shared, so the payoff row is broadcast to t's shape
    kernel = lambda x, s, t: np.broadcast_to(1.0 + x[:, 0] ** 2, t.shape)
    truth = 2.0 * (1.0 + 1.0 / 3.0) * 2.0 * (1.0 / 0.5 - 1.0 / 4.0)
    values = []
    for rep in range(50):
        plan = IntegrationPlan.monte_carlo(samples=2_000, seed=1000 + rep)
        values.append(integrate_double(kernel, plan, 1.0, 1, law)[0].value)
    values = np.asarray(values)
    z = abs(values.mean() - truth) / (values.std(ddof=1) / math.sqrt(len(values)))
    assert z <= 2.576


def test_mollifier_radial_law_normalizes():
    # payoff 1 integrates the law's own radial shape, i.e. the unit profile mass
    moll = make_mollifier("shell", 1, 0.3)
    body = ConvexBody.box([1.0])
    law = MollifierRadial([moll], body.gauge)
    plan = IntegrationPlan.monte_carlo(samples=20_000, seed=4)
    est, = integrate_double(ones_kernel, plan, 1.0, 1, law)
    assert est.value == pytest.approx(4.0, rel=1e-12)  # box 2 x sphere 2 x mass 1


def test_integrate_body_examples():
    # the box branch of the volume rule against closed forms
    ys, w = body_quadrature_nodes(ConvexBody.box([1.0]))
    assert w @ ys[:, 0] ** 2 == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert abs(w @ ys[:, 0] ** 3) <= 1e-15  # odd integrand
    ys, w = body_quadrature_nodes(ConvexBody.box([2.0, 0.5]))
    assert w.sum() == pytest.approx(4.0, rel=1e-14)
    # (16/3) (1/12): the product of the two axis moments
    assert w @ (ys[:, 0] * ys[:, 1]) ** 2 == pytest.approx(4.0 / 9.0, rel=1e-14)


def test_integrate_body_quadrature_exact():
    _, w = body_quadrature_nodes(ConvexBody.ball(1.0, 2), 48, 64)
    assert w.sum() == pytest.approx(math.pi, rel=1e-12)
    # moment oracle: (pi/4) a^3 b
    ys, w = body_quadrature_nodes(ConvexBody.ellipsoid([2.0, 1.0]), 48, 64)
    assert w @ ys[:, 0] ** 2 == pytest.approx(2 * math.pi, rel=1e-10)
    _, w = body_quadrature_nodes(ConvexBody.ball(1.0, 3), 48, 64)
    assert w.sum() == pytest.approx(4 * math.pi / 3, rel=1e-10)


def test_sphere_quadrature_measures():
    for dim, expected in ((1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi)):
        dirs, w = sphere_quadrature(dim)
        assert w.sum() == pytest.approx(expected, rel=1e-9)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_sphere_quadrature_matches_closed_moments(p):
    # surface integral of |sigma_1|^p: 2 B((p+1)/2, 1/2) on the circle, 4 pi / (p+1) on S^2
    circle = 2.0 * math.sqrt(math.pi) * math.gamma((p + 1.0) / 2.0) / math.gamma(p / 2.0 + 1.0)
    dirs, w = sphere_quadrature(2)
    assert abs(w @ np.abs(dirs[:, 0]) ** p / circle - 1.0) <= 1e-13
    dirs, w = sphere_quadrature(3)
    assert abs(w @ np.abs(dirs[:, 0]) ** p / (4.0 * math.pi / (p + 1.0)) - 1.0) <= 1e-8


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
    return np.broadcast_to(1.0 + x[:, 0] ** 2, t.shape)


def _repeated_z(samples, workers, reps, seed0):
    values = []
    for rep in range(reps):
        plan = IntegrationPlan.monte_carlo(samples=samples, seed=seed0 + rep, workers=workers)
        values.append(integrate_double(mixture_kernel, plan, 2.0, 2, MIXTURE_LAW,
                                       GAUSS2_PROPOSAL)[0].value)
    values = np.asarray(values)
    return abs(values.mean() - MIXTURE_TRUTH) / (values.std(ddof=1) / math.sqrt(reps))


def test_mixture_unbiased_over_repetitions():
    assert _repeated_z(2_000, 1, 50, 3000) <= 2.576


def test_mixture_unbiased_for_odd_block_sizes():
    # samples = 32 gives one proposal and one box point per shift, so every
    # block holds one point: only the realised share 1/2 keeps these
    # estimates unbiased (the nominal share 0.8 is off by about 30% of the
    # truth here)
    assert lattice_sizes(32, True) == (1, 1)
    assert _repeated_z(32, 1, 600, 5000) <= 2.576


def _mixture_points(rng, n, radius):
    """n points per shift split as a pass splits them: proposal points, then box points."""
    n1, n2 = lattice_sizes(SHIFTS * n, True)
    prop = GAUSS2_PROPOSAL
    x = np.concatenate([outer_points(rng.random((prop.coordinates, n1)), radius, prop),
                        outer_points(rng.random((2, n2)), radius, None)])
    return x, n1, n2


@pytest.mark.parametrize("n", [2, 7, 1001, 32768])
def test_mixture_weights_bounded_and_exact(n):
    rng = np.random.default_rng(n)
    radius, mass = 8.5, 2.0 * math.pi
    x, n1, n2 = _mixture_points(rng, n, radius)
    w = outer_weights(x, radius, GAUSS2_PROPOSAL, n1 / (n1 + n2), mass)
    uniform = mass * (2.0 * radius) ** 2
    assert x.shape == (n1 + n2, 2) and np.all(np.abs(x) <= radius)
    assert np.all(w > 0.0)
    # the box share n2 caps every weight at (n1 + n2) / n2 uniform weights
    assert np.all(w <= uniform * (n1 + n2) / n2 * (1.0 + 1e-12))
    if n >= 1000:
        assert w.max() <= 5.01 * uniform
    share = n1 / (n1 + n2)
    q = share * GAUSS2_PROPOSAL.pdf(x) + (1.0 - share) / (2.0 * radius) ** 2
    np.testing.assert_allclose(w, mass / q, rtol=1e-15)


def _record_blocks(monkeypatch):
    """Each block's (x, sigma, t, factor) as the engine weighs its payoffs, in block order."""
    blocks = []
    weighted = engine._weighted_payoffs

    def recording(kernel, x, sigma, t, factor):
        blocks.append((x, sigma, t, np.broadcast_to(factor, t.shape[1:])))
        return weighted(kernel, x, sigma, t, factor)

    monkeypatch.setattr(engine, "_weighted_payoffs", recording)
    return blocks


def _run_lengths(sizes):
    """The points of each block: every (lattice, shift) run cut into _CHUNK pieces."""
    return [min(engine._CHUNK, n - lo) for n in sizes for _ in range(SHIFTS)
            for lo in range(0, n, engine._CHUNK)]


def test_single_row_chunk_is_a_box_row(monkeypatch):
    # one-point blocks: the last point of each shift's box lattice is a block of its own
    monkeypatch.setattr(engine, "_CHUNK", 1)
    blocks = _record_blocks(monkeypatch)
    plan = IntegrationPlan.monte_carlo(samples=2000, seed=1)
    integrate_double(ones_kernel, plan, 8.5, 2, PowerLaw(0.0, 0.5, 1.0), GAUSS2_PROPOSAL)
    n1, n2 = lattice_sizes(plan.samples, True)
    share = n1 / (n1 + n2)
    assert len(blocks) == SHIFTS * (n1 + n2)
    for r in range(SHIFTS):
        x, _, _, factor = blocks[SHIFTS * n1 + (r + 1) * n2 - 1]
        assert x.shape == (1, 2) and np.all(np.abs(x) <= 8.5)
        q = share * GAUSS2_PROPOSAL.pdf(x) + (1.0 - share) / 17.0 ** 2
        # the radial law's mass is 0.5
        np.testing.assert_allclose(factor, 0.5 * 2.0 * math.pi / q, rtol=1e-15)


def test_out_of_box_proposal_draw_gets_zero_weight(monkeypatch):
    blocks = _record_blocks(monkeypatch)
    plan = IntegrationPlan.monte_carlo(samples=SHIFTS * 4000, seed=4)
    integrate_double(ones_kernel, plan, 0.5, 2, PowerLaw(0.0, 0.5, 1.0), GAUSS2_PROPOSAL)
    n1, n2 = lattice_sizes(plan.samples, True)
    # one block per run: the proposal lattice's SHIFTS runs come first, then the box lattice's
    assert [len(x) for x, _, _, _ in blocks] == [n1] * SHIFTS + [n2] * SHIFTS
    x = np.concatenate([x for x, _, _, _ in blocks])
    w = np.concatenate([factor for _, _, _, factor in blocks])
    outside = np.any(np.abs(x) > 0.5, axis=1)
    assert outside[:SHIFTS * n1].sum() > 16 * 1000 and not outside[SHIFTS * n1:].any()
    assert np.all(w[outside] == 0.0) and np.all(w[~outside] > 0.0)


def test_no_proposal_keeps_the_uniform_box(monkeypatch):
    u = np.random.default_rng(5).random((2, 100))
    np.testing.assert_array_equal(outer_points(u, 3.0, None), (-3.0 + 6.0 * u).T)
    blocks = _record_blocks(monkeypatch)
    plan = IntegrationPlan.monte_carlo(samples=3200, seed=5)
    integrate_double(ones_kernel, plan, 3.0, 2, PowerLaw(0.0, 0.5, 1.0))
    assert lattice_sizes(plan.samples, False) == (0, 199)
    assert [len(x) for x, _, _, _ in blocks] == [199] * SHIFTS
    for x, _, _, factor in blocks:
        assert np.all(np.abs(x) <= 3.0)
        assert np.all(factor == 0.5 * (2.0 * math.pi * 36.0))


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
    # three or more blocks, so the cap is the CPU count and not the block count
    plan = IntegrationPlan.monte_carlo(samples=3 * engine._CHUNK + 1, seed=9, workers=6)
    reference, = integrate_double(mixture_kernel, plan, 2.0, 2, MIXTURE_LAW, GAUSS2_PROPOSAL)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    _RecordingExecutor.requested = []
    capped, = integrate_double(mixture_kernel, plan, 2.0, 2, MIXTURE_LAW, GAUSS2_PROPOSAL)
    assert _RecordingExecutor.requested == [2]
    assert (capped.value, capped.stderr) == (reference.value, reference.stderr)
    # one thread runs the blocks in the calling thread, without a pool
    monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
    integrate_double(mixture_kernel, plan, 2.0, 2, MIXTURE_LAW, GAUSS2_PROPOSAL)
    assert _RecordingExecutor.requested == [2]


# ---------------------------------------------------------------------------
# one seeded block driver: the worker count never changes the numbers
# ---------------------------------------------------------------------------

# n1 = 2503 and n2 = 631 points per shift: 32 blocks, one per (lattice, shift) run
BLOCKED_SAMPLES = 3 * engine._CHUNK + 1001


def _assert_same_at_workers(run, monkeypatch):
    # a large CPU count, so that workers 1, 2 and 3 really run 1, 2 and 3 threads
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    results = set()
    for workers in (1, 2, 3):
        est = run(IntegrationPlan.monte_carlo(samples=BLOCKED_SAMPLES, seed=31,
                                              workers=workers))
        results.add((est.value, est.stderr))
    assert len(results) == 1


def test_integrate_double_bitwise_across_workers(monkeypatch):
    _assert_same_at_workers(lambda plan: integrate_double(mixture_kernel, plan, 2.0, 2,
                                                          MIXTURE_LAW, GAUSS2_PROPOSAL)[0],
                            monkeypatch)


def _record_kernel_calls(calls):
    def kernel(x, sigma, t):
        calls.append((x, sigma, t))
        return mixture_kernel(x, sigma, t)
    return kernel


@pytest.mark.parametrize("chunk", [engine._CHUNK, 1000])
def test_kernel_calls_are_the_blocks_of_each_run(chunk, monkeypatch):
    # every (lattice, shift) run cut into pieces of at most _CHUNK points, proposal
    # lattice first and shift by shift, each a C-contiguous batch of outer points
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    calls = []
    plan = IntegrationPlan.monte_carlo(samples=BLOCKED_SAMPLES, seed=31)
    est, = integrate_double(_record_kernel_calls(calls), plan, 2.0, 2, MIXTURE_LAW,
                            GAUSS2_PROPOSAL)
    sizes = lattice_sizes(plan.samples, True)
    assert [len(x) for x, _, _ in calls] == _run_lengths(sizes)
    assert sum(len(x) for x, _, _ in calls) == est.info["samples"] == SHIFTS * sum(sizes)
    assert all(x.flags.c_contiguous and x.shape[1] == 2 for x, _, _ in calls)
    if chunk == 1000:
        assert _run_lengths(sizes)[:3] == [1000, 1000, 503]


def test_block_streams_and_offsets():
    # the first point of a run is its shift itself: shift r is drawn from
    # SeedSequence((seed, 1, r)), proposal lattice first, and every run starts a block
    calls = []
    plan = IntegrationPlan.monte_carlo(samples=BLOCKED_SAMPLES, seed=31)
    integrate_double(_record_kernel_calls(calls), plan, 2.0, 2, MIXTURE_LAW, GAUSS2_PROPOSAL)
    assert len(calls) == 2 * SHIFTS
    for r in (0, 7, SHIFTS - 1):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((31, 1, r))))
        # a Box-Muller pair, the angle and v; the box lattice has 4 coordinates too
        first, second = rng.random(4), rng.random(4)
        for lattice, shift, proposal in ((0, first, GAUSS2_PROPOSAL), (1, second, None)):
            x, sigma, t = calls[lattice * SHIFTS + r]
            u = shift[:, np.newaxis]
            np.testing.assert_array_equal(x[:1], outer_points(u[:2], 2.0, proposal))
            np.testing.assert_array_equal(sigma[:1], engine._directions(u[2:3], 2))
            t0 = MIXTURE_LAW.sample(u[3], MIXTURE_LAW.prepare(u))
            np.testing.assert_array_equal(t[0, :1], t0)


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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_directions_cover_the_sphere_uniformly(dim):
    # unit vectors whose second moments over a lattice are those of the sphere, I / dim
    z = engine.generating_vector(4999, 2)
    u = engine._lattice(np.arange(4999), z, 4999, np.array([[0.3], [0.7]]))
    sigma = engine._directions(u[:1 if dim < 3 else 2], dim)
    assert sigma.shape == (4999, dim)
    np.testing.assert_allclose(np.linalg.norm(sigma, axis=1), 1.0, rtol=1e-15)
    np.testing.assert_allclose(sigma.T @ sigma / 4999, np.eye(dim) / dim, atol=2e-3)


def test_hit_fraction_counts_nonzero_payoffs_per_row():
    # three points: every payoff nonzero, every fourth evaluated pair nonzero, none;
    # the box holds every proposal point, so no weight is 0
    law = PowerLaw(-2.0, lambda sigma: np.full((3, len(sigma)), 0.5), 4.0)
    evaluated = []

    def kernel(x, sigma, t):
        columns = np.arange(len(evaluated), len(evaluated) + len(x))
        evaluated.extend(columns)
        return np.stack([np.ones(len(x)), (columns % 4 == 0) * 2.0, np.zeros(len(x))])

    plan = IntegrationPlan.monte_carlo(samples=BLOCKED_SAMPLES, seed=1)
    n = sum(lattice_sizes(plan.samples, True))
    full, quarter, none = integrate_double(kernel, plan, 8.5, 2, law, GAUSS2_PROPOSAL)
    assert full.info["hit_fraction"] == 1.0 and none.info["hit_fraction"] == 0.0
    assert full.info["samples"] == len(evaluated) == SHIFTS * n
    assert quarter.info["hit_fraction"] == len(range(0, SHIFTS * n, 4)) / (SHIFTS * n)


@pytest.mark.parametrize("n", [4, 10, 48, 200])
def test_gauss_legendre_rule_is_leggauss_built_once_and_read_only(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    for unit, expected in ((False, (nodes, weights)), (True, (0.5 * (nodes + 1.0), 0.5 * weights))):
        rule = gauss_legendre(n, unit=unit)
        assert gauss_legendre(n, unit=unit) is rule
        for got, want in zip(rule, expected):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype and not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0


# ---------------------------------------------------------------------------
# the randomized rank-1 lattice rule
# ---------------------------------------------------------------------------

def _korobov(x):
    return 2.0 * math.pi ** 2 * (x * x - x + 1.0 / 6.0)


def _brute_force_cbc(n, s):
    # each coordinate keeps the smallest z <= (n - 1)/2 that minimises P_2, ties within 1e-12
    k = np.arange(n)
    z, product = [1], 1.0 + _korobov(k / n)
    for _ in range(1, s):
        errors = np.array([product @ (1.0 + _korobov(k * c % n / n))
                           for c in range(1, (n - 1) // 2 + 1)])
        tie = 1e-12 * (math.pi ** 2 / 3.0) * np.abs(product[1:]).sum()
        z.append(1 + int(np.flatnonzero(errors <= errors.min() + tie)[0]))
        product = product * (1.0 + _korobov(k * z[-1] % n / n))
    return z


def test_fast_cbc_equals_brute_force_cbc():
    assert engine.generating_vector(101, 4).tolist() == _brute_force_cbc(101, 4)
    assert engine.generating_vector(1009, 7).tolist() == _brute_force_cbc(1009, 7)
    # prefixes agree: the construction is coordinate by coordinate
    assert engine.generating_vector(101, 2).tolist() == _brute_force_cbc(101, 4)[:2]
    assert engine.generating_vector(2, 3).tolist() == [1, 1, 1]
    assert engine.generating_vector(101, 4) is engine.generating_vector(101, 4)


def test_lattice_rule_integrates_fourier_modes_exactly():
    # a shifted lattice integrates cos(2 pi h.x) exactly: 0 for h outside the dual
    # lattice (h.z != 0 mod n), cos(2 pi h.shift) on it
    n = 1009
    z = engine.generating_vector(n, 4)
    shift = np.random.default_rng(8).random(4)
    u = engine._lattice(np.arange(n), z, n, shift[:, np.newaxis])
    assert u.shape == (4, n) and np.all((u >= 0.0) & (u < 1.0))
    for h in ([1, 0, 0, 0], [0, 3, 0, 0], [1, -1, 2, 0], [2, 5, -3, 7]):
        h = np.array(h)
        assert int(h @ z) % n != 0
        assert abs(np.cos(2.0 * math.pi * (h @ u)).mean()) <= 1e-10
    dual = np.array([int(z[1]), -1, 0, 0])
    assert int(dual @ z) % n == 0
    assert np.cos(2.0 * math.pi * (dual @ u)).mean() == pytest.approx(
        math.cos(2.0 * math.pi * (dual @ shift)), abs=1e-9)


def test_lattice_sizes_are_primes_within_the_plan():
    for samples in (32, 64, 2000, 70_000, 500_000, 1_000_000):
        n1, n2 = lattice_sizes(samples, True)
        assert SHIFTS * (n1 + n2) <= samples and n1 <= PROPOSAL_SHARE * (samples // SHIFTS)
        for size in (n1, n2):
            assert size == 1 or all(size % d for d in range(2, math.isqrt(size) + 1))
    assert lattice_sizes(500_000, True) == (24989, 6257)
    assert lattice_sizes(16, False) == (0, 1)
    for samples, mixture in ((31, True), (15, False), (0, False)):
        with pytest.raises(ValueError, match="samples"):
            lattice_sizes(samples, mixture)
    with pytest.raises(ValueError, match="lattice without points"):
        integrate_double(ones_kernel, IntegrationPlan.monte_carlo(samples=31), 2.0, 2,
                         MIXTURE_LAW, GAUSS2_PROPOSAL)


def _three_point_pass(dim, plan):
    law = PowerLaw(-1.5, lambda s: np.repeat([[0.1], [0.2], [0.3]], len(s), axis=1), 2.0)
    kernel = lambda x, s, t: np.exp(-(x * x).sum(axis=1)) * np.cos(t) * (1.5 + s[:, 0])
    proposal = make_function("gaussian", dim).proposal
    return [(e.value, e.stderr, e.info["hit_fraction"])
            for e in integrate_double(kernel, plan, 2.0, dim, law, proposal)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pass_bitwise_at_any_worker_count_and_block_size(dim, monkeypatch):
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    plan = IntegrationPlan.monte_carlo(samples=3000, seed=12)
    reference = _three_point_pass(dim, plan)  # one block per run of 149 or 37 points
    monkeypatch.setattr(engine, "_CHUNK", 100)
    for workers in (1, 2, 5):
        assert _three_point_pass(dim, replace(plan, workers=workers)) == reference
    monkeypatch.setattr(engine, "_CHUNK", 3)
    assert _three_point_pass(dim, plan) == reference


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_constant_and_matched_kernels_stay_exact(dim):
    plan = IntegrationPlan.monte_carlo(samples=5000, seed=dim)
    box = 2.0 ** dim * engine.sphere_measure(dim)
    est, = integrate_double(ones_kernel, plan, 1.0, dim, PowerLaw(0.0, 0.5, 1.0))
    assert est.value == pytest.approx(0.5 * box, rel=1e-12) and est.stderr <= 1e-12 * box
    est, = integrate_double(ones_kernel, plan, 1.0, dim, PowerLaw(-2.0, 0.25, 2.0))
    assert est.value == pytest.approx(3.5 * box, rel=1e-12) and est.stderr <= 1e-12 * box


def test_stderr_matches_the_seed_to_seed_spread():
    # 20 seeds of one shell pass: each point's sd across seeds over its median stderr
    gauss = make_function("gaussian", 2)
    ellipse = ConvexBody.ellipsoid([2.0, 1.0])
    grid = (0.4, 0.2, 0.1)
    values, stderrs = [], []
    for seed in range(7100, 7120):
        plan = IntegrationPlan.monte_carlo(samples=20_000, seed=seed)
        points = [evaluate(FunctionalSpec("bbm_centered", gauss, ellipse, 1, 2.0, eps,
                                          "shell", grid), plan)
                  for eps in grid]
        values.append([e.value for e in points])
        stderrs.append([e.stderr for e in points])
    ratios = np.std(values, axis=0, ddof=1) / np.median(stderrs, axis=0)
    assert np.all((0.6 <= ratios) & (ratios <= 1.6)), ratios
