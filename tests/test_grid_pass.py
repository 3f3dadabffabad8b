"""One Monte Carlo pass per grid.  A mollified point is bitwise its own K = 1 pass on the
grid's one outer box; the points of a level-set pass share the strata of one radial ladder,
so each lies within noise of its lone pass, and a lone point is the plain estimator."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import drawn, flat_reach

from nonlocal_limits import engine, functionals, functions
from nonlocal_limits.bodies import ConvexBody
from nonlocal_limits.convergence import Schedule, sweep
from nonlocal_limits.engine import (SHIFTS, EngineError, IntegrationPlan, MollifierRadial, PowerLaw,
                                   integrate_double)
from nonlocal_limits.functionals import FunctionalSpec, SpecError, evaluate
from nonlocal_limits.functions import make_function

GAUSS1 = make_function("gaussian", 1)
GAUSS2 = make_function("gaussian", 2)
ELLIPSE = ConvexBody.ellipsoid([2.0, 1.0])
INTERVAL = ConvexBody.box([1.0])

# theorem, function, body, m, mollifier kind, grid.  The first level-set
# threshold is above the remainder range 2^m sup|f| = 2: an exact zero.
CASES = {
    "level-set-2d": ("nguyen_centered", GAUSS2, ELLIPSE, 1, None, (4.0, 0.2, 0.1, 0.05)),
    "taylor-level-set-1d": ("nguyen_taylor", GAUSS1, INTERVAL, 2, None, (0.2, 0.1, 0.05)),
    "shell-2d": ("bbm_centered", GAUSS2, ELLIPSE, 1, "shell", (0.4, 0.2, 0.1)),
    "taylor-shell-1d": ("bbm_taylor", GAUSS1, INTERVAL, 2, "shell", (0.4, 0.2, 0.1)),
    "fractional-1d": ("bbm_centered", GAUSS1, INTERVAL, 1, "fractional", (0.4, 0.2, 0.1)),
}


def grid_specs(case, grid=True):
    """The points of a case, each naming the case's grid (or none)."""
    theorem, f, body, m, kind, values = CASES[case]
    return [FunctionalSpec(theorem, f, body, m, 2.0, value, kind, values if grid else ())
            for value in values]


def counting_integrator(monkeypatch):
    calls = []
    real = functionals.integrate_double

    def counting(kernel, plan, radius, *args, **kwargs):
        calls.append(radius)
        return real(kernel, plan, radius, *args, **kwargs)

    monkeypatch.setattr(functionals, "integrate_double", counting)
    return calls


MOLLIFIED_CASES = [case for case in CASES if CASES[case][4] is not None]
LEVEL_SET_CASES = [case for case in CASES if CASES[case][4] is None]


@pytest.mark.parametrize("case", MOLLIFIED_CASES)
def test_grid_pass_is_bitwise_the_single_point_passes(case, monkeypatch):
    # 32 blocks, one per (lattice, shift) run, on 1, 2 and 3 threads
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    seen = set()
    for workers in (1, 2, 3):
        plan = IntegrationPlan("monte_carlo", samples=3500, seed=17, workers=workers)
        together = [evaluate(spec, plan) for spec in grid_specs(case)]
        # a shell's box grows with epsilon: its lone points run on the grid's box
        if CASES[case][4] == "shell":
            box = max(functionals._box_radius(spec) for spec in grid_specs(case))
            alone = [functionals._mollified_pass([spec], plan, box)[0]
                     for spec in grid_specs(case, grid=False)]
        else:
            alone = [evaluate(spec, plan) for spec in grid_specs(case, grid=False)]
        assert [(e.value, e.stderr, e.info) for e in together] == \
               [(e.value, e.stderr, e.info) for e in alone]
        seen.add(tuple((e.value, e.stderr) for e in together))
        assert all(e.info["method"] == "monte_carlo" and e.value > 0.0 for e in together)
    assert len(seen) == 1


def _level_set_grid(case, plan):
    """Each point's value, stderr and info."""
    return [(e.value, e.stderr, e.info)
            for e in (evaluate(spec, plan) for spec in grid_specs(case))]


@pytest.mark.parametrize("case", LEVEL_SET_CASES)
def test_level_set_grid_pass_is_bitwise_at_any_worker_count_and_block_size(case, monkeypatch):
    # each thread keeps its own histogram: more threads than cores,
    # switched every microsecond, must not mix them up
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    plan = IntegrationPlan("monte_carlo", samples=3500, seed=17)
    reference = _level_set_grid(case, plan)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 5):
            functionals._grid_pass.cache_clear()
            assert _level_set_grid(case, replace(plan, workers=workers)) == reference
        # a block of at most 40 points cuts every run of the pass
        monkeypatch.setattr(engine, "_CHUNK", 40)
        for workers in (1, 5):
            functionals._grid_pass.cache_clear()
            assert _level_set_grid(case, replace(plan, workers=workers)) == reference
    finally:
        sys.setswitchinterval(interval)
    sampled = [info for _, _, info in reference if "exact_zero" not in info]
    assert len(sampled) == len(reference) - (case == "level-set-2d")
    assert all(info["method"] == "monte_carlo" for info in sampled)


@pytest.mark.parametrize("case", LEVEL_SET_CASES)
def test_level_set_grid_points_lie_within_noise_of_their_lone_passes(case):
    # a point shares its strata with the larger thresholds in a grid and has one alone;
    # the largest sampled threshold has the one stratum [lo, t_max] either way
    plan = IntegrationPlan("monte_carlo", samples=20_000, seed=17)
    together = [evaluate(spec, plan) for spec in grid_specs(case)]
    alone = [evaluate(spec, plan) for spec in grid_specs(case, grid=False)]
    sampled = [(a, b) for a, b in zip(together, alone) if "exact_zero" not in a.info]
    assert sampled[0][0].value == pytest.approx(sampled[0][1].value, rel=1e-12)
    for grid_point, lone in sampled:
        assert grid_point.value > 0.0
        gap = abs(grid_point.value - lone.value)
        assert gap <= 3.0 * math.hypot(grid_point.stderr, lone.stderr)
    # the smaller thresholds average more strata per ray
    assert all(a.stderr < b.stderr for a, b in sampled[1:])


class _PlainLaw:
    """The radial law of one threshold drawn on its whole range [lo, t_max], lo raised to
    exponent + 1 row by row: the estimator a level-set point had before the ladder."""

    def __init__(self, spec):
        m, self.t_max = spec.m, functionals._level_set_box(spec)[1]
        self.s = -m * spec.p
        self.cutoff = lambda sigma: functionals._cutoff_scale(spec) * (spec.parameter / np.maximum(
            functionals.direction_bound(spec.f, m, sigma), 1e-300)) ** (1.0 / m)

    def prepare(self, sigma):
        return np.minimum(self.cutoff(sigma), 0.5 * self.t_max)[np.newaxis] ** self.s

    def sample(self, v, lo_s):
        return (lo_s + v * (self.t_max ** self.s - lo_s)) ** (1.0 / self.s)

    def mass(self, lo_s):
        return (self.t_max ** self.s - lo_s) / self.s


@pytest.mark.parametrize("case", LEVEL_SET_CASES)
def test_lone_level_set_point_is_the_plain_estimator(case):
    # the ladder's lower bounds are cutoff^s reach^s, one power per direction, where the plain
    # law raised each row's cutoff: the radii differ in the last bits, no indicator flips
    theorem, f, body, m, _, _ = CASES[case]
    spec = grid_specs(case, grid=False)[-1]
    remainder, delta, p = functionals._remainder(theorem), spec.parameter, spec.p

    def kernel(x, sigma, t):
        fires = np.abs(remainder(f, x, x + t[0][:, np.newaxis] * sigma, m, f.eval(x))) > delta
        payoff = delta ** p * body.gauge(sigma) ** -(body.dim + m * p)
        return np.where(fires, payoff, 0.0)[np.newaxis]

    plan = IntegrationPlan("monte_carlo", samples=20_000, seed=29)
    lone = evaluate(spec, plan)
    plain, = integrate_double(drawn(_PlainLaw(spec), kernel), plan, functionals._box_radius(spec),
                              body.dim, f.proposal)
    assert lone.value == pytest.approx(plain.value, rel=1e-12)
    assert lone.stderr == pytest.approx(plain.stderr, rel=1e-9)
    assert lone.info["hit_fraction"] == plain.info["hit_fraction"] > 0.0


@pytest.mark.parametrize("order", [sorted, lambda grid: sorted(grid, key=lambda v: (v * 7) % 1)],
                         ids=["increasing", "shuffled"])
def test_level_set_thresholds_in_any_order(order):
    # the pass sorts its thresholds into the ladder and returns each estimate under its own
    plan = IntegrationPlan("monte_carlo", samples=3500, seed=5)
    specs = grid_specs("level-set-2d")[1:]
    decreasing = {spec.parameter: evaluate(spec, plan) for spec in specs}
    grid = tuple(order(spec.parameter for spec in specs))
    assert grid != specs[0].grid[1:]
    for spec in specs:
        est = evaluate(replace(spec, grid=grid), plan)
        assert (est.value, est.stderr, est.info) == \
               (decreasing[spec.parameter].value, decreasing[spec.parameter].stderr,
                decreasing[spec.parameter].info)


def test_capped_cutoffs_give_zero_width_strata(monkeypatch):
    # thresholds far above the remainder range have cutoffs beyond t_max / 2, where the law
    # caps them: the second stratum has zero width, at t_max / 2, and neither point fires
    draws = []
    sample = PowerLaw.sample

    def recording(law, v, lo_s):
        t = sample(law, v, lo_s)
        draws.append(t.copy())
        return t

    monkeypatch.setattr(PowerLaw, "sample", recording)
    grid = (60.0, 40.0, 0.1, 0.05)
    specs = [FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, delta, None, grid)
             for delta in grid]
    box, t_max = functionals._level_set_box(specs[0])
    bound = max(float(functionals.direction_bound(GAUSS1, 1, np.array([[s]]))[0]) for s in (-1, 1))
    assert 40.0 / bound > 0.5 * t_max
    plan = IntegrationPlan("monte_carlo", samples=2000, seed=4)
    capped = functionals._level_set_pass(specs, plan, box)
    t = np.concatenate(draws, axis=1)
    assert np.all(np.isfinite(t)) and np.all(t[0] >= 0.5 * t_max * (1.0 - 1e-12))
    np.testing.assert_allclose(t[1], 0.5 * t_max, rtol=1e-12)
    assert [e.value for e in capped[:2]] == [0.0, 0.0]
    # the small thresholds' strata start below the cap and their values stay in noise
    alone = functionals._level_set_pass(specs[2:], plan, box)
    for est, lone in zip(capped[2:], alone):
        assert abs(est.value - lone.value) <= 3.0 * math.hypot(est.stderr, lone.stderr)


def test_exact_zero_point_skips_the_pass(monkeypatch):
    calls = counting_integrator(monkeypatch)
    plan = IntegrationPlan("monte_carlo", samples=2000, seed=5)
    zero, *points = grid_specs("level-set-2d")
    assert evaluate(zero, plan).info["exact_zero"] == "threshold above remainder range"
    assert calls == []
    for spec in points:
        evaluate(spec, plan)
    assert len(calls) == 1


def test_pass_is_kept_for_one_grid_and_plan_only(monkeypatch):
    calls = counting_integrator(monkeypatch)
    plan = IntegrationPlan("monte_carlo", samples=2000, seed=5)
    _, first, second, third = grid_specs("level-set-2d")
    kept = [evaluate(spec, plan) for spec in (first, second, third)]
    assert len(calls) == 1
    # each call returns a copy: changing one leaves the kept pass alone
    kept[1].info["changed"] = True
    assert "changed" not in evaluate(second, plan).info and len(calls) == 1
    evaluate(second, replace(plan, seed=6))
    assert len(calls) == 2
    evaluate(second, replace(plan, samples=2001))
    assert len(calls) == 3
    evaluate(replace(second, grid=(0.2, 0.1)), plan)
    assert len(calls) == 4
    again = evaluate(second, plan)
    assert len(calls) == 5 and (again.value, again.stderr) == (kept[1].value, kept[1].stderr)


def test_parameter_must_be_on_its_grid():
    spec = replace(grid_specs("level-set-2d")[1], grid=(0.3, 0.1))
    with pytest.raises(SpecError, match="grid"):
        evaluate(spec, IntegrationPlan("monte_carlo", samples=100, seed=1))


# a radial law of three points: one cutoff row per point
THREE_POINT_LAW = PowerLaw(-2.0, (0.5, 0.5, 0.5), flat_reach, 4.0)


def test_nonfinite_payoff_names_its_point_and_first_bad_row():
    seen = {}

    def kernel(x, sigma, v):
        seen.update(x=x.copy(), v=np.array(v))
        out = np.ones((3, len(v)))
        out[1, 1:] = np.nan  # the first block: the 3 proposal points of shift 0
        return out

    plan = IntegrationPlan("monte_carlo", samples=100, seed=3)
    with pytest.raises(EngineError) as err:
        integrate_double(kernel, plan, 2.0, 2, GAUSS2.proposal)
    message = str(err.value)
    assert f"x={seen['x'][1].tolist()}" in message
    assert f"v={float(seen['v'][1])!r}" in message and message.endswith("(point 1)")


def test_sweep_runs_one_pass(monkeypatch):
    calls = counting_integrator(monkeypatch)
    plan = IntegrationPlan("monte_carlo", samples=5000, seed=2)
    spec = FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 1, 2.0, 0.4, "shell")
    res = sweep(spec, Schedule(0.4, points=5), plan, tolerance=0.05)
    assert len(calls) == 1 and len(res.points) == 5
    assert [info["method"] for info in res.info["point_info"]] == ["monte_carlo"] * 5


def test_mollified_sweep_needs_a_kind(monkeypatch):
    calls = counting_integrator(monkeypatch)
    plan = IntegrationPlan("monte_carlo", samples=5000, seed=2)
    with pytest.raises(SpecError, match="mollifier kind"):
        sweep(FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 1, 2.0, 0.4), Schedule(0.4, points=5),
              plan, tolerance=0.05)
    assert calls == []


def test_level_set_spec_takes_no_kind(monkeypatch):
    calls = counting_integrator(monkeypatch)
    spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, 0.2, "shell")
    with pytest.raises(SpecError, match="level-set functionals take no mollifier kind"):
        functionals.validate_spec(spec)
    plan = IntegrationPlan("monte_carlo", samples=5000, seed=2)
    with pytest.raises(SpecError, match="level-set functionals take no mollifier kind"):
        sweep(spec, Schedule(0.2, points=5), plan, tolerance=0.05)
    assert calls == []


def test_mollified_pass_uses_the_largest_box_of_its_points(monkeypatch):
    calls = counting_integrator(monkeypatch)
    plan = IntegrationPlan("monte_carlo", samples=2000, seed=5)
    specs = grid_specs("shell-2d")
    for spec in specs:
        evaluate(spec, plan)
    boxes = [functionals._box_radius(spec) for spec in specs]
    # a shell's box grows with epsilon, so the largest epsilon's box holds the others
    assert boxes[0] > boxes[1] > boxes[2]
    assert calls == [boxes[0]]


def test_small_radius_bias_uses_the_pass_box():
    plan = IntegrationPlan("monte_carlo", samples=2000, seed=5)
    largest, _, smallest = grid_specs("shell-2d")
    box, own_box = (functionals._box_radius(spec) for spec in (largest, smallest))
    bias = evaluate(smallest, plan).info["small_radius_bias"]
    alone = replace(smallest, grid=())
    assert bias == functionals._mollified_pass([alone], plan, box)[0].info["small_radius_bias"]
    # the bound scales with the volume of the box
    own = evaluate(alone, plan).info["small_radius_bias"]
    assert bias / own == pytest.approx((box / own_box) ** 2, rel=1e-12)


@pytest.mark.parametrize("law", [PowerLaw(-2.0, (0.5,), flat_reach, 4.0), THREE_POINT_LAW],
                         ids=["K=1", "K=3"])
@pytest.mark.parametrize("plan", [
    IntegrationPlan("monte_carlo", samples=100, seed=3),
    IntegrationPlan("tensor_quadrature", x_nodes=8, t_nodes=8)],
    ids=["monte_carlo", "quadrature"])
def test_kernel_of_the_wrong_shape_raises(plan, law):
    # without the point axis, the n payoffs of a block would pass for n points
    def kernel(x, sigma, v):
        return law.sample(v, law.prepare(sigma))[0]

    with pytest.raises(EngineError, match=r"shape \(\d+,\), expected \(K, \d+\)"):
        integrate_double(kernel, plan, 2.0, 1)


@pytest.mark.parametrize("case", ["level-set-2d", "shell-2d"])
def test_pass_evaluates_f_at_x_once_per_block(case, monkeypatch):
    # m = 1 centered: per sample one f(x) shared by the K points, and one f(y) per point
    plan = IntegrationPlan("monte_carlo", samples=3500, seed=23)
    evaluate(grid_specs(case)[-1], replace(plan, seed=24))  # warm every cached bound
    sizes = []
    real = functions.TestFunction.eval

    def counting(self, x):
        out = real(self, x)
        sizes.append(np.size(out))
        return out

    monkeypatch.setattr(functions.TestFunction, "eval", counting)
    estimates = [evaluate(spec, plan) for spec in grid_specs(case)]
    sampled = [est for est in estimates if "exact_zero" not in est.info]
    assert sum(sizes) == sampled[0].info["samples"] * (1 + len(sampled))


@pytest.mark.parametrize("plan", [IntegrationPlan("monte_carlo", samples=3500, seed=23),
                                  IntegrationPlan("tensor_quadrature", x_nodes=16, t_nodes=8)],
                         ids=["monte_carlo", "quadrature"])
@pytest.mark.parametrize("case", ["taylor-shell-1d", "taylor-level-set-1d"])
def test_pass_prepares_one_direction_state_per_block(case, plan, monkeypatch):
    # a mollified block takes the gauge of its directions once, for its radii and its
    # payoffs alike, and a level-set block the lower radial bounds of its directions once
    owner, name = (ConvexBody, "gauge") if CASES[case][4] else (PowerLaw, "prepare")
    prepared, blocks = [], []
    method, real = getattr(owner, name), functionals.integrate_double

    def counting(self, sigma):
        prepared.append(len(sigma))
        return method(self, sigma)

    def integrate(kernel, *args):
        def counted(x, sigma, v):
            blocks.append(len(x))
            return kernel(x, sigma, v)

        before = len(prepared)
        estimates = real(counted, *args)
        assert prepared[before:] == blocks
        return estimates

    monkeypatch.setattr(owner, name, counting)
    monkeypatch.setattr(functionals, "integrate_double", integrate)
    evaluate(grid_specs(case)[-1], plan)
    assert len(blocks) == (2 * SHIFTS if plan.method == "monte_carlo" else 2)


MONTE_CARLO = IntegrationPlan("monte_carlo", samples=3500, seed=23)
QUADRATURE = IntegrationPlan("tensor_quadrature", x_nodes=16, t_nodes=8)


def radial_coordinates(spec, plan, monkeypatch):
    """The estimate of ``spec``, the v each kernel call is handed and the v its radial law
    samples at, block by block."""
    handed, sampled = [], []
    for law in (MollifierRadial, PowerLaw):
        def recording(self, v, aux, sample=law.sample):
            sampled.append(np.array(v))
            return sample(self, v, aux)

        monkeypatch.setattr(law, "sample", recording)
    real = functionals.integrate_double

    def integrate(kernel, *args):
        def recorded(x, sigma, v):
            handed.append(np.array(v))
            return kernel(x, sigma, v)

        return real(recorded, *args)

    monkeypatch.setattr(functionals, "integrate_double", integrate)
    est = evaluate(spec, plan)
    assert len(handed) == len(sampled) > 0
    return est, handed, sampled


@pytest.mark.parametrize("p", [2.0, 3.0], ids=["control-variate", "plain"])
@pytest.mark.parametrize("case", ["shell-2d", "taylor-shell-1d"])
def test_monte_carlo_shell_pass_samples_at_the_tent_of_v(case, p, monkeypatch):
    # a shell payoff is smooth in v but not periodic, so both shell kernels fold v by the
    # tent 1 - |2v - 1| before the radii are drawn
    est, handed, sampled = radial_coordinates(replace(grid_specs(case)[-1], p=p), MONTE_CARLO,
                                              monkeypatch)
    assert ("lead_integral" in est.info) == (p == 2.0)
    assert len(handed) == 2 * SHIFTS
    for v, at in zip(handed, sampled):
        assert at.tobytes() == (1.0 - np.abs(2.0 * v - 1.0)).tobytes()
        assert not np.array_equal(at, v)


@pytest.mark.parametrize("case, plan, p", [
    ("taylor-shell-1d", QUADRATURE, 2.0),
    ("taylor-shell-1d", QUADRATURE, 3.0),
    ("fractional-1d", MONTE_CARLO, 2.0),
    ("fractional-1d", MONTE_CARLO, 3.0),
    ("taylor-level-set-1d", MONTE_CARLO, 2.0),
    ("level-set-2d", MONTE_CARLO, 2.0),
    ("taylor-level-set-1d", QUADRATURE, 2.0),
], ids=["quadrature-shell-p2", "quadrature-shell-p3", "fractional-control-variate",
        "fractional-plain", "taylor-level-set", "level-set-2d", "quadrature-level-set"])
def test_other_passes_sample_at_v_itself(case, plan, p, monkeypatch):
    # quadrature hands the kernels Gauss-Legendre nodes, which a tent would kink at v = 1/2,
    # and the tent was no gain for fractional profiles and level sets: they sample at v
    _, handed, sampled = radial_coordinates(replace(grid_specs(case)[-1], p=p), plan, monkeypatch)
    assert [v.tobytes() for v in handed] == [at.tobytes() for at in sampled]


@pytest.mark.parametrize("case", ["shell-2d", "taylor-shell-1d"])
def test_shell_pass_is_bitwise_at_any_worker_count_and_block_size(case, monkeypatch):
    # the tent folds each block's own v: blocks of one point and whole runs, on one thread
    # and two, give the same numbers
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    plan = IntegrationPlan("monte_carlo", samples=400, seed=31)
    runs = []
    for chunk in (1, 1000):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        for workers in (1, 2):
            functionals._grid_pass.cache_clear()
            runs.append([(e.value, e.stderr, e.info) for e in
                         (evaluate(spec, replace(plan, workers=workers))
                          for spec in grid_specs(case))])
    assert all(run == runs[0] for run in runs[1:])
    assert all(value > 0.0 for value, _, _ in runs[0])


@pytest.mark.parametrize("p", [2.0, 4.0], ids=["control-variate", "plain"])
def test_tent_shell_sweep_is_unbiased_against_quadrature(p):
    # 20 seeds of a folded 1-D shell pass against the unfolded Gauss-Legendre rule on the
    # same box; p = 4 keeps |R|^p smooth, so the rule is exact to far below the noise
    specs = [replace(spec, p=p) for spec in grid_specs("taylor-shell-1d")]
    box = max(functionals._box_radius(spec) for spec in specs)
    rule = IntegrationPlan("tensor_quadrature", x_nodes=400, t_nodes=64)
    reference = [functionals._mollified_pass([replace(spec, grid=())], rule, box)[0].value
                 for spec in specs]
    runs = [functionals._mollified_pass(specs, IntegrationPlan("monte_carlo", samples=3500,
                                                               seed=seed), box)
            for seed in range(101, 121)]
    for j, ref in enumerate(reference):
        mean = math.fsum(run[j].value for run in runs) / len(runs)
        combined = math.sqrt(math.fsum(run[j].stderr ** 2 for run in runs)) / len(runs)
        assert abs(mean - ref) <= 3.0 * combined
