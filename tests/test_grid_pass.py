"""One Monte Carlo pass per grid: every point of a grid is bitwise its own K = 1 pass on the
grid's one outer box."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import constant_cutoff

from nonlocal_limits import engine, functionals, functions
from nonlocal_limits.bodies import ConvexBody
from nonlocal_limits.convergence import Schedule, sweep
from nonlocal_limits.engine import EngineError, IntegrationPlan, PowerLaw, integrate_double
from nonlocal_limits.functionals import FunctionalSpec, SpecError, evaluate, uniform_bound_check
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


@pytest.mark.parametrize("case", CASES)
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
        sampled = [e for e in together if "exact_zero" not in e.info]
        assert all(e.info["method"] == "monte_carlo" and e.value > 0.0 for e in sampled)
        assert len(sampled) == len(together) - (case == "level-set-2d")
    assert len(seen) == 1


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


def test_uniform_bound_check_runs_one_pass(monkeypatch):
    calls = counting_integrator(monkeypatch)
    plan = IntegrationPlan("monte_carlo", samples=5000, seed=9)
    deltas = [0.2, 0.1, 0.05]
    spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, 0.1)
    report = uniform_bound_check(spec, deltas, plan)
    assert len(calls) == 1
    alone = [evaluate(replace(spec, parameter=delta), plan).value for delta in deltas]
    assert report.values == alone


# a radial law of three points: one cutoff row per point
THREE_POINT_LAW = PowerLaw(-2.0, constant_cutoff(0.5, 0.5, 0.5), 4.0)


def test_nonfinite_payoff_names_its_point_and_first_bad_row():
    seen = {}

    def kernel(x, sigma, t):
        seen.update(x=x.copy(), t=np.array(t))
        out = np.ones(t.shape)
        out[1, 1:] = np.nan  # the first block: the 3 proposal points of shift 0
        return out

    plan = IntegrationPlan("monte_carlo", samples=100, seed=3)
    with pytest.raises(EngineError) as err:
        integrate_double(kernel, plan, 2.0, 2, THREE_POINT_LAW, GAUSS2.proposal)
    message = str(err.value)
    assert f"x={seen['x'][1].tolist()}" in message
    assert f"t={float(seen['t'][1, 1])!r}" in message and message.endswith("(point 1)")


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


@pytest.mark.parametrize("law", [PowerLaw(-2.0, constant_cutoff(0.5), 4.0), THREE_POINT_LAW],
                         ids=["K=1", "K=3"])
@pytest.mark.parametrize("plan", [
    IntegrationPlan("monte_carlo", samples=100, seed=3),
    IntegrationPlan("tensor_quadrature", x_nodes=8, t_nodes=8)],
    ids=["monte_carlo", "quadrature"])
def test_kernel_of_the_wrong_shape_raises(plan, law):
    # without the point axis, the n payoffs of a block would pass for n points
    with pytest.raises(EngineError, match=r"shape \(\d+,\), expected t's shape \((1|3), \d+\)"):
        integrate_double(lambda x, sigma, t: np.ones(len(x)), plan, 2.0, 1, law)


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
