"""The benchmark's own arithmetic on synthetic spans and values.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import itertools
import statistics
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer, layer_totals, self_times  # noqa: E402
from stats import at_reference_speed, hit_fraction, stderr2_s, summary  # noqa: E402


def test_self_time_is_span_minus_its_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("c", 1.5, 2.0, 1),
        ("b", 4.0, 5.0, 0),
        ("d", 6.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 2.0 - 1.0 - 1.0, 1.5, 0.5, 1.0, 1.0])


def test_layer_totals_count_a_recursive_layer_once_inclusively():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("x", 1.0, 9.0, 0),
        ("x", 2.0, 4.0, 1),
        ("y", 5.0, 6.0, 1),
        ("x", 7.0, 8.0, 1),
    ]
    totals = layer_totals(spans)
    assert totals["x"]["inclusive_s"] == pytest.approx(8.0)
    assert totals["x"]["self_s"] == pytest.approx((8.0 - 4.0) + 2.0 + 1.0)
    assert totals["x"]["calls"] == 3
    assert totals["y"] == {"self_s": 1.0, "inclusive_s": 1.0, "calls": 1}
    assert totals["outer"]["self_s"] == pytest.approx(2.0)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_tracer_records_nested_spans_and_counts():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    module = types.SimpleNamespace()
    module.inner = lambda n: list(range(n))
    module.outer = lambda n: module.inner(n) + module.inner(n)

    class Body:
        def gauge(self, points):
            return points

    tracer.wrap(module, "inner", "layer.inner")
    tracer.wrap(module, "outer", "layer.outer")
    tracer.wrap(Body, "gauge", "layer.gauge",
                lambda counts, result: counts.update({"points": len(result)}))
    assert module.outer(3) == [0, 1, 2, 0, 1, 2]
    assert Body().gauge([1, 2]) == [1, 2]
    assert Body().gauge([1, 2, 3]) == [1, 2, 3]

    # outer [0, 5] holds inner [1, 2] and [3, 4]; each gauge call spans one tick
    assert [s[0] for s in tracer.spans] == ["layer.outer", "layer.inner", "layer.inner",
                                            "layer.gauge", "layer.gauge"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1, -1]
    totals = layer_totals(tracer.spans)
    assert totals["layer.outer"]["self_s"] == 3.0
    assert totals["layer.inner"]["self_s"] == 2.0
    assert totals["layer.gauge"]["calls"] == 2
    assert tracer.counts["points"] == 5


def test_tracer_closes_span_when_the_call_raises():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def fail():
        raise ValueError("boom")

    wrapped = tracer.traced(fail, "layer")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.spans == [["layer", 0.0, 1.0, -1]]
    assert tracer.traced(lambda: None, "next")() is None
    assert tracer.spans[-1][3] == -1


def test_stderr2_s_is_not_set_by_one_outlying_point():
    steady = [_point(1.0, 0.01, 1.0) for _ in range(29)]
    jobs = [{"target": 1.0, "limit_uncertainty": 0.0, "points": steady + [_point(1.0, 0.15, 1.0)]}]
    # one point with 225 times the relative variance moves the figure by 225^(1/30)
    assert stderr2_s(jobs, 99.0) == pytest.approx(1e-4 * 225 ** (1 / 30) * 30.0)


def test_hit_fraction():
    assert hit_fraction(0, 0) == 0.0
    assert hit_fraction(1000, 4) == 0.004
    with pytest.raises(ValueError):
        hit_fraction(10, 11)


def _point(value, stderr, seconds, method="monte_carlo"):
    return {"value": value, "stderr": stderr, "seconds": seconds, "method": method}


def test_stderr2_s_uses_monte_carlo_points_only():
    jobs = [
        {"target": 1.0, "limit_uncertainty": 0.5,
         "points": [_point(2.0, 0.02, 1.0), _point(4.0, 0.08, 3.0)]},
        {"target": 1.0, "limit_uncertainty": 0.5,
         "points": [_point(1.0, 0.0, 7.0, "tensor_quadrature"),
                    _point(0.0, 0.0, 0.5, None)]},  # exact zero: nothing sampled
    ]
    rel_var = 0.01 * 0.02  # geometric mean of 0.01^2 and 0.02^2
    assert stderr2_s(jobs, 99.0) == pytest.approx(rel_var * 4.0)


def test_stderr2_s_without_monte_carlo_uses_limit_uncertainty_and_wall_s():
    jobs = [
        {"target": 2.0, "limit_uncertainty": 0.02,
         "points": [_point(2.1, 0.0, 0.5, "tensor_quadrature")] * 2},
        {"target": 10.0, "limit_uncertainty": 0.3,
         "points": [_point(9.0, 0.0, 1.0, "tensor_quadrature")]},
    ]
    rel_var = 0.01 * 0.03
    assert stderr2_s(jobs, 5.0) == pytest.approx(rel_var * 5.0)
    with pytest.raises(ValueError):
        stderr2_s([], 5.0)


def test_summary_median_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary(values) == {"median": 5.5, "q1": q1, "q3": q3, "n": 10}
    assert summary([1.0, 3.0])["median"] == 2.0
    assert summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        summary([])


def test_at_reference_speed_cancels_a_uniform_slowdown():
    # a host half as fast doubles both the workload's time and the reference loop's
    assert at_reference_speed(3.0, 0.25, 0.25) == 3.0
    assert at_reference_speed(6.0, 0.5, 0.25) == 3.0
    with pytest.raises(ValueError):
        at_reference_speed(1.0, 0.0, 0.25)
