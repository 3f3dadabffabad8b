import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nonlocal_limits import calculus, cli
from nonlocal_limits.config import ConfigError, load_config, parse_config
from nonlocal_limits.convergence import MAX_SCHEDULE_POINTS
from nonlocal_limits.engine import SHIFTS, lattice_sizes
from nonlocal_limits.functionals import P_RANGE
from nonlocal_limits.functions import make_function, polynomial_function
from nonlocal_limits.mollifiers import certify


def base_config(**overrides):
    cfg = {
        "seed": 7,
        "workers": 1,
        "format": "csv",
        "jobs": [
            {
                "name": "demo",
                "theorem": "nguyen_centered",
                "function": "gaussian",
                "body": {"kind": "box", "half_widths": [1.0]},
                "m": 1,
                "p": 2.0,
                "schedule": {"start": 0.2, "ratio": 0.5, "points": 4},
                "plan": {"method": "monte_carlo", "samples": 20000},
                "tolerance": 0.05,
            }
        ],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_passes_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.run(write_config(tmp_path, base_config()),
                   {"output": str(out), "timestamp": False})
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("job_id,theorem,m,p,body,function,parameter")
    assert len(lines) == 1 + 4 + 1  # header, 4 points, summary
    assert lines[-1].endswith("pass")


def test_plan_too_small_for_the_lattice_is_one_error_line(tmp_path, capsys):
    # 16 shifts of a proposal and a box lattice need at least 2 points each
    cfg = base_config()
    cfg["jobs"][0]["plan"]["samples"] = 31
    with pytest.raises(ConfigError, match="samples=31 leaves a lattice without points"):
        parse_config(cfg)
    assert cli.run(write_config(tmp_path, cfg), {}) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "samples >= 32" in err[0]
    cfg["jobs"][0]["plan"]["samples"] = 32
    parse_config(cfg)


def test_run_reproducible_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.run(cfg_path, {"output": str(out), "timestamp": False}) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_json_format(tmp_path, capsys):
    # a level-set Monte Carlo sweep, a mollified quadrature sweep and a sweep of the zero
    # function, whose target is 0 and which reports no ratio to it
    demo = base_config()["jobs"][0]
    mollified = {**demo, "name": "mollified", "theorem": "bbm_centered",
                 "mollifier": {"kind": "shell"},
                 "schedule": {"start": 0.4, "ratio": 0.5, "points": 4},
                 "plan": {"method": "tensor_quadrature", "x_nodes": 40, "t_nodes": 16}}
    zero = {**demo, "name": "zero", "function": "zero"}
    out = tmp_path / "report.json"
    code = cli.run(write_config(tmp_path, base_config(jobs=[demo, mollified, zero])),
                   {"output": str(out), "format": "json", "timestamp": False})
    assert code == 0
    jobs = json.loads(out.read_text())["jobs"]
    assert [job["verdict"] for job in jobs] == ["pass"] * 3
    assert all(len(job["points"]) == 4 for job in jobs)
    for job in jobs[:2]:
        largest = max(point["value"] for point in job["points"])
        assert job["info"]["max_ratio_to_target"] == largest / job["target"]
    assert jobs[2]["target"] == 0.0 and "max_ratio_to_target" not in jobs[2]["info"]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3 and all(line.endswith(" [pass]") for line in lines)
    assert [" max_ratio=" in line for line in lines] == [True, True, False]


def test_job_without_tolerance_reports_the_default(tmp_path):
    # the config is the one place the default tolerance is set
    job = dict(base_config()["jobs"][0])
    del job["tolerance"]
    out = tmp_path / "report.json"
    cli.run(write_config(tmp_path, base_config(jobs=[job])),
            {"output": str(out), "format": "json", "timestamp": False})
    assert json.loads(out.read_text())["jobs"][0]["tolerance"] == 0.05


def test_run_rejects_low_p(tmp_path, capsys):
    cfg = base_config()
    cfg["jobs"][0]["p"] = 0.5
    code = cli.run(write_config(tmp_path, cfg), {})
    assert code == 1
    assert "p > 1" in capsys.readouterr().err


def test_run_rejects_unknown_theorem(tmp_path):
    cfg = base_config()
    cfg["jobs"][0]["theorem"] = "mystery"
    assert cli.run(write_config(tmp_path, cfg), {}) == 1


def test_run_rejects_unknown_keys(tmp_path):
    cfg = base_config()
    cfg["jobs"][0]["extra_knob"] = 1
    assert cli.run(write_config(tmp_path, cfg), {}) == 1
    # the radial strata are a fixed constant, not a plan key
    cfg = base_config()
    cfg["jobs"][0]["plan"]["stratification"] = 16
    assert cli.run(write_config(tmp_path, cfg), {}) == 1


def test_run_missing_config():
    assert cli.run("/nonexistent/config.json", {}) == 1


def test_failing_tolerance_exits_two(tmp_path):
    cfg = base_config()
    cfg["jobs"][0]["tolerance"] = 1e-9  # unreachable with Monte Carlo noise
    out = tmp_path / "r.csv"
    assert cli.run(write_config(tmp_path, cfg), {"output": str(out),
                                                 "timestamp": False}) == 2
    assert out.read_text().splitlines()[-1].endswith("fail")


def test_parse_config_defaults_and_overrides():
    cfg = parse_config(base_config(), {"seed": 99, "workers": 3})
    assert cfg.seed == 99 and cfg.workers == 3
    assert cfg.jobs[0].plan.workers == 3
    assert cfg.jobs[0].schedule.points == 4


def test_parse_config_rejects_poly_function():
    # identity-test polynomials come from polynomial_function, never from the registry
    cfg = base_config()
    for name in ("quadratic", "cubic", "cross"):
        cfg["jobs"][0]["function"] = name
        with pytest.raises(ConfigError, match=f"unknown test function {name!r}"):
            parse_config(cfg)


def test_parse_config_requires_mollifier_for_bbm():
    cfg = base_config()
    cfg["jobs"][0]["theorem"] = "bbm_centered"
    with pytest.raises(ConfigError, match="mollifier"):
        parse_config(cfg)


@pytest.mark.parametrize("job_update", [
    {"body": {"kind": "box", "half_widths": [1.0, 1.0]},
     "plan": {"method": "tensor_quadrature"}},
    {"body": {"kind": "polytope", "normals": [[1, 0], [-1, 0]], "offsets": [1, 1]}},
    {"function": "exp_bump", "body": {"kind": "box", "half_widths": [1.0, 1.0]}},
    {"schedule": {"start": 1e-300, "ratio": 1e-10, "points": 4}},
    # JSON integers of any size pass the schema; no float holds these
    {"schedule": {"start": 10 ** 400, "ratio": 0.5, "points": 4}},
    {"tolerance": 10 ** 400},
    {"body": {"kind": "box", "half_widths": [10 ** 400]}},
    # plan fields the job never reads
    {"plan": {"method": "tensor_quadrature", "samples": 20000}},
    {"plan": {"method": "monte_carlo", "samples": 20000, "x_nodes": 64}},
    {"plan": {"method": "monte_carlo", "samples": 20000, "t_nodes": 64}},
    # a level-set job never reads a mollifier block
    {"mollifier": {"kind": "shell"}},
    # a level-set payoff jumps in t: a quadrature rule would report stderr 0 and be off
    {"plan": {"method": "tensor_quadrature"}},
], ids=["quadrature-2d", "unbounded-polytope", "function-wrong-dim", "schedule-underflow",
        "huge-integer-start", "huge-integer-tolerance", "huge-integer-half-width",
        "quadrature-samples", "monte-carlo-x-nodes", "monte-carlo-t-nodes",
        "level-set-mollifier", "level-set-quadrature"])
def test_run_rejects_semantically_bad_config(tmp_path, capsys, job_update):
    cfg = base_config()
    cfg["jobs"][0].update(job_update)
    with pytest.raises(ConfigError):
        parse_config(cfg)
    assert cli.run(write_config(tmp_path, cfg), {}) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: demo: ")


@pytest.mark.parametrize("job_update, field", [
    ({"plan": {"method": "monte_carlo", "samples": 20000, "outer_box_radius": 1.0}},
     "outer_box_radius"),
    ({"body": {"kind": "box", "half_widths": [1.0, 1.0]},
      "plan": {"method": "monte_carlo", "samples": 64, "outer_box_radius": 1e300}},
     "outer_box_radius"),
    ({"plan": {"method": "monte_carlo", "samples": 64, "t_max": 1e-300}}, "t_max"),
    ({"theorem": "bbm_centered", "mollifier": {"kind": "shell"},
      "plan": {"method": "monte_carlo", "samples": 20000, "t_max": 3.0}}, "t_max"),
    ({"schedule": {"start": 0.2, "ratio": 0.5, "points": 4, "fit_points": 9}}, "fit_points"),
    ({"schedule": {"start": 0.2, "fit_points": 3.0}}, "fit_points"),
], ids=["box-below-support", "huge-outer-box", "tiny-t-max", "mollified-t-max",
        "fit-points-above-points", "fit-points-integral-float"])
def test_run_rejects_derived_fields(tmp_path, capsys, job_update, field):
    # the box radius, t_max and the fit window are derived, never configured
    cfg = base_config()
    cfg["jobs"][0].update(job_update)
    assert cli.run(write_config(tmp_path, cfg), {}) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config invalid at 'jobs/0/")
    assert f"{field!r} was unexpected" in err[0]


@pytest.mark.parametrize("argv", [["--workers", "0"], ["--workers", "-2"], ["--seed", "-1"]],
                         ids=["workers-0", "workers-negative", "seed-negative"])
def test_main_rejects_out_of_range_overrides(tmp_path, capsys, argv):
    code = cli.main(["run", "--config", write_config(tmp_path, base_config())] + argv)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: override {argv[0][2:]}=")


def test_check_identities_rejects_a_negative_seed(capsys):
    # the config's seed rule, checked before any suite runs
    assert cli.main(["check-identities", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: override seed=-1 invalid: ")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


@pytest.mark.parametrize("job_update, constant", [
    ({"body": {"kind": "ball", "radius": math.nan, "dim": 1}}, "NaN"),
    ({"tolerance": math.inf}, "Infinity"),
    ({"schedule": {"start": 0.2, "ratio": -math.inf, "points": 4}}, "-Infinity"),
], ids=["nan-radius", "infinite-tolerance", "minus-infinite-ratio"])
def test_run_rejects_nonfinite_json_constants(tmp_path, capsys, job_update, constant):
    # json.load accepts these constants, and NaN passes every schema bound
    cfg = base_config()
    cfg["jobs"][0].update(job_update)
    path = write_config(tmp_path, cfg)
    assert constant in pathlib.Path(path).read_text()
    with pytest.raises(ConfigError, match=f"{constant} is not a JSON number"):
        load_config(path)
    assert cli.run(path, {}) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config ")


def test_run_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff" + json.dumps(base_config()).encode())
    with pytest.raises(ConfigError, match="can't decode byte 0xff"):
        load_config(str(path))
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config ")


@pytest.mark.parametrize("key", ["x_nodes", "t_nodes"])
def test_parse_config_bounds_quadrature_nodes(key):
    # parse only: a rule of 1024 nodes is never built here
    cfg = base_config()
    cfg["jobs"][0].update({"theorem": "bbm_centered", "mollifier": {"kind": "shell"},
                           "plan": {"method": "tensor_quadrature", key: 1024}})
    assert getattr(parse_config(cfg).jobs[0].plan, key) == 1024
    cfg["jobs"][0]["plan"][key] = 1025
    with pytest.raises(ConfigError, match=f"plan/{key}': 1025 is greater than the maximum"):
        parse_config(cfg)


def test_run_bounds_schedule_points(tmp_path, capsys):
    # parse only: a pass of MAX_SCHEDULE_POINTS points is never run here
    cfg = base_config()
    cfg["jobs"][0]["schedule"] = {"start": 0.2, "points": MAX_SCHEDULE_POINTS}
    assert parse_config(cfg).jobs[0].schedule.points == 64
    cfg["jobs"][0]["schedule"]["points"] = 65
    assert cli.run(write_config(tmp_path, cfg), {}) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: config invalid at 'jobs/0/schedule/points': 65 is greater")


INTEGRAL_FLOATS = {
    "seed": ({"seed": 3.0}, "seed"),
    "workers": ({"workers": 2.0}, "workers"),
    "m": ({"m": 1.0}, "jobs/0/m"),
    "points": ({"schedule": {"start": 0.2, "points": 5.0}}, "jobs/0/schedule/points"),
    "samples": ({"plan": {"method": "monte_carlo", "samples": 200000.0}}, "jobs/0/plan/samples"),
    "x_nodes": ({"plan": {"method": "tensor_quadrature", "x_nodes": 64.0}}, "jobs/0/plan/x_nodes"),
    "t_nodes": ({"plan": {"method": "tensor_quadrature", "t_nodes": 64.0}}, "jobs/0/plan/t_nodes"),
}


@pytest.mark.parametrize("update,path", INTEGRAL_FLOATS.values(), ids=INTEGRAL_FLOATS.keys())
def test_integer_fields_reject_integral_floats(tmp_path, capsys, update, path):
    # a JSON integer is a Python int: 3.0 is a float, whatever JSON Schema says
    cfg = base_config()
    if path.startswith("jobs/"):
        cfg["jobs"][0].update(update)
    else:
        cfg.update(update)
    assert cli.run(write_config(tmp_path, cfg), {}) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config invalid at '{path}': ")
    assert err[0].endswith("is not of type 'integer'")


@pytest.mark.parametrize("key,value", [("workers", 2.0), ("seed", 5.0), ("workers", True)])
def test_overrides_reject_non_integers(key, value):
    with pytest.raises(ConfigError, match=f"override {key}={value!r} invalid"):
        parse_config(base_config(), {key: value})


def test_cli_import_leaves_jsonschema_out():
    # the config validator is in-house; importing jsonschema cost every run 0.1 s
    code = "import sys, nonlocal_limits.cli; print('jsonschema' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_quadrature_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the Gram (p = 2) and tableau (p = 3) targets and the quadrature pass reduce with @,
    # which OpenBLAS may split across its threads
    shell = {**base_config()["jobs"][0], "theorem": "bbm_centered", "mollifier": {"kind": "shell"},
             "schedule": {"start": 0.4, "ratio": 0.5, "points": 4},
             "plan": {"method": "tensor_quadrature", "x_nodes": 200, "t_nodes": 48}}
    path = write_config(tmp_path, base_config(jobs=[{**shell, "name": f"shell-p{p}", "p": p}
                                                    for p in (2.0, 3.0)]))
    code = "import sys; from nonlocal_limits import cli; sys.exit(cli.main(sys.argv[1:]))"
    reports = []
    for threads in ("1", "4"):
        out = tmp_path / f"report-{threads}.json"
        proc = subprocess.run([sys.executable, "-c", code, "run", "--config", path, "--out",
                               str(out), "--format", "json", "--no-timestamp"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                                   "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_check_identities_passes():
    assert cli.check_identities(20260810, False) == 0


def test_check_identities_default_seed_is_the_parsers(capsys):
    # argparse holds the one default seed; check_identities itself has none
    assert cli.main(["check-identities"]) == 0
    via_main = capsys.readouterr()
    assert cli.check_identities(20260810, False) == 0
    assert capsys.readouterr() == via_main


def test_check_identities_corrupt_detected():
    assert cli.check_identities(20260810, True) == 2


@pytest.mark.parametrize("seed", [2, 4])
def test_check_identities_passes_where_rounding_alone_exceeded_the_tolerance(seed, capsys):
    # the leading-monomial residual reached 1.04e-12 and 1.10e-12 at these seeds, rounding
    # in terms of about 7.8e3; the negative control still fails at both
    assert cli.check_identities(seed, False) == 0
    assert cli.check_identities(seed, True) == 2


def test_monomial_rounding_bounds_the_residual_and_stays_small():
    # the bound holds case by case, and at its largest, x = 2 and h = 1 at m = 4, it is
    # 10 eps sum_j C(4, j) (2 + j)^4 = 56720 eps: far below any error of the algebra
    rng = np.random.default_rng(3)
    for m in range(1, 5):
        f = polynomial_function([[0.0] * m + [1.0]])
        x, h = rng.uniform(-2, 2, (20_000, 1)), rng.uniform(-1, 1, (20_000, 1))
        exact = [math.factorial(m) * step ** m for step in h[:, 0].tolist()]
        residual = np.abs(calculus.forward_difference(f, x, h, m) - exact)
        assert np.all(residual <= cli._monomial_rounding(m, x, h))
    corner = cli._monomial_rounding(4, np.array([[2.0]]), np.array([[1.0]]))
    assert corner[0] == pytest.approx(56720 * np.finfo(float).eps, rel=1e-15)


def test_check_identities_corrupt_fails_only_the_remainder_line(capsys):
    # the negative control reaches the batched segment-remainder suite and nothing else
    assert cli.check_identities(20260810, True) == 2
    failed = [line.split("  max residual")[0].rstrip()
              for line in capsys.readouterr().out.splitlines() if line.endswith("FAIL")]
    assert failed == ["segment remainder vs difference"]


def test_worst_by_batch_is_the_case_by_case_maximum(rng):
    # a batch per (f, m) gives every case bitwise the residual it has on its own
    funcs = [make_function("gaussian", 1), make_function("sine_bump", 1),
             make_function("gaussian", 2)]
    cases = []
    for _ in range(60):
        f = funcs[rng.integers(len(funcs))]
        m = int(rng.integers(1, 5))
        cases.append((f, m, rng.uniform(-2, 2, f.dim), rng.uniform(-2, 2, f.dim)))

    def swap(f, m, x, y):
        return (calculus.centered_remainder(f, x, y, m)
                - (-1.0) ** m * calculus.centered_remainder(f, y, x, m))

    one_by_one = max(abs(float(swap(f, m, x, y))) for f, m, x, y in cases)
    assert cli._worst_by_batch(cases, swap) == one_by_one


def test_certify_mollifiers_default():
    assert cli.certify_mollifiers(None, False) == 0


def test_certify_mollifiers_broken_fixture(capsys):
    # a rejected fixture is the expected outcome: the exit code is the real families'
    assert cli.certify_mollifiers(None, True) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("broken fixture correctly rejected: ") and "normalization" in out[-1]


def test_broken_fixture_is_rejected_after_its_real_family_certified(capsys):
    # the per-process mass cache is keyed on the family's class, so the fixture
    # is never served the floats of the real shell family it overrides
    certify("shell", 1)
    assert cli.certify_mollifiers(None, True) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("broken fixture correctly rejected: ")


def test_broken_fixture_that_passes_exits_two(monkeypatch, capsys):
    # a dead negative control must not look like a working one
    import nonlocal_limits.mollifiers as m

    oracle = m.MollifierFamily.log_radius_mass_mp

    def undo_the_fixture_scale(self, y):
        value = oracle(self, y)
        return value if type(self) is m.MollifierFamily else value / 0.93

    monkeypatch.setattr(m, "_masses", {})
    monkeypatch.setattr(m.MollifierFamily, "log_radius_mass_mp", undo_the_fixture_scale)
    assert cli.certify_mollifiers(None, True) == 2
    assert capsys.readouterr().out.splitlines()[-1] == (
        "broken fixture: certification unexpectedly passed")


def test_certify_mollifiers_from_config(tmp_path, capsys):
    cfg = base_config()
    cfg["jobs"][0].update({"theorem": "bbm_centered", "mollifier": {"kind": "shell"}})
    assert cli.certify_mollifiers(write_config(tmp_path, cfg), False) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("shell (dim=1): ok")


def test_certify_mollifiers_from_config_without_a_mollified_job(tmp_path, capsys, monkeypatch):
    # a config names its families; one without any is not the four default families
    monkeypatch.setattr(cli, "certify", lambda *args: pytest.fail("certify was called"))
    path = write_config(tmp_path, base_config())
    assert cli.certify_mollifiers(path, False) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{path}: no mollified job, so no family to certify"]


def test_fractional_job_at_p4_certifies_and_runs(tmp_path):
    # above p = 2 the fractional family certifies on an eps grid scaled by 2/p
    cfg = base_config()
    cfg["jobs"][0].update({"theorem": "bbm_centered", "p": 4.0, "mollifier": {"kind": "fractional"},
                           "plan": {"method": "tensor_quadrature", "x_nodes": 80, "t_nodes": 24}})
    out = tmp_path / "r.csv"
    assert cli.run(write_config(tmp_path, cfg), {"output": str(out), "timestamp": False}) == 0
    assert out.read_text().splitlines()[-1].endswith("pass")


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bundled_acceptance_config(tmp_path):
    bundled = ROOT / "configs" / "acceptance.json"
    out = tmp_path / "acceptance.csv"
    code = cli.run(str(bundled), {"output": str(out), "timestamp": False})
    assert code == 0
    lines = out.read_text().splitlines()
    n_jobs = len(json.loads(bundled.read_text())["jobs"])
    assert sum(1 for line in lines if line.endswith("pass")) == n_jobs


def test_main_entry(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "main.csv"
    code = cli.main(["run", "--config", cfg_path, "--out", str(out),
                     "--no-timestamp", "--seed", "5"])
    assert code == 0
    assert out.exists()


def test_traced_benchmark_child_runs():
    # the traced benchmark wraps package names; renaming one of them breaks this run
    spec = {"root": str(ROOT), "argv": ["check-identities"], "trace": True}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["code"] == 0 and "layers" in record


def test_traced_benchmark_child_certifies_four_families():
    # the traced benchmark charges each family's certification to mollifiers.certify
    spec = {"root": str(ROOT), "argv": ["certify-mollifiers"], "trace": True}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["code"] == 0
    assert record["layers"]["mollifiers.certify"]["calls"] == 4


def test_traced_benchmark_child_charges_the_m_form_layers(tmp_path):
    # a refactor that routes around a wrapped name would leave its layer at zero calls;
    # p = 3 keeps the target on the tableau (a p = 2 target is a Gram sum)
    job = {**base_config()["jobs"][0], "p": 3.0}
    path = write_config(tmp_path, base_config(jobs=[job]))
    spec = {"root": str(ROOT), "argv": ["run", "--config", path, "--no-timestamp"], "trace": True}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["code"] == 0
    for layer in ("calculus.m_form_tableau", "calculus.direction_bound", "functionals.target"):
        assert record["layers"][layer]["calls"] > 0, layer


def test_benchmark_child_times_one_call_per_sweep_point(tmp_path):
    # perfbench/child.py times every convergence.evaluate call, ties the calls to the
    # report rows, and counts kernel payoffs as Monte Carlo pairs; the one-pass sweep
    # keeps one timed call per point, the first one paying for the pass
    samples = 40_000  # 32 blocks, one per (lattice, shift) run
    plan = {"method": "monte_carlo", "samples": samples}
    level_set = {**base_config()["jobs"][0], "name": "level-set", "plan": plan,
                 "body": {"kind": "ellipsoid", "semi_axes": [2.0, 1.0]}}
    shell = {**level_set, "name": "shell", "theorem": "bbm_centered",
             "mollifier": {"kind": "shell"}, "schedule": {"start": 0.4, "points": 4}}
    path = write_config(tmp_path, base_config(jobs=[level_set, shell]))
    argv = ["run", "--config", path, "--seed", "3", "--workers", "1", "--no-timestamp"]
    for trace in (False, True):
        spec = {"root": str(ROOT), "argv": argv, "trace": trace}
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                               json.dumps(spec)], cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout.splitlines()[-1])
        assert [job["name"] for job in record["jobs"]] == ["level-set", "shell"]
        for job in record["jobs"]:
            assert [pt["method"] for pt in job["points"]] == ["monte_carlo"] * 4
            assert sum(pt["seconds"] for pt in job["points"]) > 0.0
        if trace:
            # each pass evaluates R (n1 + n2) lattice pairs of its 4 points
            pairs = SHIFTS * sum(lattice_sizes(samples, True))
            assert record["counts"]["engine.mc_pairs"] == 2 * 4 * pairs


def test_json_reports_hit_fraction_of_each_monte_carlo_point(tmp_path):
    out = tmp_path / "report.json"
    cli.run(write_config(tmp_path, base_config()),
            {"output": str(out), "format": "json", "timestamp": False})
    infos = json.loads(out.read_text())["jobs"][0]["info"]["point_info"]
    assert len(infos) == 4 and all(0.0 < info["hit_fraction"] < 1.0 for info in infos)


# ---------------------------------------------------------------------------
# per-job isolation of numerical failures, and fuzzed configs
# ---------------------------------------------------------------------------

def numeric_failure_job(**update):
    """A 2-D level-set Monte Carlo job; ``update`` makes its numbers fail."""
    job = {"name": "broken", "theorem": "nguyen_centered", "function": "gaussian",
           "body": {"kind": "box", "half_widths": [1.0, 1.0]}, "m": 1, "p": 2.0,
           "schedule": {"start": 0.2, "points": 4},
           "plan": {"method": "monte_carlo", "samples": 64}}
    for key, value in update.items():
        if isinstance(value, dict):
            job[key] = {**job[key], **value}
        else:
            job[key] = value
    return job


NUMERIC_FAILURES = {
    "huge-box": numeric_failure_job(body={"half_widths": [1e300, 1e300]}),
    "tiny-start": numeric_failure_job(schedule={"start": 1e-300}),
    "huge-start": numeric_failure_job(schedule={"start": 1e300}),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("broken", NUMERIC_FAILURES.values(), ids=NUMERIC_FAILURES.keys())
def test_numeric_failure_ends_only_its_job(tmp_path, capsys, broken):
    cfg = base_config()
    cfg["jobs"] = [broken] + cfg["jobs"]
    out = tmp_path / "r.csv"
    assert cli.run(write_config(tmp_path, cfg), {"output": str(out), "timestamp": False}) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "DLASCL" not in err
    assert any(line.startswith("broken: error: ") for line in err.splitlines())
    if broken is NUMERIC_FAILURES["tiny-start"]:
        # the cutoffs' lower radial bounds overflow, not a product that happens to be NaN
        assert any(line.startswith("broken: error: EngineError: a lower radial bound")
                   for line in err.splitlines())
    assert any(line.startswith("demo: ") and line.endswith("[pass]") for line in err.splitlines())
    rows = out.read_text().splitlines()
    assert rows[1].startswith("0,nguyen_centered,1,2,") and rows[1].endswith(",,,,,,,,error")
    assert len(rows) == 1 + 1 + 4 + 1 and rows[-1].startswith("1,") and rows[-1].endswith("pass")

    assert cli.run(write_config(tmp_path, cfg), {"output": str(out), "format": "json",
                                                 "timestamp": False}) == 2
    failed, passed = json.loads(out.read_text())["jobs"]
    assert failed["verdict"] == "error" and failed["error"] and "points" not in failed
    assert passed["verdict"] == "pass"


_POSITIVE = st.one_of(st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
                      st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308]))


def _vector(dim):
    return st.lists(_POSITIVE, min_size=dim, max_size=dim)


@st.composite
def _bodies(draw):
    kind = draw(st.sampled_from(["ball", "box", "ellipsoid", "lp_ball", "polytope"]))
    dim = draw(st.integers(1, 2))
    if kind == "ball":
        return {"kind": kind, "radius": draw(_POSITIVE), "dim": dim}
    if kind == "box":
        return {"kind": kind, "half_widths": draw(_vector(dim))}
    if kind == "ellipsoid":
        return {"kind": kind, "semi_axes": draw(_vector(dim))}
    if kind == "lp_ball":
        exponent = draw(st.one_of(st.sampled_from([1.0, 1.5, 2.0, 4.0]),
                                  st.floats(min_value=1.0, max_value=1e300)))
        return {"kind": kind, "exponent": exponent, "radius": draw(_POSITIVE), "dim": dim}
    normals, offsets = [], []
    for _ in range(draw(st.integers(1, 3))):
        normal = draw(st.lists(st.floats(-1e300, 1e300), min_size=dim, max_size=dim))
        offset = draw(_POSITIVE)
        normals += [normal, [-c for c in normal]]
        offsets += [offset, offset]
    return {"kind": kind, "normals": normals, "offsets": offsets}


@st.composite
def _one_job_configs(draw):
    theorem = draw(st.sampled_from(["nguyen_centered", "bbm_centered", "nguyen_taylor",
                                    "bbm_taylor"]))
    if draw(st.booleans()):
        plan = {"method": "monte_carlo", "samples": draw(st.integers(1, 64))}
    else:
        plan = {"method": "tensor_quadrature", "x_nodes": draw(st.integers(4, 16)),
                "t_nodes": draw(st.integers(4, 16))}
    job = {"theorem": theorem,
           "function": draw(st.sampled_from(["gaussian", "poly_bump", "sine_bump",
                                             "exp_bump", "cross", "zero", "quadratic"])),
           "body": draw(_bodies()), "m": draw(st.integers(1, 3)),
           # one p in four is outside 1 < p <= 8
           "p": draw(st.sampled_from([1.0, 9.0] if draw(st.integers(0, 3)) == 0 else [2.0, 3.0])),
           "schedule": {"start": draw(_POSITIVE),
                        "ratio": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                        "points": 4},
           "plan": plan, "tolerance": draw(_POSITIVE)}
    # one job in four has the block the wrong way round: on a level set, or off a bbm job
    if theorem.startswith("bbm") != (draw(st.integers(0, 3)) == 0):
        job["mollifier"] = {"kind": draw(st.sampled_from(["shell", "fractional"]))}
    return {"seed": draw(st.integers(0, 2 ** 64)), "workers": 1, "jobs": [job]}


def _breaks_a_spec_rule(job) -> bool:
    """Whether ``job`` breaks a rule of ``functionals.validate_spec`` or names an unknown
    function: the p range, an unregistered name, or a block on the wrong theorem."""
    return (not P_RANGE[0] < job["p"] <= P_RANGE[1] or job["function"] in ("cross", "quadratic")
            or job["theorem"].startswith("bbm") != ("mollifier" in job))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_one_job_configs())
@example({"seed": 7, "jobs": [NUMERIC_FAILURES["huge-box"]]})
@example({"seed": 7, "jobs": [NUMERIC_FAILURES["tiny-start"]]})
@example({"seed": 7, "jobs": [NUMERIC_FAILURES["huge-start"]]})
@example({"seed": 7, "jobs": [numeric_failure_job(body={"half_widths": [math.nan, 1.0]})]})
@example({"seed": 7, "jobs": [numeric_failure_job(schedule={"start": math.inf})]})
@example({"seed": 7, "jobs": [numeric_failure_job(schedule={"start": 0.2, "points": 65})]})
@example({"seed": 7, "jobs": [numeric_failure_job(body={"half_widths": [1.0]},
                                                  plan={"method": "tensor_quadrature",
                                                        "x_nodes": 10 ** 12})]})
def test_fuzzed_config_never_raises(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", str(path), "--no-timestamp"])
    assert code in (0, 1, 2)
    if _not_a_config(cfg):
        assert code == 1
    if _breaks_a_spec_rule(cfg["jobs"][0]):
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: ")


def _not_a_config(node, key=None) -> bool:
    """Whether ``node`` holds a nonfinite number, a quadrature node count over 1024 or more
    schedule points than ``MAX_SCHEDULE_POINTS``."""
    if isinstance(node, dict):
        return any(_not_a_config(value, name) for name, value in node.items())
    if isinstance(node, list):
        return any(_not_a_config(value) for value in node)
    if isinstance(node, float):
        return not math.isfinite(node)
    return (key in ("x_nodes", "t_nodes") and node > 1024
            or key == "points" and node > MAX_SCHEDULE_POINTS)
