import contextlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nonlocal_limits import cli
from nonlocal_limits.config import ConfigError, load_config, parse_config


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


def test_run_reproducible_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.run(cfg_path, {"output": str(out), "timestamp": False}) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_json_format(tmp_path):
    out = tmp_path / "report.json"
    code = cli.run(write_config(tmp_path, base_config()),
                   {"output": str(out), "format": "json", "timestamp": False})
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["jobs"][0]["verdict"] == "pass"
    assert len(doc["jobs"][0]["points"]) == 4


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
    cfg = base_config()
    cfg["jobs"][0]["function"] = "quadratic"
    with pytest.raises(ConfigError, match="identity-test only"):
        parse_config(cfg)


def test_parse_config_requires_mollifier_for_bbm():
    cfg = base_config()
    cfg["jobs"][0]["theorem"] = "bbm_centered"
    with pytest.raises(ConfigError, match="mollifier"):
        parse_config(cfg)


@pytest.mark.parametrize("job_update", [
    {"body": {"kind": "box", "half_widths": [1.0, 1.0]},
     "plan": {"method": "tensor_quadrature"}},
    {"plan": {"method": "monte_carlo", "samples": 20000, "outer_box_radius": 1.0}},
    {"body": {"kind": "polytope", "normals": [[1, 0], [-1, 0]], "offsets": [1, 1]}},
    {"schedule": {"start": 0.2, "ratio": 0.5, "points": 4, "fit_points": 9}},
    {"function": "exp_bump", "body": {"kind": "box", "half_widths": [1.0, 1.0]}},
    {"schedule": {"start": 1e-300, "ratio": 1e-10, "points": 4}},
], ids=["quadrature-2d", "box-below-support", "unbounded-polytope", "fit-points-above-points",
        "function-wrong-dim", "schedule-underflow"])
def test_run_rejects_semantically_bad_config(tmp_path, capsys, job_update):
    cfg = base_config()
    cfg["jobs"][0].update(job_update)
    with pytest.raises(ConfigError):
        parse_config(cfg)
    assert cli.run(write_config(tmp_path, cfg), {}) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: demo: ")


@pytest.mark.parametrize("argv", [["--workers", "0"], ["--workers", "-2"], ["--seed", "-1"]],
                         ids=["workers-0", "workers-negative", "seed-negative"])
def test_main_rejects_out_of_range_overrides(tmp_path, capsys, argv):
    code = cli.main(["run", "--config", write_config(tmp_path, base_config())] + argv)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: override {argv[0][2:]}=")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_check_identities_quick():
    assert cli.check_identities(quick=True) == 0


def test_check_identities_corrupt_detected():
    assert cli.check_identities(quick=True, corrupt=True) == 2


def test_certify_mollifiers_default():
    assert cli.certify_mollifiers() == 0


def test_certify_mollifiers_broken_fixture():
    assert cli.certify_mollifiers(broken=True) == 2


def test_certify_mollifiers_from_config(tmp_path):
    cfg = base_config()
    cfg["jobs"][0].update({"theorem": "bbm_centered", "mollifier": {"kind": "shell"}})
    assert cli.certify_mollifiers(write_config(tmp_path, cfg)) == 0


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
    spec = {"root": str(ROOT), "argv": ["check-identities", "--quick"], "trace": True}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["code"] == 0 and "layers" in record


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
    "tiny-t-max": numeric_failure_job(plan={"t_max": 1e-300}),
    "huge-outer-box": numeric_failure_job(plan={"outer_box_radius": 1e300}),
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
        plan = {"method": "monte_carlo", "samples": draw(st.integers(1, 64)),
                "stratification": draw(st.integers(1, 64))}
    else:
        plan = {"method": "tensor_quadrature", "x_nodes": draw(st.integers(4, 16)),
                "t_nodes": draw(st.integers(4, 16))}
    for key in ("outer_box_radius", "t_max"):
        if draw(st.booleans()):
            plan[key] = draw(_POSITIVE)
    job = {"theorem": theorem,
           "function": draw(st.sampled_from(["gaussian", "poly_bump", "sine_bump",
                                             "exp_bump", "cross", "zero", "quadratic"])),
           "body": draw(_bodies()), "m": draw(st.integers(1, 3)),
           "p": draw(st.sampled_from([2.0, 3.0])),
           "schedule": {"start": draw(_POSITIVE),
                        "ratio": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                        "points": 4},
           "plan": plan, "tolerance": draw(_POSITIVE)}
    if theorem.startswith("bbm"):
        job["mollifier"] = {"kind": draw(st.sampled_from(["shell", "fractional"]))}
    return {"seed": draw(st.integers(0, 2 ** 64)), "workers": 1, "jobs": [job]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_one_job_configs())
@example({"seed": 7, "jobs": [NUMERIC_FAILURES["huge-box"]]})
@example({"seed": 7, "jobs": [NUMERIC_FAILURES["tiny-start"]]})
@example({"seed": 7, "jobs": [NUMERIC_FAILURES["huge-start"]]})
@example({"seed": 7, "jobs": [NUMERIC_FAILURES["tiny-t-max"]]})
@example({"seed": 7, "jobs": [NUMERIC_FAILURES["huge-outer-box"]]})
def test_fuzzed_config_never_raises(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", "--config", str(path), "--no-timestamp"])
    assert code in (0, 1, 2)
