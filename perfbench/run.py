"""Benchmark of the nonlocal-limits command line, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0

Each timed repeat is a fresh interpreter (``perfbench/child.py``) that runs
the workload's ``nonlocal-limits`` commands through ``cli.main``, so every
repeat pays the per-process costs a real invocation pays: imports, the
target-quadrature cache, mollifier certification and BLAS warm-up.  Repeats
run in rounds until ``--seconds`` would be exceeded.

``--trace 0`` times repeats at 1 worker and prints the end-to-end metrics;
on a Monte Carlo workload one more repeat at ``nproc`` workers follows the
timed window.  A fixed reference loop is timed between repeats, and the
``*_ref_s`` metrics rescale each repeat's seconds by it, which takes the
shared host's speed drift out of them.  ``--trace 1`` alternates a traced
and an untraced repeat at 1 worker and prints the per-layer metrics,
including the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted`` and ``failed`` (the workload's
checked operations at 1 worker, and those that did not pass) and ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from stats import at_reference_speed, hit_fraction, stderr2_s, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = HERE / "workloads"
# every child is killed by this many seconds after start, so a run ends within 180 s
HARD_LIMIT_S = 170
CSV_REQUIRED = ["job_id", "parameter", "value", "stderr", "limit", "target", "rel_gap",
                "verdict"]
# An operation outside targets.json's known-failing list must end within this
# multiple of its tolerance.  Seed-dependent misses have reached 1.3 times it.
ERROR_SLACK = 2.0

# Each workload is a list of nonlocal-limits commands; a config path is relative to ROOT.
WORKLOADS = {
    "acceptance": [["run", "--config", "perfbench/workloads/acceptance.json"]],
    "bodies-2d": [["run", "--config", "perfbench/workloads/bodies-2d.json"]],
    "deterministic": [["run", "--config", "perfbench/workloads/deterministic.json"],
                      ["check-identities"], ["certify-mollifiers"]],
}
# workloads with Monte Carlo sweeps, whose results and wall time depend on --workers
PARALLEL = {"acceptance", "bodies-2d"}

# Seconds of the reference loop on an uncontended host (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4); the *_ref_s metrics are rescaled to that speed.
REFERENCE_NOMINAL_S = 0.18

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "stderr2_ref_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "engine.mc_busy_s": "s", "engine.law_busy_s": "s", "engine.mc_pairs": "count",
    "engine.mc_pairs_per_s": "1/s", "engine.hit_fraction": "ratio", "engine.quad_busy_s": "s",
    "functionals.kernel_busy_s": "s", "functionals.target_s": "s",
    "functionals.evaluations": "count",
    "calculus.remainder_busy_s": "s", "calculus.direction_bound_s": "s",
    "calculus.m_form_tableau_s": "s", "calculus.identity_s": "s",
    "functions.eval_points": "count", "functions.eval_busy_s": "s",
    "functions.partial_points": "count", "functions.partial_busy_s": "s",
    "bodies.gauge_points": "count", "bodies.gauge_busy_s": "s",
    "mollifiers.certify_s": "s", "mollifiers.profile_busy_s": "s",
    "convergence.fit_s": "s", "convergence.worst_gap_ratio": "ratio",
    "config.load_s": "s", "report.render_s": "s", "report.bytes": "count",
    "cli.serial_s": "s", "trace.overhead_s": "s",
}
EXACT_COUNTS = ("engine.mc_pairs", "functions.eval_points", "functions.partial_points",
                "bodies.gauge_points")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    # worker threads are the only parallelism: BLAS pools would add threads beyond nproc
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


_REFERENCE_ARRAYS: list = []


def reference_loop() -> float:
    """Seconds of a fixed interpreter loop plus memory-bound numpy passes.

    It does not touch the package, so only the host's speed moves it.  The
    speed of a shared host drifts by tens of percent over minutes, and the
    workloads slow down with it; dividing by this loop, timed next to each
    repeat, takes most of that drift out (see perfbench/README.md).  The
    arrays are made once: fresh ones would time the host's page faults.
    """
    import numpy as np

    if not _REFERENCE_ARRAYS:
        _REFERENCE_ARRAYS.extend([np.linspace(0.0, 1.0, 4_000_000), np.empty(4_000_000)])
    big, tmp = _REFERENCE_ARRAYS
    start = now()
    table, acc = {}, 0.0
    for i in range(900_000):
        table[i & 1023] = acc
        acc += (i % 13) * 0.5
    for _ in range(8):
        np.multiply(big, 0.5, out=tmp)
        np.add(tmp, big, out=tmp)
        np.multiply(tmp, 0.6, out=tmp)
    return now() - start


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": child_env()["OPENBLAS_NUM_THREADS"]}


class RunError(RuntimeError):
    """A repeat could not be run or its output could not be read."""


def command_argv(step: list[str], seed: int, workers: int) -> list[str]:
    if step[0] == "run":
        return step + ["--seed", str(seed), "--workers", str(workers), "--no-timestamp"]
    if step[0] == "check-identities":
        return step + ["--seed", str(seed)]
    return list(step)


def spawn(argv: list[str], trace: bool, kill_at: float) -> dict:
    """Run one command in a fresh interpreter; returns its record with set-up and wall time."""
    spec = json.dumps({"root": str(ROOT), "argv": argv, "trace": trace})
    start = now()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), spec], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=max(kill_at - start, 1.0))
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        record = None
    if proc.returncode != 0 or record is None:
        raise RunError(f"{' '.join(argv)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    if record["ready"] is None:
        raise RunError(f"{' '.join(argv)}: the command never reached its first job")
    record["argv"] = argv
    record["setup_s"] = record["ready"] - start
    record["wall_s"] = record["end"] - record["ready"]
    return record


def repeat(steps, seed: int, workers: int, trace: bool, kill_at: float) -> dict:
    """All commands of a workload once, each in its own interpreter."""
    records = [spawn(command_argv(step, seed, workers), trace, kill_at) for step in steps]
    jobs = [job for rec in records for job in rec["jobs"]]
    rep = {
        "workers": workers, "trace": trace, "records": records, "jobs": jobs,
        "setup_s": sum(rec["setup_s"] for rec in records),
        "wall_s": sum(rec["wall_s"] for rec in records),
        "peak_rss_mb": records[0]["peak_rss_kb"] / 1024.0,  # the `run` command comes first
        "operations": [op for rec in records for op in rec["operations"]],
    }
    if trace:
        rep["layers"], rep["counts"] = merge_traces(records)
    return rep


def merge_traces(records: list[dict]) -> tuple[dict, dict]:
    """Layer totals and counts of a traced repeat, summed over its commands."""
    layers: dict = {}
    counts: dict = {}
    for rec in records:
        for name, entry in rec["layers"].items():
            acc = layers.setdefault(name, {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += entry[key]
        for name, value in rec["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return layers, counts


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def check_record(rec: dict, expected_targets: dict, known_failing: set) -> list[str]:
    """Problems with one command's output; an empty list means it is correct."""
    label = " ".join(rec["argv"])
    ops = rec["operations"]
    problems = []
    if not ops:
        problems.append(f"{label}: no checked operations in the output")
    if rec["code"] != (0 if all(ok for _, ok, _ in ops) else 2):
        problems.append(f"{label}: exit code {rec['code']} does not match its verdicts")
    for name, ok, ratio in ops:
        if name in known_failing or (ok if ratio is None else ratio <= ERROR_SLACK):
            continue
        problems.append(f"{label}: {name} failed" if ratio is None else
                        f"{label}: {name} is off by {ratio:.3g} times its tolerance")
    if rec["argv"][0] != "run":
        return problems
    config = json.loads((ROOT / rec["argv"][2]).read_text(encoding="utf-8"))
    if [job["name"] for job in rec["jobs"]] != [job["name"] for job in config["jobs"]]:
        problems.append(f"{label}: jobs run differ from the config's jobs")
    rows = list(csv.DictReader(io.StringIO(rec["output"])))
    missing = [c for c in CSV_REQUIRED if rows and c not in rows[0]]
    if not rows or missing:
        problems.append(f"{label}: report has no rows or lacks columns {missing}")
        return problems
    if len(rows) != sum(len(job["points"]) + 1 for job in rec["jobs"]):
        problems.append(f"{label}: report row count does not match the sweeps")
    for row in rows:
        for column in ("parameter", "value", "stderr", "limit", "target", "rel_gap"):
            if row[column] and not math.isfinite(float(row[column])):
                problems.append(f"{label}: nonfinite {column} in report row {row}")
    summaries = [row for row in rows if row["verdict"]]
    for job, row in zip(rec["jobs"], summaries):
        if row["verdict"] != job["verdict"] or float(row["target"]) != job["target"]:
            problems.append(f"{label}: report summary of {job['name']} differs from its sweep")
        target, rtol = expected_targets[job["name"]]
        if abs(job["target"] - target) > rtol * abs(target):
            problems.append(f"{label}: {job['name']} target {job['target']!r} is not "
                            f"{target!r} within {rtol}")
    return problems


def check_repeats(repeats: list[dict], expected_targets: dict, known_failing: set) -> list[str]:
    """Per-command problems, plus any output that differs between repeats of one setting."""
    problems = []
    outputs: dict = {}
    for rep in repeats:
        for rec in rep["records"]:
            problems += check_record(rec, expected_targets, known_failing)
            # same seed and workers must give the same bytes; tracing must not change them
            outputs.setdefault(tuple(rec["argv"]), set()).add(rec["output_sha256"])
    for argv, shas in outputs.items():
        if len(shas) > 1:
            problems.append(f"{' '.join(argv)}: output differs between repeats")
    traced = [rep for rep in repeats if rep["trace"]]
    for name in EXACT_COUNTS:
        if len({rep["counts"].get(name, 0) for rep in traced}) > 1:
            problems.append(f"{name} differs between traced repeats")
    return list(dict.fromkeys(problems))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metrics(rep: dict) -> dict:
    """Per-layer figures of one traced repeat."""
    layers, counts = rep["layers"], rep["counts"]

    def own(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def inclusive(name):
        return layers.get(name, {}).get("inclusive_s", 0.0)

    pairs = counts.get("engine.mc_pairs", 0)
    mc_s = inclusive("engine.mc")
    return {
        "engine.mc_busy_s": own("engine.mc"),
        "engine.law_busy_s": own("engine.law"),
        "engine.mc_pairs": pairs,
        "engine.mc_pairs_per_s": pairs / mc_s if mc_s > 0 else 0.0,
        "engine.hit_fraction": hit_fraction(pairs, counts.get("engine.mc_hits", 0)),
        "engine.quad_busy_s": own("engine.quad"),
        "functionals.kernel_busy_s": own("functionals.kernel"),
        "functionals.target_s": inclusive("functionals.target"),
        "functionals.evaluations": layers.get("functionals.evaluate", {}).get("calls", 0),
        "calculus.remainder_busy_s": own("calculus.remainder"),
        "calculus.direction_bound_s": own("calculus.direction_bound"),
        "calculus.m_form_tableau_s": own("calculus.m_form_tableau"),
        "calculus.identity_s": own("calculus.identity"),
        "functions.eval_points": counts.get("functions.eval_points", 0),
        "functions.eval_busy_s": own("functions.eval"),
        "functions.partial_points": counts.get("functions.partial_points", 0),
        "functions.partial_busy_s": own("functions.partial"),
        "bodies.gauge_points": counts.get("bodies.gauge_points", 0),
        "bodies.gauge_busy_s": own("bodies.gauge"),
        "mollifiers.certify_s": inclusive("mollifiers.certify"),
        "mollifiers.profile_busy_s": own("mollifiers.profile"),
        "convergence.fit_s": inclusive("convergence.fit"),
        "convergence.worst_gap_ratio": max((job["rel_gap"] / job["tolerance"]
                                            for job in rep["jobs"]), default=0.0),
        "config.load_s": inclusive("config.load"),
        "report.render_s": inclusive("report.render"),
        "report.bytes": counts.get("report.bytes", 0),
        "cli.serial_s": rep["wall_s"] - mc_s,
    }


def end_to_end(repeats: list[dict]) -> dict:
    serial = [rep for rep in repeats if rep["workers"] == 1]

    def scaled(rep, seconds):
        return at_reference_speed(seconds, rep["reference_s"], REFERENCE_NOMINAL_S)

    return {
        "setup_s": summary(rep["setup_s"] for rep in serial),
        "wall_ref_s": summary(scaled(rep, rep["wall_s"]) for rep in serial),
        "stderr2_ref_s": summary(scaled(rep, stderr2_s(rep["jobs"], rep["wall_s"]))
                                 for rep in serial),
        "peak_rss_mb": summary(rep["peak_rss_mb"] for rep in serial),
        # printed only: as measured, without the rescaling
        "wall_s": summary(rep["wall_s"] for rep in serial),
        "stderr2_s": summary(stderr2_s(rep["jobs"], rep["wall_s"]) for rep in serial),
        "reference_s": summary(rep["reference_s"] for rep in serial),
    }


def per_layer(repeats: list[dict]) -> dict:
    plain = [rep for rep in repeats if not rep["trace"]]
    traced = [rep for rep in repeats if rep["trace"]]
    per_repeat = [layer_metrics(rep) for rep in traced]
    out = {name: summary(m[name] for m in per_repeat) for name in per_repeat[0]}
    out["trace.overhead_s"] = summary([summary(r["wall_s"] for r in traced)["median"]
                                       - summary(r["wall_s"] for r in plain)["median"]])
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def worker_dependence(repeats: list[dict]) -> list[str]:
    """Report digest and per-job rel_gap at each worker count (first repeat of each)."""
    lines = []
    by_workers = {}
    for rep in repeats:
        by_workers.setdefault(rep["workers"], rep)
    if len(by_workers) < 2:
        return lines
    digests = {w: [rec["output_sha256"] for rec in rep["records"] if rec["argv"][0] == "run"]
               for w, rep in by_workers.items()}
    same = len({tuple(d) for d in digests.values()}) == 1
    for workers, rep in sorted(by_workers.items()):
        lines.append(f"report sha256 at {workers} worker(s): {' '.join(digests[workers])}")
    lines.append(f"reports identical across worker counts: {same}")
    for index, job in enumerate(repeats[0]["jobs"]):
        gaps = ", ".join(f"{rep['jobs'][index]['rel_gap']:.4g} at {w}"
                         for w, rep in sorted(by_workers.items()))
        lines.append(f"rel_gap {job['name']}: {gaps}")
    return lines


def print_metric(name: str, s: dict, unit: str) -> None:
    print(f"{name:30s} {s['median']:.6g} {unit}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
          f"n={s['n']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    kill_at = now() + HARD_LIMIT_S
    if not (ROOT / "src" / "nonlocal_limits" / "cli.py").is_file():
        print(f"error: no nonlocal_limits package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    targets = json.loads((CONFIGS / "targets.json").read_text(encoding="utf-8"))
    steps = WORKLOADS[args.workload]

    compileall.compile_dir(ROOT / "src", quiet=1)
    # warm the file cache with one untimed import
    subprocess.run([sys.executable, "-c", "import nonlocal_limits.cli"], cwd=ROOT,
                   env={**child_env(), "PYTHONPATH": str(ROOT / "src")}, check=True,
                   capture_output=True, timeout=HARD_LIMIT_S)

    # a round: (1 worker, traced) then (1 worker, untraced) with --trace 1, else one repeat
    modes = [True, False] if args.trace else [False]
    repeats, durations = [], []
    reference_loop()  # the first call pays numpy's lazy set-up
    before = reference_loop()
    deadline = now() + args.seconds
    try:
        while not durations or now() + max(durations) <= deadline:
            started = now()
            for trace in modes:
                rep = repeat(steps, args.seed, 1, trace, kill_at)
                after = reference_loop()
                rep["reference_s"] = math.sqrt(before * after)
                before = after
                repeats.append(rep)
            durations.append(now() - started)
        if not args.trace and args.workload in PARALLEL:
            # after the timed window: the second vCPU is the noisiest resource,
            # so wall_par_s is printed, not bounded, and takes no window time
            repeats.append(repeat(steps, args.seed, nproc(), False, kill_at))
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = check_repeats(repeats, targets[args.workload], set(targets["known_failing"]))
    if args.trace:
        figures, units = per_layer(repeats), PER_LAYER
    else:
        figures, units = end_to_end(repeats), END_TO_END

    print(f"machine: {json.dumps(machine())}")
    print(f"workload {args.workload}, seed {args.seed}, {len(durations)} round(s) "
          f"in {sum(durations):.1f} s, trace {args.trace}")
    for name, unit in units.items():
        print_metric(name, figures[name], unit)
    if not args.trace:
        for name in ("wall_s", "stderr2_s", "reference_s"):
            print_metric(name, figures[name], "s")
    parallel = [rep["wall_s"] for rep in repeats if rep["workers"] != 1]
    if parallel:
        print_metric("wall_par_s", summary(parallel), f"s at {nproc()} workers")
    # Every 1-worker repeat must give the same bytes (check_repeats), so the
    # first one holds the run's operations; counting all repeats would make
    # the counts depend on how many repeats fitted in the window.
    ops = repeats[0]["operations"]
    failing = [label for label, ok, _ in ops if not ok]
    print(f"{'failed_ratio':30s} {len(failing) / len(ops):.6g} ratio  ({len(failing)} of "
          f"{len(ops)} operations at 1 worker; failing: {', '.join(failing) or 'none'})")
    for line in worker_dependence(repeats):
        print(line)
    for problem in problems:
        print(f"INCORRECT: {problem}")

    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failing),
        "metrics": {name: {"value": figures[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
