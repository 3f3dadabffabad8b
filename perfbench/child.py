"""One benchmark repeat: a fresh interpreter that runs one CLI command.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the checkout root, the ``nonlocal-limits`` argument list and
whether to trace.  The command runs through ``cli.main`` exactly as the
console script does; what it prints is captured.  The last line written to
the real standard output is one JSON object with the raw measurements, which
``run.py`` turns into metrics.

Every wrapper is installed at the name where the package looks the callable
up (``functionals.integrate_double``, ``ConvexBody.gauge`` and so on), so the
package itself is unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import time
from pathlib import Path

from spans import Tracer, layer_totals


def now() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so run.py can subtract its own stamps
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kb() -> int:
    """This process's peak resident set since it was exec'd (``VmHWM``).

    ``ru_maxrss`` would not do: Linux carries the forking parent's peak into
    it at exec, so it would count run.py's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Probe:
    """The few wrappers every repeat needs: set-up end, sweep results, evaluate seconds."""

    def __init__(self, cli, convergence):
        self.ready: float | None = None
        self.jobs: list[str] = []
        self.results = []
        self.points = []  # per evaluate call: (job index, seconds, method)
        load_config, sweep, evaluate = cli.load_config, cli.sweep, convergence.evaluate

        def probed_load_config(*args, **kwargs):
            config = load_config(*args, **kwargs)
            self.jobs = [job.name for job in config.jobs]
            self.ready = now()
            return config

        def probed_sweep(*args, **kwargs):
            result = sweep(*args, **kwargs)
            self.results.append(result)
            return result

        def probed_evaluate(spec, plan):
            start = time.perf_counter()
            estimate = evaluate(spec, plan)
            self.points.append((len(self.results), time.perf_counter() - start,
                                estimate.info.get("method")))
            return estimate

        cli.load_config = probed_load_config
        cli.sweep = probed_sweep
        convergence.evaluate = probed_evaluate
        for name in ("check_identities", "certify_mollifiers"):
            setattr(cli, name, self._stamp_on_entry(getattr(cli, name)))

    def _stamp_on_entry(self, func):
        def stamped(*args, **kwargs):
            self.ready = now()
            return func(*args, **kwargs)
        return stamped

    def job_records(self) -> list[dict]:
        records = []
        for index, res in enumerate(self.results):
            calls = [(sec, method) for job, sec, method in self.points if job == index]
            records.append({
                "name": self.jobs[index],
                "verdict": res.verdict, "rel_gap": res.rel_gap, "tolerance": res.tolerance,
                "target": res.target, "limit": res.extrapolated_limit,
                "limit_uncertainty": res.limit_uncertainty,
                "points": [{"value": pt.value, "stderr": pt.stderr, "seconds": sec,
                            "method": method}
                           for pt, (sec, method) in zip(res.points, calls)],
            })
        return records


def _point_count(key):
    def count(counts, result):
        counts[key] += int(getattr(result, "size", 1))
    return count


def install_tracing(tracer: Tracer, modules) -> None:
    """Wrap each layer's public entry points at the names the package calls them by."""
    import numpy as np

    cli, calculus, convergence, engine, functionals, functions, bodies, mollifiers = modules
    counts = tracer.counts

    integrate_double = functionals.integrate_double

    def traced_integrate_double(kernel, plan, *rest, **kwargs):
        monte_carlo = plan.method == "monte_carlo"
        traced_kernel = tracer.traced(kernel, "functionals.kernel")

        def kernel_with_counts(x, sigma, t):
            out = traced_kernel(x, sigma, t)
            if monte_carlo:
                counts["engine.mc_pairs"] += int(np.size(out))
                counts["engine.mc_hits"] += int(np.count_nonzero(out))
            return out

        return integrate_double(kernel_with_counts, plan, *rest, **kwargs)

    functionals.integrate_double = tracer.traced(
        traced_integrate_double,
        lambda kernel, plan, *a, **k: "engine.mc" if plan.method == "monte_carlo"
        else "engine.quad")

    for law in (engine.PowerLaw, engine.MollifierRadial):
        for name in ("prepare", "sample", "pdf"):
            tracer.wrap(law, name, "engine.law")
    tracer.wrap(convergence, "evaluate", "functionals.evaluate")
    tracer.wrap(convergence, "local_limit", "functionals.target")
    for name in ("centered_remainder", "taylor_remainder"):
        tracer.wrap(functionals, name, "calculus.remainder")
    tracer.wrap(functionals, "direction_bound", "calculus.direction_bound")
    tracer.wrap(functionals, "m_form_tableau", "calculus.m_form_tableau")
    for name in ("forward_difference", "centered_remainder", "mean_value_identity_check",
                 "taylor_kernel_identity_check"):
        tracer.wrap(calculus, name, "calculus.identity")
    tracer.wrap(cli, "sphere_body_identity_check", "calculus.identity")
    tracer.wrap(functions.TestFunction, "eval", "functions.eval",
                _point_count("functions.eval_points"))
    tracer.wrap(functions.TestFunction, "partial", "functions.partial",
                _point_count("functions.partial_points"))
    tracer.wrap(bodies.ConvexBody, "gauge", "bodies.gauge",
                _point_count("bodies.gauge_points"))
    tracer.wrap(mollifiers, "certify", "mollifiers.certify")
    tracer.wrap(cli, "certify", "mollifiers.certify")
    for name in ("evaluate", "inverse_mass", "radial_mass_density"):
        tracer.wrap(mollifiers.MollifierFamily, name, "mollifiers.profile")
    for name in ("fit_power_law", "aitken"):
        tracer.wrap(convergence, name, "convergence.fit")
    tracer.wrap(cli, "load_config", "config.load")

    def count_bytes(counts, text):
        counts["report.bytes"] += len(text.encode("utf-8"))

    for name in ("render_csv", "render_json"):
        tracer.wrap(cli, name, "report.render", count_bytes)
    for name in ("run", "check_identities", "certify_mollifiers"):
        tracer.wrap(cli, name, "cli")


_IDENTITY_LINE = re.compile(r"^(.+?)\s+max residual (\S+)\s+\(tol (\S+)\)\s+(ok|FAIL)$")
_FAMILY_LINE = re.compile(r"^(\w+ \(dim=\d+\)): (ok|FAILED)")


def operations(command: str, text: str, jobs: list[dict]) -> list[list]:
    """The command's checked operations as ``[label, passed, error_ratio]`` triples.

    ``error_ratio`` is the error over its tolerance: ``rel_gap / tolerance``
    for a sweep job, ``residual / tol`` for an identity line, and ``None`` for
    a certified family, which reports no figure.
    """
    if command == "run":
        return [[job["name"], job["verdict"] == "pass", job["rel_gap"] / job["tolerance"]]
                for job in jobs]
    if command == "check-identities":
        return [[m.group(1), m.group(4) == "ok", float(m.group(2)) / float(m.group(3))]
                for m in map(_IDENTITY_LINE.match, text.splitlines()) if m]
    return [[m.group(1), m.group(2) == "ok", None]
            for m in map(_FAMILY_LINE.match, text.splitlines()) if m]


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from nonlocal_limits import (bodies, calculus, cli, convergence, engine, functionals,
                                 functions, mollifiers)

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install_tracing(tracer, (cli, calculus, convergence, engine, functionals,
                                 functions, bodies, mollifiers))
    probe = Probe(cli, convergence)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code
    end = now()

    text = out.getvalue()
    jobs = probe.job_records()
    record = {
        "code": code,
        "ready": probe.ready,
        "end": end,
        "peak_rss_kb": peak_rss_kb(),
        "output_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "output": text if spec["argv"][0] == "run" else "",
        "jobs": jobs,
        "operations": operations(spec["argv"][0], text, jobs),
    }
    if tracer is not None:
        record["layers"] = layer_totals(tracer.spans)
        record["counts"] = dict(tracer.counts)
    sys.__stdout__.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
