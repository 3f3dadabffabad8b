"""Command-line runner.

Subcommands:
  run                 execute the sweep jobs of a JSON experiment config
  check-identities    exact algebraic and quadrature identity suites
  certify-mollifiers  concentration-profile certification

Exit codes: 0 all checks/verdicts pass, 1 config or IO error, 2 any failure.
A job that stops on a numerical error gets verdict ``error`` (exit 2); the
other jobs of the config still run.  ``certify-mollifiers --broken-fixture``
exits 2 only when a real family fails or the deliberately broken fixture
passes; a rejected fixture is the expected outcome.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import calculus
from .bodies import ConvexBody
from .config import ConfigError, load_config
from .convergence import sweep
from .engine import EngineError, sphere_body_identity_check
from .functions import make_function, polynomial_function
from .mollifiers import CertificationError, certification_grids, certify, make_mollifier
from .report import JobError, render_csv, render_json

ALGEBRAIC_TOL = 1e-12
QUADRATURE_TOL = 1e-7
SPHERE_TOL = 1e-3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocal-limits",
        description="Evaluate nonlocal difference functionals over convex bodies "
                    "and verify their local limits by parameter sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run sweep jobs from a config file")
    run.add_argument("--config", required=True, help="JSON experiment config")
    run.add_argument("--out", default=None, help="report path (default: stdout)")
    run.add_argument("--seed", type=int, default=None, help="override the global seed")
    run.add_argument("--workers", type=int, default=None, help="override worker count")
    run.add_argument("--format", choices=["csv", "json"], default=None)
    run.add_argument("--no-timestamp", action="store_true",
                     help="suppress the timestamp header (byte-identical reruns)")

    ident = sub.add_parser("check-identities", help="exact identity suites")
    ident.add_argument("--seed", type=int, default=20260810)
    ident.add_argument("--quick", action="store_true", help="reduced case counts")
    ident.add_argument("--corrupt", action="store_true",
                       help="negative control: flip one binomial sign and expect failure")

    cert = sub.add_parser("certify-mollifiers", help="certify concentration profiles")
    cert.add_argument("--config", default=None,
                      help="optional experiment config; families are taken from its jobs")
    cert.add_argument("--broken-fixture", action="store_true",
                      help="negative control: certify a deliberately unnormalized profile")
    return parser


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def run(config_path: str, overrides: dict | None = None) -> int:
    try:
        config = load_config(config_path, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = []
    for job in config.jobs:
        try:
            res = sweep(job.theorem, job.function, job.body, job.m, job.p,
                        job.schedule, job.plan, mollifier_kind=job.mollifier_kind,
                        tolerance=job.tolerance)
        except (EngineError, CertificationError, ArithmeticError,
                np.linalg.LinAlgError) as exc:
            # a numerical failure ends this job only; the others still run
            message = f"{type(exc).__name__}: {exc}"
            results.append(JobError(job.theorem, job.function.name, job.m, job.p,
                                    job.body.descriptor(), message))
            print(f"{job.name}: error: {message}", file=sys.stderr)
            continue
        results.append(res)
        print(f"{job.name}: {job.theorem} m={job.m} p={job.p} "
              f"limit={res.extrapolated_limit:.6g} target={res.target:.6g} "
              f"rel_gap={res.rel_gap:.3g} [{res.verdict}]", file=sys.stderr)

    meta = {"seed": config.seed, "workers": config.workers}
    if config.format == "json":
        text = render_json(results, meta=meta, timestamp=config.timestamp)
    else:
        text = render_csv(results, timestamp=config.timestamp)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in results) else 2


# ---------------------------------------------------------------------------
# check-identities
# ---------------------------------------------------------------------------

def check_identities(seed: int = 20260810, quick: bool = False,
                     corrupt: bool = False) -> int:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cases = 200 if quick else 1000
    max_m = 2 if quick else 4
    funcs = [make_function("gaussian", 1), make_function("sine_bump", 1),
             make_function("gaussian", 2)]
    failures = []

    def record(label, residual, tol):
        status = "ok" if residual <= tol else "FAIL"
        print(f"{label:<44s} max residual {residual:.3e}  (tol {tol:.0e})  {status}")
        if residual > tol:
            failures.append(label)

    # segment remainder vs m-th difference
    worst = 0.0
    for _ in range(cases):
        f = funcs[rng.integers(len(funcs))]
        m = int(rng.integers(1, max_m + 1))
        x = rng.uniform(-2, 2, f.dim)
        h = rng.uniform(-0.5, 0.5, f.dim)
        lhs = calculus.centered_remainder(f, x, x + m * h, m)
        difference = calculus.forward_difference(f, x, h, m)
        if corrupt:  # negative control: flip the sign of the j = 1 term, (-1)^(m+1) m f(x + h)
            difference = difference - 2.0 * (-1.0) ** (m + 1) * m * f.eval(x + h)
        rhs = (-1.0) ** m * difference
        worst = max(worst, abs(float(lhs - rhs)))
    record("segment remainder vs difference", worst, ALGEBRAIC_TOL)

    # differences annihilate low-degree polynomials
    worst = 0.0
    for _ in range(cases // 2):
        m = int(rng.integers(1, max_m + 1))
        coeffs = rng.uniform(-2, 2, m)  # degree m-1
        f = polynomial_function([coeffs])
        x = rng.uniform(-2, 2, 1)
        h = rng.uniform(-1, 1, 1)
        worst = max(worst, abs(float(calculus.forward_difference(f, x, h, m))))
    record("difference annihilates degree < m", worst, ALGEBRAIC_TOL)

    # leading-monomial scaling
    worst = 0.0
    for m in range(1, max_m + 1):
        f = polynomial_function([[0.0] * m + [1.0]])
        for _ in range(50):
            x = rng.uniform(-2, 2, 1)
            h = rng.uniform(-1, 1, 1)
            got = float(calculus.forward_difference(f, x, h, m))
            worst = max(worst, abs(got - math.factorial(m) * float(h[0]) ** m))
    record("difference of leading monomial", worst, ALGEBRAIC_TOL)

    # swap antisymmetry of the segment remainder
    worst = 0.0
    for _ in range(cases // 2):
        f = funcs[rng.integers(len(funcs))]
        m = int(rng.integers(1, max_m + 1))
        x = rng.uniform(-2, 2, f.dim)
        y = rng.uniform(-2, 2, f.dim)
        a = calculus.centered_remainder(f, x, y, m)
        b = calculus.centered_remainder(f, y, x, m)
        worst = max(worst, abs(float(a - (-1.0) ** m * b)))
    record("segment remainder swap symmetry", worst, ALGEBRAIC_TOL)

    # cube mean-value identity for the difference
    worst = 0.0
    for f in (make_function("gaussian", 1), make_function("sine_bump", 1)):
        for m in range(1, (2 if quick else 3) + 1):
            x = rng.uniform(-1, 1, f.dim)
            h = rng.uniform(-0.4, 0.4, f.dim)
            worst = max(worst, calculus.mean_value_identity_check(f, x, h, m, 32))
    record("cube mean-value identity", worst, QUADRATURE_TOL)

    # iterated-kernel identity for the Taylor remainder
    worst = 0.0
    for f in (make_function("gaussian", 1), make_function("gaussian", 2)):
        for m in range(1, (2 if quick else 3) + 1):
            x = rng.uniform(-1, 1, f.dim)
            h = float(rng.uniform(0.1, 0.5))
            worst = max(worst, calculus.taylor_kernel_identity_check(f, x, h, m, 32))
    record("Taylor iterated-kernel identity", worst, QUADRATURE_TOL)

    # sphere-to-body reduction
    worst = 0.0
    checks = [
        (ConvexBody.box([1.0]), 1, lambda s: s[..., 0]),
        (ConvexBody.ball(1.0, 2), 1, lambda s: s[..., 0]),
        (ConvexBody.ellipsoid([2.0, 1.0]), 1, lambda s: s[..., 0] + 0.5 * s[..., 1]),
    ]
    for body, m, g in checks:
        _, _, gap = sphere_body_identity_check(g, body, m, 2.0)
        worst = max(worst, gap)
    record("sphere-to-body reduction", worst, SPHERE_TOL)

    if failures:
        print(f"{len(failures)} identity suite(s) failed")
        return 2
    print("all identity suites passed")
    return 0


# ---------------------------------------------------------------------------
# certify-mollifiers
# ---------------------------------------------------------------------------

def certify_mollifiers(config_path: str | None = None, broken: bool = False) -> int:
    families: list[tuple[str, int, float | None]] = []
    if config_path is not None:
        try:
            config = load_config(config_path)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for job in config.jobs:
            if job.mollifier_kind is not None:
                # a family's p is None for a shell, whatever the job's p
                family = make_mollifier(job.mollifier_kind, job.body.dim, 1.0, job.p)
                key = (family.kind, family.dim, family.p)
                if key not in families:
                    families.append(key)
    if not families:
        families = [("shell", 1, None), ("shell", 2, None),
                    ("fractional", 1, 2.0), ("fractional", 2, 2.0)]

    status = 0
    for kind, dim, p in families:
        try:
            report = certify(kind, dim, *certification_grids(kind, p), p)
        except CertificationError as exc:
            print(f"{kind} (dim={dim}): FAILED: {exc}")
            status = 2
            continue
        resid = max(report.normalization_residuals.values())
        tail_gap = max(report.tail_residuals.values())
        print(f"{kind} (dim={dim}): ok, max normalization residual {resid:.2e}, "
              f"max tail/closed-form gap {tail_gap:.2e}, "
              f"max final tail {report.max_final_tail:.2e}")

    if broken:
        # negative control: a shell profile with 7% missing mass must fail
        from . import mollifiers as _m

        class _Broken(_m.MollifierFamily):
            def log_radius_mass_mp(self, y):
                return 0.93 * super().log_radius_mass_mp(y)

        original = _m.make_mollifier
        _m.make_mollifier = lambda kind, dim, eps, p=None: _Broken(kind, dim, eps, p)
        try:
            certify("shell", 1, *certification_grids("shell"))
            print("broken fixture: certification unexpectedly passed")
            status = 2
        except CertificationError as exc:
            print(f"broken fixture correctly rejected: {exc}")
        finally:
            _m.make_mollifier = original
    return status


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.out is not None:
            overrides["output"] = args.out
        if args.format is not None:
            overrides["format"] = args.format
        if args.no_timestamp:
            overrides["timestamp"] = False
        return run(args.config, overrides)
    if args.command == "check-identities":
        return check_identities(seed=args.seed, quick=args.quick, corrupt=args.corrupt)
    return certify_mollifiers(args.config, broken=args.broken_fixture)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
