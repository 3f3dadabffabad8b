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
from .config import ConfigError, check_override, load_config
from .convergence import sweep
from .engine import EngineError
from .functions import make_function, polynomial_function
from .mollifiers import CertificationError, certify
from .quadrature import sphere_body_identity_check
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
        spec = job.spec
        try:
            res = sweep(spec, job.schedule, job.plan, job.tolerance)
        except (EngineError, CertificationError, ArithmeticError,
                np.linalg.LinAlgError) as exc:
            # a numerical failure ends this job only; the others still run
            message = f"{type(exc).__name__}: {exc}"
            results.append(JobError(spec, message))
            print(f"{job.name}: error: {message}", file=sys.stderr)
            continue
        results.append(res)
        ratio = res.info.get("max_ratio_to_target")
        bound = "" if ratio is None else f" max_ratio={ratio:.4g}"
        print(f"{job.name}: {spec.theorem} m={spec.m} p={spec.p} "
              f"limit={res.extrapolated_limit:.6g} target={res.target:.6g} "
              f"rel_gap={res.rel_gap:.3g}{bound} [{res.verdict}]", file=sys.stderr)

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

def _worst_by_batch(cases, residual) -> float:
    """Largest |residual(f, m, *points)| over cases (f, m, *points), one call per (f, m).

    Each group's points are stacked into (n, dim) batches; the calculus routines
    act elementwise, so every case's residual is the one it has on its own.
    """
    groups: dict[tuple, list] = {}
    for f, m, *points in cases:
        groups.setdefault((f, m), []).append(points)
    worst = 0.0
    for (f, m), rows in groups.items():
        batches = [np.array(column) for column in zip(*rows)]
        worst = max(worst, float(np.max(np.abs(residual(f, m, *batches)))))
    return worst


def _monomial_rounding(m: int, x, h) -> np.ndarray:
    """Per-case bound on the rounding in the leading-monomial residual
    forward_difference(x^m, x, h, m) - m! h^m, for x and h of shape (n, 1).

    With u = eps / 2 and a_j = |x| + j |h|: the node x + j h is off by at most
    2 u a_j, so its m-th power, taken in m - 1 rounded Horner products, by at most
    (3m - 1) u a_j^m to first order.  The products with C(m, j) and the m
    additions add (m + 1) u S, where S = sum_j C(m, j) a_j^m, and the float of
    m! h^m (a pow within one ulp, then a product) is off by at most 3 u S, since
    |m! h^m| <= S.  That is (4m + 3) u S to first order; one more u S covers the
    higher orders.
    """
    ax, ah = np.abs(x[:, 0]), np.abs(h[:, 0])
    total = sum(math.comb(m, j) * (ax + j * ah) ** m for j in range(m + 1))
    return (2 * m + 2) * np.finfo(float).eps * total


def check_identities(seed: int, corrupt: bool) -> int:
    try:
        check_override("seed", seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cases, max_m = 1000, 4
    funcs = [make_function("gaussian", 1), make_function("sine_bump", 1),
             make_function("gaussian", 2)]
    failures = []

    def record(label, residual, tol):
        status = "ok" if residual <= tol else "FAIL"
        print(f"{label:<44s} max residual {residual:.3e}  (tol {tol:.0e})  {status}")
        if residual > tol:
            failures.append(label)

    # segment remainder vs m-th difference; this suite, the leading-monomial and the swap
    # suite draw their cases one at a time (dims differ) and evaluate them by batch
    remainder_cases = []
    for _ in range(cases):
        f = funcs[rng.integers(len(funcs))]
        m = int(rng.integers(1, max_m + 1))
        remainder_cases.append((f, m, rng.uniform(-2, 2, f.dim), rng.uniform(-0.5, 0.5, f.dim)))

    def remainder_vs_difference(f, m, x, h):
        lhs = calculus.centered_remainder(f, x, x + m * h, m)
        difference = calculus.forward_difference(f, x, h, m)
        if corrupt:  # negative control: flip the sign of the j = 1 term, (-1)^(m+1) m f(x + h)
            difference = difference - 2.0 * (-1.0) ** (m + 1) * m * f.eval(x + h)
        return lhs - (-1.0) ** m * difference

    record("segment remainder vs difference",
           _worst_by_batch(remainder_cases, remainder_vs_difference), ALGEBRAIC_TOL)

    # differences annihilate low-degree polynomials: each case builds its own polynomial
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
    monomial_cases = []
    for m in range(1, max_m + 1):
        f = polynomial_function([[0.0] * m + [1.0]])
        for _ in range(50):
            monomial_cases.append((f, m, rng.uniform(-2, 2, 1), rng.uniform(-1, 1, 1)))

    def leading_monomial(f, m, x, h):
        # terms reach about 7.8e3, so rounding alone can exceed the absolute tolerance:
        # the residual reported is what lies beyond each case's rounding bound
        exact = [math.factorial(m) * step ** m for step in h[:, 0].tolist()]
        residual = np.abs(calculus.forward_difference(f, x, h, m) - exact)
        return np.maximum(residual - _monomial_rounding(m, x, h), 0.0)

    record("difference of leading monomial",
           _worst_by_batch(monomial_cases, leading_monomial), ALGEBRAIC_TOL)

    # swap antisymmetry of the segment remainder
    swap_cases = []
    for _ in range(cases // 2):
        f = funcs[rng.integers(len(funcs))]
        m = int(rng.integers(1, max_m + 1))
        swap_cases.append((f, m, rng.uniform(-2, 2, f.dim), rng.uniform(-2, 2, f.dim)))

    def swap_symmetry(f, m, x, y):
        return (calculus.centered_remainder(f, x, y, m)
                - (-1.0) ** m * calculus.centered_remainder(f, y, x, m))

    record("segment remainder swap symmetry",
           _worst_by_batch(swap_cases, swap_symmetry), ALGEBRAIC_TOL)

    # cube mean-value identity for the difference
    worst = 0.0
    for f in (make_function("gaussian", 1), make_function("sine_bump", 1)):
        for m in range(1, 4):
            x = rng.uniform(-1, 1, f.dim)
            h = rng.uniform(-0.4, 0.4, f.dim)
            worst = max(worst, calculus.mean_value_identity_check(f, x, h, m))
    record("cube mean-value identity", worst, QUADRATURE_TOL)

    # iterated-kernel identity for the Taylor remainder
    worst = 0.0
    for f in (make_function("gaussian", 1), make_function("gaussian", 2)):
        for m in range(1, 4):
            x = rng.uniform(-1, 1, f.dim)
            h = float(rng.uniform(0.1, 0.5))
            worst = max(worst, calculus.taylor_kernel_identity_check(f, x, h, m))
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

def certify_mollifiers(config_path: str | None, broken: bool) -> int:
    """Certify the families of the config's mollified jobs, or four default families."""
    families = [("shell", 1, None), ("shell", 2, None),
                ("fractional", 1, 2.0), ("fractional", 2, 2.0)]
    if config_path is not None:
        try:
            config = load_config(config_path)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # a family's p is None for a shell, whatever the job's p
        mollifiers = [job.spec.mollifier for job in config.jobs
                      if job.spec.mollifier_kind is not None]
        families = list(dict.fromkeys((fam.kind, fam.dim, fam.p) for fam in mollifiers))
        if not families:
            print(f"{config_path}: no mollified job, so no family to certify")

    status = 0
    for kind, dim, p in families:
        try:
            report = certify(kind, dim, p)
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
            certify("shell", 1)
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
        return check_identities(seed=args.seed, corrupt=args.corrupt)
    return certify_mollifiers(args.config, broken=args.broken_fixture)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
