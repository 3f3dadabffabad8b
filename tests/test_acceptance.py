"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import json
import math

import numpy as np
import pytest

from nonlocal_limits import calculus, cli
from nonlocal_limits.bodies import ConvexBody
from nonlocal_limits.convergence import Schedule, sweep
from nonlocal_limits.engine import IntegrationPlan
from nonlocal_limits.functionals import FunctionalSpec, evaluate, local_limit
from nonlocal_limits.functions import make_function, polynomial_function
from nonlocal_limits.mollifiers import certify
from nonlocal_limits.quadrature import body_quadrature_nodes, cone_nodes, sphere_body_identity_check

INTERVAL = ConvexBody.box([1.0])
GAUSS1 = make_function("gaussian", 1)
GAUSS2 = make_function("gaussian", 2)
ROOT_PI_HALF = math.sqrt(math.pi / 2.0)

BODY_SUITE = [ConvexBody.box([1.0]), ConvexBody.ball(1.0, 2),
              ConvexBody.box([1.0, 0.5]), ConvexBody.ellipsoid([2.0, 1.0])]

_LEVEL_SET_SWEEPS: dict[str, object] = {}


def _report(num, description, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}  ({detail})")
    assert ok, f"criterion {num}: {description}: {detail}"


def _level_set_sweep(m):
    # shared by criteria 1 and 10
    key = f"m{m}"
    if key not in _LEVEL_SET_SWEEPS:
        plan = IntegrationPlan("monte_carlo", samples=200_000, seed=11)
        spec = FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, m, 2.0, 0.2)
        _LEVEL_SET_SWEEPS[key] = sweep(spec, Schedule(0.2, 0.5, 7), plan, tolerance=0.03)
    return _LEVEL_SET_SWEEPS[key]


def test_criterion_01_level_set_limit_m1():
    res = _level_set_sweep(1)
    # target from the derivative-energy oracle: int (f')^2 = sqrt(pi/2)
    gap = abs(res.extrapolated_limit - ROOT_PI_HALF) / ROOT_PI_HALF
    _report(1, "level-set sweep extrapolates to sqrt(pi/2), m=1", gap <= 0.03,
            f"limit {res.extrapolated_limit:.5f}, target {ROOT_PI_HALF:.5f}, gap {gap:.2%}")


def test_criterion_02_mollified_limit_m2():
    plan = IntegrationPlan("tensor_quadrature", x_nodes=200, t_nodes=48)
    spec = FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 2, 2.0, 0.4, "shell")
    res = sweep(spec, Schedule(0.4, 0.5, 7), plan, tolerance=0.05)
    # oracle: int (f'')^2 = 3 sqrt(pi/2), constant (5/16)(2/5)
    target = 3.0 * ROOT_PI_HALF / 8.0
    gap = abs(res.extrapolated_limit - target) / target
    _report(2, "mollified sweep extrapolates to 3 sqrt(pi/2)/8, m=2", gap <= 0.05,
            f"limit {res.extrapolated_limit:.5f}, target {target:.5f}, gap {gap:.2%}")


def test_criterion_03_taylor_variants_collapse_at_m1():
    plan = IntegrationPlan("monte_carlo", samples=100_000, seed=31)
    worst = 0.0
    for delta in (0.1, 0.02):
        a = evaluate(FunctionalSpec("nguyen_centered", GAUSS1, INTERVAL, 1, 2.0, delta), plan)
        b = evaluate(FunctionalSpec("nguyen_taylor", GAUSS1, INTERVAL, 1, 2.0, delta), plan)
        worst = max(worst, abs(a.value - b.value) / abs(a.value))
    for eps in (0.1, 0.02):
        c = evaluate(FunctionalSpec("bbm_centered", GAUSS1, INTERVAL, 1, 2.0, eps, "shell"), plan)
        d = evaluate(FunctionalSpec("bbm_taylor", GAUSS1, INTERVAL, 1, 2.0, eps, "shell"), plan)
        worst = max(worst, abs(c.value - d.value) / abs(c.value))
    _report(3, "Taylor forms coincide with centered forms at m=1, matched seeds",
            worst <= 1e-12, f"max relative difference {worst:.2e}")


def test_criterion_04_constant_ratio_m_times_p():
    worst = 0.0
    for m in (1, 2, 3):
        for p in (1.5, 2.0, 3.0):
            for body in BODY_SUITE:
                f = make_function("gaussian", body.dim)
                num = local_limit(FunctionalSpec("bbm_centered", f, body, m, p, 0.1, "shell"))
                den = local_limit(FunctionalSpec("nguyen_centered", f, body, m, p, 0.1))
                worst = max(worst, abs(num / den - m * p) / (m * p))
    _report(4, "mollified/level-set limit ratio equals m*p (shared factor)",
            worst <= 1e-13, f"max relative deviation {worst:.2e}")


def test_criterion_05_anisotropic_ellipse_moment():
    ellipse = ConvexBody.ellipsoid([2.0, 1.0])
    target = 2.0 * math.pi  # (pi/4) a^3 b with (a, b) = (2, 1)
    ys, wy = body_quadrature_nodes(ellipse, 48, 64)
    volume = float(wy @ ys[:, 0] ** 2)
    # y1^2 is homogeneous of degree 2: the cone rule gives (2 + 2) times the integral
    zs, wz = cone_nodes(ellipse)
    cone = float(wz @ zs[:, 0] ** 2) / 4.0
    gap_v = abs(volume - target) / target
    gap_c = abs(cone - target) / target
    _report(5, "ellipse moment: volume and cone-measure quadrature within 0.5%",
            gap_v <= 0.005 and gap_c <= 0.005,
            f"volume-rule gap {gap_v:.2e}, cone-rule gap {gap_c:.2e}")


def test_criterion_06_sphere_body_identity():
    checks = [
        (ConvexBody.box([1.0]), 1, lambda s: s[..., 0]),
        (ConvexBody.ball(1.0, 2), 1, lambda s: s[..., 0]),
        (ConvexBody.ellipsoid([2.0, 1.0]), 2, lambda s: s[..., 0] * s[..., 1]),
    ]
    worst = 0.0
    for body, m, g in checks:
        _, _, gap = sphere_body_identity_check(g, body, m, 2.0)
        worst = max(worst, gap)
    _report(6, "sphere-to-body reduction on three homogeneous integrands",
            worst <= 1e-3, f"max relative gap {worst:.2e}")


def test_criterion_07_exact_algebraic_suite():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    funcs = [GAUSS1, GAUSS2, make_function("sine_bump", 1)]
    worst_dual = 0.0
    for _ in range(1000):
        f = funcs[rng.integers(len(funcs))]
        m = int(rng.integers(1, 5))
        x = rng.uniform(-2, 2, f.dim)
        h = rng.uniform(-0.5, 0.5, f.dim)
        lhs = calculus.centered_remainder(f, x, x + m * h, m)
        rhs = (-1.0) ** m * calculus.forward_difference(f, x, h, m)
        worst_dual = max(worst_dual, abs(float(lhs - rhs)))
    worst_annih = 0.0
    worst_monom = 0.0
    for m in (1, 2, 3, 4):
        for _ in range(100):
            coeffs = rng.uniform(-2, 2, m)
            f = polynomial_function([coeffs])
            x, h = rng.uniform(-2, 2, 1), rng.uniform(-1, 1, 1)
            worst_annih = max(worst_annih, abs(float(calculus.forward_difference(f, x, h, m))))
            mono = polynomial_function([[0.0] * m + [1.0]])
            got = float(calculus.forward_difference(mono, x, h, m))
            worst_monom = max(worst_monom, abs(got - math.factorial(m) * float(h[0]) ** m))
    ok = worst_dual <= 1e-12 and worst_annih <= 1e-12 and worst_monom <= 1e-12
    _report(7, "exact algebraic identities (duality, annihilation, monomial)", ok,
            f"residuals {worst_dual:.1e}, {worst_annih:.1e}, {worst_monom:.1e}")


def test_criterion_08_mean_value_identities():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(8)))
    worst = 0.0
    for f in (GAUSS1, GAUSS2, make_function("sine_bump", 1)):
        for m in (1, 2, 3):
            x = rng.uniform(-1, 1, f.dim)
            h = rng.uniform(-0.4, 0.4, f.dim)
            worst = max(worst, calculus.mean_value_identity_check(f, x, h, m))
            worst = max(worst, calculus.taylor_kernel_identity_check(
                f, x, float(rng.uniform(0.1, 0.5)), m))
    _report(8, "cube mean-value and iterated-kernel identities", worst <= 1e-7,
            f"max residual {worst:.2e}")


def test_criterion_09_classical_ball_reduction():
    # sphere constants K_(1,2) = 2 and K_(2,2) = pi; gradient energies
    # int (f')^2 = sqrt(pi/2) in 1-D and int |grad e^(-|x|^2)|^2 = pi in 2-D
    k12, k22, grad_sq = 2.0, math.pi, math.pi
    spec1 = FunctionalSpec("nguyen_centered", GAUSS1, ConvexBody.ball(1.0, 1), 1, 2.0, 0.1)
    gap1 = abs(local_limit(spec1) - 0.5 * k12 * ROOT_PI_HALF) / (0.5 * k12 * ROOT_PI_HALF)

    spec2 = FunctionalSpec("nguyen_centered", GAUSS2, ConvexBody.ball(1.0, 2), 1, 2.0, 0.1)
    gap2 = abs(local_limit(spec2) - 0.5 * k22 * grad_sq) / (0.5 * k22 * grad_sq)

    ok = gap1 <= 1e-3 and gap2 <= 1e-3
    _report(9, "Euclidean-ball reduction matches (1/p) K_{N,p} * gradient energy",
            ok, f"gaps {gap1:.2e}, {gap2:.2e}")


def test_criterion_10_uniform_boundedness():
    # the target is sqrt(pi/2) = int (f')^2, the derivative energy the paper's bound is stated in
    ratio = _level_set_sweep(1).info["max_ratio_to_target"]
    _report(10, "level-set sweep bounded by its target: max value / target within 25% of 1",
            abs(ratio - 1.0) <= 0.25, f"observed max ratio {ratio:.3f}")


def test_criterion_11_mollifier_certification():
    worst_norm = 0.0
    worst_tail = 0.0
    for kind in ("shell", "fractional"):
        for dim in (1, 2):
            p = 2.0 if kind == "fractional" else None
            rep = certify(kind, dim, p)
            worst_norm = max(worst_norm, max(rep.normalization_residuals.values()))
            worst_tail = max(worst_tail, max(rep.tail_residuals.values()))
    ok = worst_norm <= 1e-10 and worst_tail <= 1e-10
    _report(11, "both mollifier families certified against closed forms", ok,
            f"normalization {worst_norm:.1e}, tail match {worst_tail:.1e}")


def test_criterion_12_reproducibility(tmp_path):
    cfg = {
        "seed": 99,
        "workers": 2,
        "jobs": [{
            "theorem": "nguyen_centered",
            "function": "gaussian",
            "body": {"kind": "box", "half_widths": [1.0]},
            "m": 1, "p": 2.0,
            "schedule": {"start": 0.2, "ratio": 0.5, "points": 4},
            "plan": {"method": "monte_carlo", "samples": 70000},  # 32 blocks
            "tolerance": 0.05,
        }],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for name, overrides in (("r1.csv", {}), ("r2.csv", {}), ("r3.csv", {"workers": 1})):
        out = tmp_path / name
        code = cli.run(str(path), {"output": str(out), "timestamp": False, **overrides})
        assert code == 0
        blobs.append(out.read_bytes())
    # JSON records the worker count once, at the top level; the rest is the same
    docs = []
    for workers in (2, 1):
        out = tmp_path / f"w{workers}.json"
        code = cli.run(str(path), {"output": str(out), "timestamp": False, "format": "json",
                                   "workers": workers})
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc.pop("workers") == workers
        docs.append(doc)
    _report(12, "identical config/seed give byte-identical reports at 2 and 1 workers",
            blobs[0] == blobs[1] == blobs[2] and docs[0] == docs[1],
            f"{len(blobs[0])} CSV bytes and the JSON reports but their workers compared")
