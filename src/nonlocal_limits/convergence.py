"""Parameter sweeps toward zero with limit extrapolation and verdicts.

A sweep evaluates one functional on a geometric parameter grid, fits the model
value ~ limit + c * parameter^rate by least squares (the rate is optimized by
golden-section search), cross-checks with Aitken acceleration, and compares
the extrapolated limit against the closed-form target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import EngineError, IntegrationPlan
from .functionals import FunctionalSpec, evaluate, local_limit
from .mollifiers import make_mollifier

RATE_RANGE = (0.2, 2.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Schedule:
    """Geometric grid: start, start*ratio, ... (points values, strictly decreasing)."""

    start: float
    ratio: float = 0.5
    points: int = 7
    fit_points: int | None = None  # fit on the last k points; None = all

    def __post_init__(self):
        if self.start <= 0:
            raise ValueError("schedule start must be positive")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("schedule ratio must be in (0, 1)")
        if self.points < 4:
            raise ValueError("schedule needs at least 4 points")
        if self.fit_points is not None and self.fit_points > self.points:
            raise ValueError(f"fit_points {self.fit_points} exceeds the "
                             f"{self.points} schedule points")
        vals = self.values()
        if not vals[-1] > 0.0 or not all(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError("schedule values must stay positive and strictly decreasing "
                             f"in floating point; got {vals}")

    def values(self) -> list[float]:
        return [self.start * self.ratio ** i for i in range(self.points)]


@dataclass
class SweepPoint:
    parameter: float
    value: float
    stderr: float


@dataclass
class SweepResult:
    theorem: str
    function: str
    m: int
    p: float
    body: dict
    points: list[SweepPoint]
    extrapolated_limit: float
    fitted_rate: float
    aitken_limit: float
    aitken_fallback: bool
    target: float
    rel_gap: float
    tolerance: float
    verdict: str
    limit_uncertainty: float
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def fit_power_law(parameters, values, fit_points: int | None = None):
    """Least-squares fit of value ~ L + c * parameter^q.

    For fixed q the problem is linear; q itself is chosen by golden-section
    search on the squared residual over RATE_RANGE.  Returns (L, c, q, rss).
    """
    params = np.asarray(parameters, dtype=float)
    vals = np.asarray(values, dtype=float)
    if fit_points is not None:
        params = params[-fit_points:]
        vals = vals[-fit_points:]
    if params.size < 3:
        raise ValueError("need at least 3 points to fit")

    def solve(q):
        with np.errstate(over="ignore"):
            powers = params ** q
        if not np.all(np.isfinite(powers)):
            raise FloatingPointError(f"power-law fit overflows: parameter^{q:.3g} is not finite")
        design = np.stack([np.ones_like(params), powers], axis=-1)
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        resid = vals - design @ coef
        return float(resid @ resid), coef

    lo, hi = RATE_RANGE
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, _ = solve(c)
    fd, _ = solve(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc, _ = solve(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd, _ = solve(d)
    q = 0.5 * (a + b)
    rss, coef = solve(q)
    return float(coef[0]), float(coef[1]), float(q), rss


def aitken(values) -> tuple[float, bool]:
    """Aitken delta-squared acceleration; falls back to the last value.

    Applies the transform to every consecutive triple and returns the last
    well-conditioned accelerated value.  The fallback flag is True when every
    denominator was degenerate.
    """
    vals = [float(v) for v in values]
    if len(vals) < 3:
        raise ValueError("need at least 3 values")
    scale = max(abs(v) for v in vals) or 1.0
    best = None
    for v0, v1, v2 in zip(vals, vals[1:], vals[2:]):
        den = v2 - 2.0 * v1 + v0
        if abs(den) > 1e-13 * scale:
            best = v2 - (v2 - v1) ** 2 / den
    if best is None:
        return vals[-1], True
    return best, False


def sweep(theorem: str, f, body, m: int, p: float, schedule: Schedule,
          plan: IntegrationPlan, mollifier_kind: str | None = None,
          tolerance: float = 0.05, target: float | None = None) -> SweepResult:
    """Run one functional along the schedule and extrapolate to parameter -> 0.

    Every point names the schedule as its grid, so a Monte Carlo plan runs all
    points in one pass over shared draws (common random numbers stabilize the
    fitted differences).  The target defaults to the quadrature local limit.
    """
    params = schedule.values()

    def spec_at(value: float) -> FunctionalSpec:
        moll = None
        if theorem.startswith("bbm"):
            kind = mollifier_kind or "shell"
            moll = make_mollifier(kind, body.dim, value, p if kind == "fractional" else None)
        return FunctionalSpec(theorem, f, body, m, p, value, moll, tuple(params))

    points: list[SweepPoint] = []
    infos = []
    for value in params:
        est = evaluate(spec_at(value), plan)
        if not math.isfinite(est.value):
            raise EngineError(f"nonfinite sweep value at parameter {value}")
        points.append(SweepPoint(value, est.value, est.stderr))
        infos.append(est.info)

    if target is None:
        target = local_limit(spec_at(params[0]))

    limit, _, rate, rss = fit_power_law(params, [pt.value for pt in points],
                                        schedule.fit_points)
    accel, fallback = aitken([pt.value for pt in points])
    if target != 0.0:
        rel_gap = abs(limit - target) / abs(target)
    else:
        rel_gap = abs(limit)
    verdict = "pass" if rel_gap <= tolerance else "fail"
    n_fit = schedule.fit_points or len(points)
    fit_noise = math.sqrt(rss / max(1, n_fit - 3)) if n_fit > 3 else 0.0
    uncertainty = max(min(pt.stderr for pt in points), fit_noise)
    return SweepResult(theorem=theorem, function=f.name, m=m, p=p,
                       body=body.descriptor(), points=points,
                       extrapolated_limit=limit, fitted_rate=rate,
                       aitken_limit=accel, aitken_fallback=fallback,
                       target=target, rel_gap=rel_gap, tolerance=tolerance,
                       verdict=verdict, limit_uncertainty=uncertainty,
                       info={"point_info": infos})
