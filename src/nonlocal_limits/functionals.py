"""The four nonlocal functionals and their closed-form local limits.

Level-set (threshold) variants integrate delta^p / gauge^(dim + m p) over the
pair region where a remainder exceeds delta; mollified variants integrate
|remainder|^p / gauge^(m p) against a concentration profile of the gauge
distance.  Each has a centered-remainder and a Taylor-remainder form, giving
the four theorem tags used throughout configs and reports:

    nguyen_centered   level set,  centered remainder
    bbm_centered      mollified,  centered remainder
    nguyen_taylor     level set,  Taylor remainder
    bbm_taylor        mollified,  Taylor remainder

All four share the same local limit integral

    I = integral_x integral_K |diagonal m-form of f at x in direction y|^p dy dx

and differ only in the constant in front of it.  The inner integrand is
positively homogeneous of degree m p in y, so ``local_limit`` computes I by
deterministic quadrature for every body: a tensor Gauss-Legendre grid in x
times the cone-measure boundary rule ``engine.cone_nodes`` in y, divided by
dim + m p.  No target depends on the seed or the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bodies import ConvexBody, body_points
from .calculus import (centered_remainder, direction_bound, directional_m_form,
                       m_form_tableau, multi_indices, taylor_remainder)
from .engine import (TARGET_STREAM, IntegralEstimate, IntegrationPlan, MollifierRadial,
                     PowerLaw, cone_nodes, integrate_double, monte_carlo, outer_points,
                     sphere_measure, tensor_grid)
from .functions import TestFunction
from .mollifiers import MollifierFamily, ensure_certified

THEOREMS = ("nguyen_centered", "bbm_centered", "nguyen_taylor", "bbm_taylor")

MAX_M = 3
MAX_DIM = 3
P_RANGE = (1.0, 8.0)

#: discarded radial mass fraction for mollified kernels (see MollifierRadial)
MASS_FLOOR = 1e-4


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionalSpec:
    """One functional evaluation: which form, on what data, at which parameter."""

    theorem: str
    f: TestFunction
    body: ConvexBody
    m: int
    p: float
    parameter: float
    mollifier: MollifierFamily | None = None


def validate_spec(spec: FunctionalSpec) -> None:
    if spec.theorem not in THEOREMS:
        raise SpecError(f"unknown theorem {spec.theorem!r}; expected one of {THEOREMS}")
    if not P_RANGE[0] < spec.p <= P_RANGE[1]:
        raise SpecError(f"p must satisfy p > 1 (and p <= {P_RANGE[1]}); got {spec.p}")
    if not 1 <= spec.m <= MAX_M:
        raise SpecError(f"m must be in 1..{MAX_M}; got {spec.m}")
    if spec.body.dim > MAX_DIM:
        raise SpecError(f"dim must be <= {MAX_DIM}")
    if spec.f.dim != spec.body.dim:
        raise SpecError(f"function dim {spec.f.dim} != body dim {spec.body.dim}")
    if not spec.f.integrable:
        raise SpecError(f"function {spec.f.name!r} is registered for identity tests "
                        f"only and is rejected by the functional evaluators")
    if spec.f.smoothness_order < spec.m + 1:
        raise SpecError("function smoothness must exceed the remainder order")
    if spec.parameter <= 0:
        raise SpecError("parameter must be positive")
    if spec.theorem.startswith("bbm"):
        if spec.mollifier is None:
            raise SpecError("mollified functionals require a mollifier")
        if spec.mollifier.dim != spec.body.dim:
            raise SpecError("mollifier dimension mismatch")
        if abs(spec.mollifier.epsilon - spec.parameter) > 1e-12 * spec.parameter:
            raise SpecError("mollifier epsilon must equal the spec parameter")


def theorem_constant(theorem: str, m: int, p: float, dim: int) -> float:
    """Constant multiplying the shared local integral.

    The level-set constants are the mollified ones divided by m*p, computed
    through that exact relation so the ratio is a single float division.
    """
    if theorem == "bbm_centered":
        return (dim + m * p) / m ** (m * p)
    if theorem == "nguyen_centered":
        return theorem_constant("bbm_centered", m, p, dim) / (m * p)
    if theorem == "bbm_taylor":
        return (dim + m * p) / math.factorial(m) ** p
    if theorem == "nguyen_taylor":
        return theorem_constant("bbm_taylor", m, p, dim) / (m * p)
    raise SpecError(f"unknown theorem {theorem!r}")


def _remainder(theorem: str):
    if theorem.endswith("centered"):
        return centered_remainder
    return taylor_remainder


def _box_radius(spec: FunctionalSpec, plan: IntegrationPlan) -> float:
    if plan.outer_box_radius is not None:
        if plan.outer_box_radius < spec.f.support_radius:
            raise SpecError("outer_box_radius is below the function support radius; "
                            "declared-tail error would exceed tolerance")
        return float(plan.outer_box_radius)
    return spec.f.support_radius + 2.0


# ---------------------------------------------------------------------------
# Level-set functionals
# ---------------------------------------------------------------------------

def _cutoff_scale(spec: FunctionalSpec) -> float:
    # |centered remainder| <= (t/m)^m M(sigma), |Taylor remainder| <= t^m M(sigma)/m!
    if spec.theorem.endswith("centered"):
        return float(spec.m)
    return math.factorial(spec.m) ** (1.0 / spec.m)


def _level_set_radial_cutoff(spec: FunctionalSpec) -> float:
    """Largest Euclidean radius below which the threshold provably cannot fire.

    Uses the direction-uniform bound M on the diagonal m-form; the indicator is
    identically zero below the returned radius, so truncating there is exact.
    """
    return _cutoff_scale(spec) * (spec.parameter / spec.f.m_form_bound(spec.m)) ** (1.0 / spec.m)


def _directional_cutoff(spec: FunctionalSpec):
    """Per-direction exact cutoff t_min(sigma); sharper than the uniform one."""
    scale = _cutoff_scale(spec)
    m, delta, f = spec.m, spec.parameter, spec.f

    def cutoff(sigma):
        bound = np.maximum(direction_bound(f, m, sigma), 1e-300)
        return scale * (delta / bound) ** (1.0 / m)

    return cutoff


def _level_set_tail_bounds(spec: FunctionalSpec, box_radius: float,
                           t_max: float, t_min: float) -> dict:
    """Conservative bounds on the truncated contributions (reported, not added)."""
    dim, m, p = spec.body.dim, spec.m, spec.p
    a = 1.0 / spec.body.outer_radius  # gauge >= a * |.| on directions
    mp = m * p
    common = spec.parameter ** p * sphere_measure(dim) * a ** (-(dim + mp)) / mp
    beyond_t_max = common * (2.0 * box_radius) ** dim * t_max ** (-mp)
    reach = max(box_radius - spec.f.support_radius, t_min)
    outside_box = common * (2.0 * spec.f.support_radius) ** dim * (m + 1) * reach ** (-mp)
    return {"tail_beyond_t_max": beyond_t_max, "tail_outside_box": outside_box}


def _evaluate_level_set(spec: FunctionalSpec, plan: IntegrationPlan) -> IntegralEstimate:
    f, body, m, p, delta = spec.f, spec.body, spec.m, spec.p, spec.parameter
    remainder = _remainder(spec.theorem)
    if f.m_form_bound(m) == 0.0:
        return IntegralEstimate(0.0, 0.0, info={"exact_zero": "zero function"})
    if spec.theorem.endswith("centered") and delta >= 2.0 ** m * f.sup_abs:
        return IntegralEstimate(0.0, 0.0, info={"exact_zero": "threshold above remainder range"})

    box_radius = _box_radius(spec, plan)
    t_min = _level_set_radial_cutoff(spec)
    t_max = plan.t_max if plan.t_max is not None else m * (box_radius + f.support_radius) + 2.0
    if t_min >= t_max:
        est = IntegralEstimate(0.0, 0.0, info={"exact_zero": "radial cutoff beyond t_max"})
        est.info.update(_level_set_tail_bounds(spec, box_radius, t_max, t_min))
        return est

    power = body.dim + m * p

    def kernel(x, sigma, t):
        # delta^p (t g)^-(N+mp) t^(N-1) over the law's shape t^-(1+mp)
        y = x + t[:, np.newaxis] * sigma
        fires = np.abs(remainder(f, x, y, m)) > delta
        out = np.zeros_like(t)
        if np.any(fires):
            out[fires] = delta ** p * body.gauge(sigma[fires]) ** (-power)
        return out

    law = PowerLaw(-(1.0 + m * p), _directional_cutoff(spec), t_max)
    est = integrate_double(kernel, plan.with_box(box_radius), body.dim, law, f.proposal)
    est.info.update(_level_set_tail_bounds(spec, box_radius, t_max, t_min))
    est.info["radial_bounds"] = (t_min, t_max)
    return est


# ---------------------------------------------------------------------------
# Mollified functionals
# ---------------------------------------------------------------------------

def _evaluate_mollified(spec: FunctionalSpec, plan: IntegrationPlan) -> IntegralEstimate:
    f, body, m, p = spec.f, spec.body, spec.m, spec.p
    moll = spec.mollifier
    ensure_certified(moll)
    remainder = _remainder(spec.theorem)
    if f.m_form_bound(m) == 0.0 and f.sup_abs == 0.0:
        return IntegralEstimate(0.0, 0.0, info={"exact_zero": "zero function"})

    if plan.outer_box_radius is not None:
        box_radius = _box_radius(spec, plan)
    else:
        # pairs contribute only when a node of the remainder is in the support
        box_radius = f.support_radius + moll.support_upper * body.outer_radius + 0.5
    mp = m * p

    def kernel(x, sigma, t):
        # |R|^p (t g)^-mp rho t^(N-1) over the law's shape (t g)^(N-1) rho g;
        # R = 0 is skipped because (t g)^-mp can overflow where R underflows
        vals = np.abs(remainder(f, x, x + t[:, np.newaxis] * sigma, m))
        out = np.zeros_like(t)
        live = vals > 0.0
        g = body.gauge(sigma[live])
        out[live] = vals[live] ** p * (t[live] * g) ** (-mp) * g ** (-body.dim)
        return out

    law = MollifierRadial(moll, body.gauge, mass_floor=MASS_FLOOR)
    est = integrate_double(kernel, plan.with_box(box_radius), body.dim, law, f.proposal)
    a = 1.0 / body.outer_radius
    floor_bias = (MASS_FLOOR * (2.0 * box_radius) ** body.dim * sphere_measure(body.dim)
                  * f.m_form_bound(m) ** p * m ** (-mp) * a ** (-(mp + body.dim)))
    est.info["radial_floor_bias"] = floor_bias
    return est


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def evaluate(spec: FunctionalSpec, plan: IntegrationPlan) -> IntegralEstimate:
    """Evaluate the functional named by ``spec.theorem`` at ``spec.parameter``."""
    validate_spec(spec)
    if spec.theorem.startswith("nguyen"):
        return _evaluate_level_set(spec, plan)
    return _evaluate_mollified(spec, plan)


# ---------------------------------------------------------------------------
# Local limits
# ---------------------------------------------------------------------------

_OUTER_NODES_DEFAULT = {1: 160, 2: 96, 3: 40}


def _outer_grid(f: TestFunction, nodes: int):
    """Tensor Gauss-Legendre grid on the support box of f."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    return tensor_grid([(f.support_radius * xg, f.support_radius * wg)] * f.dim)


@lru_cache(maxsize=None)
def _shared_integral_quadrature(f: TestFunction, body: ConvexBody, m: int, p: float,
                                outer_nodes: int) -> float:
    # |m-form(x)[y]|^p is homogeneous of degree m p in y: the cone rule integrates it over K
    xs, wx = _outer_grid(f, outer_nodes)
    zs, wz = cone_nodes(body)
    total = 0.0
    block = max(1, (1 << 22) // len(wz))
    for start in range(0, len(wx), block):
        tab = m_form_tableau(f, m, xs[start:start + block], zs)
        total += float(wx[start:start + block] @ (np.abs(tab) ** p) @ wz)
    return total / (body.dim + m * p)


def shared_local_integral(f: TestFunction, body: ConvexBody, m: int, p: float,
                          outer_nodes: int | None = None,
                          mc: IntegrationPlan | None = None) -> IntegralEstimate:
    """The double integral shared by all four local limits.

    Deterministic and cached by default: a tensor Gauss-Legendre grid in x
    times the cone-measure rule ``engine.cone_nodes`` of K in y, for every
    body kind.  An ``mc`` Monte Carlo plan gives an independent statistical
    cross-check instead.
    """
    if mc is not None:
        def chunk(rng: np.random.Generator, n: int, offset: int) -> np.ndarray:
            xs, wx = outer_points(rng, n, f.dim, f.support_radius, f.proposal, 1.0)
            ys, wy = body_points(body, rng, n)
            return wx * wy * np.abs(directional_m_form(f, xs, ys, m)) ** p

        return monte_carlo(mc, TARGET_STREAM, chunk)
    nodes = outer_nodes if outer_nodes is not None else _OUTER_NODES_DEFAULT[f.dim]
    value = _shared_integral_quadrature(f, body, m, float(p), nodes)
    return IntegralEstimate(value, 0.0, info={"method": "cone_quadrature"})


def local_limit(spec: FunctionalSpec, outer_nodes: int | None = None,
                mc: IntegrationPlan | None = None) -> float:
    """Closed-form limit target: theorem constant times the shared integral."""
    shared = shared_local_integral(spec.f, spec.body, spec.m, spec.p,
                                   outer_nodes=outer_nodes, mc=mc)
    return theorem_constant(spec.theorem, spec.m, spec.p, spec.body.dim) * shared.value


# ---------------------------------------------------------------------------
# Boundedness diagnostic
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    deltas: list[float]
    values: list[float]
    derivative_norm: float
    bound_factor: float
    ratios: list[float]
    max_ratio: float
    passed: bool
    worst_delta: float


def derivative_norm_p(f: TestFunction, m: int, p: float,
                      nodes: int | None = None) -> float:
    """sum over |alpha| = m of integral |d^alpha f|^p over the support box.

    One natural reading of the p-norm of the full order-m derivative vector;
    the bound factor of ``uniform_bound_check`` absorbs the convention.
    """
    xs, wx = _outer_grid(f, nodes if nodes is not None else _OUTER_NODES_DEFAULT[f.dim])
    total = 0.0
    for alpha in multi_indices(f.dim, m):
        total += float(wx @ np.abs(f.partial(alpha, xs)) ** p)
    return total


def uniform_bound_check(spec: FunctionalSpec, delta_grid, plan: IntegrationPlan,
                        bound_factor: float = 50.0) -> BoundReport:
    """Evaluate a level-set functional along a grid and compare to the derivative norm.

    The functional must stay below bound_factor * derivative_norm_p at every
    threshold; the report records the observed maximum ratio.
    """
    if not spec.theorem.startswith("nguyen"):
        raise SpecError("uniform_bound_check applies to the level-set functionals")
    deltas = [float(d) for d in delta_grid]
    if not deltas:
        raise ValueError("delta_grid must be nonempty")
    norm = derivative_norm_p(spec.f, spec.m, spec.p)
    values, ratios = [], []
    for delta in deltas:
        point = FunctionalSpec(spec.theorem, spec.f, spec.body, spec.m, spec.p, delta)
        values.append(evaluate(point, plan).value)
        ratios.append(values[-1] / norm if norm > 0 else 0.0)
    max_ratio = max(ratios)
    worst = deltas[ratios.index(max_ratio)]
    return BoundReport(deltas=deltas, values=values, derivative_norm=norm,
                       bound_factor=bound_factor, ratios=ratios, max_ratio=max_ratio,
                       passed=max_ratio <= bound_factor, worst_delta=worst)
