"""The four nonlocal functionals and their closed-form local limits.

Level-set (threshold) variants integrate delta^p / gauge^(dim + m p) over the
pair region where a remainder exceeds delta; mollified variants integrate
|remainder|^p / gauge^(m p) against a concentration profile of the gauge
distance, using the leading term c_m t^m d^m f(x)[sigma] of the remainder
below the radius t_c = eps^(1/(m+1)), where rounding swamps it.  Each
functional has a centered-remainder and a Taylor-remainder form, giving
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
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .bodies import ConvexBody
from .calculus import (centered_remainder, direction_bound, directional_m_form,
                       m_form_tableau, multi_indices, taylor_remainder)
from .engine import (IntegralEstimate, IntegrationPlan, MollifierRadial, PowerLaw, cone_nodes,
                     gauss_legendre, integrate_double, sphere_measure, tensor_grid)
from .functions import TestFunction
from .mollifiers import KINDS, MollifierFamily, ensure_certified, make_mollifier

THEOREMS = ("nguyen_centered", "bbm_centered", "nguyen_taylor", "bbm_taylor")

MAX_M = 3
MAX_DIM = 3
P_RANGE = (1.0, 8.0)


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionalSpec:
    """One functional evaluation: which form, on what data, at which parameter, the
    profile kind of a mollified form, and the ``grid`` of parameters run in one
    Monte Carlo pass with it (empty: it alone)."""

    theorem: str
    f: TestFunction
    body: ConvexBody
    m: int
    p: float
    parameter: float
    mollifier_kind: str | None = None
    grid: tuple[float, ...] = ()

    @property
    def mollifier(self) -> MollifierFamily:
        """The profile of a mollified form: its kind at the body's dim, epsilon = parameter."""
        return make_mollifier(self.mollifier_kind, self.body.dim, self.parameter, self.p)


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
    if spec.grid and spec.parameter not in spec.grid:
        raise SpecError("parameter must be one of the spec's grid values")
    if spec.theorem.startswith("bbm") and spec.mollifier_kind not in KINDS:
        raise SpecError(f"mollified functionals require a mollifier kind in {KINDS}; "
                        f"got {spec.mollifier_kind!r}")


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


def _box_radius(spec: FunctionalSpec) -> float:
    if spec.theorem.startswith("nguyen"):
        return spec.f.support_radius + 2.0
    # pairs contribute only when a node of the remainder is in the support
    return spec.f.support_radius + spec.mollifier.support_upper * spec.body.outer_radius + 0.5


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


def _directional_cutoff(spec: FunctionalSpec, deltas):
    """Per-direction exact cutoffs t_min(sigma), one row per delta; sharper than the uniform."""
    scale, m, f = _cutoff_scale(spec), spec.m, spec.f
    delta = np.asarray(deltas, dtype=float)[:, np.newaxis]

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


def _level_set_box(spec: FunctionalSpec) -> tuple[float, float]:
    """The outer box radius r and the radial truncation t_max = m (r + support) + 2;
    neither depends on delta."""
    r = _box_radius(spec)
    return r, spec.m * (r + spec.f.support_radius) + 2.0


def _level_set_pass(specs: list[FunctionalSpec], plan: IntegrationPlan,
                    box_radius: float) -> list[IntegralEstimate]:
    spec = specs[0]
    f, body, m, p = spec.f, spec.body, spec.m, spec.p
    remainder = _remainder(spec.theorem)
    t_max = _level_set_box(spec)[1]
    deltas = [s.parameter for s in specs]
    power = body.dim + m * p

    def kernel(x, sigma, t):
        # delta^p (t g)^-(N+mp) t^(N-1) over the law's shape t^-(1+mp), per threshold
        out, fx = np.empty(t.shape), f.eval(x)
        g_pow = body.gauge(sigma) ** (-power)
        for j, delta in enumerate(deltas):
            fires = np.abs(remainder(f, x, x + t[j][:, np.newaxis] * sigma, m, fx)) > delta
            out[j] = np.where(fires, delta ** p * g_pow, 0.0)
        return out

    law = PowerLaw(-(1.0 + m * p), _directional_cutoff(spec, deltas), t_max)
    estimates = integrate_double(kernel, plan, box_radius, body.dim, law, f.proposal)
    for point, est in zip(specs, estimates):
        t_min = _level_set_radial_cutoff(point)
        est.info.update(_level_set_tail_bounds(point, box_radius, t_max, t_min),
                        radial_bounds=(t_min, t_max))
    return estimates


# ---------------------------------------------------------------------------
# Mollified functionals
# ---------------------------------------------------------------------------

def _small_radius_bias(spec: FunctionalSpec, box_radius: float, t_c: float,
                       c_m: float) -> float:
    """Bound on how much the leading-term payoff below t_c moves the estimate.

    Let M_k = ``f.m_form_bound(k)`` and D = d^m f(x)[sigma].  Along the
    segment every derivative is diagonal in sigma, so the integral forms of R
    (centered: d^m f(x + S h)[h] averaged over the m-cube, h = t sigma / m,
    E[S] = m/2; Taylor: kernel (1-s)^(m-1)/(m-1)!) give
    |R -+ c_m t^m D| <= c_m t^(m+1) M_(m+1).  So for t < t_c,
    a = |R| / (c_m t^m) and b = |D| differ by at most delta = t_c M_(m+1) and
    are at most M_m + delta; with g = gauge(sigma) >= 1/outer_radius, the
    payoffs c_m^p {a, b}^p g^-(mp+N) differ by at most
    c_m^p p (M_m + delta)^(p-1) delta outer_radius^(mp+N).  Rows below t_c
    have gauge radius below t_c / inner_radius, of probability at most
    mass_below(t_c / inner_radius); the box volume (2 box_radius)^N and the
    sphere measure complete the bound.
    """
    f, body, m, p = spec.f, spec.body, spec.m, spec.p
    delta = t_c * f.m_form_bound(m + 1)
    row = (c_m ** p * p * (f.m_form_bound(m) + delta) ** (p - 1.0) * delta
           * body.outer_radius ** (m * p + body.dim))
    return ((2.0 * box_radius) ** body.dim * sphere_measure(body.dim)
            * spec.mollifier.mass_below(t_c / body.inner_radius) * row)


def _mollified_pass(specs: list[FunctionalSpec], plan: IntegrationPlan,
                    box_radius: float) -> list[IntegralEstimate]:
    spec = specs[0]
    f, body, m, p = spec.f, spec.body, spec.m, spec.p
    remainder = _remainder(spec.theorem)
    mp = m * p
    # relative errors: about eps / t^m from rounding in R, about t in its leading term
    t_c = float(np.finfo(float).eps) ** (1.0 / (m + 1))
    c_m = float(m) ** -m if spec.theorem.endswith("centered") else 1.0 / math.factorial(m)

    def kernel(x, sigma, t):
        # |R|^p (t g)^-mp rho t^(N-1) over the law's shape (t g)^(N-1) rho g, per profile
        g = body.gauge(sigma)
        g_dim = g ** (-body.dim)
        out, fx = np.empty(t.shape), f.eval(x)
        for j, tj in enumerate(t):
            vals = np.abs(remainder(f, x, x + tj[:, np.newaxis] * sigma, m, fx))
            out[j] = vals ** p * (np.maximum(tj, t_c) * g) ** (-mp) * g_dim
            small = tj < t_c
            if np.any(small):
                form = np.abs(directional_m_form(f, x[small], sigma[small], m))
                out[j, small] = (c_m * form) ** p * g[small] ** (-mp - body.dim)
        return out

    law = MollifierRadial([point.mollifier for point in specs], body.gauge)
    estimates = integrate_double(kernel, plan, box_radius, body.dim, law, f.proposal)
    for point, est in zip(specs, estimates):
        est.info["small_radius_bias"] = _small_radius_bias(point, box_radius, t_c, c_m)
    return estimates


# ---------------------------------------------------------------------------
# Dispatch: one pass per grid
# ---------------------------------------------------------------------------

def _exact_zero(spec: FunctionalSpec) -> IntegralEstimate | None:
    """The estimate of a point that is 0 without sampling, or None."""
    f, m, level_set = spec.f, spec.m, spec.theorem.startswith("nguyen")
    if not level_set:
        ensure_certified(spec.mollifier)
    if f.m_form_bound(m) == 0.0 and (level_set or f.sup_abs == 0.0):
        return IntegralEstimate(0.0, 0.0, info={"exact_zero": "zero function"})
    if not level_set:
        return None
    if spec.theorem.endswith("centered") and spec.parameter >= 2.0 ** m * f.sup_abs:
        return IntegralEstimate(0.0, 0.0, info={"exact_zero": "threshold above remainder range"})
    box_radius, t_max = _level_set_box(spec)
    t_min = _level_set_radial_cutoff(spec)
    if t_min < t_max:
        return None
    tails = _level_set_tail_bounds(spec, box_radius, t_max, t_min)
    return IntegralEstimate(0.0, 0.0, info={"exact_zero": "radial cutoff beyond t_max", **tails})


def _at(spec: FunctionalSpec, value: float) -> FunctionalSpec:
    """The spec at another parameter of its grid; validated."""
    point = replace(spec, parameter=value)
    validate_spec(point)
    return point


@lru_cache(maxsize=1)
def _grid_pass(spec: FunctionalSpec, plan: IntegrationPlan) -> dict[float, IntegralEstimate]:
    """The nonzero points of ``spec.grid`` from one integrate_double call on the largest of
    their boxes, which holds every point's pairs (a shell's box grows with epsilon)."""
    points = [point for point in (_at(spec, value) for value in spec.grid)
              if _exact_zero(point) is None]
    radius = max(_box_radius(point) for point in points)
    run = _level_set_pass if spec.theorem.startswith("nguyen") else _mollified_pass
    return {point.parameter: est for point, est in zip(points, run(points, plan, radius))}


def evaluate(spec: FunctionalSpec, plan: IntegrationPlan) -> IntegralEstimate:
    """Evaluate the functional named by ``spec.theorem`` at ``spec.parameter``.

    An exact zero returns at once.  A Monte Carlo plan runs the nonzero points
    of ``spec.grid`` in one pass and keeps the last pass, so a sweep's first
    call pays for all its points; quadrature integrates the one point.
    """
    validate_spec(spec)
    if (zero := _exact_zero(spec)) is not None:
        return zero
    grid = (spec.grid if plan.method == "monte_carlo" else ()) or (spec.parameter,)
    est = _grid_pass(replace(_at(spec, grid[0]), grid=grid), plan)[spec.parameter]
    return IntegralEstimate(est.value, est.stderr, dict(est.info))


# ---------------------------------------------------------------------------
# Local limits
# ---------------------------------------------------------------------------

_OUTER_NODES_DEFAULT = {1: 160, 2: 96, 3: 40}


def _outer_grid(f: TestFunction, nodes: int):
    """Tensor Gauss-Legendre grid on the support box of f."""
    xg, wg = gauss_legendre(nodes)
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
                          outer_nodes: int | None = None) -> IntegralEstimate:
    """The double integral shared by all four local limits.

    Deterministic and cached: a tensor Gauss-Legendre grid in x times the
    cone-measure rule ``engine.cone_nodes`` of K in y, for every body kind.
    """
    nodes = outer_nodes if outer_nodes is not None else _OUTER_NODES_DEFAULT[f.dim]
    value = _shared_integral_quadrature(f, body, m, float(p), nodes)
    return IntegralEstimate(value, 0.0, info={"method": "cone_quadrature"})


def local_limit(spec: FunctionalSpec, outer_nodes: int | None = None) -> float:
    """Closed-form limit target: theorem constant times the shared integral."""
    shared = shared_local_integral(spec.f, spec.body, spec.m, spec.p, outer_nodes=outer_nodes)
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
    ``BOUND_FACTOR`` absorbs the convention.
    """
    xs, wx = _outer_grid(f, nodes if nodes is not None else _OUTER_NODES_DEFAULT[f.dim])
    total = 0.0
    for alpha in multi_indices(f.dim, m):
        total += float(wx @ np.abs(f.partial(alpha, xs)) ** p)
    return total


#: how far above ``derivative_norm_p`` a level-set value may lie in ``uniform_bound_check``
BOUND_FACTOR = 50.0


def uniform_bound_check(spec: FunctionalSpec, delta_grid, plan: IntegrationPlan) -> BoundReport:
    """Evaluate a level-set functional along a grid and compare to the derivative norm.

    The functional must stay below BOUND_FACTOR * derivative_norm_p at every
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
        point = FunctionalSpec(spec.theorem, spec.f, spec.body, spec.m, spec.p, delta,
                               grid=tuple(deltas))
        values.append(evaluate(point, plan).value)
        ratios.append(values[-1] / norm if norm > 0 else 0.0)
    max_ratio = max(ratios)
    worst = deltas[ratios.index(max_ratio)]
    return BoundReport(deltas=deltas, values=values, derivative_norm=norm,
                       bound_factor=BOUND_FACTOR, ratios=ratios, max_ratio=max_ratio,
                       passed=max_ratio <= BOUND_FACTOR, worst_delta=worst)
