"""The four nonlocal functionals and their closed-form local limits.

Level-set (threshold) variants integrate delta^p / gauge^(dim + m p) over the
pair region where a remainder exceeds delta; mollified variants integrate
|remainder|^p / gauge^(m p) against a concentration profile of the gauge
distance, using the leading term c_m t^m d^m f(x)[sigma] of the remainder
below the radius t_c = (eps / c_m)^(1/(m+1)), where rounding swamps it.  Each
functional has a centered-remainder and a Taylor-remainder form, giving
the four theorem tags used throughout configs and reports:

    nguyen_centered   level set,  centered remainder
    bbm_centered      mollified,  centered remainder
    nguyen_taylor     level set,  Taylor remainder
    bbm_taylor        mollified,  Taylor remainder

All four share the same local limit integral

    I = integral_x integral_K |diagonal m-form of f at x in direction y|^p dy dx

and differ only in the constant in front of it.  The inner integrand is
positively homogeneous of degree m p in y, so ``local_limit`` computes I with
the deterministic rules of ``quadrature`` for every body: a tensor grid in x
(``_outer_grid``) times the cone-measure boundary rule (``cone_nodes``) in y,
over dim + m p.  For p = 2 the x and y sums factor through Gram matrices
(``calculus.m_form_gram``); other p sum the N_x x N_z tableau of m-form values.
No target depends on the seed or the worker count.

The Monte Carlo points of a parameter grid run in one pass over the largest
of their outer boxes (``engine.integrate_double``): every point shares a
block's outer points, weights, directions and radial coordinate v, and each
pass builds its radial law, which sets what else they share.  Its kernel
prepares the law's direction state once per block and draws the radii t from
v.  A mollified point draws its own radius from ``engine.MollifierRadial`` and
is bitwise a pass of its own on that box; level-set points are the rungs of
one ladder of strata of each ray (``engine.PowerLaw``), so a point shares the
draws of the strata above it and lies within noise of its lone pass.

Both kernels evaluate the remainder R(t) at y = x + t sigma along the rays
of a block (``_rays``).  A centered pass of a function whose profiles are all
``GaussianProfile`` computes 2 x.sigma and |sigma|^2 once per block and each
row in closed form (``calculus.gaussian_centered_remainder``): one expm1 per
node and no point y, and more accurate than the node formula as t -> 0.  It
needs f(x) a normal double on the whole box, dim r^2 < 708; a larger box,
Taylor forms and every other function take the node formula at the segment
ends y, each row in the thread's own buffer.  f(x) is evaluated once per
block for all points.

A mollified pass hands one kernel to every plan.  Per block it computes the
gauge g = gauge(sigma), the radii t and g^-(mp+N) once; each row pays
|R / t^m|^p g^-(mp+N), and below t_c the leading term l = b g^-(mp+N),
b = |c_m d^m f(x)[sigma]|^p, computed on the columns that have such a row.
With p = 2 in dim <= 2 a Monte Carlo pass uses l as a control variate: the
kernel computes b on every column and subtracts it from every row (exactly
0 below t_c), and the pass adds back C, the integral of l over box x sphere,
by Gram quadrature on an x grid split at the profiles' breakpoints and a
circle rule split at the body's breakpoints.  C is the local limit itself, up to
the box tail, so the sampled part is the gap F_eps - limit, whose variance
vanishes with eps; ``hit_fraction`` then counts the nonzero gaps, and each
point reports C as ``lead_integral``.  For other p, |d^m f(x)[sigma]|^p has
kinks or a high degree that no fixed rule for C resolves to the sampling
error, and the 3-D sphere rule is not split at box and polytope kinks,
so those passes, quadrature plans and level sets keep the plain payoff.

A Monte Carlo pass is a randomized rank-1 lattice rule, which converges fast
only on periodic integrands.  A shell payoff is smooth in v but not periodic,
so a Monte Carlo shell pass draws its radii at the tent 1 - |2v - 1| of v
(``_tent``), which keeps the uniform law and makes the payoff's periodic
extension continuous (Hickernell, MCQMC 2000).  The other passes draw at v
itself: quadrature hands the kernel Gauss-Legendre nodes, at which a tent
would put a kink at v = 1/2, and the tent was mixed on fractional profiles
and worse on the level sets of an ellipse.

A level-set pass sorts its thresholds delta_1 > .. > delta_K, whatever the
grid's order, and their cutoffs cut each ray into the strata of its
``PowerLaw``; the remainder is evaluated once per stratum, K times per
ray, and point j averages the j strata of its range [lo_j, t_max].  The
smallest threshold thus averages K radial draws per ray, the largest keeps
the plain estimator, and ``hit_fraction`` counts the rays on which any of a
point's strata fires.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .bodies import ConvexBody
from .calculus import (centered_remainder, direction_bound, directional_m_form,
                       gaussian_centered_remainder, m_form_gram, m_form_tableau, taylor_remainder)
from .engine import (IntegralEstimate, IntegrationPlan, MollifierRadial, PowerLaw,
                     integrate_double, sphere_measure)
from .functions import MAX_DIM, GaussianProfile, TestFunction
from .mollifiers import KINDS, MollifierFamily, ensure_certified, make_mollifier
from .quadrature import _outer_grid, _split_grid, cone_nodes, sphere_quadrature

THEOREMS = ("nguyen_centered", "bbm_centered", "nguyen_taylor", "bbm_taylor")

MAX_M = 3
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
        raise SpecError(f"function {spec.f.name!r} is for identity tests only and is "
                        f"rejected by the functional evaluators")
    if spec.parameter <= 0:
        raise SpecError("parameter must be positive")
    if spec.grid and spec.parameter not in spec.grid:
        raise SpecError("parameter must be one of the spec's grid values")
    if spec.theorem.startswith("bbm") and spec.mollifier_kind not in KINDS:
        raise SpecError(f"mollified functionals require a mollifier kind in {KINDS}; "
                        f"got {spec.mollifier_kind!r}")
    if spec.theorem.startswith("nguyen") and spec.mollifier_kind is not None:
        raise SpecError(f"level-set functionals take no mollifier kind; "
                        f"got {spec.mollifier_kind!r}")


def theorem_constant(theorem: str, m: int, p: float, dim: int) -> float:
    """Constant multiplying the shared local integral: (dim + m p) / m^(m p) (centered) or
    (dim + m p) / (m!)^p (Taylor) for the mollified forms, and the level-set constants are
    those divided by m p, one float division."""
    if theorem not in THEOREMS:
        raise SpecError(f"unknown theorem {theorem!r}")
    mollified = (dim + m * p) / (m ** (m * p) if theorem.endswith("centered")
                                 else math.factorial(m) ** p)
    return mollified / (m * p) if theorem.startswith("nguyen") else mollified


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
    """Largest Euclidean radius below which the threshold cannot fire, if M bounds.

    Uses the direction-uniform bound M on the diagonal m-form; when M is a true bound
    the indicator is identically zero below the returned radius, so truncating there
    is exact.  M rests on ``Profile1D.sup_derivative``, a grid maximum times 1.02 that
    nothing proves to be a bound (ROADMAP: certified derivative bounds, open).
    """
    return _cutoff_scale(spec) * (spec.parameter / spec.f.m_form_bound(spec.m)) ** (1.0 / spec.m)


def _reach(spec: FunctionalSpec):
    """The per-direction factor of the cutoffs: the cutoff of threshold delta in
    direction sigma is ``_cutoff_scale(spec)`` delta^(1/m) times reach(sigma)."""
    m, f = spec.m, spec.f

    def reach(sigma):
        return np.maximum(direction_bound(f, m, sigma), 1e-300) ** (-1.0 / m)

    return reach


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


def _segment_ends(workspace, x, t, sigma):
    """The far ends y = x + t sigma (n, dim) of the segments, in the thread's own buffer
    ``workspace.y``: the next call overwrites them."""
    y = getattr(workspace, "y", None)
    if y is None or y.size < x.size:
        y = workspace.y = np.empty(x.size)
    y = y[:x.size].reshape(x.shape)
    # a column at a time: a broadcast over the short last axis is slower in 2-D and 3-D
    for i in range(x.shape[1]):
        np.multiply(t, sigma[:, i], out=y[:, i])
        y[:, i] += x[:, i]
    return y


#: f(x) = exp(-|x|^2) is a normal double while |x|^2 < 708 (the least is exp(-708.4))
_NORMAL_EXPONENT = 708.0


def _rays(spec: FunctionalSpec, box_radius: float):
    """The remainder of a pass along its rays: ``along(x, sigma, fx)`` prepares a block of
    rays from x in direction sigma, f(x) = fx, and returns R(t), the remainder at the
    points y = x + t sigma for a row t of radii.

    A centered form whose profiles are all ``GaussianProfile`` takes the closed form,
    2 x.sigma and |sigma|^2 once per block, while f(x) is a normal double on the whole
    box, dim r^2 < 708; a proposal point outside the box has |x|^2 at most
    2 log(2^53) = 73.4 per Box-Muller pair, below 148 in 3-D, so f(x) is normal there
    too.  Other passes build y in the thread's own buffer for the node formula.
    """
    f, m = spec.f, spec.m
    if (spec.theorem.endswith("centered")
            and all(type(profile) is GaussianProfile for profile in f.profiles)
            and spec.body.dim * box_radius ** 2 < _NORMAL_EXPONENT):
        def along(x, sigma, fx):
            # column by column: a reduction over the short last axis is many times slower
            twice_dot, norm2 = x[:, 0] * sigma[:, 0], sigma[:, 0] * sigma[:, 0]
            for i in range(1, x.shape[1]):
                twice_dot += x[:, i] * sigma[:, i]
                norm2 += sigma[:, i] * sigma[:, i]
            twice_dot *= 2.0
            return lambda t: gaussian_centered_remainder(fx, twice_dot, norm2, t, m)
        return along

    remainder = _remainder(spec.theorem)
    workspace = threading.local()

    def along(x, sigma, fx):
        return lambda t: remainder(f, x, _segment_ends(workspace, x, t, sigma), m, fx)
    return along


def _level_set_pass(specs: list[FunctionalSpec], plan: IntegrationPlan,
                    box_radius: float) -> list[IntegralEstimate]:
    """One pass over the thresholds of ``specs``, its estimates in their order.

    The thresholds delta_1 > .. > delta_K cut each ray at their cutoffs
    lo_1 >= .. >= lo_K into the strata of ``PowerLaw``, and the remainder is
    evaluated once per stratum.  Point j integrates over [lo_j, t_max], the
    strata 1..j, and no threshold fires below its own cutoff, so its payoff
    delta_j^p g^-(N+mp) sum_(k<=j) w_k 1{|R_k| > delta_j}, w_k the mass of
    stratum k, is unbiased: a stratified estimate on j draws per ray.
    """
    spec = specs[0]
    f, body, m, p = spec.f, spec.body, spec.m, spec.p
    along = _rays(spec, box_radius)
    t_max = _level_set_box(spec)[1]
    order = sorted(range(len(specs)), key=lambda i: -specs[i].parameter)
    deltas = [specs[i].parameter for i in order]
    power = body.dim + m * p
    scales = np.array([delta ** p for delta in deltas])[:, np.newaxis]
    law = PowerLaw(-(1.0 + m * p), [_cutoff_scale(spec) * delta ** (1.0 / m) for delta in deltas],
                   _reach(spec), t_max)

    # each thread's blocks reuse one histogram: with a fresh one per block the heap shrank
    # and grew again between blocks (a 2M-sample 2-D pass took 32k minor faults, not 2k)
    workspace = threading.local()

    def first_points(ray, tk, k, columns):
        """Where stratum k starts to pay in the flat histogram: row j of the first point
        j >= k with |R_k| > delta_j, or the spare row K if none fires, then the column.
        A function of its own, so that a stratum's arrays are freed before the next's."""
        size = np.abs(ray(tk))
        first = np.full(len(tk), len(deltas), dtype=np.min_scalar_type(len(deltas)))
        for delta in deltas[k:]:
            first -= size > delta
        index = np.multiply(first, len(tk), dtype=np.intp)
        index += columns
        return index

    def kernel(x, sigma, v):
        # delta^p (t g)^-(N+mp) t^(N-1) over the density t^-(1+mp) / w_k of stratum k
        ray, lo_s = along(x, sigma, f.eval(x)), law.prepare(sigma)
        t, mass = law.sample(v, lo_s), law.mass(lo_s)
        rows, n = t.shape
        paid = getattr(workspace, "paid", None)
        if paid is None or paid.size < (rows + 1) * n:
            paid = workspace.paid = np.empty((rows + 1) * n)
        paid = paid[:(rows + 1) * n]
        paid.fill(0.0)
        # each stratum adds its mass, point k's range less point k - 1's, where it starts to
        # pay; the rows summed up to j are then what point j's strata pay
        columns = np.arange(n)
        for k, tk in enumerate(t):
            stratum = mass[k] - mass[k - 1] if k else mass[0]
            np.add.at(paid, first_points(ray, tk, k, columns), stratum)
        paid = paid.reshape(-1, n)
        for j in range(1, rows):
            paid[j] += paid[j - 1]
        out = np.multiply(paid[:-1], body.gauge(sigma) ** (-power), out=mass)
        out *= scales
        return out

    estimates = [None] * len(specs)
    for i, est in zip(order, integrate_double(kernel, plan, box_radius, body.dim, f.proposal)):
        t_min = _level_set_radial_cutoff(specs[i])
        est.info.update(_level_set_tail_bounds(specs[i], box_radius, t_max, t_min),
                        radial_bounds=(t_min, t_max))
        estimates[i] = est
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


def _lead_integral(f: TestFunction, body: ConvexBody, m: int, c_m: float,
                   box_radius: float) -> float:
    """C = integral over the box [-box_radius, box_radius]^N and the unit sphere of the
    leading term (c_m d^m f(x)[sigma])^2 gauge(sigma)^-(2m+N), in Gram form.

    The x rule is ``_split_grid``, the sigma rule ``sphere_quadrature`` split at
    the gauge's kinks; neither is the cone rule of ``local_limit``, so C checks
    the target instead of repeating it.
    """
    xs, wx = _split_grid(f, box_radius)
    sigma, ws = sphere_quadrature(body)
    wy = ws * body.gauge(sigma) ** (-2.0 * m - body.dim)
    return c_m ** 2 * m_form_gram(f, m, xs, wx, sigma, wy)


def _tent(v):
    """The tent (baker's) map 1 - |2v - 1|: it keeps the uniform law on [0, 1), and the
    periodic extension of a smooth function of the folded v is continuous."""
    return 1.0 - np.abs(2.0 * v - 1.0)


def _mollified_pass(specs: list[FunctionalSpec], plan: IntegrationPlan,
                    box_radius: float) -> list[IntegralEstimate]:
    spec = specs[0]
    f, body, m, p = spec.f, spec.body, spec.m, spec.p
    along = _rays(spec, box_radius)
    mp = m * p
    c_m = float(m) ** -m if spec.theorem.endswith("centered") else 1.0 / math.factorial(m)
    # relative errors: about eps / (c_m t^m) from rounding in R, about t in its leading term
    t_c = (float(np.finfo(float).eps) / c_m) ** (1.0 / (m + 1))
    # the control variate needs a Gram form (p = 2) and a kink-split sphere rule (dim <= 2)
    lead = plan.method == "monte_carlo" and p == 2.0 and body.dim <= 2
    # a shell payoff is smooth in v but not periodic: on the lattice, fold v by the tent
    tent = plan.method == "monte_carlo" and spec.mollifier_kind == "shell"
    law = MollifierRadial([point.mollifier for point in specs], body.gauge)

    def kernel(x, sigma, v):
        # |R|^p (t g)^-mp rho t^(N-1) over the law's density (t g)^(N-1) rho g, per profile, is
        # |a|^p g^-(mp+N) with a = R / t^m; below t_c a row pays the t -> 0 limit b = |c_m D|^p
        g = law.prepare(sigma)
        t, ray = law.sample(_tent(v) if tent else v, g), along(x, sigma, f.eval(x))
        small = t < t_c
        # the control variate subtracts b from every row; otherwise only small rows read it
        # (a view, not a mask, of all columns: gathering x doubled the cost of b)
        columns = slice(None) if lead else np.flatnonzero(small.any(axis=0))
        b = np.zeros(len(x))
        if lead or columns.size:
            b[columns] = np.abs(c_m * directional_m_form(f, x[columns], sigma[columns], m)) ** p
        out = np.empty(t.shape)
        for j, tj in enumerate(t):
            out[j] = np.abs(ray(tj) / np.maximum(tj, t_c) ** m) ** p
        np.copyto(out, b, where=small)
        if lead:
            out -= b
        out *= g ** (-mp - body.dim)
        return out

    estimates = integrate_double(kernel, plan, box_radius, body.dim, f.proposal)
    for point, est in zip(specs, estimates):
        est.info["small_radius_bias"] = _small_radius_bias(point, box_radius, t_c, c_m)
    if lead:
        # the law's density is normalised, so every point adds back the same C
        lead_integral = _lead_integral(f, body, m, c_m, box_radius)
        for est in estimates:
            est.value += lead_integral
            est.info["lead_integral"] = lead_integral
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

@lru_cache(maxsize=None)
def _shared_integral_quadrature(f: TestFunction, body: ConvexBody, m: int, p: float) -> float:
    # |m-form(x)[y]|^p is homogeneous of degree m p in y: the cone rule integrates it over K
    xs, wx = _outer_grid(f)
    zs, wz = cone_nodes(body)
    if p == 2.0:
        return m_form_gram(f, m, xs, wx, zs, wz) / (body.dim + m * p)
    total = 0.0
    block = max(1, (1 << 22) // len(wz))
    for start in range(0, len(wx), block):
        tab = m_form_tableau(f, m, xs[start:start + block], zs)
        total += float(wx[start:start + block] @ (np.abs(tab) ** p) @ wz)
    return total / (body.dim + m * p)


def local_limit(spec: FunctionalSpec) -> float:
    """Closed-form limit target: theorem constant times the shared integral I,
    a deterministic quadrature cached per (f, K, m, p)."""
    shared = _shared_integral_quadrature(spec.f, spec.body, spec.m, float(spec.p))
    return theorem_constant(spec.theorem, spec.m, spec.p, spec.body.dim) * shared

