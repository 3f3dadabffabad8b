"""Sampling and quadrature engine shared by all functional evaluators.

Double integrals over pairs (x, y) are computed in polar form y = x + t*sigma:
x ranges over a truncation box, sigma over the Euclidean unit sphere, and the
radial variable t is drawn from a pluggable importance law.  Kernels return
the per-sample payoff in closed form: the pair integrand times t^(dim-1),
divided by the law's unnormalised radial shape.  Both the Monte Carlo and the
deterministic (dim = 1) paths multiply that payoff by the law's closed-form
mass, so a law matched to the kernel's radial profile gives low variance and
no density is evaluated on the hot path.

Monte Carlo draws the outer point x from a defensive mixture (Hesterberg
1995): in each block of n rows, k = round(0.8 n) rows (at most n - 1) come
from the test function's own proposal p (standard normal per Gaussian axis,
uniform on the support per compactly supported axis) and the rest are
uniform on the box.  Each row is weighted by the sphere measure over the
realised mixture density q = (k/n) p + (1 - k/n) / vol(box), so every block
is exactly unbiased, and the uniform share caps each weight at n / (n - k),
about 5, times the plain uniform weight.  Proposal rows outside the box get
weight 0.  A function without a proposal keeps uniform x on the box.

Every Monte Carlo integral runs through ``monte_carlo``, which splits the
samples into blocks of _CHUNK rows.  Block i draws from
SeedSequence((seed, stream, i)), with one stream tag per kind of integral, and
block results merge in index order (keyed per-block streams, Salmon et al.
2011).  The numbers therefore depend on (seed, stream, samples) only; the
worker count just sets how many threads run the blocks.

Integrals over a body K of integrands positively homogeneous in y (the
local-limit targets, ``bodies.zpm_norm``) use ``cone_nodes``: the radial
direction is integrated in closed form, leaving a quadrature on the boundary
of K weighted by the cone measure (Lasserre 1998).  The tensor volume rule
``body_quadrature_nodes`` remains for general integrands over ball, box and
ellipsoid.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .bodies import TENSOR_QUADRATURE_KINDS, ConvexBody, _polytope_vertices, body_points

Array = np.ndarray

_CHUNK = 1 << 15

#: share of each block's outer points drawn from the test function's proposal
PROPOSAL_SHARE = 0.8

#: stream tags keeping the random numbers of the three kinds of integral apart
PAIR_STREAM, BODY_STREAM, TARGET_STREAM = 0, 1, 2

_SPHERE_MEASURE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


class EngineError(RuntimeError):
    pass


def sphere_measure(dim: int) -> float:
    return _SPHERE_MEASURE[dim]


# ---------------------------------------------------------------------------
# Radial importance laws
# ---------------------------------------------------------------------------

class PowerLaw:
    """Density proportional to t^exponent on [t_min(sigma), t_max].

    The unnormalised radial shape is t^exponent.  With exponent = -(1 + m p)
    this matches the radial weight of the level-set kernels exactly, so their
    per-sample payoff is flat in t.  The lower bound may be a callable of the
    direction batch (per-direction exact cutoffs); directions whose cutoff
    reaches t_max keep a degenerate-free interval and rely on the kernel
    vanishing there.
    """

    def __init__(self, exponent: float, t_min, t_max: float):
        self.exponent = float(exponent)
        self.t_max = float(t_max)
        self.t_min = t_min
        if not callable(t_min):
            if not 0.0 < float(t_min) < self.t_max:
                raise ValueError(f"empty radial interval [{t_min}, {t_max}]")
        self._s = self.exponent + 1.0
        self._log = abs(self._s) < 1e-12

    def prepare(self, sigma: Array):
        """The lower bound raised to exponent + 1 (the bound itself on the log branch)."""
        if callable(self.t_min):
            lo = np.minimum(np.asarray(self.t_min(sigma), dtype=float), 0.5 * self.t_max)
        else:
            lo = float(self.t_min)
        return lo if self._log else lo ** self._s

    def sample(self, v: Array, lo_s) -> Array:
        if self._log:
            return lo_s * (self.t_max / lo_s) ** v
        b_s = self.t_max ** self._s
        return (lo_s + v * (b_s - lo_s)) ** (1.0 / self._s)

    def mass(self, lo_s):
        """Integral of the shape t^exponent over [lo, t_max]."""
        if self._log:
            return np.log(self.t_max / lo_s)
        return (self.t_max ** self._s - lo_s) / self._s

    def pdf(self, t: Array, lo_s) -> Array:
        return np.asarray(t, dtype=float) ** self.exponent / self.mass(lo_s)


class MollifierRadial:
    """Radial law matched to a concentration profile evaluated at gauge radii.

    Draws the gauge radius u from the profile's own unit radial mass measure
    (restricted to the mass quantile [mass_floor, 1]) and converts to the
    Euclidean radius t = u / ||sigma||_K.  The unnormalised radial shape in t
    is u^(dim-1) rho(u) ||sigma||_K, whose mass over the drawn range is
    1 - mass_floor; a kernel's payoff therefore carries neither rho nor the
    Jacobian.  The floor removes the u -> 0 region where finite differences
    cancel below double precision; the discarded true mass fraction is exactly
    ``mass_floor`` and is surfaced by the callers.
    """

    def __init__(self, family, gauge, mass_floor: float = 1e-4):
        if not 0.0 <= mass_floor < 1.0:
            raise ValueError("mass_floor must be in [0, 1)")
        self.family = family
        self.gauge = gauge
        self.mass_floor = float(mass_floor)

    def prepare(self, sigma: Array):
        return self.gauge(sigma)

    def sample(self, v: Array, gauge_sigma: Array) -> Array:
        u = self.family.inverse_mass(self.mass_floor + v * (1.0 - self.mass_floor))
        return u / gauge_sigma

    def mass(self, gauge_sigma) -> float:
        """Mass of the radial shape over the drawn quantile range."""
        return 1.0 - self.mass_floor

    def pdf(self, t: Array, gauge_sigma: Array) -> Array:
        u = np.asarray(t, dtype=float) * gauge_sigma
        return self.family.radial_mass_density(u) * gauge_sigma / self.mass(gauge_sigma)


# ---------------------------------------------------------------------------
# Plans and estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrationPlan:
    """How to integrate: seeded parallel Monte Carlo or tensor quadrature."""

    method: str
    samples: int = 0
    seed: int = 0
    workers: int = 1
    stratification: int = 16
    x_nodes: int = 200
    t_nodes: int = 64
    outer_box_radius: float | None = None
    t_max: float | None = None

    @staticmethod
    def monte_carlo(samples: int, seed: int = 0, workers: int = 1,
                    stratification: int = 16, outer_box_radius: float | None = None,
                    t_max: float | None = None) -> "IntegrationPlan":
        return IntegrationPlan("monte_carlo", samples=samples, seed=seed,
                               workers=workers, stratification=stratification,
                               outer_box_radius=outer_box_radius, t_max=t_max)

    @staticmethod
    def quadrature(x_nodes: int = 200, t_nodes: int = 64,
                   outer_box_radius: float | None = None,
                   t_max: float | None = None) -> "IntegrationPlan":
        return IntegrationPlan("tensor_quadrature", x_nodes=x_nodes, t_nodes=t_nodes,
                               outer_box_radius=outer_box_radius, t_max=t_max)

    def with_box(self, radius: float) -> "IntegrationPlan":
        return replace(self, outer_box_radius=radius)


@dataclass
class IntegralEstimate:
    value: float
    stderr: float
    info: dict = field(default_factory=dict)


class _Welford:
    """Streaming mean/variance, mergeable across blocks."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, values: Array) -> None:
        nb = values.size
        if nb == 0:
            return
        mb = float(values.mean())
        m2b = float(((values - mb) ** 2).sum())
        self._merge(nb, mb, m2b)

    def merge(self, other: "_Welford") -> None:
        self._merge(other.count, other.mean, other.m2)

    def _merge(self, nb: int, mb: float, m2b: float) -> None:
        if nb == 0:
            return
        total = self.count + nb
        delta = mb - self.mean
        self.mean += delta * nb / total
        self.m2 += m2b + delta * delta * self.count * nb / total
        self.count = total

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1) / self.count)


def monte_carlo(plan: IntegrationPlan, stream: int, chunk) -> IntegralEstimate:
    """Mean of the payoffs ``chunk(rng, n, offset)`` over ``plan.samples`` rows.

    Block i covers rows [i _CHUNK, (i + 1) _CHUNK), cut at ``plan.samples``,
    and ``chunk`` returns its payoffs from ``rng``, seeded by
    SeedSequence((plan.seed, stream, i)); ``offset`` is the block's first row.
    Blocks run on min(workers, blocks, cpu count) threads and merge in block
    order, so the estimate is the same for every worker count.
    """
    if plan.samples <= 0:
        raise ValueError("empty plan: samples must be positive")
    offsets = range(0, plan.samples, _CHUNK)

    def block(i: int) -> _Welford:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((plan.seed, stream, i))))
        acc = _Welford()
        acc.add(chunk(rng, min(_CHUNK, plan.samples - offsets[i]), offsets[i]))
        return acc

    threads = min(plan.workers, len(offsets), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(block, range(len(offsets))))
    else:
        blocks = map(block, range(len(offsets)))
    total = _Welford()
    for acc in blocks:
        total.merge(acc)
    return IntegralEstimate(total.mean, total.stderr,
                            info={"method": "monte_carlo", "samples": plan.samples,
                                  "workers": plan.workers})


def outer_points(rng: np.random.Generator, n: int, dim: int, radius: float,
                 proposal, mass: float) -> tuple[Array, Array | float]:
    """n outer points from the defensive mixture on the box [-radius, radius]^dim.

    Returns the points and their weights ``mass / q(x)`` (see the module
    docstring).  Without a proposal the points are uniform on the box and the
    weight is the scalar ``mass * vol(box)``.
    """
    k = 0 if proposal is None else min(round(PROPOSAL_SHARE * n), n - 1)
    volume = (2.0 * radius) ** dim
    box = rng.uniform(-radius, radius, size=(n - k, dim))
    if k == 0:
        return box, mass * volume
    x = np.concatenate([proposal.sample(rng, k), box])
    share = k / n
    weight = mass / (share * proposal.pdf(x) + (1.0 - share) / volume)
    outside = np.abs(x[:k]) > radius
    if np.count_nonzero(outside):
        weight[:k][outside.any(axis=1)] = 0.0
    return x, weight


def _sample_sphere(rng: np.random.Generator, n: int, dim: int) -> Array:
    if dim == 1:
        return (rng.integers(0, 2, size=(n, 1)) * 2 - 1).astype(float)
    vec = rng.normal(size=(n, dim))
    norms = np.linalg.norm(vec, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return vec / norms


def _stratified_uniform(rng: np.random.Generator, n: int, strata: int, offset: int) -> Array:
    if strata <= 1:
        return rng.random(n)
    idx = (np.arange(offset, offset + n) % strata).astype(float)
    return (idx + rng.random(n)) / strata


def _check_finite(values: Array, x: Array, sigma: Array, t: Array) -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise EngineError(
            f"nonfinite kernel value at x={x[i].tolist()}, sigma={sigma[i].tolist()}, "
            f"t={float(t[i])!r}")


def integrate_double(kernel, plan: IntegrationPlan, dim: int, law,
                     proposal=None) -> IntegralEstimate:
    """Estimate the polar-form double integral of ``kernel`` over box x sphere x radius.

    Parameters
    ----------
    kernel : callable(x, sigma, t) -> values
        Vectorized per-sample payoff over batches: x, sigma of shape (n, dim),
        t of shape (n,).  The payoff is the pair integrand F(x, x + t sigma)
        times t^(dim-1), divided by the law's unnormalised radial shape.
    law : PowerLaw | MollifierRadial
        Radial importance law.  ``law.prepare(sigma)`` supplies any
        per-direction state (gauge values or cutoffs); the estimate multiplies
        each payoff by ``law.mass`` of that state, MC and quadrature alike.
    proposal : functions.OuterProposal | None
        Law for the outer point x on the Monte Carlo path, mixed with the
        uniform box (``outer_points``); quadrature ignores it.
    """
    if dim not in _SPHERE_MEASURE:
        raise ValueError("dim must be 1, 2 or 3")
    if plan.outer_box_radius is None:
        raise ValueError("plan.outer_box_radius must be resolved by the caller")
    box_radius = float(plan.outer_box_radius)

    if plan.method == "tensor_quadrature":
        return _integrate_double_quadrature(kernel, plan, dim, law, box_radius)
    if plan.method != "monte_carlo":
        raise ValueError(f"unknown integration method {plan.method!r}")
    sphere = sphere_measure(dim)

    def chunk(rng: np.random.Generator, n: int, offset: int) -> Array:
        x, weight = outer_points(rng, n, dim, box_radius, proposal, sphere)
        sigma = _sample_sphere(rng, n, dim)
        aux = law.prepare(sigma)
        v = _stratified_uniform(rng, n, plan.stratification, offset)
        t = law.sample(v, aux)
        vals = kernel(x, sigma, t) * (law.mass(aux) * weight)
        _check_finite(vals, x, sigma, t)
        return vals

    return monte_carlo(plan, PAIR_STREAM, chunk)


def _integrate_double_quadrature(kernel, plan, dim, law, box_radius):
    if dim != 1:
        raise ValueError("tensor quadrature for pair integrals is dim=1 only")
    xg, wx = np.polynomial.legendre.leggauss(plan.x_nodes)
    x = box_radius * xg
    wx = box_radius * wx
    vg, wv = np.polynomial.legendre.leggauss(plan.t_nodes)
    v = 0.5 * (vg + 1.0)
    wv = 0.5 * wv

    total = 0.0
    for s in (-1.0, 1.0):
        aux = law.prepare(np.array([[s]]))
        aux = aux[0] if isinstance(aux, np.ndarray) else aux
        t = law.sample(v, aux)
        # full tensor batch (x_i, t_j)
        xx = np.repeat(x, t.size)[:, np.newaxis]
        tt = np.tile(t, x.size)
        ss = np.full((xx.size, 1), s)
        vals = kernel(xx, ss, tt) * law.mass(aux)
        _check_finite(vals, xx, ss, tt)
        total += float(wx @ vals.reshape(x.size, t.size) @ wv)
    return IntegralEstimate(total, 0.0, info={"method": "tensor_quadrature",
                                              "x_nodes": plan.x_nodes,
                                              "t_nodes": plan.t_nodes})


# ---------------------------------------------------------------------------
# Integrals over a convex body
# ---------------------------------------------------------------------------

def tensor_grid(axes) -> tuple[Array, Array]:
    """Tensor product of per-axis ``(nodes, weights)``: points (n, d) and weights (n,)."""
    grids = np.meshgrid(*[nodes for nodes, _ in axes], indexing="ij")
    weights = np.ones_like(grids[0])
    for wgrid in np.meshgrid(*[w for _, w in axes], indexing="ij"):
        weights = weights * wgrid
    return np.stack([g.ravel() for g in grids], axis=-1), weights.ravel()


def body_quadrature_nodes(body: ConvexBody, radial_nodes: int = 48,
                          angular_nodes: int = 64) -> tuple[Array, Array]:
    """Nodes and weights with sum w_i f(y_i) ~ integral_K f; ball/box/ellipsoid only."""
    if body.kind not in TENSOR_QUADRATURE_KINDS:
        raise ValueError(f"no tensor quadrature for body kind {body.kind!r}; use Monte Carlo")
    semi = np.asarray([body.params[0]] * body.dim if body.kind == "ball" else body.params)
    xg, wg = np.polynomial.legendre.leggauss(radial_nodes)
    if body.kind == "box" or body.dim == 1:
        return tensor_grid([(a * xg, a * wg) for a in semi])
    r = 0.5 * (xg + 1.0)
    wr = 0.5 * wg
    theta = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    wt = np.full(angular_nodes, 2.0 * math.pi / angular_nodes)
    if body.dim == 2:
        pts, w = tensor_grid([(r, wr), (theta, wt)])
        rr, tt = pts.T
        unit = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)
        return unit * semi, w * rr * float(np.prod(semi))
    pts, w = tensor_grid([(r, wr), (xg, wg), (theta, wt)])
    rr, cc, tt = pts.T
    sphi = np.sqrt(np.maximum(0.0, 1.0 - cc ** 2))
    unit = np.stack([rr * sphi * np.cos(tt), rr * sphi * np.sin(tt), rr * cc], axis=-1)
    return unit * semi, w * rr ** 2 * float(np.prod(semi))


def integrate_body(f_inner, body: ConvexBody, plan: IntegrationPlan) -> IntegralEstimate:
    """Integral of ``f_inner`` over the body K.

    Monte Carlo averages ``f_inner`` at ``bodies.body_points`` times their
    weights.  Quadrature maps tensor Gauss-Legendre grids onto
    ball/box/ellipsoid.
    """
    if plan.method == "tensor_quadrature":
        pts, w = body_quadrature_nodes(body, radial_nodes=plan.x_nodes,
                                       angular_nodes=plan.t_nodes)
        vals = f_inner(pts)
        return IntegralEstimate(float(np.dot(w, vals)), 0.0,
                                info={"method": "tensor_quadrature", "nodes": len(w)})
    if plan.method != "monte_carlo":
        raise ValueError(f"unknown integration method {plan.method!r}")

    def chunk(rng: np.random.Generator, n: int, offset: int) -> Array:
        pts, weight = body_points(body, rng, n)
        return weight * np.asarray(f_inner(pts), dtype=float)

    return monte_carlo(plan, BODY_STREAM, chunk)


# ---------------------------------------------------------------------------
# Cone-measure (boundary) rule for homogeneous integrands
# ---------------------------------------------------------------------------

#: Gauss-Legendre nodes per quadrant (2-D) and per axis of an octant cell (3-D)
_CONE_SPHERE_NODES = {2: 48, 3: 20}
#: Gauss-Legendre nodes per facet edge (2-D) and per axis of a facet triangle (3-D)
_CONE_FACET_NODES = {2: 16, 3: 10}


def _sphere_points(cos_polar: Array, azimuth: Array) -> Array:
    """Points of the unit sphere in 3-D from the cosine of the polar angle and the azimuth."""
    sphi = np.sqrt(np.maximum(0.0, 1.0 - cos_polar ** 2))
    return np.stack([sphi * np.cos(azimuth), sphi * np.sin(azimuth), cos_polar], axis=-1)


def _graded_gauss(n: int) -> tuple[Array, Array]:
    """n Gauss-Legendre nodes and weights on [0, 1], pulled through u -> 3u^2 - 2u^3.

    The map flattens both ends, where the sphere rule meets a coordinate
    plane.  There the gauge of an lp ball with a non-even exponent q has a
    |angle|^q term, which the map turns into a smoother u^(2q+1) one.
    """
    g, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (g + 1.0)
    return u * u * (3.0 - 2.0 * u), 3.0 * w * u * (1.0 - u)


def _sphere_cells(dim: int) -> tuple[Array, Array]:
    """Unit-sphere rule split at the coordinate planes.

    Graded Gauss-Legendre in the angle per quadrant (2-D), and in the
    cosine of the polar angle times the azimuth per octant cell (3-D); the
    sphere's area element is d(cos) d(azimuth).  In 1-D the sphere is {-1, 1}.
    """
    if dim == 1:
        return np.array([[-1.0], [1.0]]), np.ones(2)
    t, wt = _graded_gauss(_CONE_SPHERE_NODES[dim])
    theta = 0.5 * math.pi * np.concatenate([t + k for k in range(4)])
    wtheta = np.tile(0.5 * math.pi * wt, 4)
    if dim == 2:
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1), wtheta
    pts, w = tensor_grid([(np.concatenate([t, -t]), np.tile(wt, 2)), (theta, wtheta)])
    return _sphere_points(*pts.T), w


def _facet_cells(on: Array, unit: Array) -> tuple[Array, Array]:
    """Gauss points and area weights on the convex facet with vertices ``on``.

    A point in 1-D, an edge in 2-D, and in 3-D a fan of triangles from the
    vertex centroid, each with the collapsed (Duffy) tensor Gauss rule.
    """
    dim = on.shape[1]
    if dim == 1:
        return on[:1], np.ones(1)
    g, wg = np.polynomial.legendre.leggauss(_CONE_FACET_NODES[dim])
    s, ws = 0.5 * (g + 1.0), 0.5 * wg
    center = on.mean(axis=0)
    rel = on - center
    if dim == 2:
        along = rel @ np.array([-unit[1], unit[0]])
        a, b = on[np.argmin(along)], on[np.argmax(along)]
        return a + s[:, np.newaxis] * (b - a), float(np.linalg.norm(b - a)) * ws
    e1 = rel[np.argmax(np.linalg.norm(rel, axis=1))]
    e2 = np.cross(unit, e1)
    ring = on[np.argsort(np.arctan2(rel @ e2, rel @ e1))]
    uv, wuv = tensor_grid([(s, ws), (s, ws)])
    u, v = uv[:, :1], uv[:, 1:]
    pts, wts = [], []
    for p1, p2 in zip(ring, np.roll(ring, -1, axis=0)):
        pts.append(center + u * ((1.0 - v) * (p1 - center) + v * (p2 - center)))
        wts.append(float(np.linalg.norm(np.cross(p1 - center, p2 - center))) * u[:, 0] * wuv)
    return np.concatenate(pts), np.concatenate(wts)


def cone_nodes(body: ConvexBody) -> tuple[Array, Array]:
    """Boundary points z_j and weights w_j of the cone-measure rule of K.

    For every h positively homogeneous of degree d,

        sum_j w_j h(z_j) = (dim + d) * integral_K h,

    because integrating along each ray from 0 to the boundary of K is done in
    closed form (Lasserre 1998); in particular sum_j w_j = dim * vol(K).
    Ball, ellipsoid and lp ball are K = A B_q (B_q the unit lp ball, q = 2
    for the first two): a sphere rule (omega, w_omega) maps to
    z = A omega / |omega|_q with w = det(A) w_omega |omega|_q^-dim.  Boxes and
    polytopes use their facets: facet F_i at distance b_i/|n_i| from the
    origin contributes Gauss points on F_i with weight (b_i/|n_i|) dA.
    """
    dim = body.dim
    if body.kind in ("ball", "ellipsoid", "lp_ball"):
        omega, w = _sphere_cells(dim)
        q = body.params[0] if body.kind == "lp_ball" else 2.0
        semi = (np.asarray(body.params) if body.kind == "ellipsoid"
                else np.full(dim, body.params[-1]))
        norm = np.sum(np.abs(omega) ** q, axis=1) ** (1.0 / q)
        return semi * omega / norm[:, np.newaxis], float(np.prod(semi)) * w * norm ** (-dim)
    if body.kind == "box":
        half = np.asarray(body.params)
        normals = np.concatenate([np.eye(dim), -np.eye(dim)])
        offsets = np.concatenate([half, half])
        vertices = np.array(list(itertools.product(*[(-h, h) for h in half])))
    else:
        normals, offsets = np.asarray(body._normals), np.asarray(body._offsets)
        vertices = _polytope_vertices(normals, offsets)
    pts, wts, seen = [], [], set()
    for normal, offset in zip(normals, offsets):
        scale = np.abs(vertices) @ np.abs(normal) + offset
        on = tuple(np.flatnonzero(np.abs(vertices @ normal - offset) <= 1e-9 * scale))
        # fewer than dim vertices: the inequality touches K in a lower-dimensional
        # face; a vertex set seen before: the facet is listed twice
        if len(on) < dim or on in seen:
            continue
        seen.add(on)
        length = float(np.linalg.norm(normal))
        z, area = _facet_cells(vertices[list(on)], normal / length)
        pts.append(z)
        wts.append(offset / length * area)
    return np.concatenate(pts), np.concatenate(wts)


# ---------------------------------------------------------------------------
# Sphere quadrature and the sphere-to-body reduction check
# ---------------------------------------------------------------------------

def sphere_quadrature(dim: int, nodes: int = 2048) -> tuple[Array, Array]:
    """Directions and weights with sum w_i g(sigma_i) ~ surface integral over the sphere."""
    if dim == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    if dim == 2:
        theta = 2.0 * math.pi * np.arange(nodes) / nodes
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return dirs, np.full(nodes, 2.0 * math.pi / nodes)
    if dim == 3:
        nc = max(8, nodes // 32)
        nt = 2 * nc
        cg, wc = np.polynomial.legendre.leggauss(nc)
        theta = 2.0 * math.pi * np.arange(nt) / nt
        pts, w = tensor_grid([(cg, wc), (theta, np.full(nt, 2.0 * math.pi / nt))])
        return _sphere_points(*pts.T), w
    raise ValueError("dim must be 1, 2 or 3")


def sphere_constant(dim: int, p: float, nodes: int = 4096) -> float:
    """The classical sphere moment: surface integral of |e . sigma|^p."""
    dirs, w = sphere_quadrature(dim, nodes)
    e = np.zeros(dim)
    e[0] = 1.0
    return float(np.dot(w, np.abs(dirs @ e) ** p))


def sphere_body_identity_check(g, body: ConvexBody, m: int, p: float,
                               plan: IntegrationPlan | None = None,
                               sphere_nodes: int = 4096) -> tuple[float, float, float]:
    """Check the sphere-to-body reduction for a positively m-homogeneous g.

    lhs = surface integral of gauge(sigma)^-(dim + m p) |g(sigma)|^p,
    rhs = (dim + m p) * integral_K |g(y)|^p dy.
    Returns (lhs, rhs, relative gap), with gap defined as 0 when both vanish.
    """
    dirs, w = sphere_quadrature(body.dim, sphere_nodes)
    power = body.dim + m * p
    lhs = float(np.dot(w, body.gauge(dirs) ** (-power) * np.abs(g(dirs)) ** p))
    if plan is None:
        plan = IntegrationPlan.quadrature(x_nodes=64, t_nodes=128)
    rhs = power * integrate_body(lambda y: np.abs(g(y)) ** p, body, plan).value
    if rhs == 0.0 and lhs == 0.0:
        return 0.0, 0.0, 0.0
    return lhs, rhs, abs(lhs - rhs) / abs(rhs)
