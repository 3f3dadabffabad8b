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

The Monte Carlo pair integral runs through ``monte_carlo``, which splits the
samples into blocks of _CHUNK rows.  Block i draws from
SeedSequence((seed, 0, i)) and block results merge in index order (keyed
per-block streams, Salmon et al. 2011).  The numbers therefore depend on
(seed, samples) only; the worker count just sets how many threads run the
blocks.  One pass integrates the K points of a parameter grid over one outer
box: every point shares a block's outer points, weights, directions and
direction state, and is bitwise a pass of its own on that box.

Everything else is deterministic quadrature.  ``sphere_quadrature`` is the
one unit-sphere rule.  Integrals over a body K of integrands positively
homogeneous in y (the local-limit targets, ``bodies.zpm_norm``) use
``cone_nodes``: the radial direction is integrated in closed form, leaving a
quadrature on the boundary of K weighted by the cone measure (Lasserre 1998).
The tensor volume rule ``body_quadrature_nodes`` of ball, box and ellipsoid
is the reference the sphere-to-body check and the cone-rule tests compare
against.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .bodies import ConvexBody, _polytope_vertices

Array = np.ndarray

_CHUNK = 1 << 15

#: share of each block's outer points drawn from the test function's proposal
PROPOSAL_SHARE = 0.8

#: radial strata: row r draws its radial uniform from [r mod S, r mod S + 1) / S
_STRATA = 16

#: body kinds with a tensor Gauss-Legendre volume rule (``body_quadrature_nodes``)
TENSOR_QUADRATURE_KINDS = ("ball", "box", "ellipsoid")

_SPHERE_MEASURE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


class EngineError(RuntimeError):
    pass


def sphere_measure(dim: int) -> float:
    return _SPHERE_MEASURE[dim]


@lru_cache(maxsize=None)
def gauss_legendre(n: int, unit: bool = False) -> tuple[Array, Array]:
    """n-point Gauss-Legendre rule on [-1, 1], or on [0, 1] if ``unit``; built once, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    if unit:
        nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# ---------------------------------------------------------------------------
# Radial importance laws
# ---------------------------------------------------------------------------

class PowerLaw:
    """Density proportional to t^exponent on [t_min(sigma), t_max].

    The unnormalised radial shape is t^exponent.  With exponent = -(1 + m p)
    this matches the radial weight of the level-set kernels exactly, so their
    per-sample payoff is flat in t.  The lower bound may be a callable of the
    direction batch (per-direction exact cutoffs, one row per point of a
    pass); directions whose cutoff reaches t_max keep a degenerate-free
    interval and rely on the kernel vanishing there.
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
    """Radial law matched to concentration profiles evaluated at gauge radii.

    Point j draws the gauge radius u from the radial mass measure of
    ``families[j]`` and converts to the Euclidean radius t = u / ||sigma||_K.  The
    unnormalised radial shape in t is u^(dim-1) rho(u) ||sigma||_K, whose
    mass is 1; a kernel's payoff therefore carries neither rho nor the
    Jacobian.  At small profile indices u can underflow to 0, so a kernel
    must give a finite payoff at t = 0.
    """

    def __init__(self, families, gauge):
        self.families = tuple(families)
        self.gauge = gauge

    def prepare(self, sigma: Array):
        return self.gauge(sigma)

    def sample(self, v: Array, gauge_sigma: Array) -> Array:
        return np.stack([family.inverse_mass(v) for family in self.families]) / gauge_sigma

    def mass(self, gauge_sigma) -> float:
        """Mass of the radial shape: the profile's unit radial mass."""
        return 1.0

    def pdf(self, t: Array, gauge_sigma: Array) -> Array:
        u = np.reshape(t, (len(self.families), -1)) * gauge_sigma
        dens = [family.radial_mass_density(row) for family, row in zip(self.families, u)]
        return np.stack(dens) * gauge_sigma


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
    x_nodes: int = 200
    t_nodes: int = 64
    outer_box_radius: float | None = None
    t_max: float | None = None

    @staticmethod
    def monte_carlo(samples: int, seed: int = 0, workers: int = 1,
                    outer_box_radius: float | None = None,
                    t_max: float | None = None) -> "IntegrationPlan":
        return IntegrationPlan("monte_carlo", samples=samples, seed=seed, workers=workers,
                               outer_box_radius=outer_box_radius, t_max=t_max)

    @staticmethod
    def quadrature(x_nodes: int = 200, t_nodes: int = 64,
                   outer_box_radius: float | None = None,
                   t_max: float | None = None) -> "IntegrationPlan":
        return IntegrationPlan("tensor_quadrature", x_nodes=x_nodes, t_nodes=t_nodes,
                               outer_box_radius=outer_box_radius, t_max=t_max)


@dataclass
class IntegralEstimate:
    value: float
    stderr: float
    info: dict = field(default_factory=dict)


class _Welford:
    """Mean, variance and count of nonzero values of payoffs, mergeable across blocks."""

    __slots__ = ("count", "mean", "m2", "hits")

    def __init__(self, values: Array | None = None):
        self.count, self.mean, self.m2, self.hits = 0, 0.0, 0.0, 0
        if values is not None and values.size:
            mb = float(values.mean())
            self._merge(values.size, mb, float(((values - mb) ** 2).sum()),
                        int(np.count_nonzero(values)))

    def merge(self, other: "_Welford") -> "_Welford":
        self._merge(other.count, other.mean, other.m2, other.hits)
        return self

    def _merge(self, nb: int, mb: float, m2b: float, hits: int) -> None:
        if nb == 0:
            return
        total = self.count + nb
        delta = mb - self.mean
        self.mean += delta * nb / total
        self.m2 += m2b + delta * delta * self.count * nb / total
        self.count = total
        self.hits += hits

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1) / self.count)


def monte_carlo(plan: IntegrationPlan, chunk) -> list[IntegralEstimate]:
    """Row means of the (K, n) payoffs ``chunk(rng, n, offset)`` over ``plan.samples`` columns.

    Block i covers columns [i _CHUNK, (i + 1) _CHUNK), cut at ``plan.samples``;
    ``rng`` is seeded by SeedSequence((plan.seed, 0, i)) and ``offset`` is the
    first column.  Blocks run on min(workers, blocks, cpu count) threads and
    each row merges its blocks in block order, so the K estimates are the same
    for every worker count.  ``hit_fraction`` is a row's share of nonzero payoffs.
    """
    if plan.samples <= 0:
        raise ValueError("empty plan: samples must be positive")
    offsets = range(0, plan.samples, _CHUNK)

    def block(i: int) -> list[_Welford]:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((plan.seed, 0, i))))
        return [_Welford(row) for row in chunk(rng, min(_CHUNK, plan.samples - offsets[i]),
                                               offsets[i])]

    threads = min(plan.workers, len(offsets), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(block, range(len(offsets))))
    else:
        blocks = map(block, range(len(offsets)))
    # each point folds its blocks in block order
    totals = [reduce(_Welford.merge, accs, _Welford()) for accs in zip(*blocks)]
    return [IntegralEstimate(total.mean, total.stderr,
                             info={"method": "monte_carlo", "samples": plan.samples,
                                   "workers": plan.workers,
                                   "hit_fraction": total.hits / plan.samples})
            for total in totals]


def outer_points(rng: np.random.Generator, n: int, dim: int, radius: float, proposal,
                 mass: float) -> tuple[Array, Array]:
    """Draw n outer points on the box [-radius, radius]^dim and weigh them.

    The first k rows come from the proposal and the other n - k are uniform on
    the box at -r + 2r u (bitwise ``rng.uniform(-r, r)``; u is drawn first).
    Returns the points (n, dim) and the weights ``mass / q(x)`` (module
    docstring): (n,), 0 for proposal rows outside the box, or (1,)
    ``mass * vol(box)`` without a proposal.
    """
    k = 0 if proposal is None else min(round(PROPOSAL_SHARE * n), n - 1)
    unit = rng.random((n - k, dim))
    rows = proposal.sample(rng, k) if k else np.empty((0, dim))
    volume = (2.0 * radius) ** dim
    box = -radius + (radius - (-radius)) * unit
    x = np.concatenate([rows, box])
    if k == 0:
        return x, np.array([mass * volume])
    q = k / n * np.concatenate([proposal.pdf(rows), proposal.pdf(box)]) + (1.0 - k / n) / volume
    weight = mass / q
    weight[:k][np.abs(rows).max(axis=1) > radius] = 0.0
    return x, weight


def _sample_sphere(rng: np.random.Generator, n: int, dim: int) -> Array:
    if dim == 1:
        return (rng.integers(0, 2, size=(n, 1)) * 2 - 1).astype(float)
    vec = rng.normal(size=(n, dim))
    # the column sum of squares is bitwise np.linalg.norm(vec, axis=1), several times faster
    norms = np.sqrt(sum(vec[:, i] * vec[:, i] for i in range(dim)))
    norms[norms == 0.0] = 1.0
    return vec / norms[:, np.newaxis]


def _stratified_uniform(rng: np.random.Generator, n: int, offset: int) -> Array:
    idx = (np.arange(offset, offset + n) % _STRATA).astype(float)
    return (idx + rng.random(n)) / _STRATA


def _weighted_payoffs(kernel, x: Array, sigma: Array, t: Array, factor) -> Array:
    """The kernel's payoffs times ``factor``; they must have t's shape (K, n) and be finite."""
    values = kernel(x, sigma, t)
    if np.shape(values) != t.shape:
        raise EngineError(f"kernel returned payoffs of shape {np.shape(values)}, "
                          f"expected t's shape {t.shape}: one row per point")
    values = values * factor
    bad = ~np.isfinite(values)
    if np.any(bad):
        j, i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise EngineError(
            f"nonfinite kernel value at x={x[i].tolist()}, sigma={sigma[i].tolist()}, "
            f"t={float(t[j, i])!r} (point {j})")
    return values


def integrate_double(kernel, plan: IntegrationPlan, dim: int, law,
                     proposal=None) -> list[IntegralEstimate]:
    """Estimate the polar-form double integrals of K points over box x sphere x radius.

    All K points share the box of radius ``plan.outer_box_radius`` and so each
    outer point x and its weight; they differ in their radii and payoffs only.

    Parameters
    ----------
    kernel : callable(x, sigma, t) -> values
        Vectorized payoffs of all points: x and sigma of shape (n, dim), t
        and values of shape (K, n); any other shape of values raises
        ``EngineError``.  The payoff is the pair integrand F(x, x + t sigma)
        times t^(dim-1), divided by the law's unnormalised radial shape.
    law : PowerLaw | MollifierRadial
        Radial importance law; it sets K.  ``law.prepare(sigma)`` supplies
        any per-direction state (gauge values or cutoffs) once for all
        points, ``law.sample`` returns t of shape (K, n), or (n,) for one
        point, and the estimate multiplies each payoff by ``law.mass`` of
        that state, MC and quadrature alike.
    proposal : functions.OuterProposal | None
        Law for the outer point x on the Monte Carlo path, mixed with the
        uniform box (``outer_points``); quadrature ignores it.
    """
    if dim not in _SPHERE_MEASURE:
        raise ValueError("dim must be 1, 2 or 3")
    if plan.outer_box_radius is None:
        raise ValueError("the outer box radius must be resolved by the caller")

    if plan.method == "tensor_quadrature":
        return _integrate_double_quadrature(kernel, plan, dim, law)
    if plan.method != "monte_carlo":
        raise ValueError(f"unknown integration method {plan.method!r}")

    def chunk(rng: np.random.Generator, n: int, offset: int) -> Array:
        x, weight = outer_points(rng, n, dim, plan.outer_box_radius, proposal,
                                 sphere_measure(dim))
        sigma = _sample_sphere(rng, n, dim)
        aux = law.prepare(sigma)
        t = np.atleast_2d(law.sample(_stratified_uniform(rng, n, offset), aux))
        return _weighted_payoffs(kernel, x, sigma, t, law.mass(aux) * weight)

    return monte_carlo(plan, chunk)


def _integrate_double_quadrature(kernel, plan, dim, law):
    if dim != 1:
        raise ValueError("tensor quadrature for pair integrals is dim=1 only")
    xg, wx = gauss_legendre(plan.x_nodes)
    x, wx = plan.outer_box_radius * xg, plan.outer_box_radius * wx
    v, wv = gauss_legendre(plan.t_nodes, unit=True)

    totals = 0.0
    for s in (-1.0, 1.0):
        aux = law.prepare(np.array([[s]]))
        t = np.atleast_2d(law.sample(v, aux))
        # full tensor batch (x_i, t_j) of every point
        xx = np.repeat(x, t.shape[1])[:, np.newaxis]
        tt = np.tile(t, x.size)
        ss = np.full((len(xx), 1), s)
        vals = _weighted_payoffs(kernel, xx, ss, tt, law.mass(aux))
        totals = totals + np.array([wx @ row.reshape(x.size, -1) @ wv for row in vals])
    return [IntegralEstimate(float(total), 0.0, info={"method": "tensor_quadrature",
                                                      "x_nodes": plan.x_nodes,
                                                      "t_nodes": plan.t_nodes})
            for total in totals]


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
        raise ValueError(f"no tensor quadrature for body kind {body.kind!r}")
    semi = np.asarray([body.params[0]] * body.dim if body.kind == "ball" else body.params)
    xg, wg = gauss_legendre(radial_nodes)
    if body.kind == "box" or body.dim == 1:
        return tensor_grid([(a * xg, a * wg) for a in semi])
    r, wr = gauss_legendre(radial_nodes, unit=True)
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


# ---------------------------------------------------------------------------
# The unit-sphere rule and the cone-measure (boundary) rule for homogeneous integrands
# ---------------------------------------------------------------------------

#: Gauss-Legendre nodes per quadrant (2-D) and per axis of an octant cell (3-D)
_SPHERE_NODES = {2: 48, 3: 20}
#: Gauss-Legendre nodes per facet edge (2-D) and per axis of a facet triangle (3-D)
_FACET_NODES = {2: 16, 3: 10}


def _graded_gauss(n: int) -> tuple[Array, Array]:
    """n Gauss-Legendre nodes and weights on [0, 1], pulled through u -> 3u^2 - 2u^3.

    The map flattens both ends, where the sphere rule meets a coordinate
    plane.  There the gauge of an lp ball with a non-even exponent q has a
    |angle|^q term, which the map turns into a smoother u^(2q+1) one.
    """
    u, w = gauss_legendre(n, unit=True)
    return u * u * (3.0 - 2.0 * u), 6.0 * w * u * (1.0 - u)


def sphere_quadrature(dim: int) -> tuple[Array, Array]:
    """Directions and weights with sum w_i g(sigma_i) ~ surface integral over the sphere.

    The rule is split at the coordinate planes: graded Gauss-Legendre in the
    angle per quadrant (2-D, 192 nodes), and in the cosine of the polar angle
    times the azimuth per octant cell (3-D, 3200 nodes); the sphere's area
    element is d(cos) d(azimuth).  In 1-D the sphere is {-1, 1}.
    """
    if dim == 1:
        return np.array([[-1.0], [1.0]]), np.ones(2)
    if dim not in _SPHERE_NODES:
        raise ValueError("dim must be 1, 2 or 3")
    t, wt = _graded_gauss(_SPHERE_NODES[dim])
    theta = 0.5 * math.pi * np.concatenate([t + k for k in range(4)])
    wtheta = np.tile(0.5 * math.pi * wt, 4)
    if dim == 2:
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1), wtheta
    pts, w = tensor_grid([(np.concatenate([t, -t]), np.tile(wt, 2)), (theta, wtheta)])
    cos_polar, azimuth = pts.T
    sphi = np.sqrt(np.maximum(0.0, 1.0 - cos_polar ** 2))
    return np.stack([sphi * np.cos(azimuth), sphi * np.sin(azimuth), cos_polar], axis=-1), w


def _facet_cells(on: Array, unit: Array) -> tuple[Array, Array]:
    """Gauss points and area weights on the convex facet with vertices ``on``.

    A point in 1-D, an edge in 2-D, and in 3-D a fan of triangles from the
    vertex centroid, each with the collapsed (Duffy) tensor Gauss rule.
    """
    dim = on.shape[1]
    if dim == 1:
        return on[:1], np.ones(1)
    s, ws = gauss_legendre(_FACET_NODES[dim], unit=True)
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
        omega, w = sphere_quadrature(dim)
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
# Sphere constants and the sphere-to-body reduction check
# ---------------------------------------------------------------------------

def sphere_constant(dim: int, p: float) -> float:
    """The classical sphere moment: surface integral of |e . sigma|^p."""
    dirs, w = sphere_quadrature(dim)
    return float(np.dot(w, np.abs(dirs[:, 0]) ** p))


def sphere_body_identity_check(g, body: ConvexBody, m: int,
                               p: float) -> tuple[float, float, float]:
    """Check the sphere-to-body reduction for a positively m-homogeneous g.

    lhs = surface integral of gauge(sigma)^-(dim + m p) |g(sigma)|^p,
    rhs = (dim + m p) * integral_K |g(y)|^p dy, the latter by the tensor
    volume rule.  Returns (lhs, rhs, relative gap), with gap defined as 0 when
    both vanish.
    """
    dirs, w = sphere_quadrature(body.dim)
    power = body.dim + m * p
    lhs = float(np.dot(w, body.gauge(dirs) ** (-power) * np.abs(g(dirs)) ** p))
    pts, wy = body_quadrature_nodes(body, 64, 128)
    rhs = power * float(np.dot(wy, np.abs(g(pts)) ** p))
    if rhs == 0.0 and lhs == 0.0:
        return 0.0, 0.0, 0.0
    return lhs, rhs, abs(lhs - rhs) / abs(rhs)
