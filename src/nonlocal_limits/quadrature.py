"""The deterministic rules, in this order: Gauss-Legendre (``gauss_legendre``), its
tensor grids, and its panels cut where an integrand is not analytic (Trefethen,
SIAM Review 50, 2008), which make the x grids; the tensor volume rule of ball,
box and ellipsoid; the one unit-sphere rule, split at the coordinate planes and
at the body's ``ConvexBody.breakpoints``; the cone-measure rule on the boundary
of K (Lasserre, Proc. AMS 126, 1998), which integrates the targets over K; and
the sphere-to-body check, which compares the sphere rule with the volume rule.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .bodies import ConvexBody
from .functions import TestFunction

Array = np.ndarray

#: Gauss-Legendre nodes per quadrant (2-D) and per axis of an octant cell (3-D)
_SPHERE_NODES = {2: 48, 3: 20}
#: Gauss-Legendre nodes per facet edge (2-D) and per axis of a facet triangle (3-D)
_FACET_NODES = {2: 16, 3: 10}
#: Gauss-Legendre nodes per axis of the target grid, and per panel of the split grid
_OUTER_NODES = {1: 160, 2: 96, 3: 56}


@lru_cache(maxsize=None)
def gauss_legendre(n: int, unit: bool = False) -> tuple[Array, Array]:
    """n-point Gauss-Legendre rule on [-1, 1], or on [0, 1] if ``unit``; built once, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    if unit:
        nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def tensor_grid(axes) -> tuple[Array, Array]:
    """Tensor product of per-axis ``(nodes, weights)``: points (n, d) and weights (n,)."""
    grids = np.meshgrid(*[nodes for nodes, _ in axes], indexing="ij")
    weights = np.ones_like(grids[0])
    for wgrid in np.meshgrid(*[w for _, w in axes], indexing="ij"):
        weights = weights * wgrid
    return np.stack([g.ravel() for g in grids], axis=-1), weights.ravel()


def _panels(half: float, cuts, n: int):
    """n Gauss-Legendre nodes and weights on each panel of [-half, half] cut at ``cuts``."""
    ends = [-half, *sorted(c for c in cuts if -half < c < half), half]
    xg, wg = gauss_legendre(n)
    pieces = [(0.5 * (a + b) + 0.5 * (b - a) * xg, 0.5 * (b - a) * wg)
              for a, b in zip(ends, ends[1:])]
    return np.concatenate([x for x, _ in pieces]), np.concatenate([w for _, w in pieces])


def _outer_grid(f: TestFunction):
    """Tensor Gauss-Legendre grid on the support box of f."""
    return tensor_grid([_panels(f.support_radius, (), _OUTER_NODES[f.dim])] * f.dim)


def _split_grid(f: TestFunction, box_radius: float):
    """Tensor grid on the box [-box_radius, box_radius]^N, each axis clipped to its
    profile's support and cut at the profile's breakpoints, where it is not analytic."""
    n = _OUTER_NODES[f.dim]
    return tensor_grid([_panels(box_radius if prof.support is None
                                else min(box_radius, prof.support), prof.breakpoints, n)
                        for prof in f.profiles])


def body_quadrature_nodes(body: ConvexBody, radial_nodes: int = 48,
                          angular_nodes: int = 64) -> tuple[Array, Array]:
    """Nodes and weights with sum w_i f(y_i) ~ integral_K f; ball/box/ellipsoid only."""
    if body.kind not in ("ball", "box", "ellipsoid"):
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


def _graded_gauss(n: int) -> tuple[Array, Array]:
    """n Gauss-Legendre nodes and weights on [0, 1], pulled through u -> 3u^2 - 2u^3.

    The map flattens both ends, where the sphere rule meets a coordinate
    plane.  There the gauge of an lp ball with a non-even exponent q has a
    |angle|^q term, which the map turns into a smoother u^(2q+1) one.
    """
    u, w = gauss_legendre(n, unit=True)
    return u * u * (3.0 - 2.0 * u), 6.0 * w * u * (1.0 - u)


def sphere_quadrature(body: ConvexBody) -> tuple[Array, Array]:
    """Directions and weights with sum w_i g(sigma_i) ~ surface integral over the sphere.

    The rule is split at the coordinate planes: graded Gauss-Legendre in the
    angle per quadrant (2-D, 192 nodes), and in the cosine of the polar angle
    times the azimuth per octant cell (3-D, 3200 nodes); the sphere's area
    element is d(cos) d(azimuth).  In 1-D the sphere is {-1, 1}.  The arcs
    are also split at the ``body``'s breakpoints, where its gauge is not
    smooth, and each arc gets the quadrant's graded rule.
    """
    dim = body.dim
    if dim == 1:
        return np.array([[-1.0], [1.0]]), np.ones(2)
    t, wt = _graded_gauss(_SPHERE_NODES[dim])
    # arc ends in quadrants: the axes, then the gauge's breakpoints
    ends = np.unique(np.concatenate([np.arange(5.0), body.breakpoints]))
    ends = ends[np.concatenate([[True], np.diff(ends) > 1e-12])]
    ends[-1] = 4.0
    theta = 0.5 * math.pi * np.concatenate([a + (b - a) * t for a, b in zip(ends, ends[1:])])
    wtheta = 0.5 * math.pi * np.concatenate([(b - a) * wt for a, b in zip(ends, ends[1:])])
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
    for the first two): the body's sphere rule (omega, w_omega) maps to
    z = A omega / |omega|_q with w = det(A) w_omega |omega|_q^-dim.  Boxes and
    polytopes use their facets: facet F_i at distance b_i/|n_i| from the
    origin contributes Gauss points on F_i with weight (b_i/|n_i|) dA.

    A 2-D lp ball's sphere rule is also split at the diagonals: its
    ``nguyen_centered`` m = 1, p = 2 target of ``gaussian`` is within 1.5e-10
    relative of the closed form for every q <= 1000.  The 3-D octant cells are
    not cut along |sigma_i| = |sigma_j|, and that target is off by -8.1e-7 at
    q = 4 and -1.6e-2 at q = 1000 (ROADMAP item 2).
    """
    dim = body.dim
    if body.kind in ("ball", "ellipsoid", "lp_ball"):
        omega, w = sphere_quadrature(body)
        q = body.params[0] if body.kind == "lp_ball" else 2.0
        semi = (np.asarray(body.params) if body.kind == "ellipsoid"
                else np.full(dim, body.params[-1]))
        norm = np.sum(np.abs(omega) ** q, axis=1) ** (1.0 / q)
        return semi * omega / norm[:, np.newaxis], float(np.prod(semi)) * w * norm ** (-dim)
    normals, offsets, vertices = body.facets()
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


def sphere_body_identity_check(g, body: ConvexBody, m: int,
                               p: float) -> tuple[float, float, float]:
    """Check the sphere-to-body reduction for a positively m-homogeneous g.

    lhs = surface integral of gauge(sigma)^-(dim + m p) |g(sigma)|^p by the
    body's sphere rule, rhs = (dim + m p) * integral_K |g(y)|^p dy by the
    tensor volume rule.  Returns (lhs, rhs, relative gap), with gap defined
    as 0 when both vanish.
    """
    dirs, w = sphere_quadrature(body)
    power = body.dim + m * p
    lhs = float(np.dot(w, body.gauge(dirs) ** (-power) * np.abs(g(dirs)) ** p))
    pts, wy = body_quadrature_nodes(body, 64, 128)
    rhs = power * float(np.dot(wy, np.abs(g(pts)) ** p))
    if rhs == 0.0 and lhs == 0.0:
        return 0.0, 0.0, 0.0
    return lhs, rhs, abs(lhs - rhs) / abs(rhs)
