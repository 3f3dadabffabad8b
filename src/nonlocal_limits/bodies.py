"""Origin-symmetric convex bodies: gauge norms, inner and outer radii, volumes.

A body K defines the gauge ||x||_K = inf{lam > 0 : x/lam in K}, which is a norm
whose unit ball is K.  Supported kinds: ball, box, ellipsoid, lp_ball, and
facet-represented symmetric polytopes.  Integrals over K are quadrature rules
in ``quadrature``, which splits its sphere rule at each body's ``breakpoints``;
nothing here draws random points in K.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .functions import MAX_DIM, as_points

Array = np.ndarray

_EUCLID_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}

#: the largest lp-ball exponent q: on the unit sphere the least sum |sigma_i|^q is
#: dim^(1 - q/2), a normal double while q <= 2 + 2044 / log2(dim), about 1291 in 3-D;
#: above it the gauge underflows to 0 (at q = 5000 in 2-D on the diagonal)
MAX_LP_EXPONENT = 1000


def _unit_lp_ball_volume(dim: int, q: float) -> float:
    return 2.0 ** dim * math.gamma(1.0 + 1.0 / q) ** dim / math.gamma(1.0 + dim / q)


@dataclass(frozen=True)
class ConvexBody:
    """Immutable symmetric convex body with closed-form gauge.

    ``params`` is kind-specific:
      ball       -> (radius,)
      box        -> half-widths per axis
      ellipsoid  -> semi-axes
      lp_ball    -> (exponent, radius)
      polytope   -> (normals flattened, offsets), facet set closed under negation
    """

    kind: str
    dim: int
    params: tuple
    inner_radius: float
    outer_radius: float

    # -- constructors -------------------------------------------------------

    @staticmethod
    def ball(radius: float, dim: int) -> "ConvexBody":
        _check_dim(dim)
        if radius <= 0:
            raise ValueError("radius must be positive")
        return ConvexBody("ball", dim, (float(radius),), float(radius), float(radius))

    @staticmethod
    def box(half_widths) -> "ConvexBody":
        hw = tuple(float(w) for w in half_widths)
        _check_dim(len(hw))
        if any(w <= 0 for w in hw):
            raise ValueError("half-widths must be positive")
        return ConvexBody("box", len(hw), hw, min(hw), math.hypot(*hw))

    @staticmethod
    def ellipsoid(semi_axes) -> "ConvexBody":
        ax = tuple(float(a) for a in semi_axes)
        _check_dim(len(ax))
        if any(a <= 0 for a in ax):
            raise ValueError("semi-axes must be positive")
        return ConvexBody("ellipsoid", len(ax), ax, min(ax), max(ax))

    @staticmethod
    def lp_ball(exponent: float, radius: float, dim: int) -> "ConvexBody":
        _check_dim(dim)
        if not 1.0 <= exponent <= MAX_LP_EXPONENT:
            raise ValueError(f"lp exponent must be in [1, {MAX_LP_EXPONENT:g}]; got {exponent}")
        if radius <= 0:
            raise ValueError("radius must be positive")
        # boundary Euclidean extremes sit on an axis and on the diagonal
        diag = dim ** (0.5 - 1.0 / exponent)
        inner = radius * min(1.0, diag)
        outer = radius * max(1.0, diag)
        return ConvexBody("lp_ball", dim, (float(exponent), float(radius)), inner, outer)

    @staticmethod
    def polytope(normals, offsets) -> "ConvexBody":
        nm = np.asarray(normals, dtype=float)
        off = np.asarray(offsets, dtype=float)
        if nm.ndim != 2 or nm.shape[0] != off.shape[0]:
            raise ValueError("normals must be (facets, dim) matching offsets")
        _check_dim(nm.shape[1])
        if np.any(off <= 0):
            raise ValueError("facet offsets must be positive")
        dim = nm.shape[1]
        # symmetry: every facet must have its negation in the facet set
        for i in range(nm.shape[0]):
            matched = np.any(
                np.all(np.abs(nm + nm[i]) < 1e-12, axis=1) & (np.abs(off - off[i]) < 1e-12)
            )
            if not matched:
                raise ValueError("polytope facet set is not closed under negation")
        inner = float(np.min(off / np.linalg.norm(nm, axis=1)))
        outer = max(float(np.linalg.norm(v)) for v in _polytope_vertices(nm, off))
        return ConvexBody("polytope", dim, (tuple(map(tuple, nm.tolist())), tuple(off.tolist())),
                          inner, outer)

    # -- geometry ------------------------------------------------------------

    def gauge(self, x) -> Array:
        """Minkowski gauge ||x||_K, vectorized over the leading axes of x.

        Reductions over the last axis run column by column (a reduction over a
        short last axis is many times slower); sums keep the axis order, so
        the values are bitwise those of the axis reductions.
        """
        pts = as_points(x, self.dim)
        if self.kind == "ball":
            return np.linalg.norm(pts, axis=-1) / self.params[0]
        if self.kind == "box":
            return _column_max(np.abs(pts), self.params)
        if self.kind == "polytope":
            normals, offsets = self.params
            return _column_max(pts @ np.asarray(normals).T, offsets)
        if self.kind == "ellipsoid":
            ax = self.params
            total = (pts[..., 0] / ax[0]) ** 2
            for i in range(1, self.dim):
                total = total + (pts[..., i] / ax[i]) ** 2
            return np.sqrt(total)
        q, radius = self.params
        total = np.abs(pts[..., 0]) ** q
        for i in range(1, self.dim):
            total = total + np.abs(pts[..., i]) ** q
        return total ** (1.0 / q) / radius

    def facets(self) -> tuple[Array, Array, Array]:
        """Facet normals, offsets and vertices of a box or polytope."""
        if self.kind == "box":
            half = np.asarray(self.params)
            normals = np.concatenate([np.eye(self.dim), -np.eye(self.dim)])
            offsets = np.concatenate([half, half])
            return normals, offsets, np.array(list(itertools.product(*[(-h, h) for h in half])))
        normals, offsets = map(np.asarray, self.params)
        return normals, offsets, _polytope_vertices(normals, offsets)

    @property
    def breakpoints(self) -> Array:
        """The 2-D directions, in quarter turns in [0, 4), where the gauge is not smooth: the
        vertex directions of a box or polytope, and the diagonals of an lp ball, where a
        large exponent turns sharply.  None for other kinds and dims."""
        if self.dim != 2 or self.kind in ("ball", "ellipsoid"):
            return np.empty(0)
        if self.kind == "lp_ball":
            return np.arange(0.5, 4.0)
        vertices = self.facets()[2]
        return np.mod(np.arctan2(vertices[:, 1], vertices[:, 0]) / (0.5 * math.pi), 4.0)

    @property
    def volume(self) -> float | None:
        """Closed-form volume, or None for a polytope."""
        if self.kind == "ball":
            return _EUCLID_BALL_VOLUME[self.dim] * self.params[0] ** self.dim
        if self.kind == "box":
            return math.prod(2.0 * w for w in self.params)
        if self.kind == "ellipsoid":
            return _EUCLID_BALL_VOLUME[self.dim] * math.prod(self.params)
        if self.kind == "lp_ball":
            q, radius = self.params
            return _unit_lp_ball_volume(self.dim, q) * radius ** self.dim
        return None

    def descriptor(self) -> dict:
        """JSON-ready description (matches the experiment-config body schema)."""
        if self.kind == "ball":
            return {"kind": "ball", "radius": self.params[0], "dim": self.dim}
        if self.kind == "box":
            return {"kind": "box", "half_widths": list(self.params)}
        if self.kind == "ellipsoid":
            return {"kind": "ellipsoid", "semi_axes": list(self.params)}
        if self.kind == "lp_ball":
            return {"kind": "lp_ball", "exponent": self.params[0],
                    "radius": self.params[1], "dim": self.dim}
        normals, offsets = self.params
        return {"kind": "polytope", "normals": [list(n) for n in normals],
                "offsets": list(offsets)}


def _check_dim(dim) -> None:
    """A body's dimension is an integer in 1..MAX_DIM."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or not 1 <= dim <= MAX_DIM:
        raise ValueError(f"body dimension must be an integer in 1..{MAX_DIM}; got {dim!r}")


def _column_max(cols: Array, scales) -> Array:
    """max_i cols[..., i] / scales[i], one column at a time."""
    best = cols[..., 0] / scales[0]
    for i in range(1, len(scales)):
        best = np.maximum(best, cols[..., i] / scales[i])
    return best


def _polytope_vertices(normals: Array, offsets: Array) -> Array:
    """Distinct vertices of {x : normals x <= offsets}, by enumerating facet intersections.

    Small dims only: every choice of ``dim`` facets is solved and kept when
    the solve is accurate (it is not for near-parallel or overflowing facets)
    and the point satisfies all facet inequalities.
    """
    facets, dim = normals.shape
    vertices: list[Array] = []
    for idx in itertools.combinations(range(facets), dim):
        a, b = normals[list(idx)], offsets[list(idx)]
        try:
            v = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if (np.all(np.abs(a @ v - b) <= 1e-9 * b)
                and np.all(normals @ v <= offsets * (1.0 + 1e-9))
                and all(np.abs(v - u).max() > 1e-9 * np.abs(u).max() for u in vertices)):
            vertices.append(v)
    if not vertices:
        raise ValueError("polytope vertex enumeration found no vertices")
    # a bounded symmetric body has vertex pairs +-v spanning R^dim
    if len(vertices) < 2 * dim or np.linalg.matrix_rank(np.array(vertices)) < dim:
        raise ValueError(f"polytope vertex enumeration found {len(vertices)} vertices, "
                         f"too few for a bounded {dim}-D body")
    return np.array(vertices)


def from_descriptor(desc: dict) -> ConvexBody:
    """Build a body from its config-dict form."""
    kind = desc.get("kind")
    if kind == "ball":
        return ConvexBody.ball(desc["radius"], desc["dim"])
    if kind == "box":
        return ConvexBody.box(desc["half_widths"])
    if kind == "ellipsoid":
        return ConvexBody.ellipsoid(desc["semi_axes"])
    if kind == "lp_ball":
        return ConvexBody.lp_ball(desc["exponent"], desc["radius"], desc["dim"])
    if kind == "polytope":
        return ConvexBody.polytope(desc["normals"], desc["offsets"])
    raise ValueError(f"unknown body kind {kind!r}")

