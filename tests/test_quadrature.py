"""The deterministic rules: bitwise pins of the targets and of the rules' arrays, the
gauge breakpoints each body supplies, and the lp-ball targets against closed forms."""

import hashlib
import math
import pathlib

import numpy as np
import pytest

from nonlocal_limits.bodies import ConvexBody
from nonlocal_limits.config import load_config
from nonlocal_limits.functionals import FunctionalSpec, local_limit, theorem_constant
from nonlocal_limits.functions import make_function
from nonlocal_limits.quadrature import _outer_grid, _split_grid, cone_nodes, sphere_quadrature

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: float.hex of every job's local_limit in the user config and the three benchmark workloads
LIMITS = {
    ("configs/acceptance.json", "level-set-m1-interval"): "0x1.40d931ff626f2p+0",
    ("configs/acceptance.json", "mollified-m2-interval"): "0x1.e145caff13a6ap-2",
    ("configs/acceptance.json", "mollified-m1-interval"): "0x1.40d931ff626f2p+1",
    ("configs/acceptance.json", "taylor-level-set-m2-interval"): "0x1.e145caff13a6ap-2",
    ("configs/acceptance.json", "anisotropic-ellipse-m1"): "0x1.8ac8bfc2dd768p+4",
    ("perfbench/workloads/acceptance.json", "level-set-m1-interval"): "0x1.40d931ff626f2p+0",
    ("perfbench/workloads/acceptance.json", "mollified-m2-interval"): "0x1.e145caff13a6ap-2",
    ("perfbench/workloads/acceptance.json", "mollified-m1-interval"): "0x1.40d931ff626f2p+1",
    ("perfbench/workloads/acceptance.json", "taylor-level-set-m2-interval"):
        "0x1.e145caff13a6ap-2",
    ("perfbench/workloads/acceptance.json", "anisotropic-ellipse-m1"): "0x1.8ac8bfc2dd768p+4",
    ("perfbench/workloads/bodies-2d.json", "shell-m2-ellipse"): "0x1.b4bae0ef91cb6p+4",
    ("perfbench/workloads/bodies-2d.json", "taylor-shell-m2-box"): "0x1.e50fd90d8a36ap+1",
    ("perfbench/workloads/bodies-2d.json", "fractional-m1-ellipse"): "0x1.8ac8bfc2dd768p+5",
    ("perfbench/workloads/bodies-2d.json", "shell-m1-hexagon"): "0x1.82f1a11868e09p+3",
    ("perfbench/workloads/bodies-2d.json", "level-set-m1-l4-ball"): "0x1.bea5b6072b277p+2",
    ("perfbench/workloads/deterministic.json", "shell-m1-gaussian"): "0x1.40d931ff626f2p+1",
    ("perfbench/workloads/deterministic.json", "shell-m2-poly-bump"): "0x1.98ce20adc9c30p+2",
    ("perfbench/workloads/deterministic.json", "taylor-shell-m3-p3-sine-bump"):
        "0x1.5cdf4a9e98f6dp+9",
    ("perfbench/workloads/deterministic.json", "fractional-m1-poly-bump"): "0x1.059373c180b6ap+3",
}

HEXAGON = ConvexBody.polytope([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.8660254037844386],
                               [-0.5, -0.8660254037844386], [-0.5, 0.8660254037844386],
                               [0.5, -0.8660254037844386]], [1.0] * 6)
OCTAHEDRON = ConvexBody.polytope([[a, b, c] for a in (1.0, -1.0) for b in (1.0, -1.0)
                                  for c in (1.0, -1.0)], [1.0] * 8)
BODIES = {
    "ball-2d": ConvexBody.ball(1.0, 2), "ellipse": ConvexBody.ellipsoid([2.0, 1.0]),
    "box-2d": ConvexBody.box([1.0, 0.5]), "hexagon": HEXAGON,
    "l4-ball-2d": ConvexBody.lp_ball(4.0, 1.0, 2), "l100-ball-2d": ConvexBody.lp_ball(100.0, 1.0, 2),
    "ball-3d": ConvexBody.ball(1.0, 3), "box-3d": ConvexBody.box([1.0, 0.5, 2.0]),
    "octahedron": OCTAHEDRON, "l4-ball-3d": ConvexBody.lp_ball(4.0, 1.0, 3),
}

#: sha256 of the nodes and weights of the sphere rule and the cone rule of each body
RULES = {
    ("ball-2d", "sphere"): "71c3beffe27e69699bd594c4084181a7cb0bc1c5be61831c44bca123f6da55a5",
    ("ball-2d", "cone"): "02bda66a1ab521a58aed0bdaa68882b335f5644f26f222559130ef098ed20922",
    ("ellipse", "sphere"): "71c3beffe27e69699bd594c4084181a7cb0bc1c5be61831c44bca123f6da55a5",
    ("ellipse", "cone"): "8eff36f8a8da2453ba80be33d3c55dfc0490dd1fee5a571312f55b9a90455fce",
    ("box-2d", "sphere"): "2caa86b9b143934f647c32d4b57c33fb0b9282bcb485dd1730c924e3b29be3d3",
    ("box-2d", "cone"): "13740f4633590df13225209f9aed8ebc690e9d8fd03b2358905c9d8072d632e0",
    ("hexagon", "sphere"): "2d271178b555d2d4c53c72da3a2b2d0a3ae8aa16850675bdbf336baf7d552a1a",
    ("hexagon", "cone"): "cc5e1d148a2a331f726e834325db3ef2ccbeaba28bbab5f999092979c70ada74",
    ("l4-ball-2d", "sphere"): "94efeaf2605a27ed6ac4387cdd599638cc4400a70c5233126b0e809f4edc5faf",
    ("l4-ball-2d", "cone"): "6d7729031356676e0ef4146010722ac374cd30d35aac1f50aea959da1dd8f88e",
    ("l100-ball-2d", "sphere"):
        "94efeaf2605a27ed6ac4387cdd599638cc4400a70c5233126b0e809f4edc5faf",
    ("l100-ball-2d", "cone"): "e36b8e5b6b85bf6d17170d0a67c07f8a8be9914e20558d09958734b198d9852f",
    ("ball-3d", "sphere"): "3fce4717afd4275659ff6eef3f0128d12dc972486a826c1a4e6c1ad455b22ce1",
    ("ball-3d", "cone"): "864992bec0de05968bd473263de3245780ad97ac7a6bb9ed392c73c82c17c32e",
    ("box-3d", "sphere"): "3fce4717afd4275659ff6eef3f0128d12dc972486a826c1a4e6c1ad455b22ce1",
    ("box-3d", "cone"): "1ab330044e5902650121143a337727ec6f1b7d65c8a33fb8339f3838633ca97f",
    ("octahedron", "sphere"): "3fce4717afd4275659ff6eef3f0128d12dc972486a826c1a4e6c1ad455b22ce1",
    ("octahedron", "cone"): "a8c01ff9a18d7f36c9354d87460efbe61910564ab6851aa765c99cfd9746c66b",
    ("l4-ball-3d", "sphere"): "3fce4717afd4275659ff6eef3f0128d12dc972486a826c1a4e6c1ad455b22ce1",
    ("l4-ball-3d", "cone"): "6c04c1d8b0656b1d2362030ad3f0054483b8007736069d3696c9ecd4acd6884f",
}

#: sha256 of the target grid and of the split grid on the box of radius 4.5
GRIDS = {
    ("gaussian", 2, "outer"): "e767a9645e5dc62a16f64967566a99819bcb7a5858dbcd58561f7be6ce9130c0",
    ("gaussian", 2, "split"): "8370d51b9c35e875eb9f1d3c7dfe4d527dccb4952f4782eabdb91b0b72ebeb8e",
    ("gaussian", 3, "outer"): "f5622c3f3f5ff4cf83073fb29c2e56457403e778363b7be84e0026652d78a865",
    ("gaussian", 3, "split"): "3d73e3bcaf77fbb83e6480115f062be959d9643f46b096a1364701d3ade97339",
    ("poly_bump", 2, "outer"): "a7def2b1b99ea4abe19132fac1e5378c1178dd6e61d1cf0c6a39d8876e85ce4c",
    ("poly_bump", 2, "split"): "98344e450f7d167dccaa4f23027f8d0ba4ad4b24768d34254e0d464dc75b68a9",
    ("poly_bump", 3, "outer"): "baef843aa456b7ecd645ccc53f491b39114111a01475b69b85e27f268f7b148c",
    ("poly_bump", 3, "split"): "72c04fde6cb009734f05753e4150ae4f2c5ad34de09124cc72bf28172ca66389",
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("path", sorted({path for path, _ in LIMITS}))
def test_local_limits_are_pinned_bitwise(path):
    jobs = load_config(str(ROOT / path)).jobs
    assert sorted(job.name for job in jobs) == sorted(name for p, name in LIMITS if p == path)
    for job in jobs:
        assert local_limit(job.spec).hex() == LIMITS[path, job.name], job.name


@pytest.mark.parametrize("name", BODIES)
def test_sphere_and_cone_rules_are_pinned_bitwise(name):
    body = BODIES[name]
    assert digest(*sphere_quadrature(body)) == RULES[name, "sphere"]
    assert digest(*cone_nodes(body)) == RULES[name, "cone"]


@pytest.mark.parametrize("fname,dim", [("gaussian", 2), ("gaussian", 3), ("poly_bump", 2),
                                       ("poly_bump", 3)])
def test_x_grids_are_pinned_bitwise(fname, dim):
    f = make_function(fname, dim)
    assert digest(*_outer_grid(f)) == GRIDS[fname, dim, "outer"]
    assert digest(*_split_grid(f, 4.5)) == GRIDS[fname, dim, "split"]


QUARTER = 0.5 * math.pi
ONE_D = {"ball-1d": ConvexBody.ball(1.0, 1), "box-1d": ConvexBody.box([2.0]),
         "polytope-1d": ConvexBody.polytope([[2.0], [-2.0]], [1.0, 1.0])}
#: box [1, 0.5]: its vertex (1, 0.5) lies at atan(1/2) from the first axis
BOX_CORNER = math.atan2(0.5, 1.0) / QUARTER


@pytest.mark.parametrize("name, expected", [
    ("ball-2d", []), ("ellipse", []),
    ("box-2d", [BOX_CORNER, 2.0 - BOX_CORNER, 2.0 + BOX_CORNER, 4.0 - BOX_CORNER]),
    # facet normals every 60 degrees from the first axis, so vertices every 60 from 30
    ("hexagon", [1.0 / 3.0, 1.0, 5.0 / 3.0, 7.0 / 3.0, 3.0, 11.0 / 3.0]),
    ("l4-ball-2d", [0.5, 1.5, 2.5, 3.5]), ("l100-ball-2d", [0.5, 1.5, 2.5, 3.5]),
    # none off the plane: the 1-D and 3-D rules are split at the coordinate planes only
    ("ball-3d", []), ("box-3d", []), ("octahedron", []), ("l4-ball-3d", []),
    ("ball-1d", []), ("box-1d", []), ("polytope-1d", [])])
def test_breakpoints_of_each_kind(name, expected):
    body = (BODIES | ONE_D)[name]
    assert body.breakpoints.ndim == 1
    np.testing.assert_allclose(np.sort(body.breakpoints), expected, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name", [name for name, body in BODIES.items() if body.dim == 2])
def test_circle_arcs_end_at_the_axes_and_the_breakpoints(name):
    # each arc carries one graded rule of 48 nodes, inside the arc, of weight its length; a
    # breakpoint on an axis (the hexagon's at a quarter turn) ends no extra arc
    body = BODIES[name]
    ends = np.unique(np.round(np.concatenate([np.arange(5.0), body.breakpoints]), 12))
    dirs, w = sphere_quadrature(body)
    assert len(w) == 48 * (len(ends) - 1)
    turns = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * math.pi) / QUARTER
    for k, (a, b) in enumerate(zip(ends, ends[1:])):
        arc = slice(48 * k, 48 * (k + 1))
        assert np.all((a < turns[arc]) & (turns[arc] < b)), (a, b)
        assert w[arc].sum() == pytest.approx((b - a) * QUARTER, rel=1e-13)


def lp_ball_second_moment(q: float, dim: int) -> float:
    """The integral of y_1^2 over the unit lp ball, by Dirichlet's integral."""
    return math.exp(dim * math.log(2.0) + math.lgamma(3.0 / q) + (dim - 1) * math.lgamma(1.0 / q)
                    - dim * math.log(q) - math.lgamma((dim + 2.0) / q + 1.0))


@pytest.mark.parametrize("q", [4.0, 20.0, 100.0, 400.0, 1000.0])
def test_2d_lp_ball_targets_match_their_closed_form(q):
    # the shared integral of exp(-|x|^2), m = 1, p = 2, is int |grad f|^2 = pi times the
    # second moment of K; a sphere rule split at the axes only was off by up to -2.9e-3
    f, body = make_function("gaussian", 2), ConvexBody.lp_ball(q, 1.0, 2)
    spec = FunctionalSpec("nguyen_centered", f, body, 1, 2.0, 0.1)
    shared = local_limit(spec) / theorem_constant("nguyen_centered", 1, 2.0, 2)
    assert shared == pytest.approx(math.pi * lp_ball_second_moment(q, 2), rel=1e-9)
