"""Registry of smooth test functions with exact analytic partial derivatives.

Every registered function is a tensor product of 1-D profiles, so an arbitrary
partial derivative factors into exact 1-D derivatives, and the Monte Carlo
proposal for the outer point factors into per-axis laws.  Functions are
vectorized over point batches of shape ``(..., dim)``.

Each profile implements one method, ``derivatives(orders, u)``, and computes every
requested order in one pass over u: one Hermite recurrence for the Gaussian, one
transition recursion for the plateau cutoff (its ramps share one exponential), one
table per factor of a product, combined by the Leibniz rule.  ``derivative(k, u)`` is
``derivatives((k,), u)[k]``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

Array = np.ndarray

#: ``Profile1D.proposal`` value of an axis whose outer-point law is N(0, 1)
NORMAL = "normal"

#: highest dimension of a test function, a body and a functional
MAX_DIM = 3


def as_points(x, dim: int) -> Array:
    """Coerce ``x`` to a float array whose last axis has length ``dim``.

    Scalars and shape-``(n,)`` batches are accepted when ``dim == 1``.
    """
    pts = np.asarray(x, dtype=float)
    if dim == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
        pts = pts[..., np.newaxis]
    if pts.shape[-1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {pts.shape}")
    return pts


# ---------------------------------------------------------------------------
# 1-D profiles
# ---------------------------------------------------------------------------

class Profile1D:
    """One-dimensional factor with exact derivatives of any requested order."""

    #: half-width of the support, or None when unbounded
    support: float | None = None
    #: default half-width used for numerical sup bounds when support is None
    bound_range: float = 8.0
    #: points where the profile is not analytic; quadratures in x split there
    breakpoints: tuple[float, ...] = ()

    def value(self, u: Array) -> Array:
        return self.derivative(0, u)

    def derivative(self, k: int, u: Array) -> Array:
        return self.derivatives((k,), u)[k]

    def derivatives(self, orders, u: Array) -> dict[int, Array]:
        """A fresh array of the k-th derivative at u for each k in ``orders``, keyed by k."""
        raise NotImplementedError

    def proposal(self) -> float | str | None:
        """Outer-point law for this axis: the half-width of a uniform law on the
        support, ``NORMAL`` for N(0, 1), or None when there is none."""
        return self.support

    def sup_derivative(self, k: int) -> float:
        """Estimate of sup |d^k profile| over the support: a maximum over 8,193 grid points
        times 1.02.  Radial truncation needs an over-estimate, and nothing proves that this
        is one (ROADMAP: certified derivative bounds, open): a grid can miss a narrow peak.
        """
        half = self.support if self.support is not None else self.bound_range
        grid = np.linspace(-half, half, 8193)
        return 1.02 * float(np.max(np.abs(self.derivative(k, grid))))


class GaussianProfile(Profile1D):
    """exp(-u^2); derivatives via the Hermite recurrence."""

    def proposal(self) -> str:
        return NORMAL

    def derivatives(self, orders, u: Array) -> dict[int, Array]:
        """One exponential and one Hermite recurrence up to the highest order."""
        u = np.asarray(u, dtype=float)
        damp = np.multiply(u, u, out=np.empty_like(u))
        np.negative(damp, out=damp)
        np.exp(damp, out=damp)
        out = {0: damp} if 0 in orders else {}
        h_prev, h = 0.0, 1.0
        for j in range(max(orders)):
            h, h_prev = 2.0 * u * h - 2.0 * j * h_prev, h
            if j + 1 in orders:
                out[j + 1] = (-1.0) ** (j + 1) * h * damp
        return out


class PolynomialProfile(Profile1D):
    """Plain polynomial factor (unbounded support, identity tests only), bounded on [-4, 4]."""

    bound_range = 4.0

    def __init__(self, coeffs):
        self.coef = np.asarray(coeffs, dtype=float)

    def derivatives(self, orders, u: Array) -> dict[int, Array]:
        # + 0.0 maps -0.0 to 0.0 as np.polynomial.Polynomial.__call__ does
        u = np.asarray(u, dtype=float) + 0.0
        return {k: polyval(u, polyder(self.coef, k) if k else self.coef) for k in orders}


class SineProfile(Profile1D):
    """sin(omega*u + phase)."""

    def __init__(self, omega: float, phase: float):
        self.omega = omega
        self.phase = phase

    def derivatives(self, orders, u: Array) -> dict[int, Array]:
        arg = self.omega * np.asarray(u, dtype=float) + self.phase
        return {k: self.omega ** k * np.sin(arg + 0.5 * k * math.pi) for k in orders}

    def sup_derivative(self, k: int) -> float:
        return self.omega ** k


class ExpProfile(Profile1D):
    """exp(u); only used inside products with compactly supported factors."""

    def derivatives(self, orders, u: Array) -> dict[int, Array]:
        value = np.exp(np.asarray(u, dtype=float))
        return {k: value.copy("K") for k in orders}


def _ramp_derivatives(max_order: int):
    # d^j/ds^j exp(-1/s) = R_j(1/s) exp(-1/s) with R_{j+1}(w) = w^2 (R_j - R_j')
    polys = [np.polynomial.Polynomial([1.0])]
    w_sq = np.polynomial.Polynomial([0.0, 0.0, 1.0])
    for _ in range(max_order):
        r = polys[-1]
        polys.append(w_sq * (r - r.deriv()))
    return [r.coef for r in polys]


_RAMP_COEFS = _ramp_derivatives(10)


def _ramps(orders, s: Array) -> list[Array]:
    """The k-th derivative of exp(-1/s), 0 for s <= 0, for each k in ``orders``."""
    s = np.asarray(s, dtype=float)
    pos = s > 0.0
    w = 1.0 / s[pos]
    core = np.exp(-w)  # bitwise exp(-1.0 / s): division rounds symmetrically in sign
    out = [np.zeros_like(s) for _ in orders]
    for k, ramp in zip(orders, out):
        ramp[pos] = core * polyval(w, _RAMP_COEFS[k]) if k else core
    return out


class PlateauProfile(Profile1D):
    """Even C^inf cutoff: 1 on [-r0, r0], 0 outside [-r1, r1].

    Transition uses T(s) = A(1-s) / (A(s) + A(1-s)) with A(s) = exp(-1/s),
    whose denominator stays within [2e^-2, e^-1] on (0, 1), so the ratio
    derivatives below are numerically stable.
    """

    def __init__(self, r0: float, r1: float):
        if not 0.0 < r0 < r1:
            raise ValueError("need 0 < r0 < r1")
        self.r0 = r0
        self.r1 = r1
        self.support = r1
        self.breakpoints = (-r1, -r0, r0, r1)

    def _transition_derivs(self, k: int, s: Array) -> list[Array]:
        # derivatives of T = v/(u+v) via v^{(j)} = sum C(j,i) T^{(i)} d^{(j-i)}
        u = _ramps(range(k + 1), s)
        v = [(-1.0) ** j * r for j, r in enumerate(_ramps(range(k + 1), 1.0 - s))]
        d = [ui + vi for ui, vi in zip(u, v)]
        t: list[Array] = [v[0] / d[0]]
        for j in range(1, k + 1):
            acc = v[j].copy()
            for i in range(j):
                acc -= math.comb(j, i) * t[i] * d[j - i]
            t.append(acc / d[0])
        return t

    def derivatives(self, orders, u: Array) -> dict[int, Array]:
        """One transition recursion up to the highest order, on flat indices shared by
        all orders (integer indexing is several times faster than a boolean mask)."""
        u = np.asarray(u, dtype=float)
        a = np.abs(u).reshape(-1)
        trans = np.flatnonzero((a > self.r0) & (a < self.r1))
        width = self.r1 - self.r0
        t = self._transition_derivs(max(orders), (a[trans] - self.r0) / width)
        sign = np.sign(u.take(trans)) if any(k % 2 for k in orders) else None
        out = {}
        for k in orders:
            dk = np.zeros_like(a) if k else (a <= self.r0) * 1.0
            tk = t[k] / width ** k
            dk[trans] = tk * sign if k % 2 else tk
            out[k] = dk.reshape(u.shape)
        return out


class ProductProfile(Profile1D):
    """Pointwise product of two profiles; derivatives by the Leibniz rule."""

    def __init__(self, a: Profile1D, b: Profile1D):
        self.a = a
        self.b = b
        sups = [p.support for p in (a, b) if p.support is not None]
        self.support = min(sups) if sups else None
        self.bound_range = min(p.bound_range for p in (a, b))
        self.breakpoints = tuple(sorted(set(a.breakpoints) | set(b.breakpoints)))

    def derivatives(self, orders, u: Array) -> dict[int, Array]:
        """Each factor's table up to the highest order once, then Leibniz per order."""
        u = np.asarray(u, dtype=float)
        below = range(max(orders) + 1)
        # b first: the registry's plateau factor runs its recursion before a's table exists
        b, a = self.b.derivatives(below, u), self.a.derivatives(below, u)
        out = {k: np.zeros_like(u) for k in orders}
        for k, dk in out.items():
            for j in range(k + 1):
                dk += math.comb(k, j) * a[j] * b[k - j]
        return out


# ---------------------------------------------------------------------------
# Outer-point proposals
# ---------------------------------------------------------------------------

class OuterProposal:
    """Product of per-axis laws, concentrated where the test function varies.

    The engine maps most outer points x to it from lattice coordinates and
    mixes in the uniform truncation box (see ``engine.outer_weights``).
    """

    def __init__(self, axes):
        """``axes``: per-axis ``Profile1D.proposal`` values, none of them None."""
        self.axes = tuple(axes)
        self.dim = len(self.axes)
        self._normal = [i for i, a in enumerate(self.axes) if a == NORMAL]
        self._uniform = [(i, float(a)) for i, a in enumerate(self.axes) if a != NORMAL]
        self._peak = ((2.0 * math.pi) ** (-0.5 * len(self._normal))
                      * math.prod(0.5 / half for _, half in self._uniform))
        #: uniform coordinates per point: a Box-Muller pair per two normal axes, one per
        #: uniform axis
        self.coordinates = 2 * math.ceil(len(self._normal) / 2) + len(self._uniform)
        #: the coordinates that are angles, the second of each Box-Muller pair
        self.angles = tuple(range(1, 2 * math.ceil(len(self._normal) / 2), 2))

    def transform(self, u: Array, turns) -> Array:
        """Points (n, dim) of the law from uniforms ``u`` of shape (coordinates, n) and
        ``turns``, whose row i is exp(2 pi i u[angles[i]]).

        Normal axes take Box-Muller pairs (u, u'): radius sqrt(-2 log(1 - u))
        at angle 2 pi u', a lone normal axis its cosine; each uniform axis of
        half-width h maps its coordinate to -h + 2 h u.
        """
        out = np.empty((u.shape[1], self.dim))
        for pair, turn in zip(range(0, len(self._normal), 2), turns if self.angles else ()):
            radius = np.sqrt(-2.0 * np.log1p(-u[pair]))
            out[:, self._normal[pair]] = radius * turn.real
            if pair + 1 < len(self._normal):
                out[:, self._normal[pair + 1]] = radius * turn.imag
        first = self.coordinates - len(self._uniform)
        for row, (i, half) in enumerate(self._uniform, start=first):
            out[:, i] = -half + 2.0 * half * u[row]
        return out

    def pdf(self, x: Array) -> Array:
        """Density at the rows of x; one exponential covers all normal axes."""
        if self._normal:
            quad = x[:, self._normal[0]] * x[:, self._normal[0]]
            for i in self._normal[1:]:
                quad += x[:, i] * x[:, i]
            quad *= -0.5
            dens = np.exp(quad, out=quad)
            dens *= self._peak
        else:
            dens = np.full(x.shape[0], self._peak)
        for i, half in self._uniform:
            dens *= np.abs(x[:, i]) <= half
        return dens


# ---------------------------------------------------------------------------
# Tensor-product test functions
# ---------------------------------------------------------------------------

class TestFunction:
    """Smooth function R^dim -> R with exact partial derivatives.

    Attributes
    ----------
    support_radius : float
        Euclidean radius outside which the function and its derivatives up to
        ``smoothness_order - 1`` stay below ``tail_tol``.
    integrable : bool
        False for ``polynomial_function`` output, which exists only for the
        algebraic identity tests and is rejected by the functional evaluators.
    proposal : OuterProposal | None
        Law for the outer point of Monte Carlo pair integrals, built from the
        profiles' own axis laws; None when some profile has none, in which
        case outer points stay uniform on the truncation box.
    """

    #: highest derivative order ``partial`` returns, the same for every function
    smoothness_order = 6

    def __init__(self, name: str, profiles: list[Profile1D], support_radius: float,
                 tail_tol: float = 1e-10, integrable: bool = True):
        self.name = name
        self.dim = len(profiles)
        self.profiles = profiles
        self.support_radius = float(support_radius)
        self.tail_tol = tail_tol
        self.integrable = integrable
        axes = [prof.proposal() for prof in profiles]
        self.proposal = None if None in axes else OuterProposal(axes)
        self._bound_cache: dict[int, float] = {}
        self._sup_cache: dict[tuple[int, ...], float] = {}

    def __repr__(self):  # pragma: no cover
        return f"TestFunction({self.name!r}, dim={self.dim})"

    def eval(self, x) -> Array:
        pts = as_points(x, self.dim)
        # bitwise the product started from 1: each factor is a fresh array
        out = self.profiles[0].value(pts[..., 0])
        for i, prof in enumerate(self.profiles[1:], start=1):
            out *= prof.value(pts[..., i])
        return out

    def partial(self, alpha, x) -> Array:
        """Exact partial derivative for the multi-index ``alpha``."""
        return self.partials([alpha], x)[0]

    def partials(self, alphas, x) -> list[Array]:
        """``partial(alpha, x)`` for each multi-index of ``alphas``, each axis's 1-D
        derivatives evaluated once for all of them."""
        alphas = [tuple(int(a) for a in alpha) for alpha in alphas]
        for alpha in alphas:
            if len(alpha) != self.dim:
                raise ValueError(f"multi-index length {len(alpha)} != dim {self.dim}")
            if sum(alpha) > self.smoothness_order:
                raise ValueError(f"derivative order {sum(alpha)} exceeds "
                                 f"smoothness_order {self.smoothness_order}")
        pts = as_points(x, self.dim)
        tables = [prof.derivatives({alpha[i] for alpha in alphas}, pts[..., i])
                  for i, prof in enumerate(self.profiles)]
        out = []
        for alpha in alphas:
            value = np.ones(pts.shape[:-1])
            for i, table in enumerate(tables):
                value = value * table[alpha[i]]
            out.append(value)
        return out

    def sup_partial(self, alpha) -> float:
        """Estimate of sup |partial(alpha, .)|: the product of the profiles' ``sup_derivative``."""
        key = tuple(int(a) for a in alpha)
        if key not in self._sup_cache:
            self._sup_cache[key] = math.prod(
                p.sup_derivative(a) for p, a in zip(self.profiles, key))
        return self._sup_cache[key]

    def m_form_bound(self, m: int) -> float:
        """Upper bound for sup_x max_{|s|=1} |sum_{|a|=m} (m!/a!) s^a d^a f(x)|.

        ``calculus.direction_bound`` at s = (1, ..., 1), which bounds |s^a| by 1.
        Used for the radial truncation of level-set kernels; over-estimation is
        safe, under-estimation is not, and the bound rests on the unproven grid
        estimate ``Profile1D.sup_derivative``.
        """
        if m not in self._bound_cache:
            from .calculus import direction_bound
            self._bound_cache[m] = float(direction_bound(self, m, np.ones(self.dim)))
        return self._bound_cache[m]

    @property
    def sup_abs(self) -> float:
        return self.m_form_bound(0)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _gaussian(dim: int) -> TestFunction:
    # tail bound is dimension-free: on |x| = R the exponential factor is
    # e^(-R^2) and the Hermite product is largest with all mass on one axis,
    # so the 1-D bound at R = 6.5 covers every dim (max ~1.5e-13 at order 5)
    return TestFunction("gaussian", [GaussianProfile() for _ in range(dim)],
                        support_radius=6.5, tail_tol=1e-9)


def _poly_bump(dim: int) -> TestFunction:
    profiles = [ProductProfile(PolynomialProfile([1.0, 0.5]), PlateauProfile(0.8, 2.0))
                for _ in range(dim)]
    return TestFunction("poly_bump", profiles, support_radius=2.0 * math.sqrt(dim))


def _sine_bump(dim: int) -> TestFunction:
    profiles = [ProductProfile(SineProfile(1.3, 0.4), PlateauProfile(0.8, 2.0))
                for _ in range(dim)]
    return TestFunction("sine_bump", profiles, support_radius=2.0 * math.sqrt(dim))


def _exp_bump(dim: int) -> TestFunction:
    if dim != 1:
        raise ValueError("exp_bump is registered for dim=1 only")
    prof = ProductProfile(ExpProfile(), PlateauProfile(1.0, 2.0))
    return TestFunction("exp_bump", [prof], support_radius=2.0)


def _zero(dim: int) -> TestFunction:
    return TestFunction("zero", [PolynomialProfile([0.0]) for _ in range(dim)],
                        support_radius=1.0)


_BUILDERS = {
    "gaussian": _gaussian,
    "poly_bump": _poly_bump,
    "sine_bump": _sine_bump,
    "exp_bump": _exp_bump,
    "zero": _zero,
}


def list_functions() -> list[str]:
    return sorted(_BUILDERS)


@lru_cache(maxsize=None)
def make_function(name: str, dim: int) -> TestFunction:
    """Build (and cache) a registered test function of the given dimension."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown test function {name!r}; known: {list_functions()}")
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 1..{MAX_DIM}")
    return _BUILDERS[name](dim)


def polynomial_function(coeff_lists) -> TestFunction:
    """Tensor polynomial for the algebraic identity tests, one coefficient list
    per axis: not registered, not integrable, and bounded on [-4, 4] per axis."""
    profiles = [PolynomialProfile(c) for c in coeff_lists]
    return TestFunction("polynomial", profiles, support_radius=4.0, integrable=False)
