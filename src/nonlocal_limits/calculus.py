"""Multi-index calculus on test functions.

``m_form`` is the one routine that builds the diagonal m-form
sum_{|a|=m} (m!/a!) c_a y^a; the directional form, its direction bound and
the local-limit tableau each call it with their own coefficients.
``m_form_gram`` integrates the square of the form over an x rule times a y
rule through Gram matrices, for every p = 2 integral.  Also
higher-order differences, binomial segment remainders, Taylor polynomials and
remainders, plus quadrature residuals for the two mean-value identities used
as correctness gates; their sums are ``math.fsum``, so the residuals do not
depend on the BLAS thread count.

All operations are pure and broadcast over point batches of shape ``(..., dim)``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .engine import gauss_legendre, tensor_grid
from .functions import MAX_DIM, TestFunction, as_points

Array = np.ndarray

MAX_ORDER = 6


@lru_cache(maxsize=None)
def multi_indices(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of the given total order, lexicographic order."""
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 1..{MAX_DIM}")
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    if dim == 1:
        return ((order,),)
    out = []
    for head in range(order, -1, -1):
        for rest in multi_indices(dim - 1, order - head):
            out.append((head,) + rest)
    return tuple(sorted(out, reverse=True))


def multi_factorial(alpha) -> int:
    return math.prod(math.factorial(int(a)) for a in alpha)


def multinomial(m: int, alpha) -> float:
    """m! / alpha! for |alpha| = m."""
    return math.factorial(m) / multi_factorial(alpha)


def monomial(y: Array, alpha) -> Array:
    """y^alpha over the last axis of a point batch."""
    mono = np.ones(y.shape[:-1])
    for i, a in enumerate(alpha):
        if a:
            mono = mono * y[..., i] ** a
    return mono


def m_form(coeffs, y: Array, m: int) -> Array:
    """sum_{|a|=m} (m!/a!) c_a y^a over ``multi_indices(dim, m)``, dim = y.shape[-1].

    ``coeffs`` gives one c_a per multi-index, in that order: a number or an
    array broadcasting against the leading axes of y.  Each term is formed as
    (m!/a!) * c_a * y^a and added in place after the first.
    """
    out = 0.0
    for alpha, c in zip(multi_indices(y.shape[-1], m), coeffs, strict=True):
        out += multinomial(m, alpha) * c * monomial(y, alpha)
    return out


def directional_m_form(f: TestFunction, x, y, m: int) -> Array:
    """Diagonal m-linear derivative form: sum_{|a|=m} (m!/a!) y^a d^a f(x).

    Equals the sum over ordered index tuples (i_1..i_m) of
    y_{i_1}..y_{i_m} * d^m f / dx_{i_1}..dx_{i_m}.
    """
    if m > f.smoothness_order:
        raise ValueError(f"m={m} exceeds smoothness_order={f.smoothness_order}")
    return m_form(f.partials(multi_indices(f.dim, m), x), as_points(y, f.dim), m)


def direction_bound(f: TestFunction, m: int, sigma) -> Array:
    """Per-direction bound: sup_x |diagonal m-form at x in direction sigma|.

    Bounded by sum_{|a|=m} (m!/a!) |sigma^a| sup|d^a f|; exact truncation of the
    level-set kernels only needs an over-estimate, which this is when each
    sup|d^a f| is one; each is a grid estimate that nothing proves to be a bound
    (ROADMAP: certified derivative bounds, open).
    """
    return m_form((f.sup_partial(alpha) for alpha in multi_indices(f.dim, m)),
                  np.abs(as_points(sigma, f.dim)), m)


def forward_difference(f: TestFunction, x, h, m: int) -> Array:
    """m-th order difference: sum_j (-1)^(m+j) C(m,j) f(x + j h)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    x = as_points(x, f.dim)
    h = as_points(h, f.dim)
    out = 0.0
    for j in range(m + 1):
        out = out + (-1.0) ** (m + j) * math.comb(m, j) * f.eval(x + j * h)
    return out


def centered_remainder(f: TestFunction, x, y, m: int, fx=None) -> Array:
    """Binomial remainder on the m+1 equally spaced points of segment [x, y].

    sum_j (-1)^j C(m,j) f(((m-j) x + j y) / m); equals (-1)^m times the m-th
    difference with step (y - x)/m.  The end nodes are x and y themselves:
    bitwise the node formula for m in {1, 2, 4}, and free of its rounding
    otherwise (m = 3).  ``fx``, when given, is f(x), already evaluated.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    x = as_points(x, f.dim)
    y = as_points(y, f.dim)
    # 0.0 + f(x), then each term in place: bitwise the sum started from 0.0
    shape = np.broadcast_shapes(x.shape, y.shape)
    out = np.add(f.eval(x) if fx is None else fx, 0.0, out=np.empty(shape[:-1]))
    point, step = (np.empty(shape), np.empty(shape)) if m > 1 else (None, None)
    for j in range(1, m + 1):
        if j < m:
            np.multiply(x, m - j, out=point)
            point += np.multiply(y, j, out=step)
            point /= m
        value = f.eval(point if j < m else y)
        value *= (-1.0) ** j * math.comb(m, j)
        out += value
    return out


def taylor_polynomial(f: TestFunction, y, x, degree: int) -> Array:
    """Taylor polynomial of f of the given degree, expanded at y, evaluated at x."""
    if degree > f.smoothness_order:
        raise ValueError(f"degree={degree} exceeds smoothness_order={f.smoothness_order}")
    x = as_points(x, f.dim)
    y = as_points(y, f.dim)
    diff = x - y
    alphas = [alpha for order in range(degree + 1) for alpha in multi_indices(f.dim, order)]
    out = 0.0
    for alpha, partial in zip(alphas, f.partials(alphas, y)):
        out = out + partial * monomial(diff, alpha) / multi_factorial(alpha)
    return out


def taylor_remainder(f: TestFunction, x, y, m: int, fx=None) -> Array:
    """f(x) minus its degree-(m-1) Taylor polynomial expanded at y; ``fx`` is f(x) if given."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (f.eval(x) if fx is None else fx) - taylor_polynomial(f, y, x, m - 1)


# ---------------------------------------------------------------------------
# Quadrature residuals for the exact integral identities
# ---------------------------------------------------------------------------

#: Gauss-Legendre nodes per cube axis in the two identity checks
IDENTITY_NODES = 32


def mean_value_identity_check(f: TestFunction, x, h, m: int) -> float:
    """Residual of the cube mean-value identity for the m-th difference.

    |difference - integral over [0,1]^m of the diagonal m-form at x + (sum t_j) h|,
    estimated with tensor Gauss-Legendre quadrature.  Diagnostic only; cost grows
    as nodes^m, so m <= 3.
    """
    if m > 3:
        raise ValueError("identity check restricted to m <= 3")
    x = as_points(x, f.dim)
    h = as_points(h, f.dim)
    ts, w = tensor_grid([gauss_legendre(IDENTITY_NODES, unit=True)] * m)
    shift = sum(ts.T)  # (nodes^m,)
    pts = x[np.newaxis, :] + shift[:, np.newaxis] * h[np.newaxis, :]
    form = directional_m_form(f, pts, np.broadcast_to(h, pts.shape), m)
    # a correctly rounded sum: a BLAS dot splits it by thread count
    integral = math.fsum(w * form)
    lhs = float(forward_difference(f, x, h, m))
    return abs(lhs - integral)


def taylor_kernel_identity_check(f: TestFunction, x, h: float, m: int) -> float:
    """Residual of the iterated-kernel identity for the Taylor remainder.

    The remainder of expanding at x and evaluating at x + h e_N equals
    h^m * integral over [0,1]^m of d^m_N f(x + (prod t_i) h e_N) * prod t_i^(m-i).
    """
    if m > 3:
        raise ValueError("identity check restricted to m <= 3")
    x = as_points(x, f.dim)
    ts, w = tensor_grid([gauss_legendre(IDENTITY_NODES, unit=True)] * m)
    prod = np.ones_like(w)
    weight = np.ones_like(w)
    for i, t in enumerate(ts.T):
        prod = prod * t
        weight = weight * t ** (m - 1 - i)
    pts = np.broadcast_to(x, (prod.size, f.dim)).copy()
    pts[:, -1] += prod * h
    alpha = (0,) * (f.dim - 1) + (m,)
    integral = math.fsum(w * weight * f.partial(alpha, pts))
    shifted = x.copy()
    shifted[-1] += h
    lhs = float(taylor_remainder(f, shifted, x, m))
    return abs(lhs - h ** m * integral)


def m_form_gram(f: TestFunction, m: int, xs: Array, wx: Array, ys: Array, wy: Array) -> float:
    """sum_ij wx_i wy_j (diagonal m-form at xs[i] in direction ys[j])^2, in Gram form.

    With a_a = (m!/a!) d^a f on the x rule and b_a = y^a on the y rule, the sum
    is sum_ab A_ab B_ab over the Gram matrices A_ab = sum_i wx_i a_a a_b and
    B_ab = sum_j wy_j b_a b_b: (N_x + N_y) #a^2 work, where the squared
    tableau takes N_x N_y #a.  Each entry is an ``np.sum`` of products, so the
    value does not depend on the BLAS thread count.
    """
    alphas = multi_indices(f.dim, m)
    xs = as_points(xs, f.dim)
    ys = as_points(ys, f.dim)
    a = [multinomial(m, alpha) * partial
         for alpha, partial in zip(alphas, f.partials(alphas, xs))]
    b = [monomial(ys, alpha) for alpha in alphas]
    total = 0.0
    for i in range(len(alphas)):
        wa, wb = wx * a[i], wy * b[i]
        for j in range(i, len(alphas)):
            term = float(np.sum(wa * a[j])) * float(np.sum(wb * b[j]))
            total += term if i == j else 2.0 * term
    return total


def m_form_tableau(f: TestFunction, m: int, xs: Array, ys: Array) -> Array:
    """Matrix of diagonal m-form values: entry (i, j) = form at xs[i] in direction ys[j].

    Separable evaluation used by the local-limit quadratures: partials on the
    x-grid, as a column, combine with the monomials on the y-grid, as a row.
    """
    xs = as_points(xs, f.dim)
    ys = as_points(ys, f.dim)
    return m_form((partial[:, np.newaxis] for partial in f.partials(multi_indices(f.dim, m), xs)),
                  ys[np.newaxis], m)
