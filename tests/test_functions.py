import math

import numpy as np
import pytest

from conftest import fd_partial
from nonlocal_limits.calculus import multi_indices, multinomial
from nonlocal_limits.functions import (NORMAL, GaussianProfile, list_functions, make_function,
                                       polynomial_function)

SMOOTH = [("gaussian", 1), ("gaussian", 2), ("poly_bump", 1), ("poly_bump", 2),
          ("sine_bump", 1), ("exp_bump", 1)]


def test_zero_multi_index_is_eval(rng):
    for name, dim in SMOOTH:
        f = make_function(name, dim)
        x = rng.uniform(-2, 2, size=(16, dim))
        np.testing.assert_allclose(f.partial((0,) * dim, x), f.eval(x), rtol=0, atol=0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_gaussian_value_is_bitwise_the_hermite_formula(rng):
    u = rng.normal(size=4000) * 3.0
    h = np.ones_like(u)  # Hermite polynomial of order 0
    reference = (-1.0) ** 0 * h * np.exp(-u * u)
    np.testing.assert_array_equal(_bits(GaussianProfile().derivative(0, u)), _bits(reference))


def test_proposals_follow_the_profiles(rng):
    gauss = make_function("gaussian", 2).proposal
    assert gauss.axes == (NORMAL, NORMAL)
    bump = make_function("poly_bump", 2).proposal
    assert bump.axes == (2.0, 2.0)
    assert make_function("quadratic", 2).proposal is None
    # densities match the closed forms
    x = rng.uniform(-3.0, 3.0, size=(200, 2))
    np.testing.assert_allclose(gauss.pdf(x), np.exp(-0.5 * (x ** 2).sum(axis=1)) / (2 * math.pi),
                               rtol=1e-14)
    np.testing.assert_array_equal(bump.pdf(x), np.all(np.abs(x) <= 2.0, axis=1) / 16.0)
    # Box-Muller pairs for normal axes, one affine coordinate per uniform axis
    assert (gauss.coordinates, bump.coordinates) == (2, 2)
    assert make_function("gaussian", 3).proposal.coordinates == 4
    draws = gauss.transform(rng.random((2, 200_000)))
    assert draws.shape == (200_000, 2)
    assert np.abs(draws.mean(axis=0)).max() < 0.01 and np.abs(draws.var(axis=0) - 1).max() < 0.02
    assert abs(np.corrcoef(draws.T)[0, 1]) < 0.01
    assert np.abs(bump.transform(rng.random((2, 1000)))).max() <= 2.0


def test_partials_match_finite_differences(rng):
    # orders 1 and 2 at step 1e-4; order 3 needs a larger step before roundoff
    # in the nested differences dominates the 1e-5 comparison
    for name, dim in SMOOTH:
        f = make_function(name, dim)
        checked = 0
        while checked < 100:
            order = int(rng.integers(1, 4))
            alpha = [0] * dim
            for _ in range(order):
                alpha[rng.integers(dim)] += 1
            x = rng.uniform(-1.6, 1.6, size=dim)
            exact = float(f.partial(alpha, x))
            if abs(exact) < 0.05:
                continue
            if order <= 2:
                approx = fd_partial(f, alpha, x, step=1e-4)
                rel, slack = 1e-5, 1e-5
            else:
                # Richardson-extrapolated nested differences: the plain h^2
                # truncation is too coarse where bump transitions are steep
                h = 1e-3
                approx = (4.0 * fd_partial(f, alpha, x, step=h / 2)
                          - fd_partial(f, alpha, x, step=h)) / 3.0
                rel, slack = 1e-4, 5e-5
            assert abs(approx - exact) <= rel * abs(exact) + slack, (name, alpha, x)
            checked += 1


def test_tail_below_tolerance(rng):
    for name, dim in SMOOTH:
        f = make_function(name, dim)
        dirs = rng.normal(size=(40, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * (f.support_radius * rng.uniform(1.01, 2.0, size=(40, 1)))
        for order in range(5):  # orders the functionals use: m <= 3 plus one
            for alpha in multi_indices(dim, order):
                vals = np.abs(f.partial(alpha, pts))
                assert np.max(vals) <= f.tail_tol, (name, alpha)


def test_plateau_region_is_flat():
    f = make_function("exp_bump", 1)
    # inside the plateau the cutoff is identically one, so f == exp there
    x = np.linspace(-0.9, 0.9, 17)
    np.testing.assert_allclose(f.eval(x), np.exp(x), rtol=1e-14)
    np.testing.assert_allclose(f.partial((2,), x), np.exp(x), rtol=1e-14)


def test_compact_support_is_exact():
    for name in ("poly_bump", "sine_bump"):
        f = make_function(name, 1)
        x = np.array([2.0, 2.5, -3.0])
        assert np.all(f.eval(x) == 0.0)
        assert np.all(f.partial((1,), x) == 0.0)


def test_gaussian_exact_derivatives():
    f = make_function("gaussian", 1)
    x = np.array([0.7])
    # d/dx e^{-x^2} = -2x e^{-x^2}; second derivative (4x^2 - 2) e^{-x^2}
    assert float(f.partial((1,), x)) == pytest.approx(-1.4 * math.exp(-0.49), rel=1e-14)
    assert float(f.partial((2,), x)) == pytest.approx((4 * 0.49 - 2) * math.exp(-0.49), rel=1e-14)


def test_m_form_bound_overestimates_samples(rng):
    for name, dim in SMOOTH:
        f = make_function(name, dim)
        for m in (1, 2):
            bound = f.m_form_bound(m)
            from nonlocal_limits.calculus import directional_m_form
            x = rng.uniform(-2, 2, size=(200, dim))
            s = rng.normal(size=(200, dim))
            s /= np.linalg.norm(s, axis=1, keepdims=True)
            observed = np.max(np.abs(directional_m_form(f, x, s, m)))
            assert bound >= observed


def test_m_form_bound_is_the_multinomial_sum_of_partial_bounds():
    # reference: sum over |a| = m of (m!/a!) sup|d^a f|, in multi-index order, bitwise
    for name, dim in SMOOTH + [("gaussian", 3), ("zero", 2)]:
        f = make_function(name, dim)
        for m in range(4):
            total = 0.0
            for alpha in multi_indices(dim, m):
                total += multinomial(m, alpha) * f.sup_partial(alpha)
            assert f.m_form_bound(m) == total, (name, dim, m)


def test_registry_contents():
    names = list_functions()
    for required in ("gaussian", "poly_bump", "sine_bump", "zero"):
        assert required in names
    with pytest.raises(KeyError):
        make_function("nope", 1)
    assert not make_function("quadratic", 1).integrable
    assert make_function("zero", 2).sup_abs == 0.0


def test_polynomial_function_helper():
    f = polynomial_function([[0.0, 0.0, 1.0], [1.0]])  # x^2 in the plane
    assert float(f.eval([3.0, 5.0])) == pytest.approx(9.0)
    assert float(f.partial((2, 0), [3.0, 5.0])) == pytest.approx(2.0)
    assert not f.integrable


def test_smoothness_order_enforced():
    f = make_function("gaussian", 1)
    with pytest.raises(ValueError):
        f.partial((f.smoothness_order + 1,), np.array([0.0]))
