import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlocal_limits import calculus
from nonlocal_limits.functions import make_function, polynomial_function

GAUSS1 = make_function("gaussian", 1)
GAUSS2 = make_function("gaussian", 2)
SINE1 = make_function("sine_bump", 1)


def test_multi_indices_lexicographic():
    assert calculus.multi_indices(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert calculus.multi_indices(1, 3) == ((3,),)
    assert len(calculus.multi_indices(3, 2)) == 6


def test_multinomial():
    assert calculus.multinomial(2, (1, 1)) == 2.0
    assert calculus.multinomial(3, (3, 0)) == 1.0
    assert calculus.multinomial(4, (2, 2)) == 6.0


def test_directional_form_quadratic():
    f = polynomial_function([[0.0, 0.0, 1.0]])  # x^2, second derivative 2
    assert float(calculus.directional_m_form(f, [0.3], [1.0], 2)) == pytest.approx(2.0)


def test_directional_form_cross_term():
    # f(x, y) = x y: ordered-tuple expansion gives 2 * d2f/dxdy = 2 for direction (1, 1)
    f = polynomial_function([[0.0, 1.0], [0.0, 1.0]])
    val = calculus.directional_m_form(f, [0.2, -0.4], [1.0, 1.0], 2)
    assert float(val) == pytest.approx(2.0)


def test_directional_form_matches_ordered_tuple_sum(rng):
    # multinomial-weighted multi-index sum == sum over ordered index tuples; in 3-D, m = 3
    # carries the multinomial 6
    import itertools
    for dim in (1, 2, 3):
        f = make_function("gaussian", dim)
        for m in (1, 2, 3):
            x = rng.uniform(-1, 1, dim)
            y = rng.uniform(-1, 1, dim)
            brute = 0.0
            for combo in itertools.product(range(dim), repeat=m):
                alpha = [combo.count(i) for i in range(dim)]
                brute += math.prod(y[i] for i in combo) * float(f.partial(alpha, x))
            fast = float(calculus.directional_m_form(f, x, y, m))
            assert fast == pytest.approx(brute, rel=1e-12, abs=1e-14), (dim, m)


def test_m_form_weights_each_coefficient_by_its_multinomial():
    # coefficient e_a alone gives (m!/a!) y^a
    y = np.array([[0.5, -2.0, 3.0], [1.5, 0.25, -1.0]])
    alphas = calculus.multi_indices(3, 3)
    for k, alpha in enumerate(alphas):
        coeffs = [1.0 if j == k else 0.0 for j in range(len(alphas))]
        expected = calculus.multinomial(3, alpha) * np.prod(y ** np.array(alpha), axis=1)
        assert np.array_equal(calculus.m_form(coeffs, y, 3), expected)
    with pytest.raises(ValueError):
        calculus.m_form([1.0] * (len(alphas) - 1), y, 3)


def test_directional_form_zero_direction():
    assert float(calculus.directional_m_form(GAUSS1, [0.5], [0.0], 2)) == 0.0


def test_forward_difference_quadratic_exact(rng):
    f = polynomial_function([[0.0, 0.0, 1.0]])
    for _ in range(20):
        x = rng.uniform(-2, 2, 1)
        h = rng.uniform(-1, 1, 1)
        got = float(calculus.forward_difference(f, x, h, 2))
        assert got == pytest.approx(2.0 * float(h[0]) ** 2, abs=1e-12)


def test_forward_difference_annihilates_low_degree(rng):
    for m in (1, 2, 3, 4):
        coeffs = rng.uniform(-2, 2, m)  # degree m-1
        f = polynomial_function([coeffs])
        x = rng.uniform(-2, 2, 1)
        h = rng.uniform(-1, 1, 1)
        assert abs(float(calculus.forward_difference(f, x, h, m))) <= 1e-12


def test_forward_difference_cubic():
    # difference of x^3 at order 3: 3! h^3 = 0.75 for h = 0.5
    f = polynomial_function([[0.0, 0.0, 0.0, 1.0]])
    got = float(calculus.forward_difference(f, [0.2], [0.5], 3))
    assert got == pytest.approx(0.75, abs=1e-12)


def test_centered_remainder_small_orders(rng):
    x = rng.uniform(-1, 1, 1)
    y = rng.uniform(-1, 1, 1)
    r1 = float(calculus.centered_remainder(GAUSS1, x, y, 1))
    assert r1 == pytest.approx(float(GAUSS1.eval(x) - GAUSS1.eval(y)), abs=1e-15)
    r2 = float(calculus.centered_remainder(GAUSS1, x, y, 2))
    expected = float(GAUSS1.eval(x) - 2.0 * GAUSS1.eval((x + y) / 2) + GAUSS1.eval(y))
    assert r2 == pytest.approx(expected, abs=1e-15)


def _node_formula_remainder(f, x, y, m):
    # every node from ((m - j) x + j y) / m, the reference for the end-node shortcut
    out = 0.0
    for j in range(m + 1):
        out = out + (-1.0) ** j * math.comb(m, j) * f.eval(((m - j) * x + j * y) / m)
    return out


@pytest.mark.parametrize("name,dim", [("gaussian", 1), ("gaussian", 2), ("sine_bump", 2)])
def test_centered_remainder_end_nodes(rng, name, dim):
    f = make_function(name, dim)
    x = rng.uniform(-2.5, 2.5, size=(3000, dim))
    y = x + rng.normal(size=(3000, dim))
    for m in (1, 2, 4):
        got = calculus.centered_remainder(f, x, y, m)
        ref = _node_formula_remainder(f, x, y, m)
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))
    # m = 3: the end nodes are now exact, so only rounding separates the two
    np.testing.assert_allclose(calculus.centered_remainder(f, x, y, 3),
                               _node_formula_remainder(f, x, y, 3), rtol=0, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.floats(-2, 2), min_size=2, max_size=2),
       st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2))
def test_remainder_difference_duality(m, xc, hc):
    x = np.asarray(xc)
    h = np.asarray(hc)
    lhs = float(calculus.centered_remainder(GAUSS2, x, x + m * h, m))
    rhs = (-1.0) ** m * float(calculus.forward_difference(GAUSS2, x, h, m))
    assert abs(lhs - rhs) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.floats(-2, 2), min_size=2, max_size=2),
       st.lists(st.floats(-2, 2), min_size=2, max_size=2))
def test_remainder_swap_symmetry(m, xc, yc):
    x, y = np.asarray(xc), np.asarray(yc)
    a = float(calculus.centered_remainder(GAUSS2, x, y, m))
    b = float(calculus.centered_remainder(GAUSS2, y, x, m))
    assert abs(a - (-1.0) ** m * b) <= 1e-13


def test_taylor_polynomial_examples():
    f = polynomial_function([[0.0, 0.0, 1.0]])  # x^2
    assert float(calculus.taylor_polynomial(f, [0.3], [0.9], 0)) == pytest.approx(0.09)
    assert float(calculus.taylor_polynomial(f, [0.0], [0.5], 1)) == pytest.approx(0.0)
    # exp * plateau, expanded at 0 where the plateau is flat: 1 + x + x^2/2
    g = make_function("exp_bump", 1)
    got = float(calculus.taylor_polynomial(g, [0.0], [0.1], 2))
    assert got == pytest.approx(1.105, rel=1e-14)


def test_taylor_remainder_exact_for_low_degree(rng):
    for m in (1, 2, 3):
        coeffs = rng.uniform(-2, 2, m)
        f = polynomial_function([coeffs])
        x = rng.uniform(-2, 2, 1)
        y = rng.uniform(-2, 2, 1)
        assert abs(float(calculus.taylor_remainder(f, x, y, m))) <= 1e-12


def test_taylor_remainder_quadratic():
    # f = x^2 with first-order expansion at y: remainder (x - y)^2
    f = polynomial_function([[0.0, 0.0, 1.0]])
    x, y = np.array([1.3]), np.array([0.4])
    got = float(calculus.taylor_remainder(f, x, y, 2))
    assert got == pytest.approx(0.81, rel=1e-12)


def test_taylor_remainder_m1_equals_centered(rng):
    x = rng.uniform(-1, 1, 2)
    y = rng.uniform(-1, 1, 2)
    a = float(calculus.taylor_remainder(GAUSS2, x, y, 1))
    b = float(calculus.centered_remainder(GAUSS2, x, y, 1))
    assert a == b


def test_mean_value_identity_quadratic():
    # integrand is constant in the cube variables for a pure quadratic
    f = polynomial_function([[0.0, 0.0, 1.0]])
    res = calculus.mean_value_identity_check(f, [0.4], [0.3], 2)
    assert res <= 1e-10


def test_mean_value_identity_gaussian():
    assert calculus.mean_value_identity_check(GAUSS1, [0.2], [0.2], 1) <= 1e-10
    assert calculus.mean_value_identity_check(GAUSS1, [0.2], [0.2], 2) <= 1e-8
    assert calculus.mean_value_identity_check(GAUSS1, [-0.3], [0.25], 3) <= 1e-8


def test_taylor_kernel_identity():
    gauss3 = make_function("gaussian", 3)
    for f, dims in ((GAUSS1, 1), (GAUSS2, 2), (gauss3, 3), (SINE1, 1)):
        for m in (1, 2, 3):
            res = calculus.taylor_kernel_identity_check(f, np.zeros(dims) + 0.1, 0.4, m)
            assert res <= 1e-7, (f.name, m, res)


def test_identity_checks_reject_large_m():
    with pytest.raises(ValueError):
        calculus.mean_value_identity_check(GAUSS1, [0.0], [0.1], 4)
    with pytest.raises(ValueError):
        calculus.taylor_kernel_identity_check(GAUSS1, [0.0], 0.1, 4)


def test_m_form_tableau_matches_direct(rng):
    xs = rng.uniform(-1, 1, size=(5, 2))
    ys = rng.uniform(-1, 1, size=(7, 2))
    tab = calculus.m_form_tableau(GAUSS2, 2, xs, ys)
    for i in range(5):
        for j in range(7):
            direct = float(calculus.directional_m_form(GAUSS2, xs[i], ys[j], 2))
            assert tab[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_direction_bound_is_above_the_form_everywhere(rng):
    # the exact level-set truncation rests on sup_x |m-form at x in direction sigma| <= bound
    from nonlocal_limits.functions import list_functions
    for name in list_functions():
        for dim in (1, 2, 3):
            try:
                f = make_function(name, dim)
            except ValueError:
                continue
            axis = np.linspace(-f.support_radius, f.support_radius, {1: 41, 2: 13, 3: 7}[dim])
            xs = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
            sigma = rng.normal(size=(40, dim))
            for m in (1, 2, 3):
                bound = calculus.direction_bound(f, m, sigma)
                form = calculus.directional_m_form(f, xs[:, np.newaxis], sigma[np.newaxis], m)
                assert np.all(bound >= np.abs(form)), (name, dim, m)


def test_rejects_excess_order():
    with pytest.raises(ValueError):
        calculus.directional_m_form(GAUSS1, [0.0], [1.0], GAUSS1.smoothness_order + 1)
    with pytest.raises(ValueError):
        calculus.forward_difference(GAUSS1, [0.0], [0.1], 0)


@pytest.mark.parametrize("name,dim", [("gaussian", 1), ("gaussian", 2), ("sine_bump", 1)])
def test_remainders_take_f_at_x_bitwise(rng, name, dim):
    # the pass kernels evaluate f(x) once per block and hand it to every point
    f = make_function(name, dim)
    x = rng.uniform(-1.5, 1.5, (500, dim))
    y = x + rng.uniform(-0.5, 0.5, (500, dim))
    fx = f.eval(x)
    for m in (1, 2, 3, 4):
        for remainder in (calculus.centered_remainder, calculus.taylor_remainder):
            np.testing.assert_array_equal(remainder(f, x, y, m, fx), remainder(f, x, y, m))
