import math

import numpy as np
import pytest

from conftest import fd_partial, lattice_run
from nonlocal_limits import functions
from nonlocal_limits.calculus import multi_indices, multinomial
from nonlocal_limits.functions import (NORMAL, ExpProfile, GaussianProfile, PlateauProfile,
                                       PolynomialProfile, ProductProfile, SineProfile,
                                       list_functions, make_function, polynomial_function)

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
    # a 0-d input, and a 1-D function at a scalar, give the same bits as an array entry
    for k in (0, 3):
        assert _bits(GaussianProfile().derivative(k, u[7])) == _bits(
            GaussianProfile().derivative(k, u)[7])
    assert _bits(make_function("gaussian", 1).eval(float(u[7]))) == _bits(reference[7])


def test_gaussian_derivatives_are_bitwise_the_hermite_formula(rng):
    # reference: the Hermite recurrence from arrays of zeros and ones, one order at a time;
    # the profile runs one recurrence from scalars for all orders
    u = np.concatenate([rng.normal(size=4000) * 3.0, [0.0, -0.0]])
    profile = GaussianProfile()
    batch = profile.derivatives(set(range(7)), u)
    for k in range(1, 7):
        h_prev, h = np.zeros_like(u), np.ones_like(u)
        for j in range(k):
            h, h_prev = 2.0 * u * h - 2.0 * j * h_prev, h
        reference = (-1.0) ** k * h * np.exp(-u * u)
        np.testing.assert_array_equal(_bits(profile.derivative(k, u)), _bits(reference))
        np.testing.assert_array_equal(_bits(batch[k]), _bits(reference))


# References for the profiles' derivatives: the per-order formulas, one order at a time.

def _ref_ramp(k, s):
    # d^k/ds^k exp(-1/s) = R_k(1/s) exp(-1/s) with R_{j+1}(w) = w^2 (R_j - R_j'), 0 for s <= 0
    r = np.polynomial.Polynomial([1.0])
    for _ in range(k):
        r = np.polynomial.Polynomial([0.0, 0.0, 1.0]) * (r - r.deriv())
    out = np.zeros_like(s)
    pos = s > 0.0
    core = np.exp(-1.0 / s[pos])
    out[pos] = core * r(1.0 / s[pos]) if k else core
    return out


def _ref_plateau(r0, r1):
    def derivative(k, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        a = np.abs(u)
        if k == 0:
            out[a <= r0] = 1.0
        trans = (a > r0) & (a < r1)
        if np.any(trans):
            width = r1 - r0
            s = (a[trans] - r0) / width
            # T = v / (u + v): v^(j) = sum_i C(j, i) T^(i) d^(j - i), d = u + v
            ramp_u = [_ref_ramp(j, s) for j in range(k + 1)]
            ramp_v = [(-1.0) ** j * _ref_ramp(j, 1.0 - s) for j in range(k + 1)]
            d = [p + q for p, q in zip(ramp_u, ramp_v)]
            t = [ramp_v[0] / d[0]]
            for j in range(1, k + 1):
                acc = ramp_v[j].copy()
                for i in range(j):
                    acc -= math.comb(j, i) * t[i] * d[j - i]
                t.append(acc / d[0])
            tk = t[k] / width ** k
            if k % 2 == 1:
                tk = tk * np.sign(u[trans])
            out[trans] = tk
        return out
    return derivative


def _ref_sine(omega, phase):
    return lambda k, u: omega ** k * np.sin(omega * np.asarray(u, dtype=float) + phase
                                            + 0.5 * k * math.pi)


def _ref_polynomial(coeffs):
    return lambda k, u: np.polynomial.Polynomial(coeffs).deriv(k)(np.asarray(u, dtype=float))


def _ref_exp(k, u):
    return np.exp(np.asarray(u, dtype=float))


def _ref_product(ref_a, ref_b):
    def derivative(k, u):
        out = np.zeros_like(np.asarray(u, dtype=float))
        for j in range(k + 1):
            out += math.comb(k, j) * ref_a(j, u) * ref_b(k - j, u)
        return out
    return derivative


PROFILE_CASES = {
    "plateau": (PlateauProfile(0.8, 2.0), _ref_plateau(0.8, 2.0)),
    "poly_bump": (ProductProfile(PolynomialProfile([1.0, 0.5]), PlateauProfile(0.8, 2.0)),
                  _ref_product(_ref_polynomial([1.0, 0.5]), _ref_plateau(0.8, 2.0))),
    "sine_bump": (ProductProfile(SineProfile(1.3, 0.4), PlateauProfile(0.8, 2.0)),
                  _ref_product(_ref_sine(1.3, 0.4), _ref_plateau(0.8, 2.0))),
    "exp_bump": (ProductProfile(ExpProfile(), PlateauProfile(1.0, 2.0)),
                 _ref_product(_ref_exp, _ref_plateau(1.0, 2.0))),
    "sine": (SineProfile(1.3, 0.4), _ref_sine(1.3, 0.4)),
    "exp": (ExpProfile(), _ref_exp),
    "polynomial": (PolynomialProfile([1.0, 0.5]), _ref_polynomial([1.0, 0.5])),
    # a negative constant term: orders above the degree are -0.0 at u < 0 and 0.0 at -0.0
    "negative_polynomial": (PolynomialProfile([-1.5, 0.25, 0.0, 3.0]),
                            _ref_polynomial([-1.5, 0.25, 0.0, 3.0])),
}
# unsorted, with gaps, one order alone, and every order up to smoothness_order
ORDER_SETS = [(4, 1, 3), {0, 2, 5}, (6,), (0,), range(functions.TestFunction.smoothness_order + 1)]


@pytest.mark.parametrize("name", sorted(PROFILE_CASES))
def test_profile_derivatives_are_bitwise_the_per_order_formulas(name, rng):
    profile, reference = PROFILE_CASES[name]
    edges = [0.8, 1.0, 2.0, np.nextafter(0.8, 1.0), np.nextafter(2.0, 0.0), 2.5, 7.0]
    special = np.array([0.0, -0.0] + edges + [-e for e in edges])
    u = np.concatenate([rng.uniform(-3.0, 3.0, size=2000), special])
    for orders in ORDER_SETS:
        table = profile.derivatives(orders, u)
        assert sorted(table) == sorted(orders)
        for k in orders:
            np.testing.assert_array_equal(_bits(table[k]), _bits(reference(k, u)), err_msg=f"{k}")
            np.testing.assert_array_equal(_bits(profile.derivative(k, u)), _bits(reference(k, u)))
            # each order is an array of its own
            assert not any(np.shares_memory(table[k], table[j]) for j in orders if j != k)
        # 0-d inputs give the bits of the reference at a 0-d input
        for point in special:
            for x in (point, np.asarray(point)):
                scalar = profile.derivatives(orders, x)
                for k in orders:
                    assert _bits(scalar[k]) == _bits(reference(k, x)), (k, point)


def test_each_profile_table_is_built_once(monkeypatch):
    # the plateau runs one transition recursion: its ramps at s and at 1 - s, once each
    calls = []
    ramps = functions._ramps
    monkeypatch.setattr(functions, "_ramps",
                        lambda orders, s: calls.append(tuple(orders)) or ramps(orders, s))
    u = np.linspace(-2.5, 2.5, 101)
    PlateauProfile(0.8, 2.0).derivatives(range(7), u)
    assert calls == [tuple(range(7))] * 2
    # a product asks each factor once for every order up to the highest requested
    product = ProductProfile(PolynomialProfile([1.0, 0.5]), PlateauProfile(0.8, 2.0))
    asked = {"a": [], "b": []}
    for side in asked:
        factor = getattr(product, side)
        monkeypatch.setattr(factor, "derivatives",
                            lambda orders, x, side=side, table=factor.derivatives:
                            asked[side].append(tuple(orders)) or table(orders, x))
    calls.clear()
    product.derivatives({5, 0, 2}, u)
    assert asked == {"a": [tuple(range(6))], "b": [tuple(range(6))]}
    assert calls == [tuple(range(6))] * 2


def test_batched_partials_are_bitwise_the_per_axis_products(rng):
    for name, dim in SMOOTH:
        f = make_function(name, dim)
        x = rng.uniform(-2.5, 2.5, size=(500, dim))
        alphas = [alpha for order in range(4) for alpha in multi_indices(dim, order)]
        for alpha, batch in zip(alphas, f.partials(alphas, x)):
            reference = np.ones(len(x))
            for i, prof in enumerate(f.profiles):
                reference = reference * prof.derivative(alpha[i], x[:, i])
            np.testing.assert_array_equal(_bits(batch), _bits(reference))
            np.testing.assert_array_equal(_bits(f.partial(alpha, x)), _bits(reference))


def test_proposals_follow_the_profiles(rng):
    gauss = make_function("gaussian", 2).proposal
    assert gauss.axes == (NORMAL, NORMAL)
    bump = make_function("poly_bump", 2).proposal
    assert bump.axes == (2.0, 2.0)
    assert polynomial_function([[0.0, 0.0, 1.0], [1.0]]).proposal is None
    # densities match the closed forms
    x = rng.uniform(-3.0, 3.0, size=(200, 2))
    np.testing.assert_allclose(gauss.pdf(x), np.exp(-0.5 * (x ** 2).sum(axis=1)) / (2 * math.pi),
                               rtol=1e-14)
    np.testing.assert_array_equal(bump.pdf(x), np.all(np.abs(x) <= 2.0, axis=1) / 16.0)
    # Box-Muller pairs for normal axes, one affine coordinate per uniform axis
    assert (gauss.coordinates, bump.coordinates) == (2, 2)
    assert make_function("gaussian", 3).proposal.coordinates == 4
    # on the engine's angle path: a shifted lattice run and the turns of its angle coordinate
    assert (gauss.angles, bump.angles) == ((1,), ())
    u, turns = lattice_run(199_999, rng.random((2, 1)), gauss.angles)
    draws = gauss.transform(u, turns)
    assert draws.shape == (199_999, 2)
    assert np.abs(draws.mean(axis=0)).max() < 0.01 and np.abs(draws.var(axis=0) - 1).max() < 0.02
    assert abs(np.corrcoef(draws.T)[0, 1]) < 0.01
    u, turns = lattice_run(997, rng.random((2, 1)), bump.angles)
    assert turns is None and np.abs(bump.transform(u, turns)).max() <= 2.0


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
    assert make_function("zero", 2).sup_abs == 0.0


def test_make_function_stops_at_three_dimensions():
    # the engine, sphere rules, polytopes and validate_spec all stop at 3
    assert make_function("gaussian", 3).dim == 3
    with pytest.raises(ValueError, match="dim must be in 1..3"):
        make_function("gaussian", 4)


def test_polynomial_function_helper():
    f = polynomial_function([[0.0, 0.0, 1.0], [1.0]])  # x^2 in the plane
    assert float(f.eval([3.0, 5.0])) == pytest.approx(9.0)
    assert float(f.partial((2, 0), [3.0, 5.0])) == pytest.approx(2.0)
    assert not f.integrable


def test_smoothness_order_enforced():
    f = make_function("gaussian", 1)
    with pytest.raises(ValueError):
        f.partial((f.smoothness_order + 1,), np.array([0.0]))
