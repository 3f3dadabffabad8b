import math
import time

import mpmath
import numpy as np
import pytest

from nonlocal_limits.bodies import ConvexBody
from nonlocal_limits.engine import IntegrationPlan
from nonlocal_limits.functionals import FunctionalSpec, evaluate
from nonlocal_limits.functions import make_function
from nonlocal_limits.mollifiers import (CertificationError, _numeric_mass, certification_grids,
                                        certify, make_mollifier)


def test_shell_evaluate():
    shell = make_mollifier("shell", 1, 0.5)
    assert float(shell.evaluate(np.array([0.25]))[0]) == pytest.approx(2.0)
    assert float(shell.evaluate(np.array([0.75]))[0]) == 0.0
    assert float(shell.evaluate(np.array([0.0]))[0]) == 0.0


def test_fractional_evaluate():
    frac = make_mollifier("fractional", 1, 0.1, p=2.0)
    # eps*p * r^(eps*p - dim) at r = 1: 0.2
    assert float(frac.evaluate(np.array([1.0]))[0]) == pytest.approx(0.2)
    assert float(frac.evaluate(np.array([1.5]))[0]) == 0.0


def test_shell_tails_closed_form():
    # tail = 1 - (delta/eps)^dim for delta < eps, else 0
    delta = 0.1
    tails = [make_mollifier("shell", 1, eps).tail_mass(delta) for eps in (0.5, 0.2, 0.05)]
    assert tails[0] == pytest.approx(0.8)
    assert tails[1] == pytest.approx(0.5)
    assert tails[2] == 0.0


def test_fractional_tail_closed_form():
    frac = make_mollifier("fractional", 1, 0.01, p=2.0)
    assert frac.tail_mass(0.5) == pytest.approx(1.0 - 0.5 ** 0.02, rel=1e-12)


def test_inverse_mass_round_trip(rng):
    for family in (make_mollifier("shell", 2, 0.3),
                   make_mollifier("fractional", 1, 0.2, p=2.0)):
        v = rng.uniform(1e-6, 1.0, 200)
        r = family.inverse_mass(v)
        back = np.array([family.mass_below(float(ri)) for ri in r])
        np.testing.assert_allclose(back, v, rtol=1e-10)


def test_certification_passes_builtins():
    for kind, dim, p in [("shell", 1, None), ("shell", 2, None), ("shell", 3, None),
                         ("fractional", 1, 2.0), ("fractional", 2, 2.0), ("fractional", 3, 4.0)]:
        report = certify(kind, dim, p)
        assert max(report.normalization_residuals.values()) <= 1e-10
        assert max(report.tail_residuals.values()) <= 1e-10
        assert report.max_final_tail <= 1e-3


@pytest.mark.parametrize("p", [4.0, 6.0, 8.0])
def test_fractional_certifies_above_p2(p):
    # the profile depends on eps p only: the scaled grid keeps the p = 2 tails
    epsilons = certification_grids("fractional", p)[1]
    assert [eps * p for eps in epsilons] == pytest.approx(
        [eps * 2.0 for eps in certification_grids("fractional", 2.0)[1]], rel=1e-15)
    report = certify("fractional", 2, p)
    assert report.max_final_tail == pytest.approx(1.0 - 0.05 ** 2e-4, rel=1e-12)
    assert report.max_final_tail <= 1e-3


def test_certification_rejects_broken_normalization():
    import nonlocal_limits.mollifiers as m

    class Broken(m.MollifierFamily):
        def log_radius_mass_mp(self, y):
            return 0.9 * super().log_radius_mass_mp(y)

    original = m.make_mollifier
    m.make_mollifier = lambda kind, dim, eps, p=None: Broken(kind, dim, eps, p)
    try:
        with pytest.raises(CertificationError, match="normalization"):
            certify("shell", 1)
    finally:
        m.make_mollifier = original


def test_certification_rejects_tails_off_their_closed_form(monkeypatch):
    # the mass density of rate 2a, 2a R^(-2a) e^(-2a y), keeps unit mass but moves the tails
    import nonlocal_limits.mollifiers as m

    class FastDecay(m.MollifierFamily):
        def log_radius_mass_mp(self, y):
            scale, rate = self._log_mass_constants
            return 2 * scale * mpmath.mpf(self.support_upper) ** (-rate) * mpmath.exp(-2 * rate * y)

    monkeypatch.setattr(m, "make_mollifier",
                        lambda kind, dim, eps, p=None: FastDecay(kind, dim, eps, p))
    with pytest.raises(CertificationError, match="disagrees with its closed form"):
        certify("shell", 1)


def test_certification_rejects_an_oracle_singular_in_the_mass_variable(monkeypatch):
    # rate a/2 makes the integrand in w = (r/R)^a proportional to w^(-1/2); the capped
    # Gauss-Legendre rule misses its error estimate instead of refining for seconds
    import nonlocal_limits.mollifiers as m

    class HalfRate(m.MollifierFamily):
        def log_radius_mass_mp(self, y):
            scale, rate = self._log_mass_constants
            return scale * mpmath.exp(-rate * y / 2)

    monkeypatch.setattr(m, "make_mollifier",
                        lambda kind, dim, eps, p=None: HalfRate(kind, dim, eps, p))
    start = time.perf_counter()
    with pytest.raises(CertificationError, match="error estimate"):
        certify("shell", 1)
    assert time.perf_counter() - start < 1.0


def test_default_families_certify_in_few_oracle_calls(monkeypatch):
    # a true oracle is flat in the mass variable, so each integral stops at 9 nodes
    import nonlocal_limits.mollifiers as m

    calls = []
    oracle = m.MollifierFamily.log_radius_mass_mp
    monkeypatch.setattr(m, "_masses", {})
    monkeypatch.setattr(m.MollifierFamily, "log_radius_mass_mp",
                        lambda self, y: calls.append(1) or oracle(self, y))
    for kind, dim, p in [("shell", 1, None), ("shell", 2, None),
                         ("fractional", 1, 2.0), ("fractional", 2, 2.0)]:
        certify(kind, dim, p)
    assert len(calls) <= 500


def test_certification_rejects_a_grid_that_does_not_concentrate(monkeypatch):
    # eps = 0.2 leaves the shell's mass above delta = 0.05 at 0.75
    import nonlocal_limits.mollifiers as m

    monkeypatch.setitem(m._DEFAULT_EPSILONS, "shell", (0.5, 0.2))
    with pytest.raises(CertificationError, match="concentration condition violated"):
        certify("shell", 1)


ORACLE_FAMILIES = [("shell", 1, 0.2, None), ("shell", 2, 0.05, None), ("shell", 3, 0.5, None),
                   ("fractional", 1, 0.1, 2.0), ("fractional", 2, 1e-3, 2.0),
                   ("fractional", 1, 0.05, 4.0), ("fractional", 3, 1e-4, 4.0)]


@pytest.mark.parametrize("kind,dim,eps,p", ORACLE_FAMILIES)
def test_log_radius_oracle_is_the_radial_mass_density_times_r(kind, dim, eps, p):
    family = make_mollifier(kind, dim, eps, p)
    lo = -math.log(family.support_upper)
    checked = 0
    for y in lo + np.array([1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 40.0, 100.0, 300.0, 700.0]):
        r = math.exp(-y)
        with np.errstate(all="ignore"):
            expected = r * float(family.radial_mass_density(np.array([r]))[0])
        if not 1e-290 < expected < 1e290:  # the double route under- or overflows here
            continue
        with mpmath.workdps(40):
            got = float(family.log_radius_mass_mp(mpmath.mpf(float(y))))
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)
        checked += 1
    # the fractional density is one power of r, finite down to the smallest double
    assert checked == 10 if kind == "fractional" else checked >= 5


def _r_space_mass(family, delta=0.0):
    """The radial mass above delta by the former route: the density in r, times r = e^-y."""
    def density(r):
        r = mpmath.mpf(r)
        if r <= 0:
            return mpmath.mpf(0)
        if family.kind == "shell":
            if r > family.epsilon:
                return mpmath.mpf(0)
            return family.dim * mpmath.mpf(family.epsilon) ** (-family.dim) * r ** (family.dim - 1)
        if r > 1:
            return mpmath.mpf(0)
        ep = mpmath.mpf(family.epsilon) * mpmath.mpf(family.p)
        return ep * r ** (ep - 1)

    def integrand(y):
        r = mpmath.exp(-y)
        return density(r) * r

    with mpmath.workdps(40):
        lo = -mpmath.log(mpmath.mpf(family.support_upper))
        hi = mpmath.log(1.0 / mpmath.mpf(delta)) if delta > 0 else mpmath.inf
        return float(mpmath.quad(integrand, [lo, hi]))


@pytest.mark.parametrize("family", [make_mollifier("shell", 2, 0.2),
                                    make_mollifier("fractional", 1, 1e-3, p=2.0)],
                         ids=["shell-2d", "fractional-1d"])
def test_numeric_mass_is_bitwise_the_r_space_route(family):
    for delta in (0.0, 0.05, 0.1):
        assert _numeric_mass(family, delta) == _r_space_mass(family, delta)


@pytest.mark.parametrize("kind,dim,eps,p", ORACLE_FAMILIES)
def test_numeric_mass_is_bitwise_the_y_space_route(kind, dim, eps, p):
    # the mass variable w = (r/R)^a makes a true oracle flat, so Gauss-Legendre in w
    # rounds to the same double as tanh-sinh in y
    family = make_mollifier(kind, dim, eps, p)
    upper = family.support_upper
    for delta in (0.0, 0.05 * upper, 0.5 * upper):
        with mpmath.workdps(40):
            lo = mpmath.log(1 / mpmath.mpf(upper))
            hi = mpmath.log(1 / mpmath.mpf(delta)) if delta > 0 else mpmath.inf
            expected = float(mpmath.quad(family.log_radius_mass_mp, [lo, hi]))
        assert _numeric_mass(family, delta) == expected


def test_fractional_dim2_after_dim1_makes_no_quadrature(monkeypatch):
    # the fractional oracle does not depend on dim, so dim 2 reuses every integral of dim 1
    import nonlocal_limits.mollifiers as m

    calls = []
    quad = mpmath.quad
    monkeypatch.setattr(m, "_masses", {})
    monkeypatch.setattr(mpmath, "quad",
                        lambda *args, **kwargs: calls.append(1) or quad(*args, **kwargs))
    first = certify("fractional", 1, 2.0)
    assert len(calls) == 5 * (1 + 4)  # one normalization and four tails per epsilon
    second = certify("fractional", 2, 2.0)
    assert len(calls) == 5 * (1 + 4)
    assert second.normalization_residuals == first.normalization_residuals
    assert second.tail_residuals == first.tail_residuals


def test_shell_member_does_not_depend_on_p(monkeypatch):
    import nonlocal_limits.mollifiers as m

    for dim in (1, 2, 3):
        assert make_mollifier("shell", dim, 0.2, 3.0) == make_mollifier("shell", dim, 0.2)
    # so a shell is certified once per dim, whatever p is
    calls = []
    monkeypatch.setattr(m, "certify", lambda *args: calls.append(args))
    monkeypatch.setattr(m, "_certified", set())
    for p in (None, 2.0, 3.0):
        m.ensure_certified(make_mollifier("shell", 2, 0.1, p))
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["shell", "fractional"])
def test_spec_mollifier_is_derived_from_its_inputs(kind):
    body = ConvexBody.ellipsoid([2.0, 1.0])
    spec = FunctionalSpec("bbm_centered", make_function("gaussian", 2), body, 1, 3.0, 0.05, kind)
    assert spec.mollifier == make_mollifier(kind, 2, 0.05, 3.0)


def test_invalid_construction():
    with pytest.raises(ValueError):
        make_mollifier("shell", 1, -0.1)
    with pytest.raises(ValueError):
        make_mollifier("fractional", 1, 0.1)  # needs p
    with pytest.raises(ValueError):
        make_mollifier("triangle", 1, 0.1)


def test_fractional_reproduces_gagliardo_scaling():
    # with the power profile the mollified functional is eps*p times a truncated
    # fractional difference seminorm; compare a direct high-precision quadrature
    eps, p = 0.25, 2.0
    f = make_function("gaussian", 1)
    body = ConvexBody.box([1.0])
    spec = FunctionalSpec("bbm_centered", f, body, 1, p, eps, "fractional")
    plan = IntegrationPlan("tensor_quadrature", x_nodes=160, t_nodes=96)
    value = evaluate(spec, plan).value

    ep = eps * p
    xs, wx = np.polynomial.legendre.leggauss(120)
    half = f.support_radius + 1.0
    xs, wx = half * xs, half * wx

    def inner(x):
        def g(t):
            t = float(t)
            diff = float(f.eval(np.array([x + t])) - f.eval(np.array([x])))
            return mpmath.mpf(diff) ** 2 * mpmath.mpf(t) ** (ep - 3.0)
        return float(mpmath.quad(g, [0, 1]))

    with mpmath.workdps(25):
        direct = ep * sum(w * 2.0 * inner(float(x)) for x, w in zip(xs, wx))
    assert value == pytest.approx(direct, rel=2e-3)
