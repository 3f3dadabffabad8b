"""Radial concentration profiles with unit radial mass and their certification.

A profile rho must satisfy, for the ambient dimension N,

    integral_0^inf r^(N-1) rho(r) dr = 1

and the mass above any fixed radius must vanish as the index goes to zero.
Two closed-form families are provided:

  shell:      rho_eps(r) = N eps^-N on (0, eps]
  fractional: rho_eps(r) = eps p r^(eps p - N) on (0, 1]   (needs the target p)

Both are evaluated at gauge radii r = ||x - y||_K by the mollified functionals.
On its support (0, R] each has radial mass (r / R)^a below r, with a = N or
eps p (``MollifierFamily.rate``).  ``certify`` checks both conditions on the
family's own delta and epsilon grids (``certification_grids``) against
40-digit quadrature of the mass per unit log-radius,
r^N rho(r) = a R^-a e^(-a y) at r = e^(-y) (``log_radius_mass_mp``).  The
quadrature runs in the mass variable w = e^(-s) = (r / R)^a, s = a (y - log(1/R)),
where a true oracle is flat: a Gauss-Legendre rule capped at degree 4 either
meets its own error estimate or the certification fails.  Each distinct
integral is computed once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import mpmath
import numpy as np

Array = np.ndarray

KINDS = ("shell", "fractional")

#: decimal digits of the certification quadratures
CERTIFY_DPS = 40

#: ``certify``'s gates: |numeric mass - 1|, |numeric tail - closed form|, and the
#: closed-form tail at the smallest epsilon
NORM_TOL, TAIL_MATCH_TOL, FINAL_TAIL_TOL = 1e-10, 1e-10, 1e-3

#: highest degree of the certification's Gauss-Legendre rule: 3 * 2^(4-1) = 24 nodes
MASS_RULE_DEGREE = 4


class CertificationError(RuntimeError):
    """A profile family failed a certification condition."""


@dataclass(frozen=True)
class MollifierFamily:
    """One member rho_eps of a concentration family."""

    kind: str
    dim: int
    epsilon: float
    p: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown mollifier kind {self.kind!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.kind == "fractional" and (self.p is None or self.p <= 0):
            raise ValueError("fractional family requires a positive p")

    @property
    def support_upper(self) -> float:
        return self.epsilon if self.kind == "shell" else 1.0

    @property
    def rate(self) -> float:
        """The exponent a of the radial mass (r / support_upper)^a below r: dim or eps p."""
        return float(self.dim) if self.kind == "shell" else self.epsilon * self.p

    def _on_support(self, r, shift: float) -> Array:
        """a R^-a r^(a - shift) on (0, R], R = support_upper; zero elsewhere."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        a, upper = self.rate, self.support_upper
        inside = (r > 0.0) & (r <= upper)
        out[inside] = a * upper ** (-a) * r[inside] ** (a - shift)
        return out

    def evaluate(self, r) -> Array:
        """Profile value a R^-a r^(a - dim) on (0, R]; zero elsewhere."""
        return self._on_support(r, self.dim)

    def mass_below(self, r: float) -> float:
        """Closed-form integral of s^(dim-1) rho(s) over (0, r]."""
        return 0.0 if r <= 0.0 else min(1.0, (r / self.support_upper) ** self.rate)

    def tail_mass(self, delta: float) -> float:
        """Closed-form integral of s^(dim-1) rho(s) over [delta, inf)."""
        return 1.0 - self.mass_below(delta)

    def inverse_mass(self, v) -> Array:
        """Inverse of the radial-mass CDF; maps uniform (0,1] to support radii."""
        return self.support_upper * np.asarray(v, dtype=float) ** (1.0 / self.rate)

    def radial_mass_density(self, r) -> Array:
        """Density r^(dim-1) rho(r) = a R^-a r^(a-1) of the radial mass measure, in one
        power: the fractional rho alone overflows near the smallest doubles at dim >= 2."""
        return self._on_support(r, 1.0)

    @cached_property
    def _log_mass_constants(self):
        """(a R^-a, a) as mpf at the certification precision; eps p is the exact product."""
        with mpmath.workdps(CERTIFY_DPS):
            a = (mpmath.mpf(self.dim) if self.kind == "shell"
                 else mpmath.mpf(self.epsilon) * mpmath.mpf(self.p))
            return a * mpmath.mpf(self.support_upper) ** (-a), a

    def log_radius_mass_mp(self, y):
        """Mass per unit log-radius r^dim rho(r) at r = e^(-y), y >= log(1/R), in mpmath: at
        small epsilon the fractional profile has most of its mass far below double range."""
        scale, rate = self._log_mass_constants
        return scale * mpmath.exp(-rate * y)


def make_mollifier(kind: str, dim: int, epsilon: float, p: float | None = None) -> MollifierFamily:
    """The member at ``epsilon``; a shell does not depend on p, so its p is None."""
    return MollifierFamily(kind=kind, dim=dim, epsilon=epsilon, p=None if kind == "shell" else p)


@dataclass
class CertificationReport:
    normalization_residuals: dict[float, float]  # epsilon -> |numeric mass - 1|
    tail_residuals: dict[tuple[float, float], float]  # (delta, epsilon) -> numeric vs closed form
    max_final_tail: float


_masses: dict[tuple, float] = {}


def _numeric_mass(family: MollifierFamily, delta: float = 0.0) -> float:
    """Radial mass above ``delta`` by quadrature in the mass variable: the normalization at 0.

    In y = log(1/r) the mass is the integral of ``family.log_radius_mass_mp``
    over [log(1/R), log(1/delta)], R = support_upper.  The exact substitution
    w = e^(-s), s = a (y - log(1/R)) and a the rate, maps it to [(delta/R)^a, 1]
    with integrand oracle(y) / (a w).  The closed-form mass below r is w itself,
    so a true oracle gives the integrand 1 whatever the singularity strength or
    the size of eps p, and Gauss-Legendre converges at degree 2 (9 nodes).  The
    rule stops at degree ``MASS_RULE_DEGREE``: an oracle that is not flat in w
    (singular, say) ends in CertificationError when the rule's own error
    estimate exceeds ``NORM_TOL``, not in ever finer rules.  Each distinct
    integral is computed once per process: the key is the family's class, its
    oracle constants, R and delta, and the fractional oracle does not depend
    on dim.
    """
    if delta >= family.support_upper:
        return 0.0
    key = (type(family), family._log_mass_constants, family.support_upper, delta)
    if key not in _masses:
        a = family._log_mass_constants[1]
        with mpmath.workdps(CERTIFY_DPS):
            upper = mpmath.mpf(family.support_upper)
            lo = -mpmath.log(upper)
            mass, error = mpmath.quad(
                lambda w: family.log_radius_mass_mp(lo - mpmath.log(w) / a) / (a * w),
                [(mpmath.mpf(delta) / upper) ** a, 1], method="gauss-legendre",
                maxdegree=MASS_RULE_DEGREE, error=True)
        if error > NORM_TOL:
            raise CertificationError(
                f"{family.kind}(eps={family.epsilon}, dim={family.dim}): mass above "
                f"delta={delta} has quadrature error estimate {float(error):.3e} "
                f"> {NORM_TOL:.1e}")
        _masses[key] = float(mass)
    return _masses[key]


def certify(kind: str, dim: int, p: float | None = None) -> CertificationReport:
    """Check unit normalization and vanishing tails on the family's own grids.

    The grids are ``certification_grids(kind, p)``.  Three conditions, each
    raising CertificationError when violated: numeric normalization within
    ``NORM_TOL`` of one; numeric tail masses within ``TAIL_MATCH_TOL`` of
    their closed forms; closed-form tails nonincreasing along decreasing
    epsilon and ending below ``FINAL_TAIL_TOL``.
    """
    deltas, epsilons = certification_grids(kind, p)
    residuals: dict[float, float] = {}
    tails: dict[tuple[float, float], float] = {}
    tail_residuals: dict[tuple[float, float], float] = {}
    for eps in epsilons:
        family = make_mollifier(kind, dim, eps, p)
        resid = abs(_numeric_mass(family) - 1.0)
        residuals[eps] = resid
        if resid > NORM_TOL:
            raise CertificationError(
                f"{kind}(eps={eps}, dim={dim}): unit-mass normalization violated "
                f"(residual {resid:.3e} > {NORM_TOL:.1e})")
        for delta in deltas:
            closed = family.tail_mass(delta)
            tails[(delta, eps)] = closed
            gap = abs(_numeric_mass(family, delta) - closed)
            tail_residuals[(delta, eps)] = gap
            if gap > TAIL_MATCH_TOL:
                raise CertificationError(
                    f"{kind}(eps={eps}, dim={dim}): tail mass above delta={delta} "
                    f"disagrees with its closed form by {gap:.3e}")

    max_final = 0.0
    for delta in deltas:
        seq = [tails[(delta, eps)] for eps in epsilons]
        if any(b > a + 1e-15 for a, b in zip(seq, seq[1:])):
            raise CertificationError(
                f"{kind}(dim={dim}): tail mass above delta={delta} does not decay "
                f"monotonically along the epsilon grid")
        if seq[-1] > FINAL_TAIL_TOL:
            raise CertificationError(
                f"{kind}(dim={dim}): tail mass above delta={delta} is {seq[-1]:.3e} "
                f"at eps={epsilons[-1]}, exceeding {FINAL_TAIL_TOL:.1e}; "
                f"concentration condition violated")
        max_final = max(max_final, seq[-1])

    return CertificationReport(normalization_residuals=residuals,
                               tail_residuals=tail_residuals, max_final_tail=max_final)


_DEFAULT_DELTAS = (0.05, 0.1, 0.25, 0.5)
_DEFAULT_EPSILONS = {
    # the fractional tail decays like eps * p * log(1/delta), so its grid must
    # reach far smaller indices than the shell's to pass the 1e-3 gate
    "shell": (0.5, 0.2, 0.05, 0.01, 0.002),
    "fractional": (0.5, 0.1, 0.01, 1e-3, 1e-4),
}
_certified: set[tuple] = set()


def certification_grids(kind: str, p: float | None = None) -> tuple[tuple[float, ...], ...]:
    """The delta grid (increasing) and the epsilon grid (decreasing) a family is certified on."""
    epsilons = _DEFAULT_EPSILONS[kind]
    if kind == "fractional" and p > 2.0:
        # the profile depends on eps p only: keep the p = 2 values of eps p
        epsilons = tuple(eps * 2.0 / p for eps in epsilons)
    return _DEFAULT_DELTAS, epsilons


def ensure_certified(family: MollifierFamily) -> None:
    """Certify the family of the given member once per (kind, dim, p)."""
    key = (family.kind, family.dim, family.p)
    if key in _certified:
        return
    certify(family.kind, family.dim, family.p)
    _certified.add(key)
