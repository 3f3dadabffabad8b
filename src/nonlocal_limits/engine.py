"""Sampling and quadrature engine shared by all functional evaluators.

Double integrals over pairs (x, y) are computed in polar form y = x + t*sigma:
x ranges over a truncation box, sigma over the Euclidean unit sphere, and the
radial variable t is a function of one more uniform coordinate v.  The engine
integrates a kernel's payoffs over box x sphere x [0, 1): it hands the kernel
the outer points, the directions and v, and multiplies the payoffs by the
outer weight only.  Each kernel draws its own t = ``law.sample(v, aux)`` from
a radial law matched to its radial profile (``PowerLaw``, ``MollifierRadial``)
and returns the pair integrand times t^(dim-1) over the law's normalised
density, in closed form, so the law's density factors cancel and no density
is evaluated on the hot path.

The Monte Carlo pair integral is a randomized rank-1 lattice rule (Dick, Kuo
and Sloan 2013): SHIFTS independent uniform (Cranley-Patterson) shifts of two
lattices, each shift an unbiased replicate.  A value is the mean of the
replicate means and its stderr their sample sd over sqrt(SHIFTS).  The outer
point x comes from a defensive mixture (Hesterberg 1995): per shift, n1
points of a lattice mapped to the test function's own proposal p (Box-Muller
on Gaussian axes, uniform on the support of compactly supported ones) and n2
of a lattice mapped to the box, n1 and n2 primes (``lattice_sizes``).  Each
point is weighted by the sphere measure over the realised mixture density
q = (n1/n) p + (n2/n) / vol(box), n = n1 + n2, so every replicate is exactly
unbiased, and the box share caps each weight at n / n2, about 5, times the
plain uniform weight.  Proposal points outside the box get weight 0.  A pass
holds one record per lattice: the box lattice always, and first the proposal
lattice when the function has a proposal.  Generating vectors
come from fast component-by-component construction (``generating_vector``),
each coordinate one FFT convolution of 5-smooth length.  An angle coordinate
u = {j / n + shift} (Box-Muller angles, the 2-D direction, the 3-D azimuth)
needs no cos or sin per point: a shift is a rotation, so exp(2 pi i u) is
the entry j of the lattice's table exp(2 pi i j / n), built once per pass,
times exp(2 pi i shift) (``_turns``).

A pass runs in blocks, one per piece and shift, where a piece is a run of at
most _CHUNK consecutive points of one lattice: the blocks go piece by piece,
proposal lattice first, and each piece under every shift in turn.  The
residues j z mod n of a piece and the table entries of its angle rows do not
depend on the shift, so a thread builds them once per piece and its SHIFTS
blocks share them.  A point depends on (seed, samples, lattice, shift, index)
only, shift r being drawn from SeedSequence((seed, 1, r)) (keyed streams,
Salmon et al. 2011), and each shift's payoffs are folded in point order,
proposal lattice first, into 64 interleaved left-to-right sums per point and
shift, keyed by the point's index in its run, so the numbers depend on
(seed, samples) only; the worker count just sets how many threads run the
blocks.

A tensor quadrature plan (1-D only) takes its rules in x and in v from
``quadrature``, the home of every deterministic rule.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .quadrature import _panels, gauss_legendre

Array = np.ndarray

#: points per block at most; the numbers do not depend on it (``_monte_carlo``), and at
#: 1 << 15 the peak RSS of a run of five 2-D sweeps of 0.5M to 1M samples was 10% higher
_CHUNK = 1 << 14

#: independent uniform shifts of the lattice rule; the stderr has SHIFTS - 1 degrees of freedom
SHIFTS = 16

#: interleaved left-to-right sums per point and shift in the fold (``_monte_carlo``)
_LANES = 64

#: share of each shift's points in the proposal lattice (``lattice_sizes``)
PROPOSAL_SHARE = 0.8

#: points per shift at most: building a generating vector takes about 120 bytes per point
_MAX_POINTS = 1 << 20

_SPHERE_MEASURE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


class EngineError(RuntimeError):
    pass


def sphere_measure(dim: int) -> float:
    return _SPHERE_MEASURE[dim]


# ---------------------------------------------------------------------------
# Radial importance laws
# ---------------------------------------------------------------------------

class PowerLaw:
    """Density proportional to t^exponent on a ladder of strata of each ray, exponent != -1.

    The unnormalised radial shape is t^exponent.  With exponent = -(1 + m p)
    this matches the radial weight of the level-set kernels exactly, so their
    payoff is flat in t.  Point k of a pass integrates over
    [lo_k(sigma), t_max], where lo_k = cutoffs[k] * reach(sigma), capped at
    t_max / 2; ``reach`` is a callable of the direction batch (n, dim)
    returning (n,).  The cutoffs must not increase, so the lower bounds cut
    each ray into strata [lo_k, lo_(k-1)], lo_0 = t_max, and point k's range
    is strata 1..k.  Row k of t is drawn inside stratum k, every row from the
    ray's one radial uniform.  ``mass`` is the shape's mass over each point's
    range, so a stratum's is the difference of two rows and the normalised
    density of row k is the shape over its stratum's mass.  A kernel that
    gives point k the payoffs of strata 1..k, each over its own density, is
    unbiased; with one point the stratum is the whole range.  Capped or
    equal cutoffs give strata of zero width, where t is their common bound.
    """

    def __init__(self, exponent: float, cutoffs, reach, t_max: float):
        self.exponent = float(exponent)
        self.t_max = float(t_max)
        self.reach = reach
        self._s = self.exponent + 1.0
        if self._s == 0.0:
            raise ValueError("the exponent must not be -1: its inverse CDF is a log")
        cutoffs = np.asarray(cutoffs, dtype=float)
        if np.any(np.diff(cutoffs) > 0.0):
            raise ValueError(f"the cutoffs must not increase; got {cutoffs.tolist()}")
        # lo_k^s = cutoffs[k]^s reach^s: one power per direction, not one per row
        self.cutoffs = cutoffs
        self._cutoffs_s = cutoffs ** self._s
        self._top_s = self.t_max ** self._s
        self._cap_s = (0.5 * self.t_max) ** self._s

    def prepare(self, sigma: Array) -> Array:
        """The lower bounds (K, n) raised to exponent + 1."""
        lo_s = np.multiply.outer(self._cutoffs_s, self.reach(sigma) ** self._s)
        # lo <= t_max / 2 in the power exponent + 1, which reverses order when negative
        (np.maximum if self._s < 0.0 else np.minimum)(lo_s, self._cap_s, out=lo_s)
        if not np.isfinite(lo_s).all():
            raise EngineError(f"a lower radial bound lo of the cutoffs {self.cutoffs.tolist()} "
                              f"has lo^{self._s:g} out of floating-point range")
        return lo_s

    def sample(self, v: Array, lo_s: Array) -> Array:
        """t (K, n): row k at the quantile v of stratum k."""
        t = np.empty(np.broadcast_shapes(np.shape(lo_s), np.shape(v)))
        np.subtract(self._top_s, lo_s[0], out=t[0])
        np.subtract(lo_s[:-1], lo_s[1:], out=t[1:])
        t *= v
        t += lo_s
        return np.power(t, 1.0 / self._s, out=t)

    def mass(self, lo_s):
        """Integral of the shape t^exponent over each point's range [lo_k, t_max]."""
        return (self._top_s - lo_s) / self._s

    def pdf(self, t: Array, lo_s) -> Array:
        """Density of each row's draw on its stratum."""
        strata = np.diff(self.mass(lo_s), axis=0, prepend=0.0)
        return np.asarray(t, dtype=float) ** self.exponent / strata


class MollifierRadial:
    """Radial law matched to concentration profiles evaluated at gauge radii.

    Point j draws the gauge radius u from the radial mass measure of
    ``families[j]`` and converts to the Euclidean radius t = u / ||sigma||_K.
    Its density in t is u^(dim-1) rho(u) ||sigma||_K, normalised because the
    profile's radial mass is 1; a kernel's payoff therefore carries neither
    rho nor the Jacobian.  ``prepare`` returns the gauge ||sigma||_K itself,
    which a kernel reuses.  At small profile indices u can underflow to 0, so
    a kernel must give a finite payoff at t = 0.
    """

    def __init__(self, families, gauge):
        self.families = tuple(families)
        self.gauge = gauge

    def prepare(self, sigma: Array):
        return self.gauge(sigma)

    def sample(self, v: Array, gauge_sigma: Array) -> Array:
        return np.stack([family.inverse_mass(v) for family in self.families]) / gauge_sigma

    def pdf(self, t: Array, gauge_sigma: Array) -> Array:
        u = np.reshape(t, (len(self.families), -1)) * gauge_sigma
        dens = [family.radial_mass_density(row) for family, row in zip(self.families, u)]
        return np.stack(dens) * gauge_sigma


# ---------------------------------------------------------------------------
# Plans and estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrationPlan:
    """How to integrate: ``IntegrationPlan("monte_carlo", samples=..., seed=..., workers=...)``
    or ``IntegrationPlan("tensor_quadrature", x_nodes=..., t_nodes=...)``."""

    method: str
    samples: int = 0
    seed: int = 0
    workers: int = 1
    x_nodes: int = 200
    t_nodes: int = 64


@dataclass
class IntegralEstimate:
    value: float
    stderr: float
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The randomized rank-1 lattice rule
# ---------------------------------------------------------------------------

def _prime_at_most(limit: int) -> int:
    """The largest prime not above ``limit``; 1 for a limit of 1, 0 below."""
    for n in range(int(limit), 1, -1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            return n
    return 1 if limit >= 1 else 0


def lattice_sizes(samples: int, mixture: bool) -> tuple[int, int]:
    """Points per shift of the proposal lattice and of the box lattice: (n1, n2).

    Of samples // SHIFTS points per shift, n1 is the largest prime not above
    ``PROPOSAL_SHARE`` of them (0 without a proposal) and n2 the largest not
    above the rest; a share of 1 takes a one-point lattice.  A plan that
    leaves a lattice no point, or asks for more than SHIFTS _MAX_POINTS
    samples, raises ``ValueError``.
    """
    if samples <= 0:
        raise ValueError("empty plan: samples must be positive")
    if samples > SHIFTS * _MAX_POINTS:
        raise ValueError(f"samples={samples} exceeds {SHIFTS * _MAX_POINTS}: a generating "
                         f"vector is built for at most {_MAX_POINTS} points per shift")
    per = samples // SHIFTS
    n1 = _prime_at_most(int(PROPOSAL_SHARE * per)) if mixture else 0
    n2 = _prime_at_most(per - n1)
    if n2 == 0 or (mixture and n1 == 0):
        least = SHIFTS * (2 if mixture else 1)
        raise ValueError(f"samples={samples} leaves a lattice without points: "
                         f"{SHIFTS} shifts need samples >= {least}")
    return n1, n2


def _korobov(x: Array) -> Array:
    """The Korobov kernel 2 pi^2 B_2(x) of smoothness alpha = 2 on [0, 1)."""
    return 2.0 * math.pi ** 2 * (x * x - x + 1.0 / 6.0)


def _primitive_root(n: int) -> int:
    """The smallest primitive root of the prime n > 2."""
    m, factors, d = n - 1, set(), 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    g = 2
    while any(pow(g, (n - 1) // q, n) == 1 for q in factors):
        g += 1
    return g


def _power_table(g: int, n: int) -> Array:
    """g^a mod n for a = 0 .. n - 2, doubling the filled prefix per step."""
    table = np.ones(n - 1, dtype=np.int64)
    length, step = 1, g % n
    while length < n - 1:
        end = min(2 * length, n - 1)
        table[length:end] = table[:end - length] * step % n
        step = step * step % n
        length = end
    return table


def _smooth_length(least: int) -> int:
    """The least 2^a 3^b 5^c >= ``least``, a length that numpy's FFT takes fast."""
    best = 1 << max(least - 1, 0).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            # odd times the least power of two that reaches ``least``
            best = min(best, odd << max(-(-least // odd) - 1, 0).bit_length())
            odd *= 3
        five *= 5
    return best


@lru_cache(maxsize=None)
def generating_vector(n: int, s: int) -> Array:
    """Generating vector (s,) of an n-point rank-1 lattice, n prime; built once, read-only.

    Fast component-by-component construction (Nuyens and Cools 2006) for the
    unweighted Korobov space of smoothness 2: coordinate j keeps the z in
    1 .. (n - 1)/2 (z and n - z give the same rule) that minimises the
    worst-case error P_2 of the first j coordinates.  Ordering z and k by
    powers of a primitive root g makes the matrix omega(k z mod n / n)
    circulant, so each coordinate is one cyclic convolution of length n - 1.
    Both of its sequences have period h = (n - 1)/2: g^h = -1 mod n, the
    kernel is even about 1/2 and the product of the earlier coordinates is
    symmetric under k -> n - k.  So the convolution is twice the one of length
    h, done as a zero-padded FFT of 5-smooth length (h may have a large prime
    factor, where a direct FFT is slow).
    Candidates within 1e-12 of the least error, on the scale of the full
    sum, are ties, and the smallest wins.
    """
    z = np.ones(s, dtype=np.int64)
    if n > 3:
        h = (n - 1) // 2
        powers = _power_table(_primitive_root(n), n)[:h]
        size = _smooth_length(2 * h - 1)  # holds the 2h - 1 terms of the linear one
        spectrum = np.fft.rfft(_korobov(powers / n), size)
        inverse = powers[-np.arange(h) % h]  # g^-b mod n, up to sign
        k = np.arange(n)
        product = 1.0 + _korobov(k / n)  # the first coordinate is z = 1
        for j in range(1, s):
            # error[a] = 2 sum_b omega(g^(a - b) / n) product[g^-b], b < h: the candidate z = g^a
            weights = product[inverse]
            linear = np.fft.irfft(spectrum * np.fft.rfft(weights, size), size)
            linear[:h - 1] += linear[h:2 * h - 1]
            error = np.empty(n)
            error[powers] = error[n - powers] = 2.0 * linear[:h]
            half = error[1:h + 1]
            tie = 1e-12 * (math.pi ** 2 / 3.0) * 2.0 * float(np.abs(weights).sum())
            z[j] = 1 + int(np.flatnonzero(half <= half.min() + tie)[0])
            product *= 1.0 + _korobov(k * z[j] % n / n)
    z.flags.writeable = False
    return z


def _residues(index: Array, z: Array, n: int) -> Array:
    """index z mod n (s, len(index)) in floats, exactly: the products stay below 2^53, and
    with n at most _MAX_POINTS a quotient is never within rounding of an integer above its
    floor."""
    j = np.multiply.outer(z.astype(float), index)
    j -= np.floor(j / n) * n
    return j


def _shifted(j: Array, n: int, shift: Array) -> Array:
    """The points {j / n + shift} (s, m) of residues ``j``, a fresh array; ``shift`` is (s, 1)."""
    u = np.divide(j, n)
    u += shift
    u -= u >= 1.0
    return u


def _unit(angle) -> Array:
    """exp(i angle), its real part np.cos and its imaginary part np.sin of ``angle``."""
    out = np.empty(np.shape(angle), dtype=complex)
    out.real = np.cos(angle)
    out.imag = np.sin(angle)
    return out


def _circle(n: int) -> Array:
    """The table exp(2 pi i j / n), j = 0 .. n - 1, of an n-point lattice; the entries past
    n / 2 are the conjugates of those below, so no angle is above pi."""
    # built through _unit's own array: filling the table in place with out= took a fresh
    # run of acceptance from 25k to 48k minor page faults
    half = n // 2 + 1
    table = np.empty(n, dtype=complex)
    table[:half] = _unit(2.0 * math.pi * np.arange(half) / n)
    table[half:] = np.conj(table[n - half:0:-1])
    return table


def _turns(entries: Array, rotation: Array) -> Array:
    """exp(2 pi i u) of the lattice points u = {j / n + shift}: a shift is a rotation, so
    each is the ``entries`` circle[j] of the lattice's table (``_circle``) at its residue j
    times ``rotation`` = exp(2 pi i shift), (s, 1).  A run's first point, j = 0, gets the
    rotation itself, bitwise.  The product is out of place: numpy's in-place product of a
    lone element rounds differently from its vector loop, which changed a 1-point block of a
    1-D proposal lattice."""
    return np.multiply(entries, rotation)


def _directions(u: Array, turn, dim: int) -> Array:
    """Unit vectors (n, dim) from uniform coordinates ``u`` (1 or 2, n) and the ``turn``
    exp(2 pi i u[-1]) (n,) of the last, a C-contiguous complex row (None in 1-D).

    1-D: the sign of u - 1/2; 2-D: the turn itself, angle 2 pi u; 3-D: height 2u - 1
    and azimuth 2 pi u' (Archimedes' map keeps the sphere's area).
    """
    if dim == 1:
        return np.where(u[0] < 0.5, -1.0, 1.0)[:, np.newaxis]
    if dim == 2:
        # (cos, sin) pairs are the memory layout of the complex row
        return turn.view(float).reshape(-1, 2)
    height = 2.0 * u[0] - 1.0
    ring = np.sqrt(np.maximum(0.0, 1.0 - height * height))
    return np.stack([ring * turn.real, ring * turn.imag, height], axis=1)


def outer_weights(x: Array, radius: float, proposal, share: float, mass: float) -> Array:
    """Weights ``mass / q(x)`` of outer points under the defensive mixture.

    q = share p + (1 - share) / vol(box), the realised mixture of a pass.
    Points outside the box get weight 0; only proposal points can be there.
    """
    volume = (2.0 * radius) ** x.shape[1]
    weight = mass / (share * proposal.pdf(x) + (1.0 - share) / volume)
    # column by column: a reduction over the short last axis is many times slower
    outside = np.abs(x[:, 0]) > radius
    for i in range(1, x.shape[1]):
        outside |= np.abs(x[:, i]) > radius
    weight[outside] = 0.0
    return weight


def _weighted_payoffs(kernel, x: Array, sigma: Array, v: Array, weight=None) -> Array:
    """The kernel's payoffs, times the outer ``weight`` if given, in place; they must be
    (K, n), K >= 1, and finite."""
    values = kernel(x, sigma, v)
    if np.ndim(values) != 2 or len(values) == 0 or np.shape(values)[1] != len(v):
        raise EngineError(f"kernel returned payoffs of shape {np.shape(values)}, "
                          f"expected (K, {len(v)}): one row per point")
    if weight is not None:
        values *= weight
    if not np.isfinite(values).all():
        bad = ~np.isfinite(values)
        j, i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise EngineError(
            f"nonfinite kernel value at x={x[i].tolist()}, sigma={sigma[i].tolist()}, "
            f"v={float(v[i])!r} (point {j})")
    return values


def integrate_double(kernel, plan: IntegrationPlan, radius: float, dim: int,
                     proposal=None) -> list[IntegralEstimate]:
    """Estimate the polar-form double integrals of K points over box x sphere x [0, 1).

    All K points share the outer box [-radius, radius]^dim and so each outer
    point x, its weight, its direction and its radial coordinate v; they
    differ in their payoffs only.

    Parameters
    ----------
    kernel : callable(x, sigma, v) -> values
        Vectorized payoffs of all points: x and sigma of shape (n, dim), v of
        shape (n,) in [0, 1), and values of shape (K, n) with K >= 1; any
        other shape of values raises ``EngineError``.  The values must be a
        fresh float array that the kernel keeps no reference to: the engine
        owns it and overwrites it.  The kernel draws the radius t from v by
        its radial law, and the payoff is the pair integrand F(x, x + t sigma)
        times t^(dim-1) over the law's normalised density.  Monte Carlo
        multiplies it by the outer weight, in place; quadrature (dim = 1)
        takes v at the Gauss-Legendre nodes on [0, 1] and multiplies by
        nothing.
    proposal : functions.OuterProposal | None
        Law for the outer point x on the Monte Carlo path, mixed with the
        uniform box (``outer_weights``); quadrature ignores it.
    """
    if dim not in _SPHERE_MEASURE:
        raise ValueError("dim must be 1, 2 or 3")

    if plan.method == "tensor_quadrature":
        return _integrate_double_quadrature(kernel, plan, radius, dim)
    if plan.method != "monte_carlo":
        raise ValueError(f"unknown integration method {plan.method!r}")

    return _monte_carlo(kernel, plan, radius, dim, proposal)


def _monte_carlo(kernel, plan, radius, dim, proposal) -> list[IntegralEstimate]:
    """The pass: SHIFTS shifts of each lattice, the proposal lattice of n1 points first
    when there is a proposal, then the box lattice of n2.

    A point's uniform coordinates are the outer point's, then the
    direction's, then the radial uniform v, at most 7 in all; shift r of every
    lattice is drawn from SeedSequence((seed, 1, r)), proposal lattice first.
    A piece is the points lo .. hi - 1 of one lattice, at most _CHUNK of
    them, and each block is one piece under one shift, in the order
    (lattice, piece, shift), so a point depends on (seed, samples, lattice,
    shift, index) only.  An angle coordinate (a Box-Muller angle, the 2-D
    direction, the 3-D azimuth) enters as exp(2 pi i u), the entry of the
    lattice's table at the point's residue rotated by its shift (``_turns``);
    the table is built once per pass.  A thread keeps its last piece's
    residues and table entries in a slot, so each is built once per piece and
    thread, and the piece's blocks under every shift only shift the residues
    and rotate the entries.  Blocks run on min(workers, blocks, cpu count)
    threads; the calling thread folds their payoffs (fresh arrays, weighted
    in place), block by block, into _LANES interleaved left-to-right sums per
    point and shift, point i of a run in lane i mod _LANES, proposal points
    first.  Each shift folds into lanes of its own and sees its blocks in
    (lattice, piece) order, so interleaving the shifts moves no sum.  The
    lanes are added pairwise at the end, so the K estimates are the same for
    every worker count and block size.  A point's value is the mean of its
    SHIFTS replicate means, its stderr their sample sd over sqrt(SHIFTS), and
    ``hit_fraction`` its share of nonzero payoffs.
    """
    mass = sphere_measure(dim)
    n1, n2 = lattice_sizes(plan.samples, proposal is not None)
    n = n1 + n2
    # the direction's coordinates and v, which follow the outer point's
    tail = (1 if dim < 3 else 2) + 1
    # one record per lattice: its points per shift, its outer law (None: the box map), the
    # law's coordinate count and the rows that are angles, the law's and the direction's last
    laws = [(n1, proposal, proposal.coordinates, proposal.angles)] if n1 else []
    lattices = [(size, law, c, np.array(angles + ((c + dim - 2,) if dim > 1 else ()), np.intp))
                for size, law, c, angles in laws + [(n2, None, dim, ())]]
    vectors = [generating_vector(size, c + tail) for size, _, c, _ in lattices]
    circles = [_circle(size) if rows.size else None for size, _, _, rows in lattices]
    shifts = [np.zeros((SHIFTS, c + tail, 1)) for _, _, c, _ in lattices]
    for r in range(SHIFTS):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((plan.seed, 1, r))))
        for drawn in shifts:
            rng.random(out=drawn[r])
    # exp(2 pi i shift) of each angle coordinate: the rotation of the lattice's table
    rotations = [_unit(2.0 * math.pi * drawn[:, rows])
                 for drawn, (_, _, _, rows) in zip(shifts, lattices)]
    box_weight = np.array([mass * (2.0 * radius) ** dim])
    blocks = [(i, lo, min(lo + _CHUNK, size), r) for i, (size, *_) in enumerate(lattices)
              for lo in range(0, size, _CHUNK) for r in range(SHIFTS)]
    # each thread's last piece: its (lattice, lo), residues and table entries of the angle rows
    slots = threading.local()

    def block(spec) -> Array:
        i, lo, hi, r = spec
        size, law, c, rows = lattices[i]
        piece, j, entries = getattr(slots, "piece", (None, None, None))
        if piece != (i, lo):
            # the last piece's arrays go before this one's are built
            slots.piece = j = entries = None
            j = _residues(np.arange(lo, hi), vectors[i], size)
            entries = circles[i].take(j.take(rows, axis=0).astype(np.intp)) if rows.size else None
            slots.piece = ((i, lo), j, entries)
        turns = _turns(entries, rotations[i][r]) if rows.size else None
        u = _shifted(j, size, shifts[i][r])
        # the box map is a transposed view, and the kernels run slower on one
        x = (law.transform(u[:c], turns) if law is not None
             else np.ascontiguousarray((-radius + 2.0 * radius * u[:c]).T))
        weight = (box_weight if proposal is None
                  else outer_weights(x, radius, proposal, n1 / n, mass))
        # the direction's turn as a copy, so that the proposal's is freed before the kernel runs
        sigma = _directions(u[c:-1], turns[-1].copy() if dim > 1 else None, dim)
        del turns
        return _weighted_payoffs(kernel, x, sigma, u[-1], weight)

    def fold(results) -> tuple[Array, Array]:
        lanes = hits = pad = None
        for (_, lo, hi, r), values in zip(blocks, results):
            if lanes is None:
                lanes = np.zeros((len(values), SHIFTS, _LANES))
                hits = np.zeros(len(values), dtype=int)
                pad = np.empty((len(values), _LANES))
            hits += np.count_nonzero(values, axis=1)
            # lane + payoff is the next step of that lane's left-to-right sum; a part
            # row at either end of the block is padded with zeros, which add nothing
            head = min(-lo % _LANES, hi - lo)
            whole = (hi - lo - head) // _LANES * _LANES
            if head:
                pad.fill(0.0)
                pad[:, lo % _LANES:lo % _LANES + head] = values[:, :head]
                lanes[:, r] += pad
            if whole:
                rows = values[:, head:head + whole].reshape(len(values), -1, _LANES)
                rows[:, 0] += lanes[:, r]
                np.add.reduce(rows, axis=1, out=lanes[:, r])
            if head + whole < hi - lo:
                pad.fill(0.0)
                pad[:, :hi - lo - head - whole] = values[:, head + whole:]
                lanes[:, r] += pad
        while lanes.shape[-1] > 1:
            lanes = lanes[..., 0::2] + lanes[..., 1::2]
        return lanes[..., 0], hits

    threads = min(plan.workers, len(blocks), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            sums, hits = fold(pool.map(block, blocks))
    else:
        sums, hits = fold(map(block, blocks))
    columns = SHIFTS * n
    return [IntegralEstimate(float(row.mean()), float(row.std(ddof=1)) / math.sqrt(SHIFTS),
                             info={"method": "monte_carlo", "samples": columns,
                                   "hit_fraction": int(h) / columns})
            for row, h in zip(sums / n, hits)]


def _integrate_double_quadrature(kernel, plan, radius, dim):
    if dim != 1:
        raise ValueError("tensor quadrature for pair integrals is dim=1 only")
    x, wx = _panels(radius, (), plan.x_nodes)
    v, wv = gauss_legendre(plan.t_nodes, unit=True)
    # the full tensor batch (x_i, v_j): every radial node at every x node
    xx = np.repeat(x, v.size)[:, np.newaxis]
    vv = np.tile(v, x.size)

    totals = 0.0
    for s in (-1.0, 1.0):
        vals = _weighted_payoffs(kernel, xx, np.full((len(xx), 1), s), vv)
        totals = totals + np.array([wx @ row.reshape(x.size, -1) @ wv for row in vals])
    return [IntegralEstimate(float(total), 0.0, info={"method": "tensor_quadrature",
                                                      "x_nodes": plan.x_nodes,
                                                      "t_nodes": plan.t_nodes})
            for total in totals]
