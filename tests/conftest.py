import math

import numpy as np
import pytest

from nonlocal_limits import engine, functionals


@pytest.fixture(autouse=True)
def fresh_grid_pass():
    """Start every test without a kept Monte Carlo pass, so that a stand-in
    integrator or a patched block size cannot reach another test through it."""
    functionals._grid_pass.cache_clear()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(20260810)))


def flat_reach(sigma):
    """A ``PowerLaw`` reach of 1 in every direction: each point's cutoff is its own number."""
    return np.ones(len(sigma))


def drawn(law, kernel):
    """The kernel of v that ``engine.integrate_double`` calls, from a radial ``law`` and a
    ``kernel(x, sigma, t)`` whose payoff is over the law's unnormalised shape: it draws
    t = law.sample(v, law.prepare(sigma)) as the passes do and multiplies by the shape's
    ``mass``, so the payoff is over the normalised density.  A law without one
    (``MollifierRadial``) is normalised already."""
    def kernel_of_v(x, sigma, v):
        aux = law.prepare(sigma)
        payoff = kernel(x, sigma, law.sample(v, aux))
        return payoff * law.mass(aux) if hasattr(law, "mass") else payoff
    return kernel_of_v


def libm_turns(u, proposal):
    """exp(2 pi i u) of the angle coordinates ``proposal.angles`` of uniforms ``u``, by
    np.cos and np.sin: the ``turns`` that ``OuterProposal.transform`` takes."""
    angle = 2.0 * math.pi * u[list(proposal.angles)]
    turns = np.empty(angle.shape, dtype=complex)
    turns.real, turns.imag = np.cos(angle), np.sin(angle)
    return turns


def lattice_run(n, shift, rows):
    """A whole run of the n-point lattice shifted by ``shift`` (s, 1), on the angle path
    of the engine's blocks: its points u (s, n) and the turns exp(2 pi i u) of its rows
    ``rows``, the entries of the lattice's rotation table at their residues, rotated by the
    shift (None without rows)."""
    j = engine._residues(np.arange(n), engine.generating_vector(n, len(shift)), n)
    rows = list(rows)
    turns = (engine._turns(engine._circle(n).take(j[rows].astype(np.intp)),
                           engine._unit(2.0 * math.pi * shift[rows]))
             if rows else None)
    return engine._shifted(j, n, shift), turns


def fd_partial(f, alpha, x, step=1e-4):
    """Nested central finite differences of f.eval; oracle for analytic partials."""
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) == 0:
        return float(f.eval(x))
    i = next(j for j, a in enumerate(alpha) if a > 0)
    reduced = list(alpha)
    reduced[i] -= 1
    offset = np.zeros(f.dim)
    offset[i] = step
    x = np.asarray(x, dtype=float)
    return (fd_partial(f, reduced, x + offset, step)
            - fd_partial(f, reduced, x - offset, step)) / (2.0 * step)

