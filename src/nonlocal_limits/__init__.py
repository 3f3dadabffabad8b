"""Nonlocal difference functionals over convex bodies and their local limits.

The package evaluates threshold (level-set) and mollified difference-quotient
functionals built from higher-order remainders of smooth test functions, with
anisotropy entering through the gauge norm of a symmetric convex body.  Sweeps
of the small parameter extrapolate each functional to zero and compare against
its closed-form local limit.
"""

from .bodies import ConvexBody, from_descriptor
from .calculus import (centered_remainder, directional_m_form, forward_difference, m_form,
                       mean_value_identity_check, multi_indices, multinomial,
                       taylor_kernel_identity_check, taylor_polynomial, taylor_remainder)
from .convergence import Schedule, SweepResult, aitken, fit_power_law, sweep
from .engine import IntegralEstimate, IntegrationPlan, MollifierRadial, PowerLaw, integrate_double
from .functionals import FunctionalSpec, evaluate, local_limit, theorem_constant
from .functions import TestFunction, list_functions, make_function, polynomial_function
from .mollifiers import CertificationError, MollifierFamily, certify, make_mollifier
from .quadrature import sphere_body_identity_check, sphere_quadrature

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
