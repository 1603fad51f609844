"""First-order convex optimization methods with runtime certificates.

Every descent method in this package records a full iterate trace, and the
certifier replays the potential-function argument behind the method's
convergence guarantee on that trace: per-step potential bounds, telescoping,
and the end-to-end inequality, each checked numerically at an explicit
tolerance.
"""

from gdcert.core import Norm, Unconstrained, Ball, Box, Simplex
from gdcert.problems import get_problem, make_diag_quadratic, make_experts_adversary
from gdcert.trace import Trace

__all__ = [
    "Norm",
    "Unconstrained",
    "Ball",
    "Box",
    "Simplex",
    "get_problem",
    "make_diag_quadratic",
    "make_experts_adversary",
    "Trace",
]
