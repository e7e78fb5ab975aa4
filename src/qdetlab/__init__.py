"""qdet-lab: exact verification of q-series determinant and Pfaffian identities.

The library evaluates both sides of a catalogue of determinant, Pfaffian,
basic-hypergeometric, and orthogonal-polynomial identities at randomized
non-degenerate rational points, entirely in exact rational arithmetic, and
reports bit-exact agreement.  Where an identity meets the imaginary unit, it
is carried as a known power i^k of a rational value, never as a scalar.  See :mod:`qdetlab.identities` for the check
registry and :mod:`qdetlab.cli` for the command-line front end.
"""

from .errors import (
    DegenerateSampleError,
    NonTerminatingSeriesError,
    ParseError,
    PoleError,
    QdetLabError,
    UsageError,
)
from .gaussian import ONE, ZERO, GaussianRational, parse, to_gq
from .linalg import ExactMatrix, determinant, pfaffian, submatrix

__version__ = "0.1.0"

__all__ = [
    "DegenerateSampleError",
    "ExactMatrix",
    "GaussianRational",
    "NonTerminatingSeriesError",
    "ONE",
    "ParseError",
    "PoleError",
    "QdetLabError",
    "UsageError",
    "ZERO",
    "determinant",
    "parse",
    "pfaffian",
    "submatrix",
    "to_gq",
    "__version__",
]
