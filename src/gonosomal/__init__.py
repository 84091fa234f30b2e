"""Dynamics of gonosomal (sex-linked population) evolution operators.

A bilinear evolution operator maps a joint female/male type distribution
to the next generation through inheritance coefficients.  This package
implements the operator for arbitrary type counts, its normalized
restriction to the probability simplex, fixed-point search with spectral
stability classification, the invariant-set structure and trajectory-limit
classifier of the built-in hemophilia model, estimate and convergence
batteries, and a command line front end.
"""

from . import invariant_sets, normalized, operator, spectral, verify
from .invariant_sets import *
from .normalized import *
from .operator import *
from .spectral import *
from .verify import *

__version__ = "0.1.0"

# Each module's __all__ is its public API, declared there alone.
__all__ = []
__all__ += invariant_sets.__all__
__all__ += normalized.__all__
__all__ += operator.__all__
__all__ += spectral.__all__
__all__ += verify.__all__
