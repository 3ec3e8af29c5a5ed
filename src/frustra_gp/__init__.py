"""Decoherence dynamics and mixed-state geometric phase of a central qubit
coupled to two independent, unpolarized spin baths through non-commuting
operators.

The reduced dynamics is an exact finite convex sum of Bloch rotations over
bath magnetization sectors; on top of it the package computes the
kinematic geometric phase of the decohering qubit by three routes (closed
form, south-pole special case, discrete holonomy), validates everything
against an exact oracle that evolves the full Hilbert space block by
block in the baths' total spins, and exposes parameter sweeps
that contrast coupling allocations where splitting the coupling between two
baths preserves the phase better than spending it on one.
"""

from . import dynamics, errors, experiments, model, oracle, phase
from .dynamics import *
from .errors import *
from .experiments import *
from .model import *
from .oracle import *
from .phase import *

__version__ = "0.1.0"

# Each module's __all__ is its public list; the package re-exports them.
__all__ = ["__version__"]
__all__ += dynamics.__all__
__all__ += errors.__all__
__all__ += experiments.__all__
__all__ += model.__all__
__all__ += oracle.__all__
__all__ += phase.__all__
