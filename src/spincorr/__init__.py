"""Verification toolkit for relativistic spin dynamics.

Classical side: Lorentz force with the field-gradient (Stern-Gerlach)
correction and T-BMT spin precession, driven by a total Hamiltonian that
is exact at linear order in the field strength.

Quantum side: lattice Dirac-Pauli Hamiltonians, their exact
block-diagonalization by Eriksen's method, and an exact-rational
noncommutative operator algebra that checks the Weyl-ordering claims
symbolically.

The two sides are compared quantitatively: residuals between the exact
transform and the Weyl-ordered classical Hamiltonian scale quadratically
in the field amplitude, while the Darwin term is shown to have no
classical counterpart.
"""

from .params import ParticleParams
from .kinematics import PhaseState, kinematic_momentum, gamma_pi
from .fields import (
    FieldSample,
    Uniform,
    SternGerlach,
    SinusoidalElectrostatic,
    SinusoidalMagnetostatic,
    Superposition,
    sample_field,
)

__all__ = [
    "ParticleParams",
    "PhaseState",
    "kinematic_momentum",
    "gamma_pi",
    "FieldSample",
    "Uniform",
    "SternGerlach",
    "SinusoidalElectrostatic",
    "SinusoidalMagnetostatic",
    "Superposition",
    "sample_field",
]

__version__ = "0.1.0"
