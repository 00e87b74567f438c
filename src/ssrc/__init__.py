"""Simulation of fixed-total-photon-number bosonic states.

Provides Fock-space state and operator primitives on fixed-N bases, the
mode-pair angular-momentum gate algebra, sequential state synthesis,
large-N convergence diagnostics toward standard single-mode states, qubit
encodings with gate-feasibility searches, and a deterministic experiment
runner exposed as the ``ssrc`` command.
"""

from . import cvlimit, encodings, hilbert, prng, schwinger, synthesis

__version__ = "0.1.0"

__all__ = [
    "cvlimit", "encodings", "hilbert", "prng", "schwinger", "synthesis",
    "__version__",
]
