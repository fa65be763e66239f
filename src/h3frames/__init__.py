"""Framed surfaces in hyperbolic 3-space: invariants, singularities, transports."""

__version__ = "0.1.0"

# The tolerance defaults of a CLI run are defined here, so that printing them
# executes none of the modules that use them; those modules re-export them.

#: Default tolerance for frame-quality comparisons (``frames.FRAME_TOL``).
FRAME_TOL = 1e-8
#: Newton convergence: |alpha| + |beta| below this at the refined root
#: (``singularities.REFINE_TOL``).
REFINE_TOL = 1e-10
#: Default tolerance for the flatness classification conditions
#: (``horocyclic.CLASS_TOL``).
CLASS_TOL = 1e-7
