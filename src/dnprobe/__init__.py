"""Singular boundary probes for a quasilinear parabolic DN map.

A desk-scale laboratory: simulate the Dirichlet-to-Neumann map of
rho(t,u) du/dt - div(gamma(t,u) A grad u) = 0 on the unit box, drive it
with boundary data built from fundamental solutions centered just outside
the measurement patch, and read the coefficient values gamma(t0, lambda),
rho(t0, lambda) off the concentration limit of DN pairings.
"""

__version__ = "0.1.0"
