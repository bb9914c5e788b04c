"""Singular boundary probes for a quasilinear parabolic DN map.

A desk-scale laboratory: simulate the Dirichlet-to-Neumann map of
rho(t,u) du/dt - div(gamma(t,u) A grad u) = 0 on the unit box, drive it
with boundary data built from fundamental solutions centered just outside
the measurement patch, and read the coefficient values gamma(t0, lambda),
rho(t0, lambda) off the concentration limit of DN pairings.
"""

__version__ = "0.1.0"

from .geometry import Grid, GridError, ProbeGeometry, build_grid, exterior_point
from .material import (MaterialError, MaterialLaw, MatrixField, check_admissible,
                       check_interior_max, make_law, make_matrix, perturb_law)
from .singular import (CutoffSet, SingularBasis, SingularError, a_tau_value,
                       build_basis, fundamental_H, grad_H_energy, make_cutoffs,
                       solve_corrector)
from .pde import (BoundaryField, PatchField, PDEError, SpaceTimeField,
                  solve_forward, solve_linearized)
from .dnmap import (BoundaryNorm, DNMapError, eta_surrogate, linear_flux,
                    linearization_check, nonlinear_flux, patch_linear_flux,
                    surface_pairing)
from .reconstruct import (ProbeSpec, ReconstructError, ReconstructionReport,
                          StabilityTable, check_probes, recover_gamma_point,
                          recover_rho_point, stability_experiment, tau_sweep)
from .config import ConfigError, ExperimentConfig, load_config
