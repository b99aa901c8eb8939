"""fracflux: coupled time-fractional diffusion on (0, pi) with boundary-flux
source identification.

Subpackages by task: :mod:`fracflux.specfun` (Prabhakar evaluation),
:mod:`fracflux.modes` (eigensystem and coupled-root algebra),
:mod:`fracflux.forward` (closed-form spectral solver),
:mod:`fracflux.laplace` (flux transform, branch-cut jump, branch search),
:mod:`fracflux.inverse` (residue checks and least-squares reconstruction),
:mod:`fracflux.cli` (batch commands).
"""

from .forward import FluxTrace, SourceSpec, StateTrajectory, boundary_flux, extend_complex, solve
from .modes import ModelParams, ModeTable, SpectralField, analyze, build_mode_table, synthesize
from .specfun import PrabhakarParams, prabhakar, prabhakar_array, principal_power

__all__ = [
    "FluxTrace",
    "ModelParams",
    "ModeTable",
    "PrabhakarParams",
    "SourceSpec",
    "SpectralField",
    "StateTrajectory",
    "analyze",
    "boundary_flux",
    "build_mode_table",
    "extend_complex",
    "prabhakar",
    "prabhakar_array",
    "principal_power",
    "solve",
    "synthesize",
]

__version__ = "0.1.0"
