"""Phase-space distributions of polarized two-mode quantum light.

The package is organized around four layers:

* `poincare`: polarization bookkeeping, Poincare-sphere angles and the
  complex polarization index p;
* `fock`: truncated Fock-space vectors, the s-ordered kernel family,
  two-mode states;
* `qpdf`: distribution values via the analytic coherent closed form
  and the brute-force trace route, sweeps, normalization integrals;
* `coherence`: normally ordered correlation functions, the
  polarization condition residual, and the factorization law it implies.

`cli` exposes all of it as the `polqpdf` command.
"""

from .coherence import (
    CoherenceOrder,
    FactorizationCheck,
    coherence_function,
    factorization_check,
    polarization_residual,
)
from .errors import (
    DegenerateInputError,
    PoleError,
    SingularOrderError,
    TruncationError,
    ValidationError,
)
from .fock import (
    OrderParameter,
    TruncatedOperator,
    TwoModeState,
    coherent_vector,
    fock_vector,
    kernel,
    required_dim,
    state_components,
    two_mode_coherent_density,
)
from .poincare import (
    PoincareParams,
    PolarizationIndex,
    amplitudes_to_poincare,
    index_of_polarization,
    poincare_to_amplitudes,
)
from .qpdf import (
    AxisKind,
    GridMeta,
    Method,
    NormalizationResult,
    PlaneQuadrature,
    QpdfGrid,
    normalization_check,
    plane_grid_qpdf,
    poincare_sphere_qpdf,
    qpdf_coherent_closed,
    qpdf_trace,
    qpdf_trace_single,
    sweep_modulus,
    sweep_phase,
)

__version__ = "0.1.0"
