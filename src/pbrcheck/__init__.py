"""pbrcheck: numerically check which preparation scenarios admit overlapping
("mere information") epistemic models of the quantum state.

The library computes exact small-dimension Born statistics for the
two-device preparation scenarios, and decides by linear feasibility whether
a finite ontological model with overlapping epistemic distributions can
reproduce them.
"""

from .errors import DomainError, PbrCheckError
from .ontic import (
    EPS_LP,
    EpistemicDistribution,
    FeasibilityVerdict,
    OnticSpace,
    OverlapReport,
    ResponseFunction,
    constant_response,
    feasibility,
    joint,
    mixture,
    monte_carlo,
    overlap,
    overlap_pair,
    pbr_contradiction,
    point_mass,
    state_assignment_response,
    uniform,
)
from .quantum import (
    EPS_NORM,
    EPS_PROB,
    EPS_ZERO,
    MeasurementBasis,
    born_distribution,
    inner,
    is_normalized,
    is_orthonormal_basis,
    normalize,
    tensor,
)
from .scenarios import (
    PREPARATIONS,
    XI_LABELS,
    ZERO_PAIRING,
    ProbabilityTable,
    ThetaPair,
    ket,
    mz_joint_state,
    mz_normalization_sq,
    mz_preparation_state,
    pbr_target_rows,
    product_preparation,
    theta_pair,
    theta_table,
    xi_basis,
    zero_outcome_table,
)

__version__ = "0.1.0"
