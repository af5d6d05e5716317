"""posstab: certification of uniform exponential stability for positive
linear discrete-time systems on finite-dimensional ordered cones.

Every stability criterion (resolvent positivity, monotone bounded
invertibility, uniform/robust/rank-one small gain, dual and interior-point
small gain, strict decay points, the quasi-compact suite) is evaluated
independently and cross-checked into one machine-readable certificate
with explicit witnesses.
"""

from .cones import (
    ConeConstants,
    ConeSpec,
    cone_constants,
    cone_from_dict,
    contains,
    decompose,
    distance,
    interior_point,
    is_interior,
    lattice_parts,
    lorentz,
    orthant,
    project,
)
from .criteria import (
    CertificateReport,
    CriterionVerdict,
    CrossCheckConfig,
    RankOneDestabilizer,
    StrictDecayCertificate,
    Witness,
    approximate_positive_eigenvector,
    check_resolvent_positivity,
    consensus_of,
    cross_check,
    dual_small_gain,
    interior_small_gain,
    mbi_constant,
    quasi_compact_suite,
    rank_one_destabilizer,
    reverify_witness,
    robust_small_gain,
    small_gain_certificate,
    strict_decay_point,
    uniform_small_gain_margin,
)
from .errors import (
    DimensionMismatchError,
    DivergenceError,
    NoISSEstimateError,
    NotALatticeError,
    SpectralProximityError,
    UnsupportedConeNormError,
)
from .gallery import GalleryEntry, gallery_build, gallery_names, strong_small_gain_check
from .iss import (
    DatkoResult,
    InputSignal,
    ISSEstimate,
    ResponseClassification,
    Trajectory,
    datko_test,
    input_from_dict,
    iss_constants,
    response_class_check,
    simulate,
    verify_iss_bound,
)
from .lyapunov import (
    EquivalentNorm,
    KFunctionSpec,
    QuadraticCertificate,
    equivalent_norm,
    quadratic_decrease_check,
    solve_stein,
    verify_lyapunov,
)
from .norms import induced_norm, vec_norm
from .operators import (
    DenseOperator,
    DiagonalOperator,
    OperatorSpec,
    SpectralEstimate,
    TruncatedShift,
    adjoint,
    apply,
    dense,
    diagonal,
    geometric_envelope,
    is_positive,
    materialize,
    operator_from_csv,
    operator_from_dict,
    operator_to_dict,
    power_norms,
    resolvent_apply,
    shift,
    spectral_radius,
)

__version__ = "0.1.0"
