"""Gene-network dynamical systems over finite fields.

Discrete gene networks as polynomial dynamical systems over GF(q),
coupled to piecewise-linear concentration dynamics through threshold
discretization: model construction and validation, schedule
composition, phase-portrait analysis, hybrid simulation, and inference
of polynomial coordinate functions from observed state transitions.
"""

from .continuous import (
    HybridEvent,
    HybridResult,
    RatePolicy,
    SectionalLinear,
    fit_from_samples,
    hybrid_simulate,
)
from .dynamics import (
    PhasePortrait,
    compare_schedules,
    cycles,
    fixed_points,
    phase_portrait,
    schedule_scan,
)
from .errors import (
    CompatibilityError,
    ContinuityError,
    ContradictoryDataError,
    FieldMismatchError,
    GsdsError,
    ModelValidationError,
    PolyParseError,
    StateSpaceLimitError,
    UnsupportedEncodingError,
    ZenoError,
)
from .ffield import (
    Field,
    balanced_decode,
    balanced_encode,
    gf4_table_errata,
)
from .infer import (
    InferenceResult,
    SolutionSpace,
    StateSeries,
    TransitionData,
    constrained_interpolate,
    infer_network,
    interpolate,
    solution_space,
    sparsest_interpolate,
)
from .network import (
    DependencyGraph,
    GlobalMap,
    GsdsModel,
    ValidationReport,
    apply_local,
    global_map,
    load_model,
    parallel_to_sequential,
    save_model,
    trajectory,
    validate_model,
)
from .polyring import Polynomial, indicator_poly, iter_points, parse_poly, support_vars
from .translate import (
    GeneThresholds,
    ThresholdMap,
    check_translated,
    discretize,
    discretize_series,
    load_thresholds,
    search_compatible_thresholds,
)

__version__ = "0.1.0"
