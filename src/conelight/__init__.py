"""Detection of positive eigenvectors for cone maps, and optimal
illumination of the variation-norm unit ball.

The package splits into four layers: `geometry` (Hilbert metric, variation
and Hilbert norms, log/exp charts, extreme points), `maps` (pluggable
order-preserving homogeneous maps with built-in families), `illumination`
(chain decompositions, optimal illuminating sets, exact and certificate
oracles), and `detector` (the inequality-recording sampling loop).  The
`cli` module wires them into JSON-emitting commands.
"""

from .detector import (
    DetectionReport,
    EigenEstimate,
    SamplerConfig,
    SubsetLedger,
    chain_schedule,
    estimate_eigenvector,
    min_remaining_lower_bound,
)
from .detector import run as run_detection
from .geometry import (
    DimensionMismatchError,
    ExtremePoint,
    exp_map,
    extreme_points,
    hilbert_distance,
    hilbert_norm,
    log_map,
    subset_to_extreme_point,
    variation_norm,
)
from .illumination import (
    IlluminationReport,
    LowerBoundCertificate,
    TooLargeError,
    illuminates,
    illuminates_numeric,
    illumination_number_exact,
    lower_bound_certificate,
    optimal_illuminating_set,
    verify_illumination,
)
from .maps import (
    ConeMap,
    FunctionMap,
    InvalidMapError,
    MatrixMap,
    MaxPlusMap,
    MonomialMap,
    conjugate_log_map,
    evaluate,
    evaluate_batch,
    load_map,
    map_from_spec,
    normalize,
    shear2_map,
    verify_cone_map,
)

__version__ = "0.1.0"

__all__ = [
    "ConeMap",
    "DetectionReport",
    "DimensionMismatchError",
    "EigenEstimate",
    "ExtremePoint",
    "FunctionMap",
    "IlluminationReport",
    "InvalidMapError",
    "LowerBoundCertificate",
    "MatrixMap",
    "MaxPlusMap",
    "MonomialMap",
    "SamplerConfig",
    "SubsetLedger",
    "TooLargeError",
    "chain_schedule",
    "conjugate_log_map",
    "estimate_eigenvector",
    "evaluate",
    "evaluate_batch",
    "exp_map",
    "extreme_points",
    "hilbert_distance",
    "hilbert_norm",
    "illuminates",
    "illuminates_numeric",
    "illumination_number_exact",
    "load_map",
    "log_map",
    "lower_bound_certificate",
    "map_from_spec",
    "min_remaining_lower_bound",
    "normalize",
    "optimal_illuminating_set",
    "run_detection",
    "shear2_map",
    "subset_to_extreme_point",
    "variation_norm",
    "verify_cone_map",
    "verify_illumination",
]
