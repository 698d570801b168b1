"""Verification lab for sharp polygon isoperimetric slack inequalities.

Polygons tied to a circle are parameterized by half central angles on the
constrained simplex; the catalog evaluates every tracked inequality as a
signed slack (nonnegative means the inequality holds, zero exactly at the
regular polygon), the certifier classifies the proof-side gap functions by
the Schur condition, and the extremal search confirms sharpness by
optimization against a brute-force grid oracle.
"""

from . import errors
from .analytic_inequalities import (
    CaseId,
    Convexity,
    Direction,
    FunctionFamily,
    OdeCase,
    builtin_families,
    coupled_gradient_slack,
    family,
)
from .extremal_search import (
    Counterexample,
    GridScanResult,
    SearchResult,
    falsify,
    grid_scan,
    minimize_slack,
)
from .inequality_catalog import (
    CatalogEntry,
    ParamSpec,
    evaluate,
    evaluate_all,
    evaluate_exact,
    get_entry,
    list_entries,
    sign_flipped,
)
from .polygon_core import (
    DEFAULT_MARGIN,
    GEOMETRIC_BOUND,
    AngleVector,
    GeometricSummary,
    PolygonKind,
    PolygonModel,
    make_angle_vector,
    measure,
    regular_angles,
    sample_simplex_batch,
)
from .records import SlackRecord
from .schur_certifier import (
    Classification,
    SchurVerdict,
    SymmetricFunction,
    certify,
    linear_function,
    power_gap_function,
    power_gap_reverse_function,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
