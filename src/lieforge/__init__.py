"""Riemannian metrics from matrix Lie group parametrizations, their
curvature, and Einstein-property verification."""

# Set before the submodule imports: scan.py reads it for its reports.
__version__ = "0.1.0"

from .catalog import GroupSpec, StructureConstants, make_group, parse_group_name, structure_constants
from .charts import ChartPoint, FrameEvaluation, chart_transition_check, euler_chart, exp_chart, su2_log
from .curvature import CurvatureBundle, EinsteinVerdict, christoffel, einstein_check, riemann_ricci
from .errors import (
    DomainError,
    InvalidInputError,
    LieForgeError,
    NumericRangeError,
    SingularityError,
)
from .kernel import mat_inverse
from .metric import (
    MetricConfig,
    MetricField,
    MetricTensor,
    closed_form_metric_su2_euler,
    exp_metric_field,
    isometry_residual,
    maurer_cartan,
    metric,
    metric_field,
)
from .scan import ScanConfig, ScanReport, emit_report, run_scan
from .sphere import hyperspherical_embedding, pullback_metric, sphere_einstein_check
