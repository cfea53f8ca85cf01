"""Riemannian metrics from matrix Lie group parametrizations, their
curvature, and Einstein-property verification."""

# Set before the submodule imports: scan.py reads it for its reports.
__version__ = "0.1.0"

from .catalog import GroupSpec, make_group, parse_group_name
from .charts import ChartPoint
from .curvature import CurvatureBundle, EinsteinVerdict, einstein_check, riemann_ricci
from .errors import (
    DomainError,
    InvalidInputError,
    LieForgeError,
    NumericRangeError,
    SingularityError,
)
from .metric import (
    MetricConfig,
    MetricField,
    MetricTensor,
    metric,
    metric_field,
)
from .scan import ScanConfig, ScanReport, emit_report, run_scan
from .sphere import pullback_metric, sphere_einstein_check
