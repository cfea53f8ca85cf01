"""The one verdict path, the conjecture scan and report serialization.

``verdict`` draws sample points uniformly in a field's safe box (deterministic
from the seed) and runs the Einstein check for ``einstein``, ``sphere
--einstein`` and each scan group; ``verdict_dict`` gives every report its keys.
JSON is the canonical lossless report form; floats are written with 17
significant digits so reports round-trip byte-identically.
"""

import json
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .catalog import GroupSpec, parse_group_name
from .curvature import EinsteinVerdict, check_samples, check_tol, einstein_check, sample_safe_points
from .errors import InvalidInputError, LieForgeError
from .metric import MetricField, metric_field, resolve_k

CHART = "exp"  # every group has an exponential chart


def check_verdict_args(samples: int, tol: float, seed: int) -> None:
    """InvalidInputError unless samples is an integer >= 1, tol positive and
    finite, and seed an integer >= 0, as ``np.random.default_rng`` needs; a bool is neither."""
    check_samples(samples)
    check_tol(tol)
    if not (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0):
        raise InvalidInputError("seed must be an integer >= 0")


def verdict(field: MetricField, samples: int, tol: float, seed: int,
            *stream: int) -> EinsteinVerdict:
    """Einstein verdict on ``samples`` points drawn from ``default_rng([seed, *stream])``,
    bitwise ``default_rng(seed)`` with no stream."""
    check_verdict_args(samples, tol, seed)
    # called through this module's name: perfbench/trace.py wraps scan.sample_safe_points
    pts = sample_safe_points(field, samples, np.random.default_rng([seed, *stream]))
    return einstein_check(field, pts, tol)


def verdict_dict(v: EinsteinVerdict) -> dict:
    """A verdict's report keys, in the one order every report writes them."""
    return {"lambda_hat": v.lambda_hat, "lambda_spread": v.lambda_spread, "residual": v.residual,
            "field_residual": v.field_residual, "pass": v.passed, "failure": v.failure}


class _ScanFields(NamedTuple):
    groups: tuple[str, ...]
    samples: int = 20
    tolerance: float = 1e-6
    seed: int = 0
    k: float | str = "auto"


class ScanConfig(_ScanFields):
    __slots__ = ()

    def __new__(cls, groups, samples=20, tolerance=1e-6, seed=0, k="auto"):
        check_verdict_args(samples, tolerance, seed)
        resolve_k(k)
        return super().__new__(cls, groups, samples, tolerance, seed, k)


class GroupResult(NamedTuple):
    name: str
    dim: int
    verdict: EinsteinVerdict
    wall_time_ms: float

    # read by perfbench/workloads.py
    lambda_hat = property(lambda self: self.verdict.lambda_hat)
    max_residual = property(lambda self: self.verdict.residual)
    passed = property(lambda self: self.verdict.passed)


class ScanReport(NamedTuple):
    config: ScanConfig
    rows: tuple[GroupResult, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.verdict.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "config": {
                "groups": list(self.config.groups),
                "chart": CHART,
                "samples": self.config.samples,
                "tolerance": self.config.tolerance,
                "seed": self.config.seed,
                "k": self.config.k,
            },
            "version": __version__,
            "groups": [
                {"name": r.name, "dim": r.dim, **verdict_dict(r.verdict),
                 "wall_time_ms": r.wall_time_ms}
                for r in self.rows
            ],
            "pass": self.passed,
        }


def scan_one_group(spec: GroupSpec, cfg: ScanConfig, group_index: int) -> GroupResult:
    start = time.perf_counter()
    try:
        field = metric_field(spec, CHART, resolve_k(cfg.k))
        v = verdict(field, cfg.samples, cfg.tolerance, cfg.seed, group_index)
    except InvalidInputError:
        raise  # a bad request, not a failed group
    except LieForgeError as exc:
        v = EinsteinVerdict.failed(str(exc))
    return GroupResult(spec.name, spec.dim, v, (time.perf_counter() - start) * 1000.0)


def run_scan(cfg: ScanConfig) -> ScanReport:
    # parse every name up front so an unknown group fails before any work
    specs = [parse_group_name(name) for name in cfg.groups]
    rows = tuple(scan_one_group(spec, cfg, i) for i, spec in enumerate(specs))
    return ScanReport(config=cfg, rows=rows)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _json_value(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return "null"
        return format(x, ".17g")
    if obj is None:
        return "null"
    return json.dumps(obj)


def dumps_json(obj: dict) -> str:
    return _json_value(obj) + "\n"


CSV_COLUMNS = ("name", "dim", "lambda_hat", "lambda_spread", "max_residual",
               "status", "wall_time_ms")


def _fmt_float(x: float | None) -> str:
    return format(x, ".17g") if x is not None and np.isfinite(x) else "nan"


def dumps_csv(report_dict: dict) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in report_dict["groups"]:
        lines.append(",".join([
            row["name"], str(row["dim"]),
            *(_fmt_float(row[key]) for key in ("lambda_hat", "lambda_spread", "residual")),
            "pass" if row["pass"] else "fail",
            _fmt_float(row["wall_time_ms"]),
        ]))
    return "\n".join(lines) + "\n"


def emit_report(report_dict: dict, fmt: str = "json") -> bytes:
    if fmt == "json":
        return dumps_json(report_dict).encode()
    if fmt == "csv":
        return dumps_csv(report_dict).encode()
    raise InvalidInputError(f"unknown report format {fmt!r}")
