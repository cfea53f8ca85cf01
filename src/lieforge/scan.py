"""Conjecture scan across group families and report serialization.

A scan draws sample points uniformly in each group's safe box (deterministic
from the seed), runs the Einstein check, and aggregates one row per group.
JSON is the canonical lossless report form; floats are written with 17
significant digits so reports round-trip byte-identically.
"""

import json
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .catalog import GroupSpec, parse_group_name
from .curvature import EinsteinVerdict, check_tol_and_seed, einstein_check, sample_safe_points
from .errors import InvalidInputError, LieForgeError
from .metric import metric_field, resolve_k

CHART = "exp"  # every group has an exponential chart


class _ScanFields(NamedTuple):
    groups: tuple[str, ...]
    samples: int = 20
    tolerance: float = 1e-6
    seed: int = 0
    k: float | str = "auto"


class ScanConfig(_ScanFields):
    __slots__ = ()

    def __new__(cls, groups, samples=20, tolerance=1e-6, seed=0, k="auto"):
        if not samples >= 1:
            raise InvalidInputError("samples must be >= 1")
        check_tol_and_seed(tolerance, seed)
        resolve_k(k)
        return super().__new__(cls, groups, samples, tolerance, seed, k)


class GroupResult(NamedTuple):
    name: str
    dim: int
    lambda_hat: float
    lambda_spread: float
    max_residual: float
    passed: bool
    wall_time_ms: float
    failure: str | None = None


class ScanReport(NamedTuple):
    config: ScanConfig
    rows: tuple[GroupResult, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

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
                {
                    "name": r.name,
                    "dim": r.dim,
                    "lambda_hat": r.lambda_hat,
                    "lambda_spread": r.lambda_spread,
                    "max_residual": r.max_residual,
                    "pass": r.passed,
                    "wall_time_ms": r.wall_time_ms,
                    "failure": r.failure,
                }
                for r in self.rows
            ],
            "pass": self.passed,
        }


def scan_one_group(spec: GroupSpec, cfg: ScanConfig, group_index: int) -> GroupResult:
    start = time.perf_counter()
    try:
        field = metric_field(spec, CHART, resolve_k(cfg.k))
        rng = np.random.default_rng([cfg.seed, group_index])
        # called through this module's name: perfbench/trace.py wraps scan.sample_safe_points
        pts = sample_safe_points(field, cfg.samples, rng)
        verdict = einstein_check(field, pts, cfg.tolerance)
    except InvalidInputError:
        raise  # a bad request, not a failed group
    except LieForgeError as exc:
        verdict = EinsteinVerdict.failed(cfg.samples, cfg.tolerance, str(exc))
    return GroupResult(
        name=spec.name, dim=spec.dim,
        lambda_hat=verdict.lambda_hat,
        lambda_spread=verdict.lambda_spread,
        max_residual=verdict.residual,
        passed=verdict.passed,
        wall_time_ms=(time.perf_counter() - start) * 1000.0,
        failure=verdict.failure,
    )


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


def _fmt_float(x: float) -> str:
    return format(x, ".17g") if np.isfinite(x) else "nan"


def dumps_csv(report_dict: dict) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in report_dict["groups"]:
        lines.append(",".join([
            row["name"], str(row["dim"]),
            _fmt_float(row["lambda_hat"] if row["lambda_hat"] is not None else float("nan")),
            _fmt_float(row["lambda_spread"] if row["lambda_spread"] is not None else float("nan")),
            _fmt_float(row["max_residual"] if row["max_residual"] is not None else float("nan")),
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
