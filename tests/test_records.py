"""The record contract: every record is immutable, builds with the same
arguments and checks them at construction; group specs are shared and
compared by identity, and importing the package stays cheap."""

import importlib
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import lieforge
from lieforge import catalog
from lieforge.catalog import GroupSpec, make_group, parse_group_name, structure_constants
from lieforge.charts import ChartPoint, safe_domain
from lieforge.curvature import einstein_check, riemann_ricci, sample_safe_points
from lieforge.errors import InvalidInputError
from lieforge.metric import MetricConfig, metric, metric_field
from lieforge.scan import ScanConfig, run_scan


def records():
    """One instance of every record, with the names of its fields."""
    spec = make_group("su", 2)
    field = metric_field(spec, "exp", 2.0)
    point = ChartPoint("exp", [0.1, 0.2, 0.3], spec)
    pts = sample_safe_points(field, 2, np.random.default_rng(0))
    report = run_scan(ScanConfig(groups=("su2",), samples=2))
    return {
        "GroupSpec": (spec, ["family", "n", "matrix_size", "dim", "generators", "name"]),
        "StructureConstants": (structure_constants(spec), ["f"]),
        "SafeDomain": (safe_domain(spec, "exp"), ["lo", "hi", "contains"]),
        "ChartPoint": (point, ["chart", "coords", "group"]),
        "MetricConfig": (MetricConfig(group=spec), ["group", "chart", "k"]),
        "MetricTensor": (metric(MetricConfig(group=spec), point),
                         ["g", "g_inv", "condition"]),
        "MetricField": (field, ["dim", "func", "domain", "jet", "name"]),
        "FrameJet": (field.jet(pts), ["q", "lam", "dg", "hess"]),
        "CurvatureBundle": (riemann_ricci(field, pts), ["gamma", "ricci", "scalar"]),
        "EinsteinVerdict": (einstein_check(field, pts, 1e-6),
                            ["lambda_hat", "lambda_spread", "residual", "field_residual",
                             "samples", "tol", "passed", "failure"]),
        "ScanConfig": (report.config, ["groups", "samples", "tolerance", "seed", "k"]),
        "GroupResult": (report.rows[0], ["name", "dim", "lambda_hat", "lambda_spread",
                                         "max_residual", "passed", "wall_time_ms", "failure"]),
        "ScanReport": (report, ["config", "rows"]),
    }


@pytest.mark.parametrize("name", list(records()))
def test_fields_cannot_be_assigned(name):
    record, fields = records()[name]
    assert type(record).__name__ == name and list(record._fields) == fields
    for attr in fields:
        value = getattr(record, attr)
        with pytest.raises(AttributeError):
            setattr(record, attr, value)
        assert getattr(record, attr) is value


@pytest.mark.parametrize("record", [ChartPoint("euler", [1.0, 0.2, 0.3], make_group("su", 2)),
                                    ScanConfig(groups=("su2",))])
def test_validated_records_take_no_new_attributes(record):
    with pytest.raises(AttributeError):
        record.extra = 1


def test_group_spec_hashes_and_compares_by_identity():
    spec = make_group("su", 3)
    twin = GroupSpec(*spec)
    assert twin.name == spec.name and twin.generators is spec.generators
    assert spec == spec and not spec != spec
    assert twin != spec and not twin == spec
    assert hash(spec) == object.__hash__(spec) and hash(twin) == object.__hash__(twin)
    assert {spec: 1}.get(twin) is None


def test_group_spec_names_itself():
    spec = make_group("so", 4)
    assert GroupSpec(spec.family, spec.n, spec.matrix_size, spec.dim, spec.generators).name == "so4"
    assert GroupSpec("SO", 4, 4, 6, spec.generators, name="rot4").name == "rot4"


def test_one_spec_per_family_and_size():
    assert make_group("su", 3) is make_group("SU", 3) is parse_group_name(" SU3 ")
    assert make_group("sp", 2) is not make_group("sp", 1)


def test_structure_is_built_lazily_once(monkeypatch):
    asks, spec = [], make_group("so", 5)  # built before the count: its generators ask too
    check_alloc = catalog.check_alloc
    monkeypatch.setattr(catalog, "check_alloc", lambda *a: asks.append(a) or check_alloc(*a))
    fresh = GroupSpec(*spec)
    assert asks == [] and "structure" not in vars(fresh)
    f = fresh.structure
    assert fresh.structure is f and structure_constants(fresh).f is f
    assert len(asks) == 1 and not f.flags.writeable


@pytest.mark.parametrize("build", [
    lambda su2: ChartPoint("exp", [0.1, 0.2], su2),
    lambda su2: ChartPoint("euler", [0.1, 0.2, 0.3], make_group("su", 3)),
    lambda su2: ChartPoint("polar", [0.1, 0.2, 0.3], su2),
    lambda su2: ChartPoint("exp", 0.5, su2),
    lambda su2: ChartPoint("exp", np.zeros((3, 1)), su2),
    lambda su2: ChartPoint("euler", np.zeros((3, 1)), su2),
    lambda su2: ScanConfig(groups=("su2",), samples=0),
    lambda su2: ScanConfig(groups=("su2",), tolerance=0.0),
    lambda su2: ScanConfig(groups=("su2",), seed=-1),
    lambda su2: ScanConfig(groups=("su2",), k="two"),
], ids=["exp-count", "euler-group", "chart", "exp-scalar", "exp-column", "euler-column",
        "samples", "tolerance", "seed", "k"])
def test_construction_checks_its_arguments(su2, build):
    with pytest.raises(InvalidInputError):
        build(su2)


def test_chart_point_coerces_its_coordinates(su2):
    point = ChartPoint("exp", [1, 2, 3], su2)
    assert point.coords.dtype == float and np.array_equal(point.coords, [1.0, 2.0, 3.0])


def test_import_does_not_load_dataclasses():
    # numpy does not import dataclasses either, so a fresh import that loads
    # it has started building records through dataclasses' generated code
    src = str(Path(lieforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c",
                          "import lieforge, sys; print('dataclasses' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_record_annotations_are_types():
    # under `from __future__ import annotations` NamedTuple turns every field
    # annotation into a typing.ForwardRef, which costs time at each import
    classes = {cls for info in pkgutil.iter_modules(lieforge.__path__)
               for cls in vars(importlib.import_module(f"lieforge.{info.name}")).values()
               if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert len(classes) >= 12
    for cls in classes:
        for name, kind in vars(cls).get("__annotations__", {}).items():
            assert not isinstance(kind, (str, typing.ForwardRef)), (cls.__name__, name)
