"""Command-line surface: metric/curvature evaluation, Einstein checks,
the conjecture scan, and sphere pullbacks.

Exit codes: 0 all checks passed, 1 an Einstein check failed, 2 invalid
input or I/O failure.
"""

import argparse
import sys

import numpy as np

from .catalog import parse_group_name
from .charts import ChartPoint
from .curvature import riemann_ricci
from .errors import InvalidInputError, LieForgeError
from .metric import MetricConfig, metric, metric_field, resolve_k
from .scan import ScanConfig, dumps_json, emit_report, run_scan, verdict, verdict_dict
from .sphere import pullback_metric, sphere_einstein_check


def _csv_floats(text: str) -> np.ndarray:
    try:
        values = np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}: {exc}")
    if not np.all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(f"non-finite value in {text!r}")
    return values


def _k_value(text: str):
    try:
        resolve_k(text)
    except LieForgeError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text if text == "auto" else float(text)


def _positive(kind, zero_ok=False):
    """argparse type: a finite number of ``kind`` that is > 0, or >= 0 when
    ``zero_ok`` (so never nan or inf)."""
    what = "non-negative" if zero_ok else "positive"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not (0 <= value if zero_ok else 0 < value) or value == float("inf"):
            raise argparse.ArgumentTypeError(f"expected a {what} {kind.__name__}, got {text!r}")
        return value

    return parse


def _join_point_values(argv) -> list:
    """Write ``--point -0.3,0.4`` as ``--point=-0.3,0.4``.

    argparse reads a value that starts with a single '-' and is not a plain
    negative number as an option, so the leading minus of a coordinate list
    would end the option's arguments.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--point" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"--point={arg}"
        else:
            out.append(arg)
    return out


def parse_cli(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="lieforge",
        description="Metrics from Lie group charts, their curvature, and "
                    "Einstein-property scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chart = argparse.ArgumentParser(add_help=False)
    chart.add_argument("--group", required=True)
    chart.add_argument("--chart", choices=("exp", "euler"), default="exp")
    k = argparse.ArgumentParser(add_help=False)
    k.add_argument("--k", type=_k_value, default="auto")
    verdict = argparse.ArgumentParser(add_help=False)
    verdict.add_argument("--samples", type=_positive(int), default=20)
    verdict.add_argument("--tol", type=_positive(float), default=1e-6)
    verdict.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)

    p = sub.add_parser("metric", parents=[chart, k],
                       help="evaluate the metric at one chart point")
    p.add_argument("--point", required=True, type=_csv_floats)
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")

    p = sub.add_parser("curvature", parents=[chart, k],
                       help="curvature bundle at one chart point")
    p.add_argument("--point", required=True, type=_csv_floats)

    sub.add_parser("einstein", parents=[chart, verdict, k],
                   help="Einstein check for one group")

    p = sub.add_parser("scan", parents=[verdict, k],
                       help="conjecture scan over several groups")
    p.add_argument("--groups", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("sphere", parents=[verdict],
                       help="pullback metric on the unit sphere")
    p.add_argument("--dim", type=int, required=True,
                   help="ambient dimension N of S^{N-1}")
    p.add_argument("--point", type=_csv_floats, default=None)
    p.add_argument("--einstein", action="store_true")

    return parser.parse_args(_join_point_values(argv))


def _metric_payload(name, chart, coords, k, mt) -> dict:
    return {
        "group": name,
        "chart": chart,
        "point": [float(x) for x in coords],
        "k": k,
        "condition": mt.condition,
        "g": [[float(v) for v in row] for row in mt.g],
        "g_inv": [[float(v) for v in row] for row in mt.g_inv],
    }


def _print_matrix(label, m):
    print(label)
    for row in m:
        print("  " + "  ".join(f"{v: .12f}" for v in row))


def _cmd_metric(args) -> int:
    spec = parse_group_name(args.group)
    cfg = MetricConfig(group=spec, chart=args.chart, k=args.k)
    mt = metric(cfg, ChartPoint(args.chart, args.point, spec))
    payload = _metric_payload(spec.name, args.chart, args.point, cfg.resolve_k(), mt)
    if args.format == "json":
        sys.stdout.write(dumps_json(payload))
    elif args.format == "csv":
        for row in mt.g:
            print(",".join(format(v, ".17g") for v in row))
    else:
        _print_matrix(f"g ({spec.name}, {args.chart} chart):", mt.g)
        _print_matrix("g_inv:", mt.g_inv)
        print(f"condition: {mt.condition:.3e}")
    return 0


def _cmd_curvature(args) -> int:
    spec = parse_group_name(args.group)
    k = resolve_k(args.k)
    bundle = riemann_ricci(metric_field(spec, args.chart, k), args.point)
    d = spec.dim
    _print_matrix("ricci:", bundle.ricci)
    print(f"scalar: {bundle.scalar:.10f}")
    print(f"lambda (R / 2d): {bundle.scalar / (2 * d):.10f}")
    return 0


def _write_verdict(head: dict, args, v) -> int:
    """Print a verdict as JSON after its ``head`` keys and the request's samples and
    tolerance; exit 0 on pass, 1 on fail."""
    sys.stdout.write(dumps_json({**head, "samples": args.samples, "tolerance": args.tol,
                                 **verdict_dict(v)}))
    return 0 if v.passed else 1


def _cmd_einstein(args) -> int:
    spec = parse_group_name(args.group)
    field = metric_field(spec, args.chart, resolve_k(args.k))
    return _write_verdict({"group": spec.name, "chart": args.chart}, args,
                          verdict(field, args.samples, args.tol, args.seed))


def _cmd_scan(args) -> int:
    names = tuple(s.strip() for s in args.groups.split(",") if s.strip())
    if not names:
        raise InvalidInputError(f"--groups {args.groups!r} names no group")
    cfg = ScanConfig(groups=names, samples=args.samples, tolerance=args.tol,
                     seed=args.seed, k=args.k)
    report = run_scan(cfg)
    payload = emit_report(report.to_dict(), args.format)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"lieforge: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(payload)
    return 0 if report.passed else 1


def _cmd_sphere(args) -> int:
    if args.einstein and args.point is not None:
        raise InvalidInputError("sphere takes --point or --einstein, not both")
    if args.einstein:
        return _write_verdict({"sphere": f"S{args.dim - 1}"}, args,
                              sphere_einstein_check(args.dim, args.samples, args.tol, args.seed))
    if args.point is None:
        raise LieForgeError("sphere needs --point unless --einstein is given")
    mt = pullback_metric(args.dim, args.point)
    _print_matrix(f"pullback metric on S{args.dim - 1}:", mt.g)
    return 0


_COMMANDS = {
    "metric": _cmd_metric,
    "curvature": _cmd_curvature,
    "einstein": _cmd_einstein,
    "scan": _cmd_scan,
    "sphere": _cmd_sphere,
}


def main(argv=None) -> int:
    args = parse_cli(sys.argv[1:] if argv is None else argv)
    try:
        # huge coordinates overflow to inf or nan, which the finiteness and
        # domain checks turn into errors; numpy's warnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore"):
            code = _COMMANDS[args.command](args)
    except LieForgeError as exc:
        print(f"lieforge: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
