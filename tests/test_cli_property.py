"""Property tests: every point query and verdict on the CLI ends in exit
0, 1 or 2.

Point queries are drawn over the `metric`, `curvature` and `sphere --point`
commands with valid and invalid groups, charts, dimensions, coordinate lists
and k; verdicts over `einstein`, `scan` and `sphere --einstein` with valid
and invalid groups, seeds, sample counts and tolerances.  Sizes stay small:
groups up to d = 8, spheres up to S^5, and at most 3 samples per verdict.
"""

from hypothesis import given, settings, strategies as st

from lieforge import cli

DIMS = {"su2": 3, "so3": 3, "sp1": 3, "su3": 8, "so4": 6}
COORD = st.floats(-3.5, 3.5)
VALUE_TEXT = st.one_of(
    COORD.map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "", "x", "0", "-0.3"]),
)
K = st.one_of(
    st.just([]),
    st.sampled_from(["auto", "1", "2.5", "1e-300", "1e300", "0", "-1", "nan", "inf", "1e400", "x", ""])
    .map(lambda k: ["--k", k]),
    st.floats(allow_nan=True, allow_infinity=True).map(lambda k: ["--k", repr(k)]),
)


@st.composite
def point_text(draw, dim):
    """1 to 8 values; half the time clean coordinates, often ``dim`` of them."""
    n = draw(st.one_of(st.just(dim), st.integers(1, 8)))
    values = draw(st.one_of(st.lists(COORD.map(repr), min_size=n, max_size=n),
                            st.lists(VALUE_TEXT, min_size=n, max_size=n)))
    return ",".join(values)


@st.composite
def point_queries(draw):
    command = draw(st.sampled_from(["metric", "curvature", "sphere"]))
    if command == "sphere":
        n_ambient = draw(st.integers(-3, 7))
        return ["sphere", "--dim", str(n_ambient),
                "--point", draw(point_text(max(n_ambient - 1, 1)))]
    group = draw(st.sampled_from(sorted(DIMS)))
    return ([command, "--group", group, "--chart", draw(st.sampled_from(["exp", "euler"])),
             "--point", draw(point_text(DIMS[group]))] + draw(K))


SEED = st.one_of(st.integers(-3, 3).map(str), st.sampled_from([str(2**70), str(-2**70)]),
                 st.text(max_size=4))
# no large valid count: a verdict's memory grows with its samples
SAMPLES = st.one_of(st.integers(1, 3).map(str),
                    st.sampled_from(["0", "-1", "x", "", "nan", "1.5", "1e9"]))
# the verdicts' usual tolerances are listed twice, so they make half the draws
TOL = st.one_of(st.sampled_from(["1e-6", "1e-3"]), st.sampled_from(["1e-6", "1e-3"]),
                st.floats(allow_nan=True, allow_infinity=True).map(repr), st.text(max_size=4))


@st.composite
def verdicts(draw):
    command = draw(st.sampled_from(["einstein", "scan", "sphere"]))
    if command == "einstein":
        argv = ["einstein", "--group", draw(st.sampled_from(["su2", "so3", "sp1", "so4", "e8", "su0"])),
                "--chart", draw(st.sampled_from(["exp", "euler"]))]
    elif command == "scan":
        names = draw(st.lists(st.sampled_from(["su2", "so3", "sp1", "x", ""]), max_size=3))
        argv = ["scan", "--groups", ",".join(names)]
    else:
        argv = ["sphere", "--dim", str(draw(st.integers(-2, 6))), "--einstein"]
    return argv + ["--seed", draw(SEED), "--samples", draw(SAMPLES), "--tol", draw(TOL)]


def exit_code(argv):
    """Exit status of one CLI call, whether it returns or raises SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=200, derandomize=True, deadline=None)
@given(point_queries())
def test_point_queries_exit_0_1_or_2(argv):
    assert exit_code(argv) in (0, 1, 2), argv


@settings(max_examples=150, derandomize=True, deadline=None)
@given(verdicts())
def test_verdicts_exit_0_1_or_2(argv):
    assert exit_code(argv) in (0, 1, 2), argv
