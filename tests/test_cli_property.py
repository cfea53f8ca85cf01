"""Property test: every point query on the CLI ends in exit 0, 1 or 2.

Drawn over the `metric`, `curvature` and `sphere --point` commands with
valid and invalid groups, charts, dimensions, coordinate lists and k.
Sizes stay small: only point queries on groups up to d = 8 are drawn.
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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(point_queries())
def test_point_queries_exit_0_1_or_2(argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv
