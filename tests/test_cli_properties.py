"""Property test: every polynomial command exits 0, 2 or 3, never raises."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from macops.cli import main

SHAPES = st.one_of(
    st.lists(st.integers(1, 4), max_size=4).map(lambda ps: ",".join(map(str, sorted(ps, reverse=True)))),
    st.lists(st.integers(-1, 4), max_size=5).map(lambda ps: ",".join(map(str, ps))),
    st.text(alphabet="0123456789,-+ x.", max_size=8),
    st.text(max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["jpoly", "ppoly", "jack"]),
    shape=SHAPES,
    nvars=st.one_of(st.none(), st.integers(-1, 4)),
    check=st.booleans(),
    fmt=st.sampled_from(["text", "json"]),
)
def test_poly_commands_exit_cleanly(command, shape, nvars, check, fmt):
    argv = [command, "--lambda", shape, "--format", fmt]
    if nvars is not None:
        argv += ["--nvars", str(nvars)]
    if check:
        argv.append("--check")
    out, err = io.StringIO(), io.StringIO()
    # the weight cap refuses every shape above weight 4 before any work
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setenv("MACOPS_MAX_WEIGHT", "4")
        code = main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert not out.getvalue() and err.getvalue()
