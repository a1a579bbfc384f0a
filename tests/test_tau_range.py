"""The tau range as a property: every accepted tau runs without a warning, every other exits 2."""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semidense.cli import main
from semidense.config import MAX_TAU, MIN_TAU
from test_cli import FAST_SIZE

# derandomized and without an example database, so every run draws the same examples
RANGE = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# log-uniform over [MIN_TAU, MAX_TAU], clipped so rounding in exp stays inside
accepted_taus = st.floats(math.log(MIN_TAU), math.log(MAX_TAU)).map(
    lambda x: min(max(math.exp(x), MIN_TAU), MAX_TAU)
)


def _pipeline(tau: float, out: Path) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(["pipeline", "--out", str(out), "--tau", repr(tau), *FAST_SIZE])
    return rc, stderr.getvalue()


@RANGE
@given(tau=accepted_taus)
@example(tau=MIN_TAU)
@example(tau=MAX_TAU)
def test_accepted_tau_runs_without_a_warning(tau):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = _pipeline(tau, Path(tmp) / "run")
    assert rc in (0, 3), (tau, err)
    assert err == "", (tau, err)


@pytest.mark.parametrize(
    "tau",
    [np.nextafter(MIN_TAU, 0.0), np.nextafter(MAX_TAU, np.inf), math.inf, math.nan],
    ids=["below-min", "above-max", "inf", "nan"],
)
def test_rejected_tau_exits_2_with_one_line(tmp_path, tau):
    rc, err = _pipeline(float(tau), tmp_path / "run")
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "tau" in err
    assert not (tmp_path / "run").exists()
