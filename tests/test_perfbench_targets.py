"""The benchmark in perfbench/ times layers by rebinding package functions
by name, and counts work by reading attributes of the package's results; a
renamed or deleted target would fail every benchmark run at start-up, and a
renamed attribute every operation that reads it.  This reads perfbench and
changes nothing in it."""

import pathlib

import numpy as np
import pytest

from dynwatermark import cli, detect, harness

from conftest import make_scenario

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

LAYER_FUNCTIONS = (
    "calibrate_detector",
    "run_scenario",
    "oracle_metrics",
    "export_trace",
    "import_trace",
    "stat_series",
)
TARGETS = (
    [(harness, name) for name in LAYER_FUNCTIONS]
    + [(cli, name) for name in LAYER_FUNCTIONS]
    + [(cli, "load_scenario"), (detect, "calibrate_threshold"),
       (detect.ResidualNull, "simulate")]
)


@pytest.mark.parametrize("owner, name", TARGETS,
                         ids=[f"{o.__name__}.{n}" for o, n in TARGETS])
def test_rebinding_target_exists(owner, name):
    assert callable(getattr(owner, name, None))


def test_instrument_rebinds_and_undo_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    before = {(owner, name): getattr(owner, name) for owner, name in TARGETS}
    patches = workloads.instrument(spans.Recorder())
    try:
        rebound = [t for t, fn in before.items() if getattr(*t) is not fn]
    finally:
        patches.undo()
    assert rebound == list(before)
    assert all(getattr(*t) is fn for t, fn in before.items())


NULLS = {
    "scalar": (detect.ResidualNull(1.5, 0.5, 1.0), 2),
    "matrix": (detect.ResidualNull(np.array([[1.0, 0.0], [0.3, 1.0], [0.2, 0.4]]), 0.5, 1.0),
               3 + 2),
    "decoupled": (detect.ResidualNull(np.array([0.5, 0.2]), 1.0, innovation_var=2.0), 2),
}


@pytest.mark.parametrize("shape", sorted(NULLS))
def test_threshold_counts_read_real_nulls(shape, monkeypatch):
    """perfbench counts the draws of a Monte-Carlo threshold from the null's
    ``mode`` and ``gain``: n_cal*l per excitation and noise sample of a step."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    null, per_step = NULLS[shape]
    args = ("cross_corr", 20, 0.05, null, 400, np.random.default_rng(0))
    th = detect.calibrate_threshold(*args)
    assert workloads._threshold_counts(args, {}, th) == {
        "mc_windows": 400, "draws": 400 * 20 * per_step
    }
    args = ("variance", 20, 0.05, detect.ResidualNull(1.5, 0.5, 1.0))
    th = detect.calibrate_threshold(*args)
    assert workloads._threshold_counts(args, {}, th) == {"mc_windows": 0, "draws": 0}


def test_run_and_oracle_counts_read_a_real_trace_and_report(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    cfg = make_scenario(horizon=1001, detector={"window_len": 100, "alpha": 0.05,
                                                "n_cal": 200})
    trace = harness.run_scenario(cfg)
    report = harness.oracle_metrics(trace)
    # residuals start at t=1, so windows end at t=100, 200, ..., 1000
    assert workloads._run_counts((cfg,), {}, trace) == {"steps": 1001, "windows": 10}
    assert workloads._oracle_counts((trace,), {}, report) == {"steps": 1001}
