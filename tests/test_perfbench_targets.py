"""The benchmark in perfbench/ times layers by rebinding package functions
by name; a renamed or deleted target would fail every benchmark run at
start-up.  This reads perfbench and changes nothing in it."""

import pathlib

import pytest

from dynwatermark import cli, detect, harness

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
