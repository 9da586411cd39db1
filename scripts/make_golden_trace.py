#!/usr/bin/env python3
"""Regenerate the stored reference traces in tests/data/.

* golden_scalar_trace.csv: the scalar loop of ``golden_config``, compared
  byte for byte by the test suite;
* reference_<kind>_trace.csv: one short attacked run per other plant class
  (``reference_configs``), compared column by column within 1e-12 of each
  column's scale.

Only needed when the trace format itself changes; bump TRACE_SCHEMA_VERSION
and rerun this, then eyeball the diff before committing.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from test_harness import golden_config, reference_configs  # noqa: E402

from dynwatermark.harness import export_trace, run_scenario  # noqa: E402

out = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
out.mkdir(exist_ok=True)
targets = {"golden_scalar_trace.csv": golden_config()}
for kind, cfg in reference_configs().items():
    targets[f"reference_{kind}_trace.csv"] = cfg
for name, cfg in targets.items():
    path = out / name
    export_trace(run_scenario(cfg), path)
    print(f"wrote {path}")
