#!/usr/bin/env python3
"""Regenerate, or check, the stored reference traces in tests/data/.

* golden_scalar_trace.csv: the scalar loop of ``golden_config``, compared
  byte for byte by the test suite;
* reference_<kind>_trace.csv: one short attacked run per other plant class
  (``reference_configs``), compared column by column within 1e-12 of each
  column's scale.

    python scripts/make_golden_trace.py          # rewrite the files
    python scripts/make_golden_trace.py --check  # compare, write nothing there

Rewriting is only needed when the trace format itself changes; bump
TRACE_SCHEMA_VERSION and rerun this, then eyeball the diff before
committing.  ``--check`` exports each trace into a temporary directory and
prints, per file, whether it is byte-identical to the stored one, and for a
file that differs, each differing column with its largest absolute change
relative to the stored column's largest magnitude; it exits 1 if any file
differs or is missing.
"""
import argparse
import filecmp
import math
import pathlib
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from test_harness import golden_config, reference_configs  # noqa: E402

from dynwatermark.harness import export_trace, run_scenario  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"


def _columns(path: pathlib.Path) -> tuple[str, dict[str, list[str]]]:
    """(metadata line, {column name: cell texts}) of an exported trace."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return lines[0], {name: [r[j] for r in rows] for j, name in enumerate(header)}


def column_deltas(fresh: pathlib.Path, stored: pathlib.Path) -> list[tuple[str, float]]:
    """(column, max|delta| / max|stored column|) for each column whose text
    differs; a column missing from one file, or blank on different rows,
    scores inf, and so does a changed metadata line."""
    meta_f, got = _columns(fresh)
    meta_s, ref = _columns(stored)
    out = [("metadata", math.inf)] if meta_f != meta_s else []
    for name in list(ref) + [n for n in got if n not in ref]:
        a, b = got.get(name), ref.get(name)
        if a == b:
            continue
        if a is None or b is None or [v == "" for v in a] != [v == "" for v in b]:
            out.append((name, math.inf))
            continue
        x = np.array([float(v) for v in a if v])
        y = np.array([float(v) for v in b if v])
        scale = float(np.max(np.abs(y), initial=0.0))
        delta = float(np.max(np.abs(x - y), initial=0.0))
        out.append((name, delta / scale if scale else math.inf))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare fresh exports with tests/data/ instead of rewriting it",
    )
    args = parser.parse_args(argv)
    targets = {"golden_scalar_trace.csv": golden_config()}
    for kind, cfg in reference_configs().items():
        targets[f"reference_{kind}_trace.csv"] = cfg
    if not args.check:
        DATA.mkdir(exist_ok=True)
        for name, cfg in targets.items():
            export_trace(run_scenario(cfg), DATA / name)
            print(f"wrote {DATA / name}")
        return 0
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in targets.items():
            fresh = pathlib.Path(tmp) / name
            export_trace(run_scenario(cfg), fresh)
            stored = DATA / name
            if not stored.is_file():
                verdict = "missing"
            elif filecmp.cmp(fresh, stored, shallow=False):
                verdict = "identical"
            else:
                verdict = "differs"
            differing += verdict != "identical"
            print(f"{name}: {verdict}")
            if verdict == "differs":
                for column, rel in column_deltas(fresh, stored):
                    print(f"  {column} max|delta|/max|column| = {rel:.3g}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
