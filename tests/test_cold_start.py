"""Cold start: ``import dynwatermark`` loads no scipy, and a command loads
only the scipy modules its filters and thresholds use.

Each check runs in a fresh interpreter, because this test process has
already loaded ``scipy.stats`` itself.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from dynwatermark.scenario import save_scenario

from conftest import make_scenario

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# argv: the src directory, then optionally a scenario file and an output
# directory for `dynwatermark run`.  Prints the scipy modules loaded after the
# import and after the run.
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import dynwatermark
from dynwatermark import cli
out = {"import": scipy_modules()}
if len(sys.argv) > 2:
    with contextlib.redirect_stdout(io.StringIO()):
        out["code"] = cli.main(["run", "--scenario", sys.argv[2], "--out", sys.argv[3]])
    out["run"] = scipy_modules()
print(json.dumps(out))
"""


def child(*argv) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), *map(str, argv)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


SHORT = {"window_len": 500, "alpha": 0.01, "n_cal": 2000}
PLANTS = {
    "mimo": dict(
        plant={"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
               "B": [[1.0, 0.0], [0.2, 1.0]], "sigma_w2": 1.0},
        policy={"kind": "zero"},
        attack={"kind": "replay", "onset": 1000, "record_len": 500},
    ),
    # variance bands, cross-correlation and the nll channel
    "scalar": dict(attack={"kind": "noise_sim", "onset": 1000}),
}
NOT_LOADED = {
    "mimo": {"scipy.stats", "scipy.signal", "scipy.special"},
    "scalar": {"scipy.stats", "scipy.signal"},
}


def test_import_loads_no_scipy():
    assert child()["import"] == []


@pytest.mark.parametrize("kind", sorted(PLANTS))
def test_run_loads_only_the_scipy_it_uses(kind, tmp_path):
    path = tmp_path / "scenario.yaml"
    save_scenario(make_scenario(horizon=2001, detector=SHORT, **PLANTS[kind]), path)
    got = child(path, tmp_path / "out")
    assert got["code"] == 0
    assert got["import"] == []
    assert NOT_LOADED[kind].isdisjoint(got["run"]), got["run"]
    assert (tmp_path / "out" / "trace.csv").is_file()
