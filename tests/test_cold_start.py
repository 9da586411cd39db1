"""Cold start: ``import dynwatermark`` loads no scipy, and a command loads
only the scipy modules its thresholds use.  No command loads
``scipy.signal`` or ``scipy.stats``; the residual filters are numpy and
Python floats, and the chi-square quantile is ``scipy.special``'s.

Each check runs in a fresh interpreter, because this test process has
already loaded ``scipy.stats`` itself.
"""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

from dynwatermark.scenario import save_scenario

from conftest import make_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"

# argv: the src directory, then a JSON list of CLI argument lists.
# Runs the commands in order and prints the scipy modules loaded after the
# import and after each command, with each command's exit code.
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import dynwatermark
from dynwatermark import cli
out = {"import": scipy_modules()}
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        out[argv[0] + "_code"] = cli.main(argv)
    out[argv[0]] = scipy_modules()
print(json.dumps(out))
"""


def child(*commands) -> dict:
    argv = json.dumps([[str(a) for a in cmd] for cmd in commands])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), argv],
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
# no shipped scenario loads scipy.signal or scipy.stats; these two load no
# scipy at all
NO_SCIPY = {"mimo_replay", "partial_noise_sim"}


def test_import_loads_no_scipy():
    assert child()["import"] == []


@pytest.mark.parametrize("kind", sorted(PLANTS))
def test_run_loads_only_the_scipy_it_uses(kind, tmp_path):
    path = tmp_path / "scenario.yaml"
    save_scenario(make_scenario(horizon=2001, detector=SHORT, **PLANTS[kind]), path)
    got = child(["run", "--scenario", path, "--out", tmp_path / "out"])
    assert got["run_code"] == 0
    assert got["import"] == []
    assert NOT_LOADED[kind].isdisjoint(got["run"]), got["run"]
    assert (tmp_path / "out" / "trace.csv").is_file()


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.yaml")))
def test_shipped_commands_load_no_scipy_signal_or_stats(name, tmp_path):
    """run, report and detect in one fresh process: the modules loaded after
    the last command bound what any one of them loaded."""
    scenario, out = SCENARIOS / f"{name}.yaml", tmp_path / "out"
    got = child(
        ["run", "--scenario", scenario, "--out", out],
        ["report", "--run", out],
        ["detect", "--trace", out / "trace.csv", "--scenario", scenario],
    )
    assert [got[f"{cmd}_code"] for cmd in ("run", "report", "detect")] == [0, 0, 0]
    assert {"scipy.signal", "scipy.stats"}.isdisjoint(got["detect"]), got["detect"]
    if name in NO_SCIPY:
        assert got["detect"] == []


def scipy_imports(path: pathlib.Path):
    """The scipy modules a source file imports, at any depth of its AST."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "scipy":
                yield from (f"scipy.{alias.name}" for alias in node.names)
            else:
                yield node.module


@pytest.mark.parametrize(
    "path", sorted((SRC / "dynwatermark").rglob("*.py")), ids=lambda p: p.name
)
def test_source_imports_no_scipy_but_special(path):
    """Covers paths no shipped scenario reaches, such as a partial plant with
    more than one state or an ARMAX plant with a one-tap B."""
    used = {m for m in scipy_imports(path) if m == "scipy" or m.startswith("scipy.")}
    assert used <= {"scipy.special"}, used
