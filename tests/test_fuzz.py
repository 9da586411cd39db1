"""Fuzzing of the load-time contract.

Every malformed scenario or trace file must fail as a ``ScenarioError`` or
``ValueError``, which the CLI prints as exactly one ``error:`` line with
exit code 1.  Mutations start from the shipped scenarios and from a small
exported trace; example counts are fixed and derandomized so the suite's
wall time stays bounded.
"""

import contextlib
import copy
import io
import pathlib
import tempfile
import warnings

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dynwatermark.cli import main
from dynwatermark.harness import export_trace, import_trace, run_scenario
from dynwatermark.scenario import scenario_from_dict

from conftest import make_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED = [yaml.safe_load(p.read_text()) for p in sorted((ROOT / "scenarios").glob("*.yaml"))]

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.text(max_size=4),
    st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=3),
    st.lists(st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=3), max_size=3),
    st.lists(st.text(max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def run_cli(argv) -> tuple[int, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    return code, err.getvalue().splitlines()


def assert_one_error_line(code, lines):
    assert code in (0, 1)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@st.composite
def mutated_scenarios(draw):
    d = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        path = draw(st.sampled_from(list(_paths(d))))
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()) and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(junk)
        if not isinstance(d, dict) or not list(_paths(d)):
            break
    return d


@given(d=mutated_scenarios())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_scenario_loader_fails_only_with_scenario_errors(d):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            scenario_from_dict(d)
        except ValueError:  # ScenarioError included
            pass
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(d))
        assert_one_error_line(*run_cli(["validate", "--scenario", str(path)]))


def _small_trace(kind):
    det = {"window_len": 20, "alpha": 0.05, "n_cal": 400}
    plants = {
        "scalar": ({"kind": "scalar", "a": 0.5, "b": 1.0, "sigma_w2": 1.0},
                   {"kind": "linear", "f": -0.3}),
        "mimo": ({"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
                  "B": [[1.0, 0.0], [0.2, 1.0]], "sigma_w2": 1.0}, {"kind": "zero"}),
    }
    plant, policy = plants[kind]
    cfg = make_scenario(horizon=60, plant=plant, policy=policy, detector=det)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "trace.csv"
        export_trace(run_scenario(cfg), path)
        return cfg, path.read_text().splitlines()


TRACES = {kind: _small_trace(kind) for kind in ("scalar", "mimo")}

cell_junk = st.one_of(
    st.sampled_from(["", "nan", "inf", "-1", "1e400", "x", "0x1", "1,2", "=", " "]),
    st.text(max_size=4),
)


@st.composite
def mutated_traces(draw):
    kind = draw(st.sampled_from(sorted(TRACES)))
    cfg, lines = TRACES[kind]
    lines = list(lines)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        op = draw(st.sampled_from(["truncate", "cell", "drop_line", "meta", "header"]))
        if op == "drop_line":
            del lines[i]
            if not lines:
                break
            continue
        if op == "meta":
            i = 0
        elif op == "header":
            i = min(1, len(lines) - 1)
        sep = " " if i == 0 else ","
        fields = lines[i].split(sep)
        j = draw(st.integers(min_value=0, max_value=len(fields) - 1))
        if op == "truncate":
            fields = fields[:j]
        elif i == 0 and draw(st.booleans()):
            key = fields[j].split("=", 1)[0]
            fields[j] = key + "=" + draw(cell_junk)
        else:
            fields[j] = draw(cell_junk)
        lines[i] = sep.join(fields)
    return cfg, "\n".join(lines) + "\n"


@given(case=mutated_traces())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_trace_import_fails_only_with_value_errors(case):
    cfg, text = case
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = pathlib.Path(tmp) / "trace.csv"
        trace_path.write_text(text)
        try:
            import_trace(trace_path, cfg)
        except ValueError:
            pass
        scen_path = pathlib.Path(tmp) / "scenario.yaml"
        scen_path.write_text(yaml.safe_dump(cfg.to_dict()))
        argv = ["detect", "--trace", str(trace_path), "--scenario", str(scen_path)]
        assert_one_error_line(*run_cli(argv))
