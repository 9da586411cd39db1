"""The benchmark's workloads, their correctness checks and the traced layer
boundaries.

Every workload is one closed-loop caller in one process: each command or
seed starts only after the previous one has finished.  CLI workloads call
``dynwatermark.cli.main`` in-process, as the ``dynwatermark`` command does.
The package receives only scenario configs and seeds derived from the
workload seed.

Layers are the package's modules.  Their spans come from rebinding public
functions at runtime (see :func:`instrument`); nothing under ``src/`` is
changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from dynwatermark import cli, detect, harness, scenario
from dynwatermark.harness import trace_equal

from spans import Patches, Recorder, totals, wrap

SHIPPED = (
    "armax_replay",
    "arx_additive",
    "mimo_replay",
    "partial_noise_sim",
    "scalar_honest",
)

# name -> (scenario files, CLI commands per iteration; None for the sweep)
WORKLOADS = {
    "mimo-run": (("mimo_replay",), ("run",)),
    "partial-run-report": (("partial_noise_sim",), ("run", "report")),
    "scalar-trace-io": (("scalar_honest",), ("run", "report", "detect")),
    "sweep-5class": (SHIPPED, None),
}

# Seeds per class in one sweep iteration, as in AC03-AC05.
SWEEP_SEEDS = 20
# AC-style short horizon.  The partial class gets 50 more steps: its Kalman
# burn-in drops 50 residuals, and 4,001 steps would then hold only one
# complete 2,000-step window.
SWEEP_HORIZON = {"partial_noise_sim": 4051}
SWEEP_DEFAULT_HORIZON = 4001
# Per class and iteration, at least this share of attacked seeds must alarm
# after onset (AC03-AC05 ask 18 of 20, AC08 0.9 of eligible runs).
SWEEP_MIN_DETECT = 0.9

# Bound before any rebinding: the checks re-read traces with these.
_load_scenario = scenario.load_scenario
_import_trace = harness.import_trace

HARNESS_LAYERS = {
    "calibrate_detector": "detect.calibrate",
    "run_scenario": "harness.run_scenario",
    "oracle_metrics": "harness.oracle",
    "export_trace": "harness.export",
    "import_trace": "harness.import",
    "stat_series": "harness.stat_series",
}


def _run_counts(args, kwargs, trace):
    return {"steps": trace.horizon, "windows": len(trace.windows)}


def _oracle_counts(args, kwargs, report):
    return {"steps": report.horizon}


def _export_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _import_counts(args, kwargs, trace):
    return {"bytes": os.path.getsize(args[0])}


def _threshold_counts(args, kwargs, th):
    """Computed, not measured: random numbers the Monte-Carlo null draws.

    Coupled scalar and decoupled nulls draw an excitation and a noise
    sample per step; the matrix null draws m excitation and n noise
    samples per step.
    """
    if th.method != "mc":
        return {"mc_windows": 0, "draws": 0}
    l, null = args[1], args[3]
    per_step = sum(null.gain.shape) if null.mode == "matrix" else 2
    return {"mc_windows": th.n_cal, "draws": th.n_cal * l * per_step}


def instrument(rec: Recorder) -> Patches:
    """Rebind the public functions the CLI and the sweep call, so each call
    records a span while ``rec.tracing`` is on and leaves its result in
    ``rec.captured`` always."""
    patches = Patches()
    counts = {
        "run_scenario": _run_counts,
        "oracle_metrics": _oracle_counts,
        "export_trace": _export_counts,
        "import_trace": _import_counts,
    }
    for attr, name in HARNESS_LAYERS.items():
        fn = wrap(rec, name, getattr(harness, attr), counts.get(attr), capture=attr)
        patches.set(harness, attr, fn)
        patches.set(cli, attr, fn)
    patches.set(cli, "load_scenario", wrap(rec, "scenario.load", cli.load_scenario))
    patches.set(
        detect,
        "calibrate_threshold",
        wrap(
            rec,
            lambda args, kwargs: f"detect.calibrate.{args[0]}",
            detect.calibrate_threshold,
            _threshold_counts,
        ),
    )
    patches.set(
        detect.ResidualNull,
        "simulate",
        wrap(rec, "detect.null.simulate", detect.ResidualNull.simulate),
    )
    return patches


# ---------------------------------------------------------------------------
# operation bookkeeping and checks
# ---------------------------------------------------------------------------


class Run:
    """Operations, samples and failures of one benchmark process."""

    def __init__(self, root: Path, workdir: Path, rec: Recorder) -> None:
        self.root = root
        self.workdir = workdir
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.sweep_steps = 0
        self.sweep_s = 0.0

    def op(self, request: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            msg = f"{request}: {'; '.join(problems)}"
            self.failures.append(msg)
            print(f"perfbench: FAILED {msg}", file=sys.stderr)

    def scenario_path(self, name: str) -> str:
        return str(self.root / "scenarios" / f"{name}.yaml")


def _finite_fields(d: dict) -> list[str]:
    return [
        k for k, v in d.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool) and not math.isfinite(v)
    ]


def _threshold_problems(thresholds: dict) -> list[str]:
    bad = []
    for name, th in thresholds.items():
        hi, lo = th["hi"], th.get("lo")
        if not math.isfinite(hi) or (lo is not None and not (math.isfinite(lo) and hi > lo)):
            bad.append(f"threshold {name} has hi={hi}, lo={lo}")
    return bad


def _report_problems(report: dict) -> list[str]:
    return [f"report.{k} is not finite" for k in _finite_fields(report)]


def _command(run: Run, argv: list[str], request: str):
    """One CLI command; returns (exit code or None, stdout, seconds)."""
    run.rec.request = request
    run.rec.captured.clear()
    buf = io.StringIO()
    idx = run.rec.open(f"cli.{argv[0]}")
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        rc = None
    dt = time.perf_counter() - t0
    run.rec.close(idx)
    return rc, buf.getvalue(), dt


# ---------------------------------------------------------------------------
# iterations
# ---------------------------------------------------------------------------


def cli_iteration(run: Run, workload: str, rng) -> float:
    """``run`` and the workload's follow-up commands on one seed; returns
    the summed command time.  Checks run between commands, untimed."""
    (scen_name,), commands = WORKLOADS[workload]
    scen = run.scenario_path(scen_name)
    seed = str(rng.randrange(2**31))
    out = run.workdir / f"{workload}-{seed}"
    wall = 0.0

    request = f"{workload}/run/{seed}"
    rc, _, dt = _command(run, ["run", "--scenario", scen, "--seed", seed, "--out", str(out)], request)
    wall += dt
    run.samples["run_s"].append(dt)
    run_trace = run.rec.captured.get("run_scenario")
    if rc != 0:
        run.op(request, [f"exit code {rc}"])
        shutil.rmtree(out, ignore_errors=True)
        return wall
    report_text = (out / "report.json").read_text(encoding="utf-8")
    run_report = json.loads(report_text)
    problems = _report_problems(run_report)
    problems += _threshold_problems(json.loads((out / "thresholds.json").read_text(encoding="utf-8")))
    if "report" not in commands:
        imported = _import_trace(out / "trace.csv", _load_scenario(scen))
        if not trace_equal(run_trace, imported):
            problems.append("exported trace does not import equal")
    run.op(request, problems)

    if "report" in commands:
        request = f"{workload}/report/{seed}"
        rc, _, dt = _command(run, ["report", "--run", str(out)], request)
        wall += dt
        run.samples["report_s"].append(dt)
        if rc != 0:
            problems = [f"exit code {rc}"]
        else:
            problems = []
            if not trace_equal(run_trace, run.rec.captured["import_trace"]):
                problems.append("exported trace does not import equal")
            if (out / "report.json").read_text(encoding="utf-8") != report_text:
                problems.append("report.json differs from the run's")
            if not (out / "stats.csv").is_file():
                problems.append("stats.csv not written")
        run.op(request, problems)

    if "detect" in commands:
        request = f"{workload}/detect/{seed}"
        argv = ["detect", "--trace", str(out / "trace.csv"), "--scenario", scen, "--seed", seed]
        rc, stdout, dt = _command(run, argv, request)
        wall += dt
        run.samples["detect_s"].append(dt)
        if rc != 0:
            problems = [f"exit code {rc}"]
        else:
            result = json.loads(stdout)
            problems = _threshold_problems(result["thresholds"])
            if result["n_alarms"] != run_report["n_alarms"]:
                problems.append(
                    f"detect found {result['n_alarms']} alarms, run {run_report['n_alarms']}"
                )
            if not trace_equal(run_trace, run.rec.captured["import_trace"]):
                problems.append("exported trace does not import equal")
        run.op(request, problems)

    shutil.rmtree(out, ignore_errors=True)
    return wall


def sweep_configs(run: Run) -> dict:
    """Each shipped scenario cut to an AC-style sweep: short horizon,
    alpha 0.01, n_cal 2,000, an attack from mid-horizon (the honest scalar
    scenario gets the replay attack of AC05)."""
    configs = {}
    for name in SHIPPED:
        d = _load_scenario(run.scenario_path(name)).to_dict()
        horizon = SWEEP_HORIZON.get(name, SWEEP_DEFAULT_HORIZON)
        d["horizon"] = horizon
        d["detector"].update(alpha=0.01, n_cal=2000)
        if d["attack"]["kind"] == "honest":
            d["attack"] = {"kind": "replay", "record_len": 500}
        d["attack"]["onset"] = (horizon - 1) // 2
        configs[name] = scenario.scenario_from_dict(d)
    return configs


def sweep_iteration(run: Run, configs: dict, rng) -> float:
    """Per class: calibrate once, then SWEEP_SEEDS seeds of
    ``run_scenario(cfg, seed, thresholds=th)`` plus ``oracle_metrics``."""
    wall = 0.0
    for cls, cfg in configs.items():
        cal_seed = rng.randrange(2**31)
        cal_request = f"sweep-5class/calibrate/{cls}/{cal_seed}"
        run.rec.request = cal_request
        t0 = time.perf_counter()
        try:
            thresholds = harness.calibrate_detector(cfg, seed=cal_seed)
        except Exception:
            traceback.print_exc()
            thresholds = None
        wall += time.perf_counter() - t0
        if thresholds is None:
            run.op(cal_request, ["calibration raised"])
            continue
        detected = 0
        for _ in range(SWEEP_SEEDS):
            seed = rng.randrange(2**31)
            request = f"sweep-5class/{cls}/{seed}"
            run.rec.request = request
            idx = run.rec.open("sweep.seed")
            t0 = time.perf_counter()
            try:
                report = harness.oracle_metrics(
                    harness.run_scenario(cfg, seed=seed, thresholds=thresholds)
                )
            except Exception:
                traceback.print_exc()
                report = None
            dt = time.perf_counter() - t0
            run.rec.close(idx)
            wall += dt
            run.samples["seed_ms"].append(1000.0 * dt)
            run.sweep_s += dt
            run.sweep_steps += cfg.horizon
            if report is None:
                run.op(request, ["raised"])
                continue
            detected += report.detection_delay is not None
            run.op(request, _report_problems(report.to_dict()))
        # the class's thresholds are what the detection rate checks
        problems = _threshold_problems({k: vars(th) for k, th in thresholds.items()})
        if detected < SWEEP_MIN_DETECT * SWEEP_SEEDS:
            problems.append(f"only {detected}/{SWEEP_SEEDS} attacked seeds alarmed after onset")
        run.op(cal_request, problems)
    return wall


def baseline_table(run: Run, rng) -> dict:
    """ROADMAP Baseline table: every shipped scenario at its shipped horizon,
    timed per layer through the same spans (tracing must be on)."""
    rows = {}
    for name in SHIPPED:
        cfg = _load_scenario(run.scenario_path(name))
        seed = rng.randrange(2**31)
        request = f"baseline/{name}/{seed}"
        run.rec.request = request
        path = run.workdir / f"baseline-{name}.csv"
        problems = []
        try:
            thresholds = harness.calibrate_detector(cfg, seed=seed)
            trace = harness.run_scenario(cfg, seed=seed, thresholds=thresholds)
            problems += _report_problems(harness.oracle_metrics(trace).to_dict())
            harness.export_trace(trace, path)
            if not trace_equal(trace, harness.import_trace(path, cfg)):
                problems.append("exported trace does not import equal")
        except Exception:
            traceback.print_exc()
            problems.append("raised")
        path.unlink(missing_ok=True)
        run.op(request, problems)
        incl, _, _ = totals(run.rec.spans, lambda r, req=request: r == req)
        sim = incl["harness.run_scenario"]
        rows[name] = {
            "T": cfg.horizon,
            "calibrate_s": incl["detect.calibrate"],
            "sim_detect_s": sim,
            "us_per_step": 1e6 * sim / cfg.horizon,
            "oracle_s": incl["harness.oracle"],
            "export_s": incl["harness.export"],
            "import_s": incl["harness.import"],
        }
    return rows


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(rec: Recorder, n_iter: int, traced_wall: float, untraced_wall: float) -> dict:
    """Layer times and counts per traced iteration (means, so they add up),
    from the workload's own spans."""
    incl, self_t, counts = totals(
        rec.spans, lambda r: r is not None and not r.startswith("baseline/")
    )
    per = 1.0 / n_iter
    m: dict[str, float] = {}

    m["scenario.body_load_s"] = incl["scenario.load"] * per
    m["detect.calibrate_s"] = incl["detect.calibrate"] * per
    kinds = sorted(
        name.rsplit(".", 1)[1] for name in incl
        if name.startswith("detect.calibrate.") and name.count(".") == 2
    )
    mc_windows = draws = mc_time = 0.0
    for kind in kinds:
        name = f"detect.calibrate.{kind}"
        c = counts[name]
        m[f"{name}_s"] = incl[name] * per
        m[f"{name}.mc_windows"] = c["mc_windows"] * per
        m[f"{name}.draws"] = c["draws"] * per
        if c["mc_windows"]:
            m[f"{name}.windows_per_s"] = c["mc_windows"] / incl[name]
            mc_windows += c["mc_windows"]
            draws += c["draws"]
            mc_time += incl[name]
    m["detect.calibrate.mc_windows"] = mc_windows * per
    m["detect.calibrate.draws"] = draws * per
    m["detect.calibrate.draw_mb"] = 8 * draws * per / 1e6
    if mc_time:
        m["detect.calibrate.windows_per_s"] = mc_windows / mc_time
        m["detect.calibrate.sample_share"] = incl["detect.null.simulate"] / mc_time

    run_c = counts["harness.run_scenario"]
    m["harness.run_scenario_s"] = self_t["harness.run_scenario"] * per
    m["harness.steps"] = run_c["steps"] * per
    m["harness.windows"] = run_c["windows"] * per
    if run_c["steps"]:
        m["harness.us_per_step"] = 1e6 * self_t["harness.run_scenario"] / run_c["steps"]
    m["harness.oracle_s"] = incl["harness.oracle"] * per
    if counts["harness.oracle"]["steps"]:
        m["harness.oracle.us_per_step"] = (
            1e6 * incl["harness.oracle"] / counts["harness.oracle"]["steps"]
        )
    for io_layer in ("export", "import"):
        name = f"harness.{io_layer}"
        m[f"{name}_s"] = incl[name] * per
        mb = counts[name]["bytes"] / 1e6
        m[f"{name}_mb"] = mb * per
        if incl[name]:
            m[f"{name}_mb_per_s"] = mb / incl[name]
    m["harness.stat_series_s"] = incl["harness.stat_series"] * per
    m["cli.self_s"] = sum(v for k, v in self_t.items() if k.startswith("cli.")) * per
    m["sweep.self_s"] = self_t["sweep.seed"] * per

    accounted = (
        m["cli.self_s"] + m["sweep.self_s"] + m["scenario.body_load_s"]
        + m["detect.calibrate_s"] + m["harness.run_scenario_s"] + m["harness.oracle_s"]
        + m["harness.export_s"] + m["harness.import_s"] + m["harness.stat_series_s"]
    )
    m["trace.wall_s"] = traced_wall
    m["trace.accounted_s"] = accounted
    m["trace.unaccounted_s"] = traced_wall - accounted
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m
