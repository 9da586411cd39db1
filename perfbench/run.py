#!/usr/bin/env python3
"""dynwatermark benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload mimo-run --seed 1 --seconds 55 --trace 0

Run from the repository root.  The program under test is ``src/`` and the
shipped ``scenarios/`` of the same checkout; nothing is installed.

``--trace 0`` repeats the workload's iteration for about ``--seconds`` (at
least once) and reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations for the same time, reports the per-layer
metrics of the traced ones; on ``sweep-5class`` it also times the ROADMAP
Baseline table.
Either way a few fresh processes measure set-up (``import dynwatermark``
plus ``load_scenario`` of the workload's files).

Human-readable lines come first.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (environment, samples, every layer metric, the Baseline table, and
the spans of a traced run) is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mimo-run", "partial-run-report", "scalar-trace-io", "sweep-5class")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

# Fresh-process set-up: argv is the src directory, then scenario files.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dynwatermark
t1 = time.perf_counter()
for path in sys.argv[2:]:
    dynwatermark.load_scenario(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""

# BENCHMARK.json lists these; the results file holds every other metric.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "scenario.import_s": "s",
    "scenario.load_s": "s",
    "detect.calibrate_s": "s",
    "detect.calibrate.draws": "count",
    "detect.calibrate.draw_mb": "MB",
    "harness.run_scenario_s": "s",
    "harness.us_per_step": "us",
    "harness.oracle_s": "s",
    "harness.oracle.us_per_step": "us",
    "trace.overhead_s": "s",
}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(scenarios: list[str], env: dict) -> list[dict]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), *scenarios],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment(nproc: int, args) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no commit to name
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = head.stdout.strip() if head.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scenarios").glob("*.yaml")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "blas_threads": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dynwatermark" / "__init__.py").is_file():
        print(f"perfbench: no dynwatermark package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Cap BLAS/OpenMP threads before numpy loads; the set-up processes inherit it.
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    scen_names, commands = workloads.WORKLOADS[args.workload]
    scen_files = [str(ROOT / "scenarios" / f"{name}.yaml") for name in scen_names]
    out_dir = ROOT / ".perfbench"
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    rec = spans.Recorder()
    patches = workloads.instrument(rec)
    run = workloads.Run(ROOT, workdir, rec)
    rng = random.Random(f"{args.workload}/{args.seed}")
    try:
        setup = measure_setup(scen_files, dict(os.environ))
        if commands is None:
            configs = workloads.sweep_configs(run)
            iteration = functools.partial(workloads.sweep_iteration, run, configs, rng)
        else:
            iteration = functools.partial(workloads.cli_iteration, run, args.workload, rng)

        # Start another iteration only while one more, as long as the mean so
        # far, still ends within --seconds, so a run does not overshoot it by
        # most of a long iteration.
        walls, traced_walls = [], []
        start = time.perf_counter()
        while True:
            walls.append(iteration())
            if len(walls) == 1:
                # The high-water mark creeps up with each iteration, so it is
                # taken after the first; how many iterations fit in
                # --seconds depends on the machine's speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            if args.trace:
                rec.tracing = True
                traced_walls.append(iteration())
                rec.tracing = False
            elapsed = time.perf_counter() - start
            if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
                break
        samples = dict(run.samples)
        baseline = None
        if args.trace and commands is None:
            # The all-class workload also times the ROADMAP Baseline table.
            rec.tracing = True
            baseline = workloads.baseline_table(run, rng)
            rec.tracing = False
    finally:
        patches.undo()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(nproc, args)
    setup_s = [s["import_s"] + s["load_s"] for s in setup]
    e2e = {
        "setup_s": quartiles(setup_s),
        "wall_s": quartiles(walls),
    }
    for name in ("run_s", "report_s", "detect_s"):
        if samples.get(name):
            e2e[name] = quartiles(samples[name])
    if run.sweep_s:
        seed_ms = samples["seed_ms"]
        p90 = statistics.quantiles(seed_ms, n=10)[8]
        e2e["sweep_steps_per_s"] = {"value": run.sweep_steps / run.sweep_s, "steps": run.sweep_steps}
        e2e["seed_p50_ms"] = quartiles(seed_ms)
        e2e["seed_p90_ms"] = {"value": p90, "n": len(seed_ms),
                              "beyond": sum(v > p90 for v in seed_ms)}
    e2e["peak_rss_mb"] = {"value": peak_rss_mb}
    e2e["error_rate"] = {"value": run.failed / max(run.attempted, 1),
                         "failed": run.failed, "attempted": run.attempted}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "end_to_end": e2e, "walls": walls, "failures": run.failures}
    if args.trace:
        layers = workloads.layer_metrics(
            rec, len(traced_walls), statistics.fmean(traced_walls), statistics.fmean(walls)
        )
        layers["scenario.import_s"] = statistics.median(s["import_s"] for s in setup)
        layers["scenario.load_s"] = statistics.median(s["load_s"] for s in setup)
        record.update(per_layer=layers, traced_walls=traced_walls, baseline=baseline)
        rec.write(results_dir / f"{tag}-spans.jsonl")
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={nproc} blas_threads={nproc} commit={env['git_commit']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']}")
    print("end-to-end (median [q1, q3] over n):")
    for name, s in e2e.items():
        if "median" in s:
            print(f"  {name:18s} {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")
        else:
            extra = " ".join(f"{k}={v}" for k, v in s.items() if k != "value")
            print(f"  {name:18s} {s['value']:.6g} {extra}")
    if args.trace:
        print("per layer (per traced iteration):")
        for name, value in layers.items():
            print(f"  {name:40s} {value:.6g}")
    if baseline:
        print("baseline table (s; sim+detect also in us/step):")
        print(f"  {'scenario':18s} {'T':>7s} {'calibrate':>9s} {'sim+detect':>10s} "
              f"{'us/step':>7s} {'oracle':>6s} {'export':>6s} {'import':>6s}")
        for name, row in baseline.items():
            print(f"  {name:18s} {row['T']:7d} {row['calibrate_s']:9.3f} {row['sim_detect_s']:10.3f} "
                  f"{row['us_per_step']:7.1f} {row['oracle_s']:6.3f} {row['export_s']:6.3f} "
                  f"{row['import_s']:6.3f}")
    print(f"record written to {(results_dir / f'{tag}.json').relative_to(ROOT)}")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {"setup_s": e2e["setup_s"]["median"], "wall_s": e2e["wall_s"]["median"],
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
