"""Command-line front end.

Subcommands: ``run`` (simulate + detect, write a run directory),
``calibrate`` (print thresholds), ``detect`` (re-run detection on an
exported trace), ``report`` (summarize a run directory), ``validate``
(check a scenario file).  Exit codes: 0 ok, 1 operational error, 2 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .harness import (
    calibrate_detector,
    export_trace,
    import_trace,
    oracle_metrics,
    run_scenario,
    stat_series,
)
from .scenario import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_sha256,
)

__all__ = ["main"]


def _thresholds_dict(thresholds) -> dict:
    return {name: dataclasses.asdict(th) for name, th in thresholds.items()}


def _require_channels(source, channels, thresholds) -> None:
    """Refuse to judge ``channels`` that ``source`` holds no thresholds for."""
    missing = sorted(set(channels) - set(thresholds))
    if missing:
        raise ValueError(f"{source} lacks channels {missing}")


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else config.seed
    out = args.out
    if out is None:
        out = os.environ.get("DYNWATERMARK_OUT")
    if out is None:
        out = os.path.join("runs", f"{config.name}-{seed}")
    trace = run_scenario(config, seed=seed)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_trace(trace, out_dir / "trace.csv")
    save_scenario(config, out_dir / "scenario.yaml")
    report = oracle_metrics(trace)
    (out_dir / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    # Hash the scenario as `report` will read it back from the run directory.
    provenance = {
        "scenario_sha256": scenario_sha256(load_scenario(out_dir / "scenario.yaml")),
        "calibration_seed": seed,
    }
    stored = {
        name: {**th, **provenance} for name, th in _thresholds_dict(trace.thresholds).items()
    }
    (out_dir / "thresholds.json").write_text(
        json.dumps(stored, indent=2) + "\n", encoding="utf-8"
    )
    print(f"run written to {out_dir}")
    print(report.to_json())
    return 0


def _cmd_calibrate(args) -> int:
    config = load_scenario(args.scenario)
    if args.alpha is not None or args.ncal is not None:
        # route overrides through the parser so the alpha/n_cal coupling
        # is re-validated
        d = config.to_dict()
        if args.alpha is not None:
            d["detector"]["alpha"] = args.alpha
        if args.ncal is not None:
            d["detector"]["n_cal"] = args.ncal
        config = scenario_from_dict(d)
    thresholds = calibrate_detector(config, seed=args.seed)
    print(json.dumps(_thresholds_dict(thresholds), indent=2))
    return 0


def _cmd_detect(args) -> int:
    config = load_scenario(args.scenario)
    trace = import_trace(args.trace, config)
    seed = args.seed if args.seed is not None else trace.seed
    thresholds = calibrate_detector(config, seed=seed)
    channels = trace.channel_names
    _require_channels(args.scenario, channels, thresholds)
    series = {ch: stat_series(trace, ch) for ch in channels}
    flags = {ch: thresholds[ch].exceeded(v, channel=ch, end_t=t) for ch, (t, v) in series.items()}
    alarms = [
        {"index": i, "end_t": end, "channels": [ch for ch in channels if flags[ch][i]]}
        for i, end in enumerate(trace.window_ends.tolist()) if any(flags[ch][i] for ch in channels)
    ]
    out = {
        "n_windows": len(trace.window_ends),
        "n_alarms": len(alarms),
        "first_alarm": alarms[0]["end_t"] if alarms else None,
        "alarms": alarms,
        "thresholds": _thresholds_dict(thresholds),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    scen_path = run_dir / "scenario.yaml"
    trace_path = run_dir / "trace.csv"
    if not scen_path.is_file() or not trace_path.is_file():
        raise FileNotFoundError(f"{run_dir} is not a run directory")
    config = load_scenario(scen_path)
    trace = import_trace(trace_path, config)
    channels = trace.channel_names
    bands = _threshold_bands(run_dir, config, trace.seed, channels) if channels else {}
    report = oracle_metrics(trace)
    (run_dir / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    if channels:
        header = ["end_t"] + channels
        band_cells = []
        for ch in channels:
            hi, lo = bands[ch]
            header += [f"{ch}_hi", f"{ch}_lo"]
            band_cells += [repr(hi), "" if lo is None else repr(lo)]
        lines = [",".join(header)]
        series = [stat_series(trace, ch)[1].tolist() for ch in channels]
        for end, *values in zip(trace.window_ends.tolist(), *series):
            lines.append(",".join([str(end), *map(repr, values), *band_cells]))
        (run_dir / "stats.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(report.to_json())
    return 0


def _threshold_bands(run_dir: Path, config, seed, channels) -> dict:
    """(hi, lo) per channel, from the run's thresholds.json if present.

    Stored thresholds must cover ``channels`` and carry the hash of the run's
    scenario.yaml."""
    path = run_dir / "thresholds.json"
    if path.is_file():
        stored = json.loads(path.read_text(encoding="utf-8"))
        try:
            bands = {name: (th["hi"], th.get("lo")) for name, th in stored.items()}
            hashes = {name: th.get("scenario_sha256") for name, th in stored.items()}
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"{path} is not a map from channel to thresholds") from exc
        _require_channels(path, channels, bands)
        digest = scenario_sha256(config)
        for name, got in hashes.items():
            if got != digest:
                raise ValueError(
                    f"{path} does not belong to {run_dir / 'scenario.yaml'}: channel "
                    f"{name} records scenario_sha256 {got}, the scenario hashes to {digest}"
                )
        return bands
    fresh = calibrate_detector(config, seed=seed)
    return {name: (th.hi, th.lo) for name, th in fresh.items()}


def _cmd_validate(args) -> int:
    load_scenario(args.scenario)
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynwatermark",
        description="Simulate and detect dynamic watermarking on linear plants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write a run directory")
    p_run.add_argument("--scenario", required=True, help="scenario YAML file")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.add_argument(
        "--out", default=None,
        help="output directory (default $DYNWATERMARK_OUT or runs/<name>-<seed>)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_cal = sub.add_parser("calibrate", help="print detector thresholds as JSON")
    p_cal.add_argument("--scenario", required=True)
    p_cal.add_argument("--seed", type=int, default=None)
    p_cal.add_argument("--alpha", type=float, default=None,
                       help="override the scenario's false-alarm rate")
    p_cal.add_argument("--ncal", type=int, default=None,
                       help="override the number of calibration windows")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_det = sub.add_parser("detect", help="re-run detection on an exported trace")
    p_det.add_argument("--trace", required=True, help="trace.csv from a run")
    p_det.add_argument("--scenario", required=True)
    p_det.add_argument("--seed", type=int, default=None,
                       help="calibration seed (default: the trace's seed)")
    p_det.set_defaults(func=_cmd_detect)

    p_rep = sub.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("--run", required=True, help="directory written by `run`")
    p_rep.set_defaults(func=_cmd_report)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
