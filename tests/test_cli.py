import hashlib
import json
import pathlib
import warnings

import numpy as np
import pytest
import yaml

from dynwatermark.adversary import register_attack
from dynwatermark.cli import main
from dynwatermark.harness import export_trace, import_trace, run_scenario, trace_equal
from dynwatermark.scenario import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_sha256,
)

from conftest import make_scenario
from test_harness import TAMPERINGS, all_class_configs, reference_configs, tampered

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def scenario_file(tmp_path):
    cfg = make_scenario(
        name="cli",
        horizon=2001,
        attack={"kind": "replay", "onset": 1000, "record_len": 500},
    )
    path = tmp_path / "scenario.yaml"
    save_scenario(cfg, path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(scenario_file, capsys):
    code, out, err = run_cli(capsys, "validate", "--scenario", str(scenario_file))
    assert code == 0
    assert out.strip() == "ok"
    assert err == ""


def test_validate_bad_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"schema_version": 1, "name": "x"}))
    code, out, err = run_cli(capsys, "validate", "--scenario", str(bad))
    assert code == 1
    assert err.startswith("error:")


def test_missing_file_exits_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate", "--scenario", str(tmp_path / "no.yaml"))
    assert code == 1
    assert "error:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing --scenario
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_run_writes_run_directory(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir)
    )
    assert code == 0
    for name in ("trace.csv", "scenario.yaml", "report.json", "thresholds.json"):
        assert (out_dir / name).is_file(), name
    # stdout: one status line, then the report as JSON
    report = json.loads("\n".join(out.splitlines()[1:]))
    assert report == json.loads((out_dir / "report.json").read_text())
    assert report["attack_kind"] == "replay"
    assert report["n_windows"] == 4


@pytest.mark.parametrize("command", ["run", "calibrate", "detect"])
def test_negative_seed_names_its_field(command, scenario_file, tmp_path, capsys):
    argv = [command, "--scenario", str(scenario_file), "--seed", "-1"]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    if command == "detect":
        run_dir = tmp_path / "first"
        run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(run_dir))
        argv += ["--trace", str(run_dir / "trace.csv")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: seed: must be >= 0"]
    assert not (tmp_path / "out").exists()


def test_run_seed_override_lands_in_directory(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "run", "--scenario", str(scenario_file),
        "--seed", "42", "--out", str(out_dir),
    )
    assert code == 0
    assert json.loads("\n".join(out.splitlines()[1:]))["seed"] == 42


def test_out_env_var_fallback(scenario_file, tmp_path, capsys, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("DYNWATERMARK_OUT", str(target))
    code, _, _ = run_cli(capsys, "run", "--scenario", str(scenario_file))
    assert code == 0
    assert (target / "trace.csv").is_file()


def test_calibrate_prints_threshold_json(scenario_file, capsys):
    code, out, _ = run_cli(capsys, "calibrate", "--scenario", str(scenario_file))
    assert code == 0
    th = json.loads(out)
    assert set(th) == {"variance_wm", "variance_raw", "cross_corr", "nll"}
    for entry in th.values():
        assert set(entry) >= {"alpha", "hi", "lo", "method"}
        assert entry["alpha"] == 0.01


def test_detect_agrees_with_run(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir))
    code, out, _ = run_cli(
        capsys, "detect",
        "--trace", str(out_dir / "trace.csv"),
        "--scenario", str(scenario_file),
    )
    assert code == 0
    detection = json.loads(out)
    report = json.loads((out_dir / "report.json").read_text())
    assert detection["n_windows"] == report["n_windows"]
    assert detection["n_alarms"] == report["n_alarms"]
    assert detection["first_alarm"] == report["first_alarm"]
    assert all(a["end_t"] > 1000 for a in detection["alarms"])


@pytest.mark.parametrize("kind", ["scalar", "arx", "armax", "partial", "mimo"])
def test_detect_agrees_with_run_window_by_window(kind, tmp_path, capsys):
    """Under an attack, detect's alarms on the exported trace are the run's
    per-channel flags: same windows, same end steps, same channels."""
    configs = {
        "scalar": make_scenario(
            name="scalar-replay", horizon=2001,
            attack={"kind": "replay", "onset": 1000, "record_len": 500},
        ),
        **reference_configs(),
    }
    cfg = configs[kind]
    scen_path, trace_path = tmp_path / "scenario.yaml", tmp_path / "trace.csv"
    save_scenario(cfg, scen_path)
    trace = run_scenario(load_scenario(scen_path))
    export_trace(trace, trace_path)
    code, out, err = run_cli(
        capsys, "detect", "--trace", str(trace_path), "--scenario", str(scen_path)
    )
    assert code == 0, err
    channels = trace.channel_names
    expected = [
        {"index": i, "end_t": end,
         "channels": [ch for ch in channels if trace.window_alarms[ch][i]]}
        for i, end in enumerate(trace.window_ends.tolist())
        if trace.any_alarm[i]
    ]
    assert expected, "the attack raises no alarm"
    detection = json.loads(out)
    assert detection["alarms"] == expected
    assert detection["n_windows"] == len(trace.window_ends)


def test_zero_window_run_round_trips(tmp_path, capsys):
    """A horizon shorter than one window: no statistic columns, an exact
    round trip, no stats.csv and no windows for detect."""
    d = load_scenario(SCENARIOS / "scalar_honest.yaml").to_dict()
    d["horizon"] = 400
    d["detector"]["window_len"] = 500
    cfg = scenario_from_dict(d)
    scen_path = tmp_path / "scenario.yaml"
    save_scenario(cfg, scen_path)
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--scenario", str(scen_path), "--out", str(out_dir))
    assert code == 0, err
    trace_path = out_dir / "trace.csv"
    header = trace_path.read_text().splitlines()[1].split(",")
    assert header[-2:] == ["window_id", "alarm"]
    assert not [h for h in header if h.startswith("stat_")]
    imported = import_trace(trace_path, cfg)
    assert trace_equal(imported, run_scenario(cfg))
    again = tmp_path / "again.csv"
    export_trace(imported, again)
    assert again.read_bytes() == trace_path.read_bytes()
    code, out, err = run_cli(capsys, "report", "--run", str(out_dir))
    assert code == 0, err
    assert json.loads(out)["n_windows"] == 0
    assert not (out_dir / "stats.csv").exists()
    code, out, err = run_cli(
        capsys, "detect", "--trace", str(trace_path), "--scenario", str(scen_path)
    )
    assert code == 0, err
    assert json.loads(out)["n_windows"] == 0


def test_report_rewrites_summary_and_stats(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir))
    original = (out_dir / "report.json").read_text()
    (out_dir / "report.json").unlink()
    code, out, _ = run_cli(capsys, "report", "--run", str(out_dir))
    assert code == 0
    assert (out_dir / "report.json").read_text() == original
    assert json.loads(out) == json.loads(original)
    stats = (out_dir / "stats.csv").read_text().splitlines()
    header = stats[0].split(",")
    assert header[0] == "end_t"
    channels = {"variance_wm", "variance_raw", "cross_corr", "nll"}
    expected = channels | {f"{c}_hi" for c in channels} | {f"{c}_lo" for c in channels}
    assert set(header[1:]) == expected
    assert len(stats) == 1 + json.loads(original)["n_windows"]
    # threshold columns repeat the calibrated band on every row
    th = json.loads((out_dir / "thresholds.json").read_text())
    row = dict(zip(header, stats[1].split(",")))
    assert float(row["nll_hi"]) == th["nll"]["hi"]
    assert row["nll_lo"] == ""  # one-sided statistic
    assert float(row["variance_wm_lo"]) == th["variance_wm"]["lo"]


def test_report_recalibrates_when_thresholds_file_missing(scenario_file, tmp_path,
                                                          capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir))
    stored = json.loads((out_dir / "thresholds.json").read_text())
    (out_dir / "thresholds.json").unlink()
    code, _, _ = run_cli(capsys, "report", "--run", str(out_dir))
    assert code == 0
    stats = (out_dir / "stats.csv").read_text().splitlines()
    row = dict(zip(stats[0].split(","), stats[1].split(",")))
    assert float(row["nll_hi"]) == stored["nll"]["hi"]


def test_run_records_threshold_provenance(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir),
            "--seed", "11")
    stored = json.loads((out_dir / "thresholds.json").read_text())
    digest = scenario_sha256(load_scenario(out_dir / "scenario.yaml"))
    assert set(stored) == {"variance_wm", "variance_raw", "cross_corr", "nll"}
    for th in stored.values():
        assert th["scenario_sha256"] == digest
        assert th["calibration_seed"] == 11
        assert isinstance(th["hi"], float)


@pytest.mark.parametrize("edit", ["scenario", "entry", "channel"])
def test_report_rejects_thresholds_of_another_scenario(edit, scenario_file, tmp_path,
                                                       capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir))
    report = (out_dir / "report.json").read_text()
    th_path = out_dir / "thresholds.json"
    if edit == "scenario":
        scen = out_dir / "scenario.yaml"
        edited = yaml.safe_load(scen.read_text())
        edited["detector"]["alpha"] = 0.02
        scen.write_text(yaml.safe_dump(edited))
        message = f"error: {th_path} does not belong to"
    elif edit == "entry":
        stored = json.loads(th_path.read_text())
        stored["nll"] = [stored["nll"]["hi"]]
        th_path.write_text(json.dumps(stored))
        message = f"error: {th_path} is not a map from channel to thresholds"
    else:
        stored = json.loads(th_path.read_text())
        del stored["nll"]
        th_path.write_text(json.dumps(stored))
        message = f"error: {th_path} lacks channels ['nll']"
    code, out, err = run_cli(capsys, "report", "--run", str(out_dir))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(message)
    assert (out_dir / "report.json").read_text() == report


def test_report_rejects_non_finite_report(tmp_path, capsys):
    """A nan report lies outside the plant recursion the self-check covers:
    import refuses it before the oracle can write a nan distortion power."""
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(SCENARIOS / "arx_additive.yaml"),
            "--out", str(out_dir))
    report = (out_dir / "report.json").read_text()
    trace = out_dir / "trace.csv"
    lines = trace.read_text().splitlines()
    col = lines[1].split(",").index("z")
    fields = lines[2 + 100].split(",")
    fields[col] = "nan"
    lines[2 + 100] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "report", "--run", str(out_dir))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {trace}: column z holds 'nan' at t=100"]
    assert (out_dir / "report.json").read_text() == report


# sha256 of each shipped scenario's run directory after `run` then `report`,
# in RUN_FILES order.  A change to the simulation, the detector or a file
# layout moves them; a refactor must not.
RUN_FILES = ("scenario.yaml", "trace.csv", "report.json", "thresholds.json", "stats.csv")
SHIPPED_RUN_SHA256 = {
    "armax_replay": (
        "aeb5686f78afa66bf5f69888b15bc92da5ccbd26b50e02876ad12b6f53c2e109",
        "f9308b2d343928c56c10226cafbe1912409a9380b8ef214693aaad763354d75c",
        "0e5e927b1acae8b09bf0a6e7f935c9583b81c7940abdca45f21917469a4a736f",
        "8346d3a1e1ac6f166513f0c0c17ca9e1f9e2dd29d769f6c0c9530c8b402c6311",
        "56947ce3a434931a2475f6d30fdc28181521a650d8019ed87dfc6cc82af10b08",
    ),
    "arx_additive": (
        "8436239081764c4b19797d1656575dfc3a18781952c9e73aa712322e48041886",
        "8e3303aa5522df0e5f024e45258456f7ef8d530e615a0fabfcce745551a7377c",
        "67baad859f7ce62dff28b8603fce5fc329badc4d191c0b2d0aae2b85e373f28a",
        "a9e1143a465eb123dac754c14a8890c2b85c64b755ec4ac455dabc8e5bc73620",
        "fb98bd188038f37f1c2d01f61e154eeec7ef0069b82d640da2d7ac8aeb744a26",
    ),
    "mimo_replay": (
        "b4a33ecd115ae8bab09be0508a4d4147b6484fb963a239b772a88a2ed770a14b",
        "637518fda0b504f8e97c81e1748b970b425156f030479cb24bd5773c451ea6bd",
        "1d161b1ca7811130e6b8c2eda7bb13024ee2dbf24d78b8c2b1c5d68700bb8bc6",
        "e67460b87b7d543715c913157e94bac3502a94c28bf44634965a5e70030a6e28",
        "ceccb22bf69210b7e94e88f9bfbd4610929d6a798c815f175e34d92088f9fc91",
    ),
    "partial_noise_sim": (
        "2432702c49c5ddaf78d146144f9f256be6f9280848dc0f9761711cb761270cc7",
        "105cd2f30e6144d6ae3aa9f3f7ea29a0ed09fc859e392aeeb7e5c95767af89f6",
        "9ac0601205ff2b58fb17385cffbd61be604e1d8b0151320765fdcac822ae90c2",
        "6c3892552a16b4dd97ae1d99812208ff146b04745785fcb75dfa5f1b0740e314",
        "2e4918a4a09cc8e73de2c2d4bd989bd7256d44022bffd1771d922c379fc14475",
    ),
    "scalar_honest": (
        "1f48f22a6e999d44a457456dad79548a18ac5bc31c746748b14c04817ea2bfe9",
        "cbda92fc1afa7e50fce48ae84760390d3d56614305bd1ff963a0abb580d8436f",
        "948bb834bc2f24b07f47e4f1d601abebc2826afbcbc860793cf8fab8bfd3da9d",
        "3f62ddf65d4465c1ee979272111e869cbba2326290ad3ca86b089704888af42e",
        "812ab2822a5d947d49b40eb9e714f53e5b81888d5fe9d08ab6f1a9718c9b019b",
    ),
}


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.yaml")))
def test_run_then_report_on_shipped_scenario(name, tmp_path, capsys):
    """`run` then `report` succeed, and every file of the run directory is
    the pinned one byte for byte."""
    out_dir = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "run", "--scenario", str(SCENARIOS / f"{name}.yaml"), "--out", str(out_dir)
    )
    assert code == 0, err
    code, _, err = run_cli(capsys, "report", "--run", str(out_dir))
    assert code == 0, err
    digests = [hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in RUN_FILES]
    assert dict(zip(RUN_FILES, digests)) == dict(zip(RUN_FILES, SHIPPED_RUN_SHA256[name]))


@pytest.mark.parametrize("name", ["demo schema_version=2", "my scenario"])
def test_run_then_report_keep_a_name_with_spaces_and_keys(name, tmp_path, capsys):
    """The name is free text on the trace's metadata line: no word of it is
    read as a key."""
    cfg = make_scenario(name=name)
    path = tmp_path / "scenario.yaml"
    save_scenario(cfg, path)
    out_dir = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "run", "--scenario", str(path), "--seed", "11", "--out", str(out_dir)
    )
    assert code == 0, err
    code, _, err = run_cli(capsys, "report", "--run", str(out_dir))
    assert code == 0, err
    assert import_trace(out_dir / "trace.csv", cfg).seed == 11


def test_validate_refuses_a_name_with_a_line_break_in_one_line(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(dict(make_scenario().to_dict(), name="a\nb")))
    code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: name: must not hold a line break"]


def test_calibrate_alpha_and_ncal_overrides(scenario_file, capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "--scenario", str(scenario_file),
        "--alpha", "0.05", "--ncal", "400",
    )
    assert code == 0
    th = json.loads(out)
    assert all(entry["alpha"] == 0.05 for entry in th.values())
    # overrides are revalidated as a pair
    code, _, err = run_cli(
        capsys, "calibrate", "--scenario", str(scenario_file),
        "--alpha", "0.001", "--ncal", "400",
    )
    assert code == 1
    assert "n_cal" in err


def test_validate_names_bad_polynomial(tmp_path, capsys):
    # the root of b sits inside the unit circle; write the file by hand since
    # scenario_from_dict would refuse to construct the config
    bad = {
        "schema_version": 1, "name": "x", "seed": 0, "horizon": 2000,
        "plant": {"kind": "arx", "a": [0.5], "b": [1.0, 2.0], "sigma_w2": 1.0},
        "policy": {"kind": "zero"},
        "watermark": {"sigma_e2": 1.0},
        "detector": {"window_len": 100, "alpha": 0.01, "n_cal": 1000},
    }
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 1
    assert "b_coeffs" in err and "minimum phase" in err


def test_report_rejects_non_run_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", "--run", str(tmp_path))
    assert code == 1
    assert "not a run directory" in err


def _edit_trace_meta(trace, key, value):
    lines = trace.read_text().split("\n")
    fields = lines[0].split(" ")
    k = next(k for k, f in enumerate(fields) if f.startswith(f"{key}="))
    fields[k] = f"{key}={value}"
    lines[0] = " ".join(fields)
    trace.write_text("\n".join(lines))


@pytest.mark.parametrize("key", ["schema_version", "seed", "residual_start", "burn_in"])
def test_detect_names_file_and_field_of_non_integer_metadata(
    key, scenario_file, tmp_path, capsys
):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir))
    trace = out_dir / "trace.csv"
    _edit_trace_meta(trace, key, "abc")
    code, out, err = run_cli(
        capsys, "detect", "--trace", str(trace), "--scenario", str(scenario_file)
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: {trace}: trace metadata field {key} is 'abc', not an integer"
    ]


def test_detect_names_file_of_unsupported_schema_version(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir))
    trace = out_dir / "trace.csv"
    _edit_trace_meta(trace, "schema_version", "99")
    code, out, err = run_cli(
        capsys, "detect", "--trace", str(trace), "--scenario", str(scenario_file)
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {trace}: unsupported trace schema_version 99"]


def test_detect_rejects_mismatched_scenario(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir))
    other = scenario_from_dict(
        make_scenario(name="other", horizon=1001).to_dict()
    )
    other_path = tmp_path / "other.yaml"
    save_scenario(other, other_path)
    code, _, err = run_cli(
        capsys, "detect",
        "--trace", str(out_dir / "trace.csv"),
        "--scenario", str(other_path),
    )
    assert code == 1
    assert "error:" in err


def test_detect_rejects_scenario_of_another_window_len(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir))
    d = load_scenario(scenario_file).to_dict()
    d["detector"]["window_len"] = 250
    other_path = tmp_path / "other.yaml"
    save_scenario(scenario_from_dict(d), other_path)
    trace = out_dir / "trace.csv"
    code, out, err = run_cli(
        capsys, "detect", "--trace", str(trace), "--scenario", str(other_path)
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: {trace}: window 0 spans 500 rows, scenario window_len is 250"
    ]


def test_detect_rejects_channels_the_scenario_does_not_calibrate(
    scenario_file, tmp_path, capsys
):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir))
    d = load_scenario(scenario_file).to_dict()
    d["detector"]["tests"] = ["variance_wm"]
    other_path = tmp_path / "other.yaml"
    save_scenario(scenario_from_dict(d), other_path)
    code, out, err = run_cli(
        capsys, "detect",
        "--trace", str(out_dir / "trace.csv"), "--scenario", str(other_path),
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: {out_dir / 'trace.csv'}: trace holds statistics "
        "['cross_corr', 'nll', 'variance_raw', 'variance_wm'], "
        "the scenario computes ['variance_wm']"
    ]


@pytest.mark.parametrize("how", [*TAMPERINGS, "t"])
@pytest.mark.parametrize("kind", ["scalar", "arx", "armax", "partial", "mimo"])
def test_report_and_detect_refuse_a_tampered_trace(kind, how, tmp_path, capsys):
    """Each refusal of import is one error line and exit code 1 through both
    commands that read a trace."""
    scenario = tmp_path / "scenario.yaml"
    save_scenario(all_class_configs()[kind], scenario)
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario), "--out", str(out_dir))
    path = out_dir / "trace.csv"
    cfg = load_scenario(scenario)
    lines = tampered(path.read_text().splitlines(), import_trace(path, cfg), how)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as refusal:
        import_trace(path, cfg)
    for argv in (["report", "--run", str(out_dir)],
                 ["detect", "--trace", str(path), "--scenario", str(scenario)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err.splitlines()) == (1, "", [f"error: {refusal.value}"])


@pytest.mark.parametrize(
    "edit,message",
    [
        ("add x_2", "header field 4 is 'x_2', where export writes 'z_0'"),
        ("drop u_1", "header field 9 is 'e_raw_0', where export writes 'u_1'"),
    ],
)
def test_report_and_detect_refuse_a_vector_column_the_plant_lacks(
    edit, message, tmp_path, capsys
):
    """The header is checked against the plant's state and input widths
    before any row is parsed: a MIMO export (2 states, 2 inputs) with an
    extra state column, or without its second input column, is refused in
    one line naming the column."""
    scenario = tmp_path / "scenario.yaml"
    save_scenario(all_class_configs()["mimo"], scenario)
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario), "--out", str(out_dir))
    path = out_dir / "trace.csv"
    meta, *table = path.read_text().splitlines()
    rows = [line.split(",") for line in table]
    if edit == "add x_2":
        j = rows[0].index("x_1") + 1
        for k, row in enumerate(rows):
            row.insert(j, "x_2" if k == 0 else row[j - 1])
    else:
        j = rows[0].index("u_1")
        for row in rows:
            del row[j]
    path.write_text("\n".join([meta, *map(",".join, rows)]) + "\n")
    for argv in (["report", "--run", str(out_dir)],
                 ["detect", "--trace", str(path), "--scenario", str(scenario)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err.splitlines()) == (1, "", [f"error: {path}: {message}"])


@pytest.mark.filterwarnings("error")
def test_report_refuses_an_overflowing_report_cell_in_one_line(tmp_path, capsys):
    """A finite report cell whose square overflows makes a statistic
    overflow, which scores NaN; import refuses it without printing numpy's
    warnings."""
    scenario = tmp_path / "scenario.yaml"
    save_scenario(all_class_configs()["arx"], scenario)
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario), "--out", str(out_dir))
    path = out_dir / "trace.csv"
    lines = path.read_text().splitlines()
    col = lines[1].split(",").index("z")
    row = lines[2 + 150].split(",")
    row[col] = "1e300"
    lines[2 + 150] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "report", "--run", str(out_dir))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.endswith("where its window layout gives 'nan'\n")


def test_run_refuses_an_overflowing_statistic_in_one_line(tmp_path, capsys):
    """A report whose square overflows makes a statistic NaN: `run` refuses
    it in one error line and numpy does not warn of the overflow."""

    @register_attack("huge_report_test")
    def huge(view, rng):
        return 1e300

    scenario = tmp_path / "scenario.yaml"
    save_scenario(make_scenario(attack={"kind": "huge_report_test", "onset": 1000}), scenario)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "run", "--scenario", str(scenario),
                                 "--out", str(tmp_path / "out"))
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: non-finite statistic nan on channel ")


def test_run_refuses_a_report_of_the_wrong_shape_in_one_line(tmp_path, capsys):
    """A custom attack on a lag plant that reports a one-element array, not
    a number, ends `run` with one error line, not a traceback."""

    @register_attack("array_report_test")
    def array_report(view, rng):
        return np.array([view.y[view.t]])

    scenario = tmp_path / "scenario.yaml"
    save_scenario(make_scenario(attack={"kind": "array_report_test", "onset": 1000}), scenario)
    code, out, err = run_cli(capsys, "run", "--scenario", str(scenario),
                             "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err == "error: report at t=1000 has shape (1,), the plant outputs ()\n"


def test_run_alarms_on_singular_detection_window(tmp_path, capsys):
    """A sensor that reports zeros makes the MIMO residual vanish: from the
    first window wholly after the onset, ending at t=300, the cov scatter is
    singular and scores +inf, an alarm, and `report` accepts the run."""

    @register_attack("silent_sensor_test")
    def silent(view, rng):
        return np.zeros(len(view.y[view.t]))

    cfg = make_scenario(
        name="silent", seed=6, horizon=401,
        plant={"kind": "mimo", "A": [[0.5, 0.1], [0.0, 0.4]],
               "B": [[1.0, 0.0], [0.2, 1.0]], "sigma_w2": 1.0},
        policy={"kind": "linear", "f": [[-0.2, 0.0], [0.0, -0.1]]},
        watermark={"sigma_e2": 0.5},
        attack={"kind": "silent_sensor_test", "onset": 150},
        detector={"window_len": 100, "alpha": 0.01, "n_cal": 1000},
    )
    path = tmp_path / "silent.yaml"
    save_scenario(cfg, path)
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--scenario", str(path), "--out", str(out_dir))
    assert (code, err) == (0, "")
    cov = {row["end_t"]: row["cov"] for row in _report_stats(capsys, out_dir)}
    assert [cov["300"], cov["400"]] == ["inf", "inf"]
    assert "inf" not in (cov["100"], cov["200"])


def _report_stats(capsys, run_dir) -> list[dict]:
    """The rows of the stats.csv that `report` writes for ``run_dir``, after
    checking that it exits 0 and rewrites the run's report.json unchanged."""
    before = (run_dir / "report.json").read_text()
    code, _, err = run_cli(capsys, "report", "--run", str(run_dir))
    assert (code, err) == (0, "")
    assert (run_dir / "report.json").read_text() == before
    header, *rows = (run_dir / "stats.csv").read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


@pytest.mark.parametrize("policy", ["zero", "linear"])
@pytest.mark.parametrize("states", [2, 3])
def test_one_step_replay_alarms_in_every_window_after_onset(states, policy, tmp_path, capsys):
    """`mimo_replay` with record_len 1 reports one value from onset on, so
    every window that starts after the onset has a singular cov scatter: it
    scores +inf and alarms, `run` exits 0 and `report` accepts the run."""
    d = load_scenario(SCENARIOS / "mimo_replay.yaml").to_dict()
    d["attack"]["record_len"] = 1
    if states == 3:
        d["plant"]["A"] = [[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.0, 0.0, 0.3]]
        d["plant"]["B"] = [[1.0, 0.0, 0.0], [0.2, 1.0, 0.0], [0.0, 0.5, 1.0]]
    if policy == "linear":
        gains = (-0.2, -0.1, -0.15)[:states]
        d["policy"] = {"kind": "linear",
                       "f": [[g if i == j else 0.0 for j in range(states)]
                             for i, g in enumerate(gains)]}
    path = tmp_path / "scenario.yaml"
    save_scenario(scenario_from_dict(d), path)
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run", "--scenario", str(path), "--out", str(out_dir))
    assert (code, err) == (0, "")
    onset, l = d["attack"]["onset"], d["detector"]["window_len"]
    rows = _report_stats(capsys, out_dir)
    after = [row for row in rows if int(row["end_t"]) - l + 1 > onset]
    assert len(after) == 2
    assert all(row["cov"] == "inf" for row in after)
    assert all(float(row["cov"]) > float(row["cov_hi"]) for row in after)
    assert all(row["cov"] != "inf" for row in rows if row not in after)


def test_detect_rejects_truncated_trace_row(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir))
    trace = out_dir / "trace.csv"
    lines = trace.read_text().splitlines()
    n_fields = len(lines[1].split(","))
    lines[5] = ",".join(lines[5].split(",")[:3])
    trace.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(
        capsys, "detect", "--trace", str(trace), "--scenario", str(scenario_file)
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: {trace} line 6: expected {n_fields} fields, got 3"
    ]


def test_detect_rejects_non_finite_statistic(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(scenario_file), "--out", str(out_dir))
    trace = out_dir / "trace.csv"
    lines = trace.read_text().splitlines()
    header = lines[1].split(",")
    col = header.index("stat_cross_corr")
    # the last row of the last window
    row = max(i for i in range(2, len(lines)) if lines[i].split(",")[col])
    fields = lines[row].split(",")
    cell, fields[col] = fields[col], "nan"
    lines[row] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        capsys, "detect", "--trace", str(trace), "--scenario", str(scenario_file)
    )
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.splitlines() == [
        f"error: {trace}: column stat_cross_corr holds 'nan' at t={fields[0]}, "
        f"where its window layout gives {cell!r}"
    ]


def test_report_rejects_non_finite_statistic(tmp_path, capsys):
    out_dir = tmp_path / "out"
    run_cli(capsys, "run", "--scenario", str(SCENARIOS / "arx_additive.yaml"),
            "--out", str(out_dir))
    report = (out_dir / "report.json").read_text()
    trace = out_dir / "trace.csv"
    lines = trace.read_text().splitlines()
    col = lines[1].split(",").index("stat_cross_corr")
    row = max(i for i in range(2, len(lines)) if lines[i].split(",")[col])
    fields = lines[row].split(",")
    cell, fields[col] = fields[col], "nan"
    lines[row] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "report", "--run", str(out_dir))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: {trace}: column stat_cross_corr holds 'nan' at t={fields[0]}, "
        f"where its window layout gives {cell!r}"
    ]
    assert (out_dir / "report.json").read_text() == report
