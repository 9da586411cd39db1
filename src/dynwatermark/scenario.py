"""Scenario configuration: schema, YAML I/O, validation, factories.

A scenario file is a nested key/value tree with sections ``plant``,
``policy``, ``watermark``, ``attack`` and ``detector`` plus top-level
``schema_version``, ``name``, ``seed`` and ``horizon``.  Validation errors
carry the offending field path and render as a single line.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from . import adversary, linsys, watermark
from .watermark import WatermarkSpec, match_distribution

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioError",
    "PlantConfig",
    "PolicyConfig",
    "AttackConfig",
    "DetectorConfig",
    "ScenarioConfig",
    "scenario_from_dict",
    "load_scenario",
    "save_scenario",
    "scenario_sha256",
    "default_tests",
    "allowed_tests",
]

SCHEMA_VERSION = 1

PLANT_KINDS = ("scalar", "arx", "armax", "partial", "mimo")
POLICY_KINDS = ("zero", "linear", "arx_deadbeat")


class ScenarioError(ValueError):
    """Scenario validation failure; renders as one ``field: message`` line."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")


def check_seed(seed: int) -> int:
    """A master seed is a non-negative integer; the loader, the simulator
    and the calibration all refuse a negative one with this error."""
    if seed < 0:
        raise ScenarioError("seed", "must be >= 0")
    return seed


def _require(d: dict, key: str, section: str):
    if key not in d:
        raise ScenarioError(f"{section}.{key}", "missing required key")
    return d[key]


def _section(d, section: str, keys=None) -> dict:
    """``d`` as the scenario section ``section``: a mapping holding no key
    outside ``keys``, by default the section's ``_KEYS``."""
    if not isinstance(d, dict):
        raise ScenarioError(section, "expected a mapping")
    extras = set(d) - set(_KEYS[section] if keys is None else keys)
    if extras:
        raise ScenarioError(section, f"unknown keys {sorted(extras)}")
    return d


def _as_int(value, field_path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(field_path, f"expected an integer, got {value!r}")
    return value


def _as_float(value, field_path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(field_path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(field_path, f"expected a finite number, got {value!r}")
    return float(value)


def _check_numbers(value, field_path: str) -> None:
    """Require a number or (nested) lists of finite numbers; shapes are the
    plant builders' business."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_numbers(item, field_path)
    else:
        _as_float(value, field_path)


@dataclass(frozen=True)
class PlantConfig:
    kind: str
    a: Any = None
    b: Any = None
    c: Any = None
    delay: int | None = None
    A: Any = None
    B: Any = None
    C: Any = None
    sigma_w2: float = 1.0
    sigma_n2: float | None = None
    w_family: str = "gaussian"

    def build(self):
        """Construct the plant object (raises ScenarioError on bad params)."""
        try:
            if self.kind == "scalar":
                return linsys.ScalarPlant(float(self.a), float(self.b), self.sigma_w2)
            if self.kind == "arx":
                return linsys.ArxPlant(tuple(self.a), tuple(self.b), self.sigma_w2)
            if self.kind == "armax":
                return linsys.ArmaxPlant(
                    tuple(self.a), tuple(self.b), tuple(self.c),
                    int(self.delay), self.sigma_w2,
                )
            if self.kind == "partial":
                return linsys.PartialPlant(
                    np.asarray(self.A, dtype=float),
                    np.asarray(self.B, dtype=float),
                    np.asarray(self.C, dtype=float),
                    self.sigma_w2, self.sigma_n2,
                )
            if self.kind == "mimo":
                return linsys.MimoPlant(
                    np.asarray(self.A, dtype=float),
                    np.asarray(self.B, dtype=float),
                    self.sigma_w2,
                )
        except ScenarioError:
            raise
        except (TypeError, ValueError) as exc:
            raise ScenarioError("plant", str(exc)) from exc
        raise ScenarioError("plant.kind", f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "zero"
    f: Any = None


@dataclass(frozen=True)
class AttackConfig:
    kind: str = "honest"
    onset: int | None = None
    record_len: int | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DetectorConfig:
    window_len: int = 500
    alpha: float = 1e-3
    n_cal: int = 20_000
    tests: tuple[str, ...] | None = None
    burn_in: int | None = None


@dataclass
class ScenarioConfig:
    name: str
    plant: PlantConfig
    horizon: int
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    watermark: WatermarkSpec = field(default_factory=lambda: WatermarkSpec(1.0))
    attack: AttackConfig = field(default_factory=AttackConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    seed: int = 0
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        """The scenario as plain data, each section's keys in ``_KEYS``
        order; unset (None) fields and empty ``params`` are left out."""
        return _plain_section(self, "scenario")


def _plain_section(obj, section: str) -> dict:
    out = {}
    for key in _KEYS[section]:
        val = getattr(obj, key)
        if key in _KEYS:
            out[key] = _plain_section(val, key)
        elif val is not None and (not isinstance(val, dict) or val):
            out[key] = _plain(val)
    return out


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

# Each section's keys, in the order save_scenario writes them.  The loader
# refuses any other key; a plant admits only its kind's keys.
_KEYS = {
    "scenario": (
        "schema_version", "name", "seed", "horizon",
        "plant", "policy", "watermark", "attack", "detector",
    ),
    "plant": ("kind", "a", "b", "c", "delay", "A", "B", "C", "sigma_n2", "sigma_w2", "w_family"),
    "policy": ("kind", "f"),
    "watermark": ("sigma_e2", "family", "shaper"),
    "attack": ("kind", "onset", "record_len", "params"),
    "detector": ("window_len", "alpha", "n_cal", "tests", "burn_in"),
}

_PLANT_KEYS = {
    "scalar": {"kind", "a", "b", "sigma_w2", "w_family"},
    "arx": {"kind", "a", "b", "sigma_w2", "w_family"},
    "armax": {"kind", "a", "b", "c", "delay", "sigma_w2", "w_family"},
    "partial": {"kind", "A", "B", "C", "sigma_w2", "sigma_n2", "w_family"},
    "mimo": {"kind", "A", "B", "sigma_w2", "w_family"},
}


def _parse_plant(d: dict) -> PlantConfig:
    kind = _require(_section(d, "plant"), "kind", "plant")
    if kind not in PLANT_KINDS:
        raise ScenarioError("plant.kind", f"unknown kind {kind!r}; expected one of {PLANT_KINDS}")
    _section(d, "plant", _PLANT_KEYS[kind])
    w_family = d.get("w_family", "gaussian")
    if w_family not in watermark.FAMILIES:
        raise ScenarioError("plant.w_family", f"unknown family {w_family!r}")
    kwargs: dict[str, Any] = {
        "kind": kind,
        "sigma_w2": _as_float(_require(d, "sigma_w2", "plant"), "plant.sigma_w2"),
        "w_family": w_family,
    }
    for key in (k for k in _KEYS["plant"] if k in _PLANT_KEYS[kind] and k not in kwargs):
        val = _require(d, key, "plant")
        if key == "delay":
            val = _as_int(val, "plant.delay")
        elif key == "sigma_n2":
            val = _as_float(val, "plant.sigma_n2")
        else:
            _check_numbers(val, f"plant.{key}")
        kwargs[key] = val
    cfg = PlantConfig(**kwargs)
    cfg.build()  # surface parameter errors (min-phase, observability, ...) now
    return cfg


def _parse_policy(d: dict, plant: PlantConfig) -> PolicyConfig:
    kind = _section(d, "policy").get("kind", "zero")
    if kind not in POLICY_KINDS:
        raise ScenarioError("policy.kind", f"unknown kind {kind!r}; expected one of {POLICY_KINDS}")
    f = d.get("f")
    if kind == "linear" and f is None:
        raise ScenarioError("policy.f", "linear policy requires a gain f")
    if kind != "linear" and f is not None:
        raise ScenarioError("policy.f", f"gain f is meaningless for the {kind} policy")
    if kind == "arx_deadbeat":
        # stable by construction: B is strictly minimum phase
        if plant.kind != "arx":
            raise ScenarioError("policy.kind", "arx_deadbeat requires an arx plant")
        return PolicyConfig(kind=kind)
    gain = 0.0 if f is None else _parse_gain(f, plant)
    try:
        radius = plant.build().kernel.closed_loop_radius(gain)
    except ValueError as exc:
        raise ScenarioError("policy", str(exc)) from exc
    if not radius <= 1.0:
        raise ScenarioError(
            "policy", f"closed loop is unstable: spectral radius {radius:.6g} > 1"
        )
    return PolicyConfig(kind=kind, f=f)


def _parse_gain(f, plant: PlantConfig):
    """Linear feedback gain: an (m, n) matrix for a mimo plant, else a number."""
    if plant.kind != "mimo":
        return _as_float(f, "policy.f")
    _check_numbers(f, "policy.f")
    mn = np.shape(plant.B)[::-1]  # (inputs, states)
    try:
        F = np.asarray(f, dtype=float)
    except ValueError as exc:
        raise ScenarioError("policy.f", f"expected an (m, n) = {mn} matrix, got {f!r}") from exc
    if F.shape != mn:
        raise ScenarioError("policy.f", f"expected shape (m, n) = {mn}, got {F.shape}")
    return F


def _parse_watermark(d: dict, plant: PlantConfig) -> WatermarkSpec:
    _section(d, "watermark")
    try:
        spec = WatermarkSpec(
            sigma_e2=_as_float(_require(d, "sigma_e2", "watermark"), "watermark.sigma_e2"),
            family=d.get("family", "gaussian"),
            shaper=d.get("shaper", "auto"),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError("watermark", str(exc)) from exc
    if spec.family == "matched" and plant.kind not in ("scalar", "arx", "armax"):
        raise ScenarioError(
            "watermark.family", "matched excitation needs a scalar input gain"
        )
    if spec.shaper == "arx" and plant.kind not in ("arx", "armax"):
        raise ScenarioError("watermark.shaper", "arx shaper needs b_coeffs")
    if spec.shaper == "armax" and plant.kind != "armax":
        raise ScenarioError("watermark.shaper", "armax shaper needs an armax plant")
    return spec


def _parse_attack(d: dict, plant: PlantConfig, horizon: int) -> AttackConfig:
    kind = _section(d, "attack").get("kind", "honest")
    known = set(adversary.BUILTIN_ATTACKS) | set(adversary._REGISTRY)
    if not isinstance(kind, str) or kind not in known:
        raise ScenarioError("attack.kind", f"unknown attack {kind!r}; known: {sorted(known)}")
    onset = d.get("onset")
    record_len = d.get("record_len")
    params = {} if d.get("params") is None else d["params"]
    if not isinstance(params, dict):
        raise ScenarioError("attack.params", "expected a mapping")
    if kind == "honest":
        if onset is not None:
            raise ScenarioError("attack.onset", "honest sensor takes no onset")
    else:
        if onset is None:
            raise ScenarioError("attack.onset", f"{kind} attack requires an onset")
        onset = _as_int(onset, "attack.onset")
        if not 1 <= onset < horizon:
            raise ScenarioError(
                "attack.onset", f"onset must be in [1, horizon), got {onset}"
            )
    if kind == "replay":
        if record_len is None:
            raise ScenarioError("attack.record_len", "replay requires record_len")
        record_len = _as_int(record_len, "attack.record_len")
        if not 1 <= record_len <= onset:
            raise ScenarioError(
                "attack.record_len",
                f"record_len must be in [1, onset={onset}], got {record_len}",
            )
    elif record_len is not None:
        raise ScenarioError("attack.record_len", f"record_len is replay-only, not {kind}")
    if params and kind in adversary.BUILTIN_ATTACKS:
        raise ScenarioError("attack.params", f"params are for custom attacks, not {kind}")
    if kind == "additive_estimated" and plant.kind not in ("scalar", "arx", "mimo"):
        raise ScenarioError(
            "attack.kind",
            "additive_estimated is defined for scalar, arx and mimo plants",
        )
    return AttackConfig(kind=kind, onset=onset, record_len=record_len, params=params)


def allowed_tests(plant_kind: str, state_dim: int = 1) -> set[str]:
    if plant_kind in ("scalar", "arx", "armax"):
        return {"variance_wm", "variance_raw", "cross_corr", "nll"}
    if plant_kind == "partial":
        out = {"cross_corr", "cov_entries"}
        if state_dim == 1:
            out |= {"cov", "nll"}
        return out
    if plant_kind == "mimo":
        return {"cov", "cross_corr", "nll", "cov_entries"}
    raise ScenarioError("plant.kind", f"unknown kind {plant_kind!r}")


def default_tests(plant_kind: str) -> tuple[str, ...]:
    return {
        "scalar": ("variance_wm", "variance_raw", "cross_corr", "nll"),
        "arx": ("variance_wm", "variance_raw", "cross_corr", "nll"),
        "armax": ("variance_wm", "variance_raw", "cross_corr"),
        "partial": ("cross_corr", "cov_entries"),
        "mimo": ("cov", "cross_corr"),
    }[plant_kind]


def _parse_detector(d: dict, plant: PlantConfig, horizon: int) -> DetectorConfig:
    _section(d, "detector")
    window_len = _as_int(d.get("window_len", 500), "detector.window_len")
    if window_len < 1:
        raise ScenarioError("detector.window_len", f"must be >= 1, got {window_len}")
    alpha = _as_float(d.get("alpha", 1e-3), "detector.alpha")
    if not 0.0 < alpha < 0.5:
        raise ScenarioError("detector.alpha", f"must be in (0, 0.5), got {alpha}")
    n_cal = _as_int(d.get("n_cal", 20_000), "detector.n_cal")
    if n_cal < 10.0 / alpha:
        raise ScenarioError(
            "detector.n_cal", f"need at least 10/alpha = {10.0 / alpha:.0f} windows"
        )
    built = plant.build()
    dim = getattr(built, "dim", 1)
    tests = d.get("tests")
    if tests is not None:
        if (
            not isinstance(tests, (list, tuple))
            or not tests
            or not all(isinstance(t, str) for t in tests)
        ):
            raise ScenarioError("detector.tests", "expected a non-empty list of names")
        bad = set(tests) - allowed_tests(plant.kind, dim)
        if bad:
            raise ScenarioError(
                "detector.tests",
                f"{sorted(bad)} not available for a {plant.kind} plant "
                f"(allowed: {sorted(allowed_tests(plant.kind, dim))})",
            )
        tests = tuple(tests)
    effective = tests if tests is not None else default_tests(plant.kind)
    if any(t in ("cov", "nll") for t in effective) and window_len <= dim:
        raise ScenarioError(
            "detector.window_len",
            f"matrix statistics need window_len > state dimension ({dim})",
        )
    burn_in = d.get("burn_in")
    if burn_in is not None:
        burn_in = _as_int(burn_in, "detector.burn_in")
        if burn_in < 0:
            raise ScenarioError("detector.burn_in", "must be >= 0")
    return DetectorConfig(
        window_len=window_len, alpha=alpha, n_cal=n_cal, tests=tests, burn_in=burn_in
    )


def scenario_from_dict(d: dict) -> ScenarioConfig:
    if not isinstance(d, dict):
        raise ScenarioError("scenario", "expected a mapping at top level")
    _section(d, "scenario")
    version = _as_int(_require(d, "schema_version", "scenario"), "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            "schema_version", f"unsupported version {version} (supported: {SCHEMA_VERSION})"
        )
    name = _require(d, "name", "scenario")
    if not isinstance(name, str) or not name:
        raise ScenarioError("name", "expected a non-empty string")
    if "\n" in name or "\r" in name:
        raise ScenarioError("name", "must not hold a line break")
    horizon = _as_int(_require(d, "horizon", "scenario"), "horizon")
    if horizon < 2:
        raise ScenarioError("horizon", f"must be >= 2, got {horizon}")
    seed = check_seed(_as_int(d.get("seed", 0), "seed"))
    plant = _parse_plant(_require(d, "plant", "scenario"))
    policy = _parse_policy(d.get("policy", {"kind": "zero"}), plant)
    wm = _parse_watermark(_require(d, "watermark", "scenario"), plant)
    attack = _parse_attack(d.get("attack", {"kind": "honest"}), plant, horizon)
    detector = _parse_detector(d.get("detector", {}), plant, horizon)
    return ScenarioConfig(
        name=name, plant=plant, horizon=horizon, policy=policy,
        watermark=wm, attack=attack, detector=detector,
        seed=seed, schema_version=version,
    )


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioError("scenario", f"not parseable YAML ({exc})") from exc
    return scenario_from_dict(raw)


def save_scenario(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=False)


def scenario_sha256(config: ScenarioConfig) -> str:
    """SHA-256 of the canonical JSON (sorted keys) of ``config.to_dict()``."""
    text = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


def resolve_watermark(config: ScenarioConfig) -> WatermarkSpec:
    """Concrete excitation spec: resolves the 'matched' family via the plant."""
    wm = config.watermark
    if wm.family != "matched":
        return wm
    # The loader admits 'matched' for lag-polynomial plants only.  Their
    # kernel's gain is what the shaped excitation reaches the prediction
    # error with: b for scalar, b0 for ARX, 1 for ARMAX.
    family, variance = match_distribution(
        (config.plant.w_family, config.plant.sigma_w2), config.plant.build().kernel.gain
    )
    # sigma_e2 is implied by matching; 0 means "compute for me", anything else
    # must agree with the implied value (a conflict is a config mistake).
    if wm.sigma_e2 != 0.0 and abs(variance - wm.sigma_e2) > 1e-9 * max(1.0, variance):
        raise ScenarioError(
            "watermark.sigma_e2",
            f"matched family implies sigma_e2={variance:.6g}, got {wm.sigma_e2}",
        )
    return WatermarkSpec(sigma_e2=variance, family=family, shaper=wm.shaper)
