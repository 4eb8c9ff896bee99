"""Experiment configuration: YAML schema, validation, canonical hashing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .fields import DEFAULT_THRESHOLD_DB, GridSpec
from .scene import (
    DEFAULT_SOUND_SPEED,
    IncidentSource,
    RsmaSpec,
    SceneConfig,
    SceneError,
    layout_cartesian,
    layout_linear,
    recommended_forward_truncation,
)

METHODS = ("HOA", "Single", "MSHOA")


class ConfigError(ValueError):
    """Unparseable or semantically invalid experiment configuration."""


@dataclass
class SigmaSearch:
    points: int = 21
    min_factor: float = 1e-8
    max_factor: float = 1e2


@dataclass
class HoaSettings:
    sphere_index: int | None = None
    n_c: int | None = None
    n_c_min: int = 1
    n_c_max: int = 14


@dataclass
class ExperimentConfig:
    scene: SceneConfig
    method: str
    grid: GridSpec
    threshold_db: float = DEFAULT_THRESHOLD_DB
    sigma: float | None = None
    sigma_search: SigmaSearch | None = None
    hoa: HoaSettings = field(default_factory=HoaSettings)
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def config_hash(self) -> str:
        return hash_config(self.raw)


def _mapping(value, allowed: tuple, context: str) -> dict:
    """``value`` as a mapping whose keys all lie in ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a mapping, got {value!r}")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {context} (expected one of {', '.join(allowed)})")
    return value


def _number(value, context: str) -> float:
    """``value`` as a finite float; YAML reads '1e-6' (no dot) as a string."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        number = np.nan
    if not np.isfinite(number):
        raise ConfigError(f"{context} must be a finite number, got {value!r}")
    return number


def _integer(value, context: str, minimum: int = 0) -> int:
    number = _number(value, context)
    if not number.is_integer() or number < minimum:
        raise ConfigError(f"{context} must be an integer >= {minimum}, got {value!r}")
    return int(number)


def _complex(value, context: str) -> complex:
    """``value`` (a number or [re, im]) as a finite complex number."""
    try:
        if isinstance(value, (list, tuple)):
            re, im = value
            number = complex(float(re), float(im))
        else:
            number = complex(value)
    except (TypeError, ValueError):
        number = complex(np.nan)
    if not np.isfinite(number):
        raise ConfigError(f"{context} must be a finite number or [re, im], got {value!r}")
    return number


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"missing required field '{key}' in {context}")
    return mapping[key]


def _pair(value, context: str) -> tuple:
    """``value`` as exactly two finite numbers; an int stays an int, as the CSV headers print it."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{context} must be a list of two numbers, got {value!r}")
    numbers = [_number(v, context) for v in value]
    return tuple(v if type(v) is int else number for v, number in zip(value, numbers))


def _vector3(value, context: str) -> np.ndarray:
    try:
        v = np.asarray(value, dtype=float).reshape(3)
    except Exception:
        raise ConfigError(f"{context} must be a 3-vector, got {value!r}")
    return v


LAYOUT_KEYS = {
    "linear": ("type", "count", "spacing", "axis"),
    "cartesian": ("type", "rows", "cols", "spacing", "plane"),
}
TOP_KEYS = ("scene", "method", "grid", "threshold_db", "sigma", "sigma_search", "hoa", "output")
SCENE_KEYS = ("layout", "spheres", "radius", "capsules", "source", "frequency", "sound_speed", "n_in", "n_fwd")


def _parse_source(raw) -> IncidentSource:
    _mapping(raw, ("kind", "direction", "position", "amplitude"), "scene.source")
    kind = _require(raw, "kind", "scene.source")
    try:
        if kind == "plane_wave":
            return IncidentSource(kind=kind, direction=_vector3(_require(raw, "direction", "scene.source"), "source.direction"))
        if kind == "monopole":
            return IncidentSource(
                kind=kind,
                position=_vector3(_require(raw, "position", "scene.source"), "source.position"),
                amplitude=_complex(raw.get("amplitude", 1.0), "scene.source.amplitude"),
            )
    except SceneError as exc:
        raise ConfigError(f"invalid source: {exc}")
    raise ConfigError(f"unknown source kind {kind!r} (expected plane_wave or monopole)")


def _parse_spheres(raw: dict) -> list[RsmaSpec]:
    if "spheres" in raw and "layout" in raw:
        raise ConfigError("scene must use either 'spheres' or 'layout', not both")
    try:
        if "spheres" in raw:
            if not isinstance(raw["spheres"], list):
                raise ConfigError(f"scene.spheres must be a list of spheres, got {raw['spheres']!r}")
            specs = []
            for i, entry in enumerate(raw["spheres"]):
                ctx = f"scene.spheres[{i}]"
                _mapping(entry, ("center", "radius", "capsules"), ctx)
                specs.append(
                    RsmaSpec.fibonacci(
                        center=_vector3(_require(entry, "center", ctx), "center"),
                        radius=_number(_require(entry, "radius", ctx), f"{ctx}.radius"),
                        q=_integer(_require(entry, "capsules", ctx), f"{ctx}.capsules"),
                    )
                )
            return specs
        layout = _require(raw, "layout", "scene")
        ltype = layout.get("type") if isinstance(layout, dict) else None
        if ltype not in ("linear", "cartesian"):
            raise ConfigError(f"scene.layout needs type linear or cartesian, got {layout!r}")
        _mapping(layout, LAYOUT_KEYS[ltype], f"scene.layout ({ltype})")
        radius = _number(_require(raw, "radius", "scene"), "scene.radius")
        capsules = _integer(_require(raw, "capsules", "scene"), "scene.capsules")
        spacing = _number(_require(layout, "spacing", "scene.layout"), "scene.layout.spacing")
        if ltype == "linear":
            centers = layout_linear(
                _integer(_require(layout, "count", "scene.layout"), "scene.layout.count"),
                spacing,
                layout.get("axis", "y"),
            )
        else:
            centers = layout_cartesian(
                _integer(_require(layout, "rows", "scene.layout"), "scene.layout.rows"),
                _integer(_require(layout, "cols", "scene.layout"), "scene.layout.cols"),
                spacing,
                layout.get("plane", "xy"),
            )
        if len(centers) > 1 and spacing <= 2 * radius:
            raise ConfigError(
                f"layout spacing {spacing} must exceed the sphere diameter {2 * radius}"
            )
        return [RsmaSpec.fibonacci(c, radius, capsules) for c in centers]
    except SceneError as exc:
        raise ConfigError(f"invalid sphere geometry: {exc}")


def parse_config(raw: dict) -> ExperimentConfig:
    """Build a validated :class:`ExperimentConfig` from a parsed mapping; unknown keys are errors."""
    _mapping(raw, TOP_KEYS, "configuration")
    scene_raw = _mapping(_require(raw, "scene", "configuration"), SCENE_KEYS, "scene")
    spheres = _parse_spheres(scene_raw)
    source = _parse_source(_require(scene_raw, "source", "scene"))
    frequency = _number(_require(scene_raw, "frequency", "scene"), "scene.frequency")
    sound_speed = _number(scene_raw.get("sound_speed", DEFAULT_SOUND_SPEED), "scene.sound_speed")
    n_in = _integer(_require(scene_raw, "n_in", "scene"), "scene.n_in")
    if "n_fwd" in scene_raw:
        n_fwd = _integer(scene_raw["n_fwd"], "scene.n_fwd")
    else:
        k = 2.0 * np.pi * frequency / sound_speed
        n_fwd = min(n_in, recommended_forward_truncation(k, max(s.radius for s in spheres)))
    try:
        scene = SceneConfig(
            spheres=spheres,
            source=source,
            frequency=frequency,
            sound_speed=sound_speed,
            n_in=n_in,
            n_fwd=n_fwd,
        )
    except SceneError as exc:
        raise ConfigError(f"invalid scene: {exc}")

    method = raw.get("method", "MSHOA")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")

    grid_raw = _mapping(raw.get("grid", {}), ("plane", "extent", "resolution", "center", "normal_offset"), "grid")
    try:
        grid = GridSpec(
            plane=grid_raw.get("plane", "xy"),
            extent=_pair(grid_raw.get("extent", (2.0, 2.0)), "grid.extent"),
            resolution=_number(grid_raw.get("resolution", 0.005), "grid.resolution"),
            center=_pair(grid_raw.get("center", (0.0, 0.0)), "grid.center"),
            normal_offset=_number(grid_raw.get("normal_offset", 0.0), "grid.normal_offset"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid evaluation grid: {exc}")

    sigma = None if raw.get("sigma") is None else _number(raw["sigma"], "sigma")
    search_raw = raw.get("sigma_search")
    sigma_search = None
    if search_raw is not None:
        if sigma is not None:
            raise ConfigError("specify either 'sigma' or 'sigma_search', not both")
        _mapping(search_raw, ("points", "min_factor", "max_factor"), "sigma_search")
        sigma_search = SigmaSearch(
            points=_integer(search_raw.get("points", 21), "sigma_search.points", minimum=1),
            min_factor=_number(search_raw.get("min_factor", 1e-8), "sigma_search.min_factor"),
            max_factor=_number(search_raw.get("max_factor", 1e2), "sigma_search.max_factor"),
        )
        if min(sigma_search.min_factor, sigma_search.max_factor) <= 0:
            raise ConfigError("sigma_search factors must be positive (the grid is logarithmic)")
    if sigma is not None and sigma < 0:
        raise ConfigError("sigma must be non-negative")
    if method == "HOA" and sigma_search is not None:
        raise ConfigError("HOA searches the truncation n_c, not sigma; give a fixed 'sigma'")

    hoa_raw = _mapping(raw.get("hoa", {}), ("sphere_index", "n_c", "n_c_min", "n_c_max"), "hoa")
    index, n_c = hoa_raw.get("sphere_index"), hoa_raw.get("n_c")
    if n_c is not None and ("n_c_min" in hoa_raw or "n_c_max" in hoa_raw):
        raise ConfigError("specify either 'hoa.n_c' or the range 'hoa.n_c_min' / 'hoa.n_c_max', not both")
    hoa = HoaSettings(
        sphere_index=None if index is None else _integer(index, "hoa.sphere_index"),
        n_c=None if n_c is None else _integer(n_c, "hoa.n_c"),
        n_c_min=_integer(hoa_raw.get("n_c_min", 1), "hoa.n_c_min"),
        n_c_max=_integer(hoa_raw.get("n_c_max", 14), "hoa.n_c_max"),
    )
    if hoa.sphere_index is not None and hoa.sphere_index >= len(spheres):
        raise ConfigError(f"hoa.sphere_index {hoa.sphere_index} out of range")
    if hoa.n_c_min > hoa.n_c_max:
        raise ConfigError(f"hoa.n_c_min {hoa.n_c_min} exceeds hoa.n_c_max {hoa.n_c_max}")
    if method == "HOA" and sigma is None and sigma_search is None:
        sigma = 0.0  # the single-sphere baseline is conventionally unregularized
    if method in ("Single", "MSHOA") and sigma is None and sigma_search is None:
        sigma_search = SigmaSearch()

    return ExperimentConfig(
        scene=scene,
        method=method,
        grid=grid,
        threshold_db=_number(raw.get("threshold_db", DEFAULT_THRESHOLD_DB), "threshold_db"),
        sigma=sigma,
        sigma_search=sigma_search,
        hoa=hoa,
        raw=raw,
    )


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate YAML configuration text."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse configuration: {exc}")
    return parse_config(raw)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        text = fh.read()
    return validate_config(text)


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, float) and obj.is_integer():
        return int(obj)
    return obj


def hash_config(raw: dict) -> str:
    """Deterministic hash of the experiment definition (output paths excluded)."""
    payload = {k: v for k, v in raw.items() if k != "output"}
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
