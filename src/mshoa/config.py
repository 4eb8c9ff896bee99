"""Experiment configuration: YAML schema, validation, canonical hashing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import yaml

from .fields import DEFAULT_THRESHOLD_DB, SDR_CAP_DB, SDR_FLOOR_DB, GridSpec, _inside_spheres
from .scene import MAX_DEGREE, IncidentSource, RsmaSpec, SceneConfig, SceneError, check_surface_degree, layout_cartesian

METHODS = ("HOA", "Single", "MSHOA")


class ConfigError(ValueError):
    """Unparseable or semantically invalid experiment configuration."""


MAX_SIGMA_POINTS = 10**3  # each is a ridge solve and a pixel reconstruction; the configs use at most 21


@dataclass
class SigmaSearch:
    points: int = 21
    min_factor: float = 1e-8
    max_factor: float = 1e2

    def __post_init__(self):
        if not 1 <= self.points <= MAX_SIGMA_POINTS:
            raise ValueError(f"points must be from 1 to {MAX_SIGMA_POINTS:,}, got {self.points:,}")
        if min(self.min_factor, self.max_factor) <= 0:
            raise ValueError("factors must be positive (the grid is logarithmic)")


@dataclass
class HoaSettings:
    sphere_index: int | None = None  # None: the array nearest the origin, filled in by ExperimentConfig
    n_c_min: int = 1
    n_c_max: int = 14

    def __post_init__(self):
        if self.n_c_min > self.n_c_max:
            raise ValueError(f"n_c_min {self.n_c_min} exceeds n_c_max {self.n_c_max}")


@dataclass
class ExperimentConfig:
    """A validated experiment; unset settings take their defaults here and on the types they configure."""

    scene: SceneConfig
    method: str = "MSHOA"
    grid: GridSpec = field(default_factory=GridSpec)
    threshold_db: float = DEFAULT_THRESHOLD_DB
    sigma: float | None = None
    sigma_search: SigmaSearch | None = None
    hoa: HoaSettings | None = None  # HOA's alone, which defaults it; no other method encodes a single array
    raw: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.sigma is not None and self.sigma_search is not None:
            raise ConfigError("specify either 'sigma' or 'sigma_search', not both")
        if not SDR_FLOOR_DB <= self.threshold_db < SDR_CAP_DB:  # sdr_map clips every pixel to [floor, cap]
            raise ConfigError(f"threshold_db must lie in [{SDR_FLOOR_DB:g}, {SDR_CAP_DB:g}), got {self.threshold_db:g}")
        if self.sigma is not None and self.sigma < 0:
            raise ConfigError("sigma must be non-negative")
        if self.method == "HOA" and self.sigma_search is not None:
            raise ConfigError("HOA searches the truncation n_c, not sigma; give a fixed 'sigma'")
        if self.sigma is None and self.sigma_search is None:
            if self.method == "HOA":
                self.sigma = 0.0  # the single-sphere baseline is conventionally unregularized
            else:
                self.sigma_search = SigmaSearch()
        spheres = self.scene.spheres
        if self.method == "HOA":
            if self.hoa is None:
                self.hoa = HoaSettings()
            if self.hoa.sphere_index is None:
                nearest = int(np.argmin([np.linalg.norm(s.center) for s in spheres]))
                self.hoa = replace(self.hoa, sphere_index=nearest)
            if self.hoa.sphere_index >= len(spheres):
                raise ConfigError(f"hoa.sphere_index {self.hoa.sphere_index} out of range")
            if self.hoa_degree > MAX_DEGREE:
                raise ConfigError(
                    f"hoa.n_c_max {self.hoa.n_c_max:,} takes HOA's array to degree {self.hoa_degree:,} (a lone array "
                    f"adds its reference expansion), more than the {MAX_DEGREE:,} allowed"
                )
            try:
                check_surface_degree(self.scene.k, spheres[self.hoa.sphere_index].radius, self.hoa_degree)
            except SceneError as exc:
                raise ConfigError(f"invalid HOA array: {exc}")
        elif self.hoa is not None:
            raise ConfigError(f"'hoa' configures method HOA only, not {self.method}: remove it")
        source = self.scene.source
        if source.kind == "monopole" and not (self.method == "HOA" and len(spheres) == 1):
            # the incident series about the origin converges only for |r| < |position|;
            # a lone HOA array expands about its own centre
            reach, distance = max(np.linalg.norm(s.center) + s.radius for s in spheres), np.linalg.norm(source.position)
            if distance <= reach:
                raise ConfigError(
                    f"the monopole source, {distance:g} m from the origin, lies within the arrays' enclosing radius "
                    f"{reach:g} m: the incident series about the origin diverges on the spheres"
                )
        points = self.grid.points()  # one pass over the pixel centres serves both checks below
        if source.kind == "monopole":  # IncidentSource.field_at divides the true field by each pixel's distance to it
            with np.errstate(over="ignore"):  # a distance that overflows is inf: not on the source
                on = np.linalg.norm(points - source.position, axis=1) == 0.0
            if on.any():
                row, col = np.unravel_index(np.argmax(on), self.grid.shape)
                raise ConfigError(f"the monopole source lies on the centre of pixel (row {row}, column {col}): its field is infinite there")
        if _inside_spheres(points, spheres).all():
            raise ConfigError("every pixel of the grid lies inside a sphere: there is no field to compare")

    @property
    def hoa_degree(self) -> int:
        """HOA's highest capsule-response degree: n_c_max, or a lone array's reference expansion beyond it."""
        n = self.hoa.n_c_max
        if len(self.scene.spheres) == 1:  # the capture of a lone array is expanded generously about it
            n += max(12, int(np.ceil(np.e * self.scene.k * self.scene.spheres[0].radius)))
        return n

    @property
    def config_hash(self) -> str:
        return hash_config(self.raw)


def _section(raw, context: str, converters: dict, required: tuple = ()) -> dict:
    """The keys ``raw`` gives, each converted by its entry in ``converters``.

    A key missing from ``converters`` is an error, as is a missing ``required``
    one; a key not given is left out, for the constructor to default.
    """
    where = context or "the configuration"  # "" at the top level, whose keys are their own paths
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping, got {raw!r}")
    for key in raw:
        if key not in converters:
            raise ConfigError(f"unknown key {key!r} in {where} (expected one of {', '.join(converters)})")
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing required field '{key}' in {where}")
    return {key: converters[key](value, f"{context}.{key}" if context else key) for key, value in raw.items()}


def _build(make, raw, context: str, converters: dict, required: tuple = ()):
    """``make`` called with the keys ``raw`` gives, converted; ``make`` supplies every default."""
    kwargs = _section(raw, context, converters, required)
    try:
        return make(**kwargs)
    except ValueError as exc:  # SceneError and the types' own checks
        raise ConfigError(f"invalid {context}: {exc}")


def _number(value, context: str) -> float:
    """``value`` as a finite float; YAML reads '1e-6' (no dot) as a string, and a bool (true) is no number."""
    try:
        number = np.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        number = np.nan
    if not np.isfinite(number):
        raise ConfigError(f"{context} must be a finite number, got {value!r}")
    return number


def _integer(value, context: str) -> int:
    number = _number(value, context)
    if not number.is_integer() or number < 0:
        raise ConfigError(f"{context} must be an integer >= 0, got {value!r}")
    return int(number)


def _complex(value, context: str) -> complex:
    """``value`` (a number or [re, im]) as a finite complex number."""
    parts = value if isinstance(value, (list, tuple)) else [value, 0]
    if len(parts) != 2:
        raise ConfigError(f"{context} must be a finite number or [re, im], got {value!r}")
    return complex(*(_number(part, context) for part in parts))


def _pair(value, context: str) -> tuple:
    """``value`` as exactly two finite numbers; an int stays an int, as the CSV headers print it."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{context} must be a list of two numbers, got {value!r}")
    numbers = [_number(v, context) for v in value]
    return tuple(v if type(v) is int else number for v, number in zip(value, numbers))


def _vector3(value, context: str) -> np.ndarray:
    try:
        if any(isinstance(v, bool) for v in np.ravel(np.array(value, dtype=object))):  # YAML's true reads as 1
            raise TypeError
        v = np.asarray(value, dtype=float).reshape(3)
    except Exception:
        raise ConfigError(f"{context} must be a 3-vector, got {value!r}")
    return v


def _text(value, context: str) -> str:
    """``value`` as a string; the type it configures checks which strings it takes."""
    if not isinstance(value, str):
        raise ConfigError(f"{context} must be a string, got {value!r}")
    return value


def _hoa_settings(n_c: int | None = None, **given) -> HoaSettings:
    """``hoa.n_c`` is the one-degree range n_c_min = n_c_max = n_c."""
    if n_c is not None:
        if given.keys() & {"n_c_min", "n_c_max"}:
            raise ValueError("specify either 'n_c' or the range 'n_c_min' / 'n_c_max', not both")
        given.update(n_c_min=n_c, n_c_max=n_c)
    return HoaSettings(**given)


SOURCE = {"kind": _text, "direction": _vector3, "position": _vector3, "amplitude": _complex}
SPHERE = {"center": _vector3, "radius": _number, "capsules": _integer}
LINEAR = {"type": _text, "count": _integer, "spacing": _number, "axis": _text}
CARTESIAN = {"type": _text, "rows": _integer, "cols": _integer, "spacing": _number, "plane": _text}
# A linear layout along an axis is the cartesian grid of one column (y, z) or one row (x) in a plane holding it.
LINEAR_AXES = {"x": ("cols", "xy"), "y": ("rows", "xy"), "z": ("rows", "yz")}
GRID = {"plane": _text, "extent": _pair, "resolution": _number, "center": _pair, "normal_offset": _number}
SIGMA_SEARCH = {"points": _integer, "min_factor": _number, "max_factor": _number}
HOA = {"sphere_index": _integer, "n_c": _integer, "n_c_min": _integer, "n_c_max": _integer}


def _layout(raw, context: str) -> dict:
    """A layout as the arguments of :func:`~mshoa.scene.layout_cartesian`."""
    kind = raw.get("type") if isinstance(raw, dict) else None
    if kind == "cartesian":
        layout = _section(raw, context, CARTESIAN, required=("rows", "cols", "spacing"))
    elif kind == "linear":
        layout = _section(raw, context, LINEAR, required=("count", "spacing"))
        axis = layout.pop("axis", "y")
        if axis not in LINEAR_AXES:
            raise ConfigError(f"{context}.axis must be x, y or z, got {axis!r}")
        side, layout["plane"] = LINEAR_AXES[axis]
        layout.update({"rows": 1, "cols": 1, side: layout.pop("count")})
    else:
        raise ConfigError(f"{context} needs type linear or cartesian, got {raw!r}")
    del layout["type"]
    return layout


def _spheres(raw, context: str) -> list[RsmaSpec]:
    if not isinstance(raw, list):
        raise ConfigError(f"{context} must be a list of spheres, got {raw!r}")
    return [
        _build(RsmaSpec.fibonacci, entry, f"{context}[{i}]", SPHERE, required=tuple(SPHERE))
        for i, entry in enumerate(raw)
    ]


def _scene(raw, context: str) -> SceneConfig:
    """The scene; a layout places spheres of the scene's ``radius`` and ``capsules``."""
    scene = _section(raw, context, SCENE, required=("source", "frequency", "n_in"))
    if ("layout" in scene) == ("spheres" in scene):
        raise ConfigError(f"{context} must use either 'spheres' or 'layout' (exactly one)")
    if "layout" in scene:
        for key in ("radius", "capsules"):
            if key not in scene:
                raise ConfigError(f"missing required field '{key}' in {context} (a layout needs it)")
        layout, radius, capsules = (scene.pop(key) for key in ("layout", "radius", "capsules"))
        try:
            centers = layout_cartesian(**layout)
            if len(centers) > 1 and layout["spacing"] <= 2 * radius:
                raise SceneError(f"layout spacing {layout['spacing']} must exceed the sphere diameter {2 * radius}")
            scene["spheres"] = [RsmaSpec.fibonacci(c, radius, capsules) for c in centers]
        except SceneError as exc:
            raise ConfigError(f"invalid sphere geometry in {context}: {exc}")
    elif scene.keys() & {"radius", "capsules"}:
        raise ConfigError(f"{context}.radius and .capsules go with a layout; each of {context}.spheres gives its own")
    try:
        return SceneConfig(**scene)
    except SceneError as exc:
        raise ConfigError(f"invalid {context}: {exc}")


SCENE = {
    "layout": _layout,
    "spheres": _spheres,
    "radius": _number,
    "capsules": _integer,
    "source": partial(_build, IncidentSource, converters=SOURCE, required=("kind",)),
    "frequency": _number,
    "sound_speed": _number,
    "n_in": _integer,
    "n_fwd": _integer,
}
TOP = {
    "scene": _scene,
    "method": _text,
    "grid": partial(_build, GridSpec, converters=GRID),
    "threshold_db": _number,
    "sigma": _number,
    "sigma_search": partial(_build, SigmaSearch, converters=SIGMA_SEARCH),
    "hoa": partial(_build, _hoa_settings, converters=HOA),
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Build a validated :class:`ExperimentConfig` from a parsed mapping; unknown keys are errors."""
    return ExperimentConfig(**_section(raw, "", TOP, required=("scene",)), raw=raw)


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate YAML configuration text."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse configuration: {exc}")
    return parse_config(raw)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})")
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
    """Deterministic hash of the experiment definition."""
    text = json.dumps(_canonical(raw), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
