"""Run configuration: unit system, particle, fields, box and displacements.

A ``SystemConfig`` is one flat, immutable record shared by every other
module: ``mass``, ``charge``, ``electric``, ``magnetic`` and ``geometry``
sit beside the unit system and the box.  Configs are built from a flat
JSON-style mapping; see ``build_config`` for the schema.  The charge may be
negative (q = -e is the electron); levels and lengths then use |wc|.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import constants

GEOMETRIES = ("electric_1d", "parallel_eb")
UNIT_KINDS = ("natural", "cgs", "si")
EIGEN_SIGNS = ("plus", "minus")
PLANE_WAVE_NORMS = ("sqrt_box", "box")
# highest ladder_depth and Taylor resummation order; the ladder recursion
# nests one call per order, so a deeper order ends in a RecursionError
MAX_LADDER_DEPTH = 64


class ConfigError(ValueError):
    """Invalid configuration value; ``field`` names the offending key."""

    def __init__(self, field_name: str, message: str):
        super().__init__(message)
        self.field = field_name


@dataclass(frozen=True)
class UnitSystem:
    kind: str
    hbar: float
    c: float
    elementary_charge: float

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar


# (hbar, c, e) per unit system
_UNIT_TABLE = {
    "natural": (1.0, 1.0, 1.0),
    "cgs": (constants.HBAR_CGS, constants.SPEED_OF_LIGHT_CGS, constants.ELEMENTARY_CHARGE_CGS),
    "si": (constants.HBAR_SI, constants.SPEED_OF_LIGHT_SI, constants.ELEMENTARY_CHARGE_SI),
}


def unit_system(kind: str) -> UnitSystem:
    if kind not in UNIT_KINDS:
        raise ConfigError("units", f"unknown unit system {kind!r}; expected one of {UNIT_KINDS}")
    return UnitSystem(kind, *_UNIT_TABLE[kind])


@dataclass(frozen=True)
class DisplacementParams:
    dx: float = 0.0
    dy: float = 0.0
    dz: float = 0.0
    dt: float = 0.0
    eigen_sign: str = "minus"


@dataclass(frozen=True)
class SystemConfig:
    units: UnitSystem
    mass: float
    charge: float
    electric: float
    magnetic: float
    geometry: str
    box_length: float
    displacements: DisplacementParams = field(default_factory=DisplacementParams)
    plane_wave_norm: str = "sqrt_box"   # "sqrt_box": 1/sqrt(L) (unit L2 norm); "box": 1/L
    ladder_depth: int = 6
    hamiltonian_override: str | None = None

    @property
    def hbar(self) -> float:
        return self.units.hbar


def cyclotron_frequency(cfg: SystemConfig) -> float:
    """q B / (m c), recomputed from the config every time.

    Gaussian-convention formula; in natural units (c = 1) it reduces to
    q B / m.  Signed: negative for a negative charge.  Raises unless the
    geometry actually carries a magnetic field.
    """
    if cfg.geometry != "parallel_eb":
        raise ConfigError("geometry", "no magnetic field in this geometry")
    return cfg.charge * cfg.magnetic / (cfg.mass * cfg.units.c)


def _required(raw: dict, key: str):
    if key not in raw:
        raise ConfigError(key, f"missing required key {key!r}")
    return raw[key]


def _as_float(key: str, value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(key, f"{key} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(key, f"{key} must be finite")
    return out


def build_config(raw: dict) -> SystemConfig:
    """Validate a flat key-value document and return a ``SystemConfig``.

    Schema (JSON object, all keys top level)::

        m       particle mass, > 0                      (required)
        q       particle charge, != 0; "e" or "-e" pick  (required)
                the elementary charge of the unit system
        E       electric field intensity                 (required)
        L       box length, > 0                          (required)
        B       magnetic field intensity, >= 0           (default 0)
        units   natural | cgs | si                       (default natural)
        geometry  electric_1d | parallel_eb              (default electric_1d)
        dx, dy, dz, dt   displacement parameters         (default 0)
        eigen_sign       plus | minus                    (default minus)
        plane_wave_norm  sqrt_box | box                  (default sqrt_box)
        ladder_depth     max ladder order, 0..64         (default 6)
        hamiltonian_override  operator text replacing the
                              built-in Hamiltonian in symbolic
                              conservation checks (default null)
    """
    if not isinstance(raw, dict):
        raise ConfigError("document", "configuration must be a mapping")

    known = {"m", "q", "E", "B", "L", "units", "geometry", "dx", "dy", "dz", "dt",
             "eigen_sign", "plane_wave_norm", "ladder_depth", "hamiltonian_override"}
    for key in raw:
        if key not in known:
            raise ConfigError(key, f"unknown configuration key {key!r}")

    units = unit_system(raw.get("units", "natural"))

    mass = _as_float("m", _required(raw, "m"))
    if mass <= 0:
        raise ConfigError("m", "mass must be positive")

    q_raw = _required(raw, "q")
    if q_raw == "e":
        charge = units.elementary_charge
    elif q_raw == "-e":
        charge = -units.elementary_charge
    else:
        charge = _as_float("q", q_raw)
    if charge == 0:
        raise ConfigError("q", "charge must be nonzero")

    electric = _as_float("E", _required(raw, "E"))

    box_length = _as_float("L", _required(raw, "L"))
    if box_length <= 0:
        raise ConfigError("L", "box length must be positive")

    geometry = raw.get("geometry", "electric_1d")
    if geometry not in GEOMETRIES:
        raise ConfigError("geometry", f"unknown geometry {geometry!r}; expected one of {GEOMETRIES}")

    magnetic = _as_float("B", raw.get("B", 0.0))
    if magnetic < 0:
        raise ConfigError("B", "magnetic field intensity must be nonnegative")
    if geometry == "electric_1d":
        magnetic = 0.0  # B plays no role in this geometry

    eigen_sign = raw.get("eigen_sign", "minus")
    if eigen_sign not in EIGEN_SIGNS:
        raise ConfigError("eigen_sign", f"eigen_sign must be one of {EIGEN_SIGNS}")

    displacements = DisplacementParams(
        dx=_as_float("dx", raw.get("dx", 0.0)),
        dy=_as_float("dy", raw.get("dy", 0.0)),
        dz=_as_float("dz", raw.get("dz", 0.0)),
        dt=_as_float("dt", raw.get("dt", 0.0)),
        eigen_sign=eigen_sign,
    )

    plane_wave_norm = raw.get("plane_wave_norm", "sqrt_box")
    if plane_wave_norm not in PLANE_WAVE_NORMS:
        raise ConfigError("plane_wave_norm",
                          f"plane_wave_norm must be one of {PLANE_WAVE_NORMS}")

    ladder_depth = raw.get("ladder_depth", 6)
    if isinstance(ladder_depth, bool) or not isinstance(ladder_depth, int) or ladder_depth < 0:
        raise ConfigError("ladder_depth", "ladder_depth must be a nonnegative integer")
    if ladder_depth > MAX_LADDER_DEPTH:
        raise ConfigError("ladder_depth",
                          f"ladder_depth must be at most {MAX_LADDER_DEPTH}, got {ladder_depth}")

    override = raw.get("hamiltonian_override")
    if override is not None and not isinstance(override, str):
        raise ConfigError("hamiltonian_override", "hamiltonian_override must be operator text")

    return SystemConfig(
        units=units,
        mass=mass,
        charge=charge,
        electric=electric,
        magnetic=magnetic,
        geometry=geometry,
        box_length=box_length,
        displacements=displacements,
        plane_wave_norm=plane_wave_norm,
        ladder_depth=ladder_depth,
        hamiltonian_override=override,
    )


def serialize(cfg: SystemConfig) -> dict:
    """Flat dict that reparses (via build_config) to an equal config."""
    out = {
        "units": cfg.units.kind,
        "m": cfg.mass,
        "q": cfg.charge,
        "E": cfg.electric,
        "B": cfg.magnetic,
        "geometry": cfg.geometry,
        "L": cfg.box_length,
        "dx": cfg.displacements.dx,
        "dy": cfg.displacements.dy,
        "dz": cfg.displacements.dz,
        "dt": cfg.displacements.dt,
        "eigen_sign": cfg.displacements.eigen_sign,
        "plane_wave_norm": cfg.plane_wave_norm,
        "ladder_depth": cfg.ladder_depth,
    }
    if cfg.hamiltonian_override is not None:
        out["hamiltonian_override"] = cfg.hamiltonian_override
    return out


def read_document(path: str):
    """The JSON config document at ``path``, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("document", f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("document", f"config file is not valid JSON: {exc}") from None


def load_config(path: str) -> SystemConfig:
    return build_config(read_document(path))


def natural_config(E: float = 1.0, B: float = 0.0, geometry: str = "electric_1d",
                   L: float = 8.0, m: float = 1.0, q: float = 1.0, **kw) -> SystemConfig:
    """Convenience constructor for natural-unit configs (tests, defaults)."""
    raw = {"units": "natural", "m": m, "q": q, "E": E, "B": B,
           "geometry": geometry, "L": L}
    raw.update(kw)
    return build_config(raw)
