"""Configuration validation, unit systems, and the constants table."""

import json
import math
import warnings

import numpy as np
import pytest

from fieldquant import constants
from fieldquant.config import (MAX_LADDER_DEPTH, ConfigError, build_config,
                               cyclotron_frequency, load_config, natural_config,
                               refuse_overflow, require_geometry, serialize, unit_system)
from fieldquant.solutions import degeneracy_polynomial


def test_minimal_natural_config():
    cfg = build_config({"m": 1, "q": 1, "E": 1, "L": 10, "units": "natural"})
    assert cfg.hbar == 1.0
    assert cfg.units.c == 1.0
    assert cfg.box_length == 10.0
    assert cfg.geometry == "electric_1d"


def test_defaults_applied():
    cfg = build_config({"m": 1, "q": 1, "E": 1, "L": 10})
    assert cfg.units.kind == "natural"
    assert cfg.magnetic == 0.0
    assert cfg.hamiltonian_override is None


@pytest.mark.parametrize("raw, bad_field, message", [
    ({"m": -1, "q": 1, "E": 1, "L": 10}, "m", "mass must be positive"),
    ({"m": 0, "q": 1, "E": 1, "L": 10}, "m", "mass must be positive"),
    ({"m": 1, "q": 0, "E": 1, "L": 10}, "q", "charge must be nonzero"),
    ({"m": 1, "q": 1, "E": 1, "L": -2}, "L", "box length must be positive"),
    ({"q": 1, "E": 1, "L": 10}, "m", "missing required key"),
    ({"m": 1, "q": 1, "E": 1, "L": 10, "geometry": "spiral"}, "geometry", "unknown geometry"),
    ({"m": 1, "q": 1, "E": 1, "L": 10, "eigen_sign": "plus"}, "eigen_sign",
     "unknown configuration key 'eigen_sign'"),
    ({"m": 1, "q": 1, "E": 1, "L": 10, "bogus": 3}, "bogus", "unknown configuration key"),
    ({"m": 1, "q": 1, "E": 1, "L": 10, "ladder_depth": 6}, "ladder_depth",
     "unknown configuration key 'ladder_depth'"),
    # the displacements are flags of the commands that read them, not config keys
    *(({"m": 1, "q": 1, "E": 1, "L": 10, key: 0.0}, key, f"unknown configuration key {key!r}")
      for key in ("dx", "dy", "dz", "dt")),
    ({"m": 1, "q": 1, "E": 1, "L": 10, "plane_wave_norm": "box"}, "plane_wave_norm",
     "unknown configuration key 'plane_wave_norm'"),
])
def test_validation_errors(raw, bad_field, message):
    with pytest.raises(ConfigError) as err:
        build_config(raw)
    assert err.value.field == bad_field
    assert message in str(err.value)


def test_ladder_depth_is_bounded():
    """The ladder recursion runs down to order 0, so an order is capped at the
    resummation's order bound, MAX_LADDER_DEPTH, instead of ending in a
    RecursionError.  No config key moves that cap."""
    cfg = build_config({"m": 1, "q": 1, "E": 1, "L": 8})
    assert MAX_LADDER_DEPTH == 64
    assert degeneracy_polynomial(64, cfg).coeffs.shape[0] == 65
    for order in (65, 5000):
        with pytest.raises(ValueError) as err:
            degeneracy_polynomial(order, cfg)
        assert str(err.value) == f"ladder order {order} lies outside 0..64"


def test_si_elementary_charge():
    cfg = build_config({"m": 9.1e-31, "q": "e", "E": 1.0, "L": 1.0, "units": "si"})
    assert cfg.hbar == constants.HBAR_SI
    assert cfg.charge == constants.ELEMENTARY_CHARGE_SI
    neg = build_config({"m": 9.1e-31, "q": "-e", "E": 1.0, "L": 1.0, "units": "si"})
    assert neg.charge == -constants.ELEMENTARY_CHARGE_SI


@pytest.mark.parametrize("kind", ["natural", "cgs", "si"])
def test_h_is_two_pi_hbar(kind):
    units = unit_system(kind)
    assert abs(units.h - 2.0 * math.pi * units.hbar) <= 4 * math.ulp(units.h)


def test_natural_units_fix_hbar_and_c():
    units = unit_system("natural")
    assert units.hbar == 1.0 and units.c == 1.0


def test_config_round_trip():
    cfg = build_config({"m": 2.0, "q": -1.5, "E": 0.25, "B": 1.0, "L": 12.0,
                        "geometry": "parallel_eb", "units": "natural"})
    assert build_config(serialize(cfg)) == cfg


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"m": 1, "q": 1, "E": 1, "L": 8}))
    cfg = load_config(str(path))
    assert cfg.box_length == 8.0
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_cyclotron_frequency():
    cfg = natural_config(B=1.0, geometry="parallel_eb")
    assert cyclotron_frequency(cfg) == 1.0
    assert cyclotron_frequency(natural_config(B=0.0, geometry="parallel_eb")) == 0.0
    cfg2 = build_config({"m": 1.5, "q": 2.0, "E": 0.0, "B": 3.0, "L": 8,
                         "geometry": "parallel_eb"})
    assert cyclotron_frequency(cfg2) == pytest.approx(4.0)


def test_cyclotron_requires_magnetic_geometry():
    with pytest.raises(ConfigError, match="no magnetic field in this geometry"):
        cyclotron_frequency(natural_config())


def test_magnetic_field_ignored_in_electric_geometry():
    cfg = build_config({"m": 1, "q": 1, "E": 1, "L": 8, "B": 5.0})
    assert cfg.magnetic == 0.0


def test_von_klitzing_reference_matches_exact_constants():
    computed = constants.PLANCK_SI / constants.ELEMENTARY_CHARGE_SI ** 2
    assert abs(computed - constants.VON_KLITZING_OHM) < constants.VON_KLITZING_OHM_TOL


@pytest.mark.parametrize("compute", [
    lambda: np.array([1e200]) * 1e200,                  # numpy overflow
    lambda: np.array([np.inf]) - np.inf,                # numpy invalid
    lambda: 1e200 ** 2,                                 # Python OverflowError
    lambda: math.exp(1e3),                              # OverflowError of math
    lambda: 1.0 / 0.0,                                  # ZeroDivisionError
    lambda: 1e308 * 10.0,                               # non-finite scalar, no error
    lambda: complex(math.inf, 0.0),                     # non-finite complex scalar
    lambda: np.array([1.0, math.nan]),                  # non-finite array member
    lambda: (1.0, np.array([0.0, math.inf])),           # non-finite tuple member
], ids=["np-over", "np-invalid", "pow", "math-exp", "zero-div", "scalar", "complex",
        "array", "tuple"])
def test_refuse_overflow_gives_the_message_and_no_warning(compute):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^too big$"):
            refuse_overflow(compute, lambda: "too big")


def test_refuse_overflow_returns_the_value_and_formats_nothing():
    def never():
        raise AssertionError("message formatted on success")

    def config_error():
        raise ConfigError("x", "passes through")

    arr = np.array([1.0, 2.0])
    assert refuse_overflow(lambda: arr, never) is arr
    pair = (3.0, arr)
    assert refuse_overflow(lambda: pair, never) is pair
    assert refuse_overflow(lambda: 1e-320 * 1e-10, never) == 0.0   # underflow is not refused
    with pytest.raises(ConfigError, match="passes through"):   # so is every other error
        refuse_overflow(config_error, never)


def test_require_geometry():
    cfg = natural_config()
    require_geometry(cfg, "electric_1d", "anyone")
    with pytest.raises(ConfigError, match="^landau_level requires geometry parallel_eb$") as info:
        require_geometry(cfg, "parallel_eb", "landau_level")
    assert info.value.field == "geometry"
