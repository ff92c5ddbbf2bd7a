"""JSON (de)serialization of scenarios and placements.

Makes instances portable: save a scenario (devices, obstacles, hardware
tables, budgets) and a solved placement, reload them in another process or
ship them between the CLI and the benchmarks.  Round-trips are exact up to
float formatting (tested in ``tests/test_io.py``).

Format (version 1)::

    {
      "version": 1,
      "bounds": [xmin, ymin, xmax, ymax],
      "charger_types": [{"name", "charging_angle", "dmin", "dmax"}, ...],
      "device_types":  [{"name", "receiving_angle"}, ...],
      "coefficients":  [{"charger", "device", "a", "b"}, ...],
      "budgets":       {"type name": count, ...},
      "devices":       [{"position", "orientation", "type", "threshold"}, ...],
      "obstacles":     [[[x, y], ...], ...],
      "strategies":    [{"position", "orientation", "type"}, ...]   # optional
    }
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from typing import Sequence

from .geometry import Polygon
from .model import (
    ChargerType,
    CoefficientTable,
    Device,
    DeviceType,
    PairCoefficients,
    Scenario,
    Strategy,
)

__all__ = [
    "canonical_json",
    "canonical_extraction_hash",
    "canonical_scenario_hash",
    "scenario_to_dict",
    "scenario_from_dict",
    "strategies_to_list",
    "strategies_from_list",
    "save_scenario",
    "load_scenario",
]

FORMAT_VERSION = 1


def _canonicalize(obj, path: str):
    """Normalize *obj* to plain JSON types with deterministic numbers.

    Floats with an exact integer value collapse to ints (``5.0`` and ``5``
    hash identically), ``-0.0`` collapses to ``0``, and non-finite numbers
    are rejected — JSON round-trips must not change the key.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite number at {path}: {obj!r}")
        if obj.is_integer():
            return int(obj)
        return obj
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError(f"non-string key at {path}: {key!r}")
            out[key] = _canonicalize(obj[key], f"{path}.{key}")
        return out
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    # numpy scalars and similar: anything exposing item() collapses to a
    # python number, then re-canonicalizes.
    if hasattr(obj, "item"):
        return _canonicalize(obj.item(), path)
    raise ValueError(f"unhashable value at {path}: {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, normalized
    numbers (see :func:`canonical_scenario_hash`)."""
    return json.dumps(_canonicalize(obj, "$"), sort_keys=True, separators=(",", ":"))


def canonical_scenario_hash(scenario: Scenario | dict, params: dict | None = None) -> str:
    """Content address of a solve request: SHA-256 over the canonical JSON
    of the scenario plus solver params.

    *scenario* may be a :class:`~repro.model.Scenario` (serialized via
    :func:`scenario_to_dict`) or an already-serialized scenario dict.  A
    stored ``"strategies"`` key is excluded — a prior placement riding along
    in the file does not change what a solver would compute.  Keys are
    sorted recursively and floats normalized (integral floats become ints,
    ``-0.0`` becomes ``0``), so semantically identical requests hash
    identically regardless of key order or float spelling.
    """
    data = scenario_to_dict(scenario) if isinstance(scenario, Scenario) else dict(scenario)
    data.pop("strategies", None)
    payload = {"scenario": data, "params": params or {}}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def canonical_extraction_hash(scenario: Scenario | dict, *, eps: float) -> str:
    """Content address of the *extraction-relevant* slice of a solve.

    Candidate extraction (positions + PDCS sweeps, Algorithms 1/4) is a pure
    function of the geometry (bounds, devices, obstacles), the hardware
    tables (charger/device types, power coefficients), the approximation
    parameter ``eps`` — and of *which* charger types are active (budget > 0;
    zero-budget types are skipped entirely).  It does **not** depend on

    * budget magnitudes (they only bound the matroid the greedy runs under),
    * device power thresholds (they only shape the selection objective), or
    * selection flags (``lazy``, ``refine``, ``algorithm3_order``, ...).

    Those are therefore excluded, so a budget or threshold sweep over one
    topology maps every point to the same key — the contract behind the
    candidate-reuse tier (:mod:`repro.core.reuse`).
    """
    data = scenario_to_dict(scenario) if isinstance(scenario, Scenario) else dict(scenario)
    devices = [
        {
            "position": _field(d, "position", f"devices[{i}]"),
            "orientation": _field(d, "orientation", f"devices[{i}]"),
            "type": _field(d, "type", f"devices[{i}]"),
        }
        for i, d in enumerate(data.get("devices", []))
    ]
    budgets = data.get("budgets", {})
    payload = {
        "slice": {
            "bounds": data.get("bounds"),
            "charger_types": data.get("charger_types"),
            "device_types": data.get("device_types"),
            "coefficients": data.get("coefficients"),
            "devices": devices,
            "obstacles": data.get("obstacles"),
            "active_types": sorted(name for name, n in budgets.items() if int(n) > 0),
        },
        "eps": eps,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def scenario_to_dict(scenario: Scenario, strategies: Sequence[Strategy] = ()) -> dict:
    """Serialize a scenario (and optional placement) to plain JSON types."""
    dtypes: dict[str, DeviceType] = {}
    for d in scenario.devices:
        dtypes[d.dtype.name] = d.dtype
    coeffs = [
        {"charger": c, "device": d, "a": pc.a, "b": pc.b}
        for (c, d), pc in sorted(scenario.table.entries.items())
    ]
    out = {
        "version": FORMAT_VERSION,
        "bounds": list(scenario.bounds),
        "charger_types": [
            {
                "name": ct.name,
                "charging_angle": ct.charging_angle,
                "dmin": ct.dmin,
                "dmax": ct.dmax,
            }
            for ct in scenario.charger_types
        ],
        "device_types": [
            {"name": dt.name, "receiving_angle": dt.receiving_angle}
            for dt in sorted(dtypes.values(), key=lambda t: t.name)
        ],
        "coefficients": coeffs,
        "budgets": dict(scenario.budgets),
        "devices": [
            {
                "position": list(d.position),
                "orientation": d.orientation,
                "type": d.dtype.name,
                "threshold": d.threshold,
            }
            for d in scenario.devices
        ],
        "obstacles": [[list(map(float, v)) for v in h.vertices] for h in scenario.obstacles],
    }
    if strategies:
        out["strategies"] = strategies_to_list(strategies)
    return out


def _field(obj: dict, key: str, where: str):
    """``obj[key]`` with an error that names the missing field and its
    location instead of a bare ``KeyError``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{where}: missing required field {key!r}") from None


#: Largest float magnitude; beyond it a number is not finite as a float.
_FLOAT_MAX = sys.float_info.max


def _is_number(value) -> bool:
    """A finite real number within float range (so not NaN, an infinity or
    an integer too large to convert), and not a bool."""
    if type(value) is not float and type(value) is not int:  # JSON's own types first
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return False
    return abs(value) <= _FLOAT_MAX


def _finite(value, where: str):
    if not _is_number(value):
        raise ValueError(f"{where}: expected a finite number, got {value!r:.40}")
    return value


def _typed(value, expected: type | tuple[type, ...], where: str, label: str):
    if not isinstance(value, expected):
        raise ValueError(f"{where}: expected {label}, got {value!r:.40}")
    return value


def _number(obj: dict, key: str, where: str):
    return _finite(_field(obj, key, where), f"{where}.{key}")


def _name(obj: dict, key: str, where: str) -> str:
    return _typed(_field(obj, key, where), str, f"{where}.{key}", "a string")


def _items(obj: dict, key: str, where: str) -> list:
    return _typed(_field(obj, key, where), (list, tuple), f"{where}.{key}", "an array")


def _point(value, where: str) -> tuple:
    """``[x, y]`` of finite numbers, as a tuple."""
    if not (
        isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))
    ):
        raise ValueError(f"{where}: expected [x, y] finite numbers, got {value!r:.40}")
    return tuple(value)


def scenario_from_dict(data: dict) -> tuple[Scenario, list[Strategy]]:
    """Rebuild a scenario (and any stored placement) from JSON data.

    Malformed input raises :class:`ValueError` naming the offending field
    (e.g. ``devices[2]: missing required field 'threshold'``) rather than a
    bare ``KeyError`` or ``TypeError``, so CLI and HTTP callers get an
    actionable message.  Every number must be finite.
    """
    if not isinstance(data, dict):
        raise ValueError(f"scenario: expected a JSON object, got {type(data).__name__}")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported scenario format version {version!r:.40}")
    for key in ("bounds", "charger_types", "device_types", "coefficients", "budgets", "devices", "obstacles"):
        if key not in data:
            raise ValueError(f"scenario: missing required field {key!r}")
    ctypes = {}
    for i, c in enumerate(_items(data, "charger_types", "scenario")):
        where = f"charger_types[{i}]"
        name = _name(c, "name", where)
        ctypes[name] = ChargerType(
            name,
            _number(c, "charging_angle", where),
            _number(c, "dmin", where),
            _number(c, "dmax", where),
        )
    dtypes = {}
    for i, d in enumerate(_items(data, "device_types", "scenario")):
        where = f"device_types[{i}]"
        name = _name(d, "name", where)
        dtypes[name] = DeviceType(name, _number(d, "receiving_angle", where))
    entries = {}
    for i, c in enumerate(_items(data, "coefficients", "scenario")):
        where = f"coefficients[{i}]"
        entries[(_name(c, "charger", where), _name(c, "device", where))] = PairCoefficients(
            _number(c, "a", where), _number(c, "b", where)
        )
    table = CoefficientTable(entries)
    devices = []
    for i, d in enumerate(_items(data, "devices", "scenario")):
        where = f"devices[{i}]"
        type_name = _name(d, "type", where)
        if type_name not in dtypes:
            raise ValueError(f"{where}: unknown device type {type_name!r}")
        devices.append(
            Device(
                _point(_field(d, "position", where), f"{where}.position"),
                _number(d, "orientation", where),
                dtypes[type_name],
                _number(d, "threshold", where),
            )
        )
    obstacles = []
    for i, vs in enumerate(_items(data, "obstacles", "scenario")):
        vertices = _typed(vs, (list, tuple), f"obstacles[{i}]", "an array of [x, y] vertices")
        obstacles.append(Polygon([_point(v, f"obstacles[{i}][{j}]") for j, v in enumerate(vertices)]))
    bounds = tuple(_items(data, "bounds", "scenario"))
    if len(bounds) != 4 or not all(map(_is_number, bounds)):
        raise ValueError(f"bounds: expected [xmin, ymin, xmax, ymax], got {list(bounds)!r:.40}")
    budgets = _typed(data["budgets"], dict, "budgets", "an object mapping charger type -> count")
    scenario = Scenario(
        bounds=bounds,
        devices=tuple(devices),
        obstacles=tuple(obstacles),
        charger_types=tuple(ctypes.values()),
        budgets={k: int(_finite(n, f"budgets.{k}")) for k, n in budgets.items()},
        table=table,
    )
    strategies = strategies_from_list(data.get("strategies", []), ctypes)
    return scenario, strategies


def strategies_to_list(strategies: Sequence[Strategy]) -> list[dict]:
    """Serialize a placement."""
    return [
        {"position": list(s.position), "orientation": s.orientation, "type": s.ctype.name}
        for s in strategies
    ]


def strategies_from_list(items: Sequence[dict], ctypes: dict[str, ChargerType]) -> list[Strategy]:
    """Rebuild a placement against a charger-type catalogue."""
    out = []
    for i, item in enumerate(_typed(items, (list, tuple), "strategies", "an array")):
        where = f"strategies[{i}]"
        name = _name(item, "type", where)
        if name not in ctypes:
            raise ValueError(f"strategy references unknown charger type {name!r}")
        position = _point(_field(item, "position", where), f"{where}.position")
        out.append(Strategy(position, _number(item, "orientation", where), ctypes[name]))
    return out


def save_scenario(path: str, scenario: Scenario, strategies: Sequence[Strategy] = ()) -> None:
    """Write a scenario (and optional placement) to a JSON file."""
    with open(path, "w") as f:
        json.dump(scenario_to_dict(scenario, strategies), f, indent=2)


def load_scenario(path: str) -> tuple[Scenario, list[Strategy]]:
    """Read a scenario (and any stored placement) from a JSON file."""
    with open(path) as f:
        return scenario_from_dict(json.load(f))
