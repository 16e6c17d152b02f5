"""Canonical file formats: instances, schedules, and byte-stable JSON emission.

The on-disk formats are JSON with a canonical rendering so that identical
objects always serialize to identical bytes: keys sorted, compact separators,
floats printed with 17 significant digits (enough to round-trip IEEE doubles),
a single trailing newline, UTF-8.

Instance file::

    {"links": [{"id": 0, "rx": ..., "ry": ..., "sx": ..., "sy": ..., "power": ...}, ...],
     "params": {"alpha": ..., "beta": ..., "default_power": ..., "noise": ...}}

(``power`` omitted means "use the default"). Schedule file::

    {"slots": [[link ids, ascending], ...]}
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from typing import Any

from .core import Instance, Link, ModelParams, Point, Schedule, Slot


def format_float(x: float) -> str:
    """Canonical text for one float: 17 significant digits, -0 normalized."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    if x == 0.0:
        x = 0.0
    return f"{x:.17g}"


def canonical_dumps(obj: Any) -> str:
    """Serialize to canonical JSON (sorted keys, pinned float format)."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj: Any, parts: list[str]) -> None:
    if isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(repr(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                parts.append(",")
            parts.append(json.dumps(key, ensure_ascii=False))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_canonical(path: str | os.PathLike, obj: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_dumps(obj))
        fh.write("\n")


def instance_to_obj(instance: Instance) -> dict:
    links = []
    for link in instance.links:
        entry: dict[str, Any] = {
            "id": link.id,
            "sx": link.sender.x,
            "sy": link.sender.y,
            "rx": link.receiver.x,
            "ry": link.receiver.y,
        }
        if link.power is not None:
            entry["power"] = link.power
        links.append(entry)
    p = instance.params
    return {
        "params": {
            "alpha": p.alpha,
            "beta": p.beta,
            "noise": p.noise,
            "default_power": p.default_power,
        },
        "links": links,
    }


def _shown(value: Any) -> str:
    """An input value for an error message: its ``reprlib`` repr, cut at 60 characters."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def _link_id(value: Any) -> int:
    """A link id as written in a file: a JSON integer, nothing coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"link ids must be JSON integers, got {_shown(value)}")
    return value


def _number(value: Any, name: str) -> float:
    """A number as written in a file: a JSON integer or float, nothing coerced."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a JSON number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of float range: {_shown(value)}") from None


_JSON_KINDS = {dict: "object", list: "array", str: "string", int: "integer"}


def _typed(value: Any, kind: type, what: str) -> Any:
    """``value`` itself if it is the JSON object (dict), array, string or integer ``kind`` asks.

    Nothing is coerced: a bool or a float is no JSON integer.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}, got {_shown(value)}")
    return value


def instance_from_obj(obj: Any) -> Instance:
    _typed(obj, dict, "instance document")
    unknown = set(obj) - {"params", "links"}
    if unknown:
        raise ValueError(f"unknown top-level keys in instance file: {_shown(sorted(unknown))}")
    try:
        raw_params = _typed(obj["params"], dict, "params")
        raw_links = _typed(obj["links"], list, "links")
    except KeyError as exc:
        raise ValueError(f"instance file missing key {exc}") from None
    unknown = set(raw_params) - {"alpha", "beta", "noise", "default_power"}
    if unknown:
        raise ValueError(f"unknown params keys: {_shown(sorted(unknown))}")
    params = ModelParams(
        alpha=_number(raw_params["alpha"], "alpha"),
        beta=_number(raw_params["beta"], "beta"),
        noise=_number(raw_params.get("noise", 0.0), "noise"),
        default_power=_number(raw_params.get("default_power", 1.0), "default_power"),
    )
    links = []
    for raw in raw_links:
        _typed(raw, dict, "a link")
        unknown = set(raw) - {"id", "sx", "sy", "rx", "ry", "power"}
        if unknown:
            raise ValueError(f"unknown link keys: {_shown(sorted(unknown))}")
        xy = {key: _number(raw[key], key) for key in ("sx", "sy", "rx", "ry")}
        links.append(
            Link(
                id=_link_id(raw["id"]),
                sender=Point(xy["sx"], xy["sy"]),
                receiver=Point(xy["rx"], xy["ry"]),
                power=_number(raw["power"], "power") if "power" in raw else None,
            )
        )
    return Instance(params=params, links=tuple(links))


def schedule_to_obj(schedule: Schedule) -> dict:
    return {"slots": [list(slot.sorted_members) for slot in schedule.slots]}


def schedule_from_obj(obj: Any) -> Schedule:
    if not isinstance(obj, dict) or "slots" not in obj:
        raise ValueError("schedule document must be a JSON object with a 'slots' key")
    unknown = set(obj) - {"slots"}
    if unknown:
        raise ValueError(f"unknown top-level keys in schedule file: {_shown(sorted(unknown))}")
    slots = []
    for raw in _typed(obj["slots"], list, "slots"):
        members = [_link_id(i) for i in _typed(raw, list, "a slot")]
        if len(set(members)) != len(members):
            raise ValueError(f"slot contains duplicate ids: {_shown(raw)}")
        slots.append(Slot(frozenset(members)))
    return Schedule(tuple(slots))


def read_json(path: str | os.PathLike) -> Any:
    """Parse one JSON file; nesting too deep for the parser is an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{os.fspath(path)}: JSON nested too deeply") from None


def save_instance(instance: Instance, path: str | os.PathLike) -> None:
    write_canonical(path, instance_to_obj(instance))


def load_instance(path: str | os.PathLike) -> Instance:
    return instance_from_obj(read_json(path))


def save_schedule(schedule: Schedule, path: str | os.PathLike) -> None:
    write_canonical(path, schedule_to_obj(schedule))


def load_schedule(path: str | os.PathLike) -> Schedule:
    return schedule_from_obj(read_json(path))
