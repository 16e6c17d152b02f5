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

import dataclasses
import json
import math
import os
import reprlib
from collections import Counter
from json.encoder import encode_basestring
from typing import Any, Iterable

from .model import MODEL_PARAM_NAMES, Instance, Link, ModelParams, Point, Schedule, Slot


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
        parts.append(encode_basestring(obj))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                parts.append(",")
            parts.append(encode_basestring(key))
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
    """Write ``obj`` as canonical JSON; a value that cannot be written leaves ``path`` untouched."""
    text = canonical_dumps(obj) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
    return {"params": dataclasses.asdict(instance.params), "links": links}


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
_LINK_KEYS = frozenset(("id", "sx", "sy", "rx", "ry", "power"))
_NUMBER_TYPES = frozenset((int, float))


def _typed(value: Any, kind: type, what: str) -> Any:
    """``value`` itself if it is the JSON object (dict), array, string or integer ``kind`` asks.

    Nothing is coerced: a bool or a float is no JSON integer.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}, got {_shown(value)}")
    return value


def _refuse_unknown(obj: dict, known: Iterable[str], what: str) -> None:
    """Refuse the keys of ``obj`` that are not in ``known``, naming them in sorted order."""
    unknown = set(obj).difference(known)
    if unknown:
        raise ValueError(f"unknown {what}: {_shown(sorted(unknown))}")


def instance_from_obj(obj: Any) -> Instance:
    _typed(obj, dict, "instance document")
    _refuse_unknown(obj, ("params", "links"), "top-level keys in instance file")
    try:
        raw_params = _typed(obj["params"], dict, "params")
        raw_links = _typed(obj["links"], list, "links")
    except KeyError as exc:
        raise ValueError(f"instance file missing key {exc}") from None
    _refuse_unknown(raw_params, MODEL_PARAM_NAMES, "params keys")
    try:
        params = ModelParams(
            alpha=_number(raw_params["alpha"], "alpha"),
            beta=_number(raw_params["beta"], "beta"),
            noise=_number(raw_params.get("noise", 0.0), "noise"),
            default_power=_number(raw_params.get("default_power", 1.0), "default_power"),
        )
    except KeyError as exc:
        raise ValueError(f"params missing key {exc}") from None
    links = []
    for raw in raw_links:
        link = _plain_link(raw)
        if link is None:
            _typed(raw, dict, "a link")
            _refuse_unknown(raw, _LINK_KEYS, "link keys")
            xy = {key: _number(raw[key], key) for key in ("sx", "sy", "rx", "ry")}
            link = Link(
                id=_link_id(raw["id"]),
                sender=Point(xy["sx"], xy["sy"]),
                receiver=Point(xy["rx"], xy["ry"]),
                power=_number(raw["power"], "power") if "power" in raw else None,
            )
        links.append(link)
    return Instance(params=params, links=tuple(links))


def _plain_link(raw: Any) -> Link | None:
    """The link of ``raw`` if no input check can fail on it, else None: a plain dict of
    known keys with the five required, an int id and int or float values in float range."""
    if not (
        type(raw) is dict
        and _LINK_KEYS.issuperset(raw)
        and _NUMBER_TYPES.issuperset(map(type, raw.values()))
        and type(raw.get("id")) is int
    ):
        return None
    try:
        sx, sy, rx, ry = float(raw["sx"]), float(raw["sy"]), float(raw["rx"]), float(raw["ry"])
        power = float(raw["power"]) if "power" in raw else None
    except (KeyError, OverflowError):
        return None
    return Link(id=raw["id"], sender=Point(sx, sy), receiver=Point(rx, ry), power=power)


def schedule_to_obj(schedule: Schedule) -> dict:
    return {"slots": [list(slot.sorted_members) for slot in schedule.slots]}


def schedule_from_obj(obj: Any) -> Schedule:
    if not isinstance(obj, dict) or "slots" not in obj:
        raise ValueError("schedule document must be a JSON object with a 'slots' key")
    _refuse_unknown(obj, ("slots",), "top-level keys in schedule file")
    slots = []
    for raw in _typed(obj["slots"], list, "slots"):
        members = [_link_id(i) for i in _typed(raw, list, "a slot")]
        if len(set(members)) != len(members):
            raise ValueError(f"slot contains duplicate ids: {_shown(raw)}")
        slots.append(Slot(frozenset(members)))
    return Schedule(tuple(slots))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The dict of one JSON object's pairs; a key given twice is an input error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        twice = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise ValueError(f"duplicate key in a JSON object: {_shown(twice)}")
    return obj


def read_json(path: str | os.PathLike) -> Any:
    """Parse one JSON file; a duplicate key, or nesting too deep for the parser, is an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
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
