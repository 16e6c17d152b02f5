"""The scheduling model as data: points, links, model parameters, slots, schedules, instances.

Everything here is plain Python: generating, reading and writing instances
and schedules needs no linear algebra, so ``io``, ``topogen`` and ``gen``
never execute numpy. The affectance kernel, the slot verifier and the
scalar affectance definitions live in ``core``, which re-exports every name
defined here; ``Instance.kernel`` imports ``core`` on its first read.

Conventions used throughout:

- Equal-length links are allowed; whenever an ordering by length is needed,
  ties are broken by link id.
- A value is at most a bound when ``value <= ceiling(bound)``, the bound
  plus ``THRESHOLD_SLACK`` (1e-12) times min(bound, 1): a slack relative to
  any bound below 1, however small. Every threshold test (verifier,
  admission sweeps, oracles, gain matrices) decides by it; verifiers report
  margins so borderline cases are visible instead of silently flipping.

All types are immutable ``Record``s (an instance caches only values derived
from its fields) and every function is pure, so everything here is
safe for concurrent use.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    from .core import AffectanceRows

# Slack of threshold comparisons: relative to bounds below 1, absolute above.
THRESHOLD_SLACK = 1e-12


def ceiling(bound: float) -> float:
    """The largest value a threshold test admits as at most ``bound`` (inf stays inf)."""
    return bound + THRESHOLD_SLACK * min(bound, 1.0)


class SchedulingError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularityError(SchedulingError):
    """A link has zero length: its sender equals its receiver."""


class InfeasibleLinkError(SchedulingError):
    """A link cannot meet the SINR threshold even transmitting alone (P_vv <= beta*N)."""

    def __init__(self, link_id: int, message: str):
        super().__init__(message)
        self.link_id = link_id


class UnsupportedConfigurationError(SchedulingError):
    """The operation does not support this configuration (e.g. nonuniform power)."""


class PreconditionError(SchedulingError):
    """An input schedule does not satisfy the property the operation requires."""


class VerificationError(SchedulingError):
    """A produced schedule failed the independent feasibility verification."""

    def __init__(self, message: str, link_id: int | None = None, slot_index: int | None = None):
        super().__init__(message)
        self.link_id = link_id
        self.slot_index = slot_index


class SizeLimitError(SchedulingError):
    """Instance exceeds the configured limit for an exhaustive computation."""


class FrozenRecordError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a ``Record``."""


_set = object.__setattr__


class Record:
    """An immutable record whose fields are its ``__slots__``, in declaration order.

    A subclass names its fields in ``__slots__`` (``Instance`` adds
    ``__dict__`` for its cached properties) and the defaults of trailing
    fields in ``_defaults``. The constructor takes the fields by position or
    by name and then calls ``__post_init__``, a subclass's validation.
    Equality (within one class), hash and repr go by the fields, and so do
    pickling and ``replace``, which build the record anew and so validate.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        given = dict(zip(fields, args), **kwargs)
        # a field given twice or past the last field is lost from ``given``
        if len(given) < len(args) + len(kwargs) or given.keys() | self._defaults.keys() != set(fields):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(fields)}, "
                f"got {len(args)} positional and {sorted(kwargs)}"
            )
        for name in fields:
            _set(self, name, given[name] if name in given else self._defaults[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate (and normalize) the fields; a record without checks has nothing to do."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def replace(self, **changes: Any) -> Record:
        """A copy of this record with ``changes`` applied, validated as any new record."""
        values = dict(zip(self._fields, self._values()))
        values.update(changes)
        return type(self)(**values)

    __replace__ = replace  # copy.replace, Python 3.13


class Point(Record):
    """A point of the plane (abstract distance units): finite floats ``x``, ``y``, -0 stored as 0."""

    __slots__ = ("x", "y")

    # Point and Link are built 3n times per load: their constructors are written out
    def __init__(self, x: float, y: float) -> None:
        x, y = x + 0.0, y + 0.0
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"point coordinates must be finite, got ({x}, {y})")
        _set(self, "x", x)
        _set(self, "y", y)


class Link(Record):
    """A communication request, ``id``, from a ``sender`` Point to a ``receiver`` Point.

    ``id`` is a plain int: a bool or a float is refused. ``power`` is the per-link
    transmission power, a float; ``None`` means "use the instance-wide default".
    """

    __slots__ = ("id", "sender", "receiver", "power")

    def __init__(self, id: int, sender: Point, receiver: Point, power: float | None = None) -> None:
        if type(id) is not int:
            raise ValueError(f"link ids must be ints, got {id!r}")
        if sender.x == receiver.x and sender.y == receiver.y:
            raise SingularityError(f"link {id} has zero length (sender equals receiver)")
        power = None if power is None else power + 0.0
        if power is not None and not (power > 0 and math.isfinite(power)):
            raise ValueError(f"link {id}: power must be positive and finite")
        _set(self, "id", id)
        _set(self, "sender", sender)
        _set(self, "receiver", receiver)
        _set(self, "power", power)

    @property
    def length(self) -> float:
        return distance(self.sender, self.receiver)


class ModelParams(Record):
    """Physical-model parameters, floats: path-loss exponent, SINR threshold, noise, default power."""

    __slots__ = ("alpha", "beta", "noise", "default_power")
    _defaults = {"noise": 0.0, "default_power": 1.0}

    def __post_init__(self) -> None:
        for name in self._fields:
            _set(self, name, getattr(self, name) + 0.0)
        if not (math.isfinite(self.alpha) and self.alpha > 2):
            raise ValueError(f"alpha must be finite and > 2, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if not (math.isfinite(self.default_power) and self.default_power > 0):
            raise ValueError(f"default_power must be finite and > 0, got {self.default_power}")


MODEL_PARAM_NAMES = frozenset(ModelParams.__slots__)
DEFAULT_MODEL_PARAMS = ModelParams(alpha=3.0, beta=1.2, noise=0.0, default_power=1.0)


class Slot(Record):
    """A set of link ids, ``members``, scheduled to transmit concurrently: plain ints, as ``Link.id``."""

    __slots__ = ("members",)
    _defaults = {"members": frozenset()}

    def __post_init__(self) -> None:
        _set(self, "members", frozenset(self.members))
        for m in self.members:
            if type(m) is not int:
                raise ValueError(f"slot members must be integer link ids, got {m!r}")

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


class Schedule(Record):
    """An ordered tuple of ``slots``; a full schedule partitions the instance's links."""

    __slots__ = ("slots",)
    _defaults = {"slots": ()}

    def __post_init__(self) -> None:
        _set(self, "slots", tuple(self.slots))

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    def all_ids(self) -> list[int]:
        """All scheduled ids, with multiplicity (a valid schedule has no repeats)."""
        out: list[int] = []
        for s in self.slots:
            out.extend(s.members)
        return out


class Instance(Record):
    """A scheduling instance: model ``params`` plus an ordered tuple of ``links``.

    Construction validates that ids are distinct and that every link clears the
    noise margin P_vv > beta*N; dead links are rejected here with
    InfeasibleLinkError rather than silently dropped later. The cached
    properties derive from the fields, so equality, hash and pickles ignore them.
    """

    __slots__ = ("params", "links", "__dict__")

    def __post_init__(self) -> None:
        _set(self, "links", tuple(self.links))
        seen: set[int] = set()
        for link in self.links:
            if link.id in seen:
                raise ValueError(f"duplicate link id {link.id}")
            seen.add(link.id)
        for link in self.links:
            noise_factor(link, self.params)  # raises InfeasibleLinkError on dead links

    @cached_property
    def position(self) -> dict[int, int]:
        """The index in ``links`` of each link id."""
        return {link.id: i for i, link in enumerate(self.links)}

    @cached_property
    def has_uniform_power(self) -> bool:
        powers = {effective_power(link, self.params) for link in self.links}
        return len(powers) <= 1

    @cached_property
    def kernel(self) -> AffectanceRows:
        """The affectance kernel of ``links``, in their order: built once and read-only.

        Every stage reads it or gathers from it (``gather``). Its first read
        imports ``core``, and numpy with it.
        """
        from .core import AffectanceRows

        return AffectanceRows(self.links, self.params)

    def __len__(self) -> int:
        return len(self.links)

    def resolve(self, slot: Slot) -> tuple[Link, ...]:
        """Member links of ``slot`` in ascending id order.

        Raises KeyError on ids that do not belong to this instance.
        """
        return tuple(self.links[self.position[i]] for i in slot.sorted_members)

    def gather(self, ids: Iterable[int]) -> tuple[tuple[Link, ...], AffectanceRows]:
        """The links ``ids``, in that order, and their kernel read off ``kernel`` (``of_links``).

        Raises KeyError on ids that do not belong to this instance.
        """
        idx = [self.position[i] for i in ids]
        links = tuple(self.links[i] for i in idx)
        return links, self.kernel.of_links(idx, self.params)


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


def effective_power(link: Link, params: ModelParams) -> float:
    """The transmission power of a link, falling back to the instance default."""
    return link.power if link.power is not None else params.default_power


def received_power(source_sender: Point, target_receiver: Point, power: float, params: ModelParams) -> float:
    """Received power under polynomial path loss: power / distance^alpha.

    Infinite at distance 0, its limit: a sender on another link's receiver
    inflicts infinite interference on it.
    """
    d = distance(source_sender, target_receiver)
    return power / d ** params.alpha if d else math.inf


def noise_factor(link: Link, params: ModelParams) -> float:
    """Noise factor c_v = 1 / (1 - beta*N / P_vv) of a link.

    Equals 1 exactly in the absence of noise and grows as ambient noise eats
    into the link's SINR budget; for uniform power it is monotone nondecreasing
    in link length. Raises InfeasibleLinkError when P_vv <= beta*N (the link
    cannot meet the threshold even alone).
    """
    pvv = received_power(link.sender, link.receiver, effective_power(link, params), params)
    bn = params.beta * params.noise
    if pvv <= bn:
        raise InfeasibleLinkError(
            link.id,
            f"link {link.id} is infeasible even alone: received power {pvv:.6g} <= beta*noise {bn:.6g}",
        )
    return 1.0 / (1.0 - bn / pvv)


class PartitionReport(Record):
    """Whether a schedule exactly partitions an instance's link ids; if not, which ids break it."""

    __slots__ = ("is_partition", "missing", "duplicated", "dangling")


def partition_report(instance: Instance, schedule: Schedule) -> PartitionReport:
    """Compare scheduled ids against the instance: missing, duplicated, dangling."""
    counts: dict[int, int] = {}
    for i in schedule.all_ids():
        counts[i] = counts.get(i, 0) + 1
    known = instance.position.keys()
    dangling = tuple(sorted(i for i in counts if i not in known))
    duplicated = tuple(sorted(i for i, c in counts.items() if c > 1 and i in known))
    missing = tuple(sorted(i for i in known if i not in counts))
    ok = not (dangling or duplicated or missing)
    return PartitionReport(ok, missing, duplicated, dangling)
