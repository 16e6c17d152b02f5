"""The scheduling model as data: points, links, model parameters, slots, schedules, instances.

Everything here is plain Python: generating, reading and writing instances
and schedules needs no linear algebra, so ``io``, ``topogen`` and ``gen``
never execute numpy. The affectance kernel, the slot verifier and the
scalar affectance definitions live in ``core``, which re-exports every name
defined here; ``Instance.kernel`` imports ``core`` on its first read.

Conventions used throughout:

- Equal-length links are allowed; whenever an ordering by length is needed,
  ties are broken by link id.
- Threshold comparisons use ``<=`` with an absolute slack of 1e-12
  (``THRESHOLD_SLACK``); verifiers report margins so borderline cases are
  visible instead of silently flipping.

All types are immutable after construction (an instance caches only values
derived from its fields) and every function is pure, so everything here is
safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .core import AffectanceRows

# Absolute slack for feasibility-style threshold comparisons (a <= bound + slack).
THRESHOLD_SLACK = 1e-12


class SchedulingError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularityError(SchedulingError):
    """A distance that must be positive is zero (coincident points)."""


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


@dataclass(frozen=True)
class Point:
    """A point in the Euclidean plane (abstract distance units)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Link:
    """A communication request from a sender to a receiver.

    ``power`` is the per-link transmission power; ``None`` means "use the
    instance-wide default".
    """

    id: int
    sender: Point
    receiver: Point
    power: float | None = None

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise SingularityError(f"link {self.id} has zero length (sender equals receiver)")
        if self.power is not None and not (self.power > 0 and math.isfinite(self.power)):
            raise ValueError(f"link {self.id}: power must be positive and finite")

    @property
    def length(self) -> float:
        return distance(self.sender, self.receiver)


@dataclass(frozen=True)
class ModelParams:
    """Physical-model parameters: path-loss exponent, SINR threshold, noise, default power."""

    alpha: float
    beta: float
    noise: float = 0.0
    default_power: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 2):
            raise ValueError(f"alpha must be finite and > 2, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if not (math.isfinite(self.default_power) and self.default_power > 0):
            raise ValueError(f"default_power must be finite and > 0, got {self.default_power}")


MODEL_PARAM_NAMES = frozenset(f.name for f in fields(ModelParams))
DEFAULT_MODEL_PARAMS = ModelParams(alpha=3.0, beta=1.2, noise=0.0, default_power=1.0)


@dataclass(frozen=True)
class Slot:
    """A set of link ids scheduled to transmit concurrently."""

    members: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        for m in self.members:
            if not isinstance(m, int):
                raise ValueError(f"slot members must be integer link ids, got {m!r}")

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Schedule:
    """An ordered list of slots; a full schedule partitions the instance's links."""

    slots: tuple[Slot, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", tuple(self.slots))

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    def all_ids(self) -> list[int]:
        """All scheduled ids, with multiplicity (a valid schedule has no repeats)."""
        out: list[int] = []
        for s in self.slots:
            out.extend(s.members)
        return out


@dataclass(frozen=True)
class Instance:
    """A scheduling instance: model parameters plus an ordered collection of links.

    Construction validates that ids are distinct and that every link clears the
    noise margin P_vv > beta*N; dead links are rejected here with
    InfeasibleLinkError rather than silently dropped later.
    """

    params: ModelParams
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
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
        """The affectance kernel of ``links``, in their order: built once, read-only, unscanned.

        Every stage reads it or gathers from it (``gather``). Its first read
        imports ``core``, and numpy with it.
        """
        from .core import AffectanceRows

        return AffectanceRows(self.links, self.params)

    def __len__(self) -> int:
        return len(self.links)

    def __getstate__(self) -> dict:
        # the cached properties derive from the fields: a pickle carries the fields only
        return {"params": self.params, "links": self.links}

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
        return links, self.kernel.of_links(idx, links, self.params)


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


def effective_power(link: Link, params: ModelParams) -> float:
    """The transmission power of a link, falling back to the instance default."""
    return link.power if link.power is not None else params.default_power


def received_power(source_sender: Point, target_receiver: Point, power: float, params: ModelParams) -> float:
    """Received power under polynomial path loss: power / distance^alpha.

    Raises SingularityError when sender and receiver coincide.
    """
    d = distance(source_sender, target_receiver)
    if d == 0.0:
        raise SingularityError("received power undefined at distance 0")
    return power / d ** params.alpha


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


@dataclass(frozen=True)
class PartitionReport:
    """Whether a schedule exactly partitions an instance's link ids."""

    is_partition: bool
    missing: tuple[int, ...]
    duplicated: tuple[int, ...]
    dangling: tuple[int, ...]


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
