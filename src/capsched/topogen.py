"""Seeded topology generators for the two experiment families.

Instances are reproducible across machines: all randomness comes from a
Philox 4x64 counter-based generator keyed directly with the topology seed, and
the draw order per entity is fixed and documented on each generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_MODEL_PARAMS, Instance, Link, ModelParams, Point
from .io import _shown

FAMILIES = ("random", "clustered")


@dataclass(frozen=True)
class TopologySpec:
    """Parameters of a generated topology.

    n_clusters defaults to max(1, n // 10) when left unset; when n is not
    divisible by the cluster count, the remainder links go to the first
    clusters, one each.
    """

    family: str
    n: int
    seed: int
    field_size: float = 1000.0
    l_max: float = 20.0
    n_clusters: int | None = None
    r_cluster: float = 10.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {_shown(self.family)}")
        if self.n < 1:
            raise ValueError(f"need at least one link, got n={self.n}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if not (self.field_size > 0 and self.l_max > 0 and self.r_cluster > 0):
            raise ValueError("field_size, l_max and r_cluster must be positive")
        if self.n_clusters is not None and self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")

    @property
    def resolved_clusters(self) -> int:
        return self.n_clusters if self.n_clusters is not None else max(1, self.n // 10)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _disc_offset(rng: np.random.Generator, radius: float) -> tuple[float, float]:
    """Uniform point in the disc of the given radius around the origin.

    Exactly two draws: r = radius*sqrt(u1), angle = 2*pi*u2. sqrt keeps the
    area density uniform without rejection.
    """
    r = radius * math.sqrt(rng.random())
    angle = 2.0 * math.pi * rng.random()
    return r * math.cos(angle), r * math.sin(angle)


def gen_random(
    spec: TopologySpec, params: ModelParams = DEFAULT_MODEL_PARAMS
) -> Instance:
    """Receivers uniform on the field square, senders in discs around them.

    Per link, in order: receiver x, receiver y, then the two disc draws for
    the sender offset (redrawn, both, while the offset is exactly zero so
    links never degenerate). Senders may land outside the field; the
    construction never clips.
    """
    if spec.family != "random":
        raise ValueError(f"gen_random got family {spec.family!r}")
    rng = _rng(spec.seed)
    links = []
    for i in range(spec.n):
        rx = spec.field_size * rng.random()
        ry = spec.field_size * rng.random()
        dx, dy = _disc_offset(rng, spec.l_max)
        while dx == 0.0 and dy == 0.0:
            dx, dy = _disc_offset(rng, spec.l_max)
        links.append(Link(id=i, sender=Point(rx + dx, ry + dy), receiver=Point(rx, ry)))
    return Instance(params=params, links=tuple(links))


def gen_clustered(
    spec: TopologySpec, params: ModelParams = DEFAULT_MODEL_PARAMS
) -> Instance:
    """Cluster centers on the field, whole links inside each cluster's disc.

    Draw order: first all cluster centers (x then y each), then links
    cluster by cluster. Each link draws its sender and then its receiver
    independently and uniformly in the cluster disc (two draws each); both
    endpoints are redrawn if they coincide exactly. Link ids run 0..n-1 in
    generation order.
    """
    if spec.family != "clustered":
        raise ValueError(f"gen_clustered got family {spec.family!r}")
    rng = _rng(spec.seed)
    k = spec.resolved_clusters
    centers = []
    for _ in range(k):
        cx = spec.field_size * rng.random()
        cy = spec.field_size * rng.random()
        centers.append((cx, cy))
    base, extra = divmod(spec.n, k)
    quotas = [base + (1 if c < extra else 0) for c in range(k)]
    links = []
    for c, (cx, cy) in enumerate(centers):
        for _ in range(quotas[c]):
            while True:
                sx, sy = _disc_offset(rng, spec.r_cluster)
                tx, ty = _disc_offset(rng, spec.r_cluster)
                if (sx, sy) != (tx, ty):
                    break
            links.append(
                Link(
                    id=len(links),
                    sender=Point(cx + sx, cy + sy),
                    receiver=Point(cx + tx, cy + ty),
                )
            )
    return Instance(params=params, links=tuple(links))


def generate(
    spec: TopologySpec, params: ModelParams = DEFAULT_MODEL_PARAMS
) -> Instance:
    """Dispatch to the generator matching spec.family."""
    if spec.family == "random":
        return gen_random(spec, params)
    return gen_clustered(spec, params)
