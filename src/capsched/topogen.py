"""Seeded topology generators for the two experiment families.

Instances are reproducible across machines: all randomness comes from one
Philox4x64-10 stream keyed directly with the topology seed (``uniforms``,
numpy's stream computed a batch of blocks at a time, bit-sliced across Python
ints, in numpy's draw order), and the draw order per entity is fixed and
documented on each generator.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from typing import Callable, Iterator

from .model import DEFAULT_MODEL_PARAMS, Instance, Link, ModelParams, Point, Record
from .io import _shown

FAMILIES = ("random", "clustered")


class TopologySpec(Record):
    """Parameters of a generated topology.

    n_clusters defaults to max(1, n // 10) when left unset; when n is not
    divisible by the cluster count, the remainder links go to the first
    clusters, one each.
    """

    __slots__ = ("family", "n", "seed", "field_size", "l_max", "n_clusters", "r_cluster")
    _defaults = {"field_size": 1000.0, "l_max": 20.0, "n_clusters": None, "r_cluster": 10.0}

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


# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, *Parallel Random Numbers: As Easy
# as 1, 2, 3*, SC 2011): the round multipliers and the Weyl increments of the key
_M0, _M1, _W0, _W1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157, 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_MASK = (1 << 64) - 1
# blocks in the first batch of ``uniforms`` and, doubling per batch, in the widest (by measurement)
_FIRST_LANES, _LANES = 4, 256


def _round_keys(seed: int) -> list[tuple[int, int]]:
    """The ten round keys of the key (seed, 0)."""
    return [((seed + r * _W0) & _MASK, r * _W1 & _MASK) for r in range(10)]


def _blocks(keys: list[tuple[int, int]], counter: int, lanes: int, rep: int, ramp: int) -> Iterator[float]:
    """The draws of the ``lanes`` blocks from ``counter`` (256 bits) on, block by block, word by word.

    Bit-sliced: lane i of each Python int holds block ``counter + i``'s word in bits
    128i to 128i + 63, so a round is two multiplications, two shifts, four ANDs and
    four XORs over all blocks. ``rep`` holds 1 in each lane, ``ramp`` holds i in lane i,
    ``keys`` are the round keys times ``rep``; each counter word's carry ripples into the next.
    """
    words, carry, mask = [], ramp, rep * _MASK
    for shift in (0, 64, 128, 192):
        word = (counter >> shift & _MASK) * rep + carry
        words.append(word & mask)
        carry = word >> 64 & rep
    c0, c1, c2, c3 = words
    for k0, k1 in keys:
        p0, p1 = _M0 * c0, _M1 * c2
        c0, c1, c2, c3 = (p1 >> 64 & mask) ^ c1 ^ k0, p1 & mask, (p0 >> 64 & mask) ^ c3 ^ k1, p0 & mask
    out = array("Q", bytes(32 * lanes))
    for i, word in enumerate((c0, c1, c2, c3)):
        out[i::4] = array("Q", (word >> 11).to_bytes(16 * lanes, "little"))[::2]
    if sys.byteorder == "big":
        out.byteswap()
    return map((2.0**-53).__mul__, out)


def _batches(keys: list[tuple[int, int]]) -> Iterator[Iterator[float]]:
    """``uniforms``' batches: _FIRST_LANES blocks, then twice as many per batch up to _LANES."""
    counter, lanes, rep, ramp = 1, 1, 1, 0
    while True:
        if lanes < _LANES:
            rep, ramp = rep | rep << 128 * lanes, ramp | (ramp + lanes * rep) << 128 * lanes
            keys = [(k0 | k0 << 128 * lanes, k1 | k1 << 128 * lanes) for k0, k1 in keys]
            lanes *= 2
        if lanes >= _FIRST_LANES:
            yield _blocks(keys, counter, lanes, rep, ramp)
            counter += lanes


def uniforms(seed: int) -> Iterator[float]:
    """numpy's ``Generator(Philox(key=seed)).random()`` stream, bit for bit, in pure Python.

    Key (seed, 0); the 256-bit counter starts at 0 and is incremented before
    each block; each block's four words, in order, each word u as (u >> 11) * 2^-53.
    Batches of blocks (``_blocks``) leave that order as it is.
    """
    return itertools.chain.from_iterable(_batches(_round_keys(seed)))


def _disc_offset(random: Callable[[], float], radius: float) -> tuple[float, float]:
    """Uniform point in the disc of the given radius around the origin.

    Exactly two draws: r = radius*sqrt(u1), angle = 2*pi*u2. sqrt keeps the
    area density uniform without rejection.
    """
    r = radius * math.sqrt(random())
    angle = 2.0 * math.pi * random()
    return r * math.cos(angle), r * math.sin(angle)


def gen_random(spec: TopologySpec, params: ModelParams = DEFAULT_MODEL_PARAMS) -> Instance:
    """Receivers uniform on the field square, senders in discs around them.

    Per link, in order: receiver x, receiver y, then the two disc draws for
    the sender offset (redrawn, both, while the offset is exactly zero so
    links never degenerate). Senders may land outside the field; the
    construction never clips.
    """
    if spec.family != "random":
        raise ValueError(f"gen_random got family {spec.family!r}")
    random = uniforms(spec.seed).__next__
    links = []
    for i in range(spec.n):
        rx = spec.field_size * random()
        ry = spec.field_size * random()
        dx, dy = _disc_offset(random, spec.l_max)
        while dx == 0.0 and dy == 0.0:
            dx, dy = _disc_offset(random, spec.l_max)
        links.append(Link(id=i, sender=Point(rx + dx, ry + dy), receiver=Point(rx, ry)))
    return Instance(params=params, links=tuple(links))


def gen_clustered(spec: TopologySpec, params: ModelParams = DEFAULT_MODEL_PARAMS) -> Instance:
    """Cluster centers on the field, whole links inside each cluster's disc.

    Draw order: first all cluster centers (x then y each), then links
    cluster by cluster. Each link draws its sender and then its receiver
    independently and uniformly in the cluster disc (two draws each); both
    endpoints are redrawn if they coincide exactly. Link ids run 0..n-1 in
    generation order.
    """
    if spec.family != "clustered":
        raise ValueError(f"gen_clustered got family {spec.family!r}")
    random = uniforms(spec.seed).__next__
    k = spec.resolved_clusters
    centers = [(spec.field_size * random(), spec.field_size * random()) for _ in range(k)]
    base, extra = divmod(spec.n, k)
    quotas = [base + (1 if c < extra else 0) for c in range(k)]
    links = []
    for c, (cx, cy) in enumerate(centers):
        for _ in range(quotas[c]):
            while True:
                sx, sy = _disc_offset(random, spec.r_cluster)
                tx, ty = _disc_offset(random, spec.r_cluster)
                if (sx, sy) != (tx, ty):
                    break
            sender, receiver = Point(cx + sx, cy + sy), Point(cx + tx, cy + ty)
            links.append(Link(id=len(links), sender=sender, receiver=receiver))
    return Instance(params=params, links=tuple(links))


def generate(spec: TopologySpec, params: ModelParams = DEFAULT_MODEL_PARAMS) -> Instance:
    """Dispatch to the generator matching spec.family."""
    if spec.family == "random":
        return gen_random(spec, params)
    return gen_clustered(spec, params)
