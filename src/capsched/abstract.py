"""Non-geometric SINR: explicit gain matrices and the graph reduction.

Here path loss is an arbitrary matrix rather than a function of coordinates.
The module provides feasibility over such matrices, the reduction that turns
a graph into a gain matrix whose feasible sets are exactly the independent
sets, and an export bridging geometric instances into matrix form.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    THRESHOLD_SLACK,
    Instance,
    SizeLimitError,
    single_affectance,
)
from .io import read_json, write_canonical
from .oracles import bitmask, peel_lattice


@dataclass(frozen=True, eq=False)
class GainMatrix:
    """A square matrix of pairwise affectances with a feasibility threshold.

    entries[i, j] is the affectance of link i on link j; the diagonal is
    zero by convention. A set is feasible when every member's incoming sum
    stays below the threshold.
    """

    entries: np.ndarray
    threshold: float = 1.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValueError("entries must be finite and nonnegative")
        if np.diag(arr).any():
            raise ValueError("diagonal entries must be zero")
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GainMatrix):
            return NotImplemented
        return self.threshold == other.threshold and np.array_equal(
            self.entries, other.entries
        )


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, rejecting duplicate edges in the input."""
        seen = set()
        for u, v in pairs:
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        return Graph(n=n, edges=frozenset(seen))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n, self.n))
        for u, v in self.edges:
            adj[u, v] = adj[v, u] = 1.0
        return adj


def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """True when no two of the given vertices share an edge."""
    chosen = sorted(set(vertices))
    for i, u in enumerate(chosen):
        if not 0 <= u < graph.n:
            raise IndexError(f"vertex {u} out of range")
        for v in chosen[i + 1 :]:
            if graph.has_edge(u, v):
                return False
    return True


def abstract_affectance(
    matrix: GainMatrix, members: Iterable[int], v: int
) -> float:
    """Sum of the matrix affectances of the member links on link v."""
    if not 0 <= v < matrix.n:
        raise IndexError(f"index {v} out of range for n={matrix.n}")
    total = 0.0
    for w in sorted(set(members)):
        if not 0 <= w < matrix.n:
            raise IndexError(f"index {w} out of range for n={matrix.n}")
        if w != v:
            total += float(matrix.entries[w, v])
    return total


def abstract_feasible(
    matrix: GainMatrix, members: Iterable[int], strict: bool = True
) -> bool:
    """Whether every member's incoming affectance stays within the threshold.

    The graph-reduction arguments compare strictly against the threshold;
    the geometric bridge uses the non-strict variant to match the <= 1/beta
    feasibility convention.
    """
    chosen = sorted(set(members))
    for v in chosen:
        a = abstract_affectance(matrix, chosen, v)
        if strict:
            if not a < matrix.threshold:
                return False
        elif not a <= matrix.threshold + THRESHOLD_SLACK:
            return False
    return True


def graph_to_instance(graph: Graph) -> GainMatrix:
    """Encode a graph so that feasible sets are exactly independent sets.

    Adjacent vertices affect each other by 2 (instantly infeasible
    together); non-adjacent ones by 1/n, small enough that any independent
    set sums below 1.
    """
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")
    n = graph.n
    entries = np.full((n, n), 1.0 / n)
    for u, v in graph.edges:
        entries[u, v] = entries[v, u] = 2.0
    np.fill_diagonal(entries, 0.0)
    return GainMatrix(entries=entries, threshold=1.0)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Result of checking independent-set / feasible-set correspondence."""

    ok: bool
    counterexample: tuple[int, ...] | None
    subsets_checked: int


EXHAUSTIVE_LIMIT = 20
# masks per vectorized block of the correspondence check
CHUNK = 4096


def correspondence_check(
    graph: Graph,
    mode: str = "auto",
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    sample_size: int = 20000,
    seed: int = 0,
) -> CorrespondenceReport:
    """Verify that feasibility in the reduction matrix matches independence.

    In exhaustive mode every subset is enumerated in ascending bitmask order
    (vertex k on bit k), ``CHUNK`` masks at a time: the incoming sums of a
    block come from one subset-lattice pass over its low bits, started from
    the sums of its high bits, and both verdicts are bitmasks (the members
    over the threshold, and the neighbours of the members, ANDed with the
    mask). Sample mode checks ``sample_size`` subsets drawn from a
    counter-based generator; "auto" picks by ``exhaustive_limit``. Any
    mismatch is re-verified with the scalar definitions before being
    reported, so a false alarm in the fast path cannot produce a spurious
    counterexample.

    Raises:
        SizeLimitError: in explicit exhaustive mode on a graph above the
            limit.
    """
    if mode not in ("auto", "exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    matrix = graph_to_instance(graph)
    n = graph.n
    gains = np.asarray(matrix.entries)

    def first_confirmed(subsets) -> tuple[int, ...] | None:
        for subset in subsets:
            if abstract_feasible(matrix, subset) != is_independent_set(graph, subset):
                return subset
        return None

    if mode == "exhaustive" and n > exhaustive_limit:
        raise SizeLimitError(
            f"{n} vertices exceed the exhaustive correspondence limit "
            f"{exhaustive_limit}"
        )
    exhaustive = mode == "exhaustive" or (mode == "auto" and n <= exhaustive_limit)
    checked = 0
    if exhaustive:
        neighbours = bitmask(graph.adjacency() > 0)  # bit u of entry v: edge (u, v)
        low = min(n, CHUNK.bit_length() - 1)
        # sums and neighbours of every high-bit part, then of every low-bit part
        high_sums = np.zeros((n, 1 << (n - low)))
        peel_lattice(high_sums, gains[low:])
        high_adjacent = np.zeros(1 << (n - low), dtype=np.int64)
        peel_lattice(high_adjacent, neighbours[low:], np.bitwise_or)
        low_adjacent = np.zeros(1 << low, dtype=np.int64)
        peel_lattice(low_adjacent, neighbours[:low], np.bitwise_or)
        incoming = np.empty((n, 1 << low))
        for high, start in enumerate(range(0, 1 << n, 1 << low)):
            masks = np.arange(start, start + (1 << low), dtype=np.int64)
            incoming[:, 0] = high_sums[:, high]
            peel_lattice(incoming, gains[:low])
            feasible = (bitmask(incoming >= matrix.threshold) & masks) == 0
            independent = ((low_adjacent | high_adjacent[high]) & masks) == 0
            bad = first_confirmed(
                tuple(v for v in range(n) if mask >> v & 1)
                for mask in masks[feasible != independent].tolist()
            )
            checked += len(masks)
            if bad is not None:
                return CorrespondenceReport(False, bad, checked)
    else:
        adj = graph.adjacency()
        rng = np.random.Generator(np.random.Philox(key=seed))
        remaining = sample_size
        while remaining > 0:
            take = min(CHUNK, remaining)
            rows = rng.integers(0, 2, size=(take, n)).astype(float)
            members = rows > 0
            feasible = ~np.any(members & (rows @ gains >= matrix.threshold), axis=1)
            independent = ~np.any(members & (rows @ adj > 0), axis=1)
            bad = first_confirmed(
                tuple(np.flatnonzero(members[row]).tolist())
                for row in np.flatnonzero(feasible != independent)
            )
            checked += take
            remaining -= take
            if bad is not None:
                return CorrespondenceReport(False, bad, checked)
    return CorrespondenceReport(True, None, checked)


def export_gain_matrix(instance: Instance) -> GainMatrix:
    """Bridge a geometric instance into matrix form.

    Entries are the pairwise affectances computed by the scalar definitions
    (deliberately not the vectorized matrix routine) and the threshold is
    1/beta, so non-strict matrix feasibility coincides with the geometric
    checker on every subset.
    """
    links = sorted(instance.links, key=lambda l: l.id)
    n = len(links)
    entries = np.zeros((n, n))
    for i, w in enumerate(links):
        for j, v in enumerate(links):
            if i != j:
                entries[i, j] = single_affectance(w, v, instance.params)
    return GainMatrix(entries=entries, threshold=1.0 / instance.params.beta)


# --- plain-text formats -------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the `n m` header plus `u v` pair lines (0-indexed)."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("edge list needs an 'n m' header")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"edge list contains a non-integer token: {exc}") from None
    n, m = values[0], values[1]
    if n < 0 or m < 0:
        raise ValueError(f"invalid header n={n} m={m}")
    pairs = values[2:]
    if len(pairs) != 2 * m:
        raise ValueError(
            f"header announces {m} edges but {len(pairs) // 2} pair tokens follow"
        )
    edges = [(pairs[2 * k], pairs[2 * k + 1]) for k in range(m)]
    return Graph.from_edges(n, edges)


def format_edge_list(graph: Graph) -> str:
    lines = [f"{graph.n} {len(graph.edges)}"]
    for u, v in sorted(graph.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def load_graph(path: str | os.PathLike) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def save_graph(graph: Graph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(graph))


def gain_matrix_to_obj(matrix: GainMatrix) -> dict:
    return {
        "n": matrix.n,
        "threshold": matrix.threshold,
        "entries": [float(x) for x in matrix.entries.reshape(-1)],
    }


def gain_matrix_from_obj(obj: dict) -> GainMatrix:
    unknown = set(obj) - {"n", "threshold", "entries"}
    if unknown:
        raise ValueError(f"unknown gain matrix keys: {sorted(unknown)}")
    n = obj["n"]
    entries = np.asarray(obj["entries"], dtype=float)
    if entries.size != n * n:
        raise ValueError(f"expected {n * n} entries, got {entries.size}")
    return GainMatrix(
        entries=entries.reshape(n, n), threshold=float(obj.get("threshold", 1.0))
    )


def save_gain_matrix(matrix: GainMatrix, path: str | os.PathLike) -> None:
    write_canonical(path, gain_matrix_to_obj(matrix))


def load_gain_matrix(path: str | os.PathLike) -> GainMatrix:
    return gain_matrix_from_obj(read_json(path))
