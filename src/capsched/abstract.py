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
from typing import Any, Iterable

import numpy as np

from .core import Instance, SizeLimitError, ceiling, id_ordered
from .io import _number, _refuse_unknown, _typed, read_json, write_canonical


@dataclass(frozen=True, eq=False)
class GainMatrix:
    """A square matrix of pairwise affectances with a feasibility threshold.

    entries[i, j] is the affectance of link i on link j; the diagonal is
    zero by convention. A set is feasible when every member's incoming sum
    is at most the threshold (``core.ceiling``).
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


def abstract_feasible(matrix: GainMatrix, members: Iterable[int]) -> bool:
    """Whether every member's incoming affectance is at most the threshold (``core.ceiling``)."""
    chosen = sorted(set(members))
    bound = ceiling(matrix.threshold)
    return all(abstract_affectance(matrix, chosen, v) <= bound for v in chosen)


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


# a graph whose reduction matrix the certificate cannot vouch for is
# enumerated on every subset up to this many vertices
EXHAUSTIVE_LIMIT = 20


def correspondence_check(graph: Graph) -> CorrespondenceReport:
    """Verify that feasibility in the reduction matrix matches independence.

    The entries are non-negative, so two tests certify every subset at once.
    Each edge carries an entry above the threshold in one direction, so any
    set holding it is infeasible. Each vertex's entries from all its
    non-neighbours, added in id order from 0.0, stay at most the threshold,
    so every independent set is feasible: a float sum of non-negative terms
    never exceeds the same-order sum of a supersequence. When the
    certificate fails, every subset up to ``EXHAUSTIVE_LIMIT`` vertices is
    checked with the scalar definitions in ascending bitmask order (vertex
    k on bit k), and the first mismatch is reported.
    """
    matrix = graph_to_instance(graph)
    n, gains, bound = graph.n, matrix.entries, ceiling(matrix.threshold)
    adjacent = graph.adjacency() > 0
    incoming = np.zeros(n)
    for w in range(n):
        incoming += np.where(adjacent[w], 0.0, gains[w])
    weak_edges = adjacent & (gains <= bound) & (gains.T <= bound)
    if not weak_edges.any() and (incoming <= bound).all():
        return CorrespondenceReport(True, None, 1 << n)
    if n > EXHAUSTIVE_LIMIT:
        raise SizeLimitError(
            f"{n} vertices exceed the correspondence enumeration limit "
            f"{EXHAUSTIVE_LIMIT}, and the certificate does not hold"
        )
    for mask in range(1 << n):
        subset = tuple(v for v in range(n) if mask >> v & 1)
        if abstract_feasible(matrix, subset) != is_independent_set(graph, subset):
            return CorrespondenceReport(False, subset, mask + 1)
    return CorrespondenceReport(True, None, 1 << n)


def export_gain_matrix(instance: Instance) -> GainMatrix:
    """Bridge a geometric instance into matrix form.

    Entries are the kernel's floats: the instance kernel's matrix in
    ascending id order, which the exact oracles read too (``core.id_ordered``).
    The threshold is 1/beta. The geometric checker's affectance route adds
    the same entries column by column in id order, as ``abstract_affectance``
    does, and compares with the same rule, so matrix feasibility coincides
    with it on every subset, bit for bit.

    Raises ValueError (``GainMatrix``'s) when a sender sits on another
    link's receiver: that entry is infinite.
    """
    _, kernel = id_ordered(instance)
    return GainMatrix(entries=kernel.matrix(), threshold=1.0 / instance.params.beta)


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


def gain_matrix_from_obj(obj: Any) -> GainMatrix:
    _typed(obj, dict, "gain matrix document")
    _refuse_unknown(obj, ("n", "threshold", "entries"), "gain matrix keys")
    try:
        n, raw = _typed(obj["n"], int, "n"), _typed(obj["entries"], list, "entries")
    except KeyError as exc:
        raise ValueError(f"gain matrix file missing key {exc}") from None
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if len(raw) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(raw)}")
    entries = np.array([_number(x, "a gain matrix entry") for x in raw], dtype=float)
    return GainMatrix(entries.reshape(n, n), _number(obj.get("threshold", 1.0), "threshold"))


def save_gain_matrix(matrix: GainMatrix, path: str | os.PathLike) -> None:
    write_canonical(path, gain_matrix_to_obj(matrix))


def load_gain_matrix(path: str | os.PathLike) -> GainMatrix:
    return gain_matrix_from_obj(read_json(path))
