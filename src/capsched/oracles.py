"""Exhaustive ground-truth solvers for small instances.

These routines enumerate subsets or partitions outright and are the reference
against which every approximation guarantee is tested. They are deliberately
exponential and guarded by explicit size limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    THRESHOLD_SLACK,
    Instance,
    Schedule,
    SizeLimitError,
    Slot,
    affectance_matrix,
)


@dataclass(frozen=True)
class OracleLimits:
    """Hard caps on instance size for the exhaustive solvers."""

    max_links_subset: int = 20
    max_links_schedule: int = 12

    def __post_init__(self) -> None:
        if self.max_links_subset < 1 or self.max_links_schedule < 1:
            raise ValueError("oracle limits must be at least 1")


DEFAULT_LIMITS = OracleLimits()


def _id_ordered_matrix(instance: Instance) -> np.ndarray:
    """Affectance matrix reindexed so that axis order is ascending link id."""
    mat = affectance_matrix(instance)
    order = sorted(range(len(instance.links)), key=lambda i: instance.links[i].id)
    return mat[np.ix_(order, order)]


def _max_subset(instance: Instance, threshold: float, limits: OracleLimits) -> Slot:
    """Maximum set whose internal affectance per member stays <= threshold.

    Depth-first search over links in ascending id order, include branch
    first. Because affectance only grows with the set, a partial selection
    that violates the bound can be pruned wholesale; a cardinality bound
    prunes branches that cannot beat the incumbent. Taking only strictly
    larger incumbents makes the first maximum found, and hence the result,
    the lexicographically smallest one.
    """
    n = len(instance.links)
    if n > limits.max_links_subset:
        raise SizeLimitError(
            f"{n} links exceed the subset oracle limit "
            f"{limits.max_links_subset}"
        )
    if n == 0:
        return Slot()
    links = sorted(instance.links, key=lambda l: l.id)
    mat = _id_ordered_matrix(instance)
    bound = threshold + THRESHOLD_SLACK
    best: list[int] = []

    def dfs(pos: int, chosen: list[int], sums: list[float]) -> None:
        nonlocal best
        if len(chosen) + (n - pos) <= len(best):
            return
        if pos == n:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        incoming = 0.0
        for w in chosen:
            incoming += mat[w, pos]
        if incoming <= bound and all(
            s + mat[pos, w] <= bound for s, w in zip(sums, chosen)
        ):
            dfs(
                pos + 1,
                chosen + [pos],
                [s + mat[pos, w] for s, w in zip(sums, chosen)] + [incoming],
            )
        dfs(pos + 1, chosen, sums)

    dfs(0, [], [])
    return Slot(frozenset(links[i].id for i in best))


def max_feasible_subset(instance: Instance, limits: OracleLimits = DEFAULT_LIMITS) -> Slot:
    """Exact maximum-cardinality SINR-feasible subset.

    Ties are broken towards the lexicographically smallest id set so
    repeated runs and golden files stay stable.

    Raises:
        SizeLimitError: if the instance exceeds limits.max_links_subset.
    """
    return _max_subset(instance, 1.0 / instance.params.beta, limits)


def max_p_signal_subset(
    instance: Instance, p: float, limits: OracleLimits = DEFAULT_LIMITS
) -> Slot:
    """Exact maximum subset whose affectance on every member is <= 1/p."""
    if not (p > 0):
        raise ValueError(f"p must be positive, got {p}")
    return _max_subset(instance, 1.0 / p, limits)


def _member_positions(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _feasible_mask_table(mat: np.ndarray, n: int, threshold: float) -> np.ndarray:
    """For every subset mask: whether all of its members stay within threshold.

    The affectance of mask's members (minus j itself) on link j, affs[mask, j],
    is filled in by peeling the lowest set bit.
    """
    size = 1 << n
    affs = np.zeros((size, n))
    feasible = np.zeros(size, dtype=bool)
    bound = threshold + THRESHOLD_SLACK
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        prev = mask ^ (1 << low)
        affs[mask] = affs[prev] + mat[low]
        members = _member_positions(mask)
        feasible[mask] = bool((affs[mask][members] <= bound).all())
    return feasible


def _min_partition(instance: Instance, threshold: float, limits: OracleLimits) -> Schedule:
    """Exact minimum partition into sets meeting the affectance threshold.

    Dynamic program over subsets: dp[mask] is the minimum number of sets
    covering mask, minimized over admissible subsets that contain mask's
    lowest link (which some set must). Reconstruction greedily picks the
    lexicographically smallest slot for the lowest unscheduled id.
    """
    n = len(instance.links)
    if n > limits.max_links_schedule:
        raise SizeLimitError(
            f"{n} links exceed the schedule oracle limit "
            f"{limits.max_links_schedule}"
        )
    if n == 0:
        return Schedule(())
    links = sorted(instance.links, key=lambda l: l.id)
    mat = _id_ordered_matrix(instance)
    feasible = _feasible_mask_table(mat, n, threshold)
    full = (1 << n) - 1
    infinity = n + 1
    dp = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        value = infinity
        sub = mask
        while sub:
            if sub & low and feasible[sub]:
                cand = dp[mask ^ sub] + 1
                if cand < value:
                    value = cand
            sub = (sub - 1) & mask
        dp[mask] = value

    slots: list[Slot] = []
    remaining = full
    while remaining:
        low = remaining & -remaining
        pick = None
        pick_key: tuple[int, ...] | None = None
        sub = remaining
        while sub:
            if sub & low and feasible[sub] and dp[remaining ^ sub] == dp[remaining] - 1:
                key = tuple(_member_positions(sub))
                if pick_key is None or key < pick_key:
                    pick, pick_key = sub, key
            sub = (sub - 1) & remaining
        assert pick is not None, "DP table inconsistent"
        slots.append(Slot(frozenset(links[i].id for i in _member_positions(pick))))
        remaining ^= pick
    return Schedule(tuple(slots))


def min_schedule(instance: Instance, limits: OracleLimits = DEFAULT_LIMITS) -> Schedule:
    """Exact minimum-length SINR-feasible schedule (optimal partition)."""
    return _min_partition(instance, 1.0 / instance.params.beta, limits)


def min_p_signal_schedule(
    instance: Instance, p: float, limits: OracleLimits = DEFAULT_LIMITS
) -> Schedule:
    """Exact minimum-length p-signal schedule."""
    if not (p > 0):
        raise ValueError(f"p must be positive, got {p}")
    return _min_partition(instance, 1.0 / p, limits)


def feasible_subsets(
    instance: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> Iterator[Slot]:
    """All nonempty SINR-feasible subsets, in ascending bitmask order.

    The bitmask follows ascending link id. Guarded by the schedule limit
    since the output itself is exponential.
    """
    n = len(instance.links)
    if n > limits.max_links_schedule:
        raise SizeLimitError(
            f"{n} links exceed the schedule oracle limit "
            f"{limits.max_links_schedule}"
        )
    if n == 0:
        return
    links = sorted(instance.links, key=lambda l: l.id)
    mat = _id_ordered_matrix(instance)
    feasible = _feasible_mask_table(mat, n, 1.0 / instance.params.beta)
    for mask in range(1, 1 << n):
        if feasible[mask]:
            yield Slot(frozenset(links[i].id for i in _member_positions(mask)))
