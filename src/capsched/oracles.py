"""Exhaustive ground-truth solvers for small instances.

These routines enumerate subsets or partitions outright and are the reference
against which every approximation guarantee is tested. They are deliberately
exponential and guarded by explicit size limits.
"""

from __future__ import annotations

import numpy as np

from .core import Instance, Schedule, SizeLimitError, Slot, ceiling, id_ordered

# Hard caps on instance size: the subset search and the 2^n mask tables
MAX_LINKS_SUBSET = 20
MAX_LINKS_SCHEDULE = 12


def _max_subset(instance: Instance, threshold: float) -> Slot:
    """Maximum set whose internal affectance per member stays <= threshold.

    Depth-first search over links in ascending id order, include branch
    first. Because affectance only grows with the set, a partial selection
    that violates the bound can be pruned wholesale; a cardinality bound
    prunes branches that cannot beat the incumbent. Taking only strictly
    larger incumbents makes the first maximum found, and hence the result,
    the lexicographically smallest one.
    """
    n = len(instance.links)
    if n > MAX_LINKS_SUBSET:
        raise SizeLimitError(f"{n} links exceed the subset oracle limit {MAX_LINKS_SUBSET}")
    if n == 0:
        return Slot()
    links, kernel = id_ordered(instance)
    mat = kernel.matrix()
    bound = ceiling(threshold)
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


def max_feasible_subset(instance: Instance) -> Slot:
    """Exact maximum-cardinality SINR-feasible subset.

    Ties are broken towards the lexicographically smallest id set so
    repeated runs and golden files stay stable.

    Raises:
        SizeLimitError: if the instance has more than MAX_LINKS_SUBSET links.
    """
    return _max_subset(instance, 1.0 / instance.params.beta)


def max_p_signal_subset(instance: Instance, p: float) -> Slot:
    """Exact maximum subset whose affectance on every member is <= 1/p."""
    if not (p > 0):
        raise ValueError(f"p must be positive, got {p}")
    return _max_subset(instance, 1.0 / p)


def _member_positions(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def peel_lattice(table: np.ndarray, rows: np.ndarray) -> None:
    """Fill a subset lattice of sums in place, one strided numpy pass per bit.

    The last axis of ``table`` (C-contiguous, so that the views write
    through) holds 2^b entries indexed by the masks of b bits, and entry 0
    is the base the lattice starts from. Each mask whose lowest set bit is
    k becomes ``table[..., mask ^ 1 << k] + rows[k]``, for k from high to
    low, so every entry is the base plus its members' rows added from the
    highest member down: the float order of peeling masks one lowest bit at
    a time in ascending mask order. A view of shape (..., -1, 2^(k+1)) puts
    those masks in column 2^k and the masks they peel to in column 0.
    """
    for k in reversed(range(table.shape[-1].bit_length() - 1)):
        view = table.reshape(*table.shape[:-1], -1, 2 << k)
        np.add(view[..., 0], rows[k][..., None], out=view[..., 1 << k])


def bitmask(flags: np.ndarray) -> np.ndarray:
    """Pack each column of a boolean (n, m) array into an int64 (bit j = row j).

    One float matrix product: sums of distinct powers of two are exact
    below 2^53, and no caller enumerates masks of that many bits.
    """
    weights = np.ldexp(1.0, np.arange(flags.shape[0]))
    return (weights @ flags).astype(np.int64)


def _feasible_mask_table(mat: np.ndarray, n: int, threshold: float) -> np.ndarray:
    """For every subset mask: whether all of its members stay within threshold.

    affs[j, mask], the affectance of mask's members (minus j itself) on link
    j, comes from one lattice pass; a mask is feasible when none of its
    members is over the bound. The empty mask is no set.
    """
    size = 1 << n
    affs = np.zeros((n, size))
    peel_lattice(affs, mat)
    over = bitmask(~(affs <= ceiling(threshold)))
    feasible = (over & np.arange(size)) == 0
    feasible[0] = False
    return feasible


def _subset_transform(values: np.ndarray, op) -> np.ndarray:
    """Zeta (``np.add``) or Moebius (``np.subtract``) transform over subsets, in place."""
    for k in range(len(values).bit_length() - 1):
        view = values.reshape(-1, 2, 1 << k)
        op(view[:, 1], view[:, 0], out=view[:, 1])
    return values


def _min_covers(feasible: np.ndarray, n: int) -> np.ndarray:
    """dp[mask]: the fewest feasible sets whose union is mask (n + 1 if none).

    Layered cover by inclusion-exclusion (Bjoerklund, Husfeldt and Koivisto,
    *Set Partitioning via Inclusion-Exclusion*, SIAM J. Comput. 2009): the
    masks k sets cover are the union product of those k - 1 sets cover and
    the feasible family, which a zeta transform of both, a product and a
    Moebius transform count exactly. Counts are at most 3^n; int64 wraps
    mod 2^64 on the way, which leaves them exact. What k - 1 sets cover, k
    sets cover too (one repeats). Feasibility is hereditary (affectances are
    non-negative, and a float sum of non-negative terms in a fixed order is
    monotone), so a cover by k sets trims to a partition into at most k: dp
    is the partition count.
    """
    family_zeta = _subset_transform(feasible.astype(np.int64), np.add)
    dp = np.full(1 << n, n + 1, dtype=np.int64)
    dp[0] = 0
    reach = np.zeros(1 << n, dtype=np.int64)
    reach[0] = 1
    for k in range(1, n + 1):
        covered = _subset_transform(
            _subset_transform(reach, np.add) * family_zeta, np.subtract
        ) > 0
        dp[covered & (dp > n)] = k
        if covered[-1]:
            break
        reach = covered.astype(np.int64)
    return dp


def _check_schedule_limit(n: int) -> None:
    if n > MAX_LINKS_SCHEDULE:
        raise SizeLimitError(f"{n} links exceed the schedule oracle limit {MAX_LINKS_SCHEDULE}")


def _min_partition(instance: Instance, threshold: float) -> Schedule:
    """Exact minimum partition into sets meeting the affectance threshold.

    dp[mask] is the minimum number of admissible sets partitioning mask
    (``_min_covers``). Reconstruction greedily picks the lexicographically
    smallest slot for the lowest unscheduled id.
    """
    n = len(instance.links)
    _check_schedule_limit(n)
    if n == 0:
        return Schedule(())
    links, kernel = id_ordered(instance)
    feasible = _feasible_mask_table(kernel.matrix(), n, threshold)
    full = (1 << n) - 1
    dp = _min_covers(feasible, n).tolist()
    feasible = feasible.tolist()

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


def min_schedule(instance: Instance) -> Schedule:
    """Exact minimum-length SINR-feasible schedule (optimal partition).

    Raises:
        SizeLimitError: if the instance has more than MAX_LINKS_SCHEDULE links.
    """
    return _min_partition(instance, 1.0 / instance.params.beta)


def min_p_signal_schedule(instance: Instance, p: float) -> Schedule:
    """Exact minimum-length p-signal schedule."""
    if not (p > 0):
        raise ValueError(f"p must be positive, got {p}")
    return _min_partition(instance, 1.0 / p)

