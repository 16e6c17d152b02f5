"""Link scheduling algorithms on top of the affectance machinery.

The module provides the greedy single-shot selector and its guarded variant,
repeated application for full schedules, two schedule refinement passes
(signal strengthening and spatial dispersion), non-uniform power handling,
and a first-fit baseline for comparisons.
All of them admit links through ``_sweep``, which fills one set, and
``_first_fit``, which repeats it on the links left (first-fit in that order).
Both hold O(n) state and blocks of at most ``_WINDOW`` rows. They read the
instance's one kernel, ``Instance.kernel``: the whole-instance schedulers
sweep it, and the refiners gather a slot's links from it
(``Instance.gather``).

A sweep (``_Sweep``) decides a window of up to ``_WINDOW`` live candidates
at a time, since at n = 1000 numpy's per-call cost, not arithmetic, bounds
a loop over one candidate at a time. Per window, one kernel call gives the
distances among the candidates (and, under first-fit's guard, from them to
the set's members), and one the near masks among them (B, ``disperse``).
In admission order, an admitted candidate's affectance on the window's
later candidates is one call, and a guarded candidate's affectance on the
members one call when its turn comes: not in advance, since a candidate
that an earlier admission in the window kills needs none. Last, the
admitted links' rows over the links beyond the window are one block, of at
most ``_BLOCK_CELLS`` cells so that it stays in the cache. Accumulated
affectance only grows, so a
link over the threshold, blocked by a near mask or refused by the members
never enters the set later in the sweep: the sweep skips it, and gathers
the kernel again from the live links once fewer than half are live. Each
accumulator adds the same floats in the same admission order as one
candidate at a time would, a block's rows one by one, so the sets and
float sums are those of full rows.

The schedulers only schedule: what they return is unverified, and the CLI
and the experiment harness pass it through ``core.verify_schedule`` before
it leaves the program. Only the refiners' preconditions read
``core.slot_reports`` here.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    DISTANCE_TIE,
    AffectanceRows,
    Instance,
    Link,
    ModelParams,
    PreconditionError,
    Schedule,
    SchedulingError,
    Slot,
    UnsupportedConfigurationError,
    ceiling,
    effective_power,
    exactly_near,
    p_signal_violation,
    slot_reports,
)

INTERFERENCE_CONSTANT = 72.0


@dataclass(frozen=True)
class AlgoConstants:
    """Deterministic constants driving the greedy selectors.

    C is the ring-summation interference constant (72 exactly); tau sets the
    admission threshold c = tau**-alpha of the analyzed selector; c_hat is
    the separation multiplier of the guarded heuristic; nu is the signal
    level at which the optimum is compared against the greedy output (inf
    past the float range).
    """

    C: float
    tau: float
    c: float
    c_hat: float
    nu: float


def compute_constants(params: ModelParams) -> AlgoConstants:
    """Derive the selector constants from the model parameters.

    Raises:
        SchedulingError: if the derived threshold fails the internal
            consistency inequality (tau - 2)**alpha >= (C+1)*beta*(alpha-1)
            /(alpha-2) beyond float rounding. Cannot happen for valid
            parameters; kept as a guard on the formula rendering.
    """
    alpha, beta = params.alpha, params.beta
    ratio = (alpha - 1.0) / (alpha - 2.0)
    rhs = (INTERFERENCE_CONSTANT + 1.0) * beta * ratio
    tau = 2.0 + max(2.0, rhs ** (1.0 / alpha))
    # checked on logarithms, since (tau - 2)**alpha overflows at large alpha;
    # the float round-trip of x**(1/alpha) can undershoot, hence the tolerance
    if alpha * math.log(tau - 2.0) < math.log(rhs) + math.log1p(-1e-9):
        raise SchedulingError(
            f"threshold consistency violated: alpha*log(tau-2) = "
            f"{alpha * math.log(tau - 2.0)} < log({rhs})"
        )
    c_hat = max(2.0, (288.0 * beta * ratio) ** (1.0 / alpha))
    try:
        nu = 2.0 * (1.5 * tau) ** alpha
    except OverflowError:
        nu = math.inf
    return AlgoConstants(C=INTERFERENCE_CONSTANT, tau=tau, c=tau**-alpha, c_hat=c_hat, nu=nu)


def _length_order(links: Sequence[Link]) -> list[int]:
    """Indices into ``links`` in non-decreasing length order, ties by id."""
    return sorted(range(len(links)), key=lambda i: (links[i].length, links[i].id))


def _tie_band(
    gap: np.ndarray, bound: np.ndarray, w: np.ndarray, exact: Callable[[int, int], bool]
) -> np.ndarray:
    """Mask of ``gap < bound``; inside the ``DISTANCE_TIE`` band ``exact(w, i)`` decides an entry.

    ``w`` broadcasts to ``gap`` and holds each entry's admitted position; i is its last index.
    """
    near = gap < bound
    ties = ~(np.abs(gap - bound) > DISTANCE_TIE * bound)
    if ties.any():
        w = np.broadcast_to(w, gap.shape)
        for at in zip(*ties.nonzero()):
            near[at] = exact(int(w[at]), int(at[-1]))
    return near


def _too_close(
    rows: AffectanceRows,
    ids: np.ndarray,
    j: int | np.ndarray,
    ahead: slice | np.ndarray,
    dist: np.ndarray,
    c_hat: float,
) -> np.ndarray:
    """B's mask against admitted link j: min(d(s_j, r_v), d(s_v, r_j)) <= c_hat * d_vv, v ahead.

    ``rows`` is the sweep's kernel, ``ahead`` selects the candidates (a slice
    or positions) and ``dist`` is ``rows.distances(j, ahead)``; j is one
    position, or an array of them for one row each. Near-ties are decided exactly.
    """
    j = np.asarray(j)[..., None]  # a column of admitted positions
    gap = np.minimum(dist, rows.norm(rows.sx[ahead] - rows.rx[j], rows.sy[ahead] - rows.ry[j]))

    def exact(w: int, i: int) -> bool:
        w, v = rows.data[:, w].tolist(), rows.data[:, ahead][:, i].tolist()
        return any(exactly_near(p, r, c_hat, v, False) for p, r in ((w[:2], v[2:4]), (v[:2], w[2:4])))

    return _tie_band(gap, c_hat * rows.lengths[ahead], j, exact)


def _not_dispersed(
    rows: AffectanceRows,
    ids: np.ndarray,
    j: int | np.ndarray,
    ahead: slice | np.ndarray,
    dist: np.ndarray,
    factor: np.ndarray,
) -> np.ndarray:
    """Disperse's mask against member j: min(d(s_j, r_v), d(r_j, r_v)) < factor * d_vv, v ahead.

    ``factor`` is indexed like the values of ``ids``; the rest is as for ``_too_close``.
    """
    j = np.asarray(j)[..., None]  # a column of admitted positions
    gap = np.minimum(dist, rows.norm(rows.rx[j] - rows.rx[ahead], rows.ry[j] - rows.ry[ahead]))
    mult = factor[ids[ahead]]

    def exact(w: int, i: int) -> bool:
        w, v = rows.data[:, w].tolist(), rows.data[:, ahead][:, i].tolist()
        return any(exactly_near(p, v[2:4], mult[i], v, True) for p in (w[:2], w[2:4]))

    return _tie_band(gap, mult * rows.lengths[ahead], j, exact)


# Fewest links ahead for which the sweep looks for dead ones: on shorter
# suffixes numpy's per-call cost outweighs the cells a compaction saves.
_FRONTIER_MIN = 64

# Most live candidates a sweep decides per window. At n = 1000 a row has a few
# hundred cells, so numpy's per-call cost outweighs the arithmetic; a wider
# window spends more cells on its candidates' affectances on one another.
_WINDOW = 32

# Most cells of the block of rows beyond a window: past about 2**15 cells its
# temporaries leave the cache and a cell costs about twice as much, so a
# window over a long frontier holds fewer candidates.
_BLOCK_CELLS = 2**15

# near(rows, ids, j, ahead, rows.distances(j, ahead)) -> mask of the links
# ahead that may not share a set with j, one row per entry when j is an array
# of positions; rows is the kernel of links[ids]
NearMask = Callable[
    [AffectanceRows, np.ndarray, int | np.ndarray, slice | np.ndarray, np.ndarray], np.ndarray
]


class _Sweep:
    """One admission sweep in ``order``: the live frontier and, with ``guard``, the members.

    A link is admitted when the accumulated affectance on it from the links
    admitted before it is at most ``threshold``, it is in no ``near`` mask
    of theirs, and, with ``guard``, adding it keeps the affectance on each
    of them at most ``threshold`` too. The first link of ``order`` is always
    admitted. ``run`` returns the admitted indices in admission order; with
    ``guard``, ``member_acc[:m]`` then holds the accumulated affectance on
    the m members, in admission order.

    ``run`` gathers the kernel of ``order`` in sweep order (``rows.take``)
    and decides it one window at a time, as the module docstring describes:
    at most ``_WINDOW`` live candidates, and no more admitted rows beyond the
    window than ``_BLOCK_CELLS`` cells hold.
    """

    def __init__(
        self,
        rows: AffectanceRows,
        order: Sequence[int],
        threshold: float,
        near: NearMask | None = None,
        guard: bool = False,
    ):
        self.ids = np.asarray(order, dtype=np.intp)
        self.kernel = rows.take(self.ids)
        self.threshold, self.near, self.guard = threshold, near, guard
        if guard:  # the members in admission order, then the window's candidates
            self.members = self.kernel.with_data(np.empty_like(self.kernel.data))
            self.member_acc = np.empty(len(self.ids))

    @np.errstate(divide="ignore")  # a sender on a receiver: a_w(v) = inf, which no test admits
    def run(self) -> list[int]:
        kernel, ids, near, guard = self.kernel, self.ids, self.near, self.guard
        if guard:
            members, member_acc = self.members, self.member_acc
        finite = self.threshold < math.inf
        bound = ceiling(self.threshold)
        acc = np.zeros(len(ids))  # NaN once a near mask blocks the link: it fails every test
        chosen: list[int] = []
        m, start = 0, 0
        while start < len(acc):
            # the window's candidates among the next 2 * width links, of which the
            # compaction below keeps about half live
            width = max(1, min(_WINDOW, _BLOCK_CELLS // (len(acc) - start)))
            win = start + (acc[start : start + 2 * width] <= bound).nonzero()[0][:width]
            if not len(win):
                start += 2 * width
                continue
            cand_acc = acc[win]
            if guard:  # the candidates follow the members: column m0 + c is candidate c
                m0, end = m, m + len(win)
                members.data[:, m0:end] = kernel.data[:, win]
                dist = members.distances(np.arange(m0, end), slice(end))
            else:
                dist = kernel.distances(win, win)
            if near is not None:
                blocked = near(kernel, ids, win, win, dist[:, -len(win) :])
            taken = []
            for c in range(len(win)):
                if not cand_acc[c] <= bound:
                    continue
                if guard:  # c on the members, then on the candidates after it
                    row = members.block(m0 + c, slice(end), dist[c])
                    probe = member_acc[:m] + row[:m]
                    if m and not np.maximum.reduce(probe) <= bound:  # no NaN: the max decides all
                        continue
                    member_acc[:m] = probe
                    member_acc[m] = cand_acc[c]
                    # c becomes member m; columns m to m0 + c hold decided candidates
                    members.data[:, m] = members.data[:, m0 + c]
                    dist[:, m] = dist[:, m0 + c]
                    later = row[m0 + c + 1 :]
                elif finite:
                    later = kernel.block(win[c], win[c + 1 :], dist[c, c + 1 :])
                m += 1
                taken.append(c)
                if finite:
                    cand_acc[c + 1 :] += later
                if near is not None:
                    cand_acc[c + 1 :][blocked[c, c + 1 :]] = math.nan
            start, admitted = win[-1] + 1, win[taken]
            chosen += ids[admitted].tolist()
            if not taken or start == len(acc):
                continue
            ahead, tail = slice(start, None), acc[start:]
            dist = kernel.distances(admitted, ahead)
            if finite:
                for row in kernel.block(admitted[:, None], ahead, dist):
                    tail += row
            if near is not None:
                tail[near(kernel, ids, admitted, ahead, dist).any(axis=0)] = math.nan
            if len(tail) >= _FRONTIER_MIN:
                live = tail <= bound
                if 2 * np.count_nonzero(live) < len(tail):
                    keep = start + live.nonzero()[0]
                    kernel, ids, acc, start = kernel.take(keep), ids[keep], acc[keep], 0
        return chosen


def _sweep(
    rows: AffectanceRows,
    order: Sequence[int],
    threshold: float,
    near: NearMask | None = None,
    guard: bool = False,
) -> list[int]:
    """Indices admitted by one sweep in ``order``, in admission order: ``_Sweep(...).run()``."""
    return _Sweep(rows, order, threshold, near, guard).run()


def _first_fit(
    rows: AffectanceRows,
    order: Sequence[int],
    threshold: float,
    near: NearMask | None = None,
    guard: bool = False,
) -> list[list[int]]:
    """First-fit of ``order`` into the sets ``_sweep`` admits, as one round per set.

    Sweeping the links left, round after round, gives exactly the sets (and
    float sums) of first-fit with one accumulator per open set, in O(n)
    state. Each round evaluates an admitted link's row only over the live
    links after it, and the guard only for a live candidate, over the
    round's members and its window.
    """
    rounds: list[list[int]] = []
    left = list(order)
    while left:
        chosen = _sweep(rows, left, threshold, near, guard)
        rounds.append(chosen)
        taken = set(chosen)
        left = [i for i in left if i not in taken]
    return rounds


def _slots(links: Sequence[Link], sets: Iterable[Iterable[int]]) -> tuple[Slot, ...]:
    return tuple(Slot(frozenset(links[i].id for i in s)) for s in sets)


def _selector(instance: Instance, guarded: bool) -> tuple[float, NearMask | None]:
    """A's threshold c and no near mask, or with ``guarded`` B's cap 2/3 and separation test.

    Raises:
        UnsupportedConfigurationError: on non-uniform power.
    """
    if not instance.has_uniform_power:
        raise UnsupportedConfigurationError(
            f"{'the guarded heuristic B' if guarded else 'the greedy selector A'} requires "
            f"uniform power across the links; per-link powers are scheduled by --algo A "
            f"with --power-mode scaled-threshold or power-regimes"
        )
    constants = compute_constants(instance.params)
    if guarded:
        return 2.0 / 3.0, functools.partial(_too_close, c_hat=constants.c_hat)
    return constants.c, None


def single_shot_greedy(instance: Instance) -> Slot:
    """One-sweep greedy selection of a feasible set, shortest links first.

    A link is admitted when the accumulated affectance on it from previously
    admitted links is at most the threshold c. The output is SINR-feasible
    and (tau - 2)-dispersed; for every rejected link the admitted shorter
    links already affect it by more than c.

    Raises:
        UnsupportedConfigurationError: on non-uniform power. Route such
            instances through schedule_nonuniform instead.
    """
    links = instance.links
    chosen = _sweep(instance.kernel, _length_order(links), *_selector(instance, False))
    return Slot(frozenset(links[i].id for i in chosen))


def single_shot_guarded(instance: Instance) -> Slot:
    """Guarded greedy heuristic: affectance cap 2/3 plus a separation test.

    Links are swept in non-decreasing length order and admitted when the
    accumulated affectance is at most 2/3 and both cross distances
    min(d(s_w, r_v), d(s_v, r_w)) to each admitted link w exceed c_hat times
    the candidate's length. The heuristic carries no feasibility proof: the
    set is returned unverified, and may fail ``core.is_feasible``.

    Raises:
        UnsupportedConfigurationError: on non-uniform power.
    """
    links = instance.links
    chosen = _sweep(instance.kernel, _length_order(links), *_selector(instance, True))
    return Slot(frozenset(links[i].id for i in chosen))


def _repeat(instance: Instance, threshold: float, near: NearMask | None = None) -> Schedule:
    """First-fit in length order on one row kernel: round k is slot k.

    A round selects what a single shot would on the sub-instance of the
    unscheduled links, whose affectances are those of the full instance.
    """
    links = instance.links
    rounds = _first_fit(instance.kernel, _length_order(links), threshold, near)
    return Schedule(_slots(links, rounds))


def schedule_repeated(instance: Instance, *, guarded: bool = False) -> Schedule:
    """Partition all links by repeating a single-shot selection.

    Each round selects from the still-unscheduled links, as
    single_shot_greedy does (or single_shot_guarded when ``guarded``), and
    fixes the selection as the next slot. Holds O(n) state: the row of a
    link is computed in the round that admits it. Terminates because the
    first link of every round is admitted. The schedule is unverified: a
    guarded round carries no feasibility proof.

    Raises:
        UnsupportedConfigurationError: on non-uniform power.
    """
    return _repeat(instance, *_selector(instance, guarded))


def strengthen_slot(
    instance: Instance, slot: Slot, p_prime: float
) -> tuple[Slot, ...]:
    """Split one slot into sets whose affectance stays at or below 1/p_prime.

    Two first-fit passes with per-set admission threshold 1/(2*p_prime): the
    first over links in decreasing length order, the second re-partitioning
    each resulting set in increasing length order. Affectance on every link
    of an output set is then at most 1/(2p') from longer links (pass one)
    plus 1/(2p') from shorter ones (pass two).
    """
    links, rows = instance.gather(slot.sorted_members)
    threshold = 1.0 / (2.0 * p_prime)
    decreasing = sorted(range(len(links)), key=lambda i: (-links[i].length, links[i].id))
    out: list[Slot] = []
    for first_pass_set in _first_fit(rows, decreasing, threshold):
        increasing = sorted(first_pass_set, key=lambda i: (links[i].length, links[i].id))
        out.extend(_slots(links, _first_fit(rows, increasing, threshold)))
    return tuple(out)


def strengthen(
    instance: Instance, schedule: Schedule, p: float, p_prime: float
) -> Schedule:
    """Refine a p-signal schedule into a p_prime-signal schedule.

    The slot count grows by a factor of at most ceil(2*p_prime/p)**2.

    Raises:
        PreconditionError: if the input schedule is not p-signal, naming the
            violating link, or if p_prime <= p.
    """
    if not (p > 0) or not (p_prime > p):
        raise PreconditionError(
            f"signal levels must satisfy 0 < p < p_prime, got p={p}, "
            f"p_prime={p_prime}"
        )
    violation = p_signal_violation(instance, schedule, p)
    if violation is not None:
        slot_idx, link_id, value = violation
        raise PreconditionError(
            f"input schedule is not a {p}-signal schedule: link {link_id} in "
            f"slot {slot_idx} has affectance {value:.6e} > 1/p = {1.0 / p:.6e}"
        )
    pieces = (strengthen_slot(instance, slot, p_prime) for slot in schedule.slots)
    return Schedule(tuple(s for slots in pieces for s in slots))


def disperse_slot(instance: Instance, slot: Slot, q: float) -> tuple[Slot, ...]:
    """Split one feasible slot into q-dispersed sets.

    Links are processed in increasing length order and first-fit into the
    first set where the candidate's receiver lies at distance at least
    (q * c_v**(1/alpha) + 2) * len(v) from every sender and receiver already
    in the set. Output sets are q-dispersed, and remain feasible because
    affectance only shrinks on subsets.
    """
    links, rows = instance.gather(slot.sorted_members)
    factor = q * rows.cv ** (1.0 / rows.alpha) + 2.0
    near = functools.partial(_not_dispersed, factor=factor)
    return _slots(links, _first_fit(rows, _length_order(links), math.inf, near))


def disperse(instance: Instance, schedule: Schedule, q: float) -> Schedule:
    """Refine a feasible uniform-power schedule into a q-dispersed one.

    Per-slot blow-up is at most ceil((q+2)**alpha); the underlying counting
    argument even gives ceil((q+2)**alpha / beta). Feasibility of every
    output slot is preserved.

    Raises:
        PreconditionError: if q is not positive or some input slot is not
            SINR-feasible.
        UnsupportedConfigurationError: on non-uniform power.
    """
    if not (q > 0):
        raise PreconditionError(f"dispersion level must be positive, got {q}")
    if not instance.has_uniform_power:
        raise UnsupportedConfigurationError("disperse requires uniform power across the links")
    for idx, report in enumerate(slot_reports(instance, schedule)):
        if not report.ok:
            raise PreconditionError(
                f"input slot {idx} is not SINR-feasible (worst link "
                f"{report.worst_link})"
            )
    pieces = (disperse_slot(instance, slot, q) for slot in schedule.slots)
    return Schedule(tuple(s for slots in pieces for s in slots))


def _schedule_power_regimes(instance: Instance, powers: list[float], base: float) -> Schedule:
    p_min = min(powers)
    buckets: dict[int, list[int]] = {}
    for i, power in enumerate(powers):
        # epsilon keeps exact powers of the base in their own bucket
        k = math.floor(math.log(power / p_min) / math.log(base) + 1e-12)
        buckets.setdefault(k, []).append(i)
    slots: list[Slot] = []
    for k in sorted(buckets):
        worst_case = min(powers[i] for i in buckets[k])
        uniform = tuple(dataclasses.replace(instance.links[i], power=worst_case) for i in buckets[k])
        sub = Instance(params=instance.params, links=uniform)
        slots.extend(schedule_repeated(sub).slots)
    return Schedule(tuple(slots))


def schedule_nonuniform(
    instance: Instance, mode: str | None = None, regime_base: float | None = None
) -> Schedule:
    """The greedy selector A, repeated, on links that may transmit at different powers.

    ``mode`` "uniform" requires equal powers and is ``schedule_repeated``;
    "scaled-threshold" shrinks the admission threshold by P_min/P_max and
    admits on true non-uniform affectance; "power-regimes" buckets links
    whose powers agree up to ``regime_base`` (default 2) and schedules the
    buckets separately. Without a mode, an instance with one power is
    scheduled "uniform" and any other "power-regimes". The base is checked
    whatever the mode. The schedule is unverified: neither non-uniform mode
    carries a feasibility proof under the true link powers, so
    ``verify_schedule`` must pass it before it is used.

    Raises:
        ValueError: on an unknown mode or a base that does not exceed 1.
        UnsupportedConfigurationError: in uniform mode on non-uniform input.
    """
    if mode is None:
        mode = "uniform" if instance.has_uniform_power else "power-regimes"
    if mode not in ("uniform", "scaled-threshold", "power-regimes"):
        raise ValueError(f"unknown power strategy mode {mode!r}")
    base = 2.0 if regime_base is None else regime_base
    if not (base > 1.0):
        raise ValueError(f"regime_base must exceed 1, got {base}")
    if not instance.links:
        return Schedule(())
    if mode == "uniform":
        return schedule_repeated(instance)
    powers = [effective_power(l, instance.params) for l in instance.links]
    if mode == "scaled-threshold":
        return _repeat(instance, compute_constants(instance.params).c * min(powers) / max(powers))
    return _schedule_power_regimes(instance, powers, base)


def first_fit_baseline(instance: Instance) -> Schedule:
    """First-fit scheduling in input order, for baseline comparisons.

    Each link lands in the first existing slot that stays SINR-feasible
    after the addition, else it opens a new slot.
    """
    links = instance.links
    rounds = _first_fit(instance.kernel, range(len(links)), 1.0 / instance.params.beta, guard=True)
    return Schedule(_slots(links, rounds))


# the whole-schedule algorithms by name, each returning an unverified schedule
ALGORITHMS: dict[str, Callable[[Instance], Schedule]] = {
    "A-repeated": schedule_nonuniform,
    "B-repeated": lambda instance: schedule_repeated(instance, guarded=True),
    "first-fit-baseline": first_fit_baseline,
}
