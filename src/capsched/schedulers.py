"""Link scheduling algorithms on top of the affectance machinery.

The module provides the greedy single-shot selector and its guarded variant,
repeated application for full schedules, two schedule refinement passes
(signal strengthening and spatial dispersion), non-uniform power handling,
and a first-fit baseline for comparisons.
All of them admit links through ``_sweep``, which fills one set, and
``_first_fit``, which repeats it on the links left (first-fit in that order).
Both hold O(n) state and blocks of at most ``_WINDOW`` rows. They read only
the instance's one kernel, ``Instance.kernel``, and build none: the
whole-instance schedulers sweep it, and the refiners and A's power regimes
gather their links from it (``Instance.gather``).

A sweep (``_sweep``) decides a window of up to ``_WINDOW`` live candidates
at a time, since at n = 1000 numpy's per-call cost, not arithmetic, bounds a
loop over one candidate at a time. Per window, one kernel call gives the
distances among the candidates (and, under first-fit's guard, from them to
the set's members), and one the near masks among them (B, ``disperse``: the
kernel's one distance test, ``AffectanceRows.near``). In admission order, an
admitted candidate's affectance on the window's later candidates is one
call, and a guarded candidate's affectance on the members one call when its
turn comes: not in advance, since a candidate that an earlier admission in
the window kills needs none. Last, the admitted links' rows over the links
beyond the window are one block, of at most ``_BLOCK_CELLS`` cells so that
it stays in the cache. Accumulated affectance only grows, so a link over the
threshold, blocked by a near mask or refused by the members never enters the
set later in the sweep: the sweep skips it, and gathers the kernel again
from the live links once fewer than half are live. Each accumulator adds the
same floats in the same admission order as one candidate at a time would, a
block's rows one by one, so the sets and float sums are those of full rows.

The schedulers only schedule: what they return is unverified, and the CLI
and the experiment harness pass it through ``core.verify_schedule`` before
it leaves the program. Only the refiners' preconditions read
``core.slot_reports`` here.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    AffectanceRows,
    Instance,
    Link,
    ModelParams,
    PreconditionError,
    Record,
    Schedule,
    SchedulingError,
    Slot,
    UnsupportedConfigurationError,
    ceiling,
    p_signal_violation,
    slot_reports,
)

INTERFERENCE_CONSTANT = 72.0


class AlgoConstants(Record):
    """Deterministic constants driving the greedy selectors.

    C is the ring-summation interference constant (72 exactly); tau sets the
    admission threshold c = tau**-alpha of the analyzed selector; c_hat is
    the separation multiplier of the guarded heuristic; nu is the signal
    level at which the optimum is compared against the greedy output (inf
    past the float range).
    """

    __slots__ = ("C", "tau", "c", "c_hat", "nu")


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


def _length_order(lengths: np.ndarray, ids: Sequence[int]) -> list[int]:
    """Positions in non-decreasing ``lengths`` order (a kernel's), ties by ``ids``."""
    return np.lexsort((ids, lengths)).tolist()


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

# near(rows, j, v, rows.distances(j, v)) -> mask of the links v that may not
# share a set with j, one row per entry when j is an array of positions
NearMask = Callable[[AffectanceRows, int | np.ndarray, slice | np.ndarray, np.ndarray], np.ndarray]


# inf, silently: a_w(v) of a sender on a receiver (no test admits it), a near bound past the float range
@np.errstate(divide="ignore", over="ignore")
def _sweep(
    rows: AffectanceRows,
    order: Sequence[int],
    threshold: float,
    near: NearMask | None = None,
    member_acc: np.ndarray | None = None,
) -> list[int]:
    """Indices admitted by one sweep in ``order``, in admission order.

    A link is admitted when the accumulated affectance on it from the links
    admitted before it is at most ``threshold`` and it is in no ``near``
    mask of theirs. First-fit's guard is on when ``member_acc`` (at least
    len(order) floats) is given, with no ``near``: adding the link must also
    keep the affectance on each admitted link at most ``threshold``, and
    ``member_acc[:m]`` ends holding the accumulated affectance on the m
    admitted links, in admission order. The first link of ``order`` is
    always admitted.

    The sweep gathers the kernel of ``order`` in sweep order (``rows.take``)
    and decides it one window at a time, as the module docstring describes:
    at most ``_WINDOW`` live candidates, and no more admitted rows beyond the
    window than ``_BLOCK_CELLS`` cells hold.
    """
    ids = np.asarray(order, dtype=np.intp)
    kernel = rows.take(ids)
    guard = member_acc is not None
    if guard:  # the members in admission order, then the window's candidates
        members = kernel.with_data(np.empty_like(kernel.data))
    finite = threshold < math.inf
    bound = ceiling(threshold)
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
            blocked = near(kernel, win, win, dist)
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
            tail[near(kernel, admitted, ahead, dist).any(axis=0)] = math.nan
        if len(tail) >= _FRONTIER_MIN:
            live = tail <= bound
            if 2 * np.count_nonzero(live) < len(tail):
                keep = start + live.nonzero()[0]
                kernel, ids, acc, start = kernel.take(keep), ids[keep], acc[keep], 0
    return chosen


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
    member_acc = np.empty(len(left)) if guard else None
    while left:
        chosen = _sweep(rows, left, threshold, near, member_acc)
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
    if guarded:  # min(d(s_j, r_v), d(s_v, r_j)) <= c_hat * d_vv: v too close to admitted j
        c_hat = constants.c_hat
        return 2.0 / 3.0, lambda rows, j, v, dist: rows.near(j, v, dist, c_hat, False, "sender")
    return constants.c, None


def _single_shot(instance: Instance, guarded: bool) -> Slot:
    links = instance.links
    order = _length_order(instance.kernel.lengths, [l.id for l in links])
    return Slot(frozenset(links[i].id for i in _sweep(instance.kernel, order, *_selector(instance, guarded))))


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
    return _single_shot(instance, False)


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
    return _single_shot(instance, True)


def _repeat(links: Sequence[Link], rows: AffectanceRows, threshold: float, near: NearMask | None = None) -> Schedule:
    """First-fit of ``links`` (kernel ``rows``) in length order: round k is slot k.

    A round selects what a single shot would on the sub-instance of the
    unscheduled links, whose affectances are those of the full instance.
    """
    order = _length_order(rows.lengths, [l.id for l in links])
    return Schedule(_slots(links, _first_fit(rows, order, threshold, near)))


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
    return _repeat(instance.links, instance.kernel, *_selector(instance, guarded))


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
    links, rows = instance.gather(slot.sorted_members)  # position order is id order
    threshold = 1.0 / (2.0 * p_prime)
    out: list[Slot] = []
    for first_pass_set in _first_fit(rows, _length_order(-rows.lengths, slot.sorted_members), threshold):
        first = np.array(first_pass_set)
        increasing = first[_length_order(rows.lengths[first], first)].tolist()
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

    def near(rows, j, v, dist):  # min(d(s_j, r_v), d(r_j, r_v)) < (q c_v^(1/alpha) + 2) d_vv
        return rows.near(j, v, dist, q * rows.cv[v] ** (1.0 / rows.alpha) + 2.0, True, "receiver")

    return _slots(links, _first_fit(rows, _length_order(rows.lengths, slot.sorted_members), math.inf, near))


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


def _schedule_power_regimes(instance: Instance, powers: list[float]) -> Schedule:
    """A in each bucket of links whose powers agree up to 2, on a gathered kernel of one power.

    Each link keeps the noise factor c_v of its own power. Within a bucket
    P_w/P_v < 2, so a link's true affectance is below twice the modelled
    one, which A keeps at most c.
    """
    p_min = min(powers)
    buckets: dict[int, list[int]] = {}
    for link, power in zip(instance.links, powers):
        # epsilon keeps exact powers of 2 in their own bucket
        k = math.floor(math.log(power / p_min) / math.log(2.0) + 1e-12)
        buckets.setdefault(k, []).append(link.id)
    c = compute_constants(instance.params).c
    slots: list[Slot] = []
    for k in sorted(buckets):
        links, rows = instance.gather(buckets[k])
        rows.powers[:] = rows.powers.min()
        rows._unit()
        slots.extend(_repeat(links, rows, c).slots)
    return Schedule(tuple(slots))


def schedule_nonuniform(instance: Instance, mode: str | None = None) -> Schedule:
    """The greedy selector A, repeated, on links that may transmit at different powers.

    ``mode`` "uniform" requires equal powers and is ``schedule_repeated``;
    "scaled-threshold" shrinks the admission threshold by P_min/P_max and
    admits on true non-uniform affectance; "power-regimes" buckets links
    whose powers agree up to a factor 2 and schedules each bucket as
    uniform power: its kernel, gathered from the instance's, has one power,
    and each link keeps the noise factor c_v of its own. Without a mode, an
    instance with one power is scheduled "uniform" and any other
    "power-regimes". The schedule is unverified: neither non-uniform mode
    carries a feasibility proof under the true link powers, so
    ``verify_schedule`` must pass it before it is used.

    Raises:
        ValueError: on an unknown mode.
        UnsupportedConfigurationError: in uniform mode on non-uniform input.
    """
    if mode is None:
        mode = "uniform" if instance.has_uniform_power else "power-regimes"
    if mode not in ("uniform", "scaled-threshold", "power-regimes"):
        raise ValueError(f"unknown power strategy mode {mode!r}")
    if not instance.links:
        return Schedule(())
    if mode == "uniform":
        return schedule_repeated(instance)
    powers = instance.kernel.powers.tolist()
    if mode == "scaled-threshold":
        c = compute_constants(instance.params).c
        return _repeat(instance.links, instance.kernel, c * min(powers) / max(powers))
    return _schedule_power_regimes(instance, powers)


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
