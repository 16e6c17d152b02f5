"""Link scheduling algorithms on top of the affectance machinery.

The module provides the greedy single-shot selector and its guarded variant,
repeated application for full schedules, two schedule refinement passes
(signal strengthening and spatial dispersion), non-uniform power handling,
and a first-fit baseline for comparisons.
All of them admit links through ``_sweep``, which fills one set, and
``_first_fit``, which repeats it on the links left (first-fit in that order).
Both hold O(n) state. A sweep gathers the ``core.AffectanceRows`` kernel of
its links and computes an admitted link's row only over the live links ahead
of it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    THRESHOLD_SLACK,
    AffectanceRows,
    HeuristicInfeasibilityError,
    Instance,
    Link,
    ModelParams,
    PreconditionError,
    Schedule,
    SchedulingError,
    Slot,
    UnsupportedConfigurationError,
    _require_uniform_power,
    distance,
    effective_power,
    gathered_report,
    p_signal_violation,
    slot_reports,
    verify_schedule,
)

INTERFERENCE_CONSTANT = 72.0


@dataclass(frozen=True)
class AlgoConstants:
    """Deterministic constants driving the greedy selectors.

    C is the ring-summation interference constant (72 exactly); tau sets the
    admission threshold c = tau**-alpha of the analyzed selector; c_hat is
    the separation multiplier of the guarded heuristic; nu is the signal
    level at which the optimum is compared against the greedy output.
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
    # float round-trip of x**(1/alpha) back through **alpha can undershoot,
    # hence the relative tolerance
    if (tau - 2.0) ** alpha < rhs * (1.0 - 1e-9):
        raise SchedulingError(
            f"threshold consistency violated: (tau-2)^alpha = "
            f"{(tau - 2.0) ** alpha} < {rhs}"
        )
    c_hat = max(2.0, (288.0 * beta * ratio) ** (1.0 / alpha))
    return AlgoConstants(
        C=INTERFERENCE_CONSTANT,
        tau=tau,
        c=tau**-alpha,
        c_hat=c_hat,
        nu=2.0 * (1.5 * tau) ** alpha,
    )


@dataclass(frozen=True)
class PowerStrategy:
    """How to handle per-link transmission powers when scheduling.

    mode "uniform" requires equal powers and runs the plain machinery;
    "scaled-threshold" shrinks the admission threshold by P_min/P_max and
    admits on true non-uniform affectance; "power-regimes" buckets links
    whose powers agree up to regime_base and schedules buckets separately.
    """

    mode: str = "uniform"
    regime_base: float = 2.0

    def __post_init__(self) -> None:
        if self.mode not in ("uniform", "scaled-threshold", "power-regimes"):
            raise ValueError(f"unknown power strategy mode {self.mode!r}")
        if not (self.regime_base > 1.0):
            raise ValueError(f"regime_base must exceed 1, got {self.regime_base}")


def _length_order(links: Sequence[Link]) -> list[int]:
    """Indices into ``links`` in non-decreasing length order, ties by id."""
    return sorted(range(len(links)), key=lambda i: (links[i].length, links[i].id))


def _separated(v: Link, w: Link, c_hat: float) -> bool:
    """B's symmetric separation test of candidate v against admitted w (scalar reference)."""
    gap = min(distance(w.sender, v.receiver), distance(v.sender, w.receiver))
    return gap > c_hat * v.length


# Relative gap below which a kernel distance (which may differ from math.hypot
# in the last ulp) does not decide a distance test; such pairs use the scalar test.
_DISTANCE_TIE = 1e-12


def _tie_band(
    gap: np.ndarray, bound: np.ndarray, scalar_near: Callable[[int], bool]
) -> np.ndarray:
    """Mask of ``gap < bound``; inside the ``_DISTANCE_TIE`` band ``scalar_near(i)`` decides."""
    near = gap < bound
    unsure = ~(np.abs(gap - bound) > _DISTANCE_TIE * bound)
    for i in unsure.nonzero()[0].tolist():
        near[i] = scalar_near(i)
    return near


def _too_close(
    links: Sequence[Link],
    rows: AffectanceRows,
    ids: np.ndarray,
    j: int,
    ahead: slice,
    dist: np.ndarray,
    c_hat: float,
) -> np.ndarray:
    """B's mask against admitted link j: ``not _separated(v, links[ids[j]], c_hat)`` for v ahead.

    ``rows`` is the kernel of ``links[ids]``; ``ahead`` selects the
    candidates and ``dist`` is ``rows.distances(j, ahead)``.
    """
    gap = np.minimum(dist, rows.norm(rows.sx[ahead] - rows.rx[j], rows.sy[ahead] - rows.ry[j]))
    w, v = links[ids[j]], ids[ahead]
    return _tie_band(
        gap, c_hat * rows.lengths[ahead], lambda i: not _separated(links[v[i]], w, c_hat)
    )


def _dispersed(v: Link, w: Link, bound: float) -> bool:
    """Disperse's test of candidate v against set member w (scalar reference)."""
    return distance(w.sender, v.receiver) >= bound and distance(w.receiver, v.receiver) >= bound


def _not_dispersed(
    links: Sequence[Link],
    rows: AffectanceRows,
    ids: np.ndarray,
    j: int,
    ahead: slice,
    dist: np.ndarray,
    bound: np.ndarray,
) -> np.ndarray:
    """Disperse's mask against member j: ``not _dispersed(links[i], links[ids[j]], bound[i])``.

    Evaluated for the links i = ``ids[ahead]``; ``rows``, ``ahead`` and
    ``dist`` are as for ``_too_close``, and ``bound`` is indexed like ``links``.
    """
    gap = np.minimum(dist, rows.norm(rows.rx[j] - rows.rx[ahead], rows.ry[j] - rows.ry[ahead]))
    w, v = links[ids[j]], ids[ahead]
    return _tie_band(gap, bound[v], lambda i: not _dispersed(links[v[i]], w, bound[v[i]]))


# Fewest links ahead for which the sweep looks for dead ones: on shorter
# suffixes numpy's per-call cost outweighs the cells a compaction saves.
_FRONTIER_MIN = 64

# near(rows, ids, j, ahead, rows.distances(j, ahead)) -> mask of the links
# ahead that may not share a set with j; rows is the kernel of links[ids]
NearMask = Callable[[AffectanceRows, np.ndarray, int, slice, np.ndarray], np.ndarray]


def _sweep(
    rows: AffectanceRows,
    order: Sequence[int],
    threshold: float,
    near: NearMask | None = None,
    guard: bool = False,
) -> list[int]:
    """Indices admitted by one sweep in ``order``, in admission order.

    A link is admitted when the accumulated affectance on it from the links
    admitted before it is at most ``threshold``, it is in no ``near`` mask
    of theirs, and, with ``guard``, adding it keeps the affectance on each
    of them at most ``threshold`` too. The first link of ``order`` is always
    admitted.

    The sweep runs on a live frontier. It gathers the kernel of ``order`` in
    sweep order (``rows.take``) and evaluates an admitted link's row (when
    ``threshold`` is finite) and its ``near`` mask only on the links ahead
    of it; a blocked link's accumulator becomes NaN. Affectances are
    non-negative, so a link over the threshold or blocked is never admitted
    later in the sweep: when at least ``_FRONTIER_MIN`` links lie ahead and
    fewer than half of them are live, the kernel is gathered again from the
    live links ahead. With ``guard``, the members and their accumulators sit
    in admission order in one kernel block; a candidate is written at
    position m and probed by ``block(m, :m)``, a member in place if admitted.
    Sets and float sums are those of full rows.
    """
    ids = np.asarray(order, dtype=np.intp)
    kernel = rows.take(ids)
    if guard:  # the members in admission order, and their accumulators
        members, member_acc = kernel.with_data(np.empty_like(kernel.data)), np.empty(len(ids))
    bound = threshold + THRESHOLD_SLACK
    acc = np.zeros(len(ids))  # NaN once a near mask blocks the link: it fails every test
    chosen = np.empty(len(ids), dtype=np.intp)
    m, i = 0, -1
    while i + 1 < len(ids):
        i += 1
        if not acc[i] <= bound:
            continue
        if guard:
            members.data[:, m] = kernel.data[:, i]
            on = members.block(m, slice(m), members.distances(m, slice(m)))
            admitted = member_acc[:m]
            if not (admitted + on <= bound).all():
                continue
            admitted += on
            member_acc[m] = acc[i]
        chosen[m] = ids[i]
        m += 1
        ahead = slice(i + 1, None)
        dist = kernel.distances(i, ahead)
        if threshold < math.inf:
            acc[ahead] += kernel.block(i, ahead, dist)
        if near is not None:
            acc[ahead][near(kernel, ids, i, ahead, dist)] = math.nan
        if len(ids) - i - 1 < _FRONTIER_MIN:
            continue
        live = acc[ahead] <= bound
        if 2 * np.count_nonzero(live) < len(live):
            keep = i + 1 + np.flatnonzero(live)
            kernel, ids, acc = kernel.take(keep), ids[keep], acc[keep]
            i = -1
    return chosen[:m].tolist()


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
    state. Each round evaluates rows only over the live links ahead of each
    admitted link, and the guard only over the round's members.
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


def _check_guarded(
    rows: AffectanceRows, links: Sequence[Link], chosen: Sequence[int], params: ModelParams
) -> None:
    """Re-verify a guarded selection, which carries no feasibility proof.

    The report is ``is_feasible`` of the chosen links, read off ``rows``,
    the kernel of ``links``, which its construction found free of senders
    on receivers.
    """
    idx = sorted(chosen, key=lambda i: links[i].id)
    report = gathered_report(rows, idx, [links[i] for i in idx], params, scan=False)
    if not report.ok:
        raise HeuristicInfeasibilityError(
            f"guarded selection is not SINR-feasible (worst link "
            f"{report.worst_link}, margin {report.margin:.3e})",
            link_id=report.worst_link,
        )


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
    _require_uniform_power(instance.links, instance.params)
    constants = compute_constants(instance.params)
    links = instance.links
    rows = AffectanceRows(links, instance.params)
    chosen = _sweep(rows, _length_order(links), constants.c)
    return Slot(frozenset(links[i].id for i in chosen))


def single_shot_guarded(instance: Instance) -> Slot:
    """Guarded greedy heuristic: affectance cap 2/3 plus a separation test.

    Links are swept in non-decreasing length order and admitted when the
    accumulated affectance is at most 2/3 and both cross distances
    min(d(s_w, r_v), d(s_v, r_w)) to each admitted link w exceed c_hat times
    the candidate's length. The heuristic carries no feasibility proof, so
    the output is always re-verified and an error is raised instead of
    silently trimming.

    Raises:
        HeuristicInfeasibilityError: if the selected set fails verification.
        UnsupportedConfigurationError: on non-uniform power.
    """
    _require_uniform_power(instance.links, instance.params)
    constants = compute_constants(instance.params)
    links = instance.links
    rows = AffectanceRows(links, instance.params)
    near = functools.partial(_too_close, links, c_hat=constants.c_hat)
    chosen = _sweep(rows, _length_order(links), 2.0 / 3.0, near)
    _check_guarded(rows, links, chosen, instance.params)
    return Slot(frozenset(links[i].id for i in chosen))


def _repeat(instance: Instance, threshold: float, c_hat: float | None = None) -> Schedule:
    """First-fit in length order on one row kernel: round k is slot k.

    A round selects what a single shot would on the sub-instance of the
    unscheduled links, whose affectances are those of the full instance.
    With ``c_hat`` each round is the guarded heuristic and is re-verified.
    """
    links = instance.links
    rows = AffectanceRows(links, instance.params)
    near = None if c_hat is None else functools.partial(_too_close, links, c_hat=c_hat)
    rounds = _first_fit(rows, _length_order(links), threshold, near)
    if c_hat is not None:
        for chosen in rounds:
            _check_guarded(rows, links, chosen, instance.params)
    return Schedule(_slots(links, rounds))


def schedule_repeated(instance: Instance, *, guarded: bool = False) -> Schedule:
    """Partition all links by repeating a single-shot selection.

    Each round selects from the still-unscheduled links, as
    single_shot_greedy does (or single_shot_guarded when ``guarded``), and
    fixes the selection as the next slot. Holds O(n) state: the row of a
    link is computed in the round that admits it. Terminates because the
    first link of every round is admitted. With ``guarded`` every round is
    checked on both routes of ``is_feasible`` as it ends (``SELF_GATED``).

    Raises:
        HeuristicInfeasibilityError: if a guarded round fails verification.
        UnsupportedConfigurationError: on non-uniform power.
    """
    _require_uniform_power(instance.links, instance.params)
    constants = compute_constants(instance.params)
    if guarded:
        return _repeat(instance, 2.0 / 3.0, constants.c_hat)
    return _repeat(instance, constants.c)


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
    links = instance.resolve(slot)
    rows = AffectanceRows(links, instance.params)
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
    links = instance.resolve(slot)
    rows = AffectanceRows(links, instance.params)
    bound = (q * rows.cv ** (1.0 / rows.alpha) + 2.0) * rows.lengths
    near = functools.partial(_not_dispersed, links, bound=bound)
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
    _require_uniform_power(instance.links, instance.params)
    for idx, report in enumerate(slot_reports(instance, schedule)):
        if not report.ok:
            raise PreconditionError(
                f"input slot {idx} is not SINR-feasible (worst link "
                f"{report.worst_link})"
            )
    pieces = (disperse_slot(instance, slot, q) for slot in schedule.slots)
    return Schedule(tuple(s for slots in pieces for s in slots))


def _schedule_scaled_threshold(instance: Instance) -> Schedule:
    constants = compute_constants(instance.params)
    powers = [effective_power(l, instance.params) for l in instance.links]
    return _repeat(instance, constants.c * min(powers) / max(powers))


def _schedule_power_regimes(instance: Instance, base: float) -> Schedule:
    powers = {l.id: effective_power(l, instance.params) for l in instance.links}
    p_min = min(powers.values())
    buckets: dict[int, list[Link]] = {}
    for link in instance.links:
        # epsilon keeps exact powers of the base in their own bucket
        k = math.floor(math.log(powers[link.id] / p_min) / math.log(base) + 1e-12)
        buckets.setdefault(k, []).append(link)
    slots: list[Slot] = []
    for k in sorted(buckets):
        bucket = buckets[k]
        worst_case = min(powers[l.id] for l in bucket)
        uniform = tuple(dataclasses.replace(l, power=worst_case) for l in bucket)
        sub = Instance(params=instance.params, links=uniform)
        slots.extend(schedule_repeated(sub).slots)
    return Schedule(tuple(slots))


def schedule_nonuniform(instance: Instance, strategy: PowerStrategy) -> Schedule:
    """Schedule an instance whose links may transmit at different powers.

    See PowerStrategy for the available modes. Whatever the mode, the
    returned schedule passes ``verify_schedule`` under the true link powers.

    Raises:
        VerificationError: if the produced schedule fails that final check.
        UnsupportedConfigurationError: in uniform mode on non-uniform input.
    """
    if not instance.links:
        schedule = Schedule(())
    elif strategy.mode == "uniform":
        schedule = schedule_repeated(instance)
    elif strategy.mode == "scaled-threshold":
        schedule = _schedule_scaled_threshold(instance)
    else:
        schedule = _schedule_power_regimes(instance, strategy.regime_base)
    verify_schedule(instance, schedule)
    return schedule


def first_fit_baseline(instance: Instance) -> Schedule:
    """First-fit scheduling in input order, for baseline comparisons.

    Each link lands in the first existing slot that stays SINR-feasible
    after the addition, else it opens a new slot.
    """
    links = instance.links
    rows = AffectanceRows(links, instance.params)
    rounds = _first_fit(rows, range(len(links)), 1.0 / instance.params.beta, guard=True)
    return Schedule(_slots(links, rounds))


# the whole-schedule algorithms by name; a SELF_GATED one passes the emission
# gate's checks as it runs (B partitions and verifies each round on both routes)
ALGORITHMS: dict[str, Callable[[Instance], Schedule]] = {
    "A-repeated": schedule_repeated,
    "B-repeated": lambda instance: schedule_repeated(instance, guarded=True),
    "first-fit-baseline": first_fit_baseline,
}
SELF_GATED = frozenset({"B-repeated"})
