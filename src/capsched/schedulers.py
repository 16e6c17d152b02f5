"""Link scheduling algorithms on top of the affectance machinery.

The module provides the greedy single-shot selector and its guarded variant,
repeated application for full schedules, two schedule refinement passes
(signal strengthening and spatial dispersion), non-uniform power handling,
and a first-fit baseline for comparisons.
All of them admit links through ``_sweep``, which fills one set, and
``_first_fit``, which repeats it on the links left (first-fit in that order).
Both hold O(n) state. They read the instance's one kernel,
``Instance.kernel``: the whole-instance schedulers sweep it, and the
refiners gather a slot's links from it (``Instance.gather``). A sweep
computes an admitted link's row only over the live links ahead of it.
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
    THRESHOLD_SLACK,
    AffectanceRows,
    Instance,
    Link,
    ModelParams,
    PreconditionError,
    Schedule,
    SchedulingError,
    Slot,
    UnsupportedConfigurationError,
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


def _tie_band(gap: np.ndarray, bound: np.ndarray, exact: Callable[[int], bool]) -> np.ndarray:
    """Mask of ``gap < bound``; inside the ``DISTANCE_TIE`` band ``exact(i)`` decides entry i."""
    near = gap < bound
    for i in np.flatnonzero(~(np.abs(gap - bound) > DISTANCE_TIE * bound)).tolist():
        near[i] = exact(i)
    return near


def _too_close(
    rows: AffectanceRows, ids: np.ndarray, j: int, ahead: slice, dist: np.ndarray, c_hat: float
) -> np.ndarray:
    """B's mask against admitted link j: min(d(s_j, r_v), d(s_v, r_j)) <= c_hat * d_vv, v ahead.

    ``rows`` is the sweep's kernel, ``ahead`` selects the candidates and
    ``dist`` is ``rows.distances(j, ahead)``; near-ties are decided exactly.
    """
    gap = np.minimum(dist, rows.norm(rows.sx[ahead] - rows.rx[j], rows.sy[ahead] - rows.ry[j]))

    def exact(i: int) -> bool:
        w, v = rows.data[:, j].tolist(), rows.data[:, ahead][:, i].tolist()
        return any(exactly_near(p, r, c_hat, v, False) for p, r in ((w[:2], v[2:4]), (v[:2], w[2:4])))

    return _tie_band(gap, c_hat * rows.lengths[ahead], exact)


def _not_dispersed(
    rows: AffectanceRows, ids: np.ndarray, j: int, ahead: slice, dist: np.ndarray, factor: np.ndarray
) -> np.ndarray:
    """Disperse's mask against member j: min(d(s_j, r_v), d(r_j, r_v)) < factor * d_vv, v ahead.

    ``factor`` is indexed like the values of ``ids``; the rest is as for ``_too_close``.
    """
    gap = np.minimum(dist, rows.norm(rows.rx[j] - rows.rx[ahead], rows.ry[j] - rows.ry[ahead]))
    mult = factor[ids[ahead]]

    def exact(i: int) -> bool:
        w, v = rows.data[:, j].tolist(), rows.data[:, ahead][:, i].tolist()
        return any(exactly_near(p, v[2:4], mult[i], v, True) for p in (w[:2], w[2:4]))

    return _tie_band(gap, mult * rows.lengths[ahead], exact)


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


def _uniform_constants(instance: Instance, selector: str) -> AlgoConstants:
    """The constants of ``selector``, which schedules uniform-power instances only."""
    if not instance.has_uniform_power:
        raise UnsupportedConfigurationError(
            f"{selector} requires uniform power across the links; per-link powers "
            f"are scheduled by --algo A with --power-mode scaled-threshold or power-regimes"
        )
    return compute_constants(instance.params)


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
    constants = _uniform_constants(instance, "the greedy selector A")
    links = instance.links
    chosen = _sweep(instance.kernel.apart(links), _length_order(links), constants.c)
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
    constants = _uniform_constants(instance, "the guarded heuristic B")
    links = instance.links
    near = functools.partial(_too_close, c_hat=constants.c_hat)
    chosen = _sweep(instance.kernel.apart(links), _length_order(links), 2.0 / 3.0, near)
    return Slot(frozenset(links[i].id for i in chosen))


def _repeat(instance: Instance, threshold: float, c_hat: float | None = None) -> Schedule:
    """First-fit in length order on one row kernel: round k is slot k.

    A round selects what a single shot would on the sub-instance of the
    unscheduled links, whose affectances are those of the full instance.
    With ``c_hat`` each round is the guarded heuristic.
    """
    links = instance.links
    near = None if c_hat is None else functools.partial(_too_close, c_hat=c_hat)
    rounds = _first_fit(instance.kernel.apart(links), _length_order(links), threshold, near)
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
    constants = _uniform_constants(
        instance, "the guarded heuristic B" if guarded else "the greedy selector A"
    )
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

    See PowerStrategy for the available modes. The schedule is unverified:
    neither non-uniform mode carries a feasibility proof under the true link
    powers, so ``verify_schedule`` must pass it before it is used.

    Raises:
        UnsupportedConfigurationError: in uniform mode on non-uniform input.
    """
    if not instance.links:
        return Schedule(())
    if strategy.mode == "uniform":
        return schedule_repeated(instance)
    if strategy.mode == "scaled-threshold":
        return _schedule_scaled_threshold(instance)
    return _schedule_power_regimes(instance, strategy.regime_base)


def first_fit_baseline(instance: Instance) -> Schedule:
    """First-fit scheduling in input order, for baseline comparisons.

    Each link lands in the first existing slot that stays SINR-feasible
    after the addition, else it opens a new slot.
    """
    links = instance.links
    rows = instance.kernel.apart(links)
    rounds = _first_fit(rows, range(len(links)), 1.0 / instance.params.beta, guard=True)
    return Schedule(_slots(links, rounds))


# the whole-schedule algorithms by name, each returning an unverified schedule
ALGORITHMS: dict[str, Callable[[Instance], Schedule]] = {
    "A-repeated": schedule_repeated,
    "B-repeated": lambda instance: schedule_repeated(instance, guarded=True),
    "first-fit-baseline": first_fit_baseline,
}
