"""Link scheduling algorithms on top of the affectance machinery.

The module provides the greedy single-shot selector and its guarded variant,
repeated application for full schedules, two schedule refinement passes
(signal strengthening and spatial dispersion), non-uniform power handling,
and a first-fit baseline for comparisons.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

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
    affectance_matrix,
    distance,
    effective_power,
    is_feasible,
    noise_factor,
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


# Relative gap below which numpy's hypot (which may differ from math.hypot in
# the last ulp) does not decide the separation test; such pairs use _separated.
_SEPARATION_TIE = 1e-12


def _too_close(
    links: Sequence[Link], rows: AffectanceRows, j: int, dist_j: np.ndarray, c_hat: float
) -> np.ndarray:
    """Mask of the links that fail the separation test against admitted link j.

    Equals ``not _separated(links[i], links[j], c_hat)`` for every i; the
    numpy distances decide wherever they are clear of the bound by far more
    than rounding, and the scalar test decides the rest.
    """
    gap = np.minimum(dist_j, np.hypot(rows.sx - rows.rx[j], rows.sy - rows.ry[j]))
    bound = c_hat * rows.lengths
    near = gap <= bound
    unsure = ~(np.abs(gap - bound) > _SEPARATION_TIE * bound)
    for i in np.flatnonzero(unsure).tolist():
        near[i] = not _separated(links[i], links[j], c_hat)
    return near


def _sweep(
    links: Sequence[Link],
    rows: AffectanceRows,
    order: Sequence[int],
    threshold: float,
    c_hat: float | None = None,
) -> list[int]:
    """Indices into ``links`` admitted by one sweep in ``order``, in that order.

    A link is admitted when the accumulated affectance on it from the links
    admitted before it (their ``rows``) is at most ``threshold`` and, when
    ``c_hat`` is given, it passes B's separation test against each of them.
    The first link of ``order`` is always admitted. Only the rows of admitted
    links are computed.
    """
    acc = np.zeros(len(links))
    blocked = np.zeros(len(links), dtype=bool)
    chosen: list[int] = []
    for i in order:
        if acc[i] <= threshold + THRESHOLD_SLACK and not blocked[i]:
            chosen.append(i)
            dist = rows.distances(i)
            acc += rows.row(i, dist)
            if c_hat is not None:
                blocked |= _too_close(links, rows, i, dist, c_hat)
    return chosen


def _check_guarded(links: Sequence[Link], chosen: Sequence[int], params: ModelParams) -> None:
    """Re-verify a guarded selection, which carries no feasibility proof."""
    report = is_feasible([links[i] for i in chosen], params)
    if not report.ok:
        raise HeuristicInfeasibilityError(
            f"guarded selection is not SINR-feasible (worst link "
            f"{report.worst_link}, margin {report.margin:.3e})",
            link_id=report.worst_link,
        )


def single_shot_greedy(
    instance: Instance, constants: AlgoConstants | None = None
) -> Slot:
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
    if constants is None:
        constants = compute_constants(instance.params)
    links = instance.links
    rows = AffectanceRows(links, instance.params)
    chosen = _sweep(links, rows, _length_order(links), constants.c)
    return Slot(frozenset(links[i].id for i in chosen))


def single_shot_guarded(
    instance: Instance, constants: AlgoConstants | None = None
) -> Slot:
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
    if constants is None:
        constants = compute_constants(instance.params)
    links = instance.links
    rows = AffectanceRows(links, instance.params)
    chosen = _sweep(links, rows, _length_order(links), 2.0 / 3.0, constants.c_hat)
    _check_guarded(links, chosen, instance.params)
    return Slot(frozenset(links[i].id for i in chosen))


def _repeat(instance: Instance, threshold: float, c_hat: float | None = None) -> Schedule:
    """Sweep the still-unscheduled links round after round, on one row kernel.

    A round selects what a single shot would on the sub-instance of the
    unscheduled links, whose affectances are those of the full instance.
    Each link's row is computed once, in the round that admits it. With
    ``c_hat`` each round is the guarded heuristic and is re-verified.
    """
    links = instance.links
    rows = AffectanceRows(links, instance.params)
    order = _length_order(links)
    slots: list[Slot] = []
    while order:
        chosen = _sweep(links, rows, order, threshold, c_hat)
        if c_hat is not None:
            _check_guarded(links, chosen, instance.params)
        slots.append(Slot(frozenset(links[i].id for i in chosen)))
        taken = set(chosen)
        order = [i for i in order if i not in taken]
    return Schedule(tuple(slots))


def schedule_repeated(instance: Instance, *, guarded: bool = False) -> Schedule:
    """Partition all links by repeating a single-shot selection.

    Each round selects from the still-unscheduled links, as
    single_shot_greedy does (or single_shot_guarded when ``guarded``), and
    fixes the selection as the next slot. Holds O(n) state: the row of a
    link is computed in the round that admits it. Terminates because the
    first link of every round is admitted.

    Raises:
        HeuristicInfeasibilityError: if a guarded round fails verification.
        UnsupportedConfigurationError: on non-uniform power.
    """
    _require_uniform_power(instance.links, instance.params)
    constants = compute_constants(instance.params)
    if guarded:
        return _repeat(instance, 2.0 / 3.0, constants.c_hat)
    return _repeat(instance, constants.c)


def _first_fit_partition(
    order: Sequence[int],
    mat: np.ndarray,
    threshold: float,
) -> list[list[int]]:
    """First-fit links (given as indices in admission order) into sets.

    A link joins the first set whose accumulated affectance on it is at most
    ``threshold``; mat[i] must give the affectance of link i on every link.
    """
    sets: list[list[int]] = []
    accs: list[np.ndarray] = []
    for i in order:
        for members, acc in zip(sets, accs):
            if acc[i] <= threshold + THRESHOLD_SLACK:
                members.append(i)
                acc += mat[i]
                break
        else:
            sets.append([i])
            accs.append(mat[i].copy())
    return sets


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
    if len(links) <= 1:
        return (slot,) if links else ()
    sub = Instance(params=instance.params, links=links)
    mat = affectance_matrix(sub)
    threshold = 1.0 / (2.0 * p_prime)
    decreasing = sorted(
        range(len(links)), key=lambda i: (-links[i].length, links[i].id)
    )
    out: list[Slot] = []
    for first_pass_set in _first_fit_partition(decreasing, mat, threshold):
        increasing = sorted(first_pass_set, key=lambda i: (links[i].length, links[i].id))
        for final_set in _first_fit_partition(increasing, mat, threshold):
            out.append(Slot(frozenset(links[i].id for i in final_set)))
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
    out: list[Slot] = []
    for slot in schedule.slots:
        out.extend(strengthen_slot(instance, slot, p_prime))
    return Schedule(tuple(out))


def disperse_slot(instance: Instance, slot: Slot, q: float) -> tuple[Slot, ...]:
    """Split one feasible slot into q-dispersed sets.

    Links are processed in increasing length order and first-fit into the
    first set where the candidate's receiver lies at distance at least
    (q * c_v**(1/alpha) + 2) * len(v) from every sender and receiver already
    in the set. Output sets are q-dispersed, and remain feasible because
    affectance only shrinks on subsets.
    """
    params = instance.params
    links = instance.resolve(slot)
    if len(links) <= 1:
        return (slot,) if links else ()
    ordered = sorted(links, key=lambda l: (l.length, l.id))
    sets: list[list[Link]] = []
    for v in ordered:
        bound = (q * noise_factor(v, params) ** (1.0 / params.alpha) + 2.0) * v.length
        for members in sets:
            if all(
                distance(w.sender, v.receiver) >= bound
                and distance(w.receiver, v.receiver) >= bound
                for w in members
            ):
                members.append(v)
                break
        else:
            sets.append([v])
    return tuple(Slot(frozenset(l.id for l in s)) for s in sets)


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
    out: list[Slot] = []
    for slot in schedule.slots:
        out.extend(disperse_slot(instance, slot, q))
    return Schedule(tuple(out))


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
    if not instance.links:
        return Schedule(())
    rows = AffectanceRows(instance.links, instance.params)
    bound = 1.0 / instance.params.beta + THRESHOLD_SLACK
    sets: list[list[int]] = []
    accs: list[np.ndarray] = []
    for i in range(len(instance.links)):
        row = rows.row(i)
        for members, acc in zip(sets, accs):
            if acc[i] <= bound and (acc[members] + row[members] <= bound).all():
                members.append(i)
                acc += row
                break
        else:
            sets.append([i])
            accs.append(row)
    return Schedule(
        tuple(Slot(frozenset(instance.links[i].id for i in s)) for s in sets)
    )
