"""Affectance calculus for SINR link scheduling: the kernel, the slot verifier, the predicates.

This is the measurement layer the rest of the package trusts: the affectance
of a set of transmitting links on a victim link, SINR feasibility of a slot,
signal-level (p-signal) and spatial-separation (q-dispersed) predicates. The
records it measures (points, links, model parameters, slots, schedules,
instances) and the received-power helpers are ``model``'s, re-exported here.

The interference a link ``w`` inflicts on a link ``v`` is always measured
from w's sender to v's receiver, d(s_w, r_v).

Each instance has one affectance kernel, ``Instance.kernel``: built on first
use, read-only, and read by the schedulers, the slot verifier, the refiners
and the oracles alike.

Every function here is pure, so everything is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# the model's records and scalar helpers, re-exported: every core.X a caller reads resolves
from .model import (  # noqa: F401
    DEFAULT_MODEL_PARAMS, MODEL_PARAM_NAMES, THRESHOLD_SLACK, InfeasibleLinkError, Instance, Link,
    ModelParams, PartitionReport, Point, PreconditionError, Schedule, SchedulingError,
    SingularityError, SizeLimitError, Slot, UnsupportedConfigurationError, VerificationError,
    ceiling, distance, effective_power, noise_factor, partition_report, received_power,
)


def relative_interference(w: Link, v: Link, params: ModelParams) -> float:
    """Interference from w's sender relative to v's own signal, at v's receiver.

    Ratio of the power received at r_v from s_w over the power received at r_v
    from s_v. Zero when w and v are the same link (self-interference is
    defined away); infinite when s_w coincides with r_v.
    """
    if w.id == v.id:
        return 0.0
    num = received_power(w.sender, v.receiver, effective_power(w, params), params)
    den = received_power(v.sender, v.receiver, effective_power(v, params), params)
    return num / den


def single_affectance(w: Link, v: Link, params: ModelParams) -> float:
    """Affectance of a single link w on v: c_v * RI_w(v)."""
    return noise_factor(v, params) * relative_interference(w, v, params)


def affectance(members: Iterable[Link], v: Link, params: ModelParams) -> float:
    """Affectance of a set of links on v: c_v times the summed relative interference.

    The self term contributes 0, so the victim may be a member of the set.
    Summation follows the iteration order of ``members`` (resolve slots in id
    order for reproducible floats). Additive over disjoint sets.
    """
    cv = noise_factor(v, params)
    total = 0.0
    for w in members:
        total += relative_interference(w, v, params)
    return cv * total


class AffectanceRows:
    """The affectance kernel of ``links``: the only vectorized affectance formula.

    An instance has one, ``Instance.kernel``, built once and read-only:
    the schedulers sweep it, and ``slot_reports``, the refiners and the
    oracles gather their sets from it (``Instance.gather``). Only
    ``is_feasible``, which has links and no instance, builds another.
    Its per-link arrays are the rows of one (7, n) array ``data``: sender
    and receiver coordinates, powers, lengths d_vv and noise factors c_v.
    ``block`` is the formula; ``row(i)`` (links[i] on every link, in O(n)),
    ``matrix`` and the affectance route of ``is_feasible`` read it. ``take``
    gathers the kernel of a subsequence of the links, the same floats: the
    sweeps evaluate ``block`` on one, from an admitted link to the live links
    ahead of it only, so they never hold an n x n array. ``take`` keeps two
    records made once per kernel: ``unit`` (every c_v 1.0 and every power
    equal: ``block`` skips its factor c_v (P_w/P_v), exactly 1.0) and
    ``hypot`` (a coordinate above 1e150 or nonzero below 1e-130, where dx*dx
    may overflow or leave the normal range: ``norm`` takes ``np.hypot``).
    ``of_links`` gathers as a kernel built from the gathered links would be,
    with their own records.

    A sender on another link's receiver is at distance 0, where ``block``
    takes the limit: a_w(v) = inf, which no threshold test admits. Its
    callers (``row``, ``matrix``, the sweeps) silence numpy's divide-by-zero
    warning once per call rather than once per ``block``.
    """

    def __init__(self, links: Sequence[Link], params: ModelParams):
        self._fill(links, params)

    def _fill(self, links: Sequence[Link], params: ModelParams) -> None:
        data = np.empty((7, len(links)))
        data[:5] = [
            [l.sender.x for l in links], [l.sender.y for l in links],
            [l.receiver.x for l in links], [l.receiver.y for l in links],
            [effective_power(l, params) for l in links],
        ]
        self._adopt(data, params.alpha)._derive(params)
        data.flags.writeable = False
        self._adopt(data, self.alpha, self.unit, self.hypot)  # read-only row views

    def _derive(self, params: ModelParams) -> AffectanceRows:
        """The ``hypot`` record, the lengths, the noise factors and the ``unit`` record."""
        coords = np.abs(self.data[:4])
        self.hypot = bool(((coords > 1e150) | ((coords < 1e-130) & (coords > 0))).any())
        self.lengths[:] = self.norm(self.sx - self.rx, self.sy - self.ry)
        with np.errstate(all="ignore"):  # a dead link is the caller's error to raise
            pvv = self.powers / self.lengths**self.alpha
            self.cv[:] = 1.0 / (1.0 - params.beta * params.noise / pvv)
        self._unit()
        return self

    def _unit(self) -> None:
        self.unit = bool((self.cv == 1.0).all() and (self.powers == self.powers[:1]).all())

    def _adopt(self, data: np.ndarray, alpha: float, unit=False, hypot=False) -> AffectanceRows:
        self.data, self.alpha, self.unit, self.hypot = data, alpha, unit, hypot
        self.sx, self.sy, self.rx, self.ry, self.powers, self.lengths, self.cv = data
        return self

    def with_data(self, data: np.ndarray) -> AffectanceRows:
        """The kernel whose rows are ``data`` (7 x m), with this kernel's alpha and records."""
        return object.__new__(AffectanceRows)._adopt(data, self.alpha, self.unit, self.hypot)

    def take(self, idx: np.ndarray) -> AffectanceRows:
        """The kernel of the links at positions ``idx``, in order: one gather, the same floats."""
        return self.with_data(self.data[:, idx])

    def of_links(self, idx: Sequence[int], params: ModelParams) -> AffectanceRows:
        """The kernel of the links at positions ``idx``, as ``AffectanceRows`` of them would build it.

        The records are the gathered links' own: a kernel with no extreme
        coordinate has this kernel's lengths and noise factors, and any
        other derives them again.
        """
        geo = self.take(idx)
        if self.hypot:
            return geo._derive(params)
        if not self.unit:
            geo._unit()
        return geo

    def norm(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """sqrt(dx*dx + dy*dy) in place in ``dx`` (``np.hypot`` on a ``hypot`` kernel)."""
        if self.hypot:
            return np.hypot(dx, dy, out=dx)
        dx *= dx
        dx += dy * dy
        return np.sqrt(dx, out=dx)

    def distances(self, w: int | slice, v: slice | np.ndarray = slice(None)) -> np.ndarray:
        """d(s_w, r_v) for the links v (all by default); ``w=slice(None)`` gives the block [w, v]."""
        return self.norm(self.sx[w, None] - self.rx[v], self.sy[w, None] - self.ry[v])

    def block(self, w, v, dist: np.ndarray) -> np.ndarray:
        """a_w(v) = c_v (P_w/P_v) (d_vv/d(s_w, r_v))^alpha, w == v kept; w, v, dist broadcast."""
        out = self.lengths[v] / dist
        out **= self.alpha
        if not self.unit:
            out *= self.cv[v] * (self.powers[w] / self.powers[v])
        return out

    @np.errstate(divide="ignore")
    def row(self, i: int) -> np.ndarray:
        """Affectance of links[i] on every link, entry i 0."""
        out = self.block(i, slice(None), self.distances(i))
        out[i] = 0.0
        return out

    @np.errstate(divide="ignore")
    def matrix(self, dist: np.ndarray | None = None) -> np.ndarray:
        """Every a_w(v) as an n x n array [w, v], zero diagonal: row w is ``row(w)`` bit for bit."""
        ids = np.arange(len(self.lengths))
        out = self.block(ids[:, None], ids, self.distances(slice(None)) if dist is None else dist)
        np.fill_diagonal(out, 0.0)
        return out


def affectance_matrix(instance: Instance) -> np.ndarray:
    """Pairwise single-link affectances: the instance kernel's ``matrix``, read-only.

    Entry [i, j] is the affectance of links[i] on links[j] (indices follow
    instance.links order); the diagonal is zero. One kernel call over the
    whole distance block; it agrees with single_affectance entrywise up to
    float rounding. Schedulers and refiners read rows on demand instead; the
    exact oracles read the same floats in id order (``id_ordered``).
    """
    mat = instance.kernel.matrix()
    mat.flags.writeable = False
    return mat


def id_ordered(instance: Instance) -> tuple[tuple[Link, ...], AffectanceRows]:
    """The links in ascending id order and their kernel, one gather of ``instance.kernel``."""
    return instance.gather(sorted(instance.position))


# Relative band around a distance bound inside which the float verdict does not decide.
# A kernel distance, or a float multiple of one, lies within a few ulps of its exact
# value, so outside the band the float verdict is the exact one. An affectance is a
# distance ratio to the power alpha: its band is alpha times as wide.
DISTANCE_TIE = 1e-12


def exactly_near(
    p: Sequence[float], r: Sequence[float], factor: float, v: Sequence[float], strict: bool
) -> bool:
    """d(p, r) < factor * d(s_v, r_v) (``<=`` unless ``strict``), decided by ``Fraction`` exactly.

    ``p`` and ``r`` are points (x, y); ``v`` is a kernel column (s_v, r_v, ...).
    """
    from fractions import Fraction  # on first use: it imports decimal (about 2 ms), and ties are rare

    def squared(x0: float, y0: float, x1: float, y1: float) -> Fraction:
        dx, dy = Fraction(x0) - Fraction(x1), Fraction(y0) - Fraction(y1)
        return dx * dx + dy * dy

    gap, bound = squared(*p, *r), Fraction(factor) ** 2 * squared(*v[:4])
    return gap < bound if strict else gap <= bound


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict and diagnostics of a slot feasibility check.

    ``feasible`` is the affectance-criterion verdict (a_S(v) <= 1/beta, by
    ``ceiling``); ``sinr_feasible`` is the independent direct-SINR-ratio verdict.
    ``worst_link`` has the largest affectance ``max_affectance`` (smallest id
    on ties); ``margin`` = 1/beta - max_affectance, the minimum over links of
    (1/beta - a_S(v)) as rounding is monotone; ``sinr_margin`` = min over
    links of (SINR/beta - 1). ``max_pair_affectance`` is the largest
    single-link affectance a_w(v) over distinct members (0 for slots of at
    most one link). Empty slots are feasible with infinite margins.
    """

    feasible: bool
    sinr_feasible: bool
    worst_link: int | None
    margin: float
    sinr_margin: float
    max_affectance: float = 0.0
    max_pair_affectance: float = 0.0

    @property
    def ok(self) -> bool:
        """Both routes accept the slot."""
        return self.feasible and self.sinr_feasible


def _sinr_ratio(members: Sequence[Link], v: Link, params: ModelParams) -> float:
    """Direct SINR of v against the other members: P_vv / (sum of P_vw + N)."""
    pvv = received_power(v.sender, v.receiver, effective_power(v, params), params)
    interference = 0.0
    for w in members:
        if w.id != v.id:
            interference += received_power(w.sender, v.receiver, effective_power(w, params), params)
    denom = interference + params.noise
    if denom == 0.0:
        return math.inf
    return pvv / denom


def is_feasible(members: Sequence[Link], params: ModelParams) -> FeasibilityReport:
    """Check a slot against the SINR condition, via two independent routes.

    Route one evaluates the SINR ratio of every member from received powers
    P_w / d(s_w, r_v)^alpha; route two checks a_S(v) <= 1/beta on the
    ``AffectanceRows`` kernel, the arithmetic the schedulers admit with. They
    share only the distances; both sum over senders in id order, like the
    scalar ``_sinr_ratio`` and ``affectance``. ``feasible`` is route two's verdict.
    """
    ordered = sorted(members, key=lambda l: l.id)
    return _slot_report(AffectanceRows(ordered, params), ordered, params)


def _slot_report(geo: AffectanceRows, ordered: Sequence[Link], params: ModelParams) -> FeasibilityReport:
    """``is_feasible`` of the links ``ordered`` (ascending ids), whose kernel is ``geo``."""
    if not ordered:
        return FeasibilityReport(True, True, None, math.inf, math.inf)
    dist = geo.distances(slice(None))
    # received power takes its limits: 0 where d^alpha passes the float range, inf at d = 0
    with np.errstate(divide="ignore", over="ignore"):
        recv = geo.powers[:, None] / dist**params.alpha
    signal = recv.diagonal().copy()
    bn = params.beta * params.noise
    if np.any(signal <= bn):
        link = ordered[int(np.argmax(signal <= bn))]
        raise InfeasibleLinkError(link.id, f"link {link.id} is infeasible even alone")
    np.fill_diagonal(recv, 0.0)
    with np.errstate(divide="ignore", over="ignore"):  # no or subnormal interference, no noise: SINR is inf
        sinr = signal / (recv.sum(axis=0) + params.noise) / params.beta - 1.0
    del recv  # one m x m array fewer at the kernel's peak
    mat = geo.matrix(dist)
    aff = mat.sum(axis=0)
    worst = int(np.argmax(aff))
    max_aff, sinr_margin = float(aff[worst]), float(sinr.min())
    inv_beta = 1.0 / params.beta
    return FeasibilityReport(
        max_aff <= ceiling(inv_beta),
        sinr_margin >= -THRESHOLD_SLACK,
        ordered[worst].id,
        inv_beta - max_aff,
        sinr_margin,
        max_aff,
        float(mat.max()),
    )


def slot_reports(instance: Instance, schedule: Schedule) -> list[FeasibilityReport]:
    """The feasibility report of every slot, in slot order: the one slot verifier.

    One report answers every question asked of a slot: both routes
    (``ok``), the p-signal level (``first_p_violation``), the theta-scaled
    margin (``max_affectance``) and q-dispersion (``report_q_dispersed``).
    Each report is ``is_feasible`` of the slot's links, the same floats,
    read off the instance kernel (``Instance.gather``). A slot holding a
    sender on another member's receiver fails with ``margin`` -inf. Raises
    KeyError on ids that do not belong to the instance.
    """
    reports = []
    for slot in schedule.slots:
        links, kernel = instance.gather(slot.sorted_members)
        reports.append(_slot_report(kernel, links, instance.params))
    return reports


def verify_schedule(instance: Instance, schedule: Schedule) -> None:
    """The emission gate: raise unless ``schedule`` is fit to leave the program.

    The schedule must partition the instance's link ids and every slot must
    pass both routes of the slot verifier.

    Raises:
        VerificationError: naming the partition defect, or the first failing
            slot (``slot_index``) and its worst link (``link_id``).
    """
    report = partition_report(instance, schedule)
    if not report.is_partition:
        raise VerificationError(
            f"schedule is not a partition: missing={report.missing} "
            f"duplicated={report.duplicated} dangling={report.dangling}"
        )
    for idx, fr in enumerate(slot_reports(instance, schedule)):
        if not fr.ok:
            raise VerificationError(
                f"slot {idx} failed verification (worst link {fr.worst_link}, "
                f"margin {fr.margin:.6g})",
                link_id=fr.worst_link,
                slot_index=idx,
            )


def p_signal_violation(instance: Instance, schedule: Schedule, p: float) -> tuple[int, int, float] | None:
    """(slot index, worst link id, its affectance) of the first slot above 1/p, or None."""
    return first_p_violation(slot_reports(instance, schedule), p)


def first_p_violation(
    reports: Sequence[FeasibilityReport], p: float
) -> tuple[int, int, float] | None:
    """(slot index, worst link id, its affectance) of the first report above 1/p, or None."""
    if not (p > 0):
        raise ValueError(f"p must be positive, got {p}")
    bound = ceiling(1.0 / p)
    for idx, report in enumerate(reports):
        if not report.max_affectance <= bound:
            return (idx, report.worst_link, report.max_affectance)
    return None


def _require_uniform_power(links: Sequence[Link], params: ModelParams) -> None:
    powers = {effective_power(l, params) for l in links}
    if len(powers) > 1:
        raise UnsupportedConfigurationError(
            "dispersion predicates require uniform power across the set"
        )


def is_q_near(w: Link, v: Link, q: float, params: ModelParams) -> bool:
    """True iff w sits too close to v for separation level q.

    Defined through the affectance duality: w is q-near v iff the single-link
    affectance a_w(v) exceeds q^-alpha, equivalently iff
    d(s_w, r_v) < q * c_v^(1/alpha) * d_vv. Requires uniform power.
    """
    if not (q > 0):
        raise ValueError(f"q must be positive, got {q}")
    _require_uniform_power((w, v), params)
    if w.id == v.id:
        return False
    try:
        bound = q ** (-params.alpha)
    except OverflowError:  # past the float range: d(s_w, r_v) < q c_v^(1/alpha) d_vv, exactly
        ends = (v.sender.x, v.sender.y, v.receiver.x, v.receiver.y)
        factor = q * noise_factor(v, params) ** (1.0 / params.alpha)
        return exactly_near((w.sender.x, w.sender.y), ends[2:], factor, ends, True)
    return single_affectance(w, v, params) > bound


def is_q_dispersed(members: Sequence[Link], q: float, params: ModelParams) -> bool:
    """True iff no ordered pair of distinct links in the set is q-near."""
    if not (q > 0):
        raise ValueError(f"q must be positive, got {q}")
    _require_uniform_power(members, params)
    for v in members:
        for w in members:
            if w.id != v.id and is_q_near(w, v, q, params):
                return False
    return True


def report_q_dispersed(instance: Instance, slot: Slot, report: FeasibilityReport, q: float) -> bool:
    """``is_q_dispersed`` of ``slot``'s links, whose report is ``report``, decided exactly.

    The links transmit at one power: w is q-near v iff a_w(v) > q^-alpha, iff
    d(s_w, r_v) < q c_v^(1/alpha) d_vv. The report's ``max_pair_affectance``
    decides outside the band of q^-alpha; inside it, the slot is gathered from
    ``instance.kernel`` and ``exactly_near`` decides each pair in the band.
    A level q^-alpha past the float range is inf: every finite a_w(v) lies
    below it, and a pair at a_w(v) = inf (a sender on a receiver, say) falls
    in the band, since inf - inf is NaN.
    """
    if not (q > 0):
        raise ValueError(f"q must be positive, got {q}")
    try:
        bound = q ** -instance.params.alpha
    except OverflowError:
        bound = math.inf
    band = instance.params.alpha * DISTANCE_TIE
    value = report.max_pair_affectance
    if abs(value - bound) > band * value:
        return value < bound
    _, geo = instance.gather(slot.sorted_members)
    mat = geo.matrix()
    near = mat > bound
    factor = (q * geo.cv ** (1.0 / geo.alpha)).tolist()
    cols = geo.data.T.tolist()
    with np.errstate(invalid="ignore"):  # inf - inf
        tie = ~(np.abs(mat - bound) > band * mat)
    for w, v in zip(*np.nonzero(tie)):
        near[w, v] = w != v and exactly_near(cols[w][:2], cols[v][2:4], factor[v], cols[v], True)
    return not near.any()
