"""Property tests: the affectance layer, the slot verifier, scheduler invariances."""

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from capsched import core
from capsched.core import (
    THRESHOLD_SLACK,
    AffectanceRows,
    Instance,
    Link,
    ModelParams,
    Point,
    Schedule,
    Slot,
    VerificationError,
    _sinr_ratio,
    affectance,
    affectance_matrix,
    ceiling,
    effective_power,
    is_feasible,
    is_q_dispersed,
    is_q_near,
    noise_factor,
    received_power,
    report_q_dispersed,
    single_affectance,
    slot_reports,
    verify_schedule,
)
from capsched.schedulers import (
    compute_constants,
    disperse,
    disperse_slot,
    first_fit_baseline,
    schedule_repeated,
    single_shot_greedy,
    strengthen,
    strengthen_slot,
)
from capsched.topogen import DEFAULT_MODEL_PARAMS, TopologySpec, generate

P_KERNEL = ModelParams(alpha=3.0, beta=1.2, noise=0.0)

coord = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


@st.composite
def link_strategy(draw, lid):
    sx, sy = draw(coord), draw(coord)
    # keep geometry non-degenerate: a length and a direction
    length = draw(st.floats(min_value=0.05, max_value=10))
    angle = draw(st.floats(min_value=0, max_value=2 * math.pi))
    power = draw(st.one_of(st.none(), st.floats(min_value=0.1, max_value=10)))
    return Link(
        id=lid,
        sender=Point(sx, sy),
        receiver=Point(sx + length * math.cos(angle), sy + length * math.sin(angle)),
        power=power,
    )


@st.composite
def separated_links(draw, n_max=6):
    n = draw(st.integers(min_value=1, max_value=n_max))
    links = []
    for i in range(n):
        link = draw(link_strategy(i))
        if all(_well_separated(link, other) for other in links):
            links.append(link)
    return tuple(links)


def _well_separated(a, b):
    # avoid singular configurations (coincident sender/receiver pairs)
    pts = [(a.sender, b.receiver), (b.sender, a.receiver)]
    return all(math.dist((p.x, p.y), (q.x, q.y)) > 1e-6 for p, q in pts)


params_strategy = st.builds(
    ModelParams,
    alpha=st.floats(min_value=2.1, max_value=6),
    beta=st.floats(min_value=0.5, max_value=3),
    noise=st.just(0.0),
    default_power=st.floats(min_value=0.5, max_value=2),
)


@given(separated_links(), params_strategy)
@settings(max_examples=60, deadline=None)
def test_affectance_nonnegative_and_additive(links, params):
    if not links:
        return
    v = links[0]
    others = links[1:]
    total = affectance(others, v, params)
    assert total >= 0.0
    parts = sum(single_affectance(w, v, params) for w in others)
    if total or parts:
        assert math.isclose(total, parts, rel_tol=1e-12)


@given(separated_links(), params_strategy)
@settings(max_examples=60, deadline=None)
def test_matrix_agrees_with_scalar(links, params):
    if not links:
        return
    inst = Instance(params=params, links=links)
    mat = affectance_matrix(inst)
    for i, w in enumerate(links):
        for j, v in enumerate(links):
            expected = 0.0 if i == j else single_affectance(w, v, params)
            got = mat[i, j]
            assert got == expected or math.isclose(got, expected, rel_tol=1e-12)


@given(separated_links(), params_strategy)
@settings(max_examples=60, deadline=None)
def test_feasibility_verdicts_agree(links, params):
    """Affectance-based and SINR-based feasibility must agree at zero noise.

    With N = 0 the affectance of a link is exactly beta / SINR, so the two
    routes are algebraically identical and may differ at most by float
    rounding right at the threshold.
    """
    if not links:
        return
    report = is_feasible(links, params)
    if report.margin > 1e-9 or report.margin < -1e-9:
        assert report.feasible == report.sinr_feasible


@given(separated_links(), params_strategy)
@settings(max_examples=40, deadline=None)
def test_subset_monotone(links, params):
    """Affectance on a victim never decreases when the set grows."""
    if len(links) < 2:
        return
    v = links[0]
    small = links[1 : len(links) // 2 + 1]
    big = links[1:]
    assert affectance(big, v, params) >= affectance(small, v, params) - 1e-15


# --- the numpy slot verifier against the scalar reference ----------------------


@st.composite
def noisy_slot(draw):
    """Separated links and parameters whose noise leaves every link alive."""
    links = draw(separated_links())
    params = draw(params_strategy)
    weakest = min(
        received_power(l.sender, l.receiver, effective_power(l, params), params) for l in links
    )
    noise = draw(st.sampled_from((0.0, 0.5))) * weakest / params.beta
    return links, params.replace(noise=noise)


@st.composite
def near_threshold_slot(draw):
    """A slot whose link 0 sits within 1e-9 of 1/beta: link 1 is moved along
    the ray from r_0 through its sender until its share tops a_S(0) up."""
    links, params = draw(noisy_slot())
    assume(len(links) >= 2)
    v, w = links[0], links[1]
    rest = affectance(links[2:], v, params)
    delta = draw(st.floats(min_value=-1e-9, max_value=1e-9))
    target = (1.0 + delta) / params.beta - rest
    assume(target > 1e-6)
    cv = noise_factor(v, params)
    ratio = effective_power(w, params) / effective_power(v, params)
    want = v.length * (cv * ratio / target) ** (1.0 / params.alpha)
    dx, dy = w.sender.x - v.receiver.x, w.sender.y - v.receiver.y
    scale = want / math.hypot(dx, dy)
    sx, sy = v.receiver.x + dx * scale, v.receiver.y + dy * scale
    moved = Link(
        id=w.id,
        sender=Point(sx, sy),
        receiver=Point(w.receiver.x - w.sender.x + sx, w.receiver.y - w.sender.y + sy),
        power=w.power,
    )
    out = (v, moved) + links[2:]
    assume(all(_well_separated(a, b) for a in out for b in out if a.id != b.id))
    return out, params


def _check_against_scalar(links, params):
    report = is_feasible(links, params)
    ordered = sorted(links, key=lambda l: l.id)
    inv_beta = 1.0 / params.beta
    affs = [affectance(ordered, v, params) for v in ordered]
    ratios = [_sinr_ratio(ordered, v, params) for v in ordered]
    ref_max = max(affs)
    ref_sinr = min(r / params.beta - 1.0 if math.isfinite(r) else math.inf for r in ratios)

    assert math.isclose(report.max_affectance, ref_max, rel_tol=1e-12)
    assert report.margin == inv_beta - report.max_affectance
    assert math.isclose(report.margin, inv_beta - ref_max, rel_tol=1e-12, abs_tol=1e-12 * inv_beta)
    assert report.sinr_margin == ref_sinr or math.isclose(
        report.sinr_margin, ref_sinr, rel_tol=1e-12, abs_tol=1e-12
    )
    worst = affs[[l.id for l in ordered].index(report.worst_link)]
    assert math.isclose(worst, ref_max, rel_tol=1e-12)
    # verdicts agree wherever the reference sits outside the tolerance band
    if abs(ref_max - ceiling(inv_beta)) > 1e-12 * ref_max:
        assert report.feasible == (ref_max <= ceiling(inv_beta))
    if abs(ref_sinr + THRESHOLD_SLACK) > 1e-12:
        assert report.sinr_feasible == (ref_sinr >= -THRESHOLD_SLACK)


@given(noisy_slot())
@settings(max_examples=80, deadline=None)
def test_fast_verifier_matches_scalar_reference(slot):
    _check_against_scalar(*slot)


@given(near_threshold_slot())
@settings(max_examples=80, deadline=None)
def test_fast_verifier_matches_scalar_near_threshold(slot):
    links, params = slot
    _check_against_scalar(links, params)
    # the construction itself: link 0 sits at 1/beta to within 1e-9 relative
    assert abs(affectance(links, links[0], params) * params.beta - 1.0) <= 2e-9


# --- the row kernel against the dense expression and the scalar reference ----


def _dense_reference(instance):
    """The n x n broadcast form of the affectance formula, independent of the kernel.

    Distances are sqrt(dx*dx + dy*dy), the kernel's formula for coordinates
    in [1e-130, 1e150] or 0 (the corpus's).
    """
    links, params = instance.links, instance.params
    sx = np.array([l.sender.x for l in links])
    sy = np.array([l.sender.y for l in links])
    rx = np.array([l.receiver.x for l in links])
    ry = np.array([l.receiver.y for l in links])
    powers = np.array([effective_power(l, params) for l in links])
    dx, dy = sx[:, None] - rx[None, :], sy[:, None] - ry[None, :]
    dist = np.sqrt(dx * dx + dy * dy)
    dvv = dist.diagonal()
    cv = 1.0 / (1.0 - params.beta * params.noise / (powers / dvv**params.alpha))
    mat = cv[None, :] * (powers[:, None] / powers[None, :]) * (dvv[None, :] / dist) ** params.alpha
    np.fill_diagonal(mat, 0.0)
    return mat


def _kernel_corpus():
    rng = np.random.default_rng(7)
    for family in ("random", "clustered"):
        for seed in (0, 1):
            inst = generate(TopologySpec(family=family, n=150, seed=seed), DEFAULT_MODEL_PARAMS)
            powers = rng.choice([1.0, 2.0, 4.0, 8.0], size=len(inst))
            per_link = tuple(
                l.replace(power=float(p)) for l, p in zip(inst.links, powers)
            )
            noisy = inst.params.replace(noise=1e-6)
            yield f"{family}-{seed}", inst
            yield f"{family}-{seed}-powers", Instance(params=inst.params, links=per_link)
            yield f"{family}-{seed}-noise", Instance(params=noisy, links=inst.links)


@pytest.mark.parametrize("name, inst", list(_kernel_corpus()))
def test_kernel_rows_equal_dense_matrix(name, inst):
    mat = affectance_matrix(inst)
    ref = _dense_reference(inst)
    assert np.array_equal(mat, ref)
    links, params = inst.links, inst.params
    for i, j in [(0, 1), (1, 0), (5, 77), (149, 3)]:
        assert math.isclose(mat[i, j], single_affectance(links[i], links[j], params), rel_tol=1e-12)


@pytest.mark.parametrize("name, inst", list(_kernel_corpus()))
def test_unit_kernel_skips_an_exact_factor(name, inst):
    # unit: no noise and one power; block equals the ratio form bit for bit
    rows = AffectanceRows(inst.links, inst.params)
    assert rows.unit is not name.endswith(("-powers", "-noise"))
    ids = np.arange(len(inst))
    dist = rows.distances(slice(None))
    ratio = rows.cv * (rows.powers[:, None] / rows.powers)
    ratio_form = (rows.lengths / dist) ** rows.alpha * ratio
    assert rows.block(ids[:, None], ids, dist).tobytes() == ratio_form.tobytes()
    # take keeps the record, even where the subset's powers are equal
    same_power = np.flatnonzero(rows.powers == rows.powers[0])
    assert rows.take(same_power[::-1]).unit is rows.unit


def _scaled(inst, factor):
    return tuple(
        Link(
            id=l.id,
            sender=Point(l.sender.x * factor, l.sender.y * factor),
            receiver=Point(l.receiver.x * factor, l.receiver.y * factor),
        )
        for l in inst.links
    )


@pytest.mark.parametrize("factor", [1e148, 1e149, 1e150, 1e151, 1e-143, 1e-144, 1e-170])
def test_kernel_takes_hypot_outside_the_square_safe_range(factor):
    # coordinates near 1e151-1e154 (dx*dx overflows near 1.3e154) or nonzero
    # below 1e-140 (dx*dx leaves the normal range): every distance is np.hypot's
    inst = generate(TopologySpec(family="random", n=40, seed=3), DEFAULT_MODEL_PARAMS)
    with np.errstate(all="ignore"):
        rows = AffectanceRows(_scaled(inst, factor), P_KERNEL)
    sx, sy, rx, ry = rows.data[:4]
    assert np.abs(rows.data[:4]).max() > 1e150 or np.abs(sx).min() < 1e-140
    assert rows.hypot
    want = np.hypot(sx[:, None] - rx, sy[:, None] - ry)
    assert rows.distances(slice(None)).tobytes() == want.tobytes()
    assert rows.lengths.tobytes() == np.hypot(sx - rx, sy - ry).tobytes()
    assert rows.take(np.arange(5)).hypot


def test_square_safe_range_bounds():
    # inside [1e-130, 1e150] or 0 the kernel squares; one ulp outside it does not
    inst = generate(TopologySpec(family="random", n=40, seed=3), DEFAULT_MODEL_PARAMS)
    rows = AffectanceRows(inst.links, P_KERNEL)
    dx = rows.sx[:, None] - rows.rx
    dy = rows.sy[:, None] - rows.ry
    assert not rows.hypot
    assert rows.distances(slice(None)).tobytes() == np.sqrt(dx * dx + dy * dy).tobytes()
    for x, hypot in [
        (1e150, False),
        (-1e150, False),
        (math.nextafter(1e150, math.inf), True),
        (1e-130, False),
        (math.nextafter(1e-130, 0.0), True),
        (-5e-324, True),
        (0.0, False),
    ]:
        extra = Link(id=99, sender=Point(x, 3.0), receiver=Point(x, 4.0))
        with np.errstate(all="ignore"):
            assert AffectanceRows(inst.links + (extra,), P_KERNEL).hypot is hypot, x


def _one_far_link():
    inst = generate(TopologySpec(family="random", n=60, seed=4), DEFAULT_MODEL_PARAMS)
    far = Link(id=60, sender=Point(3e151, 0.0), receiver=Point(3e151, 2.0), power=2.0)
    return Instance(params=inst.params, links=inst.links + (far,))


@pytest.mark.parametrize(
    "name, inst", list(_kernel_corpus()) + [("one-far-link", _one_far_link())]
)
def test_slot_reports_read_one_kernel(name, inst):
    # each slot's gathered kernel is the kernel built from its links, bytes and
    # records, and its report is is_feasible's; one-far-link's instance takes
    # np.hypot and all but one of its slots do not, and the last slot's links
    # share one power where the -powers instances do not
    rng = np.random.default_rng(5)
    ids = rng.permutation([l.id for l in inst.links])
    slots = [Slot(frozenset(int(i) for i in part)) for part in np.array_split(ids, 9)]
    power = inst.links[0].power
    slots.append(Slot(frozenset(l.id for l in inst.links[:40] if l.power == power)))
    schedule = Schedule((*slots, Slot()))
    with np.errstate(all="ignore"):
        kernel = inst.kernel
        for slot in slots:
            members, got = inst.gather(slot.sorted_members)
            assert members == inst.resolve(slot)
            fresh = AffectanceRows(members, inst.params)
            assert got.data.tobytes() == fresh.data.tobytes()
            assert (got.unit, got.hypot) == (fresh.unit, fresh.hypot)
        want = [is_feasible(inst.resolve(slot), inst.params) for slot in schedule.slots]
        assert core.slot_reports(inst, schedule) == want
    assert inst.kernel is kernel
    assert kernel.hypot is (name == "one-far-link")
    assert got.unit is not name.endswith("-noise")


@pytest.mark.parametrize("name, inst", list(_kernel_corpus()))
def test_verifier_affectance_route_reads_the_kernel(name, inst):
    # the report's affectances are the id-ordered column sums and the largest
    # entry of the kernel's matrix restricted to the slot, bit for bit
    mat = affectance_matrix(inst)
    position = {l.id: i for i, l in enumerate(inst.links)}
    rng = np.random.default_rng(11)
    slots = [s.sorted_members for s in first_fit_baseline(inst).slots if len(s) > 1]
    for k in (2, 17, 60):
        slots.append(sorted(inst.links[i].id for i in rng.choice(len(inst), k, replace=False)))
    for ids in slots:
        idx = [position[i] for i in ids]
        sub = mat[np.ix_(idx, idx)]
        sums = np.zeros(len(idx))
        for row in sub:
            sums = sums + row
        report = is_feasible([inst.links[i] for i in idx], inst.params)
        assert report.max_affectance == sums.max()
        assert report.worst_link == ids[int(np.argmax(sums))]
        assert report.max_pair_affectance == sub.max()


def test_instance_kernel_is_cached_and_read_only():
    inst = generate(TopologySpec(family="clustered", n=80, seed=2), DEFAULT_MODEL_PARAMS)
    kernel = inst.kernel
    assert inst.kernel is kernel
    views = ("sx", "sy", "rx", "ry", "powers", "lengths", "cv")
    for array in (kernel.data, *(getattr(kernel, name) for name in views)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    # the stages gather copies: every one of them leaves the cached floats as they were
    before = kernel.data.tobytes()
    schedule = first_fit_baseline(inst)
    schedule_repeated(inst, guarded=True)
    strengthen(inst, schedule, 1.2, 2.4)
    disperse(inst, schedule, 2.0)
    affectance_matrix(inst)
    assert inst.kernel is kernel and kernel.data.tobytes() == before


def _link(lid, sx, sy, rx, ry):
    return Link(id=lid, sender=Point(sx, sy), receiver=Point(rx, ry))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_kernel_rejects_sender_on_receiver(zero):
    # link 11's sender sits on link 10's receiver, -0.0 and 0.0 alike: a_11(10) = inf
    links = (_link(10, 5.0, 3.0, -0.0, 3.0), _link(11, zero, 3.0, zero, 9.0))
    with np.errstate(all="raise"):  # no numpy warning on the way
        mat = AffectanceRows(links, P_KERNEL).matrix()
        assert mat[1, 0] == math.inf and 0 < mat[0, 1] < math.inf
        assert affectance_matrix(Instance(params=P_KERNEL, links=links)).tobytes() == mat.tobytes()
        report = is_feasible(links, P_KERNEL)
    assert not report.feasible and not report.sinr_feasible
    assert (report.worst_link, report.max_affectance, report.margin) == (10, math.inf, -math.inf)


def test_gathered_sets_are_scanned_only_on_a_singular_instance():
    # link 0's sender sits on link 1's receiver; link 2 is far from both: the
    # refiners split the pair, and a slot holding it fails verification
    links = (_link(2, 50.0, 0.0, 51.0, 0.0), _link(1, 5.0, 0.0, 0.0, 0.0), _link(0, 0.0, 0.0, 1.0, 0.0))
    inst = Instance(params=P_KERNEL, links=links)
    assert strengthen_slot(inst, Slot({0, 1, 2}), 2.0) == (Slot({0, 2}), Slot({1}))
    assert disperse_slot(inst, Slot({0, 1}), 1.0) == (Slot({0}), Slot({1}))
    separate, joint = core.slot_reports(inst, Schedule((Slot({2}), Slot({1, 0}))))
    assert separate.ok and not joint.feasible and not joint.sinr_feasible
    assert (joint.worst_link, joint.margin) == (1, -math.inf)
    assert strengthen_slot(inst, Slot({0, 2}), 2.0) == (Slot({0, 2}),)
    assert disperse_slot(inst, Slot({1, 2}), 1.0) == (Slot({1, 2}),)
    reports = core.slot_reports(inst, Schedule((Slot({0, 2}), Slot({1}))))
    assert all(report.ok for report in reports)


def test_singularity_raised_for_a_link_never_admitted():
    # the long link 1 sends from the short link 0's receiver; link 0 affects it
    # by about 0.97 > c, so the greedy never admits it beside link 0, and every
    # scheduler puts the pair in two slots
    short, long = _link(0, 0.0, 0.0, 1.0, 0.0), _link(1, 1.0, 0.0, 101.0, 0.0)
    inst = Instance(params=P_KERNEL, links=(short, long))
    assert single_affectance(short, long, P_KERNEL) > compute_constants(P_KERNEL).c
    assert single_affectance(long, short, P_KERNEL) == math.inf
    split = Schedule((Slot({0}), Slot({1})))
    assert single_shot_greedy(inst) == Slot({0})
    assert schedule_repeated(inst) == split
    assert first_fit_baseline(inst) == split


grid = st.integers(min_value=0, max_value=3)


@st.composite
def grid_instances(draw):
    """Noise-free links between points of a 4 x 4 grid: senders often sit on other links' receivers."""
    ends = st.tuples(st.tuples(grid, grid), st.tuples(grid, grid)).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(ends, min_size=1, max_size=8))
    alpha, beta = draw(st.sampled_from([2.5, 3.0, 4.0])), draw(st.sampled_from([0.5, 1.2, 3.0]))
    params = ModelParams(alpha=alpha, beta=beta)
    return Instance(params, tuple(_link(i, *s, *r) for i, (s, r) in enumerate(pairs)))


@given(grid_instances())
@settings(max_examples=150, deadline=None)
def test_a_sender_on_a_receiver_never_shares_an_emitted_slot(inst):
    # A's and first-fit's schedules pass the emission gate, B's passes or is
    # refused; no slot that passes holds a sender on another member's
    # receiver, and every set holding one has an infinite affectance
    singular = [(w, v) for w in inst.links for v in inst.links if w.id != v.id and w.sender == v.receiver]
    event(f"sender on a receiver: {bool(singular)}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emitted = [schedule_repeated(inst), first_fit_baseline(inst)]
        for schedule in emitted:
            verify_schedule(inst, schedule)
        guarded = schedule_repeated(inst, guarded=True)
        try:
            verify_schedule(inst, guarded)
            emitted.append(guarded)
        except VerificationError:
            pass
        for w, v in singular:
            for members in ((w, v), inst.links):
                assert is_feasible(members, inst.params).max_affectance == math.inf
    for slot in (slot for schedule in emitted for slot in schedule.slots):
        assert not any(w.id in slot.members and v.id in slot.members for w, v in singular)


# --- the report-based q verdict against exact and scalar references -----------


def _ulp_tie(a, alpha):
    """A q near a^(-1/alpha) with q**-alpha == a exactly, if one lies within 16 ulps."""
    q = a ** (-1.0 / alpha)
    for _ in range(16):
        if q ** -alpha == a:
            return q
        q = math.nextafter(q, 0.0 if q ** -alpha < a else math.inf)
    return a ** (-1.0 / alpha)


@st.composite
def q_slot(draw):
    """A uniform-power slot with noise and a q at, near or away from a pair affectance."""
    links = tuple(l.replace(power=None) for l in draw(separated_links()))
    params = draw(params_strategy)
    weakest = min(received_power(l.sender, l.receiver, params.default_power, params) for l in links)
    # c_v of the weakest link reaches 1, 2, 100 or about 1e6
    noise = draw(st.sampled_from((0.0, 0.5, 0.99, 0.999999))) * weakest / params.beta
    params = params.replace(noise=noise)
    pairs = [single_affectance(w, v, params) for v in links for w in links if w.id != v.id]
    kind = draw(st.sampled_from(("tie", "near", "free")))
    if kind == "free" or not pairs:
        return links, params, draw(st.floats(min_value=0.05, max_value=50))
    if kind == "tie":  # at the largest pair, where the verdict is decided
        return links, params, _ulp_tie(max(pairs), params.alpha)
    a = draw(st.sampled_from(sorted(pairs)))
    return links, params, a ** (-1.0 / params.alpha) * (1.0 + draw(st.floats(-1e-9, 1e-9)))


def _squared(p, r):
    """d(p, r)^2 of two points, exactly."""
    return (Fraction(p.x) - Fraction(r.x)) ** 2 + (Fraction(p.y) - Fraction(r.y)) ** 2


def _exactly_q_dispersed(instance, slot, q):
    """No w is q-near v: d(s_w, r_v)^2 >= (q c_v^(1/alpha))^2 d_vv^2 in rationals, c_v the kernel's."""
    links, geo = instance.gather(slot.sorted_members)
    factor = (q * geo.cv ** (1.0 / geo.alpha)).tolist()
    return not any(
        _squared(w.sender, v.receiver) < Fraction(factor[i]) ** 2 * _squared(v.sender, v.receiver)
        for i, v in enumerate(links)
        for w in links
        if w.id != v.id
    )


def _q_verdict(links, params, q):
    """``report_q_dispersed`` of the one slot of ``links``, its exact reference and the instance."""
    instance = Instance(params=params, links=links)
    slot = Slot(frozenset(l.id for l in links))
    (report,) = slot_reports(instance, Schedule((slot,)))
    return report_q_dispersed(instance, slot, report, q), _exactly_q_dispersed(instance, slot, q)


@given(q_slot())
@settings(max_examples=200, deadline=None)
def test_report_q_verdict_matches_scalar(slot):
    # the verdict is the exact one; the scalar is_q_dispersed agrees wherever
    # every pair is clear of q^-alpha by more than its own rounding (its c_v
    # may differ from the kernel's by c_v ulps)
    links, params, q = slot
    verdict, exact = _q_verdict(links, params, q)
    assert verdict == exact
    cv_max = max(noise_factor(l, params) for l in links)
    pairs = [single_affectance(w, v, params) for v in links for w in links if w.id != v.id]
    bound = q ** -params.alpha
    if all(abs(a - bound) > 1e-12 * params.alpha * cv_max * a for a in pairs):
        assert verdict == is_q_dispersed(links, q, params)


def test_report_q_verdict_decides_an_exact_tie_exactly():
    # a_w(v) = (1/2)^3 == 2^-3 exactly: w is not 2-near v (strict inequality)
    v = Link(id=0, sender=Point(1, 0), receiver=Point(0, 0))
    w = Link(id=1, sender=Point(0, 2), receiver=Point(0, 3))
    instance, slot = Instance(params=P_KERNEL, links=(v, w)), Slot(frozenset({0, 1}))
    (report,) = slot_reports(instance, Schedule((slot,)))
    assert report.max_pair_affectance == 2.0**-3.0
    with mock.patch.object(core, "exactly_near", wraps=core.exactly_near) as exact:
        assert report_q_dispersed(instance, slot, report, 2.0)
        assert exact.call_count == 1
        assert not report_q_dispersed(instance, slot, report, 2.0 * (1 + 1e-6))
        assert report_q_dispersed(instance, slot, report, 2.0 * (1 - 1e-6))
        assert exact.call_count == 1


def test_report_q_band_sends_no_link_against_itself_to_the_exact_test():
    # q c_v^(1/alpha) = 1, so each d_vv equals its own bound; only the pair at
    # a_w(v) = 1 = q^-alpha is decided exactly (strict: w is not 1-near v)
    v = Link(id=0, sender=Point(1, 0), receiver=Point(0, 0))
    w = Link(id=1, sender=Point(0, 1), receiver=Point(0, 5))
    instance, slot = Instance(params=P_KERNEL, links=(v, w)), Slot(frozenset({0, 1}))
    (report,) = slot_reports(instance, Schedule((slot,)))
    assert report.max_pair_affectance == 1.0
    with mock.patch.object(core, "exactly_near", wraps=core.exactly_near) as exact:
        assert report_q_dispersed(instance, slot, report, 1.0)
        assert exact.call_count == 1


def test_report_q_verdict_at_a_tie_the_numpy_value_misses():
    # q^-alpha equals the scalar a_0(1) exactly, and numpy's value of the same
    # pair lies one ulp above it; exactly, d(s_0, r_1)^2 < q^2 d_11^2 by 7.1e-17
    # (relative), so link 0 is q-near link 1, which the scalar route misses
    links = (_link(0, 23.048, 40.504, 23.977, 37.705), _link(1, 10.983, 45.651, 11.891, 42.145))
    params = ModelParams(alpha=3.0, beta=1.0)
    q = 3.113765958440783
    gap = (Fraction(23.048) - Fraction(11.891)) ** 2 + (Fraction(40.504) - Fraction(42.145)) ** 2
    d11 = (Fraction(10.983) - Fraction(11.891)) ** 2 + (Fraction(45.651) - Fraction(42.145)) ** 2
    bound = Fraction(q) ** 2 * d11
    assert gap < bound and 7.0e-17 < (bound - gap) / bound < 7.2e-17
    assert q**-3.0 == single_affectance(links[0], links[1], params)
    assert is_q_dispersed(links, q, params)
    assert _q_verdict(links, params, q) == (False, False)



def test_q_reference_past_the_float_range_agrees_with_the_report():
    # q^-alpha = 1e600 lies past the float range: no pair is q-near, by either route
    links = (_link(0, 0.0, 0.0, 1.0, 0.0), _link(1, 50.0, 0.0, 51.0, 0.0))
    params = ModelParams(alpha=3.0, beta=1.2)
    assert is_q_dispersed(links, 1e-200, params)
    assert _q_verdict(links, params, 1e-200) == (True, True)


@pytest.mark.parametrize("q", [1e-200, 1e-300, 5e-324])
def test_q_past_the_float_range_still_finds_a_sender_on_a_receiver(q):
    # d(s_0, r_1) = 0 < q d_11 at every q > 0; link 2 is near neither
    links = (_link(0, 0.0, 0.0, 1.0, 0.0), _link(1, 5.0, 0.0, 0.0, 0.0), _link(2, 50.0, 0.0, 51.0, 0.0))
    params = ModelParams(alpha=3.0, beta=1.2)
    assert is_q_near(links[0], links[1], q, params)
    assert not is_q_near(links[1], links[0], q, params) and not is_q_near(links[0], links[2], q, params)
    assert not is_q_dispersed(links, q, params) and is_q_dispersed(links[1:], q, params)
    assert _q_verdict(links, params, q) == (False, False)
    assert _q_verdict(links[1:], params, q) == (True, True)

# --- near-ties of every distance test, against a Fraction reference -----------

AXES = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
TIE_TESTS = ("B-sender", "B-receiver", "disperse-sender", "disperse-receiver", "q")


@st.composite
def distance_tie(draw):
    """(test, v, w, params, base): one end of w at or within 1e-13 (relative) of v's bound.

    v has length L = 2^e and r_v at the origin; the end of w under test lies
    at distance m L (1 + eps) from r_v (from s_v for B's receiver test),
    perpendicular to v, with m the test's float multiplier built from
    ``base``: c_hat = base for B, q c_v^(1/alpha) + 2 for disperse and
    q c_v^(1/alpha) for q-nearness, with q = base. At eps = 0 the tie is
    exact. w is no longer than v, so v is the weakest link, and the noise
    puts c_v at 1 to about 1e6.
    """
    test = draw(st.sampled_from(TIE_TESTS))
    alpha = draw(st.sampled_from((2.5, 3.0, 4.0)))
    length = 2.0 ** draw(st.integers(-20, 20))
    ux, uy = draw(st.sampled_from(AXES))
    v = Link(id=0, sender=Point(-length * ux, -length * uy), receiver=Point(0.0, 0.0))
    params = ModelParams(alpha=alpha, beta=draw(st.sampled_from((0.5, 1.2, 3.0))))
    share = draw(st.sampled_from((0.0, 0.0, 0.5, 0.99, 0.999999)))
    params = params.replace(noise=share * length**-alpha / params.beta)
    base = draw(st.floats(min_value=2.0, max_value=12.0) if test[0] == "B" else st.floats(0.1, 10.0))
    cv = float(AffectanceRows((v,), params).cv[0])
    m = {"B": base, "d": base * cv ** (1.0 / alpha) + 2.0, "q": base * cv ** (1.0 / alpha)}[test[0]]
    eps = draw(st.sampled_from((0.0,)) | st.floats(-1e-13, 1e-13))
    sign = draw(st.sampled_from((1.0, -1.0)))
    reach = m * length * (1.0 + eps)
    origin = v.sender if test == "B-receiver" else v.receiver
    tip = Point(origin.x - sign * uy * reach, origin.y + sign * ux * reach)
    wx, wy = draw(st.sampled_from(AXES))
    short = length * 2.0 ** -draw(st.integers(0, 3))
    other = Point(tip.x + short * wx, tip.y + short * wy)
    w = Link(id=1, sender=other, receiver=tip) if test.endswith("receiver") else Link(
        id=1, sender=tip, receiver=other
    )
    assume(w.sender != v.receiver and v.sender != w.receiver)
    return test, v, w, params, base


@given(distance_tie())
@settings(max_examples=300, deadline=None)
def test_distance_tests_decide_near_ties_exactly(case):
    # AffectanceRows.near in its one-row form (w admitted at j = 0, v ahead of
    # it) and its window form (j = [0, 1], a row each over both links)
    test, v, w, params, base = case
    rows = AffectanceRows((w, v), params)
    root = base * rows.cv ** (1.0 / rows.alpha)
    mult, strict, end, pairs = {
        "B": (np.full(2, base), False, "sender", ((w.sender, v.receiver), (v.sender, w.receiver))),
        "d": (root + 2.0, True, "receiver", ((w.sender, v.receiver), (w.receiver, v.receiver))),
        "q": (root, True, None, ((w.sender, v.receiver),)),
    }[test[0]]
    c = Fraction(mult[1]) ** 2 * _squared(v.sender, v.receiver)
    exact = any(_squared(p, r) < c if strict else _squared(p, r) <= c for p, r in pairs)
    ahead = slice(1, None)
    assert bool(rows.near(0, ahead, rows.distances(0, ahead), mult[ahead], strict, end)[0]) is exact
    both = np.arange(2)
    assert bool(rows.near(both, both, rows.distances(slice(None), both), mult, strict, end)[0, 1]) is exact
    if test == "q":
        verdict, exact = _q_verdict((v, w), params, base)
        assert verdict == exact


# --- model invariances of the schedulers (noise = 0 scaling, id relabelling) --

SCHEDULERS = {
    "A": schedule_repeated,
    "B": lambda inst: schedule_repeated(inst, guarded=True),
    "firstfit": first_fit_baseline,
}


@given(
    family=st.sampled_from(("random", "clustered")),
    seed=st.integers(min_value=0, max_value=5),
    k=st.sampled_from((-7, 3, 20)),
    alpha=st.sampled_from((2.5, 3.0, 4.7)),
)
@settings(max_examples=15, deadline=None)
def test_schedules_invariant_under_power_of_two_scaling(family, seed, k, alpha):
    # with noise = 0 every affectance is a ratio of distances, and scaling all
    # coordinates by 2^k scales every distance exactly
    params = DEFAULT_MODEL_PARAMS.replace(alpha=alpha, noise=0.0)
    inst = generate(TopologySpec(family=family, n=150, seed=seed), params)
    f = 2.0**k
    scaled = Instance(
        params=params,
        links=tuple(
            l.replace(
                sender=Point(l.sender.x * f, l.sender.y * f),
                receiver=Point(l.receiver.x * f, l.receiver.y * f),
            )
            for l in inst.links
        ),
    )
    for algo in SCHEDULERS:
        assert SCHEDULERS[algo](scaled) == SCHEDULERS[algo](inst), algo


@given(
    family=st.sampled_from(("random", "clustered")),
    seed=st.integers(min_value=0, max_value=5),
    noise=st.sampled_from((0.0, 1e-6)),
    perm=st.permutations(range(150)),
)
@settings(max_examples=15, deadline=None)
def test_schedules_follow_id_relabelling(family, seed, noise, perm):
    params = DEFAULT_MODEL_PARAMS.replace(noise=noise)
    inst = generate(TopologySpec(family=family, n=150, seed=seed), params)
    assume(len({l.length for l in inst.links}) == len(inst))
    new_id = {l.id: 3 * p + 1 for l, p in zip(inst.links, perm)}
    relabelled = Instance(
        params=params, links=tuple(l.replace(id=new_id[l.id]) for l in inst.links)
    )
    for algo in SCHEDULERS:
        want = Schedule(
            tuple(
                Slot(frozenset(new_id[i] for i in s.members))
                for s in SCHEDULERS[algo](inst).slots
            )
        )
        assert SCHEDULERS[algo](relabelled) == want, algo
