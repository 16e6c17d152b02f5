"""Tests for the scheduling algorithms.

Derived expected values are frozen from independent evaluations of the
closed-form constants; algorithm behaviour on fixtures is checked against
hand-computed affectance arithmetic.
"""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capsched.core import (
    AffectanceRows,
    Instance,
    Link,
    ModelParams,
    Point,
    PreconditionError,
    Schedule,
    SchedulingError,
    Slot,
    UnsupportedConfigurationError,
    affectance,
    ceiling,
    distance,
    effective_power,
    exactly_near,
    is_feasible,
    is_q_dispersed,
    p_signal_violation,
    partition_report,
    slot_reports,
    verify_schedule,
)
from capsched.schedulers import (
    _FRONTIER_MIN,
    _WINDOW,
    AlgoConstants,
    _first_fit,
    _sweep,
    compute_constants,
    disperse,
    disperse_slot,
    first_fit_baseline,
    schedule_nonuniform,
    schedule_repeated,
    single_shot_greedy,
    single_shot_guarded,
    strengthen,
    strengthen_slot,
)
from capsched.topogen import DEFAULT_MODEL_PARAMS, TopologySpec, generate

P0 = ModelParams(alpha=3.0, beta=1.2, noise=0.0)


def unit_link(lid, x0, y0, dx=1.0, dy=0.0, power=None):
    return Link(id=lid, sender=Point(x0, y0), receiver=Point(x0 + dx, y0 + dy), power=power)


def random_instance(seed, n, params=P0, side=200.0, lmax=4.0, power_range=None):
    """Quick jittered instance for property checks (not the topology module)."""
    rng = np.random.default_rng(seed)
    links = []
    for i in range(n):
        rx, ry = rng.uniform(0, side, 2)
        angle = rng.uniform(0, 2 * math.pi)
        length = rng.uniform(0.5, lmax)
        power = None if power_range is None else float(rng.uniform(*power_range))
        links.append(
            Link(
                id=i,
                sender=Point(rx + length * math.cos(angle), ry + length * math.sin(angle)),
                receiver=Point(rx, ry),
                power=power,
            )
        )
    return Instance(params=params, links=tuple(links))


def separated(v, w, c_hat):
    """B's separation test of candidate v against admitted w, on math.hypot distances."""
    gap = min(distance(w.sender, v.receiver), distance(v.sender, w.receiver))
    return gap > c_hat * v.length


def dispersed(v, w, bound):
    """Disperse's test of candidate v against set member w, on math.hypot distances."""
    return distance(w.sender, v.receiver) >= bound and distance(w.receiver, v.receiver) >= bound


def too_close(c_hat):
    """B's near mask as the sweep calls it: ``AffectanceRows.near`` with v's sender."""
    return lambda rows, j, ahead, dist: rows.near(j, ahead, dist, c_hat, False, "sender")


def not_dispersed(q):
    """Disperse's near mask at level q as the sweep calls it: bound (q c_v^(1/alpha) + 2) d_vv."""
    return lambda rows, j, ahead, dist: rows.near(
        j, ahead, dist, q * rows.cv[ahead] ** (1.0 / rows.alpha) + 2.0, True, "receiver"
    )


def squared(p, r):
    """d(p, r)^2 of two points, exactly."""
    return (Fraction(p.x) - Fraction(r.x)) ** 2 + (Fraction(p.y) - Fraction(r.y)) ** 2


# --- constants ---------------------------------------------------------------


def test_constants_reference_values():
    consts = compute_constants(P0)
    # frozen from an independent evaluation of the closed forms
    assert consts.C == 72.0
    assert consts.tau == pytest.approx(7.595574735255063, rel=1e-15)
    assert consts.tau == pytest.approx(7.596, abs=5e-4)
    assert consts.c == pytest.approx(2.282012800810505e-3, rel=1e-12)
    assert consts.c_hat == pytest.approx(8.841675596736927, rel=1e-12)
    assert consts.c_hat == pytest.approx(8.842, abs=5e-4)
    assert consts.nu == pytest.approx(2957.9150465775633, rel=1e-12)
    assert consts.nu == pytest.approx(2.96e3, rel=1e-3)


def test_constants_invariants():
    for alpha in (2.1, 2.5, 3.0, 4.0, 6.0):
        for beta in (0.5, 1.0, 1.2, 2.0):
            params = ModelParams(alpha=alpha, beta=beta)
            consts = compute_constants(params)
            assert consts.tau >= 4.0
            assert consts.c == consts.tau**-alpha
            rhs = 73.0 * beta * (alpha - 1) / (alpha - 2)
            assert (consts.tau - 2.0) ** alpha >= rhs * (1 - 1e-9)
            assert consts.c_hat >= 2.0
            assert consts.nu == 2.0 * (1.5 * consts.tau) ** alpha


@pytest.mark.parametrize(
    "alpha, beta",
    [(397.0, 1.2), (400.0, 1.2), (1024.0, 1.2), (1100.0, 1.2), (1e6, 1.2), (2.0 + 1e-15, 1e300)],
)
def test_constants_at_extreme_parameters(alpha, beta):
    # (1.5 tau)^alpha and (tau - 2)^alpha lie past the float range here
    consts = compute_constants(ModelParams(alpha=alpha, beta=beta))
    assert consts.nu == math.inf
    assert consts.tau >= 4.0 and consts.c_hat >= 2.0 and 0.0 <= consts.c < 1.0


def test_constants_deterministic():
    assert compute_constants(P0) == compute_constants(P0)


def test_invalid_alpha_rejected_at_params():
    with pytest.raises(ValueError):
        ModelParams(alpha=2.0, beta=1.0)


# --- greedy single shot -------------------------------------------------------


def test_greedy_single_link():
    inst = Instance(params=P0, links=(unit_link(7, 0, 0),))
    assert single_shot_greedy(inst) == Slot(frozenset({7}))


def test_greedy_colocated_pair_keeps_lower_id():
    inst = Instance(params=P0, links=(unit_link(0, 0, 0), unit_link(1, 0, 0)))
    # second link would see affectance 1 > c, so only the first survives
    assert single_shot_greedy(inst) == Slot(frozenset({0}))


def test_greedy_far_pair_keeps_both():
    inst = Instance(params=P0, links=(unit_link(0, 0, 0), unit_link(1, 20, 0)))
    # cross affectances (1/19)^3 and (1/21)^3 are both below c ~ 2.28e-3
    assert (1 / 19) ** 3 < 2.282e-3 and (1 / 21) ** 3 < 2.282e-3
    assert single_shot_greedy(inst) == Slot(frozenset({0, 1}))


def test_greedy_output_feasible_and_dispersed():
    consts = compute_constants(P0)
    for seed in range(5):
        inst = random_instance(seed, 60)
        slot = single_shot_greedy(inst)
        members = inst.resolve(slot)
        assert is_feasible(members, P0).feasible
        assert is_q_dispersed(members, consts.tau - 2.0, P0)


def test_greedy_rejection_certificate():
    consts = compute_constants(P0)
    inst = random_instance(3, 80)
    slot = single_shot_greedy(inst)
    order = sorted(inst.links, key=lambda l: (l.length, l.id))
    seen = []
    for link in order:
        if link.id not in slot.members:
            blame = affectance(seen, link, P0)
            assert blame > consts.c
        else:
            seen.append(link)


def test_greedy_at_alpha_30_refuses_a_pair_above_c():
    # the links affect each other by (1/2.71)^30 = 1.03e-13, about 1e5 times
    # c = 4^-30, though less than an absolute slack of 1e-12 above c
    params = ModelParams(alpha=30.0, beta=1.2)
    inst = Instance(params=params, links=(unit_link(0, 0, 0), unit_link(1, 3.71, 0, dx=-1.0)))
    c = compute_constants(params).c
    for w, v in (inst.links, inst.links[::-1]):
        assert 1e5 * c < affectance([w], v, params) < 1e-12
    schedule = schedule_repeated(inst)
    assert schedule.slot_count == 2 and partition_report(inst, schedule).is_partition


@st.composite
def steep_line(draw):
    """Links on a line, 1 to 4 apart, at alpha in [20, 40], where c = 4^-alpha is below 1e-12."""
    x, links = 0.0, []
    for i in range(draw(st.integers(2, 8))):
        length = draw(st.floats(0.5, 2.0))
        ends = (Point(x, 0.0), Point(x + length, 0.0))
        links.append(Link(i, *(ends[::-1] if draw(st.booleans()) else ends)))
        x += length + draw(st.floats(1.0, 4.0))
    params = ModelParams(alpha=draw(st.floats(20.0, 40.0)), beta=1.2)
    return Instance(params=params, links=tuple(links))


@given(steep_line())
@settings(max_examples=100, deadline=None)
def test_a_admits_within_the_ceiling_of_c_at_large_alpha(inst):
    # each slot of A in admission order: a member is affected by at most
    # ceiling(c) by the members admitted before it
    params = inst.params
    bound = ceiling(compute_constants(params).c)
    for slot in schedule_repeated(inst).slots:
        members = sorted(inst.resolve(slot), key=lambda l: (l.length, l.id))
        for k, v in enumerate(members):
            assert affectance(members[:k], v, params) <= bound


def test_greedy_rejects_nonuniform_power():
    inst = Instance(
        params=P0, links=(unit_link(0, 0, 0, power=1.0), unit_link(1, 50, 0, power=2.0))
    )
    with pytest.raises(UnsupportedConfigurationError):
        single_shot_greedy(inst)


def test_greedy_empty_instance():
    inst = Instance(params=P0, links=())
    assert single_shot_greedy(inst) == Slot()


# --- guarded single shot ------------------------------------------------------


def test_guarded_single_link():
    inst = Instance(params=P0, links=(unit_link(3, 0, 0),))
    assert single_shot_guarded(inst) == Slot(frozenset({3}))


def test_guarded_colocated_pair():
    inst = Instance(params=P0, links=(unit_link(0, 0, 0), unit_link(1, 0, 0)))
    assert single_shot_guarded(inst) == Slot(frozenset({0}))


def test_guarded_output_feasible_on_random():
    for seed in range(4):
        inst = random_instance(seed + 10, 100)
        slot = single_shot_guarded(inst)
        assert is_feasible(inst.resolve(slot), P0).feasible
        assert slot.members


def close_sender_fixture():
    # short link, then a long link whose sender nearly touches the short
    # receiver: the separation test refuses it
    short = Link(id=0, sender=Point(0, 0), receiver=Point(0.5, 0))
    long = Link(id=1, sender=Point(0.55, 0), receiver=Point(1.55, 0))
    return Instance(params=P0, links=(short, long))


def test_guarded_symmetric_refuses_close_sender():
    inst = close_sender_fixture()
    slot = single_shot_guarded(inst)
    assert slot == Slot(frozenset({0}))


def test_separation_mask_matches_scalar_test():
    inst = random_instance(3, 150)
    links, c_hat = inst.links, compute_constants(P0).c_hat
    rows = AffectanceRows(links, P0)
    for j in range(0, len(links), 7):
        mask = rows.near(j, slice(None), rows.distances(j), c_hat, False, "sender")
        assert mask.tolist() == [not separated(v, links[j], c_hat) for v in links]


def test_separation_mask_ties_are_decided_exactly(monkeypatch):
    # d(s_w, r_v) is exactly 2 * len(v), where B's non-strict test finds w
    # near and the float gap < bound does not; then one ulp beyond it
    v = unit_link(0, 0.0, 0.0)
    tie = Link(id=1, sender=Point(3.0, 0.0), receiver=Point(3.0, 7.0))
    clear = Link(id=2, sender=Point(math.nextafter(3.0, 4.0), 0.0), receiver=Point(3.0, -7.0))
    calls = []
    monkeypatch.setattr(
        "capsched.core.exactly_near", lambda *a: calls.append(a) or exactly_near(*a)
    )
    for w, near in ((tie, True), (clear, False)):
        assert near is (squared(w.sender, v.receiver) <= 4 * squared(v.sender, v.receiver))
        links = (v, w)
        rows = AffectanceRows(links, P0)
        assert bool(rows.near(1, slice(None), rows.distances(1), 2.0, False, "sender")[0]) is near
        # the sweep's form: a kernel in sweep order (w, v), v ahead of w
        ids = np.array([1, 0])
        frontier, ahead = rows.take(ids), slice(1, None)
        mask = frontier.near(0, ahead, frontier.distances(0, ahead), 2.0, False, "sender")
        assert mask.tolist() == [near]
    assert len(calls) >= 4


@pytest.mark.parametrize(
    "schedule",
    [schedule_repeated, lambda i: schedule_repeated(i, guarded=True), first_fit_baseline],
    ids=["A", "B", "firstfit"],
)
def test_schedulers_hold_no_square_matrix(schedule):
    # a dense n x n float64 array would be 32 MB at n=2000
    inst = generate(TopologySpec(family="random", n=2000, seed=0), DEFAULT_MODEL_PARAMS)
    tracemalloc.start()
    try:
        schedule(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def ring_overload_fixture():
    """Admission cap 2/3 exceeds 1/beta at beta=2: the guarded heuristic
    accepts a long link whose accumulated affectance lands in (0.5, 2/3]."""
    params = ModelParams(alpha=3.0, beta=2.0, noise=0.0)
    c_hat = compute_constants(params).c_hat
    n_short, radius, eps = 800, 11.5, 1e-3
    assert radius > c_hat and radius + eps - 1.0 > c_hat
    links = [Link(id=0, sender=Point(0, 0), receiver=Point(1, 0))]
    for k in range(n_short):
        angle = 2 * math.pi * k / n_short
        ux, uy = math.cos(angle), math.sin(angle)
        sx, sy = 1 + radius * ux, radius * uy
        links.append(
            Link(
                id=k + 1,
                sender=Point(sx, sy),
                receiver=Point(sx + eps * ux, sy + eps * uy),
            )
        )
    expected = n_short / radius**3
    assert 1 / params.beta < expected <= 2 / 3
    return Instance(params=params, links=tuple(links)), expected


def test_guarded_genuine_heuristic_failure():
    # the heuristic returns its set unverified; the slot verifier refuses it
    inst, expected = ring_overload_fixture()
    slot = single_shot_guarded(inst)
    assert 0 in slot.members
    [report] = slot_reports(inst, Schedule((slot,)))
    assert not report.ok and report.worst_link == 0
    # the same configuration passes the 2/3 admission gate by construction
    shorts = [l for l in inst.links if l.id != 0]
    assert affectance(shorts, inst.links[0], inst.params) == pytest.approx(expected)


# --- repeated scheduling ------------------------------------------------------


def test_repeated_compatible_links_single_slot():
    inst = Instance(params=P0, links=(unit_link(0, 0, 0), unit_link(1, 20, 0)))
    sched = schedule_repeated(inst)
    assert sched.slot_count == 1


def test_repeated_three_colocated():
    params = ModelParams(alpha=3.0, beta=2.0, noise=0.0)
    inst = Instance(params=params, links=tuple(unit_link(i, 0, 0) for i in range(3)))
    sched = schedule_repeated(inst)
    assert sched.slot_count == 3
    assert [slot.sorted_members for slot in sched.slots] == [(0,), (1,), (2,)]


def test_repeated_partitions_and_feasible():
    for seed in (1, 2):
        inst = random_instance(seed + 20, 70)
        sched = schedule_repeated(inst)
        assert partition_report(inst, sched).is_partition
        assert sched.slot_count <= len(inst.links)
        for slot in sched.slots:
            assert is_feasible(inst.resolve(slot), inst.params).feasible


def test_repeated_empty_instance():
    assert schedule_repeated(Instance(params=P0, links=())) == Schedule(())


@pytest.mark.parametrize("guarded", [False, True])
def test_repeated_rounds_equal_single_shots_on_the_rest(guarded):
    # one matrix for the whole run selects what a fresh sub-instance would
    shot = single_shot_guarded if guarded else single_shot_greedy
    inst = random_instance(7, 120)
    remaining = list(inst.links)
    for slot in schedule_repeated(inst, guarded=guarded).slots:
        assert slot == shot(Instance(params=inst.params, links=tuple(remaining)))
        remaining = [l for l in remaining if l.id not in slot.members]
    assert not remaining


@pytest.mark.parametrize("guarded", [False, True], ids=["A", "B"])
@pytest.mark.parametrize("family", ["random", "clustered"])
def test_the_first_repeated_slot_is_the_single_shot(family, guarded):
    # a repeated schedule's first slot is its single shot on the whole
    # instance: for A, the capacity answer, read off the schedule
    shot = single_shot_guarded if guarded else single_shot_greedy
    for n in (20, 200, 1000):
        for seed in range(3):
            inst = generate(TopologySpec(family=family, n=n, seed=seed), P0)
            assert schedule_repeated(inst, guarded=guarded).slots[0] == shot(inst), (n, seed)


def test_repeated_works_with_guarded_selector():
    inst = random_instance(42, 50)
    sched = schedule_repeated(inst, guarded=True)
    assert partition_report(inst, sched).is_partition
    for slot in sched.slots:
        assert is_feasible(inst.resolve(slot), inst.params).feasible


# --- strengthen ---------------------------------------------------------------


def test_strengthen_already_strong_schedule_unchanged():
    inst = Instance(params=P0, links=(unit_link(0, 0, 0), unit_link(1, 20, 0)))
    sched = Schedule((Slot(frozenset({0, 1})),))
    # cross affectance ~1.5e-4 is already below 1/(2*2.4)
    out = strengthen(inst, sched, p=1.2, p_prime=2.4)
    assert out == sched


def test_strengthen_singletons_unchanged():
    links = tuple(unit_link(i, 0, 0) for i in range(3))
    inst = Instance(params=P0, links=links)
    sched = Schedule(tuple(Slot(frozenset({i})) for i in range(3)))
    out = strengthen(inst, sched, p=1.2, p_prime=12.0)
    assert out == sched


def test_strengthen_blowup_formula():
    assert math.ceil(2 * 2 / 1) ** 2 == 16


def test_strengthen_contract_on_random():
    for seed in (5, 6):
        inst = random_instance(seed, 50)
        sched = schedule_repeated(inst)
        p = inst.params.beta
        for p_prime in (2 * p, 4 * p):
            out = strengthen(inst, sched, p, p_prime)
            assert partition_report(inst, out).is_partition
            assert p_signal_violation(inst, out, p_prime) is None
            bound = math.ceil(2 * p_prime / p) ** 2
            assert out.slot_count <= bound * sched.slot_count


def test_strengthen_precondition_violation_names_link():
    params = ModelParams(alpha=3.0, beta=2.0, noise=0.0)
    inst = Instance(params=params, links=(unit_link(0, 0, 0), unit_link(1, 0, 0)))
    sched = Schedule((Slot(frozenset({0, 1})),))
    with pytest.raises(PreconditionError) as exc:
        strengthen(inst, sched, p=2.0, p_prime=4.0)
    assert "link" in str(exc.value) and "slot 0" in str(exc.value)


def test_strengthen_requires_increasing_levels():
    inst = Instance(params=P0, links=(unit_link(0, 0, 0),))
    sched = Schedule((Slot(frozenset({0})),))
    with pytest.raises(PreconditionError):
        strengthen(inst, sched, p=2.0, p_prime=2.0)


def test_strengthen_slot_two_pass_trace():
    # four well separated unit links: every pass keeps them in one set
    links = tuple(unit_link(i, 50.0 * i, 0) for i in range(4))
    inst = Instance(params=P0, links=links)
    out = strengthen_slot(inst, Slot(frozenset(range(4))), p_prime=2.4)
    assert out == (Slot(frozenset(range(4))),)


# --- disperse -----------------------------------------------------------------


def test_disperse_singletons_unchanged():
    links = tuple(unit_link(i, 3.0 * i, 0) for i in range(3))
    inst = Instance(params=P0, links=links)
    sched = Schedule(tuple(Slot(frozenset({i})) for i in range(3)))
    assert disperse(inst, sched, q=2.0) == sched


def test_disperse_widely_separated_slot_unchanged():
    inst = Instance(params=P0, links=(unit_link(0, 0, 0), unit_link(1, 1000, 0)))
    sched = Schedule((Slot(frozenset({0, 1})),))
    # admission radius (q*1 + 2) * 1 = 4 is tiny against the 1000 separation
    assert disperse(inst, sched, q=2.0) == sched


def test_disperse_contract_on_random():
    for seed in (7, 8):
        inst = random_instance(seed, 40)
        sched = schedule_repeated(inst)
        for q in (2.0, 4.0):
            out = disperse(inst, sched, q)
            assert partition_report(inst, out).is_partition
            per_slot_bound = math.ceil((q + 2) ** inst.params.alpha)
            for slot in sched.slots:
                pieces = disperse_slot(inst, slot, q)
                assert len(pieces) <= per_slot_bound
            for slot in out.slots:
                members = inst.resolve(slot)
                assert is_q_dispersed(members, q, inst.params)
                assert is_feasible(members, inst.params).feasible


def test_disperse_infeasible_input_rejected():
    params = ModelParams(alpha=3.0, beta=2.0, noise=0.0)
    inst = Instance(params=params, links=(unit_link(0, 0, 0), unit_link(1, 0, 0)))
    sched = Schedule((Slot(frozenset({0, 1})),))
    with pytest.raises(PreconditionError):
        disperse(inst, sched, q=1.0)


def test_disperse_nonuniform_power_rejected():
    inst = Instance(
        params=P0, links=(unit_link(0, 0, 0, power=1.0), unit_link(1, 90, 0, power=2.0))
    )
    sched = Schedule((Slot(frozenset({0})), Slot(frozenset({1}))))
    with pytest.raises(UnsupportedConfigurationError, match="^disperse requires uniform power"):
        disperse(inst, sched, q=1.0)


def test_disperse_requires_positive_level():
    inst = Instance(params=P0, links=(unit_link(0, 0, 0),))
    sched = Schedule((Slot(frozenset({0})),))
    with pytest.raises(PreconditionError):
        disperse(inst, sched, q=0.0)


# --- non-uniform power --------------------------------------------------------


def test_schedule_nonuniform_validation():
    inst = random_instance(11, 5)
    with pytest.raises(ValueError, match="^unknown power strategy mode 'mystery'$"):
        schedule_nonuniform(inst, mode="mystery")
    # the mode is checked on an empty instance too
    with pytest.raises(ValueError, match="^unknown power strategy mode 'mystery'$"):
        schedule_nonuniform(Instance(params=P0, links=()), mode="mystery")
    # the power regimes' base is 2, not a parameter
    with pytest.raises(TypeError):
        schedule_nonuniform(inst, "power-regimes", 3.0)


def test_nonuniform_equal_powers_match_uniform():
    inst = random_instance(11, 40)
    base = schedule_repeated(inst)
    for mode in (None, "uniform", "scaled-threshold", "power-regimes"):
        sched = schedule_nonuniform(inst, mode)
        assert sched == base


def test_nonuniform_default_mode_follows_the_powers():
    mixed = random_instance(13, 50, power_range=(1.0, 4.0))
    regimes = schedule_nonuniform(mixed, "power-regimes")
    assert schedule_nonuniform(mixed) == regimes != schedule_nonuniform(mixed, "scaled-threshold")
    # one power given on every link is one power
    one = random_instance(11, 40)
    equal = Instance(params=P0, links=tuple(l.replace(power=2.0) for l in one.links))
    assert schedule_nonuniform(one) == schedule_repeated(one)
    assert schedule_nonuniform(equal) == schedule_repeated(equal)


def test_nonuniform_regime_bucket_arithmetic():
    # powers {1, 2} with base 2 land in exactly two buckets
    assert math.floor(math.log(1.0) / math.log(2.0) + 1e-12) == 0
    assert math.floor(math.log(2.0) / math.log(2.0) + 1e-12) == 1
    inst = Instance(
        params=P0,
        links=(unit_link(0, 0, 0, power=1.0), unit_link(1, 400, 0, power=2.0)),
    )
    regimes = schedule_nonuniform(inst, "power-regimes")
    assert regimes.slot_count == 2
    scaled = schedule_nonuniform(inst, "scaled-threshold")
    assert scaled.slot_count == 1


def test_nonuniform_outputs_verified_feasible():
    for seed in (13, 14):
        inst = random_instance(seed, 50, power_range=(1.0, 4.0))
        for mode in ("scaled-threshold", "power-regimes"):
            sched = schedule_nonuniform(inst, mode)
            assert partition_report(inst, sched).is_partition
            for slot in sched.slots:
                assert is_feasible(inst.resolve(slot), inst.params).feasible


def test_nonuniform_uniform_mode_rejects_mixed_powers():
    inst = Instance(
        params=P0, links=(unit_link(0, 0, 0, power=1.0), unit_link(1, 10, 0, power=3.0))
    )
    with pytest.raises(UnsupportedConfigurationError):
        schedule_nonuniform(inst, "uniform")


def test_nonuniform_empty_instance():
    inst = Instance(params=P0, links=())
    assert schedule_nonuniform(inst, "power-regimes") == Schedule(())
    assert schedule_nonuniform(inst) == Schedule(())


def regimes_by_sub_instances(inst):
    """Power regimes as sub-instances: each bucket's links copied at its least power, then A."""
    powers = [effective_power(l, inst.params) for l in inst.links]
    buckets = {}
    for link, power in zip(inst.links, powers):
        k = math.floor(math.log(power / min(powers)) / math.log(2.0) + 1e-12)
        buckets.setdefault(k, []).append(link)
    slots = []
    for k in sorted(buckets):
        least = min(effective_power(l, inst.params) for l in buckets[k])
        sub = Instance(params=inst.params, links=tuple(l.replace(power=least) for l in buckets[k]))
        slots += schedule_repeated(sub).slots
    return Schedule(tuple(slots))


@st.composite
def per_link_power_instances(
    draw, noise_share=None, power_sets=((1.0, 2.0, 4.0, 8.0), (1.0, 1.5, 3.0), (1.0, 1.9), (0.3, 7.0))
):
    """A generated instance with per-link powers, at times with a far link (a ``hypot`` kernel).

    With ``noise_share``, the noise is that share of the weakest link's
    budget: P_vv / beta at the link whose P_vv is least.
    """
    family = draw(st.sampled_from(("random", "clustered")))
    spec = TopologySpec(family=family, n=draw(st.integers(1, 80)), seed=draw(st.integers(0, 10**6)))
    links = list(generate(spec, P0).links)
    if draw(st.booleans()):
        links.append(Link(id=len(links), sender=Point(1e160, 3.0), receiver=Point(1e160, 4.0)))
    powers = draw(st.sampled_from(power_sets))
    rnd = draw(st.randoms(use_true_random=False))
    links = [l.replace(power=rnd.choice(powers)) for l in links]
    params = P0
    if noise_share is not None:
        weakest = min(l.power / l.length**P0.alpha for l in links)
        params = P0.replace(noise=draw(noise_share) * weakest / P0.beta)
    return Instance(params=params, links=tuple(links))


@given(per_link_power_instances())
@settings(max_examples=60, deadline=None)
def test_power_regimes_equal_the_sub_instances_at_noise_0(inst):
    # a bucket gathered from the instance kernel, at one power, is the kernel
    # of a sub-instance at that power: the same floats and records
    assert schedule_nonuniform(inst, "power-regimes") == regimes_by_sub_instances(inst)


@given(per_link_power_instances(noise_share=st.floats(0.3, 0.95), power_sets=((1.0, 1.9), (1.0, 1.5, 3.0))))
@settings(max_examples=60, deadline=None)
def test_noisy_power_regimes_keep_every_link_and_pass_the_gate(inst):
    # each link keeps its own c_v: a link alive at its own power is never
    # judged at its bucket's least power, where it may be dead (a link of
    # power 1.9 at 1.0 once noise passes 1/1.9 of its budget)
    schedule = schedule_nonuniform(inst, "power-regimes")
    verify_schedule(inst, schedule)


# --- first fit baseline -------------------------------------------------------


def test_first_fit_compatible_links():
    inst = Instance(params=P0, links=(unit_link(0, 0, 0), unit_link(1, 20, 0)))
    assert first_fit_baseline(inst).slot_count == 1


def test_first_fit_three_colocated():
    params = ModelParams(alpha=3.0, beta=2.0, noise=0.0)
    inst = Instance(params=params, links=tuple(unit_link(i, 0, 0) for i in range(3)))
    assert first_fit_baseline(inst).slot_count == 3


def test_first_fit_partition_and_feasible():
    inst = random_instance(17, 60, power_range=(1.0, 2.0))
    sched = first_fit_baseline(inst)
    assert partition_report(inst, sched).is_partition
    for slot in sched.slots:
        assert is_feasible(inst.resolve(slot), inst.params).feasible


def test_first_fit_respects_input_order():
    # first link opens slot 1; an incompatible second link opens slot 2;
    # a third compatible with the first joins slot 1
    params = ModelParams(alpha=3.0, beta=2.0, noise=0.0)
    links = (unit_link(5, 0, 0), unit_link(2, 0, 0), unit_link(9, 500, 0))
    inst = Instance(params=params, links=links)
    sched = first_fit_baseline(inst)
    assert [slot.sorted_members for slot in sched.slots] == [(5, 9), (2,)]


# --- the one admission loop ----------------------------------------------------


def slot_parallel_first_fit(rows, order, threshold, guard=False):
    """First-fit as the schedulers once ran it: one accumulator per open set."""
    bound = ceiling(threshold)
    mat = rows.matrix()
    sets, accs = [], []
    for i in order:
        row = mat[i]
        for members, acc in zip(sets, accs):
            if acc[i] <= bound and (not guard or (acc[members] + row[members] <= bound).all()):
                members.append(i)
                acc += row
                break
        else:
            sets.append([i])
            accs.append(row.copy())
    return sets


small_instances = st.builds(
    lambda family, n, seed: generate(
        TopologySpec(family=family, n=n, seed=seed), DEFAULT_MODEL_PARAMS
    ),
    st.sampled_from(("random", "clustered")),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10**6),
)


@given(small_instances)
@settings(max_examples=40, deadline=None)
def test_first_fit_rounds_equal_slot_parallel_first_fit(inst):
    links, params = inst.links, inst.params
    rows = AffectanceRows(links, params)
    length = sorted(range(len(links)), key=lambda i: (links[i].length, links[i].id))
    c = compute_constants(params).c
    assert _first_fit(rows, length, c) == slot_parallel_first_fit(rows, length, c)
    ids = range(len(links))
    guarded = _first_fit(rows, ids, 1 / params.beta, guard=True)
    assert guarded == slot_parallel_first_fit(rows, ids, 1 / params.beta, guard=True)
    assert first_fit_baseline(inst).slots == tuple(
        Slot(frozenset(links[i].id for i in s)) for s in guarded
    )
    # strengthen: decreasing length order, then each set in increasing order
    threshold = 1 / (2 * 2.4)
    expected = []
    decreasing = sorted(range(len(links)), key=lambda i: (-links[i].length, links[i].id))
    for first in slot_parallel_first_fit(rows, decreasing, threshold):
        increasing = sorted(first, key=lambda i: (links[i].length, links[i].id))
        expected += slot_parallel_first_fit(rows, increasing, threshold)
    slot = Slot(frozenset(l.id for l in links))
    assert strengthen_slot(inst, slot, 2.4) == tuple(
        Slot(frozenset(links[i].id for i in s)) for s in expected
    )


def full_row_sweep(rows, order, threshold, near=None, guard=False):
    """The admission sweep before the live frontier: every row over all n links."""
    n = len(rows.lengths)
    ids = np.arange(n)
    bound = ceiling(threshold)
    mat = rows.matrix()
    acc = np.zeros(n)
    blocked = np.zeros(n, dtype=bool)
    members = np.empty(n, dtype=np.intp)
    m = 0
    for i in order:
        if not acc[i] <= bound or blocked[i]:
            continue
        if guard and m:
            admitted = members[:m]
            if not (acc[admitted] + mat[i, admitted] <= bound).all():
                continue
        members[m] = i
        m += 1
        dist = rows.distances(i)
        if threshold < math.inf:
            acc += mat[i]
        if near is not None:
            blocked |= near(rows, i, slice(None), dist)
    return members[:m].tolist()


def full_row_first_fit(rows, order, threshold, near=None, guard=False):
    rounds, left = [], list(order)
    while left:
        chosen = full_row_sweep(rows, left, threshold, near, guard)
        rounds.append(chosen)
        taken = set(chosen)
        left = [i for i in left if i not in taken]
    return rounds


frontier_instances = st.builds(
    lambda family, n, seed: generate(
        TopologySpec(family=family, n=n, seed=seed), DEFAULT_MODEL_PARAMS
    ),
    st.sampled_from(("random", "clustered")),
    st.integers(min_value=65, max_value=300),
    st.integers(min_value=0, max_value=10**6),
)


def test_live_frontier_equals_full_rows(monkeypatch):
    # more take() calls than rounds means some sweep re-gathered its frontier
    takes, rounds = [0], [0]
    real_take = AffectanceRows.take

    def counted_take(self, idx):
        takes[0] += 1
        return real_take(self, idx)

    monkeypatch.setattr(AffectanceRows, "take", counted_take)

    @given(frontier_instances, st.sampled_from((0.5, 2.0)))
    @settings(max_examples=20, deadline=None)
    def check(inst, q):
        links, params = inst.links, inst.params
        rows = AffectanceRows(links, params)
        consts = compute_constants(params)
        length = sorted(range(len(links)), key=lambda i: (links[i].length, links[i].id))
        cases = [
            (length, consts.c, None, False),
            (range(len(links)), 1 / params.beta, None, True),
            (length, 2.0 / 3.0, too_close(consts.c_hat), False),
            (length, math.inf, not_dispersed(q), False),
        ]
        for order, threshold, near, guard in cases:
            got = _first_fit(rows, order, threshold, near, guard)
            assert got == full_row_first_fit(rows, order, threshold, near, guard)
            rounds[0] += len(got)

    check()
    assert takes[0] > rounds[0]


@pytest.mark.parametrize(
    "family, seed, schedule, share",
    [("random", 0, schedule_repeated, 0.35), ("clustered", 2, first_fit_baseline, 0.6)],
    ids=["A-random", "firstfit-clustered"],
)
def test_sweep_evaluates_live_cells_only(monkeypatch, family, seed, schedule, share):
    # full rows evaluate n^2 cells for A and 1.19 n^2 for this first-fit
    n = 1000
    inst = generate(TopologySpec(family=family, n=n, seed=seed), DEFAULT_MODEL_PARAMS)
    cells = [0]
    real_block = AffectanceRows.block

    def counted_block(self, w, v, dist):
        out = real_block(self, w, v, dist)
        cells[0] += out.size
        return out

    monkeypatch.setattr(AffectanceRows, "block", counted_block)
    schedule(inst)
    assert cells[0] <= share * n * n


def gathered_guard_sweep(rows, order, threshold):
    """The guarded sweep with gathered members, and the members' accumulators.

    The reference for ``_sweep``'s member block (``near`` omitted): each
    probe gathers the members from the frontier kernel and evaluates the
    candidate's row on them, and the members' accumulators live in the
    frontier's ``acc``.
    """
    ids = np.asarray(order, dtype=np.intp)
    kernel = rows.take(ids)
    bound = ceiling(threshold)
    acc = np.zeros(len(ids))
    members = np.empty(len(ids), dtype=np.intp)
    m = 0
    i = -1
    while i + 1 < len(ids):
        i += 1
        if not acc[i] <= bound:
            continue
        if m:
            admitted = members[:m]
            on = kernel.block(i, admitted, kernel.distances(i, admitted))
            if not (acc[admitted] + on <= bound).all():
                continue
            acc[admitted] += on
        members[m] = i
        m += 1
        ahead = slice(i + 1, None)
        acc[ahead] += kernel.block(i, ahead, kernel.distances(i, ahead))
        if len(ids) - i - 1 < _FRONTIER_MIN:
            continue
        live = acc[ahead] <= bound
        if 2 * np.count_nonzero(live) < len(live):
            keep = np.concatenate((members[:m], i + 1 + np.flatnonzero(live)))
            kernel, ids, acc = kernel.take(keep), ids[keep], acc[keep]
            members[:m] = np.arange(m)
            i = m - 1
    return ids[members[:m]].tolist(), acc[members[:m]]


@given(
    st.sampled_from(("random", "clustered")),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
    st.sampled_from((0.0, 1e-6)),
    st.randoms(use_true_random=False),
    st.sampled_from((1 / 1.2, 0.2, 0.02)),
)
@settings(max_examples=150, deadline=None)
def test_guard_member_block_equals_gathered_guard(
    family, n, seed, per_link, noise, rnd, threshold
):
    # same sets, and the members' accumulators bit for bit
    inst = generate(TopologySpec(family=family, n=n, seed=seed), DEFAULT_MODEL_PARAMS)
    links = inst.links
    if per_link:
        links = tuple(
            Link(id=l.id, sender=l.sender, receiver=l.receiver, power=rnd.choice((1.0, 2.0, 8.0)))
            for l in links
        )
    try:
        inst = Instance(params=ModelParams(alpha=3.0, beta=1.2, noise=noise), links=links)
    except SchedulingError:
        return  # a link too long for this noise
    rows = AffectanceRows(inst.links, inst.params)
    order = list(range(n))
    rnd.shuffle(order)
    member_acc = np.empty(n)
    chosen = _sweep(rows, order, threshold, member_acc=member_acc)
    want, want_acc = gathered_guard_sweep(rows, order, threshold)
    assert chosen == want
    assert member_acc[: len(chosen)].tobytes() == want_acc.tobytes()


@st.composite
def windowed_cases(draw):
    """An order several windows long, at times on a non-unit kernel, with one
    link's sender put on another's receiver inside a window or across windows."""
    n = draw(st.integers(min_value=2 * _WINDOW + 1, max_value=5 * _WINDOW))
    family = draw(st.sampled_from(("random", "clustered")))
    spec = TopologySpec(family=family, n=n, seed=draw(st.integers(0, 10**6)))
    links = list(generate(spec, P0).links)
    order = draw(st.permutations(range(n)))
    gap = draw(st.one_of(st.integers(1, 7), st.integers(_WINDOW + 1, 2 * _WINDOW)))
    at = draw(st.integers(0, n - 1 - gap))
    w, v = (order[at], order[at + gap])[:: 1 if draw(st.booleans()) else -1]
    links[w] = Link(id=links[w].id, sender=links[v].receiver, receiver=links[w].receiver)
    if draw(st.booleans()):
        rnd = draw(st.randoms(use_true_random=False))
        links = [l.replace(power=rnd.choice((1.0, 2.0, 8.0))) for l in links]
    params = ModelParams(alpha=3.0, beta=1.2, noise=draw(st.sampled_from((0.0, 1e-6))))
    try:
        return Instance(params=params, links=tuple(links)), order
    except SchedulingError:
        assume(False)  # a link too long for this noise


@given(windowed_cases(), st.sampled_from((0.5, 2.0)))
@settings(max_examples=30, deadline=None)
def test_windowed_sweep_equals_the_full_row_references(case, q):
    # A's threshold, B's near mask, first-fit's guard and disperse's infinite
    # threshold give the sets of full rows (and of one accumulator per set),
    # and the guard's member accumulators bit for bit
    inst, order = case
    rows = AffectanceRows(inst.links, inst.params)
    consts = compute_constants(inst.params)
    cases = [
        (consts.c, None, False),
        (2.0 / 3.0, too_close(consts.c_hat), False),
        (1 / inst.params.beta, None, True),
        (math.inf, not_dispersed(q), False),
    ]
    for threshold, near, guard in cases:
        got = _first_fit(rows, order, threshold, near, guard)
        assert got == full_row_first_fit(rows, order, threshold, near, guard)
        if near is None:
            assert got == slot_parallel_first_fit(rows, order, threshold, guard)
    member_acc = np.empty(len(order))
    chosen = _sweep(rows, order, 1 / inst.params.beta, member_acc=member_acc)
    with np.errstate(divide="ignore"):  # the reference's a_w(v) = inf on the coincident pair
        want, want_acc = gathered_guard_sweep(rows, order, 1 / inst.params.beta)
    assert chosen == want and member_acc[: len(chosen)].tobytes() == want_acc.tobytes()


@pytest.mark.parametrize(
    "mask, sx, near",
    [
        ("B", 3.0, True),  # d(s_w, r_v) = 2 len(v): B's non-strict bound at c_hat = 2
        ("B", math.nextafter(3.0, 4.0), False),
        ("disperse", 4.0, False),  # d(s_w, r_v) = 3 len(v): disperse's strict bound at q = 1, noise 0
        ("disperse", math.nextafter(4.0, 0.0), True),
    ],
)
def test_window_blocks_decide_near_ties_exactly(monkeypatch, mask, sx, near):
    # two tie pairs, w swept before v: one inside the first window, one across
    # its boundary, decided in the block of rows beyond it; far links between
    calls = []
    monkeypatch.setattr(
        "capsched.core.exactly_near", lambda *a: calls.append(a) or exactly_near(*a)
    )
    pairs = []
    for lid in (0, 2):
        y = 1000.0 * lid
        v = Link(id=lid, sender=Point(0.0, y), receiver=Point(1.0, y))
        w = Link(id=lid + 1, sender=Point(sx, y), receiver=Point(sx, y + 7.0))
        gap, d_vv = squared(w.sender, v.receiver), squared(v.sender, v.receiver)
        assert near is (gap <= 4 * d_vv if mask == "B" else gap < 9 * d_vv)
        pairs.append((v, w))
    links = (*pairs[0], *pairs[1], *(unit_link(4 + i, 100.0 * (i + 1), -5000.0) for i in range(44)))
    order = [1, 3, 4, 0, *range(5, 5 + _WINDOW), 2, *range(5 + _WINDOW, len(links))]
    assert sorted(order) == list(range(len(links))) and order.index(2) > _WINDOW
    rows = AffectanceRows(links, P0)
    if mask == "B":
        threshold, test = 2.0 / 3.0, too_close(2.0)
    else:
        threshold, test = math.inf, not_dispersed(1.0)
    got = _first_fit(rows, order, threshold, test)
    assert len(calls) >= 2
    assert got == full_row_first_fit(rows, order, threshold, test)
    for v, w in pairs:
        assert any({v.id, w.id} <= set(s) for s in got) is not near


@pytest.mark.parametrize(
    "schedule",
    [first_fit_baseline, lambda i: schedule_repeated(i, guarded=True)],
    ids=["firstfit", "B"],
)
def test_window_state_is_linear_in_the_window(schedule):
    # the sweep holds O(_WINDOW * n) floats beyond the kernel: about 1.7 MB at n = 2000
    n = 2000
    inst = generate(TopologySpec(family="random", n=n, seed=0), DEFAULT_MODEL_PARAMS)
    inst.kernel
    tracemalloc.start()
    try:
        schedule(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * _WINDOW * n * 8


def test_dispersion_mask_matches_scalar_test():
    inst = random_instance(4, 150)
    links = inst.links
    rows = AffectanceRows(links, P0)
    factor = np.full(len(links), 3.0)
    for j in range(0, len(links), 7):
        mask = rows.near(j, slice(None), rows.distances(j), factor, True, "receiver")
        bound = factor * rows.lengths
        expected = [not dispersed(v, links[j], bound[i]) for i, v in enumerate(links)]
        assert mask.tolist() == expected


@pytest.mark.parametrize("end", ["sender", "receiver"])
def test_dispersion_mask_ties_are_decided_exactly(monkeypatch, end):
    # d(s_w, r_v) or d(r_w, r_v) is exactly the bound 3 of v (q=1, c_v=1),
    # then one ulp below it: disperse's test is strict
    v = unit_link(0, 0.0, 0.0)
    calls = []
    monkeypatch.setattr(
        "capsched.core.exactly_near", lambda *a: calls.append(a) or exactly_near(*a)
    )
    for lid, x, near in ((1, 4.0, False), (2, math.nextafter(4.0, 0.0), True)):
        if end == "sender":
            w = Link(id=lid, sender=Point(x, 0.0), receiver=Point(x, 7.0))
        else:
            w = Link(id=lid, sender=Point(x, 7.0), receiver=Point(x, 0.0))
        tie_end = w.sender if end == "sender" else w.receiver
        assert near is (squared(tie_end, v.receiver) < 9 * squared(v.sender, v.receiver))
        links = (v, w)
        rows = AffectanceRows(links, P0)
        factor = np.array([3.0, 3.0])
        mask = rows.near(1, slice(None), rows.distances(1), factor, True, "receiver")
        assert bool(mask[0]) is near
        ids = np.array([1, 0])
        frontier, ahead = rows.take(ids), slice(1, None)
        mask = frontier.near(0, ahead, frontier.distances(0, ahead), factor[ids[ahead]], True, "receiver")
        assert mask.tolist() == [near]
    assert len(calls) >= 4


def test_dispersion_bound_past_the_float_range_is_no_tie(monkeypatch):
    # at q = 1e308, factor * d_vv passes the float range for every link longer
    # than 1.8: inf lies above every gap, so each link gets its own slot with
    # no numpy warning and no pair sent to the exact test
    inst = random_instance(5, 60)
    assert sum(l.length > 1.8 for l in inst.links) > 30
    calls = []
    monkeypatch.setattr(
        "capsched.core.exactly_near", lambda *a: calls.append(a) or exactly_near(*a)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        refined = disperse(inst, schedule_repeated(inst), 1e308)
    assert refined.slot_count == len(inst) and not calls


def test_first_fit_holds_linear_state():
    # 300 parallel unit links 0.001 apart: every pair conflicts, so each link
    # gets its own slot; one accumulator per open slot would peak at 720 kB
    n = 300
    links = tuple(
        Link(id=i, sender=Point(0.0, 1e-3 * i), receiver=Point(1.0, 1e-3 * i)) for i in range(n)
    )
    inst = Instance(params=P0, links=links)
    tracemalloc.start()
    try:
        sched = first_fit_baseline(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sched.slot_count == n
    assert peak < 250_000
