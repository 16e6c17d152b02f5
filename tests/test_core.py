"""Unit tests for the geometry / affectance / feasibility layer.

Expected values are computed by independent inline arithmetic (path-loss and
SINR ratios written out directly), not by calling the code under test.
"""

import math

import pytest

from capsched.core import (
    FeasibilityReport,
    InfeasibleLinkError,
    Instance,
    Link,
    ModelParams,
    Point,
    Schedule,
    SingularityError,
    Slot,
    UnsupportedConfigurationError,
    VerificationError,
    affectance,
    affectance_matrix,
    distance,
    effective_power,
    is_feasible,
    is_q_dispersed,
    is_q_near,
    noise_factor,
    p_signal_violation,
    partition_report,
    received_power,
    relative_interference,
    single_affectance,
    verify_schedule,
)

P0 = ModelParams(alpha=3.0, beta=1.2, noise=0.0)


def unit_link(lid, x0, y0, dx=1.0, dy=0.0, power=None):
    return Link(id=lid, sender=Point(x0, y0), receiver=Point(x0 + dx, y0 + dy), power=power)


def test_distance_trivial_cases():
    assert distance(Point(0, 0), Point(0, 0)) == 0.0
    assert distance(Point(0, 0), Point(3, 4)) == 5.0
    assert distance(Point(1, 0), Point(3, 0)) == 2.0


def test_received_power_path_loss():
    # oracle: power / d^alpha evaluated by hand
    assert received_power(Point(0, 0), Point(2, 0), 1.0, P0) == 1.0 / (2 * 2 * 2)
    assert received_power(Point(0, 0), Point(1, 0), 1.0, ModelParams(alpha=5.0, beta=1.0)) == 1.0
    assert received_power(Point(0, 0), Point(2, 0), 8.0, P0) == 8.0 / 8.0


def test_received_power_singularity():
    with pytest.raises(SingularityError):
        received_power(Point(1, 1), Point(1, 1), 1.0, P0)


def test_zero_length_link_rejected():
    with pytest.raises(SingularityError):
        Link(id=0, sender=Point(2, 2), receiver=Point(2, 2))


def test_noise_factor_zero_noise_is_exactly_one():
    link = unit_link(0, 0, 0)
    assert noise_factor(link, P0) == 1.0


def test_noise_factor_value():
    # unit link with unit power: P_vv = 1; oracle: 1/(1 - beta*N/P_vv)
    link = unit_link(0, 0, 0)
    params = ModelParams(alpha=3.0, beta=1.0, noise=0.5)
    assert noise_factor(link, params) == 1.0 / (1.0 - 0.5)


def test_noise_factor_dead_link_boundary():
    # P_vv = 1 = beta*N exactly -> rejected
    link = unit_link(0, 0, 0)
    params = ModelParams(alpha=3.0, beta=2.0, noise=0.5)
    with pytest.raises(InfeasibleLinkError):
        noise_factor(link, params)


def test_noise_factor_monotone_in_length():
    params = ModelParams(alpha=3.0, beta=1.0, noise=0.01)
    short = unit_link(0, 0, 0, dx=1.0)
    long = unit_link(1, 0, 0, dx=2.0)
    assert noise_factor(long, params) >= noise_factor(short, params) >= 1.0


def test_relative_interference_self_is_zero():
    link = unit_link(0, 0, 0)
    assert relative_interference(link, link, P0) == 0.0


def test_relative_interference_uniform():
    # victim: receiver (0,0), sender (1,0); interferer sender at (0,2)
    v = Link(id=0, sender=Point(1, 0), receiver=Point(0, 0))
    w = Link(id=1, sender=Point(0, 2), receiver=Point(0, 3))
    # oracle: (P/2^3) / (P/1^3)
    assert relative_interference(w, v, P0) == (1.0 / 8.0) / 1.0


def test_relative_interference_nonuniform_power():
    v = Link(id=0, sender=Point(1, 0), receiver=Point(0, 0), power=1.0)
    w = Link(id=1, sender=Point(0, 2), receiver=Point(0, 3), power=2.0)
    assert relative_interference(w, v, P0) == (2.0 / 8.0) / 1.0


def test_relative_interference_singularity():
    v = Link(id=0, sender=Point(1, 0), receiver=Point(0, 0))
    w = Link(id=1, sender=Point(0, 0), receiver=Point(5, 5))  # s_w == r_v
    with pytest.raises(SingularityError):
        relative_interference(w, v, P0)


def test_affectance_empty_set():
    v = unit_link(0, 0, 0)
    assert affectance([], v, P0) == 0.0


def test_affectance_single_and_additive():
    v = Link(id=0, sender=Point(1, 0), receiver=Point(0, 0))
    w1 = Link(id=1, sender=Point(0, 2), receiver=Point(0, 3))
    w2 = Link(id=2, sender=Point(0, -2), receiver=Point(0, -3))
    # closed-form oracle: c_v * (d_vv/d)^alpha with c_v = 1 at N=0
    assert affectance([w1], v, P0) == 1.0 * (1.0 / 2.0) ** 3
    assert affectance([w1, w2], v, P0) == 0.25
    # self term contributes nothing
    assert affectance([v, w1, w2], v, P0) == 0.25


def test_single_affectance_matches_affectance():
    v = Link(id=0, sender=Point(1, 0), receiver=Point(0, 0))
    w = Link(id=1, sender=Point(0, 2), receiver=Point(0, 3))
    assert single_affectance(w, v, P0) == affectance([w], v, P0)


def test_affectance_matrix_matches_scalar():
    params = ModelParams(alpha=3.0, beta=1.0, noise=0.001, default_power=2.0)
    links = (
        Link(id=0, sender=Point(0, 0), receiver=Point(1.5, 0.5)),
        Link(id=1, sender=Point(10, 3), receiver=Point(12, 2), power=3.0),
        Link(id=2, sender=Point(-4, 2), receiver=Point(-5, 1), power=0.5),
        Link(id=3, sender=Point(7, -8), receiver=Point(6, -6)),
    )
    inst = Instance(params=params, links=links)
    mat = affectance_matrix(inst)
    for i, w in enumerate(links):
        for j, v in enumerate(links):
            expected = 0.0 if i == j else single_affectance(w, v, params)
            assert mat[i, j] == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_is_feasible_singleton():
    report = is_feasible([unit_link(0, 0, 0)], P0)
    assert report.feasible and report.sinr_feasible
    assert report.margin == pytest.approx(1 / 1.2)
    assert report.sinr_margin == math.inf


def test_is_feasible_colocated_pair():
    params = ModelParams(alpha=3.0, beta=2.0, noise=0.0)
    a = unit_link(0, 0, 0)
    b = unit_link(1, 0, 0)
    # oracle: direct SINR of each link is (1/1)/(1/1) = 1 < beta = 2
    report = is_feasible([a, b], params)
    assert not report.feasible and not report.sinr_feasible
    assert report.worst_link == 0
    assert report.margin == pytest.approx(1 / 2 - 1.0)


def test_is_feasible_separated_pair():
    # senders at distance sqrt(10) ~ 3.16 >= 2*beta^(1/alpha) ~ 2.13 from the
    # other receiver; oracle: affectance (1/sqrt(10))^3 each, below 1/beta
    a = Link(id=0, sender=Point(0, 0), receiver=Point(0, 1))
    b = Link(id=1, sender=Point(3, 0), receiver=Point(3, 1))
    assert math.dist((3, 0), (0, 1)) >= 2 * 1.2 ** (1 / 3)
    report = is_feasible([a, b], P0)
    assert report.feasible and report.sinr_feasible
    expected_a = (1.0 / math.sqrt(10)) ** 3
    assert report.margin == pytest.approx(1 / 1.2 - expected_a)


def test_is_feasible_empty():
    report = is_feasible([], P0)
    assert report.feasible and report.worst_link is None and report.margin == math.inf


def fixture_quarter_affectance():
    """Instance whose one slot has max in-slot affectance exactly 0.25."""
    v = Link(id=0, sender=Point(1, 0), receiver=Point(0, 0))
    w1 = Link(id=1, sender=Point(0, 2), receiver=Point(0, 3))
    w2 = Link(id=2, sender=Point(0, -2), receiver=Point(0, -3))
    inst = Instance(params=P0, links=(v, w1, w2))
    sched = Schedule((Slot(frozenset({0, 1, 2})),))
    return inst, sched


def test_is_p_signal_thresholds():
    inst, sched = fixture_quarter_affectance()
    # sanity: the other two links see less than 0.25
    for lid in (1, 2):
        links = inst.resolve(sched.slots[0])
        assert affectance(links, inst.links[inst.position[lid]], P0) < 0.25
    assert p_signal_violation(inst, sched, 4.0) is None
    viol = p_signal_violation(inst, sched, 5.0)
    assert viol == (0, 0, 0.25)


def test_is_p_signal_singletons():
    links = tuple(unit_link(i, 5.0 * i, 0) for i in range(4))
    inst = Instance(params=P0, links=links)
    sched = Schedule(tuple(Slot(frozenset({l.id})) for l in links))
    for p in (0.5, 1.0, 7.0, 1e9):
        assert p_signal_violation(inst, sched, p) is None


def test_beta_feasible_slot_is_beta_signal():
    a = Link(id=0, sender=Point(0, 0), receiver=Point(0, 1))
    b = Link(id=1, sender=Point(3, 0), receiver=Point(3, 1))
    inst = Instance(params=P0, links=(a, b))
    sched = Schedule((Slot(frozenset({0, 1})),))
    assert is_feasible((a, b), P0).feasible
    assert p_signal_violation(inst, sched, P0.beta) is None


def test_q_near_fixture():
    # d_vv = 1, interferer sender at distance 3 from the victim receiver
    v = Link(id=0, sender=Point(1, 0), receiver=Point(0, 0))
    w = Link(id=1, sender=Point(0, 3), receiver=Point(0, 4))
    # oracle: a_w(v) = (1/3)^3 = 1/27; q-near iff 1/27 > q^-3
    assert is_q_near(w, v, 4.0, P0) is True
    assert is_q_near(w, v, 2.0, P0) is False


def test_q_near_self_false():
    v = unit_link(0, 0, 0)
    assert is_q_near(v, v, 3.0, P0) is False


def test_q_dispersed_singleton_and_pairs():
    v = Link(id=0, sender=Point(1, 0), receiver=Point(0, 0))
    w = Link(id=1, sender=Point(0, 3), receiver=Point(0, 4))
    assert is_q_dispersed([v], 100.0, P0)
    assert is_q_dispersed([], 1.0, P0)
    # ordered pairs: w is 4-near v, so the pair is not 4-dispersed
    assert not is_q_dispersed([v, w], 4.0, P0)
    assert is_q_dispersed([v, w], 2.0, P0) == (
        not is_q_near(v, w, 2.0, P0) and not is_q_near(w, v, 2.0, P0)
    )


def test_dispersion_requires_uniform_power():
    v = unit_link(0, 0, 0, power=1.0)
    w = unit_link(1, 5, 5, power=2.0)
    with pytest.raises(UnsupportedConfigurationError):
        is_q_near(w, v, 2.0, P0)
    with pytest.raises(UnsupportedConfigurationError):
        is_q_dispersed([v, w], 2.0, P0)


def test_instance_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        Instance(params=P0, links=(unit_link(0, 0, 0), unit_link(0, 5, 5)))


def test_instance_rejects_dead_links():
    params = ModelParams(alpha=3.0, beta=2.0, noise=0.5)
    with pytest.raises(InfeasibleLinkError):
        Instance(params=params, links=(unit_link(0, 0, 0),))


def test_effective_power_default():
    link = unit_link(0, 0, 0)
    assert effective_power(link, ModelParams(alpha=3, beta=1, default_power=4.0)) == 4.0
    assert effective_power(unit_link(1, 0, 0, power=2.5), P0) == 2.5


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(alpha=2.0, beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=3.0, beta=0.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=3.0, beta=1.0, noise=-0.1)
    with pytest.raises(ValueError):
        ModelParams(alpha=3.0, beta=1.0, default_power=0.0)


def test_partition_report():
    links = tuple(unit_link(i, 5.0 * i, 0) for i in range(3))
    inst = Instance(params=P0, links=links)
    good = Schedule((Slot(frozenset({0, 2})), Slot(frozenset({1}))))
    rep = partition_report(inst, good)
    assert rep.is_partition and not rep.missing and not rep.duplicated and not rep.dangling

    missing = Schedule((Slot(frozenset({0})),))
    rep = partition_report(inst, missing)
    assert not rep.is_partition and rep.missing == (1, 2)

    duplicated = Schedule((Slot(frozenset({0, 1})), Slot(frozenset({1, 2}))))
    rep = partition_report(inst, duplicated)
    assert not rep.is_partition and rep.duplicated == (1,)

    dangling = Schedule((Slot(frozenset({0, 1, 2, 9})),))
    rep = partition_report(inst, dangling)
    assert not rep.is_partition and rep.dangling == (9,)


def test_feasibility_report_is_immutable():
    rep = FeasibilityReport(True, True, None, 1.0, 1.0)
    with pytest.raises(Exception):
        rep.feasible = False


def test_report_max_pair_affectance():
    v = Link(id=0, sender=Point(1, 0), receiver=Point(0, 0))
    w = Link(id=1, sender=Point(0, 3), receiver=Point(0, 4))
    u = unit_link(2, 10, 10)
    links = (v, w, u)
    rep = is_feasible(links, P0)
    pairs = [single_affectance(a, b, P0) for a in links for b in links if a.id != b.id]
    assert math.isclose(rep.max_pair_affectance, max(pairs), rel_tol=1e-14)
    # the largest pair term is w on v: (1/3)^3
    assert math.isclose(rep.max_pair_affectance, 1.0 / 27.0, rel_tol=1e-14)
    assert is_feasible((v,), P0).max_pair_affectance == 0.0
    assert is_feasible((), P0).max_pair_affectance == 0.0


def test_verify_schedule_accepts_a_feasible_partition():
    links = tuple(unit_link(i, 50.0 * i, 0) for i in range(3))
    inst = Instance(params=P0, links=links)
    verify_schedule(inst, Schedule((Slot(frozenset({0, 2})), Slot(frozenset({1})))))
    verify_schedule(Instance(params=P0, links=()), Schedule(()))


def test_verify_schedule_rejects_a_non_partition():
    links = tuple(unit_link(i, 50.0 * i, 0) for i in range(3))
    inst = Instance(params=P0, links=links)
    with pytest.raises(VerificationError, match=r"not a partition: missing=\(2,\)") as err:
        verify_schedule(inst, Schedule((Slot(frozenset({0, 1})),)))
    assert err.value.slot_index is None and err.value.link_id is None
    with pytest.raises(VerificationError, match=r"dangling=\(7,\)"):
        verify_schedule(inst, Schedule((Slot(frozenset({0, 1, 2, 7})),)))


def test_verify_schedule_names_the_first_failing_slot():
    # two parallel unit links 0.1 apart cannot share a slot at beta = 1.2
    links = (
        unit_link(0, 0, 0),
        unit_link(1, 100, 0),
        Link(id=2, sender=Point(100, 0.1), receiver=Point(101, 0.1)),
    )
    inst = Instance(params=P0, links=links)
    sched = Schedule((Slot(frozenset({0})), Slot(frozenset({1, 2}))))
    with pytest.raises(VerificationError, match=r"slot 1 failed verification \(worst link") as err:
        verify_schedule(inst, sched)
    assert err.value.slot_index == 1
    assert err.value.link_id in (1, 2)
