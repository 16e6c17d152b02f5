"""Tests for the exhaustive solvers, cross-checked against plain brute force.

The brute-force reference implementations here deliberately share no code
with the module under test: subsets come from itertools and feasibility from
the public is_feasible checker.
"""

import itertools
import math

import numpy as np
import pytest

from capsched.core import (
    Instance,
    Link,
    ModelParams,
    Point,
    SizeLimitError,
    affectance,
    is_feasible,
)
from capsched import oracles
from capsched.oracles import (
    feasible_subsets,
    max_feasible_subset,
    max_p_signal_subset,
    min_p_signal_schedule,
    min_schedule,
)
from capsched.schedulers import schedule_repeated, single_shot_greedy

P0 = ModelParams(alpha=3.0, beta=1.2, noise=0.0)


def unit_link(lid, x0, y0, dx=1.0, dy=0.0):
    return Link(id=lid, sender=Point(x0, y0), receiver=Point(x0 + dx, y0 + dy))


def random_instance(seed, n, params=P0, side=40.0):
    rng = np.random.default_rng(seed)
    links = []
    for i in range(n):
        rx, ry = rng.uniform(0, side, 2)
        angle = rng.uniform(0, 2 * math.pi)
        length = rng.uniform(0.5, 3.0)
        links.append(
            Link(
                id=i,
                sender=Point(rx + length * math.cos(angle), ry + length * math.sin(angle)),
                receiver=Point(rx, ry),
            )
        )
    return Instance(params=params, links=tuple(links))


def brute_force_max_subset(instance, p=None):
    """Reference: scan all subsets largest-first, lexicographic within size."""
    links = sorted(instance.links, key=lambda l: l.id)
    params = instance.params
    threshold = 1.0 / (p if p is not None else params.beta)
    for size in range(len(links), 0, -1):
        for combo in itertools.combinations(links, size):
            if p is None:
                ok = is_feasible(combo, params).feasible
            else:
                ok = all(
                    affectance(combo, v, params) <= threshold + 1e-12 for v in combo
                )
            if ok:
                return frozenset(l.id for l in combo)
    return frozenset()


def brute_force_min_slots(instance):
    """Reference: minimum slot count over all set partitions."""
    links = sorted(instance.links, key=lambda l: l.id)
    params = instance.params

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    best = len(links)
    for parts in partitions(links):
        if all(is_feasible(part, params).feasible for part in parts):
            best = min(best, len(parts))
    return best


# --- max subset ---------------------------------------------------------------


def test_max_subset_mutually_compatible():
    inst = Instance(params=P0, links=tuple(unit_link(i, 30.0 * i, 0) for i in range(5)))
    assert max_feasible_subset(inst).members == frozenset(range(5))


def test_max_subset_three_colocated():
    params = ModelParams(alpha=3.0, beta=2.0, noise=0.0)
    inst = Instance(params=params, links=tuple(unit_link(i, 0, 0) for i in range(3)))
    slot = max_feasible_subset(inst)
    assert slot.members == frozenset({0})  # lexicographically smallest witness


def test_max_subset_matches_brute_force():
    for seed in range(8):
        inst = random_instance(seed, 8)
        got = max_feasible_subset(inst).members
        want = brute_force_max_subset(inst)
        assert got == want, f"seed {seed}"


def test_max_subset_dominates_greedy():
    for seed in range(6):
        inst = random_instance(seed + 50, 12)
        greedy = single_shot_greedy(inst)
        oracle = max_feasible_subset(inst)
        assert len(oracle) >= len(greedy)


def test_max_subset_empty_instance():
    inst = Instance(params=P0, links=())
    assert max_feasible_subset(inst).members == frozenset()


def no_matrix(monkeypatch):
    """Make gathering the affectance matrix fail: a size check must come first."""

    def fail(instance):
        raise AssertionError("the oracle did work before its size check")

    monkeypatch.setattr(oracles, "id_ordered", fail)


def test_max_subset_size_limit(monkeypatch):
    no_matrix(monkeypatch)
    inst = random_instance(1, oracles.MAX_LINKS_SUBSET + 1)
    message = "21 links exceed the subset oracle limit 20"
    with pytest.raises(SizeLimitError, match=message):
        max_feasible_subset(inst)
    with pytest.raises(SizeLimitError, match=message):
        max_p_signal_subset(inst, 2.0)


def test_p_signal_subset_at_beta_identical():
    for seed in range(4):
        inst = random_instance(seed + 9, 9)
        assert max_p_signal_subset(inst, P0.beta) == max_feasible_subset(inst)


def test_p_signal_subset_huge_p_gives_singleton():
    inst = Instance(params=P0, links=(unit_link(4, 0, 0), unit_link(7, 5, 0)))
    slot = max_p_signal_subset(inst, 1e18)
    assert slot.members == frozenset({4})


def test_p_signal_subset_matches_brute_force():
    for seed in range(4):
        inst = random_instance(seed + 30, 7)
        for p in (2.0, 4.8):
            got = max_p_signal_subset(inst, p).members
            want = brute_force_max_subset(inst, p=p)
            assert got == want


def test_p_signal_subset_rejects_bad_p():
    inst = Instance(params=P0, links=(unit_link(0, 0, 0),))
    with pytest.raises(ValueError):
        max_p_signal_subset(inst, 0.0)


# --- min schedule ---------------------------------------------------------------


def test_min_schedule_compatible_links():
    inst = Instance(params=P0, links=tuple(unit_link(i, 40.0 * i, 0) for i in range(4)))
    sched = min_schedule(inst)
    assert sched.slot_count == 1
    assert sched.slots[0].members == frozenset(range(4))


def test_min_schedule_three_colocated_duplicates():
    params = ModelParams(alpha=3.0, beta=2.0, noise=0.0)
    inst = Instance(params=params, links=tuple(unit_link(i, 0, 0) for i in range(3)))
    sched = min_schedule(inst)
    assert sched.slot_count == 3
    assert [s.sorted_members for s in sched.slots] == [(0,), (1,), (2,)]


def test_min_schedule_matches_brute_force():
    for seed in range(6):
        inst = random_instance(seed + 70, 6)
        assert min_schedule(inst).slot_count == brute_force_min_slots(inst)


def test_min_schedule_is_partition_of_feasible_slots():
    for seed in (3, 4):
        inst = random_instance(seed + 80, 9)
        sched = min_schedule(inst)
        seen = [lid for slot in sched.slots for lid in slot.sorted_members]
        assert sorted(seen) == [l.id for l in inst.links]
        for slot in sched.slots:
            assert is_feasible(inst.resolve(slot), inst.params).feasible


def test_psi_lower_bounds_repeated_greedy():
    for seed in range(5):
        inst = random_instance(seed + 100, 9)
        assert min_schedule(inst).slot_count <= schedule_repeated(inst).slot_count


def test_psi_p_strengthening_bound():
    # minimum p-signal schedules can cost at most ceil(2p/beta)^2 more slots
    for seed in range(4):
        inst = random_instance(seed + 110, 7)
        base = min_schedule(inst).slot_count
        for p in (2 * P0.beta, 4 * P0.beta):
            factor = math.ceil(2 * p / P0.beta) ** 2
            assert min_p_signal_schedule(inst, p).slot_count <= factor * base


def test_psi_p_monotone_in_p():
    inst = random_instance(200, 8)
    values = [
        min_p_signal_schedule(inst, p).slot_count for p in (P0.beta, 2 * P0.beta, 4 * P0.beta)
    ]
    assert values == sorted(values)
    assert values[0] == min_schedule(inst).slot_count


def test_min_schedule_size_limit(monkeypatch):
    no_matrix(monkeypatch)
    inst = random_instance(5, oracles.MAX_LINKS_SCHEDULE + 1)
    message = "13 links exceed the schedule oracle limit 12"
    with pytest.raises(SizeLimitError, match=message):
        min_schedule(inst)
    with pytest.raises(SizeLimitError, match=message):
        min_p_signal_schedule(inst, 2.0)


def test_min_p_signal_schedule_rejects_bad_p():
    inst = Instance(params=P0, links=(unit_link(0, 0, 0),))
    with pytest.raises(ValueError):
        min_p_signal_schedule(inst, -1.0)


def test_min_schedule_empty_instance():
    inst = Instance(params=P0, links=())
    assert min_schedule(inst).slot_count == 0


# --- feasible subset enumeration ------------------------------------------------


def test_feasible_subsets_match_brute_force():
    inst = random_instance(300, 6)
    got = {slot.members for slot in feasible_subsets(inst)}
    want = set()
    links = sorted(inst.links, key=lambda l: l.id)
    for size in range(1, len(links) + 1):
        for combo in itertools.combinations(links, size):
            if is_feasible(combo, inst.params).feasible:
                want.add(frozenset(l.id for l in combo))
    assert got == want


def test_feasible_subsets_hereditary():
    inst = random_instance(301, 7)
    feas = {slot.members for slot in feasible_subsets(inst)}
    for members in feas:
        for drop in members:
            smaller = members - {drop}
            if smaller:
                assert smaller in feas


def test_feasible_subsets_size_limit(monkeypatch):
    no_matrix(monkeypatch)
    inst = random_instance(7, oracles.MAX_LINKS_SCHEDULE + 1)
    with pytest.raises(SizeLimitError, match="13 links exceed the schedule oracle limit 12"):
        list(feasible_subsets(inst))
