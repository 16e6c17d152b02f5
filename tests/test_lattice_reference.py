"""The exact oracles' fast paths against the per-mask loops they replaced.

The references below are the loops as they ran before the lattice passes:
the mask table peeled one lowest set bit per mask in Python, and the
partition DP looped over every submask (3^n pairs). The correspondence
check's reference is its definition: the scalar routines on every subset.
The fast paths must agree with them exactly: the same affectance sums bit
for bit, the same feasible masks and the same dp value on every mask; the
correspondence certificate holds only where the reference finds no mismatch.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from capsched import abstract
from capsched.abstract import CorrespondenceReport, Graph, correspondence_check
from capsched.core import (
    DEFAULT_MODEL_PARAMS,
    THRESHOLD_SLACK,
    Instance,
    Link,
    ModelParams,
    affectance_matrix,
    ceiling,
    id_ordered,
)
from capsched.oracles import (
    _feasible_mask_table,
    _min_covers,
    min_schedule,
    peel_lattice,
)
from capsched.topogen import TopologySpec, generate

# --- references -------------------------------------------------------------------


def id_ordered_matrix(inst):
    """The oracles' matrix, the instance kernel gathered in id order.

    It is the instance-order ``affectance_matrix`` reindexed by id, bit for bit.
    """
    mat = id_ordered(inst)[1].matrix()
    order = sorted(range(len(inst.links)), key=lambda i: inst.links[i].id)
    assert mat.tobytes() == affectance_matrix(inst)[np.ix_(order, order)].tobytes()
    return mat


def reference_affectance_table(mat, n):
    """affs[mask, j] by peeling the lowest set bit, one mask at a time."""
    affs = np.zeros((1 << n, n))
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        affs[mask] = affs[mask ^ (1 << low)] + mat[low]
    return affs


def reference_mask_table(mat, n, threshold):
    affs = reference_affectance_table(mat, n)
    feasible = np.zeros(1 << n, dtype=bool)
    bound = ceiling(threshold)
    for mask in range(1, 1 << n):
        members = [j for j in range(n) if mask >> j & 1]
        feasible[mask] = bool((affs[mask][members] <= bound).all())
    return feasible


def reference_dp(feasible, n):
    """Minimum partition count of every mask over the submasks holding its lowest bit."""
    full = (1 << n) - 1
    dp = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        value = n + 1
        sub = mask
        while sub:
            if sub & low and feasible[sub]:
                value = min(value, dp[mask ^ sub] + 1)
            sub = (sub - 1) & mask
        dp[mask] = value
    return dp


def reference_correspondence_check(graph):
    """The check by its definition: the first subset, in ascending mask order, on which the
    scalar routines disagree, or None."""
    matrix = abstract.graph_to_instance(graph)
    for mask in range(1 << graph.n):
        subset = tuple(v for v in range(graph.n) if mask >> v & 1)
        if abstract.abstract_feasible(matrix, subset) != abstract.is_independent_set(graph, subset):
            return subset
    return None


# --- instances ----------------------------------------------------------------------


@st.composite
def small_instance(draw, n_max=10):
    """Random or clustered links with n <= n_max, optional noise and per-link powers."""
    family = draw(st.sampled_from(["random", "clustered"]))
    n = draw(st.integers(1, n_max))
    seed = draw(st.integers(0, 2**32 - 1))
    field = draw(st.sampled_from([20.0, 60.0]))
    noise = draw(st.sampled_from([0.0, 1e-6]))
    alpha = draw(st.sampled_from([2.5, 3.0, 4.0]))
    params = ModelParams(alpha=alpha, beta=draw(st.sampled_from([0.8, 1.5])), noise=noise)
    inst = generate(TopologySpec(family=family, n=n, seed=seed, field_size=field), params)
    if draw(st.booleans()):
        rng = random.Random(seed)
        powers = [float(rng.choice((1, 2, 4, 8))) for _ in inst.links]
        links = tuple(
            Link(link.id, link.sender, link.receiver, power)
            for link, power in zip(inst.links, powers)
        )
        inst = Instance(params=params, links=links)
    return inst


def thresholds(inst, p):
    return (1.0 / inst.params.beta, 1.0 / p)


def fast_affectance_table(mat, n):
    affs = np.zeros((n, 1 << n))
    peel_lattice(affs, mat)
    return affs.T


@given(small_instance(), st.floats(0.3, 4.0))
@settings(max_examples=60, deadline=None)
def test_mask_table_equals_per_mask_peel(inst, p):
    mat = id_ordered_matrix(inst)
    n = len(inst.links)
    assert np.array_equal(fast_affectance_table(mat, n), reference_affectance_table(mat, n))
    for threshold in thresholds(inst, p):
        assert np.array_equal(
            _feasible_mask_table(mat, n, threshold), reference_mask_table(mat, n, threshold)
        )


@given(small_instance(n_max=8), st.data())
@settings(max_examples=40, deadline=None)
def test_mask_table_within_one_ulp_of_the_bound(inst, data):
    # put the ceiling of the threshold on one member's sum, and a few ulps to either side of it
    mat = id_ordered_matrix(inst)
    n = len(inst.links)
    affs = reference_affectance_table(mat, n)
    mask = data.draw(st.integers(1, (1 << n) - 1))
    members = [j for j in range(n) if mask >> j & 1]
    value = affs[mask, data.draw(st.sampled_from(members))]
    assume(value > 0)
    near = [value - THRESHOLD_SLACK * min(value, 1.0)]
    for _ in range(4):
        near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], math.inf)]
    bounds = {ceiling(t) for t in near}
    assert value in bounds and min(bounds) < value < max(bounds)
    for threshold in near:
        assert np.array_equal(
            _feasible_mask_table(mat, n, threshold), reference_mask_table(mat, n, threshold)
        )


@given(small_instance(), st.floats(0.3, 4.0))
@settings(max_examples=40, deadline=None)
def test_layered_cover_equals_submask_dp(inst, p):
    mat = id_ordered_matrix(inst)
    n = len(inst.links)
    for threshold in thresholds(inst, p):
        feasible = _feasible_mask_table(mat, n, threshold)
        assert _min_covers(feasible, n).tolist() == reference_dp(feasible, n)


def test_layered_cover_of_a_family_with_no_slot_pairs():
    # only singletons are feasible: every mask needs one set per member
    n = 6
    feasible = np.array([bin(m).count("1") == 1 for m in range(1 << n)])
    assert _min_covers(feasible, n).tolist() == reference_dp(feasible, n)
    assert _min_covers(feasible, n)[-1] == n


# --- correspondence check -----------------------------------------------------------


@st.composite
def small_graph(draw, n_max=12, n_min=1):
    n = draw(st.integers(n_min, n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from([0.0, 0.15, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph.from_edges(n, [e for e in pairs if rng.random() < density])


@given(small_graph())
@settings(max_examples=60, deadline=None)
def test_correspondence_check_equals_matrix_scan(graph):
    assert reference_correspondence_check(graph) is None
    assert correspondence_check(graph) == CorrespondenceReport(True, 1 << graph.n)
    # the reduction's indexed assignments write the loop's matrix
    assert abstract.graph_to_instance(graph) == encoding(2.0, 1.0 / graph.n)(graph)


def encoding(adjacent, other):
    """A broken reduction: adjacent vertices weigh ``adjacent``, others ``other``."""

    def encode(graph):
        entries = np.full((graph.n, graph.n), other)
        for u, v in graph.edges:
            entries[u, v] = entries[v, u] = adjacent
        np.fill_diagonal(entries, 0.0)
        return abstract.GainMatrix(entries=entries, threshold=1.0)

    return encode


@st.composite
def near_threshold_reduction(draw, n_max=10):
    """A graph and a non-negative matrix whose sums sit on, just under or just over the bound.

    The bound is the ceiling of the threshold, the largest sum a feasible
    set admits. Non-edges weigh 0 or one level near bound/k, so a column of
    about k non-neighbours sums to about the bound; edges weigh about the
    bound in at least one direction, save for a few weak ones. Half the
    graphs are disjoint cliques, whose independent sets are the largest.
    """
    n = draw(st.integers(1, n_max))
    if draw(st.booleans()):
        graph = draw(small_graph(n_max=n, n_min=n))
    else:
        group = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if group[u] == group[v]]
        graph = Graph.from_edges(n, pairs)
    threshold = draw(st.sampled_from([1.0, 1 / 1.2, 0.7]))
    ulp = st.sampled_from([-1, 0, 0, 1])

    def nudged(x, steps):
        for _ in range(abs(steps)):
            x = math.nextafter(x, math.inf if steps > 0 else 0.0)
        return x

    bound = ceiling(threshold)
    light = nudged(bound / draw(st.integers(1, max(n - 1, 1))), draw(ulp))
    # the least entry above the bound, which alone makes a set infeasible
    heavy = st.sampled_from([nudged(bound, 1), 2 * threshold, threshold / 2]).flatmap(
        lambda x: ulp.map(lambda steps: nudged(x, steps))
    )
    entries = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            if u != v and (min(u, v), max(u, v)) not in graph.edges:
                entries[u, v] = draw(st.sampled_from([light, light, light, 0.0]))
    for u, v in graph.edges:
        entries[u, v], entries[v, u] = draw(heavy), draw(st.sampled_from([light, 0.0, 2.0]))
        if draw(st.booleans()):
            entries[u, v], entries[v, u] = entries[v, u], entries[u, v]
    return graph, abstract.GainMatrix(entries=entries, threshold=threshold)


def loop_certificate(graph, matrix):
    """The certificate with a loop over rows: the reference of ``correspondence_check``'s column sums."""
    gains, bound = matrix.entries, ceiling(matrix.threshold)
    adjacent = np.zeros((graph.n, graph.n), dtype=bool)
    for u, v in graph.edges:
        adjacent[u, v] = adjacent[v, u] = True
    incoming = np.zeros(graph.n)
    for w in range(graph.n):
        incoming += np.where(adjacent[w], 0.0, gains[w])
    weak_edges = adjacent & (gains <= bound) & (gains.T <= bound)
    return not weak_edges.any() and bool((incoming <= bound).all())


@given(near_threshold_reduction())
@settings(max_examples=150, deadline=None)
def test_certificate_never_vouches_for_a_mismatch(case):
    # the certificate is sufficient, not necessary: where it holds the
    # reference finds no mismatch; where it fails, it may be a false alarm
    graph, matrix = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abstract, "graph_to_instance", lambda g: matrix)
        want = reference_correspondence_check(graph)
        got = correspondence_check(graph)
    event("certified" if got.ok else f"refused, mismatch={want is not None}")
    assert got.subsets_checked == 1 << graph.n
    assert want is None or not got.ok
    # sums on the bound's either side: one axis-0 sum adds row by row, as the loop does
    assert got.ok == loop_certificate(graph, matrix)


@st.composite
def tight_columns(draw, n_max=12):
    """A graph and a matrix whose non-neighbour entries, added in id order, end on the bound.

    Each vertex's column gets arbitrary non-neighbour entries, the last one
    the largest float that keeps the id-order sum at most the bound; edges
    weigh 2 * threshold both ways. Added in another order, a column often
    lands one ulp above the bound.
    """
    graph = draw(small_graph(n_max=n_max, n_min=2))
    threshold = draw(st.sampled_from([1.0, 1 / 1.2, 0.7]))
    bound, n = ceiling(threshold), graph.n
    entries = np.zeros((n, n))
    for u, v in graph.edges:
        entries[u, v] = entries[v, u] = 2 * threshold
    for v in range(n):
        others = [w for w in range(n) if w != v and (min(w, v), max(w, v)) not in graph.edges]
        partial = 0.0
        for w in others[:-1]:
            entries[w, v] = draw(st.floats(0.0, bound / len(others)))
            partial += entries[w, v]
        if others:
            last = bound - partial
            while partial + last > bound:
                last = math.nextafter(last, 0.0)
            while partial + math.nextafter(last, math.inf) <= bound:
                last = math.nextafter(last, math.inf)
            entries[others[-1], v] = last
    return graph, abstract.GainMatrix(entries=entries, threshold=threshold)


@given(tight_columns())
@settings(max_examples=100, deadline=None)
def test_certificate_adds_each_column_in_id_order(case):
    # the certificate's sums are those of abstract_feasible: in id order
    graph, matrix = case
    assert loop_certificate(graph, matrix)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abstract, "graph_to_instance", lambda g: matrix)
        assert correspondence_check(graph) == CorrespondenceReport(True, 1 << graph.n)
        assert reference_correspondence_check(graph) is None


def weak_pairs(*pairs):
    """The reduction with only the given edges encoded too weakly (0.5)."""
    real = abstract.graph_to_instance

    def encode(graph):
        entries = np.array(real(graph).entries)
        for u, v in pairs:
            entries[u, v] = entries[v, u] = 0.5
        return abstract.GainMatrix(entries=entries, threshold=1.0)

    return encode


LATER_BLOCKS = {
    # a weak edge between a low and a high vertex: mask 8193
    "low-high edge": (
        Graph.from_edges(14, [(0, 13), (2, 5), (5, 9), (1, 13)]),
        weak_pairs((0, 13), (1, 13)),
        (0, 13),
    ),
    # a weak edge between two high vertices: mask 12288
    "high-high edge": (
        Graph.from_edges(14, [(0, 13), (12, 13), (3, 12)]),
        weak_pairs((12, 13)),
        (12, 13),
    ),
    # two cliques below bit 12 leave no independent set of four without both
    # high vertices: the first is {0, 6, 12, 13}, mask 12353
    "high sums": (
        Graph.from_edges(
            14, [(u, v) for u in range(12) for v in range(u + 1, 12) if (u < 6) == (v < 6)]
        ),
        encoding(2.0, 0.45),
        (0, 6, 12, 13),
    ),
}


@pytest.mark.parametrize("case", sorted(LATER_BLOCKS))
def test_broken_encoding_found_in_a_later_block(monkeypatch, case):
    # the reference finds the first mismatch past the low masks; the
    # certificate refuses the encoding without enumerating a subset
    graph, encode, expected = LATER_BLOCKS[case]
    monkeypatch.setattr(abstract, "graph_to_instance", encode)
    assert reference_correspondence_check(graph) == expected
    monkeypatch.setattr(abstract, "abstract_feasible", None)
    assert correspondence_check(graph) == CorrespondenceReport(False, 1 << 14)


# --- memory -------------------------------------------------------------------------


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_oracle_lattices_stay_small():
    # a full 2^20 x 20 float table would take 168 MB; the check holds a few
    # n x n matrices, and the n=12 oracle one 2^12 x 12 table
    rng = random.Random(0)
    pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    graph = Graph.from_edges(20, [e for e in pairs if rng.random() < 0.15])
    inst = generate(TopologySpec(family="clustered", n=12, seed=0), DEFAULT_MODEL_PARAMS)
    assert traced_peak_mb(lambda: correspondence_check(graph)) < 4.0
    assert traced_peak_mb(lambda: min_schedule(inst)) < 4.0
