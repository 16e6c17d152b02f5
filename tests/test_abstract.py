"""Tests for the gain-matrix model and the graph reduction."""

import itertools
import math

import numpy as np
import pytest

from capsched.abstract import (
    CorrespondenceReport,
    GainMatrix,
    Graph,
    abstract_affectance,
    abstract_feasible,
    correspondence_check,
    export_gain_matrix,
    format_edge_list,
    gain_matrix_from_obj,
    gain_matrix_to_obj,
    graph_to_instance,
    is_independent_set,
    load_gain_matrix,
    load_graph,
    parse_edge_list,
    save_gain_matrix,
    save_graph,
)
from capsched.core import (
    Instance,
    Link,
    ModelParams,
    Point,
    affectance_matrix,
    ceiling,
    is_feasible,
)
from capsched.topogen import TopologySpec, generate

P0 = ModelParams(alpha=3.0, beta=1.2, noise=0.0)


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


# --- types ---------------------------------------------------------------------


def test_gain_matrix_validation():
    with pytest.raises(ValueError):
        GainMatrix(entries=np.ones((2, 3)))
    with pytest.raises(ValueError):
        GainMatrix(entries=np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        GainMatrix(entries=np.array([[0.5, 1.0], [1.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(ValueError):
        GainMatrix(entries=np.zeros((2, 2)), threshold=0.0)


def test_gain_matrix_is_readonly_and_comparable():
    m = GainMatrix(entries=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        m.entries[0, 1] = 5.0
    assert m == GainMatrix(entries=np.zeros((2, 2)))
    assert m != GainMatrix(entries=np.zeros((2, 2)), threshold=2.0)


def test_graph_normalizes_and_validates():
    g = Graph(n=4, edges=frozenset({(2, 1)}))
    assert g.edges == frozenset({(1, 2)})
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    with pytest.raises(ValueError):
        Graph(n=3, edges=frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(n=3, edges=frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_is_independent_set():
    g = path3()
    assert is_independent_set(g, [0, 2])
    assert not is_independent_set(g, [0, 1])
    assert is_independent_set(g, [])
    with pytest.raises(IndexError):
        is_independent_set(g, [5])


# --- affectance and feasibility --------------------------------------------------


def test_abstract_affectance_empty_set():
    m = graph_to_instance(triangle())
    assert abstract_affectance(m, [], 0) == 0.0


def test_abstract_affectance_edgeless_value():
    # k members containing v: each of the other k-1 contributes 1/n
    n, k = 5, 4
    m = graph_to_instance(Graph(n=n))
    members = list(range(k))
    assert abstract_affectance(m, members, 0) == (k - 1) * (1.0 / n)


def test_abstract_affectance_neighbor_dominates():
    m = graph_to_instance(path3())
    assert abstract_affectance(m, [0, 1], 1) >= 2.0


def test_abstract_affectance_index_errors():
    m = graph_to_instance(triangle())
    with pytest.raises(IndexError):
        abstract_affectance(m, [0], 9)
    with pytest.raises(IndexError):
        abstract_affectance(m, [9], 0)


def test_abstract_feasible_singleton():
    m = graph_to_instance(triangle())
    assert abstract_feasible(m, [2])


def test_abstract_feasible_adjacent_pair_false():
    m = graph_to_instance(path3())
    assert not abstract_feasible(m, [0, 1])
    assert abstract_feasible(m, [0, 2])


def test_abstract_feasible_full_edgeless_graph():
    m = graph_to_instance(Graph(n=5))
    assert abstract_feasible(m, range(5))  # (n-1)/n < 1


def test_feasible_at_the_threshold_and_not_above_its_ceiling():
    # the rule of the geometric verifier: at most ceiling(threshold)
    for threshold in (1.0, 1 / 1.2, 1e-13, 5.0):
        above = math.nextafter(ceiling(threshold), math.inf)
        for entry, feasible in ((threshold, True), (ceiling(threshold), True), (above, False)):
            m = GainMatrix(entries=np.array([[0.0, entry], [entry, 0.0]]), threshold=threshold)
            assert abstract_feasible(m, [0, 1]) == feasible


# --- reduction -------------------------------------------------------------------


def test_reduction_triangle_entries():
    m = graph_to_instance(triangle())
    off = m.entries[~np.eye(3, dtype=bool)]
    assert (off == 2.0).all()
    assert (np.diag(m.entries) == 0.0).all()
    assert m.threshold == 1.0


def test_reduction_edgeless_entries():
    m = graph_to_instance(Graph(n=5))
    off = m.entries[~np.eye(5, dtype=bool)]
    assert (off == 0.2).all()


def test_reduction_single_vertex():
    m = graph_to_instance(Graph(n=1))
    assert m.entries.shape == (1, 1) and m.entries[0, 0] == 0.0


def test_reduction_matrix_symmetric():
    g = Graph.from_edges(6, [(0, 3), (1, 4), (2, 3), (4, 5)])
    m = graph_to_instance(g)
    assert np.array_equal(m.entries, m.entries.T)


def test_reduction_max_feasible_equals_independence_number():
    for g, alpha_g in ((triangle(), 1), (path3(), 2)):
        m = graph_to_instance(g)
        best = 0
        for size in range(g.n, 0, -1):
            for combo in itertools.combinations(range(g.n), size):
                if abstract_feasible(m, combo):
                    best = size
                    break
            if best:
                break
        assert best == alpha_g


# --- correspondence ---------------------------------------------------------------


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if bits >> k & 1])


def test_correspondence_all_small_graphs():
    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            report = correspondence_check(g)
            assert report.ok and report.counterexample is None
            assert report.subsets_checked == 1 << n


@pytest.mark.parametrize("n", [21, 64, 200])
def test_correspondence_certified_above_the_enumeration_limit(n):
    # the certificate covers every subset at any n, EXHAUSTIVE_LIMIT = 20 or not
    rng = np.random.default_rng(n)
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.1]
    report = correspondence_check(Graph.from_edges(n, pairs))
    assert report == CorrespondenceReport(True, None, 2**n)


def test_correspondence_matches_scalar_bruteforce():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    m = graph_to_instance(g)
    for size in range(0, 5):
        for combo in itertools.combinations(range(4), size):
            assert abstract_feasible(m, combo) == is_independent_set(g, combo)


# --- geometric bridge --------------------------------------------------------------


def random_instance(seed, n):
    rng = np.random.default_rng(seed)
    links = []
    for i in range(n):
        rx, ry = rng.uniform(0, 30, 2)
        angle = rng.uniform(0, 2 * math.pi)
        length = rng.uniform(0.5, 3.0)
        links.append(
            Link(
                id=i,
                sender=Point(rx + length * math.cos(angle), ry + length * math.sin(angle)),
                receiver=Point(rx, ry),
            )
        )
    return Instance(params=P0, links=tuple(links))


def test_export_bridge_agrees_with_geometric_feasibility():
    for seed in range(4):
        inst = random_instance(seed, 7)
        matrix = export_gain_matrix(inst)
        assert matrix.threshold == 1.0 / P0.beta
        links = sorted(inst.links, key=lambda l: l.id)
        for size in range(1, len(links) + 1):
            for combo in itertools.combinations(range(len(links)), size):
                geo = is_feasible([links[i] for i in combo], P0).feasible
                abs_ = abstract_feasible(matrix, combo)
                assert geo == abs_, f"seed {seed}, subset {combo}"


def _shuffled(inst, seed, **params):
    """``inst`` with its links in a random order and ``params`` replaced."""
    order = np.random.default_rng(seed).permutation(len(inst.links))
    model = ModelParams(**{**vars(inst.params), **params})
    return Instance(params=model, links=tuple(inst.links[i] for i in order))


def _export_corpus():
    for seed in range(3):
        inst = generate(TopologySpec(family="clustered", n=40, seed=seed), P0)
        yield f"{seed}", _shuffled(inst, seed)
        yield f"{seed}-noise", _shuffled(inst, seed, noise=1e-6)
        powers = tuple(
            Link(l.id, l.sender, l.receiver, power=1.0 + l.id % 3) for l in inst.links
        )
        yield f"{seed}-powers", _shuffled(Instance(params=P0, links=powers), seed)
    far = Link(id=99, sender=Point(3e151, 0.0), receiver=Point(3e151, 2.0))
    yield "one-far-link", _shuffled(Instance(params=P0, links=inst.links + (far,)), 7)


@pytest.mark.parametrize("name, inst", list(_export_corpus()))
def test_export_entries_are_the_kernel_matrix_in_id_order(name, inst):
    # instance order is not id order here; the entries are the floats of
    # affectance_matrix, reindexed by id, bit for bit
    order = sorted(range(len(inst.links)), key=lambda i: inst.links[i].id)
    assert order != list(range(len(order)))
    with np.errstate(all="ignore"):
        want = affectance_matrix(inst)[np.ix_(order, order)]
        assert export_gain_matrix(inst).entries.tobytes() == want.tobytes()


def test_export_of_a_sender_on_a_receiver_raises_the_scalar_message():
    # link 0's sender sits on link 1's receiver: an infinite entry, which a gain matrix refuses
    links = (
        Link(id=0, sender=Point(0.0, 0.0), receiver=Point(1.0, 0.0)),
        Link(id=1, sender=Point(5.0, 0.0), receiver=Point(0.0, 0.0)),
    )
    with pytest.raises(ValueError, match="^entries must be finite and nonnegative$"):
        export_gain_matrix(Instance(params=P0, links=links))


# --- text formats -------------------------------------------------------------------


def test_edge_list_round_trip(tmp_path):
    g = Graph.from_edges(5, [(0, 4), (1, 2)])
    text = format_edge_list(g)
    assert text == "5 2\n0 4\n1 2\n"
    assert parse_edge_list(text) == g
    path = tmp_path / "g.txt"
    save_graph(g, path)
    assert load_graph(path) == g


def test_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("3")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 x\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n1 0\n")


def test_gain_matrix_file_round_trip(tmp_path):
    m = graph_to_instance(path3())
    path = tmp_path / "m.json"
    save_gain_matrix(m, path)
    again = load_gain_matrix(path)
    assert again == m
    obj = gain_matrix_to_obj(m)
    assert obj["n"] == 3 and len(obj["entries"]) == 9
    with pytest.raises(ValueError):
        gain_matrix_from_obj({**obj, "bonus": 1})
    with pytest.raises(ValueError):
        gain_matrix_from_obj({"n": 2, "threshold": 1.0, "entries": [0.0]})


@pytest.mark.parametrize(
    "doc, message",
    [
        (3, "gain matrix document must be a JSON object"),
        ({"n": True, "entries": [0.0]}, "n must be a JSON integer"),
        ({"n": 1.0, "entries": [0.0]}, "n must be a JSON integer"),
        ({"entries": [0.0]}, "missing key 'n'"),
        ({"n": 1, "threshold": True, "entries": [0.0]}, "threshold must be a JSON number"),
        ({"n": -1, "entries": []}, "n must be nonnegative, got -1"),
    ],
    ids=["a-number", "n-true", "n-float", "n-missing", "threshold-true", "n-negative"],
)
def test_gain_matrix_file_refuses_mistyped_input(doc, message):
    with pytest.raises(ValueError, match=message):
        gain_matrix_from_obj(doc)


def test_correspondence_report_shape():
    report = correspondence_check(triangle())
    assert isinstance(report, CorrespondenceReport)
    assert report == CorrespondenceReport(True, None, 8)
