"""Acceptance suite: one numbered test per acceptance criterion.

Run with -v to get one pass/fail line per criterion. All seeds are fixed,
so everything except the wall-clock measurements is deterministic.
"""

import itertools
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from capsched.abstract import (
    Graph,
    abstract_feasible,
    correspondence_check,
    export_gain_matrix,
)
from capsched.cli import main as cli_main
from capsched.core import (
    ModelParams,
    affectance,
    ceiling,
    is_feasible,
    is_q_dispersed,
    is_q_near,
    p_signal_violation,
    partition_report,
)
from capsched.experiment import ExperimentConfig, run_experiment
from capsched.io import save_instance, save_schedule
from capsched.oracles import (
    max_p_signal_subset,
    min_p_signal_schedule,
    min_schedule,
)
from capsched.schedulers import (
    compute_constants,
    disperse,
    disperse_slot,
    schedule_repeated,
    single_shot_greedy,
    strengthen,
)
from capsched.topogen import DEFAULT_MODEL_PARAMS, TopologySpec, generate
from test_oracles import feasible_subsets

MARGIN = -1e-9


@dataclass
class Corpus:
    instances: list
    schedules: list
    seconds: float


@pytest.fixture(scope="module")
def corpus():
    """500 seeded instances (random + clustered, n in {50,100,200}) and their
    repeated-greedy schedules, with the scheduling time recorded."""
    sizes = (50, 100, 200)
    instances = []
    for family in ("random", "clustered"):
        for i in range(250):
            spec = TopologySpec(family=family, n=sizes[i % 3], seed=1000 + i)
            instances.append(generate(spec, DEFAULT_MODEL_PARAMS))
    start = time.perf_counter()
    schedules = [schedule_repeated(inst) for inst in instances]
    seconds = time.perf_counter() - start
    return Corpus(instances, schedules, seconds)


def mixed_sample(corpus: Corpus, step: int, count: int):
    return list(zip(corpus.instances, corpus.schedules))[::step][:count]


def test_criterion_01_feasibility_suite(corpus):
    start = time.perf_counter()
    for inst, sched in zip(corpus.instances, corpus.schedules):
        assert partition_report(inst, sched).is_partition
        for slot in sched.slots:
            report = is_feasible(inst.resolve(slot), inst.params)
            assert report.sinr_margin >= MARGIN
            assert report.margin >= MARGIN
    elapsed = corpus.seconds + (time.perf_counter() - start)
    assert len(corpus.instances) == 500
    assert elapsed < 60.0


def test_criterion_02_single_shot_dispersion(corpus):
    q = compute_constants(DEFAULT_MODEL_PARAMS).tau - 2.0
    for inst, sched in zip(corpus.instances, corpus.schedules):
        # the first slot of the repeated scheduler is the single-shot output
        first = inst.resolve(sched.slots[0])
        assert is_q_dispersed(first, q, inst.params)


def test_criterion_03_single_shot_vs_signal_oracle():
    alphas = (2.5, 3.0, 4.0)
    betas = (1.0, 1.2, 2.0)
    noises = (0.0, 1e-4)
    for i in range(200):
        params = ModelParams(
            alpha=alphas[i % 3], beta=betas[(i // 3) % 3], noise=noises[i % 2]
        )
        spec = TopologySpec(
            family="random", n=6 + i % 9, seed=3000 + i, field_size=60.0, l_max=6.0
        )
        inst = generate(spec, params)
        constants = compute_constants(params)
        greedy = single_shot_greedy(inst)
        witness = max_p_signal_subset(inst, constants.nu)
        assert len(witness) <= 5 * len(greedy)


def test_criterion_04_strengthen_contract(corpus):
    beta = DEFAULT_MODEL_PARAMS.beta
    for inst, sched in mixed_sample(corpus, 5, 100):
        assert p_signal_violation(inst, sched, beta) is None
        for p_prime in (2 * beta, 4 * beta):
            bound = math.ceil(2 * p_prime / beta) ** 2
            refined = strengthen(inst, sched, beta, p_prime)
            assert p_signal_violation(inst, refined, p_prime) is None
            assert partition_report(inst, refined).is_partition
            assert refined.slot_count <= bound * sched.slot_count


def test_criterion_05_exact_blowup_ratio():
    beta = DEFAULT_MODEL_PARAMS.beta
    for i in range(50):
        spec = TopologySpec(
            family="random", n=4 + i % 5, seed=5000 + i, field_size=25.0, l_max=4.0
        )
        inst = generate(spec, DEFAULT_MODEL_PARAMS)
        base = min_schedule(inst).slot_count
        for p in (2 * beta, 4 * beta):
            strong = min_p_signal_schedule(inst, p).slot_count
            assert strong <= math.ceil(2 * p / beta) ** 2 * base


def test_criterion_06_disperse_contract(corpus):
    alpha = DEFAULT_MODEL_PARAMS.alpha
    for inst, sched in mixed_sample(corpus, 5, 100):
        for q in (2.0, 4.0):
            bound = math.ceil((q + 2.0) ** alpha)
            out = disperse(inst, sched, q)
            assert partition_report(inst, out).is_partition
            for slot in out.slots:
                assert is_q_dispersed(inst.resolve(slot), q, inst.params)
            for slot in sched.slots:
                assert len(disperse_slot(inst, slot, q)) <= bound


def test_criterion_07_near_counts_and_signal_dispersion():
    params = DEFAULT_MODEL_PARAMS
    alpha, beta = params.alpha, params.beta
    total_sets = 0
    for i in range(100):
        spec = TopologySpec(
            family="random", n=5 + i % 5, seed=7000 + i, field_size=30.0, l_max=5.0
        )
        for links in feasible_subsets(generate(spec, params)):
            total_sets += 1
            for q in (1.0, 2.0, 4.0):
                cap = q**alpha / beta
                for v in links:
                    near = sum(
                        1 for w in links if w.id != v.id and is_q_near(w, v, q, params)
                    )
                    assert near < cap
            worst = max(affectance(links, v, params) for v in links)
            for p in (beta, 2 * beta, 4 * beta):
                if worst <= ceiling(1.0 / p):
                    assert is_q_dispersed(links, p ** (1.0 / alpha), params)
    assert total_sets >= 100


def _canonical_form(n, edges):
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        )
        if best is None or mapped < best:
            best = mapped
    return best


def _all_nonisomorphic_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        key = _canonical_form(n, edges)
        if key not in seen:
            seen.add(key)
            out.append(Graph.from_edges(n, edges))
    return out


def test_criterion_08_graph_correspondence():
    counts = []
    for n in range(1, 6):
        graphs = _all_nonisomorphic_graphs(n)
        counts.append(len(graphs))
        for graph in graphs:
            report = correspondence_check(graph)
            assert report.ok, f"n={n} counterexample={report.counterexample}"
    assert counts == [1, 2, 4, 11, 34]
    rng = np.random.default_rng(88)
    for _ in range(200):
        n = int(rng.integers(6, 9))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        report = correspondence_check(Graph.from_edges(n, edges))
        assert report.ok


def test_criterion_09_geometric_abstract_bridge():
    for i in range(50):
        n = 6 + i % 5
        spec = TopologySpec(
            family="random", n=n, seed=8000 + i, field_size=40.0, l_max=5.0
        )
        inst = generate(spec, DEFAULT_MODEL_PARAMS)
        matrix = export_gain_matrix(inst)
        links = sorted(inst.links, key=lambda l: l.id)
        for mask in range(1 << n):
            members = [j for j in range(n) if mask >> j & 1]
            geometric = is_feasible([links[j] for j in members], inst.params).feasible
            assert geometric == abstract_feasible(matrix, members)


def test_criterion_10_theta_robustness(corpus, tmp_path):
    beta = DEFAULT_MODEL_PARAMS.beta
    inv_beta = 1.0 / beta
    sample = mixed_sample(corpus, 17, 30)
    for theta in (1.5, 2.0):
        for inst, sched in sample:
            refined = strengthen(inst, sched, beta, 2 * theta * beta)
            for slot in refined.slots:
                links = inst.resolve(slot)
                for v in links:
                    scaled = theta * affectance(links, v, inst.params)
                    assert scaled <= ceiling(inv_beta)
    # same property exercised through the command-line verifier
    inst, sched = sample[0]
    inst_path = tmp_path / "inst.json"
    refined_path = tmp_path / "refined.json"
    save_instance(inst, inst_path)
    for theta in (1.5, 2.0):
        save_schedule(strengthen(inst, sched, beta, 2 * theta * beta), refined_path)
        code = cli_main(
            ["verify", str(inst_path), str(refined_path), "--theta", str(theta)]
        )
        assert code == 0


def test_criterion_11_cluster_radius_trend():
    config = ExperimentConfig(
        topology=TopologySpec(family="clustered", n=400, seed=0),
        sweep=(("r_cluster", (20.0, 10.0, 5.0)),),
        algorithms=("A-repeated",),
        repetitions=30,
        base_seed=11000,
    )
    _, aggregates = run_experiment(config, workers=os.cpu_count() or 1)
    means = {agg.r_cluster: agg.mean_slots for agg in aggregates}
    assert set(means) == {20.0, 10.0, 5.0}
    assert means[5.0] <= means[20.0] + 1.0


def _run_cli(capsys, *args):
    code = cli_main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def test_criterion_12_command_determinism(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    refined = tmp_path / "refined.json"
    oracle_out = tmp_path / "oracle.json"
    gains = tmp_path / "gains.json"
    graph = tmp_path / "graph.txt"
    graph.write_text("4 3\n0 1\n1 2\n2 3\n", encoding="utf-8")
    results = tmp_path / "results.csv"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "topology": {"family": "random", "n": 8, "l_max": 5.0, "field_size": 50.0},
                "algorithms": ["A-repeated", "first-fit-baseline"],
                "repetitions": 2,
                "base_seed": 5,
                "output": str(results),
            }
        ),
        encoding="utf-8",
    )
    aggregate = tmp_path / "results_aggregate.dat"

    commands = [
        (["gen", "--family", "clustered", "--n", 12, "--seed", 4, "--out", inst], [inst]),
        (["schedule", inst, "--algo", "A", "--out", sched], [sched]),
        (["verify", inst, sched, "--p", 1.2], []),
        (["refine", inst, sched, "--strengthen", 1.2, 2.4, "--out", refined], [refined]),
        (["oracle", inst, "--mode", "subset", "--out", oracle_out], [oracle_out]),
        (["reduce-graph", graph, "--out", gains, "--check"], [gains]),
        (["experiment", "--config", config, "--workers", 1], [results, aggregate]),
    ]
    for argv, artifacts in commands:
        first = _run_cli(capsys, *argv)
        first_bytes = [path.read_bytes() for path in artifacts]
        second = _run_cli(capsys, *argv)
        second_bytes = [path.read_bytes() for path in artifacts]
        assert first == second, f"output drift in {argv[0]}"
        assert first_bytes == second_bytes, f"artifact drift in {argv[0]}"
        assert first[0] == 0
