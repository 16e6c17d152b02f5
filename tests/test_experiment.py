"""Tests for the experiment runner and its writers."""

import hashlib
import json
import multiprocessing
import pickle

import pytest

from capsched import core, experiment
from capsched.core import Schedule, SchedulingError, Slot, partition_report
from capsched.experiment import (
    ALGORITHMS,
    TIMING_COLUMNS,
    AggregateRow,
    ExperimentConfig,
    ExperimentVerificationError,
    ResultRow,
    aggregate_rows,
    config_from_obj,
    run_experiment,
    sweep_points,
    write_aggregates,
    write_results_csv,
)
from capsched.topogen import DEFAULT_MODEL_PARAMS, TopologySpec


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        topology=TopologySpec(family="random", n=6, seed=0, l_max=5.0, field_size=50.0),
        repetitions=2,
        algorithms=("A-repeated", "B-repeated", "first-fit-baseline"),
        base_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def strip_time(row: ResultRow) -> ResultRow:
    return row.replace(wall_time_ms=0.0)


# --- config parsing ---------------------------------------------------------


def test_config_from_obj_full():
    cfg = config_from_obj(
        {
            "topology": {"family": "clustered", "n": 40, "r_cluster": 5.0},
            "params": {"alpha": 3.5, "beta": 1.0},
            "sweep": [["n", [40, 80]], ["alpha", [3.0, 3.5]]],
            "algorithms": ["A-repeated"],
            "repetitions": 3,
            "base_seed": 99,
            "output": "out.csv",
        }
    )
    assert cfg.topology.family == "clustered"
    assert cfg.topology.r_cluster == 5.0
    assert cfg.params.alpha == 3.5
    assert cfg.params.beta == 1.0
    assert cfg.sweep == (("n", (40, 80)), ("alpha", (3.0, 3.5)))
    assert cfg.repetitions == 3
    assert cfg.base_seed == 99
    assert cfg.output == "out.csv"
    assert cfg.timings is None


def test_config_defaults():
    cfg = config_from_obj({"topology": {"family": "random", "n": 5}})
    assert cfg.params == DEFAULT_MODEL_PARAMS
    assert cfg.sweep == ()
    assert cfg.algorithms == ("A-repeated",)
    assert cfg.repetitions == 1
    assert cfg.base_seed == 0


def test_config_sweep_refuses_a_mapping():
    # the sweep has one form, a list of [name, values] entries
    with pytest.raises(ValueError, match=r"^sweep must be a JSON array, got \{'n': \[5, 10\]\}$"):
        config_from_obj({"topology": {"family": "random", "n": 5}, "sweep": {"n": [5, 10]}})


@pytest.mark.parametrize(
    "obj",
    [
        {"topology": {"family": "random", "n": 5}, "bogus": 1},
        {"topology": {"family": "random", "n": 5, "seed": 3}},
        {"topology": {"family": "random", "n": 5}, "params": {"gamma": 2}},
        {"topology": {"family": "random", "n": 5}, "algorithms": ["magic"]},
        {"topology": {"family": "random", "n": 5}, "repetitions": 0},
        {"topology": {"family": "random", "n": 5}, "sweep": [["beta", [1, 2]]]},
        {"topology": {"family": "random", "n": 5}, "sweep": [["n", []]]},
        # a repeated cell would run again and count as one more repetition
        {"topology": {"family": "random", "n": 5}, "algorithms": ["A-repeated", "A-repeated"]},
        {"topology": {"family": "random", "n": 5}, "sweep": [["alpha", [3, 3.0]]]},
        {"topology": {"family": "random", "n": 5}, "sweep": [["n", [5]], ["n", [6]]]},
    ],
)
def test_config_rejects_bad_input(obj):
    with pytest.raises(ValueError):
        config_from_obj(obj)


def test_sweep_points_cross_product():
    cfg = small_config(sweep=(("n", (4, 8)), ("alpha", (3.0, 4.0))))
    points = sweep_points(cfg)
    assert points == [
        {"n": 4, "alpha": 3.0},
        {"n": 4, "alpha": 4.0},
        {"n": 8, "alpha": 3.0},
        {"n": 8, "alpha": 4.0},
    ]


def test_sweep_points_empty():
    assert sweep_points(small_config()) == [{}]


# --- runner -----------------------------------------------------------------


def test_run_experiment_shape_and_seeds():
    cfg = small_config()
    rows, aggregates = run_experiment(cfg)
    assert len(rows) == 2 * 3
    assert all(row.verified for row in rows)
    assert all(row.slot_count >= 1 for row in rows)
    assert all(row.wall_time_ms >= 0.0 for row in rows)
    assert {row.seed for row in rows} == {11, 12}
    assert {row.algorithm for row in rows} == set(cfg.algorithms)
    # one aggregate cell per algorithm here (no sweep)
    assert len(aggregates) == 3
    assert all(agg.reps == 2 for agg in aggregates)


def test_run_experiment_sweep_applies_parameters():
    cfg = small_config(
        sweep=(("n", (4, 6)), ("alpha", (3.0, 4.0))),
        algorithms=("A-repeated",),
        repetitions=1,
    )
    rows, _ = run_experiment(cfg)
    assert len(rows) == 4
    assert {(row.n, row.alpha) for row in rows} == {(4, 3.0), (4, 4.0), (6, 3.0), (6, 4.0)}


def test_run_experiment_deterministic():
    cfg = small_config()
    rows_a, agg_a = run_experiment(cfg)
    rows_b, agg_b = run_experiment(cfg)
    assert [strip_time(r) for r in rows_a] == [strip_time(r) for r in rows_b]
    assert agg_a == agg_b


def test_run_experiment_workers_match_sequential():
    cfg = small_config(repetitions=2, algorithms=("A-repeated", "first-fit-baseline"))
    seq_rows, seq_agg = run_experiment(cfg, workers=1)
    par_rows, par_agg = run_experiment(cfg, workers=2)
    assert [strip_time(r) for r in seq_rows] == [strip_time(r) for r in par_rows]
    assert seq_agg == par_agg


def test_run_experiment_rows_sorted_canonically():
    cfg = small_config(algorithms=("first-fit-baseline", "A-repeated"))
    rows, _ = run_experiment(cfg)
    keys = [(r.algorithm, r.family, r.n, r.alpha, r.l_max, r.r_cluster, r.seed) for r in rows]
    assert keys == sorted(keys)


def test_run_experiment_flags_bad_partition(monkeypatch):
    cfg = small_config(algorithms=("A-repeated",), repetitions=1)

    def drop_one(instance):
        ids = [link.id for link in instance.links]
        return Schedule((Slot(frozenset(ids[:-1])),))

    monkeypatch.setitem(ALGORITHMS, "A-repeated", drop_one)
    with pytest.raises(ExperimentVerificationError) as err:
        run_experiment(cfg)
    assert err.value.instance is not None
    assert err.value.schedule is not None


def test_run_experiment_flags_infeasible_slot(monkeypatch):
    # n=6 links of length up to 5 in a 10 x 10 field: all in one slot is infeasible
    cfg = small_config(
        topology=TopologySpec(family="random", n=6, seed=0, l_max=5.0, field_size=10.0),
        algorithms=("A-repeated",),
        repetitions=1,
    )
    emitted = []

    def one_slot(instance):
        emitted.append(Schedule((Slot(frozenset(link.id for link in instance.links)),)))
        return emitted[-1]

    monkeypatch.setitem(ALGORITHMS, "A-repeated", one_slot)
    with pytest.raises(ExperimentVerificationError, match="slot 0 failed verification") as err:
        run_experiment(cfg)
    assert str(err.value).startswith("A-repeated on seed 11: ")
    assert err.value.schedule == emitted[0]
    assert err.value.instance is not None


def test_run_experiment_wraps_scheduler_errors(monkeypatch):
    cfg = small_config(algorithms=("A-repeated",), repetitions=1)

    def blow_up(instance):
        raise SchedulingError("synthetic failure")

    monkeypatch.setitem(ALGORITHMS, "A-repeated", blow_up)
    with pytest.raises(ExperimentVerificationError) as err:
        run_experiment(cfg)
    assert err.value.schedule is None


def counted_slot_reports(monkeypatch) -> list[int]:
    """Record the slot size of every report of the slot verifier, by either entry to it."""
    calls: list[int] = []
    real = core._slot_report

    def counted(geo, members, params):
        calls.append(len(members))
        return real(geo, members, params)

    monkeypatch.setattr(core, "_slot_report", counted)
    return calls


@pytest.mark.parametrize("algo", ["A-repeated", "B-repeated", "first-fit-baseline"])
def test_every_cell_passes_the_gate_once_per_slot(monkeypatch, algo):
    # the algorithms return unverified schedules; the cell's gate reads each slot once
    cfg = small_config(
        topology=TopologySpec(family="clustered", n=40, seed=0),
        algorithms=(algo,),
        repetitions=2,
    )
    calls = counted_slot_reports(monkeypatch)
    rows, _ = run_experiment(cfg)
    assert len(calls) == sum(row.slot_count for row in rows)
    assert len(calls) > len(rows)


def test_b_cell_failing_round_names_algorithm_and_seed(monkeypatch):
    # the gate refuses a B cell like any other and carries its schedule
    cfg = small_config(algorithms=("B-repeated",), repetitions=1)
    real = core._slot_report

    def refuse(geo, members, params):
        return real(geo, members, params).replace(sinr_feasible=False)

    monkeypatch.setattr(core, "_slot_report", refuse)
    with pytest.raises(ExperimentVerificationError) as err:
        run_experiment(cfg)
    assert str(err.value).startswith("B-repeated on seed 11: slot 0 failed verification ")
    assert err.value.instance is not None
    assert err.value.schedule is not None
    assert partition_report(err.value.instance, err.value.schedule).is_partition


def test_verification_error_survives_pickling():
    cfg = small_config(algorithms=("A-repeated",), repetitions=1)
    rows, _ = run_experiment(cfg)
    # build a real instance to embed
    from capsched.topogen import generate

    inst = generate(cfg.topology.replace(seed=11), cfg.params)
    exc = ExperimentVerificationError("boom", instance=inst, schedule=Schedule(()))
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.instance == inst
    assert clone.schedule == Schedule(())
    assert str(clone) == "boom"
    assert rows  # runner itself unaffected


# --- one instance per (sweep point, repetition) -------------------------------

# results.csv and the aggregate table of this sweep, as recorded when every
# cell generated its own instance
SWEEP = ExperimentConfig(
    topology=TopologySpec(family="clustered", n=20, seed=0, r_cluster=10.0),
    sweep=(("n", (20, 60)), ("alpha", (3.0, 4.0))),
    algorithms=("A-repeated", "B-repeated", "first-fit-baseline"),
    repetitions=2,
    base_seed=5,
)
SWEEP_SHA256 = {
    "results.csv": "228117c1f0c8d2824dbbd9493773f316fe7bbcab8bbeb2564ac18a0a74662c0b",
    "results_aggregate.dat": "789f2a4082d6cb784670c1c678ae7daf284911207386afd04b05080d6767d0f7",
}

# the pool's workers see this process's monkeypatched ALGORITHMS only when forked
FORKED = pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork",
    reason="worker processes are not forked",
)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_outputs_keep_their_bytes(tmp_path, workers):
    rows, aggregates = run_experiment(SWEEP, workers=workers)
    write_results_csv(rows, tmp_path / "results.csv")
    write_aggregates(aggregates, tmp_path / "results_aggregate.dat")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SWEEP_SHA256
    }
    assert digests == SWEEP_SHA256


def test_each_instance_is_generated_once(monkeypatch):
    cfg = small_config(sweep=(("n", (4, 6)), ("alpha", (3.0, 4.0))))
    calls = []
    real = experiment.generate

    def counted(spec, params):
        calls.append((spec, params))
        return real(spec, params)

    monkeypatch.setattr(experiment, "generate", counted)
    rows, _ = run_experiment(cfg)
    assert len(calls) == len(set(calls)) == 4 * cfg.repetitions
    assert len(rows) == len(calls) * len(cfg.algorithms)


def test_each_instance_builds_one_kernel(monkeypatch):
    # every algorithm and the gate read the kernel cached on the instance
    cfg = small_config(sweep=(("n", (4, 6)), ("alpha", (3.0, 4.0))))
    builds = []
    real = core.AffectanceRows._fill

    def counted(self, links, params):
        builds.append(len(links))
        return real(self, links, params)

    monkeypatch.setattr(core.AffectanceRows, "_fill", counted)
    rows, _ = run_experiment(cfg)
    assert sorted(builds) == sorted(row.n for row in rows if row.algorithm == "A-repeated")
    assert len(builds) == 4 * cfg.repetitions


def _gate_fails(instance):
    # a schedule that drops a link, made after A has cached the instance kernel
    schedule = ALGORITHMS["A-repeated"](instance)
    assert "kernel" in vars(instance)
    return Schedule(schedule.slots[1:])


@pytest.mark.parametrize("workers", [pytest.param(1), pytest.param(2, marks=FORKED)])
def test_failed_instance_with_a_cached_kernel_dumps_the_same_bytes(monkeypatch, tmp_path, workers):
    from capsched.cli import main
    from capsched.io import save_instance
    from capsched.topogen import generate

    config = {
        "topology": {"family": "clustered", "n": 30},
        "sweep": [["n", [20, 30]]],
        "algorithms": ["first-fit-baseline"],
        "base_seed": 11,
        "output": str(tmp_path / "results.csv"),
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    monkeypatch.setitem(ALGORITHMS, "first-fit-baseline", _gate_fails)
    assert main(["experiment", "--config", str(tmp_path / "config.json"), "--workers", str(workers)]) == 1
    # the first failing cell is n = 20's
    inst = generate(TopologySpec(family="clustered", n=20, seed=11), DEFAULT_MODEL_PARAMS)
    save_instance(inst, tmp_path / "want.json")
    assert (tmp_path / "failed_instance.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    # the pickle carries the fields, not the cached kernel, and rebuilds the same one
    exc = ExperimentVerificationError("boom", instance=inst, schedule=_gate_fails(inst))
    clone = pickle.loads(pickle.dumps(exc)).instance
    assert clone == inst and "kernel" not in vars(clone)
    assert clone.kernel.data.tobytes() == inst.kernel.data.tobytes()


def _fails_at(name: str, n: int):
    real = ALGORITHMS[name]

    def algo(instance):
        if len(instance) == n:
            raise SchedulingError(f"synthetic failure at n={n}")
        return real(instance)

    return algo


@pytest.mark.parametrize("workers", [pytest.param(1), pytest.param(2, marks=FORKED)])
def test_the_first_failing_cell_in_cell_order_raises(monkeypatch, workers):
    # cell order is (n=4, A), (n=4, first-fit), (n=6, A), (n=6, first-fit);
    # the second and third fail, and the pool starts the n=6 instance first
    cfg = small_config(sweep=(("n", (4, 6)),), algorithms=("A-repeated", "first-fit-baseline"), repetitions=1)
    monkeypatch.setitem(ALGORITHMS, "A-repeated", _fails_at("A-repeated", 6))
    monkeypatch.setitem(ALGORITHMS, "first-fit-baseline", _fails_at("first-fit-baseline", 4))
    with pytest.raises(ExperimentVerificationError) as err:
        run_experiment(cfg, workers=workers)
    assert str(err.value) == "first-fit-baseline failed on seed 11: synthetic failure at n=4"
    assert len(err.value.instance) == 4


# --- aggregation ------------------------------------------------------------


def make_row(algo="A-repeated", seed=0, slots=3) -> ResultRow:
    return ResultRow(
        algorithm=algo,
        family="random",
        n=5,
        alpha=3.0,
        beta=1.2,
        l_max=20.0,
        r_cluster=10.0,
        seed=seed,
        slot_count=slots,
        wall_time_ms=1.5,
        verified=True,
    )


def test_aggregate_mean_and_ci():
    rows = [make_row(seed=0, slots=3), make_row(seed=1, slots=5)]
    (agg,) = aggregate_rows(rows)
    assert agg.mean_slots == pytest.approx(4.0)
    # stdev([3,5]) = sqrt(2); 1.96*sqrt(2)/sqrt(2) = 1.96
    assert agg.ci95 == pytest.approx(1.96)
    assert agg.reps == 2


def test_aggregate_single_rep_has_zero_ci():
    (agg,) = aggregate_rows([make_row()])
    assert agg.ci95 == 0.0
    assert agg.reps == 1


def test_aggregate_groups_by_algorithm():
    rows = [make_row("A-repeated"), make_row("first-fit-baseline", slots=9)]
    aggs = aggregate_rows(rows)
    assert [a.algorithm for a in aggs] == ["A-repeated", "first-fit-baseline"]
    assert [a.mean_slots for a in aggs] == [3.0, 9.0]


# --- writers ----------------------------------------------------------------


def test_results_csv_exact_bytes(tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv([make_row(seed=7, slots=2)], path)
    expected = (
        "algorithm,family,n,alpha,beta,l_max,r_cluster,seed,slot_count,verified\n"
        "A-repeated,random,5,3,1.2,20,10,7,2,true\n"
    )
    assert path.read_bytes().decode("utf-8") == expected


def test_timings_csv_has_wall_time(tmp_path):
    path = tmp_path / "timings.csv"
    write_results_csv([make_row(), make_row(seed=7, slots=2)], path, TIMING_COLUMNS)
    expected = (
        "algorithm,family,n,alpha,beta,l_max,r_cluster,seed,wall_time_ms\n"
        "A-repeated,random,5,3,1.2,20,10,0,1.5\n"
        "A-repeated,random,5,3,1.2,20,10,7,1.5\n"
    )
    assert path.read_bytes().decode("utf-8") == expected


def test_aggregate_file_format(tmp_path):
    path = tmp_path / "agg.dat"
    agg = AggregateRow(
        algorithm="A-repeated",
        family="random",
        n=5,
        alpha=3.0,
        l_max=20.0,
        r_cluster=10.0,
        mean_slots=4.0,
        ci95=1.96,
        reps=2,
    )
    write_aggregates([agg], path)
    text = path.read_text(encoding="utf-8")
    assert text == (
        "# algorithm family n alpha l_max r_cluster mean_slots ci95 reps\n"
        "A-repeated random 5 3 20 10 4 1.96 2\n"
    )


def test_results_csv_rerun_identical(tmp_path):
    cfg = small_config(algorithms=("A-repeated",))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    rows, _ = run_experiment(cfg)
    write_results_csv(rows, first)
    rows2, _ = run_experiment(cfg)
    write_results_csv(rows2, second)
    assert first.read_bytes() == second.read_bytes()
