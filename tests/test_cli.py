"""End-to-end tests for the command-line interface.

Each test drives main() directly and asserts on exit codes, emitted files,
and the deterministic summary lines.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from capsched import core, oracles, schedulers
from capsched.cli import main
from capsched.core import Instance, Link, ModelParams, Point
from capsched.io import load_instance, load_schedule, save_instance, save_schedule
from capsched.core import Schedule, Slot, partition_report
from capsched.experiment import ALGORITHMS
from capsched.schedulers import disperse_slot


def run_cli(capsys, *args) -> tuple[int, str]:
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def gen_instance(capsys, tmp_path, n=20, seed=3, family="random", *extra):
    path = tmp_path / f"inst_{family}_{n}_{seed}.json"
    code, _ = run_cli(
        capsys, "gen", "--family", family, "--n", n, "--seed", seed,
        "--out", path, *extra,
    )
    assert code == 0
    return path


def colocated_instance(tmp_path, count=3, beta=2.0):
    """Identical co-located links; any pair together is infeasible at beta=2."""
    params = ModelParams(alpha=3.0, beta=beta, noise=0.0)
    links = tuple(
        Link(id=i, sender=Point(0.0, 0.0), receiver=Point(1.0, 0.0)) for i in range(count)
    )
    path = tmp_path / "colocated.json"
    save_instance(Instance(params=params, links=links), path)
    return path


def spread_instance(tmp_path, count=4, gap=100.0, alpha=3.0):
    """Far-separated unit links; all of them fit in one slot."""
    params = ModelParams(alpha=alpha, beta=1.2, noise=0.0)
    links = tuple(
        Link(id=i, sender=Point(i * gap, 0.0), receiver=Point(i * gap + 1.0, 0.0))
        for i in range(count)
    )
    path = tmp_path / "spread.json"
    save_instance(Instance(params=params, links=links), path)
    return path


def nonuniform_instance(tmp_path):
    params = ModelParams(alpha=3.0, beta=1.2, noise=0.0)
    links = (
        Link(id=0, sender=Point(0.0, 0.0), receiver=Point(1.0, 0.0), power=1.0),
        Link(id=1, sender=Point(40.0, 0.0), receiver=Point(41.0, 0.0), power=4.0),
        Link(id=2, sender=Point(80.0, 0.0), receiver=Point(81.0, 0.0), power=16.0),
    )
    path = tmp_path / "nonuniform.json"
    save_instance(Instance(params=params, links=links), path)
    return path


# --- gen ---------------------------------------------------------------------


def test_gen_writes_instance(capsys, tmp_path):
    out = tmp_path / "inst.json"
    code, text = run_cli(capsys, "gen", "--family", "random", "--n", 5, "--seed", 7, "--out", out)
    assert code == 0
    assert "n=5" in text
    assert len(load_instance(out)) == 5


def test_gen_deterministic(capsys, tmp_path):
    a = gen_instance(capsys, tmp_path, n=12, seed=5)
    b = tmp_path / "again.json"
    code, _ = run_cli(capsys, "gen", "--family", "random", "--n", 12, "--seed", 5, "--out", b)
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_clustered(capsys, tmp_path):
    out = tmp_path / "clustered.json"
    code, _ = run_cli(
        capsys, "gen", "--family", "clustered", "--n", 20, "--seed", 1,
        "--clusters", 2, "--rc", 10, "--out", out,
    )
    assert code == 0
    inst = load_instance(out)
    assert len(inst) == 20
    assert all(link.length <= 20.0 for link in inst.links)


def test_gen_embeds_model_flags(capsys, tmp_path):
    out = tmp_path / "inst.json"
    code, _ = run_cli(
        capsys, "gen", "--family", "random", "--n", 4, "--out", out,
        "--alpha", 4.0, "--beta", 2.0, "--noise", 1e-6, "--power", 3.0,
    )
    assert code == 0
    params = load_instance(out).params
    assert (params.alpha, params.beta, params.noise, params.default_power) == (4.0, 2.0, 1e-6, 3.0)


def test_gen_bad_family_exit_2(capsys, tmp_path):
    code, _ = run_cli(capsys, "gen", "--family", "hex", "--n", 5)
    assert code == 2


# --- schedule ------------------------------------------------------------------


def test_schedule_algo_a_verified(capsys, tmp_path):
    inst_path = gen_instance(capsys, tmp_path, n=30)
    out = tmp_path / "sched.json"
    code, text = run_cli(capsys, "schedule", inst_path, "--algo", "A", "--out", out)
    assert code == 0
    assert "verified=true" in text
    schedule = load_schedule(out)
    instance = load_instance(inst_path)
    assert sorted(schedule.all_ids()) == sorted(link.id for link in instance.links)


def test_schedule_deterministic(capsys, tmp_path):
    inst_path = gen_instance(capsys, tmp_path, n=25)
    first, second = tmp_path / "s1.json", tmp_path / "s2.json"
    code1, text1 = run_cli(capsys, "schedule", inst_path, "--algo", "A", "--out", first)
    code2, text2 = run_cli(capsys, "schedule", inst_path, "--algo", "A", "--out", second)
    assert code1 == code2 == 0
    assert first.read_bytes() == second.read_bytes()
    assert text1.replace(str(first), "X") == text2.replace(str(second), "X")


@pytest.mark.parametrize("algo", ["B", "firstfit"])
def test_schedule_other_algos(capsys, tmp_path, algo):
    inst_path = gen_instance(capsys, tmp_path, n=15, seed=9)
    out = tmp_path / f"sched_{algo}.json"
    code, text = run_cli(capsys, "schedule", inst_path, "--algo", algo, "--out", out)
    assert code == 0
    assert "verified=true" in text


def test_schedule_singleton(capsys, tmp_path):
    inst_path = gen_instance(capsys, tmp_path, n=1)
    out = tmp_path / "s.json"
    code, text = run_cli(capsys, "schedule", inst_path, "--out", out)
    assert code == 0
    assert "slots=1" in text


def test_schedule_param_override(capsys, tmp_path):
    inst_path = colocated_instance(tmp_path, count=2, beta=2.0)
    out = tmp_path / "s.json"
    # beta=2 forces the pair apart; both slots are singletons
    code, text = run_cli(capsys, "schedule", inst_path, "--out", out)
    assert code == 0
    assert "slots=2" in text


def test_schedule_applies_noise_and_power_overrides(capsys, tmp_path):
    inst_path = spread_instance(tmp_path)  # unit links at noise 0, power 1, beta 1.2
    out = tmp_path / "s.json"
    # at noise 1 a unit link at power 1 receives 1 <= beta * noise: it fails even alone
    code, text = run_cli(capsys, "schedule", inst_path, "--noise", 1.0, "--out", out)
    assert code == 2
    assert text.startswith("error: link 0 is infeasible even alone: received power 1 <= beta*noise")
    code, text = run_cli(capsys, "schedule", inst_path, "--noise", 1.0, "--power", 2.0, "--out", out)
    assert code == 0
    assert "verified=true" in text


def test_schedule_nonuniform_auto_regimes(capsys, tmp_path):
    inst_path = nonuniform_instance(tmp_path)
    out = tmp_path / "s.json"
    code, text = run_cli(capsys, "schedule", inst_path, "--algo", "A", "--out", out)
    assert code == 0
    assert "verified=true" in text
    schedule = load_schedule(out)
    assert sorted(schedule.all_ids()) == [0, 1, 2]


def test_schedule_a_is_the_sweeps_a_repeated(capsys, tmp_path):
    # the harness's A-repeated is the function schedule --algo A runs, per-link powers too
    inst_path = nonuniform_instance(tmp_path)
    out = tmp_path / "s.json"
    assert run_cli(capsys, "schedule", inst_path, "--algo", "A", "--out", out)[0] == 0
    assert ALGORITHMS["A-repeated"](load_instance(inst_path)) == load_schedule(out)
    assert ALGORITHMS["A-repeated"] is schedulers.schedule_nonuniform


@pytest.mark.parametrize(
    "algo, name, flags, passed",
    [
        ("A", "A-repeated", (), (None, None)),
        ("A", "A-repeated", ("--power-mode", "power-regimes", "--regime-base", 3), ("power-regimes", 3.0)),
        ("B", "B-repeated", (), ()),
        ("firstfit", "first-fit-baseline", (), ()),
    ],
)
def test_schedule_looks_every_algo_up_in_algorithms(capsys, tmp_path, monkeypatch, algo, name, flags, passed):
    # only A takes the power flags
    real, calls = ALGORITHMS[name], []

    def recorded(instance, *args):
        calls.append(args)
        return real(instance, *args)

    monkeypatch.setitem(ALGORITHMS, name, recorded)
    inst_path = spread_instance(tmp_path)
    code, _ = run_cli(capsys, "schedule", inst_path, "--algo", algo, *flags, "--out", tmp_path / "s.json")
    assert code == 0 and calls == [passed]


@pytest.mark.parametrize("alpha", [400.0, 1100.0])
@pytest.mark.parametrize("algo", ["A", "B"])
def test_schedule_at_large_alpha(capsys, tmp_path, alpha, algo):
    # (1.5 tau)^alpha and (tau - 2)^alpha lie past the float range; the constants do not
    inst_path = spread_instance(tmp_path, count=5, alpha=alpha)
    out = tmp_path / "s.json"
    code, text = run_cli(capsys, "schedule", inst_path, "--algo", algo, "--out", out)
    assert code == 0, text
    assert load_schedule(out) == Schedule((Slot(frozenset(range(5))),))
    code, text = run_cli(capsys, "verify", inst_path, out)
    assert code == 0 and text.endswith("verified=true\n")


def test_schedule_a_at_alpha_30_separates_a_pair_above_c(capsys, tmp_path):
    # the links affect each other by (1/2.71)^30 = 1.03e-13, about 1e5 times c = 4^-30
    links = (
        Link(id=0, sender=Point(0.0, 0.0), receiver=Point(1.0, 0.0)),
        Link(id=1, sender=Point(3.71, 0.0), receiver=Point(2.71, 0.0)),
    )
    inst_path, out = tmp_path / "steep.json", tmp_path / "s.json"
    save_instance(Instance(params=ModelParams(alpha=30.0, beta=1.2), links=links), inst_path)
    assert run_cli(capsys, "schedule", inst_path, "--algo", "A", "--out", out)[0] == 0
    assert load_schedule(out).slot_count == 2


def test_schedule_nonuniform_b_rejected(capsys, tmp_path):
    # the refusal names the scheduler and the power modes that do take per-link powers
    inst_path = nonuniform_instance(tmp_path)
    hint = "per-link powers are scheduled by --algo A with --power-mode scaled-threshold or power-regimes"
    for flags, selector in (
        (("--algo", "B"), "the guarded heuristic B"),
        (("--power-mode", "uniform"), "the greedy selector A"),
    ):
        code, text = run_cli(capsys, "schedule", inst_path, *flags, "--out", tmp_path / "s.json")
        assert code == 2
        assert text == f"error: {selector} requires uniform power across the links; {hint}\n"
        assert not (tmp_path / "s.json").exists()


def test_schedule_missing_file_exit_2(capsys, tmp_path):
    code, text = run_cli(capsys, "schedule", tmp_path / "missing.json")
    assert code == 2
    assert "error:" in text


# --- verify ---------------------------------------------------------------------


def test_verify_valid_schedule(capsys, tmp_path):
    inst_path = gen_instance(capsys, tmp_path, n=20)
    sched_path = tmp_path / "s.json"
    run_cli(capsys, "schedule", inst_path, "--out", sched_path)
    code, text = run_cli(capsys, "verify", inst_path, sched_path)
    assert code == 0
    assert "partition: ok" in text
    assert "verified=true" in text


def test_verify_names_bad_slot(capsys, tmp_path):
    inst_path = colocated_instance(tmp_path, count=2, beta=2.0)
    sched_path = tmp_path / "bad.json"
    save_schedule(Schedule((Slot(frozenset({0, 1})),)), sched_path)
    code, text = run_cli(capsys, "verify", inst_path, sched_path)
    assert code == 1
    assert "slot 0" in text and "FAIL" in text
    assert "verified=false" in text


def test_verify_dangling_ids_exit_2(capsys, tmp_path):
    inst_path = spread_instance(tmp_path, count=2)
    sched_path = tmp_path / "dangling.json"
    save_schedule(Schedule((Slot(frozenset({0, 99})),)), sched_path)
    code, text = run_cli(capsys, "verify", inst_path, sched_path)
    assert code == 2
    assert "99" in text


def test_verify_non_integer_ids_exit_2(capsys, tmp_path):
    # 0.9 and "1" once read as ids 0 and 1, and the schedule verified
    inst_path = spread_instance(tmp_path, count=3)
    sched_path = tmp_path / "lenient.json"
    sched_path.write_text(json.dumps({"slots": [[0.9, "1"], [2]]}))
    code, text = run_cli(capsys, "verify", inst_path, sched_path)
    assert code == 2
    assert "verified=true" not in text


def test_verify_wrongly_typed_slot_exit_2(capsys, tmp_path):
    # {"slots": [5]} once ended in a TypeError traceback and exit 1
    inst_path = spread_instance(tmp_path, count=2)
    sched_path = tmp_path / "typed.json"
    sched_path.write_text(json.dumps({"slots": [5]}))
    code, text = run_cli(capsys, "verify", inst_path, sched_path)
    assert code == 2
    assert "error:" in text


def test_deeply_nested_json_exit_2(capsys, tmp_path):
    # 100 000 nested arrays once ended in a RecursionError traceback and exit 1
    deep = "[" * 100_000 + "]" * 100_000
    inst_path = spread_instance(tmp_path, count=2)
    sched_path = tmp_path / "deep_schedule.json"
    sched_path.write_text('{"slots": ' + deep + "}")
    code, text = run_cli(capsys, "verify", inst_path, sched_path)
    assert code == 2 and "nested too deeply" in text
    deep_params = tmp_path / "deep_params.json"
    deep_params.write_text('{"params": {"alpha": 3.0, "beta": ' + deep + '}, "links": []}')
    code, text = run_cli(capsys, "schedule", deep_params, "--out", tmp_path / "s.json")
    assert code == 2 and "nested too deeply" in text
    assert not (tmp_path / "s.json").exists()


def test_a_duplicate_json_key_exits_2(capsys, tmp_path):
    # a sweep naming one axis twice once ran only the last and exited 0
    config = tmp_path / "config.json"
    config.write_text(
        '{"topology": {"family": "random", "n": 6}, "algorithms": ["A-repeated"], '
        '"sweep": {"n": [6], "n": [8]}, "output": ' + json.dumps(str(tmp_path / "res.csv")) + "}"
    )
    code, text = run_cli(capsys, "experiment", "--config", config, "--workers", 1)
    assert (code, text) == (2, "error: duplicate key in a JSON object: 'n'\n")
    assert not (tmp_path / "res.csv").exists()
    # a long key is shown cut short
    inst_path = spread_instance(tmp_path, count=2)
    key = "k" * 10_000
    sched_path = tmp_path / "dup.json"
    sched_path.write_text(f'{{"slots": [[0, 1]], "{key}": 1, "{key}": 2}}')
    code, text = run_cli(capsys, "verify", inst_path, sched_path)
    assert code == 2 and text.startswith("error: duplicate key") and len(text) < 120


def test_wrongly_typed_values_give_a_short_error(capsys, tmp_path):
    # a 980-deep slot and a 100 000-character coordinate were echoed in full
    inst_path = spread_instance(tmp_path, count=2)
    sched_path = tmp_path / "nested.json"
    sched_path.write_text('{"slots": [' + "[" * 980 + "]" * 980 + "]}")
    code, text = run_cli(capsys, "verify", inst_path, sched_path)
    assert code == 2
    assert text.startswith("error:") and text.count("\n") == 1 and len(text) < 200
    path = tmp_path / "inst.json"
    link = {"id": 0, "sx": "x" * 100_000, "sy": 0.0, "rx": 1.0, "ry": 0.0}
    path.write_text(json.dumps({"params": {"alpha": 3.0, "beta": 1.2}, "links": [link]}))
    code, text = run_cli(capsys, "schedule", path, "--out", tmp_path / "s.json")
    assert code == 2
    assert text.startswith("error:") and text.count("\n") == 1 and len(text) < 200
    assert "sx must be a JSON number" in text


def test_schedule_null_coordinate_exit_2(capsys, tmp_path):
    path = tmp_path / "inst.json"
    link = {"id": 0, "sx": None, "sy": 0.0, "rx": 1.0, "ry": 0.0}
    path.write_text(json.dumps({"params": {"alpha": 3.0, "beta": 1.2}, "links": [link]}))
    code, text = run_cli(capsys, "schedule", path, "--out", tmp_path / "s.json")
    assert code == 2
    assert "error:" in text


@pytest.mark.parametrize("bad_id", [1.7, True])
def test_schedule_non_integer_instance_id_exit_2(capsys, tmp_path, bad_id):
    path = tmp_path / "inst.json"
    link = {"id": bad_id, "sx": 0.0, "sy": 0.0, "rx": 1.0, "ry": 0.0}
    path.write_text(json.dumps({"params": {"alpha": 3.0, "beta": 1.2}, "links": [link]}))
    code, text = run_cli(capsys, "schedule", path, "--out", tmp_path / "s.json")
    assert code == 2
    assert "error:" in text


def test_schedule_overflow_exit_2(capsys, tmp_path):
    # d^alpha = 1e310 overflows a double while the instance is validated
    path = tmp_path / "huge.json"
    link = {"id": 0, "sx": 1e31, "sy": 0.0, "rx": 2e31, "ry": 0.0}
    path.write_text(json.dumps({"params": {"alpha": 10.0, "beta": 1.2}, "links": [link]}))
    code, text = run_cli(capsys, "schedule", path, "--out", tmp_path / "s.json")
    assert code == 2
    assert "error:" in text


def test_schedule_far_apart_links_verify(capsys, tmp_path):
    # d^alpha between the two links overflows a double: received power 0
    path = tmp_path / "far.json"
    links = [
        {"id": 0, "sx": 0.0, "sy": 0.0, "rx": 1.0, "ry": 0.0},
        {"id": 1, "sx": 1e31, "sy": 0.0, "rx": 1e31, "ry": 1.0},
    ]
    path.write_text(json.dumps({"params": {"alpha": 10.0, "beta": 1.2}, "links": links}))
    out = tmp_path / "s.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "schedule", path, "--out", out)[0] == 0
        assert run_cli(capsys, "verify", path, out)[0] == 0
    assert load_schedule(out) == Schedule((Slot(frozenset({0, 1})),))


def test_schedule_and_verify_an_overflowing_sinr_without_warnings(capsys, tmp_path):
    # links under 1 at alpha = 100: interference is subnormal, and the SINR is inf
    inst_path = gen_instance(capsys, tmp_path, 50, 0, "random", "--lmax", 0.9, "--alpha", 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for algo in ("A", "B"):
            out = tmp_path / f"{algo}.json"
            assert run_cli(capsys, "schedule", inst_path, "--algo", algo, "--out", out)[0] == 0
            code, text = run_cli(capsys, "verify", inst_path, out)
            assert code == 0 and text.endswith("verified=true\n")


def test_coincident_points_are_checked_per_slot(capsys, tmp_path):
    # link 0's sender sits on link 1's receiver: infinite interference on link 1,
    # so the instance is schedulable only with the two in different slots; the
    # scheduler splits them, and verify fails the joint slot
    params = ModelParams(alpha=3.0, beta=1.2)
    links = (
        Link(id=0, sender=Point(0.0, 0.0), receiver=Point(1.0, 0.0)),
        Link(id=1, sender=Point(5.0, 0.0), receiver=Point(0.0, 0.0)),
    )
    inst_path, apart, together = tmp_path / "i.json", tmp_path / "a.json", tmp_path / "t.json"
    save_instance(Instance(params=params, links=links), inst_path)
    save_schedule(Schedule((Slot({1}), Slot({0}))), apart)
    save_schedule(Schedule((Slot({0, 1}),)), together)
    code, text = run_cli(capsys, "verify", inst_path, apart)
    assert code == 0 and text.endswith("verified=true\n")
    code, text = run_cli(capsys, "verify", inst_path, together)
    assert code == 1
    assert text == "partition: ok\nslot 0: size=2 margin=-inf sinr_margin=-1 FAIL\nverified=false\n"
    out = tmp_path / "s.json"
    assert run_cli(capsys, "schedule", inst_path, "--out", out)[0] == 0
    assert load_schedule(out) == Schedule((Slot({0}), Slot({1})))


def sender_on_receiver_instance(tmp_path):
    """Link 0's sender sits on link 1's receiver; link 2 is far from both."""
    params = ModelParams(alpha=3.0, beta=1.2)
    ends = [((0.0, 0.0), (1.0, 0.0)), ((5.0, 0.0), (0.0, 0.0)), ((50.0, 0.0), (51.0, 0.0))]
    links = tuple(Link(id=i, sender=Point(*s), receiver=Point(*r)) for i, (s, r) in enumerate(ends))
    path = tmp_path / "singular.json"
    save_instance(Instance(params=params, links=links), path)
    return path


@pytest.mark.parametrize("algo", ["A", "B", "firstfit"])
def test_schedule_splits_a_sender_on_a_receiver(capsys, tmp_path, algo):
    inst_path, out = sender_on_receiver_instance(tmp_path), tmp_path / "s.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "schedule", inst_path, "--algo", algo, "--out", out)[0] == 0
        code, text = run_cli(capsys, "verify", inst_path, out)
    assert load_schedule(out) == Schedule((Slot({0, 2}), Slot({1})))
    assert code == 0 and text.endswith("verified=true\n")


def test_a_slot_holding_a_sender_on_a_receiver_fails(capsys, tmp_path):
    # infinite interference: verify fails the slot, the refiners' preconditions
    # refuse it, and the exact oracles keep the pair apart
    inst_path, joint, out = sender_on_receiver_instance(tmp_path), tmp_path / "j.json", tmp_path / "o.json"
    save_schedule(Schedule((Slot({0, 1, 2}),)), joint)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(capsys, "verify", inst_path, joint)
        assert code == 1
        assert text == "partition: ok\nslot 0: size=3 margin=-inf sinr_margin=-1 FAIL\nverified=false\n"
        code, text = run_cli(capsys, "refine", inst_path, joint, "--disperse", 2, "--out", out)
        assert (code, text) == (1, "error: input slot 0 is not SINR-feasible (worst link 1)\n")
        code, text = run_cli(capsys, "refine", inst_path, joint, "--strengthen", 1.2, 2.4, "--out", out)
        assert code == 1 and text.startswith("error: input schedule is not a 1.2-signal schedule: link 1 ")
        assert not out.exists()
        assert run_cli(capsys, "oracle", inst_path, "--mode", "schedule", "--out", out)[0] == 0
        assert json.loads(out.read_text(encoding="utf-8"))["slot_count"] == 2
        assert run_cli(capsys, "oracle", inst_path, "--mode", "subset", "--out", out)[0] == 0
        assert json.loads(out.read_text(encoding="utf-8"))["members"] == [0, 2]


@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_a_missing_model_parameter_is_named(capsys, tmp_path, key):
    params = {"alpha": 3.0, "beta": 1.2}
    del params[key]
    inst_path, sched_path = tmp_path / "i.json", tmp_path / "s.json"
    inst_path.write_text(json.dumps({"params": params, "links": []}))
    save_schedule(Schedule(()), sched_path)
    assert run_cli(capsys, "verify", inst_path, sched_path) == (2, f"error: params missing key '{key}'\n")


def test_verify_missing_link_exit_1(capsys, tmp_path):
    inst_path = spread_instance(tmp_path, count=3)
    sched_path = tmp_path / "partial.json"
    save_schedule(Schedule((Slot(frozenset({0, 1})),)), sched_path)
    code, text = run_cli(capsys, "verify", inst_path, sched_path)
    assert code == 1
    assert "partition: FAIL" in text


def test_verify_q_flag(capsys, tmp_path):
    inst_path = spread_instance(tmp_path)
    sched_path = tmp_path / "s.json"
    run_cli(capsys, "schedule", inst_path, "--out", sched_path)
    code, text = run_cli(capsys, "verify", inst_path, sched_path, "--q", 1.0)
    assert code == 0
    assert "dispersed(q=1): ok" in text


def test_verify_q_past_the_float_range_is_ok(capsys, tmp_path):
    # q^-alpha = 1e600 lies past the float range: no pair is q-near
    inst_path = gen_instance(capsys, tmp_path, 30, 1)
    sched_path = tmp_path / "s.json"
    assert run_cli(capsys, "schedule", inst_path, "--out", sched_path)[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(capsys, "verify", inst_path, sched_path, "--q", 1e-200)
    assert code == 0 and text.endswith("dispersed(q=1e-200): ok\nverified=true\n")


@pytest.mark.parametrize("q", [1e-200, 2.0])
def test_verify_q_finds_a_sender_on_a_receiver_at_any_level(capsys, tmp_path, q):
    # d(s_0, r_1) = 0 is q-near at every q > 0, q^-alpha past the float range too
    inst_path, joint = sender_on_receiver_instance(tmp_path), tmp_path / "j.json"
    save_schedule(Schedule((Slot({0, 1, 2}),)), joint)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(capsys, "verify", inst_path, joint, "--q", q)
    assert code == 1 and text.endswith(f"dispersed(q={q:g}): FAIL\nverified=false\n")


def test_p_signal_levels_below_the_slack(capsys, tmp_path):
    # unit links 12 600 apart affect each other by 5.0e-13 = 5/p at p = 1e13
    inst_path = spread_instance(tmp_path, count=2, gap=12600.0)
    sched_path, out = tmp_path / "s.json", tmp_path / "out.json"
    assert run_cli(capsys, "schedule", inst_path, "--out", sched_path)[0] == 0
    assert load_schedule(sched_path).slot_count == 1
    code, text = run_cli(capsys, "verify", inst_path, sched_path, "--p", 1e13)
    assert code == 1 and text.endswith("p-signal(p=1e+13): FAIL\nverified=false\n")
    assert run_cli(capsys, "refine", inst_path, sched_path, "--strengthen", 1.2, 1e13, "--out", out)[0] == 0
    assert load_schedule(out).slot_count == 2
    assert run_cli(capsys, "oracle", inst_path, "--mode", "psignal", "--p", 1e13, "--out", out)[0] == 0
    assert json.loads(out.read_text(encoding="utf-8"))["size"] == 1


def test_verify_q_nonuniform_exit_2(capsys, tmp_path):
    # dispersion is undefined across mixed powers within one slot
    inst_path = nonuniform_instance(tmp_path)
    sched_path = tmp_path / "s.json"
    save_schedule(Schedule((Slot({0, 1}), Slot({2}))), sched_path)
    code, _ = run_cli(capsys, "verify", inst_path, sched_path, "--q", 1.0)
    assert code == 2


@pytest.mark.parametrize(
    "flag, value", [("--p", -1), ("--p", 0), ("--q", -1), ("--q", "nan"), ("--theta", 0)]
)
def test_verify_rejects_non_positive_levels(capsys, tmp_path, flag, value):
    # rejected up front: no partition or slot line is printed first
    inst_path = spread_instance(tmp_path)
    sched_path = tmp_path / "s.json"
    save_schedule(Schedule((Slot(frozenset({0, 1, 2, 3})),)), sched_path)
    code = main(["verify", str(inst_path), str(sched_path), flag, str(value)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be positive, got {float(value)}\n"


@pytest.mark.parametrize("flag", ["--p", "--q", "--theta"])
@pytest.mark.parametrize("value, wanted", [("inf", "finite"), ("-inf", "positive")])
def test_verify_rejects_non_finite_levels(capsys, tmp_path, flag, value, wanted):
    # rejected before any line: a slot line would print theta_margin=-inf on
    # the three-link slot and theta_margin=nan (inf * 0) on the one-link slot
    inst_path = spread_instance(tmp_path)
    sched_path = tmp_path / "s.json"
    save_schedule(Schedule((Slot({0, 1, 2}), Slot({3}))), sched_path)
    code = main(["verify", str(inst_path), str(sched_path), f"{flag}={value}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {flag} must be {wanted}, got {float(value)}\n"


def test_verify_q_on_a_mixed_power_slot_prints_no_line(capsys, tmp_path):
    # first-fit packs links of powers 1 and 2 into shared slots: a valid
    # schedule, on which dispersion is undefined
    inst_path = gen_instance(capsys, tmp_path, n=30, seed=0)
    doc = json.loads(inst_path.read_text())
    for i, link in enumerate(doc["links"]):
        link["power"] = 1.0 + i % 2
    inst_path.write_text(json.dumps(doc))
    sched_path = tmp_path / "ff.json"
    assert run_cli(capsys, "schedule", inst_path, "--algo", "firstfit", "--out", sched_path)[0] == 0
    code, text = run_cli(capsys, "verify", inst_path, sched_path)
    assert code == 0 and text.startswith("partition: ok\n")
    code = main(["verify", str(inst_path), str(sched_path), "--q", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: dispersion predicates require uniform power across the set\n"


def test_verify_theta_after_strengthen(capsys, tmp_path):
    inst_path = gen_instance(capsys, tmp_path, n=20, seed=4)
    sched_path = tmp_path / "s.json"
    refined_path = tmp_path / "r.json"
    run_cli(capsys, "schedule", inst_path, "--out", sched_path)
    code, _ = run_cli(
        capsys, "refine", inst_path, sched_path, "--strengthen", 1.2, 2.4,
        "--out", refined_path,
    )
    assert code == 0
    code, _ = run_cli(capsys, "verify", inst_path, refined_path, "--theta", 2.0)
    assert code == 0
    code, _ = run_cli(capsys, "verify", inst_path, refined_path, "--p", 2.4)
    assert code == 0


def test_verify_theta_fails_unstrengthened(capsys, tmp_path):
    # parallel unit links separated so each affectance is exactly 0.5:
    # feasible as-is (0.5 <= 1/1.2) but not under a 2x affectance blow-up
    import math

    gap = math.sqrt(2.0 ** (2.0 / 3.0) - 1.0)
    params = ModelParams(alpha=3.0, beta=1.2, noise=0.0)
    links = (
        Link(id=0, sender=Point(1.0, 0.0), receiver=Point(0.0, 0.0)),
        Link(id=1, sender=Point(1.0, gap), receiver=Point(0.0, gap)),
    )
    inst_path = tmp_path / "half.json"
    save_instance(Instance(params=params, links=links), inst_path)
    sched_path = tmp_path / "together.json"
    save_schedule(Schedule((Slot(frozenset({0, 1})),)), sched_path)
    code, _ = run_cli(capsys, "verify", inst_path, sched_path)
    assert code == 0
    code, text = run_cli(capsys, "verify", inst_path, sched_path, "--theta", 2.0)
    assert code == 1
    assert "FAIL" in text


def test_verify_runs_the_slot_verifier_once_per_slot(capsys, tmp_path, monkeypatch):
    # --p, --theta and --q all read the one report of each slot
    inst_path = gen_instance(capsys, tmp_path, n=40, seed=5, family="clustered")
    sched_path = tmp_path / "ff.json"
    assert run_cli(capsys, "schedule", inst_path, "--algo", "firstfit", "--out", sched_path)[0] == 0
    calls = counted_slot_reports(monkeypatch)
    code, text = run_cli(
        capsys, "verify", inst_path, sched_path, "--p", 1.2, "--theta", 1.0, "--q", 1.0
    )
    assert code in (0, 1)
    assert "p-signal(p=1.2)" in text and "dispersed(q=1)" in text
    assert len(calls) == load_schedule(sched_path).slot_count


def counted_slot_reports(monkeypatch) -> list[int]:
    """Record the slot size of every report of the slot verifier."""
    calls: list[int] = []
    real = core._slot_report

    def counted(geo, members, params):
        calls.append(len(members))
        return real(geo, members, params)

    monkeypatch.setattr(core, "_slot_report", counted)
    return calls


GATED_COMMANDS = {
    "A": ("schedule", "{inst}", "--algo", "A"),
    "A-per-link-power": ("schedule", "{power}", "--algo", "A"),
    "B": ("schedule", "{inst}", "--algo", "B"),
    "firstfit": ("schedule", "{inst}", "--algo", "firstfit"),
    "oracle-schedule": ("oracle", "{small}", "--mode", "schedule"),
}


@pytest.mark.parametrize("argv", list(GATED_COMMANDS.values()), ids=list(GATED_COMMANDS))
def test_every_schedule_passes_the_gate_once_per_slot(capsys, tmp_path, monkeypatch, argv):
    # the schedulers and the oracle return unverified schedules; the command's
    # one emission gate reads each emitted slot once
    inst = gen_instance(capsys, tmp_path, n=40, seed=5, family="clustered")
    doc = json.loads(inst.read_text())
    for i, link in enumerate(doc["links"]):
        link["power"] = 2.0 ** (i % 3)
    power = tmp_path / "power.json"
    power.write_text(json.dumps(doc))
    small = gen_instance(capsys, tmp_path, n=10, seed=0, family="clustered")
    paths = {"inst": inst, "power": power, "small": small}
    out = tmp_path / "out.json"
    calls = counted_slot_reports(monkeypatch)
    code, _ = run_cli(capsys, *(a.format(**paths) for a in argv), "--out", out)
    assert code == 0
    assert len(calls) == len(json.loads(out.read_text())["slots"]) > 1


def counted_kernel_builds(monkeypatch) -> list[int]:
    """Record the link count of every kernel built from links."""
    calls: list[int] = []
    real = core.AffectanceRows._fill

    def counted(self, links, params):
        calls.append(len(links))
        return real(self, links, params)

    monkeypatch.setattr(core.AffectanceRows, "_fill", counted)
    return calls


def test_each_command_builds_one_kernel(capsys, tmp_path, monkeypatch):
    # the instance kernel is built once and read by the schedulers, the gate,
    # the refiners, the verifier and the oracle
    inst = gen_instance(capsys, tmp_path, n=60, seed=2, family="clustered")
    small = gen_instance(capsys, tmp_path, n=12, seed=0, family="clustered")
    ff = tmp_path / "ff.json"
    builds = counted_kernel_builds(monkeypatch)
    commands = [
        ("schedule", inst, "--algo", "A", "--out", tmp_path / "a.json"),
        ("schedule", inst, "--algo", "B", "--out", tmp_path / "b.json"),
        ("schedule", inst, "--algo", "firstfit", "--out", ff),
        ("refine", inst, ff, "--strengthen", 1.2, 2.4, "--out", tmp_path / "strong.json"),
        ("refine", inst, ff, "--disperse", 2, "--out", tmp_path / "spread.json"),
        ("verify", inst, ff, "--p", 1.2, "--theta", 1.0, "--q", 2),
    ]
    for argv in commands:
        builds.clear()
        assert run_cli(capsys, *argv)[0] in (0, 1)
        assert builds == [60], argv
    assert load_schedule(ff).slot_count > 1
    builds.clear()
    assert run_cli(capsys, "oracle", small, "--mode", "schedule", "--out", tmp_path / "o.json")[0] == 0
    assert builds == [12]


def test_schedule_b_failing_round_exit_1(capsys, tmp_path):
    # 800 short links on a ring of radius 11.5 around link 0's receiver clear
    # B's separation test and put affectance 800/11.5^3 = 0.53 on link 0:
    # under the 2/3 admission cap, over 1/beta = 0.5
    links = [Link(id=0, sender=Point(0.0, 0.0), receiver=Point(1.0, 0.0))]
    for k in range(800):
        ux, uy = math.cos(2 * math.pi * k / 800), math.sin(2 * math.pi * k / 800)
        sx, sy = 1.0 + 11.5 * ux, 11.5 * uy
        sender, receiver = Point(sx, sy), Point(sx + 1e-3 * ux, sy + 1e-3 * uy)
        links.append(Link(id=k + 1, sender=sender, receiver=receiver))
    inst_path = tmp_path / "ring.json"
    save_instance(Instance(params=ModelParams(alpha=3.0, beta=2.0), links=tuple(links)), inst_path)
    out = tmp_path / "s.json"
    code, text = run_cli(capsys, "schedule", inst_path, "--algo", "B", "--out", out)
    assert code == 1 and "worst link 0" in text
    assert not out.exists()


@pytest.mark.parametrize("algo", ["B", "firstfit"])
@pytest.mark.parametrize("flag", [("--regime-base", 0.5), ("--power-mode", "scaled-threshold")])
def test_schedule_power_flags_apply_only_to_a(capsys, tmp_path, algo, flag):
    inst_path = spread_instance(tmp_path)
    out = tmp_path / "s.json"
    code, text = run_cli(capsys, "schedule", inst_path, "--algo", algo, *flag, "--out", out)
    assert code == 2
    assert text == "error: --power-mode and --regime-base apply only to --algo A\n"
    assert not out.exists()


def test_schedule_a_checks_regime_base_on_uniform_power(capsys, tmp_path):
    # A always goes through schedule_nonuniform, which checks the base in every mode
    inst_path = spread_instance(tmp_path)
    out = tmp_path / "s.json"
    code, text = run_cli(capsys, "schedule", inst_path, "--regime-base", 0.5, "--out", out)
    assert code == 2 and "regime_base" in text
    assert not out.exists()


# --- refine ---------------------------------------------------------------------


def test_refine_strengthen_prints_bound(capsys, tmp_path):
    inst_path = gen_instance(capsys, tmp_path, n=15)
    sched_path = tmp_path / "s.json"
    run_cli(capsys, "schedule", inst_path, "--out", sched_path)
    code, text = run_cli(
        capsys, "refine", inst_path, sched_path, "--strengthen", 1.2, 2.4,
        "--out", tmp_path / "r.json",
    )
    assert code == 0
    assert "bound 16" in text


def test_refine_singleton_slots_unchanged(capsys, tmp_path):
    inst_path = colocated_instance(tmp_path, count=3, beta=2.0)
    sched_path = tmp_path / "s.json"
    singletons = Schedule((Slot({0}), Slot({1}), Slot({2})))
    save_schedule(singletons, sched_path)
    for flags in (("--strengthen", 2.0, 4.0), ("--disperse", 2.0)):
        out = tmp_path / "r.json"
        code, _ = run_cli(capsys, "refine", inst_path, sched_path, *flags, "--out", out)
        assert code == 0
        assert load_schedule(out) == singletons


def test_refine_disperse_roundtrip(capsys, tmp_path):
    inst_path = gen_instance(capsys, tmp_path, n=15, seed=6)
    sched_path = tmp_path / "s.json"
    refined_path = tmp_path / "r.json"
    run_cli(capsys, "schedule", inst_path, "--out", sched_path)
    code, text = run_cli(
        capsys, "refine", inst_path, sched_path, "--disperse", 1.0, "--out", refined_path
    )
    assert code == 0
    assert "stated bound 27" in text  # ceil((1+2)^3)
    assert "counting bound 23" in text  # ceil(27/1.2)
    code, _ = run_cli(capsys, "verify", inst_path, refined_path, "--q", 1.0)
    assert code == 0


def test_refine_disperse_prints_worst_growth(capsys, tmp_path):
    inst_path = gen_instance(capsys, tmp_path, 120, 2, "clustered")
    sched_path = tmp_path / "s.json"
    run_cli(capsys, "schedule", inst_path, "--algo", "firstfit", "--out", sched_path)
    instance, schedule = load_instance(inst_path), load_schedule(sched_path)
    pieces = [len(disperse_slot(instance, slot, 1.0)) for slot in schedule.slots]
    assert max(pieces) > 1 and pieces.count(max(pieces)) < len(pieces)
    code, text = run_cli(
        capsys, "refine", inst_path, sched_path, "--disperse", 1.0, "--out", tmp_path / "r.json"
    )
    assert code == 0
    assert f"slots {len(pieces)} -> {sum(pieces)}, worst per-slot growth {max(pieces)}," in text


def test_refine_requires_exactly_one_mode(capsys, tmp_path):
    inst_path = spread_instance(tmp_path)
    sched_path = tmp_path / "s.json"
    save_schedule(Schedule((Slot({0, 1, 2, 3}),)), sched_path)
    code, _ = run_cli(capsys, "refine", inst_path, sched_path)
    assert code == 2
    code, _ = run_cli(
        capsys, "refine", inst_path, sched_path, "--strengthen", 1, 2, "--disperse", 1
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--disperse", 0), "--disperse must be finite and positive, got 0.0"),
        (("--disperse", "nan"), "--disperse must be finite and positive, got nan"),
        (("--disperse", "inf"), "--disperse must be finite and positive, got inf"),
        (("--strengthen", 0, 2), "--strengthen needs finite 0 < P < PPRIME, got 0.0 2.0"),
        (("--strengthen", "nan", 2), "--strengthen needs finite 0 < P < PPRIME, got nan 2.0"),
        (("--strengthen", 2, 1), "--strengthen needs finite 0 < P < PPRIME, got 2.0 1.0"),
        (("--strengthen", 1, "inf"), "--strengthen needs finite 0 < P < PPRIME, got 1.0 inf"),
    ],
    ids=["q-0", "q-nan", "q-inf", "p-0", "p-nan", "p-above-pprime", "pprime-inf"],
)
def test_refine_rejects_bad_levels_up_front(capsys, tmp_path, flags, message):
    # checked before any file is read: the files named here do not exist
    out = tmp_path / "r.json"
    code = main(["refine", "missing.json", "missing.json", *map(str, flags), "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, summary",
    [
        (("--disperse", "1e300"), "stated bound inf, counting bound inf\n"),
        (("--strengthen", "1e-300", "1e300"), "bound inf\n"),
    ],
    ids=["disperse", "strengthen"],
)
def test_refine_prints_a_bound_past_the_float_range_as_inf(capsys, tmp_path, flags, summary):
    inst_path = spread_instance(tmp_path)
    sched_path, out = tmp_path / "s.json", tmp_path / "r.json"
    save_schedule(Schedule((Slot(frozenset({0, 1, 2, 3})),)), sched_path)
    code, text = run_cli(capsys, "refine", inst_path, sched_path, *flags, "--out", out)
    assert code == 0
    assert text.splitlines()[0].endswith(summary.rstrip("\n"))
    assert load_schedule(out).slot_count == 4  # every link on its own at these levels


@pytest.mark.parametrize(
    "flags", [("--strengthen", 1.2, 2.4), ("--disperse", 2)], ids=["strengthen", "disperse"]
)
def test_refine_dangling_ids_exit_2(capsys, tmp_path, flags):
    inst_path = spread_instance(tmp_path)
    sched_path, out = tmp_path / "s.json", tmp_path / "r.json"
    save_schedule(Schedule((Slot(frozenset({0, 1, 2, 3, 99})),)), sched_path)
    code, text = run_cli(capsys, "refine", inst_path, sched_path, *flags, "--out", out)
    assert (code, text) == (2, "error: schedule references unknown link ids: [99]\n")
    assert not out.exists()


def test_refine_precondition_exit_1(capsys, tmp_path):
    inst_path = colocated_instance(tmp_path, count=2, beta=1.2)
    sched_path = tmp_path / "s.json"
    save_schedule(Schedule((Slot(frozenset({0, 1})),)), sched_path)
    # the pair is not a 4-signal schedule, so strengthening from p=4 must refuse
    code, text = run_cli(
        capsys, "refine", inst_path, sched_path, "--strengthen", 4.0, 8.0,
        "--out", tmp_path / "r.json",
    )
    assert code == 1
    assert "error:" in text


# --- oracle ---------------------------------------------------------------------


def test_oracle_schedule_colocated_triple(capsys, tmp_path):
    inst_path = colocated_instance(tmp_path, count=3, beta=2.0)
    out = tmp_path / "oracle.json"
    code, text = run_cli(capsys, "oracle", inst_path, "--mode", "schedule", "--out", out)
    assert code == 0
    assert "slots=3" in text
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["slot_count"] == 3
    assert sorted(sum(obj["slots"], [])) == [0, 1, 2]


def test_oracle_subset_compatible(capsys, tmp_path):
    inst_path = spread_instance(tmp_path, count=4)
    out = tmp_path / "oracle.json"
    code, text = run_cli(capsys, "oracle", inst_path, "--mode", "subset", "--out", out)
    assert code == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["members"] == [0, 1, 2, 3]
    assert "size=4" in text


def test_oracle_psignal_beta_matches_subset(capsys, tmp_path):
    inst_path = gen_instance(capsys, tmp_path, n=8, seed=2)
    sub_out, psig_out = tmp_path / "sub.json", tmp_path / "psig.json"
    run_cli(capsys, "oracle", inst_path, "--mode", "subset", "--out", sub_out)
    code, _ = run_cli(
        capsys, "oracle", inst_path, "--mode", "psignal", "--p", 1.2, "--out", psig_out
    )
    assert code == 0
    sub = json.loads(sub_out.read_text(encoding="utf-8"))
    psig = json.loads(psig_out.read_text(encoding="utf-8"))
    assert sub["size"] == psig["size"]


def test_oracle_schedule_runs_the_gate(capsys, tmp_path, monkeypatch):
    inst_path = colocated_instance(tmp_path, count=3, beta=2.0)
    out = tmp_path / "oracle.json"
    crowded = Schedule((Slot(frozenset({0, 1})), Slot(frozenset({2}))))
    monkeypatch.setattr(oracles, "min_schedule", lambda instance: crowded)
    code, text = run_cli(capsys, "oracle", inst_path, "--mode", "schedule", "--out", out)
    assert code == 1 and "error:" in text
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, extra", [("subset", []), ("psignal", ["--p", 0.9])], ids=["subset", "psignal"]
)
def test_oracle_subset_runs_the_gate(capsys, tmp_path, monkeypatch, mode, extra):
    # three co-located links at beta=2: each pair has affectance 1, the triple 2
    inst_path = colocated_instance(tmp_path, count=3, beta=2.0)
    out = tmp_path / "oracle.json"
    everything = lambda instance, *args: Slot(frozenset({0, 1, 2}))
    monkeypatch.setattr(oracles, "max_feasible_subset", everything)
    monkeypatch.setattr(oracles, "max_p_signal_subset", everything)
    code, text = run_cli(capsys, "oracle", inst_path, "--mode", mode, *extra, "--out", out)
    assert code == 1 and "error:" in text
    assert not out.exists()


def test_oracle_psignal_below_beta_needs_no_sinr_feasibility(capsys, tmp_path):
    # p = 0.9 < beta = 2: a co-located pair (affectance 1 <= 1/p) is the answer,
    # though it is not SINR-feasible
    inst_path = colocated_instance(tmp_path, count=3, beta=2.0)
    out = tmp_path / "oracle.json"
    code, text = run_cli(capsys, "oracle", inst_path, "--mode", "psignal", "--p", 0.9, "--out", out)
    assert code == 0, text
    members = json.loads(out.read_text(encoding="utf-8"))["members"]
    assert members == [0, 1]
    inst = load_instance(inst_path)
    assert not core.is_feasible(inst.resolve(Slot(frozenset(members))), inst.params).sinr_feasible


def test_oracle_flag_validation(capsys, tmp_path):
    inst_path = spread_instance(tmp_path)
    code, _ = run_cli(capsys, "oracle", inst_path, "--mode", "psignal")
    assert code == 2
    code, _ = run_cli(capsys, "oracle", inst_path, "--mode", "subset", "--p", 2.0)
    assert code == 2


@pytest.mark.parametrize("p, wording", [("inf", "finite, got inf"), ("0", "positive, got 0.0"), ("nan", "positive, got nan")])
def test_oracle_refuses_p_before_reading_the_instance(capsys, tmp_path, p, wording):
    out = tmp_path / "oracle.json"
    out.write_bytes(b'{"earlier":true}\n')
    for inst_path in (spread_instance(tmp_path), tmp_path / "missing.json"):
        code, text = run_cli(capsys, "oracle", inst_path, "--mode", "psignal", "--p", p, "--out", out)
        assert (code, text) == (2, f"error: --p must be {wording}\n")
    assert out.read_bytes() == b'{"earlier":true}\n'


def test_oracle_size_limit_exit_3(capsys, tmp_path):
    inst_path = gen_instance(capsys, tmp_path, n=21, seed=0)
    code, text = run_cli(capsys, "oracle", inst_path, "--mode", "subset")
    assert code == 3
    assert "error:" in text


@pytest.mark.parametrize(
    "n, mode, extra, code, message",
    [
        (12, "schedule", [], 0, "oracle schedule: slots="),
        (13, "schedule", [], 3, "error: 13 links exceed the schedule oracle limit 12\n"),
        (21, "psignal", ["--p", 2], 3, "error: 21 links exceed the subset oracle limit 20\n"),
    ],
    ids=["schedule-12", "schedule-13", "psignal-21"],
)
def test_oracle_limits_at_the_boundary(capsys, tmp_path, n, mode, extra, code, message):
    # oracles.MAX_LINKS_SCHEDULE = 12 and oracles.MAX_LINKS_SUBSET = 20
    inst_path = gen_instance(capsys, tmp_path, n=n, seed=0)
    out = tmp_path / "oracle.json"
    got, text = run_cli(capsys, "oracle", inst_path, "--mode", mode, *extra, "--out", out)
    assert got == code and text.startswith(message), text
    assert out.exists() == (code == 0)


# --- reduce-graph ------------------------------------------------------------


def test_reduce_graph_k3(capsys, tmp_path):
    graph_path = tmp_path / "k3.txt"
    graph_path.write_text("3 3\n0 1\n0 2\n1 2\n", encoding="utf-8")
    out = tmp_path / "gains.json"
    code, _ = run_cli(capsys, "reduce-graph", graph_path, "--out", out)
    assert code == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["n"] == 3
    entries = obj["entries"]
    off_diag = [entries[i * 3 + j] for i in range(3) for j in range(3) if i != j]
    assert all(x == 2.0 for x in off_diag)


def test_reduce_graph_edgeless(capsys, tmp_path):
    graph_path = tmp_path / "e5.txt"
    graph_path.write_text("5 0\n", encoding="utf-8")
    out = tmp_path / "gains.json"
    code, _ = run_cli(capsys, "reduce-graph", graph_path, "--out", out)
    assert code == 0
    entries = json.loads(out.read_text(encoding="utf-8"))["entries"]
    off_diag = [entries[i * 5 + j] for i in range(5) for j in range(5) if i != j]
    assert all(x == 0.2 for x in off_diag)


def test_reduce_graph_check(capsys, tmp_path):
    graph_path = tmp_path / "p4.txt"
    graph_path.write_text("4 3\n0 1\n1 2\n2 3\n", encoding="utf-8")
    code, text = run_cli(capsys, "reduce-graph", graph_path, "--check", "--out", tmp_path / "g.json")
    assert code == 0
    assert "correspondence: ok" in text


def test_reduce_graph_check_certifies_above_the_limit(capsys, tmp_path):
    # abstract.EXHAUSTIVE_LIMIT = 20 bounds only the fallback enumeration: the
    # certificate vouches for all 2^21 subsets of a 21-vertex graph
    graph_path = tmp_path / "g21.txt"
    graph_path.write_text("21 3\n0 1\n1 2\n5 20\n", encoding="utf-8")
    code, text = run_cli(capsys, "reduce-graph", graph_path, "--check", "--out", tmp_path / "g.json")
    assert code == 0
    assert text.splitlines()[0] == "correspondence: ok subsets=2097152"


def test_reduce_graph_impossible_size_exit_3(capsys, tmp_path):
    # numpy refuses the 10^18-cell matrix at once: nothing is allocated
    graph_path = tmp_path / "huge.txt"
    graph_path.write_text("1000000000 0\n", encoding="utf-8")
    out = tmp_path / "g.json"
    code, text = run_cli(capsys, "reduce-graph", graph_path, "--out", out)
    assert code == 3
    assert text.startswith("error: ") and "Traceback" not in text
    assert not out.exists()


def test_reduce_graph_malformed_exit_2(capsys, tmp_path):
    graph_path = tmp_path / "bad.txt"
    graph_path.write_text("not a graph\n", encoding="utf-8")
    code, _ = run_cli(capsys, "reduce-graph", graph_path)
    assert code == 2


# --- experiment ---------------------------------------------------------------


def write_config(tmp_path, **overrides):
    cfg = {
        "topology": {"family": "random", "n": 6, "l_max": 5.0, "field_size": 50.0},
        "algorithms": ["A-repeated", "first-fit-baseline"],
        "repetitions": 2,
        "base_seed": 3,
        "output": str(tmp_path / "results.csv"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_experiment_end_to_end(capsys, tmp_path):
    cfg_path = write_config(tmp_path)
    code, text = run_cli(capsys, "experiment", "--config", cfg_path, "--workers", 1)
    assert code == 0
    results = tmp_path / "results.csv"
    lines = results.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("algorithm,")
    assert len(lines) == 1 + 2 * 2  # header + reps * algorithms
    assert (tmp_path / "results_aggregate.dat").exists()
    assert "wrote 4 rows" in text


def test_experiment_rerun_byte_identical(capsys, tmp_path):
    cfg_path = write_config(tmp_path)
    run_cli(capsys, "experiment", "--config", cfg_path, "--workers", 1)
    first = (tmp_path / "results.csv").read_bytes()
    first_agg = (tmp_path / "results_aggregate.dat").read_bytes()
    run_cli(capsys, "experiment", "--config", cfg_path, "--workers", 2)
    assert (tmp_path / "results.csv").read_bytes() == first
    assert (tmp_path / "results_aggregate.dat").read_bytes() == first_agg


def test_experiment_timings_sidecar(capsys, tmp_path):
    timings = tmp_path / "timings.csv"
    cfg_path = write_config(tmp_path, timings=str(timings))
    code, _ = run_cli(capsys, "experiment", "--config", cfg_path, "--workers", 1)
    assert code == 0
    header = timings.read_text(encoding="utf-8").splitlines()[0]
    assert header.endswith("wall_time_ms")


def test_experiment_bad_config_exit_2(capsys, tmp_path):
    cfg_path = write_config(tmp_path, bogus=True)
    code, text = run_cli(capsys, "experiment", "--config", cfg_path)
    assert code == 2
    assert "error:" in text


@pytest.mark.parametrize(
    "overrides",
    [
        {"algorithms": ["A" * 5000]},
        {"sweep": {"x" * 5000: [1]}},
        {"y" * 5000: 1},
        {"params": {"z" * 5000: 1.0}},
        {"topology": {"family": "f" * 5000, "n": 5}},
    ],
    ids=["algorithm", "sweep", "config-key", "params-key", "family"],
)
def test_experiment_config_errors_cut_long_names(capsys, tmp_path, overrides):
    cfg_path = write_config(tmp_path, **overrides)
    code, text = run_cli(capsys, "experiment", "--config", cfg_path)
    assert code == 2
    assert text.startswith("error:") and text.count("\n") == 1 and len(text.encode()) < 200


MISTYPED_CONFIGS = {
    "alpha-string": {"params": {"alpha": "3"}},
    "n-string": {"topology": {"family": "random", "n": "5"}},
    "repetitions-string": {"repetitions": "2"},
    "sweep-not-a-list": {"sweep": {"n": 5}},
    "unknown-topology-key": {"topology": {"family": "random", "n": 5, "bogus": 1}},
    "top-level-array": None,
    "output-bool": {"output": True},
    "timings-int": {"timings": 3},
    "base-seed-float": {"base_seed": 1.5},
    "n-bool": {"topology": {"family": "random", "n": True}},
    "swept-n-float": {"sweep": [["n", [2.7]]]},
    "long-value": {"repetitions": "r" * 5000},
    "l_max-overflow": {"topology": {"family": "random", "n": 5, "l_max": 10**400}},
}


@pytest.mark.parametrize(
    "overrides", list(MISTYPED_CONFIGS.values()), ids=list(MISTYPED_CONFIGS)
)
def test_experiment_mistyped_config_exit_2(capsys, tmp_path, monkeypatch, overrides):
    # these once ended in a TypeError traceback, wrote results.csv to file
    # descriptor 1 or 3, or ran with the value taken as an integer or cut
    monkeypatch.chdir(tmp_path)
    if overrides is None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("[]", encoding="utf-8")
    else:
        cfg_path = write_config(tmp_path, **overrides)
    code, text = run_cli(capsys, "experiment", "--config", cfg_path, "--workers", 1)
    assert code == 2
    assert text.startswith("error:") and text.count("\n") == 1 and len(text.encode()) < 200
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"algorithms": ["A-repeated", "A-repeated"]}, "algorithms lists 'A-repeated' twice"),
        ({"sweep": [["n", [6, 8, 6]]]}, "sweep over 'n' lists 6 twice"),
        ({"sweep": [["alpha", [3, 3.0]]]}, "sweep over 'alpha' lists 3.0 twice"),
        ({"sweep": [["n", [6]], ["l_max", [5]], ["n", [8]]]}, "sweep lists 'n' twice"),
    ],
    ids=["algorithm", "value", "int-and-float-value", "axis"],
)
def test_experiment_refuses_duplicate_cells(capsys, tmp_path, monkeypatch, overrides, message):
    # each copy of a cell would run again and count as one more repetition
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, **overrides)
    code, text = run_cli(capsys, "experiment", "--config", cfg_path, "--workers", 1)
    assert (code, text) == (2, f"error: {message}\n")
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize(
    "output, timings",
    [("res.csv", "res.csv"), (None, "./results.csv"), ("res.csv", "res_aggregate.dat")],
    ids=["results", "default-results", "aggregate"],
)
def test_experiment_refuses_timings_on_an_output(capsys, tmp_path, monkeypatch, output, timings):
    # the sidecar once overwrote the results with wall times, and exited 0
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, output=output, timings=timings)
    code, text = run_cli(capsys, "experiment", "--config", cfg_path, "--workers", 1)
    message = f"timings must name a file of its own; {timings!r} is an output"
    assert (code, text) == (2, f"error: {message}\n")
    assert os.listdir(tmp_path) == ["config.json"]


def test_experiment_sweep_row_counts(capsys, tmp_path):
    cfg_path = write_config(
        tmp_path, sweep=[["n", [4, 6, 8]]], algorithms=["A-repeated"], repetitions=3
    )
    code, _ = run_cli(capsys, "experiment", "--config", cfg_path, "--workers", 1)
    assert code == 0
    lines = (tmp_path / "results.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3 * 3


def test_experiment_failing_b_cell_dumps_instance_and_schedule(capsys, tmp_path, monkeypatch):
    # the harness gates B's cells like every other: a refused one dumps its schedule too
    cfg_path = write_config(tmp_path, algorithms=["B-repeated"], repetitions=1)
    real = core._slot_report

    def refuse(geo, members, params):
        return dataclasses.replace(real(geo, members, params), sinr_feasible=False)

    monkeypatch.setattr(core, "_slot_report", refuse)
    code, text = run_cli(capsys, "experiment", "--config", cfg_path, "--workers", 1)
    inst_path, sched_path = tmp_path / "failed_instance.json", tmp_path / "failed_schedule.json"
    assert code == 1
    assert text.startswith("error: B-repeated on seed 3: slot 0 failed verification ")
    assert text.endswith(f"(dumped {inst_path}, {sched_path})\n")
    assert partition_report(load_instance(inst_path), load_schedule(sched_path)).is_partition
    assert not (tmp_path / "results.csv").exists()


# --- top-level ------------------------------------------------------------------


def test_no_arguments_exit_2(capsys):
    code, _ = run_cli(capsys)
    assert code == 2


def test_unknown_subcommand_exit_2(capsys):
    code, _ = run_cli(capsys, "frobnicate")
    assert code == 2


# --- exit-code contract under fuzzed documents -----------------------------------

json_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.text(max_size=3),
)
coordinate = st.one_of(
    st.integers(min_value=0, max_value=4),  # small grid: coincident points happen
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
)
extreme = st.sampled_from([1e31, -1e300, 5e-324, 1e-200])


def _rarely(draw) -> bool:
    # not the bound 0, which hypothesis draws far more often than 1 in 40
    return draw(st.integers(0, 39)) == 17


def _maybe(draw, valid, other=json_scalar):
    """Mostly a valid value, now and then any JSON value."""
    return draw(other) if _rarely(draw) else draw(valid)


@st.composite
def instance_doc(draw):
    if _rarely(draw):
        return draw(st.one_of(json_scalar, st.lists(json_scalar, max_size=2)))
    bad = st.one_of(json_scalar, st.sampled_from([2.0, 0.0, -1.0, 300.0, 1e-300]))
    params = {
        "alpha": _maybe(draw, st.sampled_from([2.5, 3.0, 4.7, 10.0]), bad),
        "beta": _maybe(draw, st.sampled_from([0.5, 1.2, 3.0]), bad),
        "noise": _maybe(draw, st.sampled_from([0.0, 0.0, 1e-6, 0.01]), bad),
        "default_power": _maybe(draw, st.sampled_from([1.0, 2.0]), bad),
    }
    if _rarely(draw):
        params.pop(draw(st.sampled_from(sorted(params))))
    n = draw(st.integers(min_value=0, max_value=6))
    links = []
    for lid in draw(st.lists(st.integers(0, 9), min_size=n, max_size=n, unique=True)):
        link = {"id": _maybe(draw, st.just(lid))}
        for key in ("sx", "sy", "rx", "ry"):
            link[key] = _maybe(draw, coordinate, st.one_of(extreme, json_scalar))
        if draw(st.booleans()):
            link["power"] = _maybe(draw, st.sampled_from([1.0, 2.0, 8.0]), bad)
        links.append(link)
    doc = {"params": params, "links": links}
    if _rarely(draw):
        doc["extra"] = 1
    return doc


@st.composite
def schedule_doc(draw):
    if _rarely(draw):
        return draw(st.one_of(json_scalar, st.lists(json_scalar, max_size=2)))
    slot = st.lists(st.integers(min_value=-1, max_value=9), max_size=5)
    slots = draw(st.lists(st.one_of(slot, slot, slot, json_scalar), max_size=4))
    return {"slots": slots}


# counts drawn small: a valid huge n, cluster count or repetition count only runs long
small_count = st.integers(min_value=-1, max_value=6)
mistyped_count = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3), small_count
)


@st.composite
def experiment_doc(draw):
    if _rarely(draw):
        return draw(st.one_of(json_scalar, st.lists(json_scalar, max_size=2)))
    topology = {
        "family": _maybe(draw, st.sampled_from(["random", "clustered"])),
        "n": _maybe(draw, st.integers(1, 6), mistyped_count),
    }
    for key, valid in (
        ("field_size", st.sampled_from([20.0, 50.0])),
        ("l_max", st.sampled_from([2.0, 5, 20.0])),
        ("r_cluster", st.sampled_from([3.0, 10.0])),
    ):
        if draw(st.booleans()):
            topology[key] = _maybe(draw, valid)
    if draw(st.booleans()):
        topology["n_clusters"] = _maybe(draw, st.integers(1, 3), mistyped_count)
    if _rarely(draw):
        topology[draw(st.sampled_from(["seed", "bogus"]))] = 1
    doc = {"topology": topology}
    if draw(st.booleans()):
        doc["params"] = {
            "alpha": _maybe(draw, st.sampled_from([2.5, 3, 4.0])),
            "beta": _maybe(draw, st.sampled_from([0.5, 1.2, 3.0])),
            "noise": _maybe(draw, st.sampled_from([0.0, 1e-6, 0.01])),
        }
    if draw(st.booleans()):
        name = draw(st.sampled_from(["n", "alpha", "l_max", "r_cluster"]))
        value = st.integers(1, 6) if name == "n" else st.sampled_from([2.5, 3.0, 5])
        bad = mistyped_count if name == "n" else json_scalar
        values = [_maybe(draw, value, bad) for _ in range(draw(st.integers(0, 2)))]
        sweep = {name: values} if draw(st.booleans()) else [[name, values]]
        doc["sweep"] = _maybe(draw, st.just(sweep))
    doc["algorithms"] = _maybe(
        draw,
        st.lists(st.sampled_from(sorted(ALGORITHMS)), min_size=1, max_size=3, unique=True),
        st.one_of(json_scalar, st.lists(json_scalar, max_size=2)),
    )
    doc["repetitions"] = _maybe(draw, st.integers(1, 2), mistyped_count)
    if draw(st.booleans()):
        doc["base_seed"] = _maybe(draw, st.integers(0, 100))
    doc["output"] = _maybe(draw, st.just("results.csv"))
    if draw(st.booleans()):
        doc["timings"] = _maybe(draw, st.just("timings.csv"))
    return doc


flag_value = st.sampled_from(["1", "2", "0.5", "0", "-1", "nan", "inf", "1e-300", "1e300"])


def _run_main(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    return code


@given(
    instance_doc(),
    schedule_doc(),
    st.sampled_from(["A", "B", "firstfit"]),
    st.lists(st.tuples(st.sampled_from(["--p", "--q", "--theta"]), flag_value), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_exit_codes_hold_for_fuzzed_documents(inst, sched, algo, flags):
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "inst.json")
        sched_path = os.path.join(tmp, "sched.json")
        out_path = os.path.join(tmp, "out.json")
        with open(inst_path, "w", encoding="utf-8") as fh:
            json.dump(inst, fh)
        with open(sched_path, "w", encoding="utf-8") as fh:
            json.dump(sched, fh)
        extra = [part for pair in flags for part in pair]
        code = _run_main(["schedule", inst_path, "--algo", algo, "--out", out_path])
        event(f"schedule exit {code}")
        if code == 0:
            # what schedule emits passes verify
            assert _run_main(["verify", inst_path, out_path]) == 0
            event(f"verify emitted exit {_run_main(['verify', inst_path, out_path, *extra])}")
        event(f"verify exit {_run_main(['verify', inst_path, sched_path, *extra])}")


@given(experiment_doc())
@settings(max_examples=150, deadline=None)
def test_exit_codes_hold_for_fuzzed_experiment_configs(doc):
    # outputs are relative paths: run in a scratch directory
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("config.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            code = _run_main(["experiment", "--config", "config.json", "--workers", "1"])
        finally:
            os.chdir(cwd)
    event(f"experiment exit {code}")
    assert code in (0, 2)
