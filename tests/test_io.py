"""Serialization tests: canonical JSON, round-trips, strictness."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsched import io
from capsched.abstract import load_gain_matrix
from capsched.core import Instance, Link, ModelParams, Point, Schedule, Slot
from capsched.experiment import load_experiment_config
from capsched.io import (
    canonical_dumps,
    format_float,
    instance_from_obj,
    instance_to_obj,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_obj,
    schedule_to_obj,
)

P0 = ModelParams(alpha=3.0, beta=1.2, noise=0.0)


def sample_instance():
    links = (
        Link(id=0, sender=Point(0, 0), receiver=Point(1, 0)),
        Link(id=1, sender=Point(0.1, 2.25), receiver=Point(3.5, -1.75), power=2.0),
        Link(id=2, sender=Point(-7, 0.3), receiver=Point(-6, 0.300001)),
    )
    return Instance(params=P0, links=links)


def test_format_float_basics():
    assert format_float(0.125) == "0.125"
    assert format_float(1000.0) == "1000"
    assert format_float(-0.0) == "0"
    assert format_float(1 / 3) == "0.33333333333333331"
    with pytest.raises(ValueError):
        format_float(float("nan"))


def test_format_float_round_trip_exact():
    for x in (0.1, 1e-17, 9.87654321e222, 2 / 3, 1.2, 123456.789):
        assert float(format_float(x)) == x


def test_canonical_dumps_sorted_and_compact():
    s = canonical_dumps({"b": 1, "a": [True, None, 0.5]})
    assert s == '{"a":[true,null,0.5],"b":1}'


def test_write_canonical_keeps_the_earlier_file_when_it_cannot_serialize(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b'{"earlier":true}\n')
    with pytest.raises(ValueError, match="^cannot serialize non-finite value inf$"):
        io.write_canonical(path, {"p": float("inf")})
    assert path.read_bytes() == b'{"earlier":true}\n'


def test_instance_round_trip(tmp_path):
    # noise and default power off their defaults too: a writer that dropped one fails
    for params in (P0, ModelParams(alpha=3.5, beta=1.1, noise=1e-3, default_power=2.5)):
        inst = Instance(params=params, links=sample_instance().links)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert again == inst
        # byte-identical re-save
        save_instance(again, tmp_path / "b.json")
        assert path.read_bytes() == (tmp_path / "b.json").read_bytes()


def test_instance_file_is_valid_json_with_expected_shape(tmp_path):
    inst = sample_instance()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    raw = path.read_text(encoding="utf-8")
    assert raw.endswith("\n")
    obj = json.loads(raw)
    assert set(obj) == {"params", "links"}
    assert set(obj["params"]) == {"alpha", "beta", "noise", "default_power"}
    assert set(obj["links"][0]) == {"id", "sx", "sy", "rx", "ry"}
    assert set(obj["links"][1]) == {"id", "sx", "sy", "rx", "ry", "power"}


def test_instance_load_defaults():
    obj = {
        "params": {"alpha": 3.0, "beta": 1.0},
        "links": [{"id": 0, "sx": 0, "sy": 0, "rx": 1, "ry": 0}],
    }
    inst = instance_from_obj(obj)
    assert inst.params.noise == 0.0
    assert inst.params.default_power == 1.0
    assert inst.links[0].power is None


def test_instance_unknown_keys_rejected():
    base = instance_to_obj(sample_instance())
    bad_top = dict(base, extra=1)
    with pytest.raises(ValueError):
        instance_from_obj(bad_top)
    bad_params = json.loads(canonical_dumps(base))
    bad_params["params"]["gamma"] = 2
    with pytest.raises(ValueError):
        instance_from_obj(bad_params)
    bad_link = json.loads(canonical_dumps(base))
    bad_link["links"][0]["colour"] = "red"
    with pytest.raises(ValueError):
        instance_from_obj(bad_link)


def test_schedule_round_trip(tmp_path):
    sched = Schedule((Slot(frozenset({2, 0})), Slot(frozenset({1}))))
    path = tmp_path / "sched.json"
    save_schedule(sched, path)
    again = load_schedule(path)
    assert again == sched
    obj = json.loads(path.read_text())
    assert obj == {"slots": [[0, 2], [1]]}


def test_schedule_duplicate_in_slot_rejected():
    with pytest.raises(ValueError):
        schedule_from_obj({"slots": [[1, 1]]})


def test_error_messages_cut_long_values():
    with pytest.raises(ValueError) as exc:
        schedule_from_obj({"slots": [list(range(10_000)) + [0]]})
    assert "duplicate ids" in str(exc.value) and len(str(exc.value)) < 120
    with pytest.raises(ValueError) as exc:
        schedule_from_obj({"slots": [["y" * 10_000]]})
    assert len(str(exc.value)) < 120 and "..." in str(exc.value)


def test_schedule_unknown_key_rejected():
    with pytest.raises(ValueError):
        schedule_from_obj({"slots": [[0]], "bonus": True})


@pytest.mark.parametrize("slots", [[[0.9, 1]], [[0, "1"]], [[0, True]], [[1.0]], ["01"]])
def test_schedule_rejects_non_integer_ids(slots):
    with pytest.raises(ValueError):
        schedule_from_obj({"slots": slots})


@pytest.mark.parametrize("bad_id", [1.7, True, "1", 1.0])
def test_instance_rejects_non_integer_ids(bad_id):
    obj = {
        "params": {"alpha": 3.0, "beta": 1.0},
        "links": [{"id": bad_id, "sx": 0, "sy": 0, "rx": 1, "ry": 0}],
    }
    with pytest.raises(ValueError):
        instance_from_obj(obj)


@pytest.mark.parametrize("slots", [5, None, {"0": [0]}, [5], [None], [{"id": 0}]])
def test_schedule_rejects_wrongly_typed_slots(slots):
    # a bare number once raised TypeError ("'int' object is not iterable")
    with pytest.raises(ValueError):
        schedule_from_obj({"slots": slots})


def _instance_obj(**changes):
    link = {"id": 0, "sx": 0.0, "sy": 0.0, "rx": 1.0, "ry": 0.0}
    link.update(changes.pop("link", {}))
    obj = {"params": {"alpha": 3.0, "beta": 1.0}, "links": [link]}
    obj.update(changes)
    return obj


@pytest.mark.parametrize(
    "obj",
    [
        _instance_obj(link={"sx": None}),
        _instance_obj(link={"ry": "1.5"}),
        _instance_obj(link={"rx": [1.0]}),
        _instance_obj(link={"sy": False}),
        _instance_obj(link={"power": None}),
        _instance_obj(link={"power": True}),
        _instance_obj(params={"alpha": None, "beta": 1.0}),
        _instance_obj(params={"alpha": 3.0, "beta": "1"}),
        _instance_obj(params=[3.0, 1.0]),
        _instance_obj(links={"0": {}}),
        _instance_obj(links=[5]),
        _instance_obj(links=None),
    ],
)
def test_instance_rejects_wrongly_typed_values(obj):
    with pytest.raises(ValueError):
        instance_from_obj(obj)


def test_instance_accepts_integer_coordinates():
    inst = instance_from_obj(_instance_obj(link={"sx": 0, "rx": 2, "power": 3}))
    assert inst.links[0].receiver == Point(2.0, 0.0) and inst.links[0].power == 3.0


def test_schedule_to_obj_sorts_members():
    sched = Schedule((Slot(frozenset({5, 3, 4})),))
    assert schedule_to_obj(sched) == {"slots": [[3, 4, 5]]}


def _deep(depth: int = 100_000) -> str:
    return "[" * depth + "]" * depth


@pytest.mark.parametrize(
    "loader, text",
    [
        (load_schedule, '{"slots": ' + _deep() + "}"),
        (load_instance, '{"params": {"alpha": 3.0, "beta": ' + _deep() + '}, "links": []}'),
        (load_experiment_config, '{"topology": ' + _deep() + "}"),
        (load_gain_matrix, '{"n": 1, "entries": ' + _deep() + "}"),
    ],
    ids=["schedule", "instance", "experiment-config", "gain-matrix"],
)
def test_json_nested_past_the_parser_limit_is_a_value_error(tmp_path, loader, text):
    # json.load raises RecursionError here; every loader turns it into an input error
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="nested too deeply"):
        loader(path)


@pytest.mark.parametrize(
    "loader, text",
    [
        (load_schedule, '{"slots": [], "slots": [[0]]}'),
        (load_instance, '{"params": {"alpha": 3.0, "beta": 1.2, "beta": 2.0}, "links": []}'),
        (load_experiment_config, '{"topology": {"family": "random"}, "sweep": {"n": [6], "n": [8]}}'),
        (load_gain_matrix, '{"n": 1, "n": 2, "entries": [[0.0]]}'),
    ],
    ids=["schedule", "instance", "experiment-config", "gain-matrix"],
)
def test_a_duplicate_json_key_is_a_value_error(tmp_path, loader, text):
    # json.load keeps the last of a duplicated key; every loader refuses the file instead
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"^duplicate key in a JSON object: '(slots|beta|n)'$"):
        loader(path)


@given(st.text())
@settings(max_examples=300, deadline=None)
def test_canonical_strings_are_json_dumps_text(text):
    # quotes, backslashes, control characters and non-ASCII included
    for sample in (text, '"\\' + text + "\x00\x1f\x7f é😀"):
        assert canonical_dumps(sample) == json.dumps(sample, ensure_ascii=False)
        assert canonical_dumps({sample: 1}) == "{" + json.dumps(sample, ensure_ascii=False) + ":1}"


number = st.one_of(st.floats(), st.integers(min_value=-3, max_value=3))
odd_value = st.sampled_from([10**400, -(10**400), True, False, None, "1", [1.0], {"x": 1}, 2.0])


@st.composite
def raw_link(draw):
    """Mostly a link of numbers, now and then a missing, unknown or odd key or value."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.one_of(st.none(), st.lists(number, max_size=2)))
    keys = {"id", "sx", "sy", "rx", "ry"} | draw(st.sets(st.sampled_from(["power", "extra"])))
    if draw(st.integers(0, 4)) == 0:
        keys.discard(draw(st.sampled_from(sorted(keys))))
    raw = {}
    for key in sorted(keys):
        usual = st.integers(0, 9) if key == "id" else number
        raw[key] = draw(odd_value if draw(st.integers(0, 9)) == 0 else usual)
    return raw


def _outcome(read, raw):
    try:
        return read(raw)
    except Exception as exc:  # the type and message are what must agree
        return type(exc), str(exc)


@given(raw_link())
@settings(max_examples=400, deadline=None)
def test_plain_link_path_equals_the_checked_path(raw):
    # the lean loader builds what the checked reader does, or leaves the link to it
    doc = {"params": {"alpha": 3.0, "beta": 1.2}, "links": [raw]}
    lean = _outcome(instance_from_obj, doc)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(io, "_plain_link", lambda raw: None)
        assert lean == _outcome(instance_from_obj, doc)
