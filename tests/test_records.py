"""The record contract: every record type of the package is an immutable ``model.Record``.

Runs under pytest, and as a plain script on interpreters without pytest or
numpy (``PYTHONPATH=src python tests/test_records.py``): the script checks
the records of ``model`` and ``topogen``, the one form each field of ``model``
holds, their file round trip, and that none of them imported numpy.
"""

from __future__ import annotations

import copy
import importlib
import math
import os
import pickle
import sys
import tempfile

from capsched.io import load_instance, load_schedule, save_instance, save_schedule
from capsched.model import (
    DEFAULT_MODEL_PARAMS, Instance, Link, ModelParams, PartitionReport, Point, Schedule,
    SingularityError, Slot,
)
from capsched.topogen import TopologySpec

P0 = DEFAULT_MODEL_PARAMS
LINK = Link(0, Point(0.0, 0.0), Point(1.0, 0.0))
LINK_REPR = "Link(id=0, sender=Point(x=0.0, y=0.0), receiver=Point(x=1.0, y=0.0), power=None)"
P0_REPR = "ModelParams(alpha=3.0, beta=1.2, noise=0.0, default_power=1.0)"
SPEC_REPR = (
    "TopologySpec(family='random', n=4, seed=0, field_size=1000.0, l_max=20.0, n_clusters=None,"
    " r_cluster=10.0)"
)


def _from(module: str, name: str, *fields):
    """Record ``name`` of ``capsched.<module>``, imported on first use: numpy loads with core."""
    return getattr(importlib.import_module(f"capsched.{module}"), name)(*fields)


# name: (a factory of the record, a valid change, invalid changes and their errors, the repr)
CASES = {
    "model.Point": (
        lambda: Point(1.0, 2.0), {"y": 3.0}, [({"x": math.inf}, ValueError)], "Point(x=1.0, y=2.0)"
    ),
    "model.Link": (
        lambda: LINK, {"power": 2.0},
        [
            ({"receiver": Point(0.0, 0.0)}, SingularityError), ({"power": -1}, ValueError),
            ({"id": True}, ValueError), ({"id": 1.5}, ValueError),
        ],
        LINK_REPR,
    ),
    "model.ModelParams": (lambda: P0, {"noise": 1e-9}, [({"alpha": 2}, ValueError)], P0_REPR),
    "model.Slot": (
        lambda: Slot(frozenset({2, 1})), {"members": frozenset({3})},
        [({"members": {"a"}}, ValueError), ({"members": {True}}, ValueError)],
        "Slot(members=frozenset({1, 2}))",
    ),
    "model.Schedule": (
        lambda: Schedule((Slot(frozenset({0})),)), {"slots": ()}, [],
        "Schedule(slots=(Slot(members=frozenset({0})),))",
    ),
    "model.Instance": (
        lambda: Instance(P0, (LINK,)), {"params": ModelParams(3.0, 2.0)},
        [({"links": (LINK, LINK)}, ValueError)], f"Instance(params={P0_REPR}, links=({LINK_REPR},))",
    ),
    "model.PartitionReport": (
        lambda: PartitionReport(False, (1,), (), (7,)), {"dangling": ()}, [],
        "PartitionReport(is_partition=False, missing=(1,), duplicated=(), dangling=(7,))",
    ),
    "topogen.TopologySpec": (
        lambda: TopologySpec("random", 4, 0), {"seed": 2}, [({"n": 0}, ValueError)], SPEC_REPR
    ),
    "core.FeasibilityReport": (
        lambda: _from("core", "FeasibilityReport", True, False, 3, 0.5, -0.25), {"max_affectance": 0.75}, [],
        "FeasibilityReport(feasible=True, sinr_feasible=False, worst_link=3, margin=0.5,"
        " sinr_margin=-0.25, max_affectance=0.0, max_pair_affectance=0.0)",
    ),
    "schedulers.AlgoConstants": (
        lambda: _from("schedulers", "AlgoConstants", 72.0, 4.5, 0.25, 3.0, math.inf), {"nu": 10.0}, [],
        "AlgoConstants(C=72.0, tau=4.5, c=0.25, c_hat=3.0, nu=inf)",
    ),
    "experiment.ExperimentConfig": (
        lambda: _from("experiment", "ExperimentConfig", TopologySpec("random", 4, 0)),
        {"repetitions": 2}, [({"repetitions": 0}, ValueError)],
        f"ExperimentConfig(topology={SPEC_REPR}, params={P0_REPR}, sweep=(), algorithms=('A-repeated',),"
        " repetitions=1, base_seed=0, output=None, timings=None)",
    ),
    "experiment.ResultRow": (
        lambda: _from(
            "experiment", "ResultRow", "A-repeated", "random", 4, 3.0, 1.2, 20.0, 10.0, 7, 2, 1.5, True
        ),
        {"wall_time_ms": 0.0}, [],
        "ResultRow(algorithm='A-repeated', family='random', n=4, alpha=3.0, beta=1.2, l_max=20.0,"
        " r_cluster=10.0, seed=7, slot_count=2, wall_time_ms=1.5, verified=True)",
    ),
    "experiment.AggregateRow": (
        lambda: _from(
            "experiment", "AggregateRow", "A-repeated", "random", 4, 3.0, 20.0, 10.0, 2.0, 0.0, 1
        ),
        {"reps": 2}, [],
        "AggregateRow(algorithm='A-repeated', family='random', n=4, alpha=3.0, l_max=20.0,"
        " r_cluster=10.0, mean_slots=2.0, ci95=0.0, reps=1)",
    ),
    "abstract.GainMatrix": (
        lambda: _from("abstract", "GainMatrix", [[0.0, 0.5], [0.25, 0.0]]),
        {"threshold": 2.0}, [({"threshold": 0.0}, ValueError)],
        "GainMatrix(entries=array([[0.  , 0.5 ],\n       [0.25, 0.  ]]), threshold=1.0)",
    ),
    "abstract.Graph": (
        lambda: _from("abstract", "Graph", 3, frozenset({(1, 0)})),
        {"n": 4}, [({"edges": {(0, 0)}}, ValueError)],
        "Graph(n=3, edges=frozenset({(0, 1)}))",
    ),
    "abstract.CorrespondenceReport": (
        lambda: _from("abstract", "CorrespondenceReport", True, 8),
        {"ok": False}, [],
        "CorrespondenceReport(ok=True, subsets_checked=8)",
    ),
}
NUMPY_FREE = [name for name in CASES if name.startswith(("model.", "topogen."))]


def _raises(error: type[BaseException], fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except error:
        return
    raise AssertionError(f"{fn!r}{args} did not raise {error.__name__}")


def check_record(name: str) -> None:
    factory, changes, invalid, shown = CASES[name]
    a = factory()
    cls = type(a)
    fields = [field for field in cls.__slots__ if field != "__dict__"]
    values = [getattr(a, field) for field in fields]
    # __slots__ lists the fields in declaration order: the positional order of the constructor
    b = cls(*values)
    assert b is not a and b == a and not b != a and repr(a) == shown
    assert a.__eq__(tuple(values)) is NotImplemented
    if name == "abstract.GainMatrix":  # equal by value, as its entries are an array
        assert cls.__hash__ is None and cls(values[0].copy(), *values[1:]) == a
    else:
        assert hash(b) == hash(a) == hash(tuple(values))
    assert hasattr(a, "__dict__") == (name == "model.Instance")
    for field in fields + ["extra"]:
        _raises(AttributeError, setattr, a, field, None)
        _raises(AttributeError, delattr, a, field)
    assert [getattr(a, field) for field in fields] == values
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is cls and clone == a
    changed = a.replace(**changes)
    assert a.replace() == a and changed != a
    assert changed == cls(*[changes.get(field, getattr(a, field)) for field in fields])
    if hasattr(copy, "replace"):  # Python 3.13
        assert copy.replace(a, **changes) == changed
    _raises(TypeError, a.replace, no_such_field=1)
    for bad, error in invalid:
        _raises(error, a.replace, **bad)


def test_instance_pickles_its_fields_only():
    inst = Instance(P0, (LINK,))
    assert inst.position == {0: 0} and "position" in vars(inst)
    clone = pickle.loads(pickle.dumps(inst))
    assert clone == inst and vars(clone) == {}


def test_each_float_field_holds_a_float():
    # coordinates, powers and model parameters, -0 turned into 0 (ids and slot members: CASES)
    params = ModelParams(alpha=3, beta=True, noise=-0.0, default_power=2)
    link = Link(1, Point(-0.0, 10**20), Point(True, 10**20), power=7)
    values = [getattr(params, name) for name in ("alpha", "beta", "noise", "default_power")]
    values += [link.sender.x, link.sender.y, link.receiver.x, link.receiver.y, link.power]
    assert values == [3.0, 1.0, 0.0, 2.0, 0.0, 1e20, 1.0, 1e20, 7.0]
    assert all(type(v) is float and math.copysign(1.0, v) == 1.0 for v in values)


def test_records_read_back_equal_from_their_files():
    # save, load and save again: an equal record and the same bytes
    inst = Instance(ModelParams(3, True), (Link(1, Point(-0.0, 10**20), Point(True, 10**20), power=7), LINK))
    schedule = Schedule((Slot(frozenset({0, 2**70})), Slot()))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        for save, load, record in ((save_instance, load_instance, inst), (save_schedule, load_schedule, schedule)):
            save(record, first)
            again = load(first)
            save(again, second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert again == record and a.read() == b.read()


def test_a_record_keeps_the_contract(record):
    check_record(record)


def pytest_generate_tests(metafunc):
    # parametrized here rather than by pytest.mark, so that the module imports without pytest
    if "record" in metafunc.fixturenames:
        metafunc.parametrize("record", list(CASES))


if __name__ == "__main__":
    for name in NUMPY_FREE:
        check_record(name)
    test_instance_pickles_its_fields_only()
    test_each_float_field_holds_a_float()
    test_records_read_back_equal_from_their_files()
    assert "numpy" not in sys.modules
    print(f"{len(NUMPY_FREE)} numpy-free record cases keep the contract on Python {sys.version.split()[0]}")
