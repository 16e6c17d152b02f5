"""Golden ``verify`` stdout and extreme-coordinate transcripts, by sha256.

The corpus of ``tests/test_golden.py`` (random and clustered, n=200, seeds 0
and 1, plus the seeded per-link-power copy) is scheduled by every algorithm
and refiner; each schedule goes through ``verify`` plain, with ``--p 1.2
--theta 1.0`` and (uniform power only) with ``--q 2``. A second corpus of
hand-made instances with coordinates near the float range's ends (spans near
1e154, coordinates below 1e-130, a link length near 1e-120) pins the exit
code, the schedule bytes and the ``verify`` stdout of every algorithm, and
the exact floats of each slot report, which ``verify`` prints to six
digits. The
hashes were recorded while every distance still went through ``np.hypot``;
a change to any byte fails here.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from capsched.cli import main
from capsched.core import slot_reports
from capsched.io import load_instance, load_schedule

CASES = [(family, seed) for family in ("random", "clustered") for seed in (0, 1)]
FLAGS = {"plain": (), "p-theta": ("--p", 1.2, "--theta", 1.0), "q": ("--q", 2)}


def _run(*args) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue()


def _power_copy(src, dst, seed):
    """The same instance with seeded per-link powers drawn from {1, 2, 4, 8}."""
    doc = json.loads(src.read_text())
    rng = random.Random(f"capsched-golden:{seed}:powers")
    for link in doc["links"]:
        link["power"] = float(rng.choice((1, 2, 4, 8)))
    dst.write_text(json.dumps(doc))


def verify_transcripts(tmp_path, family, seed) -> dict[str, str]:
    """sha256 of the ``verify`` stdout of every corpus schedule, per flag set."""
    inst, power = tmp_path / "inst.json", tmp_path / "inst_power.json"
    assert _run("gen", "--family", family, "--n", 200, "--seed", seed, "--out", inst)[0] == 0
    _power_copy(inst, power, seed)
    ff = tmp_path / "ff.json"
    made = {
        "a": (inst, ("schedule", inst, "--algo", "A")),
        "b": (inst, ("schedule", inst, "--algo", "B")),
        "ff": (inst, ("schedule", inst, "--algo", "firstfit")),
        "strong": (inst, ("refine", inst, ff, "--strengthen", 1.2, 2.4)),
        "spread": (inst, ("refine", inst, ff, "--disperse", 2)),
        "a_regimes": (power, ("schedule", power, "--algo", "A", "--power-mode", "power-regimes")),
        "a_scaled": (power, ("schedule", power, "--algo", "A", "--power-mode", "scaled-threshold")),
    }
    for name, (_, args) in made.items():
        assert _run(*args, "--out", tmp_path / f"{name}.json")[0] == 0, name
    hashes = {}
    for label, flags in FLAGS.items():
        text = []
        for name, (instance, _) in made.items():
            if label == "q" and instance == power:
                continue  # dispersion is defined for uniform power only
            code, out = _run("verify", instance, tmp_path / f"{name}.json", *flags)
            text.append(f"{name} {code}\n{out}")
        hashes[label] = hashlib.sha256("".join(text).encode()).hexdigest()
    return hashes


# (family, seed) -> flag set -> sha256 of the concatenated transcripts
VERIFY_GOLDEN: dict[tuple[str, int], dict[str, str]] = {
    ("clustered", 0): {
        "plain": "1de931de2cae5affa9276d82669abdae15841d7ef0c1e7181b06c982bd512f06",
        "p-theta": "bf84681298675de0b350ce53d944fc768ee0c7ab950d6d59c97ef87c68e6478f",
        "q": "27a4136a48e5577cc5356fcd15c7df21e98c3613f90f3ef6379b49a8318c6855",
    },
    ("clustered", 1): {
        "plain": "a09505623404e8a9bbfa8af9d8b03b596013f7aedcd36d6e8d92d93fed4b8d21",
        "p-theta": "31d6a8eb0d470d341cc193accbbccafae93d0c14c9713785c5e371a6b8e4ee5e",
        "q": "d6bc0ae1ceda307e87acfa827f8fbe3ff1d87c3e8bb2b9d866d4fc6530579f59",
    },
    ("random", 0): {
        "plain": "0f53ce476b14044d86df169bf41ffe605236fe2f23ad681269860ec1d0c5e61f",
        "p-theta": "1b8c5856ace589eb0af574f886de25d8dabde37f1374b5a2a2d92cdf36faf61b",
        "q": "071f7d5c50412406556f4d6873d85267d374a57ac8efe21e45aa8bc7508845cb",
    },
    ("random", 1): {
        "plain": "d940c73f2a6de887e0749ddba9587148650ac9a10597e075fa0192468f45fd8f",
        "p-theta": "6ed9c1846ae16776cc37089004102fc9ba68b51e17c3f36d440c52aa5ecafb69",
        "q": "e471323517955cfcae25e22ef335da05d066a6615873c68f834383ef91127bea",
    },
}


@pytest.mark.parametrize("family,seed", CASES)
def test_golden_verify_stdout(tmp_path, family, seed):
    assert verify_transcripts(tmp_path, family, seed) == VERIFY_GOLDEN[(family, seed)]


# name -> (alpha, [(sx, sy, rx, ry), ...]); every instance passes validation
# unless its pinned exit code says otherwise
EXTREME: dict[str, tuple[float, list[tuple[float, float, float, float]]]] = {
    # spans near 1e154, where dx*dx overflows a double while hypot does not
    "huge-span": (
        3.0,
        [
            (1e154, 0.0, 1e154, 1.0),
            (-1e154, 5.0, -1e154, 6.0),
            (0.0, 0.0, 1e100, 0.0),
            (1.3e154, 1e100, 1.3e154, 2e100),
        ],
    ),
    # long links (1e122) whose cross distances lie between 1e151 and 1e154
    "long-links": (
        2.5,
        [
            (0.0, 0.0, 1e122, 0.0),
            (0.0, 3e151, 1e122, 3e151),
            (2e153, 0.0, 2e153, 1e122),
            (-1.2e154, 0.0, -1.2e154, 1e122),
        ],
    ),
    # a link of length 1e137 at 1e152: d^alpha overflows validation (exit 2)
    "near-overflow": (
        3.0,
        [(1e152, 0.0, 1e152 + 1e137, 0.0), (9.9e153, 3e153, 9.9e153, 3e153 + 1e138)],
    ),
    # links near 1e-120 with coordinates below 1e-130, where dx*dx underflows
    "tiny": (
        2.5,
        [
            (0.0, 0.0, 1e-120, 0.0),
            (3e-120, 0.0, 3e-120, 2e-120),
            (1e-141, 5e-120, 1e-141, 6e-120),
            (4e-120, 1e-150, 4e-120 + 1e-135, 1e-120),
        ],
    ),
    # P_vv = 1 / (1e-135)^2.5 is 1/0 in Python floats (exit 2)
    "tiny-length": (2.5, [(0.0, 0.0, 1e-135, 0.0)]),
    # ordinary links next to subnormal and huge coordinates
    "mixed": (
        3.0,
        [
            (1e-300, 0.0, 1.0, 0.0),
            (5.0, 5e-200, 5.0, 1.0),
            (1e151, 0.0, 1e151, 1e90),
            (2.0, 5e-324, 2.5, 3.0),
        ],
    ),
}


def extreme_transcript(tmp_path, name) -> tuple[dict[str, int], str]:
    """Exit code per algorithm, and sha256 of schedule bytes and ``verify`` stdout."""
    alpha, coords = EXTREME[name]
    links = [dict(id=i, sx=a, sy=b, rx=c, ry=d) for i, (a, b, c, d) in enumerate(coords)]
    inst = tmp_path / f"{name}.json"
    inst.write_text(json.dumps({"params": {"alpha": alpha, "beta": 1.2}, "links": links}))
    codes, text = {}, []
    for algo in ("A", "B", "firstfit"):
        out = tmp_path / f"{name}-{algo}.json"
        codes[algo], stdout = _run("schedule", inst, "--algo", algo, "--out", out)
        text.append(f"{algo} {codes[algo]}\n")
        if codes[algo] != 0:
            continue
        text.append(out.read_text())
        for label, flags in FLAGS.items():
            code, stdout = _run("verify", inst, out, *flags)
            text.append(f"{label} {code}\n{stdout}")
        for r in slot_reports(load_instance(inst), load_schedule(out)):
            fields = (r.margin, r.sinr_margin, r.max_affectance, r.max_pair_affectance)
            text.append(" ".join(x.hex() for x in fields) + "\n")
    return codes, hashlib.sha256("".join(text).encode()).hexdigest()


# name -> (exit code per algorithm, sha256 of the transcript)
EXTREME_GOLDEN: dict[str, tuple[dict[str, int], str]] = {
    "huge-span": (
        {"A": 0, "B": 0, "firstfit": 0},
        "57e60e48b0832b32ab51f81ed63df25667a56de232551a844ed9452dbbc75f9c",
    ),
    "long-links": (
        {"A": 0, "B": 0, "firstfit": 0},
        "61af8f6caf70858543d89637a15242c1141fe6680a2c3767141a7e79beb313d7",
    ),
    "mixed": (
        {"A": 0, "B": 0, "firstfit": 0},
        "96337b68eb740736d655e75e2c961efa366a12b888344c1db1bd15db2a2c82f4",
    ),
    "near-overflow": (
        {"A": 2, "B": 2, "firstfit": 2},
        "72d8d75a6f84b47baf47cba4354e60638f48ccf268ddb1d06cbfc4cb4c1a63b1",
    ),
    "tiny": (
        {"A": 0, "B": 0, "firstfit": 0},
        "f79f9a0fc04bb453402315e0beab2001c43b8599e7f2a04afdddebff0379b2c7",
    ),
    "tiny-length": (
        {"A": 2, "B": 2, "firstfit": 2},
        "72d8d75a6f84b47baf47cba4354e60638f48ccf268ddb1d06cbfc4cb4c1a63b1",
    ),
}


@pytest.mark.parametrize("name", sorted(EXTREME))
def test_extreme_coordinates_pinned(tmp_path, name):
    assert extreme_transcript(tmp_path, name) == EXTREME_GOLDEN[name]
