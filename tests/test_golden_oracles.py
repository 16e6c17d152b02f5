"""Golden outputs of the exact oracles and the graph-reduction check, by sha256.

The corpus: generated random (field side 30) and clustered instances with
n=12, seeds 0-3, through ``oracle --mode schedule`` and the in-process
p-signal partition oracle (p=2); seeded graphs with n in {8, 14}, seeds 0-3,
through ``reduce-graph --check`` (its stdout and ``gains.json``). The hashes
were recorded while the oracles still enumerated subsets one mask at a time
in Python; a change to any emitted byte fails here.
"""

import hashlib
import random

import pytest

from capsched.cli import main
from capsched.io import load_instance, save_schedule
from capsched.oracles import min_p_signal_schedule

SEEDS = (0, 1, 2, 3)
INSTANCE_CASES = [(family, seed) for family in ("random", "clustered") for seed in SEEDS]
GRAPH_CASES = [(n, seed) for n in (8, 14) for seed in SEEDS]
# the default field leaves 12 random links in one slot; a side of 30 needs 5-8
GEN_ARGS = {"random": ("--field", 30), "clustered": ()}

# (family, seed) -> output -> sha256 of its bytes
ORACLE_GOLDEN: dict[tuple[str, int], dict[str, str]] = {
    ("random", 0): {
        "opt.json": "7e1b3457c7086319920667a62a1cadff06efa01ea385b936a760b2db8e0f1e9b",
        "psig.json": "b0a57873a2de1bd578b6e228516cc12d8932213ac433465776ce35d3f1de75ae",
    },
    ("random", 1): {
        "opt.json": "1413df67e358194e3e779bed0993fb8867b6817db95897736355c71df9a1e733",
        "psig.json": "431c052d08469b727dbc59fe649b826e02aa19413fb9401e0c128a7bfc59a7c1",
    },
    ("random", 2): {
        "opt.json": "2f03f793eec4df20c7d4fa3cc1e472ee4fd929539700b77e4041b973526bad80",
        "psig.json": "89e3be3e191e105d4eedf54cf6ec8d629a22ee65d44770194d6c4e0e477d8efa",
    },
    ("random", 3): {
        "opt.json": "a7e440ccf92978f1ab39f741ccabb75a14d9449d6ba068937713c6e6347bd448",
        "psig.json": "87949014ab77db342e7667720276d07f639fa1ddd1e6b2674584b3808e332cee",
    },
    ("clustered", 0): {
        "opt.json": "1745b3738f91213db6a02d258de321968e43449a4748273b1d7e4d7f85831db5",
        "psig.json": "754aef5cfd9d79d3c2ef94ec0c2950f83f15d7535eb8364289d6f92786cf29f1",
    },
    ("clustered", 1): {
        "opt.json": "4c3f8ae4617d2a66a476d8ad37996fb4d334818502de0525d604dfd8fa1b07d9",
        "psig.json": "84d84d227f099b79c7c6a27f8c94f1d991e04daf43368b1127c9d5953b7b3251",
    },
    ("clustered", 2): {
        "opt.json": "5b2aed19e5ce43ad0721947141ad96edb86164a58cb60b946e92f169d7a22321",
        "psig.json": "335e02b7ee8d593f3e6e80fd113aa322a31fae6a82fdfea9ddfa82fbb7c595bf",
    },
    ("clustered", 3): {
        "opt.json": "6278fc4b1414aee9b43f4b629120dc95a4635e3a91caad6047288b6ad3688551",
        "psig.json": "93d46988af994b468ba06cf8f0682c699ee1790c0ee56927e0af2b566e37911d",
    },
}

# (n, seed) -> output -> sha256 of its bytes
REDUCE_GOLDEN: dict[tuple[int, int], dict[str, str]] = {
    (8, 0): {
        "stdout": "bb20f1e59ca242bfcadb9dbc1e0428eed854fcde4835e88182fabd72a9051849",
        "gains.json": "d9b444ffe766a98dcd18764e6b4b4fd5fdb00682cb0d92f1a588ef6db001dab4",
    },
    (8, 1): {
        "stdout": "bb20f1e59ca242bfcadb9dbc1e0428eed854fcde4835e88182fabd72a9051849",
        "gains.json": "8236685ddb5de73846db358b3254538aa12ab0abac2d361fa7754ce1ccd33146",
    },
    (8, 2): {
        "stdout": "bb20f1e59ca242bfcadb9dbc1e0428eed854fcde4835e88182fabd72a9051849",
        "gains.json": "14a6bce8872ff9e21cfa1b7b90345b37ed7e863b3d33dffaeb2026f1fd6c5734",
    },
    (8, 3): {
        "stdout": "bb20f1e59ca242bfcadb9dbc1e0428eed854fcde4835e88182fabd72a9051849",
        "gains.json": "6302967df8064f932ad786c8e38a98e9dee2b276d4509ff560e887ef1ea2b986",
    },
    (14, 0): {
        "stdout": "c8e83efe8fe394cb3687e6646b266763f3b85d1cb535433b714817587ffc3a7f",
        "gains.json": "5d996188d11f172a4187c492c9980caf227e217ee206f63f5b0a70a3937de4fd",
    },
    (14, 1): {
        "stdout": "c8e83efe8fe394cb3687e6646b266763f3b85d1cb535433b714817587ffc3a7f",
        "gains.json": "841cd39e27b72486d142cf812ae1eb18d87c2edd6878b346f34cb87b842bb333",
    },
    (14, 2): {
        "stdout": "c8e83efe8fe394cb3687e6646b266763f3b85d1cb535433b714817587ffc3a7f",
        "gains.json": "e3ea12f0bc7b6d0dfccd302475b54619f22c806460f9dc4e4ef26461e4403772",
    },
    (14, 3): {
        "stdout": "c8e83efe8fe394cb3687e6646b266763f3b85d1cb535433b714817587ffc3a7f",
        "gains.json": "5c6e0d8dd0f7f48d3ca338b8e626e86764ea2c017716765b9d945b1e5c59d581",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*args):
    code = main([str(a) for a in args])
    assert code == 0, args


def oracle_hashes(tmp_path, family, seed) -> dict[str, str]:
    inst = tmp_path / "inst.json"
    _run("gen", "--family", family, "--n", 12, "--seed", seed, *GEN_ARGS[family], "--out", inst)
    _run("oracle", inst, "--mode", "schedule", "--out", tmp_path / "opt.json")
    save_schedule(min_p_signal_schedule(load_instance(inst), 2.0), tmp_path / "psig.json")
    return {name: _sha((tmp_path / name).read_bytes()) for name in ("opt.json", "psig.json")}


def seeded_graph(n: int, seed: int, density: float = 0.3) -> str:
    """A G(n, density) graph in the `n m` + `u v` edge-list format."""
    rng = random.Random(f"capsched-golden:{seed}:graph")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def reduce_hashes(tmp_path, monkeypatch, capsys, n, seed) -> dict[str, str]:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text(seeded_graph(n, seed))
    capsys.readouterr()
    _run("reduce-graph", "graph.txt", "--out", "gains.json", "--check")
    return {
        "stdout": _sha(capsys.readouterr().out.encode()),
        "gains.json": _sha((tmp_path / "gains.json").read_bytes()),
    }


@pytest.mark.parametrize("family,seed", INSTANCE_CASES)
def test_golden_oracle_hashes(capsys, tmp_path, family, seed):
    assert oracle_hashes(tmp_path, family, seed) == ORACLE_GOLDEN[(family, seed)]


@pytest.mark.parametrize("n,seed", GRAPH_CASES)
def test_golden_reduce_graph_hashes(capsys, monkeypatch, tmp_path, n, seed):
    assert reduce_hashes(tmp_path, monkeypatch, capsys, n, seed) == REDUCE_GOLDEN[(n, seed)]
