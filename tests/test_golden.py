"""Golden outputs: the canonical schedule files of a fixed corpus, by sha256.

Every command runs through the CLI on generated instances (random and
clustered, n=200, seeds 0 and 1) and on a seeded per-link-power copy of each.
The hashes were recorded before the schedulers and the verifier were folded
into one sweep and one slot verifier; a change to any emitted byte fails here.
"""

import hashlib
import json
import random

import pytest

from capsched.cli import main

CASES = [(family, seed) for family in ("random", "clustered") for seed in (0, 1)]

# (family, seed) -> output file -> sha256 of its bytes
GOLDEN: dict[tuple[str, int], dict[str, str]] = {
    ("random", 0): {
        "a.json": "2e0c7eebbe32172f59e9f69c5628d7e2c6a3f5ed4f192fa681544518de3702ca",
        "b.json": "e1389f097574616a052855ae0172076cd271cb404765db8a8951b836dd3fd4fe",
        "ff.json": "f41db957980b839b7efac8e55e78f4e4d6b22ed0e390c0fd006801404c7d2482",
        "a_regimes.json": "c575c0d3abeda8db5307abc56afbaea0d09a7fadf02ba76d33a5a3ec895b7e0b",
        "a_scaled.json": "37633139558c94f3743d480ba823b40fba80819a04affbbaea229c1c25fdce1d",
        "strong.json": "4066d8c67cbda92aa60f6f30d92936d5668115b727b2b369cd533e0d5b4c034c",
        "spread.json": "b9ca447713482d4c38e05957727a0c3a13c4875a8415abbeb83e44c9a083a082",
    },
    ("random", 1): {
        "a.json": "2dc7767da319b532d56e411ab7181ef32c43e00a9ad1a30ae3dc2c93d3be76b2",
        "b.json": "419d53709446d457e610b4c320f032fa34bbbfafeb8329d62eadceb26380824c",
        "ff.json": "cf03ea79ac6c8b3e9517cc451a12e8fd4921a329ed1d554fb53294d883351d9e",
        "a_regimes.json": "4b4efb8b61b32da349c16e57df14a849fedb8efb4439123a01004e17194ce302",
        "a_scaled.json": "3eed207f2c67b1a77d5a5330d59fb8641d8afa893f802fb8743e5590979b168f",
        "strong.json": "0f84977e63d92084237448819590476f5955fe7b693ddb9bb0fccd47cb75a475",
        "spread.json": "d69adba52bd466449aef397cc6c5f414fae7e069fdb1e2ec14596b216349dfb3",
    },
    ("clustered", 0): {
        "a.json": "d508e8bece40975b2e288073d4d1407f497b9fbc63a5f232b9a50f2971197100",
        "b.json": "3f8c1c16d267a71d60ecf9a39f86290da9c276f9a496e84fe89f2aef667fa3e9",
        "ff.json": "7f0c99ea461b757fea8312f353f956baa09e6759dd6c0558676dca89071d638f",
        "a_regimes.json": "b3f554f2a2443dc916e69539bd2f569bd7cfa99130a044136276603c79d78c63",
        "a_scaled.json": "ad72cf08b391b425f30d3b20ec74baf766cb11d194246fbb204272ee949a9db6",
        "strong.json": "420e3cc2c7d73b2f68de41d118d5ff6ee5c51f2f9f944c8518115353e8223891",
        "spread.json": "5711917ff455b4293ef1e2ae796864993cea1ae378ab0ae54d09d519d1d721cd",
    },
    ("clustered", 1): {
        "a.json": "973a25b06b51ee4c1ec7babe71933c7934a99d5788ac128f210e7b64414d5291",
        "b.json": "278b7196a467595b9eeecd50dd216b3a1d5afbf689c63fab935871c93b28761c",
        "ff.json": "abba94f1d19abff7805fa767a0d299c935cf2af6f8d2dc2220bb4a46b4d82cd6",
        "a_regimes.json": "ec5a153bd53d50c377d735cac3bd3bf397086a221452a0da38f6f53ce2802201",
        "a_scaled.json": "3c0dd3daaf7bc850d04beeb7385b6fc53e4b3426168d5bed01a61c77481ca0c1",
        "strong.json": "bf9318e44ea598b7ca023093b1e98af0c8e205f778ebb1dbaf2fc7f5c90720f8",
        "spread.json": "8ce8bbe53c7285219fbfcc73650f8aafb99d5877400bf48fdf9e3ec2ea320bfb",
    },
}


def _power_copy(src, dst, seed):
    """The same instance with seeded per-link powers drawn from {1, 2, 4, 8}."""
    doc = json.loads(src.read_text())
    rng = random.Random(f"capsched-golden:{seed}:powers")
    for link in doc["links"]:
        link["power"] = float(rng.choice((1, 2, 4, 8)))
    dst.write_text(json.dumps(doc))


def _run(*args):
    code = main([str(a) for a in args])
    assert code == 0, args


def corpus_hashes(tmp_path, family, seed) -> dict[str, str]:
    inst = tmp_path / "inst.json"
    power = tmp_path / "inst_power.json"
    _run("gen", "--family", family, "--n", 200, "--seed", seed, "--out", inst)
    _power_copy(inst, power, seed)
    outputs = {
        "a.json": ("schedule", inst, "--algo", "A"),
        "b.json": ("schedule", inst, "--algo", "B"),
        "ff.json": ("schedule", inst, "--algo", "firstfit"),
        "a_regimes.json": ("schedule", power, "--algo", "A", "--power-mode", "power-regimes"),
        "a_scaled.json": ("schedule", power, "--algo", "A", "--power-mode", "scaled-threshold"),
        "strong.json": ("refine", inst, tmp_path / "ff.json", "--strengthen", 1.2, 2.4),
        "spread.json": ("refine", inst, tmp_path / "ff.json", "--disperse", 2),
    }
    hashes = {}
    for name, args in outputs.items():
        out = tmp_path / name
        _run(*args, "--out", out)
        hashes[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return hashes


@pytest.mark.parametrize("family,seed", CASES)
def test_golden_schedule_hashes(capsys, tmp_path, family, seed):
    assert corpus_hashes(tmp_path, family, seed) == GOLDEN[(family, seed)]
