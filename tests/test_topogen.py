"""Tests for the seeded topology generators.

numpy's Philox is the reference the pure-Python stream ``uniforms`` is
tested against; the generators themselves never call numpy.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsched.core import ModelParams, distance
from capsched.io import instance_to_obj, save_instance
from capsched.topogen import (
    DEFAULT_MODEL_PARAMS,
    _FIRST_LANES,
    _LANES,
    TopologySpec,
    _blocks,
    _round_keys,
    gen_clustered,
    gen_random,
    generate,
    uniforms,
)


def numpy_draws(seed, count, counter=None):
    """The first ``count`` doubles of numpy's Generator(Philox(key=seed, counter=counter))."""
    bitgen = np.random.Philox(key=seed, counter=counter)
    return np.random.Generator(bitgen).random(count).tolist()


def batch_ends(count):
    """The draw counts at which the first ``count`` batches of ``uniforms`` end."""
    ends, lanes, drawn = [], _FIRST_LANES, 0
    for _ in range(count):
        drawn += 4 * lanes
        ends.append(drawn)
        lanes = min(2 * lanes, _LANES)
    return ends


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
def test_uniforms_are_numpys_philox_stream(seed):
    # streams that end one before, on and one after each of the first ten batch
    # boundaries, the last four after batches of the widest size, and a long one
    reference = numpy_draws(seed, 10**5)
    for end in batch_ends(10):
        for count in (end - 1, end, end + 1):
            assert list(itertools.islice(uniforms(seed), count)) == reference[:count], count
    assert list(itertools.islice(uniforms(seed), 10**5)) == reference


@given(st.integers(0, 2**64 - 1), st.integers(1, 13))
@settings(max_examples=200, deadline=None)
def test_uniforms_match_numpy_for_every_seed(seed, count):
    # counts that end inside a block as well as on its boundary
    assert list(itertools.islice(uniforms(seed), count)) == numpy_draws(seed, count)


@pytest.mark.parametrize(
    "words", [[2**64 - 1, 0, 0, 0], [2**64 - 1, 2**64 - 1, 0, 0]], ids=["carry-1", "carry-2"]
)
def test_the_counter_carries_across_its_words(words):
    # numpy would read a plain list holding 2**64 - 1 as floats and silently
    # start at counter 0, so the words go in as uint64
    counter = np.array(words, dtype=np.uint64)
    assert np.random.Philox(key=9, counter=counter).state["state"]["counter"].tolist() == words
    after = sum(word << (64 * i) for i, word in enumerate(words)) + 1
    # one lane, at counter 2**64 or 2**128: rep 1, ramp 0 and the keys as they are
    assert list(_blocks(_round_keys(9), after, 1, 1, 0)) == numpy_draws(9, 4, counter)


def test_a_batch_carries_within_its_lanes():
    # four lanes from counter 2**128 - 2: the third lane carries into words 1 and 2
    words = [2**64 - 3, 2**64 - 1, 0, 0]
    rep, ramp = sum(1 << 128 * i for i in range(4)), sum(i << 128 * i for i in range(4))
    keys = [(k0 * rep, k1 * rep) for k0, k1 in _round_keys(9)]
    draws = list(_blocks(keys, 2**128 - 2, 4, rep, ramp))
    assert draws == numpy_draws(9, 16, np.array(words, dtype=np.uint64))


def test_default_params_preset():
    assert DEFAULT_MODEL_PARAMS == ModelParams(
        alpha=3.0, beta=1.2, noise=0.0, default_power=1.0
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        TopologySpec(family="grid", n=10, seed=0)
    with pytest.raises(ValueError):
        TopologySpec(family="random", n=0, seed=0)
    with pytest.raises(ValueError):
        TopologySpec(family="random", n=5, seed=-1)
    with pytest.raises(ValueError):
        TopologySpec(family="random", n=5, seed=0, l_max=0.0)
    with pytest.raises(ValueError):
        TopologySpec(family="clustered", n=5, seed=0, n_clusters=0)


def test_resolved_clusters_default():
    assert TopologySpec(family="clustered", n=100, seed=0).resolved_clusters == 10
    assert TopologySpec(family="clustered", n=5, seed=0).resolved_clusters == 1
    spec = TopologySpec(family="clustered", n=100, seed=0, n_clusters=7)
    assert spec.resolved_clusters == 7


def test_random_single_link_bounds():
    for seed in range(5):
        inst = gen_random(TopologySpec(family="random", n=1, seed=seed))
        (link,) = inst.links
        assert 0.0 < link.length <= 20.0
        assert 0.0 <= link.receiver.x <= 1000.0
        assert 0.0 <= link.receiver.y <= 1000.0


def test_random_deterministic_and_byte_identical(tmp_path):
    spec = TopologySpec(family="random", n=50, seed=123)
    a, b = gen_random(spec), gen_random(spec)
    assert a == b
    save_instance(a, tmp_path / "a.json")
    save_instance(b, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_random_seeds_differ():
    spec0 = TopologySpec(family="random", n=20, seed=0)
    spec1 = TopologySpec(family="random", n=20, seed=1)
    assert gen_random(spec0) != gen_random(spec1)


def test_random_mean_length():
    # uniform in a disc of radius R has mean radius (2/3) R
    inst = gen_random(TopologySpec(family="random", n=10000, seed=42))
    mean = sum(l.length for l in inst.links) / len(inst.links)
    expected = 2.0 / 3.0 * 20.0
    assert abs(mean - expected) <= 0.02 * expected


def test_random_receivers_in_field():
    inst = gen_random(TopologySpec(family="random", n=500, seed=9))
    for link in inst.links:
        assert 0.0 <= link.receiver.x <= 1000.0
        assert 0.0 <= link.receiver.y <= 1000.0
        assert link.length <= 20.0


def cluster_centers(spec):
    """The cluster centers by the documented draw order: the first draws, x then y."""
    draws = iter(numpy_draws(spec.seed, 2 * spec.resolved_clusters))
    return [
        (spec.field_size * next(draws), spec.field_size * next(draws))
        for _ in range(spec.resolved_clusters)
    ]


def assert_in_clusters(inst, spec, quotas):
    """Links fill the clusters in id order, ``quotas[c]`` links in cluster c."""
    centers = cluster_centers(spec)
    cluster_of = [c for c, quota in enumerate(quotas) for _ in range(quota)]
    assert [l.id for l in inst.links] == list(range(len(cluster_of)))
    for link in inst.links:
        cx, cy = centers[cluster_of[link.id]]
        for point in (link.sender, link.receiver):
            assert math.hypot(point.x - cx, point.y - cy) <= spec.r_cluster


def test_clustered_one_link_per_cluster():
    spec = TopologySpec(family="clustered", n=6, seed=3, n_clusters=6, r_cluster=10.0)
    assert_in_clusters(gen_clustered(spec), spec, [1] * 6)


def test_clustered_length_bound():
    inst = gen_clustered(
        TopologySpec(family="clustered", n=60, seed=8, n_clusters=6, r_cluster=7.5)
    )
    assert all(l.length <= 2 * 7.5 for l in inst.links)


def test_clustered_quota_round_robin():
    spec = TopologySpec(family="clustered", n=10, seed=1, n_clusters=3)
    assert_in_clusters(gen_clustered(spec), spec, [4, 3, 3])


def test_clustered_deterministic(tmp_path):
    spec = TopologySpec(family="clustered", n=40, seed=77)
    a, b = gen_clustered(spec), gen_clustered(spec)
    assert a == b
    assert instance_to_obj(a) == instance_to_obj(b)


def test_generate_dispatch():
    r = generate(TopologySpec(family="random", n=3, seed=5))
    c = generate(TopologySpec(family="clustered", n=3, seed=5))
    assert r == gen_random(TopologySpec(family="random", n=3, seed=5))
    assert c == gen_clustered(TopologySpec(family="clustered", n=3, seed=5))
    with pytest.raises(ValueError):
        gen_random(TopologySpec(family="clustered", n=3, seed=5))
    with pytest.raises(ValueError):
        gen_clustered(TopologySpec(family="random", n=3, seed=5))


def test_generated_instances_use_preset_defaults():
    inst = generate(TopologySpec(family="random", n=4, seed=2))
    assert inst.params == DEFAULT_MODEL_PARAMS
    custom = ModelParams(alpha=4.0, beta=1.0, noise=0.0)
    inst2 = generate(TopologySpec(family="random", n=4, seed=2), params=custom)
    assert inst2.params == custom
