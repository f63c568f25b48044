import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_eval import streams
from scenario_eval.streams import BLOCK, BLOCK_CACHE, substream
from scenario_eval.world_gen import ExperimentConfig, generate

from conftest import examples, time_limit

SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1]) | st.integers(0, 2**130)
WORDS = (st.sampled_from([0, BLOCK - 1, BLOCK, 2**32 - 1, 2**32, 2**64 + 1])
         | st.integers(0, 3 * BLOCK) | st.integers(0, 2**70))
PREFIXES = st.lists(WORDS, max_size=3).map(tuple)


def assert_same_draws(seed, key):
    """``substream``'s draws equal the SeedSequence stream's, bit for bit."""
    ours = substream(seed, *key)
    oracle = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    assert np.array_equal(ours.random(4), oracle.random(4)), (seed, key)
    assert np.array_equal(ours.normal(size=4), oracle.normal(size=4)), (seed, key)


@settings(max_examples=examples(300), deadline=None)
@given(data=st.data())
def test_draws_equal_seed_sequence_streams(data):
    # Few seeds and prefixes, interleaved: a memo entry read under the wrong
    # seed or prefix gives other draws.
    seeds = data.draw(st.lists(SEEDS, min_size=1, max_size=2, unique=True))
    prefixes = data.draw(st.lists(PREFIXES, min_size=1, max_size=3, unique=True))
    calls = data.draw(st.lists(st.tuples(st.sampled_from(seeds),
                                         st.sampled_from(prefixes), WORDS),
                               min_size=1, max_size=8))
    for seed, prefix, last in calls:
        assert_same_draws(seed, (*prefix, last))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 - 1, 2**130 + 3])
@pytest.mark.parametrize("key", [(), (0,), (BLOCK - 1,), (BLOCK,), (2**32 - 1,),
                                 (2**32,), (2**64 + 1,), (3, 2**32 + BLOCK, 7),
                                 (5, 1, 2**64 + 1, BLOCK - 1)])
def test_edge_seeds_and_words(seed, key):
    assert_same_draws(seed, key)


def test_bools_and_numpy_integers_are_words():
    assert_same_draws(True, (True, np.uint64(2**64 - 1), np.int8(3)))
    assert_same_draws(np.int64(7), (np.uint32(BLOCK), False))


@pytest.mark.parametrize("args", [(-1, 1), (5, -1), (5, 1, -(2**64)), (5, np.int64(-3)),
                                  (np.int32(-1),)])
def test_negative_words_raise_value_error(args):
    with time_limit(10), pytest.raises(ValueError, match="non-negative"):
        substream(*args)


@pytest.mark.parametrize("args", [(1.0, 1), (5, 2.0), (5, np.float64(1)), (None, 1),
                                  (5, "3"), (5, np.bool_(True)), (5, (1, 2)), (5, 1, [3])])
def test_non_integer_words_raise_type_error(args):
    with pytest.raises(TypeError, match="integers"):
        substream(*args)


def test_generator_seed_holds_no_seed_sequence():
    generator = substream(5, 1, 2)
    with pytest.raises((TypeError, AttributeError)):   # numpy < 1.25 has no spawn
        generator.spawn(1)
    with pytest.raises(ValueError):
        generator.bit_generator.seed_seq.generate_state(4)


def test_memo_stays_bounded_on_a_many_models_key_walk():
    # The callers' order on the many_models workload (200 locations, 40
    # models, 2 scenarios): world_gen's locations, models and pairs, then
    # each strategy's sampling streams per variant.
    L, M, S = 200, 40, 2
    keys = [(streams.KIND_LOCATION, l) for l in range(L)]
    keys += [(streams.KIND_MODEL, m) for m in range(M)]
    keys += [(streams.KIND_PAIR, m, l) for m in range(M) for l in range(L)]
    for variant in (1, 0):
        keys += [(streams.KIND_ERROR_SAMPLING, variant, m, j)
                 for m in range(M) for j in range(S)]
    for variant in (1, 0):
        keys += [(streams.KIND_OBS_SAMPLING, variant, j) for j in range(S)]
    assert len(keys) == 8404
    streams._block.cache_clear()
    for key in keys:
        substream(38, *key)
    info = streams._block.cache_info()
    assert info.currsize <= BLOCK_CACHE
    assert info.misses == len({key[:-1] for key in keys})   # each block mixed once


def test_world_generation_mixes_each_block_once():
    config = ExperimentConfig(n_locations=8, n_models=3, horizon=200.0, step=0.5)
    streams._block.cache_clear()
    generate(config)
    info = streams._block.cache_info()
    assert info.misses == 2 + config.n_models    # locations, models, pairs per model
    assert info.currsize <= BLOCK_CACHE
