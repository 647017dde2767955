import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ssbm.rng import coin, coins, derive_key, stream


def test_derive_is_deterministic_and_key_sensitive():
    k1 = derive_key(42, "edges", 3)
    assert k1 == derive_key(42, "edges", 3)
    assert k1 != derive_key(42, "edges", 4)
    assert k1 != derive_key(43, "edges", 3)
    assert k1 != derive_key(42, "reveal", 3)
    assert 0 <= k1 < 2**64


def test_key_order_matters():
    assert derive_key(0, 1, 2) != derive_key(0, 2, 1)


def test_streams_reproduce_and_differ():
    a = stream(7, "x").standard_normal(8)
    b = stream(7, "x").standard_normal(8)
    c = stream(7, "y").standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_coin_is_roughly_fair_and_deterministic():
    flips = [coin(123, "tie", v) for v in range(4000)]
    assert set(flips) == {-1, 1}
    assert flips == [coin(123, "tie", v) for v in range(4000)]
    assert abs(sum(flips)) < 4 * np.sqrt(4000)


def test_coins_equal_scalar_coins():
    idx = np.arange(100_000)
    for seed in (0, 2**63 + 1, 2**64 - 1):
        ref = np.array([coin(seed, "census-tie", i) for i in idx.tolist()], dtype=np.int8)
        got = coins(seed, "census-tie", idx)
        assert got.dtype == np.int8
        assert np.array_equal(got, ref)
    empty = coins(0, "census-tie", np.empty(0, dtype=np.int64))
    assert empty.dtype == np.int8 and empty.size == 0


@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**63 - 1), max_size=40))
def test_coins_equal_coin_for_any_seed_and_indices(seed, indices):
    got = coins(seed, "csdp-tie", indices)
    assert got.dtype == np.int8
    assert got.tolist() == [coin(seed, "csdp-tie", i) for i in indices]
