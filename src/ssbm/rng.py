"""Deterministic stream derivation for reproducible (parallel) experiments.

Every random decision in the library draws from a stream identified by
``(seed, purpose, *indices)``.  The identifying tuple is folded into a single
64-bit key with the SplitMix64 finalizer, and the key seeds an independent
PCG64 generator.  Distinct tuples give statistically independent streams, so
replications may run in any order, or concurrently, without sharing state.
A fair coin is one bit of the key itself; :func:`coins` draws the coins of
many last indices at once, folding them in numpy uint64 arithmetic.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the shifts and multipliers of _mix64 as uint64 scalars, for coins()
_S1, _S27, _S30, _S31, _S32 = (np.uint64(s) for s in (1, 27, 30, 31, 32))
_MUL1, _MUL2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix64(z: int) -> int:
    """SplitMix64 output function on a 64-bit int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _word(key) -> int:
    """Map a str/int key component to a 64-bit word (FNV-1a for strings)."""
    if isinstance(key, str):
        h = 0xCBF29CE484222325
        for byte in key.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK64
        return h
    return int(key) & _MASK64


def derive_key(seed: int, *keys) -> int:
    """Fold ``(seed, *keys)`` into one 64-bit stream key.

    The fold walks the SplitMix64 sequence: advance by the golden-gamma
    increment, xor in the next key word, apply the finalizer.  Changing any
    component (or the order) yields an unrelated key.
    """
    state = _mix64(int(seed) & _MASK64)
    for key in keys:
        state = (state + _GOLDEN) & _MASK64
        state = _mix64(state ^ _word(key))
    return state


def stream(seed: int, *keys) -> np.random.Generator:
    """Independent generator for the stream identified by ``(seed, *keys)``."""
    return np.random.Generator(np.random.PCG64(derive_key(seed, *keys)))


def coin(seed: int, *keys) -> int:
    """A single fair +-1 coin drawn from the stream ``(seed, *keys)``."""
    return 1 if (derive_key(seed, *keys) >> 32) & 1 else -1


def coins(seed: int, purpose: str, indices) -> np.ndarray:
    """``coin(seed, purpose, i)`` for every i in the integer 1-d ``indices``, as int8.

    The prefix ``(seed, purpose)`` is folded once; the last fold step runs
    on all indices together, so the result equals the scalar calls bit for bit.
    """
    z = np.asarray(indices).astype(np.uint64)
    z ^= np.uint64((derive_key(seed, purpose) + _GOLDEN) & _MASK64)
    # _mix64 in place, with no masks: uint64 arithmetic wraps modulo 2**64
    z ^= z >> _S30
    z *= _MUL1
    z ^= z >> _S27
    z *= _MUL2
    z ^= z >> _S31
    return np.where((z >> _S32) & _S1, 1, -1).astype(np.int8)
