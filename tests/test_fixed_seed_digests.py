"""Fixed-seed outputs pinned by digest.

Each digest is SHA-256 over the raw bytes of a sampled instance (``ei``,
``ej``, labels, reveal) or of its census (estimates and ties at t = 1 and
t = 2), as computed at commit b2fef7c.  A change to the sampler, the edge
list's canonical order, the tallies or the tie coins that moves any sampled
edge, estimate or coin fails here; a speed-up must leave them all in place.
"""

import hashlib

import numpy as np
import pytest

from ssbm import ModelParams, census_estimate, sample_instance


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("params, sample_digest, census_digest", [
    (ModelParams(n=200, a=9, b=2, rho=0.25, seed=7),
     "dc71f0fa7bf58000ca02c9b517d6bf05663138682abc25681e78b006f43677d7",
     "85abc94a27f397fc9a0f393f01a6e8345ce55826b32740582c88327cc6ff376f"),
    (ModelParams(n=3000, a=5, b=2, rho=0.1, seed=11),
     "fb13026081ddffb3ebd8a13b96d27bd57d68c033e55c2c98f580c23f43f919cc",
     "aac17fc8a92632874f6dd8c452dea0f93076a9ec23b27abf0ea9083d14e84bb2"),
    (ModelParams(n=3000, a=5, b=2, rho=0.5, seed=2**64 - 1),
     "a3c696022b57f3c2bb1ffe605f064379bea627a03424f37b5fb819f7dd168cfe",
     "58aba799368ea066f73d5b2e7b75a320a888d810ecfe84df5df50ce6a2f2e1c8"),
])
def test_fixed_seed_instances_and_census_are_bit_identical(params, sample_digest, census_digest):
    g, rev = sample_instance(params)
    assert _digest(g.ei, g.ej, g.labels.values, rev.values) == sample_digest
    reports = [census_estimate(g, rev, t=t, seed=params.seed) for t in (1, 2)]
    ties = np.array([r.ties_broken for r in reports], dtype=np.int64)
    assert _digest(*(r.estimates for r in reports), ties) == census_digest
