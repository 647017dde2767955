"""Test-session settings and the one shared fixture.

``ssbm`` is imported first, before anything loads numpy (neither pytest nor
hypothesis does), so its one-BLAS-thread default holds for the whole session
and the suite runs the same arithmetic as the CLI, sweep workers and the
benchmark.

Property tests run under one hypothesis profile: examples are derived from
each test's own source (``derandomize``), so every run checks the same cases,
and no deadline applies, so a slow machine cannot fail a test on timing.
"""

import ssbm  # noqa: F401  (first: sets the BLAS thread default before numpy loads)

import json

import pytest
from hypothesis import settings

settings.register_profile("ssbm", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("ssbm")


@pytest.fixture
def sweep_config(tmp_path):
    """``sweep_config(**keys)`` writes a small census-sweep config file, its
    keys in place of the defaults below (``params`` key by key), and returns
    the argv that runs it, ``["sweep", "--config", path]``; its ``out_dir``
    is ``tmp_path / "out"`` unless ``keys`` names another."""
    path = tmp_path / "sweep.json"

    def write(params=(), **keys):
        grid = {"n": [40], "a": [6.0], "b": [2.0], "rho": [0.5], **dict(params)}
        path.write_text(json.dumps({"kind": "census-sweep", "params": grid,
                                    "out_dir": str(tmp_path / "out"), **keys}))
        return ["sweep", "--config", str(path)]

    return write
