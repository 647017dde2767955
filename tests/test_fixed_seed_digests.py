"""Fixed-seed outputs pinned by digest.

Each instance digest is SHA-256 over the raw bytes of a sampled instance
(``ei``, ``ej``, labels, reveal) or of its census (estimates and ties at
t = 1 and t = 2), as computed at commit b2fef7c.  A change to the sampler,
the edge list's canonical order, the tallies or the tie coins that moves any
sampled edge, estimate or coin fails here; a speed-up must leave them all in
place.

Each sweep digest is SHA-256 over the ``records.csv`` and ``summary.json``
of one small sweep: the CSV without its timestamp comment and its
wall-clock ``runtime_ms`` column, the summary whole.  They were recorded
once summaries stopped reporting the overlap lower curve, which is the
paper's asymptotic curve and no bound at finite degree, and once a
sandwich-audit sweep wrote the sdp and csdp rows a phase-grid sweep writes
for its cells, its audit kept in the summary's ``sandwich`` section alone.
The census-t2 digest, which reports no curve, is as computed at commit
8c44982.  The sweeps over two rho values draw one graph for both of their
rho cells.  The solver sweeps' floats are those of one numpy and BLAS build
at one BLAS thread; another build may round them differently.

Each figure digest is SHA-256 over the ``figure.svg`` of the census and
detection-boxes sweeps above, as recorded once each census data line and
each box was labelled with its whole cell; the census-t1 figure's was
re-recorded once its dashed lower-curve line went.  Each CLI digest is SHA-256 over
the stdout of one ``python -m ssbm census|sdp|csdp`` run: the census digests
as computed at commit f294300, the ``sdp`` digest as computed once the solve
commands seeded each solve by the sweep's rule, and the ``csdp`` digests as
recorded once ``ssbm csdp`` printed the whole csdp row (its
``test_decision``, and ``margin00`` null at rho = 0, as the row's column is
empty there).  Each run is a subprocess at one BLAS thread,
the package default, whatever the caller set: at two threads the printed
certificate sums in another order.  The ``ssbm sdp`` run at n = 1200 is above
``DENSE_CERT_MAX``, so its certificate comes from the Lanczos path.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssbm import (ExperimentConfig, ModelParams, census_estimate, run_sweep,
                  sample_instance)


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


@pytest.mark.parametrize("kind, grid, t, digest", [
    # the rho = 1.0 cell's replications are error rows: nothing to estimate
    ("census-sweep", dict(n=(200,), a=(5.0,), b=(2.0,), rho=(0.3, 1.0)), 1,
     "cc08effa0645b98ff31d36681cb594ea5a08f36a4d4b9288a0a6736d0bf53ab6"),
    ("census-sweep", dict(n=(200,), a=(5.0,), b=(2.0,), rho=(0.3,)), 2,
     "89b50b2c3a94b138f903462986138c0d11fce672f30d439a2eb22a25f7115c1e"),
    ("detection-boxes", dict(n=(40,), a=(9.0,), b=(2.0,), rho=(0.25,)), 1,
     "2711e921d3a416fd88ee5d2f7b333539b5fabd7b2298638dad1c47e8f5b6c7b9"),
    ("phase-grid", dict(n=(40,), a=(6.0,), b=(1.0, 2.0), rho=(0.0, 0.25)), 1,
     "160ee97aad39d140361392aa971bfe8b144df1cb506b50e0e8268a621c0c55bd"),
    ("sandwich-audit", dict(n=(40,), a=(8.0,), b=(2.0,), rho=(0.0, 0.25)), 1,
     "fb459faee80e770964ea47ea7e0bf93a535ee1070ee9c08a04a92caf77c6e25a"),
], ids=["census-t1", "census-t2", "detection-boxes", "phase-grid", "sandwich-audit"])
def test_fixed_seed_sweeps_are_byte_identical(tmp_path, kind, grid, t, digest):
    cfg = ExperimentConfig(kind=kind, **grid, reps=2,
                           out_dir=str(tmp_path), seed=5, t=t)
    run_sweep(cfg)
    with open(os.path.join(tmp_path, "records.csv")) as fh:
        lines = [ln.split(",") for ln in fh.read().splitlines() if not ln.startswith("#")]
    col = lines[0].index("runtime_ms")
    records = "\n".join(",".join(row[:col] + row[col + 1:]) for row in lines)
    with open(os.path.join(tmp_path, "summary.json"), "rb") as fh:
        summary = fh.read()
    h = hashlib.sha256(records.encode())
    h.update(summary)
    assert h.hexdigest() == digest


@pytest.mark.parametrize("kind, grid, t, digest", [
    ("census-sweep", dict(n=(200,), a=(5.0,), b=(2.0,), rho=(0.3, 1.0)), 1,
     "b5d99353a1c2ee1f46a2322425fe710421c9ab0f2143c28784111fbbb7ff24db"),
    ("census-sweep", dict(n=(200,), a=(5.0,), b=(2.0,), rho=(0.3,)), 2,
     "19d316c0458fbf50d1c58ab75e2f75eac2ae62d71958901b7a03ad17d23ef24f"),
    ("detection-boxes", dict(n=(40,), a=(9.0,), b=(2.0,), rho=(0.25,)), 1,
     "8c503dbe758d579f2322000537a01d51112ba219e9bf406c5dd9dd5dfb579f60"),
], ids=["census-t1", "census-t2", "detection-boxes"])
def test_fixed_seed_figures_are_byte_identical(tmp_path, kind, grid, t, digest):
    cfg = ExperimentConfig(kind=kind, **grid, reps=2,
                           out_dir=str(tmp_path), seed=5, t=t)
    run_sweep(cfg)
    with open(os.path.join(tmp_path, "figure.svg"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("census --n 3000 --a 5 --b 2 --rho 0.1 --seed 11 --t 1",
     "5e986cabe19278b52f111e8beb05af07fe768f48e2dc6f07e8eb4afe7c335861"),
    ("census --n 3000 --a 5 --b 2 --rho 0.1 --seed 11 --t 2",
     "e7f84aa3d116c2ebe958e53916b87481e32f6660a8228dd9886f91cbe0636132"),
    ("sdp --n 1200 --a 5 --b 2 --rho 0.25 --seed 1",
     "4923305ea73b7365b04468b5145f5504de5d52b23abe22f4d848f08b1161d486"),
    ("csdp --n 200 --a 5 --b 2 --rho 0.25 --seed 3",
     "7fd6e2600f5cbb4969d337ab4f65aa29d5b4b33b0b5d6720bb7a49a22a444f4e"),
    ("csdp --n 200 --a 5 --b 2 --rho 0 --seed 3",
     "82dde5fc2131d92fe861eabd3f0949c4a5775d0da80686be60f65dc44a082409"),
], ids=["census-t1", "census-t2", "sdp-n1200", "csdp-rho0.25", "csdp-rho0"])
def test_fixed_seed_cli_output_is_byte_identical(argv, digest):
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-m", "ssbm", *argv.split()], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == digest
