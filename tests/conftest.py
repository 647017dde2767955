"""Test-session settings.

BLAS runs one thread, set here before anything loads numpy (neither pytest
nor hypothesis does), so the suite runs the same arithmetic as sweep workers
and the benchmark: on two CPUs a second BLAS thread only spins, and with the
other CPU busy it made a 200 x 200 ``eigvalsh`` take about 6 ms of wall time
instead of 2.3 ms.

Property tests run under one hypothesis profile: examples are derived from
each test's own source (``derandomize``), so every run checks the same cases,
and no deadline applies, so a slow machine cannot fail a test on timing.
"""

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

from hypothesis import settings  # noqa: E402

settings.register_profile("ssbm", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("ssbm")
