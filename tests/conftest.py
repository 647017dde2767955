"""Test-session settings.

``ssbm`` is imported first, before anything loads numpy (neither pytest nor
hypothesis does), so its one-BLAS-thread default holds for the whole session
and the suite runs the same arithmetic as the CLI, sweep workers and the
benchmark.

Property tests run under one hypothesis profile: examples are derived from
each test's own source (``derandomize``), so every run checks the same cases,
and no deadline applies, so a slow machine cannot fail a test on timing.
"""

import ssbm  # noqa: F401  (first: sets the BLAS thread default before numpy loads)

from hypothesis import settings

settings.register_profile("ssbm", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("ssbm")
