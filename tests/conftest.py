"""Test-session settings.

Property tests run under one hypothesis profile: examples are derived from
each test's own source (``derandomize``), so every run checks the same cases,
and no deadline applies, so a slow machine cannot fail a test on timing.
"""

from hypothesis import settings

settings.register_profile("ssbm", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("ssbm")
