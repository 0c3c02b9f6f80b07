"""Shared test configuration.

Every Hypothesis property test runs one fixed, derandomized sequence of
examples, with no example database and no per-example deadline, so a run
of the suite cannot fail on one machine and pass on the next.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")
