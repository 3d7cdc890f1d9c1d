"""Shared test settings: one hypothesis profile for the whole suite.

Property tests draw their examples from a fixed seed (`derandomize`) and
keep no example database, so every run checks the same cases; the example
count bounds their time, and no per-example deadline is set because a
loaded machine would trip it.
"""

from hypothesis import settings

settings.register_profile("avloc", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("avloc")
