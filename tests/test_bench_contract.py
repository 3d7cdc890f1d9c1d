"""The benchmark's tracer wraps avloc functions by dotted name; every name it
lists must still resolve, so a rename shows up here rather than only in a
traced benchmark run."""

import os
import runpy

import pytest

import avloc

# run_path compiles the file in memory: nothing is imported or cached under perfbench/
SPANS = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir,
                                    "perfbench", "spans.py"))


@pytest.mark.parametrize("name", SPANS["TRACED"])
def test_every_traced_name_resolves_to_an_avloc_callable(name):
    layer, *owner, fname = name.split(".")
    scope = getattr(avloc, layer)
    if owner:  # a method, which the tracer patches on its class
        scope = getattr(scope, owner[0])
    assert callable(vars(scope).get(fname)), name
