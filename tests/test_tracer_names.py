"""The benchmark tracer names only attributes that exist.

``bench/tracer.py`` wraps the entry points in ``ENTRY_POINTS`` and counts the
reprs in ``REPRS`` by name, from outside the package.  Renaming or deleting
one of them breaks ``bench/run.py --trace 1``, so every name is resolved
here.  The tracer is imported from its file and never installed.
"""

import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("qualname", tracer.ENTRY_POINTS + tracer.REPRS)
def test_name_resolves_to_an_attribute(qualname):
    _, owner, attr = tracer._resolve(qualname)
    assert hasattr(owner, attr), qualname
