"""The trusted constructor ``SpectralFamily._canonical`` against ``__init__``.

Three functions skip validation because their construction already gives
strictly increasing thresholds, monotone values and a top last value: the
level-set families of topologies, ``enumerate_families`` and the level-set
families of measurable functions.  Here every family they build on the
check sweeps also goes through the checking constructor, which must accept
the same jumps and give an equal object.
"""

from fractions import Fraction
from itertools import product

import pytest

import stonespec
from stonespec import (MeasurableFunction, SpectralFamily, all_fields, all_topologies,
                       enumerate_families, spectral_family_of)
from stonespec.checks import GRID3, _ground, _injectivity_fixtures, run_suite
from stonespec.family import level_sets
from stonespec.measurable import atom_grid_values
from stonespec.topology import _family_of_levels


@pytest.fixture
def checked(monkeypatch):
    """Route every ``_canonical`` call through ``__init__`` too; returns the
    list of the families built."""
    built = []
    trusted = SpectralFamily._canonical.__func__

    def canonical(cls, lattice, thresholds, values):
        thresholds, values = list(thresholds), list(values)
        e = trusted(cls, lattice, thresholds, values)
        assert e == SpectralFamily(lattice, list(zip(thresholds, values)))
        built.append(e)
        return e

    monkeypatch.setattr(SpectralFamily, "_canonical", classmethod(canonical))
    return built


def test_correspondence_sweep_both_directions(checked):
    # every level-set family of a GRID3 function, 3**n per topology on n
    # points (1, 4, 29, 355 of them); the sweep builds only those it reads
    level_families = 0
    for n in (1, 2, 3, 4):
        for t in all_topologies(n):
            for values in product(GRID3, repeat=n):
                _family_of_levels(t, *level_sets(values))
                level_families += 1
    assert len(checked) == level_families == 29577
    # the suite's own families, at least one enumerated family per topology
    res = run_suite("continuous-correspondence", 4)
    assert res.failures == []
    assert len(checked) > level_families + 389


@pytest.mark.parametrize("grid", [GRID3, (Fraction(0), Fraction(1), Fraction(2))])
def test_enumerate_families_on_the_injectivity_fixtures(checked, grid):
    for _, lat in _injectivity_fixtures(4):
        got = enumerate_families(lat, grid)
        assert got == checked[-len(got):]
    assert checked


def test_spectral_family_of_on_the_bijection_fields(checked):
    count = 0
    for f in all_fields(_ground(4)):
        for values in atom_grid_values(f, GRID3):
            spectral_family_of(MeasurableFunction(f, values))
            count += 1
    assert len(checked) == count


def test_trusted_constructor_is_not_exported():
    for name in ("_canonical", "_of_nbhds", "_points"):
        assert not hasattr(stonespec, name)
