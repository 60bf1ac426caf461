"""Unit tests for the dependency lattice (AD > CD > ND)."""

import pytest

from repro.core.dependency import (
    Dependency,
    stronger,
    strongest,
    weaker,
    weakest,
)


class TestOrdering:
    def test_lattice_order(self):
        assert Dependency.ND < Dependency.CD < Dependency.AD

    def test_stronger(self):
        assert stronger(Dependency.ND, Dependency.CD) is Dependency.CD
        assert stronger(Dependency.AD, Dependency.CD) is Dependency.AD
        assert stronger(Dependency.ND, Dependency.ND) is Dependency.ND

    def test_weaker(self):
        assert weaker(Dependency.AD, Dependency.CD) is Dependency.CD
        assert weaker(Dependency.ND, Dependency.AD) is Dependency.ND

    def test_strongest_weakest_over_collections(self):
        deps = [Dependency.CD, Dependency.ND, Dependency.AD]
        assert strongest(deps) is Dependency.AD
        assert weakest(deps) is Dependency.ND

    def test_strongest_of_empty_raises(self):
        with pytest.raises(ValueError):
            strongest([])


class TestRendering:
    def test_nd_blank_by_default(self):
        assert Dependency.ND.render() == ""

    def test_nd_explicit(self):
        assert Dependency.ND.render(blank_nd=False) == "ND"

    def test_named_rendering(self):
        assert Dependency.AD.render() == "AD"
        assert Dependency.CD.render() == "CD"
