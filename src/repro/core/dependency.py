"""The dependency lattice ND < CD < AD (Sections 2.1 and 4.4).

Interactions between concurrent operations create *dependencies* between
the invoking transactions:

* **AD** (abort-dependency): the second transaction observed the effects of
  the first and must abort if the first aborts.
* **CD** (commit-dependency): the second transaction must commit after the
  first (or after its abort), but can never be forced to abort by it.
* **ND** (no dependency): the operations may interleave freely.

"An AD entry is more restrictive (stronger) than a CD entry, and a CD
entry is more restrictive than a ND entry (AD > CD > ND)" — Section 4.4.
The ``stronger``/``weaker`` combinators below implement the paper's
``stronger`` function used to expand modifier-observer entries, and the
"least restrictive across dimensions" rule of Stage 3.
"""

from __future__ import annotations

import enum
from typing import Iterable

__all__ = ["Dependency", "stronger", "weaker", "strongest", "weakest"]


class Dependency(enum.IntEnum):
    """A compatibility-table dependency, ordered by restrictiveness."""

    ND = 0  #: no dependency ("yes" in a traditional table)
    CD = 1  #: commit-dependency
    AD = 2  #: abort-dependency

    def render(self, blank_nd: bool = True) -> str:
        """Table-cell rendering; ND prints blank by default, as in the paper
        ("for better readability, an ND is indicated by a blank entry")."""
        if self is Dependency.ND and blank_nd:
            return ""
        return self.name


def stronger(first: Dependency, second: Dependency) -> Dependency:
    """The more restrictive of two dependencies (the paper's ``stronger``)."""
    return max(first, second)


def weaker(first: Dependency, second: Dependency) -> Dependency:
    """The less restrictive of two dependencies."""
    return min(first, second)


def strongest(dependencies: Iterable[Dependency]) -> Dependency:
    """Most restrictive of a non-empty collection."""
    return max(dependencies)


def weakest(dependencies: Iterable[Dependency]) -> Dependency:
    """Least restrictive of a non-empty collection."""
    return min(dependencies)
