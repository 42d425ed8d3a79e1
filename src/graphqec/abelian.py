"""Finite abelian groups as products of cyclic factors.

A group is its tuple of cyclic factor sizes.  The verdict engine and the
oracle work on residues modulo each factor, so the type carries only the
factors, their derived order, exponent and rank, and the CLI literal parser.
"""

from __future__ import annotations

import math

from ._frozen import Frozen, integer_list, integers


class FiniteAbelianGroup(Frozen):
    """Product of cyclic groups Z_{d_1} x ... x Z_{d_r}, every d_i >= 2.

    Immutable, equal and hashed by ``factors``."""

    factors: tuple[int, ...]
    _fields = _compared = ("factors",)

    def __init__(self, factors) -> None:
        factors = integers(factors, "cyclic factors")
        if not factors:
            raise ValueError("group needs at least one cyclic factor")
        if any(d < 2 for d in factors):
            raise ValueError(f"every cyclic factor must be >= 2, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)


def parse_group(text: str) -> FiniteAbelianGroup:
    """Parse the CLI group literal: comma-separated factors, e.g. ``2`` or ``2,4``."""
    return FiniteAbelianGroup(integer_list(text, "group literal"))
