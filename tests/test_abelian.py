from __future__ import annotations

import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from graphqec.abelian import FiniteAbelianGroup, parse_group
from graphqec.graphcode import WeightedGraph
from graphqec.oracle import build_isometry

# representative factor lists up to order 64 for exhaustive identity checks
SMALL_GROUPS = [
    [2], [3], [4], [5], [6], [7], [8], [9], [12],
    [2, 2], [2, 3], [2, 4], [3, 3], [4, 4], [2, 2, 2], [2, 2, 3], [2, 4, 8],
]

# one weight-1 edge from input 0 to output 1: the oracle's code matrix has
# entry (b, a) = chi(a, b) / sqrt(|G|), so it realises the group's bicharacter
EDGE = WeightedGraph.from_edges(2, [(0, 1, 1)], (0,))


def _elements(g):
    """Elements in the oracle's index order: lexicographic residue tuples."""
    return list(itertools.product(*(range(d) for d in g.factors)))


def _chi_turns(g):
    """chi(a, b) as exp(2 pi i t / L), L = g.exponent: the (|G|, |G|) array of
    t in [0, L), rows a and columns b, read off the oracle's code matrix."""
    scaled = build_isometry(EDGE, g).matrix.T * math.sqrt(g.order)
    assert np.abs(np.abs(scaled) - 1).max() < 1e-9
    return (np.angle(scaled) * g.exponent / (2 * np.pi)) % g.exponent


def _chi_table(g):
    """Integer exponent table t[a][b]; every entry must be an L-th root."""
    turns = _chi_turns(g)
    table = np.rint(turns).astype(np.int64)
    assert np.abs(turns - table).max() < 1e-9
    return (table % g.exponent).tolist()


def _add(g, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, g.factors))


def _neg(g, a):
    return tuple((-x) % d for x, d in zip(a, g.factors))


class TestConstruction:
    @pytest.mark.parametrize(
        "factors,order,exponent",
        [([2], 2, 2), ([5], 5, 5), ([2, 4], 8, 4), ([6, 10], 60, 30)],
    )
    def test_order_and_exponent(self, factors, order, exponent):
        g = FiniteAbelianGroup(factors)
        assert g.order == order
        assert g.exponent == exponent

    @pytest.mark.parametrize("factors", [[], [1], [0], [2, 1], [-3]])
    def test_rejects_bad_factors(self, factors):
        with pytest.raises(ValueError):
            FiniteAbelianGroup(factors)

    def test_parse_group_literals(self):
        assert parse_group("2").factors == (2,)
        assert parse_group("2,4").factors == (2, 4)
        assert parse_group(" 3 , 3 ").factors == (3, 3)
        with pytest.raises(ValueError):
            parse_group("two")
        with pytest.raises(ValueError):
            parse_group("")

    def test_immutable(self):
        g = FiniteAbelianGroup([2])
        with pytest.raises(AttributeError):
            g.factors = (3,)  # type: ignore[misc]
        with pytest.raises(AttributeError):
            g.extra = 1
        with pytest.raises(AttributeError):
            del g.factors
        assert g.factors == (2,)

    def test_value_semantics(self):
        g = FiniteAbelianGroup([2, 4])
        assert g == FiniteAbelianGroup((2, 4)) and hash(g) == hash(FiniteAbelianGroup((2, 4)))
        assert g != FiniteAbelianGroup([4, 2]) and g != FiniteAbelianGroup([8])
        assert g.__eq__((2, 4)) is NotImplemented
        assert pickle.loads(pickle.dumps(g)) == g
        assert repr(g) == "FiniteAbelianGroup(factors=(2, 4))"

    def test_non_integral_factor_is_refused(self):
        with pytest.raises(ValueError, match="cyclic factors must be integers, got 2.9"):
            FiniteAbelianGroup([2.9, 4])
        with pytest.raises(ValueError, match=r"cyclic factors must be integers, got array\(\[2, 3\]\)"):
            FiniteAbelianGroup([np.array([2, 3])])
        assert FiniteAbelianGroup([np.int64(2), 4]).factors == (2, 4)
        assert type(FiniteAbelianGroup([np.int64(2)]).factors[0]) is int


class TestBicharacter:
    def test_qubit_value(self):
        g = FiniteAbelianGroup([2])
        assert Fraction(_chi_table(g)[1][1], g.exponent) == Fraction(1, 2)

    def test_qutrit_value(self):
        g = FiniteAbelianGroup([3])
        assert Fraction(_chi_table(g)[1][2], g.exponent) == Fraction(2, 3)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_identity_has_trivial_character(self, d):
        g = FiniteAbelianGroup([d])
        assert _elements(g)[0] == (0,)
        assert all(t == 0 for t in _chi_table(g)[0])

    @pytest.mark.parametrize("factors", SMALL_GROUPS)
    def test_symmetry_and_biadditivity_exact(self, factors):
        g = FiniteAbelianGroup(factors)
        elements = _elements(g)
        order = g.order
        assert order <= 64
        big_l = g.exponent
        index = {e: i for i, e in enumerate(elements)}
        table = _chi_table(g)
        for i in range(order):
            for j in range(order):
                assert table[i][j] == table[j][i]
        add_index = [
            [index[_add(g, a, b)] for b in elements] for a in elements
        ]
        for i in range(order):
            for j in range(order):
                row_sum = add_index[i][j]
                for k in range(order):
                    assert table[row_sum][k] == (table[i][k] + table[j][k]) % big_l

    @pytest.mark.parametrize("factors", [[2], [3], [2, 4], [3, 3]])
    def test_conjugation_identity(self, factors):
        g = FiniteAbelianGroup(factors)
        elements = _elements(g)
        index = {e: i for i, e in enumerate(elements)}
        table = _chi_table(g)
        for (i, a), j in itertools.product(enumerate(elements), range(g.order)):
            assert table[index[_neg(g, a)]][j] == (-table[i][j]) % g.exponent

    def test_phase_denominator_divides_exponent(self):
        # every phase is an exact g.exponent-th root of unity
        g = FiniteAbelianGroup([2, 4, 3])
        turns = _chi_turns(g)
        assert np.abs(turns - np.rint(turns)).max() < 1e-9


class TestNondegeneracy:
    """No nonzero a has chi(a, .) identically 1."""

    @pytest.mark.parametrize("d", range(2, 13))
    def test_cyclic_groups(self, d):
        assert all(any(row) for row in _chi_table(FiniteAbelianGroup([d]))[1:])

    @pytest.mark.parametrize("factors", [[2, 2], [2, 4], [3, 3]])
    def test_products(self, factors):
        assert all(any(row) for row in _chi_table(FiniteAbelianGroup(factors))[1:])

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            # (5 * 5)**5 > 2**22, the oracle's size cap
            build_isometry(WeightedGraph.from_edges(5, [(0, 1, 1)], (0,)), FiniteAbelianGroup([5, 5]))
