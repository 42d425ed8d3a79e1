from __future__ import annotations

import pytest

from graphqec.abelian import FiniteAbelianGroup
from graphqec.graphcode import matrix19_code, tenfold_code, wheel_code


@pytest.fixture(scope="session")
def z2():
    return FiniteAbelianGroup([2])


@pytest.fixture(scope="session")
def z3():
    return FiniteAbelianGroup([3])


@pytest.fixture(scope="session")
def z5():
    return FiniteAbelianGroup([5])


@pytest.fixture(scope="session")
def wheel():
    return wheel_code()


@pytest.fixture(scope="session")
def tenfold():
    return tenfold_code()


@pytest.fixture(scope="session")
def matrix19():
    return matrix19_code()
