"""Ring codes R(m; S) kept as graph files under ``docs/codes``: vertex 0 is
the input, joined with weight 1 to the outputs 1..m, and output 1 + i is
joined with weight 1 to output 1 + ((i +- s) mod m) for each s in S.

R(13; {1, 2}) detects every configuration of at most 4 errors and
R(19; {1, 7, 8}) every one of at most 6, over each group swept here; these
are results of this repository over the tested groups, not claims of the
paper, and not yet claims for every group."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from graphqec.abelian import FiniteAbelianGroup
from graphqec.detector import detects_errors
from graphqec.graphcode import WeightedGraph, parse_graph
from graphqec.oracle import build_isometry, kl_detects

CODES = Path(__file__).resolve().parents[1] / "docs" / "codes"


def ring_code(m: int, steps) -> WeightedGraph:
    edges = {(0, v) for v in range(1, m + 1)}
    for i, s in itertools.product(range(m), steps):
        a, b = 1 + i, 1 + (i + s) % m
        edges.add((min(a, b), max(a, b)))
    return WeightedGraph.from_edges(m + 1, [(u, v, 1) for u, v in sorted(edges)], (0,))


def read_code(name: str) -> WeightedGraph:
    return parse_graph((CODES / f"{name}.graph").read_text(), name)


@pytest.fixture(scope="module")
def ring13():
    return read_code("ring13")


@pytest.mark.parametrize("name, m, steps", [("ring13", 13, (1, 2)), ("ring19", 19, (1, 7, 8))])
def test_files_hold_the_ring_codes(name, m, steps):
    graph = read_code(name)
    assert (graph.gamma, graph.inputs) == (ring_code(m, steps).gamma, (0,))


@pytest.mark.parametrize("factors", [[2], [3], [2, 2], [6], [4, 9], [101]], ids=str)
def test_ring13_has_distance_five(ring13, factors):
    report = detects_errors(ring13, FiniteAbelianGroup(factors), 5)
    assert [len(undetected) for undetected in report.sizes] == [0, 0, 0, 0, 0, 156]
    assert report.checked[5] == 1287


def test_ring19_has_distance_seven():
    report = detects_errors(read_code("ring19"), FiniteAbelianGroup([4, 9]), 7)
    assert [len(undetected) for undetected in report.sizes] == [0] * 7 + [684]


def test_ring13_oracle_agrees_over_z2(ring13):
    z2 = FiniteAbelianGroup([2])
    iso = build_isometry(ring13, z2)
    failures = detects_errors(ring13, z2, 5).sizes[5][:10]
    assert len(failures) == 10
    for config in failures:
        assert not kl_detects(iso, config), config
    rng = random.Random(13)
    for _ in range(10):
        config = tuple(sorted(rng.sample(ring13.outputs, 4)))
        assert kl_detects(iso, config), config
