"""Acceptance suite: one test per headline claim, each printing a pass line
with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance and runtime bound is pinned here; nothing is deferred to
later calibration.  Failures print the offending values verbatim.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager

import numpy as np
from helpers import detection_system, random_graph, reference_canonical_bits, verify_witness

from graphqec.abelian import FiniteAbelianGroup
from graphqec.cli import main
from graphqec.detector import (
    corrects_errors,
    detects,
    detects_errors,
)
from graphqec.graphcode import WeightedGraph, matrix19_code, tenfold_code, wheel_code
from graphqec.oracle import build_isometry, kl_detects
from graphqec.singleton import (
    graph_census,
    offdiag_subdets,
    search_weights,
)
from graphqec.zmodlinalg import is_prime

PUBLISHED_DET_SET = (-11, -8, -5, -4, -2, -1, 1, 2, 4, 5, 8, 9)
PUBLISHED_BAD_PRIMES = frozenset({2, 3, 5, 11})


@contextmanager
def stopwatch(label: str, limit_s: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"{label}: took {elapsed:.2f}s, limit {limit_s}s"
    print(f"{label}: PASS ({elapsed:.2f}s < {limit_s:.0f}s)")


def test_criterion_01_fivefold_corrects_one_error():
    wheel = wheel_code()
    with stopwatch("criterion 1: fivefold corrects 1 error on all groups", 1.0):
        for factors in ([2], [3], [4], [5], [2, 2]):
            report = corrects_errors(wheel, FiniteAbelianGroup(factors), 1)
            assert report.all_detected, (factors, report.undetected)
            assert sum(report.checked) == 16


def test_criterion_02_any_wheel_vertex_as_input():
    wheel = wheel_code()
    with stopwatch("criterion 2: every wheel vertex works as the input", 1.0):
        for vertex in range(6):
            for factors in ([2], [7]):
                report = corrects_errors(
                    wheel.with_inputs((vertex,)), FiniteAbelianGroup(factors), 1
                )
                assert report.all_detected, (vertex, factors, report.undetected)


def test_criterion_03_six_vertex_census():
    with stopwatch("criterion 3: 6-vertex census finds exactly 2 classes", 60.0):
        classes = graph_census(6)
    assert len(classes) == 2, [class_ for class_ in classes]
    wheel_bits = reference_canonical_bits(wheel_code().gamma)
    assert wheel_bits in {reference_canonical_bits(g) for g in classes}


def test_criterion_04_block_determinant_report():
    with stopwatch("criterion 4: published determinant set and bad primes", 1.0):
        report = offdiag_subdets(matrix19_code().gamma)
    assert report.det_set == PUBLISHED_DET_SET, (
        f"computed determinant set {report.det_set} differs from the "
        f"published {PUBLISHED_DET_SET}"
    )
    assert report.bad_primes == PUBLISHED_BAD_PRIMES, (
        f"computed bad primes {sorted(report.bad_primes)} differ from the "
        f"published {sorted(PUBLISHED_BAD_PRIMES)}"
    )
    assert not report.has_zero_det


def test_criterion_05_singleton_saturation():
    with stopwatch("criterion 5: singleton-bound saturation at both input counts", 5.0):
        one_input = detects_errors(matrix19_code(), FiniteAbelianGroup([7]), 3)
        assert one_input.all_detected, one_input.undetected
        assert sum(one_input.checked) == 64
        two_inputs = detects_errors(matrix19_code().with_inputs((0, 1)), FiniteAbelianGroup([3]), 2)
        assert two_inputs.all_detected, two_inputs.undetected


TENFOLD_TABLES = {
    (1, 3, 5): (
        (2, 4, 6, 7, 8, 9, 10),
        [
            [1, 1, 1, 0], [1, 1, 1, 1], [1, 0, 1, 1],
            [1, 0, 0, 1], [1, 0, 0, 1], [1, 1, 0, 0], [1, 1, 0, 0],
        ],
    ),
    (1, 2, 5): (
        (3, 4, 6, 7, 8, 9, 10),
        [
            [1, 1, 1, 1], [1, 1, 1, 1], [1, 0, 0, 1],
            [1, 0, 0, 1], [1, 0, 0, 1], [1, 1, 1, 0], [1, 1, 1, 0],
        ],
    ),
    # remaining two representative classes, rows derived from the adjacency rule
    (1, 3, 7): (
        (2, 4, 5, 6, 8, 9, 10),
        [
            [1, 1, 1, 0], [1, 1, 1, 0], [1, 0, 1, 1],
            [1, 0, 1, 1], [1, 0, 0, 1], [1, 1, 0, 1], [1, 1, 0, 1],
        ],
    ),
    (1, 2, 3): (
        (4, 5, 6, 7, 8, 9, 10),
        [
            [1, 1, 1, 1], [1, 0, 0, 1], [1, 0, 0, 1],
            [1, 0, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0], [1, 1, 1, 0],
        ],
    ),
}


def test_criterion_06_tenfold_detects_three():
    tenfold = tenfold_code()
    for config, (expected_rows, expected_system) in TENFOLD_TABLES.items():
        rows, _, system = detection_system(tenfold, config)
        assert rows == expected_rows
        assert system == expected_system, config
    with stopwatch("criterion 6: tenfold detects 3 errors on [2],[3],[5]", 10.0):
        for factors in ([2], [3], [5]):
            report = detects_errors(tenfold, FiniteAbelianGroup(factors), 3)
            assert report.all_detected, (factors, report.undetected)
            assert sum(report.checked) == 176


def test_criterion_07_oracle_equivalence():
    disagreements = []

    def compare(graph, group, config, isometry):
        kernel_says = detects(graph, group, config).detected
        oracle_says = kl_detects(isometry, config)
        if kernel_says != oracle_says:
            disagreements.append(
                (graph.name or "random", group.factors, config,
                 kernel_says, oracle_says)
            )

    with stopwatch("criterion 7: kernel criterion == Knill-Laflamme oracle", 600.0):
        wheel, tenfold = wheel_code(), tenfold_code()
        for factors in ([2], [3], [5]):
            group = FiniteAbelianGroup(factors)
            iso = build_isometry(wheel, group)
            for size in range(3):
                for config in itertools.combinations(wheel.outputs, size):
                    compare(wheel, group, config, iso)
        group2 = FiniteAbelianGroup([2])
        iso10 = build_isometry(tenfold, group2)
        for size in range(4):
            for config in itertools.combinations(tenfold.outputs, size):
                compare(tenfold, group2, config, iso10)

        rng = random.Random(20240)
        groups = [FiniteAbelianGroup([2]), FiniteAbelianGroup([3])]
        for _ in range(200):
            graph = random_graph(rng, max_n=5, weights=(0, 1, 2))
            for group in groups:
                iso = build_isometry(graph, group)
                for size in range(len(graph.outputs) + 1):
                    for config in itertools.combinations(graph.outputs, size):
                        compare(graph, group, config, iso)
    assert disagreements == []


def test_criterion_08_isometry_and_hadamard_form():
    with stopwatch("criterion 8: isometries with uniform entry modulus", 60.0):
        cases = [
            (wheel_code(), [2]), (wheel_code(), [3]), (wheel_code(), [5]),
            (tenfold_code(), [2]),
        ]
        for graph, factors in cases:
            group = FiniteAbelianGroup(factors)
            iso = build_isometry(graph, group)
            assert kl_detects(iso, ()), (graph.name, factors)
            # counting normalization: every entry has modulus |G|^(-|Y|/2)
            modulus = group.order ** (-len(graph.outputs) / 2)
            deviation = np.abs(np.abs(iso.matrix) - modulus).max()
            assert deviation < 1e-12, (graph.name, factors, deviation)


def test_criterion_09_negative_controls(capsys):
    with stopwatch("criterion 9: negative controls", 60.0):
        # a three-error configuration on the fivefold code must fail, and the
        # CLI must surface a machine-checkable witness with exit code 1
        code = main(
            ["detect", "--builtin", "wheel", "--group", "2", "--config", "1,2,3"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["detected"] is False
        wheel = wheel_code()
        verdict = detects(wheel, FiniteAbelianGroup([2]), (1, 2, 3))
        assert list(verdict.witness) == payload["witness"]
        verify_witness(wheel, verdict)

        # the full output set is never detected when inputs exist
        for graph in (wheel, tenfold_code(), matrix19_code()):
            for factors in ([2], [3], [2, 2]):
                assert not detects(
                    graph, FiniteAbelianGroup(factors), graph.outputs
                ).detected

        # an isolated input vertex cannot give an isometry
        isolated = WeightedGraph.from_edges(3, [(1, 2, 1)], (0,))
        assert not detects(isolated, FiniteAbelianGroup([2]), ()).detected
        assert not kl_detects(build_isometry(isolated, FiniteAbelianGroup([2])), ())


def test_criterion_10_search_witness():
    with stopwatch("criterion 10: seeded weight search yields a verified witness", 300.0):
        result = search_weights(matrix19_code().gamma, weight_bound=2, seed=0, budget=10**5)
        assert result.success, f"search exhausted {result.attempts} attempts"
        report = offdiag_subdets(result.matrix)
        assert not report.has_zero_det
        good_primes = [
            p for p in range(2, 51)
            if is_prime(p) and p not in report.bad_primes
        ]
        assert good_primes, (
            f"no prime <= 50 avoids the witness determinants {report.det_set}"
        )


def invariant_factor_groups(max_order: int) -> list[tuple[int, ...]]:
    """Every finite abelian group of order at most max_order, once each, as
    its invariant factors d_1 | d_2 | ... | d_r with d_1 >= 2."""

    def chains(first, budget):
        # chains starting at ``first`` whose product is at most ``budget``
        yield (first,)
        for following in range(first, budget // first + 1, first):
            for rest in chains(following, budget // first):
                yield (first, *rest)

    return [chain for d in range(2, max_order + 1) for chain in chains(d, max_order)]


def test_criterion_11_claims_over_every_small_group():
    groups = invariant_factor_groups(200)
    assert len(groups) == 388
    wheel, tenfold = wheel_code(), tenfold_code()
    failures = []
    with stopwatch("criterion 11: criteria 1 and 6 over all 388 groups of order <= 200", 30.0):
        for factors in groups:
            group = FiniteAbelianGroup(factors)
            if not corrects_errors(wheel, group, 1).all_detected:
                failures.append(("wheel corrects 1 error", factors))
            if not detects_errors(tenfold, group, 3).all_detected:
                failures.append(("tenfold detects 3 errors", factors))
    assert failures == []
