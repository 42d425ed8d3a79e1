from __future__ import annotations

import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest

from graphqec.abelian import make_group
from graphqec.detector import detects_errors, strong_detects
from graphqec.zmodlinalg import det_exact, det_fits_int64
from graphqec import singleton
from graphqec.graphcode import matrix19_code, wheel_code
from graphqec.singleton import (
    SEARCH_CHUNK,
    Skeleton,
    adjacency_bits,
    canonical_bits,
    graph_census,
    is_prime,
    is_strongly_ec,
    offdiag_subdets,
    prime_factors,
    restricted_bad_primes,
    restricted_subdets,
    search_weights,
    unimodular_offdiag_predicate,
)

PUBLISHED_DET_SET = (-11, -8, -5, -4, -2, -1, 1, 2, 4, 5, 8, 9)
PUBLISHED_BAD_PRIMES = frozenset({2, 3, 5, 11})

# pinned result of the one-off 64-graph census on 4 vertices: no class passes
CENSUS_4_CLASSES = ()
# canonical bits of the second 6-vertex class (the first is the wheel graph)
SECOND_SIXFOLD_CLASS_BITS = "001111011101100"
# no 8-vertex graph passes: confirmed against a full run of the earlier
# per-graph census (about 5 minutes), whose stdout the batched one matches
CENSUS_8_CLASSES = ()

GOLDEN = Path(__file__).resolve().parent / "golden"


def trial_division_factors(n):
    """Reference: prime divisors of |n| by trial division."""
    n = abs(n)
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


def reference_search(skeleton, weight_bound, seed, budget):
    """Reference: one attempt at a time, det_exact per block, early exit."""
    size = skeleton.size
    parts = list(singleton._partitions(size))
    for attempt in range(budget):
        rng = random.Random(f"{seed}:{attempt}")
        gamma = [[0] * size for _ in range(size)]
        for i, j in skeleton.free_positions:
            # choice() on the list -bound..-1, 1..bound, read by index
            # rather than built (bounds reach 2**31 - 1)
            r = rng.choice(range(2 * weight_bound))
            gamma[i][j] = gamma[j][i] = r - weight_bound + (r >= weight_bound)
        if all(
            det_exact([[gamma[i][j] for j in comp] for i in block]) != 0
            for block, comp in parts
        ):
            return attempt + 1, tuple(map(tuple, gamma))
    return budget, None


def reference_unimodular(gamma):
    n = len(gamma)
    return all(
        det_exact([[gamma[i][j] for j in comp] for i in block]) in (-1, 1)
        for block, comp in singleton._partitions(n)
    )


def reference_canonical_bits(gamma):
    """Reference: minimum bit-string over all n! relabellings, one at a time."""
    n = len(gamma)
    return min(
        "".join(
            "1" if gamma[perm[i]][perm[j]] else "0"
            for i in range(n)
            for j in range(i + 1, n)
        )
        for perm in itertools.permutations(range(n))
    )


class TestPrimes:
    def test_prime_factors(self):
        assert prime_factors(60) == {2, 3, 5}
        assert prime_factors(-11) == {11}
        assert prime_factors(1) == frozenset()
        assert prime_factors(0) == frozenset()

    def test_is_prime(self):
        assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert not is_prime(1)
        assert not is_prime(-7)

    def test_against_trial_division(self):
        for n in range(10**5 + 1):
            want = trial_division_factors(n)
            assert prime_factors(n) == want
            assert is_prime(n) == (want == {n})

    def test_large_factors(self):
        assert prime_factors(-(2**4) * 3 * (2**31 - 1) * (2**61 - 1)) == {
            2, 3, 2**31 - 1, 2**61 - 1
        }
        assert prime_factors((10**6 + 3) ** 3 * 999_983**2) == {10**6 + 3, 999_983}
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**61 - 1))
        # 2^89 - 1 is prime, but above the proven Miller-Rabin range; a
        # multiple of it fails a base and is composite for certain
        assert not is_prime(3 * (2**89 - 1))

    def test_large_semiprime_weight_is_fast(self):
        w = (10**9 + 7) * (10**9 + 9)
        start = time.perf_counter()
        report = offdiag_subdets([[0, w], [w, 0]])
        assert time.perf_counter() - start < 1.0
        assert report.dets == (w,)
        assert sorted(report.bad_primes) == [10**9 + 7, 10**9 + 9]

    def test_uncertifiable_prime_rejected(self):
        with pytest.raises(ValueError, match="cannot certify"):
            is_prime(2**89 - 1)
        with pytest.raises(ValueError, match="cannot certify"):
            prime_factors(6 * (2**89 - 1))

    def test_unsplittable_cofactor_rejected(self, monkeypatch):
        monkeypatch.setattr(singleton, "_RHO_STEPS", 1000)
        with pytest.raises(ValueError, match="cannot factor"):
            prime_factors((2**31 - 1) * (2**61 - 1))


class TestOffdiagSubdets:
    def test_published_det_set(self, matrix19):
        report = offdiag_subdets(matrix19.gamma)
        assert report.det_set == PUBLISHED_DET_SET
        assert report.bad_primes == PUBLISHED_BAD_PRIMES
        assert not report.has_zero_det

    def test_partition_count_and_order(self, matrix19):
        report = offdiag_subdets(matrix19.gamma)
        assert report.m == 4
        assert len(report.partitions) == math.comb(8, 4) // 2 == 35
        blocks = [block for block, _ in report.partitions]
        assert all(block[0] == 0 for block in blocks)
        assert blocks == sorted(blocks)
        comps = [comp for _, comp in report.partitions]
        for block, comp in zip(blocks, comps):
            assert sorted(block + comp) == list(range(8))

    def test_zero_matrix_sentinel(self):
        zero = [[0] * 4 for _ in range(4)]
        report = offdiag_subdets(zero)
        assert report.has_zero_det
        assert report.det_set == (0,)
        assert report.to_dict()["bad_primes"] == "all"

    def test_rejects_odd_or_asymmetric(self):
        with pytest.raises(ValueError):
            offdiag_subdets([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        with pytest.raises(ValueError):
            offdiag_subdets([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            offdiag_subdets([[1, 1], [1, 0]])

    def test_report_dict(self, matrix19):
        payload = offdiag_subdets(matrix19.gamma).to_dict()
        assert payload["m"] == 4
        assert payload["bad_primes"] == [2, 3, 5, 11]
        assert len(payload["partitions"]) == 35
        assert all({"I", "det"} == set(p) for p in payload["partitions"])


class TestStronglyEc:
    def test_published_primes(self, matrix19):
        assert is_strongly_ec(matrix19.gamma, 7)
        assert not is_strongly_ec(matrix19.gamma, 11)
        assert is_strongly_ec(matrix19.gamma, 13)
        for p in (2, 3, 5):
            assert not is_strongly_ec(matrix19.gamma, p)

    def test_rejects_non_prime(self, matrix19):
        with pytest.raises(ValueError):
            is_strongly_ec(matrix19.gamma, 6)


class TestRestricted:
    def test_paired_inputs_avoid_three(self, matrix19):
        restricted = restricted_bad_primes(matrix19.gamma, (0, 1))
        assert 3 not in restricted
        assert restricted <= PUBLISHED_BAD_PRIMES

    def test_empty_restriction_is_full_set(self, matrix19):
        assert restricted_bad_primes(matrix19.gamma, ()) == PUBLISHED_BAD_PRIMES

    def test_single_input_subset(self, matrix19):
        assert restricted_bad_primes(matrix19.gamma, (0,)) <= PUBLISHED_BAD_PRIMES

    def test_relevant_partition_count(self, matrix19):
        # both inputs tied to one side: choose the 2 remaining block members
        report = restricted_subdets(matrix19.gamma, (0, 1))
        assert len(report.partitions) == math.comb(6, 2)
        for block, comp in report.partitions:
            assert {0, 1} <= set(block) or {0, 1} <= set(comp)

    def test_too_many_inputs_rejected(self, matrix19):
        with pytest.raises(ValueError):
            restricted_subdets(matrix19.gamma, (0, 1, 2, 3, 4))


class TestSkeleton:
    def test_from_matrix(self, matrix19):
        skeleton = Skeleton.from_matrix(matrix19.gamma)
        assert skeleton.m == 4
        assert skeleton.min_row_support() == 4
        assert len(skeleton.free_positions) == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            Skeleton(((0, 2), (2, 0)))
        with pytest.raises(ValueError):
            Skeleton(((1, 0), (0, 0)))
        with pytest.raises(ValueError):
            Skeleton(((0, 1, 0), (1, 0, 1), (0, 1, 0)))


class TestSearchWeights:
    def test_eq19_skeleton_succeeds(self, matrix19):
        skeleton = Skeleton.from_matrix(matrix19.gamma)
        result = search_weights(skeleton, 2, 0, 10**5)
        assert result.success
        assert 0 < result.attempts <= 10**5
        report = offdiag_subdets(result.matrix)
        assert not report.has_zero_det
        assert 0 not in report.det_set
        # the witness skeleton support is respected
        for i in range(8):
            for j in range(8):
                if not skeleton.support[i][j]:
                    assert result.matrix[i][j] == 0
                else:
                    assert result.matrix[i][j] != 0
                    assert abs(result.matrix[i][j]) <= 2

    def test_deterministic_given_seed(self, matrix19):
        skeleton = Skeleton.from_matrix(matrix19.gamma)
        first = search_weights(skeleton, 2, 123, 10**4)
        second = search_weights(skeleton, 2, 123, 10**4)
        assert first == second

    def test_starved_row_fails_immediately(self):
        skeleton = Skeleton(
            ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))
        )
        result = search_weights(skeleton, 2, 0, 10**3)
        assert not result.success
        assert result.attempts == 0

    def test_complete_four_vertex_skeleton(self):
        # exhaustive oracle: no +-1 assignment makes all three block
        # determinants nonzero (the three pair products live in {-1, +1} and
        # would need to be pairwise distinct), so the bound-1 search must
        # exhaust its budget; bound 2 succeeds
        complete = Skeleton(
            tuple(
                tuple(0 if i == j else 1 for j in range(4)) for i in range(4)
            )
        )
        witnesses = []
        for signs in itertools.product((-1, 1), repeat=6):
            ((a, b, c), (d, e), (f,)) = (signs[0:3], signs[3:5], signs[5:6])
            gamma = [
                [0, a, b, c],
                [a, 0, d, e],
                [b, d, 0, f],
                [c, e, f, 0],
            ]
            if not offdiag_subdets(gamma).has_zero_det:
                witnesses.append(gamma)
        assert witnesses == []
        bound1 = search_weights(complete, 1, 0, 10**3)
        assert not bound1.success
        assert bound1.attempts == 10**3
        bound2 = search_weights(complete, 2, 0, 10**3)
        assert bound2.success
        # pinned from the one-attempt-at-a-time search
        assert bound2.attempts == 1
        assert bound2.matrix == ((0, -2, 1, -1), (-2, 0, 1, -2), (1, 1, 0, -1), (-1, -2, -1, 0))

    @pytest.mark.parametrize(
        "name",
        [
            "search-first-attempt",
            "search-attempt-32",
            "search-attempt-33",
            "search-attempt-97",
            "search-exhausted",
        ],
    )
    def test_pinned_matrix19_searches(self, name, matrix19):
        # stdout of the one-attempt-at-a-time search; tests/test_cli.py
        # checks the same commands byte for byte
        pinned = json.loads((GOLDEN / f"{name}.json").read_text())
        skeleton = Skeleton.from_matrix(matrix19.gamma)
        result = search_weights(skeleton, pinned["bound"], pinned["seed"], pinned["budget"])
        assert result.attempts == pinned["attempts"]
        assert result.matrix == (
            tuple(map(tuple, pinned["matrix"])) if pinned["found"] else None
        )

    def test_pinned_searches_straddle_a_batch(self):
        attempts = {
            json.loads(path.read_text())["attempts"] for path in GOLDEN.glob("search-*.json")
        }
        assert {1, SEARCH_CHUNK, SEARCH_CHUNK + 1} <= attempts
        # batches double: the third starts after SEARCH_CHUNK + 2 * SEARCH_CHUNK
        assert 3 * SEARCH_CHUNK + 1 in attempts

    @pytest.mark.parametrize(
        "graph, bound, seeds, budget",
        [
            ("matrix19", 2, range(12), 100),
            ("matrix19", 1, range(2), 70),
            ("matrix19", 10**3, range(3), 5),  # past the int64 guard
            ("wheel", 1, range(12), 100),
            ("k4", 1, range(2), 40),
            ("matrix19", 64, range(10), 20),  # 2 * bound = 2**7: half the words accepted
            ("matrix19", 107, range(10), 20),  # largest bound inside the int64 guard
            ("matrix19", 108, range(3), 5),  # smallest bound past it
            ("two", 2**31 - 1, range(10), 3),  # k = 32: the whole word is the draw
            ("two", 2**30, range(10), 3),
            # budgets ending on each side of the batch boundaries 32, 96, 224, 480
            *(("matrix19", 1, range(2), budget) for budget in (31, 33, 95, 97, 223, 225, 479, 481)),
            ("matrix19", 2, [79073], 96),  # first hit at attempt 97
            ("matrix19", 2, [79073], 97),
        ],
    )
    def test_matches_one_attempt_at_a_time(self, graph, bound, seeds, budget):
        gamma = {
            "matrix19": matrix19_code().gamma,
            "wheel": wheel_code().gamma,
            "k4": [[int(i != j) for j in range(4)] for i in range(4)],
            "two": [[0, 1], [1, 0]],
        }[graph]
        skeleton = Skeleton.from_matrix(gamma)
        for seed in seeds:
            result = search_weights(skeleton, bound, seed, budget)
            assert (result.attempts, result.matrix) == reference_search(
                skeleton, bound, seed, budget
            )

    def test_draw_cases_sit_on_the_guard_edges(self):
        # the bounds 107, 108 and 2**31 - 1 above are chosen by these edges
        assert det_fits_int64(4, 107) and not det_fits_int64(4, 108)
        assert det_fits_int64(1, 2**31 - 1) and not det_fits_int64(1, 2**31)

    @pytest.mark.parametrize("bound, spare", [(1, 16), (3, 4)])
    def test_rows_out_of_words_redraw_with_choice(self, monkeypatch, matrix19, bound, spare):
        # so few words per attempt that about half the rows run short
        monkeypatch.setattr(singleton, "_draw_words", lambda count: count + spare)
        drawn, redrawn = [], []
        stream_draws, choice_draws = singleton._stream_draws, singleton._choice_draws

        def streaming(rng, keys, n, count):
            drawn.extend(keys)
            return stream_draws(rng, keys, n, count)

        def choosing(rng, key, n, count):
            redrawn.append(key)
            return choice_draws(rng, key, n, count)

        monkeypatch.setattr(singleton, "_stream_draws", streaming)
        monkeypatch.setattr(singleton, "_choice_draws", choosing)
        skeleton = Skeleton.from_matrix(matrix19.gamma)
        for seed in range(6):
            result = search_weights(skeleton, bound, seed, 100)
            assert (result.attempts, result.matrix) == reference_search(
                skeleton, bound, seed, 100
            )
        assert 0 < len(redrawn) < len(drawn)

    def test_huge_bound_draws_without_a_weight_list(self, matrix19):
        skeleton = Skeleton.from_matrix(matrix19.gamma)
        bound = 2**62 - 1
        result = search_weights(skeleton, bound, 0, 3)
        assert result.success
        weights = [result.matrix[i][j] for i, j in skeleton.free_positions]
        assert all(type(w) is int and 0 < abs(w) <= bound for w in weights)
        for block, comp in singleton._partitions(8):
            assert det_exact([[result.matrix[i][j] for j in comp] for i in block]) != 0

    def test_bad_arguments(self, matrix19):
        skeleton = Skeleton.from_matrix(matrix19.gamma)
        with pytest.raises(ValueError):
            search_weights(skeleton, 0, 0, 10)
        with pytest.raises(ValueError):
            search_weights(skeleton, 2**62, 0, 10)
        with pytest.raises(ValueError):
            search_weights(skeleton, 2, 0, -1)


class TestCensus:
    def test_eight_vertices_pinned(self):
        assert graph_census(8) == CENSUS_8_CLASSES

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_batched_predicate_matches_per_graph(self, n):
        assert graph_census(n) == graph_census(n, predicate=reference_unimodular)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_unimodular_block_table(self, m):
        # no census up to n = 8 tells a block of determinant +-2 from a
        # unimodular one, so the table is checked directly
        table = singleton._unimodular_blocks(m)
        assert table.shape == (1 << (m * m),)
        keys = range(table.size) if m < 4 else random.Random(93).sample(range(table.size), 3000)
        for key in keys:
            block = [[key >> (i * m + j) & 1 for j in range(m)] for i in range(m)]
            assert table[key] == (abs(det_exact(block)) == 1)

    def test_predicate_matches_reference(self):
        rng = random.Random(91)
        for n in (2, 4, 6, 8):
            for _ in range(200):
                gamma = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        gamma[i][j] = gamma[j][i] = rng.choice((-1, 0, 1, 1, 2))
                assert unimodular_offdiag_predicate(gamma) == reference_unimodular(gamma)

    def test_canonical_bits_matches_reference(self):
        rng = random.Random(92)
        for n in range(8):
            for _ in range(3 if n == 7 else 20):
                gamma = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        gamma[i][j] = gamma[j][i] = rng.randint(0, 1)
                assert canonical_bits(gamma) == reference_canonical_bits(gamma)

    def test_canonical_bits_rejects_large_graphs(self):
        with pytest.raises(ValueError):
            canonical_bits([[0] * 9 for _ in range(9)])

    def test_two_vertices(self):
        classes = graph_census(2)
        assert classes == (((0, 1), (1, 0)),)

    def test_four_vertices_pinned(self):
        assert graph_census(4) == CENSUS_4_CLASSES

    def test_six_vertices(self, wheel):
        classes = graph_census(6)
        assert len(classes) == 2
        bits = {adjacency_bits(g) for g in classes}
        assert canonical_bits(wheel.gamma) in bits
        assert SECOND_SIXFOLD_CLASS_BITS in bits

    def test_six_vertex_classes_differ(self):
        classes = graph_census(6)
        edge_counts = sorted(sum(sum(row) for row in g) // 2 for g in classes)
        assert edge_counts == [9, 10]  # the wheel has 10 edges

    def test_classes_closed_under_isomorphism(self):
        rng = random.Random(77)
        for gamma in graph_census(6):
            n = len(gamma)
            for _ in range(10):
                perm = list(range(n))
                rng.shuffle(perm)
                relabeled = tuple(
                    tuple(gamma[perm[i]][perm[j]] for j in range(n))
                    for i in range(n)
                )
                assert unimodular_offdiag_predicate(relabeled)
                assert canonical_bits(relabeled) == canonical_bits(gamma)

    def test_custom_predicate(self):
        # graphs whose every vertex has odd degree, up to isomorphism
        def odd_degrees(gamma):
            return all(sum(row) % 2 == 1 for row in gamma)

        classes = graph_census(4, predicate=odd_degrees)
        assert len(classes) == 3  # perfect matching, star, K4

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            graph_census(5)
        with pytest.raises(ValueError):
            graph_census(10)


class TestDetectorConsistency:
    """Good primes below the bad set must yield working codes at both input
    counts allowed by the block size."""

    @pytest.mark.parametrize("d", [7, 13])
    def test_single_input_three_errors(self, d):
        graph = matrix19_code((0,))
        group = make_group([d])
        for config in itertools.combinations(graph.outputs, 3):
            assert strong_detects(graph, group, config)
        assert detects_errors(graph, group, 3).all_detected

    @pytest.mark.parametrize("d", [7, 13])
    def test_two_inputs_two_errors(self, d):
        graph = matrix19_code((0, 1))
        group = make_group([d])
        for config in itertools.combinations(graph.outputs, 2):
            assert strong_detects(graph, group, config)
        assert detects_errors(graph, group, 2).all_detected

    def test_search_witness_feeds_detector(self):
        skeleton = Skeleton.from_matrix(matrix19_code().gamma)
        result = search_weights(skeleton, 2, 0, 10**5)
        assert result.success
        report = offdiag_subdets(result.matrix)
        good = [p for p in range(2, 51) if is_prime(p) and p not in report.bad_primes]
        assert good
        from graphqec.graphcode import WeightedGraph

        graph = WeightedGraph(result.matrix, (0,))
        assert detects_errors(graph, make_group([good[0]]), 3).all_detected
