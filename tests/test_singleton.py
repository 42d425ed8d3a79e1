from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    det_exact,
    gamma_from_bits,
    half_partitions,
    reference_canonical_bits,
    strong_detects,
)

from graphqec.abelian import FiniteAbelianGroup
from graphqec.detector import detects_errors
from graphqec.zmodlinalg import det_fits_int64, is_prime, prime_factors
from graphqec import singleton, zmodlinalg
from graphqec.graphcode import WeightedGraph, matrix19_code, wheel_code
from graphqec.singleton import (
    SEARCH_CHUNK,
    adjacency_bits,
    graph_census,
    offdiag_subdets,
    search_weights,
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


MASK64 = 2**64 - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def reference_mix(z):
    """SplitMix64 finalizer on a Python int below 2**64."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
    return z ^ z >> 31


def seed_key(seed):
    """The stream key of a search seed."""
    return int.from_bytes(hashlib.blake2b(str(seed).encode(), digest_size=8).digest(), "little")


def reference_draws(seed, attempt, n, count):
    """Reference: the first ``count`` tries below n of one attempt's word
    stream, one word at a time on Python ints."""
    row = reference_mix((seed_key(seed) + (attempt + 1) * GOLDEN_GAMMA) & MASK64)
    out, t = [], 0
    while len(out) < count:
        t += 1
        x = reference_mix((row + t * GOLDEN_GAMMA) & MASK64) >> (64 - n.bit_length())
        if x < n:
            out.append(x)
    return out


def nonzero_positions(skeleton):
    """Positions (i, j), i < j, of the nonzero entries, row by row."""
    size = len(skeleton)
    return [(i, j) for i in range(size) for j in range(i + 1, size) if skeleton[i][j]]


def reference_search(skeleton, weight_bound, seed, budget):
    """Reference: one attempt at a time, det_exact per block, early exit."""
    size = len(skeleton)
    parts = list(half_partitions(size))
    positions = nonzero_positions(skeleton)
    for attempt in range(budget):
        draws = reference_draws(seed, attempt, 2 * weight_bound, len(positions))
        gamma = [[0] * size for _ in range(size)]
        for (i, j), r in zip(positions, draws):
            # r indexes -bound..-1, 1..bound
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
        for block, comp in half_partitions(n)
    )


def reference_census(n):
    """Reference census: the determinant test on every graph, one graph at a
    time, then one canonical form per passing graph."""
    nbits = n * (n - 1) // 2
    keys = set()
    for code in range(1 << nbits):
        gamma = gamma_from_bits(n, format(code, f"0{nbits}b"))
        if reference_unimodular(gamma):
            keys.add(reference_canonical_bits(gamma))
    return tuple(gamma_from_bits(n, bits) for bits in sorted(keys))


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
        monkeypatch.setattr(zmodlinalg, "_RHO_STEPS", 1000)
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
        # each partition by its block holding 0, in lexicographic order
        assert list(report.partitions) == [block for block, _ in half_partitions(8)]

    def test_zero_matrix_sentinel(self):
        zero = [[0] * 4 for _ in range(4)]
        report = offdiag_subdets(zero)
        assert report.has_zero_det
        assert report.det_set == (0,)
        assert report.to_dict()["bad_primes"] == "all"

    def test_zero_det_reports_all_without_factoring(self):
        # the other two determinants are 2**89 - 1, a prime past the proven
        # Miller-Rabin range: only the bad primes themselves factor it
        w = 2**89
        report = offdiag_subdets([[0, w, 1, 1], [w, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        assert report.dets == (0, w - 1, w - 1)
        assert report.to_dict()["bad_primes"] == "all"
        with pytest.raises(ValueError, match="cannot certify"):
            report.bad_primes

    def test_rejects_odd_or_asymmetric(self):
        with pytest.raises(ValueError):
            offdiag_subdets([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        with pytest.raises(ValueError):
            offdiag_subdets([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            offdiag_subdets([[1, 1], [1, 0]])

    def test_stack_dtype_follows_weights(self, matrix19, monkeypatch):
        # int64 weights give det_batch an int64 stack, whose guard bound numpy
        # reads; only weights past int64 need an object stack
        dtypes = []

        def spy(blocks):
            dtypes.append(blocks.dtype)
            return det_batch(blocks)

        det_batch = singleton.det_batch
        monkeypatch.setattr(singleton, "det_batch", spy)
        assert offdiag_subdets(matrix19.gamma).det_set == PUBLISHED_DET_SET
        assert dtypes == [np.int64]
        w = 2**70
        assert offdiag_subdets([[0, w], [w, 0]]).dets == (w,)
        assert dtypes == [np.int64, object]

    def test_report_dict(self, matrix19):
        payload = offdiag_subdets(matrix19.gamma).to_dict()
        assert payload["m"] == 4
        assert payload["bad_primes"] == [2, 3, 5, 11]
        assert len(payload["partitions"]) == 35
        assert all({"I", "det"} == set(p) for p in payload["partitions"])


def random_symmetric(size: int, seed: int, weight=1, stack=()):
    """Symmetric matrices with zero diagonal and entries in weight * [-3, 3],
    an int64 array, or an object array of Python ints past int64."""
    upper = np.triu(np.random.default_rng(seed).integers(-3, 4, stack + (size, size)), 1)
    gammas = upper + np.swapaxes(upper, -1, -2)
    return gammas * weight if weight < 2**62 else gammas.astype(object) * weight


class TestPartitionArrays:
    @pytest.mark.parametrize("size", [2, 4, 6, 8, 10, 12])
    def test_blocks_and_complements_in_order(self, size):
        blocks, comps = singleton._partition_arrays(size)
        assert blocks.dtype == comps.dtype == np.intp
        want = list(half_partitions(size))
        assert blocks.tolist() == [list(block) for block, _ in want]
        assert comps.tolist() == [list(comp) for _, comp in want]


class TestOffdiagDets:
    """Sliced gathers against one unsliced det_batch call, with
    _STACK_ENTRIES small enough that slices split the partition list."""

    @pytest.mark.parametrize("entries", [10, 300])
    @pytest.mark.parametrize("stack", [(), (3,)])
    @pytest.mark.parametrize("weight", [1, 2**70])
    def test_slices_match_one_batch(self, monkeypatch, entries, stack, weight):
        size, m = 10, 5
        gammas = random_symmetric(size, 7, weight, stack)
        blocks, comps = singleton._partition_arrays(size)
        whole = zmodlinalg.det_batch(
            gammas[..., blocks[:, :, None], comps[:, None, :]].reshape(-1, m, m)
        ).reshape(stack + (-1,))
        assert whole.dtype == (np.int64 if weight == 1 else object)
        sliced = []

        def spy(stacked):
            sliced.append(stacked.shape[0])
            return zmodlinalg.det_batch(stacked)

        monkeypatch.setattr(singleton, "det_batch", spy)
        monkeypatch.setattr(singleton, "_STACK_ENTRIES", entries)
        dets = singleton._offdiag_dets(gammas, blocks, comps)
        assert dets.shape == whole.shape == stack + (len(blocks),)
        assert dets.dtype == whole.dtype
        assert dets.tolist() == whole.tolist()
        # each slice holds at most `entries` block entries, or one partition
        matrices = math.prod(stack)
        assert len(sliced) > 1
        assert sum(sliced) == matrices * len(blocks)
        assert all(n * m * m <= max(entries, matrices * m * m) for n in sliced)


def strongly_ec(gamma, p: int) -> bool:
    """Strong error correction modulo the prime p: no block determinant of
    the report vanishes modulo p.  No determinant is factored."""
    return all(det % p for det in offdiag_subdets(gamma).dets)


class TestStronglyEc:
    def test_published_primes(self, matrix19):
        assert strongly_ec(matrix19.gamma, 7)
        assert not strongly_ec(matrix19.gamma, 11)
        assert strongly_ec(matrix19.gamma, 13)
        for p in (2, 3, 5):
            assert not strongly_ec(matrix19.gamma, p)


def restricted_bad_primes(gamma, fixed_inputs):
    report = offdiag_subdets(gamma, fixed_inputs)
    assert not report.has_zero_det
    return report.bad_primes


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
        report = offdiag_subdets(matrix19.gamma, (0, 1))
        assert len(report.partitions) == math.comb(6, 2)
        for block in report.partitions:
            assert {0, 1} <= set(block) or {0, 1}.isdisjoint(block)

    @pytest.mark.parametrize("size", [8, 10])
    def test_mask_matches_set_rule(self, monkeypatch, size):
        # content and order for every fixed set of size <= m, and no
        # restricted report gathers more partitions than it keeps
        gamma = random_symmetric(size, size).tolist()
        full = offdiag_subdets(gamma)
        det_of = dict(zip(full.partitions, full.dets))
        gathered = []

        def spy(gammas, blocks, comps):
            gathered.append(len(blocks))
            return offdiag_dets(gammas, blocks, comps)

        offdiag_dets = singleton._offdiag_dets
        monkeypatch.setattr(singleton, "_offdiag_dets", spy)
        for k in range(size // 2 + 1):
            for fixed in itertools.combinations(range(size), k):
                keep = set(fixed)
                want = [block for block, _ in half_partitions(size)
                        if keep <= set(block) or keep.isdisjoint(block)]
                report = offdiag_subdets(gamma, fixed[::-1])
                assert list(report.partitions) == want
                assert report.dets == tuple(det_of[block] for block in want)
                assert gathered.pop() == len(want) <= len(full.partitions)

    def test_too_many_inputs_rejected(self, matrix19):
        with pytest.raises(ValueError):
            offdiag_subdets(matrix19.gamma, (0, 1, 2, 3, 4))

    def test_non_integral_input_rejected(self, matrix19):
        with pytest.raises(ValueError, match="fixed inputs must be integers, got 0.5"):
            offdiag_subdets(matrix19.gamma, (0.5,))


def cycle(size: int) -> tuple[tuple[int, ...], ...]:
    """Adjacency matrix of the cycle on ``size`` vertices."""
    return tuple(
        tuple(1 if (i - j) % size in (1, size - 1) else 0 for j in range(size))
        for i in range(size)
    )


class TestPartitionCap:
    """26 vertices have 5,200,300 half-half partitions, over the 2**22 cap;
    24 have 1,352,078, under it."""

    @pytest.fixture
    def no_listing(self, monkeypatch):
        def refuse(size):
            raise AssertionError("partitions listed past the cap")

        monkeypatch.setattr(singleton, "_partition_arrays", refuse)

    def test_reports_refuse_26_vertices(self, no_listing):
        with pytest.raises(ValueError, match="5200300 half-half partitions.*4194304"):
            offdiag_subdets(cycle(26))
        with pytest.raises(ValueError, match="5200300 half-half partitions"):
            offdiag_subdets(cycle(26), (0,))

    def test_skeleton_refuses_26_vertices_when_built(self, no_listing):
        # the skeleton is read before the bound, seed and budget
        with pytest.raises(ValueError, match="5200300 half-half partitions.*4194304"):
            search_weights(cycle(26), 0, 0.5, -1)

    def test_search_refuses_26_vertices(self, no_listing):
        with pytest.raises(ValueError, match="5200300 half-half partitions"):
            search_weights(cycle(26), 2, 0, 10)

    def test_search_accepts_24_vertices(self, no_listing):
        # a cycle starves every row, so the search ends before any listing
        result = search_weights(cycle(24), 2, 0, 10)
        assert not result.success and result.attempts == 0


class TestSearchInput:
    def test_reads_only_the_nonzero_pattern(self, matrix19):
        pattern = tuple(tuple(int(x != 0) for x in row) for row in matrix19.gamma)
        assert pattern != matrix19.gamma
        for seed in range(6):
            assert search_weights(matrix19.gamma, 2, seed, 100) == search_weights(
                pattern, 2, seed, 100
            )
        assert search_weights(((0, -3), (-3, 0)), 2**40, 0, 1) == search_weights(
            ((0, 1), (1, 0)), 2**40, 0, 1
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            search_weights(((1, 0), (0, 0)), 2, 0, 10)
        with pytest.raises(ValueError):
            search_weights(((0, 1, 0), (1, 0, 1), (0, 1, 0)), 2, 0, 10)

    def test_size_messages_name_the_matrix(self):
        with pytest.raises(ValueError, match="^skeleton size must be even and positive, got 3$"):
            search_weights(((0, 1, 0), (1, 0, 1), (0, 1, 0)), 2, 0, 10)
        with pytest.raises(ValueError, match="^matrix size must be even and positive, got 0$"):
            offdiag_subdets(())


class TestSearchWeights:
    def test_eq19_skeleton_succeeds(self, matrix19):
        skeleton = matrix19.gamma
        result = search_weights(skeleton, 2, 0, 10**5)
        assert result.success
        assert 0 < result.attempts <= 10**5
        report = offdiag_subdets(result.matrix)
        assert not report.has_zero_det
        assert 0 not in report.det_set
        # the witness skeleton support is respected
        for i in range(8):
            for j in range(8):
                if not skeleton[i][j]:
                    assert result.matrix[i][j] == 0
                else:
                    assert result.matrix[i][j] != 0
                    assert abs(result.matrix[i][j]) <= 2

    def test_deterministic_given_seed(self, matrix19):
        skeleton = matrix19.gamma
        first = search_weights(skeleton, 2, 123, 10**4)
        second = search_weights(skeleton, 2, 123, 10**4)
        assert first == second

    def test_starved_row_fails_immediately(self):
        skeleton = ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))
        result = search_weights(skeleton, 2, 0, 10**3)
        assert not result.success
        assert result.attempts == 0

    def test_complete_four_vertex_skeleton(self):
        # exhaustive oracle: no +-1 assignment makes all three block
        # determinants nonzero (the three pair products live in {-1, +1} and
        # would need to be pairwise distinct), so the bound-1 search must
        # exhaust its budget; bound 2 succeeds
        complete = tuple(
            tuple(0 if i == j else 1 for j in range(4)) for i in range(4)
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
        assert bound2.matrix == ((0, -1, -1, -1), (-1, 0, 1, -1), (-1, 1, 0, 2), (-1, -1, 2, 0))

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
        result = search_weights(
            matrix19.gamma, pinned["bound"], pinned["seed"], pinned["budget"]
        )
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
            ("two", 2**31 - 1, range(10), 3),  # k = 32, the largest bound inside the m = 1 guard
            ("two", 2**30, range(10), 3),
            # budgets ending on each side of the batch boundaries 32, 96, 224, 480
            *(("matrix19", 1, range(2), budget) for budget in (31, 33, 95, 97, 223, 225, 479, 481)),
            ("matrix19", 2, [79073, 94274], 96),  # 94274: first hit at attempt 97
            ("matrix19", 2, [79073, 94274], 97),
            ("two", 2**62 - 1, range(10), 3),  # 2 * bound < 2**63: 63-bit tries
        ],
    )
    def test_matches_one_attempt_at_a_time(self, graph, bound, seeds, budget):
        gamma = {
            "matrix19": matrix19_code().gamma,
            "wheel": wheel_code().gamma,
            "k4": [[int(i != j) for j in range(4)] for i in range(4)],
            "two": [[0, 1], [1, 0]],
        }[graph]
        for seed in seeds:
            result = search_weights(gamma, bound, seed, budget)
            assert (result.attempts, result.matrix) == reference_search(
                gamma, bound, seed, budget
            )

    def test_draw_cases_sit_on_the_guard_edges(self):
        # the bounds 107, 108 and 2**31 - 1 above are chosen by these edges
        assert det_fits_int64(4, 107) and not det_fits_int64(4, 108)
        assert det_fits_int64(1, 2**31 - 1) and not det_fits_int64(1, 2**31)

    @pytest.mark.parametrize("bound, spare", [(1, 16), (3, 4)])
    def test_short_rows_reread_the_same_stream(self, monkeypatch, matrix19, bound, spare):
        # so few words per attempt that about half the rows run short
        monkeypatch.setattr(singleton, "_draw_words", lambda count: count + spare)
        widths = []
        mix = singleton._mix

        def mixing(z):
            if z.ndim == 2:
                widths.extend([z.shape[1]] * z.shape[0])
            return mix(z)

        monkeypatch.setattr(singleton, "_mix", mixing)
        skeleton = matrix19.gamma
        for seed in range(6):
            result = search_weights(skeleton, bound, seed, 100)
            assert (result.attempts, result.matrix) == reference_search(
                skeleton, bound, seed, 100
            )
        first = len(nonzero_positions(skeleton)) + spare
        reread = sum(width > first for width in widths)
        assert 0 < reread < widths.count(first)

    def test_draws_do_not_depend_on_the_batch(self):
        key = np.uint64(seed_key(5))
        whole = singleton._draws(key, range(0, 40), 7, 9)
        assert whole.shape == (40, 9)
        for cuts in ([0, 1, 40], [0, 17, 18, 40], [0, 13, 26, 39, 40]):
            parts = [singleton._draws(key, range(a, b), 7, 9) for a, b in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(parts), whole)
        assert whole[3].tolist() == reference_draws(5, 3, 7, 9)

    @pytest.mark.parametrize("n", [6, 2**62 + 3])
    def test_draws_are_uniform(self, n):
        draws = singleton._draws(np.uint64(seed_key(11)), range(600), n, 100)
        assert draws.min() >= 0 and draws.max() < n
        buckets = np.bincount((draws % 6).ravel(), minlength=6)
        assert np.all(np.abs(buckets - 10_000) <= 300), buckets

    def test_every_int_seed_has_its_own_stream(self):
        # every attempt on one edge succeeds, so the first attempt shows
        skeleton = ((0, 1), (1, 0))
        seeds = (0, -1, 2**64 - 1, 2**64)
        firsts = set()
        for seed in seeds:
            result = search_weights(skeleton, 2**40, seed, 1)
            assert (result.attempts, result.matrix) == reference_search(skeleton, 2**40, seed, 1)
            firsts.add(result.matrix)
        assert len(firsts) == len(seeds)

    def test_huge_bound_draws_without_a_weight_list(self, matrix19):
        skeleton = matrix19.gamma
        bound = 2**62 - 1
        result = search_weights(skeleton, bound, 0, 3)
        assert result.success
        weights = [result.matrix[i][j] for i, j in nonzero_positions(skeleton)]
        assert all(type(w) is int and 0 < abs(w) <= bound for w in weights)
        for block, comp in half_partitions(8):
            assert det_exact([[result.matrix[i][j] for j in comp] for i in block]) != 0

    def test_bad_arguments(self, matrix19):
        skeleton = matrix19.gamma
        with pytest.raises(ValueError):
            search_weights(skeleton, 0, 0, 10)
        with pytest.raises(ValueError):
            search_weights(skeleton, 2**62, 0, 10)
        with pytest.raises(ValueError):
            search_weights(skeleton, 2, 0, -1)

    @pytest.mark.parametrize("arguments", [(1.5, 0, 3), (2, 0.5, 3), (2, 0, 2.5)])
    def test_non_integral_arguments_refused(self, matrix19, arguments):
        with pytest.raises(ValueError, match="search arguments must be integers"):
            search_weights(matrix19.gamma, *arguments)


class TestCensus:
    def test_eight_vertices_pinned(self):
        assert graph_census(8) == CENSUS_8_CLASSES

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_batched_predicate_matches_per_graph(self, n):
        assert graph_census(n) == reference_census(n)

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

    def test_canonical_bits_matches_reference(self):
        # the census's canonical key of a graph, read as a bit-string, is its
        # smallest adjacency bit-string over all relabellings
        rng = random.Random(92)
        for n in range(2, 8):
            for _ in range(3 if n == 7 else 20):
                gamma = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        gamma[i][j] = gamma[j][i] = rng.randint(0, 1)
                bits = adjacency_bits(gamma)
                key, _ = singleton._orbit(n, int(bits, 2))
                assert format(key, f"0{len(bits)}b") == reference_canonical_bits(gamma)

    def test_two_vertices(self):
        classes = graph_census(2)
        assert classes == (((0, 1), (1, 0)),)

    def test_four_vertices_pinned(self):
        assert graph_census(4) == CENSUS_4_CLASSES

    def test_six_vertices(self, wheel):
        classes = graph_census(6)
        assert len(classes) == 2
        bits = {adjacency_bits(g) for g in classes}
        assert reference_canonical_bits(wheel.gamma) in bits
        assert SECOND_SIXFOLD_CLASS_BITS in bits

    def test_six_vertex_classes_differ(self):
        classes = graph_census(6)
        edge_counts = sorted(sum(sum(row) for row in g) // 2 for g in classes)
        assert edge_counts == [9, 10]  # the wheel has 10 edges

    def test_six_vertex_codes_meet_singleton_bound(self):
        # Each class with every input set of size k <= 2 up to automorphism
        # is a [[6-k, k]] code; it detects every configuration of size
        # <= 3 - k, and for k >= 1 not every one of size 4 - k ([[6,0]]
        # also detects size 4 here, which the bound does not ask for).
        groups = [[2], [3], [4], [5], [2, 2], [6], [7], [8], [9], [2, 4], [3, 3],
                  [10], [11], [12], [13]]
        representatives = []
        for gamma in graph_census(6):
            autos = [
                perm for perm in itertools.permutations(range(6))
                if all(gamma[perm[u]][perm[v]] == gamma[u][v] for u in range(6) for v in range(6))
            ]
            orbits = {
                min(tuple(sorted(perm[v] for v in inputs)) for perm in autos)
                for k in range(3)
                for inputs in itertools.combinations(range(6), k)
            }
            representatives.append(len(orbits))
            for inputs in sorted(orbits):
                graph = WeightedGraph(gamma, inputs)
                t = 3 - len(inputs)
                for factors in groups:
                    report = detects_errors(graph, FiniteAbelianGroup(factors), t + bool(inputs))
                    assert not any(report.sizes[: t + 1]), (inputs, factors)
                    if inputs:
                        assert report.sizes[t + 1], (inputs, factors)
        assert sorted(representatives) == [5, 6]

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
                assert reference_unimodular(relabeled)
                assert reference_canonical_bits(relabeled) == reference_canonical_bits(gamma)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            graph_census(5)
        with pytest.raises(ValueError):
            graph_census(10)

    def test_non_integral_vertex_count_refused(self):
        with pytest.raises(ValueError, match="census vertex count must be integers, got 6.0"):
            graph_census(6.0)


class TestDetectorConsistency:
    """Good primes below the bad set must yield working codes at both input
    counts allowed by the block size."""

    @pytest.mark.parametrize("d", [7, 13])
    def test_single_input_three_errors(self, d):
        graph = matrix19_code()
        group = FiniteAbelianGroup([d])
        for config in itertools.combinations(graph.outputs, 3):
            assert strong_detects(graph, group, config)
        assert detects_errors(graph, group, 3).all_detected

    @pytest.mark.parametrize("d", [7, 13])
    def test_two_inputs_two_errors(self, d):
        graph = matrix19_code().with_inputs((0, 1))
        group = FiniteAbelianGroup([d])
        for config in itertools.combinations(graph.outputs, 2):
            assert strong_detects(graph, group, config)
        assert detects_errors(graph, group, 2).all_detected

    def test_search_witness_feeds_detector(self):
        result = search_weights(matrix19_code().gamma, 2, 0, 10**5)
        assert result.success
        report = offdiag_subdets(result.matrix)
        good = [p for p in range(2, 51) if is_prime(p) and p not in report.bad_primes]
        assert good
        from graphqec.graphcode import WeightedGraph

        graph = WeightedGraph(result.matrix, (0,))
        assert detects_errors(graph, FiniteAbelianGroup([good[0]]), 3).all_detected


PRIMES_BELOW_200 = [p for p in range(200) if is_prime(p)]


class TestDeterminantRouteMatchesKernelRoute:
    """The bad primes of the block determinants are exactly the primes over
    which matrix19 fails to detect, and strong detection over a prime is the
    nonvanishing of every block determinant modulo it."""

    def test_single_input_three_errors_iff_good_prime(self, matrix19):
        bad = offdiag_subdets(matrix19.gamma).bad_primes
        assert bad == PUBLISHED_BAD_PRIMES
        graph = matrix19_code()
        for p in PRIMES_BELOW_200:
            assert detects_errors(graph, FiniteAbelianGroup([p]), 3).all_detected == (p not in bad), p

    def test_two_inputs_two_errors_iff_good_prime(self, matrix19):
        bad = offdiag_subdets(matrix19.gamma, (0, 1)).bad_primes
        assert bad == {2, 5}
        graph = matrix19_code().with_inputs((0, 1))
        for p in PRIMES_BELOW_200:
            assert detects_errors(graph, FiniteAbelianGroup([p]), 2).all_detected == (p not in bad), p

    def test_strongly_ec_iff_every_partition_strongly_detects(self):
        rng = random.Random(2024)
        primes = [p for p in PRIMES_BELOW_200 if p <= 31]
        seen = set()
        for _ in range(120):
            m = rng.randint(1, 4)
            size = 2 * m
            gamma = [[0] * size for _ in range(size)]
            for i, j in itertools.combinations(range(size), 2):
                gamma[i][j] = gamma[j][i] = rng.randint(-3, 3)
            p = rng.choice(primes)
            # block holds vertex 0, the input; the rest of it are the errors
            graph = WeightedGraph(gamma, (0,))
            strong = all(
                strong_detects(graph, FiniteAbelianGroup([p]), block[1:])
                for block in ((0, *rest) for rest in itertools.combinations(range(1, size), m - 1))
            )
            report = offdiag_subdets(gamma)
            assert all(det % p for det in report.dets) == strong
            assert (not report.has_zero_det and p not in report.bad_primes) == strong
            seen.add((m, strong))
        assert {(m, strong) for m in (2, 3, 4) for strong in (False, True)} <= seen

    def test_strongly_ec_needs_no_factoring(self):
        # bound 10**12 gives determinants with a cofactor that cannot be
        # certified prime, so the report's bad primes and dict refuse them
        matrix = search_weights(matrix19_code().gamma, 10**12, seed=0, budget=3).matrix
        report = offdiag_subdets(matrix)
        with pytest.raises(ValueError, match="cannot certify"):
            report.bad_primes
        with pytest.raises(ValueError, match="cannot certify"):
            report.to_dict()
        blocks = [
            [[matrix[i][j] for j in range(8) if j not in block] for i in block]
            for block in ((0, *rest) for rest in itertools.combinations(range(1, 8), 3))
        ]
        assert report.dets == tuple(map(det_exact, blocks))
        for p in (7, 11, 13):
            assert strongly_ec(matrix, p) == all(det_exact(b) % p for b in blocks)
        assert strongly_ec(((0, 0), (0, 0)), 2) is False


@pytest.mark.parametrize("fixed", [(8,), (-1,), (0, 9)])
def test_restricted_inputs_out_of_range(matrix19, fixed):
    with pytest.raises(ValueError, match="out of range"):
        offdiag_subdets(matrix19.gamma, fixed)
