from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from helpers import (
    all_vectors,
    brute_force_kernel,
    det_exact,
    kernel_mod,
    kernel_trivial,
    smith_normal_form,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqec import zmodlinalg
from graphqec.zmodlinalg import (
    _reduce,
    _residue_dtype,
    _valuation,
    det_batch,
    det_fits_int64,
    fits_int64,
    is_prime,
    kernel_mod_batch,
    prime_powers,
)

# Property tests draw from a fixed seed with a fixed example count, so every
# run checks the same inputs.
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def cofactor_det(m):
    """Independent determinant oracle: Laplace expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def spanned_set(generators, d, ncols):
    """Every combination of the generators modulo d, by enumeration."""
    if not generators:
        return {(0,) * ncols}
    gens = np.array(generators, dtype=np.int64).reshape(len(generators), ncols) % d
    return set(map(tuple, (all_vectors(d, len(generators)) @ gens % d).tolist()))


def span_order(generators, d, ncols):
    """Order of the subgroup of Z_d^n the generators span: d**n over the
    index in Z^n of the lattice they span together with d Z^n, which is the
    product of that lattice's invariant factors."""
    lattice = [list(g) for g in generators]
    lattice += [[d if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    return d**ncols // math.prod(smith_normal_form(lattice, ncols=ncols).diagonal)


# Vectors the brute-force checks may enumerate.
BRUTE_FORCE_LIMIT = 2**15

# The elimination dtype of ``kernel_mod_batch`` per prime power, on each side
# of every width switch: residue products reach (q - 1)**2.
RESIDUE_WIDTH = {
    7: np.int8, 11: np.int8, 13: np.int16, 181: np.int16, 191: np.int32,
    46337: np.int32, 46349: np.int64, 3_037_000_493: np.int64, 3_037_000_507: object,
    2**3: np.int8, 2**4: np.int16, 2**7: np.int16, 2**8: np.int32,
    2**15: np.int32, 2**16: np.int64, 2**31: np.int64, 2**32: object, 3**5: np.int32,
}

M89 = 2**89 - 1  # prime, but past what Miller-Rabin to 13 bases certifies
# A strong pseudoprime to the first 13 prime bases, and its two factors.
PSI13 = 3_317_044_064_679_887_385_961_981
PSI13_FACTORS = (1_287_836_182_261, 2_575_672_364_521)


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def check_smith_form(a, snf) -> None:
    """The invariants that pin down a Smith normal form without U: with
    s_1 | s_2 | ... the diagonal and r its rank, v_inv is unimodular, column j
    of A * v_inv is divisible by s_j for j < r and zero from r on, and
    s_1 ... s_k is the gcd of the k x k minors of A.  Together these say
    A = U * S * V for a unimodular U."""
    rows, n = len(a), snf.ncols
    diag = snf.diagonal
    assert len(diag) == min(rows, n)
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert all(b % a_ == 0 for a_, b in zip(nonzero, nonzero[1:]))
    # zeros trail the nonzero invariant factors
    assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))
    v_inv = [list(r) for r in snf.v_inv]
    assert abs(det_exact(v_inv)) == 1
    for j in range(n):
        col = [sum(row[k] * v_inv[k][j] for k in range(n)) for row in a]
        if j < len(nonzero):
            assert all(x % diag[j] == 0 for x in col)
        else:
            assert not any(col)
    for k in range(1, len(diag) + 1):
        minors = [
            det_exact([[a[i][j] for j in cols] for i in rows_])
            for rows_ in itertools.combinations(range(rows), k)
            for cols in itertools.combinations(range(n), k)
        ]
        assert math.prod(diag[:k]) == math.gcd(*minors)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        snf = smith_normal_form([[2, 0], [0, 3]])
        assert snf.diagonal == (1, 6)

    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.diagonal == (0, 0)
        assert snf.v_inv == ((1, 0), (0, 1))

    def test_single_row(self):
        snf = smith_normal_form([[1, 1]])
        assert snf.diagonal == (1,)
        check_smith_form([[1, 1]], snf)

    def test_empty_rows(self):
        snf = smith_normal_form([], ncols=3)
        assert snf.diagonal == () and snf.ncols == 3
        assert snf.v_inv == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    @pytest.mark.parametrize("seed", range(40))
    def test_randomized_invariants(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, rows, cols)
        check_smith_form(a, smith_normal_form(a))

    def test_deterministic(self):
        a = [[4, -6, 2], [6, 3, 9], [0, 5, -5]]
        assert smith_normal_form(a) == smith_normal_form(a)

    @PROPERTY
    @given(
        st.integers(0, 4).flatmap(
            lambda cols: st.lists(
                st.lists(
                    st.integers(-4, 4) | st.integers(-(2**70), 2**70),
                    min_size=cols,
                    max_size=cols,
                ),
                max_size=4,
            ).map(lambda a: (a, cols))
        )
    )
    def test_invariants_property(self, case):
        a, cols = case
        check_smith_form(a, smith_normal_form(a, ncols=cols))


class TestKernelMod:
    def test_two_mod_four(self):
        assert kernel_mod([[2]], 4) == ((2,),)

    def test_ones_mod_two(self):
        assert kernel_mod([[1, 1]], 2) == ((1, 1),)

    def test_wheel_system_trivial(self):
        a = [[1, 0, 1], [1, 0, 0], [1, 1, 0]]
        assert not kernel_mod(a, 2)
        for d in (3, 4, 5, 6):
            assert kernel_trivial(a, d)

    def test_zero_rows_full_kernel(self):
        generators = kernel_mod([], 3, ncols=2)
        assert spanned_set(generators, 3, 2) == set(
            itertools.product(range(3), repeat=2)
        )

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            kernel_mod([[1]], 1)

    @pytest.mark.parametrize("seed", range(60))
    def test_generators_annihilated(self, seed):
        rng = random.Random(1000 + seed)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        d = rng.choice([2, 3, 4, 5, 6, 9])
        a = random_matrix(rng, rows, cols)
        generators = kernel_mod(a, d)
        assert len(generators) <= cols
        for gen in generators:
            assert len(gen) == cols
            assert all(0 <= x < d for x in gen)
            assert any(gen)
            assert all(
                sum(c * x for c, x in zip(row, gen)) % d == 0 for row in a
            )

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = random.Random(2000 + seed)
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        d = rng.choice([2, 3, 4, 5])
        a = random_matrix(rng, rows, cols)
        assert spanned_set(kernel_mod(a, d), d, cols) == brute_force_kernel(a, d, cols)

    def test_composite_modulus_exhaustive(self):
        # composite moduli exercise the non-field path
        for d in (4, 6, 9):
            for seed in range(8):
                rng = random.Random(3000 + 10 * d + seed)
                a = random_matrix(rng, 3, 3, -2, 2)
                assert spanned_set(kernel_mod(a, d), d, 3) == brute_force_kernel(a, d, 3)


def batch_generators(gens_array):
    """Nonzero rows of one system's block of ``kernel_mod_batch`` output."""
    return [tuple(int(x) for x in row) for row in gens_array if any(row)]


class TestKernelModBatch:
    @pytest.mark.parametrize(
        "d", [2, 3, 4, 6, 8, 9, 12, 30, 11, 13, 16, 2**7, 181, 191, 2**8, 3**5, 2**15, 2**16]
    )
    def test_spans_brute_force_kernel(self, d):
        rng = random.Random(5000 + d)
        widest = max((c for c in (2, 3) if d**c <= BRUTE_FORCE_LIMIT), default=1)
        for _ in range(6 if d < 2**15 else 2):  # fewer rounds where Z_d alone is large
            rows, cols = rng.randint(0, 3), rng.randint(1, widest)
            # entries +-(d - 1) reach the widest residue product
            batch = [
                [[rng.choice((rng.randint(-3, 3), d - 1, 1 - d)) for _ in range(cols)]
                 for _ in range(rows)]
                for _ in range(4)
            ]
            gens = kernel_mod_batch(np.array(batch, dtype=np.int64).reshape(4, rows, cols), d)
            assert gens.shape == (4, cols, cols)
            for a, block in zip(batch, gens):
                span = spanned_set(batch_generators(block), d, cols)
                assert span == brute_force_kernel(a, d, cols)
                assert span == spanned_set(kernel_mod(a, d, ncols=cols), d, cols)

    def test_zero_rows_give_the_whole_space(self):
        gens = kernel_mod_batch(np.zeros((2, 0, 3), dtype=np.int64), 6)
        for block in gens:
            assert batch_generators(block) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_more_columns_than_rows(self):
        a = [[1, 2, 3, 4]]
        gens = batch_generators(kernel_mod_batch(np.array([a]), 4)[0])
        assert len(gens) == 3
        assert spanned_set(gens, 4, 4) == brute_force_kernel(a, 4, 4)

    def test_no_columns(self):
        assert kernel_mod_batch(np.zeros((3, 2, 0), dtype=np.int64), 5).shape == (3, 0, 0)

    def test_entries_beyond_int64_reduce_exactly(self):
        big = [[2**64 + 3, -(2**70) - 1], [2**63, 5]]
        small = [[x % 12 for x in row] for row in big]
        by_big = kernel_mod_batch(np.array([big], dtype=object), 12)
        by_small = kernel_mod_batch(np.array([small], dtype=np.int64), 12)
        assert np.array_equal(by_big, by_small)

    def test_int64_switch(self):
        assert fits_int64(7, 100)
        assert fits_int64(3_000_000_000, 1)
        assert not fits_int64(3_000_000_000, 2)
        assert not fits_int64(2**61 - 1, 1)

    @pytest.mark.parametrize("d", [7, 2**61 - 1, *sorted(set(RESIDUE_WIDTH) - {7})])
    def test_factor_on_each_side_of_the_switch(self, d):
        # int64 and object sides of fits_int64, and every prime power of
        # RESIDUE_WIDTH on each side of an elimination width switch
        if d in RESIDUE_WIDTH:
            assert _residue_dtype(d) == RESIDUE_WIDTH[d]
        rng = random.Random(d)
        for _ in range(10):
            rows, cols = rng.randint(1, 4), rng.randint(1, 3)
            a = [[rng.choice([0, 1, -1, 3, 2**62, d - 1, 1 - d]) for _ in range(cols)]
                 for _ in range(rows)]
            block = kernel_mod_batch(np.array([a], dtype=object), d)[0]
            gens = batch_generators(block)
            for gen in gens:
                assert all(0 <= x < d for x in gen)
                assert all(sum(c * x for c, x in zip(row, gen)) % d == 0 for row in a)
            reference = kernel_mod(a, d)
            # generators inside the kernel spanning a group of its order
            assert span_order(gens, d, cols) == span_order(reference, d, cols)
            if fits_int64(d, cols):
                assert block.dtype == np.int64
                if d**cols <= BRUTE_FORCE_LIMIT:
                    assert spanned_set(gens, d, cols) == brute_force_kernel(a, d, cols)
                    assert spanned_set(reference, d, cols) == brute_force_kernel(a, d, cols)
            else:
                assert block.dtype == object

    @pytest.mark.parametrize(
        "d, hidden, splits",
        [
            pytest.param(2**61 - 1, (), False, id="2^61-1"),
            pytest.param(M89, (), False, id="2^89-1"),
            pytest.param(M89**2, (M89,), True, id="(2^89-1)^2"),
            pytest.param(PSI13, PSI13_FACTORS, True, id="psi13"),
            pytest.param(8 * M89, (2, 4, M89), False, id="8(2^89-1)"),
            pytest.param(43**2 * (2**31 - 1), (43, 43 * (2**31 - 1), 2**31 - 1), True,
                         id="43^2(2^31-1)"),
        ],
    )
    def test_matches_reference_past_the_switch(self, monkeypatch, d, hidden, splits):
        # Moduli whose residues need Python ints, on entries that are
        # multiples of the factors ``prime_powers`` leaves unsplit: a
        # cofactor that is not prime meets pivots that are not units, and
        # the split must run.  The generators must lie in the kernel and
        # span a group of the order of the Smith-form reference's kernel.
        calls = []
        split = zmodlinalg._coprime_split
        monkeypatch.setattr(
            zmodlinalg, "_coprime_split", lambda *args: calls.append(args) or split(*args)
        )
        rng = random.Random(d)
        entries = [0, 1, -1, 3, d - 1, *hidden, *(h * rng.randint(2, 50) for h in hidden)]
        for _ in range(12):
            rows, cols = rng.randint(0, 4), rng.randint(1, 4)
            batch = [[[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
                     for _ in range(3)]
            systems = np.zeros((3, rows, cols), dtype=object)
            for b, a in enumerate(batch):
                for i, row in enumerate(a):
                    systems[b, i] = row
            blocks = kernel_mod_batch(systems, d)
            assert blocks.dtype == object
            for a, block in zip(batch, blocks):
                gens = batch_generators(block)
                for gen in gens:
                    assert all(0 <= x < d for x in gen)
                    assert all(sum(c * x for c, x in zip(row, gen)) % d == 0 for row in a)
                reference = kernel_mod(a, d, ncols=cols)
                assert span_order(gens, d, cols) == span_order(reference, d, cols)
        assert bool(calls) == splits
        for p, k, g in calls:
            assert 1 < g < p and p % g == 0

    def test_int64_input_past_the_switch(self):
        a = np.array([[[1, 2, 3], [4, 5, 6]], [[0, 0, 0], [2, 4, 6]]], dtype=np.int64)
        for d in (M89, PSI13, M89**2):
            assert np.array_equal(kernel_mod_batch(a, d), kernel_mod_batch(a.astype(object), d))

    @pytest.mark.parametrize("q", [11, 13, 181, 183, 46337, 46349])
    def test_reduce_matches_remainder_at_each_width(self, q):
        # Odd moduli on each side of a width switch, in the elimination
        # dtype, over the residue products' range +-(q - 1)**2: all of it
        # for small q, else both ends, the middle and a seeded sample.
        dtype = _residue_dtype(q)
        top = (q - 1) ** 2
        if top <= 2**16:
            x = np.arange(-top, top + 1, dtype=np.int64)
        else:
            ends = np.arange(4 * q, dtype=np.int64)
            sample = np.random.default_rng(q).integers(-top, top + 1, 2**16)
            x = np.concatenate([-top + ends, ends - 2 * q, top - ends, sample])
        p = next(f for f in range(3, q + 1, 2) if q % f == 0)
        reduced = _reduce(x.astype(dtype), p, q)
        assert reduced.dtype == dtype
        assert np.array_equal(reduced, x % q)

    @pytest.mark.parametrize("p, k", [(3, 5), (5, 3), (7, 2), (2, 4)])
    def test_valuation_of_every_residue(self, p, k):
        q = p**k
        residues = np.arange(q).astype(_residue_dtype(q))
        expected = [k if x == 0 else next(v for v in range(k) if x % p ** (v + 1)) for x in range(q)]
        assert _valuation(residues, p, k).tolist() == expected

    @PROPERTY
    @given(
        st.sampled_from([2, 3, 4, 5, 6, 8, 9]),
        st.integers(0, 3),
        st.integers(1, 3),
        st.data(),
    )
    def test_spans_brute_force_property(self, d, rows, cols, data):
        entries = st.integers(-3, 3) | st.integers(-(2**70), 2**70)
        batch = data.draw(
            st.lists(
                st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows),
                min_size=1,
                max_size=3,
            )
        )
        systems = np.zeros((len(batch), rows, cols), dtype=object)
        for b, a in enumerate(batch):
            for i, row in enumerate(a):
                systems[b, i] = row
        for a, block in zip(batch, kernel_mod_batch(systems, d)):
            assert spanned_set(batch_generators(block), d, cols) == brute_force_kernel(a, d, cols)

    def test_prime_powers(self):
        assert prime_powers(360) == ((2, 3), (3, 2), (5, 1))
        assert prime_powers(97) == ((97, 1),)
        assert prime_powers(2) == ((2, 1),)
        assert prime_powers(43 * 47 * 53**2 * 59) == ((43, 1), (47, 1), (53, 2), (59, 1))
        assert prime_powers(2**31 * 3**20 * 43) == ((2, 31), (3, 20), (43, 1))
        # A cofactor free of the primes below 43 is factored while it fits a
        # fixed-width dtype, and comes back whole past that, prime or not.
        assert prime_powers(43 * 70_627_913) == ((43, 1), (70_627_913, 1))
        assert prime_powers(43 * 70_627_919) == ((43 * 70_627_919, 1),)
        assert prime_powers(2**61 - 1) == ((2**61 - 1, 1),)
        assert prime_powers(43**2 * (2**31 - 1)) == ((43**2 * (2**31 - 1), 1),)
        assert prime_powers(PSI13) == ((PSI13, 1),)
        assert prime_powers(M89**2) == ((M89**2, 1),)
        assert prime_powers(2**5 * 3 * M89) == ((2, 5), (3, 1), (M89, 1))
        for d in range(2, 2000):
            pairs = prime_powers(d)
            primes = [p for p in range(2, d + 1) if d % p == 0 and is_prime(p)]
            assert [p for p, _ in pairs] == primes
            assert math.prod(p**k for p, k in pairs) == d
        with pytest.raises(ValueError):
            prime_powers(1)

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            kernel_mod_batch(np.zeros((1, 1, 1), dtype=np.int64), 1)


class TestDeterminant:
    """``det_batch`` against worked examples and an independent cofactor
    expansion, and the ``det_exact`` reference the other tests use."""

    def test_examples(self):
        assert det_batch(np.array([[[1, 2], [3, 4]]])).tolist() == [-2]
        assert det_batch(np.eye(4, dtype=np.int64)[None]).tolist() == [1]
        assert det_batch(np.array([[[0, 0], [1, 1]]])).tolist() == [0]
        assert det_exact([[1, 2], [3, 4]]) == -2
        assert det_exact([]) == 1

    def test_wheel_block_unimodular(self):
        # block linking {0,1,2} to {3,4,5} in the wheel graph
        assert det_batch(np.array([[[1, 0, 1], [1, 0, 0], [1, 1, 0]]])).tolist() == [1]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_batch(np.array([[[1, 2, 3], [4, 5, 6]]]))
        with pytest.raises(ValueError):
            det_exact([[1, 2, 3], [4, 5, 6]])

    def test_against_cofactor_oracle(self):
        rng = random.Random(7)
        by_size = {n: [] for n in range(1, 5)}
        for _ in range(10_000):
            n = rng.randint(1, 4)
            by_size[n].append(random_matrix(rng, n, n, -5, 5))
        for n, blocks in by_size.items():
            want = [cofactor_det(a) for a in blocks]
            assert det_batch(object_stack(blocks, n)).tolist() == want
            assert [det_exact(a) for a in blocks] == want

    def test_big_entries_stay_exact(self):
        rng = random.Random(11)
        a = random_matrix(rng, 5, 5, -(10**12), 10**12)
        got = det_batch(object_stack([a], 5))
        assert got.dtype == object
        assert got.tolist() == [cofactor_det(a)] == [det_exact(a)]


def object_stack(blocks, m):
    """The m x m matrices ``blocks`` as an (N, m, m) object array of Python ints."""
    return np.array(blocks, dtype=object).reshape(len(blocks), m, m)


class TestDetBatch:
    """The batched Bareiss loop against ``det_exact``, one matrix at a time."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_random_stacks(self, m):
        rng = random.Random(500 + m)
        for lo, hi in ((-3, 3), (0, 1), (-(10**3), 10**3)):
            blocks = [random_matrix(rng, m, m, lo, hi) for _ in range(300)]
            want = [det_exact(block) for block in blocks]
            got = det_batch(object_stack(blocks, m))
            assert got.tolist() == want
            as_int64 = det_batch(object_stack(blocks, m).astype(np.int64))
            assert as_int64.tolist() == want
            assert det_fits_int64(m, hi) == (as_int64.dtype == np.int64)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_zero_pivot_columns(self, m):
        # Zeroing the leading rows of a column forces row swaps; zeroing a
        # whole column, or repeating a row, forces a zero determinant.
        rng = random.Random(600 + m)
        blocks = []
        for _ in range(300):
            block = random_matrix(rng, m, m, -2, 2)
            col = rng.randrange(m)
            for row in range(rng.randint(1, m)):
                block[row][col] = 0
            if rng.random() < 0.2:
                block[rng.randrange(m)] = list(block[rng.randrange(m)])
            blocks.append(block)
        want = [det_exact(block) for block in blocks]
        assert 0 in want and any(want)
        assert det_batch(object_stack(blocks, m)).tolist() == want

    @pytest.mark.parametrize("m", [1, 4, 6])
    def test_guard_sides(self, m):
        # largest entry bound A with 2 m^m A^(2m) < 2^63, by bisection
        edge = 1
        while 2 * m**m * (2 * edge) ** (2 * m) < 2**63:
            edge *= 2
        step = edge
        while step > 1:
            step //= 2
            if 2 * m**m * (edge + step) ** (2 * m) < 2**63:
                edge += step
        assert det_fits_int64(m, edge) and not det_fits_int64(m, edge + 1)
        rng = random.Random(700 + m)
        for bound, dtype in ((edge, np.int64), (edge + 1, object)):
            blocks = [random_matrix(rng, m, m, -bound, bound) for _ in range(50)]
            blocks[0][0][0] = bound  # the largest entry sits at the guard
            got = det_batch(object_stack(blocks, m))
            assert got.dtype == dtype
            assert got.tolist() == [det_exact(block) for block in blocks]

    def test_entries_beyond_int64(self):
        rng = random.Random(800)
        for bound in (2**63 - 1, 2**63, 2**64, 10**30):
            blocks = [random_matrix(rng, 3, 3, -bound, bound) for _ in range(20)]
            blocks[0][1][2] = bound
            got = det_batch(object_stack(blocks, 3))
            assert got.dtype == object
            assert got.tolist() == [det_exact(block) for block in blocks]

    def test_empty_and_narrow_inputs(self):
        # an empty stack has no determinants; narrower dtypes are refused,
        # since only int64 and object stacks are ever built
        assert det_batch(np.zeros((0, 4, 4), dtype=np.int64)).tolist() == []
        assert det_batch(np.zeros((0, 4, 4), dtype=object)).tolist() == []
        for dtype in (bool, np.int32, np.uint64):
            with pytest.raises(ValueError, match="int64 or object stack"):
                det_batch(np.eye(3, dtype=dtype)[None])

    @PROPERTY
    @given(
        st.integers(1, 5).flatmap(
            lambda m: st.tuples(
                st.just(m),
                st.sampled_from([1, 3, 1000, 10**6, 2**40, 10**30]).flatmap(
                    lambda bound: st.lists(
                        st.lists(st.integers(-bound, bound), min_size=m * m, max_size=m * m),
                        min_size=1,
                        max_size=8,
                    )
                ),
            )
        )
    )
    def test_matches_reference_property(self, case):
        m, flat = case
        blocks = [[row[i * m : (i + 1) * m] for i in range(m)] for row in flat]
        got = det_batch(object_stack(blocks, m))
        bound = max((abs(x) for row in flat for x in row), default=0)
        assert got.dtype == (np.int64 if det_fits_int64(m, bound) else object)
        assert got.tolist() == [det_exact(block) for block in blocks]

    def test_rejects_bad_shapes_and_dtypes(self):
        with pytest.raises(ValueError):
            det_batch(np.zeros((2, 2, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            det_batch(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            det_batch(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="m >= 1"):
            det_batch(np.zeros((3, 0, 0), dtype=np.int64))


class TestKernelTrivial:
    def test_examples(self):
        assert kernel_trivial([[1]], 2)
        assert kernel_trivial([[1]], 9)
        assert not kernel_trivial([[2]], 2)

    @pytest.mark.parametrize("seed", range(40))
    def test_square_gcd_characterization(self, seed):
        rng = random.Random(4000 + seed)
        n = rng.randint(1, 5)
        d = rng.choice([2, 3, 4, 5, 6, 9])
        a = random_matrix(rng, n, n)
        assert kernel_trivial(a, d) == (math.gcd(det_exact(a), d) == 1)
