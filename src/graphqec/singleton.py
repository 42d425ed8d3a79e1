"""Off-diagonal subdeterminant machinery for singleton-bound-saturating codes.

For a symmetric 2m x 2m integer matrix, every unordered partition of the
vertices into two m-sets yields an off-diagonal m x m block; the code built
on the matrix strongly detects the matching configurations over Z_d exactly
when no block determinant vanishes mod d.  This module computes those
determinants exactly, derives the excluded ("bad") primes by factoring them
on first use, searches for weights on the nonzero positions of a matrix, and
runs the small-graph census for the all-unimodular property.
"""

from __future__ import annotations

import functools
import itertools
import math

# Not hashlib, which would load OpenSSL: 3.6 MB more resident memory per command.
from _blake2 import blake2b
from dataclasses import dataclass

import numpy as np

from ._frozen import integers
from .graphcode import SIZE_CAP, symmetric_matrix, vertex_set
from .zmodlinalg import MR_EXACT_BELOW, det_batch, det_fits_int64, prime_factors


def certifiable_bound(m: int, bound: int) -> bool:
    """True when every m x m block with entries of absolute value at most
    ``bound`` has a determinant below MR_EXACT_BELOW, so that
    ``prime_factors`` can certify its factors.  Hadamard's inequality bounds
    a block determinant by m**(m/2) * bound**m."""
    return m**m * bound ** (2 * m) < MR_EXACT_BELOW**2


def largest_certifiable_bound(m: int) -> int:
    """Largest bound passing ``certifiable_bound`` for m x m blocks."""
    low, high = 0, 1
    while certifiable_bound(m, high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if certifiable_bound(m, mid) else (low, mid)
    return low


@dataclass(frozen=True)
class DeterminantReport:
    """Exact determinants of all off-diagonal m x m blocks of a 2m x 2m
    symmetric matrix, one per unordered vertex partition (the block and its
    transpose share a determinant); a partition is listed by its half holding
    vertex 0.  A zero determinant makes every prime bad; that is flagged
    separately.  The bad primes are factored from the determinants on first
    use, which raises ValueError for a factor that cannot be certified
    prime; strong detection modulo one prime p needs no factoring, as it is
    ``all(det % p for det in dets)``."""

    partitions: tuple[tuple[int, ...], ...]
    dets: tuple[int, ...]

    @functools.cached_property
    def bad_primes(self) -> frozenset[int]:
        return frozenset().union(*map(prime_factors, set(self.dets)))  # once each

    @property
    def m(self) -> int:
        return len(self.partitions[0])

    @property
    def det_set(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.dets)))

    @property
    def has_zero_det(self) -> bool:
        return 0 in self.dets

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "partitions": [
                {"I": list(block), "det": det}
                for block, det in zip(self.partitions, self.dets)
            ],
            "det_set": list(self.det_set),
            "bad_primes": "all" if self.has_zero_det else sorted(self.bad_primes),
        }


def _even_matrix(matrix, name: str) -> tuple[tuple[int, ...], ...]:
    """``symmetric_matrix``, refused unless its size is even and positive
    and its half-half partitions, which reports and searches list before any
    determinant is known, number at most ``graphcode.SIZE_CAP``."""
    rows = symmetric_matrix(matrix, name)
    size = len(rows)
    if not size or size % 2:
        raise ValueError(f"{name} size must be even and positive, got {size}")
    count = math.comb(size - 1, size // 2 - 1)
    if count > SIZE_CAP:
        raise ValueError(
            f"{size} vertices have {count} half-half partitions, more than the "
            f"cap of {SIZE_CAP}"
        )
    return rows


def _partition_arrays(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Unordered half-half partitions of range(size) as two (P, size / 2)
    index arrays, each row ascending: the blocks holding 0, in lexicographic
    order, and their complements."""
    m, count = size // 2, math.comb(size - 1, size // 2 - 1)
    rest = itertools.chain.from_iterable(itertools.combinations(range(1, size), m - 1))
    blocks = np.zeros((count, m), dtype=np.intp)
    blocks[:, 1:] = np.fromiter(rest, dtype=np.intp, count=count * (m - 1)).reshape(count, -1)
    outside = np.ones((count, size), dtype=bool)
    np.put_along_axis(outside, blocks, False, axis=1)
    return blocks, np.nonzero(outside)[1].reshape(count, m)


def _offdiag_dets(gammas: np.ndarray, blocks: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """Determinants of the blocks gamma[block, comp] of every partition, for
    one matrix (shape (P,)) or a stack of matrices (shape (N, P)).

    Slices of partitions are gathered and eliminated one at a time, each at
    most ``_STACK_ENTRIES`` block entries over all the matrices (or one
    partition, if its blocks alone are more), so the stack stays small even
    when it holds Python ints past the int64 guard.  The result is object
    when some slice needed Python ints, else int64."""
    m, lead = blocks.shape[1], gammas.shape[:-2]
    step = max(1, _STACK_ENTRIES // (math.prod(lead) * m * m))
    return np.concatenate([
        det_batch(gammas[..., blocks[i : i + step, :, None], comps[i : i + step, None, :]]
                  .reshape(-1, m, m)).reshape(lead + (-1,))
        for i in range(0, len(blocks), step)
    ], axis=-1)


def offdiag_subdets(gamma, fixed_inputs=()) -> DeterminantReport:
    """Exact determinant for every unordered half-half partition, in the
    order of ``_partition_arrays``, or, given fixed inputs, for those keeping
    all of them on one side.

    With the inputs pinned to one block, only partitions whose block contains
    them all can arise as an inputs-plus-errors side, so only those
    determinants constrain the code.  Weights that fit int64 are eliminated
    in int64 (det_batch reads their guard bound with numpy), others on
    Python ints.
    """
    rows = _even_matrix(gamma, "matrix")
    m = len(rows) // 2
    fixed = vertex_set(fixed_inputs, "fixed inputs")
    if len(fixed) > m:
        raise ValueError(f"at most {m} fixed inputs allowed, got {fixed}")
    if any(not 0 <= v < 2 * m for v in fixed):
        raise ValueError(f"fixed inputs out of range: {fixed}")
    blocks, comps = _partition_arrays(2 * m)
    if fixed:
        # each block holds 0 to len(fixed) of them: keep both ends
        keep = np.isin(blocks, fixed).sum(axis=1) % len(fixed) == 0
        blocks, comps = blocks[keep], comps[keep]
    fits = all(-(2**63) <= x < 2**63 for row in rows for x in row)
    dets = _offdiag_dets(np.array(rows, dtype=np.int64 if fits else object), blocks, comps)
    return DeterminantReport(tuple(zip(*blocks.T.tolist())), tuple(dets.tolist()))


# Attempts in search_weights' first batch; later batches double up to
# SEARCH_CHUNK_MAX.  For matrix19 a full batch's int64 matrices take 0.13 MB.
SEARCH_CHUNK = 32
SEARCH_CHUNK_MAX = 256
# Largest number of block entries gathered into one determinant batch, by
# _offdiag_dets for reports and searches and by _unimodular_blocks.
_STACK_ENTRIES = 1 << 15
# Graph codes per census batch: 2**CENSUS_BATCH_BITS (1 MB of uint32).
CENSUS_BATCH_BITS = 18
CENSUS_MAX_N = 8


@dataclass(frozen=True)
class WeightSearchResult:
    matrix: tuple[tuple[int, ...], ...] | None
    attempts: int

    @property
    def success(self) -> bool:
        return self.matrix is not None


_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of a uint64 array, in place."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _draw_words(count: int) -> int:
    """Words read per attempt for ``count`` draws.  At least half of all
    words are accepted, so a row rarely runs short."""
    return 2 * count + 32


def _draws(key: np.uint64, attempts: range, n: int, count: int) -> np.ndarray:
    """The first ``count`` accepted draws below n, 2 <= n < 2**63, of every
    attempt, as a (len(attempts), count) int64 array.

    Word t of attempt a is _mix(_mix(key + (a + 1) G) + (t + 1) G), G the
    64-bit golden ratio, so it depends only on (key, a, t).  A try is its
    top n.bit_length() bits, rejected when >= n: exactly uniform on [0, n).
    A row short of accepted words reads twice as many again from t = 0.
    """
    rows = _mix(key + (np.arange(attempts.start, attempts.stop, dtype=np.uint64) + 1) * _GOLDEN)
    shift = np.uint64(64 - n.bit_length())
    out = np.empty((len(rows), count), dtype=np.int64)
    todo, words = np.arange(len(rows)), _draw_words(count)
    while todo.size:
        steps = (np.arange(words, dtype=np.uint64) + 1) * _GOLDEN
        values = (_mix(rows[todo, None] + steps) >> shift).astype(np.int64)
        accepted = values < n
        counts = accepted.sum(axis=1)
        starts = np.cumsum(counts) - counts
        full = counts >= count
        out[todo[full]] = values[accepted][starts[full, None] + np.arange(count)]
        todo, words = todo[~full], 2 * words
    return out


def search_weights(skeleton, weight_bound: int, seed: int, budget: int) -> WeightSearchResult:
    """Randomized search for nonzero weights on the nonzero positions of a
    2m x 2m symmetric integer matrix, the skeleton, making every block
    determinant nonzero; only the skeleton's nonzero pattern is read.

    Attempt a draws weights uniformly from [-bound, bound] without 0 on the
    skeleton's nonzero positions above the diagonal: ``_draws`` picks x
    below 2 * bound from the attempt's own counter-based stream under the
    seed's key, and x >= 0 maps to x + 1, so runs are reproducible and an
    attempt's weights do not depend on the batch it runs in.  While
    ``det_fits_int64`` holds, attempts run in batches of ``SEARCH_CHUNK``
    doubling up to ``SEARCH_CHUNK_MAX``; past the guard, one at a time.
    Partitions are checked in groups of 1, 2, 4, ... over the attempts
    still alive (``_offdiag_dets`` bounds each gather), dropping the
    attempts with a zero determinant after each group; the first attempt
    left wins.  From the second batch on, the partitions that zeroed the
    most determinants so far are checked first, which at bound 1 on
    matrix19 kills most attempts with the first block.  A skeleton row with
    fewer than m nonzero entries forces a zero determinant, so that case
    fails immediately without spending budget.
    """
    support = np.array(_even_matrix(skeleton, "skeleton"), dtype=object) != 0
    weight_bound, seed, budget = integers((weight_bound, seed, budget), "search arguments")
    if not 1 <= weight_bound < 2**62:
        raise ValueError(f"weight bound must be in [1, 2**62), got {weight_bound}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    size = len(support)
    m = size // 2
    if support.sum(axis=1).min() < m:
        return WeightSearchResult(matrix=None, attempts=0)
    us, vs = np.nonzero(np.triu(support, 1))
    blocks, comps = _partition_arrays(size)
    # An 8-byte blake2b digest of the decimal seed: every int has its own key.
    key = np.uint64(int.from_bytes(blake2b(str(seed).encode(), digest_size=8).digest(), "little"))
    # Weights past the guard make det_batch eliminate on Python ints; one
    # attempt at a time then keeps that cost to the attempts actually needed.
    fits = det_fits_int64(m, weight_bound)
    start, chunk = 0, SEARCH_CHUNK if fits else 1
    order = np.arange(len(blocks))
    zeros = np.zeros(len(blocks), dtype=np.int64)
    while start < budget:
        attempts = range(start, min(start + chunk, budget))
        weights = _draws(key, attempts, 2 * weight_bound, len(us)) - weight_bound
        weights[weights >= 0] += 1
        gammas = np.zeros((len(attempts), size, size), dtype=np.int64)
        gammas[:, us, vs] = weights
        gammas[:, vs, us] = weights
        alive = np.arange(len(attempts))
        first, group = 0, 1
        while first < len(order) and alive.size:
            part = order[first : first + group]
            dead = _offdiag_dets(gammas[alive], blocks[part], comps[part]) == 0
            zeros[part] += dead.sum(axis=0)
            alive = alive[~dead.any(axis=1)]
            first, group = first + group, 2 * group
        if alive.size:
            return WeightSearchResult(
                matrix=tuple(map(tuple, gammas[alive[0]].tolist())),
                attempts=start + int(alive[0]) + 1,
            )
        # Which attempts survive does not depend on the partition order.
        order = np.argsort(-zeros, kind="stable")
        start += chunk
        if fits:
            chunk = min(2 * chunk, SEARCH_CHUNK_MAX)
    return WeightSearchResult(matrix=None, attempts=budget)


def adjacency_bits(gamma) -> str:
    """Upper-triangle 0/1 string, row-major over pairs (i, j), i < j."""
    n = len(gamma)
    return "".join(
        "1" if gamma[i][j] else "0"
        for i in range(n)
        for j in range(i + 1, n)
    )


# A graph on n vertices is coded as its adjacency_bits read as a binary
# number, character 0 the most significant bit.


@functools.lru_cache(maxsize=None)
def _pair_bits(n: int) -> np.ndarray:
    """(n, n) array: entry (u, v), u != v, is the code bit of the pair {u, v}."""
    index = np.zeros((n, n), dtype=np.intp)
    us, vs = np.triu_indices(n, 1)
    index[us, vs] = index[vs, us] = np.arange(us.size)[::-1]
    return index


@functools.lru_cache(maxsize=None)
def _relabel_table(n: int) -> np.ndarray:
    """(n!, C(n, 2)) table: row p holds, for each character of the
    adjacency_bits of the graph relabelled by the p-th permutation, the code
    bit it is read from."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    us, vs = np.triu_indices(n, 1)
    return _pair_bits(n)[perms[:, us], perms[:, vs]].astype(np.uint8)


def _orbit(n: int, code: int) -> tuple[int, np.ndarray]:
    """Canonical key of a graph and the codes of all its relabellings: the
    key is the smallest code, i.e. the smallest adjacency bit-string."""
    table = _relabel_table(n)
    shifts = np.arange(table.shape[1], dtype=np.int64)
    codes = (code >> shifts & 1)[table] @ (1 << shifts[::-1])
    return int(codes.min()), codes


@functools.lru_cache(maxsize=None)
def _unimodular_blocks(m: int) -> np.ndarray:
    """Entry k: whether the 0/1 m x m matrix with entry (i, j) equal to bit
    i*m + j of k has determinant +-1."""
    size = m * m
    keys = np.arange(1 << size, dtype=np.int64)
    step = _STACK_ENTRIES // size
    out = np.empty(keys.size, dtype=bool)
    for first in range(0, keys.size, step):
        part = keys[first : first + step, None] >> np.arange(size) & 1
        out[first : first + step] = np.abs(det_batch(part.reshape(-1, m, m))) == 1
    return out


def _unimodular_codes(n: int):
    """Codes of the n-vertex graphs whose off-diagonal blocks all have
    determinant +-1, in increasing order.

    Codes run in uint32 batches sharing their bits from CENSUS_BATCH_BITS up.
    A vertex joined to fewer than m others puts a zero row in some block, so
    a degree filter goes first: each vertex's degree is its degree among the
    shared high bits plus a per-code low-bit degree tabulated once.  Then each
    partition in turn reads its block's bits as an index into the table of
    unimodular 0/1 blocks and drops the graphs that fail.
    """
    m = n // 2
    nbits = n * (n - 1) // 2
    low_bits = min(nbits, CENSUS_BATCH_BITS)
    pair_bits = _pair_bits(n)
    incident = [[int(pair_bits[v, u]) for u in range(n) if u != v] for v in range(n)]
    low = np.arange(1 << low_bits, dtype=np.uint32)
    low_degrees = [
        sum((low >> b & 1).astype(np.uint8) for b in bits if b < low_bits) for bits in incident
    ]
    high_masks = [sum(1 << b for b in bits if b >= low_bits) for bits in incident]
    blocks, comps = _partition_arrays(n)
    block_bits = pair_bits[blocks[:, :, None], comps[:, None, :]].reshape(len(blocks), -1)
    unimodular = _unimodular_blocks(m)
    for high in range(0, 1 << nbits, 1 << low_bits):
        keep = np.ones(low.size, dtype=bool)
        for degrees, mask in zip(low_degrees, high_masks):
            need = m - (high & mask).bit_count()
            if need > 0:
                keep &= degrees >= need
        codes = low[keep] | high
        for bits in block_bits.tolist():
            if not codes.size:
                break
            index = np.zeros_like(codes)
            for place, bit in enumerate(bits):
                index |= (codes >> bit & 1) << place
            codes = codes[unimodular[index]]
        yield from codes.tolist()


def graph_census(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Enumerate all simple graphs on n vertices, keep those whose
    off-diagonal block determinants are all +-1 and return one canonical
    adjacency matrix per isomorphism class, sorted by bit-string.

    The determinant test runs batched over all 2^C(n,2) graphs (see
    ``_unimodular_codes``).  Each survivor not yet seen is canonicalized
    against all n! relabellings at once, and all of its relabellings are
    marked seen, so every class is canonicalized once.  n = 8 runs in about
    0.7 s.
    """
    (n,) = integers((n,), "census vertex count")
    if not 2 <= n <= CENSUS_MAX_N:
        raise ValueError(f"census supports 2 <= n <= {CENSUS_MAX_N}, got {n}")
    if n % 2:
        raise ValueError(f"census needs an even vertex count, got {n}")
    seen: set[int] = set()
    keys = []
    for code in _unimodular_codes(n):
        if code not in seen:
            key, images = _orbit(n, code)
            seen.update(images.tolist())
            keys.append(key)
    gammas = np.array(sorted(keys), dtype=np.int64)[:, None, None] >> _pair_bits(n) & 1
    gammas[:, range(n), range(n)] = 0  # _pair_bits is 0 on the diagonal, which holds no pair
    return tuple(tuple(map(tuple, gamma)) for gamma in gammas.tolist())
