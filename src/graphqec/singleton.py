"""Off-diagonal subdeterminant machinery for singleton-bound-saturating codes.

For a symmetric 2m x 2m integer matrix, every unordered partition of the
vertices into two m-sets yields an off-diagonal m x m block; the code built
on the matrix strongly detects the matching configurations over Z_d exactly
when no block determinant vanishes mod d.  This module computes those
determinants exactly, derives the excluded ("bad") primes, searches for
weight assignments on a sparsity skeleton, and runs the small-graph census
for the all-unimodular predicate.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .zmodlinalg import det_batch, det_fits_int64

# Miller-Rabin to the first 13 prime bases is exact below _MR_EXACT_BELOW
# (Sorenson and Webster, Math. Comp. 86, 2017); larger numbers that pass
# every base cannot be certified prime here.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# Pollard rho steps before a cofactor counts as unfactorable: several times
# the expected count for a factor below the square root of _MR_EXACT_BELOW.
_RHO_STEPS = 1 << 22


def is_prime(d: int) -> bool:
    """Deterministic Miller-Rabin test.

    Raises ValueError for a number of at least 3.3e24 that passes every base,
    since its primality cannot be certified.
    """
    d = int(d)
    if d < 2:
        return False
    for p in _SMALL_PRIMES:
        if d % p == 0:
            return d == p
    odd = d - 1
    twos = 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _SMALL_PRIMES:
        x = pow(a, odd, d)
        if x in (1, d - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % d
            if x == d - 1:
                break
        else:
            return False
    if d >= _MR_EXACT_BELOW:
        raise ValueError(
            f"cannot certify that {d} is prime: it passes Miller-Rabin to the "
            f"first 13 prime bases, which is proven only below {_MR_EXACT_BELOW}"
        )
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n, by Brent's variant of Pollard's
    rho; raises ValueError past _RHO_STEPS steps."""
    steps = 0
    for c in itertools.count(1):
        y, power, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            done = 0
            while done < power and g == 1:
                saved = y
                for _ in range(min(128, power - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                done += 128
            steps += 2 * power
            if steps > _RHO_STEPS:
                raise ValueError(f"cannot factor {n} within {_RHO_STEPS} Pollard rho steps")
            power *= 2
        if g == n:
            # The batched product hit 0 mod n: redo the last batch one step
            # at a time.
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(abs(x - saved), n)
        if g != n:
            return g


def prime_factors(n: int) -> frozenset[int]:
    """Prime divisors of |n| for nonzero n; 0 and +-1 yield the empty set.

    Small primes by trial division, then Pollard rho split until every
    cofactor passes ``is_prime``.  Raises ValueError when a cofactor can be
    neither certified prime nor split within the step limit.
    """
    n = abs(int(n))
    out: set[int] = set()
    if n <= 1:
        return frozenset()
    for p in _SMALL_PRIMES:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    pending = [n] if n > 1 else []
    while pending:
        c = pending.pop()
        if is_prime(c):
            out.add(c)
        else:
            f = _rho_divisor(c)
            pending += [f, c // f]
    return frozenset(out)


@dataclass(frozen=True)
class DeterminantReport:
    """Exact determinants of all off-diagonal m x m blocks of a 2m x 2m
    symmetric matrix, one per unordered vertex partition (the block and its
    transpose share a determinant), plus the derived bad-prime set.  A zero
    determinant makes every prime bad; that is flagged separately."""

    m: int
    partitions: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    dets: tuple[int, ...]
    det_set: tuple[int, ...]
    bad_primes: frozenset[int]
    has_zero_det: bool

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "partitions": [
                {"I": list(block), "det": det}
                for (block, _), det in zip(self.partitions, self.dets)
            ],
            "det_set": list(self.det_set),
            "bad_primes": "all" if self.has_zero_det else sorted(self.bad_primes),
        }


def _validate_gamma(gamma) -> tuple[tuple[tuple[int, ...], ...], int]:
    rows = tuple(tuple(int(x) for x in row) for row in gamma)
    size = len(rows)
    if size == 0 or size % 2:
        raise ValueError(f"matrix size must be even and positive, got {size}")
    if any(len(row) != size for row in rows):
        raise ValueError("matrix must be square")
    for i in range(size):
        if rows[i][i] != 0:
            raise ValueError(f"nonzero diagonal entry at {i}")
        for j in range(i + 1, size):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
    return rows, size // 2


def _partitions(size: int):
    """Unordered half-half partitions, lexicographic on the block holding 0."""
    m = size // 2
    for rest in itertools.combinations(range(1, size), m - 1):
        block = (0,) + rest
        in_block = set(block)
        yield block, tuple(v for v in range(size) if v not in in_block)


def _partition_arrays(partitions, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Blocks and complements of the partitions as two (P, m) index arrays."""
    pairs = np.array(list(partitions), dtype=np.intp).reshape(-1, 2, m)
    return pairs[:, 0], pairs[:, 1]


def _offdiag_dets(gammas: np.ndarray, blocks: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """Determinants of the blocks gamma[block, comp] of every partition, for
    one matrix (shape (P,)) or a stack of matrices (shape (N, P))."""
    stack = gammas[..., blocks[:, :, None], comps[:, None, :]]
    m = blocks.shape[1]
    return det_batch(stack.reshape(-1, m, m)).reshape(stack.shape[:-2])


def _report(rows, m, partitions) -> DeterminantReport:
    blocks, comps = _partition_arrays(partitions, m)
    dets = tuple(_offdiag_dets(np.array(rows, dtype=object), blocks, comps).tolist())
    bad: set[int] = set()
    for det in dets:
        bad |= prime_factors(det)
    return DeterminantReport(
        m=m,
        partitions=tuple(partitions),
        dets=dets,
        det_set=tuple(sorted(set(dets))),
        bad_primes=frozenset(bad),
        has_zero_det=any(det == 0 for det in dets),
    )


def offdiag_subdets(gamma) -> DeterminantReport:
    """Exact determinant for every unordered half-half partition."""
    rows, m = _validate_gamma(gamma)
    return _report(rows, m, list(_partitions(2 * m)))


def is_strongly_ec(gamma, d: int) -> bool:
    """True iff no off-diagonal block determinant vanishes modulo the prime d."""
    if not is_prime(d):
        raise ValueError(f"{d} is not prime")
    report = offdiag_subdets(gamma)
    return not report.has_zero_det and d not in report.bad_primes


def restricted_subdets(gamma, fixed_inputs) -> DeterminantReport:
    """Report restricted to partitions keeping all fixed inputs on one side.

    With the inputs pinned to one block, only partitions whose block contains
    them all can arise as an inputs-plus-errors side, so only those
    determinants constrain the code.
    """
    rows, m = _validate_gamma(gamma)
    fixed = tuple(sorted({int(v) for v in fixed_inputs}))
    if len(fixed) > m:
        raise ValueError(f"at most {m} fixed inputs allowed, got {fixed}")
    if any(not 0 <= v < 2 * m for v in fixed):
        raise ValueError(f"fixed inputs out of range: {fixed}")
    fixed_set = set(fixed)
    relevant = [
        (block, comp)
        for block, comp in _partitions(2 * m)
        if fixed_set <= set(block) or fixed_set <= set(comp)
    ]
    return _report(rows, m, relevant)


def restricted_bad_primes(gamma, fixed_inputs) -> frozenset[int]:
    """Bad primes over the partitions relevant for the given input set."""
    report = restricted_subdets(gamma, fixed_inputs)
    if report.has_zero_det:
        raise ValueError("a relevant block determinant is zero: every prime is bad")
    return report.bad_primes


@dataclass(frozen=True)
class Skeleton:
    """Symmetric 0/1 support pattern with zero diagonal on 2m vertices."""

    support: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.support)
        size = len(rows)
        if size == 0 or size % 2:
            raise ValueError(f"skeleton size must be even and positive, got {size}")
        if any(len(row) != size for row in rows):
            raise ValueError("skeleton must be square")
        for i in range(size):
            if rows[i][i] != 0:
                raise ValueError(f"skeleton has a nonzero diagonal entry at {i}")
            for j in range(size):
                if rows[i][j] not in (0, 1):
                    raise ValueError("skeleton entries must be 0 or 1")
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"skeleton not symmetric at ({i},{j})")
        object.__setattr__(self, "support", rows)

    @property
    def size(self) -> int:
        return len(self.support)

    @property
    def m(self) -> int:
        return self.size // 2

    @property
    def free_positions(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j)
            for i in range(self.size)
            for j in range(i + 1, self.size)
            if self.support[i][j]
        )

    def min_row_support(self) -> int:
        return min(sum(row) for row in self.support)

    @classmethod
    def from_matrix(cls, gamma) -> "Skeleton":
        return cls(
            tuple(
                tuple(1 if x else 0 for x in row) for row in gamma
            )
        )


# Attempts in search_weights' first batch; later batches double up to
# SEARCH_CHUNK_MAX.  For matrix19 a full batch's int64 matrices take 0.13 MB.
SEARCH_CHUNK = 32
SEARCH_CHUNK_MAX = 256
# Largest number of int64 block entries handed to one determinant batch.
_STACK_ENTRIES = 1 << 15
# Graph codes per census batch: 2**CENSUS_BATCH_BITS (1 MB of uint32).
CENSUS_BATCH_BITS = 18
CENSUS_MAX_N = 8


@dataclass(frozen=True)
class WeightSearchResult:
    matrix: tuple[tuple[int, ...], ...] | None
    attempts: int
    seed: int
    budget: int

    @property
    def success(self) -> bool:
        return self.matrix is not None


def _draw_words(count: int) -> int:
    """Raw 32-bit words read per attempt for ``count`` draws.  At least half
    of all words are accepted, so a row rarely runs short."""
    return 2 * count + 32


def _choice_draws(rng: random.Random, key: str, n: int, count: int) -> list[int]:
    """The ``count`` indices below n that ``choice`` picks after seeding with
    ``key``."""
    rng.seed(key)
    return [rng.choice(range(n)) for _ in range(count)]


def _stream_draws(rng: random.Random, keys: list[str], n: int, count: int) -> np.ndarray:
    """``_choice_draws`` for every key at once, as a (len(keys), count) int64
    array, for 2 <= n < 2**32.

    ``choice`` takes the top k = n.bit_length() bits of one 32-bit word per
    try and rejects values >= n.  Each key's stream is read once as
    ``_draw_words(count)`` words (``getrandbits`` fills its result from the
    least significant word up), the rejection runs on all rows together, and
    each row keeps its first ``count`` accepted values.  A row with fewer
    accepted words is redrawn by ``_choice_draws``.
    """
    words = _draw_words(count)
    raw = bytearray()
    for key in keys:
        rng.seed(key)
        raw += rng.getrandbits(32 * words).to_bytes(4 * words, "little")
    values = np.frombuffer(raw, dtype="<u4").reshape(len(keys), words) >> (32 - n.bit_length())
    accepted = values < n
    counts = accepted.sum(axis=1)
    starts = np.cumsum(counts) - counts
    full = counts >= count
    out = np.empty((len(keys), count), dtype=np.int64)
    out[full] = values[accepted][starts[full, None] + np.arange(count)]
    for row in np.flatnonzero(~full).tolist():
        out[row] = _choice_draws(rng, keys[row], n, count)
    return out


def search_weights(
    skeleton: Skeleton, weight_bound: int, seed: int, budget: int
) -> WeightSearchResult:
    """Randomized search for nonzero weights making every block determinant
    nonzero.

    Attempt a draws weights uniformly from [-bound, bound] without 0 on the
    skeleton's free positions, by ``choice`` from ``range(-bound, bound)``
    (x >= 0 maps to x + 1) on a ``random.Random`` seeded with
    ``f"{seed}:{a}"``, so runs are reproducible.  While ``det_fits_int64``
    holds, attempts run in batches of ``SEARCH_CHUNK`` doubling up to
    ``SEARCH_CHUNK_MAX``, and each batch's draws come from one raw read of
    every attempt's stream (``_stream_draws``), which picks the same weights
    as ``choice``; past the guard, attempts run one at a time with
    ``choice``.  Partitions are checked in groups of 1, 2, 4, ... (each at
    most ``_STACK_ENTRIES`` block entries over the attempts still alive),
    dropping the attempts with a zero determinant after each group; the
    first attempt left wins.  From the second batch on, the partitions that
    zeroed the most determinants so far are checked first, which at bound 1
    on matrix19 kills most attempts with the first block.  A skeleton row with fewer than m admissible
    entries forces a zero determinant, so that case fails immediately
    without spending budget.
    """
    if not 1 <= weight_bound < 2**62:
        raise ValueError(f"weight bound must be in [1, 2**62), got {weight_bound}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if skeleton.min_row_support() < skeleton.m:
        return WeightSearchResult(matrix=None, attempts=0, seed=seed, budget=budget)
    size, m = skeleton.size, skeleton.m
    positions = skeleton.free_positions
    rows, cols = np.array(positions, dtype=np.intp).reshape(-1, 2).T
    blocks, comps = _partition_arrays(_partitions(size), m)
    rng = random.Random()
    # det_fits_int64 implies bound < 2**31, so every draw is one 32-bit word.
    # Weights past the guard take det_exact block by block; one attempt at a
    # time then keeps that cost to the attempts actually needed.
    fits = det_fits_int64(m, weight_bound)
    start, chunk = 0, SEARCH_CHUNK if fits else 1
    order = np.arange(len(blocks))
    zeros = np.zeros(len(blocks), dtype=np.int64)
    while start < budget:
        keys = [f"{seed}:{attempt}" for attempt in range(start, min(start + chunk, budget))]
        if fits:
            draws = _stream_draws(rng, keys, 2 * weight_bound, len(positions))
        else:
            draws = np.array(
                [_choice_draws(rng, key, 2 * weight_bound, len(positions)) for key in keys],
                dtype=object,
            )
        weights = draws - weight_bound
        weights = np.where(weights >= 0, weights + 1, weights)
        gammas = np.zeros((len(keys), size, size), dtype=weights.dtype)
        gammas[:, rows, cols] = weights
        gammas[:, cols, rows] = weights
        alive = np.arange(len(keys))
        first, group = 0, 1
        while first < len(order) and alive.size:
            count = min(group, max(1, _STACK_ENTRIES // (alive.size * m * m)))
            part = order[first : first + count]
            dead = _offdiag_dets(gammas[alive], blocks[part], comps[part]) == 0
            zeros[part] += dead.sum(axis=0)
            alive = alive[~dead.any(axis=1)]
            first, group = first + count, 2 * group
        if alive.size:
            gamma = [[0] * size for _ in range(size)]
            for (i, j), w in zip(positions, weights[alive[0]].tolist()):
                gamma[i][j] = gamma[j][i] = w
            return WeightSearchResult(
                matrix=tuple(tuple(row) for row in gamma),
                attempts=start + int(alive[0]) + 1,
                seed=seed,
                budget=budget,
            )
        # Which attempts survive does not depend on the partition order.
        order = np.argsort(-zeros, kind="stable")
        start += chunk
        if fits:
            chunk = min(2 * chunk, SEARCH_CHUNK_MAX)
    return WeightSearchResult(matrix=None, attempts=budget, seed=seed, budget=budget)


def adjacency_bits(gamma) -> str:
    """Upper-triangle 0/1 string, row-major over pairs (i, j), i < j."""
    n = len(gamma)
    return "".join(
        "1" if gamma[i][j] else "0"
        for i in range(n)
        for j in range(i + 1, n)
    )


def _gamma_from_bits(n: int, bits: str) -> tuple[tuple[int, ...], ...]:
    gamma = [[0] * n for _ in range(n)]
    it = iter(bits)
    for i in range(n):
        for j in range(i + 1, n):
            if next(it) == "1":
                gamma[i][j] = 1
                gamma[j][i] = 1
    return tuple(tuple(row) for row in gamma)


# A graph on n vertices is coded as an integer whose bit b is pair b of the
# upper triangle in row-major order, i.e. character b of adjacency_bits.


@functools.lru_cache(maxsize=None)
def _pair_bits(n: int) -> np.ndarray:
    """(n, n) array: entry (u, v), u != v, is the code bit of the pair {u, v}."""
    index = np.zeros((n, n), dtype=np.intp)
    us, vs = np.triu_indices(n, 1)
    index[us, vs] = index[vs, us] = np.arange(us.size)
    return index


@functools.lru_cache(maxsize=None)
def _relabel_table(n: int) -> np.ndarray:
    """(n!, C(n, 2)) table: row p holds, for each code bit of the graph
    relabelled by the p-th permutation, the code bit it is read from."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    us, vs = np.triu_indices(n, 1)
    return _pair_bits(n)[perms[:, us], perms[:, vs]].astype(np.uint8)


def _orbit(n: int, code: int) -> tuple[int, np.ndarray]:
    """Canonical key of a graph and the codes of all its relabellings.

    The key is the smallest adjacency bit-string over all relabellings, read
    as a binary number with character 0 as the most significant bit.
    """
    table = _relabel_table(n)
    nbits = table.shape[1]
    shifts = np.arange(nbits, dtype=np.int64)
    images = (code >> shifts & 1)[table]
    return int((images @ (1 << shifts[::-1])).min()), images @ (1 << shifts)


def canonical_bits(gamma) -> str:
    """Minimum adjacency bit-string over all vertex permutations."""
    n = len(gamma)
    if n > CENSUS_MAX_N:
        raise ValueError(f"canonical form supports at most {CENSUS_MAX_N} vertices, got {n}")
    nbits = n * (n - 1) // 2
    if not nbits:
        return ""
    key, _ = _orbit(n, int(adjacency_bits(gamma)[::-1], 2))
    return format(key, f"0{nbits}b")


def unimodular_offdiag_predicate(gamma) -> bool:
    """Every off-diagonal half-block determinant is +-1, which makes the
    block invertible modulo every d >= 2, i.e. valid for every group."""
    n = len(gamma)
    blocks, comps = _partition_arrays(_partitions(n), n // 2)
    dets = _offdiag_dets(np.array(gamma, dtype=object), blocks, comps)
    return bool(np.isin(dets, (-1, 1)).all())


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
    blocks, comps = _partition_arrays(_partitions(n), m)
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


def graph_census(n: int, predicate=None) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Enumerate all simple graphs on n vertices, keep those passing the
    predicate (default: all off-diagonal block determinants +-1) and return
    one canonical adjacency matrix per isomorphism class, sorted by
    bit-string.

    The default predicate runs batched over all 2^C(n,2) graphs (see
    ``_unimodular_codes``); a custom predicate is called on every graph.
    Each survivor not yet seen is canonicalized against all n! relabellings
    at once, and all of its relabellings are marked seen, so every class is
    canonicalized once.  n = 8 runs in about 1 s.
    """
    if not 2 <= n <= CENSUS_MAX_N:
        raise ValueError(f"census supports 2 <= n <= {CENSUS_MAX_N}, got {n}")
    if n % 2:
        raise ValueError(f"census needs an even vertex count, got {n}")
    nbits = n * (n - 1) // 2
    if predicate is None:
        codes = _unimodular_codes(n)
    else:
        codes = (
            code
            for code in range(1 << nbits)
            if predicate(_gamma_from_bits(n, format(code, f"0{nbits}b")[::-1]))
        )
    seen: set[int] = set()
    keys = []
    for code in codes:
        if code not in seen:
            key, images = _orbit(n, code)
            seen.update(images.tolist())
            keys.append(key)
    return tuple(_gamma_from_bits(n, format(key, f"0{nbits}b")) for key in sorted(keys))
