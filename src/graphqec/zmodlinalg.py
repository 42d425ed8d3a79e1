"""Exact integer linear algebra over Z and Z_d.

``kernel_mod_batch`` decides a whole batch of systems at once by numpy
elimination over each prime-power factor Z_{p^k} of the modulus, combined by
CRT; ``prime_factors`` (Pollard rho with certified Miller-Rabin) splits the
modulus and also serves the bad-prime sets of determinant reports.  Moduli
too large for int64 arithmetic go through a Smith normal form on
arbitrary-precision Python integers instead; it tracks only the column
transform the kernel is read off.  ``det_batch`` computes exact determinants
of a stack by one vectorized fraction-free Bareiss loop, in int64 when the
entries allow and on Python integers otherwise.  Matrices are plain lists of
row lists; operations that must work on matrices with zero rows take an
explicit column count.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


def _ncols_of(a, ncols: int | None) -> int:
    if a:
        widths = {len(row) for row in a}
        if len(widths) != 1:
            raise ValueError("ragged matrix")
        width = widths.pop()
        if ncols is not None and ncols != width:
            raise ValueError(f"ncols={ncols} disagrees with row width {width}")
        return width
    if ncols is None:
        raise ValueError("matrix with zero rows needs an explicit ncols")
    return ncols


@dataclass(frozen=True)
class SmithDecomposition:
    """The invariant factors of A and the inverse column transform.

    A = U * S * V with U, V unimodular and S in Smith normal form; ``diagonal``
    is the diagonal of S and ``v_inv`` the inverse of V.  Kernels are read off
    through it: x solves A x = 0 (mod d) exactly when x = v_inv * y for y with
    S y = 0 (mod d).
    """

    diagonal: tuple[int, ...]
    v_inv: tuple[tuple[int, ...], ...]
    ncols: int


def smith_normal_form(a, ncols: int | None = None) -> SmithDecomposition:
    """Smith normal form with deterministic pivoting.

    Pivot rule: smallest nonzero absolute value in the remaining block, ties
    broken by lowest (row, col).  The divisibility chain s_1 | s_2 | ... is
    enforced and diagonal entries are normalized to be nonnegative.  Row
    operations act on the working matrix only; column operations also act on
    ``v_inv``.
    """
    n = _ncols_of(a, ncols)
    s = [[int(x) for x in row] for row in a]
    m = len(s)
    v_inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_addmul(i, k, c):
        # row_i += c * row_k
        si, sk = s[i], s[k]
        for j in range(n):
            si[j] += c * sk[j]

    def col_swap(j, l):
        for row in s:
            row[j], row[l] = row[l], row[j]
        for row in v_inv:
            row[j], row[l] = row[l], row[j]

    def col_addmul(j, l, c):
        # col_j += c * col_l
        for row in s:
            row[j] += c * row[l]
        for row in v_inv:
            row[j] += c * row[l]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x and (best is None or abs(x) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pivot = find_pivot(t)
        if pivot is None:
            break
        if pivot[0] != t:
            s[t], s[pivot[0]] = s[pivot[0]], s[t]
        if pivot[1] != t:
            col_swap(t, pivot[1])
        while True:
            # Euclidean clearing of column t then row t; a nonzero remainder
            # becomes the new, strictly smaller pivot.
            i = next((i for i in range(t + 1, m) if s[i][t]), None)
            if i is not None:
                q = s[i][t] // s[t][t]
                row_addmul(i, t, -q)
                if s[i][t]:
                    s[t], s[i] = s[i], s[t]
                continue
            j = next((j for j in range(t + 1, n) if s[t][j]), None)
            if j is not None:
                q = s[t][j] // s[t][t]
                col_addmul(j, t, -q)
                if s[t][j]:
                    col_swap(t, j)
                continue
            bad = next(
                ((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                 if s[i][j] % s[t][t]),
                None,
            )
            if bad is not None:
                # Fold the offending row into row t; the next round shrinks
                # the pivot to a divisor of both.
                row_addmul(t, bad[0], 1)
                continue
            break
        t += 1

    return SmithDecomposition(
        diagonal=tuple(abs(s[i][i]) for i in range(min(m, n))),
        v_inv=tuple(tuple(r) for r in v_inv),
        ncols=n,
    )


def kernel_from_snf(snf: SmithDecomposition, d: int) -> tuple[tuple[int, ...], ...]:
    """Generators of {x in Z_d^n : A x = 0 mod d}, read off a precomputed
    decomposition of A."""
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    n = snf.ncols
    diag = snf.diagonal
    generators: list[tuple[int, ...]] = []
    for j in range(n):
        if j < len(diag) and diag[j] != 0:
            step = d // math.gcd(diag[j], d)
            if step % d == 0:
                continue
        else:
            step = 1
        vec = tuple((step * snf.v_inv[i][j]) % d for i in range(n))
        if any(vec):
            generators.append(vec)
    return tuple(generators)


def fits_int64(d: int, n: int) -> bool:
    """True when the batched engine's arithmetic modulo d on n columns fits
    in int64.

    The widest intermediate is the condition check of a detection system: a
    sum over up to n columns of products of two residues, at most
    n * (d - 1)**2.  Elimination, inversion and CRT lifting form one residue
    product at a time, at most (d - 1)**2, and subtract it from a residue or
    reduce it before adding one.
    """
    return max(n, 1) * (d - 1) ** 2 < 2**63


# Miller-Rabin to the first 13 prime bases is exact below MR_EXACT_BELOW
# (Sorenson and Webster, Math. Comp. 86, 2017); larger numbers that pass
# every base cannot be certified prime here.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# Pollard rho steps before a cofactor counts as unfactorable: several times
# the expected count for a factor below the square root of MR_EXACT_BELOW.
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
    if d >= MR_EXACT_BELOW:
        raise ValueError(
            f"cannot certify that {d} is prime: it passes Miller-Rabin to the "
            f"first 13 prime bases, which is proven only below {MR_EXACT_BELOW}"
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


@functools.lru_cache(maxsize=256)
def prime_powers(d: int) -> tuple[tuple[int, int], ...]:
    """(p, k) for every prime power p**k exactly dividing d, in increasing p."""
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    out = []
    for p in sorted(prime_factors(d)):
        k = 0
        while d % p == 0:
            d //= p
            k += 1
        out.append((p, k))
    return tuple(out)


def _residue_dtype(q: int):
    """Narrowest signed integer dtype in which elimination modulo q runs
    exactly: the widest intermediate is a product of two residues, at most
    (q - 1)**2, subtracted from a residue before it is reduced."""
    for dtype in (np.int8, np.int16, np.int32):
        if (q - 1) ** 2 <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _reduce(x: np.ndarray, p: int, q: int) -> np.ndarray:
    """x modulo q = p**k, in place; a mask when q is a power of two (two's
    complement makes it exact for negative x too).  Otherwise x - x // q * q,
    which numpy vectorizes where ``%`` does not; it is exact even where
    x // q * q wraps, since the true result lies in [0, q)."""
    if p == 2:
        x &= q - 1
    else:
        x -= x // q * q
    return x


def _valuation(a: np.ndarray, p: int, k: int) -> np.ndarray:
    """p-adic valuation of residues modulo p**k, with k for zero."""
    if k == 1:
        return (a == 0).astype(np.int8)
    val = np.zeros(a.shape, dtype=np.int8)
    pe = 1
    for _ in range(k):
        pe *= p
        val += (a & (pe - 1) if p == 2 else a - a // pe * pe) == 0
    return val


def _unit_inverse(u: np.ndarray, p: int, k: int) -> np.ndarray:
    """Inverse of unit residues modulo q = p**k as u**(phi(q) - 1), by
    squaring."""
    q = p**k
    e = p ** (k - 1) * (p - 1) - 1
    out = np.ones_like(u)
    base = u
    while e:
        if e & 1:
            out = _reduce(out * base, p, q)
        base = _reduce(base * base, p, q)
        e >>= 1
    return out


def _local_kernel(a: np.ndarray, p: int, k: int) -> np.ndarray:
    """Kernel generators over Z_q, q = p**k, of a batch of residue matrices.

    Smith elimination on the local ring Z_q: the pivot is the entry of least
    valuation in the remaining block (ties to the lowest (row, col) in
    row-major order), so it divides every block entry up to a unit and one
    pass clears its row and column.  Only the column transform is tracked.
    Pivot column j of valuation v yields p**(k - v) times transform column
    j; a column without a pivot yields the transform column itself.

    The elimination runs in the narrowest signed dtype of
    ``_residue_dtype(q)`` (int8 up to q = 12, int16 up to 182, int32 up to
    46,341): every residue product is formed and reduced before the next one,
    so the result, returned as int64, does not depend on the width.
    """
    q = p**k
    dtype = _residue_dtype(q)
    a = a.astype(dtype)
    batch, m, n = a.shape
    basis = np.tile(np.eye(n, dtype=dtype), (batch, 1, 1))  # basis[b, j] = column j
    scale = np.ones((batch, n), dtype=np.int64)
    at = np.arange(batch)
    for _ in range(min(m, n)):
        flat = _valuation(a, p, k).reshape(batch, -1)
        pos = flat.argmin(axis=1)
        v = flat[at, pos].astype(dtype)
        found = v < k
        if not found.any():
            break
        # A system whose block is already zero gets zero multipliers below,
        # which leave its matrix and transform unchanged.
        v[~found] = 0
        r, c = np.divmod(pos, n)
        pv = p**v
        pivot_row = a[at, r]
        inv = _unit_inverse(pivot_row[at, c] // pv, p, k) * found
        # Row operations clear column c outside the pivot row.  Residue
        # products stay below q**2, so one reduction after subtracting.
        f = _reduce(a[at, :, c] // pv[:, None] * inv[:, None], p, q)
        f[at, r] = 0
        a -= f[:, :, None] * pivot_row[:, None, :]
        _reduce(a, p, q)
        # Column operations clear row r; in the transform they act on the
        # basis.  In the matrix the pivot row is zeroed, pivot included:
        # column c is already zero elsewhere, so a finished row and column
        # read as zero and never compete again.
        g = _reduce(pivot_row // pv[:, None] * inv[:, None], p, q)
        g[at, c] = 0
        basis -= g[:, :, None] * basis[at, c][:, None, :]
        _reduce(basis, p, q)
        a[at, r] = 0
        scale[at[found], c[found]] = p ** (k - v[found]) % q  # 0, not q, when v = 0
    return _reduce(basis * scale[:, :, None], p, q)


def kernel_mod_batch(systems, d: int) -> np.ndarray:
    """Kernel generators modulo d of every system in a batch.

    ``systems`` is an (N, m, n) integer array, int64 or Python ints in an
    object array.  The result is an (N, n, n) array: row j of system b is the
    generator read off column j, and all-zero rows are not generators.  The
    nonzero rows of system b generate {x in Z_d^n : A_b x = 0 (mod d)}.

    Moduli passing ``fits_int64`` run batched, one elimination per prime
    power q of d in the narrowest dtype that holds it, lifted to Z_d by CRT
    in int64.  Larger moduli run one Smith
    normal form per system on Python integers and return an object array.
    """
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    systems = np.asarray(systems)
    batch, _, n = systems.shape
    if not fits_int64(d, n):
        out = np.zeros((batch, n, n), dtype=object)
        for b, a in enumerate(systems):
            gens = kernel_from_snf(smith_normal_form(a.tolist(), ncols=n), d)
            if gens:
                out[b, : len(gens)] = gens
        return out
    out = np.zeros((batch, n, n), dtype=np.int64)
    for p, k in prime_powers(d):
        q = p**k
        rest = d // q
        idempotent = rest * pow(rest, -1, q) % d  # 1 mod q, 0 mod d / q
        # Weights are arbitrary Python ints: reduce before any narrowing cast.
        out = (out + _local_kernel(systems % q, p, k) * idempotent % d) % d
    return out


def det_fits_int64(m: int, bound: int) -> bool:
    """True when fraction-free elimination of m x m matrices with entries of
    absolute value at most ``bound`` stays inside int64.

    Every interior entry is a minor of order at most m, at most
    m**(m/2) * bound**m by Hadamard's inequality, and each update subtracts
    one product of two minors from another.
    """
    return 2 * m**m * bound ** (2 * m) < 2**63


def det_batch(blocks) -> np.ndarray:
    """Exact determinants of a stack of square integer matrices.

    ``blocks`` is an (N, m, m) integer array, int64 or narrower, or Python
    ints as nested lists or an object array.  Fraction-free Bareiss
    elimination runs on the whole stack at once, each matrix taking as pivot
    the first nonzero entry at or below the diagonal (a row swap flips its
    sign); the interior divisions are exact by the Bareiss identity.  When
    ``det_fits_int64`` holds for the largest entry the loop runs in int64 and
    the result is an int64 array of shape (N,); otherwise it runs on Python
    ints and the result is an object array.  The empty 0x0 matrix has
    determinant 1.
    """
    if not isinstance(blocks, np.ndarray):
        blocks = np.array(blocks, dtype=object)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError(f"determinants need an (N, m, m) stack, got shape {blocks.shape}")
    batch, m, _ = blocks.shape
    if np.can_cast(blocks.dtype, np.int64):
        bound = max(int(blocks.max()), -int(blocks.min())) if blocks.size else 0
    elif blocks.dtype == object or blocks.dtype.kind == "u":
        bound = max((abs(int(x)) for x in blocks.flat), default=0)
    else:
        raise ValueError(f"determinants need integer entries, got {blocks.dtype}")
    if m == 0:
        return np.ones(batch, dtype=np.int64)
    dtype = np.int64 if det_fits_int64(m, bound) else object
    a = blocks.astype(dtype)
    sign = np.ones(batch, dtype=np.int64)
    prev = np.ones(batch, dtype=dtype)
    for k in range(m - 1):
        # A column with no pivot keeps pivot 0, which zeroes the rest of the
        # elimination and so the determinant.
        piv = k + (a[:, k:, k] != 0).argmax(axis=1)
        swap = np.flatnonzero(piv != k)
        if swap.size:
            row = a[swap, k].copy()
            a[swap, k] = a[swap, piv[swap]]
            a[swap, piv[swap]] = row
            sign[swap] = -sign[swap]
        pivot = a[:, k, k]
        a[:, k + 1 :, k + 1 :] = (
            a[:, k + 1 :, k + 1 :] * pivot[:, None, None]
            - a[:, k + 1 :, k, None] * a[:, None, k, k + 1 :]
        ) // prev[:, None, None]
        prev = np.where(pivot == 0, 1, pivot)
    return sign * a[:, m - 1, m - 1]
