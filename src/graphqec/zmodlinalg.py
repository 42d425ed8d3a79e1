"""Exact integer linear algebra over Z and Z_d.

``kernel_mod_batch`` decides a whole batch of systems at once by numpy
elimination over each prime-power factor Z_{p^k} of the modulus, combined by
CRT, for every modulus: residues live in the narrowest signed integer dtype
that holds a product of two of them, and on Python integers in an object
array once that no longer fits int64.  ``prime_powers`` splits the modulus,
but factors only cofactors small enough for a fixed-width dtype; a larger
cofactor is eliminated over as if it were prime, and a pivot that is not a
unit splits it.  ``prime_factors`` (Pollard rho with certified Miller-Rabin)
also serves the bad-prime sets of determinant reports.  ``det_batch``
computes exact determinants of an int64 or object stack by one vectorized
fraction-free Bareiss loop, in int64 when the entries allow and on Python
integers otherwise.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


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
    """(p, k) for every prime power p**k exactly dividing d, in increasing p,
    except that the cofactor free of the primes below 43 comes last and
    whole, as (c, 1), when it is too large for a fixed-width
    ``_residue_dtype``.

    Such a cofactor is not factored: Pollard rho can stall on it and
    Miller-Rabin cannot always certify it.  ``kernel_mod_batch`` eliminates
    modulo it as if it were prime and splits it at the first pivot that is
    not a unit.
    """
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    cofactor = d
    for p in _SMALL_PRIMES:
        while cofactor % p == 0:
            cofactor //= p
    large = [cofactor] if _residue_dtype(cofactor) is object else []
    out = []
    for p in sorted(prime_factors(d // math.prod(large))) + large:
        k = 0
        while d % p == 0:
            d //= p
            k += 1
        out.append((p, k))
    return tuple(out)


def _residue_dtype(q: int):
    """Narrowest signed integer dtype in which elimination modulo q runs
    exactly: the widest intermediate is a product of two residues, at most
    (q - 1)**2, subtracted from a residue before it is reduced.  Past int64,
    ``object``: Python integers."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if (q - 1) ** 2 <= np.iinfo(dtype).max:
            return dtype
    return object


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
    val = np.zeros(a.shape, dtype=np.int8 if k <= 127 else np.int64)
    pe = 1
    for _ in range(k):
        pe *= p
        val += (a & (pe - 1) if p == 2 else a - a // pe * pe) == 0
    return val


class _NonUnitPivot(ArithmeticError):
    """A nonzero pivot that is not a unit modulo p**k; the argument is its gcd
    with p, a proper divisor of p, so p is not prime."""


def _unit_inverse(u: np.ndarray, p: int, k: int) -> np.ndarray:
    """Inverse of unit residues modulo q = p**k, and 0 for 0.

    Fixed-width residues have a prime p, since ``prime_powers`` factors every
    modulus that small, and take u**(phi(q) - 1) by squaring.  Python-int
    residues take ``pow(u, -1, q)``, which fails exactly on non-units: p need
    not be prime there, and a nonzero non-unit raises ``_NonUnitPivot``.
    """
    q = p**k
    if u.dtype == object:
        try:
            return np.array([pow(x, -1, q) if x else 0 for x in u.tolist()], dtype=object)
        except ValueError:
            # gcd(x, p) is p only for x = 0: a nonzero pivot of valuation v
            # is p**v times a residue that p does not divide.
            raise _NonUnitPivot(
                next(g for x in u.tolist() if (g := math.gcd(x, p)) not in (1, p))
            ) from None
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

    The elimination is exact for any p, prime or not, as long as every
    normalised pivot is a unit: a pivot of least valuation v divides every
    entry of its block, and p**v x = 0 (mod p**k) exactly when p**(k - v)
    divides x.  ``_unit_inverse`` raises ``_NonUnitPivot`` otherwise.

    The elimination runs in the narrowest dtype of ``_residue_dtype(q)``
    (int8 up to q = 12, int16 up to 182, int32 up to 46,341, int64 up to
    about 3.04e9, then Python ints): every residue product is formed and
    reduced before the next one, so the result, returned as int64 or on
    Python ints past int64, does not depend on the width.
    """
    q = p**k
    dtype = _residue_dtype(q)
    a = a.astype(dtype)
    batch, m, n = a.shape
    basis = np.tile(np.eye(n, dtype=dtype), (batch, 1, 1))  # basis[b, j] = column j
    scale = np.ones((batch, n), dtype=object if dtype is object else np.int64)
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

    One batched elimination runs per factor p**k of ``prime_powers(d)``, in
    the narrowest dtype that holds it, lifted to Z_d by CRT: in int64 when
    ``fits_int64(d, n)`` holds, else on Python ints in an object array.  When
    p is a cofactor that is not prime, a pivot that is not a unit exposes a
    proper divisor g of p; p**k then splits by ``_coprime_split`` and each
    part is eliminated anew.
    """
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    systems = np.asarray(systems)
    batch, _, n = systems.shape
    dtype = np.int64 if fits_int64(d, n) else object
    if dtype is object:
        systems = systems.astype(object)  # a factor may exceed int64
    out = np.zeros((batch, n, n), dtype=dtype)
    factors = list(prime_powers(d))
    while factors:
        p, k = factors.pop()
        q = p**k
        try:
            # Weights are arbitrary Python ints: reduce before any narrowing cast.
            local = _local_kernel(systems % q, p, k)
        except _NonUnitPivot as exc:
            factors += _coprime_split(p, k, *exc.args)
            continue
        rest = d // q
        idempotent = rest * pow(rest, -1, q) % d  # 1 mod q, 0 mod d / q
        out = (out + local.astype(dtype, copy=False) * idempotent % d) % d
    return out


def _coprime_split(p: int, k: int, g: int) -> list[tuple[int, int]]:
    """The factors of p**k for ``kernel_mod_batch``, given a proper divisor g
    of p.

    p is a product of powers b**e of the pairwise coprime base that g and
    p / g refine to (replace two elements sharing h = gcd by their quotients
    and h until none do), and each b**(e k) goes through ``prime_powers``.
    """
    base = {g, p // g}
    while pair := next(
        ((x, y) for x, y in itertools.combinations(sorted(base), 2) if math.gcd(x, y) > 1),
        None,
    ):
        h = math.gcd(*pair)
        base = (base - set(pair)) | {pair[0] // h, h, pair[1] // h}
        base.discard(1)
    out = []
    for b in sorted(base):
        e = 0
        while p % b == 0:
            p //= b
            e += 1
        out += [(r, j * e * k) for r, j in prime_powers(b)]
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

    ``blocks`` is an (N, m, m) array with m >= 1, int64 or Python ints in an
    object array.  Fraction-free Bareiss elimination runs on the whole stack
    at once, each matrix taking as pivot the first nonzero entry at or below
    the diagonal (a row swap flips its sign); the interior divisions are
    exact by the Bareiss identity.  When ``det_fits_int64`` holds for the
    largest entry the loop runs in int64 and the result is an int64 array of
    shape (N,); otherwise it runs on Python ints and the result is an object
    array.
    """
    if blocks.ndim != 3 or not 0 < blocks.shape[1] == blocks.shape[2]:
        raise ValueError(f"determinants need an (N, m, m) stack, m >= 1, got {blocks.shape}")
    if blocks.dtype == np.int64:
        bound = max(int(blocks.max()), -int(blocks.min())) if blocks.size else 0
    elif blocks.dtype == object:
        bound = max((abs(int(x)) for x in blocks.flat), default=0)
    else:
        raise ValueError(f"determinants need an int64 or object stack, got {blocks.dtype}")
    batch, m, _ = blocks.shape
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
