"""Shared test utilities: random instances, blocks of gamma and detection
systems, the reference Smith normal form and the kernels read off it,
brute-force kernels, strong detection and determinants, canonical forms of
small graphs, verdict re-verification, the export format written by
`csv.writer`, and a guard that the oracle refuses before using numpy.
Matrices are plain lists of row lists; operations that must work on matrices
with zero rows take an explicit column count."""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from graphqec import oracle
from graphqec.detector import FAILED_COUPLING, FAILED_INPUT
from graphqec.graphcode import WeightedGraph, validated_config


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


def submatrix(graph: WeightedGraph, rows, cols) -> list[list[int]]:
    """The block gamma[rows, cols] in the given vertex orders, read off
    ``graph.gamma`` entry by entry, independently of the detector's gather."""
    return [[graph.gamma[k][l] for l in cols] for k in rows]


def detection_system(graph: WeightedGraph, config):
    """Rows (untouched outputs), columns (inputs plus errors) and the block
    of gamma linking them, in ascending vertex order."""
    cfg = validated_config(graph, config)
    rows = tuple(y for y in graph.outputs if y not in cfg)
    cols = tuple(sorted(graph.inputs + cfg))
    return rows, cols, submatrix(graph, rows, cols)


def reference_canonical_bits(gamma) -> str:
    """Minimum adjacency bit-string (upper triangle, row-major) over all n!
    relabellings, one at a time."""
    n = len(gamma)
    return min(
        "".join(
            "1" if gamma[perm[i]][perm[j]] else "0"
            for i in range(n)
            for j in range(i + 1, n)
        )
        for perm in itertools.permutations(range(n))
    )


def half_partitions(size: int):
    """Unordered half-half partitions of range(size) as (block, complement),
    lexicographic on the block holding 0."""
    for rest in itertools.combinations(range(1, size), size // 2 - 1):
        block = (0,) + rest
        yield block, tuple(v for v in range(size) if v not in block)


def gamma_from_bits(n: int, bits: str) -> tuple[tuple[int, ...], ...]:
    """The 0/1 adjacency matrix on n vertices whose upper triangle, row-major,
    reads ``bits``."""
    gamma = [[0] * n for _ in range(n)]
    it = iter(bits)
    for i in range(n):
        for j in range(i + 1, n):
            gamma[i][j] = gamma[j][i] = int(next(it))
    return tuple(tuple(row) for row in gamma)


def random_graph(rng, max_n=5, weights=(0, 1, 2)) -> WeightedGraph:
    """Random weighted graph on 2..max_n vertices with a single input vertex."""
    n = rng.randint(2, max_n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            w = rng.choice(weights)
            if w:
                edges.append((u, v, w))
    return WeightedGraph.from_edges(n, edges, (rng.randrange(n),))


def reference_csv(matrix, path) -> None:
    """The export format written entry by entry with ``csv.writer``: one
    (row, col, real, imag) line per entry, rows outer, floats by repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for r, row in enumerate(matrix):
            for c, entry in enumerate(row):
                writer.writerow([r, c, repr(float(entry.real)), repr(float(entry.imag))])


def kernel_mod(a, d: int, ncols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Reference kernel: generators of {x : A x = 0 (mod d)} read off one
    Smith normal form over Z."""
    return kernel_from_snf(smith_normal_form(a, ncols=ncols), d)


def all_vectors(d: int, n: int) -> np.ndarray:
    """Every vector of Z_d^n as the rows of a (d**n, n) array."""
    return np.indices((d,) * n, dtype=np.int64).reshape(n, d**n).T


def brute_force_kernel(a, d: int, ncols: int) -> set[tuple[int, ...]]:
    """Independent kernel oracle: every x in Z_d^n with A x = 0 (mod d), by
    enumerating all of Z_d^n."""
    reduced = np.array([[x % d for x in row] for row in a], dtype=np.int64)
    vecs = all_vectors(d, ncols)
    hits = (vecs @ reduced.reshape(len(a), ncols).T % d == 0).all(axis=1)
    return set(map(tuple, vecs[hits].tolist()))


def kernel_trivial(a, d: int, ncols: int | None = None) -> bool:
    """True iff the only solution of A x = 0 (mod d) is x = 0."""
    return not kernel_mod(a, d, ncols=ncols)


def strong_detects(graph, group, config) -> bool:
    """Reference for the stricter condition: the detection system has
    trivial kernel modulo every cyclic factor (implies detection)."""
    _, cols, system = detection_system(graph, config)
    return all(kernel_trivial(system, d, ncols=len(cols)) for d in group.factors)


def det_exact(a) -> int:
    """Reference determinant: fraction-free Bareiss elimination of one matrix
    on Python ints.  The empty 0x0 matrix has determinant 1."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_vec_mod(matrix, vec, d):
    return [sum(c * x for c, x in zip(row, vec)) % d for row in matrix]


def verify_witness(graph, verdict) -> None:
    """Re-check a negative verdict by direct modular arithmetic."""
    assert not verdict.detected
    d = verdict.factor
    vec = verdict.witness
    assert verdict.graph == graph and d in verdict.group.factors
    assert vec is not None and any(x % d for x in vec)
    _, cols, system = detection_system(graph, verdict.configuration)
    assert verdict.to_dict()["columns"] == list(cols)
    assert all(r == 0 for r in mat_vec_mod(system, vec, d))
    input_set = set(graph.inputs)
    input_pos = [i for i, c in enumerate(cols) if c in input_set]
    error_pos = [i for i, c in enumerate(cols) if c not in input_set]
    violates_inputs = any(vec[p] % d for p in input_pos)
    cross = submatrix(graph, graph.inputs, verdict.configuration)
    image = mat_vec_mod(cross, [vec[p] for p in error_pos], d)
    violates_coupling = any(image)
    assert violates_inputs or violates_coupling
    if verdict.failed_condition == FAILED_INPUT:
        assert violates_inputs
    else:
        assert verdict.failed_condition == FAILED_COUPLING
        assert violates_coupling


def verify_certificate(graph, verdict) -> None:
    """Re-check a positive verdict: every generator satisfies both conditions."""
    assert verdict.detected
    _, cols, system = detection_system(graph, verdict.configuration)
    input_set = set(graph.inputs)
    input_pos = [i for i, c in enumerate(cols) if c in input_set]
    error_pos = [i for i, c in enumerate(cols) if c not in input_set]
    cross = submatrix(graph, graph.inputs, verdict.configuration)
    assert verdict.certificate is not None
    assert verdict.graph == graph
    assert [d for d, _ in verdict.certificate] == list(verdict.group.factors)
    for d, generators in verdict.certificate:
        for gen in generators:
            assert all(r == 0 for r in mat_vec_mod(system, gen, d))
            assert all(gen[p] % d == 0 for p in input_pos)
            image = mat_vec_mod(cross, [gen[p] for p in error_pos], d)
            assert all(r == 0 for r in image)


def refuse_before_allocating(monkeypatch):
    """Make any numpy use by the oracle fail: a refusal must come first."""

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"oracle reached numpy.{name} past the size cap")

    monkeypatch.setattr(oracle, "np", NoNumpy())
