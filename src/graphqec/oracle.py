"""Brute-force ground truth for small instances.

The code map is a dense matrix with rows indexed by output assignments and
columns by input assignments, both in lexicographic element order.  Every
entry is the same modulus times a root of unity, so it is stored as its
exact phase exponent, modulo the group exponent, in the narrowest unsigned
type (one byte per entry up to exponent 256), beside the pre-scaled roots:
entry (r, c) is ``roots[phase[r, c]]``.  No complex copy of the whole
matrix is kept.  Detection is then checked directly through the
Knill-Laflamme factorization: for every rank-one error operator localized in
the configuration, the compressed operator on the input space must be a
multiple of the identity.  Each check allocates a copy of the phases in
its error-leg layout (the same narrow type), buffers for the indices,
operands and product of a row chunk, and the Gram tile being summed; only
a row chunk at a time is expanded into the roots' type, float64 for
exponent 2 (the roots are then +-|G|^(-|Y|/2), so Z2 and Z2 x Z2 sum real
products) and complex128 otherwise.  With Q the bytes of the phases,
B = max(Q, FLOOR_BYTES) and P = 16 |G|^(2|X|) bytes of one complex
compressed operator, chunks and tiles stay within max(B, P), so a check
holds at most 8 B + 4 P + 1 MiB: 321 MiB at most, as the build refuses
|G|^n or |G|^(2|X|) above ``graphcode.SIZE_CAP`` before anything is
allocated.  With V = 16 |G|^n bytes of the complex matrix that is never
built, ``tracemalloc`` measures the build at under 0.08 V, a check at
0.22-0.42 V on tenfold over Z3 and matrix19 over Z5, 1.34 V on wheel over
Z6 (where the floor sets B), 17.5-18 MiB (0.27-0.28 V, 4.4-4.5 Q) on
tenfold over Z4 and Z2 x Z2 at the cap, and 24.1 MiB (1.5 P) on a
12-vertex path with inputs 0-9 over Z2.

Normalization is the counting measure: basis vectors indexed by group
elements are orthonormal, so every matrix entry has modulus
|G|^(-|Y|/2) and "isometry" literally means orthonormal columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .abelian import FiniteAbelianGroup
from .graphcode import SIZE_CAP, WeightedGraph, describe, validated_config

# Entrywise tolerance of the Knill-Laflamme check.
TOL = 1e-8
# Fewest bytes a Gram tile or expanded row chunk of the oracle may hold
# before it is split, however few bytes of phases the code map has.
FLOOR_BYTES = 2**17


@dataclass(frozen=True)
class CodeIsometry:
    """The code map as exact phases: entry (r, c) is ``roots[phase[r, c]]``,
    with ``roots`` the exponent-th roots of unity scaled by |G|^(-|Y|/2):
    float64 +-|G|^(-|Y|/2) for exponent 2, complex128 otherwise."""

    graph: WeightedGraph
    group: FiniteAbelianGroup
    phase: np.ndarray
    roots: np.ndarray

    @property
    def rows(self) -> int:
        return self.phase.shape[0]

    @property
    def cols(self) -> int:
        return self.phase.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix in the roots' type (real for exponent 2), built
        anew on every access."""
        return self.roots.take(self.phase)


def _edge_phases(residues: tuple[int, ...], group: FiniteAbelianGroup) -> np.ndarray:
    """(order, order) table of the phase numerator, modulo the exponent, that
    an edge with these weight residues (one per cyclic factor) adds between
    the element assignments of its two ends."""
    rank, lcm = group.rank, group.exponent
    table = np.zeros(group.factors * 2, dtype=np.int64)
    for i, (d, w) in enumerate(zip(group.factors, residues)):
        res = np.arange(d, dtype=np.int64)
        shape = [1] * (2 * rank)
        shape[i] = shape[rank + i] = d
        table += (lcm // d) * (np.multiply.outer(res * w % d, res) % d).reshape(shape)
    return table.reshape(group.order, group.order) % lcm


def build_isometry(graph: WeightedGraph, group: FiniteAbelianGroup) -> CodeIsometry:
    """The code map as the |G|^|Y| x |G|^|X| phases of its entries.

    Each entry is |G|^(-|Y|/2) times a root of unity whose exact rational
    exponent is accumulated over all weighted vertex pairs: the numerator
    lives in a tensor with one axis per vertex (outputs, then inputs), in
    the narrowest unsigned type that holds its sum, and each edge adds its
    table of weight residues modulo every cyclic factor, reduced on Python
    ints, by broadcasting.  The sum is reduced modulo the exponent and kept
    in the narrowest type that holds the exponent; no complex array larger
    than the exponent's roots is built.  Instances over SIZE_CAP, in code
    matrix or compressed operator entries, raise ValueError before anything
    is allocated.
    """
    xs, ys = graph.inputs, graph.outputs
    order, lcm = group.order, group.exponent
    for what, exponent in (("instance size |G|^(n)", graph.n),
                           ("compressed operator size |G|^(2|X|)", 2 * len(xs))):
        total = order**exponent
        if total > SIZE_CAP:
            raise ValueError(f"oracle {what} = {order}^{exponent} = {total} "
                             f"exceeds the cap {SIZE_CAP}")
    axes = ys + xs
    tables: dict[tuple[int, ...], np.ndarray] = {}
    edges = []
    for a, b in itertools.combinations(range(len(axes)), 2):
        residues = tuple(graph.gamma[axes[a]][axes[b]] % d for d in group.factors)
        if any(residues):
            if residues not in tables:
                tables[residues] = _edge_phases(residues, group)
            edges.append((a, b, tables[residues]))

    # the dtype holds lcm itself and the sum of one table entry per edge
    dtype = np.min_scalar_type(lcm * max(1, len(edges)))
    phase = np.zeros((order,) * len(axes), dtype=dtype)
    for a, b, table in edges:
        shape = [1] * len(axes)
        shape[a] = shape[b] = order
        phase += table.astype(dtype).reshape(shape)
    phase %= lcm

    scale = float(order) ** (-len(ys) / 2)
    if lcm == 2:  # the roots are +-1: exact and real
        roots = np.array([scale, -scale])
    else:
        roots = np.exp(2j * np.pi * np.arange(lcm) / lcm) * scale
    return CodeIsometry(
        graph=graph,
        group=group,
        phase=phase.astype(np.min_scalar_type(lcm - 1), copy=False).reshape(
            order ** len(ys), order ** len(xs)
        ),
        roots=roots,
    )


def _error_leg_phases(
    isometry: CodeIsometry, config: tuple[int, ...]
) -> tuple[np.ndarray, int]:
    """Lay the phases out as A of shape (|G|^|I|, |G|^|E| * cols): column
    (a, c) holds the phases of column c of V on the rows whose E legs read
    a."""
    order = isometry.group.order
    ys = isometry.graph.outputs
    pos = {v: i for i, v in enumerate(ys)}
    e_axes = [pos[v] for v in config]
    i_axes = [i for i in range(len(ys)) if ys[i] not in set(config)]
    cols = isometry.cols
    tensor = isometry.phase.reshape((order,) * len(ys) + (cols,))
    tensor = tensor.transpose(tuple(i_axes) + tuple(e_axes) + (len(ys),))
    n_e = order ** len(config)
    return tensor.reshape(order ** len(i_axes), n_e * cols), n_e


def _compressions(
    isometry: CodeIsometry, config: tuple[int, ...]
) -> Iterator[np.ndarray]:
    """Yield the compressed operators M_ab = V* (|a><b| (x) id) V with
    a <= b, as tiles of shape (h, w, cols, cols) over consecutive ranges of a
    and of b, row by row.  M_ba is the adjoint of M_ab, so it is a multiple
    of the identity exactly when M_ab is.

    With A the matrix of the roots at the phases from ``_error_leg_phases``,
    entry ((a, c), (b, d)) of A^H A is M_ab[c, d].  A tile is summed in place
    over row chunks of A; each chunk is expanded from the phases once per
    tile into the roots' type, and the left operand is a conjugated slice of
    it unless a Gram row does not fit the budget (then tiles are one a
    high).  The budget is the bytes of the phases, or FLOOR_BYTES, whichever
    is more: tiles and chunks hold at most that (but at least one M_ab and
    one row), and index, operand and product buffers allocated once per call
    hold every chunk's.  With B the budget and P the complex bytes of one
    M_ab, a call holds at most 8 B + 4 P + 1 MiB: the phase copy (at most
    B), the buffers (3 B for real roots, 2.5 B for complex), and at most 4
    tile-sized arrays (the tile, the product, and the next tile or the
    temporaries of ``_all_scalar``); see the module docstring for measured
    peaks.
    """
    phases, n_e = _error_leg_phases(isometry, config)
    cols, roots = isometry.cols, isometry.roots
    budget = max(phases.nbytes, FLOOR_BYTES)
    pair = roots.itemsize * cols * cols  # bytes of one M_ab
    width = min(n_e, max(1, budget // pair))
    height = max(1, budget // (pair * n_e)) if width == n_e else 1
    # The indices, operands and product of every chunk live in buffers
    # allocated once per call: arrays made afresh for each chunk went back
    # to the system and were page-faulted in again on every chunk.
    entries = min(phases.size, max(budget // roots.itemsize, width * cols))
    index = np.empty(entries, dtype=np.intp)
    right_rows = np.empty(entries, dtype=roots.dtype)
    left_rows = np.empty(entries, dtype=roots.dtype)
    product = np.empty(min(height, n_e) * width * cols * cols, dtype=roots.dtype)

    def expand(chunk, table, out):
        """table[chunk] in ``out``, shaped like the chunk of phases.  Phases
        are below the exponent, so "clip" never clips; unlike "raise", it
        lets ``take`` write into ``out`` directly."""
        idx = index[:chunk.size].reshape(chunk.shape)
        np.copyto(idx, chunk)
        return table.take(idx, out=out[:chunk.size].reshape(chunk.shape), mode="clip")

    for lo in range(0, n_e, height):
        hi = min(n_e, lo + height)
        for b_lo in range(lo, n_e, width):
            b_hi = min(n_e, b_lo + width)
            depth = max(1, budget // (roots.itemsize * (b_hi - b_lo) * cols))
            block = np.zeros(((hi - lo) * cols, (b_hi - b_lo) * cols), dtype=roots.dtype)
            prod = product[:block.size].reshape(block.shape)
            for r in range(0, len(phases), depth):
                chunk = phases[r:r + depth]
                right = expand(chunk[:, b_lo * cols:b_hi * cols], roots, right_rows)
                if b_lo == lo:
                    left = right[:, :(hi - lo) * cols]
                    left = np.conjugate(left, out=left_rows[:left.size].reshape(left.shape))
                else:
                    left = expand(chunk[:, lo * cols:hi * cols], roots.conj(), left_rows)
                block += np.matmul(left.T, right, out=prod)
            yield block.reshape(hi - lo, cols, b_hi - b_lo, cols).transpose(0, 2, 1, 3)


def _all_scalar(compressed: np.ndarray) -> bool:
    """True iff every matrix in the stack is a multiple of the identity:
    off-diagonal entries below TOL and diagonal entries mutually within
    TOL."""
    magnitude = np.abs(compressed)
    np.einsum("abcc->abc", magnitude)[...] = 0.0  # leaves the off-diagonal
    if magnitude.max(initial=0.0) >= TOL:
        return False
    del magnitude  # before the spread's block-sized temporaries
    diag = np.einsum("abcc->abc", compressed)
    spread = np.abs(diag[..., :, None] - diag[..., None, :]).max(initial=0.0)
    return bool(spread < TOL)


def kl_detects(isometry: CodeIsometry, config) -> bool:
    """Knill-Laflamme check over all rank-one operators localized in config.

    For every pair of error-leg assignments (a, b) the compressed operator
    M = V* (|a><b| (x) id) V must be a scalar multiple of the identity:
    off-diagonal entries below TOL and diagonal entries mutually within
    TOL.  Rank-one operators span everything localized in the
    configuration, so this is exhaustive.  ValueError unless ``config`` is
    a set of outputs of the isometry's graph.  The empty configuration asks
    whether the code map is an isometry: every column has norm 1, so a
    scalar Gram matrix is the identity.
    """
    cfg = validated_config(isometry.graph, config)
    if isometry.cols <= 1:
        return True  # any 1x1 compression is a scalar multiple of identity
    return all(_all_scalar(m) for m in _compressions(isometry, cfg))


def export_isometry_csv(isometry: CodeIsometry, path) -> dict:
    """Write (row, col, real, imag) lines in lexicographic order, as
    ``csv.writer`` would; returns the JSON-ready header describing the dump.
    Each root of unity is formatted once."""
    tails = [f",{float(z.real)!r},{float(z.imag)!r}\r\n" for z in isometry.roots]
    with open(path, "w", newline="") as fh:
        for r, row in enumerate(isometry.phase):
            fh.write("".join([f"{r},{c}{tails[k]}" for c, k in enumerate(row.tolist())]))
    return {
        "group": list(isometry.group.factors),
        "graph": describe(isometry.graph),
        "rows": isometry.rows,
        "cols": isometry.cols,
        "normalization": "counting",
    }
