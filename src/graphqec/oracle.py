"""Brute-force ground truth for small instances.

The code map is materialized as a dense complex matrix with rows indexed by
output assignments and columns by input assignments, both in lexicographic
element order.  Detection is then checked directly through the
Knill-Laflamme factorization: for every rank-one error operator localized in
the configuration, the compressed operator on the input space must be a
multiple of the identity.

Normalization is the counting measure: basis vectors indexed by group
elements are orthonormal, so every matrix entry has modulus
|G|^(-|Y|/2) and "isometry" literally means orthonormal columns.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .abelian import FiniteAbelianGroup
from .graphcode import WeightedGraph, describe, validated_config

# Largest code matrix built, in |G|^n entries (the sweep cap, 2**22).
SIZE_CAP = 2**22
# Entrywise tolerance of the orthonormality and Knill-Laflamme checks.
TOL = 1e-8
# Fewest bytes a Gram row block or conjugated row chunk of the oracle may
# hold before it is split: layouts this small are checked in one product.
MIN_BLOCK_BYTES = 2**16


@dataclass(frozen=True)
class CodeIsometry:
    group: FiniteAbelianGroup
    graph_id: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    matrix: np.ndarray

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def entry_modulus(self) -> float:
        return float(self.group.order) ** (-len(self.outputs) / 2)


def check_size(graph: WeightedGraph, group: FiniteAbelianGroup) -> None:
    """ValueError when the instance exceeds SIZE_CAP; the oracle runs only
    on instances that pass."""
    total = group.order ** graph.n
    if total > SIZE_CAP:
        raise ValueError(
            f"oracle instance size |G|^(n) = {group.order}^{graph.n} = {total} "
            f"exceeds the cap {SIZE_CAP}"
        )


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
    """Materialize the code map as a |G|^|Y| x |G|^|X| complex matrix.

    Each entry is |G|^(-|Y|/2) times a root of unity whose exact rational
    exponent is accumulated over all weighted vertex pairs: the numerator
    lives in a tensor with one axis per vertex (outputs, then inputs), in
    the narrowest unsigned type that holds its sum, and each edge adds its
    table of weight residues modulo every cyclic factor, reduced on Python
    ints, by broadcasting.  Floats enter only in the final lookup of scaled
    roots of unity, so the code matrix is the only complex allocation.
    Instances failing ``check_size`` are refused before anything is
    allocated.
    """
    check_size(graph, group)
    xs, ys = graph.inputs, graph.outputs
    order, lcm = group.order, group.exponent
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

    roots = np.exp(2j * np.pi * np.arange(lcm) / lcm) * (float(order) ** (-len(ys) / 2))
    return CodeIsometry(
        group=group,
        graph_id=describe(graph),
        inputs=xs,
        outputs=ys,
        matrix=roots[phase.reshape(order ** len(ys), order ** len(xs))],
    )


def check_isometry(isometry: CodeIsometry) -> bool:
    """True iff the columns are orthonormal within TOL entrywise."""
    v = isometry.matrix
    gram = v.conj().T @ v
    return bool(np.abs(gram - np.eye(v.shape[1])).max() < TOL)


def _error_leg_matrix(
    isometry: CodeIsometry, config: tuple[int, ...]
) -> tuple[np.ndarray, int]:
    """Lay the matrix out as A of shape (|G|^|I|, |G|^|E| * cols): column
    (a, c) holds column c of V restricted to the rows whose E legs read a."""
    order = isometry.group.order
    ys = isometry.outputs
    pos = {v: i for i, v in enumerate(ys)}
    e_axes = [pos[v] for v in config]
    i_axes = [i for i in range(len(ys)) if ys[i] not in set(config)]
    cols = isometry.cols
    tensor = isometry.matrix.reshape((order,) * len(ys) + (cols,))
    tensor = tensor.transpose(tuple(i_axes) + tuple(e_axes) + (len(ys),))
    n_e = order ** len(config)
    return tensor.reshape(order ** len(i_axes), n_e * cols), n_e


def _isometry_for(
    graph: WeightedGraph, group: FiniteAbelianGroup, isometry: CodeIsometry | None
) -> CodeIsometry:
    """Build the isometry, or check that a given one belongs to (graph, group)."""
    if isometry is None:
        return build_isometry(graph, group)
    if isometry.group != group:
        raise ValueError(
            f"isometry is over the group {list(isometry.group.factors)}, "
            f"not {list(group.factors)}"
        )
    if isometry.inputs != graph.inputs or isometry.outputs != graph.outputs:
        raise ValueError(
            f"isometry has inputs {list(isometry.inputs)} and outputs "
            f"{list(isometry.outputs)}, the graph has inputs {list(graph.inputs)} "
            f"and outputs {list(graph.outputs)}"
        )
    return isometry


def _compressions(
    isometry: CodeIsometry, config: tuple[int, ...]
) -> Iterator[np.ndarray]:
    """Yield every compressed operator M_ab = V* (|a><b| (x) id) V, as stacks
    of shape (h, |G|^|E|, cols, cols) over consecutive ranges of a.

    With A from ``_error_leg_matrix``, entry ((a, c), (b, d)) of A^H A is
    M_ab[c, d].  Each stack is one row block of that Gram matrix, summed in
    place over row chunks of A so that only one chunk at a time is
    conjugated.  Blocks and chunks hold at most a quarter of V's bytes, or
    MIN_BLOCK_BYTES, whichever is more (but at least one assignment high
    and one row deep).
    """
    a_mat, n_e = _error_leg_matrix(isometry, config)
    cols = isometry.cols
    budget = max(isometry.matrix.nbytes // 4, MIN_BLOCK_BYTES)
    height = max(1, budget // (a_mat.itemsize * cols * a_mat.shape[1]))
    for lo in range(0, n_e, height):
        hi = min(n_e, lo + height)
        left = a_mat[:, lo * cols:hi * cols]
        depth = max(1, budget // (left.itemsize * left.shape[1]))
        block = left[:depth].conj().T @ a_mat[:depth]
        for r in range(depth, len(a_mat), depth):
            block += left[r:r + depth].conj().T @ a_mat[r:r + depth]
        yield block.reshape(hi - lo, cols, n_e, cols).transpose(0, 2, 1, 3)


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


def kl_detects(
    graph: WeightedGraph,
    group: FiniteAbelianGroup,
    config,
    isometry: CodeIsometry | None = None,
) -> bool:
    """Knill-Laflamme check over all rank-one operators localized in config.

    For every pair of error-leg assignments (a, b) the compressed operator
    M = V* (|a><b| (x) id) V must be a scalar multiple of the identity:
    off-diagonal entries below TOL and diagonal entries mutually within
    TOL.  Rank-one operators span everything localized in the
    configuration, so this is exhaustive.  ``isometry`` must have been built
    for ``graph`` and ``group`` (ValueError otherwise).
    """
    cfg = validated_config(graph, config)
    isometry = _isometry_for(graph, group, isometry)
    if isometry.cols <= 1:
        return True  # any 1x1 compression is a scalar multiple of identity
    return all(_all_scalar(m) for m in _compressions(isometry, cfg))


def isometry_header(isometry: CodeIsometry) -> dict:
    return {
        "group": list(isometry.group.factors),
        "graph": isometry.graph_id,
        "rows": isometry.rows,
        "cols": isometry.cols,
        "normalization": "counting",
    }


def export_isometry_csv(isometry: CodeIsometry, path) -> dict:
    """Write (row, col, real, imag) lines in lexicographic order; returns the
    JSON-ready header describing the dump."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for r in range(isometry.rows):
            for c in range(isometry.cols):
                entry = isometry.matrix[r, c]
                writer.writerow([r, c, repr(float(entry.real)), repr(float(entry.imag))])
    return isometry_header(isometry)
