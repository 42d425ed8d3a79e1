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


def _assignment_codes(count: int, positions: int, order: int) -> np.ndarray:
    """Element indices for all assignments, last position varying fastest."""
    idx = np.arange(count, dtype=np.int64)
    codes = np.empty((count, positions), dtype=np.int64)
    for pos in range(positions - 1, -1, -1):
        codes[:, pos] = idx % order
        idx //= order
    return codes


def check_size(graph: WeightedGraph, group: FiniteAbelianGroup) -> None:
    """ValueError when the instance exceeds SIZE_CAP; the oracle runs only
    on instances that pass."""
    total = group.order ** graph.n
    if total > SIZE_CAP:
        raise ValueError(
            f"oracle instance size |G|^(n) = {group.order}^{graph.n} = {total} "
            f"exceeds the cap {SIZE_CAP}"
        )


def build_isometry(graph: WeightedGraph, group: FiniteAbelianGroup) -> CodeIsometry:
    """Materialize the code map as a |G|^|Y| x |G|^|X| complex matrix.

    Each entry is |G|^(-|Y|/2) times a root of unity whose exact rational
    exponent is accumulated per cyclic factor over all weighted vertex pairs;
    floats enter only in the final exponential.  Instances failing
    ``check_size`` are refused before anything is allocated.
    """
    check_size(graph, group)
    xs, ys = graph.inputs, graph.outputs
    order = group.order
    n_rows = order ** len(ys)
    n_cols = order ** len(xs)
    lcm = group.exponent

    elems = np.array(
        list(itertools.product(*(range(d) for d in group.factors))), dtype=np.int64
    ).reshape(order, group.rank)
    codes_y = _assignment_codes(n_rows, len(ys), order)
    codes_x = _assignment_codes(n_cols, len(xs), order)

    gyy = np.array(graph.submatrix(ys, ys), dtype=np.int64)
    gyx = np.array(graph.submatrix(ys, xs), dtype=np.int64).reshape(len(ys), len(xs))
    gxx = np.array(graph.submatrix(xs, xs), dtype=np.int64).reshape(len(xs), len(xs))

    phase_num = np.zeros((n_rows, n_cols), dtype=np.int64)
    for i, d in enumerate(group.factors):
        ay = elems[:, i][codes_y]  # (rows, |Y|) residues of factor i
        ax = elems[:, i][codes_x]  # (cols, |X|)
        # pair sums: a.T gamma a double-counts every unordered pair, halve it
        qyy = np.einsum("rv,vw,rw->r", ay, gyy, ay) // 2
        qxx = np.einsum("cv,vw,cw->c", ax, gxx, ax) // 2
        qxy = ay @ gyx @ ax.T
        phase_num += (lcm // d) * ((qyy[:, None] + qxx[None, :] + qxy) % d)
    phase_num %= lcm

    roots = np.exp(2j * np.pi * np.arange(lcm) / lcm)
    matrix = roots[phase_num] * (float(order) ** (-len(ys) / 2))
    return CodeIsometry(
        group=group,
        graph_id=describe(graph),
        inputs=xs,
        outputs=ys,
        matrix=matrix,
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
    M_ab[c, d].  Each stack is one row block of that Gram matrix, at most as
    many bytes as V itself (but at least one assignment high).
    """
    a_mat, n_e = _error_leg_matrix(isometry, config)
    cols = isometry.cols
    height = max(1, a_mat.shape[0] // cols)
    for lo in range(0, n_e, height):
        hi = min(n_e, lo + height)
        block = a_mat[:, lo * cols:hi * cols].conj().T @ a_mat
        yield block.reshape(hi - lo, cols, n_e, cols).transpose(0, 2, 1, 3)


def _all_scalar(compressed: np.ndarray) -> bool:
    """True iff every matrix in the stack is a multiple of the identity:
    off-diagonal entries below TOL and diagonal entries mutually within
    TOL."""
    cols = compressed.shape[-1]
    off_mask = ~np.eye(cols, dtype=bool)
    if np.abs(compressed[..., off_mask]).max(initial=0.0) >= TOL:
        return False
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
