"""Shared test utilities: random instances, reference kernels and verdict
re-verification."""

from __future__ import annotations

from graphqec.detector import FAILED_COUPLING, FAILED_INPUT, detection_system
from graphqec.graphcode import WeightedGraph
from graphqec.zmodlinalg import KernelBasis, kernel_from_snf, smith_normal_form


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


def kernel_mod(a, d: int, ncols: int | None = None) -> KernelBasis:
    """Reference kernel: generators of {x : A x = 0 (mod d)} read off one
    Smith normal form over Z."""
    return kernel_from_snf(smith_normal_form(a, ncols=ncols), d)


def kernel_trivial(a, d: int, ncols: int | None = None) -> bool:
    """True iff the only solution of A x = 0 (mod d) is x = 0."""
    return kernel_mod(a, d, ncols=ncols).is_trivial


def mat_vec_mod(matrix, vec, d):
    return [sum(c * x for c, x in zip(row, vec)) % d for row in matrix]


def verify_witness(graph, verdict) -> None:
    """Re-check a negative verdict by direct modular arithmetic."""
    assert not verdict.detected
    d = verdict.factor
    vec = verdict.witness
    assert d in verdict.group_factors
    assert vec is not None and any(x % d for x in vec)
    _, cols, system = detection_system(graph, verdict.configuration)
    assert cols == verdict.columns
    assert all(r == 0 for r in mat_vec_mod(system, vec, d))
    input_set = set(graph.inputs)
    input_pos = [i for i, c in enumerate(cols) if c in input_set]
    error_pos = [i for i, c in enumerate(cols) if c not in input_set]
    violates_inputs = any(vec[p] % d for p in input_pos)
    cross = graph.submatrix(graph.inputs, verdict.configuration)
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
    cross = graph.submatrix(graph.inputs, verdict.configuration)
    assert verdict.certificate is not None
    assert [d for d, _ in verdict.certificate] == list(verdict.group_factors)
    for d, generators in verdict.certificate:
        for gen in generators:
            assert all(r == 0 for r in mat_vec_mod(system, gen, d))
            assert all(gen[p] % d == 0 for p in input_pos)
            image = mat_vec_mod(cross, [gen[p] for p in error_pos], d)
            assert all(r == 0 for r in image)
