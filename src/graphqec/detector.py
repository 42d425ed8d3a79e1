"""Exact error-detection verdicts for graph codes.

An error configuration E (a subset of the output vertices) is detected
exactly when every solution d of the modular linear system

    gamma[I, X u E] * d = 0   (mod each cyclic factor),  I = Y \\ E,

vanishes on the input positions and is annihilated by the input-rows/
error-columns block gamma[X, E].  Checking kernel generators suffices
because both conditions are linear, and the cyclic factors of the group can
be checked independently because integer matrices act componentwise on a
product of cyclic groups.

Single verdicts and sweeps share one engine: configurations of one size are
decided together, CHUNK at a time, by ``zmodlinalg.kernel_mod_batch``, and
both conditions are checked on all their generators at once.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .abelian import FiniteAbelianGroup
from .graphcode import WeightedGraph, describe
from .zmodlinalg import fits_int64, kernel_mod_batch

FAILED_INPUT = "nonzero_on_inputs"
FAILED_COUPLING = "error_action_on_inputs"

# Configurations decided per batch: enough to amortize numpy's per-call
# cost, small enough that a sweep's peak memory does not grow with its size.
CHUNK = 256
# Largest sweep accepted, in configurations (the oracle's size cap, 2**22).
MAX_SWEEP_CONFIGS = 2**22


@dataclass(frozen=True)
class DetectionVerdict:
    """Certificate or counterexample for one error configuration.

    When ``detected`` is False, ``witness`` is a kernel vector of the
    detection system modulo ``factor``, indexed by ``columns``, that violates
    the condition named by ``failed_condition``.  When True, ``certificate``
    lists the kernel generators per cyclic factor; all of them satisfy both
    conditions.
    """

    graph_id: str
    graph_inputs: tuple[int, ...]
    group_factors: tuple[int, ...]
    configuration: tuple[int, ...]
    columns: tuple[int, ...]
    detected: bool
    factor: int | None = None
    failed_condition: str | None = None
    witness: tuple[int, ...] | None = None
    certificate: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "graph": self.graph_id,
            "inputs": list(self.graph_inputs),
            "group": list(self.group_factors),
            "config": list(self.configuration),
            "columns": list(self.columns),
            "detected": self.detected,
        }
        if self.detected:
            assert self.certificate is not None
            out["certificate"] = [
                {"factor": d, "generators": [list(g) for g in gens]}
                for d, gens in self.certificate
            ]
        else:
            out["factor"] = self.factor
            out["failed"] = self.failed_condition
            out["witness"] = list(self.witness or ())
        return out


@dataclass(frozen=True)
class SizeSummary:
    size: int
    checked: int
    detected: int
    undetected: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SweepReport:
    graph_id: str
    graph_inputs: tuple[int, ...]
    group_factors: tuple[int, ...]
    mode: str  # "detect" or "correct"
    max_size: int
    errors: int | None
    sizes: tuple[SizeSummary, ...]
    elapsed_s: float
    orbit_reduced: bool = False

    @property
    def all_detected(self) -> bool:
        return all(not s.undetected for s in self.sizes)

    @property
    def undetected(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cfg for s in self.sizes for cfg in s.undetected)

    def to_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "graph": self.graph_id,
            "inputs": list(self.graph_inputs),
            "group": list(self.group_factors),
            "mode": self.mode,
            "max_size": self.max_size,
            "all_detected": self.all_detected,
            "orbit_reduced": self.orbit_reduced,
            "sizes": [
                {
                    "size": s.size,
                    "checked": s.checked,
                    "detected": s.detected,
                    "undetected": [list(cfg) for cfg in s.undetected],
                }
                for s in self.sizes
            ],
        }
        if self.errors is not None:
            out["errors"] = self.errors
        if include_elapsed:
            out["elapsed_s"] = self.elapsed_s
        return out


def _validated_config(graph: WeightedGraph, config) -> tuple[int, ...]:
    cfg = tuple(sorted({int(v) for v in config}))
    outside = [v for v in cfg if v in graph.inputs or not 0 <= v < graph.n]
    if outside:
        raise ValueError(
            f"error configuration {cfg} must be a subset of the output "
            f"vertices, offending vertices: {outside}"
        )
    return cfg


def detection_system(graph: WeightedGraph, config):
    """Rows (untouched outputs), columns (inputs plus errors) and the block
    of gamma linking them, in ascending vertex order."""
    cfg = _validated_config(graph, config)
    in_cfg = set(cfg)
    rows = tuple(y for y in graph.outputs if y not in in_cfg)
    cols = tuple(sorted(set(graph.inputs) | in_cfg))
    return rows, cols, graph.submatrix(rows, cols)


def _residues(graph: WeightedGraph, d: int) -> np.ndarray:
    """gamma modulo d, reduced on Python ints; int64 when the engine's
    arithmetic modulo d fits in it, else Python ints in an object array."""
    dtype = np.int64 if fits_int64(d, graph.n) else object
    return np.array([[x % d for x in row] for row in graph.gamma], dtype=dtype)


def _kernel_checks(graph: WeightedGraph, group: FiniteAbelianGroup, configs) -> dict:
    """Kernel generators and condition checks for a batch of configurations
    of one size, per distinct cyclic factor d.

    Columns are ordered inputs first, then errors.  Returns
    ``{d: (gens, bad_input, bad_coupling)}``: ``gens`` is the (N, n, n)
    generator array of ``kernel_mod_batch``; ``bad_input[b, j]`` says
    generator j of configuration b is nonzero on the inputs, and
    ``bad_coupling[b, j]`` that gamma[X, E] does not annihilate its error
    part.  Zero rows of ``gens`` pass both checks.
    """
    errs = np.array(configs, dtype=np.intp).reshape(len(configs), -1)
    batch, size = errs.shape
    inputs = np.array(graph.inputs, dtype=np.intp)
    outputs = np.array(graph.outputs, dtype=np.intp)
    untouched = (outputs[None, :, None] != errs[:, None, :]).all(axis=2)
    rows = np.broadcast_to(outputs, untouched.shape)[untouched].reshape(
        batch, len(outputs) - size
    )
    cols = np.concatenate((np.broadcast_to(inputs, (batch, len(inputs))), errs), axis=1)
    checks = {}
    for d in dict.fromkeys(group.factors):
        gamma = _residues(graph, d)
        gens = kernel_mod_batch(gamma[rows[:, :, None], cols[:, None, :]], d)
        bad_input = (gens[:, :, : len(inputs)] != 0).any(axis=2)
        cross = gamma[inputs[None, :, None], errs[:, None, :]]
        image = cross @ gens[:, :, len(inputs) :].transpose(0, 2, 1) % d
        checks[d] = (gens, bad_input, (image != 0).any(axis=1))
    return checks


def detects(
    graph: WeightedGraph, group: FiniteAbelianGroup, config
) -> DetectionVerdict:
    """Decide detection of one error configuration, with witness/certificate."""
    cfg = _validated_config(graph, config)
    cols = tuple(sorted(set(graph.inputs) | set(cfg)))
    # Generators come in engine order (inputs, then errors); reports use cols.
    order = [cols.index(v) for v in (*graph.inputs, *cfg)]

    def in_cols(gen) -> tuple[int, ...]:
        out = [0] * len(cols)
        for pos, x in zip(order, gen):
            out[pos] = int(x)
        return tuple(out)

    checks = _kernel_checks(graph, group, [cfg])
    certificate = []
    for d in group.factors:
        gens, bad_input, bad_coupling = (x[0] for x in checks[d])
        failing = bad_input | bad_coupling
        if failing.any():
            j = int(failing.argmax())
            return DetectionVerdict(
                graph_id=describe(graph),
                graph_inputs=graph.inputs,
                group_factors=group.factors,
                configuration=cfg,
                columns=cols,
                detected=False,
                factor=d,
                failed_condition=FAILED_INPUT if bad_input[j] else FAILED_COUPLING,
                witness=in_cols(gens[j]),
            )
        certificate.append((d, tuple(in_cols(g) for g in gens if g.any())))
    return DetectionVerdict(
        graph_id=describe(graph),
        graph_inputs=graph.inputs,
        group_factors=group.factors,
        configuration=cfg,
        columns=cols,
        detected=True,
        certificate=tuple(certificate),
    )


def strong_detects(graph: WeightedGraph, group: FiniteAbelianGroup, config) -> bool:
    """The stricter condition: the detection system has trivial kernel
    modulo every cyclic factor (implies ``detects``)."""
    checks = _kernel_checks(graph, group, [_validated_config(graph, config)])
    return not any(gens.any() for gens, _, _ in checks.values())


def is_isometry_condition(graph: WeightedGraph, group: FiniteAbelianGroup) -> bool:
    """True iff the empty configuration is detected, i.e. the code map is an
    isometry: the kernel of gamma[Y, X] vanishes on the inputs."""
    return detects(graph, group, ()).detected


def graph_automorphisms(graph: WeightedGraph) -> list[tuple[int, ...]]:
    """All vertex permutations preserving weights and the input/output split."""
    import networkx as nx  # deferred: only orbit reduction needs it

    g = nx.Graph()
    input_set = set(graph.inputs)
    for v in range(graph.n):
        g.add_node(v, kind=(v in input_set))
    for u, v, w in graph.edges():
        g.add_edge(u, v, weight=w)
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        g,
        g,
        node_match=nx.algorithms.isomorphism.categorical_node_match("kind", None),
        edge_match=nx.algorithms.isomorphism.categorical_edge_match("weight", None),
    )
    perms = {tuple(m[v] for v in range(graph.n)) for m in matcher.isomorphisms_iter()}
    return sorted(perms)


def _is_orbit_representative(cfg, autos) -> bool:
    return min(tuple(sorted(perm[v] for v in cfg)) for perm in autos) == cfg


def worker_count(requested: int, cpus: int | None, chunks: int) -> int:
    """Workers a sweep uses: never more than requested, than the machine's
    CPUs or than there are chunks to hand out; a pool starts only above 1."""
    return max(1, min(requested, cpus or 1, chunks))


def _chunks(graph: WeightedGraph, sizes, autos):
    """Configurations of each size in lexicographic order, CHUNK at a time."""
    for size in sizes:
        configs = itertools.combinations(graph.outputs, size)
        if autos is not None:
            configs = (c for c in configs if _is_orbit_representative(c, autos))
        while chunk := list(itertools.islice(configs, CHUNK)):
            yield chunk


def _undetected(graph: WeightedGraph, group: FiniteAbelianGroup, chunk):
    """Configuration size, length and undetected configurations of a chunk."""
    failing = np.zeros(len(chunk), dtype=bool)
    for _, bad_input, bad_coupling in _kernel_checks(graph, group, chunk).values():
        failing |= (bad_input | bad_coupling).any(axis=1)
    return len(chunk[0]), len(chunk), [cfg for cfg, bad in zip(chunk, failing) if bad]


def _sweep(
    graph: WeightedGraph,
    group: FiniteAbelianGroup,
    max_size: int,
    mode: str,
    errors: int | None,
    workers: int,
    orbit_reduce: bool,
) -> SweepReport:
    if max_size < 0:
        raise ValueError(f"sweep size must be >= 0, got {max_size}")
    sizes = range(min(max_size, len(graph.outputs)) + 1)
    total = sum(math.comb(len(graph.outputs), size) for size in sizes)
    if total > MAX_SWEEP_CONFIGS:
        raise ValueError(
            f"sweep would check {total} configurations, more than the cap of "
            f"{MAX_SWEEP_CONFIGS}; lower the size bound"
        )
    start = time.perf_counter()
    autos = graph_automorphisms(graph) if orbit_reduce else None
    chunks = _chunks(graph, sizes, autos)
    decide = partial(_undetected, graph, group)
    n_chunks = sum(-(-math.comb(len(graph.outputs), size) // CHUNK) for size in sizes)
    workers = worker_count(workers, os.cpu_count(), n_chunks)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(decide, chunks))
    else:
        results = [decide(chunk) for chunk in chunks]

    checked = dict.fromkeys(sizes, 0)
    undetected: dict[int, list] = {size: [] for size in sizes}
    for size, n_checked, bad in results:
        checked[size] += n_checked
        undetected[size] += bad
    summaries = tuple(
        SizeSummary(
            size=size,
            checked=checked[size],
            detected=checked[size] - len(undetected[size]),
            undetected=tuple(undetected[size]),
        )
        for size in sizes
    )
    return SweepReport(
        graph_id=describe(graph),
        graph_inputs=graph.inputs,
        group_factors=group.factors,
        mode=mode,
        max_size=max_size,
        errors=errors,
        sizes=summaries,
        elapsed_s=time.perf_counter() - start,
        orbit_reduced=orbit_reduce,
    )


def detects_errors(
    graph: WeightedGraph,
    group: FiniteAbelianGroup,
    max_size: int,
    workers: int = 1,
    orbit_reduce: bool = False,
) -> SweepReport:
    """Sweep every configuration of size <= max_size in lexicographic order."""
    return _sweep(graph, group, max_size, "detect", None, workers, orbit_reduce)


def corrects_errors(
    graph: WeightedGraph,
    group: FiniteAbelianGroup,
    errors: int,
    workers: int = 1,
    orbit_reduce: bool = False,
) -> SweepReport:
    """Correcting e errors means detecting every configuration of size <= 2e."""
    if errors < 0:
        raise ValueError(f"error count must be >= 0, got {errors}")
    return _sweep(graph, group, 2 * errors, "correct", errors, workers, orbit_reduce)


def input_exchange_check(
    graph: WeightedGraph,
    group: FiniteAbelianGroup,
    new_inputs,
    errors: int,
    workers: int = 1,
    orbit_reduce: bool = False,
) -> SweepReport:
    """Re-partition the graph with a different input set and re-run the
    correction sweep."""
    return corrects_errors(
        graph.with_inputs(new_inputs), group, errors, workers, orbit_reduce
    )
