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
both conditions are checked on all their generators at once.  A sweep
eliminates once, modulo the group exponent L (the lcm of the factors), while
``detects`` eliminates modulo each factor in turn because its certificate
lists them all.  The two agree: a violating kernel vector x modulo a factor
d gives the violating vector (L/d) x modulo L; and by CRT a violation modulo
L shows modulo some maximal prime power p^k of L, where p^k divides a factor
d, so the same vector times d/p^k violates modulo d.

A sweep decides its sizes in increasing order and prunes, because detection
is downward-closed (Knill and Laflamme, PRA 55, 900, 1997).  For
E' = E + {e} the detection system loses row e and gains column e, so a
kernel vector for E padded with a zero at e is a kernel vector for E' with
the same input part and the same image under gamma[X, E']: if it violates a
condition for E, it violates it for E'.  A configuration with an undetected
subset one smaller is therefore undetected, and the sweep records it without
elimination; the report is the one every configuration decided on its own
gives.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .abelian import FiniteAbelianGroup
from .graphcode import WeightedGraph, describe, validated_config
from .zmodlinalg import fits_int64, kernel_mod_batch

FAILED_INPUT = "nonzero_on_inputs"
FAILED_COUPLING = "error_action_on_inputs"

# Configurations decided per batch: enough to amortize numpy's per-call
# cost, small enough that a sweep's peak memory does not grow with its size.
CHUNK = 256
# Largest sweep accepted, in configurations (the oracle's size cap, 2**22).
MAX_SWEEP_CONFIGS = 2**22
# Fewest configurations each worker process must get before a pool starts:
# their serial elimination time has to cover a worker's spawn start-up.  On
# a 2-vCPU VM a spawned worker took about 300 ms to start and a configuration
# about 16.5 us to decide, so a worker pays from about 18,600 configurations.
MIN_CONFIGS_PER_WORKER = 20_000


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
    # Diagnostics for the stderr summary, not in to_dict: wall time of the
    # sweep, configurations decided by pruning and workers used.
    elapsed_s: float
    pruned: int
    workers: int

    @property
    def all_detected(self) -> bool:
        return all(not s.undetected for s in self.sizes)

    @property
    def undetected(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cfg for s in self.sizes for cfg in s.undetected)

    def to_dict(self) -> dict:
        out = {
            "graph": self.graph_id,
            "inputs": list(self.graph_inputs),
            "group": list(self.group_factors),
            "mode": self.mode,
            "max_size": self.max_size,
            "all_detected": self.all_detected,
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
        return out


def detection_system(graph: WeightedGraph, config):
    """Rows (untouched outputs), columns (inputs plus errors) and the block
    of gamma linking them, in ascending vertex order."""
    cfg = validated_config(graph, config)
    in_cfg = set(cfg)
    rows = tuple(y for y in graph.outputs if y not in in_cfg)
    cols = tuple(sorted(set(graph.inputs) | in_cfg))
    return rows, cols, graph.submatrix(rows, cols)


def _residues(block, cols: int, d: int, n: int) -> np.ndarray:
    """The rows of ``block``, ``cols`` Python ints each, modulo d, reduced on
    Python ints; int64 when the engine's arithmetic modulo d on an n-vertex
    graph fits in it, else Python ints in an object array."""
    return np.array(
        [[x % d for x in row] for row in block],
        dtype=np.int64 if fits_int64(d, n) else object,
    ).reshape(len(block), cols)


def _kernel_checks(systems: np.ndarray, cross: np.ndarray, inputs: int, d: int):
    """Kernel generators modulo d and both condition checks for a batch of
    detection systems of one size.

    ``systems`` stacks the (N, rows, inputs + size) blocks gamma[I, X u E]
    modulo d, columns ordered inputs first, then errors, and ``cross`` the
    (N, inputs, size) blocks gamma[X, E].  Returns ``(gens, bad_input,
    bad_coupling)``: ``gens`` is the (N, n, n) generator array of
    ``kernel_mod_batch``; ``bad_input[b, j]`` says generator j of system b
    is nonzero on the inputs, and ``bad_coupling[b, j]`` that gamma[X, E]
    does not annihilate its error part.  Zero rows of ``gens`` pass both
    checks.
    """
    gens = kernel_mod_batch(systems, d)
    bad_input = (gens[:, :, :inputs] != 0).any(axis=2)
    image = cross @ gens[:, :, inputs:].transpose(0, 2, 1) % d
    return gens, bad_input, (image != 0).any(axis=1)


def detects(
    graph: WeightedGraph, group: FiniteAbelianGroup, config
) -> DetectionVerdict:
    """Decide detection of one error configuration, with witness/certificate.

    The factors are eliminated one at a time, in order; the first with a
    violating generator gives the witness, and later factors are not
    eliminated.  Each factor reduces only the system's blocks of gamma, not
    all of it.
    """
    cfg = validated_config(graph, config)
    engine = (*graph.inputs, *cfg)
    # Reports list columns by vertex: report column k is engine column order[k].
    order = sorted(range(len(engine)), key=engine.__getitem__)
    verdict = partial(DetectionVerdict, describe(graph), graph.inputs, group.factors, cfg,
                      tuple(sorted(engine)))
    errors = set(cfg)
    rows = [y for y in graph.outputs if y not in errors]
    system = graph.submatrix(rows, engine)
    cross = graph.submatrix(graph.inputs, cfg)
    certificate = []
    for d in group.factors:
        gens, bad_input, bad_coupling = (x[0] for x in _kernel_checks(
            _residues(system, len(engine), d, graph.n)[None],
            _residues(cross, len(cfg), d, graph.n)[None],
            len(graph.inputs), d,
        ))
        gens = list(map(tuple, gens[:, order].tolist()))
        failing = bad_input | bad_coupling
        if failing.any():
            j = int(failing.argmax())
            return verdict(detected=False, factor=d, witness=gens[j],
                           failed_condition=FAILED_INPUT if bad_input[j] else FAILED_COUPLING)
        certificate.append((d, tuple(g for g in gens if any(g))))
    return verdict(detected=True, certificate=tuple(certificate))


def is_isometry_condition(graph: WeightedGraph, group: FiniteAbelianGroup) -> bool:
    """True iff the empty configuration is detected, i.e. the code map is an
    isometry: the kernel of gamma[Y, X] vanishes on the inputs."""
    return detects(graph, group, ()).detected


def worker_count(requested: int, cpus: int | None, configs: int) -> int:
    """Workers a sweep uses: never more than requested, than the machine's
    CPUs, or than leaves each worker MIN_CONFIGS_PER_WORKER of the sweep's
    configurations; a pool starts only above 1."""
    return max(1, min(requested, cpus or 1, configs // MIN_CONFIGS_PER_WORKER))


def _colex(positions: np.ndarray, binom: np.ndarray):
    """Colex ranks of configurations given as (N, s) ascending output
    positions, and (N, s) ranks of their (s - 1)-subsets, the one without
    position j in column j.

    The rank of c_1 < ... < c_s is the sum of C(c_i, i); it is below
    C(|outputs|, s), so within the sweep cap.
    """
    size = positions.shape[1]
    up = binom[positions, np.arange(1, size + 1)]  # C(c_i, i)
    down = binom[positions, np.arange(size)]  # C(c_i, i - 1): c_i moved down a slot
    before = np.cumsum(up, axis=1) - up
    after = np.cumsum(down[:, ::-1], axis=1)[:, ::-1] - down
    return up.sum(axis=1), before + after


def _survivors(outputs: np.ndarray, size: int, previous: np.ndarray, binom, inherited: list):
    """Error vertices of the configurations of one size that need
    elimination, in lexicographic order, CHUNK rows per array but the last.

    ``previous`` holds the sorted colex ranks of the undetected
    configurations one size smaller.  A configuration with a subset among
    them is undetected (see the module docstring) and goes to ``inherited``
    instead.  Survivors are held back until they fill a batch, so pruning
    does not shrink the batches the engine eliminates.
    """
    configs = itertools.combinations(range(len(outputs)), size)
    held = np.zeros((0, size), dtype=np.intp)
    while chunk := list(itertools.islice(configs, CHUNK)):
        positions = np.array(chunk, dtype=np.intp).reshape(len(chunk), size)
        if len(previous):
            _, subsets = _colex(positions, binom)
            at = np.searchsorted(previous, subsets).clip(max=len(previous) - 1)
            hit = (previous[at] == subsets).any(axis=1)
            inherited.extend(map(tuple, outputs[positions[hit]].tolist()))
            positions = positions[~hit]
        held = np.concatenate((held, positions))
        if len(held) >= CHUNK:  # held had fewer than CHUNK rows before
            yield outputs[held[:CHUNK]]
            held = held[CHUNK:]
    if len(held):
        yield outputs[held]


def _undetected(graph: WeightedGraph, gamma: np.ndarray, d: int, errs: np.ndarray):
    """Undetected configurations, as tuples in order, of an (N, size) batch
    of error vertices, eliminated modulo d; ``gamma`` is the whole gamma
    modulo d."""
    batch, size = errs.shape
    inputs = np.array(graph.inputs, dtype=np.intp)
    outputs = np.array(graph.outputs, dtype=np.intp)
    untouched = (outputs[None, :, None] != errs[:, None, :]).all(axis=2)
    rows = np.broadcast_to(outputs, untouched.shape)[untouched].reshape(
        batch, len(outputs) - size
    )
    cols = np.concatenate((np.broadcast_to(inputs, (batch, len(inputs))), errs), axis=1)
    _, bad_input, bad_coupling = _kernel_checks(
        gamma[rows[:, :, None], cols[:, None, :]],
        gamma[inputs[None, :, None], errs[:, None, :]],
        len(inputs), d,
    )
    return list(map(tuple, errs[(bad_input | bad_coupling).any(axis=1)].tolist()))


# (graph, gamma modulo d, d) of the sweep a pool worker serves: set by
# ``_start_worker`` in each worker process only, so they cross to a worker
# once rather than with every batch.
_worker_sweep = None


def _start_worker(graph: WeightedGraph, gamma: np.ndarray, d: int) -> None:
    global _worker_sweep
    _worker_sweep = (graph, gamma, d)


def _undetected_in_worker(errs: np.ndarray):
    return _undetected(*_worker_sweep, errs)


def _sweep(
    graph: WeightedGraph,
    group: FiniteAbelianGroup,
    max_size: int,
    mode: str,
    errors: int | None,
    workers: int,
) -> SweepReport:
    if max_size < 0:
        raise ValueError(f"sweep size must be >= 0, got {max_size}")
    outputs = np.array(graph.outputs, dtype=np.intp)
    sizes = range(min(max_size, len(outputs)) + 1)
    total = sum(math.comb(len(outputs), size) for size in sizes)
    if total > MAX_SWEEP_CONFIGS:
        raise ValueError(
            f"sweep would check {total} configurations, more than the cap of "
            f"{MAX_SWEEP_CONFIGS}; lower the size bound"
        )
    start = time.perf_counter()
    workers = worker_count(workers, os.cpu_count(), total)
    # one elimination modulo the group exponent: see the module docstring
    sweep = (graph, _residues(graph.gamma, graph.n, group.exponent, graph.n),
             group.exponent)
    binom = np.array(
        [[math.comb(i, j) for j in range(sizes[-1] + 1)] for i in range(len(outputs) + 1)],
        dtype=np.int64,
    )
    with contextlib.ExitStack() as stack:
        if workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # spawn, not fork: numpy has started threads in this process.
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
                initializer=_start_worker, initargs=sweep,
            ))
            decide_all = partial(pool.map, _undetected_in_worker)
        else:
            decide_all = partial(map, partial(_undetected, *sweep))
        summaries = []
        pruned = 0
        previous = np.zeros(0, dtype=np.int64)
        for size in sizes:
            inherited: list[tuple[int, ...]] = []
            batches = _survivors(outputs, size, previous, binom, inherited)
            found = [cfg for bad in decide_all(batches) for cfg in bad]
            undetected = sorted(inherited + found)
            pruned += len(inherited)
            checked = math.comb(len(outputs), size)
            summaries.append(SizeSummary(size, checked, checked - len(undetected),
                                         tuple(undetected)))
            # sorted colex ranks of this size's undetected, for the next size
            previous = np.zeros(0, dtype=np.int64)
            if undetected and size < sizes[-1]:
                positions = np.searchsorted(outputs, np.array(undetected, dtype=np.intp))
                ranks, _ = _colex(positions.reshape(len(undetected), size), binom)
                previous = np.sort(ranks)
    return SweepReport(
        graph_id=describe(graph),
        graph_inputs=graph.inputs,
        group_factors=group.factors,
        mode=mode,
        max_size=max_size,
        errors=errors,
        sizes=tuple(summaries),
        elapsed_s=time.perf_counter() - start,
        pruned=pruned,
        workers=workers,
    )


def detects_errors(
    graph: WeightedGraph,
    group: FiniteAbelianGroup,
    max_size: int,
    workers: int = 1,
) -> SweepReport:
    """Sweep every configuration of size <= max_size in lexicographic order."""
    return _sweep(graph, group, max_size, "detect", None, workers)


def corrects_errors(
    graph: WeightedGraph,
    group: FiniteAbelianGroup,
    errors: int,
    workers: int = 1,
) -> SweepReport:
    """Correcting e errors means detecting every configuration of size <= 2e."""
    if errors < 0:
        raise ValueError(f"error count must be >= 0, got {errors}")
    return _sweep(graph, group, 2 * errors, "correct", errors, workers)


def input_exchange_check(
    graph: WeightedGraph,
    group: FiniteAbelianGroup,
    new_inputs,
    errors: int,
    workers: int = 1,
) -> SweepReport:
    """Re-partition the graph with a different input set and re-run the
    correction sweep."""
    return corrects_errors(graph.with_inputs(new_inputs), group, errors, workers)
