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
both conditions are checked on all their generators at once.  One gather,
``_kernel_checks``, indexes every system and cross block out of residues of
gamma whose rows are vertices, so a single verdict and a sweep batch lay a
configuration's system out alike.  A sweep reduces all of gamma once, modulo
the group exponent L (the lcm of the factors), and eliminates modulo L,
while ``detects`` reduces only its system's columns and eliminates modulo
each factor in turn because its certificate lists them all.  The two agree:
a violating kernel vector x modulo a factor d gives the violating vector
(L/d) x modulo L; and by CRT a violation modulo L shows modulo some maximal
prime power p^k of L, where p^k divides a factor d, so the same vector times
d/p^k violates modulo d.

A sweep decides its sizes in increasing order and prunes, because detection
is downward-closed (Knill and Laflamme, PRA 55, 900, 1997).  For
E' = E + {e} the detection system loses row e and gains column e, so a
kernel vector for E padded with a zero at e is a kernel vector for E' with
the same input part and the same image under gamma[X, E']: if it violates a
condition for E, it violates it for E'.  A configuration with an undetected
subset one smaller is therefore undetected, and the sweep records it without
elimination; the report is the one every configuration decided on its own
gives.  A sweep over more than ``graphcode.SIZE_CAP`` configurations is
refused before any is decided.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._frozen import integers
from .abelian import FiniteAbelianGroup
from .graphcode import SIZE_CAP, WeightedGraph, describe, validated_config
from .zmodlinalg import fits_int64, kernel_mod_batch

FAILED_INPUT = "nonzero_on_inputs"
FAILED_COUPLING = "error_action_on_inputs"

# Configurations decided per batch: enough to amortize numpy's per-call
# cost, small enough that a sweep's peak memory does not grow with its size.
# A pool sends them 4 to a task; its task pipe bounds those in flight.
CHUNK = 256
# Fewest configurations each worker process must get before a pool starts,
# measured end to end, since the parent shares the CPUs with the workers it
# feeds: on a 2-vCPU VM, whole-CLI sweeps of dense 22- to 24-vertex graphs
# over Z2xZ4 ran slower with two workers than with one at 44,552 and 82,160
# configurations, about even at 110,056 and faster from 145,499 on.
MIN_CONFIGS_PER_WORKER = 60_000


@dataclass(frozen=True)
class DetectionVerdict:
    """Certificate or counterexample for one error configuration of ``graph``
    over ``group``; vectors are indexed by the inputs and the configuration,
    in increasing vertex order.  When ``detected`` is False, ``witness`` is a
    kernel vector of the detection system modulo ``factor`` that violates
    the condition named by ``failed_condition``.  When True, ``certificate``
    lists the kernel generators per cyclic factor; all of them satisfy both
    conditions.
    """

    graph: WeightedGraph
    group: FiniteAbelianGroup
    configuration: tuple[int, ...]
    detected: bool
    factor: int | None = None
    failed_condition: str | None = None
    witness: tuple[int, ...] | None = None
    certificate: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "graph": describe(self.graph),
            "inputs": list(self.graph.inputs),
            "group": list(self.group.factors),
            "config": list(self.configuration),
            "columns": sorted(self.graph.inputs + self.configuration),
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
class SweepReport:
    """Undetected configurations of ``graph`` over ``group``: ``sizes[s]``
    holds those of size s, in lexicographic order; ``errors`` is None for a
    detection sweep, else the count corrected (``max_size`` 2e)."""

    graph: WeightedGraph
    group: FiniteAbelianGroup
    max_size: int
    errors: int | None
    sizes: tuple[tuple[tuple[int, ...], ...], ...]
    # Configurations decided by pruning, for the stderr summary, not in to_dict.
    pruned: int
    # Wall time of the sweep and workers used, for the stderr summary only:
    # they are left out of equality and repr, so equal sweeps compare equal.
    elapsed_s: float = field(compare=False, repr=False)
    workers: int = field(compare=False, repr=False)

    @property
    def checked(self) -> tuple[int, ...]:
        """Configurations checked per size: C(|outputs|, s) for size s."""
        outputs = len(self.graph.outputs)
        return tuple(math.comb(outputs, size) for size in range(len(self.sizes)))

    @property
    def all_detected(self) -> bool:
        return not any(self.sizes)

    @property
    def undetected(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cfg for found in self.sizes for cfg in found)

    def to_dict(self) -> dict:
        out = {
            "graph": describe(self.graph),
            "inputs": list(self.graph.inputs),
            "group": list(self.group.factors),
            "mode": "detect" if self.errors is None else "correct",
            "max_size": self.max_size,
            "all_detected": self.all_detected,
            "sizes": [
                {
                    "size": size,
                    "checked": checked,
                    "detected": checked - len(found),
                    "undetected": [list(cfg) for cfg in found],
                }
                for size, (checked, found) in enumerate(zip(self.checked, self.sizes))
            ],
        }
        if self.errors is not None:
            out["errors"] = self.errors
        return out


def _residues(graph: WeightedGraph, cols, d: int) -> np.ndarray:
    """The columns ``cols`` of gamma, every row, modulo d: an (n, len(cols))
    array reduced on Python ints, int64 when the engine's arithmetic modulo d
    on the n-vertex graph fits in it, else Python ints in an object array."""
    return np.array(
        [[row[c] % d for c in cols] for row in graph.gamma],
        dtype=np.int64 if fits_int64(d, graph.n) else object,
    ).reshape(graph.n, len(cols))


def _kernel_checks(residues: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                   inputs: np.ndarray, d: int):
    """Kernel generators modulo d and both condition checks for a batch of
    detection systems of one size, gathered from ``residues``.

    ``residues`` holds columns of gamma modulo d with rows indexed by vertex
    (see ``_residues``).  Row b of ``rows`` lists the untouched outputs I of
    system b, and row b of ``cols`` its residue columns, the inputs' first,
    then the errors'; ``inputs`` lists the input vertices.  System b is then
    residues[rows[b], cols[b]], gamma[I, X u E], and its cross block
    residues[inputs, cols[b, |X|:]], gamma[X, E].  Returns ``(gens,
    bad_input, bad_coupling)``: ``gens`` is the (N, |X| + size, |X| + size)
    generator array of ``kernel_mod_batch``; ``bad_input[b, j]`` says
    generator j of system b is nonzero on the inputs, and ``bad_coupling[b,
    j]`` that gamma[X, E] does not annihilate its error part.  Zero rows of
    ``gens`` pass both checks.
    """
    gens = kernel_mod_batch(residues[rows[:, :, None], cols[:, None, :]], d)
    x = len(inputs)
    bad_input = (gens[:, :, :x] != 0).any(axis=2)
    cross = residues[inputs[None, :, None], cols[:, None, x:]]
    image = cross @ gens[:, :, x:].transpose(0, 2, 1) % d
    return gens, bad_input, (image != 0).any(axis=1)


def detects(
    graph: WeightedGraph, group: FiniteAbelianGroup, config
) -> DetectionVerdict:
    """Decide detection of one error configuration, with witness/certificate.

    The factors are eliminated one at a time, in order; the first with a
    violating generator gives the witness, and later factors are not
    eliminated.  Each factor reduces only the columns of gamma the system
    reads, the inputs' and the configuration's, not all of it.
    """
    cfg = validated_config(graph, config)
    engine = (*graph.inputs, *cfg)
    # Reports list columns by vertex: report column k is engine column order[k].
    order = sorted(range(len(engine)), key=engine.__getitem__)
    verdict = partial(DetectionVerdict, graph, group, cfg)
    errors = set(cfg)
    rows = np.array([[y for y in graph.outputs if y not in errors]], dtype=np.intp)
    cols = np.arange(len(engine))[None]
    inputs = np.array(graph.inputs, dtype=np.intp)
    certificate = []
    for d in group.factors:
        gens, bad_input, bad_coupling = (x[0] for x in _kernel_checks(
            _residues(graph, engine, d), rows, cols, inputs, d))
        gens = list(map(tuple, gens[:, order].tolist()))
        failing = bad_input | bad_coupling
        if failing.any():
            j = int(failing.argmax())
            return verdict(detected=False, factor=d, witness=gens[j],
                           failed_condition=FAILED_INPUT if bad_input[j] else FAILED_COUPLING)
        certificate.append((d, tuple(g for g in gens if any(g))))
    return verdict(detected=True, certificate=tuple(certificate))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (``taskset`` narrows it), else the machine's count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(requested: int, cpus: int, configs: int) -> int:
    """Workers a sweep uses: never more than requested, than ``cpus``, or
    than leaves each worker MIN_CONFIGS_PER_WORKER of the sweep's
    configurations; a pool starts only above 1."""
    return max(1, min(requested, cpus, configs // MIN_CONFIGS_PER_WORKER))


def _survivors(outputs: tuple[int, ...], size: int, below: set, inherited: list):
    """Error vertices of the configurations of one size that need
    elimination, as arrays in lexicographic order, CHUNK rows each but the
    last.

    ``below`` is the set of undetected configurations one size smaller.  A
    configuration with one of its subsets one smaller in ``below`` is
    undetected (see the module docstring) and goes to ``inherited``
    instead.  Configurations are filtered before they are batched, so
    pruning does not shrink the batches the engine eliminates.
    """
    configs = itertools.combinations(outputs, size)
    if below:
        def survives(cfg):
            if any(map(below.__contains__, itertools.combinations(cfg, size - 1))):
                inherited.append(cfg)
                return False
            return True

        configs = filter(survives, configs)
    while chunk := list(itertools.islice(configs, CHUNK)):
        yield np.array(chunk, dtype=np.intp).reshape(len(chunk), size)


def _undetected(gamma: np.ndarray, inputs: np.ndarray, outputs: np.ndarray, d: int,
                errs: np.ndarray):
    """Undetected configurations, as tuples in order, of an (N, size) batch
    of error vertices, eliminated modulo d; ``gamma`` is the whole gamma
    modulo d, and ``inputs`` and ``outputs`` are the graph's vertices."""
    batch, size = errs.shape
    untouched = (outputs[None, :, None] != errs[:, None, :]).all(axis=2)
    rows = np.broadcast_to(outputs, untouched.shape)[untouched].reshape(
        batch, len(outputs) - size
    )
    cols = np.concatenate((np.broadcast_to(inputs, (batch, len(inputs))), errs), axis=1)
    _, bad_input, bad_coupling = _kernel_checks(gamma, rows, cols, inputs, d)
    return list(map(tuple, errs[(bad_input | bad_coupling).any(axis=1)].tolist()))


# (gamma modulo d, inputs, outputs, d) of the sweep a pool worker serves: set
# by ``_start_worker`` in each worker process only, so they cross to a worker
# once rather than with every batch.
_worker_sweep = None


def _start_worker(*sweep) -> None:
    global _worker_sweep
    _worker_sweep = sweep


def _undetected_in_worker(errs: np.ndarray):
    return _undetected(*_worker_sweep, errs)


def _sweep(
    graph: WeightedGraph,
    group: FiniteAbelianGroup,
    max_size: int,
    errors: int | None,
    workers: int,
) -> SweepReport:
    (max_size,) = integers((max_size,), "sweep size")
    (workers,) = integers((workers,), "worker count")
    if max_size < 0:
        raise ValueError(f"sweep size must be >= 0, got {max_size}")
    sizes = range(min(max_size, len(graph.outputs)) + 1)
    total = sum(math.comb(len(graph.outputs), size) for size in sizes)
    if total > SIZE_CAP:
        raise ValueError(
            f"sweep would check {total} configurations, more than the cap of "
            f"{SIZE_CAP}; lower the size bound"
        )
    start = time.perf_counter()
    workers = worker_count(workers, usable_cpus(), total)
    # one elimination modulo the group exponent: see the module docstring
    sweep = (_residues(graph, range(graph.n), group.exponent),
             np.array(graph.inputs, dtype=np.intp), np.array(graph.outputs, dtype=np.intp),
             group.exponent)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            import multiprocessing

            # spawn, not fork: numpy has started threads in this process.
            pool = stack.enter_context(multiprocessing.get_context("spawn").Pool(
                workers, initializer=_start_worker, initargs=sweep))
            # 4 batches a task: on a 2-vCPU VM the 145,499-configuration
            # sweep took a median 1.83 s this way, 2.03 s with 1 a task.
            decide_all = partial(pool.imap, _undetected_in_worker, chunksize=4)
        else:
            decide_all = partial(map, partial(_undetected, *sweep))
        per_size = []
        pruned = 0
        below: set[tuple[int, ...]] = set()
        for size in sizes:
            inherited: list[tuple[int, ...]] = []
            batches = _survivors(graph.outputs, size, below, inherited)
            # a pool's task thread runs ``_survivors``, and imap ends only
            # after that thread has exhausted it: ``inherited`` is complete
            found = [cfg for bad in decide_all(batches) for cfg in bad]
            undetected = sorted(inherited + found)
            pruned += len(inherited)
            per_size.append(tuple(undetected))
            below = set(undetected)
    return SweepReport(
        graph=graph,
        group=group,
        max_size=max_size,
        errors=errors,
        sizes=tuple(per_size),
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
    """Sweep every configuration of size <= max_size in lexicographic order,
    on at most ``workers`` processes (see ``worker_count``)."""
    return _sweep(graph, group, max_size, None, workers)


def corrects_errors(
    graph: WeightedGraph,
    group: FiniteAbelianGroup,
    errors: int,
    workers: int = 1,
) -> SweepReport:
    """Correcting e errors means detecting every configuration of size <= 2e."""
    (errors,) = integers((errors,), "error count")
    if errors < 0:
        raise ValueError(f"error count must be >= 0, got {errors}")
    return _sweep(graph, group, 2 * errors, errors, workers)
