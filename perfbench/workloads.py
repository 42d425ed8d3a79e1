"""The benchmark's workloads: seeded inputs and the commands of one round.

A workload runs in rounds.  ``inputs(seed, r)`` makes the graphs of round
``r`` from the benchmark seed alone, so the same seed gives byte-identical
input files.  ``steps(...)`` is a generator that yields the round's
commands one at a time and receives each command's checked ``Outcome``;
that lets a later step (a witness re-check, a rerun at two workers) depend
on an earlier step's output.  Every round of a workload runs the same
timed slots, so per-slot medians over rounds are comparable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator

import checks
from checks import Graph, Outcome, Schemas

WHEEL = {"inputs": (0,), "outputs": (1, 2, 3, 4, 5)}
TENFOLD = {"inputs": (0,), "outputs": tuple(range(1, 11))}
SEARCH_BUDGET = 5000


@dataclass(frozen=True)
class Step:
    """One CLI command and the check of its output.

    ``units`` names the fact of the outcome that counts the work the command
    decided (configurations, oracle checks, search attempts); ``None`` means
    the command does not count towards ``decided_per_s``.  Untimed steps are
    checks of the previous timed step and do not count as operations.
    """

    slot: str
    argv: tuple[str, ...]
    check: Callable[[int, bytes], Outcome]
    workers: int = 1
    timed: bool = True
    units: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, int], dict[str, Graph]]
    steps: Callable[..., Generator[Step, Outcome, None]]
    groups: tuple[str, ...]
    builtins: tuple[str, ...] = ()
    # Ranges the run's undetected and prunable shares of configurations must
    # stay in for the workload to exercise what it was chosen for.
    undetected_share: tuple[float, float] = (0.0, 1.0)
    prunable_share: tuple[float, float] = (0.0, 1.0)
    # Every round repeats the same work, so a slot's fastest sample measures
    # the program and its slower ones measure the machine.  The shared
    # 2-vCPU VM the benchmark was tuned on ran the same command either at
    # full speed or up to 1.7x slower, for tens of seconds at a time, so a 30 s
    # run's median depends on which state covered most of it: over 14
    # disjoint 30 s windows of census plus search, the per-slot median
    # summed spread 0.28 (quartile distance over median), the fastest 0.10.
    # Where rounds draw new graphs, the fastest sample would also pick the
    # cheapest graph, so those workloads keep the median.
    repeats_work: bool = False


def _rng(*parts) -> random.Random:
    # String seeds are hashed with SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(":".join(map(str, parts)))


def random_graph(rng: random.Random, n: int, n_inputs: int, weights) -> Graph:
    inputs = tuple(sorted(rng.sample(range(n), n_inputs)))
    gamma = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            gamma[u][v] = gamma[v][u] = rng.choice(weights)
    return Graph(tuple(map(tuple, gamma)), inputs)


def _factors(group: str) -> tuple[int, ...]:
    return tuple(int(d) for d in group.split(","))


def _verdict_steps(rng, schemas, graph, path, group, outcome, max_size):
    """Re-verify the witness of one seeded undetected configuration and the
    certificate of one seeded detected configuration of the largest size."""
    undetected = outcome.facts.get("undetected_configs")
    if undetected is None:  # the sweep's payload was unusable
        return
    samples = []
    if undetected:
        samples.append((rng.choice(undetected), checks.check_witness))
    undetected_set = set(undetected)
    detected = [c for c in itertools.combinations(graph.outputs, max_size)
                if c not in undetected_set]
    if detected:
        samples.append((rng.choice(detected), checks.check_certificate))
    for config, check in samples:
        yield Step(
            "verdict",
            ("detect", "--graph", path, "--group", group, "--config", ",".join(map(str, config))),
            partial(check, schemas=schemas, graph=graph, factors=_factors(group), config=config),
            timed=False,
        )


# sweep-sparse: many undetected configurations at small sizes.

SPARSE_GROUP, SPARSE_DETECT = "2,4", 5


def sparse_inputs(seed: int, r: int) -> dict[str, Graph]:
    # One shape for every round (14 vertices, one input, 2,380 configurations)
    # keeps rounds comparable and short, so a run holds many of them.  Over
    # the Z2 factor the weight 2 vanishes, which leaves a sparse graph with
    # many undetected configurations.
    rng = _rng("sweep-sparse", seed, r)
    return {"graph": random_graph(rng, 14, 1, (0, 0, 1, 2))}


def sparse_steps(seed, r, graphs, paths, schemas, workers):
    graph, path = graphs["graph"], paths["graph"]
    outcome = yield Step(
        "sweep",
        ("sweep", "--graph", path, "--group", SPARSE_GROUP, "--detect", str(SPARSE_DETECT)),
        partial(checks.check_sweep, schemas=schemas, inputs=graph.inputs,
                outputs=graph.outputs, factors=_factors(SPARSE_GROUP),
                max_size=SPARSE_DETECT),
        units="configs",
    )
    yield from _verdict_steps(_rng("sweep-sparse", seed, r, "verdicts"), schemas, graph,
                              path, SPARSE_GROUP, outcome, SPARSE_DETECT)


# sweep-dense: nearly every configuration detected.

DENSE_DETECT = 4


def dense_inputs(seed: int, r: int) -> dict[str, Graph]:
    # Complete graph on 17 vertices, one input: 2,517 configurations.
    rng = _rng("sweep-dense", seed, r)
    return {"graph": random_graph(rng, 17, 1, (1, 2, 3))}


def dense_steps(seed, r, graphs, paths, schemas, workers):
    graph, path = graphs["graph"], paths["graph"]
    group = ("6", "2,4")[r % 2]
    argv = ("sweep", "--graph", path, "--group", group, "--detect", str(DENSE_DETECT))
    outcome = yield Step(
        "sweep",
        argv,
        partial(checks.check_sweep, schemas=schemas, inputs=graph.inputs,
                outputs=graph.outputs, factors=_factors(group),
                max_size=DENSE_DETECT),
        units="configs",
    )
    yield from _verdict_steps(_rng("sweep-dense", seed, r, "verdicts"), schemas, graph,
                              path, group, outcome, DENSE_DETECT)
    yield Step("sweep-w2", argv, partial(checks.check_same, reference=outcome.facts["raw"]),
               workers=workers)


# oracle: the brute-force Knill-Laflamme cross-check dominates.

def oracle_inputs(seed: int, r: int) -> dict[str, Graph]:
    rng = _rng("oracle", seed, r)
    return {"graph": random_graph(rng, 9, 1, (0, 1))}


def oracle_steps(seed, r, graphs, paths, schemas, workers):
    graph, path = graphs["graph"], paths["graph"]
    cases = (
        ("wheel", ("--builtin", "wheel", "--group", "6", "--correct", "1"), WHEEL, (6,), 2,
         True),
        # detect 1 keeps tenfold's 59,049 x 3 code matrix but few KL calls,
        # so a round stays short enough for several rounds per run.
        ("tenfold", ("--builtin", "tenfold", "--group", "3", "--detect", "1"), TENFOLD, (3,), 1,
         True),
        # No 9-qubit code with one input has distance 5, so some configuration
        # of size <= 4 is undetected and the KL check also takes its early exit.
        ("random9", ("--graph", path, "--group", "2", "--detect", "4"),
         {"inputs": graph.inputs, "outputs": graph.outputs}, (2,), 4, False),
    )
    for slot, args, layout, factors, max_size, all_detected in cases:
        yield Step(
            slot,
            ("sweep", *args, "--oracle"),
            partial(checks.check_sweep, schemas=schemas, **layout, factors=factors,
                    max_size=max_size, expect_all_detected=all_detected, oracle=True),
            units="oracle_checked",
        )


# singleton: determinant reports, weight search and the census; no SNF.

def singleton_inputs(seed: int, r: int) -> dict[str, Graph]:
    return {}


def singleton_steps(seed, r, graphs, paths, schemas, workers):
    yield Step("census", ("census", "--n", "6"),
               partial(checks.check_census, schemas=schemas, n=6))
    yield Step("subdets", ("subdets", "--builtin", "matrix19"),
               partial(checks.check_subdets, schemas=schemas))
    yield Step("subdets-inputs", ("subdets", "--builtin", "matrix19", "--inputs", "0,1"),
               partial(checks.check_subdets, schemas=schemas, inputs=(0, 1)))
    search_seed = _rng("singleton", seed, r).randrange(2**31)
    yield Step(
        "search",
        ("search", "--builtin", "matrix19", "--bound", "1", "--seed", str(search_seed),
         "--budget", str(SEARCH_BUDGET)),
        partial(checks.check_search, schemas=schemas, bound=1, seed=search_seed,
                budget=SEARCH_BUDGET),
        units="attempts",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-sparse", sparse_inputs, sparse_steps, groups=(SPARSE_GROUP,),
                 undetected_share=(0.02, 1.0), prunable_share=(0.02, 1.0)),
        Workload("sweep-dense", dense_inputs, dense_steps, groups=("6", "2,4"),
                 undetected_share=(0.0, 0.05)),
        Workload("oracle", oracle_inputs, oracle_steps, groups=("7", "3", "2"),
                 builtins=("wheel", "tenfold")),
        # The search seed changes by round, but its 5,000 attempts average
        # out: determinant calls per round varied by under 0.5 %.
        Workload("singleton", singleton_inputs, singleton_steps, groups=(),
                 builtins=("matrix19",), repeats_work=True),
    )
}
