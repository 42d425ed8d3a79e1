"""graphqec benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-sparse --seed 1 --seconds 30 --trace 0

Runs the workload's rounds in a closed loop, one ``graphqec`` command at a
time, each in a fresh interpreter, until the next round would end after
``--seconds``.  Every command's exit code and stdout are checked (see
``checks.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Progress and the per-run workload properties go to stderr.  Inputs and
outputs live in ``.perfbench_work/`` under the repository root and are
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from checks import Outcome, Schemas
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMAND_TIMEOUT_S = 120
SETUP_REPEATS = 7
# Worker scaling is measured at two workers, never more than the machine has.
MAX_WORKERS = min(2, os.cpu_count() or 1)

SETUP_CODE = """
import json, sys
from pathlib import Path
spec = json.loads(sys.argv[1])
import graphqec
for path in spec["files"]:
    graphqec.parse_graph(Path(path).read_text(encoding="utf-8"))
for name in spec["builtins"]:
    getattr(graphqec, name + "_code")()
for group in spec["groups"]:
    graphqec.parse_group(group)
"""


@dataclass
class Result:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int
    counters: dict | None


@dataclass
class Op:
    """One timed command plus its checks."""

    slot: str
    result: Result
    outcome: Outcome
    units: float | None


def walls_by_slot(ops) -> dict[str, list[float]]:
    walls = defaultdict(list)
    for op in ops:
        walls[op.slot].append(op.result.wall_s)
    return walls


class Runner:
    """Starts one CLI command at a time and waits for it."""

    def __init__(self, work: Path):
        self.work = work
        env = {k: v for k, v in os.environ.items() if not k.startswith("GRAPHQEC_")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
        )
        self.env = env
        self.count = 0

    def run(self, argv, workers: int = 1, traced: bool = False) -> Result:
        self.count += 1
        stdout_path = self.work / f"cmd{self.count}.out"
        stderr_path = self.work / f"cmd{self.count}.err"
        counters_path = self.work / f"cmd{self.count}.counters.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(counters_path), *argv]
        else:
            argv = [sys.executable, "-m", "graphqec.cli", *argv]
        env = dict(self.env, GRAPHQEC_WORKERS=str(workers))
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            # Wait without reaping first, so the timer can never signal a
            # reused pid; then reap and read the child's resource usage.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        counters = None
        if traced and counters_path.exists():
            counters = json.loads(counters_path.read_text(encoding="utf-8"))
            counters_path.unlink()
        stdout, stderr = stdout_path.read_bytes(), stderr_path.read_bytes()
        stdout_path.unlink()
        stderr_path.unlink()
        return Result(proc.returncode, stdout, stderr, wall, usage.ru_maxrss, counters)


def write_inputs(graphs: dict, work: Path, prefix: str) -> dict[str, str]:
    paths = {}
    for name, graph in graphs.items():
        path = work / f"{prefix}-{name}.graph"
        path.write_text(graph.to_text(), encoding="utf-8")
        paths[name] = str(path)
    return paths


def run_round(workload, seed, r, runner, schemas, traced: bool) -> list[Op]:
    """Run round ``r``; with ``traced``, timed single-worker steps run under
    the tracer and multi-worker steps are skipped."""
    graphs = workload.inputs(seed, r)
    paths = write_inputs(graphs, runner.work, f"round{r}")
    steps = workload.steps(seed, r, graphs, paths, schemas, MAX_WORKERS)
    round_ops: list[Op] = []
    outcome = None
    while True:
        try:
            step = steps.send(outcome)
        except StopIteration:
            break
        if traced and step.workers > 1:
            outcome = Outcome()
            continue
        result = runner.run(step.argv, step.workers, traced and step.timed)
        try:
            outcome = step.check(result.code, result.stdout)
        except Exception:  # a malformed payload must count as a failure, not end the run
            outcome = Outcome([f"check raised:\n{traceback.format_exc()}"])
        outcome.facts["raw"] = (result.code, result.stdout)
        if not step.timed:
            round_ops[-1].outcome.problems.extend(outcome.problems)
            continue
        units = outcome.facts.get(step.units) if step.units else None
        round_ops.append(Op(step.slot, result, outcome, units))
    for path in paths.values():
        Path(path).unlink()
    return round_ops


class Setup:
    """Times a fresh interpreter that imports graphqec and parses the
    workload's round-0 graphs, built-in graphs and groups."""

    def __init__(self, workload, seed: int, runner: Runner):
        files = write_inputs(workload.inputs(seed, 0), runner.work, "setup")
        self.spec = json.dumps({
            "files": list(files.values()),
            "builtins": list(workload.builtins),
            "groups": list(workload.groups),
        })
        self.env = runner.env
        self.walls: list[float] = []

    def measure(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, self.spec], env=self.env,
                              cwd=ROOT, capture_output=True, timeout=COMMAND_TIMEOUT_S)
        self.walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode(errors='replace')}")


def round_wall(walls: dict[str, list[float]], slots, statistic) -> float:
    """One round's wall time: ``statistic`` of each command slot, summed.

    Per-slot statistics over many short commands, not whole-round times.
    ``statistic`` is the median where rounds run new inputs, and the fastest
    sample where they repeat the same work (see ``Workload.repeats_work``).
    """
    return sum(statistic(walls[s]) for s in slots if walls.get(s))


def end_to_end(ops: list[Op], setup: list[float], statistic) -> dict:
    walls = walls_by_slot(ops)
    units = defaultdict(list)
    for op in ops:
        if op.units is not None:
            units[op.slot].append(op.units)
    deciding = sorted(units)
    decided = sum(statistics.median(units[s]) for s in deciding)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (round_wall(walls, walls, statistic), "s"),
        "peak_rss_mb": (max(op.result.maxrss_kb for op in ops) / 1024, "MB"),
        "decided_per_s": (decided / round_wall(walls, deciding, statistic), "1/s"),
    }


def shares(ops) -> tuple[float, float]:
    configs = sum(op.outcome.facts.get("configs", 0) for op in ops)
    if not configs:
        return 0.0, 0.0
    undetected = sum(op.outcome.facts.get("undetected", 0) for op in ops)
    prunable = sum(op.outcome.facts.get("prunable", 0) for op in ops)
    return undetected / configs, prunable / configs


def per_layer(traced: list[Op], rounds: int, reference: list[Op], statistic) -> dict:
    """Per-layer counters of the traced rounds, per round.  ``reference`` is
    the untraced run of round 0, the only one with multi-worker steps."""
    spans = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    isometry_bytes = 0
    for op in traced:
        counters = op.result.counters or {"spans": {}, "isometry_bytes": 0}
        for name, stats in counters["spans"].items():
            for key, value in stats.items():
                spans[name][key] += value
        isometry_bytes = max(isometry_bytes, counters["isometry_bytes"])

    def fact(name, ops=traced):
        return sum(op.outcome.facts.get(name, 0) for op in ops)

    def calls(name):
        return spans[name]["calls"] / rounds

    def total(name):
        return spans[name]["total_s"] / rounds

    def own(name):
        return spans[name]["self_s"] / rounds

    undetected_share, prunable_share = shares(traced)
    search_ops = [op for op in traced if op.slot == "search"]
    attempts = fact("attempts", search_ops)
    search_dets = sum(
        op.result.counters["spans"].get("zmodlinalg.det_exact", {}).get("calls", 0)
        for op in search_ops if op.result.counters
    )
    w2 = [op for op in reference if op.slot == "sweep-w2"]
    w1 = [op for op in reference if op.slot == "sweep"]
    traced_walls = walls_by_slot(traced)
    return {
        "graphcode.parse_graph_s": (total("graphcode.parse_graph"), "s"),
        "cli.main_s": (total("cli.main"), "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "detector.configs_checked": (fact("configs") / rounds, "count"),
        "detector.detects_calls": (calls("detector.detects"), "count"),
        "detector.detects_self_s": (own("detector.detects"), "s"),
        "detector.detection_system_s": (total("detector.detection_system"), "s"),
        "detector.sweep_self_s": (own("detector.sweep"), "s"),
        "detector.undetected_share": (undetected_share, "share"),
        "detector.prunable_share": (prunable_share, "share"),
        "detector.configs_per_s_w2": (
            fact("configs", w1) / sum(op.result.wall_s for op in w2) if w2 else 0.0, "1/s"),
        "zmodlinalg.snf_calls": (calls("zmodlinalg.smith_normal_form"), "count"),
        "zmodlinalg.snf_s": (total("zmodlinalg.smith_normal_form"), "s"),
        "zmodlinalg.kernel_calls": (calls("zmodlinalg.kernel_from_snf"), "count"),
        "zmodlinalg.kernel_s": (total("zmodlinalg.kernel_from_snf"), "s"),
        "zmodlinalg.det_calls": (calls("zmodlinalg.det_exact"), "count"),
        "zmodlinalg.det_s": (total("zmodlinalg.det_exact"), "s"),
        "oracle.isometry_build_s": (total("oracle.build_isometry"), "s"),
        "oracle.isometry_bytes": (isometry_bytes, "B"),
        "oracle.kl_calls": (calls("oracle.kl_detects"), "count"),
        "oracle.kl_s": (total("oracle.kl_detects"), "s"),
        "oracle.disagreements": (fact("disagreements"), "count"),
        "singleton.search_attempts": (attempts / rounds, "count"),
        "singleton.dets_per_attempt": (search_dets / attempts if attempts else 0.0, "count"),
        "singleton.census_codes": (fact("census_codes") / rounds, "count"),
        "singleton.predicate_calls": (calls("singleton.predicate"), "count"),
        "singleton.predicate_s": (total("singleton.predicate"), "s"),
        "singleton.canonical_calls": (calls("singleton.canonical_bits"), "count"),
        "singleton.canonical_s": (total("singleton.canonical_bits"), "s"),
        "singleton.census_self_s": (own("singleton.graph_census"), "s"),
        "bench.traced_wall_s": (round_wall(traced_walls, traced_walls, statistic), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/graphqec/cli.py", "docs/schemas/sweep.schema.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a graphqec checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    schemas = Schemas(ROOT / "docs" / "schemas")
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work)
        setup = None if args.trace else Setup(workload, args.seed, runner)
        reference: list[Op] = []
        if args.trace:
            # One untraced round on round-0 inputs, for the steps that
            # cannot be traced: those with more than one worker.
            reference = run_round(workload, args.seed, 0, runner, schemas, traced=False)
        measured: list[Op] = []
        start = time.perf_counter()
        rounds = 0
        while True:
            if setup:
                # Spread over the run, set-up samples see the same machine
                # states as the commands.
                setup.measure()
            measured += run_round(workload, args.seed, rounds, runner, schemas,
                                  traced=bool(args.trace))
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > args.seconds:
                break
        while setup and len(setup.walls) < SETUP_REPEATS:
            setup.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    ops = reference + measured
    failed = [op for op in ops if op.outcome.problems]
    for op in failed[:5]:
        print(f"FAILED {op.slot}: {'; '.join(op.outcome.problems)[:2000]}\n"
              f"  its stderr ends: {op.result.stderr[-500:].decode(errors='replace')}",
              file=sys.stderr)
    undetected_share, prunable_share = shares(measured)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {len(ops)} commands, "
          f"undetected_share {undetected_share:.4f}, prunable_share {prunable_share:.4f}",
          file=sys.stderr)
    for slot, walls in sorted(walls_by_slot(measured).items()):
        print(f"  {slot}: {len(walls)} samples, fastest {min(walls):.3f} s, "
              f"median {statistics.median(walls):.3f} s, slowest {max(walls):.3f} s",
              file=sys.stderr)
    in_range = True
    for name, value, (low, high) in (
        ("undetected_share", undetected_share, workload.undetected_share),
        ("prunable_share", prunable_share, workload.prunable_share),
    ):
        if not low <= value <= high:
            in_range = False
            print(f"INPUTS {name} {value:.4f} outside [{low}, {high}]: the seed's inputs "
                  f"no longer have the workload's property", file=sys.stderr)
    statistic = min if workload.repeats_work else statistics.median
    metrics = (per_layer(measured, rounds, reference, statistic) if args.trace
               else end_to_end(measured, setup.walls, statistic))
    print(json.dumps({
        "correct": not failed and in_range,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
