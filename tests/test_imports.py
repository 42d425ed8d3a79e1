"""Each CLI subcommand and the package's top-level names import only the
modules they use; checked in fresh interpreters."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphqec

SRC = str(Path(graphqec.__file__).resolve().parents[1])

# the benchmark's setup step: parse graph text and groups, build built-ins
SETUP = """
import json, sys
import graphqec
graphqec.parse_graph("vertices: 2\\ninputs: 0\\n0 1 1\\n")
for name in ("wheel", "tenfold", "matrix19"):
    getattr(graphqec, name + "_code")()
graphqec.parse_group("2,4")
print(json.dumps(sorted(sys.modules)))
"""

RUN_CLI = """
import contextlib, io, json, sys
from graphqec.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""

# a sweep forced onto a pool of two spawned workers
POOL_SWEEP = """
import json, sys
from graphqec import FiniteAbelianGroup, detector, tenfold_code
detector.MIN_CONFIGS_PER_WORKER = 1
detector.usable_cpus = lambda: 2
report = detector.detects_errors(tenfold_code(), FiniteAbelianGroup([2]), 2, workers=2)
assert report.workers == 2
print(json.dumps(sorted(sys.modules)))
"""

# modules only the removed exact phase algebra and orbit reduction needed
UNUSED = {"fractions", "decimal", "cmath", "networkx"}


def loaded_modules(code: str, *argv: str) -> set[str]:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode in (0, 1), proc.stderr
    return set(json.loads(proc.stdout))


def test_setup_names_load_no_numpy():
    modules = loaded_modules(SETUP)
    assert "numpy" not in modules
    # the graph and group types are plain classes: no dataclass machinery
    assert not {"dataclasses", "inspect"} & modules
    assert not {"graphqec.detector", "graphqec.oracle", "graphqec.singleton"} & modules
    assert not UNUSED & modules


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--n", "2"),
        ("search", "--builtin", "matrix19", "--bound", "2", "--seed", "13", "--budget", "5"),
    ],
)
def test_singleton_commands_skip_verdict_modules(argv):
    modules = loaded_modules(RUN_CLI, *argv)
    assert "graphqec.singleton" in modules
    assert not {"graphqec.detector", "graphqec.oracle", "multiprocessing"} & modules
    assert not UNUSED & modules


def test_one_worker_sweep_skips_singleton_and_pool():
    modules = loaded_modules(RUN_CLI, "sweep", "--builtin", "wheel", "--detect", "2")
    assert "graphqec.detector" in modules
    assert not {"graphqec.singleton", "graphqec.oracle", "multiprocessing"} & modules
    assert not UNUSED & modules


def test_small_sweep_at_two_workers_starts_no_pool():
    # the sweep may use every usable CPU, but 32 configurations are far below
    # what repays a worker's start-up
    modules = loaded_modules(RUN_CLI, "sweep", "--builtin", "wheel", "--detect", "5")
    assert "graphqec.detector" in modules
    assert not {"concurrent.futures", "multiprocessing"} & modules


def test_pool_sweep_uses_multiprocessing_pool_only():
    modules = loaded_modules(POOL_SWEEP)
    assert "multiprocessing.pool" in modules
    assert "concurrent.futures" not in modules


def test_every_public_name_resolves():
    assert len(set(graphqec.__all__)) == len(graphqec.__all__)
    listed = dir(graphqec)
    for name in graphqec.__all__:
        assert getattr(graphqec, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        graphqec.no_such_name
