from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from helpers import refuse_before_allocating

import graphqec
from graphqec import abelian, cli, detector, singleton
from graphqec.cli import main
from graphqec.graphcode import WeightedGraph, parse_graph, serialize_graph, wheel_code
from graphqec.singleton import certifiable_bound, largest_certifiable_bound

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "docs" / "schemas"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# stdout of the per-graph census, per-block determinants,
# one-attempt-at-a-time search, sweeps and single verdicts, kept byte for byte
GOLDEN = {
    "census-2": ("census", "--n", "2"),
    "census-4": ("census", "--n", "4"),
    "census-6": ("census", "--n", "6"),
    "subdets-matrix19": ("subdets", "--builtin", "matrix19"),
    "subdets-matrix19-inputs-0-1": ("subdets", "--builtin", "matrix19", "--inputs", "0,1"),
    "search-first-attempt": (
        "search", "--builtin", "matrix19", "--bound", "2", "--seed", "4", "--budget", "100",
    ),
    "search-attempt-32": (
        "search", "--builtin", "matrix19", "--bound", "2", "--seed", "258", "--budget", "100",
    ),
    "search-attempt-33": (
        "search", "--builtin", "matrix19", "--bound", "2", "--seed", "35", "--budget", "100",
    ),
    "search-attempt-97": (
        "search", "--builtin", "matrix19", "--bound", "2", "--seed", "94274", "--budget", "100",
    ),
    "search-exhausted": (
        "search", "--builtin", "matrix19", "--bound", "1", "--seed", "12345", "--budget", "5000",
    ),
    "sweep-wheel-correct-1-oracle": (
        "sweep", "--builtin", "wheel", "--group", "2", "--correct", "1", "--oracle",
    ),
    "sweep-tenfold-detect-4": ("sweep", "--builtin", "tenfold", "--group", "2", "--detect", "4"),
    # a modulus past int64 that is a strong pseudoprime to the first 13
    # prime bases, on weights that make pivots non-units modulo it
    "sweep-psi13-detect-4": (
        "sweep", "--graph", str(GOLDEN_DIR / "psi13-hidden-factors.graph"),
        "--group", "3317044064679887385961981", "--detect", "4",
    ),
    "detect-wheel-1-2-3": ("detect", "--builtin", "wheel", "--group", "2", "--config", "1,2,3"),
    "detect-wheel-z2z4-1-2": ("detect", "--builtin", "wheel", "--group", "2,4", "--config", "1,2"),
    "detect-psi13-2-8": (
        "detect", "--graph", str(GOLDEN_DIR / "psi13-hidden-factors.graph"),
        "--group", "3317044064679887385961981", "--config", "2,8",
    ),
}
# exit code of each golden command that does not exit 0
GOLDEN_EXIT = {
    "search-exhausted": 1, "sweep-tenfold-detect-4": 1, "sweep-psi13-detect-4": 1,
    "detect-wheel-1-2-3": 1, "detect-psi13-2-8": 1,
}


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestDetectCommand:
    def test_detected_exit_zero(self, capsys):
        code, payload = run_json(
            capsys, "detect", "--builtin", "wheel", "--group", "2", "--config", "1,2"
        )
        assert code == 0
        assert payload["detected"] is True
        jsonschema.validate(payload, load_schema("verdict"))

    def test_undetected_exit_one_with_witness(self, capsys):
        code, payload = run_json(
            capsys, "detect", "--builtin", "wheel", "--group", "2", "--config", "1,2,3"
        )
        assert code == 1
        assert payload["detected"] is False
        assert payload["witness"]
        jsonschema.validate(payload, load_schema("verdict"))

    def test_input_vertex_in_config_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "detect", "--builtin", "wheel", "--group", "2", "--config", "0"
        )
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_empty_config_is_isometry_check(self, capsys):
        code, payload = run_json(
            capsys, "detect", "--builtin", "wheel", "--group", "7", "--config", ""
        )
        assert code == 0
        assert payload["config"] == []

    def test_graph_file_and_inputs_override(self, capsys, tmp_path):
        path = tmp_path / "wheel.graph"
        path.write_text(serialize_graph(wheel_code()))
        code, payload = run_json(
            capsys, "detect", "--graph", str(path), "--inputs", "3",
            "--group", "2", "--config", "1,2",
        )
        assert code == 0
        assert payload["inputs"] == [3]

    def test_bad_group_literal_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "detect", "--builtin", "wheel", "--group", "x", "--config", "1"
        )
        assert code == 2

    def test_missing_graph_source_exit_two(self, capsys):
        assert main(["detect", "--group", "2", "--config", "1"]) == 2
        capsys.readouterr()

    def test_unknown_builtin_exit_two(self, capsys):
        assert main(["detect", "--builtin", "nope", "--config", "1"]) == 2
        capsys.readouterr()


class TestSweepCommand:
    def test_tenfold_detect_three(self, capsys):
        code, payload = run_json(
            capsys, "sweep", "--builtin", "tenfold", "--group", "2", "--detect", "3"
        )
        assert code == 0
        assert payload["all_detected"] is True
        assert sum(s["checked"] for s in payload["sizes"]) == 176
        assert "elapsed_s" not in payload
        jsonschema.validate(payload, load_schema("sweep"))

    def test_oracle_cross_check_agrees(self, capsys):
        code, payload = run_json(
            capsys, "sweep", "--builtin", "wheel", "--group", "3",
            "--correct", "1", "--oracle",
        )
        assert code == 0
        assert payload["oracle"] == {"checked": 16, "disagreements": []}
        jsonschema.validate(payload, load_schema("sweep"))

    def test_fivefold_cannot_correct_two(self, capsys):
        code, payload = run_json(
            capsys, "sweep", "--builtin", "wheel", "--group", "2", "--correct", "2"
        )
        assert code == 1
        assert payload["all_detected"] is False
        assert payload["sizes"][3]["undetected"]
        jsonschema.validate(payload, load_schema("sweep"))

    def test_oracle_skipped_over_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--builtin", "tenfold", "--group", "7",
            "--detect", "1", "--oracle",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"]["checked"] == 0
        assert "skipped" in payload["oracle"]
        assert "warning" in err
        jsonschema.validate(payload, load_schema("sweep"))

    def test_oracle_skipped_over_compressed_operator_cap(self, capsys, monkeypatch, tmp_path):
        # 2**20 code matrix entries, but one compressed operator over 18
        # inputs would hold 2**36: refused before the oracle touches numpy
        refuse_before_allocating(monkeypatch)
        path = tmp_path / "path.graph"
        path.write_text(serialize_graph(
            WeightedGraph.from_edges(20, [(v, v + 1, 1) for v in range(19)], range(18))
        ))
        code, out, err = run_cli(
            capsys, "sweep", "--graph", str(path), "--detect", "1", "--oracle"
        )
        assert code == 1  # more inputs than outputs: nothing is detected
        payload = json.loads(out)
        assert payload["all_detected"] is False
        assert payload["oracle"] == {"checked": 0, "skipped": "size cap exceeded"}
        assert (
            "warning: oracle skipped: oracle compressed operator size |G|^(2|X|) = "
            "2^36 = 68719476736 exceeds the cap 4194304\n"
        ) in err
        assert "Traceback" not in err
        jsonschema.validate(payload, load_schema("sweep"))

    def test_inputs_override(self, capsys):
        code, payload = run_json(
            capsys, "sweep", "--builtin", "wheel", "--inputs", "3",
            "--group", "7", "--correct", "1",
        )
        assert code == 0
        assert payload["inputs"] == [3]

    def test_requires_mode(self, capsys):
        assert main(["sweep", "--builtin", "wheel"]) == 2
        capsys.readouterr()

    def test_byte_identical_reruns(self, capsys):
        args = ("sweep", "--builtin", "wheel", "--group", "2", "--correct", "1")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_worker_env_does_not_change_output(self, capsys, monkeypatch):
        # the sweep sizes its own pool; a worker count in the environment,
        # even one that is not a number, is ignored
        args = ("sweep", "--builtin", "wheel", "--group", "2", "--correct", "1")
        monkeypatch.delenv("GRAPHQEC_WORKERS", raising=False)
        unset = run_cli(capsys, *args)
        for value in ("2", "many"):
            monkeypatch.setenv("GRAPHQEC_WORKERS", value)
            code, out, err = run_cli(capsys, *args)
            assert (code, out, untimed(err)) == (unset[0], unset[1], untimed(unset[2]))
        # 16 configurations cannot repay a worker's start-up
        assert err.endswith("16 configurations checked, 0 decided by pruning, 1 worker(s)\n")

    def test_stderr_counts_pruned_configurations(self, capsys):
        # every size-3 configuration is undetected, so size 4 needs no elimination
        code, out, err = run_cli(
            capsys, "sweep", "--builtin", "wheel", "--group", "2", "--correct", "2"
        )
        assert code == 1
        assert [len(s["undetected"]) for s in json.loads(out)["sizes"]] == [0, 0, 0, 10, 5]
        assert re.fullmatch(
            r"sweep finished in \d+\.\d{3}s: 31 configurations checked, "
            r"5 decided by pruning, 1 worker\(s\)\n",
            err,
        )

    def test_sweep_over_cap_exit_two(self, capsys, tmp_path):
        # 23 edgeless outputs, sizes <= 12: more than 2**22 configurations
        path = tmp_path / "edgeless.graph"
        path.write_text("vertices: 24\ninputs: 0\n")
        code, out, err = run_cli(
            capsys, "sweep", "--graph", str(path), "--group", "2", "--detect", "12"
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and "cap of 4194304" in err


class TestSubdetsCommand:
    def test_matrix19_report(self, capsys):
        code, payload = run_json(capsys, "subdets", "--builtin", "matrix19")
        assert code == 0
        assert payload["det_set"] == [-11, -8, -5, -4, -2, -1, 1, 2, 4, 5, 8, 9]
        assert payload["bad_primes"] == [2, 3, 5, 11]
        jsonschema.validate(payload, load_schema("subdets"))

    def test_restricted_inputs(self, capsys):
        code, payload = run_json(
            capsys, "subdets", "--builtin", "matrix19", "--inputs", "0,1"
        )
        assert code == 0
        assert 3 not in payload["bad_primes"]
        assert payload["restricted_to_inputs"] == [0, 1]
        assert len(payload["partitions"]) == math.comb(6, 2)
        jsonschema.validate(payload, load_schema("subdets"))

    def test_repeated_inputs_echo_the_restriction_used(self, capsys):
        code, payload = run_json(
            capsys, "subdets", "--builtin", "matrix19", "--inputs", "0,0"
        )
        assert code == 0
        assert payload["restricted_to_inputs"] == [0]
        # every partition keeps vertex 0 on one side
        assert len(payload["partitions"]) == math.comb(7, 3)
        jsonschema.validate(payload, load_schema("subdets"))
        _, unordered = run_json(
            capsys, "subdets", "--builtin", "matrix19", "--inputs", "1,0,1"
        )
        _, plain = run_json(capsys, "subdets", "--builtin", "matrix19", "--inputs", "0,1")
        assert unordered == plain
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**payload, "restricted_to_inputs": [0, 0]}, load_schema("subdets"))

    def test_odd_graph_exit_two(self, capsys, tmp_path):
        path = tmp_path / "odd.graph"
        path.write_text("vertices: 3\ninputs: 0\n0 1 1\n1 2 1\n")
        code, _, err = run_cli(capsys, "subdets", "--graph", str(path))
        assert code == 2

    def test_semiprime_weight(self, capsys, tmp_path):
        path = tmp_path / "pair.graph"
        path.write_text(f"vertices: 2\ninputs:\n0 1 {(10**9 + 7) * (10**9 + 9)}\n")
        code, payload = run_json(capsys, "subdets", "--graph", str(path))
        assert code == 0
        assert payload["bad_primes"] == [10**9 + 7, 10**9 + 9]
        jsonschema.validate(payload, load_schema("subdets"))

    def test_uncertifiable_weight_exit_two(self, capsys, tmp_path):
        path = tmp_path / "pair.graph"
        path.write_text(f"vertices: 2\ninputs:\n0 1 {2**89 - 1}\n")
        code, out, err = run_cli(capsys, "subdets", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert "cannot certify" in err


def write_cycle(path: Path, size: int) -> str:
    edges = "".join(f"{v} {v + 1} 1\n" for v in range(size - 1))
    path.write_text(f"vertices: {size}\ninputs: 0\n{edges}0 {size - 1} 1\n")
    return str(path)


@pytest.mark.parametrize("command", [("subdets", "--graph"), ("search", "--skeleton")])
def test_partition_cap_exit_two(capsys, monkeypatch, tmp_path, command):
    def refuse(size):
        raise AssertionError("partitions listed past the cap")

    monkeypatch.setattr(singleton, "_partitions", refuse)
    path = write_cycle(tmp_path / "c26.graph", 26)
    code, out, err = run_cli(capsys, *command, path)
    assert code == 2
    assert out == ""
    assert "5200300 half-half partitions" in err and "2097152" in err


@pytest.mark.parametrize(
    "command",
    [("detect", "--config", "1", "--graph"), ("subdets", "--graph"), ("search", "--skeleton")],
)
def test_vertex_cap_exit_two(capsys, tmp_path, command):
    path = tmp_path / "huge.graph"
    path.write_text("vertices: 1000000000\ninputs: 0\n0 1 1\n")
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert "vertex count must be in 1..2048" in err


# A list's text and the integers it lists, or None where the list rule refuses it.
INTEGER_LISTS = [
    ("", ()),
    ("0", (0,)),
    (" 0 , 1 ", (0, 1)),
    ("0,", None),
    ("1,,2", None),
    (",", None),
    ("a", None),
    ("1.5", None),
]


@pytest.mark.parametrize("text, values", INTEGER_LISTS)
def test_every_integer_list_follows_one_rule(capsys, monkeypatch, text, values):
    """--inputs, --config, group literals and a graph file's inputs: line
    accept and refuse the same strings."""
    refused = values is None
    code, out, err = run_cli(capsys, "subdets", "--builtin", "matrix19", "--inputs", text)
    assert code == (2 if refused else 0)
    if refused:
        assert err == f"error: bad vertex list {text!r}\n"
    else:
        assert json.loads(out)["restricted_to_inputs"] == list(values)
    # every wheel vertex is an output once the inputs are cleared
    code, _, err = run_cli(
        capsys, "detect", "--builtin", "wheel", "--inputs", "", "--config", text
    )
    assert code == (2 if refused else 0)
    if refused:
        assert err == f"error: bad vertex list {text!r}\n"
        with pytest.raises(ValueError, match="bad input list"):
            parse_graph(f"vertices: 3\ninputs: {text}\n")
    else:
        assert parse_graph(f"vertices: 3\ninputs: {text}\n").inputs == values
    # the group rules (at least one factor, each >= 2) taken out
    monkeypatch.setattr(abelian, "FiniteAbelianGroup", tuple)
    if refused:
        with pytest.raises(ValueError, match="bad group literal"):
            abelian.parse_group(text)
    else:
        assert abelian.parse_group(text) == values


class TestSearchCommand:
    def test_builtin_skeleton_search(self, capsys):
        code, payload = run_json(
            capsys, "search", "--builtin", "matrix19", "--bound", "2",
            "--seed", "0", "--budget", "100000",
        )
        assert code == 0
        assert payload["found"] is True
        assert payload["matrix"]
        assert 0 not in payload["det_set"]
        jsonschema.validate(payload, load_schema("search"))

    def test_budget_exhaustion_exit_one(self, capsys, tmp_path):
        # complete 4-vertex skeleton admits no bound-1 witness
        path = tmp_path / "k4.graph"
        path.write_text(
            "vertices: 4\ninputs: 0\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n"
        )
        code, payload = run_json(
            capsys, "search", "--skeleton", str(path), "--bound", "1",
            "--seed", "0", "--budget", "50",
        )
        assert code == 1
        assert payload["found"] is False
        assert payload["attempts"] == 50
        jsonschema.validate(payload, load_schema("search"))

    def test_bound_past_certification_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--builtin", "matrix19", "--bound", "674774", "--budget", "3",
        )
        assert code == 2
        assert out == ""
        assert "largest accepted bound is 674773" in err

    def test_bound_is_checked_before_the_skeleton_size(self, capsys, tmp_path):
        path = write_cycle(tmp_path / "c7.graph", 7)
        code, out, err = run_cli(capsys, "search", "--skeleton", path, "--bound", "2")
        assert (code, out) == (2, "")
        assert err == "error: skeleton size must be even and positive, got 7\n"
        code, out, err = run_cli(capsys, "search", "--skeleton", path, "--bound", "100000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: --bound 100000000 is too large") and "3 x 3 blocks" in err
        # past the partition cap too, the bound is reported first
        path = write_cycle(tmp_path / "c26.graph", 26)
        code, out, err = run_cli(capsys, "search", "--skeleton", path, "--bound", "100000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: --bound 100000000 is too large") and "13 x 13 blocks" in err

    def test_largest_certifiable_bound_succeeds(self, capsys):
        code, payload = run_json(
            capsys, "search", "--builtin", "matrix19", "--bound", "674773",
            "--seed", "0", "--budget", "3",
        )
        assert code == 0
        assert payload["found"] is True
        jsonschema.validate(payload, load_schema("search"))

    def test_certification_edges(self):
        # m x m blocks with entries up to the bound keep |det| < 3.3e24
        for m, edge in ((3, 86_103_958), (4, 674_773)):
            assert certifiable_bound(m, edge) and not certifiable_bound(m, edge + 1)
            assert largest_certifiable_bound(m) == edge

    @pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**64, -(10**30)])
    def test_every_int_seed_accepted(self, capsys, seed):
        code, payload = run_json(
            capsys, "search", "--builtin", "matrix19", "--bound", "2",
            "--seed", str(seed), "--budget", "3",
        )
        assert code in (0, 1)
        assert payload["seed"] == seed
        jsonschema.validate(payload, load_schema("search"))

    def test_deterministic_output(self, capsys):
        args = ("search", "--builtin", "matrix19", "--seed", "7", "--budget", "1000")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestCensusCommand:
    def test_two_vertices(self, capsys):
        code, payload = run_json(capsys, "census", "--n", "2")
        assert code == 0
        assert payload == {
            "n": 2,
            "count": 1,
            "classes": [{"bits": "1", "edges": [[0, 1]]}],
        }
        jsonschema.validate(payload, load_schema("census"))

    def test_four_vertices_empty(self, capsys):
        code, payload = run_json(capsys, "census", "--n", "4")
        assert code == 0
        assert payload["count"] == 0

    def test_odd_count_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "census", "--n", "5")
        assert code == 2


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout(capsys, name):
    code, out, _ = run_cli(capsys, *GOLDEN[name])
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()
    assert code == GOLDEN_EXIT.get(name, 0)


def test_emit_holds_a_fraction_of_its_output(monkeypatch):
    # json.dumps holds every encoded chunk and then the whole text, several
    # times the output size; _emit holds one batch of chunks at a time
    payload = {"partitions": [{"I": list(range(k % 7, k % 7 + 12)), "det": k * 7919}
                              for k in range(3000)]}

    class Sink:
        size = 0

        def write(self, text):
            Sink.size += len(text)

    monkeypatch.setattr(sys, "stdout", Sink())
    tracemalloc.start()
    try:
        cli._emit(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Sink.size == len(json.dumps(payload, indent=2)) + 1
    assert peak < Sink.size / 2


class TestExportCommand:
    def test_wheel_csv(self, capsys, tmp_path):
        out_path = tmp_path / "wheel.csv"
        code, payload = run_json(
            capsys, "export", "--builtin", "wheel", "--group", "2",
            "--out", str(out_path),
        )
        assert code == 0
        assert payload == {
            "group": [2],
            "graph": "wheel",
            "rows": 32,
            "cols": 2,
            "normalization": "counting",
        }
        jsonschema.validate(payload, load_schema("export_header"))
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 64
        scale = 1 / math.sqrt(32)
        for line in lines:
            _, _, re_part, im_part = line.split(",")
            assert abs(complex(float(re_part), float(im_part))) == pytest.approx(
                scale, abs=1e-12
            )

    @pytest.mark.parametrize("group, order", [("2", 2), ("2,2", 4)])
    def test_exponent_two_entries_are_exactly_real(self, capsys, tmp_path, group, order):
        # the roots are +-|G|^(-|Y|/2) in float64, so -1 entries print an
        # imaginary part of exactly 0.0, not the rounding residue of exp(i pi)
        out_path = tmp_path / "wheel.csv"
        code, payload = run_json(
            capsys, "export", "--builtin", "wheel", "--group", group, "--out", str(out_path)
        )
        assert code == 0
        assert payload == {
            "group": [int(d) for d in group.split(",")],
            "graph": "wheel",
            "rows": order**5,
            "cols": order,
            "normalization": "counting",
        }
        scale = float(order) ** (-5 / 2)
        tails = {line.split(",", 2)[2] for line in out_path.read_text().splitlines()}
        assert tails == {f"{scale!r},0.0", f"{-scale!r},0.0"}

    def test_cap_exceeded_exit_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "export", "--builtin", "tenfold", "--group", "7",
            "--out", str(tmp_path / "big.csv"),
        )
        assert code == 2
        assert "cap" in err


class TestWeightsPastInt64:
    """Weights act modulo the group however large they are: a graph and the
    same graph with its weights reduced give the same oracle and export."""

    @staticmethod
    def write_wheel(tmp_path, weight) -> str:
        wheel = wheel_code()
        path = tmp_path / f"wheel-{weight}.txt"
        graph = WeightedGraph.from_edges(
            wheel.n, [(u, v, weight) for u, v, _ in wheel.edges()], wheel.inputs
        )
        path.write_text(serialize_graph(graph))
        return str(path)

    @pytest.mark.parametrize("weight", [2**60 + 1, 2**64 + 1])
    def test_sweep_oracle_agrees(self, capsys, tmp_path, weight):
        heavy, light = self.write_wheel(tmp_path, weight), self.write_wheel(tmp_path, weight % 7)
        args = ("sweep", "--group", "7", "--detect", "3", "--oracle")
        code, payload = run_json(capsys, *args, "--graph", heavy)
        light_code, light_payload = run_json(capsys, *args, "--graph", light)
        assert payload["oracle"] == {"checked": 26, "disagreements": []}
        del payload["graph"], light_payload["graph"]  # the file names differ
        assert (code, payload) == (light_code, light_payload)

    @pytest.mark.parametrize("weight", [2**60 + 1, 2**64 + 1])
    def test_export_matches_reduced_graph(self, capsys, tmp_path, weight):
        csvs = []
        for w in (weight, weight % 3):
            out = tmp_path / f"{w}.csv"
            code, _ = run_json(
                capsys, "export", "--graph", self.write_wheel(tmp_path, w), "--group", "3",
                "--out", str(out),
            )
            assert code == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "graphqec" in out

    def test_no_command_exit_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_group_default_documented(self, capsys):
        main(["detect", "--help"])
        assert "default: 2" in capsys.readouterr().out

    # the top-level help lists every subcommand, so a new one changes its file
    @pytest.mark.parametrize(
        "command", ["", "detect", "sweep", "subdets", "search", "census", "export"]
    )
    def test_help_text_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, "--help"] if command else ["--help"]) == 0
        name = f"help-{command}" if command else "help"
        assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.txt").read_text()


class TestErrorBranches:
    def test_missing_graph_file_exit_two(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "detect", "--graph", str(tmp_path / "missing.graph"), "--config", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "missing.graph" in err

    def test_oracle_disagreement_exit_one(self, capsys, monkeypatch):
        from graphqec import oracle

        kl_detects = oracle.kl_detects

        def flipped(isometry, cfg):
            verdict = kl_detects(isometry, cfg)
            return not verdict if cfg == (1,) else verdict

        monkeypatch.setattr(oracle, "kl_detects", flipped)
        code, payload = run_json(
            capsys, "sweep", "--builtin", "wheel", "--group", "2", "--correct", "1", "--oracle"
        )
        assert code == 1
        assert payload["all_detected"] is True
        assert payload["oracle"] == {
            "checked": 16,
            "disagreements": [{"config": [1], "kernel_verdict": True, "oracle_verdict": False}],
        }
        jsonschema.validate(payload, load_schema("sweep"))


def run_fresh(*argv: str, cpus: set[int] | None = None, stdout=subprocess.PIPE):
    """``python -m graphqec.cli`` in a fresh interpreter, with stdout
    block-buffered into a pipe, so an exit that skips a flush loses output;
    with ``cpus``, the interpreter may run on those CPUs only."""
    src = str(Path(graphqec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "graphqec.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
    )


def untimed(err: str) -> str:
    return re.sub(r"sweep finished in \d+\.\d{3}s", "sweep finished in Ts", err)


class TestFreshInterpreter:
    """The command ends its process right after flushing its output; what a
    fresh interpreter prints and returns is what ``main`` gives in-process."""

    @pytest.mark.parametrize(
        "expected, argv",
        [
            (0, ("sweep", "--builtin", "wheel", "--group", "2", "--correct", "1", "--oracle")),
            (1, ("sweep", "--builtin", "tenfold", "--group", "2", "--detect", "4")),
            (2, ("detect", "--builtin", "wheel", "--config", "0")),
            (2, ("sweep", "--builtin", "wheel")),
        ],
        ids=["claim-holds", "claim-fails", "bad-input", "usage"],
    )
    def test_same_output_and_exit_code(self, capsys, expected, argv):
        code, out, err = run_cli(capsys, *argv)
        proc = run_fresh(*argv)
        assert code == expected
        assert (proc.returncode, proc.stdout) == (code, out.encode())
        assert untimed(proc.stderr.decode()) == untimed(err)

    def test_export_writes_the_whole_csv(self, capsys, tmp_path):
        args = ("export", "--builtin", "tenfold", "--group", "2")
        code, out, err = run_cli(capsys, *args, "--out", str(tmp_path / "main.csv"))
        proc = run_fresh(*args, "--out", str(tmp_path / "fresh.csv"))
        assert code == 0
        assert (proc.returncode, proc.stdout) == (code, out.encode())
        assert proc.stderr.decode() == err.replace("main.csv", "fresh.csv")
        assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()
        assert len((tmp_path / "fresh.csv").read_text().splitlines()) == 2**10 * 2

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_failed_flush_exits_two(self):
        with open("/dev/full", "w") as full:
            proc = run_fresh("census", "--n", "2", stdout=full)
        assert proc.returncode == 2
        assert proc.stderr.decode() == "error: [Errno 28] No space left on device\n"

    @pytest.fixture(scope="class")
    def dense_sweep(self, tmp_path_factory):
        """The sweep of a dense 24-vertex graph over Z2xZ4: 145,499
        configurations of sizes <= 6, enough for two workers if the process
        may use two CPUs; its argv, and the exit code and stdout of a serial
        run in-process, shared by the affinity cases."""
        rng = random.Random(1)
        edges = [
            (u, v, rng.randint(1, 3)) for u in range(24) for v in range(u + 1, 24)
            if rng.random() < 0.6
        ]
        path = tmp_path_factory.mktemp("dense") / "dense.graph"
        path.write_text(serialize_graph(WeightedGraph.from_edges(24, edges, (0,))))
        args = ("sweep", "--graph", str(path), "--group", "2,4", "--detect", "6")
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            patch.setattr(detector, "usable_cpus", lambda: 1)
            code = main(list(args))
        return args, code, out.getvalue()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    @pytest.mark.parametrize("one_cpu", [True, False], ids=["one-cpu", "every-cpu"])
    def test_pool_sweep_leaves_nothing_behind(self, dense_sweep, one_cpu):
        args, code, out = dense_sweep
        usable = os.sched_getaffinity(0)
        cpus = {min(usable)} if one_cpu else usable
        proc = run_fresh(*args, cpus=cpus)
        assert (proc.returncode, proc.stdout) == (code, out.encode())
        workers = min(len(cpus), 2)
        # the summary line only: no resource_tracker or leaked-semaphore warning
        assert re.fullmatch(
            rf"sweep finished in \d+\.\d{{3}}s: 145499 configurations checked, "
            rf"0 decided by pruning, {workers} worker\(s\)\n",
            proc.stderr.decode(),
        )


def test_script_entry_point_resolves():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    target = pyproject["project"]["scripts"]["graphqec"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert callable(entry)
    assert target == "graphqec.cli:run"
