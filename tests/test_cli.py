from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import pytest

from graphqec.cli import main
from graphqec.graphcode import serialize_graph, wheel_code

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# stdout of the per-graph census, per-block determinants and
# one-attempt-at-a-time search, kept byte for byte
GOLDEN = {
    "census-2": ("census", "--n", "2"),
    "census-4": ("census", "--n", "4"),
    "census-6": ("census", "--n", "6"),
    "subdets-matrix19": ("subdets", "--builtin", "matrix19"),
    "subdets-matrix19-inputs-0-1": ("subdets", "--builtin", "matrix19", "--inputs", "0,1"),
    "search-first-attempt": (
        "search", "--builtin", "matrix19", "--bound", "2", "--seed", "13", "--budget", "100",
    ),
    "search-attempt-32": (
        "search", "--builtin", "matrix19", "--bound", "2", "--seed", "414", "--budget", "100",
    ),
    "search-attempt-33": (
        "search", "--builtin", "matrix19", "--bound", "2", "--seed", "1512", "--budget", "100",
    ),
    "search-attempt-97": (
        "search", "--builtin", "matrix19", "--bound", "2", "--seed", "79073", "--budget", "100",
    ),
    "search-exhausted": (
        "search", "--builtin", "matrix19", "--bound", "1", "--seed", "12345", "--budget", "5000",
    ),
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
        args = ("sweep", "--builtin", "wheel", "--group", "2", "--correct", "1")
        _, serial, _ = run_cli(capsys, *args)
        monkeypatch.setenv("GRAPHQEC_WORKERS", "2")
        _, parallel, _ = run_cli(capsys, *args)
        assert serial == parallel

    def test_sweep_over_cap_exit_two(self, capsys, monkeypatch, tmp_path):
        # 23 edgeless outputs, sizes <= 12: more than 2**22 configurations
        path = tmp_path / "edgeless.graph"
        path.write_text("vertices: 24\ninputs: 0\n")
        monkeypatch.setenv("GRAPHQEC_WORKERS", "100000")
        code, out, err = run_cli(
            capsys, "sweep", "--graph", str(path), "--group", "2", "--detect", "12"
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and "cap of 4194304" in err

    def test_bad_worker_env_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("GRAPHQEC_WORKERS", "many")
        code, _, err = run_cli(
            capsys, "sweep", "--builtin", "wheel", "--group", "2", "--correct", "1"
        )
        assert code == 2


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
    _, out, _ = run_cli(capsys, *GOLDEN[name])
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


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

    def test_cap_exceeded_exit_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "export", "--builtin", "tenfold", "--group", "7",
            "--out", str(tmp_path / "big.csv"),
        )
        assert code == 2
        assert "cap" in err


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
