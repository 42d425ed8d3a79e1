from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from helpers import random_graph

from graphqec.abelian import enumerate_elements, make_group
from graphqec.detector import detects
from graphqec.graphcode import WeightedGraph, apply_map, wheel_code
from graphqec.oracle import (
    _compressions,
    build_isometry,
    check_isometry,
    export_isometry_csv,
    isometry_header,
    kl_detects,
    omega_table,
)


@pytest.fixture(scope="module")
def wheel_iso_z2(wheel, z2):
    return build_isometry(wheel, z2)


class TestBuildIsometry:
    def test_wheel_qubit_shape_and_entries(self, wheel_iso_z2):
        matrix = wheel_iso_z2.matrix
        assert matrix.shape == (32, 2)
        scale = 1 / math.sqrt(32)
        assert np.allclose(np.abs(matrix), scale, atol=1e-12)
        # with two-element factors all phases are real signs
        assert np.allclose(matrix.imag, 0, atol=1e-12)

    def test_hadamard_modulus_all_builtins(self, wheel, tenfold, z2, z3, z5):
        for graph, group in [
            (wheel, z2), (wheel, z3), (wheel, z5), (tenfold, z2),
        ]:
            iso = build_isometry(graph, group)
            assert np.abs(np.abs(iso.matrix) - iso.entry_modulus).max() < 1e-12

    def test_single_edge_graph_is_fourier(self, z2):
        graph = WeightedGraph.from_edges(2, [(0, 1, 1)], (0,))
        iso = build_isometry(graph, z2)
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(iso.matrix, expected, atol=1e-12)
        assert check_isometry(iso)

    def test_disconnected_input_duplicates_columns(self, z2):
        graph = WeightedGraph.from_edges(2, [], (0,))
        iso = build_isometry(graph, z2)
        # no edges, no phases: both columns are the uniform vector
        assert np.allclose(iso.matrix, 1 / math.sqrt(2), atol=1e-12)
        assert not check_isometry(iso)

    def test_size_cap_enforced(self, tenfold):
        with pytest.raises(ValueError):
            build_isometry(tenfold, make_group([2]), size_cap=1000)

    def test_no_inputs_gives_single_column(self, z2):
        graph = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)], ())
        iso = build_isometry(graph, z2)
        assert iso.matrix.shape == (8, 1)
        assert check_isometry(iso)
        # a one-dimensional input space detects everything trivially
        assert kl_detects(graph, z2, (0,), isometry=iso)

    def test_weight_acts_mod_exponent(self, z3):
        # weights differing by the group exponent give the same operator
        light = WeightedGraph.from_edges(2, [(0, 1, 1)], (0,))
        heavy = WeightedGraph.from_edges(2, [(0, 1, 4)], (0,))
        assert np.allclose(
            build_isometry(light, z3).matrix, build_isometry(heavy, z3).matrix
        )

    def test_column_indexing_lexicographic(self, z3):
        # kernel value for input g, output h is chi(g, h) up to normalization
        graph = WeightedGraph.from_edges(2, [(0, 1, 1)], (0,))
        iso = build_isometry(graph, z3)
        for c, g in enumerate(enumerate_elements(z3)):
            for r, h in enumerate(enumerate_elements(z3)):
                expected = z3.chi(g, h).to_complex() / math.sqrt(3)
                assert iso.matrix[r, c] == pytest.approx(expected, abs=1e-12)


class TestCheckIsometry:
    def test_wheel_groups(self, wheel, z2, z3, z5):
        for group in (z2, z3, z5):
            assert check_isometry(build_isometry(wheel, group))

    def test_tenfold_qubit(self, tenfold, z2):
        assert check_isometry(build_isometry(tenfold, z2))

    def test_matches_kernel_isometry_condition(self):
        rng = random.Random(17)
        for _ in range(40):
            graph = random_graph(rng, max_n=4)
            group = make_group([rng.choice([2, 3])])
            iso = build_isometry(graph, group)
            assert check_isometry(iso) == detects(graph, group, ()).detected


class TestKnillLaflamme:
    def test_wheel_examples(self, wheel, z2, wheel_iso_z2):
        assert kl_detects(wheel, z2, (1, 2), isometry=wheel_iso_z2)
        assert not kl_detects(wheel, z2, (1, 2, 3), isometry=wheel_iso_z2)

    def test_tenfold_full_pair_plus_far_vertex(self, tenfold, z2):
        iso = build_isometry(tenfold, z2)
        assert kl_detects(tenfold, z2, (1, 2, 5), isometry=iso)

    def test_empty_config_equals_isometry_check(self, z2):
        graph = WeightedGraph.from_edges(2, [], (0,))
        iso = build_isometry(graph, z2)
        assert kl_detects(graph, z2, (), isometry=iso) == check_isometry(iso)

    def test_rejects_non_output_config(self, wheel, z2, wheel_iso_z2):
        with pytest.raises(ValueError):
            kl_detects(wheel, z2, (0,), isometry=wheel_iso_z2)

    def test_size_cap_enforced(self, tenfold, z2):
        with pytest.raises(ValueError):
            kl_detects(tenfold, z2, (1,), size_cap=100)

    def test_rejects_isometry_of_other_group(self, wheel, z3, wheel_iso_z2):
        for check in (kl_detects, omega_table):
            with pytest.raises(ValueError, match="group"):
                check(wheel, z3, (1, 2), isometry=wheel_iso_z2)

    def test_rejects_isometry_of_other_partition(self, wheel, z2, wheel_iso_z2):
        moved = wheel.with_inputs((3,))
        for check in (kl_detects, omega_table):
            with pytest.raises(ValueError, match="inputs"):
                check(moved, z2, (1, 2), isometry=wheel_iso_z2)

    def test_agrees_with_kernel_criterion_on_builtins(
        self, wheel, tenfold, z2, z3, z5
    ):
        cases = [
            (wheel, z5, 2),
            (wheel, make_group([7]), 2),
            (tenfold, z2, 3),
            (tenfold, z3, 3),
        ]
        for graph, group, max_size in cases:
            iso = build_isometry(graph, group)
            for size in range(max_size + 1):
                for config in itertools.combinations(graph.outputs, size):
                    kernel = detects(graph, group, config).detected
                    oracle = kl_detects(graph, group, config, isometry=iso)
                    assert kernel == oracle, (graph.name, group.factors, config)

    @pytest.mark.parametrize("order", [2, 3])
    def test_agrees_across_gram_block_sizes(self, wheel, order):
        group = make_group([order])
        iso = build_isometry(wheel, group)
        for size in range(len(wheel.outputs) + 1):
            for config in itertools.combinations(wheel.outputs, size):
                blocks = sum(1 for _ in _compressions(iso, config))
                # the whole Gram matrix is one block iff |E| + |X| <= |I|
                assert (blocks == 1) == (size + 1 <= 5 - size), config
                kernel = detects(wheel, group, config).detected
                assert kl_detects(wheel, group, config, isometry=iso) == kernel


class TestOmegaTable:
    def test_empty_config_scalar_one(self, wheel, z2, wheel_iso_z2):
        table = omega_table(wheel, z2, (), isometry=wheel_iso_z2)
        assert set(table) == {((), ())}
        assert table[((), ())] == pytest.approx(1)

    def test_diagonal_scalars_equal(self, wheel, z2, wheel_iso_z2):
        table = omega_table(wheel, z2, (1, 2), isometry=wheel_iso_z2)
        diag = [table[(a, b)] for (a, b) in table if a == b]
        assert len(diag) == 4
        assert max(abs(x - diag[0]) for x in diag) < 1e-12

    def test_support_condition(self, wheel, z2, wheel_iso_z2):
        # scalar vanishes exactly where the difference is not annihilated by
        # the untouched-output rows; on the support the modulus is constant
        config = (1, 2)
        table = omega_table(wheel, z2, config, isometry=wheel_iso_z2)
        rows = tuple(v for v in wheel.outputs if v not in config)
        linking = wheel.submatrix(rows, config)
        on_support_modulus = 1 / z2.order ** len(config)
        for (a, b), lam in table.items():
            diff = tuple(z2.add(x, z2.neg(y)) for x, y in zip(b, a))
            image = apply_map(linking, z2, diff)
            if all(g == z2.zero() for g in image):
                assert abs(lam) == pytest.approx(on_support_modulus, abs=1e-12)
            else:
                assert abs(lam) < 1e-12

    def test_undetected_config_raises(self, wheel, z2, wheel_iso_z2):
        with pytest.raises(ValueError):
            omega_table(wheel, z2, (1, 2, 3), isometry=wheel_iso_z2)

    def test_qutrit_support_condition(self, wheel, z3):
        iso = build_isometry(wheel, z3)
        config = (2, 5)
        table = omega_table(wheel, z3, config, isometry=iso)
        rows = tuple(v for v in wheel.outputs if v not in config)
        linking = wheel.submatrix(rows, config)
        for (a, b), lam in table.items():
            diff = tuple(z3.add(x, z3.neg(y)) for x, y in zip(b, a))
            on_support = all(
                g == z3.zero() for g in apply_map(linking, z3, diff)
            )
            assert (abs(lam) > 1e-12) == on_support


    @pytest.mark.parametrize(
        "graph, config",
        [
            (wheel_code(), (2, 5)),
            # twin outputs 1 and 2 joined by an edge: some scalars with a != b
            # are not real, so a slip between a and b changes the table
            (
                WeightedGraph.from_edges(
                    5,
                    [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (1, 2, 1),
                     (3, 4, 1), (0, 4, 1)],
                    (0,),
                ),
                (1, 2),
            ),
        ],
        ids=["wheel", "twins"],
    )
    def test_qutrit_scalars_match_direct_compression(self, z3, graph, config):
        iso = build_isometry(graph, z3)
        table = omega_table(graph, z3, config, isometry=iso)
        # rows of V grouped by error-leg assignment, ordered by the rest
        e_pos = [graph.outputs.index(v) for v in config]
        slices: dict = {}
        digits_of_rows = itertools.product(range(3), repeat=len(graph.outputs))
        for row, digits in enumerate(digits_of_rows):
            a = tuple((digits[p],) for p in e_pos)
            slices.setdefault(a, []).append(iso.matrix[row])
        w = {a: np.array(rows) for a, rows in slices.items()}
        assert len(table) == len(w) ** 2 == 81
        for a, b in itertools.product(w, repeat=2):
            compressed = w[a].conj().T @ w[b]
            scalar = compressed[0, 0]
            assert np.abs(compressed - scalar * np.eye(iso.cols)).max() < 1e-12
            assert abs(table[(a, b)] - scalar) < 1e-12, (a, b)

class TestExport:
    def test_header_and_csv(self, wheel, z2, wheel_iso_z2, tmp_path):
        path = tmp_path / "wheel.csv"
        header = export_isometry_csv(wheel_iso_z2, path)
        assert header == {
            "group": [2],
            "graph": "wheel",
            "rows": 32,
            "cols": 2,
            "normalization": "counting",
        }
        assert header == isometry_header(wheel_iso_z2)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 64
        # lexicographic: rows outer, cols inner
        keys = [tuple(int(x) for x in line.split(",")[:2]) for line in lines]
        assert keys == [(r, c) for r in range(32) for c in range(2)]
        for line in lines:
            r, c, re_part, im_part = line.split(",")
            value = complex(float(re_part), float(im_part))
            assert value == wheel_iso_z2.matrix[int(r), int(c)]
