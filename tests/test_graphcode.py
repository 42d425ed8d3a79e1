from __future__ import annotations

import pytest

from graphqec.graphcode import (
    WeightedGraph,
    matrix19_code,
    parse_graph,
    serialize_graph,
)

WHEEL_FILE = """\
# hub-and-pentagon code graph
vertices: 6
inputs: 0
0 1 1
0 2 1
0 3 1
0 4 1
0 5 1
1 2 1
1 5 1
2 3 1
3 4 1
4 5 1
"""


class TestValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            WeightedGraph(((0, 1), (2, 0)), (0,))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            WeightedGraph(((1, 0), (0, 0)), (0,))

    def test_rejects_all_inputs(self):
        with pytest.raises(ValueError):
            WeightedGraph(((0, 1), (1, 0)), (0, 1))

    def test_rejects_input_out_of_range(self):
        with pytest.raises(ValueError):
            WeightedGraph(((0, 1), (1, 0)), (2,))

    def test_outputs_complement_inputs(self):
        g = WeightedGraph(((0, 1, 0), (1, 0, 1), (0, 1, 0)), (1,))
        assert g.outputs == (0, 2)
        assert g.n == 3

    def test_empty_input_set_allowed(self):
        g = WeightedGraph(((0, 1), (1, 0)), ())
        assert g.inputs == ()
        assert g.outputs == (0, 1)


class TestParseSerialize:
    def test_wheel_file(self, wheel):
        g = parse_graph(WHEEL_FILE)
        assert g == wheel
        assert len(g.edges()) == 10
        assert g.inputs == (0,)
        assert len(g.outputs) == 5

    def test_round_trip_builtins(self, wheel, tenfold, matrix19):
        for g in (wheel, tenfold, matrix19):
            assert parse_graph(serialize_graph(g)) == g

    def test_round_trip_negative_weights(self):
        g = WeightedGraph.from_edges(4, [(0, 1, -3), (2, 3, 7)], (0, 2))
        assert parse_graph(serialize_graph(g)) == g

    def test_serialization_is_lexicographic(self, wheel):
        lines = serialize_graph(wheel).strip().splitlines()
        edges = [tuple(map(int, line.split()[:2])) for line in lines[2:]]
        assert edges == sorted(edges)

    def test_comments_and_blanks_ignored(self):
        text = "vertices: 2\n\n# full comment\ninputs: 0\n0 1 1  # trailing\n"
        g = parse_graph(text)
        assert g.weight(0, 1) == 1

    def test_duplicate_edge_consistent_ok(self):
        g = parse_graph("vertices: 2\ninputs: 0\n0 1 1\n0 1 1\n")
        assert g.weight(0, 1) == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("vertices: 2\ninputs: 0\n0 0 1\n", "self-loop"),
            ("vertices: 2\ninputs: 0\n0 3 1\n", "out of range"),
            ("vertices: 2\ninputs: 0\n1 0 1\n", "u < v"),
            ("vertices: 2\ninputs: 0\n0 1 1\n0 1 2\n", "conflicting"),
            ("vertices: 2\ninputs: 0,1\n0 1 1\n", "output"),
            ("vertices: 2\ninputs: 0\n0 1 0\n", "weight 0"),
            ("inputs: 0\nvertices: 2\n", "vertices"),
            ("vertices: 2\n0 1 1\n", "inputs"),
            ("vertices: 2\ninputs: 0\n0 1\n", "edge"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_graph(text)


class TestSubmatrix:
    def test_wheel_block(self, wheel):
        assert wheel.submatrix((3, 4, 5), (0, 1, 2)) == [
            [1, 0, 1],
            [1, 0, 0],
            [1, 1, 0],
        ]

    def test_empty_rows(self, wheel):
        assert wheel.submatrix((), (0, 1, 2)) == []

    def test_single_diagonal(self, wheel):
        assert wheel.submatrix((0,), (0,)) == [[0]]

    def test_transpose_relation(self, matrix19):
        k, l = (0, 3, 5), (1, 2, 4)
        a = matrix19.submatrix(k, l)
        b = matrix19.submatrix(l, k)
        assert a == [list(col) for col in zip(*b)]

    def test_partition_independent_of_inputs(self, matrix19):
        other = matrix19.with_inputs((4, 5))
        assert matrix19.submatrix((0, 1), (2, 3)) == other.submatrix((0, 1), (2, 3))


class TestWheel:
    def test_hub_degree(self, wheel):
        assert wheel.degree(0) == 5

    def test_ring_degrees(self, wheel):
        assert all(wheel.degree(v) == 3 for v in range(1, 6))

    def test_nonadjacent_ring_pair(self, wheel):
        assert wheel.gamma[1][3] == 0

    def test_partition(self, wheel):
        assert wheel.inputs == (0,)
        assert wheel.outputs == (1, 2, 3, 4, 5)


class TestTenfold:
    def test_neighbor_sets(self, tenfold):
        assert tenfold.neighbors(2) == (0, 1, 3, 4, 9, 10)
        assert tenfold.neighbors(6) == (0, 3, 4, 5, 7, 8)

    def test_all_outputs_degree_six(self, tenfold):
        assert all(tenfold.degree(v) == 6 for v in tenfold.outputs)

    def test_partition(self, tenfold):
        assert tenfold.inputs == (0,)
        assert tenfold.outputs == tuple(range(1, 11))

    def test_pair_contraction_matches_wheel(self, tenfold, wheel):
        # one representative per pair: contracting pairs recovers the
        # hub-and-pentagon adjacency pattern
        reps = [0, 1, 3, 5, 7, 9]
        contracted = [
            [1 if tenfold.gamma[reps[i]][reps[j]] else 0 for j in range(6)]
            for i in range(6)
        ]
        assert contracted == [list(row) for row in wheel.gamma]

    def test_pair_blocks_complete_between_neighbors(self, tenfold):
        pairs = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
        for i in range(5):
            for j in range(i + 1, 5):
                linked = any(
                    tenfold.gamma[u][v] for u in pairs[i] for v in pairs[j]
                )
                fully = all(
                    tenfold.gamma[u][v] for u in pairs[i] for v in pairs[j]
                )
                neighbored = (j - i) % 5 in (1, 4)
                assert linked == neighbored
                assert fully == neighbored


class TestMatrix19:
    def test_entries(self, matrix19):
        assert matrix19.gamma[0][2] == 1
        assert matrix19.gamma[2][4] == 2
        assert matrix19.gamma[6][4] == -2

    def test_four_nonzeros_per_row(self, matrix19):
        assert all(
            sum(1 for x in row if x) == 4 for row in matrix19.gamma
        )

    def test_symmetric_zero_diagonal(self, matrix19):
        n = matrix19.n
        assert all(matrix19.gamma[i][i] == 0 for i in range(n))
        assert all(
            matrix19.gamma[i][j] == matrix19.gamma[j][i]
            for i in range(n)
            for j in range(n)
        )

    def test_input_choices(self):
        assert matrix19_code((3,)).inputs == (3,)
        assert matrix19_code((0, 1)).inputs == (0, 1)

    @pytest.mark.parametrize("inputs", [(), (0, 1, 2), (8,), (-1,)])
    def test_invalid_inputs(self, inputs):
        with pytest.raises(ValueError):
            matrix19_code(inputs)


class TestEquality:
    def test_name_not_compared(self, wheel):
        anon = WeightedGraph(wheel.gamma, wheel.inputs)
        assert anon == wheel

    def test_repartition_changes_equality(self, wheel):
        assert wheel.with_inputs((3,)) != wheel
