from __future__ import annotations

import pickle
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqec import graphcode
from graphqec.abelian import parse_group
from graphqec._frozen import integer_list
from graphqec.graphcode import (
    MAX_VERTICES,
    WeightedGraph,
    matrix19_code,
    parse_graph,
    serialize_graph,
    wheel_code,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

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


def neighbors(graph, v):
    return tuple(u for u in range(graph.n) if graph.gamma[v][u])


def degree(graph, v):
    return len(neighbors(graph, v))


@st.composite
def graphs(draw):
    """Graphs on 1..6 vertices with 0-3 inputs and weights past int64."""
    n = draw(st.integers(1, 6))
    weight = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**70), 2**70))
    edges = [
        (u, v, w)
        for u in range(n)
        for v in range(u + 1, n)
        if (w := draw(weight))
    ]
    inputs = draw(st.sets(st.integers(0, n - 1), max_size=min(3, n - 1)))
    return WeightedGraph.from_edges(n, edges, inputs)


# fragments of the graph and group formats plus junk, joined at random
# after a prefix that gets part of the way through a graph file
TOKENS = st.sampled_from(
    ["vertices:", "inputs:", "0", "1", "2", "3", "-1", "4096", "1000000000",
     str(2**70), ",", " ", "\n", "#", ":", "x", "1e3", "0x1", "1_0", "+2", "\u0663"]
)
SOUP = st.tuples(
    st.sampled_from(["", "vertices: ", "vertices: 3\ninputs: ", "vertices: 4\ninputs: 0\n"]),
    st.lists(TOKENS, max_size=30),
).map(lambda parts: parts[0] + "".join(parts[1]))


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

    @PROPERTY
    @given(graphs())
    def test_round_trip_property(self, graph):
        assert parse_graph(serialize_graph(graph)) == graph

    @PROPERTY
    @given(SOUP)
    def test_token_soup_raises_only_value_error(self, text):
        for parse in (parse_graph, parse_group, partial(integer_list, what="list")):
            try:
                parse(text)
            except ValueError:
                pass

    def test_vertex_cap_refused_before_allocating(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("graph allocated past the vertex cap")

        monkeypatch.setattr(graphcode.WeightedGraph, "from_edges", fail)
        with pytest.raises(ValueError, match="vertex count"):
            parse_graph("vertices: 1000000000\ninputs: 0\n0 1 1\n")

    def test_vertex_cap_accepts_limit(self):
        assert MAX_VERTICES == 2048
        g = parse_graph(f"vertices: {MAX_VERTICES}\ninputs: 0\n0 2047 5\n")
        assert g.n == MAX_VERTICES and g.gamma[2047][0] == 5

    def test_serialization_is_lexicographic(self, wheel):
        lines = serialize_graph(wheel).strip().splitlines()
        edges = [tuple(map(int, line.split()[:2])) for line in lines[2:]]
        assert edges == sorted(edges)

    def test_comments_and_blanks_ignored(self):
        text = "vertices: 2\n\n# full comment\ninputs: 0\n0 1 1  # trailing\n"
        g = parse_graph(text)
        assert g.gamma[0][1] == 1

    def test_duplicate_edge_consistent_ok(self):
        g = parse_graph("vertices: 2\ninputs: 0\n0 1 1\n0 1 1\n")
        assert g.gamma[0][1] == 1

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


class TestWheel:
    def test_hub_degree(self, wheel):
        assert degree(wheel, 0) == 5

    def test_ring_degrees(self, wheel):
        assert all(degree(wheel, v) == 3 for v in range(1, 6))

    def test_nonadjacent_ring_pair(self, wheel):
        assert wheel.gamma[1][3] == 0

    def test_partition(self, wheel):
        assert wheel.inputs == (0,)
        assert wheel.outputs == (1, 2, 3, 4, 5)


class TestTenfold:
    def test_neighbor_sets(self, tenfold):
        assert neighbors(tenfold, 2) == (0, 1, 3, 4, 9, 10)
        assert neighbors(tenfold, 6) == (0, 3, 4, 5, 7, 8)

    def test_all_outputs_degree_six(self, tenfold):
        assert all(degree(tenfold, v) == 6 for v in tenfold.outputs)

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

    def test_input_choices(self, matrix19):
        other = matrix19.with_inputs((0, 1))
        assert other.inputs == (0, 1)
        # re-partitioning keeps gamma, so no block of it depends on the inputs
        assert other.gamma == matrix19.gamma


class TestEquality:
    def test_name_not_compared(self, wheel):
        anon = WeightedGraph(wheel.gamma, wheel.inputs)
        assert anon == wheel

    def test_repartition_changes_equality(self, wheel):
        assert wheel.with_inputs((3,)) != wheel

    def test_hash_ignores_name(self, wheel):
        assert hash(WeightedGraph(wheel.gamma, wheel.inputs, name="other")) == hash(wheel)
        assert {wheel, WeightedGraph(wheel.gamma, wheel.inputs)} == {wheel}
        assert wheel.__eq__(wheel.gamma) is NotImplemented

    def test_immutable(self, wheel):
        for name in ("gamma", "inputs", "name", "extra"):
            with pytest.raises(AttributeError):
                setattr(wheel, name, ())
        for name in ("gamma", "inputs", "name"):
            with pytest.raises(AttributeError):
                delattr(wheel, name)
        assert wheel == wheel_code() and wheel.name == "wheel"

    def test_pickle_keeps_name(self, matrix19):
        copy = pickle.loads(pickle.dumps(matrix19.with_inputs((0, 1))))
        assert copy == matrix19.with_inputs((0, 1)) and copy.name == "matrix19"

    def test_repr_shows_fields(self):
        graph = WeightedGraph(((0, 2), (2, 0)), (1,), name="edge")
        assert repr(graph) == "WeightedGraph(gamma=((0, 2), (2, 0)), inputs=(1,), name='edge')"


class TestErrorBranches:
    def test_non_integral_weight_is_refused(self):
        with pytest.raises(ValueError, match="gamma entries must be integers, got 1.7"):
            WeightedGraph(((0, 1.7), (1.7, 0)), (0,))
        pair = np.array([2, 3])
        with pytest.raises(ValueError, match=r"gamma entries must be integers, got array\(\[2, 3\]\)"):
            WeightedGraph(((0, pair), (pair, 0)), (0,))
        graph = WeightedGraph(((0, np.int64(-3)), (np.int64(-3), 0)), (np.int64(0),))
        assert graph.gamma == ((0, -3), (-3, 0)) and type(graph.gamma[0][1]) is int

    def test_non_integral_input_is_refused(self):
        with pytest.raises(ValueError, match="input vertices must be integers, got 0.0"):
            WeightedGraph(((0, 1), (1, 0)), (0.0,))
        with pytest.raises(ValueError, match="input vertices must be integers, got 1.5"):
            matrix19_code().with_inputs((0, 1.5))
        assert WeightedGraph(((0, 1), (1, 0)), (True,)).inputs == (1,)

    def test_symmetric_matrix_must_be_square(self):
        with pytest.raises(ValueError, match="skeleton must be square"):
            graphcode.symmetric_matrix(((0, 1), (1, 0, 0)), "skeleton")

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            WeightedGraph.from_edges(3, [(0, 1, 1), (1, 1, 2)], (0,))

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(-1, 0, 1)], "edge -1-0 out of range for 3 vertices"),
            ([(0, 1, 1), (1, 3, 1)], "edge 1-3 out of range for 3 vertices"),
            ([(0.0, 1, 1)], "edge vertices must be integers, got 0.0"),
            ([(0, 1, 1), (1, 0, 2)], "edge 1-0 listed twice with conflicting weights 1 and 2"),
        ],
    )
    def test_from_edges_rejects_bad_edge_lists(self, edges, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightedGraph.from_edges(3, edges, (0,))

    @pytest.mark.parametrize(
        "n, message",
        [
            (2.0, "vertex count must be integers, got 2.0"),
            ("3", "vertex count must be integers, got '3'"),
            (0, "vertex count must be at least 1, got 0"),
            (-1, "vertex count must be at least 1, got -1"),
        ],
    )
    def test_from_edges_rejects_bad_vertex_counts(self, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightedGraph.from_edges(n, [], (0,))

    def test_from_edges_accepts_a_pair_repeated_with_its_weight(self):
        graph = WeightedGraph.from_edges(3, [(0, 2, 5), (2, 0, 5), (np.int64(1), 2, 1)], (0,))
        assert graph.edges() == [(0, 2, 5), (1, 2, 1)]

    def test_parse_rejects_non_integer_edge(self):
        with pytest.raises(ValueError, match="bad edge line '0 1 x'"):
            parse_graph("vertices: 2\ninputs: 0\n0 1 x\n")
