from __future__ import annotations

import cmath
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from helpers import (
    mat_vec_mod,
    random_graph,
    reference_csv,
    refuse_before_allocating,
    submatrix,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqec.abelian import FiniteAbelianGroup
from graphqec.detector import detects, detects_errors
from graphqec.graphcode import BUILTIN_GRAPHS, SIZE_CAP, WeightedGraph, wheel_code
from graphqec import oracle
from graphqec.oracle import (
    _compressions,
    build_isometry,
    export_isometry_csv,
    kl_detects,
)


# Weights of the property tests: small ones, and ones past int64.
WEIGHTS = st.one_of(st.integers(-3, 3), st.sampled_from([2**60 + 1, -(2**60 + 1), 2**70]))


@pytest.fixture(scope="module")
def wheel_iso_z2(wheel, z2):
    return build_isometry(wheel, z2)


def leg_slices(graph, iso, config):
    """Rows of the code matrix grouped by error-leg assignment a (a tuple of
    group elements, lexicographic), each group ordered by the other legs."""
    elements = list(itertools.product(*(range(d) for d in iso.group.factors)))
    e_pos = [graph.outputs.index(v) for v in config]
    slices = {a: [] for a in itertools.product(elements, repeat=len(config))}
    digits_of_rows = itertools.product(range(len(elements)), repeat=len(graph.outputs))
    matrix = iso.matrix
    for row, digits in enumerate(digits_of_rows):
        slices[tuple(elements[digits[p]] for p in e_pos)].append(matrix[row])
    return {a: np.array(rows) for a, rows in slices.items()}


def scalar_table(graph, iso, config):
    """The Knill-Laflamme scalars of a detected configuration, computed
    directly: V* (|a><b| (x) id) V = W_a^H W_b = lambda_ab * id for the row
    slices W_a of V."""
    w = leg_slices(graph, iso, config)
    table = {}
    for a, b in itertools.product(w, repeat=2):
        compressed = w[a].conj().T @ w[b]
        scalar = compressed[0, 0]
        assert np.abs(compressed - scalar * np.eye(iso.cols)).max() < 1e-12, (a, b)
        table[(a, b)] = scalar
    return table


def direct_gram(graph, iso, config):
    """Every M_ab = W_a^H W_b at [a, b], from the row slices W_a of V."""
    w = np.array(list(leg_slices(graph, iso, config).values()))
    return np.einsum("arc,brd->abcd", w.conj(), w)


def gram_from_tiles(tiles, n_e):
    """The (n_e, n_e, cols, cols) stack of every M_ab from the tiles of
    ``_compressions`` (ranges of a, each with ranges of b from a's first,
    row by row), with M_ba = M_ab^H where no tile holds it."""
    cols = tiles[0].shape[-1]
    gram = np.full((n_e, n_e, cols, cols), np.nan, dtype=complex)
    lo = b = 0
    for tile in tiles:
        h, w = tile.shape[:2]
        assert np.isnan(gram[lo:lo + h, b:b + w]).all()
        gram[lo:lo + h, b:b + w] = tile
        b += w
        if b == n_e:
            lo += h
            b = lo
    assert lo == n_e
    missing = np.isnan(gram)
    gram[missing] = gram.transpose(1, 0, 3, 2).conj()[missing]
    assert not np.isnan(gram).any()
    return gram


def draw_instance(data, max_entries=6**6):
    """A graph of 2-6 vertices with 0-2 inputs over a small group, with at
    most ``max_entries`` code matrix entries."""
    group = FiniteAbelianGroup(data.draw(st.sampled_from([[2], [3], [4], [6], [2, 2], [2, 3]])))
    top = max(n for n in range(2, 7) if group.order**n <= max_entries)
    n = data.draw(st.integers(2, top))
    edges = [(u, v, data.draw(WEIGHTS)) for u in range(n) for v in range(u + 1, n)]
    inputs = data.draw(st.sets(st.integers(0, n - 1), max_size=min(2, n - 1)))
    return WeightedGraph.from_edges(n, [e for e in edges if e[2]], tuple(inputs)), group


def traced_peak(fn, *args, **kwargs):
    """fn's result, and the most bytes it held at once beyond what was
    allocated before the call (tracemalloc must be running)."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn(*args, **kwargs)
    return result, tracemalloc.get_traced_memory()[1] - before


def reduced(graph, modulus):
    """The graph with every weight reduced modulo ``modulus``."""
    return WeightedGraph.from_edges(
        graph.n, [(u, v, w % modulus) for u, v, w in graph.edges()], graph.inputs
    )


def reference_matrix(graph, group):
    """The code matrix entry by entry: each phase numerator summed exactly
    on Python ints over the vertex pairs, per cyclic factor."""
    elements = list(itertools.product(*(range(d) for d in group.factors)))
    lcm = group.exponent
    scale = group.order ** (-len(graph.outputs) / 2)
    rows = []
    for ys in itertools.product(elements, repeat=len(graph.outputs)):
        row = []
        for xs in itertools.product(elements, repeat=len(graph.inputs)):
            value = dict(zip(graph.outputs + graph.inputs, ys + xs))
            phase = sum(
                lcm // d * sum(w * value[u][i] * value[v][i] for u, v, w in graph.edges())
                for i, d in enumerate(group.factors)
            )
            row.append(cmath.exp(2j * math.pi * (phase % lcm) / lcm) * scale)
        rows.append(row)
    return np.array(rows)


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
            modulus = group.order ** (-len(graph.outputs) / 2)
            assert np.abs(np.abs(iso.matrix) - modulus).max() < 1e-12

    def test_single_edge_graph_is_fourier(self, z2):
        graph = WeightedGraph.from_edges(2, [(0, 1, 1)], (0,))
        iso = build_isometry(graph, z2)
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(iso.matrix, expected, atol=1e-12)
        assert kl_detects(iso, ())

    def test_disconnected_input_duplicates_columns(self, z2):
        graph = WeightedGraph.from_edges(2, [], (0,))
        iso = build_isometry(graph, z2)
        # no edges, no phases: both columns are the uniform vector
        assert np.allclose(iso.matrix, 1 / math.sqrt(2), atol=1e-12)
        assert not kl_detects(iso, ())

    def test_size_cap_enforced(self, tenfold, z2, z5, monkeypatch):
        refuse_before_allocating(monkeypatch)
        # 5**11 > 2**22 = SIZE_CAP
        with pytest.raises(ValueError, match=r"\|G\|\^\(n\) = 5\^11 = 48828125 exceeds the cap"):
            build_isometry(tenfold, z5)
        # 2**20 code matrix entries fit, but one compressed operator over 18
        # inputs would hold 2**36
        path = WeightedGraph.from_edges(20, [(v, v + 1, 1) for v in range(19)], range(18))
        with pytest.raises(ValueError, match=r"\|G\|\^\(2\|X\|\) = 2\^36 = 68719476736 "
                                             r"exceeds the cap 4194304"):
            build_isometry(path, z2)

    @pytest.mark.parametrize("inputs", [11, 12])
    def test_compressed_operator_cap_boundary(self, z2, inputs, monkeypatch):
        # 20 vertices over Z2: 2**(2 * 11) entries per operator is the cap
        path = WeightedGraph.from_edges(20, [(v, v + 1, 1) for v in range(19)], range(inputs))
        if 2 ** (2 * inputs) > SIZE_CAP:
            refuse_before_allocating(monkeypatch)
            with pytest.raises(ValueError, match="compressed operator size"):
                build_isometry(path, z2)
        else:
            iso = build_isometry(path, z2)
            assert (iso.rows, iso.cols) == (2**9, 2**11)

    def test_no_inputs_gives_single_column(self, z2):
        graph = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)], ())
        iso = build_isometry(graph, z2)
        assert iso.matrix.shape == (8, 1)
        assert kl_detects(iso, ())
        # a one-dimensional input space detects everything trivially
        assert kl_detects(iso, (0,))

    def test_weight_acts_mod_exponent(self, z3):
        # weights differing by the group exponent give the same operator
        light = WeightedGraph.from_edges(2, [(0, 1, 1)], (0,))
        heavy = WeightedGraph.from_edges(2, [(0, 1, 4)], (0,))
        assert np.allclose(
            build_isometry(light, z3).matrix, build_isometry(heavy, z3).matrix
        )

    @pytest.mark.parametrize("n, edges, factors", [
        (2, [(0, 1, 1)], [256]),  # exponent past the uint8 the phase sum needs
        (1, [], [2**11]),
    ])
    def test_exponent_past_narrow_types(self, n, edges, factors):
        graph = WeightedGraph.from_edges(n, edges, ())
        group = FiniteAbelianGroup(factors)
        expected = reference_matrix(graph, group)
        assert np.abs(build_isometry(graph, group).matrix - expected).max() < 1e-12

    @pytest.mark.parametrize("factors", [[2], [2, 2], [3], [4], [2, 4], [6]])
    def test_roots_are_real_for_exponent_two(self, wheel, factors):
        group = FiniteAbelianGroup(factors)
        iso = build_isometry(wheel, group)
        scale = float(group.order) ** (-len(wheel.outputs) / 2)
        if group.exponent == 2:
            assert iso.roots.dtype == np.float64
            assert iso.roots.tolist() == [scale, -scale]
        else:
            assert iso.roots.dtype == np.complex128
            assert len(iso.roots) == group.exponent and iso.roots[0] == scale
        assert iso.matrix.dtype == iso.roots.dtype

    def test_column_indexing_lexicographic(self, z3):
        # kernel value for input g, output h is exp(2 pi i g h / 3) / sqrt(3)
        graph = WeightedGraph.from_edges(2, [(0, 1, 1)], (0,))
        iso = build_isometry(graph, z3)
        for g in range(3):
            for h in range(3):
                expected = cmath.exp(2j * math.pi * g * h / 3) / math.sqrt(3)
                assert iso.matrix[h, g] == pytest.approx(expected, abs=1e-12)


class TestCheckIsometry:
    def test_wheel_groups(self, wheel, z2, z3, z5):
        for group in (z2, z3, z5):
            assert kl_detects(build_isometry(wheel, group), ())

    def test_tenfold_qubit(self, tenfold, z2):
        assert kl_detects(build_isometry(tenfold, z2), ())

    def test_matches_kernel_isometry_condition(self):
        rng = random.Random(17)
        for _ in range(40):
            graph = random_graph(rng, max_n=4)
            group = FiniteAbelianGroup([rng.choice([2, 3])])
            iso = build_isometry(graph, group)
            assert kl_detects(iso, ()) == detects(graph, group, ()).detected


class TestKnillLaflamme:
    def test_wheel_examples(self, wheel_iso_z2):
        assert kl_detects(wheel_iso_z2, (1, 2))
        assert not kl_detects(wheel_iso_z2, (1, 2, 3))

    def test_tenfold_full_pair_plus_far_vertex(self, tenfold, z2):
        iso = build_isometry(tenfold, z2)
        assert kl_detects(iso, (1, 2, 5))

    def test_empty_config_equals_isometry_check(self, z2):
        # the empty configuration asks for orthonormal columns, read here
        # from the dense Gram matrix
        rng = random.Random(5)
        graphs = [WeightedGraph.from_edges(2, [], (0,))]
        graphs += [random_graph(rng, max_n=4) for _ in range(20)]
        verdicts = set()
        for graph in graphs:
            iso = build_isometry(graph, z2)
            gram = iso.matrix.conj().T @ iso.matrix
            orthonormal = np.allclose(gram, np.eye(iso.cols), atol=1e-12)
            assert kl_detects(iso, ()) == orthonormal, graph
            verdicts.add(orthonormal)
        assert verdicts == {False, True}

    def test_rejects_non_output_config(self, wheel_iso_z2):
        with pytest.raises(ValueError):
            kl_detects(wheel_iso_z2, (0,))

    def test_size_cap_enforced(self, tenfold, z5, monkeypatch):
        # a Knill-Laflamme verdict on an over-cap instance is refused while
        # its isometry is built, before any matrix exists
        refuse_before_allocating(monkeypatch)
        with pytest.raises(ValueError, match="exceeds the cap"):
            kl_detects(build_isometry(tenfold, z5), (1,))

    def test_config_checked_against_the_isometry_graph(self, wheel, z2):
        # vertex 0 is an output once the input moves to vertex 3
        iso = build_isometry(wheel.with_inputs((3,)), z2)
        assert iso.graph.inputs == (3,) and iso.group == z2
        assert kl_detects(iso, (0,)) == detects(iso.graph, z2, (0,)).detected
        with pytest.raises(ValueError, match=r"offending vertices: \[3\]"):
            kl_detects(iso, (3,))

    def test_agrees_with_kernel_criterion_on_builtins(
        self, wheel, tenfold, z2, z3, z5
    ):
        cases = [
            (wheel, z5, 2),
            (wheel, FiniteAbelianGroup([7]), 2),
            (tenfold, z2, 3),
            (tenfold, z3, 3),
            (BUILTIN_GRAPHS["matrix19"](), z5, 3),
        ]
        for graph, group, max_size in cases:
            iso = build_isometry(graph, group)
            for size in range(max_size + 1):
                for config in itertools.combinations(graph.outputs, size):
                    kernel = detects(graph, group, config).detected
                    oracle = kl_detects(iso, config)
                    assert kernel == oracle, (graph.name, group.factors, config)

    def test_agrees_with_sweep_on_tenfold_z3_to_size_5(self, tenfold, z3):
        # 638 configurations of the largest built-in instance under the cap
        report = detects_errors(tenfold, z3, 5)
        undetected = set(report.undetected)
        assert len(undetected) == 292
        iso = build_isometry(tenfold, z3)
        for size in range(6):
            for config in itertools.combinations(tenfold.outputs, size):
                assert kl_detects(iso, config) == (config not in undetected), config

    @pytest.mark.parametrize("order", [2, 3])
    def test_agrees_across_gram_block_sizes(self, wheel, order, monkeypatch):
        group = FiniteAbelianGroup([order])
        iso = build_isometry(wheel, group)
        item = iso.roots.itemsize  # 8 for the real roots of order 2, 16 for 3
        # Without the floor, tiles and row chunks hold the bytes of the
        # phases, so many configurations are split, the larger ones into
        # tiles one a high and narrower than a Gram row; with it, only large
        # Gram matrices are split.
        for floor in (0, oracle.FLOOR_BYTES):
            monkeypatch.setattr(oracle, "FLOOR_BYTES", floor)
            budget = max(iso.phase.nbytes, floor)
            split = narrow = 0
            for size in range(len(wheel.outputs) + 1):
                n_e = order**size
                for config in itertools.combinations(wheel.outputs, size):
                    tiles = list(_compressions(iso, config))
                    assert all(m.dtype == iso.roots.dtype for m in tiles)
                    gram = item * (n_e * iso.cols) ** 2
                    # the whole Gram matrix is one tile iff it fits the budget
                    assert (len(tiles) == 1) == (gram <= budget), config
                    assert all(m.nbytes <= max(budget, item * iso.cols**2) for m in tiles)
                    split += len(tiles) > 1
                    if item * iso.cols**2 * n_e > budget:  # a Gram row does not fit
                        assert all(m.shape[0] == 1 and m.nbytes <= budget for m in tiles)
                        narrow += 1
                    stack = gram_from_tiles(tiles, n_e)
                    assert np.abs(stack - direct_gram(wheel, iso, config)).max() < 1e-12
                    kernel = detects(wheel, group, config).detected
                    assert kl_detects(iso, config) == kernel
            if floor == 0:
                assert split and narrow

    def test_agrees_with_sweep_on_tenfold_z2z2_to_size_2(self, tenfold):
        # exponent 2, real roots, at the 2**22-entry cap: 56 configurations
        group = FiniteAbelianGroup([2, 2])
        report = detects_errors(tenfold, group, 2)
        undetected = set(report.undetected)
        iso = build_isometry(tenfold, group)
        assert iso.rows * iso.cols == SIZE_CAP
        checked = 0
        for size in range(3):
            for config in itertools.combinations(tenfold.outputs, size):
                assert kl_detects(iso, config) == (config not in undetected), config
                checked += 1
        assert checked == 56


class TestExactness:
    """Weights act modulo the group, however large, and the memory the
    oracle takes stays a small multiple of the code matrix."""

    @pytest.mark.parametrize("weight", [2**60 + 1, 2**64 + 1])
    @pytest.mark.parametrize("factors", [[7], [2, 3]])
    def test_weights_past_int64(self, wheel, weight, factors):
        group = FiniteAbelianGroup(factors)
        heavy = WeightedGraph.from_edges(
            wheel.n, [(u, v, weight * w) for u, v, w in wheel.edges()], wheel.inputs
        )
        light = reduced(heavy, group.exponent)
        iso = build_isometry(heavy, group)
        light_iso = build_isometry(light, group)
        assert np.array_equal(iso.matrix, light_iso.matrix)
        for size in range(4):
            for config in itertools.combinations(wheel.outputs, size):
                verdict = kl_detects(iso, config)
                assert verdict == kl_detects(light_iso, config)
                assert verdict == detects(heavy, group, config).detected

    @pytest.mark.parametrize(
        "name, factors, sizes",
        [("tenfold", [3], (1, 3, 9, 10)), ("wheel", [6], (2,)), ("matrix19", [5], (3,))],
    )
    def test_peak_memory_within_two_and_a_half_code_matrices(self, name, factors, sizes):
        # V = 16 |G|^n bytes is what the complex code matrix would take;
        # the build holds phases only, and every check at most 2.5 V, also
        # for configurations that touch nine or all ten outputs of tenfold.
        graph, group = BUILTIN_GRAPHS[name](), FiniteAbelianGroup(factors)
        code_matrix = 16 * group.order**graph.n
        tracemalloc.start()
        try:
            iso, peak = traced_peak(build_isometry, graph, group)
            assert peak <= 0.25 * code_matrix
            for size in sizes:
                configs = list(itertools.combinations(graph.outputs, size))
                for config in configs[:: max(1, len(configs) // 8)]:
                    _, peak = traced_peak(kl_detects, iso, config)
                    assert peak <= 2.5 * code_matrix, config
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "name, factors, sizes, per_size",
        [
            ("tenfold", [3], (1, 3, 9, 10), 8),
            ("wheel", [6], (2,), 8),
            ("matrix19", [5], (3,), 8),
            ("tenfold", [4], (3,), 2),  # 4**11 = 2**22 code matrix entries
        ],
    )
    def test_peak_memory_within_the_phase_budget(self, name, factors, sizes, per_size):
        # With Q the bytes of the phases, B = max(Q, FLOOR_BYTES) and
        # P = 16 |G|^(2|X|), a check holds at most 8 B + 4 P + 1 MiB: 33 MiB
        # on tenfold over Z4, whose complex matrix would take 64 MiB.
        graph, group = BUILTIN_GRAPHS[name](), FiniteAbelianGroup(factors)
        iso = build_isometry(graph, group)
        budget = max(iso.phase.nbytes, oracle.FLOOR_BYTES)
        bound = 8 * budget + 4 * 16 * iso.cols**2 + 2**20
        tracemalloc.start()
        try:
            for size in sizes:
                configs = list(itertools.combinations(graph.outputs, size))
                for config in configs[:: max(1, len(configs) // 8)][:per_size]:
                    _, peak = traced_peak(kl_detects, iso, config)
                    assert peak <= bound, config
        finally:
            tracemalloc.stop()

    def test_peak_memory_in_bytes_with_more_inputs_than_outputs(self, z2):
        # A 12-vertex path with inputs 0-9: V = 16 |G|^n is 64 KiB, and one
        # compressed operator, P = 16 |G|^(2|X|), is 16 MiB.
        path = WeightedGraph.from_edges(12, [(v, v + 1, 1) for v in range(11)], range(10))
        code_matrix, operator = 16 * 2**12, 16 * 2**20
        tracemalloc.start()
        try:
            iso = build_isometry(path, z2)
            verdict, peak = traced_peak(kl_detects, iso, (10,))
        finally:
            tracemalloc.stop()
        assert not verdict
        assert operator <= peak <= 2.5 * code_matrix + 4 * operator + 2**20

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def test_kl_matches_kernel_property(self, data):
        graph, group = draw_instance(data)
        config = data.draw(st.sets(st.sampled_from(graph.outputs)))
        verdict = kl_detects(build_isometry(graph, group), config)
        assert verdict == detects(graph, group, config).detected

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.data())
    def test_matrix_matches_exact_phases_property(self, data):
        graph, group = draw_instance(data, max_entries=2**12)
        iso = build_isometry(graph, group)
        assert np.abs(iso.matrix - reference_matrix(graph, group)).max() < 1e-12


class TestOmegaTable:
    """The Knill-Laflamme scalars lambda_ab of detected configurations."""

    def test_empty_config_scalar_one(self, wheel, wheel_iso_z2):
        table = scalar_table(wheel, wheel_iso_z2, ())
        assert set(table) == {((), ())}
        assert table[((), ())] == pytest.approx(1)

    def test_diagonal_scalars_equal(self, wheel, wheel_iso_z2):
        table = scalar_table(wheel, wheel_iso_z2, (1, 2))
        diag = [table[(a, b)] for (a, b) in table if a == b]
        assert len(diag) == 4
        assert max(abs(x - diag[0]) for x in diag) < 1e-12

    def test_support_condition(self, wheel, z2, wheel_iso_z2):
        # scalar vanishes exactly where the difference is not annihilated by
        # the untouched-output rows; on the support the modulus is constant
        config = (1, 2)
        table = scalar_table(wheel, wheel_iso_z2, config)
        rows = tuple(v for v in wheel.outputs if v not in config)
        linking = submatrix(wheel, rows, config)
        on_support_modulus = 1 / z2.order ** len(config)
        for (a, b), lam in table.items():
            diff = [x - y for (x,), (y,) in zip(b, a)]
            if not any(mat_vec_mod(linking, diff, 2)):
                assert abs(lam) == pytest.approx(on_support_modulus, abs=1e-12)
            else:
                assert abs(lam) < 1e-12

    def test_qutrit_support_condition(self, wheel, z3):
        iso = build_isometry(wheel, z3)
        config = (2, 5)
        table = scalar_table(wheel, iso, config)
        rows = tuple(v for v in wheel.outputs if v not in config)
        linking = submatrix(wheel, rows, config)
        for (a, b), lam in table.items():
            diff = [x - y for (x,), (y,) in zip(b, a)]
            on_support = not any(mat_vec_mod(linking, diff, 3))
            assert (abs(lam) > 1e-12) == on_support

    @pytest.mark.parametrize(
        "graph, config",
        [
            (wheel_code(), (2, 5)),
            # twin outputs 1 and 2 joined by an edge: some scalars with a != b
            # are not real, so a slip between a and b changes the stack
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
        # the Gram tiles kl_detects reads hold M_ab at [a, b]
        iso = build_isometry(graph, z3)
        stack = gram_from_tiles(list(_compressions(iso, config)), 9)
        w = leg_slices(graph, iso, config)
        assert stack.shape == (len(w), len(w), iso.cols, iso.cols) == (9, 9, 3, 3)
        for (i, a), (j, b) in itertools.product(enumerate(w), repeat=2):
            compressed = w[a].conj().T @ w[b]
            assert np.abs(compressed - compressed[0, 0] * np.eye(iso.cols)).max() < 1e-12
            assert np.abs(stack[i, j] - compressed).max() < 1e-12, (a, b)


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
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 64
        # lexicographic: rows outer, cols inner
        keys = [tuple(int(x) for x in line.split(",")[:2]) for line in lines]
        assert keys == [(r, c) for r in range(32) for c in range(2)]
        matrix = wheel_iso_z2.matrix
        for line in lines:
            r, c, re_part, im_part = line.split(",")
            value = complex(float(re_part), float(im_part))
            assert value == matrix[int(r), int(c)]

    @pytest.mark.parametrize("name, factors", [
        ("wheel", [2]), ("wheel", [6]), ("wheel", [2, 3]),
        ("matrix19", [3]), ("tenfold", [2]),
    ])
    def test_csv_bytes_match_csv_writer(self, name, factors, tmp_path):
        iso = build_isometry(BUILTIN_GRAPHS[name](), FiniteAbelianGroup(factors))
        export_isometry_csv(iso, tmp_path / "fast.csv")
        reference_csv(iso.matrix, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
