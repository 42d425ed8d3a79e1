from __future__ import annotations

import itertools
import math
import os
import random

import numpy as np
import pytest
from helpers import (
    brute_force_kernel,
    detection_system,
    kernel_from_snf,
    random_graph,
    smith_normal_form,
    strong_detects,
    submatrix,
    verify_certificate,
    verify_witness,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqec import detector
from graphqec.abelian import FiniteAbelianGroup
from graphqec.detector import (
    CHUNK,
    MIN_CONFIGS_PER_WORKER,
    corrects_errors,
    detects,
    detects_errors,
    usable_cpus,
    worker_count,
)
from graphqec.graphcode import SIZE_CAP, WeightedGraph, matrix19_code


def snf_detected(graph, group, config) -> bool:
    """Reference verdict: one Smith normal form over Z per configuration,
    then both detection conditions on every kernel generator."""
    _, cols, system = detection_system(graph, config)
    snf = smith_normal_form(system, ncols=len(cols))
    input_pos = [i for i, c in enumerate(cols) if c in graph.inputs]
    error_pos = [i for i, c in enumerate(cols) if c not in graph.inputs]
    cross = submatrix(graph, graph.inputs, config)
    for d in group.factors:
        for vec in kernel_from_snf(snf, d):
            if any(vec[p] for p in input_pos):
                return False
            if any(sum(c * vec[p] for c, p in zip(row, error_pos)) % d for row in cross):
                return False
    return True


def brute_force_detected(graph, group, config) -> bool:
    """Reference verdict by enumeration: no vector of Z_d^n in the kernel of
    the detection system, for any factor d, is nonzero on the inputs or
    outside the kernel of gamma[X, E]."""
    _, cols, system = detection_system(graph, config)
    cross = submatrix(graph, graph.inputs, config)
    input_pos = [i for i, c in enumerate(cols) if c in graph.inputs]
    error_pos = [i for i, c in enumerate(cols) if c not in graph.inputs]
    for d in group.factors:
        for vec in brute_force_kernel(system, d, len(cols)):
            if any(vec[p] for p in input_pos):
                return False
            if any(sum(c * vec[p] for c, p in zip(row, error_pos)) % d for row in cross):
                return False
    return True


def random_partitioned_graph(rng, weights) -> WeightedGraph:
    """Random graph on 2..6 vertices with 0..3 inputs and at least one output."""
    n = rng.randint(2, 6)
    edges = [
        (u, v, rng.choice(weights))
        for u in range(n)
        for v in range(u + 1, n)
    ]
    inputs = rng.sample(range(n), rng.randint(0, min(3, n - 1)))
    return WeightedGraph.from_edges(n, [e for e in edges if e[2]], inputs)


class TestDetectionSystem:
    """The detection systems of ``helpers.detection_system``, which the
    reference verdicts here read, must match the known tables row for row."""

    def test_wheel_hub_plus_1_2(self, wheel):
        rows, cols, system = detection_system(wheel, (1, 2))
        assert rows == (3, 4, 5)
        assert cols == (0, 1, 2)
        assert system == [[1, 0, 1], [1, 0, 0], [1, 1, 0]]

    def test_wheel_hub_plus_1_3(self, wheel):
        rows, cols, system = detection_system(wheel, (1, 3))
        assert rows == (2, 4, 5)
        assert cols == (0, 1, 3)
        assert system == [[1, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_tenfold_three_neighbored_pairs(self, tenfold):
        rows, cols, system = detection_system(tenfold, (1, 3, 5))
        assert rows == (2, 4, 6, 7, 8, 9, 10)
        assert cols == (0, 1, 3, 5)
        assert system == [
            [1, 1, 1, 0],   # vertex 2
            [1, 1, 1, 1],   # vertex 4
            [1, 0, 1, 1],   # vertex 6
            [1, 0, 0, 1],   # vertex 7
            [1, 0, 0, 1],   # vertex 8
            [1, 1, 0, 0],   # vertex 9
            [1, 1, 0, 0],   # vertex 10
        ]

    def test_tenfold_full_pair_plus_far_vertex(self, tenfold):
        rows, cols, system = detection_system(tenfold, (1, 2, 5))
        assert rows == (3, 4, 6, 7, 8, 9, 10)
        assert cols == (0, 1, 2, 5)
        assert system == [
            [1, 1, 1, 1],   # vertex 3
            [1, 1, 1, 1],   # vertex 4
            [1, 0, 0, 1],   # vertex 6
            [1, 0, 0, 1],   # vertex 7
            [1, 0, 0, 1],   # vertex 8
            [1, 1, 1, 0],   # vertex 9
            [1, 1, 1, 0],   # vertex 10
        ]

    def test_tenfold_two_neighbored_one_far(self, tenfold):
        # third pair not adjacent to either of the first two
        rows, cols, system = detection_system(tenfold, (1, 3, 7))
        assert rows == (2, 4, 5, 6, 8, 9, 10)
        assert cols == (0, 1, 3, 7)
        assert system == [
            [1, 1, 1, 0],
            [1, 1, 1, 0],
            [1, 0, 1, 1],
            [1, 0, 1, 1],
            [1, 0, 0, 1],
            [1, 1, 0, 1],
            [1, 1, 0, 1],
        ]

    def test_tenfold_full_pair_plus_neighbor(self, tenfold):
        rows, cols, system = detection_system(tenfold, (1, 2, 3))
        assert rows == (4, 5, 6, 7, 8, 9, 10)
        assert cols == (0, 1, 2, 3)
        assert system == [
            [1, 1, 1, 1],
            [1, 0, 0, 1],
            [1, 0, 0, 1],
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [1, 1, 1, 0],
            [1, 1, 1, 0],
        ]

    def test_rejects_non_output_vertices(self, wheel, z2):
        with pytest.raises(ValueError, match=r"offending vertices: \[0\]"):
            detects(wheel, z2, (0,))
        with pytest.raises(ValueError, match=r"offending vertices: \[9\]"):
            detects(wheel, z2, (9,))


class TestDetects:
    def test_wheel_two_errors(self, wheel, z2):
        verdict = detects(wheel, z2, (1, 2))
        assert verdict.detected
        verify_certificate(wheel, verdict)

    def test_tenfold_qutrit_three_errors(self, tenfold, z3):
        verdict = detects(tenfold, z3, (1, 3, 5))
        assert verdict.detected
        # certificate shows the input variable is forced to zero
        hub_col = verdict.to_dict()["columns"].index(0)
        for _, generators in verdict.certificate:
            assert all(gen[hub_col] == 0 for gen in generators)
        verify_certificate(tenfold, verdict)

    def test_tenfold_nontrivial_kernel_still_detected(self, tenfold, z2):
        # a fully corrupted pair leaves kernel freedom yet both conditions hold
        verdict = detects(tenfold, z2, (1, 2, 5))
        assert verdict.detected
        assert any(generators for _, generators in verdict.certificate)
        verify_certificate(tenfold, verdict)

    def test_wheel_three_errors_fails_with_witness(self, wheel, z2):
        verdict = detects(wheel, z2, (1, 2, 3))
        assert not verdict.detected
        verify_witness(wheel, verdict)

    @pytest.mark.parametrize("factors", [[2], [3], [2, 2]])
    def test_full_output_set_never_detected(self, wheel, tenfold, factors):
        group = FiniteAbelianGroup(factors)
        for graph in (wheel, tenfold):
            verdict = detects(graph, group, graph.outputs)
            assert not verdict.detected
            verify_witness(graph, verdict)

    def test_empty_configuration_is_isometry_check(self, wheel, z2):
        verdict = detects(wheel, z2, ())
        assert verdict.detected
        assert verdict.to_dict()["columns"] == [0]

    def test_config_not_subset_of_outputs(self, wheel, z2):
        with pytest.raises(ValueError):
            detects(wheel, z2, (0,))

    def test_non_integral_vertex_is_refused(self, wheel, z2):
        with pytest.raises(ValueError, match="configuration vertices must be integers, got 1.9"):
            detects(wheel, z2, [1.9])
        with pytest.raises(ValueError, match=r"vertices must be integers, got array\(\[1, 2\]\)"):
            detects(wheel, z2, [np.array([1, 2])])
        assert detects(wheel, z2, [np.int64(1)]).configuration == (1,)

    def test_duplicates_collapse(self, wheel, z2):
        assert detects(wheel, z2, (1, 1, 2)).configuration == (1, 2)

    def test_verdict_dict_shape(self, wheel, z2):
        good = detects(wheel, z2, (1, 2)).to_dict()
        assert good["graph"] == "wheel"
        assert good["group"] == [2]
        assert good["detected"] is True
        assert "certificate" in good and "witness" not in good
        bad = detects(wheel, z2, (1, 2, 3)).to_dict()
        assert bad["detected"] is False
        assert {"factor", "failed", "witness"} <= bad.keys()


class TestStrongDetects:
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    @pytest.mark.parametrize("config", [(1, 2), (1, 3)])
    def test_wheel_representative_configs(self, wheel, d, config):
        assert strong_detects(wheel, FiniteAbelianGroup([d]), config)

    def test_full_output_set(self, wheel, z2):
        assert not strong_detects(wheel, z2, wheel.outputs)

    def test_matrix19_single_input_three_errors(self):
        graph = matrix19_code()
        g7 = FiniteAbelianGroup([7])
        for config in itertools.combinations(graph.outputs, 3):
            assert strong_detects(graph, g7, config)

    def test_implies_detects(self, wheel, tenfold):
        rng = random.Random(99)
        graphs = [wheel, tenfold] + [random_graph(rng) for _ in range(25)]
        for graph in graphs:
            group = FiniteAbelianGroup([rng.choice([2, 3, 4])])
            size = rng.randint(0, len(graph.outputs))
            config = tuple(sorted(rng.sample(graph.outputs, size)))
            if strong_detects(graph, group, config):
                assert detects(graph, group, config).detected


class TestSweeps:
    def test_wheel_corrects_one(self, wheel, z2):
        report = corrects_errors(wheel, z2, 1)
        assert report.all_detected
        assert report.checked == (1, 5, 10)
        assert sum(report.checked) == 16

    def test_wheel_cannot_detect_three(self, wheel, z2):
        report = detects_errors(wheel, z2, 3)
        assert not report.all_detected
        assert report.sizes[3]

    def test_tenfold_detects_three(self, tenfold, z2, z5):
        for group in (z2, z5):
            report = detects_errors(tenfold, group, 3)
            assert report.all_detected
            assert sum(report.checked) == 176

    def test_tenfold_does_not_correct_two(self, tenfold, z2):
        report = corrects_errors(tenfold, z2, 2)
        assert not report.all_detected
        assert not any(report.sizes[:4])
        assert report.sizes[4]  # only size-4 configurations fail

    def test_zero_errors_checks_isometry_only(self, wheel, z2):
        report = corrects_errors(wheel, z2, 0)
        assert report.sizes == ((),)
        assert report.all_detected

    def test_max_size_clipped_at_output_count(self, wheel, z2):
        report = detects_errors(wheel, z2, 9)
        assert len(report.sizes) == 6
        assert not report.all_detected

    def test_negative_size_rejected(self, wheel, z2):
        with pytest.raises(ValueError):
            detects_errors(wheel, z2, -1)
        with pytest.raises(ValueError):
            corrects_errors(wheel, z2, -1)

    def test_non_integral_size_refused(self, wheel, z2):
        # refused up front, not failed on deep in the sweep
        for size in (2.5, 2.0):
            with pytest.raises(ValueError, match=f"sweep size must be integers, got {size}"):
                detects_errors(wheel, z2, size)

    def test_non_integral_error_count_refused(self, wheel, z2):
        with pytest.raises(ValueError, match="error count must be integers, got 1.5"):
            corrects_errors(wheel, z2, 1.5)

    def test_lexicographic_undetected_order(self, wheel, z2):
        report = detects_errors(wheel, z2, 3)
        bad = list(report.sizes[3])
        assert bad == sorted(bad)

    def test_report_dict_shape(self, wheel, z2):
        report = corrects_errors(wheel, z2, 1)
        payload = report.to_dict()
        assert payload["mode"] == "correct"
        assert payload["errors"] == 1
        assert payload["all_detected"] is True
        assert "elapsed_s" not in payload
        assert [s["checked"] for s in payload["sizes"]] == [1, 5, 10]

    def test_workers_match_serial(self, wheel, z3):
        serial = corrects_errors(wheel, z3, 1)
        parallel = corrects_errors(wheel, z3, 1, workers=2)
        # wall time and workers are diagnostics: equal sweeps compare equal
        assert serial == parallel and hash(serial) == hash(parallel)
        assert repr(serial) == repr(parallel)
        assert "elapsed_s" not in repr(serial) and "workers" not in repr(serial)
        assert serial.to_dict() == parallel.to_dict()


    def test_sweep_cap_refused_before_work(self):
        # 23 outputs: sizes <= 11 are exactly the cap, sizes <= 12 exceed it
        graph = WeightedGraph.from_edges(24, [], (0,))
        assert sum(math.comb(23, s) for s in range(12)) == SIZE_CAP
        with pytest.raises(ValueError, match="cap"):
            detects_errors(graph, FiniteAbelianGroup([2]), 12)

    def test_sizes_spanning_several_chunks(self, monkeypatch):
        # A 13-vertex graph over Z6; a 14-vertex sparse graph over Z2xZ4 shaped
        # like the benchmark's, where over a fifth of the configurations have an
        # undetected subset one smaller; and 71 outputs to size 2, where the
        # undetected outputs 64 and 70 sit past the 63 bits of a bitmask.
        rng = random.Random(77)
        edges = [
            (u, v, rng.choice((1, 2, 3)))
            for u in range(13)
            for v in range(u + 1, 13)
            if rng.random() < 0.6
        ]
        dense = WeightedGraph.from_edges(13, edges, (0,))
        rng = random.Random(3)
        edges = [(u, v, rng.choice((0, 0, 1, 2))) for u in range(14) for v in range(u + 1, 14)]
        sparse = WeightedGraph.from_edges(14, [e for e in edges if e[2]], (0,))
        rng = random.Random(70)
        edges = [
            (u, v, rng.choice((1, 2, 3)))
            for u in range(1, 72)
            for v in range(u + 1, 72)
            if rng.random() < 0.08 and not {u, v} & {64, 70}
        ]
        edges += [(0, v, 1) for v in range(1, 72) if v in (64, 70) or rng.random() < 0.5]
        wide = WeightedGraph.from_edges(72, edges, (0,))
        reports = {}
        for name, graph, group, max_size in (
            ("dense", dense, FiniteAbelianGroup([6]), 5),
            ("sparse", sparse, FiniteAbelianGroup([2, 4]), 5),
            ("wide", wide, FiniteAbelianGroup([3]), 2),
        ):
            report = detects_errors(graph, group, max_size)
            expected = [
                cfg
                for size in range(max_size + 1)
                for cfg in itertools.combinations(graph.outputs, size)
                if not snf_detected(graph, group, cfg)
            ]
            assert expected and list(report.undetected) == expected
            reports[name] = report
        assert reports["dense"].checked[5] == math.comb(12, 5) > 2 * CHUNK
        total = sum(reports["sparse"].checked)
        assert reports["sparse"].pruned > 0.2 * total
        # undetected configurations of the last size fall in several chunks
        last = dict.fromkeys(reports["sparse"].sizes[5])
        indices = [i for i, cfg in enumerate(itertools.combinations(sparse.outputs, 5))
                   if cfg in last]
        assert len({i // CHUNK for i in indices}) > 2
        assert reports["wide"].pruned > 0
        assert (64, 70) in reports["wide"].sizes[2]

        # A real pool of spawned workers, forced on the small sweep, gives
        # the serial report.
        # Workers get gamma's residues and the vertex arrays, never the
        # graph: its pickles are counted here, where the pool sends them.
        monkeypatch.setattr(detector, "MIN_CONFIGS_PER_WORKER", 1)
        monkeypatch.setattr(detector, "usable_cpus", lambda: 2)
        pickles = []

        def counted_reduce(graph, protocol):
            pickles.append(protocol)
            return WeightedGraph, (graph.gamma, graph.inputs, graph.name)

        monkeypatch.setattr(WeightedGraph, "__reduce_ex__", counted_reduce, raising=False)
        parallel = detects_errors(sparse, FiniteAbelianGroup([2, 4]), 5, workers=2)
        assert pickles == []
        assert parallel.workers == 2 and reports["sparse"].workers == 1
        assert parallel.pruned == reports["sparse"].pruned
        assert parallel == reports["sparse"] and hash(parallel) == hash(reports["sparse"])
        assert parallel.to_dict() == reports["sparse"].to_dict()


class TestWorkerCount:
    def test_clamped_to_cpus_and_configs(self):
        many = 100 * MIN_CONFIGS_PER_WORKER
        assert worker_count(100_000, 2, many) == 2
        assert worker_count(100_000, 64, 3 * MIN_CONFIGS_PER_WORKER) == 3
        assert worker_count(100_000, 64, 4 * MIN_CONFIGS_PER_WORKER - 1) == 3
        assert worker_count(4, 8, many) == 4

    def test_one_means_no_pool(self):
        many = 100 * MIN_CONFIGS_PER_WORKER
        assert worker_count(1, 8, many) == 1
        assert worker_count(8, 8, 2 * MIN_CONFIGS_PER_WORKER - 1) == 1
        assert worker_count(8, 8, 2517) == 1
        assert worker_count(0, 8, many) == 1

    @pytest.mark.parametrize("workers", [2.5, "2"])
    @pytest.mark.parametrize("pool", [False, True], ids=["small", "pool"])
    def test_non_integral_workers_refused(self, monkeypatch, tenfold, z2, workers, pool):
        if pool:
            # 56 configurations would then start a pool of 4
            monkeypatch.setattr(detector, "usable_cpus", lambda: 4)
            monkeypatch.setattr(detector, "MIN_CONFIGS_PER_WORKER", 10)
        with pytest.raises(ValueError, match="worker count must be integers"):
            detects_errors(tenfold, z2, 2, workers=workers)

    def test_cpus_are_those_the_process_may_use(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
            assert usable_cpus() == 1
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1


class TestBatchedEngine:
    """The batched modular engine against one SNF per configuration."""

    def test_sweeps_match_per_configuration_snf(self):
        rng = random.Random(8000)
        weights = (-3, -1, 0, 1, 2, 5, 2**63 + 1, -(2**64) + 3)
        groups = (
            [2], [3], [4], [6], [8], [9], [12], [2, 4], [3, 9], [2, 2, 6], [4, 6], [7],
            [2**61 - 1], [2**89 - 1],
        )
        seen = set()
        for _ in range(120):
            graph = random_partitioned_graph(rng, weights)
            factors = rng.choice(groups)
            group = FiniteAbelianGroup(factors)
            flat = [x for row in graph.gamma for x in row]
            seen |= {
                ("inputs", min(len(graph.inputs), 2)),
                ("negative", any(x < 0 for x in flat)),
                ("huge", any(abs(x) >= 2**63 for x in flat)),
                ("factors", tuple(factors)),
            }
            report = detects_errors(graph, group, len(graph.outputs))
            expected = [
                cfg
                for size in range(len(graph.outputs) + 1)
                for cfg in itertools.combinations(graph.outputs, size)
                if not snf_detected(graph, group, cfg)
            ]
            assert list(report.undetected) == expected
            # the premise of pruning, on the reference verdicts: one more
            # error never makes an undetected configuration detected
            for cfg in expected:
                for v in set(graph.outputs) - set(cfg):
                    assert tuple(sorted((*cfg, v))) in expected
            size = rng.randint(0, len(graph.outputs))
            for cfg in itertools.combinations(graph.outputs, size):
                verdict = detects(graph, group, cfg)
                assert verdict.detected == (cfg not in expected)
                if verdict.detected:
                    verify_certificate(graph, verdict)
                else:
                    verify_witness(graph, verdict)
        assert {
            ("inputs", 0), ("inputs", 1), ("inputs", 2), ("negative", True),
            ("huge", True), ("factors", (7,)), ("factors", (2**61 - 1,)),
            ("factors", (2,)), ("factors", (4,)), ("factors", (6,)), ("factors", (8,)),
            ("factors", (9,)), ("factors", (2, 4)), ("factors", (4, 6)),
            ("factors", (2**89 - 1,)),
        } <= seen

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def test_sweeps_match_brute_force_property(self, data):
        n = data.draw(st.integers(2, 6))
        weights = st.integers(-3, 3)
        edges = [(u, v, data.draw(weights)) for u in range(n) for v in range(u + 1, n)]
        inputs = data.draw(st.sets(st.integers(0, n - 1), max_size=min(2, n - 1)))
        graph = WeightedGraph.from_edges(n, [e for e in edges if e[2]], tuple(inputs))
        group = FiniteAbelianGroup(data.draw(st.sampled_from([[2], [3], [4], [6], [2, 2], [2, 3]])))
        report = detects_errors(graph, group, len(graph.outputs))
        expected = [
            cfg
            for size in range(len(graph.outputs) + 1)
            for cfg in itertools.combinations(graph.outputs, size)
            if not brute_force_detected(graph, group, cfg)
        ]
        assert list(report.undetected) == expected

    def test_all_outputs_zero_row_system(self, wheel, z2):
        rows, _, _ = detection_system(wheel, wheel.outputs)
        assert rows == ()
        report = detects_errors(wheel, z2, len(wheel.outputs))
        assert report.sizes[-1] == (wheel.outputs,)

    def test_more_columns_than_rows(self, wheel, z2):
        rows, cols, _ = detection_system(wheel, (1, 2, 3, 4))
        assert len(cols) > len(rows)
        verdict = detects(wheel, z2, (1, 2, 3, 4))
        assert not verdict.detected
        verify_witness(wheel, verdict)

    def test_graph_without_inputs(self, z3):
        graph = WeightedGraph.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)], ())
        assert detects_errors(graph, z3, 4).all_detected
        verdict = detects(graph, z3, (0, 2))
        assert verdict.detected and verdict.to_dict()["columns"] == [0, 2]
        verify_certificate(graph, verdict)

    def test_strong_detects_trivial_and_nontrivial_kernel(self, tenfold, z2):
        # (1, 3, 5) leaves no kernel at all; (1, 2, 5) is detected through a
        # nonzero kernel that meets both conditions, so it is not strong
        assert strong_detects(tenfold, z2, (1, 3, 5))
        assert detects(tenfold, z2, (1, 2, 5)).detected
        assert not strong_detects(tenfold, z2, (1, 2, 5))


class TestIsometryCondition:
    def test_wheel_any_group(self, wheel):
        for factors in ([2], [3], [7], [2, 2]):
            assert detects(wheel, FiniteAbelianGroup(factors), ()).detected

    def test_isolated_input_fails(self, z2):
        graph = WeightedGraph.from_edges(3, [(1, 2, 1)], (0,))
        assert not detects(graph, z2, ()).detected

    def test_tenfold_qutrit(self, tenfold, z3):
        assert detects(tenfold, z3, ()).detected


class TestInputExchange:
    @pytest.mark.parametrize("vertex", range(6))
    def test_any_wheel_vertex_works_qubit(self, wheel, z2, vertex):
        report = corrects_errors(wheel.with_inputs((vertex,)), z2, 1)
        assert report.all_detected

    @pytest.mark.parametrize("vertex", [3])
    def test_peripheral_vertex_works_mod_seven(self, wheel, vertex):
        report = corrects_errors(wheel.with_inputs((vertex,)), FiniteAbelianGroup([7]), 1)
        assert report.all_detected

    def test_two_inputs_report_produced(self, wheel, z2):
        # informative run: two inputs leave four outputs to sweep
        report = corrects_errors(wheel.with_inputs((0, 1)), z2, 1)
        assert report.checked == (1, 4, 6)
        assert report.graph.inputs == (0, 1)

    def test_invalid_subset_rejected(self, wheel, z2):
        with pytest.raises(ValueError):
            corrects_errors(wheel.with_inputs((7,)), z2, 1)

    def test_non_integral_error_count_refused(self, wheel, z2):
        with pytest.raises(ValueError, match="error count must be integers, got 1.5"):
            corrects_errors(wheel.with_inputs((3,)), z2, 1.5)


class TestGroupFactorIndependence:
    def test_products_equal_conjunction(self, wheel):
        rng = random.Random(5)
        graphs = [wheel] + [random_graph(rng, max_n=4) for _ in range(8)]
        for graph in graphs:
            for d1, d2 in itertools.product([2, 3, 4], repeat=2):
                product_group = FiniteAbelianGroup([d1, d2])
                for size in range(len(graph.outputs) + 1):
                    for config in itertools.combinations(graph.outputs, size):
                        combined = detects(graph, product_group, config).detected
                        separate = (
                            detects(graph, FiniteAbelianGroup([d1]), config).detected
                            and detects(graph, FiniteAbelianGroup([d2]), config).detected
                        )
                        assert combined == separate


class TestRandomizedSoundness:
    def test_every_negative_verdict_carries_valid_witness(self):
        rng = random.Random(42)
        seen_negative = 0
        for _ in range(120):
            graph = random_graph(rng)
            group = FiniteAbelianGroup([rng.choice([2, 3, 4])])
            for size in range(len(graph.outputs) + 1):
                for config in itertools.combinations(graph.outputs, size):
                    verdict = detects(graph, group, config)
                    if verdict.detected:
                        verify_certificate(graph, verdict)
                    else:
                        seen_negative += 1
                        verify_witness(graph, verdict)
        assert seen_negative > 50

    def test_checked_counts_are_binomials(self):
        rng = random.Random(43)
        for _ in range(10):
            graph = random_graph(rng)
            group = FiniteAbelianGroup([2])
            t = rng.randint(0, len(graph.outputs))
            report = detects_errors(graph, group, t)
            assert report.checked == tuple(
                len(list(itertools.combinations(graph.outputs, size))) for size in range(t + 1)
            )
            assert [s["checked"] for s in report.to_dict()["sizes"]] == list(report.checked)


class TestOneModulusPerCall:
    def test_pruned_sweeps_eliminate_full_batches(self, monkeypatch):
        # the sparse Z2xZ4 graph of test_sizes_spanning_several_chunks, and the
        # same graph with inputs 5 and 9, whose outputs are not contiguous
        rng = random.Random(3)
        edges = [(u, v, rng.choice((0, 0, 1, 2))) for u in range(14) for v in range(u + 1, 14)]
        sparse = WeightedGraph.from_edges(14, [e for e in edges if e[2]], (0,))
        batches = []
        undetected = detector._undetected

        def spy(gamma, inputs, outputs, d, errs):
            batches.append(errs)
            return undetected(gamma, inputs, outputs, d, errs)

        monkeypatch.setattr(detector, "_undetected", spy)
        batches_of_five = []
        for graph in (sparse, sparse.with_inputs((5, 9))):
            batches.clear()
            report = detects_errors(graph, FiniteAbelianGroup([2, 4]), 5)
            assert report.pruned > 0
            previous = set()
            for size, found in enumerate(report.sizes):
                rows = [errs for errs in batches if errs.shape[1] == size]
                assert all(len(errs) == CHUNK for errs in rows[:-1])
                assert 0 < len(rows[-1]) <= CHUNK
                # the survivors of pruning, in lexicographic order
                expected = [
                    cfg
                    for cfg in itertools.combinations(graph.outputs, size)
                    if not previous.intersection(itertools.combinations(cfg, max(size - 1, 0)))
                ]
                assert [tuple(row) for errs in rows for row in errs.tolist()] == expected
                previous = set(found)
            assert len(expected) < math.comb(len(graph.outputs), 5)
            batches_of_five.append(len([errs for errs in batches if errs.shape[1] == 5]))
        # size 5 is pruned and still fills several batches on the first graph
        # (the second prunes every size down to one batch)
        assert batches_of_five[0] > 2

    def test_pool_keeps_eight_batches_per_worker_in_flight(self, monkeypatch):
        # the sparse Z2xZ4 sweep above, cut into batches of 8 so that each
        # size is many more batches than the pool may hold at once
        from concurrent.futures import ProcessPoolExecutor

        rng = random.Random(3)
        edges = [(u, v, rng.choice((0, 0, 1, 2))) for u in range(14) for v in range(u + 1, 14)]
        sparse = WeightedGraph.from_edges(14, [e for e in edges if e[2]], (0,))
        group = FiniteAbelianGroup([2, 4])
        monkeypatch.setattr(detector, "CHUNK", 8)
        serial = detects_errors(sparse, group, 5)
        monkeypatch.setattr(detector, "usable_cpus", lambda: 2)
        monkeypatch.setattr(detector, "MIN_CONFIGS_PER_WORKER", 1)
        submitted, peak = [], 0
        submit = ProcessPoolExecutor.submit

        def counted_submit(pool, *args, **kwargs):
            nonlocal peak
            submitted.append(submit(pool, *args, **kwargs))
            peak = max(peak, sum(not future.done() for future in submitted))
            return submitted[-1]

        monkeypatch.setattr(ProcessPoolExecutor, "submit", counted_submit)
        parallel = detects_errors(sparse, group, 5, workers=2)
        assert parallel.workers == 2
        assert len(submitted) > 8 * 2 + 1
        assert peak <= 8 * 2 + 1
        assert parallel == serial and parallel.to_dict() == serial.to_dict()

    def test_detects_eliminates_up_to_the_first_failing_factor(self, monkeypatch, wheel):
        moduli = []
        kernel = detector.kernel_mod_batch

        def spy(systems, d):
            moduli.append(d)
            return kernel(systems, d)

        monkeypatch.setattr(detector, "kernel_mod_batch", spy)
        verdict = detects(wheel, FiniteAbelianGroup([2, 3]), (1, 2, 3))
        assert not verdict.detected and verdict.factor == 2
        assert moduli == [2]
        verify_witness(wheel, verdict)
        moduli.clear()
        # a repeated factor is eliminated once per occurrence
        verdict = detects(wheel, FiniteAbelianGroup([2, 2, 3]), (1, 2))
        assert verdict.detected
        assert moduli == [2, 2, 3]
        verify_certificate(wheel, verdict)


class TestOneGather:
    def test_detects_and_sweep_batches_lay_systems_out_alike(self, monkeypatch):
        # the sparse graph of TestOneModulusPerCall with inputs 5 and 9, over
        # cyclic groups, so that detects' one factor is the sweep's modulus L:
        # Z3 detects every configuration up to size 3, Z4 prunes some
        rng = random.Random(3)
        edges = [(u, v, rng.choice((0, 0, 1, 2))) for u in range(14) for v in range(u + 1, 14)]
        graph = WeightedGraph.from_edges(14, [e for e in edges if e[2]], (0,)).with_inputs((5, 9))
        systems, batches = [], []
        kernel, undetected = detector.kernel_mod_batch, detector._undetected

        def spy_kernel(batch, d):
            systems.append((batch, d))
            return kernel(batch, d)

        def spy_undetected(gamma, inputs, outputs, d, errs):
            batches.append(errs)
            return undetected(gamma, inputs, outputs, d, errs)

        monkeypatch.setattr(detector, "kernel_mod_batch", spy_kernel)
        monkeypatch.setattr(detector, "_undetected", spy_undetected)
        for d, pruned in ((3, False), (4, True)):
            group = FiniteAbelianGroup([d])
            systems.clear()
            batches.clear()
            report = detects_errors(graph, group, 3)
            assert (report.pruned > 0) == pruned
            # one elimination per sweep batch, row b of it for configuration b
            assert len(systems) == len(batches)
            assert all(modulus == d for _, modulus in systems)
            swept = {
                tuple(cfg): system
                for errs, (batch, _) in zip(batches, systems)
                for cfg, system in zip(errs.tolist(), batch)
            }
            assert len(swept) == sum(report.checked) - report.pruned
            below = set(report.undetected)
            for size in range(4):
                for cfg in itertools.combinations(graph.outputs, size):
                    systems.clear()
                    detects(graph, group, cfg)
                    ((single, modulus),) = systems
                    assert modulus == d and len(single) == 1
                    if cfg in swept:
                        assert single.dtype == swept[cfg].dtype
                        assert np.array_equal(single[0], swept[cfg])
                    else:
                        # decided by pruning: an undetected subset one smaller
                        assert below.intersection(itertools.combinations(cfg, size - 1))


@pytest.fixture(scope="module")
def sparse_1500():
    """A seeded 1,500-vertex graph of density 0.002, weights 1-3, whose
    input 0 is joined to vertices 1..6 by weights 1..6."""
    rng = random.Random(1)
    n = 1500
    weights = {
        (u, v): rng.randint(1, 3)
        for u in range(n) for v in range(u + 1, n) if rng.random() < 0.002
    }
    weights.update({(0, v): v for v in range(1, 7)})
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in weights.items()], (0,))


class TestLargeGraphDetects:
    # verdicts of the engine that reduced all of gamma modulo each factor
    PINNED = [
        ([2**89 - 1], (2,), {"detected": True, "certificate": [
            {"factor": 2**89 - 1, "generators": []}]}),
        ([2, 3, 5], (2,), {"detected": True, "certificate": [
            {"factor": 2, "generators": [[0, 1]]}, {"factor": 3, "generators": []},
            {"factor": 5, "generators": []}]}),
        ([2, 3, 5], (1,), {"detected": False, "factor": 3,
                           "failed": "error_action_on_inputs", "witness": [0, 1]}),
        ([2, 2], (1,), {"detected": True, "certificate": [
            {"factor": 2, "generators": []}, {"factor": 2, "generators": []}]}),
        ([2, 2], (1, 3, 5), {"detected": False, "factor": 2,
                             "failed": "nonzero_on_inputs", "witness": [1, 0, 0, 0]}),
        ([6], (1,), {"detected": False, "factor": 6,
                     "failed": "error_action_on_inputs", "witness": [0, 4]}),
        ([6], (1, 3, 5), {"detected": False, "factor": 6,
                          "failed": "nonzero_on_inputs", "witness": [3, 0, 0, 0]}),
    ]

    @pytest.mark.parametrize("factors, config, expected", PINNED)
    def test_verdict_and_witness_unchanged(self, monkeypatch, sparse_1500, factors, config,
                                           expected):
        shapes = []
        residues = detector._residues

        def spy(graph, cols, d):
            out = residues(graph, cols, d)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(detector, "_residues", spy)
        verdict = detects(sparse_1500, FiniteAbelianGroup(factors), config)
        out = verdict.to_dict()
        assert out.pop("columns") == [0, *config]
        assert out.pop("config") == list(config)
        assert {k: out[k] for k in expected} == expected
        if verdict.detected:
            verify_certificate(sparse_1500, verdict)
        else:
            verify_witness(sparse_1500, verdict)
        # each factor eliminated reduces one block, the system's 1 + |E| columns
        eliminated = len(factors) if verdict.detected else factors.index(verdict.factor) + 1
        assert shapes == [(sparse_1500.n, 1 + len(config))] * eliminated
