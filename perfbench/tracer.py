"""Run one graphqec CLI command with per-layer spans recorded from outside.

Usage: python3 tracer.py COUNTERS_JSON CLI_ARG...

The package source is not touched: before ``cli.main`` runs, the names that
each consumer module imports or calls (``detector.smith_normal_form``,
``oracle.kl_detects``, ``singleton.det_exact``, ...) are replaced by timing
wrappers.  Each wrapper records calls, total time and self time (total minus
the time of wrapped calls made inside it).  stdout and the exit code are the
CLI's own; the counters go to COUNTERS_JSON.  A name a later version no
longer has is skipped, and its layer reads zero.  Sweeps must run with one
worker: spans inside worker processes are not collected.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from graphqec import cli, detector, oracle, singleton

# (consumer module, attribute, span name)
WRAPPED = (
    (cli, "parse_graph", "graphcode.parse_graph"),
    (detector, "detects_errors", "detector.sweep"),
    (detector, "corrects_errors", "detector.sweep"),
    (detector, "detects", "detector.detects"),
    (detector, "detection_system", "detector.detection_system"),
    (detector, "smith_normal_form", "zmodlinalg.smith_normal_form"),
    (detector, "kernel_from_snf", "zmodlinalg.kernel_from_snf"),
    (oracle, "build_isometry", "oracle.build_isometry"),
    (oracle, "kl_detects", "oracle.kl_detects"),
    (singleton, "det_exact", "zmodlinalg.det_exact"),
    (singleton, "graph_census", "singleton.graph_census"),
    (singleton, "unimodular_offdiag_predicate", "singleton.predicate"),
    (singleton, "canonical_bits", "singleton.canonical_bits"),
    (singleton, "search_weights", "singleton.search_weights"),
)


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        self.isometry_bytes = 0
        self._child_time = []  # one accumulator per open span

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_time.pop()
                stats = self.spans[name]
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - children
                if self._child_time:
                    self._child_time[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _record_isometry(self, isometry):
        rows, cols = isometry.matrix.shape
        self.isometry_bytes = max(self.isometry_bytes, rows * cols * 16)  # complex128

    def install(self):
        for module, attr, name in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is not None:
                hook = self._record_isometry if name == "oracle.build_isometry" else None
                setattr(module, attr, self.span(name, fn, hook))


def main(argv) -> int:
    counters_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = tracer.span("cli.main", cli.main)(cli_args)
    sys.stdout.flush()
    with open(counters_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "isometry_bytes": tracer.isometry_bytes}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
