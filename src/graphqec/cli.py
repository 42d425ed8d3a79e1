"""Command-line front end.

Integer lists (``--inputs``, ``--config``, ``--group``) are read by
``_frozen.integer_list``: comma-separated integers, each part stripped, the
empty string the empty list, and an empty or non-integer part an input
error (exit code 2).

Exit codes: 0 when the checked claim holds (or a search succeeds), 1 when it
fails (the JSON payload then carries a machine-checkable witness), 2 on
usage or input errors, including graph files declaring more than 2,048
vertices and sweeps over more than 2**22 configurations (both bounds follow
from ``graphcode.SIZE_CAP``), reports and searches over more than 2**21
vertex partitions, and search bounds too large to certify the bad primes of
a hit.  A sweep's --oracle cross-check is skipped, with a warning, on
instances over the oracle's size caps.  JSON is written to stdout as it is
encoded, diagnostics to stderr; a sweep's stderr line reports its wall time,
configurations checked, configurations decided by pruning and workers used.
The ``graphqec`` command ends its process as soon as its output is flushed,
without interpreter teardown.
A sweep uses as many workers as the CPUs the process may run on, but no more
than its configuration count divided by ``detector.MIN_CONFIGS_PER_WORKER``
(60,000): a spawned worker takes a few hundred milliseconds to start, so a
pool runs only on sweeps large enough to repay it.  ``taskset -c 0 graphqec
sweep ...`` runs a sweep serially; library sweeps stay serial unless given
``workers``.  Identical inputs always produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

# detector, oracle and singleton are imported by the handlers that use them,
# so each subcommand loads only the modules it runs.
from ._frozen import integer_list
from .abelian import parse_group
from .graphcode import BUILTIN_GRAPHS, WeightedGraph, describe, parse_graph

EXIT_OK = 0
EXIT_CLAIM_FAILS = 1
EXIT_USAGE = 2


def _emit(payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline, 1,024 encoded chunks
    per write: a write per chunk is slow unbuffered, and one holds the whole text."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    for batch in iter(lambda: list(itertools.islice(chunks, 1024)), []):
        sys.stdout.write("".join(batch))
    sys.stdout.write("\n")


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _read_graph(builtin: str | None, path: str) -> WeightedGraph:
    """The named built-in graph, or else the graph file at ``path``."""
    if builtin:
        return BUILTIN_GRAPHS[builtin]()
    file = Path(path)
    return parse_graph(file.read_text(encoding="utf-8"), name=file.stem)


def _load_graph(args) -> WeightedGraph:
    graph = _read_graph(args.builtin, args.graph)
    if args.inputs is not None:
        graph = graph.with_inputs(integer_list(args.inputs, "vertex list"))
    return graph


def _add_graph_flags(sub, flag="--graph", file_help="graph file to load",
                     builtin_help="use a built-in graph"):
    """One required source: the graph file named by ``flag``, or --builtin."""
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument(flag, metavar="FILE", help=file_help)
    src.add_argument("--builtin", choices=sorted(BUILTIN_GRAPHS), help=builtin_help)


def _add_code_flags(sub):
    """The graph flags plus --inputs and --group, for commands that build a code."""
    _add_graph_flags(sub)
    sub.add_argument("--inputs", metavar="LIST",
                     help="override the input vertex set, e.g. '3' or '0,1'")
    sub.add_argument("--group", default="2",
                     help="comma-separated cyclic factors (default: 2)")


def _cmd_detect(args) -> int:
    from . import detector

    graph = _load_graph(args)
    group = parse_group(args.group)
    config = integer_list(args.config, "vertex list")
    verdict = detector.detects(graph, group, config)
    _emit(verdict.to_dict())
    return EXIT_OK if verdict.detected else EXIT_CLAIM_FAILS


def _cmd_sweep(args) -> int:
    from . import detector

    graph = _load_graph(args)
    group = parse_group(args.group)
    workers = detector.usable_cpus()
    if args.detect is not None:
        report = detector.detects_errors(graph, group, args.detect, workers=workers)
    else:
        report = detector.corrects_errors(graph, group, args.correct, workers=workers)
    checked = sum(report.checked)
    _info(
        f"sweep finished in {report.elapsed_s:.3f}s: {checked} configurations "
        f"checked, {report.pruned} decided by pruning, {report.workers} worker(s)"
    )
    payload = report.to_dict()

    exit_code = EXIT_OK if report.all_detected else EXIT_CLAIM_FAILS
    if args.oracle:
        from . import oracle

        try:
            iso = oracle.build_isometry(graph, group)
        except ValueError as exc:
            _info(f"warning: oracle skipped: {exc}")
            payload["oracle"] = {"checked": 0, "skipped": "size cap exceeded"}
        else:
            undetected = set(report.undetected)
            disagreements = []
            for size in range(len(report.sizes)):
                for cfg in itertools.combinations(graph.outputs, size):
                    kl = oracle.kl_detects(iso, cfg)
                    if kl != (cfg not in undetected):
                        disagreements.append(
                            {"config": list(cfg), "kernel_verdict": cfg not in undetected,
                             "oracle_verdict": kl}
                        )
            payload["oracle"] = {
                "checked": checked,
                "disagreements": disagreements,
            }
            if disagreements:
                exit_code = EXIT_CLAIM_FAILS
    _emit(payload)
    return exit_code


def _cmd_subdets(args) -> int:
    from . import singleton

    # the partition plays no role here; --inputs names the restriction set
    graph = _read_graph(args.builtin, args.graph)
    fixed = integer_list(args.inputs or "", "vertex list")
    payload = singleton.offdiag_subdets(graph.gamma, fixed).to_dict()
    if args.inputs is not None:
        payload["restricted_to_inputs"] = sorted(set(fixed))
    payload["graph"] = describe(graph)
    _emit(payload)
    return EXIT_OK


def _cmd_search(args) -> int:
    from . import singleton

    gamma = _read_graph(args.builtin, args.skeleton).gamma
    m = len(gamma) // 2
    # A hit's report factors every block determinant; refuse bounds whose
    # determinants could have factors that cannot be certified prime.
    if not singleton.certifiable_bound(m, args.bound):
        raise ValueError(
            f"--bound {args.bound} is too large to certify the bad primes of "
            f"{m} x {m} blocks; the largest accepted bound is "
            f"{singleton.largest_certifiable_bound(m)}"
        )
    result = singleton.search_weights(gamma, args.bound, args.seed, args.budget)
    payload = {
        "found": result.success,
        "attempts": result.attempts,
        "seed": args.seed,
        "budget": args.budget,
        "bound": args.bound,
    }
    if result.success:
        report = singleton.offdiag_subdets(result.matrix)
        payload["matrix"] = [list(row) for row in result.matrix]
        payload["det_set"] = list(report.det_set)
        payload["bad_primes"] = sorted(report.bad_primes)  # a hit has no zero determinant
    _emit(payload)
    return EXIT_OK if result.success else EXIT_CLAIM_FAILS


def _cmd_census(args) -> int:
    from . import singleton

    classes = singleton.graph_census(args.n)
    payload = {
        "n": args.n,
        "count": len(classes),
        "classes": [
            {
                "bits": singleton.adjacency_bits(gamma),
                "edges": [
                    [u, v]
                    for u in range(args.n)
                    for v in range(u + 1, args.n)
                    if gamma[u][v]
                ],
            }
            for gamma in classes
        ],
    }
    _emit(payload)
    return EXIT_OK


def _cmd_export(args) -> int:
    from . import oracle

    graph = _load_graph(args)
    group = parse_group(args.group)
    iso = oracle.build_isometry(graph, group)
    header = oracle.export_isometry_csv(iso, args.out)
    _info(f"wrote {iso.rows * iso.cols} entries to {args.out}")
    _emit(header)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphqec",
        description=(
            "Build quantum error-detecting codes from weighted graphs and "
            "finite abelian groups, and verify their detection claims."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="verdict for one error configuration")
    _add_code_flags(p)
    p.add_argument("--config", required=True, metavar="LIST",
                   help="error configuration, e.g. '1,2' (empty string for the isometry check)")
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("sweep", help="sweep all configurations up to a size")
    _add_code_flags(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--detect", type=int, metavar="T",
                      help="check detection of all configurations of size <= T")
    mode.add_argument("--correct", type=int, metavar="E",
                      help="check correction of E errors (detection up to size 2E)")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check every verdict against the brute-force oracle")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("subdets", help="off-diagonal block determinant report")
    _add_graph_flags(p)
    p.add_argument("--inputs", metavar="LIST", default=None,
                   help="restrict to partitions keeping these input vertices together")
    p.set_defaults(handler=_cmd_subdets)

    p = sub.add_parser("search", help="randomized weight search on a skeleton")
    _add_graph_flags(p, "--skeleton", "graph file whose support pattern is the skeleton",
                     "use a built-in graph's support pattern")
    p.add_argument("--bound", type=int, default=2, metavar="W",
                   help="weights drawn from [-W, W] without 0 (default: 2)")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed (default: 0)")
    p.add_argument("--budget", type=int, default=10**5,
                   help="maximum number of attempts (default: 100000)")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("census", help="isomorphism classes passing the all-unimodular test")
    p.add_argument("--n", type=int, required=True, help="vertex count (even, <= 8)")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("export", help="dump the code matrix as CSV plus a JSON header")
    _add_code_flags(p)
    p.add_argument("--out", required=True, metavar="FILE", help="CSV output path")
    p.set_defaults(handler=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The ``graphqec`` command: ``main``, then flush both streams and end
    the process with ``os._exit``.

    Skipping interpreter teardown saves about 30 ms per command; objects are
    not freed and atexit handlers do not run, and nothing ``main`` leaves
    behind needs either (a sweep's pool is shut down before it returns).  An
    exception escaping ``main`` takes Python's normal exit path.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
