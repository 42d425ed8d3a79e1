"""Output checks for the graphqec benchmark, independent of the package.

Every check takes a command's exit code and stdout bytes plus what the
benchmark knows about the inputs, and returns an ``Outcome``: a list of
problems (empty when the output is correct) and facts the metrics need.
Verdicts are re-derived here with plain modular arithmetic and exact
rational determinants; nothing from ``graphqec`` is imported.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import jsonschema

# The published determinant set of the matrix19 graph and its bad primes.
MATRIX19 = (
    (0, 0, 1, 0, 1, 1, 1, 0),
    (0, 0, 0, 1, 1, 1, 0, 1),
    (1, 0, 0, 0, 2, 0, -1, 1),
    (0, 1, 0, 0, 0, 1, 2, -2),
    (1, 1, 2, 0, 0, 0, -2, 0),
    (1, 1, 0, 1, 0, 0, 0, -1),
    (1, 0, -1, 2, -2, 0, 0, 0),
    (0, 1, 1, -2, 0, -1, 0, 0),
)
MATRIX19_DET_SET = [-11, -8, -5, -4, -2, -1, 1, 2, 4, 5, 8, 9]
MATRIX19_BAD_PRIMES = [2, 3, 5, 11]
CENSUS6_COUNT = 2


@dataclass(frozen=True)
class Graph:
    """A weighted graph as the benchmark generates and writes it."""

    gamma: tuple[tuple[int, ...], ...]
    inputs: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.gamma)

    @property
    def outputs(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if v not in self.inputs)

    def to_text(self) -> str:
        """The graph file format read by ``graphqec --graph``."""
        lines = [f"vertices: {self.n}", "inputs: " + ",".join(map(str, self.inputs))]
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if self.gamma[u][v]:
                    lines.append(f"{u} {v} {self.gamma[u][v]}")
        return "\n".join(lines) + "\n"


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def require(self, condition: bool, message: str) -> bool:
        if not condition:
            self.problems.append(message)
        return condition


class Schemas:
    """Validators for the payload schemas shipped under docs/schemas/."""

    def __init__(self, directory: Path):
        self._validators = {}
        for path in sorted(directory.glob("*.schema.json")):
            schema = json.loads(path.read_text(encoding="utf-8"))
            name = path.name.removesuffix(".schema.json")
            self._validators[name] = jsonschema.Draft202012Validator(schema)

    def errors(self, name: str, payload) -> list[str]:
        validator = self._validators.get(name)
        if validator is None:
            return [f"no schema named {name!r}"]
        return [f"schema {name}: {e.message}" for e in validator.iter_errors(payload)]


def _payload(out: Outcome, stdout: bytes, schemas: Schemas, schema: str):
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        out.problems.append(f"stdout is not JSON: {exc}")
        return None
    errors = schemas.errors(schema, payload)
    out.problems.extend(errors)
    return None if errors else payload


def det(matrix) -> int:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            result = -result
        result *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return int(result)


def half_partitions(size: int):
    """Unordered half-half vertex partitions, block holding vertex 0 first."""
    for rest in itertools.combinations(range(1, size), size // 2 - 1):
        block = (0,) + rest
        yield block, tuple(v for v in range(size) if v not in block)


def prime_factors(n: int) -> set[int]:
    n, out, p = abs(n), set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def check_sweep(
    code: int,
    stdout: bytes,
    schemas: Schemas,
    inputs: tuple[int, ...],
    outputs: tuple[int, ...],
    factors: tuple[int, ...],
    max_size: int,
    expect_all_detected: bool | None = None,
    oracle: bool = False,
) -> Outcome:
    """``sweep`` up to ``max_size``: counts, monotonicity, exit code, oracle.

    ``expect_all_detected`` is the known claim for built-in codes and the
    instances where theory decides it; ``None`` leaves it to the payload.
    """
    out = Outcome()
    payload = _payload(out, stdout, schemas, "sweep")
    if payload is None:
        return out
    out.require(payload["inputs"] == list(inputs), "wrong inputs")
    out.require(payload["group"] == list(factors), "wrong group")
    out.require(payload["max_size"] == max_size, "wrong max_size")
    sizes = payload["sizes"]
    expected_sizes = list(range(min(max_size, len(outputs)) + 1))
    if not out.require([s["size"] for s in sizes] == expected_sizes,
                       f"sizes are not {expected_sizes}"):
        return out

    undetected: set[tuple[int, ...]] = set()
    checked = 0
    for s in sizes:
        size, configs = s["size"], [tuple(c) for c in s["undetected"]]
        checked += s["checked"]
        out.require(s["checked"] == math.comb(len(outputs), size),
                    f"size {size}: checked {s['checked']} != C({len(outputs)},{size})")
        out.require(s["detected"] + len(configs) == s["checked"],
                    f"size {size}: detected + undetected != checked")
        out.require(configs == sorted(set(configs)),
                    f"size {size}: undetected list not sorted and unique")
        out.require(all(len(c) == size and set(c) <= set(outputs) for c in configs),
                    f"size {size}: undetected entry is not a {size}-subset of the outputs")
        undetected.update(configs)

    # Detection is downward-closed, so the undetected set is upward-closed.
    prunable = set()
    for cfg in undetected:
        if len(cfg) < max_size:
            for y in outputs:
                if y not in cfg:
                    prunable.add(tuple(sorted(cfg + (y,))))
    missing = prunable - undetected
    out.require(not missing, f"undetected set not upward-closed, e.g. {min(missing, default=None)}")
    all_detected = not undetected
    out.require(payload["all_detected"] == all_detected, "all_detected disagrees with sizes")
    if expect_all_detected is not None:
        out.require(all_detected == expect_all_detected,
                    f"all_detected is {all_detected}, expected {expect_all_detected}")

    expected_code = 0 if all_detected else 1
    if oracle:
        report = payload.get("oracle")
        if out.require(report is not None, "oracle report missing"):
            out.require("skipped" not in report, f"oracle skipped: {report.get('skipped')}")
            out.require(report["checked"] == checked,
                        f"oracle checked {report['checked']} of {checked} configurations")
            disagreements = report.get("disagreements", [])
            out.require(not disagreements, f"{len(disagreements)} oracle disagreements")
            out.facts["oracle_checked"] = report["checked"]
            out.facts["disagreements"] = len(disagreements)
            if disagreements:
                expected_code = 1
    out.require(code == expected_code, f"exit code {code}, expected {expected_code}")
    out.facts.update(
        configs=checked,
        undetected=len(undetected),
        prunable=len(prunable),
        undetected_configs=sorted(undetected),
    )
    return out


def _conditions(graph: Graph, config, columns, d: int, vec) -> tuple[bool, bool, bool]:
    """For a vector indexed by ``columns``: is it in the kernel of the
    detection system mod d, is it nonzero on the inputs, and does the error
    part act nontrivially on the inputs?"""
    rows = [y for y in graph.outputs if y not in config]
    in_kernel = not any(
        sum(graph.gamma[r][c] * x for c, x in zip(columns, vec)) % d for r in rows
    )
    on_inputs = any(x % d for c, x in zip(columns, vec) if c in graph.inputs)
    coupling = any(
        sum(graph.gamma[i][c] * x for c, x in zip(columns, vec) if c not in graph.inputs) % d
        for i in graph.inputs
    )
    return in_kernel, on_inputs, coupling


def _verdict(out: Outcome, stdout: bytes, schemas: Schemas, graph: Graph, config, detected):
    payload = _payload(out, stdout, schemas, "verdict")
    if payload is None:
        return None
    out.require(payload["config"] == list(config), "wrong configuration")
    columns = sorted(set(graph.inputs) | set(config))
    ok = out.require(payload["detected"] is detected, f"detected is not {detected}")
    ok = out.require(payload["columns"] == columns, "wrong columns") and ok
    return (payload, columns) if ok else None


def check_witness(
    code: int,
    stdout: bytes,
    schemas: Schemas,
    graph: Graph,
    factors: tuple[int, ...],
    config: tuple[int, ...],
) -> Outcome:
    """``detect`` on an undetected configuration: re-verify the witness."""
    out = Outcome()
    out.require(code == 1, f"exit code {code}, expected 1")
    verdict = _verdict(out, stdout, schemas, graph, config, detected=False)
    if verdict is None:
        return out
    payload, columns = verdict
    d, vec = payload["factor"], payload["witness"]
    if not (out.require(d in factors, f"factor {d} not in the group")
            and out.require(len(vec) == len(columns), "witness length != column count")):
        return out
    in_kernel, on_inputs, coupling = _conditions(graph, config, columns, d, vec)
    out.require(in_kernel, "witness is not in the kernel of the detection system")
    if payload["failed"] == "nonzero_on_inputs":
        out.require(on_inputs, "witness vanishes on the inputs")
    else:
        out.require(not on_inputs and coupling, "witness does not couple the error to the inputs")
    return out


def check_certificate(
    code: int,
    stdout: bytes,
    schemas: Schemas,
    graph: Graph,
    factors: tuple[int, ...],
    config: tuple[int, ...],
) -> Outcome:
    """``detect`` on a detected configuration: every certificate generator
    must be a nonzero kernel vector that meets both detection conditions."""
    out = Outcome()
    out.require(code == 0, f"exit code {code}, expected 0")
    verdict = _verdict(out, stdout, schemas, graph, config, detected=True)
    if verdict is None:
        return out
    payload, columns = verdict
    certificate = payload["certificate"]
    out.require([c["factor"] for c in certificate] == list(factors),
                "certificate factors differ from the group's")
    for entry in certificate:
        d = entry["factor"]
        for vec in entry["generators"]:
            if not out.require(len(vec) == len(columns) and any(x % d for x in vec),
                               f"generator {vec} mod {d} is empty or has the wrong length"):
                continue
            in_kernel, on_inputs, coupling = _conditions(graph, config, columns, d, vec)
            out.require(in_kernel and not on_inputs and not coupling,
                        f"generator {vec} mod {d} breaks a detection condition")
    return out


def check_same(code: int, stdout: bytes, reference: tuple[int, bytes]) -> Outcome:
    """A rerun at another worker count must give the same exit code and bytes."""
    out = Outcome()
    out.require(code == reference[0], f"exit code {code}, single-worker run gave {reference[0]}")
    out.require(stdout == reference[1], "stdout differs from the single-worker run")
    return out


def check_census(code: int, stdout: bytes, schemas: Schemas, n: int) -> Outcome:
    out = Outcome()
    out.require(code == 0, f"exit code {code}, expected 0")
    payload = _payload(out, stdout, schemas, "census")
    if payload is None:
        return out
    classes = payload["classes"]
    out.require(payload["count"] == CENSUS6_COUNT == len(classes),
                f"census count {payload['count']}, expected {CENSUS6_COUNT}")
    bits = [c["bits"] for c in classes]
    out.require(bits == sorted(set(bits)), "classes not sorted and distinct")
    for cls in classes:
        gamma = [[0] * n for _ in range(n)]
        for u, v in cls["edges"]:
            gamma[u][v] = gamma[v][u] = 1
        pairs = [gamma[i][j] for i in range(n) for j in range(i + 1, n)]
        out.require("".join(map(str, pairs)) == cls["bits"], "edges disagree with bits")
        dets = {det([[gamma[i][j] for j in comp] for i in block])
                for block, comp in half_partitions(n)}
        out.require(dets <= {-1, 1}, f"class {cls['bits']} has block determinants {sorted(dets)}")
    out.facts["census_codes"] = 2 ** math.comb(n, 2)
    return out


def check_subdets(code: int, stdout: bytes, schemas: Schemas, inputs=None) -> Outcome:
    """``subdets --builtin matrix19`` with or without ``--inputs``."""
    out = Outcome()
    out.require(code == 0, f"exit code {code}, expected 0")
    payload = _payload(out, stdout, schemas, "subdets")
    if payload is None:
        return out
    fixed = set(inputs or ())
    expected = [
        (list(block), det([[MATRIX19[i][j] for j in comp] for i in block]))
        for block, comp in half_partitions(8)
        if fixed <= set(block) or fixed <= set(comp)
    ]
    got = [(p["I"], p["det"]) for p in payload["partitions"]]
    out.require(got == expected, "partition determinants differ from the exact ones")
    dets = sorted({d for _, d in expected})
    bad = sorted(set().union(*(prime_factors(d) for d in dets)))
    out.require(payload["det_set"] == dets, f"det_set {payload['det_set']} != {dets}")
    out.require(payload["bad_primes"] == bad, f"bad_primes {payload['bad_primes']} != {bad}")
    out.require(payload.get("restricted_to_inputs") == (list(inputs) if inputs else None),
                "restricted_to_inputs wrong")
    if inputs is None:
        out.require(dets == MATRIX19_DET_SET and bad == MATRIX19_BAD_PRIMES,
                    "matrix19 no longer has the published determinant set")
    return out


def check_search(
    code: int, stdout: bytes, schemas: Schemas, bound: int, seed: int, budget: int
) -> Outcome:
    """``search --builtin matrix19``: a hit must re-verify, a miss must use
    the whole budget."""
    out = Outcome()
    payload = _payload(out, stdout, schemas, "search")
    if payload is None:
        return out
    out.require((payload["seed"], payload["budget"], payload["bound"]) == (seed, budget, bound),
                "seed, budget or bound echoed wrongly")
    attempts = payload["attempts"]
    out.facts["attempts"] = attempts
    if not payload["found"]:
        out.require(code == 1, f"exit code {code}, expected 1 for an exhausted search")
        out.require(attempts == budget, f"gave up after {attempts} of {budget} attempts")
        return out
    out.require(code == 0, f"exit code {code}, expected 0 for a hit")
    out.require(1 <= attempts <= budget, f"{attempts} attempts outside 1..{budget}")
    matrix = payload["matrix"]
    size = len(MATRIX19)
    if not out.require(len(matrix) == size and all(len(r) == size for r in matrix),
                       "matrix has the wrong shape"):
        return out
    for i in range(size):
        for j in range(size):
            w, on_skeleton = matrix[i][j], MATRIX19[i][j] != 0
            ok = w == matrix[j][i] and (0 < abs(w) <= bound if on_skeleton else w == 0)
            if not out.require(ok, f"entry ({i},{j}) = {w} breaks the skeleton or bound"):
                return out
    dets = [det([[matrix[i][j] for j in comp] for i in block])
            for block, comp in half_partitions(size)]
    out.require(all(dets), "a block determinant of the found matrix is zero")
    out.require(payload["det_set"] == sorted(set(dets)), "det_set differs from the exact one")
    bad = sorted(set().union(*(prime_factors(d) for d in dets)))
    out.require(payload["bad_primes"] == bad, "bad_primes differ from the exact ones")
    return out
