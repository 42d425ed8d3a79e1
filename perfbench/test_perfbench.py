"""Self-tests of the benchmark: seeded inputs and the output checks.

Run from the repository root:

    python3 -m unittest discover -s perfbench -t perfbench

Valid payloads come from the real CLI (run in-process); every check must
accept them and reject each deliberately corrupted copy.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from run import write_inputs  # noqa: E402
from workloads import WORKLOADS, random_graph, _rng  # noqa: E402

from graphqec import cli  # noqa: E402

SCHEMAS = checks.Schemas(ROOT / "docs" / "schemas")


def run_cli(*argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


def dumps(payload) -> bytes:
    return json.dumps(payload, indent=2).encode()


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_files(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as a, \
                    tempfile.TemporaryDirectory() as b:
                for r in range(3):
                    first = write_inputs(workload.inputs(7, r), Path(a), f"round{r}")
                    second = write_inputs(workload.inputs(7, r), Path(b), f"round{r}")
                    for key in first:
                        self.assertEqual(Path(first[key]).read_bytes(),
                                         Path(second[key]).read_bytes())

    def test_other_seed_gives_other_graphs(self):
        for name in ("sweep-sparse", "sweep-dense", "oracle"):
            inputs = WORKLOADS[name].inputs
            with self.subTest(workload=name):
                self.assertNotEqual(inputs(7, 0)["graph"].to_text(),
                                    inputs(8, 0)["graph"].to_text())
                self.assertNotEqual(inputs(7, 0)["graph"].to_text(),
                                    inputs(7, 1)["graph"].to_text())


class CheckTestCase(unittest.TestCase):
    def assertAccepts(self, outcome):
        self.assertEqual(outcome.problems, [])

    def assertRejects(self, check, corruptions):
        for label, (code, stdout) in corruptions.items():
            with self.subTest(corruption=label):
                self.assertNotEqual(check(code, stdout).problems, [])


class SweepChecks(CheckTestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.graph = random_graph(_rng("selftest"), 9, 1, (0, 1))
        cls.path = str(Path(cls.tmp.name) / "g.graph")
        Path(cls.path).write_text(cls.graph.to_text(), encoding="utf-8")
        cls.code, cls.stdout = run_cli("sweep", "--graph", cls.path, "--group", "2",
                                       "--detect", "4", "--oracle")
        cls.payload = json.loads(cls.stdout)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check(self, code, stdout):
        return checks.check_sweep(code, stdout, SCHEMAS, self.graph.inputs, self.graph.outputs,
                                  (2,), 4, expect_all_detected=False, oracle=True)

    def corrupt(self, edit):
        payload = copy.deepcopy(self.payload)
        edit(payload)
        return self.code, dumps(payload)

    def test_accepts_real_payload(self):
        self.assertAccepts(self.check(self.code, self.stdout))

    def test_rejects_corruptions(self):
        sizes = self.payload["sizes"]
        smallest = next(s["size"] for s in sizes if s["undetected"])

        def drop_superset(p):
            p["sizes"][smallest + 1]["undetected"].pop()
            p["sizes"][smallest + 1]["detected"] += 1

        def add_disagreement(p):
            cfg = p["sizes"][1]["undetected"][:1] or [[self.graph.outputs[0]]]
            p["oracle"]["disagreements"].append(
                {"config": cfg[0], "kernel_verdict": False, "oracle_verdict": True})

        def skip_oracle(p):
            p["oracle"] = {"checked": 0, "skipped": "size cap exceeded"}

        def recount(p):
            p["sizes"][2]["checked"] += 1
            p["sizes"][2]["detected"] += 1

        self.assertRejects(self.check, {
            "exit code": (0, self.stdout),
            "not json": (self.code, b"{"),
            "schema": self.corrupt(lambda p: p.pop("mode")),
            "checked count": self.corrupt(recount),
            "not upward-closed": self.corrupt(drop_superset),
            "all_detected flag": self.corrupt(lambda p: p.update(all_detected=True)),
            "oracle disagreement": self.corrupt(add_disagreement),
            "oracle skipped": self.corrupt(skip_oracle),
        })

    def test_rejects_unexpected_verdict(self):
        outcome = checks.check_sweep(self.code, self.stdout, SCHEMAS, self.graph.inputs,
                                     self.graph.outputs, (2,), 4, expect_all_detected=True)
        self.assertNotEqual(outcome.problems, [])

    def test_witness(self):
        config = tuple(self.payload["sizes"][-1]["undetected"][0])
        code, stdout = run_cli("detect", "--graph", self.path, "--group", "2",
                               "--config", ",".join(map(str, config)))

        def check(c, out):
            return checks.check_witness(c, out, SCHEMAS, self.graph, (2,), config)

        self.assertAccepts(check(code, stdout))
        payload = json.loads(stdout)
        bad_vector = copy.deepcopy(payload)
        bad_vector["witness"] = [0] * len(payload["witness"])
        bad_vector["witness"][-1] = 1
        bad_factor = dict(payload, factor=3)
        detected = dict(payload, detected=True, certificate=[])
        self.assertRejects(check, {
            "exit code": (0, stdout),
            "vector": (code, dumps(bad_vector)),
            "factor": (code, dumps(bad_factor)),
            "detected": (code, dumps(detected)),
        })

    def test_certificate(self):
        undetected = {tuple(c) for s in self.payload["sizes"] for c in s["undetected"]}
        config = next(c for c in itertools.combinations(self.graph.outputs, 2)
                      if c not in undetected)
        code, stdout = run_cli("detect", "--graph", self.path, "--group", "2",
                               "--config", ",".join(map(str, config)))

        def check(c, out):
            return checks.check_certificate(c, out, SCHEMAS, self.graph, (2,), config)

        self.assertAccepts(check(code, stdout))
        payload = json.loads(stdout)
        columns = payload["columns"]
        # An input-only vector violates the first condition, whatever the graph.
        input_vector = [1 if c in self.graph.inputs else 0 for c in columns]
        bad_generator = copy.deepcopy(payload)
        bad_generator["certificate"][0]["generators"].append(input_vector)
        bad_factor = copy.deepcopy(payload)
        bad_factor["certificate"][0]["factor"] = 3
        undetected_claim = dict(payload, detected=False, factor=2,
                                failed="nonzero_on_inputs", witness=input_vector)
        del undetected_claim["certificate"]
        self.assertRejects(check, {
            "exit code": (1, stdout),
            "generator": (code, dumps(bad_generator)),
            "factor": (code, dumps(bad_factor)),
            "undetected": (code, dumps(undetected_claim)),
        })

    def test_same(self):
        reference = (self.code, self.stdout)
        self.assertAccepts(checks.check_same(self.code, self.stdout, reference))
        self.assertNotEqual(checks.check_same(self.code, self.stdout + b" ", reference).problems, [])
        self.assertNotEqual(checks.check_same(0, self.stdout, reference).problems, [])


class SingletonChecks(CheckTestCase):
    def corruptions(self, code, stdout, edits):
        out = {}
        for label, edit in edits.items():
            payload = json.loads(stdout)
            edit(payload)
            out[label] = (code, dumps(payload))
        return out

    def test_census(self):
        code, stdout = run_cli("census", "--n", "6")

        def check(c, out):
            return checks.check_census(c, out, SCHEMAS, 6)

        self.assertAccepts(check(code, stdout))

        def extra_edge(p):
            cls = p["classes"][0]
            missing = next((u, v) for u in range(6) for v in range(u + 1, 6)
                           if [u, v] not in cls["edges"])
            cls["edges"].append(list(missing))
            pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
            cls["bits"] = "".join("1" if [u, v] in cls["edges"] else "0" for u, v in pairs)

        self.assertRejects(check, {
            "exit code": (1, stdout),
            **self.corruptions(code, stdout, {
                "count": lambda p: p.update(count=3),
                "bits": lambda p: p["classes"][0].update(bits="0" * 15),
                "order": lambda p: p["classes"].reverse(),
                "not unimodular": extra_edge,
            }),
        })

    def test_subdets(self):
        for inputs in (None, (0, 1)):
            argv = ["subdets", "--builtin", "matrix19"]
            if inputs:
                argv += ["--inputs", "0,1"]
            code, stdout = run_cli(*argv)

            def check(c, out, inputs=inputs):
                return checks.check_subdets(c, out, SCHEMAS, inputs)

            with self.subTest(inputs=inputs):
                self.assertAccepts(check(code, stdout))
                self.assertRejects(check, self.corruptions(code, stdout, {
                    "det": lambda p: p["partitions"][0].update(det=p["partitions"][0]["det"] + 1),
                    "det_set": lambda p: p["det_set"].append(13),
                    "bad primes": lambda p: p.update(bad_primes=[2, 3, 5, 7]),
                    "dropped partition": lambda p: p["partitions"].pop(),
                    "inputs": lambda p: p.update(restricted_to_inputs=[0, 2]),
                }))

    def test_search_miss(self):
        code, stdout = run_cli("search", "--builtin", "matrix19", "--bound", "1",
                               "--seed", "0", "--budget", "50")

        def check(c, out):
            return checks.check_search(c, out, SCHEMAS, 1, 0, 50)

        self.assertAccepts(check(code, stdout))
        self.assertEqual(check(code, stdout).facts["attempts"], 50)
        self.assertRejects(check, {
            "exit code": (0, stdout),
            **self.corruptions(code, stdout, {
                "gave up early": lambda p: p.update(attempts=49),
                "seed": lambda p: p.update(seed=1),
            }),
        })

    def test_search_hit(self):
        code, stdout = run_cli("search", "--builtin", "matrix19", "--bound", "2",
                               "--seed", "0", "--budget", "100000")
        self.assertEqual(code, 0)

        def check(c, out):
            return checks.check_search(c, out, SCHEMAS, 2, 0, 100000)

        self.assertAccepts(check(code, stdout))

        def unit_weights(p):
            # With every weight 1 (inside the bound, on the skeleton) some
            # block is singular: the bound-1 search never succeeds.
            p["matrix"] = [[1 if w else 0 for w in row] for row in p["matrix"]]

        payload = json.loads(stdout)
        unit_weights(payload)
        problems = check(code, dumps(payload)).problems
        self.assertIn("a block determinant of the found matrix is zero", problems)

        self.assertRejects(check, {
            "exit code": (1, stdout),
            **self.corruptions(code, stdout, {
                "off skeleton": lambda p: p["matrix"][0].__setitem__(1, 1),
                "over bound": lambda p: [p["matrix"][0].__setitem__(2, 3),
                                         p["matrix"][2].__setitem__(0, 3)],
                "det_set": lambda p: p.update(det_set=[1]),
            }),
        })


if __name__ == "__main__":
    unittest.main()
