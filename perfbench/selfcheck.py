"""Self-checks of the benchmark harness.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

They cover the self-time arithmetic, the output verifier and the input
generator; the benchmark itself is not run.
"""

from __future__ import annotations

import json
import os
import tempfile
import unittest

import run
import tracing
import verifier
import workloads

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench_out")


def _span(sid, parent, name, start, end, counts=None):
    return [sid, parent, 0, name, start, end, counts]


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            _span(0, None, "cli.main", 0.0, 10.0),
            _span(1, 0, "field.gradient", 1.0, 4.0, {"field.gradient.cells": 300}),
            _span(2, 1, "grid_domain.rows_of_indices", 2.0, 3.0,
                  {"grid_domain.rows_of_indices.keys": 7}),
            _span(3, 0, "field.gradient", 5.0, 7.0, {"field.gradient.cells": 100}),
            _span(4, 3, "grid_domain.rows_of_indices", 5.5, 6.0,
                  {"grid_domain.rows_of_indices.keys": 5}),
            _span(5, 3, "grid_domain.rows_of_indices", 5.75, 6.5),  # overlaps its sibling
        ]
        self.assertEqual(tracing.self_times(spans), [5.0, 2.0, 1.0, 1.0, 0.5, 0.75])
        m = tracing.layer_metrics(spans)
        self.assertEqual(m["cli.main.self_s"], 5.0)
        self.assertEqual(m["field.gradient.calls"], 2)
        self.assertEqual(m["field.gradient.self_s"], 3.0)
        self.assertEqual(m["field.gradient.cells"], 400)
        self.assertEqual(m["field.gradient.cells_per_s"], 400 / 5.0)
        self.assertEqual(m["grid_domain.rows_of_indices.calls"], 3)
        self.assertEqual(m["grid_domain.rows_of_indices.keys"], 12)
        self.assertEqual(m["grid_domain.rows_of_indices.self_s"], 2.25)

    def test_accept_ratio(self):
        hat = {"field.generators.hat_calls": 1}
        spans = [
            _span(0, None, "suites.batteries", 0.0, 1.0,
                  {"suites.intertwining_trials.accepted": 3}),
            *[_span(i, 0, "field.generators", 0.1 * i, 0.1 * i + 0.05, hat)
              for i in range(1, 5)],
            _span(5, None, "field.generators", 2.0, 2.1, hat),  # not a candidate
            _span(6, None, "suites.batteries", 3.0, 4.0,
                  {"suites.disjoint_bump_pairs.draws": 10,
                   "suites.disjoint_bump_pairs.accepted": 4}),
        ]
        m = tracing.layer_metrics(spans)
        self.assertEqual(m["suites.intertwining_trials.candidates"], 4)
        self.assertEqual(m["suites.intertwining_trials.accept_ratio"], 0.75)
        self.assertEqual(m["suites.disjoint_bump_pairs.candidates"], 5)
        self.assertEqual(m["suites.disjoint_bump_pairs.accept_ratio"], 0.8)
        self.assertEqual(m["suites.batteries.calls"], 2)

    def test_inconsistent_battery_counts_fail(self):
        for counts in ({"suites.disjoint_bump_pairs.draws": 7,
                        "suites.disjoint_bump_pairs.accepted": 1},
                       {"suites.disjoint_bump_pairs.draws": 4,
                        "suites.disjoint_bump_pairs.accepted": 3},
                       {"suites.intertwining_trials.accepted": 1}):
            with self.assertRaises(ValueError, msg=counts):
                tracing.layer_metrics([_span(0, None, "suites.batteries", 0.0, 1.0, counts)])


class VerifierTest(unittest.TestCase):
    """Runs real commands, then corrupts their outputs."""

    @classmethod
    def setUpClass(cls):
        run._import_program(run._source_dir(ROOT))
        os.makedirs(SCRATCH, exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=SCRATCH)
        commands = workloads.generate("congruence", 3, cls.tmp.name)
        cls.cmds = {c.label: c for c in commands}
        cls.pairs = [c for c in commands if c.metric == "congruence.pairs"]
        picked = [cls.cmds["congruence.fat_cantor"], *cls.pairs[:2]]
        _wall, _times, outcomes = run._run_pass(picked, lambda _seconds: None)
        cls.outcomes = {c.label: o for c, o in zip(picked, outcomes)}

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_planted_outcomes_pass(self):
        for label, outcome in self.outcomes.items():
            self.assertEqual(verifier.check(self.cmds[label], outcome), [], label)

    def test_flipped_pipeline_verdict_is_rejected(self):
        cmd = self.cmds["congruence.fat_cantor"]
        good = self.outcomes[cmd.label]
        path = cmd.outputs[0]
        report = json.loads(good.outputs[path])
        self.assertFalse(report["passed"])
        report["passed"] = True
        for check in report["checks"]:
            check["status"] = "pass"
        flipped = verifier.Outcome(0, good.stdout, good.stderr,
                                   {path: json.dumps(report).encode()})
        cmd_exit0 = workloads.Command(cmd.label, cmd.metric, cmd.argv, 0, cmd.outputs,
                                      cmd.planted)
        self.assertTrue(verifier.check(cmd, flipped))       # exit code differs
        self.assertTrue(verifier.check(cmd_exit0, flipped))  # verdict differs

    def test_flipped_pair_verdict_is_rejected(self):
        for cmd in self.pairs[:2]:
            good = self.outcomes[cmd.label]
            if cmd.planted["congruent"]:
                stdout = good.stdout.replace("-> congruent", "-> not congruent")
            else:
                stdout = good.stdout.replace("-> not congruent", "-> congruent")
            bad = verifier.Outcome(good.exit_code, stdout, good.stderr, good.outputs)
            self.assertTrue(verifier.check(cmd, bad), cmd.label)

    def test_traceback_exit_code_and_changed_repeat_are_rejected(self):
        cmd = self.cmds["congruence.fat_cantor"]
        good = self.outcomes[cmd.label]
        crashed = verifier.Outcome(None, "", "Traceback (most recent call last):\n", {})
        self.assertTrue(verifier.check(cmd, crashed))
        wrong_exit = verifier.Outcome(0, good.stdout, good.stderr, good.outputs)
        self.assertTrue(verifier.check(cmd, wrong_exit))
        earlier = dict(good.digests())
        earlier[cmd.outputs[0]] = "0" * 64
        self.assertTrue(verifier.check(cmd, good, earlier))
        self.assertEqual(verifier.check(cmd, good, good.digests()), [])


def _tree_bytes(path: str) -> dict:
    out = {}
    for base, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        os.makedirs(SCRATCH, exist_ok=True)
        for workload in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
                # the generator writes paths into its files, so use one directory
                trees = []
                for seed in (11, 11, 12):
                    work = os.path.join(tmp, "work")
                    workloads.generate(workload, seed, work)
                    trees.append(_tree_bytes(work))
                    for name in trees[-1]:
                        os.remove(os.path.join(work, name))
                self.assertEqual(trees[0], trees[1], workload)
                self.assertNotEqual(trees[0], trees[2], workload)


if __name__ == "__main__":
    unittest.main()
