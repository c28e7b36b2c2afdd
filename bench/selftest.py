"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

They check the harness, not featlog: seeded inputs are reproducible, a
wrong answer is caught, an operation over the time limit is cut off and
counted, and the tracer sees calls made inside featlog.
"""

from __future__ import annotations

import sys
import time
import unittest
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from checks import check_cli  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, equation_chain, Names, sorted_chain  # noqa: E402

featlog = run.load_featlog()


def _inputs(workload: str, seed: int) -> bytes:
    return "\n".join(f"{o.command}\t{o.text}" for o in WORKLOADS[workload](seed)).encode()


class Inputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name in WORKLOADS:
            self.assertEqual(_inputs(name, 7), _inputs(name, 7), name)

    def test_other_seed_gives_other_inputs(self):
        for name in WORKLOADS:
            self.assertNotEqual(_inputs(name, 7), _inputs(name, 8), name)

    def test_every_command_has_samples_for_a_tail(self):
        for name in WORKLOADS:
            ops = WORKLOADS[name](1)
            for command in run.COMMANDS:
                n = sum(op.command == command for op in ops)
                self.assertGreaterEqual(n, 20, (name, command))


class Answers(unittest.TestCase):
    def setUp(self):
        self.runner = run.Runner(featlog)

    def test_planted_wrong_verdict_is_caught(self):
        op = next(o for o in WORKLOADS["qe-mix"](1) if o.family == "laws" and o.expect == "VALID")
        self.assertEqual(self.runner.run(op)[0], "ok")
        status, token, _ = self.runner.run(replace(op, expect="INVALID"))
        self.assertEqual((status, token), ("wrong_answer", "VALID"))
        self.assertNotEqual(run.digest([(0, token)]), run.digest([(0, "INVALID")]))

    def test_wrong_solved_form_is_caught(self):
        import random

        rng = random.Random(3)
        op = equation_chain(rng, Names(rng), 10)
        _, out = self.runner._cli(op)
        self.assertTrue(check_cli(op, out)[1])
        dropped = " & ".join(out.strip().split(" & ")[1:])
        self.assertFalse(check_cli(op, dropped)[1])

    def test_wrong_witness_is_caught(self):
        import random

        rng = random.Random(3)
        op = sorted_chain(rng, Names(rng), 5)
        _, out = self.runner._cli(op)
        self.assertTrue(check_cli(op, out)[1])
        _, f, s, n = op.expect
        self.assertFalse(check_cli(replace(op, expect=("chain", f, s, n + 1)), out)[1])


class Timeouts(unittest.TestCase):
    def test_operation_over_the_limit_is_a_timeout(self):
        runner = run.Runner(featlog, limit_s=0.2)

        def spin(cfg, sym, text):
            while True:
                pass

        commands = featlog.cli._COMMANDS
        saved = commands["decide"]
        commands["decide"] = spin
        try:
            op = WORKLOADS["qe-mix"](1)[0]
            start = time.perf_counter()
            status, token, _ = runner.run(replace(op, command="decide"))
            self.assertLess(time.perf_counter() - start, 10)
        finally:
            commands["decide"] = saved
        self.assertEqual((status, token), ("timeout", None))
        law = next(o for o in WORKLOADS["qe-mix"](1) if o.family == "laws")
        self.assertEqual(runner.run(law)[0], "ok")


class Tracing(unittest.TestCase):
    def test_wrappers_replace_every_binding_and_come_off(self):
        original = featlog.prime.prime_conj
        tracer = Tracer(featlog)
        tracer.install()
        try:
            for holder in (featlog, featlog.prime, featlog.qe):
                self.assertIsNot(holder.prime_conj, original)
            self.assertIsNot(featlog.cli.classify, featlog.qe.classify.__wrapped__)
            op = next(o for o in WORKLOADS["qe-mix"](1) if o.family == "ladder" and o.size == 4)
            self.assertEqual(run.Runner(featlog).run(op)[0], "ok")
        finally:
            tracer.uninstall()
        self.assertIs(featlog.qe.prime_conj, original)
        self.assertEqual(tracer.counts["cli.main.calls"], 1)
        self.assertEqual(tracer.counts["qe.classify.calls"], 1)
        self.assertGreater(tracer.counts["prime.prime_conj.calls"], 0)
        own, top = tracer.self_times()
        self.assertAlmostEqual(sum(own.values()), top, places=9)
        self.assertGreater(own["qe.to_prime_dnf"], 0)


if __name__ == "__main__":
    unittest.main()
