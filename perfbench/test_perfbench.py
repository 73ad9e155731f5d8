"""Tests of the benchmark's own output checks, tracer and inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import io
import json
import os
import sys
import types
import unittest
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import find_memos, load_modules  # noqa: E402

MODULES = load_modules()

import checks  # noqa: E402
import run as run_script  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ORDER = "30"


def run(argv: list[str]) -> tuple[list[str], int, str, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = MODULES["cli"].main(argv)
    return argv, rc, buf.getvalue(), ""


def explore_results() -> list:
    results = [run(["expand", name, "--order", ORDER]) for name in workloads.DISCOVER_NAMES]
    results.append(run(["discover", *workloads.DISCOVER_NAMES, "--order", ORDER, "--json"]))
    return results


def replace_output(results: list, verb_and_name: tuple[str, str], new_out: str) -> list:
    return [
        (op, rc, new_out if (op[0], op[1]) == verb_and_name else out, err)
        for op, rc, out, err in results
    ]


def bump_first_coefficient(text: str) -> str:
    lines = text.splitlines(keepends=True)
    exponent, coefficient = lines[1].split()
    num, den = coefficient.split("/")
    lines[1] = f"{exponent} {int(num) + 1}/{den}\n"
    return "".join(lines)


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.results = explore_results()

    def test_clean_outputs_pass(self) -> None:
        failed, certified, problems = checks.tally(self.results, {})
        self.assertEqual((failed, certified, problems), (0, len(self.results), []))

    def test_corrupted_expand_text_is_counted_failed(self) -> None:
        name = "chi:5,6,1,2"
        original = next(out for op, _, out, _ in self.results if op[1] == name)
        key = checks.op_key(["expand", name, "--order", ORDER])
        goldens = {"sha256": {key: checks.sha256(original)}}
        corrupted = replace_output(self.results, ("expand", name), bump_first_coefficient(original))
        failed, certified, problems = checks.tally(corrupted, goldens)
        # The expand op fails its golden hash, and the discover op fails
        # because a relation through chi:5,6,1,2 no longer vanishes.
        self.assertEqual(failed, 2, problems)
        self.assertEqual(certified, len(self.results) - 2)

    def test_corrupted_expand_text_fails_without_goldens(self) -> None:
        name = "chi:2,5,1,1@q^1/2"
        original = next(out for op, _, out, _ in self.results if op[1] == name)
        corrupted = replace_output(self.results, ("expand", name), bump_first_coefficient(original))
        failed, _, problems = checks.tally(corrupted, {})
        self.assertEqual(failed, 1, problems)
        self.assertIn("leaves", problems[0])

    def test_non_canonical_text_fails_round_trip(self) -> None:
        name = "chi:5,6,1,1"
        original = next(out for op, _, out, _ in self.results if op[1] == name)
        head, first, rest = original.split("\n", 2)
        exponent, coefficient = first.split()
        num, den = coefficient.split("/")
        doubled = f"{head}\n{exponent} {2 * int(num)}/{2 * int(den)}\n{rest}"
        problems, ok = checks.check_expand(["expand", name, "--order", ORDER], 0, doubled, {})
        self.assertFalse(ok)
        self.assertIn("round-trip", problems[0])

    def test_corrupted_relation_is_counted_failed(self) -> None:
        op, rc, line, err = self.results[-1]
        payload = json.loads(line)
        rel = payload["relations"][0]
        nonzero = next(i for i, c in enumerate(rel) if c != "0/1")
        rel[nonzero] = "7/3"
        corrupted = self.results[:-1] + [(op, rc, json.dumps(payload), err)]
        failed, _, problems = checks.tally(corrupted, {})
        self.assertEqual(failed, 1, problems)
        self.assertIn("leaves", problems[0])

    def test_missing_relation_is_counted_failed(self) -> None:
        op, rc, line, err = self.results[-1]
        payload = json.loads(line)
        payload["relations"].pop()
        failed, _, problems = checks.tally(self.results[:-1] + [(op, rc, json.dumps(payload), err)], {})
        self.assertEqual(failed, 1, problems)

    def test_raised_op_is_counted_failed(self) -> None:
        failed, certified, _ = checks.tally([(["expand", "rr:1", "--order", "5"], None, "", "boom")], {})
        self.assertEqual((failed, certified), (1, 0))

    def test_verify_checked_against_golden_and_exit_code(self) -> None:
        argv = ["verify", "RR-1", "--order", ORDER, "--json"]
        _, rc, out, _ = run(argv)
        key = checks.op_key(argv)
        self.assertEqual(checks.check_verify(argv, rc, out, {"verify": {key: ["PASS", "30/1"]}}), ([], True))
        problems, _ = checks.check_verify(argv, rc, out, {"verify": {key: ["PASS", "31/1"]}})
        self.assertEqual(len(problems), 1)
        problems, _ = checks.check_verify(argv, 3, out, {})
        self.assertIn("exit code", problems[0])

    def test_insufficient_order_golden_is_a_floor(self) -> None:
        argv = ["verify", "SPECIALIZE-L", "--order", "600", "--json"]
        goldens = {"verify": {checks.op_key(argv): ["INSUFFICIENT_ORDER", "546/1"]}}

        def check(status: str, order: str) -> tuple[list[str], bool]:
            report = {"id": "SPECIALIZE-L", "status": status, "order": order, "mismatch": None, "elapsed_ms": 1}
            return checks.check_verify(argv, checks.STATUS_EXIT[status], json.dumps(report), goldens)

        self.assertEqual(check("PASS", "600/1"), ([], True))
        self.assertEqual(check("INSUFFICIENT_ORDER", "546/1"), ([], False))
        self.assertEqual(check("INSUFFICIENT_ORDER", "580/1"), ([], False))
        for status, order in (("INSUFFICIENT_ORDER", "500/1"), ("PASS", "546/1"), ("FAIL", "600/1")):
            problems, ok = check(status, order)
            self.assertFalse(ok)
            self.assertTrue(any("golden" in p for p in problems), (status, order, problems))


class TracerTests(unittest.TestCase):
    def test_spans_counts_and_restore(self) -> None:
        before = {name: dict(vars(mod)) for name, mod in MODULES.items()}
        tracer = Tracer()
        tracer.install(MODULES)
        try:
            self.assertIsNot(MODULES["characters"].mul, before["series"]["mul"])
            _, rc, _, _ = run(["verify", "RR-1", "--order", ORDER, "--json"])
            _, _, text, _ = run(["expand", "rr:1", "--order", "10"])
        finally:
            tracer.restore()
        for name, mod in MODULES.items():
            for attr, value in before[name].items():
                self.assertIs(getattr(mod, attr), value, f"{name}.{attr} not restored")
        stats = tracer.metrics()
        self.assertEqual(rc, 0)
        self.assertEqual(stats["verify.check_record.calls"], 1)
        self.assertEqual(stats["verify.check_record.passes"], 1)
        self.assertEqual(stats["verify.check_record.futile_passes"], 0)
        self.assertGreater(stats["verify.check_s.RR-1"], 0)
        self.assertEqual(stats["series.to_text.bytes"], len(text))
        self.assertEqual(stats["cli.main.calls"], 2)
        for span in tracer.spans:
            name, start, end, parent = span
            self.assertLessEqual(start, end)
            if parent is not None:
                self.assertLessEqual(tracer.spans[parent][1], start)
                self.assertGreaterEqual(tracer.spans[parent][2], end)

    def test_missing_target_is_reported(self) -> None:
        modules = dict(MODULES, series=types.ModuleType("series"))
        tracer = Tracer()
        tracer.install(modules)
        tracer.restore()
        self.assertIn("series._kronecker_mul", tracer.missing)
        self.assertNotIn("series.kronecker_mul", tracer.installed)
        self.assertIn("verify.check_record", tracer.installed)
        self.assertEqual(run_script.source_of("series.kronecker_mul.pairs"), "series.kronecker_mul")
        self.assertEqual(run_script.source_of("verify.check_s.DECOMP-1.4"), "verify.check_record")
        self.assertEqual(run_script.source_of("cache.euler_phi.hits"), "cache.euler_phi")
        self.assertEqual(run_script.source_of("cache.hit_ratio"), "cache")

    def test_memos_found(self) -> None:
        memos = find_memos(MODULES)
        self.assertTrue({"minimal_char", "euler_phi", "fkw_character"} <= set(memos))


class InputTests(unittest.TestCase):
    IDS = tuple(r.id for r in MODULES["verify"].registry())

    def test_same_seed_same_ops(self) -> None:
        for workload in workloads.COLD:
            self.assertEqual(workloads.ops(workload, 5, self.IDS), workloads.ops(workload, 5, self.IDS))

    def test_seed_permutes_cold_ops_only(self) -> None:
        for workload in ("scalar-cold", "quintuple-deep"):
            a, b = workloads.ops(workload, 1, self.IDS), workloads.ops(workload, 2, self.IDS)
            self.assertEqual(sorted(a), sorted(b))
        self.assertEqual(len(workloads.ops("scalar-cold", 1, self.IDS)), 15)

    def test_explore_ladder(self) -> None:
        from fractions import Fraction

        ops = workloads.ops("explore-warm", 3, self.IDS)
        orders = sorted({Fraction(op[op.index("--order") + 1]) for op in ops})
        self.assertEqual(len(orders), 11)
        self.assertTrue(100 <= orders[0] < 101)
        self.assertEqual(orders[-1] - orders[0], 100)
        self.assertEqual(len(ops), 11 * 23)


if __name__ == "__main__":
    unittest.main()
