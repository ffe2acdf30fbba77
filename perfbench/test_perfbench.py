"""Self-tests of the benchmark: every checker rejects doctored output,
seeded inputs repeat exactly, and the tracer sees every layer call.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, summarise  # noqa: E402


def ncpms(vs):
    """Every non-crossing perfect matching of the vertex run `vs`."""
    if not vs:
        return [()]
    return [((vs[0], vs[k]),) + inner + outer
            for k in range(1, len(vs), 2)
            for inner in ncpms(vs[1:k]) for outer in ncpms(vs[k + 1:])]


def spm_lines(m: int) -> bytes:
    keys = sorted(tuple(sorted(s)) for s in ncpms(tuple(range(2 * m))))
    return "".join(ref.edges_text(k) + "\n" for k in keys).encode()


class ReferenceTest(unittest.TestCase):
    def test_blocker_formula_gives_m_times_2_to_m_minus_1_sets(self):
        for m in range(2, 8):
            self.assertEqual(len(ref.all_blockers(m)), ref.blocker_count(m))

    def test_catalan_matches_enumeration(self):
        for m in range(1, 7):
            self.assertEqual(len(ncpms(tuple(range(2 * m)))), ref.catalan(m))

    def test_is_ncpm(self):
        self.assertTrue(ref.is_ncpm(3, [(0, 1), (2, 5), (3, 4)]))
        self.assertFalse(ref.is_ncpm(3, [(0, 3), (1, 4), (2, 5)]))
        self.assertFalse(ref.is_ncpm(3, [(0, 1), (1, 2), (3, 4)]))

    def test_seeded_inputs_repeat_exactly(self):
        a = ref.check_stream_batches(7, 6)
        b = ref.check_stream_batches(7, 6)
        first = [next(a) for _ in range(5)]
        self.assertEqual(first, [next(b) for _ in range(5)])
        other = ref.check_stream_batches(8, 6)
        self.assertNotEqual(first, [next(other) for _ in range(5)])
        self.assertEqual(ref.roundtrip_inputs(3, 6), ref.roundtrip_inputs(3, 6))
        self.assertEqual(ref.spm_sample(3, 1000, 9), ref.spm_sample(3, 1000, 9))

    def test_batches_keep_the_split_and_give_m_distinct_edges(self):
        batch = next(ref.check_stream_batches(1, 9))
        kinds = [kind for kind, _edges in batch]
        self.assertEqual(kinds.count(ref.BLOCKER), 9)
        for kind in ref.MUTANT_KINDS:
            self.assertEqual(kinds.count(kind), 1)
        for _kind, edges in batch:
            self.assertEqual(len(set(edges)), 9)


class CheckerTest(unittest.TestCase):
    m = 3
    # Not a blocker: it misses the matching 0-3,1-2,4-5.
    candidate = ((0, 1), (1, 4), (3, 4))
    missed = [[0, 5], [1, 2], [3, 4]]

    def payload(self, **changes) -> str:
        body = {"ok": False, "violation": "bad_leg_attachment",
                "missed_spm": [[0, 3], [1, 2], [4, 5]], "blocks_all_spms": False}
        body.update(changes)
        return json.dumps(body)

    def test_accepts_a_correct_non_blocker_report(self):
        self.assertEqual(checks.check_blocker_call(
            self.m, self.candidate, None, 1, self.payload()), [])

    def test_rejects_a_crossing_missed_spm(self):
        problems = checks.check_blocker_call(
            self.m, self.candidate, None, 1,
            self.payload(missed_spm=[[0, 3], [1, 4], [2, 5]]))
        self.assertTrue(any("non-crossing" in p for p in problems), problems)

    def test_rejects_a_missed_spm_that_meets_the_candidate(self):
        problems = checks.check_blocker_call(
            self.m, self.candidate, None, 1, self.payload(missed_spm=self.missed))
        self.assertTrue(any("meets" in p for p in problems), problems)

    def test_rejects_a_wrong_exit_code(self):
        problems = checks.check_blocker_call(
            self.m, self.candidate, None, 0, self.payload())
        self.assertTrue(any("exit code" in p for p in problems), problems)
        blocker = ref.blocker_edges(3, 0, 2, (1,))
        good = json.dumps({"ok": True, "start": 0, "t": 2, "eps": [1],
                           "edges": [list(e) for e in blocker],
                           "blocks_all_spms": True})
        self.assertEqual(checks.check_blocker_call(3, blocker, (0, 2, (1,)), 0, good), [])
        self.assertTrue(checks.check_blocker_call(3, blocker, (0, 2, (1,)), 1, good))

    def test_spm_checker_rejects_a_dropped_line(self):
        data = spm_lines(5)
        sample = ref.spm_sample(1, ref.catalan(5), 20)
        self.assertEqual(checks.check_spm_lines(5, data, 0, sample)[1:], (0, []))
        lines = data.splitlines(keepends=True)
        attempted, failed, problems = checks.check_spm_lines(
            5, b"".join(lines[:10] + lines[11:]), 0, sample)
        self.assertEqual(attempted, ref.catalan(5))
        self.assertGreater(failed, 0)
        self.assertTrue(problems)

    def test_spm_checker_rejects_a_repeat_and_a_bad_exit_code(self):
        lines = spm_lines(4).splitlines(keepends=True)
        repeated = b"".join(lines[:5] + [lines[4]] + lines[6:])
        self.assertGreater(checks.check_spm_lines(4, repeated, 0, [])[1], 0)
        self.assertGreater(checks.check_spm_lines(4, spm_lines(4), 1, [])[1], 0)

    def test_spm_checker_rejects_a_crossing_sampled_line(self):
        lines = spm_lines(3).splitlines(keepends=True)
        self.assertEqual(lines[2], b"0-3,1-2,4-5\n")
        lines[2] = b"0-3,1-4,2-5\n"  # still in order, but crossing
        data = b"".join(lines)
        self.assertEqual(checks.check_spm_lines(3, data, 0, [0, 1])[1], 0)
        self.assertEqual(checks.check_spm_lines(3, data, 0, [0, 2])[1], 1)

    def verify_lines(self, m_max=4, naive_up_to=3):
        out = []
        for m in range(2, m_max + 1):
            naive = True if m <= naive_up_to else None
            out.append(json.dumps({
                "m": m, "verdict": "PASS", "spm_count": ref.catalan(m),
                "expected_spm_count": ref.catalan(m),
                "generated_count": ref.blocker_count(m),
                "oracle_count": ref.blocker_count(m),
                "formula_count": ref.blocker_count(m), "set_equality": True,
                "structural_pass": True, "blocks_all_spms": True,
                "naive_agrees": naive, "lower_bound_pass": naive}))
        return out

    def test_verify_checker(self):
        lines = self.verify_lines()
        self.assertEqual(checks.check_verify("\n".join(lines), 0, 2, 4, 3), (3, 0, []))
        self.assertEqual(checks.check_verify("\n".join(lines), 1, 2, 4, 3)[1], 1)
        self.assertEqual(checks.check_verify("\n".join(lines[:2]), 0, 2, 4, 3)[1], 1)
        wrong = lines[1].replace(f'"oracle_count": {ref.blocker_count(3)}',
                                 '"oracle_count": 11')
        self.assertEqual(checks.check_verify(
            "\n".join([lines[0], wrong, lines[2]]), 0, 2, 4, 3)[1], 1)

    def test_roundtrip_checkers(self):
        spec = (0, 2, (1,))
        self.assertEqual(checks.check_roundtrip_item(spec, spec, True), [])
        self.assertTrue(checks.check_roundtrip_item(spec, (1, 2, (1,)), True))
        self.assertTrue(checks.check_roundtrip_item(spec, spec, False))
        self.assertEqual(checks.check_roundtrip_item(None, "crossing_pair", False), [])
        self.assertTrue(checks.check_roundtrip_item(None, spec, False))
        self.assertTrue(checks.check_roundtrip_item(None, "crossing_pair", True))
        truth = ref.all_blockers(4)
        keys = sorted(truth)
        self.assertEqual(checks.check_enumerated(4, keys, truth), [])
        self.assertTrue(checks.check_enumerated(4, keys[:-1] + keys[:1], truth))


class HarnessTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        samples = list(range(100))
        p50, tail, name = run.percentiles(samples)
        self.assertEqual((p50, sum(s > tail for s in samples)), (49.5, 10))
        self.assertTrue(name.startswith("p90.00"))
        self.assertEqual(run.percentiles([3, 1, 5])[:2], (3, 3))

    def test_refuses_to_run_without_the_package(self):
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               "spm_dump", "--seed", "1", "--seconds", "1"],
                              cwd=HERE, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        plain = run.Pass(1.0, 1, 1, 0, [1.0], 1024)
        metrics, _ = run.end_to_end([plain], 0.1, [1.0])
        self.assertEqual({k: u for k, (_v, u) in metrics.items()},
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})
        traced = run.Pass(1.0, 1, 1, 0, [1.0], traced=True, traces=[
            {"functions": {}, "cli_layer_self_ms": 0.0}])
        metrics, _ = run.per_layer([plain], [traced], 1.0)
        self.assertEqual({k: u for k, (_v, u) in metrics.items()},
                         {m["name"]: m["unit"] for m in spec["per_layer"]})


class TracerTest(unittest.TestCase):
    def test_spans_cover_every_layer_and_rebinding_is_undone(self):
        from convex_blockers import cli, verify
        original = verify.validate_caterpillar
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(verify.validate_caterpillar, original)
            status = cli.run_cli(["verify", "--m-min", "2", "--m-max", "3",
                                  "--naive-up-to", "3"])
        finally:
            tracer.uninstall()
        self.assertEqual(status, 0)
        self.assertIs(verify.validate_caterpillar, original)
        names = {span[0] for span in tracer.spans}
        for name in ("cli.run_cli", "cli.cmd_verify", "verify.verify_theorem",
                     "oracle.build_family_index", "matchings.enumerate_spms",
                     "blockers.enumerate_blockers", "blockers.generate_blocker",
                     "oracle.find_minimum_blockers", "oracle.is_blocking_set"):
            self.assertIn(name, names)
        summary = summarise(tracer.spans)["functions"]
        self.assertEqual(summary["oracle.search_naive"]["calls"], 2)
        self.assertEqual(summary["oracle.search_pruned"]["calls"], 2)
        self.assertEqual(summary["matchings.enumerate_spms"]["note_sum"], 2 + 5)
        for row in summary.values():
            self.assertLessEqual(row["self_ms"], row["ms"] + 1e-9)
            self.assertGreaterEqual(row["self_ms"], 0)


if __name__ == "__main__":
    unittest.main()
