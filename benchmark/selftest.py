"""Tests of the benchmark itself: span arithmetic, hooks and the output gate.

Run from anywhere: python3 benchmark/selftest.py
They use tiny configs and take a few seconds.
"""
import os
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import stakenav.cli as cli  # noqa: E402
import stakenav.sim  # noqa: E402

import run as bench  # noqa: E402
import sample  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = [
    ("tiny", dict(workloads.BASE, robots=6, landmarks=12, loops=3, seed=5)),
    (
        "tiny-degraded",
        dict(workloads.BASE, robots=6, landmarks=12, loops=3, seed=5,
             degrade_pair=[1, 4], degrade_loops=[0, 1], degrade_factor=0.1),
    ),
]


class WorkDir(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        scratch = tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work"))
        self.addCleanup(scratch.cleanup)
        self.work = scratch.name

    def traced_unit(self, name, hooks=tracing.HOOKS):
        jobs = sample.write_configs(TINY, os.path.join(self.work, name))
        tracer = tracing.Tracer(hooks)
        with tracer.installed():
            ops = sample.run_unit(cli, jobs)
        return tracer, ops, sample.export_digests(jobs)


class SpanArithmetic(WorkDir):
    def test_self_time_is_span_minus_children(self):
        spans = [
            ["a", 0.0, 10.0, -1, 0],
            ["b", 1.0, 4.0, 0, 0],
            ["c", 2.0, 3.0, 1, 0],
            ["b", 5.0, 6.0, 0, 0],
        ]
        times = tracing.span_times(spans)
        self.assertEqual(times["a"], [1, 10.0, 6.0])
        self.assertEqual(times["b"], [2, 4.0, 3.0])
        self.assertEqual(times["c"], [1, 1.0, 1.0])

    def test_traced_self_times_are_not_negative(self):
        tracer, _, _ = self.traced_unit("a")
        resolution = time.get_clock_info("perf_counter").resolution
        for name, (calls, total, self_s) in tracing.span_times(tracer.spans).items():
            self.assertGreaterEqual(self_s, -2 * resolution * calls, name)
            self.assertLessEqual(self_s, total + 2 * resolution * calls, name)

    def test_spans_of_one_cli_call_share_its_root(self):
        tracer, ops, _ = self.traced_unit("a")
        roots = [i for i, span in enumerate(tracer.spans) if span[0] == "cli.main"]
        self.assertEqual(len(roots), len(ops))
        for span in tracer.spans:
            if span[3] >= 0:
                self.assertEqual(span[4], tracer.spans[span[3]][4])
        self.assertEqual({span[4] for span in tracer.spans}, set(roots))


class Hooks(WorkDir):
    def test_counts_repeat_exactly(self):
        first, _, _ = self.traced_unit("a")
        second, _, _ = self.traced_unit("b")
        counts = [{name: t.layer_metrics()[0][name] for name in tracing.COUNT_METRICS}
                  for t in (first, second)]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["sim.loops"], 6)
        self.assertGreater(counts[0]["ledger.blocks"], 0)
        self.assertEqual(counts[0]["ledger.encode_calls"], 4 * counts[0]["ledger.blocks"])
        elections = sum(counts[0][f"consensus.elections_{level}"]
                        for level in ("nav", "stake", "uniform"))
        self.assertEqual(elections, counts[0]["ledger.blocks"])
        self.assertTrue(0.0 < counts[0]["navigability.live_term_share"] <= 1.0)

    def test_missing_hook_is_an_absent_layer(self):
        hooks = dict(tracing.HOOKS)
        hooks["sim.emit_transactions"] = ("stakenav.sim", "emit_transactions_renamed")
        tracer, ops, _ = self.traced_unit("a", hooks)
        self.assertTrue(all(op["ok"] for op in ops))
        values, status = tracer.layer_metrics()
        for name in ("sim.emit_s", "sim.observations", "navigability.live_term_share"):
            self.assertEqual(status[name], "absent", name)
            self.assertEqual(values[name], 0, name)
        self.assertEqual(status["sim.move_s"], "ok")
        self.assertGreater(values["sim.move_s"], 0.0)

    def test_uncalled_hook_is_a_zero_call_layer(self):
        self.traced_unit("a")
        ledger = os.path.join(self.work, "a", "out", "tiny", sample.EXPORTS[0])
        tracer = tracing.Tracer()
        with tracer.installed():
            code, _, _ = sample._call(cli, ["--verify", ledger])
        self.assertEqual(code, 0)
        values, status = tracer.layer_metrics()
        self.assertEqual(status["sim.visibility_s"], "zero-call")
        self.assertEqual(values["sim.visibility_s"], 0.0)
        self.assertEqual(status["ledger.verify_s"], "ok")

    def test_hooks_are_removed_after_the_run(self):
        original = stakenav.sim.compute_visibility
        self.traced_unit("a")
        self.assertIs(stakenav.sim.compute_visibility, original)


class OutputGate(WorkDir):
    def test_traced_and_untraced_digests_match(self):
        jobs = sample.write_configs(TINY, os.path.join(self.work, "plain"))
        ops = sample.run_unit(cli, jobs)
        self.assertTrue(all(op["ok"] for op in ops))
        self.assertEqual(sample.export_problems(jobs, TINY), [])
        _, _, traced_digests = self.traced_unit("traced")
        self.assertEqual(sample.export_digests(jobs), traced_digests)

    def test_differing_exports_fail_their_run(self):
        ops = [{"label": "x", "kind": "run", "ok": True, "seconds": 1.0},
               {"label": "x", "kind": "verify", "ok": True, "seconds": 1.0}]
        good = {"ops": ops, "problems": [], "digests": {"x": {"ledger.jsonl": "aa"}}}
        bad = dict(good, digests={"x": {"ledger.jsonl": "bb"}})
        self.assertEqual(bench.count_failures([good, good])[:2], (4, 0))
        attempted, failed, problems = bench.count_failures([good, bad])
        self.assertEqual((attempted, failed), (4, 1))
        self.assertEqual(len(problems), 1)

    def test_every_workload_config_is_accepted(self):
        for name in workloads.WORKLOADS:
            configs = workloads.unit_configs(name, 1)
            self.assertEqual(len({c["seed"] for _, c in configs}),
                             len(configs) // (2 if workloads.WORKLOADS[name][2] else 1))
            jobs = sample.write_configs(configs, os.path.join(self.work, name))
            for (_, argv, _), (_, config) in zip(jobs, configs):
                request = cli.parse_config(cli.build_parser().parse_args(argv))
                self.assertEqual(request.config.seed, config["seed"])
            files = os.listdir(os.path.join(self.work, name, "configs"))
            self.assertEqual(len(files), 2 if workloads.WORKLOADS[name][2] else 1)


if __name__ == "__main__":
    unittest.main()
