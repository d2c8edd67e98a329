"""Self-tests of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite (the file name does not match
`test_*.py`); they exercise the harness, not the package.
"""

from __future__ import annotations

import shutil
import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.out = run.WORK / "selftest"
        self.out.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def _ctx(self, name: str) -> run.Context:
        return run.prepare(workloads.build(name, 7, tiny=True), self.out)

    def test_every_declared_metric_is_emitted_with_its_unit_for_every_workload(self):
        declared = run.declared_metrics()
        measured: set[str] = set()  # per-layer metrics some workload moves off 0
        for name in workloads.NAMES:
            for trace, units in enumerate(declared):
                with self.subTest(workload=name, trace=trace):
                    wl = workloads.build(name, 3, tiny=True)
                    result, _ = run.measure_run(wl, 3, 0.01, trace, self.out, spawns=1)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual(list(result["metrics"]), list(units))
                    for key, unit in units.items():
                        self.assertEqual(result["metrics"][key]["unit"], unit)
                        self.assertIsInstance(result["metrics"][key]["value"], float)
                    measured |= {k for k, v in result["metrics"].items() if v["value"]}
                    self.assertEqual(result["attempted"], len(wl.ops))
                    self.assertTrue(result["correct"])
        # a declared name the harness never computes would read 0 everywhere
        self.assertEqual(set(declared[1]) - measured, set())

    def test_check_flags_a_plane_value_perturbed_by_1e_6(self):
        from polqpdf.qpdf import QpdfGrid

        ctx = self._ctx("density_planes")
        for op in ctx.workload.ops:
            result = run.execute(op, ctx)
            if op.api == "plane":
                break
        self.assertTrue(checks.check(op, result, ctx).ok)
        grid = result.value
        values = grid.values.copy()
        values[len(values) // 2] += 1e-6
        bad = checks.ApiResult(QpdfGrid(grid.axis_kind, grid.axis_values, values, grid.meta), None)
        self.assertFalse(checks.check(op, bad, ctx).ok)

    def test_check_flags_a_csv_value_perturbed_by_1e_6(self):
        ctx = self._ctx("trace_sweeps")
        op = next(o for o in ctx.workload.ops if o.params["s"] <= 0)
        result = run.execute(op, ctx)
        self.assertTrue(checks.check(op, result, ctx).ok)
        path = ctx.out / op.params["csv"]
        lines = path.read_text().splitlines()
        axis, value = lines[-1].split(",")
        lines[-1] = f"{axis},{float(value) + 1e-6!r}"
        path.write_text("\n".join(lines) + "\n")
        self.assertFalse(checks.check(op, result, ctx).ok)

    def test_check_flags_undocumented_exceptions(self):
        ctx = self._ctx("audits")
        for op in ctx.workload.ops:
            raised = checks.CliResult(None, ValueError("boom"), "", "")
            self.assertFalse(checks.check(op, raised, ctx).ok, op.label)
        usage = workloads.Op("invalid", ("sweep",), params=dict(expect=4))
        result = run.execute(usage, ctx)  # argparse exits instead of returning
        self.assertIsInstance(result.exc, SystemExit)
        self.assertFalse(checks.check(usage, result, ctx).ok)
        plane = next(o for o in self._ctx("density_planes").workload.ops if o.api == "plane")
        self.assertFalse(checks.check(plane, checks.ApiResult(None, RuntimeError()), ctx).ok)

    def test_failures_count_in_the_error_ratio(self):
        ctx = self._ctx("audits")
        good, bad = (replace(op, defect="") for op in ctx.workload.ops[:2])
        ok, fail = checks.Outcome(True), checks.Outcome(False)
        # three passes: each distinct operation counts once, and fails when
        # any of its runs failed
        log = run.PassLog(outcomes=[(good, ok), (bad, ok), (good, ok), (bad, fail),
                                    (good, ok), (bad, ok)])
        attempted, failed, unexpected, _ = run.summarize([log])
        self.assertEqual((attempted, failed, unexpected), (2, 1, 1))

    def test_known_defects_count_as_failed_but_only_in_their_known_form(self):
        op = next(o for o in self._ctx("audits").workload.ops if o.defect)
        known = checks.Outcome(False, "undocumented ValueError: zero-size array")
        other = checks.Outcome(False, "exit code 2: FAIL")
        other_op = replace(op)  # the same input, a distinct operation
        log = run.PassLog(outcomes=[(op, known), (op, known), (other_op, known)])
        self.assertEqual(run.summarize([log])[:3], (2, 2, 0))
        log.outcomes.append((other_op, other))
        self.assertEqual(run.summarize([log])[:3], (2, 2, 1))

    def test_timings_scale_by_their_own_pass_or_spawn(self):
        ref = hostspeed.KERNEL_REF_S
        # samples before latency 0, twice before 2 (around a spawn), at the end
        log = run.PassLog(latencies=[0.25, 0.75, 1.0, 1.0], walls=[1.0, 2.0],
                          kernel=[(0, ref / 2), (2, ref / 2), (2, ref * 2), (4, ref * 2)])
        self.assertEqual(log.scaled_latencies(), [0.5, 1.5, 0.5, 0.5])
        self.assertEqual(log.scaled_walls(), [2.0, 1.0])
        sample = run.SetupSample(raw=1.5, ref=2 * hostspeed.SPAWN_REF_S)
        self.assertAlmostEqual(sample.scaled, 0.75)

    def test_one_seed_gives_identical_inputs_and_two_seeds_different(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                self.assertEqual(workloads.build(name, 11), workloads.build(name, 11))
                self.assertNotEqual(workloads.build(name, 11), workloads.build(name, 12))


if __name__ == "__main__":
    unittest.main()
