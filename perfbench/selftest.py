"""Self-tests for the benchmark's own arithmetic.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Covers the percentile rule, span self time with nested, overlapping and
overhanging children, name rebinding for functions imported by name,
the cross-check comparison, the host-speed scaling and the fingerprint
schema.
"""

from __future__ import annotations

import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from fingerprint import SCHEMA, collect, validate  # noqa: E402
from spans import Probe, Tracer, installed, self_times  # noqa: E402
from stats import median, percentile, tail  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_interpolates_like_numpy(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(percentile(samples, 0), 1.0)
        self.assertEqual(percentile(samples, 100), 4.0)
        self.assertAlmostEqual(percentile(samples, 50), 2.5)
        self.assertAlmostEqual(percentile(samples, 90), 3.7)
        self.assertEqual(median([5.0]), 5.0)

    def test_empty_and_out_of_range_are_errors(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1.0], 101)

    def test_too_few_samples_support_no_tail(self):
        self.assertIsNone(tail([1.0, 2.0, 3.0, 4.0]))
        self.assertIsNone(tail([float(i) for i in range(99)]))

    def test_highest_percentile_with_ten_samples_beyond(self):
        for count, expected in ((100, 90.0), (128, 90.0), (999, 90.0),
                                (1000, 99.0), (9999, 99.0), (10000, 99.9)):
            samples = [float(i) for i in range(count)]
            found = tail(samples)
            self.assertEqual(found.percentile, expected, count)
            self.assertEqual(found.samples, count)
            self.assertAlmostEqual(found.value, percentile(samples, expected))


class SelfTime(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(self_times([0.0], [2.5], [-1]), [2.5])

    def test_sequential_children_are_subtracted(self):
        starts = [0.0, 1.0, 4.0]
        ends = [10.0, 3.0, 7.0]
        self.assertEqual(self_times(starts, ends, [-1, 0, 0]), [5.0, 2.0, 3.0])

    def test_only_direct_children_count(self):
        # parent 0..10, child 1..9, grandchild 2..8
        out = self_times([0.0, 1.0, 2.0], [10.0, 9.0, 8.0], [-1, 0, 1])
        self.assertEqual(out, [2.0, 2.0, 6.0])

    def test_overlapping_children_are_subtracted_once(self):
        # children 1..5 and 3..7 cover 1..7: six seconds, not eight
        out = self_times([0.0, 1.0, 3.0], [10.0, 5.0, 7.0], [-1, 0, 0])
        self.assertEqual(out[0], 4.0)

    def test_contained_and_unsorted_children(self):
        # 5..6 lies inside 2..8; listed before it
        out = self_times([0.0, 5.0, 2.0], [10.0, 6.0, 8.0], [-1, 0, 0])
        self.assertEqual(out[0], 4.0)

    def test_overhanging_child_is_clipped_to_the_parent(self):
        out = self_times([0.0, 8.0], [10.0, 15.0], [-1, 0])
        self.assertEqual(out[0], 8.0)


class Rebinding(unittest.TestCase):
    """A function imported by name is traced wherever it is looked up."""

    def setUp(self):
        kernels = types.ModuleType("benchpkg.kernels")

        def square(x):
            return x * x

        def twice_square(x):
            return 2 * kernels.square(x)

        kernels.square = square
        kernels.twice_square = twice_square
        user = types.ModuleType("benchpkg.user")
        user.square = square  # ``from .kernels import square``
        user.call = lambda x: user.square(x)

        class Engine:
            def handle(self, x):
                return user.call(x) + 1

        user.Engine = Engine
        self.modules = {"benchpkg.kernels": kernels, "benchpkg.user": user}
        sys.modules.update(self.modules)
        self.kernels, self.user, self.square = kernels, user, square

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_callers_that_bound_the_name_are_traced_and_restored(self):
        tracer = Tracer("selftest")
        tracer.install([
            Probe("gf", "benchpkg.kernels:square", lambda a, r: a[0]),
            Probe("gf", "benchpkg.kernels:twice_square", lambda a, r: a[0]),
            Probe("engine", "benchpkg.user:Engine.handle",
                  hook=lambda counts, a, r: counts.__setitem__("seen", r)),
        ])
        try:
            self.assertEqual(self.user.Engine().handle(3), 10)
            self.assertEqual(self.kernels.twice_square(2), 8)
        finally:
            tracer.uninstall()
        self.assertIs(self.user.square, self.square)
        self.assertIs(self.kernels.square, self.square)
        spans = [tracer.names[i] for i in tracer.name]
        self.assertEqual(spans, ["engine:Engine.handle", "gf:square",
                                 "gf:twice_square", "gf:square"])
        totals = tracer.summarize()
        # twice_square -> square nests inside one layer: one outermost
        # gf call per entry from outside, units from outermost spans.
        self.assertEqual(totals["gf"].calls, 2)
        self.assertEqual(totals["gf"].units, 3 + 2)
        self.assertEqual(totals["engine"].calls, 1)
        self.assertEqual(tracer.counts["seen"], 10)
        self.assertEqual(tracer.parent[1], 0)  # square inside handle
        wall = max(tracer.end) - min(tracer.start)
        self.assertLessEqual(sum(t.self_s for t in totals.values()), wall + 1e-9)

    def test_a_missing_target_leaves_nothing_patched(self):
        probes = [Probe("gf", "benchpkg.kernels:square"),
                  Probe("gf", "benchpkg.kernels:cube")]
        with self.assertRaises(AttributeError):
            with installed(Tracer("selftest"), probes):
                pass
        self.assertIs(self.user.square, self.square)
        self.assertIs(self.kernels.square, self.square)

    def test_coroutines_are_refused(self):
        async def pump():
            return None

        with self.assertRaises(TypeError):
            Tracer("selftest").wrap("net:pump", pump)


class CrossCheck(unittest.TestCase):
    def test_mismatch_is_reported_and_absent_counters_skipped(self):
        from crosscheck import compare
        from spans import LayerTotals

        totals = {"sim": LayerTotals(calls=157)}
        counts = {"dataplane.ingested": 40.0, "coding.pool.leases": 0.0}
        ok = {"sim.slots": 157.0, "sim.sends_delivered": 40.0,
              "coding.pool.leases": 0.0}
        self.assertEqual(compare("sim_bulk", totals, counts, ok), [])
        bad = dict(ok, **{"sim.sends_delivered": 41.0})
        problems = compare("sim_bulk", totals, counts, bad)
        self.assertEqual(len(problems), 1)
        self.assertIn("sim.sends_delivered", problems[0])


class HostSpeed(unittest.TestCase):
    def test_slowdown_is_the_mean_share_weighted_ratio_to_nominal(self):
        usual = hostspeed.Sample(hostspeed.INTERP_NOMINAL_S,
                                 hostspeed.TABLES_NOMINAL_S)
        slow = hostspeed.Sample(2 * usual.interp, 4 * usual.tables)
        self.assertAlmostEqual(hostspeed.slowdown([usual]), 1.0)
        self.assertAlmostEqual(hostspeed.slowdown([usual], 0.5), 1.0)
        self.assertAlmostEqual(hostspeed.slowdown([slow]), 2.0)
        self.assertAlmostEqual(hostspeed.slowdown([slow], 1.0), 4.0)
        self.assertAlmostEqual(hostspeed.slowdown([slow], 0.5), 3.0)
        self.assertAlmostEqual(hostspeed.slowdown([usual, slow], 0.5), 2.0)

    def test_a_sample_is_positive(self):
        self.assertTrue(all(t > 0.0 for t in hostspeed.sample()))


class Fingerprint(unittest.TestCase):
    def test_collected_fingerprint_matches_the_schema(self):
        fp = collect(HERE.parent, thread_cap=2)
        self.assertEqual(validate(fp), [])
        for section, keys in SCHEMA.items():
            self.assertTrue(set(keys) <= set(fp[section]), section)
        self.assertEqual(fp["blas"]["thread_cap"], 2)
        self.assertEqual(len(fp["code"]["src_digest"]), 16)

    def test_broken_fingerprints_are_rejected(self):
        fp = collect(HERE.parent, thread_cap=2)
        del fp["cpu"]["model"]
        fp["blas"]["thread_cap"] = 0
        problems = validate(fp)
        self.assertIn("missing cpu.model", problems)
        self.assertTrue(any("thread_cap" in p for p in problems))
        self.assertIn("missing section 'numpy'",
                      validate({k: v for k, v in fp.items() if k != "numpy"}))


if __name__ == "__main__":
    unittest.main()
