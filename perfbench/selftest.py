"""Self-tests of the benchmark: its gates can fail and its tracing is whole.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Takes a few seconds.  Uses small cases, not the workloads.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import leftover_originals  # noqa: E402
from worker import _import_skewlab, run_cases, skewlab_caches  # noqa: E402
from workloads import Case  # noqa: E402

cli = _import_skewlab()


def _case(check: str, n: int, *argv: str) -> tuple[Case, list[str]]:
    return Case(argv, n, check), [*argv, "--seed", "5"]


SMALL = [
    _case("correspond", 7, "correspond", "from-matrix", "--n", "7"),
    _case("correspond", 9, "correspond", "from-form", "--n", "9"),
    _case("sample-odd", 9, "sample", "--m", "3", "--n", "9", "--trials", "50"),
    _case("sample-even", 6, "sample", "--m", "3", "--n", "6", "--trials", "5", "--p", "101"),
    _case("project", 9, "project", "--n", "9"),
]


def _digests(cases) -> dict:
    out = {}
    for _case, argv in cases:
        rc, stdout, error, _s = workloads.run_case(cli.main, argv)
        assert rc == 0 and error is None, (argv, rc, error)
        out[" ".join(argv)] = workloads.digest(stdout)
    return out


class Gates(unittest.TestCase):
    """Each gate turns a broken case into a failure counted against attempts."""

    @classmethod
    def setUpClass(cls):
        cls.cases = SMALL[:2]
        cls.good = _digests(cls.cases)

    def _run(self, cases, expected, main=None) -> dict:
        target = cli if main is None else types.SimpleNamespace(main=main)
        return run_cases(target, lambda _pass: cases, expected, seconds=0)

    def test_recorded_digests_pass(self):
        res = self._run(self.cases, self.good)
        self.assertEqual(res["failed"], 0, res["failures"])

    def test_corrupted_digest_fails(self):
        bad = dict(self.good)
        key = next(iter(bad))
        bad[key] = "0" * 64
        res = self._run(self.cases, bad)
        self.assertEqual(res["failed"] / res["attempted"], 0.5)
        self.assertTrue(all("digest" in f for f in res["failures"]))

    def test_nonzero_exit_fails(self):
        case, argv = self.cases[0]
        broken = [(case, argv + ["--p", "4"])]  # not a prime: exit 2
        with contextlib.redirect_stderr(io.StringIO()):
            res = self._run(broken, {})
        self.assertEqual(res["failed"] / res["attempted"], 1.0)
        self.assertTrue(all(f.endswith("exit 2") for f in res["failures"]))

    def test_exception_fails(self):
        def main(argv):
            raise ValueError("boom")

        res = self._run(self.cases, {}, main=main)
        self.assertEqual(res["failed"] / res["attempted"], 1.0)
        self.assertTrue(all("ValueError: boom" in f for f in res["failures"]))

    def test_false_ok_field_fails(self):
        case, argv = self.cases[0]
        rc, stdout, error, _s = workloads.run_case(cli.main, argv)
        doc = json.loads(stdout)
        doc["certificate"]["ok"] = False
        reason = workloads.verify(case, rc, json.dumps(doc), error, None)
        self.assertIn("certificate.ok", reason)

    def test_caches_start_empty_each_case(self):
        from skewlab import rings

        self.assertIn(rings.monomials, skewlab_caches())
        rings.monomials(3, 2)
        sizes = []

        def main(argv):
            sizes.append(rings.monomials.cache_info().currsize)
            return cli.main(argv)

        res = self._run(self.cases, {}, main=main)
        self.assertEqual(res["failed"], 0, res["failures"])
        self.assertGreater(rings.monomials.cache_info().currsize, 0)
        self.assertEqual(sizes, [0] * res["attempted"])

    def test_recorded_table_covers_default_seed(self):
        for name in workloads.WORKLOADS:
            table = workloads.load_digests(name)
            keys = {" ".join(argv) for _c, argv in workloads.case_argvs(name, workloads.DEFAULT_SEED)}
            self.assertEqual(set(table), keys, name)

    def test_case_seeds_follow_the_run_seed(self):
        a = workloads.case_argvs("fp-correspond", 3)
        self.assertEqual(a, workloads.case_argvs("fp-correspond", 3))
        self.assertNotEqual(a, workloads.case_argvs("fp-correspond", 4))

    def test_each_pass_draws_new_inputs_for_the_same_cases(self):
        first = workloads.case_argvs("locus-ledger", 3)
        later = workloads.case_argvs("locus-ledger", 3, pass_no=1)
        self.assertEqual([c for c, _a in first], [c for c, _a in later])
        self.assertEqual(later, workloads.case_argvs("locus-ledger", 3, pass_no=1))
        for (case, a), (_c, b) in zip(first, later):
            self.assertEqual(a == b, not case.seeded, a)


class Calibration(unittest.TestCase):
    def test_times_scale_by_the_nearby_kernel_median(self):
        nominal = reference.NOMINAL_S
        # The host halves its speed after the fifth case; one kernel
        # time is an outlier, outvoted by its neighbours.
        kernel = [nominal] * 5 + [2 * nominal] * 5
        kernel[1] = 9 * nominal
        out = reference.calibrate([1.0] * 5 + [2.0] * 5, kernel)
        self.assertEqual(out[:3] + out[-3:], [1.0] * 6)

    def test_kernel_runs_with_the_collector_as_it_was(self):
        import gc

        self.assertTrue(gc.isenabled())
        self.assertGreater(reference.run(), 0)
        self.assertTrue(gc.isenabled())


class Tracing(unittest.TestCase):
    def test_no_unwrapped_original_left(self):
        tracer = layers.make_tracer()
        modules = layers.traced_modules()
        methods = layers.traced_methods()
        tracer.install(modules, methods)
        try:
            self.assertEqual(leftover_originals(tracer, modules, methods), [])
            from skewlab import correspond, rings, skew

            self.assertIs(correspond.sub_pfaffians, skew.sub_pfaffians)
            self.assertIsNot(skew.sub_pfaffians, tracer.originals["skew.sub_pfaffians"])
            self.assertIsNot(
                rings.HomogPoly.__mul__, tracer.originals["rings.HomogPoly.__mul__"]
            )
            self.assertIsNot(cli._HANDLERS["correspond"], tracer.originals["cli.cmd_correspond"])
            self.assertIn("linalg.kernel_basis", tracer.originals)
        finally:
            tracer.uninstall()
        for name, fn in tracer.originals.items():
            layer, attr = name.split(".", 1)
            if "." not in attr:
                self.assertIs(getattr(modules[layer], attr), fn, name)

    def test_self_times_sum_to_wall_within_overhead(self):
        tracing = (layers.make_tracer(), layers.traced_modules(), layers.traced_methods())
        res = run_cases(cli, lambda _pass: SMALL, {}, seconds=0, tracing=tracing)
        self.assertEqual(res["failed"], 0, res["failures"])
        overhead = res["per_layer"]["trace.overhead_ratio"][0]
        for wall, unaccounted in res["trace"]["case_wall_and_unaccounted_s"]:
            self.assertLessEqual(abs(unaccounted), max(overhead - 1, 0) * wall + 1e-4)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        tracing = (layers.make_tracer(), layers.traced_modules(), layers.traced_methods())
        res = run_cases(cli, lambda _pass: SMALL[:1], {}, seconds=0, tracing=tracing)
        e2e = dict(res["end_to_end"], setup_s=(0.0, "s"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, {k: u for k, (_v, u) in e2e.items()})
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {k: u for k, (_v, u) in res["per_layer"].items()},
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))


class Checkout(unittest.TestCase):
    def test_refuses_without_source(self):
        bare = os.path.join(HERE, "out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "locus-ledger", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
