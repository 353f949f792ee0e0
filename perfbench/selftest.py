"""Tests of the benchmark's own machinery.

    python3 perfbench/selftest.py      # from the root of the checkout

They show that a wrong result counts as a failed op, that the oracles
and span arithmetic are right, and that tracing changes no result.
"""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

fq = run.import_finiteqg()


class _Fixed:
    """A workload with a fixed op list."""

    def __init__(self, ops):
        self._ops = ops

    def ops(self, round_no):
        return self._ops


def _run_once(workload):
    results, _, _ = run.run_rounds(workload, 0.0)
    return results, run.report_failures(results)


class FailedOps(unittest.TestCase):
    def test_mismatch_and_exception_count_as_failed(self):
        def boom():
            raise RuntimeError("broken")
        ops = [workloads.Op("a", "good", lambda: 1, lambda out: []),
               workloads.Op("a", "wrong", lambda: 2, lambda out: ["2 != 1"]),
               workloads.Op("a", "raises", boom, lambda out: [])]
        results, failed = _run_once(_Fixed(ops))
        self.assertEqual(failed, 2)
        self.assertEqual([bool(r["bad"]) for r in results],
                         [False, True, True])

    def test_wrong_dual_fails_every_small_op(self):
        wl = workloads.Small.__new__(workloads.Small)
        wl.fq, wl.tmp = fq, Path(run.ROOT / ".perfbench")
        wl.tmp.mkdir(exist_ok=True)
        g = fq.groups
        wl.inputs = [[(s, oracles.conjugation_table(s.table))
                      for s in (g.symmetric(3), g.cyclic(4))]]
        real = fq.duality.dualize

        def drop_a_block(H, *args, **kwargs):
            D = real(H, *args, **kwargs)
            return type("Wrong", (), {"irr_dims": D.irr_dims[:-1]})()
        fq.duality.dualize = drop_a_block
        try:
            _, failed = _run_once(_Fixed(wl.ops(0)))
        finally:
            fq.duality.dualize = real
        self.assertEqual(failed, 2)
        _, failed = _run_once(_Fixed(wl.ops(0)))
        self.assertEqual(failed, 0)

    def test_cli_report_mismatches(self):
        expected = {"classes": [[0, 1], [2]], "ergodic": False}
        good = {"checks": [{"name": "x", "passed": True}],
                "results": {"classes": [[0, 1], [2]], "ergodic": False}}
        self.assertEqual(oracles.cli_report(0, good, expected), [])
        wrong = {"checks": good["checks"],
                 "results": {"classes": [[0], [1, 2]], "ergodic": False}}
        failing = {"checks": [{"name": "x", "passed": False}],
                   "results": good["results"]}
        self.assertTrue(oracles.cli_report(0, wrong, expected))
        self.assertTrue(oracles.cli_report(0, failing, expected))
        self.assertTrue(oracles.cli_report(1, good, expected))
        self.assertTrue(oracles.cli_report(0, None, expected))


class Oracles(unittest.TestCase):
    def test_table_facts_survive_relabelling(self):
        g = fq.groups
        for grp, classes, ab in ((g.symmetric(3), 3, 2), (g.quaternion(), 5, 4),
                                 (g.cyclic(6), 6, 6)):
            for seed in (1, 2):
                perm = np.random.default_rng(seed).permutation(grp.order)
                t = oracles.relabel(grp.table, perm)
                g.check_group_table(t)
                self.assertEqual(len(oracles.conjugacy_classes(t)), classes)
                self.assertEqual(oracles.abelianization_order(t), ab)
                dims = oracles.IRREP_DIMS[grp.name]
                self.assertEqual(
                    oracles.function_algebra_dual(grp.name, t, dims), [])

    def test_plancherel(self):
        h = oracles.plancherel_haar([1, 2])
        self.assertEqual(h, [[0.2, 0.0], [0.4, 0.0], [0.0, 0.0],
                             [0.0, 0.0], [0.4, 0.0]])


class Tracing(unittest.TestCase):
    def test_self_times(self):
        s = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]]
        self.assertEqual(spans.self_times(s), [6.0, 2.0, 1.0, 1.0])

    def test_install_records_and_uninstall_restores(self):
        originals = (fq.duality.dualize, fq.hopf.verify_hopf,
                     fq.core.BlockAlgebra.norm_coeffs)
        H = fq.hopf.function_algebra(fq.groups.symmetric(3))
        plain = fq.duality.dualize(H).irr_dims
        rec = spans.Recorder().install()
        try:
            traced = fq.duality.dualize(H).irr_dims
        finally:
            rec.uninstall()
        self.assertEqual(plain, traced)
        self.assertEqual(originals, (fq.duality.dualize, fq.hopf.verify_hopf,
                                     fq.core.BlockAlgebra.norm_coeffs))
        names = {s[0] for s in rec.spans}
        self.assertTrue({"duality.dualize", "hopf.verify_hopf", "core.norm",
                         "wedderburn.decompose_abstract"} <= names)
        metrics = spans.summarize(rec.spans, 0, 1, 1.0)
        self.assertEqual(set(metrics) | {"trace.overhead_frac", "host.ref_s"},
                         {name for name, _, _ in spans.PER_LAYER})


if __name__ == "__main__":
    unittest.main()
