"""The three benchmark workloads.

Each workload builds its inputs once (``__init__``, the timed set-up) and
then hands out rounds: a round is the workload's fixed problem list, and
an op is one problem carried to a verified result.  ``Op.run`` is what is
timed; ``Op.check`` compares its outputs with the oracles afterwards.
The seed only relabels inputs (a permutation of each Cayley table, or
the CLI ``--seed``), so the mix of problems never depends on it.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    cls: str                      # the group an op's time is reported under
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _relabelled(groups, base, seed, round_no, op_no):
    """``base`` with its elements renamed by a seeded permutation."""
    perm = np.random.default_rng([seed, round_no, op_no]).permutation(
        base.order)
    elements = [None] * base.order
    for old, new in enumerate(perm):
        elements[new] = base.elements[old]
    # FiniteGroup validates the relabelled table on construction
    return groups.FiniteGroup(base.name, tuple(elements),
                              oracles.relabel(base.table, perm))


def _dual_check(kind, group):
    table = group.table

    def check(out):
        vector, dims = out
        bad = oracles.haar_vector(kind, table, vector)
        if kind == "C":
            return bad + oracles.function_algebra_dual(group.name, table, dims)
        return bad + oracles.group_algebra_dual(group.name, table, dims)
    return check


class Ladder:
    """C(G) and C[G] at d = 8, 12, 16: constructor (with verification),
    Haar state and dual, no multiplicative unitary; 18 ops per round.

    Rungs left out because one op takes minutes at the commit that
    defined this benchmark (2 cores, OpenBLAS 0.3.31); add them once the
    dense tensor-square norms are gone:

    * d = 24, C(S4) and S3 x Z4: ``verify_hopf`` 61 s, ``dualize`` 81-96 s,
      about 3 GB;
    * the Drinfeld double D(S3), d = 36;
    * ``mult_unitary`` at d = 12: 72 s.
    """

    name = "ladder"
    POOL = 4          # rounds with distinct inputs; later rounds reuse them

    def __init__(self, fq, seed, tmp):
        g = fq.groups
        self.fq = fq
        # (group, copies): three relabelled copies of each d=12 group put
        # the median op in the middle of the d=12 rung, not at its edge
        bases = [(g.direct_product(g.cyclic(4), g.cyclic(4)), 1),
                 (g.direct_product(g.cyclic(2), g.cyclic(4)), 1),
                 (g.cyclic(12), 3), (g.quaternion(), 1),
                 (g.direct_product(g.symmetric(3), g.cyclic(2)), 3)]
        # C(.) of every group, then C[.]: each half carries one d=16 op
        self.problems = [(kind, b) for kind in ("C", "CG")
                         for b, copies in bases for _ in range(copies)]
        self.inputs = [[_relabelled(g, b, seed, r, i)
                        for i, (_, b) in enumerate(self.problems)]
                       for r in range(self.POOL)]

    def ops(self, round_no):
        fq = self.fq
        out = []
        for (kind, _), grp in zip(self.problems,
                                  self.inputs[round_no % self.POOL]):
            ctor = (fq.hopf.function_algebra if kind == "C"
                    else fq.hopf.group_algebra)

            def run(ctor=ctor, grp=grp):
                H = ctor(grp)
                h = fq.haar.haar_state(H)
                D = fq.duality.dualize(H)
                return h.vector, D.irr_dims
            label = (f"C({grp.name})" if kind == "C" else f"C[{grp.name}]")
            out.append(Op(f"d{grp.order}", label, run, _dual_check(kind, grp)))
        return out

    @staticmethod
    def detail(results, rounds):
        """Median time to a verified dual at each rung."""
        return {f"dual_s.{c}": ("s", float(np.median(
            [r["tn"] for r in results if r["cls"] == c])))
            for c in ("d8", "d12", "d16")}


class Small:
    """Groups of order <= 6: both duals, the conjugation action as a magic
    action, and a save/load round trip of C(G) per op."""

    name = "small"
    POOL = 96

    def __init__(self, fq, seed, tmp):
        g = fq.groups
        self.fq = fq
        self.tmp = Path(tmp)
        bases = [g.cyclic(n) for n in range(2, 7)] + [
            g.direct_product(g.cyclic(2), g.cyclic(2)), g.symmetric(3)]
        self.inputs = []
        for r in range(self.POOL):
            row = []
            for i, b in enumerate(bases):
                grp = _relabelled(g, b, seed, r, i)
                act = oracles.conjugation_table(grp.table)
                g.permutation_action(grp, act)   # validates the action
                row.append((grp, act))
            self.inputs.append(row)

    def ops(self, round_no):
        fq = self.fq
        out = []
        for i, (grp, act) in enumerate(self.inputs[round_no % self.POOL]):
            path = self.tmp / f"small_{i}.json"

            def run(grp=grp, act=act, path=path):
                H = fq.hopf.function_algebra(grp)
                K = fq.hopf.group_algebra(grp)
                hH, hK = fq.haar.haar_state(H), fq.haar.haar_state(K)
                DH, DK = fq.duality.dualize(H), fq.duality.dualize(K)
                M = fq.classical.permutation_magic(H, act)
                magic = fq.classical.verify_magic(M)
                co = fq.classical.classical_orbits(M)
                hv = fq.classical.haar_values(M, hH, co.partition)
                fq.io.save_hopf(H, path)
                H2 = fq.io.load_hopf(path)
                path.unlink()
                return (H, H2, fq.io.hopf_equal(H, H2), hH.vector, hK.vector,
                        DH.irr_dims, DK.irr_dims, magic, co, hv)
            out.append(Op(grp.name, f"small {grp.name}", run,
                          self._checker(grp)))
        return out

    @staticmethod
    def _checker(grp):
        t = grp.table

        def check(out):
            H, H2, equal, vH, vK, dH, dK, magic, co, hv = out
            bad = (oracles.haar_vector("C", t, vH)
                   + oracles.haar_vector("CG", t, vK)
                   + oracles.function_algebra_dual(grp.name, t, dH)
                   + oracles.group_algebra_dual(grp.name, t, dK)
                   + oracles.conjugation_orbits(t, co.classes, hv.values))
            if not magic.passed:
                bad.append(f"magic axioms fail: {magic.failures()}")
            if not (co.counting_residual <= oracles.TOL
                    and hv.passed(oracles.TOL)):
                bad.append("orbit residuals above tolerance")
            drift = max(
                float(np.abs(H.delta.matrix - H2.delta.matrix).max()),
                float(np.abs(H.counit - H2.counit).max()),
                float(np.abs(H.antipode.matrix - H2.antipode.matrix).max()))
            if not equal or drift > 1e-12:
                bad.append(f"JSON round trip changed C({grp.name}) "
                           f"(hopf_equal={equal}, max drift {drift:.3e})")
            return bad
        return check

    @staticmethod
    def detail(results, rounds):
        return {}


class Cli:
    """Every subcommand on the shipped instances, one child at a time."""

    name = "cli"

    def __init__(self, seed, tmp, root, child=None):
        self.seed = seed
        self.tmp = Path(tmp)
        self.root = Path(root)
        self.cases = oracles.cli_cases()
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        # None runs `python -m finiteqg`; a traced run passes an object whose
        # argv(tail, i) starts a recording child and collect(i, start, end)
        # reads back its spans
        self.child = child
        self.peak_rss_mb = 0.0
        self.reports = {}

    def ops(self, round_no):
        out = []
        for i, (cls, args, expected) in enumerate(self.cases):
            cli_seed = int(np.random.default_rng(
                [self.seed, round_no, i]).integers(0, 2 ** 31))
            out.append(Op(cls, " ".join(args),
                          self._runner(args, cli_seed, round_no, i),
                          self._checker(expected)))
        return out

    def _runner(self, args, cli_seed, round_no, i):
        def run():
            report = self.tmp / f"cli_{i}.json"
            if report.exists():
                report.unlink()
            tail = [*args, "--seed", str(cli_seed), "--json", str(report)]
            if self.child is None:
                argv = [sys.executable, "-m", "finiteqg", *tail]
            else:
                argv = self.child.argv(tail, i)
            start = time.perf_counter()
            code = self._spawn(argv)
            if self.child is not None:
                self.child.collect(i, start, time.perf_counter())
            raw = report.read_bytes() if report.exists() else None
            self.reports[(round_no, i)] = raw
            return code, raw
        return run

    def _spawn(self, argv):
        """Run one child to completion; keeps the largest child RSS."""
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode

    @staticmethod
    def _checker(expected):
        def check(out):
            code, raw = out
            report = json.loads(raw) if raw else None
            return oracles.cli_report(code, report, expected)
        return check

    @staticmethod
    def detail(results, rounds):
        """Summed child wall time per command group, median over rounds."""
        out = {}
        for c in ("dual", "orbits", "check"):
            sums = [sum(r["tn"] for r in results
                        if r["cls"] == c and r["round"] == k)
                    for k in range(rounds)]
            out[f"cmd_s.{c}"] = ("s", float(np.median(sums)))
        return out

