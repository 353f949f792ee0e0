#!/usr/bin/env python3
"""finiteqg benchmark: three closed-loop workloads, timed end to end and,
in a separate traced run, layer by layer.

    python3 perfbench/run.py --workload {ladder,cli,small,all} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``src/finiteqg``
from there.  Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``ladder`` -- C(G), C[G] at d = 8, 12, 16: verify, Haar, dualize;
* ``cli``    -- every subcommand on the shipped instances, one child each;
* ``small``  -- groups of order <= 6, tens of thousands of tiny calls.

A run carries whole rounds of the workload's fixed problem list and
starts another only while the longest round so far still fits into
``--seconds``.  Every op's output is checked against oracles computed
from Cayley tables or known results; a mismatch, exception or non-zero
exit counts as a failed op.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of three
fresh processes that import finiteqg and build the inputs), ``op_p50_s``
(median op time), ``round_s`` (median over rounds of the summed op
times) and ``peak_rss_mb`` (this process, or the largest CLI child).  Times are wall times rescaled by a host-speed gauge shaped like
the workload's ops (``gauges.py``), because the same op drifts by tens of
percent between runs on a shared machine; the raw wall times follow as
``*.raw``.
``--trace 1`` traces input set-up and N rounds, then runs the same N
rounds untraced; it prints per-layer metrics per round (``groups.self_s``
and the maxima per run), ``untraced_s``, ``trace.overhead_frac`` and
``host.ref_s``, the workload's gauge kernel timed at start and end.
The last line of standard output is one JSON object; the lines before it
name every metric with its unit, including the workload-specific ones.
BLAS runs single-threaded (set below, before numpy is imported).
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gauges  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 3
# each workload's gauge is shaped like its ops (see gauges.py)
GAUGES = {"ladder": gauges.dense, "cli": gauges.spawn, "small": gauges.tiny}
END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("round_s", "s"),
              ("peak_rss_mb", "MB"))


def blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return os.environ["OPENBLAS_NUM_THREADS"]


def stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def import_finiteqg():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import finiteqg
    if Path(finiteqg.__file__).resolve().parent != (src / "finiteqg").resolve():
        raise SystemExit(f"perfbench: imported finiteqg from "
                         f"{finiteqg.__file__}, not from {src}")
    return finiteqg


def make_workload(name, fq, seed, tmp, child=None):
    if name == "cli":
        return workloads.Cli(seed, tmp, ROOT, child)
    return {"ladder": workloads.Ladder, "small": workloads.Small}[name](
        fq, seed, tmp)


def run_rounds(workload, seconds, gauge=None, max_rounds=None):
    """Closed loop over whole rounds: another round starts only while the
    longest round so far still fits.  Returns (results, rounds, wall);
    with a gauge, each result holds the rescaled op time ``tn`` too."""
    results, round_walls = [], []
    t0 = time.perf_counter()
    while True:
        r = len(round_walls)
        rs = time.perf_counter()
        for op in workload.ops(r):
            if gauge:
                gauge.sample()
            s = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:   # any failure of an op is counted
                end = time.perf_counter()
                bad = [f"{type(exc).__name__}: {exc}"]
            else:
                end = time.perf_counter()
                try:
                    bad = op.check(out)
                except Exception as exc:
                    bad = [f"oracle could not read the output: {exc!r}"]
            results.append({"cls": op.cls, "label": op.label, "t": end - s,
                            "start": s, "end": end, "round": r, "bad": bad})
        round_walls.append(time.perf_counter() - rs)
        elapsed = time.perf_counter() - t0
        if (len(round_walls) >= max_rounds if max_rounds is not None
                else elapsed + max(round_walls) > seconds):
            break
    wall = time.perf_counter() - t0
    if gauge:
        gauge.sample()
        for res in results:
            res["tn"] = res["t"] * gauge.scale(res["start"], res["end"])
    return results, len(round_walls), wall


def op_tail(ts):
    """(value, percentile) of the highest percentile with >= 10 ops above."""
    ts = sorted(ts)
    if len(ts) < 11:
        return None, None
    k = len(ts) - 11
    return ts[k], 100.0 * (k + 1) / len(ts)


def setup_probe_s(args):
    """Median wall time of fresh processes that only set up: process
    start, import and inputs, up to where the first op would run.
    Returns (rescaled by the interpreter-start gauge, raw)."""
    gauge = gauges.Gauge(gauges.spawn)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                        args.workload, "--seed", str(args.seed),
                        "--setup-only"], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        end = time.perf_counter()
        gauge.sample()
        raw.append(end - t)
        scaled.append(raw[-1] * gauge.scale(t, end))
    return statistics.median(scaled), statistics.median(raw)


def report_failures(results):
    failed = [r for r in results if r["bad"]]
    for r in failed[:10]:
        print(f"FAILED {r['label']} (round {r['round']}): "
              + "; ".join(r["bad"])[:400])
    return len(failed)


def timing_metrics(results, rounds, key):
    ts = [r[key] for r in results]
    return {"op_p50_s": statistics.median(ts),
            "round_s": statistics.median(
                sum(r[key] for r in results if r["round"] == k)
                for k in range(rounds))}


def untraced(args, fq, tmp):
    setup_s, setup_raw = setup_probe_s(args)
    wl = make_workload(args.workload, fq, args.seed, tmp)
    gauge = gauges.Gauge(GAUGES[args.workload])
    results, rounds, wall = run_rounds(wl, args.seconds, gauge)
    failed = report_failures(results)
    rss = (wl.peak_rss_mb if args.workload == "cli" else
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics = dict(timing_metrics(results, rounds, "tn"), setup_s=setup_s,
                   peak_rss_mb=rss)
    raw = dict(timing_metrics(results, rounds, "t"), setup_s=setup_raw)
    detail = {"wall_s": ("s", wall), "ops": ("count", len(results)),
              "rounds": ("count", rounds),
              "failed_frac": ("frac", failed / len(results)),
              **{f"{k}.raw": ("s", v) for k, v in raw.items()},
              f"host.{gauge.kernel.__name__}_gauge_s":
                  ("s", gauge.median_s())}
    tail, pct = op_tail([r["tn"] for r in results])
    if tail is not None:
        detail.update(op_tail_s=("s", tail), op_tail_pct=("%", pct))
    detail.update(type(wl).detail(results, rounds))
    for name, unit in END_TO_END:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    for name, (unit, value) in detail.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": len(results),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}}


class TracedChild:
    """Starts CLI children that record spans and hands them to a Recorder."""

    def __init__(self, recorder, tmp):
        self.recorder = recorder
        self.tmp = Path(tmp)

    def argv(self, tail, i):
        return [sys.executable, str(HERE / "cli_child.py"),
                str(self.tmp / f"spans_{i}.json"), *tail]

    def collect(self, i, start, end):
        path = self.tmp / f"spans_{i}.json"
        parent = self.recorder.span("cli.process", start, end)
        if path.exists():
            self.recorder.adopt(json.loads(path.read_text()), parent)
            path.unlink()


def traced(args, fq, tmp):
    rec = spans.Recorder()
    kernel = GAUGES[args.workload]
    ref0 = kernel()
    if fq is not None:
        rec.install()
    wl = make_workload(args.workload, fq, args.seed, tmp,
                       TracedChild(rec, tmp))
    first = len(rec.spans)
    t_results, rounds, t_wall = run_rounds(wl, args.seconds / 2)
    rec.uninstall()
    traced_reports = dict(getattr(wl, "reports", {}))
    if args.workload == "cli":
        wl.child = None
    p_results, _, p_wall = run_rounds(wl, args.seconds, max_rounds=rounds)
    ref1 = kernel()

    failed = report_failures(t_results) + report_failures(p_results)
    # a traced CLI run must write exactly the bytes of an untraced one
    for key, raw in traced_reports.items():
        if wl.reports.get(key) != raw:
            failed += 1
            print(f"FAILED cli --json bytes differ under tracing: {key}")

    metrics = spans.summarize(rec.spans, first, rounds, t_wall)
    metrics["trace.overhead_frac"] = t_wall / p_wall - 1.0
    metrics["host.ref_s"] = 0.5 * (ref0 + ref1)
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    for name, unit, _ in spans.PER_LAYER:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} traced rounds = {rounds}, traced wall = "
          f"{t_wall:.4g} s, untraced wall = {p_wall:.4g} s")
    attempted = len(t_results) + len(p_results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics[name]),
                               "unit": units[name]}
                        for name in units}}


def run_all(args):
    """All three workloads, one process each; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("ladder", "cli", "small"):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} failed")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ladder", "cli", "small", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args)
        print(json.dumps(result))
        return 0

    if not (ROOT / "src" / "finiteqg" / "__init__.py").is_file():
        print(f"perfbench: no finiteqg source under {ROOT / 'src'}; run "
              "from the root of a finiteqg checkout", file=sys.stderr)
        return 2
    # the cli workload runs finiteqg only in its children
    fq = None if args.workload == "cli" else import_finiteqg()

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench")
    try:
        if args.setup_only:
            make_workload(args.workload, fq, args.seed, tmp)
            return 0
        print("stamp " + json.dumps(stamp(), sort_keys=True))
        result = (traced if args.trace else untraced)(args, fq, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
