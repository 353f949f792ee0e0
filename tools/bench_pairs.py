#!/usr/bin/env python3
"""Compare two checkouts on the benchmark with alternating pairs of runs.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N \\
        --seconds S

Each pair runs ``perfbench/run.py --workload W --seconds S`` once in the
PARENT checkout and once in the CHANGE checkout, on the same fresh random
seed; the side that runs first alternates from pair to pair.  Every run
is printed as it ends, with the number of rounds it ran, read from its
``<workload> rounds = N`` lines; a pair whose two sides ran different
numbers of rounds is marked, since its ``round_s`` values then summarize
different samples (a 30 s ``cli`` run holds only one or two rounds).
Then, for each end-to-end metric of
``BENCHMARK.json``, the summary gives each side's median and quartiles,
the number of pairs the change wins (ties count for neither side) and
the ratio of the medians, change over parent.  The verdict ``gain``
follows the rule for claiming a gain: at least ten pairs, the change
wins at least nine tenths of them, and the medians differ by more than
the distance between the parent's quartiles.  Exit code 1 when a run fails
or reports an incorrect op.
"""
from __future__ import annotations

import argparse
import json
import re
import secrets
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
ROUNDS = re.compile(r"^(\w+) rounds = (\d+) ", re.MULTILINE)


def better_is_lower() -> dict:
    """metric name -> True when a lower value is better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: run in {checkout} exited "
                         f"{out.returncode}")
    result = json.loads(lines[-1])
    rounds = {w: int(n) for w, n in ROUNDS.findall(out.stdout)}
    return (result, {k: m["value"] for k, m in result["metrics"].items()},
            rounds)


def rounds_text(rounds: dict) -> str:
    return "  ".join(f"{w} rounds {n}" for w, n in rounds.items())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, lower) -> list[str]:
    """One line per metric: medians, quartiles, wins, ratio, verdict."""
    lines = []
    for metric in pairs[0]["parent"]:
        # a change is better where sign * (change - parent) < 0
        sign = 1.0 if lower[metric.rsplit("/", 1)[-1]] else -1.0
        vals = {s: [p[s][metric] for p in pairs] for s in SIDES}
        med = {s: statistics.median(vals[s]) for s in SIDES}
        q = {s: quartiles(vals[s]) for s in SIDES}
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(vals["parent"], vals["change"]))
        gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                and sign * (med["change"] - med["parent"])
                < -(q["parent"][1] - q["parent"][0]))
        ratio = (med["change"] / med["parent"] if med["parent"]
                 else float("nan"))
        lines.append(
            f"{metric}: parent {med['parent']:.6g} "
            f"[{q['parent'][0]:.6g}, {q['parent'][1]:.6g}]  change "
            f"{med['change']:.6g} [{q['change'][0]:.6g}, "
            f"{q['change'][1]:.6g}]  change wins {wins}/{len(pairs)}  "
            f"ratio {ratio:.4f}  {'gain' if gain else 'no gain'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=["ladder", "cli", "small", "all"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    lower = better_is_lower()
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    pairs, uneven, status = [], [], 0
    for i in range(args.pairs):
        seed = secrets.randbelow(2 ** 31)
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair, rounds = {}, {}
        for side in order:
            result, pair[side], rounds[side] = run_once(
                checkouts[side], args.workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                status = 1
            print(f"pair {i + 1} seed {seed} {side}: "
                  f"{result['failed']}/{result['attempted']} failed  "
                  f"{rounds_text(rounds[side])}  "
                  + "  ".join(f"{k} {v:.6g}" for k, v in pair[side].items()),
                  flush=True)
        if rounds["parent"] != rounds["change"]:
            uneven.append(i + 1)
            print(f"pair {i + 1}: the sides ran different numbers of rounds "
                  f"(parent {rounds_text(rounds['parent'])}, change "
                  f"{rounds_text(rounds['change'])})", flush=True)
        pairs.append(pair)
    print("\n".join(summarize(pairs, lower)))
    print(f"pairs whose sides ran different numbers of rounds: "
          f"{len(uneven)}/{len(pairs)}" + (f" {uneven}" if uneven else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
