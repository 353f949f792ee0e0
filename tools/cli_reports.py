#!/usr/bin/env python3
"""Write the ``--json`` report and exit code of every benchmark CLI command.

    python tools/cli_reports.py OUTDIR

Runs the 25 commands of ``perfbench/oracles.cli_cases()`` once at the
default seed and once with ``--seed 12345``, one fresh process each, with
``OPENBLAS_NUM_THREADS=1`` so that the report bytes do not depend on the
BLAS thread count.  OUTDIR receives one report per run, named
``<case>_<arguments>@<seed>.json``, and ``exit_codes.txt`` with one
``<report name> <exit code>`` line per run.  Two trees (or two runs of one
tree) give the same bytes exactly when ``diff -r`` of their OUTDIRs is
empty.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import oracles  # noqa: E402

SEEDS = (("default", []), ("12345", ["--seed", "12345"]))


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    codes = []
    for label, seed_args in SEEDS:
        for i, (_, args, _) in enumerate(oracles.cli_cases()):
            stem = "_".join(a.removesuffix(".json") for a in args)
            name = f"{i:02d}_{stem}@{label}.json"
            report = out / name
            report.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "finiteqg", *args, *seed_args,
                 "--json", str(report)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, check=False)
            codes.append(f"{name} {proc.returncode}\n")
    (out / "exit_codes.txt").write_text("".join(codes))
    print(f"{len(codes)} reports written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
