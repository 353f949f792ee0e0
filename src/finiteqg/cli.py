"""Command-line front end.

Subcommands: verify, haar, dual, orbits, clifford, vergnioux,
classical-orbits.  Input files follow the schemas in
:mod:`finiteqg.io`; bare file names are also resolved against the data
files shipped with the package.  Exit codes: 0 all checks pass, 1 a
numeric check failed, 2 malformed input.
"""
from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

# modules, not names: a command executes only the modules it calls
from . import classical, clifford, duality, haar, hopf, io, orbits
from .core import DEFAULT_SEED, CheckError, Checks, Tolerance


class Run:
    """Collects named checks and structured results for one command."""

    def __init__(self, command, inputs, tol: Tolerance, seed: int):
        self.report = {
            "command": command,
            "inputs": [str(p) for p in inputs],
            "tolerance": tol.eps,
            "seed": seed,
            "checks": [],
            "results": {},
        }
        self.tol = tol

    def checks(self, record: Checks, prefix: str = ""):
        """One check per residual and flag of a record, in name order, as
        the record judges it; a flag is written as residual 0.0 or 1.0."""
        bad = record.failures()
        values = {**record.residuals,
                  **{k: 0.0 if ok else 1.0 for k, ok in record.flags.items()}}
        for name in sorted(values):
            self.report["checks"].append({
                "name": prefix + name,
                "residual": float(values[name]),
                "tolerance": self.tol.eps,
                "passed": name not in bad,
            })

    def result(self, key, value):
        self.report["results"][key] = value

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.report["checks"])

    def emit(self, json_path=None) -> int:
        for c in self.report["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            print(f"[{mark}] {c['name']:<38s} residual={c['residual']:.3e}")
        for key, value in self.report["results"].items():
            print(f"{key}: {json.dumps(value)}")
        status = 0 if self.passed else 1
        print("status:", "ok" if status == 0 else "CHECKS FAILED")
        if json_path:
            Path(json_path).write_text(
                json.dumps(self.report, indent=1, sort_keys=True))
        return status


def resolve(path_str: str) -> Path:
    p = Path(path_str)
    if p.exists():
        return p
    packaged = resources.files("finiteqg") / "data" / path_str
    if packaged.is_file():
        return Path(str(packaged))
    raise io.SchemaError(f"no such input file: {path_str}")


def _complex_list(vec):
    # result values are rounded for display; residuals stay exact
    return [[round(float(v.real), 12), round(float(v.imag), 12)]
            for v in np.asarray(vec)]


def _load_verified_hopf(run: Run, path, tol):
    H = io.load_hopf(path, tol, verify=False)
    rep = hopf.verify_hopf(H, tol)
    run.checks(rep, "hopf:")
    rep.raise_for_failure("input fails Hopf axioms")
    return H


def cmd_verify(args, run: Run, tol):
    H = io.load_hopf(resolve(args.hopf), tol, verify=False)
    run.checks(hopf.verify_hopf(H, tol))
    run.result("name", H.name)
    run.result("blocks", [int(n) for n in H.algebra.block_dims])


def cmd_haar(args, run: Run, tol):
    H = _load_verified_hopf(run, resolve(args.hopf), tol)
    h = haar.haar_state(H, tol)
    run.checks(h.checks)
    run.result("haar_vector", _complex_list(h.vector))
    run.result("gram_min_eigenvalue", h.min_gram_eigenvalue)


def cmd_dual(args, run: Run, tol):
    H = _load_verified_hopf(run, resolve(args.hopf), tol)
    D = duality.dualize(H, tol, args.seed)
    run.checks(duality.mult_unitary(D, tol).checks, "mult_unitary:")
    run.result("dual_blocks", [int(n) for n in D.irr_dims])


def _load_morphism(run: Run, D, H, sub_path, tol):
    kind, matrix = io.load_subgroup(sub_path, H.dim)
    if kind == "pi":
        m = orbits.subgroup_from_dual_matrix(D, matrix, tol)
    else:
        m, quotient = clifford.quotient_subgroup(H, D, matrix, tol)
        run.checks(quotient, "quotient:")
    run.checks(m.surjection, "surjection:")
    return m


def _orbit_pipeline(run: Run, args, tol):
    H = _load_verified_hopf(run, resolve(args.hopf), tol)
    D = duality.dualize(H, tol, args.seed)
    m = _load_morphism(run, D, H, resolve(args.subgroup), tol)
    run.result("subgroup_dim", int(m.rank))
    run.result("subgroup_normal", bool(m.normal))
    X = orbits.homogeneous_space(D, m, tol, args.seed)
    run.result("homogeneous_blocks", [int(n) for n in X.block_dims])
    alpha = orbits.homogeneous_action(D, X, tol)
    P = orbits.relation(alpha, tol)
    run.checks(P.checks)
    run.result("relation", P.relation.astype(int).tolist())
    run.result("classes", [list(map(int, c)) for c in P.classes])
    return D, m, X, alpha, P


def cmd_orbits(args, run: Run, tol):
    D, m, X, alpha, P = _orbit_pipeline(run, args, tol)
    supports, _, checks = orbits.central_supports(D, X, P, tol)
    run.checks(checks)
    run.result("supports", [sorted(map(int, s)) for s in supports])


def cmd_clifford(args, run: Run, tol):
    D, m, X, alpha, P = _orbit_pipeline(run, args, tol)
    T = clifford.restriction_table(D, X, P, tol)
    run.checks(T.checks)
    _, checks = clifford.kac_constancy_check(D, X, T, P, tol)
    run.checks(checks)
    run.result("irr_dims", [int(n) for n in D.irr_dims])
    run.result("restriction_table", T.mult.tolist())
    if not m.normal:
        run.result("note", "subgroup not normal: homogeneous-space blocks "
                           "are not irreducibles of a quotient-side subgroup")


def cmd_vergnioux(args, run: Run, tol):
    H = _load_verified_hopf(run, resolve(args.hopf), tol)
    D = duality.dualize(H, tol, args.seed)
    m = _load_morphism(run, D, H, resolve(args.subgroup), tol)
    V = clifford.vergnioux_relation(D, m, tol, args.seed)
    run.checks(V.checks)
    run.result("fusion_route", V.fusion.astype(int).tolist())
    run.result("support_route", V.support.astype(int).tolist())
    run.result("classes", [list(map(int, c)) for c in V.classes])


def cmd_classical_orbits(args, run: Run, tol):
    H = _load_verified_hopf(run, resolve(args.hopf), tol)
    M = io.load_magic(resolve(args.magic), H)
    rep = classical.verify_magic(M, tol)
    run.checks(rep, "magic:")
    rep.raise_for_failure("magic action fails")
    co = classical.classical_orbits(M, tol)
    h = haar.haar_state(H, tol)
    hv = classical.haar_values(M, h, co.partition)
    run.checks(Checks({"counting_measure_invariance": co.counting_residual,
                       "haar_values_on_class": hv.on_class_residual,
                       "haar_values_off_class": hv.off_class_residual}, tol))
    run.result("classes", [list(map(int, c)) for c in co.classes])
    run.result("ergodic", bool(co.ergodic))
    run.result("haar_values", np.round(hv.values, 12).tolist())


COMMANDS = {
    "verify": (cmd_verify, ["hopf"]),
    "haar": (cmd_haar, ["hopf"]),
    "dual": (cmd_dual, ["hopf"]),
    "orbits": (cmd_orbits, ["hopf", "subgroup"]),
    "clifford": (cmd_clifford, ["hopf", "subgroup"]),
    "vergnioux": (cmd_vergnioux, ["hopf", "subgroup"]),
    "classical-orbits": (cmd_classical_orbits, ["hopf", "magic"]),
}


def _tolerance(text: str) -> Tolerance:
    try:
        return Tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, not {text!r}") from None


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, not {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finiteqg",
        description="finite quantum groups: verification, Haar states, "
                    "duality, orbits, restriction tables")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, positionals) in COMMANDS.items():
        p = sub.add_parser(name)
        for pos in positionals:
            p.add_argument(pos)
        p.add_argument("--tol", type=_tolerance, default=Tolerance())
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
        p.add_argument("--json", dest="json_path", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tol = args.tol
    handler, positionals = COMMANDS[args.command]
    inputs = [getattr(args, p) for p in positionals]
    run = Run(args.command, inputs, tol, args.seed)
    try:
        handler(args, run, tol)
    except io.SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        # the aborted command is a failed check of its own, so the report
        # and the exit code agree
        run.checks(Checks({}, tol, flags={type(exc).__name__: False}))
        return run.emit(args.json_path)
    return run.emit(args.json_path)


if __name__ == "__main__":
    sys.exit(main())
