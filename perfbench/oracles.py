"""Reference facts the benchmark checks finiteqg's outputs against.

Everything here is computed straight from a Cayley table or from
textbook facts about the shipped instances, never through finiteqg, so a
wrong pipeline result cannot agree with its own oracle.
"""
from __future__ import annotations

import numpy as np

TOL = 1e-8

# Irreducible representation dimensions (ascending, the trivial one first)
# of every group the benchmark uses.  Abelian groups have only 1-dim irreps.
IRREP_DIMS = {
    "Z2": (1,) * 2, "Z3": (1,) * 3, "Z4": (1,) * 4, "Z5": (1,) * 5,
    "Z6": (1,) * 6, "Z2xZ2": (1,) * 4, "S3": (1, 1, 2),
    "Z2xZ4": (1,) * 8, "Q8": (1, 1, 1, 1, 2), "Z12": (1,) * 12,
    "S3xZ2": (1, 1, 1, 1, 2, 2), "Z4xZ4": (1,) * 16,
}


def relabel(table, perm):
    """Cayley table of the same group with element i renamed perm[i]."""
    table = np.asarray(table)
    perm = np.asarray(perm)
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def identity(table) -> int:
    t = np.asarray(table)
    n = t.shape[0]
    for e in range(n):
        if np.array_equal(t[e], np.arange(n)):
            return e
    raise ValueError("table has no identity")


def inverses(table):
    t = np.asarray(table)
    e = identity(t)
    return [int(np.flatnonzero(t[g] == e)[0]) for g in range(t.shape[0])]


def conjugation_table(table):
    """act[g, x] = g x g^-1, the conjugation action on the group's points."""
    t = np.asarray(table)
    inv = inverses(t)
    n = t.shape[0]
    return np.array([[t[t[g, x], inv[g]] for x in range(n)]
                     for g in range(n)], dtype=int)


def conjugacy_classes(table):
    """Classes as sorted lists, ordered by their smallest element."""
    act = conjugation_table(table)
    seen, classes = set(), []
    for x in range(act.shape[0]):
        if x not in seen:
            cls = sorted(set(int(v) for v in act[:, x]))
            seen.update(cls)
            classes.append(cls)
    return classes


def abelianization_order(table) -> int:
    """|G / [G, G]|: the number of 1-dim irreps."""
    t = np.asarray(table)
    inv = inverses(t)
    n = t.shape[0]
    sub = {identity(t)}
    for a in range(n):
        for b in range(n):
            sub.add(int(t[t[a, b], t[inv[a], inv[b]]]))
    while True:
        grown = {int(t[a, b]) for a in sub for b in sub} | sub
        if grown == sub:
            return n // len(sub)
        sub = grown


def function_algebra_dual(name, table, dims):
    """Mismatches of the dual blocks of C(G) against the Cayley table."""
    bad = []
    n = np.asarray(table).shape[0]
    dims = tuple(int(d) for d in dims)
    if dims != IRREP_DIMS[name]:
        bad.append(f"C({name}) dual blocks {dims} != {IRREP_DIMS[name]}")
    if len(dims) != len(conjugacy_classes(table)):
        bad.append(f"C({name}) has {len(dims)} dual blocks, "
                   f"{len(conjugacy_classes(table))} conjugacy classes")
    if sum(d * d for d in dims) != n:
        bad.append(f"C({name}) dual blocks square-sum to "
                   f"{sum(d * d for d in dims)} != {n}")
    if dims.count(1) != abelianization_order(table):
        bad.append(f"C({name}) has {dims.count(1)} 1-dim dual blocks, "
                   f"|G/[G,G]| = {abelianization_order(table)}")
    return bad


def group_algebra_dual(name, table, dims):
    n = np.asarray(table).shape[0]
    dims = tuple(int(d) for d in dims)
    if dims != (1,) * n:
        return [f"C[{name}] dual blocks {dims} != {n} 1-dim blocks"]
    return []


def haar_vector(kind, table, vector):
    """Haar state on the constructor's basis: uniform 1/|G| on the point
    masses of C(G), the indicator of the identity on C[G]."""
    n = np.asarray(table).shape[0]
    if kind == "C":
        want = np.full(n, 1.0 / n)
    else:
        want = np.zeros(n)
        want[identity(table)] = 1.0
    err = float(np.abs(np.asarray(vector) - want).max())
    return [] if err <= TOL else [f"Haar vector off by {err:.3e}"]


def conjugation_orbits(table, classes, haar_values):
    """Orbits of the conjugation action are the conjugacy classes, and the
    Haar state takes the value 1/|class| on each magic entry of a class."""
    bad = []
    want = conjugacy_classes(table)
    got = sorted(sorted(int(x) for x in c) for c in classes)
    if got != want:
        bad.append(f"conjugation classes {got} != {want}")
    n = np.asarray(table).shape[0]
    values = np.zeros((n, n))
    for cls in want:
        values[np.ix_(cls, cls)] = 1.0 / len(cls)
    err = float(np.abs(np.asarray(haar_values) - values).max())
    if err > TOL:
        bad.append(f"Haar values on classes off by {err:.3e}")
    return bad


def plancherel_haar(dims):
    """Haar state of a block-presented quantum group of total dimension
    d = sum n^2: h = sum_k (n_k / d) Tr_k, in [re, im] pairs."""
    d = sum(n * n for n in dims)
    out = []
    for n in dims:
        for i in range(n):
            for j in range(n):
                out.append([n / d if i == j else 0.0, 0.0])
    return out


# Known `results` of each shipped CLI run.  Block and Haar data follow from
# the Plancherel formula and the magic actions' orbits from the actions
# themselves (a 3-cycle, two disjoint flips, an ergodic KP8 action on four
# points).  Orbit relations, restriction tables and fusion routes are the
# values these instances give in the package's canonical block order
# (S3/A3 is the README's example); a change in any of them is a bug or a
# change of convention to be explained.
KP8 = (1, 1, 1, 1, 2)
_S3_A3 = {
    "classes": [[0, 1], [2]], "homogeneous_blocks": [1, 1, 1],
    "relation": [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
    "subgroup_dim": 2, "subgroup_normal": True,
}
_S3_Z2 = {
    "classes": [[0], [1], [2]], "homogeneous_blocks": [1, 1, 1],
    "relation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "subgroup_dim": 2, "subgroup_normal": False,
}
_KP8_SUB = {
    "classes": [[0, 1], [2], [3]], "homogeneous_blocks": [1, 1, 1, 1],
    "relation": [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "subgroup_dim": 2, "subgroup_normal": True,
}
_S3_A3_FUSION = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
_S3_Z2_FUSION = [[1, 0, 0, 0, 1, 0], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 1],
                 [0, 1, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
_KP8_FUSION = [[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 1, 0],
               [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]]


def cli_cases():
    """(group, argv, expected results) of every command in one cli round.

    Groups: ``check`` (verify, haar, classical-orbits), ``dual`` and
    ``orbits`` (orbits, clifford, vergnioux).  Float results are compared
    within TOL, everything else exactly.
    """
    cases = []
    for f, name, blocks in (("kp8.json", "KP8", list(KP8)),
                            ("q8_group_algebra.json", "C[Q8]", list(KP8)),
                            ("s3_function_algebra.json", "C(S3)", [1] * 6)):
        cases.append(("check", ["verify", f],
                      {"name": name, "blocks": blocks}))
        cases.append(("check", ["haar", f],
                      {"haar_vector": plancherel_haar(blocks),
                       "gram_min_eigenvalue":
                           min(blocks) / sum(n * n for n in blocks)}))
    for f, dual in (("kp8.json", list(KP8)),
                    ("q8_group_algebra.json", [1] * 8),
                    ("s3_group_algebra.json", [1] * 6),
                    ("s3_function_algebra.json", [1, 1, 2])):
        cases.append(("dual", ["dual", f], {"dual_blocks": dual}))
    s3_a3_table = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    specs = (("s3_function_algebra.json", "a3_quotient.json", _S3_A3,
              [[2], [2], [0, 1]], [1, 1, 2], s3_a3_table,
              _S3_A3_FUSION, [[0, 1], [2]]),
             ("s3_function_algebra.json", "a3_normal_subgroup.json", _S3_A3,
              [[2], [2], [0, 1]], [1, 1, 2], s3_a3_table,
              _S3_A3_FUSION, [[0, 1], [2]]),
             ("s3_group_algebra.json", "s3_z2_subgroup.json", _S3_Z2,
              [[2, 5], [1, 3], [0, 4]], [1] * 6,
              [[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
               [1, 0, 0]],
              _S3_Z2_FUSION, [[0, 4], [1, 3], [2, 5]]),
             ("kp8.json", "kp8_subgroup.json", _KP8_SUB,
              [[4], [4], [2, 3], [0, 1]], list(KP8),
              [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 1, 0],
               [1, 1, 0, 0]],
              _KP8_FUSION, [[0, 1], [2, 3], [4]]))
    for (hopf_file, sub_file, orbit, supports, irr, table, fusion,
         vclasses) in specs:
        cases.append(("orbits", ["orbits", hopf_file, sub_file],
                      dict(orbit, supports=supports)))
        clif = dict(orbit, irr_dims=irr, restriction_table=table)
        if not orbit["subgroup_normal"]:
            clif["note"] = ("subgroup not normal: homogeneous-space blocks "
                            "are not irreducibles of a quotient-side "
                            "subgroup")
        cases.append(("orbits", ["clifford", hopf_file, sub_file], clif))
        cases.append(("orbits", ["vergnioux", hopf_file, sub_file],
                      {"classes": vclasses, "fusion_route": fusion,
                       "support_route": fusion}))
    third = [[1 / 3] * 3] * 3
    flip = [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5],
            [0, 0, 0.5, 0.5]]
    for f, magic, classes, ergodic, values in (
            ("z3_function_algebra.json", "z3_cycle.json", [[0, 1, 2]],
             True, third),
            ("kp8.json", "kp8_magic4.json", [[0, 1, 2, 3]], True,
             [[0.25] * 4] * 4),
            ("z2_function_algebra.json", "z2_double_flip.json",
             [[0, 1], [2, 3]], False, flip)):
        cases.append(("check", ["classical-orbits", f, magic],
                      {"classes": classes, "ergodic": ergodic,
                       "haar_values": values}))
    return cases


def _same(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - want) <= TOL)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return got == want and type(got) is type(want)


def cli_report(returncode, report, expected):
    """Mismatches of one CLI run: exit code, every check, known results."""
    bad = []
    if returncode != 0:
        bad.append(f"exit code {returncode}")
    if report is None:
        return bad + ["no --json report"]
    failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
    if failed or not report.get("checks"):
        bad.append(f"failed checks {failed}")
    results = report.get("results", {})
    if sorted(results) != sorted(expected):
        bad.append(f"result keys {sorted(results)} != {sorted(expected)}")
    for key, want in expected.items():
        if key in results and not _same(results[key], want):
            bad.append(f"{key} = {results[key]!r}, expected {want!r}")
    return bad
