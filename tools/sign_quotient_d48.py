#!/usr/bin/env python3
"""The orbit pipeline of C(S4 x Z2), d = 48, with the sign quotient.

    python tools/sign_quotient_d48.py

Builds C(S4 x Z2), dualizes it and checks W, then builds the quantum
subgroup of the dual given by the sign of the S4 factor, its homogeneous
space, the conjugation action on that space and the orbit relation; then
the restriction table, the constancy check, the central supports and the
Vergnioux relation.  It prints the time of each stage and the peak RSS.
It exits 1 unless every check passes and the counts match the Cayley
table: the space has one block per class of the kernel A4 x Z2 (8), of
total dimension sum n^2 = |A4 x Z2| = 24, and both the orbit classes and
the Vergnioux classes are as many as the classes of S4 x Z2 inside the
kernel (6).

Under an address-space cap of about 2.4 GiB (``ulimit -v 2500000``) it
fails if a stage forms the Kronecker matrix of a map with an identity:
(id x delta) W alone takes 3.8 GiB in that form.
"""
from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finiteqg import groups  # noqa: E402
from finiteqg.clifford import (kac_constancy_check,  # noqa: E402
                               restriction_table, vergnioux_relation)
from finiteqg.duality import dualize, mult_unitary  # noqa: E402
from finiteqg.hopf import function_algebra  # noqa: E402
from finiteqg.orbits import (  # noqa: E402
    central_supports, homogeneous_action, homogeneous_space, relation,
    subgroup_from_dual_matrix)


def classes_inside(G, kernel, by) -> int:
    """The number of classes of G under conjugation by the elements
    ``by`` that lie inside ``kernel``."""
    t, inv = G.table, G.inverses
    classes = {frozenset(int(t[t[g, x], inv[g]]) for g in by)
               for x in range(G.order)}
    return sum(c <= kernel for c in classes)


def main() -> int:
    s4 = groups.symmetric(4)
    G = groups.direct_product(s4, groups.cyclic(2))
    even = set(groups.alternating_indices(s4))
    kernel = {i for i, (a, _) in enumerate(G.elements) if a in even}
    sign = np.array([1.0 if i in kernel else -1.0 for i in range(G.order)])

    stages = {}
    clock = time.perf_counter()

    def stage(name):
        nonlocal clock
        now = time.perf_counter()
        stages[name] = now - clock
        clock = now

    H = function_algebra(G)
    stage("construct")
    D = dualize(H)
    stage("dualize")
    W = mult_unitary(D)
    stage("mult_unitary")
    m = subgroup_from_dual_matrix(D, np.stack([np.ones(G.order), sign]))
    stage("subgroup")
    X = homogeneous_space(D, m)
    stage("space")
    alpha = homogeneous_action(D, X)
    stage("action")
    P = relation(alpha)
    stage("relation")
    T = restriction_table(D, X, P)
    stage("restriction")
    _, constancy = kac_constancy_check(D, X, T, P)
    stage("constancy")
    *_, supports = central_supports(D, X, P)
    stage("supports")
    V = vergnioux_relation(D, m)
    stage("vergnioux")

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name, seconds in stages.items():
        print(f"{name:<13s} {seconds:7.3f} s")
    print(f"peak RSS      {rss_mb:7.0f} MB")
    blocks = classes_inside(G, kernel, kernel)
    want = classes_inside(G, kernel, range(G.order))
    space = sum(n * n for n in X.block_dims)
    print(f"space blocks  {X.size} of total dimension {space} "
          f"(A4xZ2-classes: {blocks}, order {len(kernel)})")
    print(f"orbit classes {len(P.classes)}, Vergnioux classes "
          f"{len(V.classes)} (S4xZ2-classes in A4xZ2: {want})")
    records = [W.checks, m.surjection, m.normality, P.checks, T.checks,
               constancy, supports, V.checks]
    ok = (all(r.passed for r in records) and X.size == blocks
          and space == len(kernel) and len(P.classes) == want
          and len(V.classes) == want)
    print("status:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
