"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import time

import numpy as np
import pytest

from finiteqg import groups
from finiteqg.classical import (action_from_magic, classical_orbits,
                                haar_values, permutation_magic, verify_magic)
from finiteqg.clifford import (kac_constancy_check, restriction_table,
                               vergnioux_relation)
from finiteqg.core import DEFAULT_SEED, Tolerance
from finiteqg.duality import dualize, mult_unitary
from finiteqg.haar import haar_state
from finiteqg.hopf import function_algebra, group_algebra, verify_hopf
from finiteqg.io import load_hopf, load_magic
from finiteqg.orbits import (central_supports, full_subgroup,
                             homogeneous_action, homogeneous_space, relation,
                             trivial_subgroup)
from finiteqg.wedderburn import decompose_abstract

_MODULE_T0 = time.perf_counter()

TOL = 1e-9


def _line(num, ok, text):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_hopf_axioms(hopf_cs3, hopf_gs3, kp8_block):
    t0 = time.perf_counter()
    fams = {"C(Z2)": function_algebra(groups.cyclic(2)),
            "C(S3)": hopf_cs3,
            "C[Z2]": group_algebra(groups.cyclic(2)),
            "C[S3]": hopf_gs3,
            "C[Q8]": group_algebra(groups.quaternion()),
            "KP8": kp8_block}
    worst = max(verify_hopf(H).max_residual() for H in fams.values())
    elapsed = time.perf_counter() - t0
    _line(1, worst <= TOL and elapsed < 1.0,
          f"Hopf axiom residuals <= 1e-9 on all six examples "
          f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_haar_states(s3, hopf_gs3, kp8_block):
    t0 = time.perf_counter()
    h2 = haar_state(function_algebra(groups.cyclic(2)))
    ok = bool(np.abs(h2.vector - 0.5).max() <= 1e-14)
    hg = haar_state(hopf_gs3)
    want = np.zeros(6)
    want[s3.identity] = 1.0
    ok &= bool(np.abs(hg.vector - want).max() <= TOL)
    hk = haar_state(kp8_block)
    A = kp8_block.algebra
    wantk = np.zeros(8)
    wantk[:4] = 1 / 8
    wantk[A.index(4, 0, 0)] = wantk[A.index(4, 1, 1)] = 1 / 4
    ok &= bool(np.abs(hk.vector - wantk).max() <= TOL)
    elapsed = time.perf_counter() - t0
    _line(2, ok and elapsed < 1.0,
          f"Haar states of C(Z2), C[S3], KP8 match their closed forms "
          f"({elapsed:.2f}s)")


def test_criterion_3_wedderburn(hopf_gs3, kp8_block):
    t0 = time.perf_counter()
    wd1 = decompose_abstract(hopf_gs3.algebra, haar_state(hopf_gs3).gram)
    q8 = group_algebra(groups.quaternion())
    wd2 = decompose_abstract(q8.algebra, haar_state(q8).gram)
    dual_blocks = dualize(kp8_block).irr_dims
    rerun = decompose_abstract(hopf_gs3.algebra, haar_state(hopf_gs3).gram,
                               seed=DEFAULT_SEED)
    det = all(np.abs(a - b).max() <= 1e-12 for a, b in
              zip(wd1.central_idempotents, rerun.central_idempotents))
    ok = (wd1.block_dims == (1, 1, 2) and wd2.block_dims == (1, 1, 1, 1, 2)
          and dual_blocks == (1, 1, 1, 1, 2) and det)
    elapsed = time.perf_counter() - t0
    _line(3, ok and elapsed < 1.0,
          f"Wedderburn: C[S3]->(1,1,2), C[Q8]->(1,1,1,1,2), "
          f"dual(KP8)->(1,1,1,1,2), deterministic ({elapsed:.2f}s)")


def test_criterion_4_multiplicative_unitary(hopf_cs3, hopf_gs3, kp8_block):
    fams = [function_algebra(groups.cyclic(2)), hopf_cs3,
            group_algebra(groups.cyclic(2)), hopf_gs3,
            group_algebra(groups.quaternion()), kp8_block]
    worst = max(mult_unitary(dualize(H)).checks.max_residual() for H in fams)
    _line(4, worst <= TOL,
          f"W unitary and (id x delta)W = W12 W13 on all examples "
          f"(worst {worst:.2e})")


def test_criterion_5_flip_counterexample():
    H = function_algebra(groups.cyclic(2))
    M = permutation_magic(H, np.array([[0, 1, 2, 3], [1, 0, 3, 2]]))
    grouped = relation(action_from_magic(M, grouping=[[0], [1, 2], [3]]))
    singles = relation(action_from_magic(M))
    # transitivity straight from the relation matrix
    rel = grouped.relation.astype(int)
    transitive = bool(np.all((rel @ rel > 0) <= grouped.relation))
    inv = singles.checks.residuals["invariant_projections"]
    ok = (grouped.checks.flags["relation_symmetric"] and not transitive
          and singles.checks.flags["relation_equivalence"]
          and singles.classes == [[0, 1], [2, 3]]
          and inv <= TOL
          and grouped.checks.residuals["invariant_projections"] <= TOL)
    _line(5, ok,
          "double flip: grouped summands give a symmetric non-transitive "
          "relation; single blocks give classes {1,2},{3,4} with invariant "
          f"projections (residual {inv:.2e})")


def test_criterion_6_quantum_clifford(dual_cs3, a3_morphism):
    t0 = time.perf_counter()
    X = homogeneous_space(dual_cs3, a3_morphism)
    alpha = homogeneous_action(dual_cs3, X)
    P = relation(alpha)
    ok = X.block_dims == (1, 1, 1)
    triv = next(i for i, s in enumerate(X.block_supports(Tolerance(TOL)))
                if 0 in s)
    pair = sorted(set(range(3)) - {triv})
    ok &= P.classes == sorted([[triv], pair])
    T = restriction_table(dual_cs3, X, P)
    ok &= T.checks.flags == {"one_orbit_per_row": True,
                             "dimension_count": True}
    ok &= T.mult[0, triv] == 1 and T.mult[1, triv] == 1
    ok &= all(T.mult[2, i] == 1 for i in pair) and T.mult[2, triv] == 0
    _, zs, checks = central_supports(dual_cs3, X, P)
    s = X.block_unit_in_dual(pair[0]) + X.block_unit_in_dual(pair[1])
    z_res = max((zs[i] - s).norm() for i in pair)
    ok &= (z_res <= TOL and checks.passed
           and checks.flags["supports_match_relation"])
    elapsed = time.perf_counter() - t0
    _line(6, ok and elapsed < 5.0,
          f"quantum Clifford on the S3 pair: blocks (1,1,1), classes "
          f"{{triv}},{{pair}}, textbook restriction rows, z(1_i) = class "
          f"sums at {z_res:.2e} ({elapsed:.2f}s)")


def test_criterion_7_vergnioux_cross_check(dual_cs3, a3_morphism, dual_kp8,
                                           kp8_morphism):
    instances = [("S3/A3", dual_cs3, a3_morphism),
                 ("S3 trivial", dual_cs3, trivial_subgroup(dual_cs3)),
                 ("S3 full", dual_cs3, full_subgroup(dual_cs3)),
                 ("KP8 order-2", dual_kp8, kp8_morphism)]
    disagreements = 0
    for name, D, m in instances:
        V = vergnioux_relation(D, m)
        if not (V.checks.flags["fusion_equals_support"]
                and V.checks.flags["support_projection_positivity"]
                and V.checks.flags["orbit_classes_match_vergnioux"]):
            disagreements += 1
    _line(7, disagreements == 0,
          "fusion route equals support route entrywise on all four "
          "subgroup instances, and its classes are the orbit classes' "
          "block supports")


def test_criterion_8_dimension_constancy(dual_cs3, a3_morphism, dual_kp8,
                                         kp8_morphism, data_dir):
    from finiteqg.io import load_subgroup
    from finiteqg.orbits import subgroup_from_dual_matrix
    HB = load_hopf(data_dir / "s3_group_algebra.json")
    DB = dualize(HB)
    kind, rows = load_subgroup(data_dir / "s3_z2_subgroup.json", HB.dim)
    nonnormal = subgroup_from_dual_matrix(DB, rows)
    instances = [(dual_cs3, a3_morphism),
                 (dual_cs3, full_subgroup(dual_cs3)),
                 (dual_cs3, trivial_subgroup(dual_cs3)),
                 (dual_kp8, kp8_morphism),
                 (DB, nonnormal)]
    ok = True
    for D, m in instances:
        X = homogeneous_space(D, m)
        P = relation(homogeneous_action(D, X))
        T = restriction_table(D, X, P)
        constants, checks = kac_constancy_check(D, X, T, P)
        ok &= (checks.flags["dims_constant_on_classes"]
               and checks.flags["mults_constant_on_classes"])
        ok &= checks.residuals["markov_trace_proportionality"] <= TOL
        for (k, ci), c in constants.items():
            i = P.classes[ci][0]
            ok &= int(round(c * X.block_dims[i])) == T.mult[k, i]
    _line(8, ok,
          "block dims and row multiplicities constant on every orbit "
          "class; Markov constants satisfy c * dim = multiplicity exactly")


def test_criterion_9_haar_values_on_points(kp8_block, data_dir):
    z3 = groups.cyclic(3)
    H3 = function_algebra(z3)
    M3 = permutation_magic(
        H3, np.array([[(g + x) % 3 for x in range(3)] for g in range(3)]))
    co3 = classical_orbits(M3)
    hv3 = haar_values(M3, haar_state(H3), co3.partition)
    ok = bool(np.abs(hv3.values - 1 / 3).max() <= TOL)

    H2 = function_algebra(groups.cyclic(2))
    M2 = permutation_magic(H2, np.array([[0, 1, 2, 3], [1, 0, 3, 2]]))
    co2 = classical_orbits(M2)
    hv2 = haar_values(M2, haar_state(H2), co2.partition)
    want = np.zeros((4, 4))
    want[:2, :2] = want[2:, 2:] = 0.5
    ok &= bool(np.abs(hv2.values - want).max() <= TOL)
    ok &= co2.counting_residual <= TOL and co3.counting_residual <= TOL

    MK = load_magic(data_dir / "kp8_magic4.json", kp8_block)
    coK = classical_orbits(MK)
    hvK = haar_values(MK, haar_state(kp8_block), coK.partition)
    ok &= bool(np.abs(hvK.values - 0.25).max() <= TOL)
    ok &= coK.counting_residual <= TOL
    _line(9, ok,
          "Haar values 1/|class| on classes (Z3: 1/3, flip: 1/2, KP8 on 4 "
          "points: 1/4); per-class column sums equal the unit")


def test_criterion_10_runtime_and_reproducibility(hopf_cs3):
    def pipeline():
        D = dualize(hopf_cs3, seed=DEFAULT_SEED)
        m = trivial_subgroup(D)
        X = homogeneous_space(D, m, seed=DEFAULT_SEED)
        P = relation(homogeneous_action(D, X))
        return (D.irr_dims, tuple(X.block_dims),
                tuple(tuple(c) for c in P.classes),
                tuple(np.round(X.morphism.coinvariants.reshape(-1), 12)))

    first, second = pipeline(), pipeline()
    elapsed = time.perf_counter() - _MODULE_T0
    ok = first == second and elapsed < 60.0
    _line(10, ok,
          f"acceptance module ran in {elapsed:.1f}s (< 60s) and the "
          "seeded pipeline is exactly reproducible")
