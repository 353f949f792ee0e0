#!/usr/bin/env python3
"""Regenerate the JSON instances shipped in src/finiteqg/data.

Everything is constructed from first principles by the library itself and
fully verified before being written; rerunning the script reproduces the
same files (fixed seed).
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finiteqg import groups
from finiteqg.classical import (classical_orbits, magic_action,
                                permutation_magic, verify_magic)
from finiteqg.core import Tolerance, nullspace
from finiteqg.duality import block_presentation, dualize
from finiteqg.hopf import (function_algebra, group_algebra,
                           group_like_elements, kac_paljutkin)
from finiteqg.io import (hopf_equal, load_hopf, save_hopf, save_magic,
                         save_subgroup)
from finiteqg.orbits import subgroup_from_dual_matrix
from finiteqg.wedderburn import decompose

DATA = Path(__file__).resolve().parents[1] / "src" / "finiteqg" / "data"


def write_hopf_files():
    save_hopf(function_algebra(groups.cyclic(2)), DATA / "z2_function_algebra.json")
    save_hopf(function_algebra(groups.cyclic(3)), DATA / "z3_function_algebra.json")
    save_hopf(function_algebra(groups.symmetric(3)), DATA / "s3_function_algebra.json")
    for name, grp in [("z2", groups.cyclic(2)), ("s3", groups.symmetric(3)),
                      ("q8", groups.quaternion())]:
        H = group_algebra(grp)
        HB, _ = block_presentation(H)
        HB.name = f"C[{grp.name}]"
        save_hopf(HB, DATA / f"{name}_group_algebra.json")
    K = kac_paljutkin()
    KB, phi = block_presentation(K)
    KB.name = "KP8"
    save_hopf(KB, DATA / "kp8.json")
    return phi


def write_s3_subgroups():
    s3 = groups.symmetric(3)
    H = load_hopf(DATA / "s3_function_algebra.json")
    D = dualize(H)

    # (S3/A3)^ inside the dual of S3: rows evaluate functionals on the
    # group-likes of C(S3), i.e. the constant 1 and the sign character.
    a3 = groups.alternating_indices(s3)
    sign = -np.ones(s3.order)
    sign[a3] = 1.0
    rows = np.stack([np.ones(6), sign])
    m = subgroup_from_dual_matrix(D, rows)
    assert m.normal and sorted(m.surviving) == [0, 1]
    save_subgroup(rows, DATA / "a3_quotient.json")

    # same subgroup through the normal-subgroup route: the restriction of
    # functions C(S3) -> C(A3)
    rho = np.zeros((3, 6))
    for b, g in enumerate(a3):
        rho[b, g] = 1.0
    save_subgroup(rho, DATA / "a3_normal_subgroup.json",
                  kind="hopf_surjection")

    save_subgroup(np.eye(6), DATA / "s3_full_subgroup.json")
    save_subgroup(np.ones((1, 6)), DATA / "s3_trivial_subgroup.json")

    # a non-normal instance: the order-2 subgroup generated by a
    # transposition inside the classical discrete S3 (dual of C[S3])
    HB = load_hopf(DATA / "s3_group_algebra.json")
    DB = dualize(HB)
    t = s3.index_of((1, 0, 2))
    HS3 = group_algebra(s3)
    _, phi = block_presentation(HS3)
    phi_i = np.linalg.inv(phi)
    e_idx = s3.identity
    rows = np.stack([phi_i[:, e_idx], phi_i[:, t]])
    m2 = subgroup_from_dual_matrix(DB, rows)
    assert not m2.normal
    save_subgroup(rows, DATA / "s3_z2_subgroup.json")


def write_kp8_subgroup(phi):
    K = kac_paljutkin()
    gl = group_like_elements(K)
    assert len(gl) == 4  # 1, x, y, xy: the intrinsic group is Klein
    KB = load_hopf(DATA / "kp8.json")
    D = dualize(KB)
    phi_i = np.linalg.inv(phi)
    chosen = None
    for k in gl:
        g = np.eye(K.dim)[k]
        if Tolerance().is_zero(K.algebra.norm_coeffs(
                g - K.algebra.unit_coeffs)):
            continue
        rows = np.stack([KB.algebra.unit_coeffs, phi_i @ g])
        m = subgroup_from_dual_matrix(D, rows)
        print(f"  kp8 group-like candidate: normal={m.normal}")
        if m.normal and chosen is None:
            chosen = rows
    assert chosen is not None, "no normal order-2 subgroup found"
    save_subgroup(chosen, DATA / "kp8_subgroup.json")


def write_magic_files():
    z3 = groups.cyclic(3)
    H3 = load_hopf(DATA / "z3_function_algebra.json")
    act = np.array([[(g + x) % 3 for x in range(3)] for g in range(3)])
    groups.permutation_action(z3, act)
    M = permutation_magic(H3, act)
    verify_magic(M).raise_for_failure("Z3 cycle magic action fails")
    assert classical_orbits(M).ergodic
    save_magic(M, DATA / "z3_cycle.json")

    z2 = groups.cyclic(2)
    H2 = load_hopf(DATA / "z2_function_algebra.json")
    act = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
    groups.permutation_action(z2, act)
    M = permutation_magic(H2, act)
    verify_magic(M).raise_for_failure("Z2 double flip magic action fails")
    assert [list(c) for c in classical_orbits(M).classes] == [[0, 1], [2, 3]]
    save_magic(M, DATA / "z2_double_flip.json")

    # KP8 acting on four points: the coinvariants of an order-two
    # character form a commutative 4-dim subalgebra on which the
    # coproduct restricts to a magic action.
    KB = load_hopf(DATA / "kp8.json")
    A = KB.algebra
    chi = np.zeros(A.dim)
    chi[A.index(1, 0, 0)] = 1.0  # a nontrivial 1-dim block character
    cond = np.kron(chi[None, :], np.eye(A.dim)) @ KB.delta.matrix - np.eye(A.dim)
    V = nullspace(cond)
    assert V.shape[0] == 4, V.shape
    wd = decompose(A, V)
    assert wd.block_dims == (1, 1, 1, 1)
    Q = wd.central_idempotents
    # delta(q_j) = sum_i q_i x u_ij: solve on the first leg, u[i, j, :]
    u = np.zeros((4, 4, A.dim), dtype=complex)
    for j in range(4):
        Y = (KB.delta.matrix @ Q[j]).reshape(A.dim, A.dim)
        u[:, j], *_ = np.linalg.lstsq(Q.T, Y, rcond=None)
        assert np.linalg.norm(Q.T @ u[:, j] - Y) < 1e-10
    M = magic_action(KB, u)
    verify_magic(M).raise_for_failure("KP8 magic action fails")
    orbits = classical_orbits(M)
    print(f"  kp8 magic: classes={orbits.classes} ergodic={orbits.ergodic}")
    save_magic(M, DATA / "kp8_magic4.json")


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    print("writing hopf files ...")
    phi = write_hopf_files()
    print("writing S3 subgroup files ...")
    write_s3_subgroups()
    print("writing KP8 subgroup file ...")
    write_kp8_subgroup(phi)
    print("writing magic action files ...")
    write_magic_files()
    # round-trip sanity
    for f in sorted(DATA.glob("*_algebra.json")) + [DATA / "kp8.json"]:
        H = load_hopf(f)
        from finiteqg.io import hopf_from_dict, hopf_to_dict
        assert hopf_equal(H, hopf_from_dict(hopf_to_dict(H))), f
    print("all data files written and verified")


if __name__ == "__main__":
    main()
