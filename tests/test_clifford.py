from dataclasses import replace

import numpy as np
import pytest

from finiteqg import groups
from finiteqg.clifford import (NormalityError, kac_constancy_check,
                               normality_defect, quotient_subgroup,
                               restriction_table, vergnioux_relation)
from finiteqg.core import Tolerance, distance_to_span, orthonormal_rows
from finiteqg.duality import block_presentation, dualize, mult_unitary
from finiteqg.hopf import group_algebra
from finiteqg.orbits import (MorphismError, full_subgroup,
                             homogeneous_action, homogeneous_space, relation,
                             trivial_subgroup)


def a3_restriction_oracle():
    """Classical character theory: multiplicities of the A3 characters in
    the restrictions of the S3 irreducibles, computed by brute force over
    the 3 even permutations (e, c, c^2)."""
    w = np.exp(2j * np.pi / 3)
    chars_a3 = {"triv": np.array([1, 1, 1]),
                "omega": np.array([1, w, w ** 2]),
                "omegabar": np.array([1, w ** 2, w])}
    # values of the S3 characters at e, c, c^2 (even permutations)
    chars_s3_on_a3 = {"triv": np.array([1, 1, 1]),
                      "sgn": np.array([1, 1, 1]),
                      "std": np.array([2, -1, -1])}
    table = {}
    for kappa, chi in chars_s3_on_a3.items():
        for sig, psi in chars_a3.items():
            table[(kappa, sig)] = int(round(
                float(np.real(np.sum(chi * np.conj(psi)))) / 3.0))
    return table


def test_quotient_subgroup_trivial_gives_full(hopf_cs3, dual_cs3):
    # H trivial: rho = counit; Lambda = the whole dual, pi bijective
    m = quotient_subgroup(hopf_cs3, dual_cs3, hopf_cs3.counit[None, :])
    assert m.rank == 6
    X = homogeneous_space(dual_cs3, m)
    assert X.block_dims == (1,)


def test_quotient_subgroup_whole_group_gives_trivial(hopf_cs3, dual_cs3):
    m = quotient_subgroup(hopf_cs3, dual_cs3, np.eye(6))
    assert m.rank == 1
    # pi is the counit of the dual, up to the basis normalization of the
    # one-dimensional codomain
    eps = dual_cs3.dual_hopf.counit
    cross = np.outer(m.matrix[0], eps) - np.outer(eps, m.matrix[0])
    assert np.linalg.norm(cross) <= 1e-10
    assert np.linalg.norm(m.matrix[0]) > 1e-12


def test_quotient_subgroup_a3(s3, hopf_cs3, dual_cs3, data_dir):
    a3 = groups.alternating_indices(s3)
    rho = np.zeros((3, 6))
    for b, g in enumerate(a3):
        rho[b, g] = 1.0
    m = quotient_subgroup(hopf_cs3, dual_cs3, rho)
    assert m.rank == 2 and m.normal
    # support of the subgroup: central projection of {triv, sgn}
    want = dual_cs3.block_projection(0) + dual_cs3.block_projection(1)
    assert (m.support - want).norm() <= 1e-9
    # embedded dual of H equals the homogeneous space (normal case)
    X = homogeneous_space(dual_cs3, m)
    Ci = np.linalg.inv(dual_cs3.block_to_dual)
    V = orthonormal_rows((Ci @ rho.T).T)
    for v in X.basis:
        assert distance_to_span(V, v) <= 1e-9


def test_non_normal_subgroup_rejected(s3, hopf_cs3, dual_cs3):
    # restriction of functions to the non-normal {e, (01)} subgroup
    t = s3.index_of((1, 0, 2))
    rho = np.zeros((2, 6))
    rho[0, s3.identity] = 1.0
    rho[1, t] = 1.0
    assert normality_defect(dual_cs3, rho) > 1e-3
    with pytest.raises(NormalityError):
        quotient_subgroup(hopf_cs3, dual_cs3, rho)


def test_restriction_table_matches_classical_clifford(
        dual_cs3, a3_space, a3_partition):
    T = restriction_table(dual_cs3, a3_space, a3_partition)
    assert T.one_orbit_per_row and T.dimension_count_ok
    oracle = a3_restriction_oracle()
    triv = a3_space.trivial_block
    pair = sorted(set(range(3)) - {triv})
    # rows 0, 1 are the 1-dim S3 irreducibles (triv first), row 2 is std
    assert T.mult[0, triv] == oracle[("triv", "triv")] == 1
    assert T.mult[1, triv] == oracle[("sgn", "triv")] == 1
    assert all(T.mult[0, i] == 0 and T.mult[1, i] == 0 for i in pair)
    assert T.mult[2, triv] == 0
    assert [T.mult[2, i] for i in pair] == [
        oracle[("std", "omega")], oracle[("std", "omegabar")]] == [1, 1]


def test_trivial_representation_class_is_singleton(dual_cs3, a3_space,
                                                   a3_partition):
    # the class of the block under the trivial representation has size 1
    T = restriction_table(dual_cs3, a3_space, a3_partition)
    triv_row = T.mult[0]
    support = [i for i in range(a3_space.size) if triv_row[i] > 0]
    assert support == [a3_space.trivial_block]
    assert a3_partition.class_of(support[0]) == [support[0]]


def test_constancy_s3_a3(dual_cs3, a3_space, a3_partition):
    T = restriction_table(dual_cs3, a3_space, a3_partition)
    rep = kac_constancy_check(dual_cs3, a3_space, T, a3_partition)
    assert rep.passed
    assert rep.markov_residual <= 1e-9
    # c for std on the conjugate pair: mult 1 = c * dim 1
    pair_ci = next(ci for ci, c in enumerate(a3_partition.classes)
                   if len(c) == 2)
    assert abs(rep.constants[(2, pair_ci)] - 1.0) < 1e-12


def test_constancy_decision_uses_callers_tolerance(dual_cs3, a3_space,
                                                   a3_partition):
    T = restriction_table(dual_cs3, a3_space, a3_partition)
    loose = kac_constancy_check(dual_cs3, a3_space, T, a3_partition,
                                Tolerance(1e-6))
    assert loose.tol == Tolerance(1e-6)
    # a Markov residual of 1e-7 passes at 1e-6, not at the default 1e-9
    assert replace(loose, markov_residual=1e-7).passed
    default = kac_constancy_check(dual_cs3, a3_space, T, a3_partition)
    assert not replace(default, markov_residual=1e-7).passed


def test_constancy_all_shipped_instances(dual_cs3, a3_morphism, dual_kp8,
                                         kp8_morphism):
    instances = [(dual_cs3, a3_morphism), (dual_cs3, full_subgroup(dual_cs3)),
                 (dual_cs3, trivial_subgroup(dual_cs3)),
                 (dual_kp8, kp8_morphism)]
    for D, m in instances:
        X = homogeneous_space(D, m)
        P = relation(homogeneous_action(D, X))
        T = restriction_table(D, X, P)
        assert T.one_orbit_per_row and T.dimension_count_ok
        rep = kac_constancy_check(D, X, T, P)
        assert rep.passed
        for (k, ci), c in rep.constants.items():
            i = P.classes[ci][0]
            assert abs(c * X.block_dims[i] - T.mult[k, i]) < 1e-9


def test_vergnioux_agreement_all_instances(dual_cs3, a3_morphism, dual_kp8,
                                           kp8_morphism):
    for D, m in [(dual_cs3, a3_morphism),
                 (dual_cs3, trivial_subgroup(dual_cs3)),
                 (dual_cs3, full_subgroup(dual_cs3)),
                 (dual_kp8, kp8_morphism)]:
        V = vergnioux_relation(D, m)
        assert V.agree
        assert V.support_positivity_ok


def test_vergnioux_a3_classes(dual_cs3, a3_morphism):
    V = vergnioux_relation(dual_cs3, a3_morphism)
    assert V.classes == [[0, 1], [2]]  # {triv, sgn} and {std}


def test_vergnioux_full_subgroup_total(dual_cs3):
    V = vergnioux_relation(dual_cs3, full_subgroup(dual_cs3))
    assert np.all(V.support)
    assert V.classes == [[0, 1, 2]]


def test_vergnioux_trivial_subgroup_equality(dual_cs3):
    V = vergnioux_relation(dual_cs3, trivial_subgroup(dual_cs3))
    assert np.array_equal(V.support, np.eye(3, dtype=bool))


def test_nonnormal_classical_cosets(s3, hopf_gs3, data_dir):
    # dual of C[S3]: the classical discrete S3; Lambda = {e, (01)}; the
    # fusion relation must be "same right coset" on the group elements
    from finiteqg.io import load_hopf, load_subgroup
    from finiteqg.orbits import subgroup_from_dual_matrix
    HB = load_hopf(data_dir / "s3_group_algebra.json")
    D = dualize(HB)
    kind, rows = load_subgroup(data_dir / "s3_z2_subgroup.json", HB.dim)
    m = subgroup_from_dual_matrix(D, rows)
    assert not m.normal

    # identify which dual block is which group element via the group-likes
    W = mult_unitary(D).element.coeffs.reshape(6, 6)
    _, phi = block_presentation(group_algebra(s3))
    elem_of_block = []
    for t in range(6):
        chi = np.zeros(6)
        chi[D.dual_algebra.index(t, 0, 0)] = 1.0
        g_block = chi @ W  # group-like of Pol, block coords
        g_group = phi @ g_block
        idx = int(np.argmax(np.abs(g_group)))
        assert abs(g_group[idx] - 1) < 1e-9
        elem_of_block.append(idx)

    t_idx = s3.index_of((1, 0, 2))
    lam = {s3.identity, t_idx}
    V = vergnioux_relation(D, m)
    assert V.agree
    for a in range(6):
        for b in range(6):
            ga, gb = elem_of_block[a], elem_of_block[b]
            # sigma ~ tau iff sigma tau^{-1} in Lambda (same right coset)
            same_coset = s3.table[ga, s3.inverse(gb)] in lam
            assert bool(V.support[a, b]) == same_coset

    X = homogeneous_space(D, m)
    P = relation(homogeneous_action(D, X))
    T = restriction_table(D, X, P)
    assert T.one_orbit_per_row and T.dimension_count_ok
    assert kac_constancy_check(D, X, T, P).passed


# rank 1 onto a 2-dim codomain; and a kernel holding d_0 - d_1, whose
# product with d_0 is d_0, which rho does not kill
NOT_SURJECTIVE = np.ones((2, 6))
KERNEL_NOT_IDEAL = np.array([[1.0, 1.0, 0, 0, 0, 0], [0, 0, 1.0, 0, 0, 0]])


@pytest.mark.parametrize("rho", [NOT_SURJECTIVE, KERNEL_NOT_IDEAL],
                         ids=["not_surjective", "kernel_not_ideal"])
def test_hopf_surjection_must_be_a_hopf_surjection(hopf_cs3, dual_cs3, rho):
    with pytest.raises(MorphismError):
        quotient_subgroup(hopf_cs3, dual_cs3, rho)


def _closure_classes(rel):
    """Classes of the equivalence relation generated by rel, from its
    reflexive, symmetric, transitive closure by repeated squaring."""
    r = rel | rel.T | np.eye(rel.shape[0], dtype=bool)
    while True:
        nxt = (r.astype(int) @ r.astype(int)) > 0
        if np.array_equal(nxt, r):
            return sorted({tuple(int(i) for i in np.flatnonzero(row))
                           for row in r})
        r = nxt


SUBGROUP_PAIRS = [("s3_function_algebra.json", "a3_quotient.json"),
                  ("s3_function_algebra.json", "a3_normal_subgroup.json"),
                  ("s3_function_algebra.json", "s3_full_subgroup.json"),
                  ("s3_function_algebra.json", "s3_trivial_subgroup.json"),
                  ("s3_group_algebra.json", "s3_z2_subgroup.json"),
                  ("kp8.json", "kp8_subgroup.json")]


def test_vergnioux_classes_are_closure_classes_on_shipped_pairs(data_dir):
    from finiteqg.io import load_hopf, load_subgroup
    from finiteqg.orbits import subgroup_from_dual_matrix
    duals = {}
    for hopf_file, sub_file in SUBGROUP_PAIRS:
        if hopf_file not in duals:
            H = load_hopf(data_dir / hopf_file)
            duals[hopf_file] = H, dualize(H)
        H, D = duals[hopf_file]
        kind, matrix = load_subgroup(data_dir / sub_file, H.dim)
        m = (subgroup_from_dual_matrix(D, matrix) if kind == "pi"
             else quotient_subgroup(H, D, matrix))
        V = vergnioux_relation(D, m)
        assert [tuple(c) for c in V.classes] == _closure_classes(V.support)


def test_seed_invariance_on_shipped_pairs(data_dir):
    """Dual block dimensions, orbit classes and restriction tables do not
    depend on the seed of the randomized Wedderburn splitting."""
    from finiteqg.core import DEFAULT_SEED
    from finiteqg.io import load_hopf, load_subgroup
    from finiteqg.orbits import subgroup_from_dual_matrix
    hopfs = {f: load_hopf(data_dir / f) for f, _ in SUBGROUP_PAIRS}
    seen = {}
    for seed in (DEFAULT_SEED, 1, 2, 12345):
        duals = {f: dualize(H, seed=seed) for f, H in hopfs.items()}
        for hopf_file, sub_file in SUBGROUP_PAIRS:
            H, D = hopfs[hopf_file], duals[hopf_file]
            kind, matrix = load_subgroup(data_dir / sub_file, H.dim)
            m = (subgroup_from_dual_matrix(D, matrix) if kind == "pi"
                 else quotient_subgroup(H, D, matrix))
            X = homogeneous_space(D, m, seed=seed)
            P = relation(homogeneous_action(D, X))
            T = restriction_table(D, X, P)
            got = (D.irr_dims, X.block_dims, P.classes, T.mult.tolist())
            assert seen.setdefault((hopf_file, sub_file), got) == got, seed


def test_nan_matrix_unit_fails_constancy(dual_cs3, a3_space, a3_partition):
    # a library caller hands in a homogeneous space whose last matrix unit
    # is NaN; the Markov residual must report it, not drop it
    T = restriction_table(dual_cs3, a3_space, a3_partition)
    units = [[list(row) for row in block]
             for block in a3_space.wd.matrix_units]
    e = units[-1][-1][-1]
    units[-1][-1][-1] = type(e)(e.parent, np.full(e.parent.dim, np.nan))
    X = replace(a3_space, wd=replace(a3_space.wd, matrix_units=units))
    rep = kac_constancy_check(dual_cs3, X, T, a3_partition)
    assert np.isnan(rep.markov_residual)
    assert not rep.passed
