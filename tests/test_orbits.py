from dataclasses import replace

import numpy as np
import pytest

from finiteqg import groups
from finiteqg.classical import permutation_magic
from finiteqg.core import (BlockAlgebra, CheckError, LinMap, Tolerance,
                           opnorm, tensor)
from finiteqg.core import distance_to_span, nullspace, orthonormal_rows
from finiteqg.duality import dualize, mult_unitary
from finiteqg.hopf import (function_algebra, group_algebra, kac_paljutkin,
                           verify_hopf)
from finiteqg.orbits import (ActionMap, MorphismError, _relation_classes,
                             central_supports, ergodicity, full_subgroup,
                             homogeneous_action, homogeneous_space,
                             hopf_surjection_checks, relation,
                             subgroup_from_dual_matrix, trivial_subgroup)


def test_full_subgroup_space_is_scalars(dual_cs3):
    m = full_subgroup(dual_cs3)
    X = homogeneous_space(dual_cs3, m)
    assert X.block_dims == (1,)
    alpha = homogeneous_action(dual_cs3, X)
    P = relation(alpha)
    assert P.classes == [[0]]
    supports, _, checks = central_supports(dual_cs3, X, P)
    assert checks.passed
    assert np.flatnonzero(supports[0]).tolist() == [0, 1, 2]


def test_trivial_subgroup_space_is_everything(dual_cs3):
    m = trivial_subgroup(dual_cs3)
    X = homogeneous_space(dual_cs3, m)
    assert sorted(X.block_dims) == [1, 1, 2]
    alpha = homogeneous_action(dual_cs3, X)
    P = relation(alpha)
    assert P.classes == [[0], [1], [2]]


def test_a3_space_is_even_group_span(s3, dual_cs3, a3_space):
    # oracle: the coinvariants are spanned by the dual-basis functionals
    # attached to even permutations
    Ci = np.linalg.inv(dual_cs3.block_to_dual)
    even = groups.alternating_indices(s3)
    oracle = orthonormal_rows(np.stack([Ci[:, g] for g in even]))
    basis = a3_space.morphism.coinvariants
    assert basis.shape[0] == 3
    for v in basis:
        assert distance_to_span(oracle, v) <= 1e-10
    for v in oracle:
        assert distance_to_span(basis, v) <= 1e-10


def test_homogeneous_action_is_conjugation(s3, dual_cs3):
    # oracle: W (lambda_h x 1) W* = sum_g lambda_{g h g^-1} x delta_g
    B = dual_cs3.dual_algebra
    A = dual_cs3.primal.algebra
    T = tensor(B, A)
    mult_unitary(dual_cs3)
    w = dual_cs3.dual_to_block.reshape(-1)
    Ci = np.linalg.inv(dual_cs3.block_to_dual)
    inv = {g: s3.inverse(g) for g in range(6)}
    for h in range(6):
        x = T.kron_coeffs(Ci[:, h], A.unit_coeffs)
        got = T.mul_coeffs(T.mul_coeffs(w, x), T.star_coeffs(w))
        want = np.zeros(T.dim, dtype=complex)
        for g in range(6):
            ghg = s3.table[s3.table[g, h], inv[g]]
            want += T.kron_coeffs(Ci[:, ghg], np.eye(6)[g])
        assert T.norm_coeffs(got - want) <= 1e-10


def test_a3_orbit_classes(a3_space, a3_partition, a3_trivial_block):
    assert a3_space.block_dims == (1, 1, 1)
    triv = a3_trivial_block
    assert [triv] in a3_partition.classes
    pair = next(c for c in a3_partition.classes if len(c) == 2)
    assert sorted(pair + [triv]) == [0, 1, 2]
    assert a3_partition.checks.flags["relation_equivalence"]
    assert a3_partition.checks.residuals["invariant_projections"] <= 1e-9


def test_a3_central_supports(dual_cs3, a3_space, a3_partition,
                             a3_trivial_block):
    supports, zs, checks = central_supports(dual_cs3, a3_space, a3_partition)
    assert checks.passed
    assert checks.residuals["central_support_class_sums"] <= 1e-9
    assert checks.flags["central_support_orthogonality"]
    triv = a3_trivial_block
    # classical restriction table: trivial block sits under {triv, sgn},
    # the conjugate pair under the 2-dim representation
    assert np.flatnonzero(supports[triv]).tolist() == [0, 1]
    for i in range(3):
        if i != triv:
            assert np.flatnonzero(supports[i]).tolist() == [2]
    # z(1_omega) = 1_omega + 1_omegabar
    pair = next(c for c in a3_partition.classes if len(c) == 2)
    s = a3_space.wd.central_idempotents[pair[0]] \
        + a3_space.wd.central_idempotents[pair[1]]
    for i in pair:
        assert dual_cs3.dual_algebra.norm_coeffs(zs[i] - s) <= 1e-9


def test_central_support_decision_uses_callers_tolerance(
        dual_cs3, a3_space, a3_partition):
    *_, loose = central_supports(dual_cs3, a3_space, a3_partition,
                                 Tolerance(1e-6))
    assert loose.tol == Tolerance(1e-6)
    # a class sum residual of 1e-7 passes at 1e-6, not at the default 1e-9
    name = "central_support_class_sums"
    assert replace(loose, residuals={**loose.residuals, name: 1e-7}).passed
    *_, default = central_supports(dual_cs3, a3_space, a3_partition)
    assert not replace(default,
                       residuals={**default.residuals, name: 1e-7}).passed


def _transitive(rel):
    """Transitivity of the symmetrized relation, straight from its matrix."""
    sym = (rel | rel.T).astype(int)
    return bool(np.all((sym @ sym > 0) <= (sym > 0)))


def test_flip_grouped_relation_not_transitive():
    # Z2 flipping 1<->2 and 3<->4, grouped as {1}, {2,3}, {4}
    z2 = groups.cyclic(2)
    H = function_algebra(z2)
    act = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
    alpha = replace(permutation_magic(H, act), summands=[[0], [1, 2], [3]])
    P = relation(alpha)
    assert P.checks.flags["relation_symmetric"]
    assert not P.checks.flags["relation_equivalence"]
    assert not _transitive(P.relation)
    assert not all(len(g) == 1 for g in alpha.summands)
    want = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
    assert np.array_equal(P.relation, want)


def test_flip_singleton_relation_is_equivalence():
    z2 = groups.cyclic(2)
    H = function_algebra(z2)
    act = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
    alpha = permutation_magic(H, act)
    P = relation(alpha)
    assert all(len(g) == 1 for g in alpha.summands)
    assert P.checks.flags["relation_equivalence"]
    assert P.classes == [[0, 1], [2, 3]]
    assert P.checks.residuals["invariant_projections"] <= 1e-9


def test_restriction_refuses_negative_and_repeated_blocks():
    # the Z2 flip of four points: a negative block must not wrap around,
    # and a repeated block must not double a corner
    H = function_algebra(groups.cyclic(2))
    alpha = permutation_magic(H, np.array([[0, 1, 2, 3], [1, 0, 3, 2]]))
    with pytest.raises(IndexError, match="block index out of range"):
        alpha.restrict_to_blocks([-4, -3])
    with pytest.raises(ValueError, match="repeated block"):
        alpha.restrict_to_blocks([0, 0, 1, 1])
    # an empty block list is named, not taken for an empty block algebra
    assert alpha.module.block_indices([]).tolist() == []
    with pytest.raises(ValueError, match="block list is empty"):
        alpha.restrict_to_blocks([])
    assert alpha.restrict_to_blocks([3, 2]).module.block_dims == (1, 1)


def test_empty_summand_is_refused():
    # the Z2 flip of two points, with an empty summand between the points
    H = function_algebra(groups.cyclic(2))
    flip = permutation_magic(H, np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match=r"summands \[1\] are empty"):
        ActionMap(H, flip.module, flip.matrix, [[0], [], [1]])


def test_trivial_group_acts_with_identity_relation():
    H = function_algebra(groups.trivial())
    N = BlockAlgebra([1, 2, 1])
    mat = np.kron(np.eye(N.dim), H.algebra.unit_coeffs[:, None])
    alpha = ActionMap(H, N, mat)
    alpha.verify()
    P = relation(alpha)
    assert P.classes == [[0], [1], [2]]
    assert P.checks.flags["relation_equivalence"]


def test_coproduct_action_is_ergodic(hopf_cs3):
    alpha = ActionMap(hopf_cs3, hopf_cs3.algebra, hopf_cs3.delta.matrix)
    alpha.verify()
    fixed, erg = ergodicity(alpha)
    assert erg


def test_flip_ergodicity():
    z2 = groups.cyclic(2)
    H = function_algebra(z2)
    fixed, erg = ergodicity(permutation_magic(H, np.array([[0, 1], [1, 0]])))
    assert erg and fixed.shape[0] == 1
    alpha = permutation_magic(H, np.array([[0, 1, 2, 3], [1, 0, 3, 2]]))
    fixed, erg = ergodicity(alpha)
    assert not erg and fixed.shape[0] == 2
    assert len(relation(alpha).classes) == 2


def test_action_on_a_generic_algebra_is_refused():
    H = group_algebra(groups.symmetric(3))
    with pytest.raises(TypeError, match="BlockAlgebra"):
        ActionMap(H, H.algebra, H.delta.matrix)
    with pytest.raises(TypeError, match="BlockAlgebra"):
        ActionMap(H, H.algebra, H.delta.matrix, [[0]])


def test_action_matrix_for_the_wrong_hopf_dimension_is_refused(hopf_cs3):
    # the regular coaction of C(S3), dimension 6, offered as an action of
    # the two-point C(Z2): the matrix is (36, 6), the action needs (12, 6)
    z2 = function_algebra(groups.cyclic(2))
    with pytest.raises(ValueError, match=r"shape \(36, 6\), expected "
                                         r"\(12, 6\)"):
        ActionMap(z2, hopf_cs3.algebra, hopf_cs3.delta.matrix)
    alpha = ActionMap(hopf_cs3, hopf_cs3.algebra, hopf_cs3.delta.matrix)
    assert alpha.codomain == hopf_cs3.delta.codomain


def test_ergodicity_fixed_points_equal_the_kronecker_form(
        hopf_cs3, dual_kp8, kp8_morphism, a3_action):
    # the fixed points solve alpha(x) = x (x) 1, whose embedding once was
    # np.kron(eye, unit); the broadcast form gives the same bits
    z2 = function_algebra(groups.cyclic(2))
    trivial = function_algebra(groups.trivial())
    N = BlockAlgebra([1, 2, 1])
    actions = [
        ActionMap(hopf_cs3, hopf_cs3.algebra, hopf_cs3.delta.matrix),
        permutation_magic(z2, np.array([[0, 1], [1, 0]])),
        permutation_magic(z2, np.array([[0, 1, 2, 3], [1, 0, 3, 2]])),
        ActionMap(trivial, N, np.kron(
            np.eye(N.dim), trivial.algebra.unit_coeffs[:, None])),
        homogeneous_action(dual_kp8, homogeneous_space(dual_kp8,
                                                       kp8_morphism)),
        a3_action]
    for alpha in actions:
        N, A = alpha.module, alpha.hopf.algebra
        embed = np.kron(np.eye(N.dim), A.unit_coeffs[:, None])
        want = nullspace(alpha.matrix - embed)
        fixed, _ = ergodicity(alpha)
        assert np.array_equal(fixed, want)


def test_ergodic_iff_one_class_on_classical_base(dual_kp8, kp8_morphism):
    # the KP8 homogeneous space is a classical 4-point space, where
    # ergodicity and having a single orbit class are equivalent
    X = homogeneous_space(dual_kp8, kp8_morphism)
    assert X.block_dims == (1, 1, 1, 1)
    alpha = homogeneous_action(dual_kp8, X)
    _, erg = ergodicity(alpha)
    P = relation(alpha)
    assert erg == (len(P.classes) == 1)


def test_full_subgroup_of_the_s4_dual_checks_only_the_coproduct():
    # pi = id on the 24-dimensional dual of C(S4): every one of its 5
    # blocks survives, the kernel is zero, so the only surjection residual
    # is the intertwining of the coproducts
    D = dualize(function_algebra(groups.symmetric(4)))
    m = full_subgroup(D)
    assert m.rank == 24
    assert m.surviving == [0, 1, 2, 3, 4]
    assert list(m.surjection.residuals) == ["intertwines_coproduct"]
    assert m.surjection.passed


def test_bad_morphism_rejected(dual_cs3):
    # a surjection that does not intertwine the coproducts
    rng = np.random.default_rng(3)
    bad = rng.standard_normal((2, 6))
    with pytest.raises(MorphismError):
        subgroup_from_dual_matrix(dual_cs3, bad)


def test_kp8_subgroup_space(dual_kp8, kp8_morphism):
    assert kp8_morphism.rank == 2
    assert kp8_morphism.normal
    X = homogeneous_space(dual_kp8, kp8_morphism)
    assert X.block_dims == (1, 1, 1, 1)
    alpha = homogeneous_action(dual_kp8, X)
    P = relation(alpha)
    *_, checks = central_supports(dual_kp8, X, P)
    assert checks.passed


def _component_norm_reference(alpha, j, image):
    """Norm of the rows of summand j of ``image`` = alpha(x), the rest cut
    to zero, in the codomain; for x = 1_i it is the (j, i) component
    alpha_{ji}(1_i) of the action, one pair at a time."""
    Y = image.reshape(alpha.module.dim, alpha.hopf.dim)
    cut = np.zeros_like(Y)
    rows = alpha.module.block_indices(alpha.summands[j])
    cut[rows, :] = Y[rows, :]
    return alpha.codomain.norm_coeffs(cut.reshape(-1))


def _relation_reference(alpha, tol):
    m = alpha.size
    scale = float(opnorm(alpha.matrix))
    norms = np.zeros((m, m))
    for i in range(m):
        unit = sum(alpha.module.block_unit(b) for b in alpha.summands[i])
        image = alpha.matrix @ unit
        for j in range(m):
            norms[j, i] = _component_norm_reference(alpha, j, image)
    return ~Tolerance(tol).is_zero(norms, scale), norms, scale


def _relation_cases(shipped_pairs, data_dir):
    """Every shipped subgroup pair's action, each shipped magic action,
    an action with a generic codomain (the dual of C[S3] acting on
    itself, a C[S3] leg) and one with a summand of two blocks."""
    from finiteqg.io import load_hopf, load_magic
    cases = {f"{h} {s}": homogeneous_action(D, X)
             for (h, s), (_, D, _, _, X) in shipped_pairs.items()}
    for hopf, magic in [("kp8", "kp8_magic4"),
                        ("z3_function_algebra", "z3_cycle"),
                        ("z2_function_algebra", "z2_double_flip")]:
        cases[magic] = load_magic(data_dir / f"{magic}.json",
                                  load_hopf(data_dir / f"{hopf}.json"))
    for name, H in [("C[S3]", group_algebra(groups.symmetric(3))),
                    ("kp8 monomials", kac_paljutkin())]:
        D = dualize(H)
        alpha = homogeneous_action(D, homogeneous_space(D,
                                                        trivial_subgroup(D)))
        assert not alpha.codomain._block_stacks()
        k = len(alpha.module.block_dims)
        cases[f"generic {name}"] = alpha
        cases[f"generic {name}, two summands"] = replace(
            alpha, summands=[[0, k - 1], list(range(1, k - 1))])
    return cases


def test_relation_matches_component_norms(a3_action, a3_partition,
                                          shipped_pairs, data_dir):
    cases = _relation_cases(shipped_pairs, data_dir)
    cases["a3"] = a3_action
    assert relation(a3_action).relation.tolist() \
        == a3_partition.relation.tolist()
    for name, alpha in cases.items():
        want, norms, scale = _relation_reference(alpha, 1e-9)
        assert np.array_equal(relation(alpha).relation, want), name
        # a threshold just above and just below every non-zero component
        for c in np.unique(norms[norms > 1e-6]):
            for eps in (c / (1 + scale) * (1 - 1e-9),
                        c / (1 + scale) * (1 + 1e-9)):
                want = _relation_reference(alpha, eps)[0]
                assert np.array_equal(relation(alpha, eps).relation,
                                      want), (name, eps)


def _action_reference(alpha):
    """The residuals of ActionMap.verify, one basis pair at a time and
    through np.kron."""
    A, N = alpha.hopf, alpha.module
    T, am = alpha.codomain, alpha.matrix
    eye = np.eye(N.dim)
    worst = 0.0
    for p in range(N.dim):
        for q in range(N.dim):
            diff = (am @ N.mul_coeffs(eye[p], eye[q])
                    - T.mul_coeffs(am[:, p], am[:, q]))
            worst = max(worst, T.norm_coeffs(diff))
    coaction = (np.kron(am, np.eye(A.dim)) @ am
                - np.kron(eye, A.delta.matrix) @ am)
    counit = np.kron(eye, A.counit[None, :]) @ am - eye
    return {"multiplicative": worst,
            "coaction": np.linalg.norm(coaction, 2),
            "counit": np.linalg.norm(counit, 2)}


def test_action_verify_matches_per_pair_reference(a3_action, hopf_cs3,
                                                  kp8_block):
    for alpha in (a3_action,
                  ActionMap(hopf_cs3, hopf_cs3.algebra, hopf_cs3.delta.matrix),
                  ActionMap(kp8_block, kp8_block.algebra,
                            kp8_block.delta.matrix)):
        got = alpha.verify()
        for name, want in _action_reference(alpha).items():
            assert abs(got.residuals[name] - want) <= 1e-13, name


def test_action_verify_sees_the_last_pair(kp8_block):
    # corrupt alpha(e_{d-1}), the last row of every stacked pair check
    d = kp8_block.dim
    am = kp8_block.delta.matrix.copy()
    am[0, d - 1] += 0.25
    N = kp8_block.algebra
    alpha = ActionMap(kp8_block, N, am)
    with pytest.raises(ValueError, match="multiplicative"):
        alpha.verify()


def _not_surjective_pi(D):
    # two equal rows: rank 1 onto a 2-dim codomain
    return np.stack([np.ones(6), np.ones(6)])


def _pi_kernel_not_ideal(D):
    # the trivial block and one off-diagonal matrix-unit coordinate of the
    # 2-dim block, in raw dual coordinates: e_00 of that block lies in the
    # kernel, and e_00 e_01 = e_01 does not
    B = D.dual_algebra
    rows = np.zeros((2, B.dim))
    rows[0, B.index(0, 0, 0)] = rows[1, B.index(2, 0, 1)] = 1.0
    return rows @ np.linalg.inv(D.block_to_dual)


@pytest.mark.parametrize("craft", [_not_surjective_pi, _pi_kernel_not_ideal])
def test_pi_must_be_a_hopf_surjection(dual_cs3, craft):
    with pytest.raises(MorphismError):
        subgroup_from_dual_matrix(dual_cs3, craft(dual_cs3))


@pytest.mark.parametrize("in_block_coords", [False, True])
@pytest.mark.parametrize("shape", [(2, 5), (2, 7), (6,), (1, 2, 6)])
def test_pi_of_the_wrong_shape_is_a_morphism_error(dual_cs3, shape,
                                                   in_block_coords):
    # checked before the product with block_to_dual, whose width is 6
    with pytest.raises(MorphismError, match="wrong shape"):
        subgroup_from_dual_matrix(dual_cs3, np.zeros(shape),
                                  in_block_coords=in_block_coords)


def test_pi_killing_every_central_idempotent_rejected(dual_cs3):
    # no block survives, so there is no support projection to build
    row = np.zeros((1, dual_cs3.dual_algebra.dim))
    row[0, dual_cs3.dual_algebra.index(2, 0, 1)] = 1.0
    with pytest.raises(MorphismError, match="full blocks"):
        subgroup_from_dual_matrix(dual_cs3, row, in_block_coords=True)


def test_nan_action_fails_invariance_residual(a3_action):
    am = a3_action.matrix.copy()
    am[0, 0] = np.nan
    bad = ActionMap(a3_action.hopf, a3_action.module, am,
                    a3_action.summands)
    P = relation(bad)
    assert np.isnan(P.checks.residuals["invariant_projections"])
    assert not Tolerance().is_zero(P.checks.residuals["invariant_projections"])
    assert P.checks.failures() == ["invariant_projections"]


def _nan_block_unit(X):
    """The homogeneous space with a NaN in the last column of its iso, the
    last matrix unit of its last block, as a library caller might build
    it.  The ambient idempotents are exact block units, so a NaN can only
    come in through the space."""
    iso = X.wd.iso
    units = iso.matrix.copy()
    units[-1, -1] = np.nan
    return replace(X, wd=replace(X.wd, iso=LinMap(iso.domain, iso.codomain,
                                                  units)))


def test_nan_central_support_fails_class_sum(dual_cs3, a3_space,
                                             a3_partition):
    *_, checks = central_supports(dual_cs3, _nan_block_unit(a3_space),
                                  a3_partition)
    assert np.isnan(checks.residuals["central_support_class_sums"])
    assert not checks.passed


def test_nan_central_support_fails_orthogonality(dual_cs3, a3_space,
                                                 a3_partition):
    # the NaN unit's support is every block, so it meets the supports of
    # the blocks it is not related to
    *_, checks = central_supports(dual_cs3, _nan_block_unit(a3_space),
                                  a3_partition)
    assert not checks.flags["central_support_orthogonality"]
    assert np.isnan(checks.residuals["central_support_class_sums"])
    assert not checks.passed


# -- a NaN or inf fails before a rank SVD could raise LinAlgError -----------

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_action_is_not_a_coaction(kp8_block, bad):
    am = kp8_block.delta.matrix.copy()
    am[0, kp8_block.dim - 1] = bad
    N = kp8_block.algebra
    alpha = ActionMap(kp8_block, N, am)
    with pytest.raises(ValueError, match="not a coaction: the action matrix "
                                         "is not finite.*multiplicative=nan"):
        alpha.verify()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_surjection_is_a_morphism_error(hopf_cs3, bad):
    rho = np.eye(hopf_cs3.dim)[:2].astype(complex)
    rho[1, -1] = bad
    with pytest.raises(MorphismError, match="not finite"):
        hopf_surjection_checks(hopf_cs3, rho)


# -- no Hopf *-surjection targets the zero algebra ----------------------------

def test_zero_row_pi_is_a_morphism_error(dual_cs3):
    with pytest.raises(MorphismError, match="no rows"):
        subgroup_from_dual_matrix(dual_cs3, np.zeros((0, 6)))


def test_zero_row_surjection_is_a_morphism_error(hopf_cs3):
    with pytest.raises(MorphismError, match="no rows"):
        hopf_surjection_checks(hopf_cs3, np.zeros((0, hopf_cs3.dim)))


# -- a finite but huge action or surjection fails its checks -----------------

def test_huge_action_fails_as_a_coaction_without_overflow(kp8_block):
    # every residual and the scale 1 + ||alpha||^2 overflow; the parent
    # squared ||alpha|| as a Python float and raised OverflowError
    N = kp8_block.algebra
    alpha = ActionMap(kp8_block, N, 1e160 * kp8_block.delta.matrix)
    with pytest.raises(CheckError, match="^not a coaction: unital="):
        alpha.verify()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_hopf_entry_fails_its_axiom_check_without_overflow(hopf_cs3):
    # the scales ||S||^2 and ||delta||^2 overflow to inf; squared as
    # Python floats they would raise OverflowError
    A = hopf_cs3.algebra
    # a complex copy of the coproduct, which is stored real
    S, DM = hopf_cs3.antipode.matrix.copy(), hopf_cs3.delta.matrix.astype(
        complex)
    S[0, 0] += 1e160
    DM[0, 0] += 1e308 + 1e308j
    for bad, check in [
            (replace(hopf_cs3, antipode=LinMap(A, A, S)),
             "antipode_involutive"),
            (replace(hopf_cs3, delta=LinMap(A, hopf_cs3.square, DM)),
             "delta_multiplicative")]:
        checks = verify_hopf(bad)
        assert not np.isfinite(checks.scales[check])
        assert check in checks.failures()


def test_huge_surjection_fails_as_a_morphism_without_overflow(hopf_cs3, s3):
    # restriction to A3 is a Hopf *-surjection; times 1e160 its checks and
    # the scale ||rho||^2 overflow
    rho = np.eye(hopf_cs3.dim)[groups.alternating_indices(s3)]
    hopf_surjection_checks(hopf_cs3, rho)
    with pytest.raises(MorphismError, match="not a Hopf \\*-surjection"):
        hopf_surjection_checks(hopf_cs3, 1e160 * rho)


def test_verify_returns_the_judged_record(kp8_block):
    N = kp8_block.algebra
    checks = ActionMap(kp8_block, N, kp8_block.delta.matrix).verify()
    assert checks.passed
    assert sorted(checks.residuals) == ["coaction", "counit", "multiplicative",
                                        "star", "unital"]
    scale = 1.0 + np.linalg.norm(kp8_block.delta.matrix, 2) ** 2
    for name in checks.residuals:
        assert abs(checks.scales[name] - scale) <= 1e-12 * scale


# -- relation classes against a breadth-first search --------------------------

def _bfs_classes(rel):
    """Connected components of the undirected graph of a boolean matrix,
    by breadth-first search; each component and the list sorted."""
    m = len(rel)
    seen, classes = set(), []
    for start in range(m):
        if start in seen:
            continue
        comp, queue = {start}, [start]
        while queue:
            i = queue.pop(0)
            for j in range(m):
                if (rel[i, j] or rel[j, i]) and j not in comp:
                    comp.add(j)
                    queue.append(j)
        seen |= comp
        classes.append(sorted(comp))
    return sorted(classes)


def test_relation_classes_match_breadth_first_search():
    rng = np.random.default_rng(59)
    for trial in range(300):
        m = int(rng.integers(1, 13))
        rel = rng.random((m, m)) < rng.uniform(0.0, 0.3)
        if trial % 3 == 0:
            # a one-way chain through a random order of the points, so
            # that a class takes many squarings to close
            order = rng.permutation(m)
            rel[order[:-1], order[1:]] = True
        got = _relation_classes(rel)
        assert got == _bfs_classes(rel), rel.astype(int)
        assert all(type(i) is int for c in got for i in c)


def test_relation_classes_of_a_long_chain_are_one_class():
    m = 17
    rel = np.zeros((m, m), dtype=bool)
    rel[np.arange(m - 1), np.arange(1, m)] = True
    assert _relation_classes(rel) == [list(range(m))]
    assert _relation_classes(np.zeros((3, 3), dtype=bool)) == [[0], [1], [2]]
