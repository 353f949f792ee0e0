"""Maps on one tensor leg are contractions on that leg.

The orbit pipeline applies a map to one leg of a tensor: (rho x rho) and
(rho x id) to the coproduct, (id x delta) to W, the projection onto the
coinvariants to both legs of their coproduct, and the embedding E of a
homogeneous space, or the selection of a corner, to the first leg of an
action.  The star of a tensor product applies one factor's star matrix
per leg.  None of it builds the Kronecker matrix of a map with an
identity, which is d times larger than the data, nor the Kronecker star
matrix.  This file spies on ``np.kron`` to keep it so, and keeps the
Kronecker formulas as the references the contractions must match.  The
coproduct is checked as the regular coaction, by the one coaction check
of every action; the formulas ``verify_hopf`` used before are kept here
as its references.
"""
import functools

import numpy as np
import pytest

from finiteqg import groups
from finiteqg.clifford import quotient_subgroup
from finiteqg.core import (BlockAlgebra, coaction_residuals,
                           distance_to_span, multiplicative_residual, opnorm,
                           pair_products, tensor)
from finiteqg.duality import dualize, mult_unitary
from finiteqg.hopf import (function_algebra, group_algebra, kac_paljutkin,
                           verify_hopf)
from finiteqg.io import load_hopf
from finiteqg.orbits import (ActionMap, coinvariant_normality,
                             homogeneous_action, homogeneous_space,
                             hopf_surjection_checks, relation,
                             subgroup_from_dual_matrix)

from conftest import DATA, kron_star_matrix, subgroup_from_file


# -- the Kronecker references ---------------------------------------------

def _pipi_delta_reference(H, rho):
    return np.kron(rho, rho) @ H.delta.matrix


def _coinvariant_conditions_reference(H, rho):
    eye = np.eye(H.dim)
    unit_q = (rho @ H.algebra.unit_coeffs)[:, None]
    return (np.kron(rho, eye) @ H.delta.matrix - np.kron(unit_q, eye),
            np.kron(eye, rho) @ H.delta.matrix - np.kron(eye, unit_q))


def _coinvariant_subalgebra_reference(H, rho):
    """How far the right coinvariants K of rho are from a Hopf
    *-subalgebra, with K x K spanned by the rows of kron(K, K)."""
    A = H.algebra
    K = coinvariant_normality(H, rho)[1]
    return float(np.max([
        distance_to_span(K, A.star_coeffs(K)),
        distance_to_span(K, K @ H.antipode.matrix.T),
        distance_to_span(K, pair_products(A, K, K)),
        distance_to_span(np.kron(K, K), K @ H.delta.matrix.T)]))


def _homogeneous_action_reference(D, X):
    """The action matrix, one matrix unit at a time, solved by least
    squares on E x I."""
    A, B = D.primal.algebra, D.dual_algebra
    T = tensor(B, A)
    W = mult_unitary(D).element
    E = X.wd.iso.matrix
    big = np.kron(E, np.eye(A.dim))
    rhs = np.empty((B.dim * A.dim, E.shape[1]), dtype=complex)
    for k in range(E.shape[1]):
        x = T.kron_coeffs(E[:, k], A.unit_coeffs)
        rhs[:, k] = T.mul_coeffs(T.mul_coeffs(W.coeffs, x), W.star().coeffs)
    sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    return sol, float(opnorm(big @ sol - rhs))


def _restrict_reference(alpha, blocks):
    """The restricted action matrix, solved by least squares on E x I for
    the selection matrix E of the kept matrix units."""
    N = alpha.module
    cols = [c for b in sorted(blocks)
            for c in range(N.offsets[b], N.offsets[b + 1])]
    E = np.zeros((N.dim, len(cols)), dtype=complex)
    E[cols, np.arange(len(cols))] = 1.0
    big = np.kron(E, np.eye(alpha.hopf.dim))
    sol, *_ = np.linalg.lstsq(big, alpha.alpha.matrix @ E, rcond=None)
    return sol


def test_surjection_and_coinvariants_match_the_kronecker_formulas(
        shipped_pairs):
    for (H, D, m, rho, _) in shipped_pairs.values():
        for hopf, pi in ((D.dual_hopf, m.matrix), (H, rho)):
            if pi is None:
                continue
            want = _pipi_delta_reference(hopf, pi)
            got = hopf_surjection_checks(hopf, pi)
            delta_q = want @ np.linalg.pinv(pi)
            assert abs(got.residuals["intertwines_coproduct"]
                       - float(opnorm(want - delta_q @ pi))) <= 1e-14
            left, right, _ = coinvariant_normality(hopf, pi)
            for basis, cond in zip(
                    (left, right),
                    _coinvariant_conditions_reference(hopf, pi)):
                assert float(opnorm(cond @ basis.T)) <= 1e-12
                assert basis.shape[0] == hopf.dim - np.linalg.matrix_rank(
                    cond, tol=1e-9)


def test_coinvariant_subalgebra_matches_the_kronecker_formula(
        shipped_pairs):
    for (H, D, _, rho, _) in shipped_pairs.values():
        if rho is not None:
            _, checks = quotient_subgroup(H, D, rho)
            assert abs(checks.residuals["coinvariant_subalgebra"]
                       - _coinvariant_subalgebra_reference(H, rho)) <= 1e-14


def test_comultiplication_of_w_matches_the_kronecker_formula(
        shipped_pairs):
    for (_, D, *_) in shipped_pairs.values():
        B, A = D.dual_algebra, D.primal.algebra
        W = mult_unitary(D).element
        want = np.kron(np.eye(B.dim), D.primal.delta.matrix) @ W.coeffs
        T3 = tensor(B, A, A)
        Ci = D.dual_to_block
        w12 = np.einsum("tk,l->tkl", Ci, A.unit_coeffs).reshape(-1)
        w13 = np.einsum("tl,k->tkl", Ci, A.unit_coeffs).reshape(-1)
        ref = T3.norm_coeffs(want - T3.mul_coeffs(w12, w13))
        got = mult_unitary(D).checks.residuals["comultiplication"]
        assert abs(got - ref) <= 1e-14


def test_action_and_restriction_match_the_kronecker_solves(shipped_pairs):
    for key, (_, D, _, _, X) in shipped_pairs.items():
        alpha = homogeneous_action(D, X)
        want, res = _homogeneous_action_reference(D, X)
        assert res <= 1e-12, key
        assert np.max(np.abs(alpha.alpha.matrix - want)) <= 1e-12, key
        for cls in relation(alpha).classes:
            sub = alpha.restrict_to_blocks(cls)
            got = sub.alpha.matrix
            assert np.max(np.abs(got - _restrict_reference(alpha, cls)),
                          initial=0.0) <= 1e-12, (key, cls)
            assert sub.module.block_dims == tuple(
                X.block_dims[b] for b in cls)


def test_restriction_to_a_corner_that_is_not_invariant_fails(
        a3_action, a3_partition):
    # a block of the conjugate pair alone: its unit moves to the other one
    pair = next(c for c in a3_partition.classes if len(c) == 2)
    with pytest.raises(ValueError, match="invariant corner"):
        a3_action.restrict_to_blocks(pair[:1])


def test_action_star_equals_the_kronecker_star(shipped_pairs):
    for (_, D, _, _, X) in shipped_pairs.values():
        alpha = homogeneous_action(D, X)
        T, am = alpha.alpha.codomain, alpha.alpha.matrix
        assert np.array_equal(T.star_coeffs(am.T).T,
                              kron_star_matrix(T) @ np.conj(am))


def test_block_supports_equal_the_ambient_products(shipped_pairs):
    for (_, D, _, _, X) in shipped_pairs.values():
        want = [frozenset(k for k in range(len(D.irr_dims))
                          if not (D.block_projection(k)
                                  * X.block_unit_in_dual(i)).is_zero())
                for i in range(X.size)]
        assert X.block_supports() == want


# -- the coproduct as the regular coaction ---------------------------------

def _square_star_reference(St, DM):
    """(St x St) conj(DM) for a (d^2, d) matrix DM, one leg at a time on
    DM.reshape(d, d, d)."""
    d = St.shape[0]
    first = np.tensordot(St, np.conj(DM).reshape(d, d, -1), 1)  # (a, j, k)
    return (St @ first).reshape(d * d, -1)                      # (a, b, k)


def _coproduct_reference(H):
    """The five coproduct residuals by the formulas verify_hopf used
    before it called the coaction check."""
    A, T2 = H.algebra, H.square
    d = A.dim
    DM, St = H.delta.matrix, A.star_matrix
    D3 = DM.reshape(d, d, d)
    one2 = T2.kron_coeffs(A.unit_coeffs, A.unit_coeffs)
    left = (DM @ DM.reshape(d, d * d)).reshape(d ** 3, d)
    right = (DM @ D3).reshape(d ** 3, d)
    return {
        "delta_unital": T2.norm_coeffs(DM @ A.unit_coeffs - one2),
        "delta_star": float(opnorm(
            DM @ St - _square_star_reference(St, DM))),
        "delta_multiplicative": multiplicative_residual(A, T2, DM),
        "coassociativity": float(opnorm(left - right)),
        "counit_right": float(opnorm(H.counit @ D3 - np.eye(d)))}


# coaction check -> verify_hopf check
COPRODUCT_CHECKS = {"unital": "delta_unital", "star": "delta_star",
                    "multiplicative": "delta_multiplicative",
                    "coaction": "coassociativity", "counit": "counit_right"}

SHIPPED_HOPF = ["kp8", "q8_group_algebra", "s3_function_algebra",
                "s3_group_algebra", "z2_function_algebra",
                "z2_group_algebra", "z3_function_algebra"]
COACTION_GROUPS = {
    "S3": lambda: groups.symmetric(3),
    "Q8": groups.quaternion,
    "Z4xZ4": lambda: groups.direct_product(groups.cyclic(4), groups.cyclic(4)),
    "Z2xZ4": lambda: groups.direct_product(groups.cyclic(2), groups.cyclic(4)),
    "Z12": lambda: groups.cyclic(12),
    "S3xZ2": lambda: groups.direct_product(groups.symmetric(3),
                                           groups.cyclic(2))}
COPRODUCT_CASES = (SHIPPED_HOPF + ["kac_paljutkin()"]
                   + [f"{kind} {g}" for g in COACTION_GROUPS
                      for kind in ("C(G)", "C[G]", "dual C(G)")])


@functools.lru_cache(maxsize=None)
def _coproduct_case(label):
    if label in SHIPPED_HOPF:
        return load_hopf(DATA / f"{label}.json")
    if label == "kac_paljutkin()":
        return kac_paljutkin()
    kind, name = label.rsplit(" ", 1)
    G = COACTION_GROUPS[name]()
    if kind == "C[G]":
        return group_algebra(G)
    H = function_algebra(G)
    return H if kind == "C(G)" else dualize(H).dual_hopf


@pytest.mark.parametrize("label", COPRODUCT_CASES)
def test_coproduct_residuals_are_the_regular_coaction_bit_for_bit(label):
    H = _coproduct_case(label)
    A, DM = H.algebra, H.delta.matrix
    got = verify_hopf(H).residuals
    want = _coproduct_reference(H)
    co = coaction_residuals(A, H.square, DM, DM, H.counit)
    assert co.keys() == COPRODUCT_CHECKS.keys()
    for name, hopf_name in COPRODUCT_CHECKS.items():
        assert got[hopf_name] == want[hopf_name] == co[name], name
    if isinstance(A, BlockAlgebra):
        # the regular coaction as an action of H on its own algebra
        assert ActionMap(H, A, H.delta, None).verify().residuals == co


@pytest.mark.parametrize("label", COPRODUCT_CASES)
def test_tensor_star_is_the_kronecker_star(label):
    H = _coproduct_case(label)
    A, DM, St = H.algebra, H.delta.matrix, H.algebra.star_matrix
    # leg by leg as verify_hopf took it before, for every star
    assert np.array_equal(H.square.star_coeffs(DM.T).T,
                          _square_star_reference(St, DM))
    if not set(np.unique(St)) <= {0, 1}:
        return  # the monomial KP8 star rounds in another order
    rng = np.random.default_rng(43)
    squares = [tensor(A, A)] + ([tensor(A, A, A)] if A.dim <= 8 else [])
    for T in squares:
        x = rng.standard_normal((3, T.dim)) + 1j * rng.standard_normal(
            (3, T.dim))
        assert np.array_equal(T.star_coeffs(x),
                              np.conj(x) @ kron_star_matrix(T).T)
    assert np.array_equal(H.square.star_coeffs(DM.T).T,
                          kron_star_matrix(H.square) @ np.conj(DM))


# -- no Kronecker matrix ---------------------------------------------------

def _no_kron(*_):
    raise AssertionError("np.kron called")


@pytest.mark.parametrize("hopf_file, sub_file", [
    ("kp8.json", "kp8_subgroup.json"),
    ("s3_function_algebra.json", "a3_quotient.json"),
    ("s3_function_algebra.json", "a3_normal_subgroup.json")])
def test_leg_maps_build_no_kronecker_matrix(monkeypatch, hopf_file,
                                            sub_file):
    H = load_hopf(DATA / hopf_file)
    D = dualize(H)
    m, rho = subgroup_from_file(H, D, sub_file)
    X = homogeneous_space(D, m)
    assert D._w is None  # so mult_unitary builds W under the spy
    with monkeypatch.context() as patch:
        patch.setattr(np, "kron", _no_kron)
        for hopf, pi in ((D.dual_hopf, m.matrix), (H, rho)):
            if pi is not None:
                hopf_surjection_checks(hopf, pi)
                coinvariant_normality(hopf, pi)
        if rho is not None:
            quotient_subgroup(H, D, rho)
        mult_unitary(D)
        alpha = homogeneous_action(D, X)
        for cls in relation(alpha).classes:
            alpha.restrict_to_blocks(cls)


def test_coaction_checks_build_no_kronecker_matrix(monkeypatch):
    s3 = groups.symmetric(3)
    H = group_algebra(s3)
    D = dualize(H)
    # the subgroup {e, t} for a transposition t, on the raw dual basis
    t = next(g for g in range(6) if g != s3.identity and s3.inverses[g] == g)
    pi = np.zeros((2, 6))
    pi[0, s3.identity] = pi[1, t] = 1.0
    with monkeypatch.context() as patch:
        patch.setattr(np, "kron", _no_kron)
        verify_hopf(H)
        verify_hopf(kac_paljutkin())
        X = homogeneous_space(D, subgroup_from_dual_matrix(D, pi))
        alpha = homogeneous_action(D, X)
        # the Pol(G) leg of the action is the generic algebra C[S3]
        assert not isinstance(alpha.alpha.codomain.factors[1], BlockAlgebra)
        assert alpha.verify().passed
        assert len(relation(alpha).classes) == 3


# -- C(S4) with the sign quotient --------------------------------------------

def _derived_subgroup(table):
    """[G, G] from the Cayley table: the closure of the commutators."""
    t = np.asarray(table)
    n = t.shape[0]
    e = next(g for g in range(n) if np.array_equal(t[g], np.arange(n)))
    inv = [int(np.flatnonzero(t[g] == e)[0]) for g in range(n)]
    sub = {int(t[t[a, b], t[inv[a], inv[b]]])
           for a in range(n) for b in range(n)}
    while (grown := sub | {int(t[a, b]) for a in sub for b in sub}) != sub:
        sub = grown
    return sorted(sub), inv


def test_s4_sign_quotient_has_one_orbit_class_per_s4_class_in_a4():
    s4 = groups.symmetric(4)
    t = s4.table
    a4, inv = _derived_subgroup(t)
    classes = {frozenset(int(t[t[g, x], inv[g]]) for g in range(24))
               for x in range(24)}
    want = sum(c <= set(a4) for c in classes)
    assert want == 3
    sign = -np.ones(24)
    sign[a4] = 1.0
    D = dualize(function_algebra(s4))
    m = subgroup_from_dual_matrix(D, np.stack([np.ones(24), sign]))
    assert m.normal
    X = homogeneous_space(D, m)
    P = relation(homogeneous_action(D, X))
    assert len(P.classes) == want
    assert P.checks.passed
