from dataclasses import replace

import numpy as np
import pytest

from finiteqg import duality, groups
from finiteqg.core import Algebra, CheckError, LinMap
from finiteqg.duality import (contragredient, corep_of, dualize,
                              mult_unitary, tensor_mult)
from finiteqg.hopf import function_algebra, group_algebra

from conftest import kron_star_matrix
from test_shortcuts import INSTANCES, _instance

# textbook character table of S3; classes e, 3-cycles, transpositions
S3_CLASS_SIZES = np.array([1, 2, 3])
S3_CHARS = {"triv": np.array([1, 1, 1]),
            "sgn": np.array([1, 1, -1]),
            "std": np.array([2, -1, 0])}


def s3_fusion_mult(sigma, gamma, tau):
    chi = (S3_CHARS[sigma] * S3_CHARS[gamma] * S3_CHARS[tau])
    return int(round(float(np.sum(S3_CLASS_SIZES * chi)) / 6.0))


def test_pontryagin_z2():
    D = dualize(function_algebra(groups.cyclic(2)))
    assert D.irr_dims == (1, 1)


def test_dual_of_group_algebra_is_functions(hopf_gs3):
    D = dualize(hopf_gs3)
    assert D.irr_dims == (1, 1, 1, 1, 1, 1)
    assert D.dual_algebra.is_commutative()


def test_dual_of_functions_s3(dual_cs3):
    assert dual_cs3.irr_dims == (1, 1, 2)


def test_kp8_self_dual_blocks(dual_kp8):
    assert dual_kp8.irr_dims == (1, 1, 1, 1, 2)


def test_double_dual_blocks(hopf_cs3, kp8_block):
    for H, want in [(hopf_cs3, (1,) * 6), (kp8_block, (1, 1, 1, 1, 2))]:
        D = dualize(H)
        DD = dualize(D.dual_hopf)
        assert tuple(sorted(DD.irr_dims)) == tuple(sorted(
            H.algebra.block_dims))


def test_mult_unitary_residuals_all_examples(hopf_cs3, hopf_gs3, kp8_block):
    for H in [function_algebra(groups.cyclic(2)), hopf_cs3, hopf_gs3,
              kp8_block]:
        w = mult_unitary(dualize(H))
        assert w.checks.max_residual() <= 1e-9


def test_mult_unitary_builds_no_tensor_star_matrix(monkeypatch):
    # W* on tensor(B, A), both block algebras, takes the blockwise adjoint:
    # the Kronecker star matrix of the tensor product is never formed, and
    # W* is its product with conj(W) bit for bit
    def refuse(*_):
        raise AssertionError("np.kron called")

    D = dualize(function_algebra(groups.symmetric(3)))
    with monkeypatch.context() as patch:
        patch.setattr(np, "kron", refuse)
        w = mult_unitary(D)
        star = w.element.star().coeffs
    assert w.checks.passed
    assert np.array_equal(star, kron_star_matrix(w.element.parent)
                          @ np.conj(w.element.coeffs))


def test_corep_identity_and_unitarity(dual_cs3, dual_kp8):
    # corep_of's checks are mult_unitary's; here every entry of U U*,
    # U* U and delta(U_rs) - sum_k U_rk x U_ks is taken on its own
    for D in [dual_cs3, dual_kp8]:
        A, H = D.primal.algebra, D.primal
        for label in D.irr_labels:
            U = corep_of(D, label)
            n = label.dim
            for r in range(n):
                for s in range(n):
                    target = A.one() if r == s else A.zero()
                    row = sum((U[r][k] * U[s][k].star() for k in range(n)),
                              A.zero())
                    col = sum((U[k][r].star() * U[k][s] for k in range(n)),
                              A.zero())
                    fused = sum(np.kron(U[r][k].coeffs, U[k][s].coeffs)
                                for k in range(n))
                    assert (row - target).norm() <= 1e-9
                    assert (col - target).norm() <= 1e-9
                    assert H.square.norm_coeffs(
                        H.delta_of(U[r][s]).coeffs - fused) <= 1e-9


def test_s3_fusion_against_character_table(dual_cs3):
    names = {0: "triv", 1: "sgn", 2: "std"}
    for s in range(3):
        for g in range(3):
            mult = tensor_mult(dual_cs3, s, g)
            for t in range(3):
                assert mult[t] == s3_fusion_mult(names[s], names[g], names[t])


def test_fusion_unit(dual_cs3):
    for label in dual_cs3.irr_labels:
        mult = tensor_mult(dual_cs3, dual_cs3.trivial, label)
        want = np.zeros(3, dtype=int)
        want[label.index] = 1
        assert np.array_equal(mult, want)


def test_fusion_dimension_count(dual_kp8):
    dims = np.array(dual_kp8.irr_dims)
    for s in range(5):
        for g in range(5):
            mult = tensor_mult(dual_kp8, s, g)
            assert int(mult @ dims) == dims[s] * dims[g]


def test_kp8_two_dim_fusion(dual_kp8):
    two = dual_kp8.irr_labels[4]
    assert np.array_equal(tensor_mult(dual_kp8, two, two), [1, 1, 1, 1, 0])


def test_contragredient_involution(dual_cs3, dual_kp8):
    for D in [dual_cs3, dual_kp8]:
        for label in D.irr_labels:
            c = contragredient(D, label)
            assert contragredient(D, c).index == label.index


def test_contragredient_s3_self_dual(dual_cs3):
    for label in dual_cs3.irr_labels:
        assert contragredient(dual_cs3, label).index == label.index


def test_contragredient_z3_is_inverse():
    D = dualize(function_algebra(groups.cyclic(3)))
    assert D.irr_dims == (1, 1, 1)
    images = [contragredient(D, l).index for l in D.irr_labels]
    assert images[0] == 0
    assert sorted(images[1:]) == [1, 2] and images[1] != 1


def test_frobenius_reciprocity(dual_cs3, dual_kp8, hopf_gs3):
    for D in [dual_cs3, dual_kp8, dualize(hopf_gs3)]:
        n = len(D.irr_dims)
        for s in range(n):
            sc = contragredient(D, D.irr_labels[s]).index
            for g in range(n):
                m1 = tensor_mult(D, s, g)
                for t in range(n):
                    m2 = tensor_mult(D, sc, t)
                    assert m1[t] == m2[g]


def test_pairing_is_dual_basis(dual_cs3):
    # the pairing C^T evaluates the dual basis on the primal one, and W's
    # legs are the rows of C^-1: C W = identity on block coordinates
    C = dual_cs3.block_to_dual
    W = mult_unitary(dual_cs3).element
    Wm = W.coeffs.reshape(6, 6)
    assert np.array_equal(Wm, dual_cs3.dual_to_block)
    assert np.allclose(C @ Wm, np.eye(6), atol=1e-12)


def _conjugacy_class_count(g):
    t = g.table
    inv = [g.inverse(x) for x in range(g.order)]
    return len({frozenset(int(t[t[h, x], inv[h]]) for h in range(g.order))
                for x in range(g.order)})


def _commutator_subgroup_order(g):
    t = g.table
    inv = [g.inverse(x) for x in range(g.order)]
    sub = {int(t[t[a, b], t[inv[a], inv[b]]])
           for a in range(g.order) for b in range(g.order)}
    while True:
        grown = sub | {int(t[a, b]) for a in sub for b in sub}
        if grown == sub:
            return len(sub)
        sub = grown


def test_dual_of_functions_s4_against_cayley_table():
    # d = 24: verified construction plus dualize, checked against counts
    # taken straight from the Cayley table
    s4 = groups.symmetric(4)
    D = dualize(function_algebra(s4))
    assert D.irr_dims == (1, 1, 2, 3, 3)
    assert len(D.irr_dims) == _conjugacy_class_count(s4) == 5
    assert sum(n * n for n in D.irr_dims) == s4.order
    assert D.irr_dims.count(1) == s4.order // _commutator_subgroup_order(s4)


@pytest.mark.parametrize("part", ["delta", "antipode"])
def test_dualize_rejects_corrupted_raw_dual(monkeypatch, kp8_block, part):
    # the raw dual is only verified after its transport to block form
    raw_dual = duality.dual_hopf_raw

    def corrupted(H):
        raw = raw_dual(H)
        m = getattr(raw, part)
        return replace(raw, **{part: LinMap(m.domain, m.codomain,
                                            2 * m.matrix)})

    monkeypatch.setattr(duality, "dual_hopf_raw", corrupted)
    with pytest.raises(ValueError):
        dualize(kp8_block)


def test_corep_of_propagates_nan(dual_cs3):
    mult_unitary(dual_cs3)              # the session's dual holds its W
    C = dual_cs3.block_to_dual.copy()
    C[0, 0] = np.nan
    with pytest.raises(CheckError, match="multiplicative unitary fails"):
        corep_of(replace(dual_cs3, block_to_dual=C), 2)


def test_replaced_dual_drops_the_cached_w(dual_cs3):
    # a copy with another C must not answer with the W of the original:
    # with a NaN in C, mult_unitary fails, as for a fresh DiscreteQG
    mult_unitary(dual_cs3)
    C = dual_cs3.block_to_dual.copy()
    C[0, 0] = np.nan
    with pytest.raises(CheckError, match="multiplicative unitary fails"):
        mult_unitary(replace(dual_cs3, block_to_dual=C))
    assert replace(dual_cs3)._w is None
    fresh = duality.DiscreteQG(dual_cs3.primal, dual_cs3.dual_hopf, C)
    with pytest.raises(CheckError, match="multiplicative unitary fails"):
        mult_unitary(fresh)


def test_replaced_dual_drops_the_cached_fusion_table(dual_kp8):
    # halving the dual coproduct halves every multiplicity; a copy that
    # answered with the original's table would not notice
    assert dual_kp8.fusion_table[4, 4, 0] == 1
    H = dual_kp8.dual_hopf
    halved = replace(H, delta=LinMap(H.delta.domain, H.delta.codomain,
                                     0.5 * H.delta.matrix))
    assert "fusion_table" not in vars(replace(dual_kp8))
    with pytest.raises(CheckError, match="fusion multiplicity .* is not a "
                                         "non-negative integer"):
        replace(dual_kp8, dual_hopf=halved).fusion_table


def test_replaced_hopf_data_drops_the_cached_square(hopf_cs3):
    T = hopf_cs3.square
    A = hopf_cs3.algebra
    B = Algebra(A.mul_tensor, A.unit_coeffs, A.star_matrix, name="copy")
    K = replace(hopf_cs3, algebra=B)
    assert K.square is not T
    assert K.square.factors == (B, B)


# -- the fusion table --------------------------------------------------------

def _looped_fusion(D):
    """N[sigma, gamma, tau] as the sum over the diagonal pairs of
    delta_dual(e^tau_00), entry by entry through ``index``."""
    B, DM = D.dual_algebra, D.dual_hopf.delta.matrix
    n = len(D.irr_dims)
    out = np.zeros((n, n, n), dtype=int)
    for t in range(n):
        col = DM[:, B.index(t, 0, 0)].reshape(B.dim, B.dim)
        for s, ns in enumerate(D.irr_dims):
            for g, ng in enumerate(D.irr_dims):
                val = sum(col[B.index(s, i, i), B.index(g, j, j)]
                          for i in range(ns) for j in range(ng))
                out[s, g, t] = int(round(val.real))
    return out


@pytest.mark.parametrize("name", ["S3", "Q8", "Z2xZ4"])
def test_fusion_of_group_algebra_duals_is_the_cayley_table(name):
    G = {"S3": groups.symmetric(3), "Q8": groups.quaternion(),
         "Z2xZ4": groups.direct_product(groups.cyclic(2),
                                        groups.cyclic(4))}[name]
    D = dualize(group_algebra(G))
    assert D.irr_dims == (1,) * G.order
    # block k is the raw-dual idempotent of one group element
    C = D.block_to_dual
    element = np.argmax(np.abs(C), axis=0)
    assert sorted(element) == list(range(G.order))
    assert np.allclose(C, np.eye(G.order)[:, element], atol=1e-9)
    block = np.argsort(element)
    # N[s, g] is the indicator of the block of the product of the elements
    # of s and g, taken in one order for every pair
    pairs = list(np.ndindex(G.order, G.order))
    products = [[block[G.table[element[a], element[b]]] for a, b in pairs],
                [block[G.table[element[b], element[a]]] for a, b in pairs]]
    got = D.fusion_table.reshape(-1, G.order)
    assert any(np.array_equal(got, np.eye(G.order, dtype=int)[p])
               for p in products)


@pytest.mark.parametrize("label", INSTANCES)
def test_fusion_table_identities(label):
    D = dualize(_instance(label))
    N, dims = D.fusion_table, np.array(D.irr_dims)
    n = len(dims)
    assert np.array_equal(N, _looped_fusion(D))
    assert np.array_equal(N @ dims, np.outer(dims, dims))
    assert np.array_equal(N[:, 0], np.eye(n, dtype=int))
    contra = [contragredient(D, s).index for s in range(n)]
    assert np.array_equal(N[:, :, 0], np.eye(n, dtype=int)[contra])
    assert not N.flags.writeable
    assert np.array_equal(tensor_mult(D, n - 1, 0), N[n - 1, 0])
