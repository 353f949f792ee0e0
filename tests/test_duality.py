from dataclasses import replace

import numpy as np
import pytest

from finiteqg import duality, groups
from finiteqg.core import LinMap
from finiteqg.duality import (contragredient, corep_of, dualize,
                              mult_unitary, tensor_mult)
from finiteqg.hopf import function_algebra, group_algebra

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


def test_corep_identity_and_unitarity(dual_cs3, dual_kp8):
    for D in [dual_cs3, dual_kp8]:
        for label in D.irr_labels:
            corep_of(D, label)  # raises if any check fails


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
    # pairing . block_to_dual = identity on block coordinates
    P, C = dual_cs3.pairing, dual_cs3.block_to_dual
    assert np.allclose(P, C.T)
    W = mult_unitary(dual_cs3).element
    Wm = W.coeffs.reshape(6, 6)
    assert np.allclose(P.T @ Wm, np.eye(6), atol=1e-12)


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
    C = dual_cs3.block_to_dual.copy()
    C[0, 0] = np.nan
    with pytest.raises(ValueError, match="corepresentation"):
        corep_of(replace(dual_cs3, block_to_dual=C), 2)
