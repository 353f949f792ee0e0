import warnings

import numpy as np
import pytest

from finiteqg import groups, hopf
from finiteqg.classical import permutation_magic
from finiteqg.core import Algebra, LinMap, Tolerance, tensor
from finiteqg.duality import dualize
from finiteqg.haar import HaarError, haar_state, invariant_state_on_module
from finiteqg.hopf import (HopfData, function_algebra, group_algebra,
                           kac_paljutkin)
from finiteqg.io import load_hopf
from finiteqg.orbits import ActionMap

from conftest import DATA, random_row


def test_haar_z2_uniform():
    h = haar_state(function_algebra(groups.cyclic(2)))
    assert np.allclose(h.vector, [0.5, 0.5], atol=1e-14)


def test_haar_group_algebra_evaluates_at_identity(s3, hopf_gs3):
    h = haar_state(hopf_gs3)
    want = np.zeros(6)
    want[s3.identity] = 1.0
    assert np.allclose(h.vector, want, atol=1e-12)


def test_haar_kp8_block_weights(kp8_block):
    # weights (1,1,1,1, 2 tr)/8 on the canonical block basis
    h = haar_state(kp8_block)
    A = kp8_block.algebra
    want = np.zeros(8)
    want[:4] = 1 / 8
    want[A.index(4, 0, 0)] = want[A.index(4, 1, 1)] = 1 / 4
    assert np.allclose(h.vector, want, atol=1e-9)


def test_bi_invariance_per_basis_element(kp8_block):
    H = kp8_block
    h = haar_state(H)
    d = H.dim
    D = H.delta.matrix.reshape(d, d, d)
    one = H.algebra.unit_coeffs
    for k in range(d):
        left = np.einsum("pq,q->p", D[:, :, k], h.vector) - h.vector[k] * one
        right = np.einsum("pq,p->q", D[:, :, k], h.vector) - h.vector[k] * one
        assert H.algebra.norm_coeffs(left) <= 1e-9
        assert H.algebra.norm_coeffs(right) <= 1e-9


def test_gram_positive_definite_everywhere(hopf_cs3, hopf_gs3, kp8_block):
    for H in [hopf_cs3, hopf_gs3, kp8_block,
              group_algebra(groups.quaternion())]:
        h = haar_state(H)
        assert h.min_gram_eigenvalue > 1e-12
        # the stored value is the smallest eigenvalue of the stored Gram
        assert h.min_gram_eigenvalue == float(np.linalg.eigvalsh(h.gram).min())
        assert h.checks.passed and h.checks.flags == {"gram_positive": True}


def test_traciality_random_pairs(kp8_block):
    h = haar_state(kp8_block)
    rng = np.random.default_rng(6)
    for _ in range(5):
        A = kp8_block.algebra
        a, b = random_row(A, rng), random_row(A, rng)
        scale = 1 + A.norm_coeffs(a) * A.norm_coeffs(b)
        assert abs(h(A.mul_coeffs(a, b)) - h(A.mul_coeffs(b, a))) <= \
            1e-12 * scale


def test_invariant_state_of_coproduct_is_haar(hopf_cs3):
    # delta itself is a coaction; its averaged functional is the Haar state
    h = haar_state(hopf_cs3)
    alpha = ActionMap(hopf_cs3, hopf_cs3.algebra, hopf_cs3.delta.matrix)
    out = invariant_state_on_module(alpha, h)
    assert np.allclose(out, h.vector, atol=1e-12)


def test_invariant_state_z3_cycle_uniform():
    z3 = groups.cyclic(3)
    H = function_algebra(z3)
    act = np.array([[(g + x) % 3 for x in range(3)] for g in range(3)])
    alpha = permutation_magic(H, act)
    out = invariant_state_on_module(alpha, haar_state(H))
    assert np.allclose(out, [1 / 3] * 3, atol=1e-12)


def test_invariant_state_on_restricted_conjugation_orbit(
        dual_cs3, a3_space, a3_action, a3_partition):
    # conjugation on the pair class: the invariant state is the normalized
    # counting measure on the two minimal central idempotents
    pair = next(c for c in a3_partition.classes if len(c) == 2)
    sub = a3_action.restrict_to_blocks(pair)
    h = haar_state(dual_cs3.primal)
    out = invariant_state_on_module(sub, h)
    for b in range(2):
        unit = sub.module.block_unit(b)
        assert abs(complex(out @ unit) - 0.5) < 1e-10


def _solved_haar(H):
    """The reference: h as the least-squares solution of the stacked
    system {left invariance, right invariance, h(1) = 1}, and its
    residual."""
    d = H.dim
    D = H.delta.matrix.reshape(d, d, d)
    one = H.algebra.unit_coeffs
    left = D.transpose(2, 0, 1).reshape(d * d, d).copy()
    right = D.transpose(2, 1, 0).reshape(d * d, d).copy()
    ar = np.arange(d)
    left.reshape(d, d, d)[ar, :, ar] -= one
    right.reshape(d, d, d)[ar, :, ar] -= one
    system = np.vstack([left, right, one[None, :]])
    rhs = np.zeros(2 * d * d + 1, dtype=complex)
    rhs[-1] = 1.0
    h, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return h, float(np.linalg.norm(system @ h - rhs))


def _haar_cases():
    # the groups of test_properties up to order 8, with C(G), C[G] and
    # the block duals of both; Kac-Paljutkin raw, block and its dual
    gs = [groups.cyclic(n) for n in range(2, 9)] + [
        groups.symmetric(3), groups.quaternion(),
        groups.direct_product(groups.cyclic(2), groups.cyclic(2)),
        groups.direct_product(groups.cyclic(2), groups.cyclic(4)),
        groups.direct_product(groups.direct_product(
            groups.cyclic(2), groups.cyclic(2)), groups.cyclic(2))]
    for G in gs:
        for H in (function_algebra(G), group_algebra(G)):
            yield H
            yield dualize(H).dual_hopf
    yield kac_paljutkin()
    kp8 = load_hopf(DATA / "kp8.json")
    yield kp8
    yield dualize(kp8).dual_hopf


def test_trace_haar_state_equals_the_solved_one():
    for H in _haar_cases():
        h = haar_state(H)
        ref, residual = _solved_haar(H)
        assert np.abs(h.vector - ref).max() <= 1e-12, H.name
        assert Tolerance().is_zero(residual), H.name
        assert h.checks.passed, H.name


def test_haar_judges_the_product(s3, hopf_gs3):
    # C[S3] with m[k, p, k] += 0.3 for k, p != e is no longer a group
    # algebra, but delta is untouched: _solved_haar reads only delta, the
    # unit and h(1) = 1 and passes delta_e at residual 0.0, while the
    # trace state reads the product and fails the invariance system
    A = hopf_gs3.algebra
    others = [g for g in range(s3.order) if g != s3.identity]
    m = A.mul_tensor.copy()
    for k in others:
        m[k, others, k] += 0.3
    B = Algebra(m, A.unit_coeffs, A.star_matrix, name="broken")
    bad = HopfData(B, LinMap(B, tensor(B, B), hopf_gs3.delta.matrix),
                   hopf_gs3.counit, LinMap(B, B, hopf_gs3.antipode.matrix),
                   name="broken")
    ref, residual = _solved_haar(bad)
    assert residual == 0.0
    assert np.allclose(ref, np.eye(s3.order)[s3.identity])
    with pytest.raises(HaarError, match="haar_system_residual="):
        haar_state(bad)


def test_haar_rejects_broken_input(hopf_cs3):
    A = hopf_cs3.algebra
    bad_delta = hopf_cs3.delta.matrix.copy()
    bad_delta[0, 0] += 0.3
    bad = HopfData(A, LinMap(A, tensor(A, A), bad_delta), hopf_cs3.counit,
                   hopf_cs3.antipode, name="broken")
    with pytest.raises(HaarError):
        haar_state(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("part", ["delta", "antipode", "counit"])
def test_non_finite_unverified_data_is_refused_by_name(part, bad, capfd):
    # C(S3) with one non-finite entry, never run through verify_hopf: the
    # raw dual takes its product from delta, its star from the antipode
    # and its unit from the counit
    H = hopf._function_hopf(groups.symmetric(3))
    if part == "counit":
        H.counit[0] = bad
    else:
        getattr(H, part).matrix[0, 0] = bad
    calls = [dualize] + ([haar_state] if part == "delta" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(HaarError, match="^non-finite "):
                call(H)
    assert capfd.readouterr() == ("", "")


def test_invariant_state_rejects_non_coaction(hopf_cs3):
    rng = np.random.default_rng(7)
    A = hopf_cs3.algebra
    junk = rng.standard_normal((36, 6))
    alpha = ActionMap(hopf_cs3, A, junk)
    with pytest.raises(ValueError, match="not a coaction"):
        invariant_state_on_module(alpha, haar_state(hopf_cs3))


def test_invariant_state_judges_the_coaction_at_the_callers_tolerance(
        hopf_cs3):
    # delta moved by 1e-7 is a coaction at 1e-6 and not at the default 1e-9
    from finiteqg.core import Tolerance
    A = hopf_cs3.algebra
    am = hopf_cs3.delta.matrix.copy()
    am[0, 0] += 1e-7
    alpha = ActionMap(hopf_cs3, A, am)
    h = haar_state(hopf_cs3)
    out = invariant_state_on_module(alpha, h, Tolerance(1e-6))
    assert np.allclose(out, h.vector, atol=1e-6)
    with pytest.raises(ValueError, match="not a coaction"):
        invariant_state_on_module(alpha, h)


def test_invariant_state_needs_the_haar_state_of_the_actions_group(
        hopf_cs3, hopf_gs3):
    # C[S3] has C(S3)'s dimension; its Haar state averages nothing here
    alpha = ActionMap(hopf_cs3, hopf_cs3.algebra, hopf_cs3.delta.matrix)
    with pytest.raises(ValueError, match="Haar state of alpha"):
        invariant_state_on_module(alpha, haar_state(hopf_gs3))
