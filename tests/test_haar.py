import numpy as np
import pytest

from finiteqg import groups
from finiteqg.classical import action_from_magic, permutation_magic
from finiteqg.haar import HaarError, haar_state, invariant_state_on_module
from finiteqg.hopf import function_algebra, group_algebra
from finiteqg.orbits import ActionMap


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
        a = kp8_block.algebra.random_element(rng)
        b = kp8_block.algebra.random_element(rng)
        assert abs(h(a * b) - h(b * a)) <= 1e-12 * (1 + a.norm() * b.norm())


def test_invariant_state_of_coproduct_is_haar(hopf_cs3):
    # delta itself is a coaction; its averaged functional is the Haar state
    h = haar_state(hopf_cs3)
    alpha = ActionMap(hopf_cs3, hopf_cs3.algebra, hopf_cs3.delta, None)
    out = invariant_state_on_module(alpha, h)
    assert np.allclose(out, h.vector, atol=1e-12)


def test_invariant_state_z3_cycle_uniform():
    z3 = groups.cyclic(3)
    H = function_algebra(z3)
    act = np.array([[(g + x) % 3 for x in range(3)] for g in range(3)])
    alpha = action_from_magic(permutation_magic(H, act))
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
        assert abs(complex(out @ unit.coeffs) - 0.5) < 1e-10


def test_haar_rejects_broken_input(hopf_cs3):
    from finiteqg.core import LinMap, tensor
    from finiteqg.hopf import HopfData
    A = hopf_cs3.algebra
    bad_delta = hopf_cs3.delta.matrix.copy()
    bad_delta[0, 0] += 0.3
    bad = HopfData(A, LinMap(A, tensor(A, A), bad_delta), hopf_cs3.counit,
                   hopf_cs3.antipode, name="broken")
    with pytest.raises(HaarError):
        haar_state(bad)


def test_invariant_state_rejects_non_coaction(hopf_cs3):
    from finiteqg.core import LinMap, tensor
    rng = np.random.default_rng(7)
    A = hopf_cs3.algebra
    junk = LinMap(A, tensor(A, A), rng.standard_normal((36, 6)))
    alpha = ActionMap(hopf_cs3, A, junk, None)
    with pytest.raises(ValueError, match="not a coaction"):
        invariant_state_on_module(alpha, haar_state(hopf_cs3))


def test_invariant_state_judges_the_coaction_at_the_callers_tolerance(
        hopf_cs3):
    # delta moved by 1e-7 is a coaction at 1e-6 and not at the default 1e-9
    from finiteqg.core import LinMap, Tolerance
    A = hopf_cs3.algebra
    am = hopf_cs3.delta.matrix.copy()
    am[0, 0] += 1e-7
    alpha = ActionMap(hopf_cs3, A, LinMap(A, hopf_cs3.delta.codomain, am),
                      None)
    h = haar_state(hopf_cs3)
    out = invariant_state_on_module(alpha, h, Tolerance(1e-6))
    assert np.allclose(out, h.vector, atol=1e-6)
    with pytest.raises(ValueError, match="not a coaction"):
        invariant_state_on_module(alpha, h)


def test_invariant_state_needs_the_haar_state_of_the_actions_group(
        hopf_cs3, hopf_gs3):
    # C[S3] has C(S3)'s dimension; its Haar state averages nothing here
    alpha = ActionMap(hopf_cs3, hopf_cs3.algebra, hopf_cs3.delta, None)
    with pytest.raises(ValueError, match="Haar state of alpha"):
        invariant_state_on_module(alpha, haar_state(hopf_gs3))
