import numpy as np
import pytest

from finiteqg import groups
from finiteqg.classical import (MagicAction, action_from_magic,
                                classical_orbits, haar_values,
                                permutation_magic, verify_magic)
from finiteqg.core import AlgElement
from finiteqg.haar import haar_state
from finiteqg.hopf import function_algebra
from finiteqg.io import load_magic
from finiteqg.orbits import ergodicity


@pytest.fixture(scope="module")
def z3_magic():
    z3 = groups.cyclic(3)
    H = function_algebra(z3)
    act = np.array([[(g + x) % 3 for x in range(3)] for g in range(3)])
    return permutation_magic(H, act)


@pytest.fixture(scope="module")
def flip_magic():
    H = function_algebra(groups.cyclic(2))
    return permutation_magic(H, np.array([[0, 1, 2, 3], [1, 0, 3, 2]]))


def test_z3_magic_verifies_exactly(z3_magic):
    rep = verify_magic(z3_magic)
    assert rep.passed
    assert rep.max_residual() == 0.0
    # u_ij is the indicator of the unique g with g + j = i
    for i in range(3):
        for j in range(3):
            want = np.zeros(3)
            want[(i - j) % 3] = 1.0
            assert np.allclose(z3_magic.u[i][j].coeffs, want)


def test_flip_magic_verifies(flip_magic):
    assert verify_magic(flip_magic).passed


def test_kp8_magic_from_file(kp8_block, data_dir):
    M = load_magic(data_dir / "kp8_magic4.json", kp8_block)
    rep = verify_magic(M)
    assert rep.passed
    assert rep.max_residual() <= 1e-9
    co = classical_orbits(M)
    assert co.classes == [[0, 1, 2, 3]]
    assert co.ergodic
    h = haar_state(kp8_block)
    hv = haar_values(M, h, co.partition)
    assert hv.passed()
    assert np.allclose(hv.values, 0.25, atol=1e-9)
    # the action is genuinely quantum: some entry leaves the diagonal part
    quantum = any(np.abs(M.u[i][j].coeffs[4:]).max() > 0.1
                  for i in range(4) for j in range(4))
    assert quantum


def test_identity_action_singletons():
    H = function_algebra(groups.trivial())
    M = permutation_magic(H, np.array([[0, 1, 2]]))
    co = classical_orbits(M)
    assert co.classes == [[0], [1], [2]]
    h = haar_state(H)
    hv = haar_values(M, h, co.partition)
    assert np.allclose(hv.values, np.eye(3), atol=1e-12)


def test_double_flip_classes_and_haar(flip_magic):
    co = classical_orbits(flip_magic)
    assert co.classes == [[0, 1], [2, 3]]
    assert co.counting_residual <= 1e-9
    assert not co.ergodic
    h = haar_state(flip_magic.hopf)
    hv = haar_values(flip_magic, h, co.partition)
    assert hv.passed()
    want = np.zeros((4, 4))
    want[:2, :2] = 0.5
    want[2:, 2:] = 0.5
    assert np.allclose(hv.values, want, atol=1e-9)


def test_transitive_z3_haar_third(z3_magic):
    co = classical_orbits(z3_magic)
    assert co.ergodic and co.classes == [[0, 1, 2]]
    h = haar_state(z3_magic.hopf)
    hv = haar_values(z3_magic, h, co.partition)
    assert np.allclose(hv.values, 1 / 3, atol=1e-9)


def test_ergodic_iff_one_class(z3_magic, flip_magic):
    for M in [z3_magic, flip_magic]:
        co = classical_orbits(M)
        _, erg = ergodicity(action_from_magic(M))
        assert erg == (len(co.classes) == 1) == co.ergodic


def test_non_magic_rejected(kp8_block):
    A = kp8_block.algebra
    rng = np.random.default_rng(11)
    u = [[A.random_element(rng) for _ in range(2)] for _ in range(2)]
    M = MagicAction(kp8_block, 2, u)
    assert not verify_magic(M).passed


def test_magic_report_uses_callers_tolerance(z3_magic):
    u = [row[:] for row in z3_magic.u]
    u[0][0] = u[0][0] + z3_magic.hopf.algebra.element(1e-7 * np.eye(3)[1])
    M = MagicAction(z3_magic.hopf, 3, u)
    assert not verify_magic(M).passed
    rep = verify_magic(M, 1e-5)
    assert rep.passed and rep.failures() == []
    rep.raise_for_failure("magic action fails")


def test_nan_coefficient_fails_verify_magic(z3_magic):
    u = [list(row) for row in z3_magic.u]
    coeffs = u[2][2].coeffs.copy()
    coeffs[0] = np.nan
    u[2][2] = AlgElement(z3_magic.hopf.algebra, coeffs)
    rep = verify_magic(MagicAction(z3_magic.hopf, 3, u))
    assert not rep.passed
    assert np.isnan(rep.residuals["projection"])


def _with_nan(M, i, j):
    u = [list(row) for row in M.u]
    coeffs = u[i][j].coeffs.copy()
    coeffs[0] = np.nan
    u[i][j] = AlgElement(M.hopf.algebra, coeffs)
    return MagicAction(M.hopf, M.n, u)


def test_nan_entry_fails_haar_values(z3_magic):
    P = classical_orbits(z3_magic).partition
    h = haar_state(z3_magic.hopf)
    hv = haar_values(_with_nan(z3_magic, 0, 1), h, P)
    assert not hv.passed()
    assert np.isnan(hv.off_class_residual) or np.isnan(hv.on_class_residual)


def test_nan_entry_fails_counting_residual(z3_magic, monkeypatch):
    # the coaction check and the relation's SVD would stop a NaN first;
    # skip both so that it reaches the counting fold
    from finiteqg import classical, orbits
    P = classical_orbits(z3_magic).partition
    monkeypatch.setattr(orbits.ActionMap, "verify",
                        lambda self, tol=None: {})
    monkeypatch.setattr(classical, "relation", lambda alpha, tol=None: P)
    co = classical_orbits(_with_nan(z3_magic, 0, 1))
    assert np.isnan(co.counting_residual)


def _verify_magic_reference(M):
    """The magic-matrix residuals one entry (i, j) at a time."""
    H, A = M.hopf, M.hopf.algebra
    T2 = H.square
    res = {"projection": 0.0, "selfadjoint": 0.0, "row_sum": 0.0,
           "coproduct": 0.0, "counit": 0.0}
    for i in range(M.n):
        row_sum = A.zero()
        for j in range(M.n):
            x = M.u[i][j]
            res["projection"] = max(res["projection"], (x * x - x).norm())
            res["selfadjoint"] = max(res["selfadjoint"],
                                     (x.star() - x).norm())
            row_sum = row_sum + x
            acc = sum(T2.kron_coeffs(M.u[i][k].coeffs, M.u[k][j].coeffs)
                      for k in range(M.n))
            res["coproduct"] = max(res["coproduct"], T2.norm_coeffs(
                H.delta_of(x).coeffs - acc))
            res["counit"] = max(res["counit"], abs(
                H.counit_of(x) - (1.0 if i == j else 0.0)))
        res["row_sum"] = max(res["row_sum"], (row_sum - A.one()).norm())
    return res


def _kp8_magic(kp8_block, data_dir):
    return load_magic(data_dir / "kp8_magic4.json", kp8_block)


def test_stacked_verify_magic_matches_per_entry_reference(
        z3_magic, flip_magic, kp8_block, data_dir):
    for M in (z3_magic, flip_magic, _kp8_magic(kp8_block, data_dir)):
        got = verify_magic(M).residuals
        want = _verify_magic_reference(M)
        assert got.keys() == want.keys()
        for k in want:
            assert abs(got[k] - want[k]) <= 1e-13, k


@pytest.mark.parametrize("rows_per_call", ["all", "one"])
def test_corrupted_last_entry_fails_coproduct(rows_per_call, monkeypatch):
    # point 2 is fixed, so u[2][2] enters no other entry's coproduct rule
    # and only the last entry (n - 1, n - 1) can fail it
    from finiteqg import classical
    if rows_per_call == "one":
        monkeypatch.setattr(classical, "_DENSE_STACK_ENTRIES", 1)
    H = function_algebra(groups.cyclic(2))
    M = permutation_magic(H, np.array([[0, 1, 2], [1, 0, 2]]))
    assert verify_magic(M).passed
    u = [list(row) for row in M.u]
    u[2][2] = AlgElement(H.algebra, [1.0, 1.01])
    rep = verify_magic(MagicAction(H, 3, u))
    assert "coproduct" in rep.failures()


def test_verify_magic_row_chunks_match_one_stack(kp8_block, data_dir,
                                                 monkeypatch):
    from finiteqg import classical
    M = _kp8_magic(kp8_block, data_dir)
    whole = verify_magic(M).residuals
    # one row i of the coproduct stack per call
    monkeypatch.setattr(classical, "_DENSE_STACK_ENTRIES", 1)
    chunked = verify_magic(M).residuals
    assert chunked.keys() == whole.keys()
    for k in whole:
        assert abs(chunked[k] - whole[k]) <= 1e-13, k


# -- the magic constructors against their loops ------------------------------

def _looped_permutation_magic(H, act):
    n = act.shape[1]
    u = np.zeros((n, n, H.dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            for g in range(H.dim):
                if act[g, j] == i:
                    u[i, j, g] = 1.0
    return u


def _looped_action_matrix(M):
    d = M.hopf.algebra.dim
    mat = np.zeros((M.n * d, M.n), dtype=complex)
    for j in range(M.n):
        for i in range(M.n):
            mat[i * d:(i + 1) * d, j] = M.u[i][j].coeffs
    return mat


def test_magic_constructors_equal_their_loops(kp8_block, data_dir):
    s3 = groups.symmetric(3)
    H = function_algebra(s3)
    # S3 on its own elements by left multiplication, and on 4 points of
    # which the last is fixed and the first two swapped by odd elements
    odd = set(range(6)) - set(groups.alternating_indices(s3))
    tables = [np.asarray(s3.table),
              np.array([[1, 0, 2, 3] if g in odd else [0, 1, 2, 3]
                        for g in range(6)])]
    for act in tables:
        M = permutation_magic(H, act)
        got = np.array([[x.coeffs for x in row] for row in M.u])
        assert np.array_equal(got, _looped_permutation_magic(H, act))
        assert np.array_equal(action_from_magic(M).alpha.matrix,
                              _looped_action_matrix(M))
    M = load_magic(data_dir / "kp8_magic4.json", kp8_block)
    assert np.array_equal(action_from_magic(M).alpha.matrix,
                          _looped_action_matrix(M))
