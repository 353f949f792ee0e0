import json

import numpy as np
import pytest

from finiteqg import groups
from finiteqg.classical import (classical_orbits, haar_values, magic_action,
                                magic_entries, permutation_magic,
                                verify_magic)
from finiteqg.core import BlockAlgebra, CheckError, Checks, as_tolerance
from finiteqg.haar import haar_state
from finiteqg.hopf import function_algebra, verify_hopf
from finiteqg.io import load_hopf, load_magic, magic_to_dict
from finiteqg.orbits import ActionMap, ergodicity


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
    U = magic_entries(z3_magic)
    for i in range(3):
        for j in range(3):
            want = np.zeros(3)
            want[(i - j) % 3] = 1.0
            assert np.allclose(U[i, j], want)


def test_flip_magic_verifies(flip_magic):
    assert verify_magic(flip_magic).passed


def test_kp8_magic_from_file(kp8_block, data_dir):
    M = load_magic(data_dir / "kp8_magic4.json", kp8_block)
    assert isinstance(M, ActionMap)
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
    assert np.abs(magic_entries(M)[..., 4:]).max() > 0.1


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
        _, erg = ergodicity(M)
        assert erg == (len(co.classes) == 1) == co.ergodic


def test_non_magic_rejected(kp8_block):
    rng = np.random.default_rng(11)
    u = rng.standard_normal((2, 2, 8)) + 1j * rng.standard_normal((2, 2, 8))
    assert not verify_magic(magic_action(kp8_block, u)).passed


def test_magic_report_uses_callers_tolerance(z3_magic):
    U = magic_entries(z3_magic).copy()
    U[0, 0, 1] += 1e-7
    M = magic_action(z3_magic.hopf, U)
    assert not verify_magic(M).passed
    rep = verify_magic(M, 1e-5)
    assert rep.passed and rep.failures() == []
    rep.raise_for_failure("magic action fails")


def _with_nan(M, i, j):
    U = magic_entries(M).copy()
    U[i, j, 0] = np.nan
    return magic_action(M.hopf, U)


def test_nan_coefficient_fails_verify_magic(z3_magic):
    rep = verify_magic(_with_nan(z3_magic, 2, 2))
    assert not rep.passed
    assert np.isnan(rep.residuals["multiplicative"])


def test_nan_entry_fails_haar_values(z3_magic):
    P = classical_orbits(z3_magic).partition
    h = haar_state(z3_magic.hopf)
    hv = haar_values(_with_nan(z3_magic, 0, 1), h, P)
    assert not hv.passed()
    assert np.isnan(hv.off_class_residual) or np.isnan(hv.on_class_residual)


def test_nan_entry_fails_counting_residual(z3_magic, monkeypatch):
    # the coaction check and the relation's SVD would stop a NaN first;
    # skip both so that it reaches the counting fold
    from finiteqg import classical
    P = classical_orbits(z3_magic).partition
    monkeypatch.setattr(classical, "verify_magic",
                        lambda alpha, tol=None: Checks({}, as_tolerance(tol)))
    monkeypatch.setattr(classical, "relation", lambda alpha, tol=None: P)
    co = classical_orbits(_with_nan(z3_magic, 0, 1))
    assert np.isnan(co.counting_residual)


def test_classical_orbits_refuses_a_failed_magic_check(z3_magic):
    with pytest.raises(CheckError, match="magic action fails: .*multipl"):
        classical_orbits(_with_nan(z3_magic, 0, 1))


def _point_and_matrix_action():
    # the trivial group on C + M_2, every element fixed
    H = function_algebra(groups.trivial())
    N = BlockAlgebra([1, 2])
    mat = np.kron(np.eye(N.dim), H.algebra.unit_coeffs[:, None])
    return ActionMap(H, N, mat)


def test_a_module_with_a_matrix_block_is_refused():
    alpha = _point_and_matrix_action()
    alpha.verify()
    h = haar_state(alpha.hopf)
    for call in (lambda: verify_magic(alpha),
                 lambda: classical_orbits(alpha),
                 lambda: haar_values(alpha, h, None),
                 lambda: magic_to_dict(alpha)):
        with pytest.raises(ValueError, match="every block of the module"):
            call()


# -- the coaction residuals against the per-entry definitions ---------------

def _verify_magic_reference(M):
    """The magic-matrix residuals one entry (i, j) at a time: projection,
    self-adjointness, row sums, the coproduct rule and the counit."""
    H, A = M.hopf, M.hopf.algebra
    T2 = H.square
    n = M.module.dim
    u = np.ascontiguousarray(magic_entries(M), dtype=complex)
    res = {"projection": 0.0, "selfadjoint": 0.0, "row_sum": 0.0,
           "coproduct": 0.0, "counit": 0.0}
    for i in range(n):
        row_sum = np.zeros(A.dim, dtype=complex)
        for j in range(n):
            x = u[i][j]
            res["projection"] = max(res["projection"],
                                    A.norm_coeffs(A.mul_coeffs(x, x) - x))
            res["selfadjoint"] = max(res["selfadjoint"],
                                     A.norm_coeffs(A.star_coeffs(x) - x))
            row_sum = row_sum + x
            acc = sum(T2.kron_coeffs(u[i][k], u[k][j]) for k in range(n))
            res["coproduct"] = max(res["coproduct"], T2.norm_coeffs(
                H.delta.matrix @ x - acc))
            res["counit"] = max(res["counit"], abs(
                H.counit @ x - (1.0 if i == j else 0.0)))
        res["row_sum"] = max(res["row_sum"],
                             A.norm_coeffs(row_sum - A.unit_coeffs))
    return res


# each coaction residual and the per-entry residual it bounds from above
_BOUNDS = {"multiplicative": "projection", "star": "selfadjoint",
           "unital": "row_sum", "coaction": "coproduct", "counit": "counit"}


def _shipped_magic(data_dir):
    return [load_magic(data_dir / m, load_hopf(data_dir / h))
            for h, m in [("z3_function_algebra.json", "z3_cycle.json"),
                         ("z2_function_algebra.json", "z2_double_flip.json"),
                         ("kp8.json", "kp8_magic4.json")]]


def test_coaction_residuals_bound_the_per_entry_reference(data_dir):
    # multiplicativity holds each u_ij u_ij = u_ij, and the star, coaction
    # and counit residuals are operator norms of matrices holding every
    # entry's coefficients, which bound each entry's C*-norm; the unit
    # residual is the largest row sum's.  Rounding may take 1e-14 off.
    rng = np.random.default_rng(2024)
    cases = _shipped_magic(data_dir)
    for M in list(cases):
        U = magic_entries(M)
        for t in 10.0 ** rng.uniform(-9, -1, 40):
            noise = rng.standard_normal(U.shape) \
                + 1j * rng.standard_normal(U.shape)
            cases.append(magic_action(M.hopf, U + t * noise))
    assert len(cases) >= 100
    for M in cases:
        got = verify_magic(M).residuals
        want = _verify_magic_reference(M)
        assert got.keys() == _BOUNDS.keys()
        for new, old in _BOUNDS.items():
            assert got[new] >= want[old] - 1e-14, (new, got[new], want[old])
        assert abs(got["unital"] - want["row_sum"]) <= 1e-14


def test_corrupted_last_entry_fails_coaction():
    # point 2 is fixed, so u[2][2] enters no other entry's coproduct rule
    # and only the last entry (n - 1, n - 1) can fail it
    H = function_algebra(groups.cyclic(2))
    M = permutation_magic(H, np.array([[0, 1, 2], [1, 0, 2]]))
    assert verify_magic(M).passed
    U = magic_entries(M).copy()
    U[2, 2] = [1.0, 1.01]
    rep = verify_magic(magic_action(H, U))
    assert "coaction" in rep.failures()


# -- the Cayley-table oracle --------------------------------------------------

@pytest.mark.parametrize("grp", [
    groups.symmetric(3), groups.quaternion(),
    groups.direct_product(groups.cyclic(2), groups.cyclic(4))],
    ids=lambda g: g.name)
def test_right_translation_magic_is_the_coproduct(grp):
    # g acts on the points j in G by j -> j g^-1, so
    # alpha(e_j) = sum_g e_{j g^-1} x d_g = sum_{ab = j} e_a x d_b is the
    # coproduct of C(G), straight from the Cayley table
    H = function_algebra(grp)
    act = grp.table[:, grp.inverses].T
    M = permutation_magic(H, act)
    assert np.array_equal(M.matrix, H.delta.matrix)
    got = verify_magic(M).residuals
    hopf = verify_hopf(H).residuals
    for new, old in [("unital", "delta_unital"),
                     ("multiplicative", "delta_multiplicative"),
                     ("star", "delta_star"), ("coaction", "coassociativity"),
                     ("counit", "counit_right")]:
        assert got[new] == hopf[old], new
    assert classical_orbits(M).classes == [list(range(grp.order))]


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


def _looped_action_matrix(u):
    n, _, d = u.shape
    mat = np.zeros((n * d, n), dtype=complex)
    for j in range(n):
        for i in range(n):
            mat[i * d:(i + 1) * d, j] = u[i, j]
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
        u = _looped_permutation_magic(H, act)
        assert np.array_equal(magic_entries(M), u)
        assert np.array_equal(M.matrix, _looped_action_matrix(u))
    # the file's entries, one triplet at a time
    data = json.loads((data_dir / "kp8_magic4.json").read_text())
    u = np.zeros((4, 4, kp8_block.dim), dtype=complex)
    for i, j, coeffs in data["u"]:
        for k, re, im in coeffs:
            u[i, j, k] += complex(re, im)
    M = load_magic(data_dir / "kp8_magic4.json", kp8_block)
    assert np.array_equal(M.matrix, _looped_action_matrix(u))
    assert np.array_equal(magic_entries(M), u)


# -- one coaction check per action --------------------------------------------

def test_classical_orbits_command_checks_the_action_once(monkeypatch,
                                                         capsys):
    import sys
    from finiteqg import cli, core
    calls = []
    coaction_residuals = core.coaction_residuals

    def counted(*args):
        # the regular coaction of verify_hopf has the Hopf algebra as its
        # module, the last leg of its codomain; count the magic action's
        module, codomain = args[:2]
        if codomain.factors[-1] is not module:
            calls.append(module.dim)
        return coaction_residuals(*args)
    # every module that binds the name, wherever a caller reaches it from
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("finiteqg")
                and getattr(mod, "coaction_residuals", None)
                is coaction_residuals):
            monkeypatch.setattr(mod, "coaction_residuals", counted)
    assert cli.main(["classical-orbits", "kp8.json", "kp8_magic4.json"]) == 0
    capsys.readouterr()
    assert calls == [4]


def test_an_action_computes_its_residuals_once(z3_magic, monkeypatch):
    from finiteqg import orbits
    alpha = magic_action(z3_magic.hopf, magic_entries(z3_magic))
    calls = []
    coaction_residuals = orbits.coaction_residuals

    def counted(*args):
        calls.append(1)
        return coaction_residuals(*args)
    monkeypatch.setattr(orbits, "coaction_residuals", counted)
    first = verify_magic(alpha, 1e-12)
    assert alpha.verify().residuals == first.residuals
    classical_orbits(alpha)
    assert len(calls) == 1
    # the record judges the cached residuals at its own tolerance, and a
    # record's dict is its own
    first.residuals["unital"] = 1.0
    assert verify_magic(alpha).residuals["unital"] == 0.0
    # the matrix, and so the cached residuals, cannot change
    with pytest.raises(ValueError, match="read-only"):
        alpha.matrix[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        magic_entries(alpha)[0, 0, 0] = 2.0
