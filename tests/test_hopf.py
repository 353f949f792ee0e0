import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from finiteqg import core, groups, hopf
from finiteqg.core import Algebra, BlockAlgebra, LinMap, tensor
from finiteqg.hopf import (HopfAxiomError, HopfData, dual_hopf_raw,
                           function_algebra, group_algebra,
                           group_like_elements, kac_paljutkin, verify_hopf)
from finiteqg.io import hopf_from_dict, hopf_to_dict
from finiteqg.duality import block_presentation, dualize

from conftest import loop_functions, random_row
from test_properties import FACTORS, _factor, small_groups


def test_function_algebra_z2_delta():
    H = function_algebra(groups.cyclic(2))
    d0 = H.delta.matrix[:, 0].reshape(2, 2)
    # delta(d_0) = d_0 x d_0 + d_1 x d_1
    assert np.allclose(d0, np.eye(2))
    d1 = H.delta.matrix[:, 1].reshape(2, 2)
    assert np.allclose(d1, np.array([[0, 1], [1, 0]]))


def test_function_algebra_s3_delta_enumeration(s3, hopf_cs3):
    # oracle: enumerate the Cayley table by composing permutations
    D = hopf_cs3.delta.matrix
    assert np.count_nonzero(D) == 36
    for h_i, hp in enumerate(s3.elements):
        for k_i, kp in enumerate(s3.elements):
            g_i = s3.index_of(tuple(hp[kp[x]] for x in range(3)))
            assert D[h_i * 6 + k_i, g_i] == 1.0


def test_trivial_group():
    H = function_algebra(groups.trivial())
    assert H.dim == 1
    assert np.allclose(H.delta.matrix, [[1.0]])
    assert verify_hopf(H).passed


def test_axioms_all_shipped_constructions(kp8):
    for H in [function_algebra(groups.cyclic(2)),
              function_algebra(groups.symmetric(3)),
              group_algebra(groups.cyclic(2)),
              group_algebra(groups.symmetric(3)),
              group_algebra(groups.quaternion()),
              kp8]:
        rep = verify_hopf(H)
        assert rep.passed, rep.residuals
        assert rep.max_residual() <= 1e-12


def test_commutativity_cocommutativity(hopf_cs3, hopf_gs3):
    assert hopf_cs3.algebra.is_commutative()
    assert not hopf_cs3.is_cocommutative()
    assert not hopf_gs3.algebra.is_commutative()
    assert hopf_gs3.is_cocommutative()


def test_kac_properties_random(kp8):
    # S^2 = id and S(x*) = S(x)* on random elements
    A, S = kp8.algebra, kp8.antipode
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = random_row(A, rng)
        scale = 1 + A.norm_coeffs(x)
        assert A.norm_coeffs(S(S(x)) - x) <= 1e-12 * scale
        lhs = S(A.star_coeffs(x))
        rhs = A.star_coeffs(S(x))
        assert A.norm_coeffs(lhs - rhs) <= 1e-12 * scale


def test_kp8_neither_commutative_nor_cocommutative(kp8):
    assert not kp8.algebra.is_commutative()
    assert not kp8.is_cocommutative()


def test_kp8_group_likes(kp8):
    gl = group_like_elements(kp8)
    assert len(gl) == 4  # Klein four-group inside the monomial basis
    # the indices of the group-likes: delta(e_k) = e_k x e_k, eps(e_k) = 1
    d = kp8.dim
    for k in gl:
        want = np.zeros(d * d)
        want[k * d + k] = 1.0
        assert np.abs(kp8.delta.matrix[:, k] - want).max() <= 1e-12
        assert abs(kp8.counit[k] - 1.0) <= 1e-12


def test_hopf_data_refuses_maps_on_other_algebras(kp8_block):
    H = kp8_block
    A = H.algebra
    B = BlockAlgebra(A.block_dims)
    d = A.dim
    # a coproduct into A x B with B a copy of A, one into A x A x A, one
    # into a plain algebra of dimension d^2, and an antipode onto another
    # algebra
    with pytest.raises(ValueError, match="tensor square"):
        HopfData(A, LinMap(A, tensor(A, B), H.delta.matrix), H.counit,
                 H.antipode)
    with pytest.raises(ValueError, match="tensor square"):
        HopfData(A, LinMap(A, tensor(A, A, A), np.zeros((d ** 3, d))),
                 H.counit, H.antipode)
    flat = Algebra(np.zeros((d * d,) * 3), np.zeros(d * d), np.eye(d * d))
    with pytest.raises(ValueError, match="tensor square"):
        HopfData(A, LinMap(A, flat, H.delta.matrix), H.counit, H.antipode)
    with pytest.raises(ValueError, match="antipode"):
        HopfData(A, H.delta, H.counit, LinMap(A, B, H.antipode.matrix))
    # the same maps on A itself are accepted
    HopfData(A, LinMap(A, tensor(A, A), H.delta.matrix), H.counit,
             H.antipode)


def test_group_table_validation():
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        groups.FiniteGroup("bad", (0, 1), bad)


def test_corrupted_delta_names_coassociativity(kp8_block):
    data = hopf_to_dict(kp8_block)
    k, i, j, re, im = data["delta"][0]
    data["delta"][0] = [k, i, j, re + 0.25, im]
    with pytest.raises(HopfAxiomError) as err:
        hopf_from_dict(data)
    assert "coassociativity" in str(err.value)


def test_block_presentation_of_group_algebra(hopf_gs3):
    HB, phi = block_presentation(hopf_gs3)
    assert HB.algebra.block_dims == (1, 1, 2)
    assert verify_hopf(HB).passed
    # counit block comes first
    assert abs(HB.counit[0] - 1.0) < 1e-12


def _reference_residuals(H):
    """The pair-based residuals of verify_hopf, one basis pair at a time
    through explicit structure tensors and dense representations, and
    the map identities through np.kron."""
    A = H.algebra
    d = H.dim
    m, R = A.mul_tensor, A.rep_tensor
    st, DM, SM = A.star_matrix, H.delta.matrix, H.antipode.matrix
    eye = np.eye(d)

    def mul(x, y):
        return np.einsum("kpq,p,q->k", m, x, y)

    def mul2(x, y):
        return np.einsum("ij,kl,aik,bjl->ab", x.reshape(d, d),
                         y.reshape(d, d), m, m).reshape(-1)

    def norm(x):
        return np.linalg.norm(np.einsum("k,kab->ab", x, R), 2)

    def norm2(x):
        rep = np.einsum("ij,iab,jce->acbe", x.reshape(d, d), R, R)
        return np.linalg.norm(rep.reshape(len(R[0]) ** 2, -1), 2)

    star_anti, delta_mult = 0.0, 0.0
    for p in range(d):
        for q in range(d):
            diff = st @ np.conj(m[:, p, q]) - mul(st[:, q], st[:, p])
            star_anti = max(star_anti, norm(diff))
            diff = DM @ m[:, p, q] - mul2(DM[:, p], DM[:, q])
            delta_mult = max(delta_mult, norm2(diff))
    mm = m.reshape(d, d * d)
    target = np.outer(A.unit_coeffs, H.counit)
    op = lambda x: np.linalg.norm(x, 2)  # noqa: E731
    return {
        "star_antimultiplicative": star_anti,
        "delta_multiplicative": delta_mult,
        "coassociativity": op(np.kron(DM, eye) @ DM - np.kron(eye, DM) @ DM),
        "counit_left": op(np.kron(H.counit[None, :], eye) @ DM - eye),
        "counit_right": op(np.kron(eye, H.counit[None, :]) @ DM - eye),
        "antipode_left": op(mm @ np.kron(SM, eye) @ DM - target),
        "antipode_right": op(mm @ np.kron(eye, SM) @ DM - target),
    }


@pytest.mark.parametrize("which", ["kp8", "C[S3]", "kp8 dual"])
def test_verify_hopf_matches_per_pair_reference(which, kp8, hopf_gs3,
                                                dual_kp8):
    H = {"kp8": kp8, "C[S3]": hopf_gs3,
         "kp8 dual": dual_kp8.dual_hopf}[which]
    got = verify_hopf(H).residuals
    for name, want in _reference_residuals(H).items():
        assert abs(got[name] - want) <= 1e-13, name


def test_corrupted_last_pair_fails_pair_checks(hopf_gs3, kp8_block):
    # the pair (d - 1, d - 1) is the last row of every stacked check
    A, d = hopf_gs3.algebra, hopf_gs3.dim
    # a complex copy, since the real structure constants are stored real
    m = A.mul_tensor.astype(complex)
    m[0, d - 1, d - 1] += 0.25j
    A2 = Algebra(m, A.unit_coeffs, A.star_matrix)
    H2 = HopfData(A2, LinMap(A2, tensor(A2, A2), hopf_gs3.delta.matrix),
                  hopf_gs3.counit, LinMap(A2, A2, hopf_gs3.antipode.matrix))
    bad = verify_hopf(H2).failures()
    assert {"star_antimultiplicative", "delta_multiplicative"} <= set(bad)

    B, d = kp8_block.algebra, kp8_block.dim
    DM = kp8_block.delta.matrix.copy()
    DM[d * d - 1, 0] += 0.25
    H3 = HopfData(B, LinMap(B, tensor(B, B), DM), kp8_block.counit,
                  kp8_block.antipode)
    assert "coassociativity" in verify_hopf(H3).failures()


def test_corrupted_last_pair_alone_in_its_block_fails_pair_checks(
        hopf_gs3, kp8_block, monkeypatch):
    # one row per all-pairs block puts the pair (d - 1, d - 1) alone in
    # the last block of both pair checks
    monkeypatch.setattr(core, "_DENSE_STACK_ENTRIES", 1)
    test_corrupted_last_pair_fails_pair_checks(hopf_gs3, kp8_block)


def test_operator_norm_of_zero_takes_no_svd(monkeypatch):
    from finiteqg.core import opnorm

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD taken")

    m = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert opnorm(m) == 5.0
    monkeypatch.setattr(np.linalg, "eigvalsh", no_svd)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert opnorm(np.zeros((4, 4), dtype=complex)) == 0.0
    with pytest.raises(AssertionError):
        opnorm(m)


# -- delta_star leg by leg, the coassociativity scale from a d x d Gram ----

@functools.lru_cache(maxsize=None)
def _hopf_cases():
    s3, z12 = groups.symmetric(3), groups.cyclic(12)
    return {"C(S3)": function_algebra(s3), "C[S3]": group_algebra(s3),
            "C[Z12]": group_algebra(z12),
            "dual C[S3]": dualize(group_algebra(s3)).dual_hopf,
            "dual C(S3)": dualize(function_algebra(s3)).dual_hopf}


def _kron_star(St, DM):
    return np.kron(St, St) @ np.conj(DM)


def _square_star(T2, DM):
    """(St x St) conj(DM) through the leg-wise star of the tensor square."""
    return T2.star_coeffs(DM.T).T


@pytest.mark.parametrize("kind", ["C(S3)", "C[S3]", "C[Z12]", "dual C(S3)",
                                  "dual C[S3]"])
def test_legwise_delta_star_is_the_kron_form_for_permutation_stars(kind):
    H = _hopf_cases()[kind]
    St = H.algebra.star_matrix
    # a permutation matrix: every entry 0 or 1, one 1 per row and column
    assert set(np.unique(St)) <= {0, 1}
    assert (np.abs(St).sum(axis=0) == 1).all()
    rng = np.random.default_rng(97)
    noise = rng.standard_normal(H.delta.matrix.shape) + 1j * \
        rng.standard_normal(H.delta.matrix.shape)
    for DM in (H.delta.matrix, H.delta.matrix + noise / 3.0):
        assert np.array_equal(_square_star(H.square, DM), _kron_star(St, DM))
    # the residual of a perturbed delta is the kron-form value bit for bit
    K = HopfData(H.algebra, LinMap(H.algebra, H.square, DM), H.counit,
                 H.antipode)
    want = float(core.opnorm(DM @ St - _kron_star(St, DM)))
    assert verify_hopf(K).residuals["delta_star"] == want > 0.1


def test_legwise_delta_star_on_the_monomial_kp8_star(kp8):
    St, DM = kp8.algebra.star_matrix, kp8.delta.matrix
    # the monomial star of z has entries +-1/2: not a permutation
    assert not set(np.unique(St)) <= {0, 1}
    rng = np.random.default_rng(101)
    for X in (DM, rng.standard_normal(DM.shape)
              + 1j * rng.standard_normal(DM.shape)):
        want = _kron_star(St, X)
        got = _square_star(kp8.square, X)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    # a complex matrix that is not symmetric, so the legs cannot be swapped
    St = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    X = rng.standard_normal((25, 5)) + 1j * rng.standard_normal((25, 5))
    A = Algebra(np.zeros((5, 5, 5)), np.zeros(5), St)
    want = _kron_star(St, X)
    assert np.abs(_square_star(tensor(A, A), X) - want).max() \
        <= 1e-14 * np.abs(want).max()


LADDER_GROUPS = {
    "Z4xZ4": lambda: groups.direct_product(groups.cyclic(4), groups.cyclic(4)),
    "Z2xZ4": lambda: groups.direct_product(groups.cyclic(2), groups.cyclic(4)),
    "Z12": lambda: groups.cyclic(12),
    "Q8": groups.quaternion,
    "S3xZ2": lambda: groups.direct_product(groups.symmetric(3),
                                           groups.cyclic(2)),
}


def _composite_norm(DM):
    return hopf._composite_norm(DM)


@pytest.mark.parametrize("name", sorted(LADDER_GROUPS))
@pytest.mark.parametrize("ctor", [function_algebra, group_algebra])
def test_coassociativity_scale_is_the_norm_of_the_composite(name, ctor):
    H = ctor(LADDER_GROUPS[name]())
    d, DM = H.dim, H.delta.matrix
    left = (DM @ DM.reshape(d, d * d)).reshape(d ** 3, d)
    want = float(core.opnorm(left))
    got = verify_hopf(H).scales["coassociativity"]
    assert abs(got - want) <= 1e-12 * want
    # a scaled delta moves the scale quadratically, at any magnitude
    for c in (1e-150, 1e150):
        assert abs(_composite_norm(c * DM) - c * c * want) \
            <= 1e-12 * c * c * want
    assert _composite_norm(0.0 * DM) == 0.0


def test_coassociativity_scale_of_a_complex_matrix():
    rng = np.random.default_rng(103)
    d = 5
    DM = rng.standard_normal((d * d, d)) + 1j * rng.standard_normal((d * d, d))
    want = float(core.opnorm((DM @ DM.reshape(d, d * d)).reshape(d ** 3, d)))
    assert abs(_composite_norm(DM) - want) <= 1e-12 * want


def test_a_nan_delta_fails_coassociativity(kp8_block):
    H = kp8_block
    DM = H.delta.matrix.copy()
    DM[3, 2] = np.nan
    K = HopfData(H.algebra, LinMap(H.algebra, H.square, DM), H.counit,
                 H.antipode)
    checks = verify_hopf(K)
    assert np.isnan(checks.scales["coassociativity"])
    assert np.isnan(checks.residuals["coassociativity"])
    assert "coassociativity" in checks.failures()
    assert "delta_multiplicative" in checks.failures()


# -- verify_hopf against per-norm calls --------------------------------------

def _verify_hopf_reference(H):
    """The residuals and scales of ``verify_hopf`` with one ``opnorm`` call
    per map, ``coaction_residuals`` for the coproduct and the composite's
    own eigenvalue call."""
    A, d = H.algebra, H.dim
    DM, SM, St = H.delta.matrix, H.antipode.matrix, A.star_matrix
    eye = np.eye(d)
    D3, first = DM.reshape(d, d, d), DM.reshape(d, d * d)
    mm = A.mul_tensor.reshape(d, d * d)
    target = np.outer(A.unit_coeffs, H.counit)
    (star_inv, counit_left, antipode_left, antipode_right, antipode_inv,
     antipode_star, op_st, op_s) = map(float, core.opnorm(np.stack([
         St @ np.conj(St) - eye, (H.counit @ first).reshape(d, d) - eye,
         mm @ (SM @ first).reshape(d * d, d) - target,
         mm @ (SM @ D3).reshape(d * d, d) - target, SM @ SM - eye,
         SM @ St - St @ np.conj(SM), St, SM])))
    op_dm = float(core.opnorm(DM))
    op_mm = float(core.opnorm(mm)) * op_dm
    lhs = A.star_coeffs(core.pair_products(A, eye, eye))
    rhs = core.pair_products(A, St.T, St.T).swapaxes(0, 1)
    co = core.coaction_residuals(A, H.square, DM, DM, H.counit)
    s = np.abs(DM).max()
    u = DM / s
    uh = u.conj().T
    gram = uh @ ((uh @ u) @ u.reshape(d, d * d)).reshape(d * d, d)
    res = {"star_involutive": star_inv,
           "star_antimultiplicative": A.norm_coeffs(lhs - rhs),
           "delta_unital": co["unital"], "delta_star": co["star"],
           "delta_multiplicative": co["multiplicative"],
           "coassociativity": co["coaction"],
           "counit_left": counit_left, "counit_right": co["counit"],
           "antipode_left": antipode_left, "antipode_right": antipode_right,
           "antipode_involutive": antipode_inv,
           "antipode_star": antipode_star}
    sca = {"star_involutive": op_st ** 2, "delta_star": op_dm,
           "delta_multiplicative": op_dm ** 2,
           "coassociativity": float(
               s * s * np.sqrt(np.linalg.eigvalsh(gram)[-1])),
           "counit_left": op_dm, "counit_right": op_dm,
           "antipode_left": op_mm, "antipode_right": op_mm,
           "antipode_involutive": op_s ** 2, "antipode_star": op_s}
    if not isinstance(A, BlockAlgebra):
        # every triple and both unit identities, one norm call each
        m, u = A.mul_tensor, A.unit_coeffs
        res["associativity"] = A.norm_coeffs(
            np.einsum("kpq,skr->pqrs", m, m)
            - np.einsum("kqr,spk->pqrs", m, m))
        res["unit"] = float(np.max([
            core.opnorm(np.tensordot(u, m, (0, 1)) - eye),
            core.opnorm(m @ u - eye)]))
        op_m = float(core.opnorm(mm))
        sca["associativity"], sca["unit"] = op_m ** 2, op_m
    return res, sca


@functools.lru_cache(maxsize=None)
def _record_cases():
    from finiteqg.io import load_hopf
    from conftest import DATA
    cases = {}
    for path in sorted(DATA.glob("*_algebra.json")) + [DATA / "kp8.json"]:
        cases[path.stem] = H = load_hopf(path)
        cases["dual " + path.stem] = dualize(H).dual_hopf
    for name, g in LADDER_GROUPS.items():
        cases[f"C({name})"] = function_algebra(g())
        cases[f"C[{name}]"] = group_algebra(g())
    cases["kp8 monomials"] = kac_paljutkin()
    rng = np.random.default_rng(109)
    H = cases["kp8"]
    noisy = H.delta.matrix + 1e-7 * rng.standard_normal(H.delta.matrix.shape)
    cases["kp8, noisy delta"] = HopfData(
        H.algebra, LinMap(H.algebra, H.square, noisy), H.counit, H.antipode)
    return cases


@pytest.mark.parametrize("name", sorted(_record_cases()))
def test_verify_hopf_equals_per_norm_calls_bit_for_bit(name):
    H = _record_cases()[name]
    res, sca = _verify_hopf_reference(H)
    checks = verify_hopf(H)
    assert checks.residuals == res and checks.scales == sca


# -- C[G] is the raw dual of C(G): against the table-built construction -----

def _table_group_algebra(group):
    """C[G] written straight from the Cayley table: m[gh, g, h] = 1,
    unit e, g* = S(g) = g^-1, delta(g) = g x g, eps(g) = 1."""
    n = group.order
    ar = np.arange(n)
    m = np.zeros((n, n, n), dtype=complex)
    m[group.table, ar[:, None], ar] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[group.identity] = 1.0
    star = np.zeros((n, n), dtype=complex)
    star[group.inverses, ar] = 1.0
    A = Algebra(m, unit, star, name=f"C[{group.name}]")
    D = np.zeros((n * n, n), dtype=complex)
    D[ar * (n + 1), ar] = 1.0
    return HopfData(A, LinMap(A, tensor(A, A), D), np.ones(n),
                    LinMap(A, A, star.copy()), name=f"C[{group.name}]")


def _assert_same_group_algebra(group):
    got, want = group_algebra(group), _table_group_algebra(group)
    pairs = [(got.algebra.mul_tensor, want.algebra.mul_tensor),
             (got.algebra.unit_coeffs, want.algebra.unit_coeffs),
             (got.algebra.star_matrix, want.algebra.star_matrix),
             (got.delta.matrix, want.delta.matrix),
             (got.counit, want.counit),
             (got.antipode.matrix, want.antipode.matrix)]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got.name == got.algebra.name == want.name == want.algebra.name
    g, w = verify_hopf(got), verify_hopf(want)
    assert g.residuals == w.residuals and g.scales == w.scales


@pytest.mark.parametrize("name", [f for f, _ in FACTORS]
                         + ["S4", "S3xZ2", "Z4xZ4"])
def test_group_algebra_is_the_table_construction(name):
    extra = {"S4": lambda: groups.symmetric(4),
             "S3xZ2": lambda: groups.direct_product(groups.symmetric(3),
                                                    groups.cyclic(2)),
             "Z4xZ4": lambda: groups.direct_product(groups.cyclic(4),
                                                    groups.cyclic(4))}
    _assert_same_group_algebra(extra[name]() if name in extra
                               else _factor(name))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(small_groups())
def test_group_algebra_is_the_table_construction_on_random_groups(G):
    _assert_same_group_algebra(G)


# -- one-axiom mutants from the order-6 loop ---------------------------------

def test_loop_functions_fail_coassociativity_alone():
    checks = verify_hopf(loop_functions())
    assert checks.failures() == ["coassociativity"]
    assert checks.residuals["coassociativity"] > 6.0


def test_loop_algebra_fails_associativity_alone():
    # C[L6], the raw dual of C(L6): the product is the loop's, and the
    # coproduct g x g is coassociative
    checks = verify_hopf(dual_hopf_raw(loop_functions()))
    assert checks.failures() == ["associativity"]
    assert checks.residuals["associativity"] == 2.0
    # the loop's trace Gram is exactly I, so the flag passes
    assert checks.flags == {"trace_positive": True}
    assert checks.scales["associativity"] == checks.scales["unit"] ** 2


def _with_product_and_star(K, mul_tensor, star_matrix):
    """K's Hopf maps on a new algebra with the given product and star."""
    A = K.algebra
    B = Algebra(mul_tensor, A.unit_coeffs, star_matrix)
    return HopfData(B, LinMap(B, tensor(B, B), K.delta.matrix), K.counit,
                    LinMap(B, B, K.antipode.matrix))


@pytest.mark.parametrize("mutant", ["negated star", "NaN product"])
def test_a_trace_that_is_not_positive_fails_a_flag_not_a_traceback(
        hopf_gs3, mutant):
    # C[S3] with -star has the trace Gram -I; a NaN constant a NaN Gram.
    # The representation is then all NaN, so every norm of a nonzero row
    # is NaN and fails, with no LinAlgError and no warning
    A = hopf_gs3.algebra
    m = A.mul_tensor.copy()
    if mutant == "NaN product":
        m[0, 1, 2] = np.nan
    st = -A.star_matrix if mutant == "negated star" else A.star_matrix
    H = _with_product_and_star(hopf_gs3, m, st)
    B = H.algebra
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = verify_hopf(H)
        assert np.isnan(B.norm_coeffs(B.unit_coeffs))
    assert checks.flags == {"trace_positive": False}
    assert "trace_positive" in checks.failures()
    assert np.isnan(B.rep_tensor).all()
    if mutant == "negated star":
        assert np.array_equal(B.trace_gram, -np.eye(B.dim))
        assert checks.failures() == ["star_antimultiplicative", "delta_star",
                                     "trace_positive"]
    with pytest.raises(HopfAxiomError, match="trace_positive=False"):
        checks.raise_for_failure("mutant")


def test_a_shifted_unit_fails_the_unit_residual(hopf_gs3):
    # 1 + e_1 as the unit: 1 e_p = e_p fails on both sides
    A = hopf_gs3.algebra
    B = Algebra(A.mul_tensor, A.unit_coeffs + np.eye(A.dim)[1],
                A.star_matrix)
    H = HopfData(B, LinMap(B, tensor(B, B), hopf_gs3.delta.matrix),
                 hopf_gs3.counit, LinMap(B, B, hopf_gs3.antipode.matrix))
    checks = verify_hopf(H)
    assert "unit" in checks.failures()
    assert checks.residuals["unit"] == 1.0


def test_block_algebras_skip_associativity_and_unit(kp8_block, hopf_cs3):
    for H in (kp8_block, hopf_cs3):
        assert not {"associativity", "unit"} & set(verify_hopf(H).residuals)
