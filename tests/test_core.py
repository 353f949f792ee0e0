import functools
from dataclasses import replace

import numpy as np
import pytest

from finiteqg import core
from finiteqg.core import (BlockAlgebra, CheckError, Checks, Tolerance,
                           nullspace, numerical_rank, orthonormal_rows,
                           tensor)
from finiteqg.duality import block_presentation, dualize
from finiteqg.hopf import function_algebra, group_algebra, kac_paljutkin
from finiteqg import groups

from conftest import basis_row, kron_star_matrix, random_row


def test_matrix_unit_calculus():
    A = BlockAlgebra([3])
    e12, e23, e13 = (basis_row(A, A.index(0, i, j))
                     for i, j in [(0, 1), (1, 2), (0, 2)])
    assert A.norm_coeffs(A.mul_coeffs(e12, e23) - e13) == 0.0
    assert A.norm_coeffs(A.mul_coeffs(e23, e12)) == 0.0


def test_unit_acts_as_identity():
    A = BlockAlgebra([2, 3])
    rng = np.random.default_rng(0)
    x = random_row(A, rng)
    assert A.norm_coeffs(A.mul_coeffs(A.unit_coeffs, x) - x) < 1e-14
    assert A.norm_coeffs(A.mul_coeffs(x, A.unit_coeffs) - x) < 1e-14


def test_index_unindex_roundtrip():
    A = BlockAlgebra([1, 2, 3])
    for k in range(A.dim):
        b, i, j = A.unindex(k)
        assert A.index(b, i, j) == k
    assert A.dim == 1 + 4 + 9


def test_index_and_unindex_refuse_out_of_range():
    A = BlockAlgebra([1, 2])
    # -1 and -2 would otherwise wrap to the last block (index 5 = dim,
    # index 1 the unit of block 1)
    for block in (-2, -1, 2):
        with pytest.raises(IndexError, match="block index"):
            A.index(block, 0, 0)
        with pytest.raises(IndexError, match="block index"):
            A.block_unit(block)
    for idx in (-1, A.dim, np.array([0, A.dim]), np.array([-1, 0])):
        with pytest.raises(IndexError, match="basis index"):
            A.unindex(idx)
    assert [int(v) for v in A.unindex(A.dim - 1)] == [1, 1, 1]


def test_block_arguments_are_refused_out_of_range_or_malformed():
    A = BlockAlgebra([1, 2])
    # a negative block must not wrap around to another block or to none
    for blocks in ([-1], [2], [0, -2]):
        with pytest.raises(IndexError, match="block index"):
            A.block_indices(blocks)
    with pytest.raises(ValueError, match="repeated block"):
        A.block_indices([1, 0, 1])
    assert A.block_indices(np.array([1, 0])).tolist() == [1, 2, 3, 4, 0]
    # every block must be n_k x n_k: swapped blocks are not a row
    for mats in ([np.eye(2), [[7]]], [[[1]], np.eye(4)], [[[1]]],
                 [[[1]], np.eye(2), [[1]]], [[1], np.eye(2)]):
        with pytest.raises(ValueError, match="blocks of shapes"):
            A.from_block_matrices(mats)
    assert A.from_block_matrices([[[7]], np.eye(2)]).tolist() == [7, 1, 0,
                                                                  0, 1]


def test_block_star_matrix_is_built_on_first_use():
    A = BlockAlgebra([1, 2])
    assert "star_matrix" not in A.__dict__
    # star(e^(k)_ij) = e^(k)_ji
    want = np.zeros((A.dim, A.dim))
    for p in range(A.dim):
        k, i, j = A.unindex(p)
        want[A.index(k, j, i), p] = 1.0
    assert np.array_equal(A.star_matrix, want)
    assert A.__dict__["star_matrix"] is A.star_matrix


def test_group_algebra_mul_matches_cayley_bruteforce():
    # oracle: compose permutation tuples directly
    s3 = groups.symmetric(3)
    H = group_algebra(s3)
    elems = s3.elements
    for p in elems:
        for q in elems:
            prod = tuple(p[q[x]] for x in range(3))
            A = H.algebra
            g = basis_row(A, s3.index_of(p))
            h = basis_row(A, s3.index_of(q))
            want = basis_row(A, s3.index_of(prod))
            assert A.norm_coeffs(A.mul_coeffs(g, h) - want) < 1e-14


def test_tensor_block_structure():
    t = tensor(BlockAlgebra([2]), BlockAlgebra([3]))
    assert t.block_dims == (6,)
    t2 = tensor(BlockAlgebra([1, 1]), BlockAlgebra([1, 1]))
    assert t2.block_dims == (1, 1, 1, 1)


def test_kron_leg_independence():
    M2 = BlockAlgebra([2])
    T = tensor(M2, M2)
    e11 = basis_row(M2, M2.index(0, 0, 0))
    one = M2.unit_coeffs
    lhs = T.mul_coeffs(T.kron_coeffs(e11, one), T.kron_coeffs(one, e11))
    rhs = T.kron_coeffs(e11, e11)
    assert T.norm_coeffs(lhs - rhs) < 1e-14


def test_is_zero_relative():
    A = BlockAlgebra([2])
    tol = Tolerance(1e-9)
    assert tol.is_zero(A.norm_coeffs(np.zeros(A.dim)))
    assert not tol.is_zero(A.norm_coeffs(basis_row(A, A.index(0, 0, 0))))
    assert tol.is_zero(A.norm_coeffs(1e-12 * np.ones(4)))


def test_nonnegative_integers_round_within_the_slack():
    vals = np.array([[2.0 + 1e-8, 1e-7j], [3.0 - 1e-9, 0.0]])
    got = core.nonnegative_integers(vals, "count")
    assert got.dtype.kind == "i" and got.tolist() == [[2, 0], [3, 0]]
    for bad in (0.5, -1.0, 1.0 + 1e-3j, np.nan):
        with pytest.raises(CheckError, match="count .* is not a "
                                             "non-negative integer"):
            core.nonnegative_integers(np.array([1.0, bad]), "count")


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_tolerance_must_be_positive_and_finite(eps):
    with pytest.raises(ValueError, match="positive and finite"):
        Tolerance(eps)


def test_operator_norm_is_max_block_spectral():
    A = BlockAlgebra([2, 1])
    x = A.from_block_matrices([np.array([[0, 2.0], [0, 0]]),
                               np.array([[1.0]])])
    assert abs(A.norm_coeffs(x) - 2.0) < 1e-14


@pytest.mark.parametrize("dims", [[2], [1, 2], [1, 1, 3]])
def test_associativity_property(dims):
    A = BlockAlgebra(dims)
    rng = np.random.default_rng(42)
    for _ in range(5):
        a, b, c = (random_row(A, rng) for _ in range(3))
        mul, norm = A.mul_coeffs, A.norm_coeffs
        lhs = mul(mul(a, b), c)
        rhs = mul(a, mul(b, c))
        assert norm(lhs - rhs) <= 1e-12 * norm(a) * norm(b) * norm(c)


def test_adjoint_antihomomorphism():
    A = BlockAlgebra([2, 3])
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b = random_row(A, rng), random_row(A, rng)
        mul, star = A.mul_coeffs, A.star_coeffs
        res = A.norm_coeffs(star(mul(a, b)) - mul(star(b), star(a)))
        assert res <= 1e-12 * (1 + A.norm_coeffs(a) * A.norm_coeffs(b))


def test_kron_respects_multiplication():
    A, B = BlockAlgebra([2]), BlockAlgebra([1, 2])
    T = tensor(A, B)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, c = random_row(A, rng), random_row(A, rng)
        b, d = random_row(B, rng), random_row(B, rng)
        res = T.norm_coeffs(
            T.mul_coeffs(T.kron_coeffs(a, b), T.kron_coeffs(c, d))
            - T.kron_coeffs(A.mul_coeffs(a, c), B.mul_coeffs(b, d)))
        scale = (A.norm_coeffs(a) * B.norm_coeffs(b) * A.norm_coeffs(c)
                 * B.norm_coeffs(d))
        assert res <= 1e-12 * (1 + scale)


def test_triple_tensor_flattening():
    A = BlockAlgebra([1, 1])
    t1 = tensor(tensor(A, A), A)
    t2 = tensor(A, tensor(A, A))
    assert t1 == t2
    rng = np.random.default_rng(4)
    x = rng.standard_normal(t1.dim)
    y = rng.standard_normal(t1.dim)
    assert np.allclose(t1.mul_coeffs(x, y), t2.mul_coeffs(x, y))


def test_verified_axiom_residual_element_is_zero():
    # the antipode-law residual of a verified Hopf algebra, evaluated on a
    # random element, passes the relative zero test
    from finiteqg.hopf import group_algebra
    H = group_algebra(groups.symmetric(3))
    rng = np.random.default_rng(8)
    A = H.algebra
    x = random_row(A, rng)
    acc = np.zeros(A.dim, dtype=complex)
    d = H.dim
    dx = (H.delta.matrix @ x).reshape(d, d)
    for p in range(d):
        for q in range(d):
            if abs(dx[p, q]) > 0:
                term = A.mul_coeffs(H.antipode(basis_row(A, p)),
                                    basis_row(A, q))
                acc = acc + dx[p, q] * term
    residual = acc - complex(H.counit @ x) * A.unit_coeffs
    tol = Tolerance(1e-9)
    assert tol.is_zero(A.norm_coeffs(residual), A.norm_coeffs(x))
    assert not tol.is_zero(A.norm_coeffs(acc + A.unit_coeffs))


def _kron_rep(T, x):
    """Reference representation of a tensor element: the sum over basis
    tuples of the Kronecker products of the factors' matrices."""
    out = 0.0
    for idx in np.ndindex(*T.factor_dims):
        mat = np.ones((1, 1))
        for f, p in zip(T.factors, idx):
            mat = np.kron(mat, f.rep_tensor[p])
        out = out + x[np.ravel_multi_index(idx, T.factor_dims)] * mat
    return out


@pytest.mark.parametrize("dims", [
    [[1, 2, 3], [2, 1]],
    [[3, 1], [1, 2], [2, 1]],
])
def test_blockwise_tensor_norm_matches_dense_rep(dims):
    T = tensor(*[BlockAlgebra(d) for d in dims])
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = random_row(T, rng)
        want = np.linalg.norm(_kron_rep(T, x), 2)
        assert np.allclose(T.rep_coeffs(x), _kron_rep(T, x), atol=1e-13)
        assert abs(T.norm_coeffs(x) - want) <= 1e-12 * want
        assert abs(T.norm_coeffs(x) - np.linalg.norm(T.rep_coeffs(x), 2)) \
            <= 1e-12 * want


def test_zero_vector_has_norm_zero_on_every_algebra_kind():
    G = group_algebra(groups.symmetric(3)).algebra
    B = BlockAlgebra([1, 2])
    for alg in (G, B, tensor(B, B), tensor(G, G), tensor(B, G)):
        assert alg.norm_coeffs(np.zeros(alg.dim, dtype=complex)) == 0.0


def test_blockwise_norm_propagates_nan():
    C = BlockAlgebra([1, 1, 1])
    x = np.array([1.0, np.nan, 0.0])
    assert np.isnan(C.norm_coeffs(x))
    assert np.isnan(tensor(C, C).norm_coeffs(np.kron(x, x)))


def test_legwise_product_matches_einsum_block_times_generic():
    B = BlockAlgebra([1, 2])
    G = group_algebra(groups.cyclic(3)).algebra
    T = tensor(B, G)
    rng = np.random.default_rng(13)
    x, y = (random_row(T, rng) for _ in range(2))
    want = np.einsum("ab,cd,eac,fbd->ef", x.reshape(T.factor_dims),
                     y.reshape(T.factor_dims), B.mul_tensor, G.mul_tensor)
    assert np.allclose(T.mul_coeffs(x, y), want.reshape(-1), atol=1e-13)


def test_legwise_product_matches_einsum_three_legs():
    A, C = BlockAlgebra([2]), BlockAlgebra([1, 1])
    G = group_algebra(groups.cyclic(2)).algebra
    T = tensor(A, G, C)
    rng = np.random.default_rng(14)
    x, y = (random_row(T, rng) for _ in range(2))
    want = np.einsum("abc,def,gad,hbe,icf->ghi", x.reshape(T.factor_dims),
                     y.reshape(T.factor_dims),
                     A.mul_tensor, G.mul_tensor, C.mul_tensor)
    assert np.allclose(T.mul_coeffs(x, y), want.reshape(-1), atol=1e-13)


@pytest.mark.parametrize("shape, rank", [((3, 5), 3), ((2, 6), 1),
                                         ((6, 4), 2), ((4, 4), 4)])
def test_nullspace_of_wide_and_tall_matrices(shape, rank):
    rng = np.random.default_rng(15)
    m = (rng.standard_normal((shape[0], rank))
         @ rng.standard_normal((rank, shape[1]))).astype(complex)
    k = nullspace(m)
    assert k.shape == (shape[1] - rank, shape[1])
    assert np.allclose(k @ k.conj().T, np.eye(k.shape[0]), atol=1e-12)
    assert np.abs(m @ k.T).max(initial=0.0) <= 1e-12 * np.linalg.norm(m, 2)


def _structure_tensor(alg):
    """Reference structure tensor; for a tensor product, the Kronecker
    combination of the factors' tensors."""
    if not hasattr(alg, "factors"):
        return alg.mul_tensor
    m = np.ones((1, 1, 1))
    for f in alg.factors:
        m = np.einsum("kpq,lrs->klprqs", m, f.mul_tensor)
        m = m.reshape(m.shape[0] * m.shape[1], m.shape[2] * m.shape[3], -1)
    return m


def _dense_norm(alg, x):
    """Reference operator norm of one coefficient row."""
    if hasattr(alg, "factors"):
        rep = _kron_rep(alg, x)
    else:
        rep = np.einsum("kab,k->ab", alg.rep_tensor, x)
    return np.linalg.norm(rep, 2)


STACK_ALGEBRAS = {
    "block": lambda: BlockAlgebra([1, 2]),
    "generic": lambda: group_algebra(groups.symmetric(3)).algebra,
    "block x block": lambda: tensor(BlockAlgebra([1, 2]),
                                    BlockAlgebra([2, 1, 1])),
    "block x generic": lambda: tensor(
        BlockAlgebra([1, 2]), group_algebra(groups.cyclic(3)).algebra),
    "three legs": lambda: tensor(BlockAlgebra([2]),
                                 group_algebra(groups.cyclic(2)).algebra,
                                 BlockAlgebra([1, 1])),
}


@pytest.mark.parametrize("kind", sorted(STACK_ALGEBRAS))
def test_stacked_kernels_match_row_by_row_reference(kind, monkeypatch):
    alg = STACK_ALGEBRAS[kind]()
    rng = np.random.default_rng(16)
    x, y = (np.stack([[random_row(alg, rng) for _ in range(3)]
                      for _ in range(2)]) for _ in range(2))
    m = _structure_tensor(alg)
    prod = alg.mul_coeffs(x, y)
    star = alg.star_coeffs(x)
    assert prod.shape == star.shape == x.shape == (2, 3, alg.dim)
    for i, j in np.ndindex(2, 3):
        want = np.einsum("kpq,p,q->k", m, x[i, j], y[i, j])
        assert np.allclose(prod[i, j], want, atol=1e-12)
        assert np.allclose(star[i, j],
                           kron_star_matrix(alg) @ np.conj(x[i, j]),
                           atol=1e-13)
    # a single vector broadcasts against a stack
    left = alg.mul_coeffs(x[0, 0], y[1])
    for j in range(3):
        want = np.einsum("kpq,p,q->k", m, x[0, 0], y[1, j])
        assert np.allclose(left[j], want, atol=1e-12)
    norms = [_dense_norm(alg, row) for row in x.reshape(-1, alg.dim)]
    assert abs(alg.norm_coeffs(x) - max(norms)) <= 1e-12 * max(norms)
    assert abs(alg.norm_coeffs(x[1, 2]) - norms[-1]) <= 1e-12 * norms[-1]
    # dense norms of a long stack are taken a bounded chunk at a time
    monkeypatch.setattr(core, "_DENSE_STACK_ENTRIES", 1)
    assert abs(alg.norm_coeffs(x) - max(norms)) <= 1e-12 * max(norms)


@pytest.mark.parametrize("kind", sorted(STACK_ALGEBRAS))
def test_stack_with_zero_and_nan_rows_behaves_like_single_rows(kind):
    alg = STACK_ALGEBRAS[kind]()
    x = random_row(alg, np.random.default_rng(17))
    zero = np.zeros(alg.dim, dtype=complex)
    assert alg.norm_coeffs(np.stack([zero, zero])) == 0.0
    assert alg.norm_coeffs(np.stack([zero, x, zero])) == alg.norm_coeffs(x)
    for at in (0, -1):
        bad = x.copy()
        bad[at] = np.nan
        # a NaN gives NaN on every path, 1 x 1 blocks or not
        assert _norm_outcome(alg, np.stack([zero, x, bad])) \
            == _norm_outcome(alg, bad) == "nan"


def _norm_outcome(alg, x):
    try:
        return "nan" if np.isnan(alg.norm_coeffs(x)) else "finite"
    except np.linalg.LinAlgError:
        return "raises"


def test_multiplicative_residual_all_pairs_sees_the_last_pair(kp8_block):
    # a block codomain takes every pair in one call; only the pair
    # (d - 1, d - 1) of the domain is corrupted
    B, d = kp8_block.algebra, kp8_block.dim
    T2, DM = tensor(B, B), kp8_block.delta.matrix
    assert core.multiplicative_residual(B, T2, DM) <= 1e-12
    m = B.mul_tensor.copy()
    m[0, d - 1, d - 1] += 0.25
    A2 = core.Algebra(m, B.unit_coeffs, B.star_matrix)
    got = core.multiplicative_residual(A2, T2, DM)
    eye, cols = np.eye(d), DM.T
    per_p = max(T2.norm_coeffs(A2.mul_coeffs(eye[p], eye) @ cols
                               - T2.mul_coeffs(cols[p], cols))
                for p in range(d))
    assert got > 0.1
    assert abs(got - per_p) <= 1e-13


# -- pair_products: every product x[p] y[q] -----------------------------------

PAIR_ALGEBRAS = {
    "block": lambda: BlockAlgebra([1, 2, 3]),
    "block x block": lambda: tensor(BlockAlgebra([1, 2]),
                                    BlockAlgebra([2, 1, 1])),
    "C[S3]": lambda: group_algebra(groups.symmetric(3)).algebra,
    "kp8": lambda: kac_paljutkin().algebra,
    "generic x generic": lambda: tensor(
        group_algebra(groups.symmetric(3)).algebra,
        group_algebra(groups.cyclic(4)).algebra),
    "block x generic": lambda: tensor(
        BlockAlgebra([1, 2]), group_algebra(groups.cyclic(3)).algebra),
}


def _pair_stacks(alg, seed):
    # complex and not dyadic, so a reordered sum rounds differently
    rng = np.random.default_rng(seed)
    x, y = ((rng.standard_normal((n, alg.dim))
             + 1j * rng.standard_normal((n, alg.dim))) / 3.0 for n in (5, 7))
    return x, y


@pytest.mark.parametrize("kind", sorted(PAIR_ALGEBRAS))
def test_pair_products_match_broadcast_products(kind):
    alg = PAIR_ALGEBRAS[kind]()
    x, y = _pair_stacks(alg, 61)
    got = core.pair_products(alg, x, y)
    want = alg.mul_coeffs(x[:, None], y)
    assert got.shape == (5, 7, alg.dim)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    if alg._block_stacks():
        # the block path is _blockwise_mul itself
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", sorted(PAIR_ALGEBRAS))
def test_pair_products_in_many_blocks_equal_one_block(kind, monkeypatch):
    alg = PAIR_ALGEBRAS[kind]()
    x, y = _pair_stacks(alg, 67)
    # one row of x per block: five blocks; taken first, so that no freed
    # one-block result can stand in for a block that was never written
    with monkeypatch.context() as m:
        m.setattr(core, "_DENSE_STACK_ENTRIES", 1)
        many = core.pair_products(alg, x, y)
    assert np.array_equal(many, core.pair_products(alg, x, y))


def test_pair_products_in_many_blocks_at_d24(monkeypatch):
    H = group_algebra(groups.symmetric(4))
    A, T2, DM = H.algebra, H.square, H.delta.matrix
    x, y = _pair_stacks(A, 71)
    one = [core.pair_products(A, x, y), core.pair_products(T2, DM.T, DM.T)]
    assert core.multiplicative_residual(A, T2, DM) == 0.0
    # a block per row of x and per row of DM.T
    monkeypatch.setattr(core, "_DENSE_STACK_ENTRIES", 1)
    many = [core.pair_products(A, x, y), core.pair_products(T2, DM.T, DM.T)]
    assert all(np.array_equal(a, b) for a, b in zip(one, many))
    assert core.multiplicative_residual(A, T2, DM) == 0.0


def test_pair_products_refuse_other_shapes():
    three = tensor(BlockAlgebra([2]), group_algebra(groups.cyclic(2)).algebra,
                   BlockAlgebra([1, 1]))
    x = np.ones((2, three.dim))
    with pytest.raises(ValueError, match="3 legs"):
        core.pair_products(three, x, x)
    B = BlockAlgebra([1, 2])
    with pytest.raises(ValueError, match="stacks"):
        core.pair_products(B, np.ones(B.dim), np.ones((2, B.dim)))
    # three block legs stay on the block path
    blocks = tensor(BlockAlgebra([2]), BlockAlgebra([1, 1]), BlockAlgebra([2]))
    x, y = _pair_stacks(blocks, 73)
    assert np.array_equal(core.pair_products(blocks, x, y),
                          blocks.mul_coeffs(x[:, None], y))


@pytest.mark.parametrize("entries", [None, 1])
def test_multiplicative_residual_sees_a_corrupted_generic_codomain(
        entries, monkeypatch):
    # only the codomain's product e_{d-1} e_{d-1} is corrupted, so only the
    # pair (d - 1, d - 1) of delta(e_p) delta(e_q) = e_p e_q x e_p e_q is off
    H = group_algebra(groups.symmetric(3))
    A, d, DM = H.algebra, H.dim, H.delta.matrix
    m = A.mul_tensor.copy()
    m[0, d - 1, d - 1] += 0.25
    A2 = core.Algebra(m, A.unit_coeffs, A.star_matrix)
    T2 = tensor(A2, A2)
    if entries is not None:
        # one row p per block, so the pair sits in the last block alone
        monkeypatch.setattr(core, "_DENSE_STACK_ENTRIES", entries)
    got = core.multiplicative_residual(A, T2, DM)
    eye, cols = np.eye(d), DM.T
    per_p = max(T2.norm_coeffs(A.mul_coeffs(eye[p], eye) @ cols
                               - T2.mul_coeffs(cols[p], cols))
                for p in range(d))
    assert got > 0.1
    assert abs(got - per_p) <= 1e-13 * per_p
    assert core.multiplicative_residual(A, tensor(A, A), DM) == 0.0


@pytest.mark.parametrize("kind", ["block", "generic"])
def test_multiplicative_residual_of_a_nan_row_is_nan(kind, kp8_block):
    H = kp8_block if kind == "block" else group_algebra(groups.symmetric(3))
    DM = H.delta.matrix.copy()
    DM[:, 2] = np.nan
    with np.errstate(all="raise"):
        got = core.multiplicative_residual(H.algebra, H.square, DM)
    assert np.isnan(got)


# -- multiplicative_residual on the block path: residuals in block coordinates

def _kronecker_layout_residual(domain, codomain, matrix):
    """The residual as formed in the Kronecker layout: every product from
    pair_products, every image through the domain's product, one norm."""
    cols = np.asarray(matrix).T
    eye = np.eye(domain.dim)
    images = domain.mul_coeffs(eye[:, None], eye) @ cols
    return codomain.norm_coeffs(images - core.pair_products(codomain, cols,
                                                            cols))


@functools.lru_cache(maxsize=None)
def _block_path_cases():
    """(domain, codomain, matrix): Delta of C(G), of the block duals of
    C(G) and C[G], of KP8 on its blocks, and a map into a tensor product
    with mixed block sizes."""
    s3, z4z2 = groups.symmetric(3), groups.direct_product(groups.cyclic(4),
                                                          groups.cyclic(2))
    hopfs = {"C(S3)": function_algebra(s3),
             "C(Z4xZ2)": function_algebra(z4z2),
             "dual C(S3)": dualize(function_algebra(s3)).dual_hopf,
             "dual C[S3]": dualize(group_algebra(s3)).dual_hopf,
             "dual C[Z4xZ2]": dualize(group_algebra(z4z2)).dual_hopf,
             "kp8 blocks": block_presentation(kac_paljutkin())[0]}
    cases = {k: (H.algebra, H.square, H.delta.matrix)
             for k, H in hopfs.items()}
    A = BlockAlgebra([1, 2])
    T = tensor(A, BlockAlgebra([3, 1, 2]))
    rng = np.random.default_rng(83)
    cases["mixed blocks"] = (A, T, (rng.standard_normal((T.dim, A.dim))
                                    + 1j * rng.standard_normal(
                                        (T.dim, A.dim))) / 3.0)
    return cases


BLOCK_PATH_KINDS = ["C(S3)", "C(Z4xZ2)", "dual C(S3)", "dual C[S3]",
                    "dual C[Z4xZ2]", "kp8 blocks", "mixed blocks"]


@pytest.mark.parametrize("kind", BLOCK_PATH_KINDS)
@pytest.mark.parametrize("noise", [0.0, 1e-7])
def test_block_path_residual_equals_the_kronecker_layout_formula(kind,
                                                                 noise):
    domain, codomain, DM = _block_path_cases()[kind]
    assert codomain._block_stacks()
    rng = np.random.default_rng(89)
    DM = DM + noise * (rng.standard_normal(DM.shape)
                       + 1j * rng.standard_normal(DM.shape))
    got = core.multiplicative_residual(domain, codomain, DM)
    assert got == _kronecker_layout_residual(domain, codomain, DM)
    if noise:
        assert got > noise


@pytest.mark.parametrize("kind", ["kp8 blocks", "dual C[Z4xZ2]",
                                  "mixed blocks"])
def test_block_path_residual_in_many_row_blocks(kind, monkeypatch):
    domain, codomain, DM = _block_path_cases()[kind]
    DM = DM.copy()
    DM[-1, -1] += 0.25          # only pairs (p, q) with p or q = d - 1
    one = core.multiplicative_residual(domain, codomain, DM)
    assert len(core._pair_rows(codomain, len(DM.T), len(DM.T))) == 1
    # one row p per block; opnorm's Gram slices still hold whole matrices
    d = len(DM.T)
    monkeypatch.setattr(core, "_DENSE_STACK_ENTRIES", 4 * d * codomain.dim)
    assert len(core._pair_rows(codomain, d, d)) == d
    assert core.multiplicative_residual(domain, codomain, DM) == one > 0.1


@pytest.mark.parametrize("kind", ["block", "generic"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_multiplicative_residual_of_one_non_finite_entry_is_nan(kind, bad,
                                                                kp8_block):
    H = kp8_block if kind == "block" else group_algebra(groups.symmetric(3))
    for at in [(0, 0), (-1, -1), (5, 3)]:
        DM = H.delta.matrix.copy()
        DM[at] = bad
        with np.errstate(all="raise"):
            got = core.multiplicative_residual(H.algebra, H.square, DM)
        assert np.isnan(got)


def test_block_unit_sets_the_block_diagonal():
    A = BlockAlgebra([2, 1, 3, 1, 2])
    for k, n in enumerate(A.block_dims):
        # the unit of block k as block matrices: eye there, zeros elsewhere
        want = A.from_block_matrices(
            [np.eye(m) if j == k else np.zeros((m, m))
             for j, m in enumerate(A.block_dims)])
        got = A.block_unit(k)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert np.array_equal(sum(A.block_unit(k) for k in range(5)),
                          A.unit_coeffs)


# -- opnorm: Gram-eigenvalue spectral norms ----------------------------------

@pytest.mark.parametrize("shape", [(6, 5, 5), (4, 9, 3), (4, 3, 9),
                                   (3, 1, 4), (3, 4, 1), (64, 2)])
@pytest.mark.parametrize("scale", [1.0, 1e-15, 1e-300, 1e200])
def test_opnorm_matches_svd_norm_at_every_scale(shape, scale):
    rng = np.random.default_rng(sum(shape))
    real = rng.standard_normal(shape)
    cplx = real + 1j * rng.standard_normal(shape)
    for m in (real * scale, cplx * scale):
        want = np.linalg.norm(m, 2, axis=(-2, -1))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = core.opnorm(m)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * want)


@pytest.mark.parametrize("shape", [(300, 7), (7, 300), (3, 40, 6),
                                   (3, 6, 40), (30, 30)])
def test_opnorm_sums_the_gram_matrix_over_slices(shape, monkeypatch):
    rng = np.random.default_rng(sum(shape))
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.linalg.norm(m, 2, axis=(-2, -1))
    whole = core.opnorm(m)
    # slices of the longer side of at most 50 entries: 3 to 60 slices
    monkeypatch.setattr(core, "_DENSE_STACK_ENTRIES", 50)
    sliced = core.opnorm(m)
    assert np.all(np.abs(sliced - want) <= 1e-13 * want)
    assert np.all(np.abs(sliced - whole) <= 1e-13 * want)
    m[..., -1, -1] = np.nan
    assert np.all(np.isnan(core.opnorm(m)))


def test_opnorm_of_nan_or_inf_is_nan_and_leaves_the_rest():
    m = np.stack([np.eye(3), 2.0 * np.eye(3), np.zeros((3, 3)),
                  np.eye(3)])
    m[0, 2, 1] = np.nan
    m[3, 0, 0] = np.inf
    got = core.opnorm(m)
    assert np.isnan(got[0]) and np.isnan(got[3])
    assert got[1] == 2.0 and got[2] == 0.0
    for bad in (np.nan, np.inf, -np.inf):
        one = np.ones((2, 3), dtype=complex)
        one[1, 2] = bad
        assert np.isnan(core.opnorm(one))


def test_every_norm_path_gives_nan_not_linalgerror():
    G = group_algebra(groups.symmetric(3)).algebra
    B = BlockAlgebra([1, 2])
    for alg in (G, B, tensor(B, B), tensor(G, G), tensor(B, G)):
        x = np.ones(alg.dim, dtype=complex)
        x[-1] = np.nan
        assert np.isnan(alg.norm_coeffs(x))
    bad = np.eye(B.dim)
    bad[0, 0] = np.nan
    assert np.isnan(core.opnorm(np.eye(B.dim) - bad))


# -- opnorms: several stacks, one eigvalsh call per Gram size ----------------

def _opnorm_reference(stack):
    """``opnorm`` of one stack with its own Gram slices and its own
    ``eigvalsh`` call, as it was computed before ``opnorms``."""
    m = np.asarray(stack)
    s = np.abs(m).max(axis=(-2, -1), initial=0.0)
    live = np.isfinite(s) & (s > 0)

    def unit(m, s):
        s = s[..., None, None]
        tall = m.shape[-2] >= m.shape[-1]
        length = m.shape[-2] if tall else m.shape[-1]
        step = max(1, core._DENSE_STACK_ENTRIES // (m.size // length))
        gram = None
        for i in range(0, length, step):
            x = (m[..., i:i + step, :] if tall else m[..., i:i + step]) / s
            xh = x.conj().swapaxes(-1, -2)
            part = xh @ x if tall else x @ xh
            gram = part if gram is None else gram + part
        return np.sqrt(np.linalg.eigvalsh(gram)[..., -1])
    if live.all():
        return s * unit(m, s)
    out = np.where(np.isfinite(s), 0.0, np.nan)
    if live.any():
        out[live] = s[live] * unit(m[live], s[live])
    return out[()]


def _opnorms_cases():
    rng = np.random.default_rng(97)

    def c(*shape):
        return (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)) / 3.0
    mixed = c(5, 4, 4)
    mixed[1] = 0.0
    mixed[2, 0, 3] = np.nan
    mixed[3, 1, 1] = np.inf
    nan, inf = c(4, 4), c(4, 4)
    nan[0, 0], inf[3, 2] = np.nan, -np.inf
    return [np.zeros((4, 4)), nan, inf, mixed, c(4, 9), c(9, 4),
            c(3, 2, 7), c(3, 7, 2), rng.standard_normal((4, 4)), c(1, 1),
            c(6, 4, 4)]


def _same(got, want):
    return (np.shape(got) == np.shape(want) and type(got) is type(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@pytest.mark.parametrize("entries", [None, 20])
def test_opnorms_equal_the_per_stack_opnorm_bit_for_bit(entries,
                                                        monkeypatch):
    # zero, NaN, inf, mixed, wide, tall and real stacks in one call; with
    # 20 entries a Gram slice holds a few rows, so every stack takes several
    if entries is not None:
        monkeypatch.setattr(core, "_DENSE_STACK_ENTRIES", entries)
    cases = _opnorms_cases()
    want = [_opnorm_reference(m) for m in cases]
    got = core.opnorms(cases)
    assert len(got) == len(cases)
    for g, w, m in zip(got, want, cases):
        assert _same(g, w), m.shape
        assert _same(core.opnorm(m), w)


def test_opnorms_share_one_eigvalsh_call_per_gram_size(monkeypatch):
    cases = _opnorms_cases()
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape[-1])
        return eigvalsh(a)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    core.opnorms(cases)
    # Gram sizes 4 (complex and real), 2 and 1: one call each
    assert sorted(calls) == [1, 2, 4, 4]


def test_opnorms_of_gram_pairs():
    rng = np.random.default_rng(101)
    x = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    gram = x.conj().T @ x
    top = np.sqrt(np.linalg.eigvalsh(gram)[-1])
    s = np.float64(2.5)
    got = core.opnorms([x], [(s, gram), (np.float64(0.0), None),
                             (np.float64(np.nan), None),
                             (np.float64(np.inf), None)])
    assert _same(got[0], _opnorm_reference(x))
    assert got[1] == s * top
    assert got[2] == 0.0 and np.isnan(got[3]) and np.isnan(got[4])
    # an empty stack has no norms, where opnorm once divided by zero
    assert core.opnorm(np.zeros((0, 4, 4))).shape == (0,)


# -- gathered basis products: product_index against the dense table ---------

@functools.lru_cache(maxsize=None)
def _gather_cases():
    """(domain, codomain, matrix) of the coproduct of every shipped Hopf
    algebra and of its block dual, of C(G) and the block dual of C[G] for
    the ladder groups, and of the kp8 and Z3 magic actions."""
    from finiteqg.io import load_hopf, load_magic
    from conftest import DATA
    hopfs = {}
    for path in sorted(DATA.glob("*_algebra.json")) + [DATA / "kp8.json"]:
        hopfs[path.stem] = H = load_hopf(path)
        hopfs["dual " + path.stem] = dualize(H).dual_hopf
    for name, g in [("Z4xZ4", groups.direct_product(groups.cyclic(4),
                                                   groups.cyclic(4))),
                    ("Z12", groups.cyclic(12)), ("Q8", groups.quaternion()),
                    ("S3xZ2", groups.direct_product(groups.symmetric(3),
                                                    groups.cyclic(2)))]:
        hopfs[f"C({name})"] = function_algebra(g)
        hopfs[f"dual C[{name}]"] = dualize(group_algebra(g)).dual_hopf
    cases = {k: (H.algebra, H.square, H.delta.matrix)
             for k, H in hopfs.items()}
    for hopf, magic in [("kp8", "kp8_magic4"),
                        ("z3_function_algebra", "z3_cycle")]:
        M = load_magic(DATA / f"{magic}.json", hopfs[hopf])
        cases[magic] = M.module, M.codomain, M.matrix
    return cases


def _dense_table_residual(domain, codomain, matrix):
    """The block-path residual with f(e_p e_q) contracted from the dense
    (p, q, k) table of basis products, as before ``product_index``."""
    cols = np.asarray(matrix).T
    if not np.isfinite(cols).all():
        return np.nan
    eye = np.eye(domain.dim)
    blocks = [cols.take(g, axis=-1) for g in codomain._block_stacks()]
    worst = [0.0]
    for rows in core._pair_rows(codomain, len(cols), len(cols)):
        table = domain.mul_coeffs(eye[rows, None], eye)
        worst.append(core._largest_block_norm([
            np.tensordot(table, b, 1)
            - (b[rows, None] * b if b.shape[-1] == 1 else b[rows, None] @ b)
            for b in blocks]))
    return float(np.max(worst))


@pytest.mark.parametrize("kind", sorted(_gather_cases()))
def test_gathered_products_equal_the_dense_table_bit_for_bit(kind):
    domain, codomain, matrix = _gather_cases()[kind]
    assert isinstance(domain, BlockAlgebra) and codomain._block_stacks()
    cols = matrix.T
    eye = np.eye(domain.dim)
    want = np.tensordot(domain.mul_coeffs(eye[:, None], eye), cols, 1)
    got = np.concatenate([cols, np.zeros((1, cols.shape[1]))])[
        domain.product_index]
    assert got.tobytes() == want.tobytes()
    rng = np.random.default_rng(107)
    for noise in (0.0, 1e-7):
        m = matrix + noise * (rng.standard_normal(matrix.shape)
                              + 1j * rng.standard_normal(matrix.shape))
        got = core.multiplicative_residual(domain, codomain, m)
        assert got == _dense_table_residual(domain, codomain, m)
        assert (got > noise) if noise else (got <= 1e-12)
    for bad in (np.nan, np.inf):
        m = matrix.copy()
        m[-1, 0] = bad
        with np.errstate(all="raise"):
            assert np.isnan(core.multiplicative_residual(domain, codomain, m))


def test_product_index_is_the_basis_product_table():
    A = BlockAlgebra([2, 1, 3, 1, 2])
    index = A.product_index
    assert not index.flags.writeable
    eye = np.eye(A.dim)
    table = A.mul_coeffs(eye[:, None], eye)
    want = np.where(table.any(axis=-1), table.argmax(axis=-1), A.dim)
    assert np.array_equal(index, want)
    assert A.product_index is index


# -- pruned largest norm: _max_norm against opnorm of every block -------------

def _exhaustive_max_norm(alg, x):
    """The largest norm with ``opnorm`` taken on every block (every row's
    dense representation off the block path): the value _max_norm must
    return while computing fewer norms."""
    x = np.asarray(x)
    rows = x.reshape(-1, x.shape[-1])
    rows = rows[rows.any(axis=1)]
    if not len(rows):
        return 0.0
    gathers = alg._block_stacks()
    if gathers:
        norms = [np.abs(rows.take(g, axis=-1)).max() if g.shape[-1] == 1
                 else core.opnorm(rows.take(g, axis=-1)).max()
                 for g in gathers]
    else:
        step = max(1, core._DENSE_STACK_ENTRIES // alg.rep_dim ** 2)
        norms = [core.opnorm(alg.rep_coeffs(rows[i:i + step])).max()
                 for i in range(0, len(rows), step)]
    return float(np.max(norms))


def _assert_same_norm(alg, x):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = alg.norm_coeffs(x)
    want = _exhaustive_max_norm(alg, x)
    assert got == want or (np.isnan(got) and np.isnan(want)), (got, want)


PRUNE_ALGEBRAS = {
    **STACK_ALGEBRAS,
    "four block sizes": lambda: BlockAlgebra([1, 2, 2, 3, 4]),
    "one-dim blocks": lambda: BlockAlgebra([1] * 6),
    "one-dim x one-dim": lambda: tensor(BlockAlgebra([1] * 3),
                                        BlockAlgebra([1] * 4)),
}


def _random_rows(alg, rng, count, scale=1.0):
    return scale * np.stack([random_row(alg, rng)
                             for _ in range(count)])


@pytest.mark.parametrize("kind", sorted(PRUNE_ALGEBRAS))
@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e200])
def test_pruned_norm_equals_exhaustive_maximum(kind, scale):
    alg = PRUNE_ALGEBRAS[kind]()
    rng = np.random.default_rng(23)
    for count in (1, 2, 7):
        x = _random_rows(alg, rng, count, scale)
        _assert_same_norm(alg, x)
        # one row much larger than the rest, and one much smaller
        x[0] *= 1e3
        _assert_same_norm(alg, x)
        x[0] *= 1e-6
        _assert_same_norm(alg, x)


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q


def _rank_one(rng, n, norm):
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return norm * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e200])
def test_pruned_norm_on_flat_spectra_and_rank_one_ties(scale):
    # a scaled unitary has ||M||_F / sqrt(n) = ||M||, a rank-one matrix
    # ||M||_F = ||M||: with equal exact norms the bounds and the computed
    # norms differ in the last bits, which the rounding guard absorbs
    B = BlockAlgebra([1, 2, 3, 4])
    rng = np.random.default_rng(29)
    for _ in range(200):
        c = scale * rng.uniform(0.5, 2.0)
        rows = []
        for _ in range(2):
            mats = [np.array([[c * rng.uniform(0.1, 1.0)]])]
            for n in (2, 3, 4):
                mats.append(c * _unitary(rng, n) if rng.random() < 0.5
                            else _rank_one(rng, n, c))
            rows.append(B.from_block_matrices(mats))
        _assert_same_norm(B, rows[0])
        _assert_same_norm(B, np.stack(rows))


def test_pruned_norm_on_exact_ties():
    B = BlockAlgebra([1, 2, 2, 3])
    rng = np.random.default_rng(31)
    m2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m3 = np.zeros((3, 3), dtype=complex)
    m3[:2, :2] = m2
    top = core.opnorm(m2)
    # the same block twice, the same block in two sizes, a 1 x 1 block
    # equal to the norm, and the whole row repeated
    x = B.from_block_matrices([np.array([[top]]), m2, m2, m3])
    for stack in (x, np.stack([x, x]), np.stack([x, 0.5 * x, x])):
        _assert_same_norm(B, stack)
    assert B.norm_coeffs(x) == top
    eye = B.from_block_matrices([np.eye(1), 2 * np.eye(2), 2 * np.eye(2),
                                 2 * np.eye(3)])
    assert B.norm_coeffs(eye) == 2.0
    _assert_same_norm(B, eye)


@pytest.mark.parametrize("kind", sorted(PRUNE_ALGEBRAS))
def test_pruned_norm_with_zero_nan_and_inf_rows(kind):
    alg = PRUNE_ALGEBRAS[kind]()
    rng = np.random.default_rng(37)
    x = _random_rows(alg, rng, 3)
    zero = np.zeros((2, alg.dim), dtype=complex)
    _assert_same_norm(alg, zero)
    _assert_same_norm(alg, np.concatenate([zero[:1], x, zero]))
    # a row that is zero on every block but one
    sparse = np.zeros(alg.dim, dtype=complex)
    sparse[-1] = 3.0
    _assert_same_norm(alg, np.concatenate([x, sparse[None]]))
    for bad in (np.nan, np.inf):
        for at in (0, alg.dim - 1):
            y = x.copy()
            y[1, at] = bad
            # off the block path the dense representation of an inf row
            # meets 0 * inf in rep_coeffs, which warns
            with np.errstate(invalid="ignore"):
                got, want = alg.norm_coeffs(y), _exhaustive_max_norm(alg, y)
            assert got == want or (np.isnan(got) and np.isnan(want))
            assert not np.isfinite(got)


@pytest.mark.parametrize("kind", sorted(PRUNE_ALGEBRAS))
def test_pruned_norm_under_forced_dense_chunking(kind, monkeypatch):
    alg = PRUNE_ALGEBRAS[kind]()
    x = _random_rows(alg, np.random.default_rng(41), 5)
    # one row per dense chunk, and opnorm's Gram matrices one row at a time
    monkeypatch.setattr(core, "_DENSE_STACK_ENTRIES", 1)
    _assert_same_norm(alg, x)
    x[3] *= 50.0
    _assert_same_norm(alg, x)


def test_pruning_skips_blocks_that_cannot_hold_the_maximum(monkeypatch):
    B = BlockAlgebra([1, 2, 2, 3])
    rng = np.random.default_rng(43)
    x = _random_rows(B, rng, 6)
    x[2, B.index(3, 0, 0):] *= 1e3          # one 3 x 3 block dominates
    want = _exhaustive_max_norm(B, x)
    seen = []
    opnorm = core.opnorm

    def counted(m):
        seen.append(len(m))
        return opnorm(m)
    monkeypatch.setattr(core, "opnorm", counted)
    assert B.norm_coeffs(x) == want
    # one call for the 3 x 3 blocks, on the dominant block alone; the
    # 2 x 2 blocks are all below its largest entry and take no call
    assert seen == [1]


# -- the check record and the rank rule ---------------------------------------

def test_checks_judge_each_residual_at_its_scale():
    c = Checks({"a": 1.5e-9, "b": 1.5e-9, "c": 0.0}, Tolerance(1e-9),
               {"a": 1.0})
    # a: 1.5e-9 <= 1e-9 * (1 + 1.0); b and c take the scale 1.0 too
    assert c.passed and c.failures() == []
    c = Checks({"a": 2.5e-9, "b": 1e-8}, Tolerance(1e-9), {"b": 9.0})
    assert c.failures() == ["a"] and not c.passed


@pytest.mark.parametrize("residual, scale", [
    (np.nan, 1.0), (np.inf, 1.0), (0.0, np.nan), (0.0, np.inf),
    (np.inf, np.inf)])
def test_checks_fail_a_non_finite_residual_or_scale(residual, scale):
    c = Checks({"ok": 0.0, "bad": residual}, Tolerance(), {"bad": scale})
    assert c.failures() == ["bad"] and not c.passed


def test_checks_max_residual_keeps_nan():
    # builtin max(1.0, nan) is 1.0: it keeps its first argument
    assert np.isnan(
        Checks({"a": 1.0, "b": np.nan}, Tolerance()).max_residual())
    assert Checks({"a": 1.0, "b": 3.0}, Tolerance()).max_residual() == 3.0


def test_checks_raise_their_producers_error_with_every_failure():
    class ProducerError(CheckError):
        pass

    c = Checks({"a": 0.25, "b": 0.0, "c": np.nan}, Tolerance(), {},
               ProducerError)
    with pytest.raises(ProducerError,
                       match=r"^thing fails: a=2\.500e-01, c=nan$"):
        c.raise_for_failure("thing fails")
    Checks({"a": 0.0}, Tolerance()).raise_for_failure("never raised")


def test_checks_flag_is_never_judged_by_the_tolerance():
    class ProducerError(CheckError):
        pass

    # a false flag fails even at eps = 1e3, a true one passes even at
    # eps = 1e-300; residuals beside them are judged as before
    c = Checks({"a": 1.0}, Tolerance(1e3), error=ProducerError,
               flags={"ok": True, "bad": False})
    assert c.failures() == ["bad"] and not c.passed
    assert c.max_residual() == 1.0
    with pytest.raises(ProducerError, match=r"^thing fails: bad=False$"):
        c.raise_for_failure("thing fails")
    c = Checks({"a": np.nan}, Tolerance(), flags={"ok": True})
    assert c.failures() == ["a"]
    assert Checks({}, Tolerance(1e-300), flags={"ok": True}).passed


def test_numerical_rank_cut_is_relative_above_one():
    tol = Tolerance(1e-9)
    s = np.array([[4.0, 3.9e-9, 1e-10], [0.5, 1.1e-9, 0.9e-9],
                  [0.0, 0.0, 0.0]])
    # cuts 4e-9, 1e-9 (max(1, s_max) = 1) and 1e-9
    assert numerical_rank(s, tol).tolist() == [1, 2, 0]
    assert [int(numerical_rank(row, tol)) for row in s] == [1, 2, 0]
    assert int(numerical_rank(np.zeros(0), tol)) == 0
    assert numerical_rank(np.zeros((2, 0)), tol).tolist() == [0, 0]


def test_rank_rule_is_shared_by_nullspace_and_orthonormal_rows():
    rng = np.random.default_rng(47)
    m = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 7))
    m[4] = 1e-11 * rng.standard_normal(7)   # below the cut
    rank = int(numerical_rank(np.linalg.svd(m, compute_uv=False)))
    assert rank == 3
    assert len(orthonormal_rows(m)) == rank
    assert len(nullspace(m)) == m.shape[1] - rank
    assert orthonormal_rows(np.zeros((0, 4))).shape == (0, 4)


@pytest.mark.parametrize("kind", sorted(PRUNE_ALGEBRAS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norm_of_a_non_finite_row_warns_on_no_path(kind, bad):
    alg = PRUNE_ALGEBRAS[kind]()
    x = _random_rows(alg, np.random.default_rng(53), 3)
    x[1, -1] = bad
    with np.errstate(all="raise"):
        got = [alg.norm_coeffs(x), alg.norm_coeffs(x[1])]
    assert not np.isfinite(got).any()
    if not alg._block_stacks():
        # the dense path (C[S3], and C[Z3] as a tensor leg among them)
        # returns NaN before it builds a representation
        assert np.isnan(got).all()


# -- records compare by identity ---------------------------------------------

def test_records_with_equal_content_compare_by_identity(
        s3, hopf_cs3, dual_cs3, a3_morphism, a3_space, a3_action,
        a3_partition):
    from finiteqg.classical import (classical_orbits, haar_values,
                                    permutation_magic)
    from finiteqg.clifford import restriction_table, vergnioux_relation
    from finiteqg.duality import mult_unitary
    from finiteqg.haar import haar_state

    h = haar_state(hopf_cs3)
    M = permutation_magic(hopf_cs3, np.array(s3.elements))
    co = classical_orbits(M)
    mult_unitary(dual_cs3)
    records = [hopf_cs3, h, dual_cs3, a3_space.wd,
               a3_morphism, a3_space, a3_action, a3_partition,
               restriction_table(dual_cs3, a3_space, a3_partition),
               vergnioux_relation(dual_cs3, a3_space, a3_partition), co,
               haar_values(M, h, co.partition)]
    assert len({type(r) for r in records}) == len(records) == 12
    for r in records:
        twin = replace(r)
        assert r == r and r in [twin, r]
        assert not r == twin and r != twin and twin not in [r]
    # two Haar states of one H hold equal arrays
    assert haar_state(hopf_cs3) != h
    # a DiscreteQG with W cached still equals itself
    assert dual_cs3._w is not None and dual_cs3 == dual_cs3
