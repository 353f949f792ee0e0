"""The bookkeeping shortcuts of the construct -> verify -> Haar -> dualize
path against the expressions they replace, compared with np.array_equal:
the planned einsums, np.kron, the representation of each identity row,
the per-element inverse search, the looped constructors, np.stack of
matrix-unit columns, a fresh index-stack build, the block algebra's
tensors and block coordinates one matrix unit at a time, the Kronecker
star matrix of a tensor product and the looped JSON writer.  The instances
are the benchmark ladder's groups, the shipped inputs and the random
groups of test_properties."""
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings

from finiteqg import groups
from finiteqg.core import BlockAlgebra, _GATHERS, _block_gathers, tensor
from finiteqg.duality import (_counit_block_first, block_presentation,
                              dual_hopf_raw, dualize)
from finiteqg.haar import haar_state
from finiteqg.hopf import function_algebra, group_algebra
from finiteqg.io import (WRITE_CUTOFF, hopf_to_dict, load_hopf,
                         load_magic, load_subgroup, magic_to_dict,
                         subgroup_to_dict)
from finiteqg.wedderburn import (_star_rep, decompose, decompose_abstract,
                                 reorder_blocks)

from conftest import DATA, kron_star_matrix
from test_properties import small_groups

LADDER = {
    "Z4xZ4": lambda: groups.direct_product(groups.cyclic(4), groups.cyclic(4)),
    "Z2xZ4": lambda: groups.direct_product(groups.cyclic(2), groups.cyclic(4)),
    "Z12": lambda: groups.cyclic(12),
    "Q8": groups.quaternion,
    "S3xZ2": lambda: groups.direct_product(groups.symmetric(3),
                                           groups.cyclic(2)),
}
SHIPPED = ["z2_function_algebra", "z3_function_algebra",
           "s3_function_algebra", "z2_group_algebra", "s3_group_algebra",
           "q8_group_algebra", "kp8"]
INSTANCES = ([f"C({g})" for g in LADDER] + [f"C[{g}]" for g in LADDER]
             + SHIPPED + ["C(Z1)", "C[Z1]"])


@lru_cache(maxsize=None)
def _instance(label):
    if label in SHIPPED:
        return load_hopf(DATA / f"{label}.json")
    name = label[2:-1]
    grp = groups.trivial() if name == "Z1" else LADDER[name]()
    return (function_algebra if label[1] == "(" else group_algebra)(grp)


def _both_sides(label):
    """The instance and its raw dual, the two inputs dualize solves a
    Haar state for."""
    H = _instance(label)
    return [H, dual_hopf_raw(H)]


# -- references: the expressions the shortcuts replace ----------------------

def _einsum_gram(A, h):
    d = A.dim
    prod = np.einsum("kab,ap,bq->kpq", A.mul_tensor, A.star_matrix,
                     np.eye(d), optimize=True)
    return np.einsum("k,kpq->pq", h, prod)


def _einsum_gns_rep(A, gram):
    vals, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    gh = (vecs * np.sqrt(vals)) @ vecs.conj().T
    ghi = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return np.einsum("ab,kbc,cd->kad", gh, A.mul_tensor.transpose(1, 0, 2),
                     ghi, optimize=True)


def _looped_inverses(grp):
    e = grp.identity
    return [int(np.flatnonzero(grp.table[g] == e)[0])
            for g in range(grp.order)]


def _looped_function_algebra(grp):
    n, inv = grp.order, _looped_inverses(grp)
    D = np.zeros((n * n, n), dtype=complex)
    for h in range(n):
        for k in range(n):
            D[h * n + k, grp.table[h, k]] = 1.0
    S = np.zeros((n, n), dtype=complex)
    for g in range(n):
        S[inv[g], g] = 1.0
    return D, S


def _looped_group_algebra(grp):
    n, inv = grp.order, _looped_inverses(grp)
    m = np.zeros((n, n, n), dtype=complex)
    for p in range(n):
        for q in range(n):
            m[grp.table[p, q], p, q] = 1.0
    star = np.zeros((n, n), dtype=complex)
    for g in range(n):
        star[inv[g], g] = 1.0
    D = np.zeros((n * n, n), dtype=complex)
    for g in range(n):
        D[g * n + g, g] = 1.0
    return m, star, D


def _looped_block_tensors(B):
    """The unit, star matrix, structure tensor and representation tensor
    of a block algebra, one matrix unit at a time."""
    unit = np.zeros(B.dim, dtype=complex)
    star = np.zeros((B.dim, B.dim))
    mul = np.zeros((B.dim,) * 3, dtype=complex)
    rep = np.zeros((B.dim, B.rep_dim, B.rep_dim), dtype=complex)
    start = 0
    for k, n in enumerate(B.block_dims):
        for i in range(n):
            unit[B.index(k, i, i)] = 1.0
            for j in range(n):
                star[B.index(k, j, i), B.index(k, i, j)] = 1.0
                rep[B.index(k, i, j), start + i, start + j] = 1.0
                for m in range(n):
                    mul[B.index(k, i, m), B.index(k, i, j),
                        B.index(k, j, m)] = 1.0
        start += n
    return unit, star.astype(complex), mul, rep


def _assert_block_tensors_equal_their_loops(B):
    unit, star, mul, rep = _looped_block_tensors(B)
    assert np.array_equal(B.unit_coeffs, unit)
    assert np.array_equal(B.star_matrix, star)
    assert np.array_equal(B.mul_tensor, mul)
    assert np.array_equal(B.rep_tensor, rep)


def _fresh_gathers(factors):
    stacks = {1: np.zeros((1, 1, 1), dtype=np.intp)}
    for f in factors:
        own = {}
        for k, n in enumerate(f.block_dims):
            own.setdefault(n, []).append(
                int(f.offsets[k]) + np.arange(n * n).reshape(n, n))
        grown = {}
        for size, s in stacks.items():
            for n, blocks in own.items():
                b = np.stack(blocks)
                g = (s[:, None, :, None, :, None] * f.dim
                     + b[None, :, None, :, None, :])
                grown.setdefault(size * n, []).append(
                    g.reshape(-1, size * n, size * n))
        stacks = {size: np.concatenate(gs) for size, gs in grown.items()}
    return tuple(stacks.values())


def _looped_entries(matrix):
    out = []
    m = np.asarray(matrix)
    for idx in np.ndindex(*m.shape):
        c = complex(m[idx])
        if abs(c) > WRITE_CUTOFF:
            out.append([int(v) for v in idx] + [c.real, c.imag])
    return out


def _looped_hopf_to_dict(H):
    d = H.algebra.dim
    delta = []
    for k in range(d):
        col = H.delta.matrix[:, k].reshape(d, d)
        for i in range(d):
            for j in range(d):
                c = complex(col[i, j])
                if abs(c) > WRITE_CUTOFF:
                    delta.append([k, i, j, c.real, c.imag])
    return {"name": H.name,
            "blocks": [int(n) for n in H.algebra.block_dims],
            "delta": delta, "counit": _looped_entries(H.counit),
            "antipode": _looped_entries(H.antipode.matrix)}


def _dumps(data):
    return json.dumps(data, indent=1, sort_keys=True)


# -- the checks, shared by the fixed and the random instances ---------------

def _check_haar_and_gns(H):
    A, d = H.algebra, H.dim
    h = haar_state(H)
    assert np.array_equal(A.trace_gram, _einsum_gram(A, h.vector))
    rep = A.rep_tensor
    # a block algebra's representation is its block one, not the GNS one
    if not isinstance(A, BlockAlgebra):
        assert np.array_equal(rep, _einsum_gns_rep(A, h.gram))
    assert np.array_equal(_star_rep(rep, A.star_matrix),
                          np.einsum("mab,mk->kab", rep, A.star_matrix,
                                    optimize=True))
    # the whole basis: rep_of over the identity rows is the tensor itself
    assert np.array_equal(
        np.stack([np.tensordot(c, rep, axes=(0, 0)) for c in np.eye(d)]),
        rep)


def _check_dual(H):
    D = dualize(H)
    raw = dual_hopf_raw(H)
    C = D.block_to_dual
    Ci = np.linalg.inv(C)
    dual = D.dual_hopf
    assert np.array_equal(dual.delta.matrix,
                          np.kron(Ci, Ci) @ raw.delta.matrix @ C)
    assert np.array_equal(dual.counit, raw.counit @ C)
    assert np.array_equal(dual.antipode.matrix,
                          Ci @ raw.antipode.matrix @ C)
    return D


def _check_group(grp):
    assert grp.inverses.tolist() == _looped_inverses(grp)
    D, S = _looped_function_algebra(grp)
    H = function_algebra(grp)
    assert np.array_equal(H.delta.matrix, D)
    assert np.array_equal(H.antipode.matrix, S)
    m, star, DG = _looped_group_algebra(grp)
    K = group_algebra(grp)
    assert np.array_equal(K.algebra.mul_tensor, m)
    assert np.array_equal(K.algebra.star_matrix, star)
    assert np.array_equal(K.antipode.matrix, star)
    assert np.array_equal(K.delta.matrix, DG)
    return H, K


# -- fixed instances ----------------------------------------------------------

@pytest.mark.parametrize("label", INSTANCES)
def test_gram_and_gns_contractions_are_the_planned_einsums(label):
    for H in _both_sides(label):
        _check_haar_and_gns(H)


@pytest.mark.parametrize("label", INSTANCES)
def test_decompose_abstract_equals_the_identity_row_path(label):
    # decompose reads the representation decompose_abstract reads, so the
    # identity rows decompose every raw dual, also those whose basis is not
    # orthonormal for the trace (kp8.json, s3_ and q8_group_algebra.json)
    raw = _both_sides(label)[1]
    wd = decompose_abstract(raw.algebra)
    rows = decompose(raw.algebra, np.eye(raw.dim))
    assert wd.block_dims == rows.block_dims
    assert np.array_equal(wd.iso.matrix, rows.iso.matrix)


@pytest.mark.parametrize("label", INSTANCES)
def test_reorder_blocks_takes_the_matrix_unit_columns(label):
    raw = _both_sides(label)[1]
    wd = decompose_abstract(raw.algebra)
    n = len(wd.block_dims)
    order = list(range(n))[::-1]
    out = reorder_blocks(wd, order)
    # block b of the result is block order[b] of wd, column for column
    assert out.block_dims == tuple(wd.block_dims[b] for b in order)
    for b, was in enumerate(order):
        assert np.array_equal(out.units(b), wd.units(was))
    # the counit block first is the reorder that moves that block alone
    triv = _counit_block_first(wd, raw.counit)
    first = next(b for b in range(n)
                 if np.array_equal(wd.units(b), triv.units(0)))
    moved = reorder_blocks(wd, [first] + [b for b in range(n) if b != first])
    assert np.array_equal(triv.iso.matrix, moved.iso.matrix)
    assert out.iso.matrix.flags.c_contiguous
    assert triv.iso.matrix.flags.c_contiguous


@pytest.mark.parametrize("label", INSTANCES)
def test_transported_hopf_maps_are_the_kron_expressions(label):
    H = _instance(label)
    _check_dual(H)
    if not isinstance(H.algebra, BlockAlgebra):
        HB, phi = block_presentation(H)
        phi_i = np.linalg.inv(phi)
        assert np.array_equal(HB.delta.matrix,
                              np.kron(phi_i, phi_i) @ H.delta.matrix @ phi)


@pytest.mark.parametrize("name", ["Z1", *LADDER])
def test_group_constructors_equal_their_loops(name):
    _check_group(groups.trivial() if name == "Z1" else LADDER[name]())


def test_identity_and_inverses_are_computed_once():
    grp = groups.symmetric(3)
    assert grp.inverses is grp.inverses
    with pytest.raises(ValueError):
        grp.inverses[0] = 1


@pytest.mark.parametrize("dims", [(1,), (3,), (1, 1, 2, 3), (2, 2, 1),
                                  (1,) * 6, (1, 1, 1, 1, 2, 2)])
def test_block_algebra_unit_and_star_equal_their_loops(dims):
    _assert_block_tensors_equal_their_loops(BlockAlgebra(dims))


@pytest.mark.parametrize("dims", [(1,), (3,), (1, 1, 2, 3), (9, 1, 8),
                                  (2, 12, 1, 4)])
def test_block_coordinates_equal_their_loops(dims):
    # stacks of several shapes and memory layouts, with blocks of at least
    # 8 rows, where numpy's sums switch to pairwise summation
    B = BlockAlgebra(dims)
    rng = np.random.default_rng(len(dims))
    flat = rng.standard_normal((B.dim, 24)) + 1j * rng.standard_normal(
        (B.dim, 24))
    for rows in [flat.T, flat.T.copy(), flat.T.reshape(4, 6, B.dim),
                 flat.reshape(B.dim, 4, 6).transpose(1, 2, 0), flat[:, 0]]:
        mats = B.block_matrices(rows)
        traces = B.block_traces(rows)
        for idx in np.ndindex(rows.shape[:-1]):
            for k, n in enumerate(dims):
                block = np.array([[rows[idx][B.index(k, i, j)]
                                   for j in range(n)] for i in range(n)])
                assert np.array_equal(mats[k][idx], block)
                assert traces[idx + (k,)] == np.trace(block)
    order = list(range(len(dims)))[::-1]
    assert np.array_equal(B.block_indices(order), [
        B.index(k, i, j) for k in order for i in range(dims[k])
        for j in range(dims[k])])
    blocks, rows_, cols = B.unindex(np.arange(B.dim))
    assert [B.index(*t) for t in zip(blocks, rows_, cols)] == list(
        range(B.dim))


@pytest.mark.parametrize("label", INSTANCES)
def test_block_unit_star_and_gathers_of_every_dual(label):
    B = dualize(_instance(label)).dual_algebra
    _assert_block_tensors_equal_their_loops(B)
    for factors in [(B,), (B, B), (B, B, B)]:
        cached = _block_gathers(factors)
        fresh = _fresh_gathers(factors)
        assert len(cached) == len(fresh)
        assert all(np.array_equal(a, b) for a, b in zip(cached, fresh))


@pytest.mark.parametrize("label", INSTANCES)
def test_block_star_of_tensor_products_is_the_kronecker_star(label):
    # tensor(B, B), tensor(B, A) and tensor(B, A, B) with B the block dual
    # and A the primal algebra: a block one for C(G), generic otherwise
    H = _instance(label)
    B = dualize(H).dual_algebra
    rng = np.random.default_rng(29)
    for T in [tensor(B, B), tensor(B, H.algebra), tensor(B, H.algebra, B)]:
        if T.dim > 1024:
            continue  # its star matrix alone would take more than 16 MB
        x = rng.standard_normal((3, T.dim)) + 1j * rng.standard_normal(
            (3, T.dim))
        assert np.array_equal(T.star_coeffs(x),
                              np.conj(x) @ kron_star_matrix(T).T)


def test_equal_block_dims_share_one_read_only_gather_array():
    B1, B2 = BlockAlgebra((1, 2, 2)), BlockAlgebra([1, 2, 2])
    for x, y in [(B1, B2), (tensor(B1, B1), tensor(B2, B2))]:
        gx, gy = x._block_stacks(), y._block_stacks()
        assert len(gx) == len(gy) > 1
        assert all(a is b for a, b in zip(gx, gy))
        for g in gx:
            with pytest.raises(ValueError):
                g[(0,) * g.ndim] = 1
    assert ((1, 2, 2), (1, 2, 2)) in _GATHERS


@pytest.mark.parametrize("vecs", [2, 3])
def test_kron_coeffs_and_tensor_unit_equal_np_kron(vecs):
    rng = np.random.default_rng(vecs)
    A = _instance("C[S3xZ2]").algebra
    B = dualize(_instance("kp8")).dual_algebra
    T = tensor(*[A, B, A][:vecs])
    xs = [rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
          for f in T.factors]
    # real vectors promote to complex as they do in np.kron
    for legs in (xs, [x.real for x in xs],
                 [f.unit_coeffs for f in T.factors]):
        want = legs[0]
        for x in legs[1:]:
            want = np.kron(want, x)
        assert np.array_equal(T.kron_coeffs(*legs), want)
    assert np.array_equal(T.unit_coeffs, want)


def _writer_cases():
    for label in INSTANCES:
        H = _instance(label)
        if isinstance(H.algebra, BlockAlgebra):
            yield label, H
        yield label + " dual", dualize(H).dual_hopf


def test_hopf_json_bytes_equal_the_looped_writer():
    for label, H in _writer_cases():
        assert _dumps(hopf_to_dict(H)) == _dumps(_looped_hopf_to_dict(H)), \
            label


def test_subgroup_and_magic_json_bytes_equal_the_looped_writer():
    kp8 = load_hopf(DATA / "kp8.json")
    M = load_magic(DATA / "kp8_magic4.json", kp8)
    n, d = M.module.dim, kp8.dim
    # alpha(e_j) = sum_i e_i x u_ij: u_ij is rows i*d:(i+1)*d of column j
    u = [[M.matrix[i * d:(i + 1) * d, j] for j in range(n)]
         for i in range(n)]
    want = {"n": n, "u": [[i, j, _looped_entries(u[i][j])]
                          for i in range(n) for j in range(n)
                          if _looped_entries(u[i][j])]}
    assert _dumps(magic_to_dict(M)) == _dumps(want)
    for name in ["s3_z2_subgroup", "kp8_subgroup", "a3_quotient"]:
        dim = 8 if name.startswith("kp8") else 6
        kind, m = load_subgroup(DATA / f"{name}.json", dim)
        # a dense matrix with entries near the cutoff on both sides
        noisy = m + np.linspace(0, 2 * WRITE_CUTOFF, m.size).reshape(m.shape)
        for mat in (m, noisy, dualize(kp8).block_to_dual):
            assert (_dumps(subgroup_to_dict(mat, kind))
                    == _dumps({kind: _looped_entries(mat)}))


@pytest.mark.parametrize("name, cond", [
    ("kp8", 2.0), ("q8_group_algebra", np.sqrt(2)),
    ("s3_function_algebra", np.sqrt(2)), ("s3_group_algebra", np.sqrt(2)),
    ("z2_function_algebra", 1.0), ("z2_group_algebra", 1.0),
    ("z3_function_algebra", 1.0)])
def test_condition_of_the_shipped_duals(name, cond):
    D = dualize(_instance(name))
    # dualize leaves it to the first use
    assert "condition" not in vars(D)
    assert abs(D.condition - cond) <= 1e-12
    assert "condition" in vars(D)


# -- random groups ------------------------------------------------------------

@settings(max_examples=20, deadline=None, derandomize=True)
@given(small_groups())
def test_shortcuts_on_random_groups(G):
    H, K = _check_group(G)
    for X in (H, K):
        for side in (X, dual_hopf_raw(X)):
            _check_haar_and_gns(side)
        D = _check_dual(X)
        B = D.dual_algebra
        _assert_block_tensors_equal_their_loops(B)
        for factors in [(B,), (B, B)]:
            assert all(np.array_equal(a, b) for a, b in zip(
                _block_gathers(factors), _fresh_gathers(factors)))
        assert _dumps(hopf_to_dict(D.dual_hopf)) == _dumps(
            _looped_hopf_to_dict(D.dual_hopf))
