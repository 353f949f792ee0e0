from dataclasses import replace

import numpy as np
import pytest

from finiteqg import groups, wedderburn
from finiteqg.core import (BlockAlgebra, LinMap, nullspace, numerical_rank,
                           orthonormal_rows)
from finiteqg.duality import dual_hopf_raw, dualize
from finiteqg.haar import haar_state
from finiteqg.hopf import HopfAxiomError, group_algebra, kac_paljutkin
from finiteqg.io import load_hopf
from finiteqg.core import Tolerance
from finiteqg.wedderburn import (SpanNotClosedError, SpectralGapError,
                                 WedderburnData, WedderburnError,
                                 _central_idempotents,
                                 _cluster, _gns_rep, _MatrixSpan,
                                 decompose, decompose_abstract)

from conftest import loop_functions


def test_diagonal_algebra():
    A = BlockAlgebra([1, 1, 1, 1])
    wd = decompose(A, np.eye(A.dim))
    assert wd.block_dims == (1, 1, 1, 1)
    # idempotents are the coordinate projections, in deterministic order
    got = sorted(tuple(np.round(p.real, 8)) for p in
                 wd.central_idempotents)
    assert got == sorted(tuple(row) for row in np.eye(4))


def test_group_algebra_z2_blocks():
    H = group_algebra(groups.cyclic(2))
    wd = decompose_abstract(H.algebra, haar_state(H).gram)
    assert wd.block_dims == (1, 1)


def test_group_algebra_s3_blocks(hopf_gs3):
    wd = decompose_abstract(hopf_gs3.algebra, haar_state(hopf_gs3).gram)
    assert wd.block_dims == (1, 1, 2)  # classical character theory of S3
    assert wd.verify() <= 1e-9


def test_group_algebra_q8_blocks():
    H = group_algebra(groups.quaternion())
    wd = decompose_abstract(H.algebra, haar_state(H).gram)
    assert wd.block_dims == (1, 1, 1, 1, 2)


def test_subalgebra_a3_inside_s3(s3, hopf_gs3):
    A = hopf_gs3.algebra
    wd = decompose(A, np.eye(A.dim)[groups.alternating_indices(s3)])
    assert wd.block_dims == (1, 1, 1)  # A3 is abelian of order 3


def test_matrix_unit_relations_residual(kp8):
    wd = decompose_abstract(kp8.algebra, haar_state(kp8).gram)
    assert wd.verify() <= 1e-9


def test_idempotent_redecomposition(hopf_gs3):
    wd = decompose_abstract(hopf_gs3.algebra, haar_state(hopf_gs3).gram)
    # decomposing the span of the returned units reproduces the block dims
    # (the group-algebra basis makes the left regular rep a *-rep, so the
    # units can be fed back in as a plain spanning set)
    wd2 = decompose(wd.ambient, wd.iso.matrix.T)
    assert wd2.block_dims == wd.block_dims


def test_seeded_determinism(kp8):
    gram = haar_state(kp8).gram
    w1 = decompose_abstract(kp8.algebra, gram, seed=123)
    w2 = decompose_abstract(kp8.algebra, gram, seed=123)
    assert w1.block_dims == w2.block_dims
    assert np.abs(w1.central_idempotents
                  - w2.central_idempotents).max() <= 1e-12
    assert np.abs(w1.iso.matrix - w2.iso.matrix).max() <= 1e-12


def test_non_closed_span_rejected():
    A = BlockAlgebra([3])
    # a single off-diagonal matrix unit spans nothing multiplicative
    with pytest.raises(SpanNotClosedError):
        decompose(A, [np.eye(A.dim)[A.index(0, 0, 1)], A.unit_coeffs])


def test_only_a_generator_span_is_checked_for_closure(monkeypatch,
                                                     data_dir):
    # the whole algebra of decompose_abstract is closed when associative,
    # so dualize runs no closure check; a span of generators still does
    def refuse(self):
        raise SpanNotClosedError("closure check ran")
    monkeypatch.setattr(_MatrixSpan, "check_closed", refuse)
    paths = sorted(data_dir.glob("*_algebra.json")) + [data_dir / "kp8.json"]
    for path in paths:
        assert dualize(load_hopf(path)).irr_dims[0] == 1, path.name
    with pytest.raises(SpanNotClosedError, match="closure check ran"):
        decompose(BlockAlgebra([1, 2]), np.eye(5))


def test_loop_inputs_are_refused_without_the_closure_check():
    # C(L6): its raw dual C[L6] is not associative, and its regular
    # representation is no *-representation for the Haar Gram matrix
    with pytest.raises(WedderburnError, match=r"not a \*-representation"):
        dualize(loop_functions())
    # C[L6] itself: its dual's coproduct is not coassociative
    with pytest.raises(HopfAxiomError, match="coassociativity"):
        dualize(dual_hopf_raw(loop_functions()))


def test_decompose_refuses_no_generators():
    A = BlockAlgebra([2])
    for rows in ([], np.zeros((0, A.dim))):
        with pytest.raises(ValueError, match="at least one generator"):
            decompose(A, rows)


def test_cluster_refuses_ambiguous_gap():
    # two eigenvalues wider apart than the clustering threshold but closer
    # than ten tolerances: refuse instead of guessing
    with pytest.raises(SpectralGapError):
        _cluster([0.0, 5e-5], Tolerance(1e-5))
    # comfortably separated values split fine
    lo_hi = _cluster([0.0, 0.5, 0.5 + 1e-9], Tolerance(1e-9))
    assert len(lo_hi) == 2


# -- stacked kernels against per-element reference loops -------------------

ABSTRACT = {"kp8": kac_paljutkin,
            "C[S3]": lambda: group_algebra(groups.symmetric(3)),
            "C[Q8]": lambda: group_algebra(groups.quaternion())}


@pytest.fixture(scope="module", params=sorted(ABSTRACT))
def abstract_case(request):
    H = ABSTRACT[request.param]()
    return H.algebra, haar_state(H).gram


def _gns_span(algebra, gram):
    rep = _gns_rep(algebra, gram)
    unit = np.tensordot(algebra.unit_coeffs, rep, axes=(0, 0))
    return _MatrixSpan(list(rep), unit, Tolerance())


def _closure_reference(span):
    """Largest distance from the span of an adjoint or a product of basis
    matrices, one matrix at a time."""
    P = span.basis_flat
    worst = 0.0
    for b in span.basis:
        v = b.conj().T.reshape(-1)
        worst = max(worst, np.linalg.norm(v - P.T @ (P.conj() @ v)))
        for b2 in span.basis:
            v = (b @ b2).reshape(-1)
            worst = max(worst, np.linalg.norm(v - P.T @ (P.conj() @ v)))
    return worst


def _center_reference(span):
    rows = [np.stack([(bi @ b - b @ bi).reshape(-1) for bi in span.basis],
                     axis=1) for b in span.basis]
    return nullspace(np.vstack(rows), span.tol)


def _verify_reference(wd):
    """Matrix-unit relations one element pair at a time, and the sum of
    all diagonal units against the unit."""
    A = wd.ambient
    norm = A.norm_coeffs
    worst = 0.0
    total = np.zeros(A.dim, dtype=complex)
    for b, n in enumerate(wd.block_dims):
        mu = np.ascontiguousarray(wd.units(b), dtype=complex)
        for i in range(n):
            total = total + mu[i][i]
        for i in range(n):
            for j in range(n):
                worst = max(worst, norm(A.star_coeffs(mu[i][j]) - mu[j][i]))
                for k in range(n):
                    for l in range(n):
                        diff = A.mul_coeffs(mu[i][j], mu[k][l])
                        if j == k:
                            diff = diff - mu[i][l]
                        worst = max(worst, norm(diff))
    return max(worst, norm(total - A.unit_coeffs))


def test_stacked_closure_and_center_match_reference(abstract_case):
    span = _gns_span(*abstract_case)
    assert abs(span.check_closed() - _closure_reference(span)) <= 1e-13
    zc, ref = span.center_basis(), _center_reference(span)
    assert zc.shape == ref.shape
    # orthogonal projectors onto the centre, independent of its basis
    assert np.abs(zc.T @ zc.conj() - ref.T @ ref.conj()).max() <= 1e-13


def test_stacked_verify_matches_reference(abstract_case):
    wd = decompose_abstract(*abstract_case)
    got = wd.verify()
    assert got <= 1e-9
    assert abs(got - _verify_reference(wd)) <= 1e-13


def test_corrupted_last_matrix_unit_fails_verify(kp8):
    wd = decompose_abstract(kp8.algebra, haar_state(kp8).gram)
    # the last column of the iso is the last diagonal unit e_nn
    assert replace(wd, iso=_scaled_last_unit(wd.iso)).verify() > 1e-4


def _scaled_last_unit(iso, factor=1.001):
    units = iso.matrix.copy()
    units[:, -1] *= factor
    return LinMap(iso.domain, iso.codomain, units)


@pytest.mark.parametrize("which", ["kp8", "c6"])
def test_iso_without_its_last_block_fails_verify(kp8, which):
    H = kp8 if which == "kp8" else group_algebra(groups.cyclic(6))
    wd = decompose_abstract(H.algebra, haar_state(H).gram)
    dims = wd.block_dims[:-1]
    part = WedderburnData(LinMap(
        BlockAlgebra(dims), wd.ambient,
        wd.iso.matrix[:, :wd.block_algebra.offsets[-2]]))
    # every matrix-unit relation of the blocks that are left holds ...
    A = part.ambient
    for b, n in enumerate(dims):
        U = part.units(b)
        assert A.norm_coeffs(A.star_coeffs(U) - U.swapaxes(0, 1)) <= 1e-9
        prods = A.mul_coeffs(U[:, :, None, None], U)
        prods[:, np.arange(n), np.arange(n)] -= U[:, None]
        assert A.norm_coeffs(prods) <= 1e-9
    # ... but their idempotents do not add up to the unit
    assert part.verify() >= 0.5


def test_nan_basis_element_fails_check_closed(hopf_gs3):
    span = _gns_span(hopf_gs3.algebra, haar_state(hopf_gs3).gram)
    span.basis[-1, 0, 0] = np.nan     # a view: basis_flat changes too
    # the closure residual itself is NaN, not only the unit check
    with pytest.raises(SpanNotClosedError, match=r"\*-closed algebra"):
        span.check_closed()


class _ForcedFirstDraw:
    """A generator whose first complex draw is fixed; later draws come
    from a seeded numpy generator.  Records the size of every draw."""

    def __init__(self, first, seed=5):
        self.queue = [first.real, first.imag]
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def standard_normal(self, size):
        self.sizes.append(size)
        if self.queue:
            return self.queue.pop(0)
        return self.rng.standard_normal(size)


def test_degenerate_first_draw_is_retried():
    A = BlockAlgebra([1, 1, 2])
    rep = A.rep_tensor
    span = _MatrixSpan(list(rep), np.eye(A.rep_dim), Tolerance())
    zc = span.center_basis()
    assert zc.shape[0] == 3
    # the central element p_0 + p_1 has only two spectral clusters
    target = np.tensordot(A.block_unit(0) + A.block_unit(1), rep,
                          axes=(0, 0))
    t = span.basis_flat.conj() @ target.reshape(-1)
    c = t @ zc.conj().T
    assert np.allclose(c @ zc, t)
    rng = _ForcedFirstDraw(c)
    corners = _central_idempotents(span, rng, Tolerance())
    # one rejected top-level draw, then one accepted draw over the whole
    # 3-dimensional centre (no draw inside a corner)
    assert rng.sizes == [3, 3, 3, 3]
    assert sorted(corner.dim for corner in corners) == [1, 1, 4]
    total = sum(corner.unit for corner in corners)
    assert np.abs(total - np.eye(A.rep_dim)).max() <= 1e-12


def _per_block_verify_reference(wd):
    """Matrix-unit relations with three stacked calls per block."""
    A = wd.ambient
    worst = []
    ones = []
    for b, n in enumerate(wd.block_dims):
        U = np.array(wd.units(b))
        worst.append(A.norm_coeffs(A.star_coeffs(U) - U.transpose(1, 0, 2)))
        prods = A.mul_coeffs(U[:, :, None, None], U)
        diag = np.arange(n)
        prods[:, diag, diag] -= U[:, None]
        worst.append(A.norm_coeffs(prods))
        ones.append(U[diag, diag].sum(axis=0))
    worst.append(A.norm_coeffs(np.sum(ones, axis=0) - A.unit_coeffs))
    return float(np.max(worst))


def _count_norm_calls(monkeypatch, algebra):
    calls = []
    norm = algebra.norm_coeffs

    def counted(x):
        calls.append(1)
        return norm(x)
    monkeypatch.setattr(algebra, "norm_coeffs", counted)
    return calls


def test_verify_stacks_blocks_of_one_size(abstract_case, monkeypatch):
    wd = decompose_abstract(*abstract_case)
    ref = _per_block_verify_reference(wd)
    calls = _count_norm_calls(monkeypatch, wd.ambient)
    assert abs(wd.verify() - ref) <= 1e-13
    # every relation of every block size and the unit row in one call
    assert len(calls) == 1


def test_verify_of_many_one_dim_blocks_is_one_call(monkeypatch):
    H = group_algebra(groups.cyclic(6))
    wd = decompose_abstract(H.algebra, haar_state(H).gram)
    assert wd.block_dims == (1,) * 6
    ref = _per_block_verify_reference(wd)
    calls = _count_norm_calls(monkeypatch, wd.ambient)
    assert abs(wd.verify() - ref) <= 1e-13
    assert len(calls) == 1
    # the last unit of the last block, stacked with five good blocks
    assert replace(wd, iso=_scaled_last_unit(wd.iso)).verify() > 1e-4


# -- one factorization per decision: corner dimensions, stacked membership,
#    one pull-back -----------------------------------------------------------

def _shipped_abstract_cases(data_dir):
    """(algebra, Gram matrix) of every shipped Hopf algebra and of its raw
    dual: the two decompositions block_presentation and dualize make."""
    for path in sorted(data_dir.glob("*_algebra.json")) + [
            data_dir / "kp8.json"]:
        H = load_hopf(path)
        for K in (H, dual_hopf_raw(H)):
            yield path.stem, K.algebra, haar_state(K).gram


def test_corner_dimensions_from_singular_values_match_bases(data_dir,
                                                            monkeypatch):
    compress = _MatrixSpan.compress
    seen = []

    def checked(self, isometries):
        corners = compress(self, isometries)
        for c in corners:
            seen.append((c.dim, len(orthonormal_rows(c._rows, c.tol))))
        return corners
    monkeypatch.setattr(_MatrixSpan, "compress", checked)
    for _, algebra, gram in _shipped_abstract_cases(data_dir):
        decompose_abstract(algebra, gram)
    assert all(dim == rows for dim, rows in seen)
    dims = {dim for dim, _ in seen}
    assert 1 in dims and max(dims) > 1


def test_corner_basis_must_match_its_dimension():
    A = BlockAlgebra([1, 2])
    span = _MatrixSpan(list(A.rep_tensor), np.eye(A.rep_dim), Tolerance())
    # the isometry onto the last two coordinates: p = diag(0, 1, 1)
    v = np.eye(3, dtype=complex)[:, 1:]
    corner, = span.compress([v])
    assert corner.dim == 4 and corner._basis_flat is None
    assert np.array_equal(corner.unit, np.diag([0.0, 1.0, 1.0]))
    corner._dim = 3          # as if the two rank rules had disagreed
    with pytest.raises(WedderburnError, match="singular values give"):
        corner.basis


def _full_stack_rank(span, v):
    """numerical_rank of {p b p} u {p}, p = v v^H, over the span's basis:
    the r^2-entry stack the isometry's t^2-entry one stands in for."""
    p = v @ v.conj().T
    mats = np.concatenate([p @ span.basis @ p, p[None]])
    return int(numerical_rank(np.linalg.svd(
        mats.reshape(len(mats), -1), compute_uv=False), span.tol))


def _unitary(r, rng):
    q, _ = np.linalg.qr(rng.standard_normal((r, r))
                        + 1j * rng.standard_normal((r, r)))
    return q


@pytest.mark.parametrize("dims", [[1, 2], [2, 2, 1], [1, 1, 3], [3, 2]])
def test_isometry_ranks_equal_full_corner_ranks(dims):
    # the block algebra conjugated by a random unitary u: its corners are
    # cut by isometries onto sums of coordinate subspaces (central and
    # sub-block corners) moved by u, and by random isometries
    A = BlockAlgebra(dims)
    rng = np.random.default_rng(sum(dims) * 101 + len(dims))
    r = A.rep_dim
    u = _unitary(r, rng)
    span = _MatrixSpan(u @ A.rep_tensor @ u.conj().T, np.eye(r), Tolerance())
    assert span.dim == A.dim
    eye = np.eye(r, dtype=complex)
    starts = np.cumsum([0] + list(dims))
    isometries = [u @ eye[:, a:b] for a, b in zip(starts, starts[1:])]
    isometries += [u @ eye[:, :k] for k in range(1, r + 1)]
    isometries += [u @ eye[:, [0, -1]], u @ eye[:, 1::2]]
    isometries += [_unitary(r, rng)[:, :k] for k in range(1, r + 1)]
    corners = span.compress(isometries)
    got = [c.dim for c in corners]
    want = [_full_stack_rank(span, v) for v in isometries]
    assert got == want
    # central corners are the blocks; the identity's corner is the span
    assert got[:len(dims)] == [n * n for n in dims]
    assert got[len(dims) + r - 1] == got[-1] == A.dim
    assert 1 in got
    for c, v in zip(corners, isometries):
        assert np.array_equal(c.unit, v @ v.conj().T)
        if c.dim == 1:
            assert c._rows.shape == (1, r * r)


def _off_span(span, rng):
    """A unit-norm matrix orthogonal to the span."""
    v = rng.standard_normal(span.r ** 2) + 1j * rng.standard_normal(
        span.r ** 2)
    v = v - (v @ span.basis_flat.conj().T) @ span.basis_flat
    return (v / np.linalg.norm(v)).reshape(span.r, span.r)


@pytest.mark.parametrize("at", [0, -1])
def test_stacked_membership_sees_one_projection_off_the_span(kp8, at):
    span = _gns_span(kp8.algebra, haar_state(kp8).gram)
    corners = _central_idempotents(span, np.random.default_rng(3),
                                   Tolerance())
    ps = np.stack([c.unit for c in corners])
    assert len(ps) == 5 and span.contains(ps)
    bad = ps.copy()
    bad[at] += 1e-6 * _off_span(span, np.random.default_rng(4))
    assert not span.contains(bad)


def test_perturbed_spectral_projection_escapes_the_span(kp8, monkeypatch):
    # drop one eigenvector from the first cluster with several: that one
    # projection is no longer in the span, the others are
    span = _gns_span(kp8.algebra, haar_state(kp8).gram)
    members = wedderburn._members
    dropped = []

    def drop_one(vals, lo, hi, spread):
        sel = members(vals, lo, hi, spread)
        if not dropped and sel.sum() > 1:
            sel[np.flatnonzero(sel)[-1]] = False
            dropped.append(1)
        return sel
    monkeypatch.setattr(wedderburn, "_members", drop_one)
    with pytest.raises(WedderburnError, match="escaped the span"):
        _central_idempotents(span, np.random.default_rng(3), Tolerance())
    assert dropped


@pytest.mark.parametrize("which", [0, -1])
def test_one_corrupted_unit_fails_the_single_pull_back(kp8, monkeypatch,
                                                       which):
    units_of = wedderburn._factor_matrix_units
    built = []

    def corrupt(corner, rng, tol):
        units = units_of(corner, rng, tol)
        built.append(units)
        # corners are built in order; kp8 has five
        if len(built) == (1 if which == 0 else 5):
            off = np.zeros_like(units[-1][-1])
            off[0, -1] = 1e-6
            units[-1][-1] = units[-1][-1] + off
        return units
    monkeypatch.setattr(wedderburn, "_factor_matrix_units", corrupt)
    with pytest.raises(WedderburnError, match="pull-back failed"):
        decompose_abstract(kp8.algebra, haar_state(kp8).gram)
    assert len(built) == 5
