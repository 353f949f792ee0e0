"""Numerical Artin-Wedderburn decomposition of finite-dimensional
C*-algebras: minimal central idempotents, block dimensions and explicit
matrix units.

The input is a spanning set of a *-closed unital subalgebra: a span of
generators is checked for closure (``decompose``), while the whole
algebra of ``decompose_abstract`` must be associative, which makes the
span of its representation closed (for ``dualize``'s raw dual that is
the verified input's coassociativity).  All the linear algebra happens
inside the ambient algebra's faithful *-representation ``rep_tensor``
(the block representation for block algebras, the GNS representation of
the regular trace for the others); results are pulled back to ambient
coefficients and re-verified against the ambient product.

The splitting is randomized but seeded, and one split,
``_spectral_split``, serves the centre and the corners: it draws a
random self-adjoint element, redraws a degenerate one, clusters its
spectrum under one rule and returns an isometry per cluster, refusing
after 32 draws.  The centre Z is computed once, as the kernel of all
commutators with the span.  Central draws are redrawn until one has
exactly dim Z spectral clusters; its spectral projections are then dim Z
orthogonal central projections, so by counting they are the minimal
ones.  A factor corner's minimal projection is the top cluster of a
draw inside it, split again until it is one-dimensional.  Each
corner p * span * p is cut by the isometry V (p = V V^H) of eigenvectors
that the spectral decomposition already holds.  Its dimension is the
numerical rank of {V^H b V} u {I_t}, which has the singular values of
{p b p} u {p} on t^2 instead of r^2 entries, one batched singular-value
call per distinct t.  The matrices p b p are formed only for corners of
dimension > 1, and a corner's orthonormal basis is taken only when it
is used, which a 1-dimensional corner never is.  Matrix units are built
from one minimal projection per factor and polar-type couplings
e11 * x * f; the units of all corners are pulled back to ambient
coefficients with one least-squares solve.  They are the columns of the
result's one field, the *-isomorphism ``iso`` from the canonical block
algebra; the block dimensions, the units and the central idempotents
are read from it.  The span's basis is one (m, r, r) array, so the
closure check of a generator span, the centre and the unit relations
are a few stacked kernel calls per decomposition, not one per basis
element.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .core import (Algebra, BlockAlgebra, CheckError, LinMap,
                   Tolerance, CLUSTER_GAP, CLUSTER_REFUSAL_FACTOR,
                   DEFAULT_SEED, DEGENERATE_DRAW, as_tolerance,
                   distance_to_span, nullspace, numerical_rank,
                   orthonormal_rows, project_onto_rows)


class WedderburnError(CheckError):
    pass


class SpanNotClosedError(WedderburnError):
    pass


class SpectralGapError(WedderburnError):
    def __init__(self, message, gap):
        super().__init__(message)
        self.gap = gap


@dataclass(eq=False)
class WedderburnData:
    """Block decomposition of a *-closed unital span inside an algebra.

    ``iso`` is the *-isomorphism from the canonical block algebra into the
    ambient algebra: its columns are the matrix units e^(b)_ij in
    ``BlockAlgebra`` order, the one stored copy of the decomposition."""

    iso: LinMap

    @property
    def ambient(self) -> Algebra:
        return self.iso.codomain

    @property
    def block_algebra(self) -> BlockAlgebra:
        return self.iso.domain

    @property
    def block_dims(self) -> tuple:
        return self.block_algebra.block_dims

    def units(self, b: int) -> np.ndarray:
        """Block b's matrix units as an (n, n, dim) view of the columns of
        ``iso``: ``units(b)[i, j]`` holds the coefficients of e^(b)_ij."""
        return np.moveaxis(
            self.block_algebra.block_matrices(self.iso.matrix)[b], 0, -1)

    @cached_property
    def central_idempotents(self) -> np.ndarray:
        """The minimal central idempotents p_b = sum_i e^(b)_ii, one row
        of ambient coefficients per block, each summed in order of i."""
        return np.array([
            sum((u[:, i, i] for i in range(1, n)), u[:, 0, 0])
            for u, n in zip(self.block_algebra.block_matrices(
                self.iso.matrix), self.block_dims)])

    def verify(self) -> float:
        """Largest residual of the matrix-unit relations, ambient product.

        One norm call takes the rows of e_ij* - e_ji and e_ij e_kl -
        [j = k] e_il, over all blocks and all (i, j, k, l), stacked per
        block size through the block algebra's index stacks, and one more
        row, sum_b p_b - 1, that the decomposition is unital."""
        A = self.ambient
        units = self.iso.matrix.T
        rows = [self.central_idempotents.sum(axis=0) - A.unit_coeffs]
        for g in self.block_algebra._block_stacks():
            U = units[g]                                     # (b, i, j, :)
            prods = A.mul_coeffs(U[:, :, :, None, None],
                                 U[:, None, None])        # (b, i, j, k, l, :)
            diag = np.arange(g.shape[-1])
            prods[:, :, diag, diag] -= U[:, :, None]
            rows += [A.star_coeffs(U) - U.swapaxes(1, 2), prods]
        return float(A.norm_coeffs(np.concatenate(
            [r.reshape(-1, A.dim) for r in rows])))


def _cluster(values, tol: Tolerance):
    """Group sorted eigenvalues into clusters separated by relative gaps."""
    vals = np.sort(np.asarray(values, dtype=float))
    spread = max(1.0, float(np.abs(vals).max()) if vals.size else 1.0)
    thresh = CLUSTER_GAP * spread
    clusters = [[vals[0]]] if vals.size else []
    for v in vals[1:]:
        if v - clusters[-1][-1] > thresh:
            clusters.append([v])
        else:
            clusters[-1].append(v)
    for a, b in zip(clusters, clusters[1:]):
        gap = b[0] - a[-1]
        if gap < CLUSTER_REFUSAL_FACTOR * tol.eps * spread:
            raise SpectralGapError(
                f"eigenvalue clusters separated by only {gap:.3e}; "
                "refusing to split", gap)
    return [(c[0], c[-1]) for c in clusters]


class _MatrixSpan:
    """A *-closed span of r x r matrices with its own unit.  ``basis`` is
    an orthonormal basis as one (m, r, r) array, taken on first use;
    ``basis_flat`` is the same as (m, r * r) rows.  A span built with a
    known ``dim`` (a corner from ``compress``) answers ``dim`` without a
    basis, and its basis must come out with that many rows."""

    def __init__(self, mats, unit, tol, dim=None):
        self.tol = tol
        mats = np.asarray(mats)
        self.r = mats.shape[-1]
        self._rows = mats.reshape(len(mats), -1)
        self._dim = dim
        self._basis_flat = None
        self._prods = None
        self.unit = unit

    @property
    def basis_flat(self):
        if self._basis_flat is None:
            basis = orthonormal_rows(self._rows, self.tol)
            if self._dim is not None and len(basis) != self._dim:
                raise WedderburnError(
                    f"corner basis has {len(basis)} rows, but its singular "
                    f"values give dimension {self._dim}")
            self._basis_flat, self._rows = basis, None
        return self._basis_flat

    @property
    def basis(self):
        return self.basis_flat.reshape(-1, self.r, self.r)

    @property
    def dim(self):
        return len(self.basis_flat) if self._dim is None else self._dim

    def contains(self, m) -> bool:
        """Whether m, or every matrix of a stack of them, lies in the span
        (relative distance test)."""
        v = m.reshape(-1, self.r * self.r)
        proj = project_onto_rows(self.basis_flat, v)
        return bool(np.all(self.tol.is_zero(
            np.linalg.norm(v - proj, axis=-1), np.linalg.norm(v, axis=-1))))

    def _products(self):
        """All products b_i b_j of basis matrices, indexed (i, j), formed
        once for ``check_closed`` and ``center_basis``."""
        if self._prods is None:
            self._prods = self.basis[:, None] @ self.basis
        return self._prods

    def check_closed(self) -> float:
        """Largest distance of an adjoint or a product of basis matrices
        from the span; raises unless the span is a unital *-algebra."""
        m = self.dim
        adjoints = self.basis.conj().transpose(0, 2, 1).reshape(m, -1)
        worst = distance_to_span(self.basis_flat, np.concatenate(
            [adjoints, self._products().reshape(m * m, -1)]))
        if not self.tol.is_zero(worst):
            raise SpanNotClosedError(
                f"span is not a *-closed algebra (residual {worst:.3e})")
        if not self.contains(self.unit):
            raise SpanNotClosedError("span does not contain its unit")
        return worst

    def center_basis(self):
        """Orthonormal coefficient rows of {z in span : [z, span] = 0}."""
        prods, self._prods = self._products(), None
        # row (j, entry), column i: the entry of b_i b_j - b_j b_i
        comm = prods - prods.transpose(1, 0, 2, 3)
        return nullspace(comm.transpose(1, 2, 3, 0).reshape(-1, self.dim),
                         self.tol)

    def compress(self, isometries):
        """The corners p * span * p, one new _MatrixSpan with unit
        p = V V^H for each r x t isometry V of the list.  A corner's
        dimension is the rank of {V^H b V} u {I_t} over the basis b: since
        V is an isometry, its singular values are those of {p b p} u {p},
        and it is a (m + 1) x t^2 stack, one batched singular-value call
        per distinct t.  The matrices p b p are formed only for corners of
        dimension > 1, whose basis is used; a 1-dimensional corner is
        spanned by p."""
        m = self.dim
        dims = [0] * len(isometries)
        by_t = {}
        for i, v in enumerate(isometries):
            by_t.setdefault(v.shape[1], []).append(i)
        for t, idx in by_t.items():
            vs = np.stack([isometries[i] for i in idx])[:, None]
            small = vs.conj().swapaxes(-1, -2) @ self.basis @ vs
            ones = np.broadcast_to(np.eye(t), (len(idx), 1, t, t))
            sv = np.linalg.svd(np.concatenate([small, ones], axis=1).reshape(
                len(idx), m + 1, -1), compute_uv=False)
            for i, n in zip(idx, numerical_rank(sv, self.tol)):
                dims[i] = int(n)
        corners = []
        for v, n in zip(isometries, dims):
            p = v @ v.conj().T
            mats = (p[None] if n == 1
                    else np.concatenate([p @ self.basis @ p, p[None]]))
            corners.append(_MatrixSpan(mats, p, self.tol, n))
        return corners


def _spectral_split(span: _MatrixSpan, rng, tol, centre=None):
    """Isometries onto the eigenvalue clusters of a seeded random
    self-adjoint element y of the span, lowest cluster first: orthonormal
    eigenvectors as columns.  y is the Hermitian part of complex-normal
    coefficients over the span's basis or, given ``centre`` (coefficient
    rows of the centre), over the centre, where it must have dim Z
    clusters.  A draw with ||y|| below ``DEGENERATE_DRAW`` or too few
    central clusters is redrawn; after 32 draws the split is refused."""
    k = span.dim if centre is None else len(centre)
    for _ in range(32):
        # complex coefficients: the Hermitian part of the complex span is
        # the full real space of self-adjoint elements
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        y = np.tensordot(c if centre is None else c @ centre, span.basis,
                         axes=(0, 0))
        y = 0.5 * (y + y.conj().T)
        ny = float(np.linalg.norm(y, 2))
        if ny < DEGENERATE_DRAW:
            continue
        # the shift lifts the spectrum on the unit's range to [ny, 3 ny];
        # the eigenvalues off it stay at zero and are masked out
        vals, vecs = np.linalg.eigh(y + 2.0 * ny * span.unit)
        nonzero = vals > ny * 0.5
        clusters = _cluster(vals[nonzero], tol)
        # k orthogonal central projections in a k-dimensional centre are
        # the minimal ones; fewer clusters means a degenerate draw
        if centre is None or len(clusters) == k:
            slack = 0.5 * CLUSTER_GAP * max(1.0, float(np.abs(vals).max()))
            return [vecs[:, (vals >= lo - slack) & (vals <= hi + slack)
                         & nonzero] for lo, hi in clusters]
    raise WedderburnError(
        f"32 random self-adjoint draws failed to split a {k}-dimensional "
        + ("span" if centre is None else "center into minimal projections"))


def _central_idempotents(span: _MatrixSpan, rng, tol):
    """The corners cut out by the minimal central idempotents."""
    zc = span.center_basis()
    if zc.shape[0] <= 1:
        return [span]
    corners = span.compress(_spectral_split(span, rng, tol, zc))
    if not span.contains(np.stack([c.unit for c in corners])):
        raise WedderburnError("spectral projection escaped the span")
    return corners


def _minimal_projection(corner: _MatrixSpan, rng, tol):
    """A minimal projection inside a factor corner: the top spectral
    cluster, split again until it is one-dimensional."""
    span = corner
    while True:
        compressed, = span.compress(_spectral_split(span, rng, tol)[-1:])
        e = compressed.unit
        if not span.contains(e):
            raise WedderburnError("minimal projection escaped the span")
        if compressed.dim == 1:
            return e
        span = compressed


def _factor_matrix_units(corner: _MatrixSpan, rng, tol):
    """Matrix units of a corner that is a full matrix factor, as one
    (n, n, r, r) array: entry [i, j] is e_ij."""
    d = corner.dim
    n = isqrt(d)
    if n * n != d:
        raise WedderburnError(
            f"corner of dimension {d} is not a matrix algebra")
    if n == 1:
        return corner.unit[None, None]
    e11 = _minimal_projection(corner, rng, tol)
    row = [e11]
    for _ in range(1, n):
        f = corner.unit - sum(r.conj().T @ r for r in row)
        # polar part of the strongest coupling e11 * b * f
        best, best_norm = None, -1.0
        for b in corner.basis:
            w = e11 @ b @ f
            nw = float(np.linalg.norm(w))
            if nw > best_norm:
                best, best_norm = w, nw
        if best_norm <= tol.eps:
            raise WedderburnError("factor corner exhausted early")
        gamma = float(np.real(np.vdot(e11, best @ best.conj().T))
                      / np.real(np.vdot(e11, e11)))
        row.append(best / np.sqrt(gamma))
    # row[j] = e_{1,j+1}; general units e_ij = e_{1i}* e_{1j}
    row = np.stack(row)
    return row.conj().swapaxes(1, 2)[:, None] @ row


def decompose(algebra: Algebra, rows, tol=None,
              seed: int = DEFAULT_SEED) -> WedderburnData:
    """Decompose the *-closed unital subalgebra of ``algebra`` spanned by
    ``rows``.

    ``rows`` is a non-empty (m, dim) array of generator coefficient rows;
    the span must be closed under products and adjoints and contain a
    unit.  The result is deterministic for a fixed seed.
    """
    rows = np.asarray(rows, dtype=complex)
    if len(rows) == 0:
        raise ValueError("need at least one generator")
    return _decompose_with_rep(algebra, rows, tol, seed)


def decompose_abstract(algebra: Algebra, tol=None,
                       seed: int = DEFAULT_SEED) -> WedderburnData:
    """Decompose a whole abstract *-algebra.

    The algebra must be associative (for ``dualize``'s raw dual, the
    verified input's coassociativity): no closure check runs, and the
    matrix-unit relations of ``WedderburnData.verify`` judge the result.
    """
    return _decompose_with_rep(algebra, None, tol, seed)


def _star_rep(rep_tensor, star_matrix):
    """rep(e_k*) = sum_m st[m, k] rep(e_m) for every k, as one (d, d) x
    (d, r^2) matrix product: the product that the planned
    ``np.einsum("mab,mk->kab", rep_tensor, star_matrix)`` runs."""
    d, r = rep_tensor.shape[0], rep_tensor.shape[-1]
    return (star_matrix.T @ rep_tensor.reshape(d, r * r)).reshape(d, r, r)


def _decompose_with_rep(ambient, gen_coeffs, tol, seed):
    """The decomposition of the span of ``gen_coeffs`` (coefficient rows;
    None for the whole basis, whose matrices are the representation
    itself) inside the ambient algebra's *-representation ``rep_tensor``,
    whose entries the split takes as complex whatever its field."""
    tol = as_tolerance(tol)
    rng = np.random.default_rng(seed)
    d = ambient.dim
    rep_tensor = np.asarray(ambient.rep_tensor, dtype=complex)

    # *-representation check: rep(e_k*) == rep(e_k)^dagger
    star_rep = _star_rep(rep_tensor, ambient.star_matrix)
    st_res = float(np.abs(star_rep - rep_tensor.conj().transpose(0, 2, 1)).max())
    if not tol.is_zero(st_res):
        raise WedderburnError("representation is not a *-representation "
                              f"(residual {st_res:.3e})")

    def rep_of(coeffs):
        return np.tensordot(coeffs, rep_tensor, axes=(0, 0))

    unit_mat = rep_of(ambient.unit_coeffs)
    span = _MatrixSpan(rep_tensor if gen_coeffs is None
                       else [rep_of(c) for c in gen_coeffs], unit_mat, tol)
    # a span of generators need not be closed; that of every rep(e_k) is
    # closed exactly when the algebra is associative
    if gen_coeffs is not None:
        span.check_closed()

    corners = _central_idempotents(span, rng, tol)
    rep_flat = rep_tensor.reshape(d, -1).T  # columns = flattened rep basis

    def pull_back(mats):
        """Ambient coefficient rows of a stack of represented elements:
        one least-squares solve with a right-hand side per matrix."""
        rhs = mats.reshape(len(mats), -1).T
        c, *_ = np.linalg.lstsq(rep_flat, rhs, rcond=None)
        res = np.linalg.norm(rep_flat @ c - rhs, axis=0)
        ok = tol.is_zero(res, np.linalg.norm(rhs, axis=0))
        if not np.all(ok):
            raise WedderburnError(
                "pull-back failed; representation not faithful enough "
                f"(residual {np.max(res[~ok]):.3e})")
        return c.T

    # the units of every corner first, then one pull-back for all of them
    corner_units = [_factor_matrix_units(corner, rng, tol)
                    for corner in corners]
    coeffs = pull_back(np.concatenate(
        [units.reshape(-1, *units.shape[2:]) for units in corner_units]))
    dims = [len(units_m) for units_m in corner_units]
    raw = WedderburnData(LinMap(BlockAlgebra(dims), ambient, coeffs.T))
    # blocks by size, ties broken by the rounded idempotent
    keys = np.round(np.concatenate([raw.central_idempotents.real,
                                    raw.central_idempotents.imag], axis=1), 8)
    data = reorder_blocks(raw, sorted(
        range(len(dims)), key=lambda b: (dims[b], keys[b].tobytes())))
    worst = data.verify()
    if not tol.is_zero(worst):
        raise WedderburnError(
            f"matrix-unit relations fail at residual {worst:.3e}")
    return data


def reorder_blocks(data: WedderburnData, order) -> WedderburnData:
    """WedderburnData with blocks permuted into the given order."""
    B = data.block_algebra
    order = list(order)
    # the iso's columns are the matrix units, block by block; take() gives
    # a C-ordered matrix (a[:, idx] would not, and the transported Hopf
    # maps would change in the last bit)
    return WedderburnData(LinMap(
        BlockAlgebra([B.block_dims[b] for b in order]), data.ambient,
        data.iso.matrix.take(B.block_indices(order), axis=1)))
