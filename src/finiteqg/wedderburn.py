"""Numerical Artin-Wedderburn decomposition of finite-dimensional
C*-algebras: minimal central idempotents, block dimensions and explicit
matrix units.

The input is a spanning set of a *-closed unital subalgebra.  All the
linear algebra happens inside a faithful *-representation of the ambient
algebra (the block representation for block algebras, the left regular
representation for group-like bases, a GNS representation for abstract
algebras with a given tracial Gram matrix); results are pulled back to
ambient coefficients and re-verified against the ambient product.

The splitting is randomized but seeded.  The centre Z is computed once,
as the kernel of all commutators with the span.  Seeded random
self-adjoint central elements are drawn until one has exactly dim Z
spectral clusters; its spectral projections are then dim Z orthogonal
central projections, so by counting they are the minimal ones.  One
batched product p B p compresses the span into all factor corners at
once, and one batched singular-value call gives every corner's
dimension; a corner's orthonormal basis is taken only when it is used,
which a 1 x 1 corner never is.  Matrix units are built from one minimal
projection per factor and polar-type couplings e11 * x * f; the units of
all corners are pulled back to ambient coefficients with one
least-squares solve.  The span's basis is one (m, r, r) array, so the
closure check, the centre and the unit relations are a few stacked
kernel calls per decomposition, not one per basis element.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .core import (AlgElement, Algebra, BlockAlgebra, CheckError, LinMap,
                   Tolerance, DEFAULT_SEED, as_tolerance, distance_to_span,
                   nullspace, numerical_rank, orthonormal_rows)

# relative eigenvalue gap used to form spectral clusters
CLUSTER_GAP = 1e-6


class WedderburnError(CheckError):
    pass


class SpanNotClosedError(WedderburnError):
    pass


class SpectralGapError(WedderburnError):
    def __init__(self, message, gap):
        super().__init__(message)
        self.gap = gap


@dataclass
class WedderburnData:
    """Block decomposition of a *-closed unital span inside an algebra."""

    ambient: Algebra
    block_dims: tuple
    central_idempotents: list     # AlgElement p_i, one per block
    matrix_units: list            # matrix_units[b][i][j] -> AlgElement
    iso: LinMap                   # canonical block algebra -> ambient

    @property
    def block_algebra(self) -> BlockAlgebra:
        return self.iso.domain

    @property
    def total_dim(self) -> int:
        return int(sum(n * n for n in self.block_dims))

    def embed(self, x) -> AlgElement:
        """Element of the canonical block algebra -> ambient element."""
        coeffs = x.coeffs if isinstance(x, AlgElement) else np.asarray(x)
        return AlgElement(self.ambient, self.iso.matrix @ coeffs)

    def coords(self, x, tol=None):
        """Ambient element -> coefficients over the canonical block basis."""
        tol = as_tolerance(tol)
        coeffs = x.coeffs if isinstance(x, AlgElement) else np.asarray(x)
        c, *_ = np.linalg.lstsq(self.iso.matrix, coeffs, rcond=None)
        res = float(np.linalg.norm(self.iso.matrix @ c - coeffs))
        if not tol.is_zero(res, float(np.linalg.norm(coeffs))):
            raise WedderburnError(
                f"element lies outside the decomposed span (residual {res:.3e})")
        return c

    def unit(self) -> AlgElement:
        out = self.central_idempotents[0]
        for p in self.central_idempotents[1:]:
            out = out + p
        return out

    def verify(self, tol=None) -> float:
        """Largest residual of the matrix-unit relations, ambient product.

        Per distinct block size n, one stacked call each covers e_ij* =
        e_ji, e_ij e_kl = [j = k] e_il over all blocks of that size and all
        (i, j, k, l), and sum_i e_ii = p."""
        A = self.ambient
        worst = []
        for n in sorted(set(self.block_dims)):
            blocks = [b for b, m in enumerate(self.block_dims) if m == n]
            U = np.array([[[e.coeffs for e in row]
                           for row in self.matrix_units[b]]
                          for b in blocks])                  # (b, i, j, :)
            worst.append(A.norm_coeffs(
                A.star_coeffs(U) - U.swapaxes(1, 2)))
            prods = A.mul_coeffs(U[:, :, :, None, None],
                                 U[:, None, None])        # (b, i, j, k, l, :)
            diag = np.arange(n)
            prods[:, :, diag, diag] -= U[:, :, None]
            worst.append(A.norm_coeffs(prods))
            worst.append(A.norm_coeffs(
                U[:, diag, diag].sum(axis=1)
                - [self.central_idempotents[b].coeffs for b in blocks]))
        # np.max keeps a NaN residual, where max() would drop it
        return float(np.max(worst))


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
        if gap < 10 * tol.eps * spread:
            raise SpectralGapError(
                f"eigenvalue clusters separated by only {gap:.3e}; "
                "refusing to split", gap)
    return [(c[0], c[-1]) for c in clusters]


def _members(vals, lo, hi, spread):
    slack = 0.5 * CLUSTER_GAP * spread
    return (vals >= lo - slack) & (vals <= hi + slack)


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
        proj = (v @ self.basis_flat.conj().T) @ self.basis_flat
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

    def random_selfadjoint(self, rng):
        c = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        m = np.tensordot(c, self.basis, axes=(0, 0))
        return 0.5 * (m + m.conj().T)

    def compress(self, projections):
        """The corners p * span * p, one new _MatrixSpan with unit p for
        each p of a (k, r, r) stack of projections.  One batched call
        takes the singular values of all k spanning sets; each corner's
        dimension is their rank, and its basis is left until it is used."""
        ps = np.asarray(projections)
        k, m = len(ps), self.dim
        corners = ps[:, None] @ self.basis @ ps[:, None]
        mats = np.concatenate([corners, ps[:, None]], axis=1)
        sv = np.linalg.svd(mats.reshape(k, m + 1, -1), compute_uv=False)
        dims = numerical_rank(sv, self.tol)
        return [_MatrixSpan(c, p, self.tol, int(n))
                for c, p, n in zip(mats, ps, dims)]


def _spectral_projection_top(span: _MatrixSpan, y, rng, tol):
    """Projection onto the top eigenvalue cluster of a self-adjoint y."""
    shifted = y + 2.0 * np.linalg.norm(y, 2) * span.unit
    vals, vecs = np.linalg.eigh(shifted)
    spread = max(1.0, float(np.abs(vals).max()))
    clusters = _cluster(vals[np.abs(vals) > CLUSTER_GAP * spread], tol)
    lo, hi = clusters[-1]
    sel = _members(vals, lo, hi, spread)
    v = vecs[:, sel]
    return v @ v.conj().T


def _central_idempotents(span: _MatrixSpan, rng, tol):
    """The corners cut out by the minimal central idempotents."""
    zc = span.center_basis()
    k = zc.shape[0]
    if k <= 1:
        return [span]
    for _ in range(32):
        # complex coefficients: the Hermitian part of the complex span is
        # the full real space of self-adjoint central elements
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        z = np.tensordot(c @ zc, span.basis, axes=(0, 0))
        z = 0.5 * (z + z.conj().T)
        nz = float(np.linalg.norm(z, 2))
        if nz < 1e-6:
            continue
        shifted = z + 2.0 * nz * span.unit
        vals, vecs = np.linalg.eigh(shifted)
        spread = max(1.0, float(np.abs(vals).max()))
        nonzero = vals > nz * 0.5
        clusters = _cluster(vals[nonzero], tol)
        # k orthogonal central projections in a k-dimensional centre are
        # the minimal ones; fewer clusters means a degenerate draw
        if len(clusters) == k:
            break
    else:
        raise WedderburnError(
            "central elements failed to split a "
            f"{k}-dimensional center into minimal projections")
    projections = []
    for lo, hi in clusters:
        sel = _members(vals, lo, hi, spread) & nonzero
        v = vecs[:, sel]
        projections.append(v @ v.conj().T)
    projections = np.stack(projections)
    if not span.contains(projections):
        raise WedderburnError("spectral projection escaped the span")
    return span.compress(projections)


def _minimal_projection(corner: _MatrixSpan, rng, tol):
    """A minimal projection inside a factor corner."""
    span = corner
    while True:
        for _ in range(16):
            y = span.random_selfadjoint(rng)
            if np.linalg.norm(y, 2) > 1e-6:
                break
        e = _spectral_projection_top(span, y, rng, tol)
        if not span.contains(e):
            raise WedderburnError("minimal projection escaped the span")
        compressed, = span.compress(e[None])
        if compressed.dim == 1:
            return e
        span = compressed


def _factor_matrix_units(corner: _MatrixSpan, rng, tol):
    """Matrix units of a corner that is a full matrix factor."""
    d = corner.dim
    n = isqrt(d)
    if n * n != d:
        raise WedderburnError(
            f"corner of dimension {d} is not a matrix algebra")
    if n == 1:
        return [[corner.unit]]
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
    units = [[row[i].conj().T @ row[j] for j in range(n)] for i in range(n)]
    return units


def decompose(gens, tol=None, seed: int = DEFAULT_SEED) -> WedderburnData:
    """Decompose the *-closed unital subalgebra spanned by ``gens``.

    ``gens`` is a non-empty list of elements of one algebra; the span must
    be closed under products and adjoints and contain a unit.  The result
    is deterministic for a fixed seed.
    """
    if not gens:
        raise ValueError("need at least one generator")
    ambient = gens[0].parent
    return _decompose_with_rep(
        ambient, [g.coeffs for g in gens],
        np.stack(ambient.rep_tensor), tol, seed)


def decompose_abstract(algebra: Algebra, gram, tol=None,
                       seed: int = DEFAULT_SEED) -> WedderburnData:
    """Decompose a whole abstract *-algebra using a faithful tracial state.

    ``gram`` is the positive-definite matrix of the state's inner product
    h(e_p* e_q); the GNS representation it induces is a *-representation,
    which the plain left regular representation need not be.
    """
    return _decompose_with_rep(
        algebra, [np.eye(algebra.dim)[k] for k in range(algebra.dim)],
        _gns_rep(algebra, gram), tol, seed)


def _gns_rep(algebra: Algebra, gram):
    """Per-basis-element matrices of the GNS representation of the state
    with positive-definite Gram matrix ``gram``."""
    gram = np.asarray(gram, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    if vals.min() <= 0:
        raise WedderburnError("Gram matrix is not positive definite")
    gh = (vecs * np.sqrt(vals)) @ vecs.conj().T
    ghi = (vecs / np.sqrt(vals)) @ vecs.conj().T
    lam = algebra.mul_tensor.transpose(1, 0, 2)  # left regular
    return np.einsum("ab,kbc,cd->kad", gh, lam, ghi, optimize=True)


def _decompose_with_rep(ambient, gen_coeffs, rep_tensor, tol, seed):
    tol = as_tolerance(tol)
    rng = np.random.default_rng(seed)
    d = ambient.dim

    # *-representation check: rep(e_k*) == rep(e_k)^dagger
    star_rep = np.einsum("mab,mk->kab", rep_tensor,
                         ambient.star_matrix, optimize=True)
    st_res = float(np.abs(star_rep - rep_tensor.conj().transpose(0, 2, 1)).max())
    if not tol.is_zero(st_res):
        raise WedderburnError(
            "representation is not a *-representation; supply a tracial "
            f"Gram matrix (residual {st_res:.3e})")

    def rep_of(coeffs):
        return np.tensordot(coeffs, rep_tensor, axes=(0, 0))

    unit_mat = rep_of(ambient.unit_coeffs)
    span = _MatrixSpan([rep_of(c) for c in gen_coeffs], unit_mat, tol)
    # require the ambient unit in the span (unital subalgebra)
    if not span.contains(unit_mat):
        raise SpanNotClosedError("span does not contain the unit")
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
    coeffs = pull_back(np.stack(
        [u for units_m in corner_units for row in units_m for u in row]))
    blocks = []
    start = 0
    for units_m in corner_units:
        n = len(units_m)
        units = [[AlgElement(ambient, coeffs[start + i * n + j])
                  for j in range(n)] for i in range(n)]
        start += n * n
        p = units[0][0]
        for i in range(1, n):
            p = p + units[i][i]
        key = np.round(
            np.concatenate([p.coeffs.real, p.coeffs.imag]), 8).tobytes()
        blocks.append((n, key, p, units))
    blocks.sort(key=lambda b: (b[0], b[1]))

    block_dims = tuple(b[0] for b in blocks)
    idempotents = [b[2] for b in blocks]
    matrix_units = [b[3] for b in blocks]
    iso_cols = []
    for b, n in enumerate(block_dims):
        for i in range(n):
            for j in range(n):
                iso_cols.append(matrix_units[b][i][j].coeffs)
    iso = LinMap(BlockAlgebra(block_dims), ambient, np.stack(iso_cols, axis=1))

    data = WedderburnData(ambient, block_dims, idempotents, matrix_units, iso)
    worst = data.verify(tol)
    if not tol.is_zero(worst):
        raise WedderburnError(
            f"matrix-unit relations fail at residual {worst:.3e}")
    return data


def reorder_blocks(data: WedderburnData, order):
    """WedderburnData with blocks permuted into the given order."""
    order = list(order)
    block_dims = tuple(data.block_dims[b] for b in order)
    idem = [data.central_idempotents[b] for b in order]
    units = [data.matrix_units[b] for b in order]
    cols = []
    for b, n in zip(order, (data.block_dims[b] for b in order)):
        for i in range(n):
            for j in range(n):
                cols.append(data.matrix_units[b][i][j].coeffs)
    iso = LinMap(BlockAlgebra(block_dims), data.ambient,
                 np.stack(cols, axis=1))
    return WedderburnData(data.ambient, block_dims, idem, units, iso)


def central_support(ambient_data: WedderburnData, q: AlgElement,
                    tol=None) -> AlgElement:
    """Smallest central projection dominating the projection q.

    ``ambient_data`` describes the ambient block structure; the result is
    the sum of the minimal central idempotents that q touches.
    """
    tol = as_tolerance(tol)
    if not q.is_projection(tol):
        raise CheckError("central_support expects a projection")
    out = q.parent.zero()
    for p in ambient_data.central_idempotents:
        if not (p * q).is_zero(tol):
            out = out + p
    return out
