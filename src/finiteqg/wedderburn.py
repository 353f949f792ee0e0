"""Numerical Artin-Wedderburn decomposition of finite-dimensional
C*-algebras: minimal central idempotents, block dimensions and explicit
matrix units.

The input is a spanning set of a *-closed unital subalgebra.  All the
linear algebra happens inside a faithful *-representation of the ambient
algebra (the block representation for block algebras, the left regular
representation for group-like bases, a GNS representation for abstract
algebras with a given tracial Gram matrix); results are pulled back to
ambient coefficients and re-verified against the ambient product.

The splitting is randomized but seeded: spectral projections of seeded
random self-adjoint central elements cut the algebra into corners, which
are split further whenever a corner center stays bigger than one
dimension.  Matrix units are built from one minimal projection per factor
and polar-type couplings e11 * x * f.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .core import (AlgElement, Algebra, BlockAlgebra, LinMap, Tolerance,
                   DEFAULT_SEED, as_tolerance, nullspace, orthonormal_rows)

# relative eigenvalue gap used to form spectral clusters
CLUSTER_GAP = 1e-6


class WedderburnError(ValueError):
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
        """Largest residual of the matrix-unit relations, ambient product."""
        worst = 0.0
        for b, n in enumerate(self.block_dims):
            mu = self.matrix_units[b]
            ssum = None
            for i in range(n):
                ssum = mu[i][i] if ssum is None else ssum + mu[i][i]
                for j in range(n):
                    worst = max(worst, (mu[i][j].star() - mu[j][i]).norm())
                    for k in range(n):
                        for l in range(n):
                            prod = mu[i][j] * mu[k][l]
                            want = mu[i][l] if j == k else None
                            diff = prod - want if want else prod
                            worst = max(worst, diff.norm())
            worst = max(worst, (ssum - self.central_idempotents[b]).norm())
        return worst


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
    """A *-closed span of r x r matrices with its own unit."""

    def __init__(self, mats, unit, tol):
        self.tol = tol
        flat = np.stack([m.reshape(-1) for m in mats])
        basis_flat = orthonormal_rows(flat, tol)
        r = mats[0].shape[0]
        self.r = r
        self.basis = [b.reshape(r, r) for b in basis_flat]
        self.basis_flat = basis_flat
        self.unit = unit

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, m) -> bool:
        v = m.reshape(-1)
        proj = self.basis_flat.T @ (self.basis_flat.conj() @ v)
        return self.tol.is_zero(
            float(np.linalg.norm(v - proj)), float(np.linalg.norm(v)))

    def check_closed(self):
        worst = 0.0
        for b in self.basis:
            v = b.conj().T.reshape(-1)
            proj = self.basis_flat.T @ (self.basis_flat.conj() @ v)
            worst = max(worst, float(np.linalg.norm(v - proj)))
        for b1 in self.basis:
            for b2 in self.basis:
                v = (b1 @ b2).reshape(-1)
                proj = self.basis_flat.T @ (self.basis_flat.conj() @ v)
                worst = max(worst, float(np.linalg.norm(v - proj)))
        if not self.tol.is_zero(worst):
            raise SpanNotClosedError(
                f"span is not a *-closed algebra (residual {worst:.3e})")
        if not self.contains(self.unit):
            raise SpanNotClosedError("span does not contain its unit")

    def center_basis(self):
        """Orthonormal coefficient rows of {z in span : [z, span] = 0}."""
        rows = []
        for b in self.basis:
            block = np.stack([(bi @ b - b @ bi).reshape(-1)
                              for bi in self.basis], axis=1)
            rows.append(block)
        return nullspace(np.vstack(rows), self.tol)

    def random_selfadjoint(self, rng):
        c = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        m = np.tensordot(c, np.stack(self.basis), axes=(0, 0))
        return 0.5 * (m + m.conj().T)

    def compress(self, p):
        """The corner p * span * p as a new _MatrixSpan with unit p."""
        mats = [p @ b @ p for b in self.basis]
        return _MatrixSpan(mats + [p], p, self.tol)


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
    """Minimal central idempotents, splitting recursively."""
    zc = span.center_basis()
    if zc.shape[0] <= 1:
        return [span]
    for _ in range(32):
        # complex coefficients: the Hermitian part of the complex span is
        # the full real space of self-adjoint central elements
        c = rng.standard_normal(zc.shape[0]) \
            + 1j * rng.standard_normal(zc.shape[0])
        z = np.tensordot(c @ zc, np.stack(span.basis), axes=(0, 0))
        z = 0.5 * (z + z.conj().T)
        nz = float(np.linalg.norm(z, 2))
        if nz < 1e-6:
            continue
        shifted = z + 2.0 * nz * span.unit
        vals, vecs = np.linalg.eigh(shifted)
        spread = max(1.0, float(np.abs(vals).max()))
        nonzero = vals > nz * 0.5
        clusters = _cluster(vals[nonzero], tol)
        if len(clusters) >= 2:
            break
    else:
        raise WedderburnError(
            "central element failed to split a corner with "
            f"{zc.shape[0]}-dimensional center")
    corners = []
    for lo, hi in clusters:
        sel = _members(vals, lo, hi, spread) & nonzero
        v = vecs[:, sel]
        p = v @ v.conj().T
        if not span.contains(p):
            raise WedderburnError("spectral projection escaped the span")
        corners.extend(_central_idempotents(span.compress(p), rng, tol))
    return corners


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
        compressed = span.compress(e)
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
    gram = np.asarray(gram, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    if vals.min() <= 0:
        raise WedderburnError("Gram matrix is not positive definite")
    gh = (vecs * np.sqrt(vals)) @ vecs.conj().T
    ghi = (vecs / np.sqrt(vals)) @ vecs.conj().T
    lam = algebra.mul_tensor.transpose(1, 0, 2)  # left regular
    rep = np.einsum("ab,kbc,cd->kad", gh, lam, ghi, optimize=True)
    return _decompose_with_rep(
        algebra, [np.eye(algebra.dim)[k] for k in range(algebra.dim)],
        rep, tol, seed)


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

    def pull_back(m):
        c, *_ = np.linalg.lstsq(rep_flat, m.reshape(-1), rcond=None)
        res = float(np.linalg.norm(rep_flat @ c - m.reshape(-1)))
        if not tol.is_zero(res, float(np.linalg.norm(m))):
            raise WedderburnError("pull-back failed; representation not "
                                  f"faithful enough (residual {res:.3e})")
        return AlgElement(ambient, c)

    blocks = []
    for corner in corners:
        units_m = _factor_matrix_units(corner, rng, tol)
        n = len(units_m)
        units = [[pull_back(units_m[i][j]) for j in range(n)] for i in range(n)]
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
        raise ValueError("central_support expects a projection")
    out = q.parent.zero()
    for p in ambient_data.central_idempotents:
        if not (p * q).is_zero(tol):
            out = out + p
    return out
