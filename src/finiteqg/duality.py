"""Duality for finite quantum groups.

Given a finite quantum group by its function algebra A = Pol(G), the dual
discrete side is the convolution algebra on the dual basis: products are
transposed comultiplications and vice versa.  The dual is brought into
canonical block form (its blocks are the irreducible representations of
G), which fixes, once and for all, the coordinates that homogeneous
spaces, orbit relations and fusion computations use.

The multiplicative unitary W = sum_k f_k x a_k over dual bases lives in
the tensor product (dual block algebra) x (primal algebra); every
irreducible corepresentation is a block compression of W.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (AlgElement, Algebra, BlockAlgebra, CheckError, Checks,
                   LinMap, DEFAULT_SEED, as_tolerance, opnorm, tensor)
from .haar import haar_state
from .hopf import HopfData, verify_hopf
from .wedderburn import WedderburnData, decompose_abstract, reorder_blocks


@dataclass(frozen=True)
class RepLabel:
    """An irreducible representation of the quantum group: a dual block."""
    index: int
    dim: int

    def __repr__(self):
        return f"irr{self.index}(dim {self.dim})"


@dataclass
class DiscreteQG:
    """The dual discrete quantum group of a finite quantum group.

    ``dual_hopf`` is the convolution algebra in canonical block form (the
    trivial representation is block 0); ``pairing[t, k]`` evaluates the
    t-th dual basis element on the k-th primal basis element, and
    ``block_to_dual`` converts block coordinates to raw dual-basis
    coordinates (the coordinates subgroup files are written in).
    """

    primal: HopfData
    dual_hopf: HopfData
    blocks: WedderburnData
    pairing: np.ndarray
    block_to_dual: np.ndarray
    _w: object = field(default=None, repr=False)

    @property
    def dual_algebra(self) -> BlockAlgebra:
        return self.dual_hopf.algebra

    @property
    def irr_dims(self):
        return self.dual_algebra.block_dims

    @property
    def irr_labels(self):
        return [RepLabel(i, n) for i, n in enumerate(self.irr_dims)]

    @property
    def trivial(self) -> RepLabel:
        return RepLabel(0, self.irr_dims[0])

    def block_projection(self, i: int) -> AlgElement:
        return self.dual_algebra.block_unit(i)

    def __repr__(self):
        return (f"DiscreteQG(dual of {self.primal.name or 'G'}, "
                f"blocks={list(self.irr_dims)})")


def _canonical_blocks(B: BlockAlgebra) -> WedderburnData:
    units = [[[B.matrix_unit(b, i, j) for j in range(n)] for i in range(n)]
             for b, n in enumerate(B.block_dims)]
    idem = [B.block_unit(b) for b in range(len(B.block_dims))]
    return WedderburnData(B, B.block_dims, idem, units,
                          LinMap(B, B, np.eye(B.dim)))


def _transport_hopf(H: HopfData, phi: np.ndarray, B: BlockAlgebra,
                    name: str, tol) -> HopfData:
    """Rewrite Hopf data along x_old = phi @ x_new onto the algebra B."""
    tol = as_tolerance(tol)
    phi_i = np.linalg.inv(phi)
    delta = np.kron(phi_i, phi_i) @ H.delta.matrix @ phi
    counit = H.counit @ phi
    antipode = phi_i @ H.antipode.matrix @ phi
    # the transported involution must agree with B's blockwise adjoint
    st = phi_i @ H.algebra.star_matrix @ np.conj(phi)
    st_res = float(opnorm(st - B.star_matrix))
    if not tol.is_zero(st_res):
        raise CheckError(
            f"block transport breaks the involution (residual {st_res:.3e})")
    out = HopfData(B, LinMap(B, tensor(B, B), delta), counit,
                   LinMap(B, B, antipode), name=name)
    verify_hopf(out, tol).raise_for_failure(f"{name} fails axiom check(s)")
    return out


def _counit_block_first(wd: WedderburnData, counit_values) -> WedderburnData:
    vals = [abs(complex(counit_values @ p.coeffs)) for p in
            wd.central_idempotents]
    triv = int(np.argmax(vals))
    if not (abs(vals[triv] - 1.0) < 0.5 and wd.block_dims[triv] == 1):
        raise CheckError("could not locate the counit block")
    order = [triv] + [b for b in range(len(wd.block_dims)) if b != triv]
    return reorder_blocks(wd, order)


def block_presentation(H: HopfData, tol=None, seed: int = DEFAULT_SEED):
    """Present any finite quantum group on its canonical matrix-unit basis.

    Returns (block Hopf data, phi) where x_old = phi @ x_new.  The counit
    block comes first; the remaining blocks are ordered by dimension with
    a deterministic tie-break.
    """
    tol = as_tolerance(tol)
    h = haar_state(H, tol)
    wd = decompose_abstract(H.algebra, h.gram, tol, seed)
    wd = _counit_block_first(wd, H.counit)
    phi = wd.iso.matrix
    name = H.name + "@blocks" if H.name else "blocks"
    return _transport_hopf(H, phi, wd.block_algebra, name, tol), phi


def dual_hopf_raw(H: HopfData) -> HopfData:
    """The dual Hopf *-algebra on the raw dual basis f_k, <f_k, a_l> = d_kl.

    Convolution product (f g)(a) = (f x g)(delta a); coproduct dual to the
    product; counit = evaluation at 1; antipode = transpose of S;
    involution f*(a) = conj(f(S(a)*)).
    """
    A = H.algebra
    n = A.dim
    DM = H.delta.matrix.reshape(n, n, n)          # [p, q, k]
    mul_dual = DM.transpose(2, 0, 1).copy()       # f_p f_q = sum_k D[p,q,k] f_k
    unit_dual = H.counit.copy()
    star_dual = (np.conj(A.star_matrix) @ H.antipode.matrix).T
    Ad = Algebra(mul_dual, unit_dual, star_dual,
                 name=f"dual({H.name})" if H.name else "dual")
    delta_dual = A.mul_tensor.transpose(1, 2, 0).reshape(n * n, n).copy()
    counit_dual = A.unit_coeffs.copy()
    antipode_dual = H.antipode.matrix.T.copy()
    return HopfData(Ad, LinMap(Ad, tensor(Ad, Ad), delta_dual), counit_dual,
                    LinMap(Ad, Ad, antipode_dual), name=Ad.name)


def dualize(H: HopfData, tol=None, seed: int = DEFAULT_SEED) -> DiscreteQG:
    """Construct the dual discrete quantum group in canonical block form."""
    tol = as_tolerance(tol)
    # The raw dual gets no verify_hopf of its own.  The block dual is the
    # raw dual transported along the *-isomorphism C (decompose_abstract
    # verifies C's matrix-unit relations, _transport_hopf the involution),
    # and _transport_hopf verifies the block dual.  An axiom residual of
    # one is that of the other up to factors of ||C|| and ||C^-1||, and
    # cond(C) <= 2 on every shipped instance and on C(G), C[G] for Z4xZ4,
    # Z12, S3xZ2 and S4.
    raw = dual_hopf_raw(H)
    h_dual = haar_state(raw, tol)
    wd = decompose_abstract(raw.algebra, h_dual.gram, tol, seed)
    wd = _counit_block_first(wd, raw.counit)
    if wd.total_dim != H.dim:
        raise CheckError("dual block dimensions do not add up")  # unreachable
    C = wd.iso.matrix                      # dual coords of block basis
    B = wd.block_algebra
    dual_block = _transport_hopf(raw, C, B, raw.name + "@blocks", tol)
    return DiscreteQG(primal=H, dual_hopf=dual_block,
                      blocks=_canonical_blocks(B),
                      pairing=C.T.copy(), block_to_dual=C)


# ---------------------------------------------------------------------------
# multiplicative unitary and the representation calculus
# ---------------------------------------------------------------------------

@dataclass
class MultUnitary:
    """W = sum_k f_k x a_k in (dual blocks) x Pol(G), with its checks."""

    element: AlgElement
    checks: Checks


def mult_unitary(D: DiscreteQG, tol=None) -> MultUnitary:
    """Build W from the dual bases and verify its defining identities:
    unitarity and (id x delta)W = W12 W13."""
    tol = as_tolerance(tol)
    if D._w is not None and D._w[1] == tol.eps:
        return D._w[0]
    A = D.primal.algebra
    B = D.dual_algebra
    T = tensor(B, A)
    Ci = np.linalg.inv(D.block_to_dual)
    W = AlgElement(T, Ci.reshape(-1))
    Wst = W.star()
    one = T.kron_coeffs(B.unit_coeffs, A.unit_coeffs)
    res = {
        "unitarity_right": T.norm_coeffs((W * Wst).coeffs - one),
        "unitarity_left": T.norm_coeffs((Wst * W).coeffs - one),
    }
    T3 = tensor(B, A, A)
    lhs = np.kron(np.eye(B.dim), D.primal.delta.matrix) @ W.coeffs
    w12 = np.einsum("tk,l->tkl", Ci, A.unit_coeffs).reshape(-1)
    w13 = np.einsum("tl,k->tkl", Ci, A.unit_coeffs).reshape(-1)
    rhs = T3.mul_coeffs(w12, w13)
    res["comultiplication"] = T3.norm_coeffs(lhs - rhs)
    out = MultUnitary(W, Checks(res, tol))
    out.checks.raise_for_failure("multiplicative unitary fails")
    D._w = (out, tol.eps)
    return out


def corep_of(D: DiscreteQG, label, tol=None):
    """The irreducible corepresentation (label x id)(W): a unitary matrix
    with entries in Pol(G) satisfying delta(U_ij) = sum_k U_ik x U_kj."""
    tol = as_tolerance(tol)
    i = label.index if isinstance(label, RepLabel) else int(label)
    n = D.irr_dims[i]
    A = D.primal.algebra
    B = D.dual_algebra
    Ci = np.linalg.inv(D.block_to_dual)
    U = [[AlgElement(A, Ci[B.index(i, r, s), :]) for s in range(n)]
         for r in range(n)]
    residuals = []
    for r in range(n):
        for s in range(n):
            row = sum((U[r][k] * U[s][k].star() for k in range(1, n)),
                      U[r][0] * U[s][0].star())
            col = sum((U[k][r].star() * U[k][s] for k in range(1, n)),
                      U[0][r].star() * U[0][s])
            target = A.one() if r == s else A.zero()
            residuals += [(row - target).norm(), (col - target).norm()]
            dU = D.primal.delta_of(U[r][s])
            fused = None
            for k in range(n):
                term_coeffs = np.kron(U[r][k].coeffs, U[k][s].coeffs)
                fused = term_coeffs if fused is None else fused + term_coeffs
            residuals.append(
                D.primal.square.norm_coeffs(dU.coeffs - fused))
    # np.max keeps a NaN residual, where max() would drop it
    worst = float(np.max(residuals))
    if not tol.is_zero(worst):
        raise CheckError(f"corepresentation checks fail at {worst:.3e}")
    return U


def tensor_mult(D: DiscreteQG, sigma, gamma, tol=None) -> np.ndarray:
    """Multiplicities of each irreducible inside sigma (x) gamma.

    mult(tau) = trace((sigma x gamma) delta_dual(e^tau_11)); values must
    round to non-negative integers within 1e-6.
    """
    tol = as_tolerance(tol)
    B = D.dual_algebra
    si = sigma.index if isinstance(sigma, RepLabel) else int(sigma)
    gi = gamma.index if isinstance(gamma, RepLabel) else int(gamma)
    n_s, n_g = D.irr_dims[si], D.irr_dims[gi]
    out = np.zeros(len(D.irr_dims), dtype=int)
    DM = D.dual_hopf.delta.matrix
    for t, n_t in enumerate(D.irr_dims):
        col = DM[:, B.index(t, 0, 0)].reshape(B.dim, B.dim)
        val = sum(col[B.index(si, i, i), B.index(gi, j, j)]
                  for i in range(n_s) for j in range(n_g))
        r = int(round(val.real))
        if abs(val - r) > 1e-6 or r < 0:
            raise CheckError(
                f"fusion multiplicity {val} is not a non-negative integer")
        out[t] = r
    return out


def contragredient(D: DiscreteQG, label, tol=None) -> RepLabel:
    """The contragredient irreducible: transpose after the dual antipode.

    pi^c = transpose . pi . S_dual is an irreducible *-representation; the
    returned label is the block it is equivalent to.
    """
    tol = as_tolerance(tol)
    i = label.index if isinstance(label, RepLabel) else int(label)
    n = D.irr_dims[i]
    B = D.dual_algebra
    SM = D.dual_hopf.antipode.matrix
    hits = []
    for j, m in enumerate(D.irr_dims):
        s_p = SM @ D.block_projection(j).coeffs
        mat = B.block_matrices(s_p)[i].T
        if np.linalg.norm(mat) > tol.eps * 10:
            # equivalent block: the central projection must act as identity
            if m != n or np.linalg.norm(mat - np.eye(n)) > 1e-6:
                raise CheckError("contragredient block mismatch")
            hits.append(j)
    if len(hits) != 1:
        raise CheckError(f"contragredient matched blocks {hits}")
    return RepLabel(hits[0], n)
