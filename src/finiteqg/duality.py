"""Duality for finite quantum groups.

Given a finite quantum group by its function algebra A = Pol(G), the dual
discrete side is the convolution algebra on the dual basis: products are
transposed comultiplications and vice versa.  The dual is brought into
canonical block form, which fixes, once and for all, the coordinates that
homogeneous spaces, orbit relations and fusion computations use.  An
irreducible representation of G is a block of the dual (a minimal central
projection) and is named by its block index, the trivial one being 0:
``corep_of``, ``tensor_mult`` and ``contragredient`` take and return
block indices.

The multiplicative unitary W = sum_k f_k x a_k over dual bases lives in
the tensor product (dual block algebra) x (primal algebra): its
coefficients are ``dual_to_block.reshape(-1)``, the inverse of the change
of basis ``block_to_dual``, so every irreducible corepresentation is a
block of its legs.  ``mult_unitary`` checks W and returns the record.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (BlockAlgebra, CheckError, Checks, LinMap, COUNIT_SPLIT,
                   DEFAULT_SEED, IDENTITY_SLACK, NONZERO_BLOCK_FACTOR,
                   as_tolerance, nonnegative_integers, opnorm, tensor)
from .haar import haar_state
from .hopf import HopfData, dual_hopf_raw, verify_hopf
from .wedderburn import WedderburnData, decompose_abstract, reorder_blocks


@dataclass(eq=False)
class DiscreteQG:
    """The dual discrete quantum group of a finite quantum group.

    ``dual_hopf`` is the convolution algebra in canonical block form (the
    trivial representation is block 0).  ``block_to_dual`` = C converts
    block coordinates to raw dual-basis coordinates (the coordinates
    subgroup files are written in); its transpose evaluates the dual
    basis on the primal one.  ``dual_to_block`` is C^-1, whose row t
    holds the primal coefficients of the t-th leg of W.
    """

    primal: HopfData
    dual_hopf: HopfData
    block_to_dual: np.ndarray
    # (record, eps) of the last mult_unitary; replace() copies omit it
    _w: object = field(default=None, init=False, repr=False)

    @property
    def dual_algebra(self) -> BlockAlgebra:
        return self.dual_hopf.algebra

    @property
    def irr_dims(self):
        return self.dual_algebra.block_dims

    @cached_property
    def dual_to_block(self) -> np.ndarray:
        """C^-1 for C = ``block_to_dual``, taken on first use."""
        return np.linalg.inv(self.block_to_dual)

    @cached_property
    def condition(self) -> float:
        """cond(C) = ||C|| ||C^-1||, spectral norms, of C =
        ``block_to_dual``: an axiom residual of the block dual and the
        same residual of the raw dual differ by at most factors of ||C||
        and ||C^-1||.  Taken on first use, so ``dualize`` does not pay for
        it."""
        return float(opnorm(self.block_to_dual) * opnorm(self.dual_to_block))

    @cached_property
    def fusion_table(self) -> np.ndarray:
        """The fusion rules, a read-only integer array: N[sigma, gamma,
        tau] is the multiplicity of tau inside sigma (x) gamma, the trace
        of delta_dual(e^tau_00) on the (sigma, gamma) pair of blocks,
        sum_ij delta_dual(e^tau_00)[(sigma, i, i), (gamma, j, j)].  Taken
        on first use; ``CheckError`` unless every entry is a non-negative
        integer within ``INTEGER_SLACK``."""
        B, m = self.dual_algebra, len(self.irr_dims)
        # delta_dual(e^tau_00) as a (d, d) matrix per tau, traced on the
        # right leg and then on the left: axes (tau, gamma, sigma)
        first = np.stack([b[:, 0, 0] for b in B.block_matrices(
            self.dual_hopf.delta.matrix)]).reshape(m, B.dim, B.dim)
        vals = B.block_traces(B.block_traces(first).swapaxes(1, 2)).T
        table = nonnegative_integers(vals, "fusion multiplicity")
        table.flags.writeable = False
        return table

    def __repr__(self):
        return (f"DiscreteQG(dual of {self.primal.name or 'G'}, "
                f"blocks={list(self.irr_dims)})")


def _transport_hopf(H: HopfData, phi: np.ndarray, B: BlockAlgebra,
                    name: str, tol) -> HopfData:
    """Rewrite Hopf data along x_old = phi @ x_new onto the algebra B."""
    tol = as_tolerance(tol)
    phi_i = np.linalg.inv(phi)
    d = len(phi)
    # the Kronecker product phi_i x phi_i, entry by entry
    pair = np.multiply.outer(phi_i, phi_i).transpose(0, 2, 1, 3).reshape(
        d * d, d * d)
    delta = pair @ H.delta.matrix @ phi
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
    vals = [abs(complex(counit_values @ p)) for p in
            wd.central_idempotents]
    triv = int(np.argmax(vals))
    if not (abs(vals[triv] - 1.0) < COUNIT_SPLIT
            and wd.block_dims[triv] == 1):
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


def dualize(H: HopfData, tol=None, seed: int = DEFAULT_SEED) -> DiscreteQG:
    """Construct the dual discrete quantum group in canonical block form."""
    # The raw dual gets no verify_hopf of its own: its associativity is
    # H's verified coassociativity, so decompose_abstract runs no closure
    # check.  The block dual is the raw dual transported along the
    # *-isomorphism C, the dual coordinates of the block basis.  Three
    # checks judge it: WedderburnData.verify (C's matrix-unit relations),
    # _transport_hopf's involution check and the block dual's verify_hopf.
    # An axiom residual of one is that of the other up to factors of ||C||
    # and ||C^-1||; DiscreteQG.condition computes cond(C) on demand (2.0
    # for kp8.json, the largest among the shipped instances).
    dual_block, C = block_presentation(dual_hopf_raw(H), tol, seed)
    return DiscreteQG(primal=H, dual_hopf=dual_block, block_to_dual=C)


# ---------------------------------------------------------------------------
# multiplicative unitary and the representation calculus
# ---------------------------------------------------------------------------

def mult_unitary(D: DiscreteQG, tol=None) -> Checks:
    """Verify the defining identities of W = sum_k f_k x a_k, whose
    coefficients in tensor(dual blocks, A) are ``D.dual_to_block``
    flattened: unitarity and (id x delta)W = W12 W13.  Returns the
    record, raising on failure; it is cached on ``D`` per tolerance."""
    tol = as_tolerance(tol)
    if D._w is not None and D._w[1] == tol.eps:
        return D._w[0]
    A = D.primal.algebra
    B = D.dual_algebra
    T = tensor(B, A)
    Ci = D.dual_to_block
    w = Ci.reshape(-1)
    w_star = T.star_coeffs(w)
    one = T.kron_coeffs(B.unit_coeffs, A.unit_coeffs)
    res = {
        "unitarity_right": T.norm_coeffs(T.mul_coeffs(w, w_star) - one),
        "unitarity_left": T.norm_coeffs(T.mul_coeffs(w_star, w) - one),
    }
    T3 = tensor(B, A, A)
    # (id x delta) W: delta acts on the second leg, the rows of Ci
    lhs = (Ci @ D.primal.delta.matrix.T).reshape(-1)
    w12 = np.einsum("tk,l->tkl", Ci, A.unit_coeffs).reshape(-1)
    w13 = np.einsum("tl,k->tkl", Ci, A.unit_coeffs).reshape(-1)
    rhs = T3.mul_coeffs(w12, w13)
    res["comultiplication"] = T3.norm_coeffs(lhs - rhs)
    checks = Checks(res, tol)
    checks.raise_for_failure("multiplicative unitary fails")
    D._w = (checks, tol.eps)
    return checks


def corep_of(D: DiscreteQG, i: int, tol=None) -> np.ndarray:
    """The corepresentation U = (p_i x id)(W) of irreducible i, an
    (n, n, dim A) array: U[r, s], the row of ``dual_to_block`` at e_rs of
    block i, holds the Pol(G) coefficients of U_rs.  Its unitarity and
    coproduct residuals are entries of W's, at the same scale, so
    ``mult_unitary`` checks (and raises) for it."""
    mult_unitary(D, tol)
    legs = D.dual_algebra.block_matrices(D.dual_to_block.T)[i]
    return np.moveaxis(legs, 0, -1)


def tensor_mult(D: DiscreteQG, sigma: int, gamma: int) -> np.ndarray:
    """Multiplicities of each irreducible inside sigma (x) gamma: the
    read-only row (sigma, gamma) of ``D.fusion_table``."""
    return D.fusion_table[sigma, gamma]


def contragredient(D: DiscreteQG, i: int, tol=None) -> int:
    """The contragredient of irreducible i: transpose after the dual
    antipode.

    pi^c = transpose . pi . S_dual is an irreducible *-representation; the
    returned index is the block it is equivalent to.
    """
    tol = as_tolerance(tol)
    n = D.irr_dims[i]
    B = D.dual_algebra
    # block i of S_dual(p_j), transposed, for every central projection p_j
    images = B.block_traces(D.dual_hopf.antipode.matrix).T
    mats = B.block_matrices(images)[i].swapaxes(-1, -2)
    hits = np.flatnonzero(np.linalg.norm(mats, axis=(-2, -1))
                          > tol.eps * NONZERO_BLOCK_FACTOR).tolist()
    # an equivalent block: the central projection must act as identity
    if (any(D.irr_dims[j] != n for j in hits)
            or np.any(np.linalg.norm(mats[hits] - np.eye(n), axis=(-2, -1))
                      > IDENTITY_SLACK)):
        raise CheckError("contragredient block mismatch")
    if len(hits) != 1:
        raise CheckError(f"contragredient matched blocks {hits}")
    return hits[0]
