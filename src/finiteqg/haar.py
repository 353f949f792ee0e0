"""Haar states of finite quantum groups and the GNS inner product.

The Haar state is found as the unique solution of the stacked linear
system {left invariance, right invariance, normalization}; the least
squares residual doubles as a health check on the input.  The Gram matrix
h(a* b) over the canonical basis realizes the GNS inner product and is
required to be positive definite (the Haar state of a Hopf C*-algebra is
faithful).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (AlgElement, CheckError, LinMap, as_tolerance,
                   numerical_rank, opnorm)
from .hopf import HopfData

# faithfulness threshold for the smallest Gram eigenvalue
GRAM_MIN_EIG = 1e-12


@dataclass
class HaarState:
    hopf: HopfData
    vector: np.ndarray  # h on the canonical basis
    gram: np.ndarray    # gram[p, q] = h(e_p* e_q)
    residual: float

    def __call__(self, x) -> complex:
        if isinstance(x, AlgElement):
            x = x.coeffs
        return complex(self.vector @ np.asarray(x, dtype=complex))

    def inner(self, x, y) -> complex:
        """GNS inner product <x, y> = h(x* y)."""
        xc = x.coeffs if isinstance(x, AlgElement) else np.asarray(x)
        yc = y.coeffs if isinstance(y, AlgElement) else np.asarray(y)
        return complex(np.conj(xc) @ self.gram @ yc)

    def min_gram_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.gram).min())


class HaarError(CheckError):
    pass


def haar_state(H: HopfData, tol=None) -> HaarState:
    """Solve the invariance system for the Haar state of a verified Hopf
    datum and assemble its Gram matrix.

    (id x h) delta(x) = h(x) 1 = (h x id) delta(x),  h(1) = 1.
    """
    tol = as_tolerance(tol)
    A = H.algebra
    d = A.dim
    D = H.delta.matrix.reshape(d, d, d)  # D[p, q, k]: pair (p,q) of delta(e_k)
    one = A.unit_coeffs

    # rows indexed by (k, p): sum_q D[p, q, k] h_q - 1_p h_k = 0
    left = D.transpose(2, 0, 1).reshape(d * d, d).copy()
    right = D.transpose(2, 1, 0).reshape(d * d, d).copy()
    for k in range(d):
        left[k * d:(k + 1) * d, k] -= one
        right[k * d:(k + 1) * d, k] -= one

    hom = np.vstack([left, right])
    # uniqueness: the homogeneous invariance system must have a 1-dim kernel
    svals = np.linalg.svd(hom, compute_uv=False)
    nullity = d - int(numerical_rank(svals, tol))
    if nullity != 1:
        raise HaarError(
            f"invariance system has {nullity}-dimensional solution space; "
            "input is not a (verified) finite quantum group")

    system = np.vstack([hom, one[None, :]])
    rhs = np.zeros(2 * d * d + 1, dtype=complex)
    rhs[-1] = 1.0
    h, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    residual = float(np.linalg.norm(system @ h - rhs))
    if not tol.is_zero(residual):
        raise HaarError(f"Haar system residual {residual:.3e} exceeds tolerance")

    # gram[p, q] = h(e_p* e_q); star(e_p) has coefficients star_matrix[:, p]
    sp = A.star_matrix
    prod = np.einsum("kab,ap,bq->kpq", A.mul_tensor, sp, np.eye(d),
                     optimize=True)
    gram = np.einsum("k,kpq->pq", h, prod)
    herm = float(np.linalg.norm(gram - gram.conj().T))
    if not tol.is_zero(herm, float(np.linalg.norm(gram))):
        raise HaarError("Gram matrix is not Hermitian")
    gram = 0.5 * (gram + gram.conj().T)
    if float(np.linalg.eigvalsh(gram).min()) <= GRAM_MIN_EIG:
        raise HaarError("Haar state is not faithful (Gram not positive)")

    return HaarState(H, h, gram, residual)


def invariant_state_on_module(alpha: LinMap, h: HaarState, tol=None):
    """The invariant functional x -> scalar part of (id x h) alpha(x).

    ``alpha`` must satisfy the coaction equation
    (alpha x id) alpha = (id x delta) alpha within tolerance.  When alpha
    is ergodic the returned covector is the unique alpha-invariant state.
    """
    tol = as_tolerance(tol)
    H = h.hopf
    N = alpha.domain
    d_n, d_a = N.dim, H.dim
    if alpha.matrix.shape != (d_n * d_a, d_n):
        raise ValueError("alpha is not a map N -> N x Pol(G)")

    lhs = np.kron(alpha.matrix, np.eye(d_a)) @ alpha.matrix
    rhs = np.kron(np.eye(d_n), H.delta.matrix) @ alpha.matrix
    res = float(opnorm(lhs - rhs))
    if not tol.is_zero(res, float(opnorm(lhs))):
        raise CheckError(f"map is not a coaction (residual {res:.3e})")

    # E = (id x h) alpha, the averaging map onto the fixed-point algebra
    E = np.einsum("njk,j->nk",
                  alpha.matrix.reshape(d_n, d_a, d_n), h.vector)
    one = N.unit_coeffs
    weight = np.conj(one) / float((np.conj(one) @ one).real)
    return weight @ E
