"""Haar states of finite quantum groups and the GNS inner product.

The Haar state is found as the unique solution of the stacked linear
system {left invariance, right invariance, normalization}; the least
squares residual doubles as a health check on the input.  The Gram matrix
h(a* b) over the canonical basis realizes the GNS inner product and is
required to be positive definite (the Haar state of a Hopf C*-algebra is
faithful).  ``invariant_state_on_module`` averages a coaction with h, after
the coaction's own ``verify`` has judged it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (AlgElement, CheckError, Checks, GRAM_MIN_EIG,
                   as_tolerance, numerical_rank)

if TYPE_CHECKING:
    from .hopf import HopfData


@dataclass(eq=False)
class HaarState:
    """The Haar state h and its checks: the residual of the invariance
    system (``haar_system_residual``) and the flag ``gram_positive``,
    the smallest eigenvalue of the Gram matrix above ``GRAM_MIN_EIG``."""

    hopf: HopfData
    vector: np.ndarray  # h on the canonical basis
    gram: np.ndarray    # gram[p, q] = h(e_p* e_q), symmetrized
    min_gram_eigenvalue: float
    checks: Checks

    def __call__(self, x) -> complex:
        if isinstance(x, AlgElement):
            x = x.coeffs
        return complex(self.vector @ np.asarray(x, dtype=complex))


class HaarError(CheckError):
    pass


def haar_state(H: HopfData, tol=None) -> HaarState:
    """Solve the invariance system for the Haar state of a verified Hopf
    datum and assemble its Gram matrix.

    (id x h) delta(x) = h(x) 1 = (h x id) delta(x),  h(1) = 1.

    The Gram matrix h(e_p* e_q) is contracted in the fixed order that
    ``_gram`` writes out, so no einsum is planned per call.
    """
    tol = as_tolerance(tol)
    A = H.algebra
    d = A.dim
    D = H.delta.matrix.reshape(d, d, d)  # D[p, q, k]: pair (p,q) of delta(e_k)
    one = A.unit_coeffs

    # rows indexed by (k, p): sum_q D[p, q, k] h_q - 1_p h_k = 0
    left = D.transpose(2, 0, 1).reshape(d * d, d).copy()
    right = D.transpose(2, 1, 0).reshape(d * d, d).copy()
    ar = np.arange(d)
    left.reshape(d, d, d)[ar, :, ar] -= one
    right.reshape(d, d, d)[ar, :, ar] -= one

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

    gram = _gram(A, h)
    herm = float(np.linalg.norm(gram - gram.conj().T))
    if not tol.is_zero(herm, float(np.linalg.norm(gram))):
        raise HaarError("Gram matrix is not Hermitian")
    gram = 0.5 * (gram + gram.conj().T)
    min_eig = float(np.linalg.eigvalsh(gram).min())
    if min_eig <= GRAM_MIN_EIG:
        raise HaarError("Haar state is not faithful (Gram not positive)")

    return HaarState(H, h, gram, min_eig, Checks(
        {"haar_system_residual": residual}, tol,
        flags={"gram_positive": min_eig > GRAM_MIN_EIG}))


def _gram(A, h):
    """gram[p, q] = h(e_p* e_q), where star(e_p) has the coefficients
    star_matrix[:, p].

    The contraction order is fixed: the star goes into the left leg of
    the structure tensor first, y[p, k, q] = sum_a st[a, p] m[k, a, q], as
    one (d, d) x (d, d^2) matrix product, the product that the planned
    ``np.einsum("kab,ap,bq->kpq", m, st, eye)`` runs before it multiplies
    by the identity, which is exact and left out.  Then h is summed into
    k."""
    d = A.dim
    y = A.star_matrix.T @ A.mul_tensor.transpose(1, 0, 2).reshape(d, d * d)
    return np.einsum("k,kpq->pq", h, y.reshape(d, d, d).transpose(1, 0, 2))


def invariant_state_on_module(alpha, h: HaarState, tol=None):
    """The invariant functional x -> scalar part of (id x h) alpha(x).

    ``alpha`` is an ``orbits.ActionMap``: its ``verify`` judges it, and
    raises, before the average.  When alpha is ergodic the returned
    covector is the unique alpha-invariant state.
    """
    if h.hopf is not alpha.hopf:
        raise ValueError("h is not the Haar state of alpha's quantum group")
    N = alpha.module
    d_n, d_a = N.dim, h.hopf.dim
    if alpha.alpha.matrix.shape != (d_n * d_a, d_n):
        raise ValueError("alpha is not a map N -> N x Pol(G)")
    alpha.verify(tol)

    # E = (id x h) alpha, the averaging map onto the fixed-point algebra
    E = np.einsum("njk,j->nk",
                  alpha.alpha.matrix.reshape(d_n, d_a, d_n), h.vector)
    one = N.unit_coeffs
    weight = np.conj(one) / float((np.conj(one) @ one).real)
    return weight @ E
