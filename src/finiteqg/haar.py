"""Haar states of finite quantum groups and the GNS inner product.

The Haar state is read off the regular trace and judged by the stacked
linear system {left invariance, right invariance, normalization}, whose
residual doubles as a health check on the input.  The Gram matrix
h(a* b) over the canonical basis realizes the GNS inner product and is
required to be positive definite (the Haar state of a Hopf C*-algebra is
faithful).  ``invariant_state_on_module`` averages a coaction with h, after
the coaction's own ``verify`` has judged it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (CheckError, Checks, GRAM_MIN_EIG, as_tolerance,
                   numerical_rank)

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
        return complex(self.vector @ np.asarray(x, dtype=complex))


class HaarError(CheckError):
    pass


def haar_state(H: HopfData, tol=None) -> HaarState:
    """Read the Haar state of a verified Hopf datum off the regular trace,
    h(e_p) = sum_k m[k, p, k] / d (every finite quantum group is semisimple
    and cosemisimple), judge it by the invariance system

    (id x h) delta(x) = h(x) 1 = (h x id) delta(x),  h(1) = 1,

    and assemble its Gram matrix.  A NaN or inf in the coproduct, unit,
    product or star is refused first; the homogeneous system must have a
    1-dim kernel.  The Gram matrix h(e_p* e_q) is contracted in the fixed
    order that ``_gram`` writes out, so no einsum is planned per call.
    """
    tol = as_tolerance(tol)
    A = H.algebra
    d = A.dim
    D = H.delta.matrix.reshape(d, d, d)  # D[p, q, k]: pair (p,q) of delta(e_k)
    one = A.unit_coeffs
    parts = {"coproduct": D, "unit": one, "product": A.mul_tensor,
             "star": A.star_matrix}
    bad = [name for name, part in parts.items() if not np.isfinite(part).all()]
    if bad:
        raise HaarError(f"non-finite {', '.join(bad)}: input is not a "
                        "(verified) finite quantum group")

    # rows indexed by (k, p): sum_q D[p, q, k] h_q - 1_p h_k = 0
    field = np.result_type(D, one)
    left = D.transpose(2, 0, 1).reshape(d * d, d).astype(field)
    right = D.transpose(2, 1, 0).reshape(d * d, d).astype(field)
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

    h = np.einsum("kpk->p", A.mul_tensor) / d
    residual = float(np.linalg.norm(np.append(hom @ h, one @ h - 1.0)))

    gram = _gram(A, h)
    herm = float(np.linalg.norm(gram - gram.conj().T))
    if not tol.is_zero(herm, float(np.linalg.norm(gram))):
        raise HaarError("Gram matrix is not Hermitian")
    gram = 0.5 * (gram + gram.conj().T)
    min_eig = float(np.linalg.eigvalsh(gram).min())
    checks = Checks({"haar_system_residual": residual}, tol, error=HaarError,
                    flags={"gram_positive": min_eig > GRAM_MIN_EIG})
    checks.raise_for_failure("not the Haar state")
    return HaarState(H, h, gram, min_eig, checks)


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

    ``alpha`` is an ``orbits.ActionMap``, shaped N -> N x Pol(G) when it
    was built: its ``verify`` judges it, and raises, before the average.
    When alpha is ergodic the returned covector is the unique
    alpha-invariant state.
    """
    if h.hopf is not alpha.hopf:
        raise ValueError("h is not the Haar state of alpha's quantum group")
    N = alpha.module
    d_n, d_a = N.dim, h.hopf.dim
    alpha.verify(tol)

    # E = (id x h) alpha, the averaging map onto the fixed-point algebra
    E = np.einsum("njk,j->nk",
                  alpha.matrix.reshape(d_n, d_a, d_n), h.vector)
    one = N.unit_coeffs
    weight = np.conj(one) / float((np.conj(one) @ one).real)
    return weight @ E
