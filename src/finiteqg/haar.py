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

from .core import CheckError, Checks, as_tolerance, numerical_rank

if TYPE_CHECKING:
    from .hopf import HopfData


@dataclass(eq=False)
class HaarState:
    """The Haar state h and its checks: the residual of the invariance
    system (``haar_system_residual``) and the flag ``gram_positive``,
    the algebra's ``trace_positive``: the smallest eigenvalue of the Gram
    matrix above ``GRAM_MIN_EIG``."""

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

    and read its Gram matrix, the algebra's ``trace_gram``, and the
    algebra's positivity rule.  A NaN or inf in the coproduct, unit,
    product or star is refused first; the homogeneous system must have a
    1-dim kernel.
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

    h = A.trace
    residual = float(np.linalg.norm(np.append(hom @ h, one @ h - 1.0)))

    gram = A.trace_gram
    herm = float(np.linalg.norm(gram - gram.conj().T))
    if not tol.is_zero(herm, float(np.linalg.norm(gram))):
        raise HaarError("Gram matrix is not Hermitian")
    gram = 0.5 * (gram + gram.conj().T)
    checks = Checks({"haar_system_residual": residual}, tol, error=HaarError,
                    flags={"gram_positive": A.trace_positive})
    checks.raise_for_failure("not the Haar state")
    return HaarState(H, h, gram, float(A.trace_spectrum[0].min()), checks)


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
