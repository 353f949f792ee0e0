"""Actions of a finite quantum group on a finite classical space.

A quantum action on n points is a magic matrix: an n x n array of
self-adjoint projections u_{i,j} in Pol(G) whose rows sum to the unit,
with delta(u_ij) = sum_k u_ik x u_kj and eps(u_ij) = [i = j].  The orbit
relation is simply "u_{k,l} != 0"; on each orbit class the columns sum to
the unit too (the counting measure is invariant) and the Haar state is
constant 1/|class| on the class.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (_DENSE_STACK_ENTRIES, AlgElement, BlockAlgebra, Checks,
                   LinMap, as_tolerance, tensor)
from .orbits import ActionMap, relation

if TYPE_CHECKING:
    from .haar import HaarState
    from .hopf import HopfData
    from .orbits import OrbitPartition


@dataclass
class MagicAction:
    """A quantum permutation action: n x n magic matrix over Pol(G)."""

    hopf: HopfData
    n: int
    u: list  # u[i][j] an AlgElement of hopf.algebra

    def __repr__(self):
        return f"MagicAction(n={self.n}, over {self.hopf.name or 'G'})"


def permutation_magic(H: HopfData, action_table) -> MagicAction:
    """Encode a classical left action of a group on points as a magic
    matrix over its function algebra: u_ij = sum over {g : g.j = i}."""
    act = np.asarray(action_table, dtype=int)
    order, n = act.shape
    if order != H.dim:
        raise ValueError("action table does not match the group order")
    u = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = np.zeros(H.dim, dtype=complex)
            for g in range(order):
                if act[g, j] == i:
                    coeffs[g] = 1.0
            row.append(AlgElement(H.algebra, coeffs))
        u.append(row)
    return MagicAction(H, n, u)


def verify_magic(M: MagicAction, tol=None) -> Checks:
    """Check projections, row sums, the coproduct rule and the counit,
    each residual at scale 1.0.

    The n x n entries form one ``(i, j, dim)`` stack, so each residual is
    one kernel call over all entries; the coproduct rule, whose stack has
    n^2 * dim^2 entries, takes a few rows i per call."""
    tol = as_tolerance(tol)
    H = M.hopf
    A = H.algebra
    U = np.array([[x.coeffs for x in row] for row in M.u])    # (i, j, :)
    n, d = M.n, A.dim
    step = max(1, _DENSE_STACK_ENTRIES // (n * d * d))
    # sum_k u_ik (x) u_kj in the Kronecker convention, rows i to i + step
    coproduct = [H.square.norm_coeffs(
        U[i:i + step] @ H.delta.matrix.T
        - np.einsum("ikp,kjq->ijpq", U[i:i + step], U).reshape(-1, n, d * d))
        for i in range(0, n, step)]
    # norm_coeffs and np.max keep a NaN residual
    return Checks({
        "projection": A.norm_coeffs(A.mul_coeffs(U, U) - U),
        "selfadjoint": A.norm_coeffs(A.star_coeffs(U) - U),
        "row_sum": A.norm_coeffs(U.sum(axis=1) - A.unit_coeffs),
        "coproduct": float(np.max(coproduct)),
        "counit": float(np.max(np.abs(U @ H.counit - np.eye(n)))),
    }, tol)


def action_from_magic(M: MagicAction, grouping=None) -> ActionMap:
    """The coaction on l^inf(n) defined by a magic matrix, with points
    optionally grouped into coarser direct summands."""
    N = BlockAlgebra([1] * M.n)
    A = M.hopf.algebra
    mat = np.zeros((M.n * A.dim, M.n), dtype=complex)
    for j in range(M.n):
        for i in range(M.n):
            mat[i * A.dim:(i + 1) * A.dim, j] = M.u[i][j].coeffs
    summands = ([[b] for b in range(M.n)] if grouping is None
                else [sorted(g) for g in grouping])
    return ActionMap(M.hopf, N, LinMap(N, tensor(N, A), mat), summands)


@dataclass
class ClassicalOrbits:
    partition: OrbitPartition
    counting_residual: float
    ergodic: bool

    @property
    def classes(self):
        return self.partition.classes


def classical_orbits(M: MagicAction, tol=None) -> ClassicalOrbits:
    """Orbit classes of a verified magic action, with the invariance of
    the counting measure checked per class."""
    tol = as_tolerance(tol)
    alpha = action_from_magic(M)
    alpha.verify(tol)
    P = relation(alpha, tol)
    A = M.hopf.algebra
    res = []
    for cls in P.classes:
        for j in cls:
            col = A.zero()
            for i in cls:
                col = col + M.u[i][j]
            res.append((col - A.one()).norm())
    # np.max keeps a NaN residual, where max() would drop it
    return ClassicalOrbits(P, float(np.max(res, initial=0.0)),
                           len(P.classes) == 1)


@dataclass
class HaarValueReport:
    values: np.ndarray
    on_class_residual: float
    off_class_residual: float

    def passed(self, tol=None) -> bool:
        tol = as_tolerance(tol)
        return (tol.is_zero(self.on_class_residual)
                and tol.is_zero(self.off_class_residual))


def haar_values(M: MagicAction, h: HaarState, P: OrbitPartition,
                tol=None) -> HaarValueReport:
    """Haar values of the magic entries: 1/|class| on a class, 0 off it."""
    vals = np.zeros((M.n, M.n))
    on_res, off_res = [], []
    class_of = {}
    for cls in P.classes:
        for i in cls:
            class_of[i] = cls
    for i in range(M.n):
        for j in range(M.n):
            v = h(M.u[i][j])
            off_res.append(abs(v.imag))
            vals[i, j] = v.real
            if class_of[i] is class_of[j]:
                on_res.append(abs(v.real - 1.0 / len(class_of[i])))
            else:
                off_res.append(abs(v.real))
    # np.max keeps a NaN residual, where max() would drop it
    return HaarValueReport(vals, float(np.max(on_res, initial=0.0)),
                           float(np.max(off_res, initial=0.0)))
