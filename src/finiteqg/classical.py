"""Actions of a finite quantum group on a finite classical space.

A coaction on n points, l^inf(n) = ``BlockAlgebra([1] * n)``, is exactly a
magic matrix (S. Wang, *Quantum symmetry groups of finite spaces*, Comm.
Math. Phys. 195, 1998): alpha(e_j) = sum_i e_i x u_ij with self-adjoint
projections u_ij in Pol(G) whose rows sum to the unit.  So a magic action
is an ``orbits.ActionMap``, ``magic_entries`` is its (n, n, dim) view and
``verify_magic`` is the one coaction check.  The orbit relation is
"u_{k,l} != 0"; on each class the columns sum to the unit too (the
counting measure is invariant) and the Haar state is 1/|class| there.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import BlockAlgebra, Checks, as_tolerance, coaction_residuals
from .orbits import ActionMap, relation

if TYPE_CHECKING:
    from .haar import HaarState
    from .hopf import HopfData
    from .orbits import OrbitPartition


def magic_action(H: HopfData, entries) -> ActionMap:
    """The coaction on l^inf(n) whose magic matrix is the (n, n, dim)
    stack ``entries`` (u_ij = entries[i, j]), every point a summand."""
    U = np.asarray(entries, dtype=complex)
    n = U.shape[0]
    # column j is alpha(e_j) = sum_i e_i x u_ij
    return ActionMap(H, BlockAlgebra([1] * n),
                     U.transpose(0, 2, 1).reshape(n * H.dim, n))


def magic_entries(alpha: ActionMap) -> np.ndarray:
    """The magic matrix of an action on l^inf(n): the (n, n, dim) view
    u[i, j] = u_ij of the action matrix."""
    n = alpha.module.dim
    if alpha.module.block_dims != (1,) * n:
        raise ValueError("a magic matrix needs a classical space: every "
                         "block of the module must be 1 x 1")
    return alpha.matrix.reshape(n, alpha.hopf.dim, n).transpose(0, 2, 1)


def permutation_magic(H: HopfData, action_table) -> ActionMap:
    """Encode a classical left action of a group on points as a magic
    matrix over its function algebra: u_ij = sum over {g : g.j = i}."""
    act = np.asarray(action_table, dtype=int)
    order, n = act.shape
    if order != H.dim:
        raise ValueError("action table does not match the group order")
    # U[i, j, g] = [g.j = i]
    return magic_action(H, act.T == np.arange(n)[:, None, None])


def verify_magic(alpha: ActionMap, tol=None) -> Checks:
    """The coaction residuals of a magic action, each at scale 1.0:
    ``multiplicative`` (every u_ij a projection, orthogonal along a row),
    ``star`` (self-adjoint), ``unital`` (rows sum to the unit),
    ``coaction`` (delta(u_ij) = sum_k u_ik x u_kj) and ``counit``."""
    magic_entries(alpha)    # refuses a module with a larger block
    H = alpha.hopf
    # a NaN or inf entry meets inf - inf or 0 * inf on its way to NaN
    with np.errstate(over="ignore", invalid="ignore"):
        res = coaction_residuals(alpha.module, alpha.codomain, alpha.matrix,
                                 H.delta.matrix, H.counit)
    return Checks(res, as_tolerance(tol))


@dataclass(eq=False)
class ClassicalOrbits:
    partition: OrbitPartition
    counting_residual: float
    ergodic: bool

    @property
    def classes(self):
        return self.partition.classes


def classical_orbits(alpha: ActionMap, tol=None) -> ClassicalOrbits:
    """Orbit classes of a verified magic action, with the invariance of
    the counting measure checked per class."""
    tol = as_tolerance(tol)
    verify_magic(alpha, tol).raise_for_failure("magic action fails")
    P = relation(alpha, tol)
    U = magic_entries(alpha)
    A = alpha.hopf.algebra
    # the column sums over a class, one row per column j of the class
    res = [A.norm_coeffs(U[np.ix_(cls, cls)].sum(axis=0) - A.unit_coeffs)
           for cls in P.classes]
    # np.max keeps a NaN residual, where max() would drop it
    return ClassicalOrbits(P, float(np.max(res, initial=0.0)),
                           len(P.classes) == 1)


@dataclass(eq=False)
class HaarValueReport:
    values: np.ndarray
    on_class_residual: float
    off_class_residual: float

    def passed(self, tol=None) -> bool:
        tol = as_tolerance(tol)
        return (tol.is_zero(self.on_class_residual)
                and tol.is_zero(self.off_class_residual))


def haar_values(alpha: ActionMap, h: HaarState,
                P: OrbitPartition) -> HaarValueReport:
    """Haar values of the magic entries: 1/|class| on a class, 0 off it."""
    v = magic_entries(alpha) @ h.vector
    want = np.zeros(v.shape)
    for cls in P.classes:
        want[np.ix_(cls, cls)] = 1.0 / len(cls)
    dev, on = np.abs(v.real - want), want > 0
    # np.max and np.maximum keep a NaN residual, where max() would drop it
    return HaarValueReport(v.real, float(np.max(dev[on], initial=0.0)),
                           float(np.maximum(np.abs(v.imag).max(),
                                            np.max(dev[~on], initial=0.0))))
