"""Restriction of irreducibles to quantum subgroups and fusion relations.

Two applications of the orbit machinery:

* restriction tables: how each irreducible of the ambient quantum group
  decomposes over the blocks of a homogeneous space (for a normal
  subgroup these blocks are the irreducibles of the corresponding
  quotient-side subgroup, and each row is supported on exactly one orbit
  class);
* the fusion relation on irreducibles: sigma ~ tau when tau is contained
  in sigma (x) gamma for some irreducible gamma of the subgroup, which
  coincides with "sigma and tau hit a common block of the homogeneous
  space".  Both routes are computed independently and compared entrywise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_SEED, CheckError, Tolerance, as_tolerance,
                   orthonormal_rows, distance_to_span, tensor)
from .duality import DiscreteQG, mult_unitary, tensor_mult
from .hopf import HopfData
from .orbits import (HomogeneousSpace, MorphismError, OrbitPartition,
                     SubgroupMorphism, _coinvariants, _relation_classes,
                     homogeneous_action, homogeneous_space,
                     quotient_by_kernel, relation, subgroup_from_dual_matrix)


class NormalityError(CheckError):
    pass


def _dual_embedding_blockcoords(D: DiscreteQG, rho) -> np.ndarray:
    """Rows spanning the image of the quotient's dual inside the dual.

    The functional-side embedding f -> f . rho has raw dual coordinates
    given by the rows of rho; convert them to block coordinates.
    """
    rho = np.asarray(rho, dtype=complex)
    return np.linalg.solve(D.block_to_dual, rho.T).T


def normality_defect(D: DiscreteQG, rho, tol=None) -> float:
    """How far W conjugation moves the embedded dual of the quotient.

    For a surjection rho: Pol(G) -> Pol(H), the subalgebra
    V = rho^T(l^inf(H-dual)) inside l^inf(G-dual) must satisfy
    W (V x 1) W* inside V x Pol(G) exactly when H is normal in G.
    """
    tol = as_tolerance(tol)
    A = D.primal.algebra
    B = D.dual_algebra
    V = orthonormal_rows(_dual_embedding_blockcoords(D, rho), tol)
    W = mult_unitary(D, tol).element
    T = W.parent
    # row t of y is W (v_t x 1) W*; each of its Pol(G)-columns must lie in V
    y = T.mul_coeffs(T.mul_coeffs(W.coeffs, np.kron(V, A.unit_coeffs)),
                     W.star().coeffs)
    return distance_to_span(V, y.reshape(-1, B.dim, A.dim).transpose(0, 2, 1))


def quotient_subgroup(H: HopfData, D: DiscreteQG, rho, tol=None):
    """Subgroup of the dual attached to a normal quantum subgroup of G.

    ``rho`` is a verified Hopf *-surjection Pol(G) -> Pol(H); the returned
    morphism is the restriction-of-functionals surjection from l^inf of
    the dual onto l^inf of the dual of the coinvariant subalgebra
    {a : (id x rho) delta(a) = a x 1}.  Raises when H is not normal.
    """
    tol = as_tolerance(tol)
    rho = np.asarray(rho, dtype=complex)
    quotient = quotient_by_kernel(H, rho, tol)
    defect = normality_defect(D, rho, tol)
    if not tol.is_zero(defect):
        raise NormalityError(
            f"subgroup is not normal (conjugation defect {defect:.3e})")

    A = H.algebra
    K = _coinvariants(H, rho, "right", tol)
    m = K.shape[0]
    if m * quotient.dim != A.dim:
        raise MorphismError(
            f"coinvariants have dimension {m}, expected "
            f"{A.dim}/{quotient.dim}")
    # the coinvariants must be a Hopf *-subalgebra; K has orthonormal rows,
    # so the rows of kron(K, K) are an orthonormal basis of K x K
    worst = float(np.max([
        distance_to_span(K, A.star_coeffs(K)),
        distance_to_span(K, K @ H.antipode.matrix.T),
        distance_to_span(K, A.mul_coeffs(np.repeat(K, m, 0),
                                         np.tile(K, (m, 1)))),
        distance_to_span(np.kron(K, K), K @ H.delta.matrix.T)]))
    if not tol.is_zero(worst):
        raise MorphismError(
            f"coinvariants fail to be a Hopf subalgebra (residual {worst:.3e})")

    return subgroup_from_dual_matrix(D, K, tol)


@dataclass
class RestrictionTable:
    """Integer multiplicities of ambient irreducibles over the blocks of a
    homogeneous space, with the one-orbit-per-row and dimension checks."""

    row_labels: list
    col_dims: list
    mult: np.ndarray
    one_orbit_per_row: bool
    dimension_count_ok: bool
    normal_subgroup: bool

    def row(self, kappa: int):
        return self.mult[kappa]

    def __repr__(self):
        return (f"RestrictionTable({self.mult.tolist()}, "
                f"one_orbit={self.one_orbit_per_row})")


def restriction_table(D: DiscreteQG, X: HomogeneousSpace,
                      partition: OrbitPartition = None,
                      tol=None) -> RestrictionTable:
    """Multiplicity of each homogeneous-space block inside each ambient
    irreducible: mult = trace of the ambient block at the space's first
    diagonal matrix unit.  Values must round to integers within 1e-6."""
    tol = as_tolerance(tol)
    if partition is None:
        partition = relation(homogeneous_action(D, X, tol), tol)
    B = D.dual_algebra
    n_rows = len(D.irr_dims)
    n_cols = X.size
    mult = np.zeros((n_rows, n_cols), dtype=int)
    for i in range(n_cols):
        f11 = X.wd.matrix_units[i][0][0]
        mats = B.block_matrices(f11.coeffs)
        for k in range(n_rows):
            val = complex(np.trace(mats[k]))
            r = int(round(val.real))
            if abs(val - r) > 1e-6 or r < 0:
                raise CheckError(
                    f"restriction multiplicity {val} is not an integer")
            mult[k, i] = r

    class_sets = [set(c) for c in partition.classes]
    one_orbit = all(
        {i for i in range(n_cols) if mult[k, i] > 0} in class_sets
        for k in range(n_rows))
    dims_ok = all(
        int(mult[k] @ np.array(X.block_dims)) == D.irr_dims[k]
        for k in range(n_rows))
    return RestrictionTable(list(D.irr_labels), list(X.block_dims), mult,
                            one_orbit, dims_ok, X.morphism.normal)


@dataclass
class ConstancyReport:
    """Orbit-wise constancy of dimensions and multiplicities, and the
    trace-proportionality constants of the restriction."""

    dims_constant: bool
    mults_constant: bool
    markov_residual: float
    constants: dict          # (row, class index) -> c with c * m = mult
    tol: Tolerance

    @property
    def passed(self) -> bool:
        return (self.dims_constant and self.mults_constant
                and self.tol.is_zero(self.markov_residual))


def kac_constancy_check(D: DiscreteQG, X: HomogeneousSpace,
                        table: RestrictionTable, partition: OrbitPartition,
                        tol=None) -> ConstancyReport:
    """Within each orbit class: equal block dimensions, equal row
    multiplicities, and the compressed trace proportional to the Markov
    trace e_kl -> delta_kl * dim with a single constant per row."""
    tol = as_tolerance(tol)
    B = D.dual_algebra
    dims = np.array(X.block_dims)
    dims_ok = all(len({int(dims[i]) for i in cls}) == 1
                  for cls in partition.classes)
    mult_ok = True
    constants = {}
    devs = []
    for k in range(len(D.irr_dims)):
        for ci, cls in enumerate(partition.classes):
            vals = {int(table.mult[k, i]) for i in cls}
            if any(v > 0 for v in vals) and len(vals) != 1:
                mult_ok = False
                continue
            mval = vals.pop() if len(vals) == 1 else 0
            if mval == 0:
                continue
            c = mval / float(dims[cls[0]])
            constants[(k, ci)] = c
            # trace of the k-block is c * Markov trace on the class corner
            for i in cls:
                n = int(dims[i])
                for a in range(n):
                    for b in range(n):
                        f = X.wd.matrix_units[i][a][b]
                        tr = complex(np.trace(B.block_matrices(f.coeffs)[k]))
                        want = c * n if a == b else 0.0
                        devs.append(abs(tr - want))
    # np.max keeps a NaN residual, where max() would drop it
    return ConstancyReport(dims_ok, mult_ok, float(np.max(devs, initial=0.0)),
                           constants, tol)


@dataclass
class VergniouxRelation:
    """The subgroup-fusion relation on ambient irreducibles, computed by
    the fusion route and the support route, with their agreement flag."""

    fusion: np.ndarray
    witness: np.ndarray
    support: np.ndarray
    classes: list
    agree: bool
    support_positivity_ok: bool   # delta(1_sub)(1_j x 1) != 0 for all j

    @property
    def relation(self) -> np.ndarray:
        return self.support


def vergnioux_relation(D: DiscreteQG, m: SubgroupMorphism, tol=None,
                       seed: int = DEFAULT_SEED,
                       X: HomogeneousSpace = None) -> VergniouxRelation:
    """sigma ~ tau iff (sigma x tau^c) delta(1_sub) != 0, iff some
    subgroup irreducible gamma has tau inside sigma (x) gamma, iff sigma
    and tau hit a common block of the homogeneous space.

    All three routes are computed and compared entrywise.
    """
    tol = as_tolerance(tol)
    B = D.dual_algebra
    n_irr = len(D.irr_dims)
    if X is None:
        X = homogeneous_space(D, m, tol, seed)
    P = relation(homogeneous_action(D, X, tol), tol)

    # support route
    supports = []
    for i in range(X.size):
        one_i = X.block_unit_in_dual(i)
        supports.append(frozenset(
            k for k in range(n_irr)
            if not (D.block_projection(k) * one_i).is_zero(tol)))
    support_rel = np.zeros((n_irr, n_irr), dtype=bool)
    for s in supports:
        for a in s:
            for b in s:
                support_rel[a, b] = True

    # fusion route through the support projection of the subgroup
    DM = D.dual_hopf.delta.matrix
    SM = D.dual_hopf.antipode.matrix
    y = (DM @ m.support.coeffs).reshape(B.dim, B.dim)
    z = y @ SM.T  # apply the antipode on the right leg
    scale = float(np.linalg.norm(z))
    fusion_rel = np.zeros((n_irr, n_irr), dtype=bool)
    for s in range(n_irr):
        ns = D.irr_dims[s]
        rows = [B.index(s, i, j) for i in range(ns) for j in range(ns)]
        for t in range(n_irr):
            nt = D.irr_dims[t]
            cols = [B.index(t, i, j) for i in range(nt) for j in range(nt)]
            blockval = float(np.linalg.norm(z[np.ix_(rows, cols)]))
            fusion_rel[s, t] = not tol.is_zero(blockval, scale)

    # witness route: some subgroup irreducible gamma couples sigma to tau.
    # With left coinvariants and the (pi x sigma) o delta fusion order the
    # subgroup factor sits on the left leg: tau inside gamma (x) sigma.
    witness_rel = np.zeros((n_irr, n_irr), dtype=bool)
    for s in range(n_irr):
        acc = np.zeros(n_irr, dtype=int)
        for g in m.surviving:
            acc += tensor_mult(D, g, s, tol)
        witness_rel[s] = acc > 0

    agree = bool(np.array_equal(fusion_rel, support_rel)
                 and np.array_equal(witness_rel, support_rel))

    # positivity of delta(1_sub) against every block of the space
    T2 = tensor(B, B)
    ok = True
    for j in range(X.size):
        w = T2.mul_coeffs((DM @ m.support.coeffs),
                          T2.kron_coeffs(X.block_unit_in_dual(j).coeffs,
                                         B.unit_coeffs))
        if tol.is_zero(T2.norm_coeffs(w), scale):
            ok = False

    return VergniouxRelation(fusion_rel, witness_rel, support_rel,
                             _relation_classes(support_rel), agree, ok)
