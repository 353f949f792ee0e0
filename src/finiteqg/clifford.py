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
  space".  Both routes are computed independently and compared entrywise,
  and its classes are checked against the orbit relation: the union of
  the block supports over each orbit class is one fusion class.

Normality means that the left and right coinvariants coincide, as
``orbits.coinvariant_normality`` tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_SEED, INTEGER_SLACK, CheckError, Checks,
                   as_tolerance, distance_to_span, pair_products, tensor)
from .duality import DiscreteQG, tensor_mult
from .hopf import HopfData
# NormalityError is raised here, through the normality record
from .orbits import (HomogeneousSpace, MorphismError, NormalityError,
                     OrbitPartition, SubgroupMorphism, _relation_classes,
                     coinvariant_normality, homogeneous_action,
                     homogeneous_space, hopf_surjection_checks, relation,
                     subgroup_from_dual_matrix)


def quotient_subgroup(H: HopfData, D: DiscreteQG, rho, tol=None):
    """Subgroup of the dual attached to a normal quantum subgroup of G.

    ``rho`` is a verified Hopf *-surjection Pol(G) -> Pol(H); the returned
    morphism is the restriction-of-functionals surjection from l^inf of
    the dual onto l^inf of the dual of the coinvariant subalgebra
    {a : (id x rho) delta(a) = a x 1}.  ``hopf_surjection_checks`` judges
    rho first (``MorphismError``); then ``NormalityError`` is raised when H
    is not normal, that is when these differ from the left coinvariants,
    and ``MorphismError`` when they are not a Hopf *-subalgebra.  The
    quotient Pol(H) has dimension rank(rho), the number of rows.

    Returns the morphism and the record of rho: the residuals of
    ``hopf_surjection_checks`` at their scales, ``coinvariant_distance``
    and ``coinvariant_subalgebra`` (how far the coinvariants are from a
    Hopf *-subalgebra).
    """
    tol = as_tolerance(tol)
    rho = np.asarray(rho, dtype=complex)
    surjection = hopf_surjection_checks(H, rho, tol)
    _, K, normality = coinvariant_normality(H, rho, tol)
    normality.raise_for_failure("subgroup is not normal")

    A = H.algebra
    m, r = K.shape[0], rho.shape[0]
    if m * r != A.dim:
        raise MorphismError(
            f"coinvariants have dimension {m}, expected {A.dim}/{r}")
    # the coinvariants must be a Hopf *-subalgebra; K has orthonormal rows,
    # so the rows of kron(K, K) are an orthonormal basis of K x K
    worst = float(np.max([
        distance_to_span(K, A.star_coeffs(K)),
        distance_to_span(K, K @ H.antipode.matrix.T),
        distance_to_span(K, pair_products(A, K, K)),
        distance_to_span(np.kron(K, K), K @ H.delta.matrix.T)]))
    if not tol.is_zero(worst):
        raise MorphismError(
            f"coinvariants fail to be a Hopf subalgebra (residual {worst:.3e})")

    checks = Checks({**surjection.residuals, **normality.residuals,
                     "coinvariant_subalgebra": worst}, tol,
                    surjection.scales, MorphismError)
    return subgroup_from_dual_matrix(D, K, tol), checks


@dataclass
class RestrictionTable:
    """Integer multiplicities of ambient irreducibles over the blocks of a
    homogeneous space, with the flags ``one_orbit_per_row`` and
    ``dimension_count`` in its record."""

    row_labels: list
    col_dims: list
    mult: np.ndarray
    checks: Checks

    def __repr__(self):
        return f"RestrictionTable({self.mult.tolist()})"


def restriction_table(D: DiscreteQG, X: HomogeneousSpace,
                      partition: OrbitPartition,
                      tol=None) -> RestrictionTable:
    """Multiplicity of each homogeneous-space block inside each ambient
    irreducible: mult = trace of the ambient block at the space's first
    diagonal matrix unit.  Values must round to integers within
    ``INTEGER_SLACK``.  The flag ``one_orbit_per_row`` reads the classes
    of ``partition``, the orbit relation of X."""
    tol = as_tolerance(tol)
    B = D.dual_algebra
    n_rows = len(D.irr_dims)
    n_cols = X.size
    mult = np.zeros((n_rows, n_cols), dtype=int)
    for i in range(n_cols):
        mats = B.block_matrices(X.wd.units(i)[0, 0])
        for k in range(n_rows):
            val = complex(np.trace(mats[k]))
            r = int(round(val.real))
            if abs(val - r) > INTEGER_SLACK or r < 0:
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
                            Checks({}, tol, flags={
                                "one_orbit_per_row": one_orbit,
                                "dimension_count": dims_ok}))


def kac_constancy_check(D: DiscreteQG, X: HomogeneousSpace,
                        table: RestrictionTable, partition: OrbitPartition,
                        tol=None):
    """Within each orbit class: equal block dimensions, equal row
    multiplicities, and the compressed trace proportional to the Markov
    trace e_kl -> delta_kl * dim with a single constant per row.

    Returns the constants, (row, class index) -> c with c * m = mult, and
    the record: flags ``dims_constant_on_classes`` and
    ``mults_constant_on_classes``, residual
    ``markov_trace_proportionality``."""
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
                units = X.wd.units(i)
                for a in range(n):
                    for b in range(n):
                        tr = complex(np.trace(
                            B.block_matrices(units[a, b])[k]))
                        want = c * n if a == b else 0.0
                        devs.append(abs(tr - want))
    # np.max keeps a NaN residual, where max() would drop it
    return constants, Checks(
        {"markov_trace_proportionality": float(np.max(devs, initial=0.0))},
        tol, flags={"dims_constant_on_classes": dims_ok,
                    "mults_constant_on_classes": mult_ok})


@dataclass
class VergniouxRelation:
    """The subgroup-fusion relation on ambient irreducibles, computed by
    the fusion, witness and support routes, and its record: the flags
    ``fusion_equals_support`` (the three routes agree),
    ``support_projection_positivity`` (delta(1_sub)(1_j x 1) != 0 for
    every block j) and ``orbit_classes_match_vergnioux`` (the orbit
    classes' supports are its classes)."""

    fusion: np.ndarray
    witness: np.ndarray
    support: np.ndarray
    classes: list
    checks: Checks


def vergnioux_relation(D: DiscreteQG, m: SubgroupMorphism, tol=None,
                       seed: int = DEFAULT_SEED) -> VergniouxRelation:
    """sigma ~ tau iff (sigma x tau^c) delta(1_sub) != 0, iff some
    subgroup irreducible gamma has tau inside sigma (x) gamma, iff sigma
    and tau hit a common block of the homogeneous space.

    All three routes are computed and compared entrywise.  The classes
    must also be the orbit classes carried to the ambient side: the union
    of the block supports over each class of the orbit relation.
    """
    tol = as_tolerance(tol)
    B = D.dual_algebra
    n_irr = len(D.irr_dims)
    X = homogeneous_space(D, m, tol, seed)
    P = relation(homogeneous_action(D, X, tol), tol)

    # support route
    supports = X.block_supports(tol)
    support_rel = np.zeros((n_irr, n_irr), dtype=bool)
    for s in supports:
        for a in s:
            for b in s:
                support_rel[a, b] = True

    # fusion route through the support projection of the subgroup
    delta_one = D.dual_hopf.delta.matrix @ m.support.coeffs
    SM = D.dual_hopf.antipode.matrix
    y = delta_one.reshape(B.dim, B.dim)
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
    classes = _relation_classes(support_rel)
    linked = sorted(sorted(frozenset().union(*(supports[i] for i in cls)))
                    for cls in P.classes)

    # positivity of delta(1_sub) against every block of the space
    T2 = tensor(B, B)
    ok = True
    for j in range(X.size):
        w = T2.mul_coeffs(delta_one, T2.kron_coeffs(
            X.block_unit_in_dual(j).coeffs, B.unit_coeffs))
        if tol.is_zero(T2.norm_coeffs(w), scale):
            ok = False

    return VergniouxRelation(fusion_rel, witness_rel, support_rel, classes,
                             Checks({}, tol, flags={
                                 "fusion_equals_support": agree,
                                 "support_projection_positivity": ok,
                                 "orbit_classes_match_vergnioux":
                                     linked == classes}))
