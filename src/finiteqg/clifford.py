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

Each reader takes the homogeneous space X and its orbit relation P that
the caller built once, and builds neither itself.

Normality means that the left and right coinvariants coincide, as
``orbits.coinvariant_normality`` tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Checks, as_tolerance, distance_to_span,
                   nonnegative_integers, pair_products, tensor)
from .duality import DiscreteQG
from .hopf import HopfData
# NormalityError is raised here, through the normality record
from .orbits import (HomogeneousSpace, MorphismError, NormalityError,
                     OrbitPartition, _relation_classes, coinvariant_normality,
                     hopf_surjection_checks, subgroup_from_dual_matrix)


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
    (m, d), r = K.shape, rho.shape[0]
    if m * r != d:
        raise MorphismError(
            f"coinvariants have dimension {m}, expected {d}/{r}")
    # the coinvariants must be a Hopf *-subalgebra; K has orthonormal rows,
    # so P = K^H K projects onto their span, and P^T V P projects delta(k),
    # as the (d, d) matrix V, onto K x K, one leg at a time
    P = K.conj().T @ K
    V = (K @ H.delta.matrix.T).reshape(m, d, d)
    worst = float(np.max([
        distance_to_span(K, A.star_coeffs(K)),
        distance_to_span(K, K @ H.antipode.matrix.T),
        distance_to_span(K, pair_products(A, K, K)),
        np.linalg.norm(V - P.T @ V @ P, axis=(-2, -1)).max()]))
    if not tol.is_zero(worst):
        raise MorphismError(
            f"coinvariants fail to be a Hopf subalgebra (residual {worst:.3e})")

    checks = Checks({**surjection.residuals, **normality.residuals,
                     "coinvariant_subalgebra": worst}, tol,
                    surjection.scales, MorphismError)
    return subgroup_from_dual_matrix(D, K, tol), checks


@dataclass(eq=False)
class RestrictionTable:
    """Integer multiplicities of ambient irreducibles over the blocks of a
    homogeneous space, with the flags ``one_orbit_per_row`` and
    ``dimension_count`` in its record: mult[k, i] is the multiplicity of
    block i of the space inside irreducible k."""

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
    vals = D.dual_algebra.block_traces(
        np.stack([X.wd.units(i)[0, 0] for i in range(X.size)])).T
    mult = nonnegative_integers(vals, "restriction multiplicity")

    class_sets = [set(c) for c in partition.classes]
    one_orbit = all(set(np.flatnonzero(row).tolist()) in class_sets
                    for row in mult)
    dims_ok = np.array_equal(mult @ X.block_dims, D.irr_dims)
    return RestrictionTable(mult, Checks({}, tol, flags={
        "one_orbit_per_row": one_orbit, "dimension_count": dims_ok}))


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
    dims = np.array(X.block_dims)
    # traces[i][a, b, k]: the trace of ambient block k of e^(i)_ab
    traces = [D.dual_algebra.block_traces(X.wd.units(i))
              for i in range(X.size)]
    dims_ok = all(len({int(dims[i]) for i in cls}) == 1
                  for cls in partition.classes)
    mult_ok = True
    constants = {}
    devs = []
    for k in range(len(D.irr_dims)):
        for ci, cls in enumerate(partition.classes):
            vals = {int(table.mult[k, i]) for i in cls}
            if len(vals) != 1:
                mult_ok = False
                continue
            mval = vals.pop()
            if mval == 0:
                continue
            c = mval / float(dims[cls[0]])
            constants[(k, ci)] = c
            # trace of the k-block is c * Markov trace on the class corner
            for i in cls:
                markov = np.where(np.eye(dims[i]), c * int(dims[i]), 0.0)
                devs.append(np.abs(traces[i][..., k] - markov).max())
    # np.max keeps a NaN residual, where max() would drop it
    return constants, Checks(
        {"markov_trace_proportionality": float(np.max(devs, initial=0.0))},
        tol, flags={"dims_constant_on_classes": dims_ok,
                    "mults_constant_on_classes": mult_ok})


@dataclass(eq=False)
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


def vergnioux_relation(D: DiscreteQG, X: HomogeneousSpace,
                       P: OrbitPartition, tol=None) -> VergniouxRelation:
    """sigma ~ tau iff (sigma x tau^c) delta(1_sub) != 0, iff some
    subgroup irreducible gamma has tau inside sigma (x) gamma, iff sigma
    and tau hit a common block of X, the homogeneous space of the
    subgroup ``X.morphism``.

    All three routes are computed and compared entrywise.  The classes
    must also be the orbit classes carried to the ambient side: the union
    of the block supports over each class of P, the orbit relation of X.
    """
    tol = as_tolerance(tol)
    B = D.dual_algebra
    n_irr = len(D.irr_dims)

    # support route: hit[i, k] when block i of X meets irreducible k
    hit = X.block_supports(tol)
    support_rel = (hit[:, :, None] & hit[:, None]).any(axis=0)

    # fusion route through the support projection of the subgroup: the
    # norm of every (sigma, tau) block of z in one reduction
    delta_one = D.dual_hopf.delta.matrix @ X.morphism.support
    # the antipode applied to the right leg
    z = delta_one.reshape(B.dim, B.dim) @ D.dual_hopf.antipode.matrix.T
    scale = float(np.linalg.norm(z))
    k = B.unindex(np.arange(B.dim))[0]
    blocknorms = np.sqrt(np.bincount(
        (k[:, None] * n_irr + k).ravel(), (np.abs(z) ** 2).ravel(),
        n_irr * n_irr)).reshape(n_irr, n_irr)
    fusion_rel = ~tol.is_zero(blocknorms, scale)

    # witness route: some subgroup irreducible gamma couples sigma to tau.
    # With left coinvariants and the (pi x sigma) o delta fusion order the
    # subgroup factor sits on the left leg: tau inside gamma (x) sigma.
    witness_rel = D.fusion_table[X.morphism.surviving].sum(axis=0) > 0

    agree = bool(np.array_equal(fusion_rel, support_rel)
                 and np.array_equal(witness_rel, support_rel))
    classes = _relation_classes(support_rel)
    linked = sorted(np.flatnonzero(hit[cls].any(axis=0)).tolist()
                    for cls in P.classes)

    # positivity of delta(1_sub) against every block of the space
    T2 = tensor(B, B)
    ok = not any(tol.is_zero(T2.norm_coeffs(T2.mul_coeffs(
        delta_one, T2.kron_coeffs(p, B.unit_coeffs))), scale)
        for p in X.wd.central_idempotents)

    return VergniouxRelation(fusion_rel, witness_rel, support_rel, classes,
                             Checks({}, tol, flags={
                                 "fusion_equals_support": agree,
                                 "support_projection_positivity": ok,
                                 "orbit_classes_match_vergnioux":
                                     linked == classes}))
