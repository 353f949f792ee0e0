"""Orbits of finite quantum group actions on multi-matrix algebras.

Central objects:

* ``hopf_surjection_checks`` -- the residuals that a surjection's kernel
  is a Hopf *-ideal, so that the quotient is a Hopf *-algebra.  It is the
  one quotient check, and it builds no quotient: a quantum subgroup of
  the dual (a ``pi`` subgroup file) and a Hopf *-surjection
  Pol(G) -> Pol(H) (a ``hopf_surjection`` file) both pass through it;
* ``coinvariant_normality`` -- the one normality test: a quantum
  subgroup is normal when its left and right coinvariants coincide
  (equivalent to the other usual definitions by S. Wang, *Equivalent
  notions of normal quantum subgroups, compact quantum groups with
  properties F and FD, and other applications*, J. Algebra 2014).  Both
  subgroup formats are judged by it;
* ``SubgroupMorphism`` -- a surjection pi: l^inf(dual) -> l^inf(subgroup)
  intertwining the coproducts, together with its support projection, its
  surviving blocks, its surjection record and its normality record;
* ``HomogeneousSpace`` -- the coinvariant subalgebra
  {x : (pi x id) delta(x) = 1 x x} with its own block decomposition and
  the ambient supports of its blocks;
* ``ActionMap`` -- a coaction N -> N x Pol(G) on a direct sum of matrix
  blocks, optionally regrouped into coarser summands; ``verify`` is the
  one coaction check (``core.coaction_residuals``), and
  ``hopf.verify_hopf`` checks the coproduct with it as the regular
  coaction of G on itself;
* ``OrbitPartition`` -- the orbit relation: summands i, j are related when
  the component of the action between them is non-zero.

The relation is symmetric for any action; it is an equivalence relation
when every summand is a single matrix block, and the class sums of block
units are exactly the invariant projections.  For homogeneous spaces the
class sums are central supports inside the ambient discrete dual, which
``central_supports`` verifies explicitly.
A map on one tensor leg is a contraction on that leg: no Kronecker
matrix of a map with an identity or a selection matrix is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import duality, wedderburn
from .core import (AlgElement, BlockAlgebra, CheckError, Checks,
                   LinMap, DEFAULT_SEED, as_tolerance, coaction_residuals,
                   nullspace, numerical_rank, distance_to_span, opnorm,
                   pair_products, tensor)

if TYPE_CHECKING:
    from .duality import DiscreteQG
    from .hopf import HopfData
    from .wedderburn import WedderburnData


class MorphismError(CheckError):
    pass


class NormalityError(CheckError):
    pass


def hopf_surjection_checks(H: HopfData, rho, tol=None) -> Checks:
    """The checks that the matrix rho is a Hopf *-surjection of H.

    ``rho`` is an r x dim(H) matrix on the basis of H.  It must be
    surjective, and its kernel must be a Hopf *-ideal: a two-sided ideal
    closed under the involution and the antipode, killed by the counit and
    by (rho x rho) delta.  The quotient by such an ideal is a Hopf
    *-algebra, so these residuals are all the quotient needs.  Every check
    is judged at eps * (1 + ||rho||^2); the record raises
    ``MorphismError`` before it is returned.
    """
    tol = as_tolerance(tol)
    A = H.algebra
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[1] != A.dim:
        raise MorphismError("surjection matrix has the wrong shape")
    r, d = rho.shape
    if r == 0:
        raise MorphismError("surjection matrix has no rows: no Hopf "
                            "*-surjection targets the zero algebra")
    # the rank SVD below would raise LinAlgError on a NaN or inf
    if not np.isfinite(rho).all():
        raise MorphismError("surjection matrix is not finite")
    sv = np.linalg.svd(rho, compute_uv=False)
    if numerical_rank(sv, tol) != r:
        raise MorphismError("matrix is not surjective")

    # a huge rho overflows to an inf scale or residual, which fails below
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.square(sv[0])
        # (rho x rho) delta, one leg at a time on D3[i, j, k]
        D3 = H.delta.matrix.reshape(d, d, d)
        pipi_delta = np.tensordot(rho, rho @ D3, 1).reshape(r * r, d)
        delta_q = pipi_delta @ np.linalg.pinv(rho)
        res = {"intertwines_coproduct": float(
            opnorm(pipi_delta - delta_q @ rho))}
        ker = nullspace(rho, tol)
        if ker.shape[0]:
            # k e_p, then e_p k, for every kernel vector k and basis e_p
            eye = np.eye(d)
            prods = np.concatenate(
                [pair_products(A, ker, eye),
                 pair_products(A, eye, ker).swapaxes(0, 1)], axis=1)
            res["kernel_ideal"] = float(
                np.max(np.linalg.norm(prods @ rho.T, axis=-1)))
            res["kernel_star"] = float(
                opnorm(rho @ A.star_matrix @ np.conj(ker.T)))
            res["kernel_coproduct"] = float(opnorm(pipi_delta @ ker.T))
            res["kernel_counit"] = float(np.linalg.norm(H.counit @ ker.T))
            res["kernel_antipode"] = float(
                opnorm(rho @ H.antipode.matrix @ ker.T))
    checks = Checks(res, tol, dict.fromkeys(res, scale), MorphismError)
    checks.raise_for_failure("matrix is not a Hopf *-surjection")
    return checks


@dataclass(eq=False)
class SubgroupMorphism:
    """A quantum subgroup of the discrete dual, given by the surjection pi.

    ``matrix`` maps block coordinates of l^inf(dual) onto the subgroup's
    coordinates; ``support`` is the central projection carrying the
    subgroup (the kernel of pi is its complementary ideal); ``surviving``
    lists the ambient blocks that pi keeps, which is also the embedding of
    the subgroup's irreducibles into the ambient ones; ``coinvariants`` is
    the left coinvariant basis.  ``surjection`` is the record of
    ``hopf_surjection_checks`` (pi is a Hopf *-surjection, so the quotient
    is never built) and ``normality`` that of ``coinvariant_normality``.
    """

    dqg: DiscreteQG
    matrix: np.ndarray
    support: AlgElement
    surviving: list
    coinvariants: np.ndarray
    surjection: Checks
    normality: Checks

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    @property
    def normal(self) -> bool:
        return self.normality.passed

    def __repr__(self):
        return (f"SubgroupMorphism(dim {self.rank} of {self.dqg!r}, "
                f"normal={self.normal})")


def subgroup_from_dual_matrix(D: DiscreteQG, pi_dual, tol=None,
                              in_block_coords=False) -> SubgroupMorphism:
    """Build and verify a subgroup morphism from its matrix.

    By default the matrix is given on the raw dual basis (the coordinates
    used by subgroup files); pass ``in_block_coords=True`` when the matrix
    already acts on canonical block coordinates.  The kernel of pi must be
    the sum of the blocks pi kills; the Hopf *-ideal checks come from
    ``hopf_surjection_checks``.
    """
    tol = as_tolerance(tol)
    B = D.dual_algebra
    pi_dual = np.asarray(pi_dual, dtype=complex)
    if pi_dual.ndim != 2 or pi_dual.shape[1] != B.dim:
        raise MorphismError("pi matrix has the wrong shape")
    pi = pi_dual.copy() if in_block_coords else pi_dual @ D.block_to_dual
    r = pi.shape[0]
    if r == 0:
        raise MorphismError("pi matrix has no rows: no Hopf *-surjection "
                            "targets the zero algebra")

    scale = float(opnorm(pi))
    # pi(p_i) is the trace of block i of each row; an image too large for
    # a float has the norm inf, and its block survives
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(B.block_traces(pi), axis=0)
    surviving = np.flatnonzero(~tol.is_zero(norms, scale)).tolist()
    corner_dim = sum(B.block_dims[i] ** 2 for i in surviving)
    if corner_dim != r:
        raise MorphismError(
            f"kernel of pi is not an ideal of full blocks: corner dim "
            f"{corner_dim} != rank {r}")

    # pi must kill every matrix unit outside the surviving blocks
    dead = [i for i in range(len(B.block_dims)) if i not in surviving]
    if dead:
        worst = float(np.abs(pi[:, B.block_indices(dead)]).max())
        if not tol.is_zero(worst, scale):
            raise MorphismError(
                f"pi does not vanish on the complementary ideal ({worst:.3e})")

    surjection = hopf_surjection_checks(D.dual_hopf, pi, tol)
    support = sum(map(D.block_projection, surviving[1:]),
                  D.block_projection(surviving[0]))
    left, _, normality = coinvariant_normality(D.dual_hopf, pi, tol)
    return SubgroupMorphism(D, pi, support, surviving, left, surjection,
                            normality)


def full_subgroup(D: DiscreteQG, tol=None) -> SubgroupMorphism:
    return subgroup_from_dual_matrix(D, np.eye(D.dual_algebra.dim), tol,
                                     in_block_coords=True)


def trivial_subgroup(D: DiscreteQG, tol=None) -> SubgroupMorphism:
    return subgroup_from_dual_matrix(D, D.dual_hopf.counit[None, :], tol,
                                     in_block_coords=True)


def _coinvariants(H: HopfData, rho, side: str, tol):
    """Coinvariants of H under the surjection rho:
    {x : (rho x id) delta(x) = 1 x x} on the left side,
    {x : (id x rho) delta(x) = x x 1} on the right side.  rho acts on
    one leg of D3[i, j, k], the coefficient of e_i x e_j in delta(e_k)."""
    eye = np.eye(H.dim)
    D3 = H.delta.matrix.reshape((H.dim,) * 3)
    unit_q = rho @ H.algebra.unit_coeffs
    if side == "left":
        cond = np.tensordot(rho, D3, 1) - unit_q[:, None, None] * eye
    else:
        cond = rho @ D3 - eye[:, None] * unit_q[:, None]
    return nullspace(cond.reshape(-1, H.dim), tol)


def coinvariant_normality(H: HopfData, pi, tol=None):
    """The left and right coinvariant bases of H under the surjection pi,
    and the normality record: its one residual is the larger of the two
    distances between their spans, zero exactly when they coincide.

    Spans of different dimensions need no check of their own: an
    orthonormal basis of the larger one then sits at distance at least
    1/sqrt(dim) from the smaller.  The record raises ``NormalityError``.
    """
    tol = as_tolerance(tol)
    left = _coinvariants(H, pi, "left", tol)
    right = _coinvariants(H, pi, "right", tol)
    gap = float(np.max([distance_to_span(right, left),
                        distance_to_span(left, right)]))
    return left, right, Checks({"coinvariant_distance": gap}, tol,
                               error=NormalityError)


@dataclass(eq=False)
class HomogeneousSpace:
    """The coinvariant subalgebra of the dual under a subgroup morphism:
    the span of ``morphism.coinvariants`` inside l^inf(dual), with its
    block decomposition ``wd`` there."""

    morphism: SubgroupMorphism
    wd: WedderburnData

    @property
    def block_dims(self):
        return self.wd.block_dims

    @property
    def block_algebra(self) -> BlockAlgebra:
        return self.wd.block_algebra

    @property
    def size(self) -> int:
        return len(self.wd.block_dims)

    def block_unit_in_dual(self, i: int) -> AlgElement:
        return AlgElement(self.wd.ambient, self.wd.central_idempotents[i])

    def block_supports(self, tol=None) -> list:
        """For each block i, as a frozenset, the ambient irreducibles k
        with 1_k 1_i != 0: block k of 1_i, or every k when 1_i has a NaN
        or inf coefficient."""
        tol = as_tolerance(tol)
        rows = self.wd.central_idempotents
        blocks = self.morphism.dqg.dual_algebra.block_matrices(rows)
        zero = np.stack([tol.is_zero(opnorm(b)) for b in blocks], axis=-1)
        zero &= np.isfinite(rows).all(axis=1, keepdims=True)
        return [frozenset(np.flatnonzero(~z).tolist()) for z in zero]

    def __repr__(self):
        return f"HomogeneousSpace(blocks={list(self.block_dims)})"


def homogeneous_space(D: DiscreteQG, m: SubgroupMorphism, tol=None,
                      seed: int = DEFAULT_SEED) -> HomogeneousSpace:
    """Decompose {x : (pi x id) delta(x) = 1 x x}, the left coinvariants
    the morphism solved when it was built."""
    tol = as_tolerance(tol)
    basis = m.coinvariants
    if basis.shape[0] * m.rank != D.dual_algebra.dim:
        raise MorphismError(
            f"coinvariant dimension {basis.shape[0]} does not match "
            f"dim(dual)/dim(sub) = {D.dual_algebra.dim}/{m.rank}")
    gens = [AlgElement(D.dual_algebra, v) for v in basis]
    # raises unless a *-closed unital span
    wd = wedderburn.decompose(gens, tol, seed)
    return HomogeneousSpace(m, wd)


@dataclass(eq=False)
class ActionMap:
    """A coaction alpha: N -> N x Pol(G) on a multi-matrix algebra N.

    ``summands`` partitions the blocks of N into the direct summands M_i
    the orbit relation refers to; by default every block is its own
    summand (all summands are factors).
    """

    hopf: HopfData
    module: BlockAlgebra
    alpha: LinMap
    summands: list

    def __post_init__(self):
        if self.summands is None:
            self.summands = [[b] for b in range(len(self.module.block_dims))]
        empty = [i for i, g in enumerate(self.summands) if len(g) == 0]
        if empty:
            raise ValueError(f"summands {empty} are empty: every summand "
                             "must hold at least one module block")
        got = sorted(b for g in self.summands for b in g)
        if got != list(range(len(self.module.block_dims))):
            raise ValueError("summands must partition the module blocks")

    @property
    def size(self) -> int:
        return len(self.summands)

    def summand_projection(self, i: int) -> AlgElement:
        first, *rest = self.summands[i]
        return sum(map(self.module.block_unit, rest),
                   self.module.block_unit(first))

    def component_norm(self, j: int, image) -> float:
        """Norm of the rows of summand j of ``image`` = alpha(x); for
        x = 1_i it is the (j, i) component alpha_{ji}(1_i) of the action."""
        Y = image.reshape(self.module.dim, self.hopf.dim)
        cut = np.zeros_like(Y)
        rows = self.module.block_indices(self.summands[j])
        cut[rows, :] = Y[rows, :]
        return self.alpha.codomain.norm_coeffs(cut.reshape(-1))

    def verify(self, tol=None) -> Checks:
        """The unit, product, involution, coaction and counit residuals of
        the action matrix (``coaction_residuals``), each at the scale
        1 + ||alpha||^2; raises on failure.  Injectivity needs no check of
        its own: the counit identity (id x eps) alpha = id implies it."""
        tol = as_tolerance(tol)
        A, am = self.hopf, self.alpha.matrix
        # a NaN, inf or huge action meets inf - inf, 0 * inf or overflow on
        # its way to a NaN or inf residual or scale, which fails below
        with np.errstate(over="ignore", invalid="ignore"):
            res = coaction_residuals(self.module, self.alpha.codomain, am,
                                     A.delta.matrix, A.counit)
            scale = 1.0 + np.square(opnorm(am))
        checks = Checks(res, tol, dict.fromkeys(res, scale))
        checks.raise_for_failure(
            "not a coaction" if np.isfinite(am).all()
            else "not a coaction: the action matrix is not finite")
        return checks

    def restrict_to_blocks(self, blocks, tol=None) -> "ActionMap":
        """The restriction of the action to an invariant corner sum of
        blocks: the rows of the kept units' images on the corner's leg.
        The residual is the norm of the rows that escape the corner."""
        tol = as_tolerance(tol)
        blocks = sorted(blocks)
        N, d_a = self.module, self.hopf.dim
        sub = BlockAlgebra([N.block_dims[b] for b in blocks])
        cols = N.block_indices(blocks)
        rhs = self.alpha.matrix[:, cols].reshape(N.dim, d_a, sub.dim)
        sol = rhs[cols].reshape(sub.dim * d_a, sub.dim)
        res = float(opnorm(np.delete(rhs, cols, axis=0).reshape(-1, sub.dim)))
        if not tol.is_zero(res, float(opnorm(rhs.reshape(-1, sub.dim)))):
            raise CheckError("blocks do not carry an invariant corner "
                             f"(residual {res:.3e})")
        return ActionMap(self.hopf, sub,
                         LinMap(sub, tensor(sub, self.hopf.algebra), sol),
                         [[b] for b in range(len(blocks))])


@dataclass(eq=False)
class OrbitPartition:
    """The orbit relation of an action, its classes, the class sums of
    summand units and the checks of ``relation``."""

    relation: np.ndarray
    classes: list
    invariant_projections: list
    checks: Checks

    def class_of(self, i: int):
        for c in self.classes:
            if i in c:
                return c
        raise KeyError(i)

    def __repr__(self):
        return f"OrbitPartition(classes={self.classes})"


def _relation_classes(rel: np.ndarray) -> list:
    """Classes of the equivalence relation generated by a boolean relation
    matrix: the distinct rows of the reachability closure of
    rel | rel.T | I, found by squaring it until it stops changing; each
    class and the list sorted."""
    reach = rel | rel.T | np.eye(rel.shape[0], dtype=bool)
    while not np.array_equal(step := reach @ reach, reach):
        reach = step
    return sorted(map(list, {tuple(np.flatnonzero(row).tolist())
                             for row in reach}))


def relation(alpha: ActionMap, tol=None) -> OrbitPartition:
    """Compute the orbit relation of a verified action.

    relation[j, i] is true when the component alpha_{ji}(1_i) is non-zero;
    classes are those of the equivalence relation it generates.  The
    record holds the flags ``relation_symmetric`` (true for any action)
    and ``relation_equivalence`` (expected when every summand is a single
    matrix block), and the residual ``invariant_projections``: the largest
    norm of alpha(p) - p x 1 over the class sums p.
    """
    tol = as_tolerance(tol)
    m = alpha.size
    scale = float(opnorm(alpha.alpha.matrix))
    rel = np.zeros((m, m), dtype=bool)
    for i in range(m):
        image = alpha.alpha.matrix @ alpha.summand_projection(i).coeffs
        for j in range(m):
            rel[j, i] = not tol.is_zero(alpha.component_norm(j, image), scale)

    symmetric = bool(np.array_equal(rel, rel.T))
    reflexive = bool(np.all(np.diag(rel)))
    sym = rel | rel.T
    transitive = bool(np.all((sym.astype(int) @ sym.astype(int) > 0) <= sym))

    classes = _relation_classes(rel)

    T = alpha.alpha.codomain
    one_a = alpha.hopf.algebra.unit_coeffs
    projections = [sum(map(alpha.summand_projection, cls[1:]),
                       alpha.summand_projection(cls[0])) for cls in classes]
    devs = [T.norm_coeffs(alpha.alpha.matrix @ p.coeffs
                          - T.kron_coeffs(p.coeffs, one_a))
            for p in projections]
    # np.max keeps a NaN residual, where max() would drop it
    checks = Checks(
        {"invariant_projections": float(np.max(devs, initial=0.0))}, tol,
        flags={"relation_symmetric": symmetric,
               "relation_equivalence": symmetric and reflexive and transitive})
    return OrbitPartition(rel, classes, projections, checks)


def homogeneous_action(D: DiscreteQG, X: HomogeneousSpace,
                       tol=None) -> ActionMap:
    """The action x -> W (x x 1) W* of the quantum group on the
    homogeneous space, expressed on the space's own block coordinates:
    the conjugates of all its matrix units, one stack, solved on the
    first leg against the embedding E = ``X.wd.iso.matrix`` of X."""
    tol = as_tolerance(tol)
    A = D.primal.algebra
    B = D.dual_algebra
    T = tensor(B, A)
    W = duality.mult_unitary(D, tol).element
    Xalg = X.block_algebra
    E = X.wd.iso.matrix
    x_amb = (E.T[:, :, None] * A.unit_coeffs).reshape(Xalg.dim, T.dim)
    conj = T.mul_coeffs(T.mul_coeffs(W.coeffs, x_amb), W.star().coeffs)
    rhs = conj.T.reshape(B.dim, A.dim * Xalg.dim)
    sol, *_ = np.linalg.lstsq(E, rhs, rcond=None)
    res = float(opnorm((E @ sol - rhs).reshape(B.dim * A.dim, Xalg.dim)))
    if not tol.is_zero(res, float(opnorm(conj.T))):
        raise CheckError(
            f"conjugation escapes the homogeneous space (residual {res:.3e})")
    alpha = ActionMap(D.primal, Xalg,
                      LinMap(Xalg, tensor(Xalg, A),
                             sol.reshape(Xalg.dim * A.dim, Xalg.dim)),
                      [[b] for b in range(len(Xalg.block_dims))])
    alpha.verify(tol)
    return alpha


def central_supports(D: DiscreteQG, X: HomogeneousSpace, P: OrbitPartition,
                     tol=None):
    """Verify that class sums of block units are ambient central supports.

    For each block i of the homogeneous space, z(1_i) computed in the
    ambient dual must equal the sum of the units over the class of i;
    supports of related blocks must coincide, and central supports of
    unrelated blocks must be orthogonal: disjoint, as z(1_i) z(1_j) is
    the sum of the p_k in both supports.  A block unit with a NaN or inf
    coefficient decides no support: its z(1_i) is NaN and its support
    every block, so the class sum residual and orthogonality report it.
    Returns the ambient supports (a frozenset of ambient block indices
    per block), the z(1_i) as elements of the dual, and the record:
    residual ``central_support_class_sums``, flags
    ``central_support_orthogonality`` and ``supports_match_relation``.
    """
    tol = as_tolerance(tol)
    m = X.size
    supports = X.block_supports(tol)
    # z(1_i) is the sum of the ambient p_k with p_k 1_i != 0, ascending k
    B = D.dual_algebra
    zs = [sum((D.block_projection(k) for k in sorted(s)), B.zero())
          if np.isfinite(X.wd.central_idempotents[i]).all()
          else AlgElement(B, np.full(B.dim, np.nan))
          for i, s in enumerate(supports)]

    sums = []
    for cls in P.classes:
        s = sum(map(X.block_unit_in_dual, cls[1:]),
                X.block_unit_in_dual(cls[0]))
        sums.extend((zs[i] - s).norm() for i in cls)

    # hit[i, k]: ambient block k lies in the support of block i
    hit = np.array([[k in s for k in range(len(B.block_dims))]
                    for s in supports])
    same = P.relation | P.relation.T
    orthogonal = not ((hit[:, None] & hit).any(axis=-1) & ~same).any()
    match = np.array_equal((hit[:, None] == hit).all(axis=-1),
                           same | np.eye(m, dtype=bool))
    # np.max keeps a NaN residual, where max() would drop it
    checks = Checks(
        {"central_support_class_sums": float(np.max(sums, initial=0.0))},
        tol, flags={"central_support_orthogonality": orthogonal,
                    "supports_match_relation": match})
    return supports, zs, checks


def ergodicity(alpha: ActionMap, tol=None):
    """Basis of the fixed-point algebra and the ergodicity flag."""
    tol = as_tolerance(tol)
    N, A = alpha.module, alpha.hopf.algebra
    embed = np.kron(np.eye(N.dim), A.unit_coeffs[:, None])
    fixed = nullspace(alpha.alpha.matrix - embed, tol)
    return fixed, fixed.shape[0] == 1
