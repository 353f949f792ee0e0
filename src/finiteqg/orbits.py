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
  the ambient supports of its blocks as one boolean table;
* ``ActionMap`` -- a coaction N -> N x Pol(G) on a direct sum of matrix
  blocks, held as its read-only (dim N * dim A, dim N) matrix, optionally
  regrouped into coarser summands; its ``residuals`` are the one coaction
  check (``core.coaction_residuals``), computed once per action;
* ``OrbitPartition`` -- the orbit relation: summands i, j are related when
  the component of the action between them is non-zero.  All components
  are one table, from the block norms of the m images alpha(1_i).

The relation is symmetric for any action; it is an equivalence relation
when every summand is a single matrix block, and the class sums of block
units are exactly the invariant projections.  For homogeneous spaces the
class sums are central supports inside the ambient discrete dual, which
``central_supports`` verifies explicitly.  Every projection is returned
as its coefficient row, and every block is named by its index.
A map on one tensor leg is a contraction on that leg: no Kronecker
matrix of a map with an identity or a selection matrix is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import duality, wedderburn
from .core import (BlockAlgebra, CheckError, Checks, DEFAULT_SEED,
                   TensorAlgebra, as_tolerance, block_norms,
                   coaction_residuals, distance_to_span, nullspace,
                   numerical_rank, opnorm, pair_products, row_norms, tensor)

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
    coordinates; ``support`` is the coefficient row of the central
    projection carrying the subgroup (the kernel of pi is its
    complementary ideal); ``surviving`` lists the ambient blocks that pi
    keeps, which is also the embedding of the subgroup's irreducibles
    into the ambient ones; ``coinvariants`` is the left coinvariant
    basis.  ``surjection`` is the record of ``hopf_surjection_checks``
    (pi is a Hopf *-surjection, so the quotient is never built) and
    ``normality`` that of ``coinvariant_normality``.
    """

    dqg: DiscreteQG
    matrix: np.ndarray
    support: np.ndarray
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
    support = _unit_rows(B, [surviving])[0]
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
    def size(self) -> int:
        return len(self.wd.block_dims)

    def block_supports(self, tol=None) -> np.ndarray:
        """The (blocks x irreducibles) boolean table: entry [i, k] is
        true when the ambient irreducible k has 1_k 1_i != 0, that is when
        block k of 1_i has a non-zero ``block_norms``, or for every k when
        1_i has a NaN or inf coefficient."""
        tol = as_tolerance(tol)
        rows = self.wd.central_idempotents
        blocks = self.morphism.dqg.dual_algebra.block_matrices(rows)
        zero = tol.is_zero(np.stack([block_norms(b) for b in blocks], axis=-1))
        return ~(zero & np.isfinite(rows).all(axis=1, keepdims=True))

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
    # raises unless a *-closed unital span
    wd = wedderburn.decompose(D.dual_algebra, basis, tol, seed)
    return HomogeneousSpace(m, wd)


@dataclass(eq=False)
class ActionMap:
    """A coaction alpha: N -> N x Pol(G) on a multi-matrix algebra N.

    Column k of ``matrix`` is alpha(e_k) in ``codomain`` = N x A; a
    matrix of any shape but (dim N * dim A, dim N) is a ``ValueError``.
    ``summands`` partitions the blocks of N into the direct summands M_i
    the orbit relation refers to; by default every block is its own
    summand (all summands are factors).
    """

    hopf: HopfData
    module: BlockAlgebra
    matrix: np.ndarray
    summands: list | None = None

    def __post_init__(self):
        if not isinstance(self.module, BlockAlgebra):
            raise TypeError("an action needs a BlockAlgebra module, not "
                            f"{type(self.module).__name__}")
        # read-only, so that the cached residuals cannot go stale
        self.matrix = np.array(self.matrix, dtype=complex)
        self.matrix.flags.writeable = False
        want = (self.module.dim * self.hopf.dim, self.module.dim)
        if self.matrix.shape != want:
            raise ValueError(f"action matrix has shape {self.matrix.shape}, "
                             f"expected {want} = (dim N * dim A, dim N)")
        if self.summands is None:
            self.summands = [[b] for b in range(len(self.module.block_dims))]
        empty = [i for i, g in enumerate(self.summands) if len(g) == 0]
        if empty:
            raise ValueError(f"summands {empty} are empty: every summand "
                             "must hold at least one module block")
        got = sorted(b for g in self.summands for b in g)
        if got != list(range(len(self.module.block_dims))):
            raise ValueError("summands must partition the module blocks")

    @cached_property
    def codomain(self) -> TensorAlgebra:
        return tensor(self.module, self.hopf.algebra)

    @property
    def size(self) -> int:
        return len(self.summands)

    @cached_property
    def residuals(self) -> dict:
        """The unit, product, involution, coaction and counit residuals of
        the action matrix (``coaction_residuals``), computed once.  A NaN,
        inf or huge action meets inf - inf, 0 * inf or overflow on its way
        to a NaN or inf residual or scale, which fails its check."""
        with np.errstate(over="ignore", invalid="ignore"):
            return coaction_residuals(self.module, self.codomain, self.matrix,
                                      self.hopf.delta.matrix,
                                      self.hopf.counit)

    def verify(self, tol=None) -> Checks:
        """The record of ``residuals``, each at the scale 1 + ||alpha||^2;
        raises on failure.  Injectivity needs no check of its own: the
        counit identity (id x eps) alpha = id implies it."""
        with np.errstate(over="ignore", invalid="ignore"):
            scale = 1.0 + np.square(opnorm(self.matrix))
        checks = Checks(dict(self.residuals), as_tolerance(tol),
                        dict.fromkeys(self.residuals, scale))
        checks.raise_for_failure(
            "not a coaction" if np.isfinite(self.matrix).all()
            else "not a coaction: the action matrix is not finite")
        return checks

    def restrict_to_blocks(self, blocks, tol=None) -> "ActionMap":
        """The restriction of the action to an invariant corner sum of
        blocks: the rows of the kept units' images on the corner's leg.
        The residual is the norm of the rows that escape the corner."""
        tol = as_tolerance(tol)
        blocks = sorted(blocks)
        if not blocks:
            raise ValueError("no blocks to restrict to: the block list is "
                             "empty")
        N, d_a = self.module, self.hopf.dim
        cols = N.block_indices(blocks)
        sub = BlockAlgebra([N.block_dims[b] for b in blocks])
        rhs = self.matrix[:, cols].reshape(N.dim, d_a, sub.dim)
        sol = rhs[cols].reshape(sub.dim * d_a, sub.dim)
        res = float(opnorm(np.delete(rhs, cols, axis=0).reshape(-1, sub.dim)))
        scale = float(opnorm(rhs.reshape(-1, sub.dim)))
        if not tol.is_zero(res, scale):
            raise CheckError("blocks do not carry an invariant corner "
                             f"(residual {res:.3e})")
        return ActionMap(self.hopf, sub, sol)


@dataclass(eq=False)
class OrbitPartition:
    """The orbit relation of an action, its classes, the class sums of
    summand units (one coefficient row each) and its record."""

    relation: np.ndarray
    classes: list
    invariant_projections: np.ndarray
    checks: Checks

    def __repr__(self):
        return f"OrbitPartition(classes={self.classes})"


def _unit_rows(N: BlockAlgebra, groups) -> np.ndarray:
    """Row r is the unit of N cut to the blocks in groups[r], the sum of
    their block units (exactly: every coefficient is 0 or 1)."""
    member = np.zeros((len(groups), len(N.block_dims)), dtype=bool)
    for r, g in enumerate(groups):
        member[r, g] = True
    return member[:, N.unindex(np.arange(N.dim))[0]] * N.unit_coeffs


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
    N, A, m = alpha.module, alpha.hopf.algebra, alpha.size
    scale = float(opnorm(alpha.matrix))
    units = _unit_rows(N, alpha.summands)
    images = np.stack([alpha.matrix @ u for u in units]).reshape(m, N.dim, -1)
    # norms[i, k] of the rows of image i in block k of N, in M_{n_k} x A,
    # one call per block size; alpha_{ji}(1_i) has their max over summand j
    norms = np.empty((m, len(N.block_dims)))
    for n in set(N.block_dims):
        ks = np.flatnonzero(np.equal(N.block_dims, n))
        norms[:, ks] = row_norms(tensor(BlockAlgebra([n]), A), images[
            :, N.block_indices(ks)].reshape(m, len(ks), -1))
    rel = ~tol.is_zero(np.stack([norms[:, g].max(axis=1)
                                 for g in alpha.summands]), scale)

    symmetric = bool(np.array_equal(rel, rel.T))
    reflexive = bool(np.all(np.diag(rel)))
    sym = rel | rel.T
    transitive = bool(np.all((sym.astype(int) @ sym.astype(int) > 0) <= sym))

    classes = _relation_classes(rel)

    T = alpha.codomain
    projections = np.stack([units[cls].sum(axis=0) for cls in classes])
    devs = np.stack([alpha.matrix @ p - T.kron_coeffs(p, A.unit_coeffs)
                     for p in projections])
    checks = Checks(
        {"invariant_projections": float(T.norm_coeffs(devs))}, tol,
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
    duality.mult_unitary(D, tol)
    w = D.dual_to_block.reshape(-1)
    Xalg = X.wd.block_algebra
    E = X.wd.iso.matrix
    x_amb = (E.T[:, :, None] * A.unit_coeffs).reshape(Xalg.dim, T.dim)
    conj = T.mul_coeffs(T.mul_coeffs(w, x_amb), T.star_coeffs(w))
    rhs = conj.T.reshape(B.dim, A.dim * Xalg.dim)
    sol, *_ = np.linalg.lstsq(E, rhs, rcond=None)
    res = float(opnorm((E @ sol - rhs).reshape(B.dim * A.dim, Xalg.dim)))
    if not tol.is_zero(res, float(opnorm(conj.T))):
        raise CheckError(
            f"conjugation escapes the homogeneous space (residual {res:.3e})")
    alpha = ActionMap(D.primal, Xalg, sol.reshape(Xalg.dim * A.dim, Xalg.dim))
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
    Returns the ambient supports (``X.block_supports``, the (blocks x
    irreducibles) boolean table), the z(1_i) as the (blocks x dim)
    coefficient array in the dual, and the record: residual
    ``central_support_class_sums``, flags ``central_support_orthogonality``
    and ``supports_match_relation``.
    """
    tol = as_tolerance(tol)
    m = X.size
    # hit[i, k]: ambient block k lies in the support of block i
    hit = X.block_supports(tol)
    # z(1_i) is the sum of the ambient p_k with p_k 1_i != 0
    B = D.dual_algebra
    units = X.wd.central_idempotents
    zs = np.where(np.isfinite(units).all(axis=1, keepdims=True),
                  _unit_rows(B, [np.flatnonzero(r) for r in hit]), np.nan)

    sums = np.stack([zs[i] - units[cls].sum(axis=0)
                     for cls in P.classes for i in cls])

    same = P.relation | P.relation.T
    orthogonal = not ((hit[:, None] & hit).any(axis=-1) & ~same).any()
    match = np.array_equal((hit[:, None] == hit).all(axis=-1),
                           same | np.eye(m, dtype=bool))
    checks = Checks(
        {"central_support_class_sums": float(B.norm_coeffs(sums))},
        tol, flags={"central_support_orthogonality": orthogonal,
                    "supports_match_relation": match})
    return hit, zs, checks


def ergodicity(alpha: ActionMap, tol=None):
    """Basis of the fixed-point algebra and the ergodicity flag."""
    tol = as_tolerance(tol)
    N, A = alpha.module, alpha.hopf.algebra
    n = N.dim
    # x -> x (x) 1 subtracted on the reshaped (n, d_a, n) matrix
    diff = alpha.matrix.reshape(n, A.dim, n) \
        - A.unit_coeffs[:, None] * np.eye(n)[:, None, :]
    fixed = nullspace(diff.reshape(n * A.dim, n), tol)
    return fixed, fixed.shape[0] == 1
