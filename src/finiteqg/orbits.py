"""Orbits of finite quantum group actions on multi-matrix algebras.

Central objects:

* ``quotient_by_kernel`` -- the quotient Hopf *-algebra of a surjection
  whose kernel is a Hopf *-ideal.  It is the one quotient construction:
  a quantum subgroup of the dual (a ``pi`` subgroup file) and a Hopf
  *-surjection Pol(G) -> Pol(H) (a ``hopf_surjection`` file) both pass
  through it;
* ``SubgroupMorphism`` -- a surjection pi: l^inf(dual) -> l^inf(subgroup)
  intertwining the coproducts, together with its support projection and
  its quotient Hopf structure;
* ``HomogeneousSpace`` -- the coinvariant subalgebra
  {x : (pi x id) delta(x) = 1 x x} with its own block decomposition;
* ``ActionMap`` -- a coaction N -> N x Pol(G) on a direct sum of matrix
  blocks, optionally regrouped into coarser summands;
* ``OrbitPartition`` -- the orbit relation: summands i, j are related when
  the component of the action between them is non-zero.

The relation is symmetric for any action; it is an equivalence relation
when every summand is a single matrix block, and the class sums of block
units are exactly the invariant projections.  For homogeneous spaces the
class sums are central supports inside the ambient discrete dual, which
``central_supports`` verifies explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (AlgElement, Algebra, BlockAlgebra, CheckError, Checks,
                   LinMap, DEFAULT_SEED, Tolerance, as_tolerance, nullspace,
                   numerical_rank, distance_to_span, multiplicative_residual,
                   opnorm, tensor)
from .duality import DiscreteQG, mult_unitary
from .hopf import HopfData, verify_hopf
from .wedderburn import WedderburnData, central_support, decompose


class MorphismError(CheckError):
    pass


def quotient_by_kernel(H: HopfData, rho, tol=None) -> HopfData:
    """The quotient Hopf *-algebra of H by the kernel of the matrix rho.

    ``rho`` is an r x dim(H) matrix on the basis of H.  It must be
    surjective, and its kernel must be a Hopf *-ideal: a two-sided ideal
    closed under the involution and the antipode, killed by the counit and
    by (rho x rho) delta.  The quotient structure maps are read through
    the section pinv(rho) and verified before they are returned.  Every
    check is judged at eps * (1 + ||rho||^2).
    """
    tol = as_tolerance(tol)
    A = H.algebra
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[1] != A.dim:
        raise MorphismError("surjection matrix has the wrong shape")
    r, d = rho.shape
    # the rank SVD below would raise LinAlgError on a NaN or inf
    if not np.isfinite(rho).all():
        raise MorphismError("surjection matrix is not finite")
    sv = np.linalg.svd(rho, compute_uv=False)
    if numerical_rank(sv, tol) != r:
        raise MorphismError("matrix is not surjective")

    section = np.linalg.pinv(rho)
    # a huge rho overflows to an inf scale or residual, which fails below
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.square(sv[0])
        pipi_delta = np.kron(rho, rho) @ H.delta.matrix
        delta_q = pipi_delta @ section
        res = {"intertwines_coproduct": float(
            opnorm(pipi_delta - delta_q @ rho))}
        ker = nullspace(rho, tol)
        if ker.shape[0]:
            # rows k e_p, then e_p k, for every kernel vector k and basis e_p
            eye = np.tile(np.eye(d), (ker.shape[0], 1))
            kk = np.repeat(ker, d, 0)
            prods = A.mul_coeffs(np.concatenate([kk, eye]),
                                 np.concatenate([eye, kk]))
            res["kernel_ideal"] = float(
                np.max(np.linalg.norm(prods @ rho.T, axis=1)))
            res["kernel_star"] = float(
                opnorm(rho @ A.star_matrix @ np.conj(ker.T)))
            res["kernel_coproduct"] = float(opnorm(pipi_delta @ ker.T))
            res["kernel_counit"] = float(np.linalg.norm(H.counit @ ker.T))
            res["kernel_antipode"] = float(
                opnorm(rho @ H.antipode.matrix @ ker.T))
    checks = Checks(res, tol, dict.fromkeys(res, scale), MorphismError)
    checks.raise_for_failure("matrix is not a Hopf *-surjection")

    mul_q = np.einsum("rk,kab,ap,bq->rpq", rho, A.mul_tensor,
                      section, section, optimize=True)
    A_q = Algebra(mul_q, rho @ A.unit_coeffs,
                  rho @ A.star_matrix @ np.conj(section), name="quotient")
    quotient = HopfData(A_q, LinMap(A_q, tensor(A_q, A_q), delta_q),
                        H.counit @ section,
                        LinMap(A_q, A_q, rho @ H.antipode.matrix @ section),
                        name="quotient")
    verify_hopf(quotient, tol).raise_for_failure(
        "Hopf quotient fails axiom check(s)")
    return quotient


@dataclass
class SubgroupMorphism:
    """A quantum subgroup of the discrete dual, given by the surjection pi.

    ``matrix`` maps block coordinates of l^inf(dual) onto the subgroup's
    coordinates; ``support`` is the central projection carrying the
    subgroup (the kernel of pi is its complementary ideal); ``codomain``
    is the quotient Hopf structure from ``quotient_by_kernel``;
    ``surviving`` lists the ambient blocks that pi keeps, which is also
    the embedding of the subgroup's irreducibles into the ambient ones.
    """

    dqg: DiscreteQG
    matrix: np.ndarray
    support: AlgElement
    codomain: HopfData
    surviving: list
    normal: bool

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return (f"SubgroupMorphism(dim {self.rank} of {self.dqg!r}, "
                f"normal={self.normal})")


def subgroup_from_dual_matrix(D: DiscreteQG, pi_dual, tol=None,
                              in_block_coords=False) -> SubgroupMorphism:
    """Build and verify a subgroup morphism from its matrix.

    By default the matrix is given on the raw dual basis (the coordinates
    used by subgroup files); pass ``in_block_coords=True`` when the matrix
    already acts on canonical block coordinates.  The kernel of pi must be
    the sum of the blocks pi kills; the quotient structure and the Hopf
    *-ideal checks come from ``quotient_by_kernel``.
    """
    tol = as_tolerance(tol)
    B = D.dual_algebra
    pi_dual = np.asarray(pi_dual, dtype=complex)
    pi = pi_dual.copy() if in_block_coords else pi_dual @ D.block_to_dual
    r = pi.shape[0]
    if pi.shape != (r, B.dim):
        raise MorphismError("pi matrix has the wrong shape")

    scale = float(opnorm(pi))
    surviving = []
    # an image too large for a float has the norm inf: its block survives
    with np.errstate(over="ignore"):
        for i in range(len(B.block_dims)):
            img = pi @ D.blocks.central_idempotents[i].coeffs
            if not tol.is_zero(float(np.linalg.norm(img)), scale):
                surviving.append(i)
    corner_dim = sum(B.block_dims[i] ** 2 for i in surviving)
    if corner_dim != r:
        raise MorphismError(
            f"kernel of pi is not an ideal of full blocks: corner dim "
            f"{corner_dim} != rank {r}")

    # pi must kill every matrix unit outside the surviving blocks
    dead = [k for k in range(B.dim)
            if B.unindex(k)[0] not in surviving]
    if dead:
        worst = float(np.abs(pi[:, dead]).max())
        if not tol.is_zero(worst, scale):
            raise MorphismError(
                f"pi does not vanish on the complementary ideal ({worst:.3e})")

    codomain = quotient_by_kernel(D.dual_hopf, pi, tol)
    support = D.blocks.central_idempotents[surviving[0]]
    for i in surviving[1:]:
        support = support + D.blocks.central_idempotents[i]
    normal = _is_normal(D.dual_hopf, pi, tol)
    return SubgroupMorphism(D, pi, support, codomain, surviving, normal)


def full_subgroup(D: DiscreteQG, tol=None) -> SubgroupMorphism:
    return subgroup_from_dual_matrix(D, np.eye(D.dual_algebra.dim), tol,
                                     in_block_coords=True)


def trivial_subgroup(D: DiscreteQG, tol=None) -> SubgroupMorphism:
    return subgroup_from_dual_matrix(D, D.dual_hopf.counit[None, :], tol,
                                     in_block_coords=True)


def subgroup_from_group_likes(D: DiscreteQG, elements, tol=None):
    """Subgroup morphism from a set of group-like elements of Pol(G).

    The rows of pi evaluate dual functionals on the chosen group-likes
    (which must form a subgroup of the intrinsic group; verification of
    the morphism axioms happens downstream).
    """
    rows = np.stack([e.coeffs for e in elements])
    return subgroup_from_dual_matrix(D, rows, tol)


def _coinvariants(H: HopfData, rho, side: str, tol):
    """Coinvariants of H under the surjection rho:
    {x : (rho x id) delta(x) = 1 x x} on the left side,
    {x : (id x rho) delta(x) = x x 1} on the right side."""
    eye = np.eye(H.dim)
    unit_q = (rho @ H.algebra.unit_coeffs)[:, None]
    if side == "left":
        cond = np.kron(rho, eye) @ H.delta.matrix - np.kron(unit_q, eye)
    else:
        cond = np.kron(eye, rho) @ H.delta.matrix - np.kron(eye, unit_q)
    return nullspace(cond, tol)


def _is_normal(H: HopfData, pi, tol) -> bool:
    """Normality of the subgroup: left and right coinvariants coincide."""
    left = _coinvariants(H, pi, "left", tol)
    right = _coinvariants(H, pi, "right", tol)
    if left.shape[0] != right.shape[0]:
        return False
    return tol.is_zero(float(np.max([distance_to_span(right, left),
                                     distance_to_span(left, right)])))


@dataclass
class HomogeneousSpace:
    """The coinvariant subalgebra of the dual under a subgroup morphism."""

    dqg: DiscreteQG
    morphism: SubgroupMorphism
    basis: np.ndarray          # orthonormal rows spanning X inside l8(dual)
    wd: WedderburnData         # block decomposition inside the dual

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
        return self.wd.central_idempotents[i]

    def embed(self, x) -> AlgElement:
        return self.wd.embed(x)

    @property
    def trivial_block(self) -> int:
        """The block whose unit carries the trivial dual projection."""
        p0 = self.dqg.block_projection(0)
        for i in range(self.size):
            if not (p0 * self.block_unit_in_dual(i)).is_zero():
                return i
        raise RuntimeError("no block carries the trivial projection")

    def __repr__(self):
        return f"HomogeneousSpace(blocks={list(self.block_dims)})"


def homogeneous_space(D: DiscreteQG, m: SubgroupMorphism, tol=None,
                      seed: int = DEFAULT_SEED) -> HomogeneousSpace:
    """Solve {x : (pi x id) delta(x) = 1 x x} and decompose it."""
    tol = as_tolerance(tol)
    basis = _coinvariants(D.dual_hopf, m.matrix, "left", tol)
    if basis.shape[0] * m.rank != D.dual_algebra.dim:
        raise MorphismError(
            f"coinvariant dimension {basis.shape[0]} does not match "
            f"dim(dual)/dim(sub) = {D.dual_algebra.dim}/{m.rank}")
    gens = [AlgElement(D.dual_algebra, v) for v in basis]
    wd = decompose(gens, tol, seed)  # raises unless a *-closed unital span
    return HomogeneousSpace(D, m, basis, wd)


@dataclass
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
        got = sorted(b for g in self.summands for b in g)
        if got != list(range(len(self.module.block_dims))):
            raise ValueError("summands must partition the module blocks")

    @property
    def size(self) -> int:
        return len(self.summands)

    def summand_projection(self, i: int) -> AlgElement:
        out = self.module.block_unit(self.summands[i][0])
        for b in self.summands[i][1:]:
            out = out + self.module.block_unit(b)
        return out

    def summand_indices(self, i: int):
        idx = []
        for b in self.summands[i]:
            n = self.module.block_dims[b]
            o = int(self.module.offsets[b])
            idx.extend(range(o, o + n * n))
        return np.array(idx, dtype=int)

    def component_norm(self, j: int, i: int) -> float:
        """Norm of alpha_{ji}(1_i), the (j, i) component of the action."""
        y = self.alpha.matrix @ self.summand_projection(i).coeffs
        Y = y.reshape(self.module.dim, self.hopf.dim)
        cut = np.zeros_like(Y)
        rows = self.summand_indices(j)
        cut[rows, :] = Y[rows, :]
        return self.alpha.codomain.norm_coeffs(cut.reshape(-1))

    def verify(self, tol=None) -> Checks:
        """The unit, product, involution, coaction and counit residuals of
        the action matrix, each at the scale 1 + ||alpha||^2; raises on
        failure.  Injectivity needs no check of its own: the counit
        identity (id x eps) alpha = id implies it."""
        tol = as_tolerance(tol)
        A, N = self.hopf, self.module
        T = self.alpha.codomain
        am = self.alpha.matrix
        d_n, d_a = N.dim, A.dim
        # a NaN, inf or huge action meets inf - inf, 0 * inf or overflow on
        # its way to a NaN or inf residual or scale, which fails below
        with np.errstate(over="ignore", invalid="ignore"):
            res = {}
            one_t = T.kron_coeffs(N.unit_coeffs, A.algebra.unit_coeffs)
            res["unital"] = T.norm_coeffs(am @ N.unit_coeffs - one_t)
            res["multiplicative"] = multiplicative_residual(N, T, am)
            res["star"] = float(opnorm(
                am @ N.star_matrix - T.star_matrix @ np.conj(am)))
            # A3[i, g, k] is the coefficient of e_i x a_g in alpha(e_k):
            # (alpha x id) alpha acts on its first leg, (id x delta) alpha
            # broadcasts over i
            A3 = am.reshape(d_n, d_a, d_n)
            lhs = (am @ am.reshape(d_n, d_a * d_n)).reshape(-1, d_n)
            rhs = (A.delta.matrix @ A3).reshape(-1, d_n)
            res["coaction"] = float(opnorm(lhs - rhs))
            res["counit"] = float(opnorm(A.counit @ A3 - np.eye(d_n)))
            scale = 1.0 + np.square(opnorm(am))
        checks = Checks(res, tol, dict.fromkeys(res, scale))
        checks.raise_for_failure(
            "not a coaction" if np.isfinite(am).all()
            else "not a coaction: the action matrix is not finite")
        return checks

    def restrict_to_blocks(self, blocks, tol=None) -> "ActionMap":
        """The restriction of the action to an invariant corner sum of
        blocks (valid when the corresponding projection is invariant)."""
        tol = as_tolerance(tol)
        blocks = sorted(blocks)
        sub = BlockAlgebra([self.module.block_dims[b] for b in blocks])
        cols = []
        for b in blocks:
            n = self.module.block_dims[b]
            o = int(self.module.offsets[b])
            cols.extend(range(o, o + n * n))
        E = np.zeros((self.module.dim, sub.dim), dtype=complex)
        for new, old in enumerate(cols):
            E[old, new] = 1.0
        big = np.kron(E, np.eye(self.hopf.dim))
        rhs = self.alpha.matrix @ E
        sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
        res = float(opnorm(big @ sol - rhs))
        if not tol.is_zero(res, float(opnorm(rhs))):
            raise CheckError("blocks do not carry an invariant corner "
                             f"(residual {res:.3e})")
        return ActionMap(self.hopf, sub,
                         LinMap(sub, tensor(sub, self.hopf.algebra), sol),
                         [[b] for b in range(len(blocks))])


@dataclass
class OrbitPartition:
    """The orbit relation of an action, its classes and diagnostics."""

    relation: np.ndarray
    classes: list
    invariant_projections: list
    symmetric: bool
    reflexive: bool
    transitive: bool
    all_factors: bool
    invariance_residual: float
    supports: list = None

    @property
    def is_equivalence(self) -> bool:
        return self.symmetric and self.reflexive and self.transitive

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
    classes are those of the equivalence relation it generates; transitivity
    is asserted only when every summand is a single matrix block.
    """
    tol = as_tolerance(tol)
    m = alpha.size
    scale = float(opnorm(alpha.alpha.matrix))
    rel = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            rel[j, i] = not tol.is_zero(alpha.component_norm(j, i), scale)

    symmetric = bool(np.array_equal(rel, rel.T))
    reflexive = bool(np.all(np.diag(rel)))
    sym = rel | rel.T
    transitive = bool(np.all((sym.astype(int) @ sym.astype(int) > 0) <= sym))
    all_factors = all(len(g) == 1 for g in alpha.summands)

    classes = _relation_classes(rel)

    T = alpha.alpha.codomain
    one_a = alpha.hopf.algebra.unit_coeffs
    projections, devs = [], []
    for cls in classes:
        p = alpha.summand_projection(cls[0])
        for i in cls[1:]:
            p = p + alpha.summand_projection(i)
        projections.append(p)
        target = T.kron_coeffs(p.coeffs, one_a)
        devs.append(T.norm_coeffs(alpha.alpha.matrix @ p.coeffs - target))
    # np.max keeps a NaN residual, where max() would drop it
    return OrbitPartition(rel, classes, projections, symmetric, reflexive,
                          transitive, all_factors,
                          float(np.max(devs, initial=0.0)))


def homogeneous_action(D: DiscreteQG, X: HomogeneousSpace,
                       tol=None) -> ActionMap:
    """The action x -> W (x x 1) W* of the quantum group on the
    homogeneous space, expressed on the space's own block coordinates."""
    tol = as_tolerance(tol)
    A = D.primal.algebra
    B = D.dual_algebra
    T = tensor(B, A)
    W = mult_unitary(D, tol).element
    Wst = W.star()
    Xalg = X.block_algebra
    E = X.wd.iso.matrix
    big = np.kron(E, np.eye(A.dim))
    rhs = np.empty((B.dim * A.dim, Xalg.dim), dtype=complex)
    for k in range(Xalg.dim):
        x_amb = T.kron_coeffs(E[:, k], A.unit_coeffs)
        y = T.mul_coeffs(T.mul_coeffs(W.coeffs, x_amb), Wst.coeffs)
        rhs[:, k] = y
    sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    res = float(opnorm(big @ sol - rhs))
    if not tol.is_zero(res, float(opnorm(rhs))):
        raise CheckError(
            f"conjugation escapes the homogeneous space (residual {res:.3e})")
    alpha = ActionMap(D.primal, Xalg,
                      LinMap(Xalg, tensor(Xalg, A), sol),
                      [[b] for b in range(len(Xalg.block_dims))])
    alpha.verify(tol)
    return alpha


@dataclass
class CentralSupportReport:
    supports: list                 # frozenset of ambient block indices per i
    central_supports: list         # z(1_i) as elements of the dual
    class_sum_residual: float
    orthogonality_residual: float
    supports_match_relation: bool
    tol: Tolerance

    @property
    def passed(self) -> bool:
        return (self.tol.is_zero(self.class_sum_residual)
                and self.tol.is_zero(self.orthogonality_residual)
                and self.supports_match_relation)


def central_supports(D: DiscreteQG, X: HomogeneousSpace, P: OrbitPartition,
                     tol=None) -> CentralSupportReport:
    """Verify that class sums of block units are ambient central supports.

    For each block i of the homogeneous space, z(1_i) computed in the
    ambient dual must equal the sum of the units over the class of i;
    supports of related blocks must coincide, and central supports of
    unrelated blocks must be orthogonal.
    """
    tol = as_tolerance(tol)
    m = X.size
    zs, supports = [], []
    for i in range(m):
        one_i = X.block_unit_in_dual(i)
        zs.append(central_support(D.blocks, one_i, tol))
        supp = frozenset(
            k for k, p in enumerate(D.blocks.central_idempotents)
            if not (p * one_i).is_zero(tol))
        supports.append(supp)

    sums = []
    for cls in P.classes:
        s = X.block_unit_in_dual(cls[0])
        for j in cls[1:]:
            s = s + X.block_unit_in_dual(j)
        for i in cls:
            sums.append((zs[i] - s).norm())

    orths = []
    match = True
    for i in range(m):
        for j in range(m):
            same = P.relation[i, j] or P.relation[j, i]
            if not same:
                orths.append((zs[i] * zs[j]).norm())
            if (supports[i] == supports[j]) != bool(same or i == j):
                match = False
    # np.max keeps a NaN residual, where max() would drop it
    return CentralSupportReport(supports, zs,
                                float(np.max(sums, initial=0.0)),
                                float(np.max(orths, initial=0.0)), match, tol)


def ergodicity(alpha: ActionMap, tol=None):
    """Basis of the fixed-point algebra and the ergodicity flag."""
    tol = as_tolerance(tol)
    N, A = alpha.module, alpha.hopf.algebra
    embed = np.kron(np.eye(N.dim), A.unit_coeffs[:, None])
    fixed = nullspace(alpha.alpha.matrix - embed, tol)
    return fixed, fixed.shape[0] == 1
