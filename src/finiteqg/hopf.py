"""Finite quantum groups as Hopf *-algebras given by structure constants.

A finite quantum group G is carried around as ``HopfData``: an algebra
(the function algebra of G) together with comultiplication, counit and
antipode.  Construction never trusts its input: every builder and every
loader runs the full axiom verification, since all theorem checks further
down are meaningless on a non-Hopf input.

Finite-dimensional Hopf C*-algebras are automatically of Kac type, so the
unitary antipode coincides with S; the verification includes S^2 = id and
S(x*) = S(x)*.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (Algebra, BlockAlgebra, CheckError, Checks,
                   COUNIT_SPLIT, LinMap, as_tolerance, associativity_residual,
                   coaction_maps, opnorms, pair_products, tensor)

if TYPE_CHECKING:
    from .groups import FiniteGroup


@dataclass(eq=False)
class HopfData:
    """A finite quantum group: algebra plus Hopf structure maps.

    ``delta`` maps the algebra into its tensor square (Kronecker indexing),
    ``counit`` is a covector, ``antipode`` an algebra endomap; both maps
    are refused unless built on ``algebra`` itself.
    """

    algebra: Algebra
    delta: LinMap
    counit: np.ndarray
    antipode: LinMap
    name: str = ""

    def __post_init__(self):
        A = self.algebra
        self.counit = np.asarray(self.counit, dtype=complex).reshape(A.dim)
        if (self.delta.domain != A
                or getattr(self.delta.codomain, "factors", None) != (A, A)):
            raise ValueError("comultiplication must map the algebra into "
                             "its tensor square")
        if self.antipode.domain != A or self.antipode.codomain != A:
            raise ValueError("antipode must map the algebra to itself")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def square(self):
        return self.delta.codomain

    def is_cocommutative(self, tol=None) -> bool:
        d, dm = self.dim, self.delta.matrix
        flipped = dm.reshape(d, d, d).transpose(1, 0, 2).reshape(d * d, d)
        res, scale = map(float, opnorms([dm - flipped, dm]))
        return as_tolerance(tol).is_zero(res, scale)

    def __repr__(self):
        return f"HopfData({self.name or self.algebra!r}, dim={self.dim})"


class HopfAxiomError(CheckError):
    pass


def verify_hopf(H: HopfData, tol=None) -> Checks:
    """Check all Hopf *-algebra axioms numerically: the residuals with
    per-check scales, raising ``HopfAxiomError`` on demand.

    The coproduct is the regular coaction of G on itself, so its unital,
    star, multiplicative, coassociativity and right counit residuals come
    from ``coaction_maps(A, A x A, delta, delta, eps)``, the one coaction
    check (``coaction_residuals``); only the scales are this function's.
    The involution, the left counit and the antipode are checked here:
    map identities in operator norm on coefficient space, and the
    antimultiplicativity of the involution on all basis pairs
    (``pair_products``).  Composites with delta contract
    ``DM.reshape(d, d, d)`` leg-wise instead of building ``np.kron``.
    The scale of coassociativity, the norm of the d^3 x d composite
    (delta x id) delta, comes from its d x d Gram matrix
    (``_composite_gram``); all norms with d columns are one ``opnorms`` call.
    An algebra that is not a ``BlockAlgebra`` (associative and unital by
    construction) adds ``associativity`` (``associativity_residual``) at
    scale ||m||^2 and ``unit``, 1 e_p = e_p = e_p 1 in operator norm, at
    ||m||, for m the product as a d x d^2 matrix.
    """
    tol = as_tolerance(tol)
    A = H.algebra
    d = A.dim
    DM, SM, St = H.delta.matrix, H.antipode.matrix, A.star_matrix
    eye = np.eye(d)
    # D3[i, j, k] is the coefficient of e_i x e_j in delta(e_k); a map
    # applied to its first leg acts on ``first``, one applied to its second
    # leg broadcasts over i
    D3 = DM.reshape(d, d, d)
    first = DM.reshape(d, d * d)
    m = A.mul_tensor
    mm = m.reshape(d, d * d)
    target = np.outer(A.unit_coeffs, H.counit)
    s_left = (SM @ first).reshape(d * d, d)   # (S x id) delta
    s_right = (SM @ D3).reshape(d * d, d)     # (id x S) delta
    # entry [p, q] of the stacks: (e_p e_q)* - e_q* e_p*
    stars = St.T
    lhs = A.star_coeffs(pair_products(A, eye, eye))
    rhs = pair_products(A, stars, stars).swapaxes(0, 1)
    co, maps = coaction_maps(A, H.square, DM, DM, H.counit)
    generic = not isinstance(A, BlockAlgebra)
    # left and right multiplication by the unit, as d x d matrices
    units = [np.tensordot(A.unit_coeffs, m, (0, 1)) - eye,
             m @ A.unit_coeffs - eye] if generic else []
    # the d x d map identities, St and S (S(x*) = S(x)*  <=>  S St =
    # St conj(S)), the unit's, delta, the product, the coaction maps, the
    # composite
    square, *norms = opnorms([np.stack([
        St @ np.conj(St) - eye, (H.counit @ first).reshape(d, d) - eye,
        mm @ s_left - target, mm @ s_right - target, SM @ SM - eye,
        SM @ St - St @ np.conj(SM), St, SM, *units]), DM, mm,
        *maps.values()], [_composite_gram(DM)])
    (star_inv, counit_left, antipode_left, antipode_right, antipode_inv,
     antipode_star, op_st, op_s, *unit) = map(float, square)
    op_dm, op_m, *co_norms, composite = map(float, norms)
    co.update(zip(maps, co_norms))
    op_mm = op_m * op_dm
    res = {"star_involutive": star_inv,
           "star_antimultiplicative": A.norm_coeffs(lhs - rhs),
           "delta_unital": co["unital"], "delta_star": co["star"],
           "delta_multiplicative": co["multiplicative"],
           "coassociativity": co["coaction"],
           "counit_left": counit_left, "counit_right": co["counit"],
           "antipode_left": antipode_left, "antipode_right": antipode_right,
           "antipode_involutive": antipode_inv,
           "antipode_star": antipode_star}
    sca = {"star_involutive": op_st ** 2, "delta_star": op_dm,
           "delta_multiplicative": op_dm ** 2,
           "coassociativity": composite,
           "counit_left": op_dm, "counit_right": op_dm,
           "antipode_left": op_mm, "antipode_right": op_mm,
           "antipode_involutive": op_s ** 2, "antipode_star": op_s}
    if generic:
        res.update(associativity=associativity_residual(A),
                   unit=float(np.max(unit)))
        sca.update(associativity=op_m ** 2, unit=op_m)
    return Checks(res, tol, sca, HopfAxiomError)


def _composite_gram(DM):
    """The pair (s^2, G) of ``opnorms`` for the norm of (delta x id) delta:
    G = DM^H (P x 1) DM, P = DM^H DM, for DM / s (s its largest |entry|,
    as ``opnorm`` scales), so the d^3 x d composite is never formed."""
    s = np.abs(DM).max(initial=0.0)
    if not (np.isfinite(s) and s > 0):
        return s * s, None
    d, u = DM.shape[1], DM / s
    uh = u.conj().T
    return s * s, uh @ ((uh @ u) @ u.reshape(d, d * d)).reshape(d * d, d)


# ---------------------------------------------------------------------------
# constructors for the shipped families
# ---------------------------------------------------------------------------

def _function_hopf(group: FiniteGroup) -> HopfData:
    """The unverified Hopf data of C(G): functions on a finite group,
    delta(d_g) = sum_{hk=g} d_h x d_k, eps(d_g) = [g = e],
    S(d_g) = d_{g^{-1}}."""
    n = group.order
    A = BlockAlgebra([1] * n, name=f"C({group.name})")
    D = np.zeros((n * n, n), dtype=complex)
    # row h * n + k, column hk
    D[np.arange(n * n), group.table.reshape(-1)] = 1.0
    eps = np.zeros(n, dtype=complex)
    eps[group.identity] = 1.0
    S = np.zeros((n, n), dtype=complex)
    S[group.inverses, np.arange(n)] = 1.0
    return HopfData(A, LinMap(A, tensor(A, A), D), eps, LinMap(A, A, S),
                    name=A.name)


def function_algebra(group: FiniteGroup, tol=None) -> HopfData:
    """Functions on a finite group: C^G with delta dual to the product."""
    H = _function_hopf(group)
    verify_hopf(H, tol).raise_for_failure(f"{H.name} fails axiom check(s)")
    return H


def group_algebra(group: FiniteGroup, tol=None) -> HopfData:
    """The group algebra C[G] in its group-element basis, the raw dual of
    C(G): delta(g) = g x g, eps(g) = 1, S(g) = g* = g^{-1}.  No block
    structure is assumed; the Wedderburn machinery discovers it."""
    H = dual_hopf_raw(_function_hopf(group))
    H.algebra.name = H.name = f"C[{group.name}]"
    verify_hopf(H, tol).raise_for_failure(f"{H.name} fails axiom check(s)")
    return H


def dual_hopf_raw(H: HopfData) -> HopfData:
    """The dual Hopf *-algebra on the raw dual basis f_k, <f_k, a_l> = d_kl.

    Convolution product (f g)(a) = (f x g)(delta a); coproduct dual to the
    product; counit = evaluation at 1; antipode = transpose of S;
    involution f*(a) = conj(f(S(a)*)).  Unverified.
    """
    A, n = H.algebra, H.dim
    DM = H.delta.matrix.reshape(n, n, n)          # [p, q, k]
    mul_dual = DM.transpose(2, 0, 1).copy()       # f_p f_q = sum_k D[p,q,k] f_k
    unit_dual = H.counit.copy()
    star_dual = (np.conj(A.star_matrix) @ H.antipode.matrix).T
    Ad = Algebra(mul_dual, unit_dual, star_dual,
                 name=f"dual({H.name})" if H.name else "dual")
    delta_dual = A.mul_tensor.transpose(1, 2, 0).reshape(n * n, n).copy()
    counit_dual = A.unit_coeffs.copy()
    antipode_dual = H.antipode.matrix.T.copy()
    return HopfData(Ad, LinMap(Ad, tensor(Ad, Ad), delta_dual), counit_dual,
                    LinMap(Ad, Ad, antipode_dual), name=Ad.name)


# ---------------------------------------------------------------------------
# the eight-dimensional Kac-Paljutkin quantum group
# ---------------------------------------------------------------------------
#
# Presentation: unitaries x, y, z with
#   x^2 = y^2 = 1,  xy = yx,  zx = yz,  zy = xz,  z^2 = (1 + x + y - xy)/2,
#   delta(x) = x x x, delta(y) = y x y,
#   delta(z) = (1/2)(1x1 + 1xx + yx1 - yxx) (z x z),
#   eps = 1 on generators, S fixes the generators, z* = z^{-1} = z^2 z.
# Monomial basis x^a y^b z^c; all structure constants are dyadic rationals,
# so the construction is exact in double precision.

def _kp_mono_mul(m1, m2):
    """Product of monomials (a, b, c) as a {monomial: coeff} dict."""
    a, b, c = m1
    a2, b2, c2 = m2
    if c == 1:
        # z x^a2 y^b2 = x^b2 y^a2 z
        a2, b2 = b2, a2
    A, B, C = a ^ a2, b ^ b2, c + c2
    if C < 2:
        return {(A, B, C): 1.0}
    # z^2 = (1 + x + y - xy)/2
    return {(A, B, 0): 0.5, (A ^ 1, B, 0): 0.5,
            (A, B ^ 1, 0): 0.5, (A ^ 1, B ^ 1, 0): -0.5}


def kac_paljutkin(tol=None) -> HopfData:
    """The unique 8-dim Hopf C*-algebra that is neither commutative nor
    cocommutative, in its monomial presentation.

    Use :func:`finiteqg.duality.block_presentation` for the C^4 + M_2
    matrix picture.
    """
    monos = [(a, b, c) for c in (0, 1) for b in (0, 1) for a in (0, 1)]
    index = {m: k for k, m in enumerate(monos)}
    n = 8

    mt = np.zeros((n, n, n), dtype=complex)
    for p, m1 in enumerate(monos):
        for q, m2 in enumerate(monos):
            for m, c in _kp_mono_mul(m1, m2).items():
                mt[index[m], p, q] += c
    unit = np.zeros(n, dtype=complex)
    unit[index[(0, 0, 0)]] = 1.0

    # star: antimultiplicative, fixes x, y; z* = z^2 * z
    star = np.zeros((n, n), dtype=complex)
    q_elem = {(0, 0, 0): 0.5, (1, 0, 0): 0.5, (0, 1, 0): 0.5, (1, 1, 0): -0.5}
    for p, (a, b, c) in enumerate(monos):
        if c == 0:
            star[index[(a, b, 0)], p] = 1.0
        else:
            # (x^a y^b z)* = z^{-1} y^b x^a = q * x^b y^a z
            for (qa, qb, _), cq in q_elem.items():
                star[index[(qa ^ b, qb ^ a, 1)], p] += cq
    A = Algebra(mt, unit, star, name="KP8")
    T2 = tensor(A, A)

    def mono_vec(m):
        v = np.zeros(n, dtype=complex)
        v[index[m]] = 1.0
        return v

    xv, yv, zv = mono_vec((1, 0, 0)), mono_vec((0, 1, 0)), mono_vec((0, 0, 1))
    onev = unit
    j0 = 0.5 * (T2.kron_coeffs(onev, onev) + T2.kron_coeffs(onev, xv)
                + T2.kron_coeffs(yv, onev) - T2.kron_coeffs(yv, xv))
    dx = T2.kron_coeffs(xv, xv)
    dy = T2.kron_coeffs(yv, yv)
    dz = T2.mul_coeffs(j0, T2.kron_coeffs(zv, zv))

    D = np.zeros((n * n, n), dtype=complex)
    for p, (a, b, c) in enumerate(monos):
        v = T2.kron_coeffs(onev, onev)
        for gen, on in ((dx, a), (dy, b), (dz, c)):
            if on:
                v = T2.mul_coeffs(v, gen)
        D[:, p] = v

    # S: antihomomorphism fixing the generators
    S = np.zeros((n, n), dtype=complex)
    for p, (a, b, c) in enumerate(monos):
        if c == 0:
            S[index[(a, b, 0)], p] = 1.0
        else:
            # S(x^a y^b z) = z y^b x^a = x^b y^a z
            S[index[(b, a, 1)], p] = 1.0

    eps = np.ones(n, dtype=complex)
    H = HopfData(A, LinMap(A, T2, D), eps, LinMap(A, A, S), name="KP8")
    verify_hopf(H, tol).raise_for_failure(
        "KP8 construction fails axiom check(s)")
    if H.is_cocommutative(tol) or A.is_commutative(tol):
        raise AssertionError("KP8 construction degenerated")
    return H


def group_like_elements(H: HopfData, tol=None):
    """The basis indices k with delta(e_k) = e_k x e_k and eps(e_k) = 1.

    Scans the basis only, which recovers the full intrinsic group for
    group algebras and for the monomial Kac-Paljutkin presentation; the
    general search goes through the dual's characters instead.
    """
    tol = as_tolerance(tol)
    out = []
    T2 = H.square
    for k in range(H.dim):
        # e_k x e_k has its one coefficient at the Kronecker index (k, k)
        gg = np.zeros(T2.dim, dtype=complex)
        gg[k * H.dim + k] = 1.0
        if (tol.is_zero(T2.norm_coeffs(H.delta.matrix[:, k] - gg))
                and abs(H.counit[k] - 1.0) < COUNIT_SPLIT):
            out.append(k)
    return out
