from dataclasses import replace

import numpy as np
import pytest

from finiteqg import groups
from finiteqg.clifford import (NormalityError, kac_constancy_check,
                               quotient_subgroup, restriction_table,
                               vergnioux_relation)
from finiteqg.core import (CheckError, LinMap, Tolerance, distance_to_span,
                           orthonormal_rows)
from finiteqg.duality import block_presentation, dualize, mult_unitary
from finiteqg.hopf import function_algebra, group_algebra
from finiteqg.orbits import (MorphismError, coinvariant_normality,
                             full_subgroup, homogeneous_action,
                             homogeneous_space, hopf_surjection_checks,
                             relation, trivial_subgroup)

from conftest import SUBGROUP_PAIRS, vergnioux_of


def a3_restriction_oracle():
    """Classical character theory: multiplicities of the A3 characters in
    the restrictions of the S3 irreducibles, computed by brute force over
    the 3 even permutations (e, c, c^2)."""
    w = np.exp(2j * np.pi / 3)
    chars_a3 = {"triv": np.array([1, 1, 1]),
                "omega": np.array([1, w, w ** 2]),
                "omegabar": np.array([1, w ** 2, w])}
    # values of the S3 characters at e, c, c^2 (even permutations)
    chars_s3_on_a3 = {"triv": np.array([1, 1, 1]),
                      "sgn": np.array([1, 1, 1]),
                      "std": np.array([2, -1, -1])}
    table = {}
    for kappa, chi in chars_s3_on_a3.items():
        for sig, psi in chars_a3.items():
            table[(kappa, sig)] = int(round(
                float(np.real(np.sum(chi * np.conj(psi)))) / 3.0))
    return table


def test_quotient_subgroup_trivial_gives_full(hopf_cs3, dual_cs3):
    # H trivial: rho = counit; Lambda = the whole dual, pi bijective
    m, _ = quotient_subgroup(hopf_cs3, dual_cs3, hopf_cs3.counit[None, :])
    assert m.rank == 6
    X = homogeneous_space(dual_cs3, m)
    assert X.block_dims == (1,)


def test_quotient_subgroup_whole_group_gives_trivial(hopf_cs3, dual_cs3):
    m, checks = quotient_subgroup(hopf_cs3, dual_cs3, np.eye(6))
    assert m.rank == 1
    # rho = id has no kernel: one surjection residual, and the two
    # residuals of the coinvariants
    assert sorted(checks.residuals) == ["coinvariant_distance",
                                        "coinvariant_subalgebra",
                                        "intertwines_coproduct"]
    assert checks.passed
    # pi is the counit of the dual, up to the basis normalization of the
    # one-dimensional codomain
    eps = dual_cs3.dual_hopf.counit
    cross = np.outer(m.matrix[0], eps) - np.outer(eps, m.matrix[0])
    assert np.linalg.norm(cross) <= 1e-10
    assert np.linalg.norm(m.matrix[0]) > 1e-12


def test_quotient_subgroup_a3(s3, hopf_cs3, dual_cs3, data_dir):
    a3 = groups.alternating_indices(s3)
    rho = np.zeros((3, 6))
    for b, g in enumerate(a3):
        rho[b, g] = 1.0
    m, checks = quotient_subgroup(hopf_cs3, dual_cs3, rho)
    assert m.rank == 2 and m.normal
    # support of the subgroup: central projection of {triv, sgn}
    B = dual_cs3.dual_algebra
    want = B.block_unit(0) + B.block_unit(1)
    assert B.norm_coeffs(m.support - want) <= 1e-9
    # embedded dual of H equals the homogeneous space (normal case)
    X = homogeneous_space(dual_cs3, m)
    Ci = np.linalg.inv(dual_cs3.block_to_dual)
    V = orthonormal_rows((Ci @ rho.T).T)
    for v in X.morphism.coinvariants:
        assert distance_to_span(V, v) <= 1e-9
    # the record of rho: its own surjection checks, at its own scales, and
    # the coinvariant residuals, which the morphism's records do not hold
    surjection = hopf_surjection_checks(hopf_cs3, rho)
    _, _, normality = coinvariant_normality(hopf_cs3, rho)
    assert checks.residuals == {
        **surjection.residuals, **normality.residuals,
        "coinvariant_subalgebra": checks.residuals["coinvariant_subalgebra"]}
    assert len(surjection.residuals) == 6
    assert checks.scales == surjection.scales
    assert checks.passed
    assert checks.residuals["coinvariant_subalgebra"] <= 1e-9


def test_non_normal_subgroup_rejected(s3, hopf_cs3, dual_cs3):
    # restriction of functions to the non-normal {e, (01)} subgroup
    t = s3.index_of((1, 0, 2))
    rho = np.zeros((2, 6))
    rho[0, s3.identity] = 1.0
    rho[1, t] = 1.0
    _, _, normality = coinvariant_normality(hopf_cs3, rho)
    assert normality.residuals["coinvariant_distance"] > 1e-3
    with pytest.raises(NormalityError):
        quotient_subgroup(hopf_cs3, dual_cs3, rho)


def _subgroups(G):
    """Every subgroup of G as a sorted tuple of element indices: the
    closures of all pairs of elements under the Cayley table (every
    subgroup of the groups below is generated by two elements)."""
    found = set()
    for a in range(G.order):
        for b in range(a, G.order):
            sub = {G.identity, a, b}
            while len(grown := sub | {int(G.table[x, y]) for x in sub
                                      for y in sub}) > len(sub):
                sub = grown
            found.add(tuple(sorted(sub)))
    return sorted(found)


def _normal_by_table(G, N):
    members = set(N)
    return all(int(G.table[G.table[g, n], G.inverse(g)]) in members
               for g in range(G.order) for n in N)


NORMALITY_GROUPS = {"S3": groups.symmetric(3), "Q8": groups.quaternion(),
                    "Z2xZ4": groups.direct_product(groups.cyclic(2),
                                                   groups.cyclic(4)),
                    "S4": groups.symmetric(4)}


def test_coinvariant_normality_matches_cayley_table_conjugation():
    # restriction of functions C(G) -> C(N) for every subgroup N: the
    # coinvariant verdict must be "g N g^-1 = N for all g", read off the
    # multiplication table alone, and far from the threshold on both sides.
    # quotient_subgroup must raise NormalityError exactly on the non-normal
    # N, and on the normal ones build the subgroup of the dual for real:
    # at N = {e} in S4 that is the full 24-dimensional dual subgroup
    seen = 0
    for name, G in NORMALITY_GROUPS.items():
        H = function_algebra(G)
        D = dualize(H) if name in ("S3", "S4") else None
        for N in _subgroups(G):
            rho = np.zeros((len(N), G.order))
            rho[np.arange(len(N)), list(N)] = 1.0
            _, _, normality = coinvariant_normality(H, rho)
            gap = normality.residuals["coinvariant_distance"]
            normal = _normal_by_table(G, N)
            assert normality.passed == normal, (name, N)
            assert gap <= 1e-12 if normal else gap >= 0.5, (name, N, gap)
            if D is not None and not normal:
                with pytest.raises(NormalityError):
                    quotient_subgroup(H, D, rho)
            elif D is not None:
                m, checks = quotient_subgroup(H, D, rho)
                assert m.rank * len(N) == G.order
                assert m.surjection.passed and checks.passed
            seen += 1
    assert seen == 6 + 6 + 8 + 30


def test_restriction_table_matches_classical_clifford(
        dual_cs3, a3_space, a3_partition, a3_trivial_block):
    T = restriction_table(dual_cs3, a3_space, a3_partition)
    assert T.checks.flags == {"one_orbit_per_row": True,
                              "dimension_count": True}
    oracle = a3_restriction_oracle()
    triv = a3_trivial_block
    pair = sorted(set(range(3)) - {triv})
    # rows 0, 1 are the 1-dim S3 irreducibles (triv first), row 2 is std
    assert T.mult[0, triv] == oracle[("triv", "triv")] == 1
    assert T.mult[1, triv] == oracle[("sgn", "triv")] == 1
    assert all(T.mult[0, i] == 0 and T.mult[1, i] == 0 for i in pair)
    assert T.mult[2, triv] == 0
    assert [T.mult[2, i] for i in pair] == [
        oracle[("std", "omega")], oracle[("std", "omegabar")]] == [1, 1]


def test_trivial_representation_class_is_singleton(dual_cs3, a3_space,
                                                   a3_partition,
                                                   a3_trivial_block):
    # the class of the block under the trivial representation has size 1
    T = restriction_table(dual_cs3, a3_space, a3_partition)
    triv_row = T.mult[0]
    support = [i for i in range(a3_space.size) if triv_row[i] > 0]
    assert support == [a3_trivial_block]
    assert next(c for c in a3_partition.classes
                if support[0] in c) == [support[0]]


def test_constancy_s3_a3(dual_cs3, a3_space, a3_partition):
    T = restriction_table(dual_cs3, a3_space, a3_partition)
    constants, checks = kac_constancy_check(dual_cs3, a3_space, T,
                                            a3_partition)
    assert checks.passed
    assert checks.residuals["markov_trace_proportionality"] <= 1e-9
    # c for std on the conjugate pair: mult 1 = c * dim 1
    pair_ci = next(ci for ci, c in enumerate(a3_partition.classes)
                   if len(c) == 2)
    assert abs(constants[(2, pair_ci)] - 1.0) < 1e-12


def test_constancy_decision_uses_callers_tolerance(dual_cs3, a3_space,
                                                   a3_partition):
    T = restriction_table(dual_cs3, a3_space, a3_partition)
    _, loose = kac_constancy_check(dual_cs3, a3_space, T, a3_partition,
                                   Tolerance(1e-6))
    assert loose.tol == Tolerance(1e-6)
    # a Markov residual of 1e-7 passes at 1e-6, not at the default 1e-9
    small = {"markov_trace_proportionality": 1e-7}
    assert replace(loose, residuals=small).passed
    _, default = kac_constancy_check(dual_cs3, a3_space, T, a3_partition)
    assert not replace(default, residuals=small).passed


def test_constancy_all_shipped_instances(dual_cs3, a3_morphism, dual_kp8,
                                         kp8_morphism):
    instances = [(dual_cs3, a3_morphism), (dual_cs3, full_subgroup(dual_cs3)),
                 (dual_cs3, trivial_subgroup(dual_cs3)),
                 (dual_kp8, kp8_morphism)]
    for D, m in instances:
        X = homogeneous_space(D, m)
        P = relation(homogeneous_action(D, X))
        T = restriction_table(D, X, P)
        assert T.checks.flags == {"one_orbit_per_row": True,
                                  "dimension_count": True}
        constants, checks = kac_constancy_check(D, X, T, P)
        assert checks.passed
        for (k, ci), c in constants.items():
            i = P.classes[ci][0]
            assert abs(c * X.block_dims[i] - T.mult[k, i]) < 1e-9


def test_vergnioux_agreement_all_instances(dual_cs3, a3_morphism, dual_kp8,
                                           kp8_morphism):
    for D, m in [(dual_cs3, a3_morphism),
                 (dual_cs3, trivial_subgroup(dual_cs3)),
                 (dual_cs3, full_subgroup(dual_cs3)),
                 (dual_kp8, kp8_morphism)]:
        V = vergnioux_of(D, m)
        assert V.checks.flags["fusion_equals_support"]
        assert V.checks.flags["support_projection_positivity"]


def test_vergnioux_a3_classes(dual_cs3, a3_morphism):
    V = vergnioux_of(dual_cs3, a3_morphism)
    assert V.classes == [[0, 1], [2]]  # {triv, sgn} and {std}


def test_vergnioux_full_subgroup_total(dual_cs3):
    V = vergnioux_of(dual_cs3, full_subgroup(dual_cs3))
    assert np.all(V.support)
    assert V.classes == [[0, 1, 2]]


def test_vergnioux_trivial_subgroup_equality(dual_cs3):
    V = vergnioux_of(dual_cs3, trivial_subgroup(dual_cs3))
    assert np.array_equal(V.support, np.eye(3, dtype=bool))


def test_nonnormal_classical_cosets(s3, hopf_gs3, data_dir):
    # dual of C[S3]: the classical discrete S3; Lambda = {e, (01)}; the
    # fusion relation must be "same right coset" on the group elements
    from finiteqg.io import load_hopf, load_subgroup
    from finiteqg.orbits import subgroup_from_dual_matrix
    HB = load_hopf(data_dir / "s3_group_algebra.json")
    D = dualize(HB)
    kind, rows = load_subgroup(data_dir / "s3_z2_subgroup.json", HB.dim)
    m = subgroup_from_dual_matrix(D, rows)
    assert not m.normal

    # identify which dual block is which group element via the group-likes
    assert mult_unitary(D).passed
    W = D.dual_to_block
    _, phi = block_presentation(group_algebra(s3))
    elem_of_block = []
    for t in range(6):
        chi = np.zeros(6)
        chi[D.dual_algebra.index(t, 0, 0)] = 1.0
        g_block = chi @ W  # group-like of Pol, block coords
        g_group = phi @ g_block
        idx = int(np.argmax(np.abs(g_group)))
        assert abs(g_group[idx] - 1) < 1e-9
        elem_of_block.append(idx)

    t_idx = s3.index_of((1, 0, 2))
    lam = {s3.identity, t_idx}
    V = vergnioux_of(D, m)
    assert V.checks.flags["fusion_equals_support"]
    for a in range(6):
        for b in range(6):
            ga, gb = elem_of_block[a], elem_of_block[b]
            # sigma ~ tau iff sigma tau^{-1} in Lambda (same right coset)
            same_coset = s3.table[ga, s3.inverse(gb)] in lam
            assert bool(V.support[a, b]) == same_coset

    X = homogeneous_space(D, m)
    P = relation(homogeneous_action(D, X))
    T = restriction_table(D, X, P)
    assert T.checks.flags == {"one_orbit_per_row": True,
                              "dimension_count": True}
    assert kac_constancy_check(D, X, T, P)[1].passed


# rank 1 onto a 2-dim codomain; and a kernel holding d_0 - d_1, whose
# product with d_0 is d_0, which rho does not kill
NOT_SURJECTIVE = np.ones((2, 6))
KERNEL_NOT_IDEAL = np.array([[1.0, 1.0, 0, 0, 0, 0], [0, 0, 1.0, 0, 0, 0]])


@pytest.mark.parametrize("rho", [NOT_SURJECTIVE, KERNEL_NOT_IDEAL],
                         ids=["not_surjective", "kernel_not_ideal"])
def test_hopf_surjection_must_be_a_hopf_surjection(hopf_cs3, dual_cs3, rho):
    with pytest.raises(MorphismError):
        quotient_subgroup(hopf_cs3, dual_cs3, rho)


def test_zero_row_quotient_is_a_morphism_error(hopf_cs3, dual_cs3):
    with pytest.raises(MorphismError, match="no rows"):
        quotient_subgroup(hopf_cs3, dual_cs3, np.zeros((0, 6)))


def _closure_classes(rel):
    """Classes of the equivalence relation generated by rel, from its
    reflexive, symmetric, transitive closure by repeated squaring."""
    r = rel | rel.T | np.eye(rel.shape[0], dtype=bool)
    while True:
        nxt = (r.astype(int) @ r.astype(int)) > 0
        if np.array_equal(nxt, r):
            return sorted({tuple(int(i) for i in np.flatnonzero(row))
                           for row in r})
        r = nxt


def test_vergnioux_classes_are_closure_classes_on_shipped_pairs(data_dir):
    from finiteqg.io import load_hopf, load_subgroup
    from finiteqg.orbits import subgroup_from_dual_matrix
    duals = {}
    for hopf_file, sub_file in SUBGROUP_PAIRS:
        if hopf_file not in duals:
            H = load_hopf(data_dir / hopf_file)
            duals[hopf_file] = H, dualize(H)
        H, D = duals[hopf_file]
        kind, matrix = load_subgroup(data_dir / sub_file, H.dim)
        m = (subgroup_from_dual_matrix(D, matrix) if kind == "pi"
             else quotient_subgroup(H, D, matrix)[0])
        V = vergnioux_of(D, m)
        assert [tuple(c) for c in V.classes] == _closure_classes(V.support)
        assert V.checks.flags["orbit_classes_match_vergnioux"], (
            hopf_file, sub_file)


def test_seed_invariance_on_shipped_pairs(data_dir):
    """Dual block dimensions, orbit classes and restriction tables do not
    depend on the seed of the randomized Wedderburn splitting."""
    from finiteqg.core import DEFAULT_SEED
    from finiteqg.io import load_hopf, load_subgroup
    from finiteqg.orbits import subgroup_from_dual_matrix
    hopfs = {f: load_hopf(data_dir / f) for f, _ in SUBGROUP_PAIRS}
    seen = {}
    for seed in (DEFAULT_SEED, 1, 2, 12345):
        duals = {f: dualize(H, seed=seed) for f, H in hopfs.items()}
        for hopf_file, sub_file in SUBGROUP_PAIRS:
            H, D = hopfs[hopf_file], duals[hopf_file]
            kind, matrix = load_subgroup(data_dir / sub_file, H.dim)
            m = (subgroup_from_dual_matrix(D, matrix) if kind == "pi"
                 else quotient_subgroup(H, D, matrix)[0])
            X = homogeneous_space(D, m, seed=seed)
            P = relation(homogeneous_action(D, X))
            T = restriction_table(D, X, P)
            got = (D.irr_dims, X.block_dims, P.classes, T.mult.tolist())
            assert seen.setdefault((hopf_file, sub_file), got) == got, seed


def test_nan_matrix_unit_fails_constancy(dual_cs3, a3_space, a3_partition):
    # a library caller hands in a homogeneous space whose last matrix unit
    # is NaN; the Markov residual must report it, not drop it
    T = restriction_table(dual_cs3, a3_space, a3_partition)
    iso = a3_space.wd.iso
    units = iso.matrix.copy()
    units[:, -1] = np.nan
    X = replace(a3_space, wd=replace(a3_space.wd, iso=LinMap(
        iso.domain, iso.codomain, units)))
    _, checks = kac_constancy_check(dual_cs3, X, T, a3_partition)
    assert np.isnan(checks.residuals["markov_trace_proportionality"])
    assert not checks.passed


@pytest.mark.parametrize("factor, value", [(0.5, r"0\.5"), (-1.0, r"-1")])
def test_restriction_table_refuses_a_non_integer_multiplicity(
        dual_cs3, a3_space, a3_partition, factor, value):
    # scaled matrix units trace to a half or a negative multiplicity
    iso = a3_space.wd.iso
    X = replace(a3_space, wd=replace(a3_space.wd, iso=LinMap(
        iso.domain, iso.codomain, factor * iso.matrix)))
    with pytest.raises(CheckError, match=f"restriction multiplicity .*"
                                         f"{value}.* is not a non-negative "
                                         "integer"):
        restriction_table(dual_cs3, X, a3_partition)


# -- the block-coordinate readers against the loops they replace -------------

def _looped_block(B, row, k):
    """Block k of a coefficient row, entry by entry through ``index``."""
    n = B.block_dims[k]
    return np.array([[row[B.index(k, i, j)] for j in range(n)]
                     for i in range(n)])


def _looped_restriction(D, X):
    B = D.dual_algebra
    mult = np.zeros((len(D.irr_dims), X.size), dtype=int)
    for i in range(X.size):
        for k in range(len(D.irr_dims)):
            tr = np.trace(_looped_block(B, X.wd.units(i)[0, 0], k))
            mult[k, i] = int(round(tr.real))
    return mult


def _looped_markov_residual(D, X, T, P):
    B = D.dual_algebra
    devs = []
    for k in range(len(D.irr_dims)):
        for cls in P.classes:
            mval = int(T.mult[k, cls[0]])
            if mval == 0:
                continue
            c = mval / float(X.block_dims[cls[0]])
            for i in cls:
                n = X.block_dims[i]
                units = X.wd.units(i)
                for a in range(n):
                    for b in range(n):
                        tr = complex(np.trace(
                            _looped_block(B, units[a, b], k)))
                        devs.append(abs(tr - (c * n if a == b else 0.0)))
    return float(np.max(devs, initial=0.0))


def _looped_routes(D, m, supports):
    """The support, fusion and witness relations of vergnioux_relation,
    pair by pair; the witness route through the looped trace of
    delta_dual(e^tau_00) on each pair of diagonals."""
    B = D.dual_algebra
    n = len(D.irr_dims)
    support = np.zeros((n, n), dtype=bool)
    for row in supports:
        for a in np.flatnonzero(row):
            for b in np.flatnonzero(row):
                support[a, b] = True
    y = (D.dual_hopf.delta.matrix @ m.support).reshape(B.dim, B.dim)
    z = y @ D.dual_hopf.antipode.matrix.T
    scale = float(np.linalg.norm(z))
    fusion = np.zeros((n, n), dtype=bool)
    witness = np.zeros((n, n), dtype=bool)
    DM = D.dual_hopf.delta.matrix
    for s in range(n):
        rows = [B.index(s, i, j) for i in range(D.irr_dims[s])
                for j in range(D.irr_dims[s])]
        for t in range(n):
            cols = [B.index(t, i, j) for i in range(D.irr_dims[t])
                    for j in range(D.irr_dims[t])]
            norm = float(np.linalg.norm(z[np.ix_(rows, cols)]))
            fusion[s, t] = not Tolerance().is_zero(norm, scale)
            col = DM[:, B.index(t, 0, 0)].reshape(B.dim, B.dim)
            witness[s, t] = any(
                round(sum(col[B.index(g, i, i), B.index(s, j, j)]
                          for i in range(D.irr_dims[g])
                          for j in range(D.irr_dims[s])).real) > 0
                for g in m.surviving)
    return support, fusion, witness


def test_clifford_readers_equal_their_loops(shipped_pairs):
    for key, (_, D, m, _, X) in shipped_pairs.items():
        P = relation(homogeneous_action(D, X))
        T = restriction_table(D, X, P)
        assert np.array_equal(T.mult, _looped_restriction(D, X)), key
        _, checks = kac_constancy_check(D, X, T, P)
        # the same traces, summed as np.trace sums them: the same bits
        assert (checks.residuals["markov_trace_proportionality"]
                == _looped_markov_residual(D, X, T, P)), key
        V = vergnioux_relation(D, X, P)
        support, fusion, witness = _looped_routes(D, m, X.block_supports())
        assert np.array_equal(V.support, support), key
        assert np.array_equal(V.fusion, fusion), key
        assert np.array_equal(V.witness, witness), key
