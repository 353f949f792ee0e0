import numpy as np
import pytest

from finiteqg import groups
from finiteqg.clifford import quotient_subgroup, vergnioux_relation
from finiteqg.core import BlockAlgebra, LinMap, Tolerance, tensor
from finiteqg.duality import dualize
from finiteqg.hopf import (HopfData, function_algebra, group_algebra,
                           kac_paljutkin)
from finiteqg.io import load_hopf, load_subgroup
from finiteqg.orbits import (homogeneous_action, homogeneous_space, relation,
                             subgroup_from_dual_matrix)

from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "src" / "finiteqg" / "data"


def kron_star_matrix(alg):
    """The star matrix of an algebra, of a tensor product the np.kron of
    its factors' star matrices: the reference for the leg-wise star."""
    first, *rest = getattr(alg, "factors", (alg,))
    st = first.star_matrix
    for f in rest:
        st = np.kron(st, f.star_matrix)
    return st


def random_row(alg, rng):
    """A random complex coefficient row of ``alg``: real parts, then
    imaginary parts, from the standard normal."""
    return rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)


def basis_row(alg, k):
    """The coefficient row of the basis element e_k of ``alg``."""
    return np.eye(alg.dim, dtype=complex)[k]


# the Cayley table of an order-6 loop: two-sided inverses LOOP_INVERSES
# and (xy)^-1 = y^-1 x^-1, but (xy)z != x(yz)
LOOP_TABLE = np.array([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4],
                       [2, 4, 0, 5, 3, 1], [3, 5, 4, 1, 0, 2],
                       [4, 2, 5, 0, 1, 3], [5, 3, 1, 4, 2, 0]])
LOOP_INVERSES = [0, 1, 2, 4, 3, 5]


def loop_functions():
    """C(L6), built from the loop's table as ``function_algebra`` builds
    C(G) from a group's, and not verified: its coproduct is not
    coassociative, since the loop's product is not associative."""
    n = len(LOOP_TABLE)
    A = BlockAlgebra([1] * n)
    D = np.zeros((n * n, n), dtype=complex)
    D[np.arange(n * n), LOOP_TABLE.reshape(-1)] = 1.0
    S = np.zeros((n, n), dtype=complex)
    S[LOOP_INVERSES, np.arange(n)] = 1.0
    return HopfData(A, LinMap(A, tensor(A, A), D), np.eye(n)[0],
                    LinMap(A, A, S), name="C(L6)")


def vergnioux_of(D, m):
    """``vergnioux_relation`` on the homogeneous space of the subgroup m
    and its orbit relation, built as the vergnioux command builds them."""
    X = homogeneous_space(D, m)
    return vergnioux_relation(D, X, relation(homogeneous_action(D, X)))


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def s3():
    return groups.symmetric(3)


@pytest.fixture(scope="session")
def hopf_cs3(s3):
    return function_algebra(s3)


@pytest.fixture(scope="session")
def hopf_gs3(s3):
    return group_algebra(s3)


@pytest.fixture(scope="session")
def dual_cs3(hopf_cs3):
    return dualize(hopf_cs3)


@pytest.fixture(scope="session")
def kp8():
    return kac_paljutkin()


@pytest.fixture(scope="session")
def kp8_block():
    return load_hopf(DATA / "kp8.json")


@pytest.fixture(scope="session")
def dual_kp8(kp8_block):
    return dualize(kp8_block)


@pytest.fixture(scope="session")
def a3_morphism(dual_cs3, s3):
    sign = -np.ones(s3.order)
    sign[groups.alternating_indices(s3)] = 1.0
    rows = np.stack([np.ones(6), sign])
    return subgroup_from_dual_matrix(dual_cs3, rows)


@pytest.fixture(scope="session")
def a3_space(dual_cs3, a3_morphism):
    return homogeneous_space(dual_cs3, a3_morphism)


@pytest.fixture(scope="session")
def a3_trivial_block(a3_space):
    """The block of the A3 space whose unit carries the trivial dual
    projection."""
    supports = a3_space.block_supports(Tolerance())
    return int(np.flatnonzero(supports[:, 0])[0])


@pytest.fixture(scope="session")
def a3_action(dual_cs3, a3_space):
    return homogeneous_action(dual_cs3, a3_space)


@pytest.fixture(scope="session")
def a3_partition(a3_action):
    return relation(a3_action)


@pytest.fixture(scope="session")
def kp8_morphism(dual_kp8, data_dir):
    kind, rows = load_subgroup(data_dir / "kp8_subgroup.json", 8)
    assert kind == "pi"
    return subgroup_from_dual_matrix(dual_kp8, rows)


SUBGROUP_PAIRS = [("s3_function_algebra.json", "a3_quotient.json"),
                  ("s3_function_algebra.json", "a3_normal_subgroup.json"),
                  ("s3_function_algebra.json", "s3_full_subgroup.json"),
                  ("s3_function_algebra.json", "s3_trivial_subgroup.json"),
                  ("s3_group_algebra.json", "s3_z2_subgroup.json"),
                  ("kp8.json", "kp8_subgroup.json")]


def subgroup_from_file(H, D, sub_file):
    """The morphism of a shipped subgroup file, and its rho for a
    ``hopf_surjection`` file (None for a ``pi`` file)."""
    kind, matrix = load_subgroup(DATA / sub_file, H.dim)
    if kind == "pi":
        return subgroup_from_dual_matrix(D, matrix), None
    return quotient_subgroup(H, D, matrix)[0], np.asarray(matrix, complex)


@pytest.fixture(scope="session")
def shipped_pairs():
    """(H, D, morphism, quotient rho or None, space) per shipped pair."""
    duals, out = {}, {}
    for hopf_file, sub_file in SUBGROUP_PAIRS:
        if hopf_file not in duals:
            H = load_hopf(DATA / hopf_file)
            duals[hopf_file] = H, dualize(H)
        H, D = duals[hopf_file]
        m, rho = subgroup_from_file(H, D, sub_file)
        out[hopf_file, sub_file] = H, D, m, rho, homogeneous_space(D, m)
    return out
