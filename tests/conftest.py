import numpy as np
import pytest

from finiteqg import groups
from finiteqg.clifford import quotient_subgroup
from finiteqg.core import Tolerance
from finiteqg.duality import dualize
from finiteqg.hopf import function_algebra, group_algebra, kac_paljutkin
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
    return next(i for i, s in enumerate(supports) if 0 in s)


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
