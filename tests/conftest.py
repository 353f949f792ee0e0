import numpy as np
import pytest

from finiteqg import groups
from finiteqg.core import Tolerance
from finiteqg.duality import dualize
from finiteqg.hopf import function_algebra, group_algebra, kac_paljutkin
from finiteqg.io import load_hopf, load_subgroup
from finiteqg.orbits import (homogeneous_action, homogeneous_space, relation,
                             subgroup_from_dual_matrix)

from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "src" / "finiteqg" / "data"


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
