"""Finite quantum groups as multi-matrix Hopf *-algebras.

Structure constants in, theorems out: Haar states, the dual discrete
quantum group with its multiplicative unitary, Wedderburn block
decompositions, orbit relations of actions on direct sums of matrix
algebras, homogeneous spaces of quantum subgroups, restriction tables of
Clifford type, and the fusion (Vergnioux) relation -- every claim checked
numerically against a tolerance.
"""

from .core import (AlgElement, Algebra, BlockAlgebra, CheckError, Checks,
                   LinMap, TensorAlgebra, Tolerance, DEFAULT_SEED, is_zero,
                   kron, mul, norm, tensor)
from .groups import FiniteGroup, cyclic, direct_product, quaternion, symmetric
from .hopf import (HopfAxiomError, HopfData, function_algebra, group_algebra,
                   kac_paljutkin, verify_hopf)
from .haar import HaarState, haar_state, invariant_state_on_module
from .wedderburn import (WedderburnData, WedderburnError, central_support,
                         decompose, decompose_abstract)
from .duality import (DiscreteQG, MultUnitary, RepLabel, block_presentation,
                      contragredient, corep_of, dualize, mult_unitary,
                      tensor_mult)
from .orbits import (ActionMap, HomogeneousSpace, OrbitPartition,
                     SubgroupMorphism, central_supports, ergodicity,
                     full_subgroup, homogeneous_action, homogeneous_space,
                     relation, subgroup_from_dual_matrix,
                     subgroup_from_group_likes, trivial_subgroup)
from .clifford import (ConstancyReport, RestrictionTable, VergniouxRelation,
                       kac_constancy_check, quotient_subgroup,
                       restriction_table, vergnioux_relation)
from .classical import (MagicAction, action_from_magic, classical_orbits,
                        haar_values, permutation_magic, verify_magic)
from .io import (SchemaError, load_hopf, load_magic, load_subgroup,
                 save_hopf, save_magic, save_subgroup)

__version__ = "0.1.0"
