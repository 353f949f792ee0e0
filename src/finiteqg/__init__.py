"""Finite quantum groups as multi-matrix Hopf *-algebras.

Structure constants in, theorems out: Haar states, the dual discrete
quantum group with its multiplicative unitary, Wedderburn block
decompositions, orbit relations of actions on direct sums of matrix
algebras, homogeneous spaces of quantum subgroups, restriction tables of
Clifford type, and the fusion (Vergnioux) relation -- every claim checked
numerically against a tolerance.

``import finiteqg`` executes no submodule.  Each library module is
registered in ``sys.modules`` (and as an attribute of the package) with a
lazy loader, so it is compiled and executed on the first access to one of
its attributes.  The names listed in ``__all__`` are served from their
modules on first use: ``finiteqg.dualize is finiteqg.duality.dualize``.
Modules import each other as modules where they only call them, so a
command-line run executes only the modules its command uses.  The entry
points ``cli`` and ``__main__`` are imported as usual, so that
``python -m finiteqg.cli`` finds no copy of itself loaded beforehand.
"""

import importlib.util
import sys

# library module -> the names it exports at package level
_EXPORTS = {
    "core": ("Algebra", "BlockAlgebra", "CheckError", "Checks", "LinMap",
             "TensorAlgebra", "Tolerance", "DEFAULT_SEED", "tensor"),
    "groups": ("FiniteGroup", "cyclic", "direct_product", "quaternion",
               "symmetric"),
    "hopf": ("HopfAxiomError", "HopfData", "function_algebra",
             "group_algebra", "kac_paljutkin", "verify_hopf"),
    "haar": ("HaarState", "haar_state", "invariant_state_on_module"),
    "wedderburn": ("WedderburnData", "WedderburnError", "decompose",
                   "decompose_abstract"),
    "duality": ("DiscreteQG", "block_presentation", "contragredient",
                "corep_of", "dualize", "mult_unitary", "tensor_mult"),
    "orbits": ("ActionMap", "HomogeneousSpace", "OrbitPartition",
               "SubgroupMorphism", "central_supports", "ergodicity",
               "full_subgroup", "homogeneous_action", "homogeneous_space",
               "relation", "subgroup_from_dual_matrix", "trivial_subgroup"),
    "clifford": ("RestrictionTable", "VergniouxRelation",
                 "kac_constancy_check", "quotient_subgroup",
                 "restriction_table", "vergnioux_relation"),
    "classical": ("classical_orbits", "haar_values", "magic_action",
                  "magic_entries", "permutation_magic", "verify_magic"),
    "io": ("SchemaError", "load_hopf", "load_magic", "load_subgroup",
           "save_hopf", "save_magic", "save_subgroup"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _register_lazily(module: str):
    fullname = f"{__name__}.{module}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = lazy
    spec.loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _EXPORTS:
    _register_lazily(_module)
del _module


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
