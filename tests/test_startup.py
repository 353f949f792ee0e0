"""What a command executes at start-up.

``import finiteqg`` executes no submodule, and a command-line run executes
only the modules its command calls.  The entry points ``cli`` and
``__main__`` are imported as usual; every library module is registered
lazily.  A module counts as executed when its type is no longer the lazy
loader's: reading ``type()`` of an entry of ``sys.modules`` does not load
it.  Each run is a fresh interpreter.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finiteqg

SRC = Path(__file__).resolve().parents[1] / "src"
LIBRARY = sorted(p.stem for p in (SRC / "finiteqg").glob("*.py")
                 if p.stem not in ("__init__", "__main__", "cli"))

_EXECUTED = """
import types
executed = sorted(name.split(".", 1)[1] for name, m in sys.modules.items()
                  if name.startswith("finiteqg.")
                  and type(m) is types.ModuleType)
"""

# `python -m finiteqg ARGS` with the report swallowed; prints the exit code
# and the executed submodules
_RUN_COMMAND = """
import contextlib, io, json, runpy, sys
sys.argv = ["finiteqg", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("finiteqg", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
""" + _EXECUTED + """
print(json.dumps([code, executed]))
"""

_IMPORT_ONLY = """
import json, sys
import finiteqg
""" + _EXECUTED + """
registered = sorted(name.split(".", 1)[1] for name in sys.modules
                    if name.startswith("finiteqg."))
print(json.dumps([registered, executed]))
"""


def _run(*argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True)


def _child(code, *args):
    out = _run("-c", code, *args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


VERIFY = {"cli", "core", "hopf", "io"}
HAAR = VERIFY | {"haar"}
DUAL = HAAR | {"wedderburn", "duality"}
ORBITS = DUAL | {"orbits"}
CLIFFORD = ORBITS | {"clifford"}


@pytest.mark.parametrize("argv, modules", [
    (["verify", "kp8.json"], VERIFY),
    (["haar", "kp8.json"], HAAR),
    (["dual", "kp8.json"], DUAL),
    (["orbits", "kp8.json", "kp8_subgroup.json"], ORBITS),   # a pi file
    (["orbits", "s3_function_algebra.json", "a3_normal_subgroup.json"],
     CLIFFORD),                                  # a hopf_surjection file
    (["clifford", "s3_function_algebra.json", "a3_quotient.json"], CLIFFORD),
    (["vergnioux", "kp8.json", "kp8_subgroup.json"], CLIFFORD),
    (["classical-orbits", "z3_function_algebra.json", "z3_cycle.json"],
     HAAR | {"orbits", "classical"}),
])
def test_a_command_executes_only_the_modules_it_calls(argv, modules):
    code, executed = _child(_RUN_COMMAND, *argv)
    assert code == 0
    assert set(executed) == modules


def test_import_registers_every_library_module_and_executes_none():
    registered, executed = _child(_IMPORT_ONLY)
    assert registered == LIBRARY
    assert executed == []


def test_the_cli_module_runs_as_a_script():
    # runpy warns when the package has loaded the module it is to run
    out = _run("-W", "error::RuntimeWarning", "-m", "finiteqg.cli",
               "verify", "kp8.json")
    assert out.returncode == 0, out.stderr
    assert "status: ok" in out.stdout


# the package-level names, by the submodule that defines them
EXPORTS = {
    "core": ["Algebra", "BlockAlgebra", "CheckError", "Checks", "LinMap",
             "TensorAlgebra", "Tolerance", "DEFAULT_SEED", "tensor"],
    "groups": ["FiniteGroup", "cyclic", "direct_product", "quaternion",
               "symmetric"],
    "hopf": ["HopfAxiomError", "HopfData", "function_algebra",
             "group_algebra", "kac_paljutkin", "verify_hopf"],
    "haar": ["HaarState", "haar_state", "invariant_state_on_module"],
    "wedderburn": ["WedderburnData", "WedderburnError", "decompose",
                   "decompose_abstract"],
    "duality": ["DiscreteQG", "block_presentation", "contragredient",
                "corep_of", "dualize", "mult_unitary", "tensor_mult"],
    "orbits": ["ActionMap", "HomogeneousSpace", "OrbitPartition",
               "SubgroupMorphism", "central_supports", "ergodicity",
               "full_subgroup", "homogeneous_action", "homogeneous_space",
               "relation", "subgroup_from_dual_matrix", "trivial_subgroup"],
    "clifford": ["RestrictionTable", "VergniouxRelation",
                 "kac_constancy_check", "quotient_subgroup",
                 "restriction_table", "vergnioux_relation"],
    "classical": ["classical_orbits", "haar_values", "magic_action",
                  "magic_entries", "permutation_magic", "verify_magic"],
    "io": ["SchemaError", "load_hopf", "load_magic", "load_subgroup",
           "save_hopf", "save_magic", "save_subgroup"],
}


def test_package_names_are_the_submodules_objects():
    assert sorted(finiteqg.__all__) == sorted(
        name for names in EXPORTS.values() for name in names)
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"finiteqg.{module}")
        assert getattr(finiteqg, module) is mod
        for name in names:
            assert getattr(finiteqg, name) is getattr(mod, name)
            assert name in dir(finiteqg)
            scope = {}
            exec(f"from finiteqg import {name}", scope)
            assert scope[name] is getattr(mod, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        finiteqg.no_such_name
