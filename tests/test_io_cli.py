import json
from dataclasses import replace

import numpy as np
import pytest

from finiteqg import cli, groups, haar, io, orbits
from finiteqg.haar import HaarError
from finiteqg.hopf import function_algebra
from finiteqg.io import (SchemaError, hopf_equal, hopf_from_dict,
                         hopf_to_dict, load_hopf, load_magic, load_subgroup,
                         magic_from_dict, magic_to_dict, save_hopf)

from conftest import SUBGROUP_PAIRS

HOPF_FILES = ["z2_function_algebra.json", "z3_function_algebra.json",
              "s3_function_algebra.json", "z2_group_algebra.json",
              "s3_group_algebra.json", "q8_group_algebra.json", "kp8.json"]


@pytest.mark.parametrize("name", HOPF_FILES)
def test_hopf_round_trip(data_dir, name):
    H = load_hopf(data_dir / name)
    H2 = hopf_from_dict(hopf_to_dict(H))
    assert hopf_equal(H, H2)


def test_function_algebra_round_trip(tmp_path):
    H = function_algebra(groups.cyclic(2))
    save_hopf(H, tmp_path / "z2.json")
    H2 = load_hopf(tmp_path / "z2.json")
    assert hopf_equal(H, H2)


def test_magic_round_trip(data_dir, kp8_block):
    M = load_magic(data_dir / "kp8_magic4.json", kp8_block)
    M2 = magic_from_dict(magic_to_dict(M), kp8_block)
    assert np.abs(M.matrix - M2.matrix).max() <= 1e-14


def test_subgroup_round_trip(tmp_path, data_dir):
    from finiteqg.io import save_subgroup
    import numpy as np
    for name, dim in [("a3_quotient.json", 6),
                      ("a3_normal_subgroup.json", 6),
                      ("kp8_subgroup.json", 8)]:
        kind, m = load_subgroup(data_dir / name, dim)
        save_subgroup(m, tmp_path / name, kind=kind)
        kind2, m2 = load_subgroup(tmp_path / name, dim)
        assert kind2 == kind
        assert np.abs(m - m2).max() <= 1e-14


def test_malformed_json_schema_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_hopf(p)
    p2 = tmp_path / "missing.json"
    p2.write_text(json.dumps({"name": "x"}))
    with pytest.raises(SchemaError):
        load_hopf(p2)


def test_subgroup_needs_known_key(tmp_path):
    p = tmp_path / "sub.json"
    p.write_text(json.dumps({"matrix": [[0, 0, 1.0, 0.0]]}))
    with pytest.raises(SchemaError):
        load_subgroup(p, 6)


def test_cli_verify_ok(capsys):
    assert cli.main(["verify", "kp8.json"]) == 0
    out = capsys.readouterr().out
    assert "coassociativity" in out and "status: ok" in out


def test_cli_verify_corrupted_exit_one(tmp_path, capsys, data_dir):
    data = json.loads((data_dir / "kp8.json").read_text())
    data["delta"][0][3] += 0.25
    p = tmp_path / "corrupt.json"
    p.write_text(json.dumps(data))
    assert cli.main(["verify", str(p)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out and "coassociativity" in out


def test_cli_missing_file_exit_two(capsys):
    assert cli.main(["verify", "definitely_not_here.json"]) == 2


def test_cli_haar_z2(capsys):
    assert cli.main(["haar", "z2_function_algebra.json"]) == 0
    out = capsys.readouterr().out
    assert "[0.5, 0.0], [0.5, 0.0]" in out


def test_cli_dual_blocks(capsys):
    assert cli.main(["dual", "kp8.json"]) == 0
    out = capsys.readouterr().out
    assert "dual_blocks: [1, 1, 1, 1, 2]" in out


def test_cli_orbits_a3(capsys):
    rc = cli.main(["orbits", "s3_function_algebra.json", "a3_quotient.json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "classes: [[0, 1], [2]]" in out
    assert "homogeneous_blocks: [1, 1, 1]" in out


def test_cli_clifford_both_paths(capsys):
    rc1 = cli.main(["clifford", "s3_function_algebra.json",
                    "a3_quotient.json"])
    out1 = capsys.readouterr().out
    rc2 = cli.main(["clifford", "s3_function_algebra.json",
                    "a3_normal_subgroup.json"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    line = "restriction_table: [[0, 0, 1], [0, 0, 1], [1, 1, 0]]"
    assert line in out1 and line in out2


def test_cli_vergnioux_instances(capsys):
    for sub in ["a3_quotient.json", "s3_trivial_subgroup.json",
                "s3_full_subgroup.json"]:
        assert cli.main(["vergnioux", "s3_function_algebra.json", sub]) == 0
        assert "fusion_equals_support" in capsys.readouterr().out
    assert cli.main(["vergnioux", "kp8.json", "kp8_subgroup.json"]) == 0
    capsys.readouterr()
    # the generalized, non-normal instance runs through the same command
    assert cli.main(["vergnioux", "s3_group_algebra.json",
                     "s3_z2_subgroup.json"]) == 0


def test_cli_vergnioux_fails_when_orbit_classes_miss_its_classes(
        monkeypatch, capsys, tmp_path):
    # singleton orbit classes on S3/A3 carry the two std blocks to the
    # class {std} twice, so the link to the fusion classes must fail
    real = orbits.relation

    def singletons(alpha, tol=None):
        return replace(real(alpha, tol),
                       classes=[[i] for i in range(alpha.size)])

    monkeypatch.setattr(orbits, "relation", singletons)
    p = tmp_path / "report.json"
    # a flag is never judged by the tolerance: it fails as well at 1e-3,
    # a million times the default (at 1e-2 the Wedderburn split of the
    # dual already refuses, at 1 the Haar nullity, so the flag is not
    # reached there)
    for tol in ([], ["--tol", "1e-3"]):
        assert cli.main(["vergnioux", "s3_function_algebra.json",
                         "a3_quotient.json", "--json", str(p), *tol]) == 1
        capsys.readouterr()
        checks = {c["name"]: c["passed"]
                  for c in json.loads(p.read_text())["checks"]}
        assert checks.pop("orbit_classes_match_vergnioux") is False
        assert all(checks.values())


def test_cli_classical_orbits(capsys):
    rc = cli.main(["classical-orbits", "z3_function_algebra.json",
                   "z3_cycle.json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "classes: [[0, 1, 2]]" in out
    assert "0.333333333333" in out


def test_cli_json_report_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for p in (p1, p2):
        rc = cli.main(["orbits", "s3_function_algebra.json",
                       "a3_quotient.json", "--json", str(p)])
        capsys.readouterr()
        assert rc == 0
    assert p1.read_bytes() == p2.read_bytes()
    report = json.loads(p1.read_text())
    assert all(c["passed"] for c in report["checks"])
    assert report["results"]["classes"] == [[0, 1], [2]]


def test_cli_tolerance_flag(capsys):
    # an absurdly tight tolerance makes honest rounding fail
    rc = cli.main(["haar", "kp8.json", "--tol", "1e-17"])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["verify", "kp8.json", "--tol", "0"],
    ["verify", "kp8.json", "--tol", "-1"],
    ["verify", "kp8.json", "--tol", "nan"],
    ["verify", "kp8.json", "--tol", "inf"],
    ["dual", "q8_group_algebra.json", "--seed", "-1"],
])
def test_cli_malformed_tolerance_or_seed_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[2]}: must be a" in capsys.readouterr().err


def _perturbed_z3_cycle(tmp_path, data_dir):
    data = json.loads((data_dir / "z3_cycle.json").read_text())
    data["u"][0][2][0][1] += 1e-7
    p = tmp_path / "z3_cycle_perturbed.json"
    p.write_text(json.dumps(data))
    return p


def test_cli_classical_orbits_honours_tolerance(tmp_path, data_dir, capsys):
    magic = str(_perturbed_z3_cycle(tmp_path, data_dir))
    assert cli.main(["classical-orbits", "z3_function_algebra.json",
                     magic]) == 1
    assert cli.main(["classical-orbits", "z3_function_algebra.json",
                     magic, "--tol", "1e-5"]) == 0
    capsys.readouterr()


def test_cli_failed_magic_check_aborts_as_check_error(tmp_path, data_dir,
                                                      capsys):
    magic = str(_perturbed_z3_cycle(tmp_path, data_dir))
    p = tmp_path / "report.json"
    assert cli.main(["classical-orbits", "z3_function_algebra.json", magic,
                     "--json", str(p)]) == 1
    assert "magic action fails: " in capsys.readouterr().err
    checks = {c["name"]: c["passed"]
              for c in json.loads(p.read_text())["checks"]}
    assert checks["CheckError"] is False
    assert not all(v for k, v in checks.items() if k.startswith("magic:"))


@pytest.mark.parametrize("entry", [[-1, 0, 1.0, 0.0], [0, -6, 1.0, 0.0],
                                   [0, 6, 1.0, 0.0]])
def test_subgroup_index_out_of_range(tmp_path, capsys, entry):
    p = tmp_path / "sub.json"
    p.write_text(json.dumps({"pi": [[0, 0, 1.0, 0.0], entry]}))
    with pytest.raises(SchemaError):
        load_subgroup(p, 6)
    assert cli.main(["orbits", "s3_function_algebra.json", str(p)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("row", [6, 10 ** 12])
def test_subgroup_with_more_rows_than_dim_exits_2(tmp_path, capsys, row):
    # a surjection of the 6-dim C(S3) has at most 6 rows; refused before
    # the (row + 1) x 6 matrix is allocated
    p = tmp_path / "sub.json"
    p.write_text(json.dumps({"pi": [[row, 0, 1.0, 0.0]]}))
    with pytest.raises(SchemaError, match="row index"):
        load_subgroup(p, 6)
    assert cli.main(["orbits", "s3_function_algebra.json", str(p)]) == 2
    assert "status" not in capsys.readouterr().out


@pytest.mark.parametrize("n, u", [(10 ** 6, []),
                                  (2, [[0, 0, [[0, 1.0, 0.0]]]])])
def test_magic_with_fewer_entries_than_points_exits_2(tmp_path, capsys, n,
                                                      u):
    # every row of a magic matrix sums to the unit, so each of the n rows
    # needs an entry; refused before the n x n x dim array is allocated
    p = tmp_path / "magic.json"
    p.write_text(json.dumps({"n": n, "u": u}))
    with pytest.raises(SchemaError, match="row of the magic matrix is empty"):
        load_magic(p, function_algebra(groups.cyclic(2)))
    assert cli.main(["classical-orbits", "z2_function_algebra.json",
                     str(p)]) == 2
    assert "status" not in capsys.readouterr().out


@pytest.mark.parametrize("entry", [[-1, 0, [[0, 1.0, 0.0]]],
                                   [0, 3, [[0, 1.0, 0.0]]],
                                   [0, 0, [[-3, 1.0, 0.0]]],
                                   [0, 0, [[3, 1.0, 0.0]]]])
def test_magic_index_out_of_range(tmp_path, data_dir, capsys, entry):
    data = json.loads((data_dir / "z3_cycle.json").read_text())
    data["u"].append(entry)
    p = tmp_path / "magic.json"
    p.write_text(json.dumps(data))
    H = function_algebra(groups.cyclic(3))
    with pytest.raises(SchemaError):
        load_magic(p, H)
    assert cli.main(["classical-orbits", "z3_function_algebra.json",
                     str(p)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key, entry", [("delta", [0, 0, 2, 1.0, 0.0]),
                                        ("delta", [0, -1, 0, 1.0, 0.0]),
                                        ("counit", [-2, 1.0, 0.0]),
                                        ("antipode", [0, 2, 1.0, 0.0])])
def test_hopf_index_out_of_range(tmp_path, capsys, key, entry):
    data = hopf_to_dict(function_algebra(groups.cyclic(2)))
    data[key].append(entry)
    p = tmp_path / "hopf.json"
    p.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_hopf(p)
    assert cli.main(["verify", str(p)]) == 2
    capsys.readouterr()


NON_FINITE = ["NaN", "Infinity", "-Infinity"]


@pytest.mark.parametrize("value", NON_FINITE)
def test_hopf_non_finite_coefficient(tmp_path, data_dir, capsys, value):
    data = json.loads((data_dir / "z2_function_algebra.json").read_text())
    data["counit"][0][1] = float(value)
    p = tmp_path / "hopf.json"
    p.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_hopf(p)
    assert cli.main(["verify", str(p)]) == 2
    assert "status" not in capsys.readouterr().out


@pytest.mark.parametrize("value", NON_FINITE)
def test_subgroup_non_finite_coefficient(tmp_path, capsys, value):
    p = tmp_path / "sub.json"
    p.write_text(json.dumps({"pi": [[0, 0, 1.0, 0.0],
                                    [0, 1, 0.0, float(value)]]}))
    with pytest.raises(SchemaError):
        load_subgroup(p, 6)
    assert cli.main(["orbits", "s3_function_algebra.json", str(p)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", NON_FINITE)
def test_magic_non_finite_coefficient(tmp_path, data_dir, capsys, value):
    data = json.loads((data_dir / "z3_cycle.json").read_text())
    data["u"][0][2][0][1] = float(value)
    p = tmp_path / "magic.json"
    p.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_magic(p, function_algebra(groups.cyclic(3)))
    assert cli.main(["classical-orbits", "z3_function_algebra.json",
                     str(p)]) == 2
    capsys.readouterr()


# a JSON integer too large for a float, written out in digits
HUGE = 10 ** 400


@pytest.mark.parametrize("kind", ["hopf", "subgroup", "magic"])
def test_coefficient_overflowing_a_float_exits_2(tmp_path, data_dir, capsys,
                                                 kind):
    p = tmp_path / f"{kind}.json"
    if kind == "hopf":
        data = json.loads((data_dir / "z2_function_algebra.json").read_text())
        data["counit"][0][1] = HUGE
        argv = ["verify", str(p)]
    elif kind == "subgroup":
        data = {"pi": [[0, 0, 1.0, 0.0], [0, 1, 0.0, HUGE]]}
        argv = ["orbits", "s3_function_algebra.json", str(p)]
    else:
        data = json.loads((data_dir / "z3_cycle.json").read_text())
        data["u"][0][2][0][1] = HUGE
        argv = ["classical-orbits", "z3_function_algebra.json", str(p)]
    p.write_text(json.dumps(data))
    assert str(HUGE) in p.read_text()
    with pytest.raises(SchemaError, match="not finite"):
        if kind == "hopf":
            load_hopf(p)
        elif kind == "subgroup":
            load_subgroup(p, 6)
        else:
            load_magic(p, function_algebra(groups.cyclic(3)))
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert "not finite" in out + err and "Traceback" not in err


def test_cli_aborted_check_is_reported_as_failed(tmp_path, capsys,
                                                 monkeypatch):
    def not_faithful(*args, **kwargs):
        raise HaarError("Haar state is not faithful (Gram not positive)")

    # cli looks the Haar state up in its module
    monkeypatch.setattr(haar, "haar_state", not_faithful)
    p = tmp_path / "report.json"
    assert cli.main(["haar", "kp8.json", "--json", str(p)]) == 1
    out = capsys.readouterr().out
    assert "status: CHECKS FAILED" in out
    assert "status: ok" not in out
    checks = json.loads(p.read_text())["checks"]
    assert checks[-1]["name"] == "HaarError"
    assert not checks[-1]["passed"]
    assert all(c["passed"] for c in checks[:-1])


def test_cli_lets_an_internal_value_error_through(monkeypatch, capsys):
    # only SchemaError and CheckError are reported; anything else is a bug
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(haar, "haar_state", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["haar", "kp8.json"])
    capsys.readouterr()


def test_every_failed_check_error_is_a_check_error():
    from finiteqg.clifford import NormalityError
    from finiteqg.core import CheckError
    from finiteqg.hopf import HopfAxiomError
    from finiteqg.orbits import MorphismError
    from finiteqg.wedderburn import WedderburnError
    for cls in (HopfAxiomError, HaarError, WedderburnError, MorphismError,
                NormalityError):
        assert issubclass(cls, CheckError)
    assert not issubclass(SchemaError, CheckError)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_huge_subgroup_matrix_is_a_failed_morphism(tmp_path, data_dir,
                                                       capsys):
    data = json.loads((data_dir / "a3_quotient.json").read_text())
    for entry in data["pi"]:
        entry[2] *= 1e160
        entry[3] *= 1e160
    sub = tmp_path / "huge.json"
    sub.write_text(json.dumps(data))
    p = tmp_path / "report.json"
    assert cli.main(["orbits", "s3_function_algebra.json", str(sub),
                     "--json", str(p)]) == 1
    assert "Hopf *-surjection" in capsys.readouterr().err
    checks = json.loads(p.read_text())["checks"]
    assert checks[-1]["name"] == "MorphismError"
    assert not checks[-1]["passed"]
    assert all(c["passed"] for c in checks[:-1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("key, entry", [
    ("antipode", [0, 0, 1e160, 0]), ("delta", [0, 0, 0, 1e308, 1e308]),
    ("counit", [0, 1e308, 1e308])], ids=["antipode", "delta", "counit"])
def test_cli_huge_hopf_entry_is_a_failed_axiom_check(tmp_path, data_dir,
                                                     capsys, key, entry):
    # squared as Python floats the first two scales would raise
    # OverflowError; the third overflows in a norm
    data = json.loads((data_dir / "s3_function_algebra.json").read_text())
    data[key].append(entry)
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(data))
    for command in ("verify", "haar"):
        assert cli.main([command, str(p)]) == 1
        assert "status: CHECKS FAILED" in capsys.readouterr().out


# each edit makes a file that int() or complex() would silently reinterpret
def _float_counit_index(data):
    data["counit"][0][0] = 0.7          # read as index 0


def _bool_delta_index(data):
    entry = next(e for e in data["delta"] if e[1] == 1)
    entry[1] = True                     # read as index 1


def _string_blocks(data):
    data["blocks"] = "11"               # read as blocks (1, 1)


def _float_block(data):
    data["blocks"] = [1.5, 1]           # read as blocks (1, 1)


def _bool_coefficient(data):
    data["counit"][0][1] = True         # read as 1.0


def _null_name(data):
    data["name"] = None                 # read as the name "None"


def _object_delta(data):
    data["delta"] = {}                  # read as no entries


def _object_counit(data):
    data["counit"] = {}                 # read as no entries


def _object_antipode(data):
    data["antipode"] = {}               # read as no entries


OBJECT_ENTRIES = [_object_delta, _object_counit, _object_antipode]


@pytest.mark.parametrize("edit", [_float_counit_index, _bool_delta_index,
                                  _string_blocks, _float_block,
                                  _bool_coefficient, _null_name,
                                  *OBJECT_ENTRIES])
def test_hopf_file_is_not_reinterpreted(edit):
    data = hopf_to_dict(function_algebra(groups.cyclic(2)))
    edit(data)
    with pytest.raises(SchemaError):
        hopf_from_dict(data)


@pytest.mark.parametrize("data", [
    {"pi": [[0, 0.7, 1.0, 0.0], [1, 1, 1.0, 0.0]]},
    {"pi": [[0, 0, 1.0, 0.0], [True, 1, 1.0, 0.0]]},
    {"pi": [[0, 0, 1.0, 0.0]], "hopf_surjection": [[0, 0, 1.0, 0.0]]}],
    ids=["float_index", "bool_index", "both_kinds"])
def test_subgroup_file_is_not_reinterpreted(tmp_path, data):
    p = tmp_path / "sub.json"
    p.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        load_subgroup(p, 6)


@pytest.mark.parametrize("edit", ["float_point", "bool_coefficient_index",
                                  "object_coefficients", "float_count"])
def test_magic_file_is_not_reinterpreted(data_dir, edit):
    data = json.loads((data_dir / "z3_cycle.json").read_text())
    if edit == "float_point":
        data["u"][0][1] = 0.0
    elif edit == "bool_coefficient_index":
        data["u"][1][2][0][0] = True
    elif edit == "object_coefficients":
        data["u"][0][2] = {}            # read as no terms
    else:
        data["n"] = 3.0
    with pytest.raises(SchemaError):
        magic_from_dict(data, function_algebra(groups.cyclic(3)))


def test_cli_reinterpretable_input_exit_two(tmp_path, data_dir, capsys):
    hopf = hopf_to_dict(function_algebra(groups.cyclic(2)))
    hopf["blocks"] = "11"
    hopf_path = tmp_path / "hopf.json"
    hopf_path.write_text(json.dumps(hopf))
    sub_path = tmp_path / "sub.json"
    sub_path.write_text(json.dumps(
        json.loads((data_dir / "a3_quotient.json").read_text())
        | json.loads((data_dir / "a3_normal_subgroup.json").read_text())))
    magic = json.loads((data_dir / "z3_cycle.json").read_text())
    magic["n"] = 3.0
    magic_path = tmp_path / "magic.json"
    magic_path.write_text(json.dumps(magic))
    named = hopf_to_dict(function_algebra(groups.cyclic(2)))
    named["name"] = None
    named_path = tmp_path / "named.json"
    named_path.write_text(json.dumps(named))
    assert cli.main(["verify", str(hopf_path)]) == 2
    assert cli.main(["verify", str(named_path)]) == 2
    for edit in OBJECT_ENTRIES:
        data = hopf_to_dict(function_algebra(groups.cyclic(2)))
        edit(data)
        path = tmp_path / f"{edit.__name__}.json"
        path.write_text(json.dumps(data))
        assert cli.main(["verify", str(path)]) == 2
    assert cli.main(["orbits", "s3_function_algebra.json",
                     str(sub_path)]) == 2
    assert cli.main(["classical-orbits", "z3_function_algebra.json",
                     str(magic_path)]) == 2
    terms = json.loads((data_dir / "z3_cycle.json").read_text())
    terms["u"][0][2] = {}
    terms_path = tmp_path / "terms.json"
    terms_path.write_text(json.dumps(terms))
    assert cli.main(["classical-orbits", "z3_function_algebra.json",
                     str(terms_path)]) == 2
    assert "status" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "{dir}"], ["orbits", "s3_function_algebra.json", "{dir}"],
    ["classical-orbits", "z3_function_algebra.json", "{dir}"],
    ["verify", "{latin1}"],
    ["orbits", "s3_function_algebra.json", "{null}"]],
    ids=["hopf_directory", "subgroup_directory", "magic_directory",
         "non_utf8_file", "subgroup_json_null"])
def test_cli_unreadable_input_exit_two(tmp_path, capsys, argv):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')
    null = tmp_path / "null.json"
    null.write_text("null")
    args = [a.format(dir=tmp_path, latin1=latin1, null=null) for a in argv]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert "status" not in captured.out
    assert captured.err.startswith("input error: ")


@pytest.mark.parametrize("n", [0, -1])
def test_magic_point_count_must_be_positive(tmp_path, capsys, n):
    p = tmp_path / "magic.json"
    p.write_text(json.dumps({"n": n, "u": []}))
    with pytest.raises(SchemaError):
        load_magic(p, function_algebra(groups.cyclic(2)))
    assert cli.main(["classical-orbits", "z2_function_algebra.json",
                     str(p)]) == 2
    assert "status" not in capsys.readouterr().out


def _small_memory(monkeypatch, nbytes):
    monkeypatch.setattr(io, "_physical_memory", lambda: nbytes)


def test_oversize_magic_file_is_refused_before_allocation(
        tmp_path, capsys, monkeypatch):
    # 300 points with one entry per row pass the row count; the dense
    # (300, 300, 2) array takes 2.88 MB, more than the 1 MB reported
    n = 300
    p = tmp_path / "magic.json"
    p.write_text(json.dumps({"n": n, "u": [[i, i, [[0, 1.0, 0.0]]]
                                           for i in range(n)]}))
    _small_memory(monkeypatch, 10 ** 6)
    with pytest.raises(SchemaError, match="physical memory"):
        load_magic(p, function_algebra(groups.cyclic(2)))
    assert cli.main(["classical-orbits", "z2_function_algebra.json",
                     str(p)]) == 2
    assert "status" not in capsys.readouterr().out


def test_oversize_hopf_file_is_refused_before_the_algebra(
        tmp_path, capsys, monkeypatch):
    # one 12 x 12 block: d = 144 and the coproduct takes 144^3 * 16 bytes
    p = tmp_path / "hopf.json"
    p.write_text(json.dumps({"name": "big", "blocks": [12], "delta": [],
                             "counit": [], "antipode": []}))
    _small_memory(monkeypatch, 144 ** 3 * 16 - 1)

    def refuse(*_, **__):
        raise AssertionError("BlockAlgebra built before the size check")

    monkeypatch.setattr(io, "BlockAlgebra", refuse)
    with pytest.raises(SchemaError, match="physical memory"):
        load_hopf(p)
    assert cli.main(["verify", str(p)]) == 2
    assert "status" not in capsys.readouterr().out


def test_memory_bound_is_the_dense_array_size(data_dir, monkeypatch):
    # the z3 cycle needs a (3, 3, 3) array, 432 bytes: the bound is that
    # size exactly, measured against the reported physical memory
    H = function_algebra(groups.cyclic(3))
    _small_memory(monkeypatch, 432)
    assert load_magic(data_dir / "z3_cycle.json", H).matrix.shape == (9, 3)
    _small_memory(monkeypatch, 431)
    with pytest.raises(SchemaError, match="physical memory"):
        load_magic(data_dir / "z3_cycle.json", H)


def test_sparse_entries_need_one_index_per_axis(data_dir):
    data = json.loads((data_dir / "z3_cycle.json").read_text())
    data["u"][0][2].append([0, 0, 1.0, 0.0])
    with pytest.raises(SchemaError, match="indices"):
        magic_from_dict(data, function_algebra(groups.cyclic(3)))
    hopf = hopf_to_dict(function_algebra(groups.cyclic(2)))
    hopf["delta"].append([0, 0, 1.0, 0.0])
    with pytest.raises(SchemaError, match="indices"):
        hopf_from_dict(hopf)


def test_magic_point_of_an_entry_without_terms_is_checked(data_dir):
    data = json.loads((data_dir / "z3_cycle.json").read_text())
    data["u"].append([3, 0, []])
    with pytest.raises(SchemaError, match="point index 3"):
        magic_from_dict(data, function_algebra(groups.cyclic(3)))


def test_repeated_sparse_entries_add_up_in_file_order():
    # 0.1 + 0.2 + 0.3 in file order differs from 0.1 + (0.2 + 0.3)
    data = hopf_to_dict(function_algebra(groups.cyclic(2)))
    data["counit"] = [[0, 0.1, 0.0], [0, 0.2, 0.0], [0, 0.3, 0.0]]
    H = hopf_from_dict(data, verify=False)
    assert H.counit[0] == complex((0.1 + 0.2) + 0.3)
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


@pytest.mark.parametrize("hopf_file, sub_file", SUBGROUP_PAIRS)
def test_vergnioux_report_holds_the_orbit_relation_record(
        tmp_path, capsys, hopf_file, sub_file):
    # vergnioux runs the orbit pipeline of orbits, so its report holds the
    # record of the orbit relation P, with the residuals of orbits' report
    reports = {}
    for command in ("orbits", "vergnioux"):
        p = tmp_path / f"{command}.json"
        assert cli.main([command, hopf_file, sub_file, "--json",
                         str(p)]) == 0
        reports[command] = json.loads(p.read_text())
    capsys.readouterr()
    names = ("invariant_projections", "relation_equivalence",
             "relation_symmetric")
    got, want = ({c["name"]: c for c in reports[k]["checks"]
                  if c["name"] in names} for k in ("vergnioux", "orbits"))
    assert got == want and sorted(got) == sorted(names)
    assert all(c["passed"] for c in got.values())
    assert sorted(reports["vergnioux"]["results"]) == [
        "classes", "fusion_route", "support_route"]
