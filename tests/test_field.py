"""The field rule of ``core.as_field``: a stored structure array is
float64 when every imaginary part is exactly zero, else complex128, and
storing a real array as complex changes no checked value, Haar state,
dual or written byte."""
import numpy as np
import pytest

from finiteqg import core, groups, hopf
from finiteqg.core import BlockAlgebra, LinMap, as_field, pair_products
from finiteqg.duality import dualize
from finiteqg.haar import haar_state
from finiteqg.hopf import (dual_hopf_raw, function_algebra, group_algebra,
                           kac_paljutkin, verify_hopf)
from finiteqg.io import load_hopf, save_hopf

from conftest import DATA, loop_functions, random_row


def _arrays(H):
    """Every stored array of Hopf data: its algebra's structure and its
    maps."""
    A = H.algebra
    return {"mul_tensor": A.mul_tensor, "unit": A.unit_coeffs,
            "star": A.star_matrix, "delta": H.delta.matrix,
            "counit": H.counit, "antipode": H.antipode.matrix}


@pytest.mark.parametrize("make", [
    lambda: function_algebra(groups.symmetric(3)),
    lambda: group_algebra(groups.symmetric(3)),
    kac_paljutkin,
    lambda: dual_hopf_raw(function_algebra(groups.quaternion())),
    lambda: load_hopf(DATA / "s3_function_algebra.json")],
    ids=["C(S3)", "C[S3]", "kp8", "raw dual of C(Q8)", "s3 file"])
def test_real_structure_constants_are_stored_real(make):
    for name, a in _arrays(make()).items():
        assert a.dtype == np.float64, name


def test_one_imaginary_entry_keeps_an_array_complex():
    a = np.zeros((3, 3), dtype=complex)
    assert as_field(a).dtype == np.float64
    a[2, 1] = 1e-300j
    out = as_field(a)
    assert out.dtype == np.complex128 and out[2, 1] == 1e-300j
    # a NaN imaginary part is not zero
    assert as_field(np.array([1.0, complex(0.0, np.nan)])).dtype \
        == np.complex128
    assert as_field([1, 2]).dtype == np.float64


def test_a_real_part_is_copied_to_c_order():
    a = (np.arange(6.0).reshape(2, 3) + 0j).T
    out = as_field(a)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert np.array_equal(out, a.real)


def test_a_real_and_a_complex_operand_give_a_complex_result():
    rng = np.random.default_rng(7)
    B = BlockAlgebra([1, 2])
    G = group_algebra(groups.symmetric(3)).algebra
    for alg in (B, G):
        x = np.real(random_row(alg, rng))
        z = random_row(alg, rng)
        assert alg.mul_coeffs(x, x).dtype == np.float64
        assert alg.star_coeffs(x).dtype == np.float64
        assert alg.mul_coeffs(x, z).dtype == np.complex128
        assert alg.mul_coeffs(z, x).dtype == np.complex128
        assert alg.star_coeffs(z).dtype == np.complex128
        assert pair_products(alg, x[None], x[None]).dtype == np.float64
        assert pair_products(alg, x[None], z[None]).dtype == np.complex128
        f = LinMap(alg, alg, np.eye(alg.dim))
        assert f(x).dtype == np.float64 and f(z).dtype == np.complex128
    # a complex structure tensor makes every product complex
    A = core.Algebra(G.mul_tensor * (1 + 0j) + 1e-300j, G.unit_coeffs,
                     G.star_matrix)
    x = np.real(random_row(A, rng))
    assert A.mul_coeffs(x, x).dtype == np.complex128
    assert pair_products(A, x[None], x[None]).dtype == np.complex128


def _relabelled(G, seed):
    perm = np.random.default_rng(seed).permutation(G.order)
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    elements = [None] * G.order
    for old, new in enumerate(perm):
        elements[new] = G.elements[old]
    return groups.FiniteGroup(G.name, tuple(elements), table)


def _ladder_groups():
    g = groups
    return [g.direct_product(g.cyclic(4), g.cyclic(4)),
            g.direct_product(g.cyclic(2), g.cyclic(4)), g.cyclic(12),
            g.quaternion(), g.direct_product(g.symmetric(3), g.cyclic(2))]


def _instances():
    """name -> a function building the Hopf data: C(G) and C[G] of the
    ladder groups, of one relabelled copy of each and of the factor
    groups of the property tests up to order 8, raw KP8 and every
    shipped Hopf file."""
    gs = {}
    for i, G in enumerate(_ladder_groups()):
        gs[f"ladder {G.name}"] = G
        gs[f"relabelled {G.name}"] = _relabelled(G, 71 + i)
    for n in range(2, 9):
        gs[f"Z{n}"] = groups.cyclic(n)
    gs["S3"], gs["Q8"] = groups.symmetric(3), groups.quaternion()
    out = {}
    for name, G in gs.items():
        out[f"C({name})"] = lambda G=G: function_algebra(G)
        out[f"C[{name}]"] = lambda G=G: group_algebra(G)
    out["raw kp8"] = kac_paljutkin
    for path in sorted(DATA.glob("*_algebra.json")) + [DATA / "kp8.json"]:
        out[path.name] = lambda path=path: load_hopf(path)
    return out


INSTANCES = _instances()


def _bits(value):
    """The bytes of a value's real part and, unless every imaginary part
    is zero, of its imaginary part: a real array and a complex one with
    zero imaginary parts compare equal exactly when their real parts
    have the same bits."""
    a = np.asarray(value)
    imag = np.ascontiguousarray(a.imag).tobytes() if a.imag.any() else None
    return np.ascontiguousarray(a.real).tobytes(), a.shape, imag


def _outputs(make, tmp_path):
    """The bits of everything the field must not change."""
    H = make()
    checks = verify_hopf(H)
    h = haar_state(H)
    D = dualize(H)
    out = {f"residual {k}": _bits(v) for k, v in checks.residuals.items()}
    out.update({f"scale {k}": _bits(v) for k, v in checks.scales.items()})
    out.update(haar=_bits(h.vector), gram=_bits(h.gram),
               min_gram_eigenvalue=_bits(h.min_gram_eigenvalue),
               block_to_dual=_bits(D.block_to_dual))
    out.update({f"dual {k}": _bits(v)
                for k, v in _arrays(D.dual_hopf).items()
                if k in ("delta", "counit", "antipode")})
    saved = [D.dual_hopf] + [H] * isinstance(H.algebra, BlockAlgebra)
    for i, K in enumerate(saved):
        save_hopf(K, tmp_path / f"{i}.json")
        out[f"file {i}"] = (tmp_path / f"{i}.json").read_bytes()
    return out


def _complex_field(m):
    """Store every array complex, as numpy's complex128 default does."""
    for mod in (core, hopf):
        m.setattr(mod, "as_field", lambda a: np.asarray(a, dtype=complex))


def test_a_failed_check_keeps_its_bits(monkeypatch):
    """C[L6], the raw dual of C(L6), fails associativity alone, at a
    residual of exactly 2.0, which an eigenvalue call on the real Gram
    matrix would round to 2.0000000000000004."""
    def residuals():
        checks = verify_hopf(dual_hopf_raw(loop_functions()))
        return {k: _bits(v) for k, v in
                (checks.residuals | {f"scale {k}": s for k, s in
                                     checks.scales.items()}).items()}
    real = residuals()
    with monkeypatch.context() as m:
        _complex_field(m)
        assert real == residuals()
    assert real["associativity"] == _bits(2.0)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_storing_real_arrays_as_complex_changes_no_bit(name, tmp_path,
                                                       monkeypatch):
    make = INSTANCES[name]
    real = _outputs(make, tmp_path)
    with monkeypatch.context() as m:
        _complex_field(m)
        assert make().delta.matrix.dtype == np.complex128
        as_complex = _outputs(make, tmp_path)
    assert real.keys() == as_complex.keys()
    for key in real:
        assert real[key] == as_complex[key], key
