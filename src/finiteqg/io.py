"""JSON formats for quantum groups, subgroup morphisms and magic actions.

All complex numbers are stored as [re, im] pairs; all coefficients refer
to the canonical matrix-unit basis fixed in :mod:`finiteqg.core` (block
by block, row-major).  Sparse triplets keep the files auditable.

hopf.json::

    {"name": ..., "blocks": [n_1, ...],
     "delta":    [[k, i, j, re, im], ...],   # delta(e_k) += c e_i x e_j
     "counit":   [[k, re, im], ...],
     "antipode": [[i, k, re, im], ...]}      # S(e_k) += c e_i

subgroup.json: ``{"pi": [[b, k, re, im], ...]}`` for a surjection from
l^inf of the dual (raw dual-basis coordinates) onto the subgroup, or
``{"hopf_surjection": [[b, k, re, im], ...]}`` for a surjection
Pol(G) -> Pol(H) feeding the normal-subgroup path; a file holds exactly
one of the two keys.

magic.json: ``{"n": n, "u": [[i, j, [[k, re, im], ...]], ...]}``, the
entries u_ij of a magic matrix; ``load_magic`` returns the coaction on
l^inf(n) that they define, an ``orbits.ActionMap`` (see
:mod:`finiteqg.classical`).

One reader, ``_sparse``, turns each sparse list into a dense array: the
list and each magic coefficient list must be JSON lists (an object would
iterate as its keys), every index is checked against its axis, every
coefficient must be finite (an integer too large for a float is not),
and repeated indices add up in file order.
Indices, block sizes and ``n`` are JSON integers; a float or a boolean
in their place is refused rather than rounded, and so is a boolean in
place of a coefficient; a hopf file's ``name`` is a JSON string, or
absent.  An array larger than the machine's physical memory (16 bytes an
entry) is refused before it is allocated, and so is a path that cannot
be read, such as a directory, a file that is not UTF-8 or one whose JSON
value is not an object.
"""
from __future__ import annotations

import cmath
import json
import math
import numbers
import os
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import classical
from .core import BlockAlgebra, LinMap, as_tolerance, opnorm, tensor
from .hopf import HopfData, verify_hopf

if TYPE_CHECKING:
    from .orbits import ActionMap

WRITE_CUTOFF = 1e-14


class SchemaError(ValueError):
    pass


def _integer(value, what: str) -> int:
    """A file integer: int() would truncate 0.7 to 0, read true as 1 and
    parse the string "3".  A JSON integer is an int, checked first."""
    if type(value) is not int and (not isinstance(value, numbers.Integral)
                                   or isinstance(value, bool)):
        raise SchemaError(f"{what} {value!r} is not an integer")
    return int(value)


def _index(value, bound: int, what: str) -> int:
    """A file index checked against range(bound); a negative one would
    otherwise wrap around silently."""
    i = _integer(value, f"{what} index")
    if not 0 <= i < bound:
        raise SchemaError(f"{what} index {i} outside 0..{bound - 1}")
    return i


def _value(re, im, what: str) -> complex:
    """A file coefficient; NaN or infinity would only surface later as a
    failed numeric check instead of as malformed input, complex() would
    read true as 1, and it raises ``OverflowError`` for a JSON integer too
    large for a float."""
    if isinstance(re, bool) or isinstance(im, bool):
        raise SchemaError(f"{what} coefficient [{re!r}, {im!r}] is not a "
                          "pair of numbers")
    try:
        c = complex(re, im)
    except OverflowError:
        raise SchemaError(f"{what} coefficient overflows a float: it is "
                          "not finite") from None
    if not cmath.isfinite(c):
        raise SchemaError(f"{what} coefficient {c} is not finite")
    return c


def _physical_memory() -> int:
    """The bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _sparse(entries, shape, axes, what: str) -> np.ndarray:
    """The dense complex array of the sparse ``entries`` [i_1, ..., i_k,
    re, im]; index i_a is checked against shape[a] and named axes[a].
    The shape is checked against physical memory first."""
    if not isinstance(entries, list):
        raise SchemaError(f"{what} entries must be a list")
    if math.prod(shape) * 16 > _physical_memory():
        raise SchemaError(f"{what} array of shape {shape} does not fit "
                          "into physical memory")
    out, k = np.zeros(shape, dtype=complex), len(shape)
    for e in entries:
        if len(e) != k + 2:
            raise SchemaError(f"{what} entry {e!r} is not {k} indices and "
                              "a coefficient [re, im]")
        out[tuple(map(_index, e, shape, axes))] += _value(e[k], e[k + 1],
                                                          what)
    return out


def _entries(array):
    """Sparse entries [index..., re, im] of the entries with |c| above
    ``WRITE_CUTOFF``, in row-major order of the index."""
    m = np.asarray(array, dtype=complex)
    idx = np.nonzero(np.abs(m) > WRITE_CUTOFF)
    return [[*ix, c.real, c.imag] for ix, c in
            zip(np.transpose(idx).tolist(), m[idx].tolist())]


def hopf_to_dict(H: HopfData) -> dict:
    """Serialize block-presented Hopf data (see module docstring)."""
    A = H.algebra
    if not isinstance(A, BlockAlgebra):
        raise SchemaError("only block-presented Hopf data can be saved; "
                          "use duality.block_presentation first")
    d = A.dim
    return {
        "name": H.name,
        "blocks": [int(n) for n in A.block_dims],
        # entry [k, i, j] is the coefficient of e_i x e_j in delta(e_k)
        "delta": _entries(H.delta.matrix.T.reshape(d, d, d)),
        "counit": _entries(H.counit),
        "antipode": _entries(H.antipode.matrix),
    }


def hopf_from_dict(data: dict, tol=None, verify: bool = True) -> HopfData:
    tol = as_tolerance(tol)
    try:
        if not isinstance(data["blocks"], list):
            raise SchemaError("blocks must be a list of block sizes")
        blocks = [_integer(n, "block size") for n in data["blocks"]]
        d = sum(n * n for n in blocks)
        # entry [k, i, j] is the coefficient of e_i x e_j in delta(e_k),
        # copied to C order (a transposed view changes transported bits)
        delta = _sparse(data["delta"], (d, d, d), ("delta",) * 3,
                        "delta").reshape(d, d * d).T.copy()
        name = data.get("name", "")
        if not isinstance(name, str):
            raise SchemaError(f"name must be a string, not {name!r}")
        A = BlockAlgebra(blocks, name=name)
        counit = _sparse(data["counit"], (d,), ("counit",), "counit")
        antipode = _sparse(data["antipode"], (d, d), ("antipode",) * 2,
                           "antipode")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"malformed hopf data: {exc}") from exc
    H = HopfData(A, LinMap(A, tensor(A, A), delta), counit,
                 LinMap(A, A, antipode), name=name)
    if verify:
        verify_hopf(H, tol).raise_for_failure(
            f"{H.name or 'hopf file'} fails axiom check(s)")
    return H


def save_hopf(H: HopfData, path) -> None:
    Path(path).write_text(json.dumps(hopf_to_dict(H), indent=1,
                                     sort_keys=True))


def load_hopf(path, tol=None, verify: bool = True) -> HopfData:
    return hopf_from_dict(_read_json(path), tol, verify)


def subgroup_to_dict(matrix, kind: str = "pi") -> dict:
    if kind not in ("pi", "hopf_surjection"):
        raise SchemaError(f"unknown subgroup matrix kind {kind!r}")
    return {kind: _entries(matrix)}


def save_subgroup(matrix, path, kind: str = "pi") -> None:
    Path(path).write_text(json.dumps(subgroup_to_dict(matrix, kind),
                                     indent=1, sort_keys=True))


def subgroup_from_dict(data: dict, dim: int):
    """Returns (kind, matrix); the column count is the referenced
    quantum group's dimension, rows are inferred."""
    kinds = [k for k in ("pi", "hopf_surjection") if k in data]
    if len(kinds) != 1:
        raise SchemaError(
            "subgroup file needs exactly one of 'pi' and 'hopf_surjection'")
    kind = kinds[0]
    try:
        # a surjection onto the subgroup's algebra has at most dim rows
        rows = _index(max(_integer(b, "row index") for b, *_ in data[kind]),
                      dim, "row") + 1
        m = _sparse(data[kind], (rows, dim), ("row", "column"), "subgroup")
    except (TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"malformed subgroup data: {exc}") from exc
    return kind, m


def load_subgroup(path, dim: int):
    return subgroup_from_dict(_read_json(path), dim)


def magic_to_dict(alpha: ActionMap) -> dict:
    U = classical.magic_entries(alpha)
    u = []
    for i, row in enumerate(U):
        for j, x in enumerate(row):
            coeffs = _entries(x)
            if coeffs:
                u.append([i, j, coeffs])
    return {"n": len(U), "u": u}


def save_magic(alpha: ActionMap, path) -> None:
    Path(path).write_text(json.dumps(magic_to_dict(alpha), indent=1,
                                     sort_keys=True))


def magic_from_dict(data: dict, H: HopfData) -> ActionMap:
    try:
        n = _integer(data["n"], "point count")
        if n < 1:
            raise SchemaError(f"point count {n} is not positive")
        # every row of a magic matrix sums to the unit, so holds an entry
        if n > len(data["u"]):
            raise SchemaError(f"point count {n} exceeds the {len(data['u'])}"
                              " entries: a row of the magic matrix is empty")
        # the points of an entry are checked even when it has no terms
        entries = []
        for i, j, coeffs in data["u"]:
            ij = _index(i, n, "point"), _index(j, n, "point")
            if not isinstance(coeffs, list):
                raise SchemaError("magic coefficients must be a list")
            entries.extend([*ij, *c] for c in coeffs)
        mats = _sparse(entries, (n, n, H.dim),
                       ("point", "point", "coefficient"), "magic")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"malformed magic data: {exc}") from exc
    return classical.magic_action(H, mats)


def load_magic(path, H: HopfData) -> ActionMap:
    return magic_from_dict(_read_json(path), H)


def _read_json(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise SchemaError(f"no such file: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{p} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file or bytes that are not UTF-8
        raise SchemaError(f"cannot read {p}: {exc}") from exc
    # every format is one object; the readers index it by key
    if not isinstance(data, dict):
        raise SchemaError(f"{p} holds no JSON object")
    return data


def hopf_equal(H1: HopfData, H2: HopfData, tol=None) -> bool:
    """Semantic equality of two block-presented Hopf data."""
    tol = as_tolerance(tol)
    if getattr(H1.algebra, "block_dims", None) != getattr(
            H2.algebra, "block_dims", None):
        return False
    delta = opnorm(H1.delta.matrix - H2.delta.matrix)
    antipode = opnorm(H1.antipode.matrix - H2.antipode.matrix)
    return (tol.is_zero(float(delta)) and tol.is_zero(float(antipode))
            and tol.is_zero(float(np.linalg.norm(H1.counit - H2.counit))))
