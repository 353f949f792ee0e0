"""Dense complex linear algebra over finite-dimensional *-algebras.

Everything downstream works with three kinds of algebras:

* ``BlockAlgebra`` -- a direct sum of full matrix blocks with the canonical
  matrix-unit basis (block-major, row-major inside each block); it alone
  knows where the entries of a block sit: other modules read the blocks
  of coefficient rows through its accessors ``index``, ``unindex``,
  ``block_indices``, ``block_matrices`` and ``block_traces``, and build
  rows from blocks with ``block_unit`` and ``from_block_matrices``,
* ``Algebra`` -- a general associative *-algebra given by structure
  constants on an arbitrary basis (used e.g. for group algebras in the
  group-element basis, and for convolution duals before their block
  structure has been computed),
* ``TensorAlgebra`` -- tensor products of the above, with coefficients in
  the Kronecker (pair-index) convention, so that the matrix of a tensor
  product of linear maps is literally ``np.kron``.

An element is a coefficient row over the algebra's basis.  The kernels
``mul_coeffs``, ``star_coeffs``, ``rep_coeffs`` and ``norm_coeffs`` take
rows and stacks of rows (..., dim) that broadcast; ``norm_coeffs`` of a
stack is the largest norm over its rows and ``row_norms`` gives each
row's.  Operator norms are exact C*-norms of a faithful representation.
A block algebra, and a tensor product of block algebras, cuts its
coefficients into (Kronecker) blocks through index stacks
(``_block_gathers``, one per block size N, built once per block shape),
and its products, adjoints and norms are blockwise (elementwise and
max |x| when N = 1), so no large matrix is built.  Any other algebra
multiplies through its structure constants (one tensor leg at a time),
applies its star matrix leg by leg and takes norms in its dense
representation.  All pairs of two stacks (``pair_products``)
take every pair of a block of rows of x with one matrix product.  The
all-pairs residual of a map from a block algebra into a block codomain
(``multiplicative_residual``) gathers the images of the basis into the
codomain's blocks once, takes f(e_p e_q) as a gather of them through
the domain's table of basis products (``product_index``: e_p e_q is one
basis element or 0) and hands the residual blocks to the norm fold of
``_max_norm``.  One function (``coaction_residuals``) checks every
coaction alpha: N -> N x A, the coproduct included as the regular
coaction (N = A, alpha = delta).  ``associativity_residual`` checks a
structure-constant product on all basis triples.

Every spectral norm, here and in the other modules, comes from
``opnorms``: for each matrix, its largest |entry| s times the square
root of the largest eigenvalue of the Gram matrix of the matrix / s on
its smaller side.  It takes several stacks of any shapes, and all their
Gram matrices of one size share one ``eigvalsh`` call, so a check
record is one spectral call; ``opnorm`` is its one-stack case.  The
largest norm of a stack (``_largest_opnorm``) computes only the norms
whose scale-safe Frobenius bound reaches a running lower bound, and is
the exhaustive maximum bit for bit while each stack fits one Gram slice
(``_DENSE_STACK_ENTRIES`` entries).  A NaN or inf coefficient gives a
NaN norm (inf on a 1 x 1 block), never a ``LinAlgError`` or a warning.
SVDs are taken only where a rank is decided (``nullspace``,
``orthonormal_rows``, the Haar nullity, the Wedderburn corners, the
surjectivity of a quotient map) and for the spectral shifts of the
Wedderburn split.  Every rank is ``numerical_rank``: the number of
singular values above eps * max(1, s_max).  ``nullspace`` or
``orthonormal_rows`` of a matrix with a NaN raises ``LinAlgError``.

Zero tests are relative: ``norm <= eps * (1 + scale)``.  A group of named
checks is one ``Checks`` record (residuals, per-name scales, the
tolerance), judged by that rule, where a NaN or inf residual and a
non-finite scale fail.  A record also carries flags: yes/no decisions
of its producer (a relation is symmetric, a table has one orbit per
row), each passing exactly when it is True, whatever the tolerance.
Its ``raise_for_failure`` names every failed residual and flag and
raises the producer's subclass of ``CheckError``, the base of every
failed-check exception.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_EPS = 1e-9
# 0xC11FF04D; fits in 32 bits so it seeds every numpy generator.
DEFAULT_SEED = 0xC11FF04D
# dense norms of a stack build at most this many representation entries
# at a time (16 MB), whatever the stack's length; opnorm forms its Gram
# matrices from slices of about this size
_DENSE_STACK_ENTRIES = 1 << 20

# Fixed thresholds of decisions that the caller's tolerance does not set.
# relative eigenvalue gap used to form spectral clusters
CLUSTER_GAP = 1e-6
# faithfulness threshold for the smallest Haar Gram eigenvalue
GRAM_MIN_EIG = 1e-12
# a multiplicity, the trace of a projection, counts as an integer this close
INTEGER_SLACK = 1e-6
# a block counts as the identity within this Frobenius distance of it
IDENTITY_SLACK = 1e-6
# a random self-adjoint draw whose spectral norm is below this is redrawn
DEGENERATE_DRAW = 1e-6
# a counit value, exactly 0 or 1, counts as 1 when within this of 1
COUNIT_SPLIT = 0.5
# spectral clusters closer than this many eps (times the spectrum's
# spread) are refused rather than split
CLUSTER_REFUSAL_FACTOR = 10
# a block of a transported central projection counts as nonzero when its
# Frobenius norm exceeds this many eps (contragredient matching)
NONZERO_BLOCK_FACTOR = 10


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance used by every numeric predicate."""

    eps: float = DEFAULT_EPS

    def __post_init__(self):
        # also false for NaN
        if not 0.0 < self.eps < np.inf:
            raise ValueError("tolerance must be positive and finite")

    def is_zero(self, value: float, scale: float = 1.0) -> bool:
        return value <= self.eps * (1.0 + scale)


def as_tolerance(tol) -> Tolerance:
    if tol is None:
        return Tolerance()
    if isinstance(tol, Tolerance):
        return tol
    return Tolerance(float(tol))


class CheckError(ValueError):
    """A numeric check failed."""


def nonnegative_integers(values, what: str) -> np.ndarray:
    """The integer array nearest to ``values``; ``CheckError`` unless
    every entry lies within ``INTEGER_SLACK`` of a non-negative integer.
    ``what`` names an entry in the message."""
    rounded = np.round(values.real)
    bad = ~(np.abs(values - rounded) <= INTEGER_SLACK) | (rounded < 0)
    if bad.any():
        raise CheckError(f"{what} {values[bad][0]} is not a non-negative "
                         "integer")
    return rounded.astype(int)


@dataclass
class Checks:
    """Named residuals and flags judged at one tolerance.

    The residual r of a check with scale s (``scales`` may omit a name,
    whose scale is then 1.0) passes when r <= eps * (1 + s) and s is
    finite, so a NaN or inf residual and a non-finite scale fail.  A flag
    (``flags``, name -> bool) is a decision its producer took, such as
    "the relation is symmetric": it passes exactly when it is True, and
    the tolerance never judges it.  ``raise_for_failure`` raises
    ``error``, the class of the producer.
    """

    residuals: dict
    tol: Tolerance
    scales: dict = field(default_factory=dict)
    error: type = CheckError
    flags: dict = field(default_factory=dict)

    def failures(self):
        return ([k for k, r in self.residuals.items()
                 if not self._passes(r, self.scales.get(k, 1.0))]
                + [k for k, ok in self.flags.items() if not ok])

    def _passes(self, residual, scale) -> bool:
        return bool(np.isfinite(scale) and self.tol.is_zero(residual, scale))

    @property
    def passed(self) -> bool:
        return not self.failures()

    def max_residual(self) -> float:
        # np.max keeps a NaN residual, where max() would drop it
        return float(np.max(list(self.residuals.values()), initial=0.0))

    def raise_for_failure(self, context: str):
        bad = self.failures()
        if bad:
            detail = ", ".join(f"{k}={self.residuals[k]:.3e}"
                               if k in self.residuals else f"{k}=False"
                               for k in bad)
            raise self.error(f"{context}: {detail}")


class Algebra:
    """Finite-dimensional associative *-algebra with a distinguished basis.

    The product is encoded by the structure tensor ``m[k, p, q]`` with
    e_p e_q = sum_k m[k, p, q] e_k, the involution by a matrix ``st`` with
    (x*)_coeffs = st @ conj(x_coeffs).
    """

    def __init__(self, mul_tensor, unit, star_matrix, name=""):
        mul_tensor = np.asarray(mul_tensor, dtype=complex)
        self.dim = mul_tensor.shape[0]
        if mul_tensor.shape != (self.dim,) * 3:
            raise ValueError("structure tensor must be cubic")
        self.mul_tensor = mul_tensor
        self.unit_coeffs = np.asarray(unit, dtype=complex).reshape(self.dim)
        self.star_matrix = np.asarray(star_matrix, dtype=complex)
        self.name = name
        self._rep_tensor = None

    # -- representation used for operator norms ---------------------------
    @property
    def rep_dim(self) -> int:
        return self.dim

    @property
    def rep_tensor(self):
        """Per-basis-element matrices of a faithful representation.

        For a plain structure-constant algebra this is the left regular
        representation; it computes the exact C*-norm whenever the basis is
        orthonormal for a tracial form compatible with the involution
        (true for group algebras), and a faithful submultiplicative norm
        otherwise.
        """
        if self._rep_tensor is None:
            # lambda(e_k)[r, q] = m[r, k, q]
            self._rep_tensor = np.ascontiguousarray(
                self.mul_tensor.transpose(1, 0, 2))
        return self._rep_tensor

    def _block_stacks(self):
        """Index stacks of the block path; empty for a generic algebra."""
        return ()

    # -- coefficient-level operations (stacks broadcast over ...) ---------
    def mul_coeffs(self, x, y):
        # x y = lambda(x) y in the left regular representation
        return (self.rep_coeffs(x) @ np.asarray(y)[..., None])[..., 0]

    def star_coeffs(self, x):
        gathers = self._block_stacks()
        if not gathers:
            return np.conj(x) @ self.star_matrix.T
        # the adjoint of every block: transpose the gather, conjugate
        x = np.asarray(x)
        out = np.empty(x.shape, dtype=complex)
        for g in gathers:
            out[..., g] = np.conj(x.take(g.swapaxes(-1, -2), axis=-1))
        return out

    def rep_coeffs(self, x):
        x = np.asarray(x)
        r = self.rep_dim
        return (x @ self.rep_tensor.reshape(self.dim, r * r)).reshape(
            x.shape[:-1] + (r, r))

    def norm_coeffs(self, x) -> float:
        return _max_norm(self, x)

    def is_commutative(self, tol=None) -> bool:
        m = self.mul_tensor
        # row p * dim + q holds e_p e_q - e_q e_p
        commutators = (m - m.transpose(0, 2, 1)).reshape(self.dim, -1).T
        return as_tolerance(tol).is_zero(self.norm_coeffs(commutators))

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

    def __repr__(self):
        label = self.name or self.__class__.__name__
        return f"<{label} dim={self.dim}>"


class BlockAlgebra(Algebra):
    """Direct sum of full matrix algebras M_{n_1} + ... + M_{n_m}.

    Basis: matrix units e^{(k)}_{ij}, enumerated block by block, row-major,
    so index(k, i, j) = offset_k + i*n_k + j.  This enumeration is the one
    fixed convention every file format refers to; other modules reach it
    only through the accessors of this class.
    """

    def __init__(self, block_dims, name=""):
        block_dims = [int(n) for n in block_dims]
        if not block_dims or any(n <= 0 for n in block_dims):
            raise ValueError("block dims must be positive integers")
        self.block_dims = tuple(block_dims)
        self.offsets = np.concatenate(
            [[0], np.cumsum([n * n for n in block_dims])])
        dim = int(self.offsets[-1])

        # e^{(k)}_{ii} in the unit, one assignment per block size
        self._gathers = _block_gathers((self,))
        unit = np.zeros(dim, dtype=complex)
        for g in self._gathers:
            unit[np.diagonal(g, axis1=-2, axis2=-1)] = 1.0

        self.dim = dim
        self.unit_coeffs = unit
        self.name = name
        self._mul_tensor = None
        self._rep_tensor = None

    def _block_stacks(self):
        return self._gathers

    @cached_property
    def star_matrix(self):
        """star[index(k, j, i), index(k, i, j)] = 1, one assignment per
        block size; built on first use."""
        star = np.zeros((self.dim, self.dim), dtype=complex)
        for g in self._gathers:
            star[g.swapaxes(-1, -2), g] = 1.0
        return star

    # structure tensor is only materialized when a generic consumer asks
    @property
    def mul_tensor(self):
        if self._mul_tensor is None:
            # e_ij e_jl = e_il in every block, one assignment per block size
            m = np.zeros((self.dim,) * 3, dtype=complex)
            for g in self._gathers:
                m[g[:, :, None, :], g[:, :, :, None], g[:, None, :, :]] = 1.0
            self._mul_tensor = m
        return self._mul_tensor

    @cached_property
    def product_index(self) -> np.ndarray:
        """The read-only table of basis products, filled as ``mul_tensor``
        is: e_p e_q is the basis element [p, q], or 0 where it is dim."""
        index = np.full((self.dim, self.dim), self.dim)
        for g in self._gathers:
            index[g[:, :, :, None], g[:, None, :, :]] = g[:, :, None, :]
        index.flags.writeable = False
        return index

    def index(self, block: int, row: int, col: int) -> int:
        if not 0 <= block < len(self.block_dims):
            raise IndexError("block index out of range")
        n = self.block_dims[block]
        if not (0 <= row < n and 0 <= col < n):
            raise IndexError("matrix unit index out of range")
        return int(self.offsets[block]) + row * n + col

    def unindex(self, idx):
        """Inverse of :meth:`index`: basis index -> (block, row, col); an
        array of indices gives three arrays."""
        checked = np.asarray(idx)
        if np.any((checked < 0) | (checked >= self.dim)):
            raise IndexError("basis index out of range")
        block = np.searchsorted(self.offsets, idx, side="right") - 1
        row, col = np.divmod(idx - self.offsets[block],
                             np.take(self.block_dims, block))
        return block, row, col

    def block_indices(self, blocks):
        """The basis indices of the matrix units of the given blocks, block
        after block in the given order; ``IndexError`` for a block outside
        ``range(len(block_dims))``, ``ValueError`` for a repeated one."""
        blocks = list(blocks)
        if not all(0 <= b < len(self.block_dims) for b in blocks):
            raise IndexError("block index out of range")
        if len(set(blocks)) != len(blocks):
            raise ValueError("repeated block")
        return np.concatenate([np.arange(self.offsets[b], self.offsets[b + 1])
                               for b in blocks])

    def block_matrices(self, rows):
        """Block k of a coefficient row, or of each row of a stack
        (..., dim): one (..., n_k, n_k) view of ``rows`` per block."""
        rows = np.asarray(rows)
        return [rows[..., o:o + n * n].reshape(rows.shape[:-1] + (n, n))
                for o, n in zip(self.offsets, self.block_dims)]

    def block_traces(self, rows):
        """The trace of every block of a coefficient row, or of each row of
        a stack: shape (..., blocks).  Each trace is the same sum of the
        same diagonal as ``np.trace`` of the block, bit for bit."""
        rows = np.asarray(rows)
        return np.stack([rows.take(o + np.arange(n) * (n + 1), axis=-1).sum(-1)
                         for o, n in zip(self.offsets, self.block_dims)],
                        axis=-1)

    def from_block_matrices(self, mats):
        """The coefficient row whose block k is ``mats[k]``, an n_k x n_k
        matrix."""
        mats = [np.asarray(m, dtype=complex) for m in mats]
        shapes = [m.shape for m in mats]
        if shapes != [(n, n) for n in self.block_dims]:
            raise ValueError(f"blocks of shapes {shapes} for block dims "
                             f"{list(self.block_dims)}")
        return np.concatenate([m.reshape(-1) for m in mats])

    def block_unit(self, k: int):
        """The coefficient row of the unit of block k."""
        start, n = self.index(k, 0, 0), self.block_dims[k]
        row = np.zeros(self.dim, dtype=complex)
        row[start + np.arange(n) * (n + 1)] = 1.0
        return row

    def mul_coeffs(self, x, y):
        return _blockwise_mul(x, y, self._block_stacks())

    @property
    def rep_dim(self) -> int:
        return int(sum(self.block_dims))

    @property
    def rep_tensor(self):
        if self._rep_tensor is None:
            # e^(k)_ij is the unit matrix at (s_k + i, s_k + j), where block
            # k starts at row s_k of the block-diagonal representation
            r = self.rep_dim
            k, i, j = self.unindex(np.arange(self.dim))
            s = np.cumsum(self.block_dims) - self.block_dims
            t = np.zeros((self.dim, r, r), dtype=complex)
            t[np.arange(self.dim), s[k] + i, s[k] + j] = 1.0
            self._rep_tensor = t
        return self._rep_tensor

    def norm_coeffs(self, x) -> float:
        return _max_norm(self, x)

    def __repr__(self):
        label = self.name or "BlockAlgebra"
        return f"<{label} blocks={list(self.block_dims)}>"


class TensorAlgebra(Algebra):
    """Tensor product of algebras, coefficients in Kronecker convention.

    The coefficient of e_{p_1} x ... x e_{p_k} sits at the flat index
    ravel(p_1, ..., p_k); consequently ``kron_coeffs`` of coefficient rows
    and ``np.kron`` of linear-map matrices realize the tensor product.  Nested
    tensor factors are flattened, so A x (B x C) and (A x B) x C coincide.
    """

    def __init__(self, *factors, name=""):
        flat = []
        for f in factors:
            if isinstance(f, TensorAlgebra):
                flat.extend(f.factors)
            else:
                flat.append(f)
        if len(flat) < 2:
            raise ValueError("need at least two tensor factors")
        self.factors = tuple(flat)
        self.factor_dims = tuple(f.dim for f in flat)
        self.dim = int(np.prod(self.factor_dims))
        self.name = name
        self._unit = None
        self._gathers = None

    @property
    def unit_coeffs(self):
        if self._unit is None:
            self._unit = self.kron_coeffs(
                *(f.unit_coeffs for f in self.factors))
        return self._unit

    @property
    def block_dims(self):
        """Blocks of the tensor product, in factor-major order.

        Only defined when every factor carries a block structure; the
        (k_1, ..., k_m) block has dimension n_{k_1} * ... * n_{k_m}.
        """
        dims = [1]
        for f in self.factors:
            if not hasattr(f, "block_dims"):
                raise AttributeError("factor without block structure")
            dims = [d * n for d in dims for n in f.block_dims]
        return tuple(dims)

    def _block_stacks(self):
        if self._gathers is None:
            self._gathers = (
                _block_gathers(self.factors)
                if all(isinstance(f, BlockAlgebra) for f in self.factors)
                else ())
        return self._gathers

    def mul_coeffs(self, x, y):
        gathers = self._block_stacks()
        if gathers:
            return _blockwise_mul(x, y, gathers)
        x, y = np.broadcast_arrays(np.asarray(x), np.asarray(y))
        lead, dims, m = x.shape[:-1], self.factor_dims, len(self.factors)
        # leg by leg with a leading batch axis b, so x (x) y is never
        # formed: after leg l the axes of z are (b, p_{l+1}, ..., r_0, ...,
        # r_l, q_{l+1}, ...), and leg l+1 contracts p_{l+1}, q_{l+1}
        # against its factor's m[r, p, q]
        xs = x.reshape(-1, dims[0], self.dim // dims[0])
        ys = y.reshape(xs.shape)
        n, rest = xs.shape[0], xs.shape[2]
        z = np.tensordot(xs, self.factors[0].mul_tensor, ([1], [1]))
        z = np.matmul(z.reshape(n, rest * dims[0], dims[0]), ys)
        z = z.reshape((n,) + dims[1:] + (dims[0],) + dims[1:])
        for f in self.factors[1:]:
            z = np.tensordot(z, f.mul_tensor, ([1, m + 1], [1, 2]))
            z = np.moveaxis(z, -1, m)
        return z.reshape(lead + (self.dim,))

    def star_coeffs(self, x):
        if self._block_stacks():
            return super().star_coeffs(x)
        # one factor's star matrix per leg, after a batch axis: leg l of
        # conj(x) is contracted with factor l's star matrix
        x = np.asarray(x)
        z = np.conj(x).reshape((-1,) + self.factor_dims)
        for leg, f in enumerate(self.factors, 1):
            z = np.moveaxis(np.tensordot(f.star_matrix, z, ([1], [leg])),
                            0, leg)
        return z.reshape(x.shape)

    @property
    def rep_dim(self) -> int:
        return int(np.prod([f.rep_dim for f in self.factors]))

    def rep_coeffs(self, x):
        # leg by leg after a batch axis; the axes end as
        # (b, a_0, b_0, ..., a_{m-1}, b_{m-1})
        x = np.asarray(x)
        z = x.reshape((-1,) + self.factor_dims)
        for f in self.factors:
            z = np.tensordot(z, f.rep_tensor, ([1], [0]))
        m = len(self.factors)
        z = z.transpose([0] + list(range(1, 2 * m + 1, 2))
                        + list(range(2, 2 * m + 1, 2)))
        r = self.rep_dim
        return z.reshape(x.shape[:-1] + (r, r))

    def norm_coeffs(self, x) -> float:
        return _max_norm(self, x)

    # -- leg manipulation ---------------------------------------------------
    def kron_coeffs(self, *vecs):
        # the outer product of vectors is np.kron's, entry by entry
        out = np.asarray(vecs[0], dtype=complex)
        for v in vecs[1:]:
            out = np.multiply.outer(out, v).reshape(-1)
        return out

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, TensorAlgebra)
                and len(self.factors) == len(other.factors)
                and all(a == b for a, b in zip(self.factors, other.factors)))

    def __hash__(self):
        return hash(tuple(id(f) for f in self.factors))

    def __repr__(self):
        return "<Tensor " + " x ".join(repr(f) for f in self.factors) + ">"


# index stacks of _block_gathers, keyed by the factors' block dims; they
# are read-only and shared by every algebra of that shape
_GATHERS = {}


def _block_gathers(factors):
    """Index stacks cutting the coefficients of a tensor product of block
    algebras into its Kronecker blocks, one (count, N, N) stack per block
    size N.  They depend only on the factors' block dims, so they are
    built once per shape (``_build_gathers``) and shared, read-only."""
    key = tuple(f.block_dims for f in factors)
    stacks = _GATHERS.get(key)
    if stacks is None:
        stacks = _GATHERS[key] = _build_gathers(key)
        for g in stacks:
            g.flags.writeable = False
    return stacks


def _build_gathers(shape):
    """The stacks of ``_block_gathers`` for factors with the block dims in
    ``shape``.  The (k_1, ..., k_m) block has entry ((i_1, ...),
    (j_1, ...)) at the Kronecker index of the matrix units
    e^{(k_l)}_{i_l j_l}, so every coefficient is gathered exactly once."""
    stacks = {1: np.zeros((1, 1, 1), dtype=np.intp)}
    for block_dims in shape:
        own = {}
        offset = 0
        for n in block_dims:
            own.setdefault(n, []).append(
                offset + np.arange(n * n).reshape(n, n))
            offset += n * n
        grown = {}
        for size, s in stacks.items():
            for n, blocks in own.items():
                b = np.stack(blocks)
                g = s[:, None, :, None, :, None] * offset \
                    + b[None, :, None, :, None, :]
                grown.setdefault(size * n, []).append(
                    g.reshape(-1, size * n, size * n))
        stacks = {size: np.concatenate(gs) for size, gs in grown.items()}
    return tuple(stacks.values())


def _blockwise_mul(x, y, gathers):
    """Products of coefficient stacks, block by block: ``out[..., g] =
    x[..., g] @ y[..., g]`` for each index stack g of ``_block_gathers``,
    elementwise when N = 1."""
    x, y = np.asarray(x), np.asarray(y)
    shape = (x.shape if x.shape == y.shape
             else np.broadcast_shapes(x.shape, y.shape))
    out = np.empty(shape, dtype=complex)
    for g in gathers:
        xg, yg = x.take(g, axis=-1), y.take(g, axis=-1)
        out[..., g] = xg * yg if g.shape[-1] == 1 else xg @ yg
    return out


def pair_products(alg, x, y):
    """Every product of a row of x with a row of y: entry [p, q] of the
    ``(len(x), len(y), dim)`` result is x[p] y[q].

    The work is done one block of rows of x at a time (``_pair_blocks``).
    A block algebra, or a tensor product of block algebras, multiplies
    block by block, exactly as ``_blockwise_mul(x[:, None], y)``.  A plain
    structure-constant algebra and a two-leg tensor product with a generic
    leg take all pairs of a block with one matrix product.  Any other
    algebra raises ``ValueError``."""
    x, y = np.asarray(x), np.asarray(y)
    out = np.empty((len(x), len(y), alg.dim), dtype=complex)
    for rows, block in _pair_blocks(alg, x, y):
        out[rows] = block
    return out


def _pair_blocks(alg, x, y):
    """Yield (rows, x[rows] y[q] for every q) over consecutive blocks of
    rows of x (at least one row each).  A block holds about four arrays of
    its result's size at once (the absorbed rows, the product and their
    reorderings), so its result has at most about a quarter of
    ``_DENSE_STACK_ENTRIES`` entries."""
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("pair products take two stacks of coefficient rows")
    gathers = alg._block_stacks()
    if gathers:
        def products(rows):
            return _blockwise_mul(rows[:, None], y, gathers)
    else:
        products = _generic_pair_products(alg, y)
    for rows in _pair_rows(alg, len(x), len(y)):
        yield rows, products(x[rows])


def _pair_rows(alg, nx, ny):
    """Consecutive slices of nx rows, each holding at most about a quarter
    of ``_DENSE_STACK_ENTRIES`` entries of products against ny rows (and
    at least one row)."""
    step = max(1, _DENSE_STACK_ENTRIES // max(1, 4 * ny * alg.dim))
    return [slice(i, i + step) for i in range(0, nx, step)]


def _generic_pair_products(alg, y):
    """The all-pairs product against the fixed rows y, as a function of
    the left rows, for a plain algebra (a tensor product with a trivial
    second leg) or a two-leg tensor product A (x) B of dimensions (a, b).

    x[p] y[q] has coefficient sum m_A[r, i, k] m_B[s, j, l] x[p, i, j]
    y[q, k, l] at (r, s).  Leg 1 is absorbed into y once,
    U[(q, s), (j, k)] = sum_l m_B[s, j, l] y[q, k, l]; leg 0 into each
    block of x, S[(p, r), (j, k)] = sum_i m_A[r, i, k] x[p, i, j].  Then
    S @ U^T holds every pair of the block: one matrix product of about
    (rows a) (a b) (len(y) b) multiply-adds."""
    if isinstance(alg, TensorAlgebra):
        if len(alg.factors) != 2:
            raise ValueError(
                "pair products need a block algebra, a plain algebra or a "
                f"two-leg tensor product, not {len(alg.factors)} legs")
        (a, b), (ma, mb) = alg.factor_dims, (f.mul_tensor for f in alg.factors)
    else:
        a, b, ma, mb = alg.dim, 1, alg.mul_tensor, np.ones((1, 1, 1))
    # (s j, l) @ (q; l, k) lands in the (q, s, j, k) layout, no copy
    u = (mb.reshape(b * b, b) @ y.reshape(-1, a, b).transpose(0, 2, 1)
         ).reshape(-1, b * a)

    def products(x):
        n = len(x)
        s = np.tensordot(x.reshape(n, a, b), ma, ([1], [1]))  # (p, j, r, k)
        s = s.transpose(0, 2, 1, 3).reshape(n * a, b * a)
        # rows (p, r), columns (q, s), reordered to (p, q, r, s)
        return (s @ u.T).reshape(n, a, -1, b).transpose(0, 2, 1, 3).reshape(
            n, -1, a * b)
    return products


def opnorm(stack):
    """Spectral norm of each matrix in a ``(..., a, b)`` stack: an array
    of shape ``stack.shape[:-2]`` (a numpy float for a single matrix),
    ``opnorms`` of the one stack."""
    return opnorms([stack])[0]


def opnorms(stacks, grams=()):
    """The spectral norms of each (..., a, b) stack of a list, then
    s * sqrt(lambda_max(G)) of each pair (s, G) of ``grams`` (G None when
    s is 0, NaN or inf: 0.0, NaN, NaN).  A matrix's norm is s times the
    root of lambda_max(G), for s its largest |entry| and G the Gram matrix
    of the matrix / s on its smaller side (``_gram``); a NaN or inf entry
    gives NaN and a zero matrix 0.0, with no decomposition.  Each stack's
    Gram matrices are formed as for that stack alone, and all of one size
    and dtype share one ``eigvalsh`` call, so every value is that of
    ``opnorm`` of its stack, bit for bit."""
    items, sizes, tops, out = [], {}, {}, []
    for m in map(np.asarray, stacks):
        s = np.abs(m).max(axis=(-2, -1), initial=0.0)
        live = np.isfinite(s) & (s > 0)
        n = np.count_nonzero(live)
        key = ... if n == live.size else live
        items.append((s, key, _gram(m[key], s[key]) if n else None))
    items += [(s, ..., g) for s, g in grams]
    for g in (g for *_, g in items if g is not None):
        sizes.setdefault((g.shape[-1], g.dtype), []).append(g)
    for gs in sizes.values():
        top = np.sqrt(np.linalg.eigvalsh(np.concatenate(
            [g.reshape((-1,) + g.shape[-2:]) for g in gs]))[:, -1])
        for g in gs:
            k = g.size // g.shape[-1] ** 2
            tops[id(g)], top = top[:k].reshape(g.shape[:-2]), top[k:]
    for s, key, g in items:
        whole = key is ... and g is not None
        v = s * tops[id(g)] if whole else np.where(np.isfinite(s), 0.0,
                                                   np.nan)
        if g is not None and not whole:
            v[key] = s[key] * tops[id(g)]
        out.append(v if whole else v[()])
    return out


def _gram(m, s):
    """The smaller Gram matrix of each m / s, whose largest |entry| is 1,
    so that lambda_max >= 1, summed over slices of the longer side of at
    most about ``_DENSE_STACK_ENTRIES`` entries, so no full-size scaled or
    conjugated copy of the stack is held."""
    s = s[..., None, None]
    tall = m.shape[-2] >= m.shape[-1]
    length = m.shape[-2] if tall else m.shape[-1]
    step = max(1, _DENSE_STACK_ENTRIES // (m.size // length))
    gram = None
    for i in range(0, length, step):
        x = (m[..., i:i + step, :] if tall else m[..., i:i + step]) / s
        xh = x.conj().swapaxes(-1, -2)
        if gram is None:
            gram = xh @ x if tall else x @ xh
        else:
            gram += xh @ x if tall else x @ xh
    return gram


def row_norms(alg, x):
    """The norm of each row of a coefficient stack (..., dim), each the
    value ``norm_coeffs`` of the row alone gives: on the block path the
    largest over the row's blocks, all blocks in one ``opnorms`` call and
    nothing pruned; else that of its dense representation, row by row."""
    x = np.asarray(x)
    rows = x.reshape(-1, x.shape[-1])
    if not (gathers := alg._block_stacks()):
        return np.array([_max_norm(alg, r) for r in rows]).reshape(
            x.shape[:-1])
    blocks = [rows.take(g, axis=-1) for g in gathers]
    norms = [np.abs(b[..., 0, 0]) for b in blocks if b.shape[-1] == 1]
    norms += opnorms([b for b in blocks if b.shape[-1] > 1])
    return np.hstack(norms).max(axis=1).reshape(x.shape[:-1])


def _max_norm(alg, x) -> float:
    """Largest operator norm over the rows of a coefficient stack, all-zero
    rows dropped first: over the blocks of ``_block_gathers`` on the block
    path (max |x| when N = 1), else over the rows' dense representations,
    a bounded number of entries at a time.  ``_largest_opnorm`` computes
    only the norms that can be the largest; NaN propagates."""
    x = np.asarray(x)
    rows = x.reshape(-1, x.shape[-1])
    if len(rows) > 1:
        rows = rows[rows.any(axis=1)]
    if not rows.any():
        return 0.0
    gathers = alg._block_stacks()
    if gathers:
        return _largest_block_norm([rows.take(g, axis=-1) for g in gathers])
    # a representation of an inf coefficient would meet 0 * inf
    if not np.isfinite(rows).all():
        return np.nan
    step = max(1, _DENSE_STACK_ENTRIES // alg.rep_dim ** 2)
    best = -np.inf
    for i in range(0, len(rows), step):
        best = _largest_opnorm([alg.rep_coeffs(rows[i:i + step])], best)
    return float(best)


def _largest_block_norm(blocks) -> float:
    """Largest spectral norm over stacks of (..., N, N) blocks, one stack
    per block size: max |x| over the 1 x 1 stacks, then
    ``_largest_opnorm`` over the others."""
    best = np.max([np.abs(b).max() for b in blocks if b.shape[-1] == 1],
                  initial=-np.inf)
    return float(_largest_opnorm([b for b in blocks if b.shape[-1] > 1],
                                 best))


# relative slack of the pruning test in _largest_opnorm: a Frobenius bound
# and an opnorm of equal exact value may round a few ulps apart
_PRUNE_GUARD = 1e-12


def _largest_opnorm(stacks, best):
    """max(best, largest ``opnorm`` over the matrices of the (..., a, b)
    stacks), computing only the norms that can reach it: a matrix M with
    largest |entry| s has s <= ||M|| <= ||M||_F and ||M||_F / sqrt(n) <=
    ||M|| (n its smaller side), so one ``opnorm`` call per stack takes
    the matrices whose Frobenius norm reaches the largest lower bound so
    far (less ``_PRUNE_GUARD``), and each computed norm raises it for the
    next.  The result is ``best`` or a computed ``opnorm``; a NaN
    ``best`` or a non-finite entry gives NaN.  Only the matrices above
    the bound are kept between the passes."""
    if np.isnan(best):
        return np.nan
    cands = []
    lower = best
    for m in stacks:
        m = m.reshape((-1,) + m.shape[-2:])
        bounds = _entry_and_frobenius(m)
        if bounds is None:
            return np.nan
        s, fro = bounds
        lower = max(lower, s.max(), (fro / np.sqrt(min(m.shape[-2:]))).max())
        # the bound only rises, so a matrix below it now stays below it
        keep = fro >= lower * (1.0 - _PRUNE_GUARD)
        cands.append((fro[keep], m[keep]))
    # the stack with the largest bound first, so its norms prune the rest
    for fro, m in sorted(cands, key=lambda c: -c[0].max(initial=0.0)):
        keep = fro >= lower * (1.0 - _PRUNE_GUARD)
        if keep.any():
            best = max(best, opnorm(m[keep]).max())
            lower = max(lower, best)
    return best


def _entry_and_frobenius(m):
    """Largest |entry| s and Frobenius norm, taken as s * ||M / s||_F so
    that it neither overflows nor underflows, of each matrix of a
    (k, a, b) stack (0 and 0 for a zero matrix); None if an entry is NaN
    or inf."""
    a = np.abs(m)
    s = a.max(axis=(-2, -1))
    if not np.isfinite(s).all():
        return None
    a /= np.where(s > 0, s, 1.0)[:, None, None]
    return s, s * np.sqrt(np.einsum("kab,kab->k", a, a))


def tensor(*algebras) -> TensorAlgebra:
    """Tensor product of algebras (flattened, Kronecker indexing)."""
    return TensorAlgebra(*algebras)


class LinMap:
    """Linear map between algebras, stored as a matrix over their bases."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: Algebra, codomain: Algebra, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (codomain.dim, domain.dim):
            raise ValueError(
                f"map matrix has shape {matrix.shape}, expected "
                f"{(codomain.dim, domain.dim)}")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    def __call__(self, x):
        return self.matrix @ np.asarray(x, dtype=complex)

    def __repr__(self):
        return f"LinMap({self.domain!r} -> {self.codomain!r})"


# -- shared numerical helpers ------------------------------------------------

def multiplicative_residual(domain: Algebra, codomain: Algebra,
                            matrix) -> float:
    """Largest norm of f(e_p e_q) - f(e_p) f(e_q) over all basis pairs of
    the domain, for the linear map f with the given matrix, NaN if any
    norm is NaN, one block of rows p at a time (``_pair_rows``).  A block
    algebra into a block codomain gathers each f(e_p) into the codomain's
    blocks once, takes f(e_p e_q) as a gather of those through
    ``product_index`` and hands the residual blocks to the norm fold of
    ``_max_norm``; other algebras take the products from
    ``pair_products`` and one norm call per block of rows.  A NaN or inf
    in the matrix gives NaN before any product, without a warning."""
    cols = np.asarray(matrix).T
    if not np.isfinite(cols).all():
        return np.nan
    gathers = codomain._block_stacks()
    worst = [0.0]
    if not (gathers and isinstance(domain, BlockAlgebra)):
        eye = np.eye(domain.dim)
        for rows, prods in _pair_blocks(codomain, cols, cols):
            images = domain.mul_coeffs(eye[rows, None], eye) @ cols
            worst.append(codomain.norm_coeffs(images - prods))
        return float(np.max(worst))
    # a (d + 1, count, N, N) stack z per size: f(e_p) at row p, f(0) at d
    padded = np.concatenate([cols, np.zeros((1, cols.shape[1]))])
    blocks = [(z, z[:-1]) for z in (padded.take(g, axis=-1) for g in gathers)]
    index = domain.product_index
    for rows in _pair_rows(codomain, len(cols), len(cols)):
        worst.append(_largest_block_norm([
            z[index[rows]] - (b[rows, None] * b if b.shape[-1] == 1
                              else b[rows, None] @ b)
            for z, b in blocks]))
    return float(np.max(worst))


def associativity_residual(alg: Algebra) -> float:
    """Largest norm of (e_p e_q) e_r - e_p (e_q e_r) over all basis
    triples, NaN if any norm is NaN: two ``tensordot``s of the structure
    tensor m[k, p, q] per block of rows p, under ``_pair_rows``' budget."""
    m, d = alg.mul_tensor, alg.dim
    worst = [0.0]
    for rows in _pair_rows(alg, d, d * d):
        mp = m[:, rows]
        # entry [p, q, r, s]: coefficient s of (e_p e_q) e_r, e_p (e_q e_r)
        left = np.tensordot(mp, m, (0, 1)).transpose(0, 1, 3, 2)
        right = np.tensordot(mp, m, (2, 0)).transpose(1, 2, 3, 0)
        worst.append(alg.norm_coeffs(left - right))
    return float(np.max(worst))


def coaction_residuals(module: Algebra, codomain: Algebra, matrix, delta,
                       counit) -> dict:
    """The residuals of the coaction alpha: N -> ``codomain`` = N x A
    with the given matrix, for the Hopf algebra A with coproduct matrix
    ``delta`` and counit ``counit``: ``unital`` alpha(1) = 1 x 1,
    ``multiplicative``, ``star`` alpha(x*) = alpha(x)*, ``coaction``
    (alpha x id) alpha = (id x delta) alpha and ``counit``
    (id x eps) alpha = id.  The coproduct is the regular coaction
    (N = A, alpha = delta).  No Kronecker matrix is built."""
    res, maps = coaction_maps(module, codomain, matrix, delta, counit)
    return {**res, **dict(zip(maps, map(float, opnorms(maps.values()))))}


def coaction_maps(module: Algebra, codomain: Algebra, matrix, delta,
                  counit):
    """The ``unital`` and ``multiplicative`` residuals of
    ``coaction_residuals``, and the maps whose operator norms are its
    other three."""
    am = np.asarray(matrix)
    d_n = module.dim
    # A3[i, g, k] is the coefficient of e_i x a_g in alpha(e_k):
    # (alpha x id) alpha acts on its first leg, (id x delta) alpha
    # broadcasts over i
    A3 = am.reshape(d_n, -1, d_n)
    unital = codomain.norm_coeffs(am @ module.unit_coeffs
                                  - codomain.unit_coeffs)
    return ({"unital": unital, "multiplicative": multiplicative_residual(
        module, codomain, am)}, {
        "star": am @ module.star_matrix - codomain.star_coeffs(am.T).T,
        "coaction": (am @ am.reshape(d_n, -1)).reshape(-1, d_n)
        - (delta @ A3).reshape(-1, d_n),
        "counit": counit @ A3 - np.eye(d_n)})


def numerical_rank(singular_values, tol=None):
    """The rank rule: the number of singular values s > eps * max(1, s_max)
    over the last axis, each row sorted descending as ``svd`` returns it
    (an int array over the leading axes; 0 for no singular values)."""
    s = np.asarray(singular_values)
    cut = as_tolerance(tol).eps * np.maximum(1.0, s[..., :1])
    return np.sum(s > cut, axis=-1)


def orthonormal_rows(vectors, tol=None):
    """Orthonormal basis (rows) of the span of the given row vectors."""
    m = np.asarray(vectors, dtype=complex)
    if m.ndim == 1:
        m = m[None, :]
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    return vh[:numerical_rank(s, tol)]


def nullspace(matrix, tol=None):
    """Orthonormal basis (rows) of the kernel of a matrix."""
    m = np.asarray(matrix, dtype=complex)
    # a tall or square matrix already yields the full vh in reduced form
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    # rows of vh are bra-vectors; the kernel is spanned by their conjugates
    return vh[numerical_rank(s, tol):].conj()


def project_onto_rows(basis, v):
    """Orthogonal projection of v, or of each row of a stack of vectors
    (..., dim), onto the row span of an orthonormal basis."""
    if basis.shape[0] == 0:
        return np.zeros_like(v)
    return (v @ basis.conj().T) @ basis


def distance_to_span(basis, v) -> float:
    """Distance of v from the row span of an orthonormal basis; for a
    stack of vectors, the largest distance (NaN if any row gives NaN)."""
    dist = np.linalg.norm(v - project_onto_rows(basis, v), axis=-1)
    return float(np.max(dist, initial=0.0))
