"""Dense complex linear algebra over finite-dimensional *-algebras.

Everything downstream works with three kinds of algebras:

* ``BlockAlgebra`` -- a direct sum of full matrix blocks with the canonical
  matrix-unit basis (block-major, row-major inside each block),
* ``Algebra`` -- a general associative *-algebra given by structure
  constants on an arbitrary basis (used e.g. for group algebras in the
  group-element basis, and for convolution duals before their block
  structure has been computed),
* ``TensorAlgebra`` -- tensor products of the above, with coefficients in
  the Kronecker (pair-index) convention, so that the matrix of a tensor
  product of linear maps is literally ``np.kron``.

Elements are immutable coefficient vectors over the algebra's basis.
The coefficient kernels ``mul_coeffs``, ``star_coeffs``, ``rep_coeffs``
and ``norm_coeffs`` also take stacks: inputs of shape ``(..., dim)``
broadcast against each other, and ``norm_coeffs`` of a stack is the
largest norm over its rows, so an axiom check over many basis pairs is
one call per stack.  Operator norms are exact C*-norms of a faithful
representation.  A block algebra, and a tensor product whose factors are
all block algebras, cuts its coefficients into (Kronecker) blocks through
one set of index stacks (``_block_gathers``), grouped by block size N.
Products and norms share that path: the product is a stacked N x N
matrix product per size (elementwise when N = 1), the norm is the largest
spectral norm over the blocks (max |x| when N = 1), so no large matrix is
ever built.  Any other algebra multiplies through its structure
constants, contracting a tensor product one leg at a time and never
forming x (x) y, and takes norms in its dense representation (the left
regular one for structure-constant algebras, Kronecker products of the
factors' for tensor products).  Every norm skips all-zero rows without
building a matrix.

Every spectral norm, here and in the residuals and scales of the other
modules, comes from ``opnorm``: the square root of the largest eigenvalue
of a Gram matrix taken on the matrix's smaller side, after scaling by the
largest entry.  A NaN or inf coefficient gives a NaN norm on every path,
never a ``LinAlgError``.  SVDs are taken only where a rank is decided
(``nullspace``, ``orthonormal_rows``, ``LinMap.rank``, the Haar nullity,
the injectivity of a coaction), and for the spectral shifts inside the
Wedderburn split, whose results the matrix units depend on; such an SVD
of a matrix with a NaN raises ``LinAlgError``.  Zero tests
are relative: ``norm <= eps * (1 + scale)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-9
# 0xC11FF04D; fits in 32 bits so it seeds every numpy generator.
DEFAULT_SEED = 0xC11FF04D
# dense norms of a stack build at most this many representation entries
# at a time (16 MB), whatever the stack's length; opnorm forms its Gram
# matrices from slices of about this size
_DENSE_STACK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance used by every numeric predicate."""

    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("tolerance must be positive")

    def is_zero(self, value: float, scale: float = 1.0) -> bool:
        return value <= self.eps * (1.0 + scale)


def as_tolerance(tol) -> Tolerance:
    if tol is None:
        return Tolerance()
    if isinstance(tol, Tolerance):
        return tol
    return Tolerance(float(tol))


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
        return np.conj(x) @ self.star_matrix.T

    def rep_coeffs(self, x):
        x = np.asarray(x)
        r = self.rep_dim
        return (x @ self.rep_tensor.reshape(self.dim, r * r)).reshape(
            x.shape[:-1] + (r, r))

    def norm_coeffs(self, x) -> float:
        return _max_norm(self, x)

    # -- element constructors ----------------------------------------------
    def element(self, coeffs) -> "AlgElement":
        return AlgElement(self, coeffs)

    def basis_element(self, k: int) -> "AlgElement":
        v = np.zeros(self.dim, dtype=complex)
        v[k] = 1.0
        return AlgElement(self, v)

    def basis(self):
        return [self.basis_element(k) for k in range(self.dim)]

    def one(self) -> "AlgElement":
        return AlgElement(self, self.unit_coeffs)

    def zero(self) -> "AlgElement":
        return AlgElement(self, np.zeros(self.dim, dtype=complex))

    def random_element(self, rng) -> "AlgElement":
        v = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        return AlgElement(self, v)

    def random_selfadjoint(self, rng) -> "AlgElement":
        x = self.random_element(rng)
        return 0.5 * (x + x.star())

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
    fixed convention every file format and every other module refers to.
    """

    def __init__(self, block_dims, name=""):
        block_dims = [int(n) for n in block_dims]
        if not block_dims or any(n <= 0 for n in block_dims):
            raise ValueError("block dims must be positive integers")
        self.block_dims = tuple(block_dims)
        self.offsets = np.concatenate(
            [[0], np.cumsum([n * n for n in block_dims])])
        dim = int(self.offsets[-1])

        unit = np.zeros(dim, dtype=complex)
        star = np.zeros((dim, dim))
        for k, n in enumerate(block_dims):
            for i in range(n):
                unit[self.index(k, i, i)] = 1.0
                for j in range(n):
                    star[self.index(k, j, i), self.index(k, i, j)] = 1.0

        self.dim = dim
        self.unit_coeffs = unit
        self.star_matrix = star.astype(complex)
        self.name = name
        self._mul_tensor = None
        self._rep_tensor = None
        self._gathers = None

    def _block_stacks(self):
        if self._gathers is None:
            self._gathers = _block_gathers((self,))
        return self._gathers

    # structure tensor is only materialized when a generic consumer asks
    @property
    def mul_tensor(self):
        if self._mul_tensor is None:
            m = np.zeros((self.dim,) * 3, dtype=complex)
            for k, n in enumerate(self.block_dims):
                for i in range(n):
                    for j in range(n):
                        for l in range(n):
                            m[self.index(k, i, l),
                              self.index(k, i, j),
                              self.index(k, j, l)] = 1.0
            self._mul_tensor = m
        return self._mul_tensor

    @mul_tensor.setter
    def mul_tensor(self, _):
        raise AttributeError("block structure tensor is derived")

    def index(self, block: int, row: int, col: int) -> int:
        n = self.block_dims[block]
        if not (0 <= row < n and 0 <= col < n):
            raise IndexError("matrix unit index out of range")
        return int(self.offsets[block]) + row * n + col

    def unindex(self, idx: int):
        """Inverse of :meth:`index`: basis index -> (block, row, col)."""
        block = int(np.searchsorted(self.offsets, idx, side="right")) - 1
        n = self.block_dims[block]
        r = idx - int(self.offsets[block])
        return block, r // n, r % n

    def block_matrices(self, coeffs):
        out = []
        for k, n in enumerate(self.block_dims):
            o = int(self.offsets[k])
            out.append(np.asarray(coeffs[o:o + n * n]).reshape(n, n))
        return out

    def from_block_matrices(self, mats) -> "AlgElement":
        if len(mats) != len(self.block_dims):
            raise ValueError("wrong number of blocks")
        coeffs = np.concatenate(
            [np.asarray(m, dtype=complex).reshape(-1) for m in mats])
        return AlgElement(self, coeffs)

    def block_unit(self, k: int) -> "AlgElement":
        mats = [np.eye(n) if j == k else np.zeros((n, n))
                for j, n in enumerate(self.block_dims)]
        return self.from_block_matrices(mats)

    def matrix_unit(self, block: int, row: int, col: int) -> "AlgElement":
        return self.basis_element(self.index(block, row, col))

    def mul_coeffs(self, x, y):
        return _blockwise_mul(x, y, self._block_stacks())

    def star_coeffs(self, x):
        x = np.asarray(x)
        out = np.empty(x.shape, dtype=complex)
        for g in self._block_stacks():
            out[..., g] = np.conj(x.take(g.swapaxes(-1, -2), axis=-1))
        return out

    @property
    def rep_dim(self) -> int:
        return int(sum(self.block_dims))

    @property
    def rep_tensor(self):
        if self._rep_tensor is None:
            r = self.rep_dim
            t = np.zeros((self.dim, r, r), dtype=complex)
            start = np.concatenate([[0], np.cumsum(self.block_dims)])
            for k, n in enumerate(self.block_dims):
                s = int(start[k])
                for i in range(n):
                    for j in range(n):
                        t[self.index(k, i, j), s + i, s + j] = 1.0
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
    ravel(p_1, ..., p_k); consequently ``kron`` of coefficient vectors and
    ``np.kron`` of linear-map matrices realize the tensor product.  Nested
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
        self._star = None
        self._gathers = None

    @property
    def unit_coeffs(self):
        if self._unit is None:
            u = self.factors[0].unit_coeffs
            for f in self.factors[1:]:
                u = np.kron(u, f.unit_coeffs)
            self._unit = u
        return self._unit

    @unit_coeffs.setter
    def unit_coeffs(self, _):
        raise AttributeError("tensor unit is derived")

    @property
    def star_matrix(self):
        if self._star is None:
            st = self.factors[0].star_matrix
            for f in self.factors[1:]:
                st = np.kron(st, f.star_matrix)
            self._star = st
        return self._star

    @star_matrix.setter
    def star_matrix(self, _):
        raise AttributeError("tensor star is derived")

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
        return np.conj(x) @ self.star_matrix.T

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
        out = np.asarray(vecs[0], dtype=complex)
        for v in vecs[1:]:
            out = np.kron(out, v)
        return out

    def contract_leg(self, coeffs, leg: int, functional):
        """Apply a linear functional to one leg, returning reduced coeffs."""
        X = coeffs.reshape(self.factor_dims)
        X = np.tensordot(X, np.asarray(functional, dtype=complex), ([leg], [0]))
        return X.reshape(-1)

    def swap_legs(self, coeffs, i: int, j: int):
        X = coeffs.reshape(self.factor_dims)
        return np.swapaxes(X, i, j).reshape(-1)

    def reduced(self, without_leg: int):
        """The tensor algebra (or single algebra) with one leg removed."""
        rest = [f for l, f in enumerate(self.factors) if l != without_leg]
        return rest[0] if len(rest) == 1 else TensorAlgebra(*rest)

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


def _block_gathers(factors):
    """Index stacks cutting the coefficients of a tensor product of block
    algebras into its Kronecker blocks, one (count, N, N) stack per block
    size N.  The (k_1, ..., k_m) block has entry ((i_1, ...), (j_1, ...))
    at the Kronecker index of the matrix units e^{(k_l)}_{i_l j_l}, so
    every coefficient is gathered exactly once."""
    stacks = {1: np.zeros((1, 1, 1), dtype=np.intp)}
    for f in factors:
        own = {}
        for k, n in enumerate(f.block_dims):
            own.setdefault(n, []).append(
                int(f.offsets[k]) + np.arange(n * n).reshape(n, n))
        grown = {}
        for size, s in stacks.items():
            for n, blocks in own.items():
                b = np.stack(blocks)
                g = s[:, None, :, None, :, None] * f.dim \
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


def opnorm(stack):
    """Spectral norm of each matrix in a ``(..., a, b)`` stack.

    The norm of a matrix is s * sqrt(lambda_max(G)), where s is its
    largest |entry| and G the Gram matrix of the matrix divided by s, taken
    on its smaller side; the scaling keeps G clear of underflow and
    overflow.  A matrix with a NaN or inf entry gives NaN, an all-zero
    matrix 0.0, both without a decomposition.  Returns an array of shape
    ``stack.shape[:-2]`` (a numpy float for a single matrix)."""
    m = np.asarray(stack)
    s = np.abs(m).max(axis=(-2, -1), initial=0.0)
    live = np.isfinite(s) & (s > 0)
    if live.all():
        return s * _unit_opnorm(m, s)
    out = np.where(np.isfinite(s), 0.0, np.nan)
    if live.any():
        out[live] = s[live] * _unit_opnorm(m[live], s[live])
    return out[()]


def _unit_opnorm(m, s):
    """sqrt(lambda_max) of the smaller Gram matrix of each m / s, whose
    largest |entry| is 1, so that lambda_max >= 1.  The Gram matrix is
    summed over slices of the longer side of at most about
    ``_DENSE_STACK_ENTRIES`` entries, so no full-size scaled or conjugated
    copy of the stack is held."""
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
    return np.sqrt(np.linalg.eigvalsh(gram)[..., -1])


def _max_norm(alg, x) -> float:
    """Largest operator norm over the rows of a coefficient stack.

    All-zero rows are dropped first.  On the block path it is the largest
    ``opnorm`` over the blocks named by ``_block_gathers``; otherwise over
    the rows' dense representations, a bounded number of entries at a
    time.  NaN propagates instead of losing a max comparison."""
    x = np.asarray(x)
    rows = x.reshape(-1, x.shape[-1])
    if len(rows) > 1:
        rows = rows[rows.any(axis=1)]
    if not rows.any():
        return 0.0
    gathers = alg._block_stacks()
    if gathers:
        norms = [np.abs(rows.take(g, axis=-1)).max() if g.shape[-1] == 1
                 else opnorm(rows.take(g, axis=-1)).max()
                 for g in gathers]
    else:
        step = max(1, _DENSE_STACK_ENTRIES // alg.rep_dim ** 2)
        norms = [opnorm(alg.rep_coeffs(rows[i:i + step])).max()
                 for i in range(0, len(rows), step)]
    return float(np.max(norms))


def tensor(*algebras) -> TensorAlgebra:
    """Tensor product of algebras (flattened, Kronecker indexing)."""
    return TensorAlgebra(*algebras)


class AlgElement:
    """An element of an algebra: an immutable coefficient vector."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent: Algebra, coeffs):
        coeffs = np.array(coeffs, dtype=complex).reshape(parent.dim)
        coeffs.flags.writeable = False
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("AlgElement is immutable")

    def _check(self, other):
        if self.parent != other.parent:
            raise ValueError("elements live in different algebras")

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            self._check(other)
            return AlgElement(self.parent,
                              self.parent.mul_coeffs(self.coeffs, other.coeffs))
        return AlgElement(self.parent, self.coeffs * complex(other))

    def __rmul__(self, scalar):
        return AlgElement(self.parent, complex(scalar) * self.coeffs)

    def __add__(self, other):
        self._check(other)
        return AlgElement(self.parent, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return AlgElement(self.parent, self.coeffs - other.coeffs)

    def __neg__(self):
        return AlgElement(self.parent, -self.coeffs)

    def star(self) -> "AlgElement":
        return AlgElement(self.parent, self.parent.star_coeffs(self.coeffs))

    def norm(self) -> float:
        return self.parent.norm_coeffs(self.coeffs)

    def is_zero(self, tol=None, scale: float = 1.0) -> bool:
        return as_tolerance(tol).is_zero(self.norm(), scale)

    def is_projection(self, tol=None) -> bool:
        tol = as_tolerance(tol)
        sq = self * self - self
        sa = self.star() - self
        s = self.norm()
        return tol.is_zero(sq.norm(), s * s) and tol.is_zero(sa.norm(), s)

    def blocks(self):
        return self.parent.block_matrices(self.coeffs)

    def __repr__(self):
        return f"AlgElement({self.parent!r}, norm={self.norm():.3g})"


def mul(a: AlgElement, b: AlgElement) -> AlgElement:
    return a * b


def norm(x: AlgElement) -> float:
    return x.norm()


def is_zero(x: AlgElement, tol=None, scale: float = 1.0) -> bool:
    return x.is_zero(tol, scale)


def kron(*elements) -> AlgElement:
    """Tensor product of elements, living in the tensor of the parents."""
    t = tensor(*[e.parent for e in elements])
    return AlgElement(t, t.kron_coeffs(*[e.coeffs for e in elements]))


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

    @classmethod
    def identity(cls, algebra: Algebra) -> "LinMap":
        return cls(algebra, algebra, np.eye(algebra.dim))

    def __call__(self, x):
        if isinstance(x, AlgElement):
            if x.parent != self.domain:
                raise ValueError("element not in the domain")
            return AlgElement(self.codomain, self.matrix @ x.coeffs)
        return self.matrix @ np.asarray(x, dtype=complex)

    def __matmul__(self, other: "LinMap") -> "LinMap":
        if other.codomain != self.domain:
            raise ValueError("maps do not compose")
        return LinMap(other.domain, self.codomain, self.matrix @ other.matrix)

    def tensor(self, other: "LinMap") -> "LinMap":
        return LinMap(tensor(self.domain, other.domain),
                      tensor(self.codomain, other.codomain),
                      np.kron(self.matrix, other.matrix))

    def rank(self, tol=None) -> int:
        tol = as_tolerance(tol)
        s = np.linalg.svd(self.matrix, compute_uv=False)
        if s.size == 0:
            return 0
        return int(np.sum(s > tol.eps * max(1.0, s[0])))

    def distance(self, other: "LinMap") -> float:
        return float(opnorm(self.matrix - other.matrix))

    def __repr__(self):
        return f"LinMap({self.domain!r} -> {self.codomain!r})"


# -- shared numerical helpers ------------------------------------------------

def multiplicative_residual(domain: Algebra, codomain: Algebra,
                            matrix) -> float:
    """Largest norm of f(e_p e_q) - f(e_p) f(e_q) over all basis pairs of
    the domain, for the linear map f with the given matrix.  A codomain on
    the block path takes all d^2 pairs (d = dim(domain)) in one stacked
    call.  Otherwise one stacked call per p covers the pairs (p, q); rows
    of d pairs keep a generic tensor-square codomain's intermediates at
    d^4 entries."""
    cols = np.asarray(matrix).T
    eye = np.eye(domain.dim)
    if codomain._block_stacks():
        images = domain.mul_coeffs(eye[:, None], eye) @ cols   # (p, q, :)
        return codomain.norm_coeffs(
            images - codomain.mul_coeffs(cols[:, None], cols))
    return float(np.max([
        codomain.norm_coeffs(domain.mul_coeffs(eye[p], eye) @ cols
                             - codomain.mul_coeffs(cols[p], cols))
        for p in range(domain.dim)]))


def orthonormal_rows(vectors, tol=None):
    """Orthonormal basis (rows) of the span of the given row vectors."""
    tol = as_tolerance(tol)
    m = np.asarray(vectors, dtype=complex)
    if m.ndim == 1:
        m = m[None, :]
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0:
        return np.zeros((0, m.shape[1]), dtype=complex)
    keep = s > tol.eps * max(1.0, s[0])
    return vh[keep]


def nullspace(matrix, tol=None):
    """Orthonormal basis (rows) of the kernel of a matrix."""
    tol = as_tolerance(tol)
    m = np.asarray(matrix, dtype=complex)
    # a tall or square matrix already yields the full vh in reduced form
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    cut = tol.eps * max(1.0, s[0] if s.size else 1.0)
    rank = int(np.sum(s > cut))
    # rows of vh are bra-vectors; the kernel is spanned by their conjugates
    return vh[rank:].conj()


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
