"""Dense real and complex linear algebra over finite-dimensional
*-algebras.

One kernel set, two layouts.  Every algebra is a tensor product of its
legs, ``factors``: a plain or block algebra is its own one leg, and a
tensor product holds the flattened legs of its factors.  A leg is

* an ``Algebra`` -- a general associative *-algebra given by structure
  constants on an arbitrary basis (group algebras in the group-element
  basis, raw convolution duals, KP8 in its monomial presentation), or
* a ``BlockAlgebra`` -- a direct sum of full matrix blocks with the
  canonical matrix-unit basis (block-major, row-major inside each block);
  it alone knows where the entries of a block sit: other modules read the
  blocks of coefficient rows through its accessors ``index``, ``unindex``,
  ``block_indices``, ``block_matrices`` and ``block_traces``, and build
  rows from blocks with ``block_unit`` and ``from_block_matrices``.

``TensorAlgebra`` is the Kronecker layout of the legs (pair-index
coefficients, so that the matrix of a tensor product of linear maps is
literally ``np.kron``); ``BlockAlgebra`` is the block layout.  Neither
has kernels of its own.

An element is a coefficient row over the algebra's basis.  The kernels
``mul_coeffs``, ``star_coeffs``, ``rep_coeffs`` and ``norm_coeffs`` are
defined once, on ``Algebra``, and take rows and stacks of rows
(..., dim) that broadcast; ``norm_coeffs`` of a stack is the largest norm
over its rows and ``row_norms`` gives each row's.  Every kernel has two
paths.  When every leg is a block algebra, the coefficients are cut into
(Kronecker) blocks through index stacks (``_block_stacks``:
``_block_gathers``, one per block size N, built once per block shape),
and products, adjoints and norms are blockwise, so no large matrix is
built.  Otherwise, a plain algebra being a tensor product of one leg,
the product contracts one leg's structure constants at a time, the
adjoint applies one leg's star matrix at a time, and the norm is the
operator norm in the Kronecker product of each leg's ``rep_tensor``.  A
generic leg's ``rep_tensor`` is the GNS representation of its
normalised regular trace (``trace``, ``trace_gram``), built once; it is
all NaN unless the trace passes the one positivity rule
(``trace_positive``).  Every norm is therefore the C*-norm.  Two
algebras are equal when they have the same legs, so a plain or block
algebra equals only itself.

All pairs of two stacks (``pair_products``) take every pair of a block
of rows of x with one matrix product.  The all-pairs residual of a map
from a block algebra into a block codomain (``multiplicative_residual``)
gathers the images of the basis into the codomain's blocks once, takes
f(e_p e_q) as a gather of them through the domain's table of basis
products (``product_index``: e_p e_q is one basis element or 0) and
hands the residual blocks to ``_largest_opnorm``, as ``_max_norm`` hands
its blocks.  One function (``coaction_residuals``) checks every coaction
alpha: N -> N x A, the coproduct included as the regular coaction (N =
A, alpha = delta).  ``associativity_residual`` checks a
structure-constant product on all basis triples.

Every spectral norm, here and in the other modules, comes from
``opnorm`` of a stack, except the draw-size test ``np.linalg.norm(y, 2)``
of wedderburn's ``_spectral_split``: for each matrix, its largest
|entry| s times the square root of the largest eigenvalue of the Gram
matrix of the matrix / s on its smaller side, taken by ``gram_norm``,
the one eigenvalue call.  An N x N block has one product rule and one norm rule
(``_block_products``, ``block_norms``): elementwise and |entry| when
N = 1, else ``@`` and ``opnorm``.  The one norm fold of both paths,
``_largest_opnorm``, takes the ``block_norms`` of 1 x 1 stacks and, of
the others, only the norms whose scale-safe Frobenius bound reaches a
running lower bound: the exhaustive maximum bit for bit while each
stack fits one Gram slice.  ``row_norms`` takes ``block_norms`` of the
stacks the fold reads.  A NaN or inf coefficient gives a NaN norm (inf
on a 1 x 1 block), never a ``LinAlgError`` or a warning.
SVDs are taken only where a rank is decided (``nullspace``,
``orthonormal_rows``, the Haar nullity, the Wedderburn corners, the
surjectivity of a quotient map) and for the spectral shifts of the
Wedderburn split.  Every rank is ``numerical_rank``: the number of
singular values above eps * max(1, s_max).  ``nullspace`` or
``orthonormal_rows`` of a matrix with a NaN raises ``LinAlgError``.

One field rule (``as_field``) sets the type of every stored structure
array: float64 when every imaginary part is exactly zero, complex128
otherwise.  ``Algebra`` passes its structure tensor, unit and star
through it, ``LinMap`` its matrix and ``hopf.HopfData`` its counit, and
``BlockAlgebra`` builds its 0/1 arrays real, so the structure constants
of C(G), C[G] and KP8 are multiplied with real BLAS.  Every kernel sizes
its output by its operands (``np.result_type``), so a real and a complex
operand give a complex result.  The sites whose bits feed a decision or
a written file stay complex: the Wedderburn split (``nullspace``,
``orthonormal_rows``, the GNS build of ``rep_tensor`` and wedderburn's
``decompose``), the entries ``io`` writes, and ``gram_norm``, which
takes each Gram matrix as complex, so that a norm of exact data has the
same bits in either field.

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
# The three of the Wedderburn split are read by wedderburn._spectral_split
# and its _cluster, the one site of every draw and cluster decision.
# relative eigenvalue gap used to form spectral clusters
CLUSTER_GAP = 1e-6
# faithfulness threshold for the smallest eigenvalue of the Gram matrix of
# the regular trace (Algebra.trace_positive)
GRAM_MIN_EIG = 1e-12
# a multiplicity, the trace of a projection, counts as an integer this
# close (fusion multiplicities, and so contragredients, rest on it)
INTEGER_SLACK = 1e-6
# a random self-adjoint draw whose spectral norm is below this is redrawn
DEGENERATE_DRAW = 1e-6
# a counit value, exactly 0 or 1, counts as 1 when within this of 1
COUNIT_SPLIT = 0.5
# spectral clusters closer than this many eps (times the spectrum's
# spread) are refused rather than split
CLUSTER_REFUSAL_FACTOR = 10


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


def as_field(a) -> np.ndarray:
    """``a`` as float64 when every imaginary part is exactly zero, else
    as complex128: the field rule of every stored structure array.  A real
    part taken from a complex array is copied to C order, since a strided
    operand can take another BLAS path and round differently."""
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        return a.astype(float, copy=False)
    if a.imag.any():
        return a.astype(complex, copy=False)
    return np.ascontiguousarray(a.real)


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

    Every algebra is a tensor product of ``factors``, its legs: a plain or
    block algebra is its own one leg.  The kernels are defined here once,
    over the legs, and the subclasses only lay out the coefficients.
    """

    def __init__(self, mul_tensor, unit, star_matrix, name=""):
        mul_tensor = as_field(mul_tensor)
        self.dim = mul_tensor.shape[0]
        if mul_tensor.shape != (self.dim,) * 3:
            raise ValueError("structure tensor must be cubic")
        self.mul_tensor = mul_tensor
        self.unit_coeffs = as_field(unit).reshape(self.dim)
        self.star_matrix = as_field(star_matrix)
        self.name = name
        self._gathers = None

    @property
    def factors(self) -> tuple:
        """The tensor legs, none of them a tensor product."""
        return (self,)

    @property
    def factor_dims(self) -> tuple:
        return tuple(f.dim for f in self.factors)

    # -- the regular trace and the representation used for operator norms --
    @property
    def rep_dim(self) -> int:
        return self.dim

    @cached_property
    def trace(self):
        """The normalised regular trace tau(e_p) = sum_k m[k, p, k] / d,
        the trace of the left regular representation of e_p over d: a
        faithful tracial state of every finite-dimensional C*-algebra."""
        return np.einsum("kpk->p", self.mul_tensor) / self.dim

    @cached_property
    def trace_gram(self):
        """gram[p, q] = tau(e_p* e_q), where star(e_p) has the coefficients
        star_matrix[:, p], in the field of the structure constants.

        The contraction order is fixed: the star goes into the left leg of
        the structure tensor first, y[p, k, q] = sum_a st[a, p] m[k, a, q],
        as one (d, d) x (d, d^2) matrix product, the product that the
        planned ``np.einsum("kab,ap,bq->kpq", m, st, eye)`` runs before it
        multiplies by the identity, which is exact and left out.  Then tau
        is summed into k."""
        d = self.dim
        lam = self.mul_tensor.transpose(1, 0, 2).reshape(d, d * d)
        y = (self.star_matrix.T @ lam).reshape(d, d, d).transpose(1, 0, 2)
        return np.einsum("k,kpq->pq", self.trace, y)

    @cached_property
    def trace_spectrum(self):
        """The eigenvalues (ascending) and eigenvectors of the symmetrised
        ``trace_gram``, taken as complex; all-NaN eigenvalues and no
        eigenvectors for a Gram matrix with a NaN or inf."""
        gram = np.asarray(self.trace_gram, dtype=complex)
        if not np.isfinite(gram).all():
            return np.full(self.dim, np.nan), None
        return np.linalg.eigh(0.5 * (gram + gram.conj().T))

    @property
    def trace_positive(self) -> bool:
        """The positivity rule of tau: the smallest eigenvalue of its Gram
        matrix is above ``GRAM_MIN_EIG`` (False for a non-finite Gram)."""
        return bool(self.trace_spectrum[0].min() > GRAM_MIN_EIG)

    @cached_property
    def rep_tensor(self):
        """Per-basis-element matrices of the GNS representation of tau:
        rep[k] = G^(1/2) lambda(e_k) G^(-1/2), with G the ``trace_gram``
        and lambda(e_k)[b, c] = m[b, k, c] the left regular representation.
        It is a faithful *-representation, so its operator norm is the
        C*-norm; where G = I (group algebras in the group-element basis)
        it is lambda bit for bit.  All NaN unless ``trace_positive``.

        The contraction order is fixed, two matrix products over all k at
        once: first G^(1/2) from the left, then G^(-1/2) from the right,
        each a (d^2, d) x (d, d) product, the products that
        ``np.einsum("ab,kbc,cd->kad", ...)`` runs after planning."""
        d = self.dim
        if not self.trace_positive:
            return np.full((d, d, d), np.nan)
        vals, vecs = self.trace_spectrum
        gh = (vecs * np.sqrt(vals)) @ vecs.conj().T
        ghi = (vecs / np.sqrt(vals)) @ vecs.conj().T
        # rows (k, c), columns b; a real product is promoted to complex
        left = self.mul_tensor.transpose(1, 2, 0).reshape(d * d, d) @ gh.T
        # left[(k, c), a] = (G^(1/2) lambda(e_k))[a, c]; rows (a, k),
        # columns c
        right = left.reshape(d, d, d).transpose(2, 0, 1).reshape(d * d, d)
        return as_field((right @ ghi).reshape(d, d, d).transpose(1, 0, 2))

    def _block_stacks(self):
        """The index stacks of the block path (``_block_gathers``) when
        every leg is a block algebra, else empty; built on first use."""
        if self._gathers is None:
            self._gathers = (_block_gathers(self.factors) if all(
                isinstance(f, BlockAlgebra) for f in self.factors) else ())
        return self._gathers

    # -- coefficient-level operations (stacks broadcast over ...) ---------
    def mul_coeffs(self, x, y):
        if gathers := self._block_stacks():
            return _blockwise_mul(x, y, gathers)
        x, y, dims = np.asarray(x), np.asarray(y), self.factor_dims
        d0, rest, m = dims[0], self.dim // dims[0], len(dims)
        # leg by leg with a leading batch axis b, so x (x) y is never
        # formed: leg 0 meets x before x and y broadcast; after leg l the
        # axes of z are (b, p_{l+1}, ..., r_0, ..., r_l, q_{l+1}, ...), and
        # leg l+1 contracts p_{l+1}, q_{l+1} against its factor's m[r, p, q]
        z = np.tensordot(x.reshape(x.shape[:-1] + (d0, rest)),
                         self.factors[0].mul_tensor, ([-2], [1]))
        z = np.matmul(z.reshape(z.shape[:-3] + (rest * d0, d0)),
                      y.reshape(y.shape[:-1] + (d0, rest)))
        lead = z.shape[:-2]
        z = z.reshape((-1,) + dims[1:] + (d0,) + dims[1:])
        for f in self.factors[1:]:
            z = np.tensordot(z, f.mul_tensor, ([1, m + 1], [1, 2]))
            z = np.moveaxis(z, -1, m)
        return z.reshape(lead + (self.dim,))

    def star_coeffs(self, x):
        x = np.asarray(x)
        if gathers := self._block_stacks():
            # the adjoint of every block: transpose the gather, conjugate
            out = np.empty(x.shape, dtype=x.dtype)
            for g in gathers:
                out[..., g] = np.conj(x.take(g.swapaxes(-1, -2), axis=-1))
            return out
        # one leg's star matrix per leg, after a batch axis: leg l of
        # conj(x), moved last, times the transposed star matrix, as the
        # product conj(x) @ st.T of one leg promotes a real st
        z = np.conj(x).reshape((-1,) + self.factor_dims)
        for leg, f in enumerate(self.factors, 1):
            z = np.moveaxis(z, leg, -1)
            z = np.moveaxis((z.reshape(-1, f.dim) @ f.star_matrix.T)
                            .reshape(z.shape), -1, leg)
        return z.reshape(x.shape)

    def rep_coeffs(self, x):
        x = np.asarray(x)
        r, m = self.rep_dim, len(self.factors)
        # leg by leg after a batch axis; the axes end as
        # (b, a_0, b_0, ..., a_{m-1}, b_{m-1})
        z = x.reshape((-1,) + self.factor_dims)
        for f in self.factors:
            z = np.tensordot(z, f.rep_tensor, ([1], [0]))
        z = z.transpose([0] + list(range(1, 2 * m + 1, 2))
                        + list(range(2, 2 * m + 1, 2)))
        return z.reshape(x.shape[:-1] + (r, r))

    def norm_coeffs(self, x) -> float:
        return _max_norm(self, x)

    def is_commutative(self, tol=None) -> bool:
        m = self.mul_tensor
        # row p * dim + q holds e_p e_q - e_q e_p
        commutators = (m - m.transpose(0, 2, 1)).reshape(self.dim, -1).T
        return as_tolerance(tol).is_zero(self.norm_coeffs(commutators))

    # legs compare by identity, so an algebra equals only itself and a
    # tensor product equals one with the same legs
    def __eq__(self, other):
        return self is other or (isinstance(other, Algebra) and list(
            map(id, self.factors)) == list(map(id, other.factors)))

    def __hash__(self):
        return hash(tuple(map(id, self.factors)))

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
        self.dim = int(self.offsets[-1])
        self.name = name
        self._gathers = None

    # the benchmark's span recorder wraps these two from each algebra
    # class's own __dict__
    mul_coeffs = Algebra.mul_coeffs
    norm_coeffs = Algebra.norm_coeffs

    @cached_property
    def unit_coeffs(self):
        """e^{(k)}_{ii} in every block, one assignment per block size."""
        unit = np.zeros(self.dim)
        for g in self._block_stacks():
            unit[np.diagonal(g, axis1=-2, axis2=-1)] = 1.0
        return unit

    @cached_property
    def star_matrix(self):
        """star[index(k, j, i), index(k, i, j)] = 1, one assignment per
        block size; built on first use."""
        star = np.zeros((self.dim, self.dim))
        for g in self._block_stacks():
            star[g.swapaxes(-1, -2), g] = 1.0
        return star

    @cached_property
    def mul_tensor(self):
        """The structure tensor, built only when a generic consumer asks:
        e_ij e_jl = e_il in every block, one assignment per block size."""
        m = np.zeros((self.dim,) * 3)
        for g in self._block_stacks():
            m[g[:, :, None, :], g[:, :, :, None], g[:, None, :, :]] = 1.0
        return m

    @cached_property
    def product_index(self) -> np.ndarray:
        """The read-only table of basis products, filled as ``mul_tensor``
        is: e_p e_q is the basis element [p, q], or 0 where it is dim."""
        index = np.full((self.dim, self.dim), self.dim)
        for g in self._block_stacks():
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
        # np.arange(0) keeps the indices of no blocks an integer array
        return np.concatenate([np.arange(0)] + [
            np.arange(self.offsets[b], self.offsets[b + 1]) for b in blocks])

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

    @property
    def rep_dim(self) -> int:
        return int(sum(self.block_dims))

    @cached_property
    def rep_tensor(self):
        # e^(k)_ij is the unit matrix at (s_k + i, s_k + j), where block
        # k starts at row s_k of the block-diagonal representation
        r = self.rep_dim
        k, i, j = self.unindex(np.arange(self.dim))
        s = np.cumsum(self.block_dims) - self.block_dims
        t = np.zeros((self.dim, r, r))
        t[np.arange(self.dim), s[k] + i, s[k] + j] = 1.0
        return t

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
        legs = tuple(leg for f in factors for leg in f.factors)
        if len(legs) < 2:
            raise ValueError("need at least two tensor factors")
        self._legs = legs
        self.dim = int(np.prod([f.dim for f in legs]))
        self.name = name
        self._gathers = None

    # the benchmark's span recorder wraps these two from each algebra
    # class's own __dict__
    mul_coeffs = Algebra.mul_coeffs
    norm_coeffs = Algebra.norm_coeffs

    @property
    def factors(self) -> tuple:
        return self._legs

    @cached_property
    def unit_coeffs(self):
        return self.kron_coeffs(*(f.unit_coeffs for f in self.factors))

    @cached_property
    def rep_dim(self) -> int:
        return int(np.prod([f.rep_dim for f in self.factors]))

    def kron_coeffs(self, *vecs):
        # the outer product of vectors is np.kron's, entry by entry
        out = np.asarray(vecs[0])
        for v in vecs[1:]:
            out = np.multiply.outer(out, v).reshape(-1)
        return out

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


def _block_products(x, y):
    """Products of two (..., N, N) block stacks: elementwise if N = 1."""
    return x * y if x.shape[-1] == 1 else x @ y


def _blockwise_mul(x, y, gathers):
    """Products of coefficient stacks, block by block: ``out[..., g] =
    _block_products(x[..., g], y[..., g])`` for each g of the gathers."""
    x, y = np.asarray(x), np.asarray(y)
    shape = (x.shape if x.shape == y.shape
             else np.broadcast_shapes(x.shape, y.shape))
    out = np.empty(shape, dtype=np.result_type(x, y))
    for g in gathers:
        out[..., g] = _block_products(x.take(g, axis=-1), y.take(g, axis=-1))
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
    # the generic products also read every leg's structure constants
    legs = () if alg._block_stacks() else alg.factors
    out = np.empty((len(x), len(y), alg.dim),
                   dtype=np.result_type(x, y, *(f.mul_tensor for f in legs)))
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
    the left rows, for an algebra of two legs A (x) B (its ``factors``)
    of dimensions (a, b), or of one leg A, taken as A (x) C with b = 1.

    x[p] y[q] has coefficient sum m_A[r, i, k] m_B[s, j, l] x[p, i, j]
    y[q, k, l] at (r, s).  Leg 1 is absorbed into y once,
    U[(q, s), (j, k)] = sum_l m_B[s, j, l] y[q, k, l]; leg 0 into each
    block of x, S[(p, r), (j, k)] = sum_i m_A[r, i, k] x[p, i, j].  Then
    S @ U^T holds every pair of the block: one matrix product of about
    (rows a) (a b) (len(y) b) multiply-adds."""
    legs = [f.mul_tensor for f in alg.factors]
    if len(legs) > 2:
        raise ValueError(
            "pair products need a block algebra, a plain algebra or a "
            f"two-leg tensor product, not {len(legs)} legs")
    # a one-leg algebra takes a trivial second leg
    ma, mb = (legs + [np.ones((1, 1, 1))])[:2]
    a, b = len(ma), len(mb)
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
    of shape ``stack.shape[:-2]`` (a numpy float for a single matrix).  A
    matrix's norm is ``gram_norm`` of s, its largest |entry|, and the Gram
    matrix of the matrix / s on its smaller side (``_gram``); a NaN or inf
    entry gives NaN and a zero matrix 0.0, with no decomposition, and an
    empty stack an empty array.  Only a stack with a zero or non-finite
    matrix takes a masked copy."""
    m = np.asarray(stack)
    s = np.abs(m).max(axis=(-2, -1), initial=0.0)
    live = np.isfinite(s) & (s > 0)
    if live.size and live.all():
        return gram_norm(s, _gram(m, s))
    out = np.where(np.isfinite(s), 0.0, np.nan)
    if live.any():
        out[live] = gram_norm(s[live], _gram(m[live], s[live]))
    return out[()]


def block_norms(m):
    """The norm of each block of a (..., N, N) stack: |entry| if N = 1."""
    return np.abs(m[..., 0, 0]) if m.shape[-1] == 1 else opnorm(m)


def gram_norm(s, gram):
    """s * sqrt(lambda_max) of each Gram matrix of a (..., n, n) stack:
    the one eigenvalue call of every spectral norm.  It takes the Gram
    matrix as complex whatever its field, so that a norm of real data
    keeps the bits it has as complex data."""
    return s * np.sqrt(np.linalg.eigvalsh(np.asarray(gram, dtype=complex))
                       [..., -1])


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
    """Each row's norm of a coefficient stack (..., dim), as ``norm_coeffs``
    of the row gives it: ``block_norms`` of the stacks ``_max_norm``
    folds, over chunks of rows of at most ``_DENSE_STACK_ENTRIES`` entries
    per block size (one row at least), as ``_rep_stacks`` chunks the dense
    path; NaN for a non-finite dense row."""
    x = np.asarray(x)
    rows = x.reshape(-1, x.shape[-1])
    if gathers := alg._block_stacks():
        norms = []
        for g in gathers:
            step = max(1, _DENSE_STACK_ENTRIES // g.size)
            norms.append(np.concatenate([
                block_norms(rows[i:i + step].take(g, axis=-1))
                for i in range(0, max(len(rows), 1), step)]))
        return np.hstack(norms).max(axis=1).reshape(x.shape[:-1])
    # a representation of an inf coefficient would meet 0 * inf
    finite = np.isfinite(rows).all(axis=1)
    norms = [block_norms(m) for m in _rep_stacks(alg, np.where(
        finite[:, None], rows, 0.0))]
    return np.where(finite, np.concatenate(norms), np.nan).reshape(
        x.shape[:-1])


def _max_norm(alg, x) -> float:
    """Largest operator norm over the rows of a coefficient stack, all-zero
    rows dropped first: over the blocks of ``_block_gathers`` on the block
    path, else over the rows' dense representations (``_rep_stacks``).
    ``_largest_opnorm`` computes only the norms that can be the largest;
    NaN propagates."""
    x = np.asarray(x)
    rows = x.reshape(-1, x.shape[-1])
    if len(rows) > 1:
        rows = rows[rows.any(axis=1)]
    if not rows.any():
        return 0.0
    gathers = alg._block_stacks()
    if gathers:
        return float(_largest_opnorm([rows.take(g, axis=-1) for g in gathers],
                                     -np.inf))
    # a representation of an inf coefficient would meet 0 * inf
    if not np.isfinite(rows).all():
        return np.nan
    best = -np.inf
    for m in _rep_stacks(alg, rows):
        best = _largest_opnorm([m], best)
    return float(best)


def _rep_stacks(alg, rows):
    """Dense representations of a (k, dim) stack's rows, one Gram slice of
    at most ``_DENSE_STACK_ENTRIES`` entries (one row at least) at a time;
    one empty stack for no rows."""
    step = max(1, _DENSE_STACK_ENTRIES // alg.rep_dim ** 2)
    for i in range(0, max(len(rows), 1), step):
        yield alg.rep_coeffs(rows[i:i + step])


# relative slack of the pruning test in _largest_opnorm: a Frobenius bound
# and an opnorm of equal exact value may round a few ulps apart
_PRUNE_GUARD = 1e-12


def _largest_opnorm(stacks, best):
    """max(best, largest ``opnorm`` over the matrices of the (..., a, b)
    stacks), computing only the norms that can reach it.  The 1 x 1
    stacks give their largest ``block_norms`` first, max |x| (a NaN
    kept, an inf kept as inf).  Of the others, a matrix M with
    largest |entry| s has s <= ||M|| <= ||M||_F and ||M||_F / sqrt(n) <=
    ||M|| (n its smaller side), so one ``opnorm`` call per stack takes
    the matrices whose Frobenius norm reaches the largest lower bound so
    far (less ``_PRUNE_GUARD``), and each computed norm raises it for the
    next.  The result is ``best``, a max |x| or a computed ``opnorm``; a
    NaN ``best`` or a non-finite entry of a larger matrix gives NaN.
    Only the matrices above the bound are kept between the passes."""
    stacks = [m.reshape((-1,) + m.shape[-2:]) for m in stacks]
    best = np.max([best] + [block_norms(m).max() for m in stacks
                            if m.shape[-2:] == (1, 1)])
    if np.isnan(best):
        return np.nan
    cands = []
    lower = best
    for m in stacks:
        if m.shape[-2:] == (1, 1):
            continue
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
        matrix = as_field(matrix)
        if matrix.shape != (codomain.dim, domain.dim):
            raise ValueError(
                f"map matrix has shape {matrix.shape}, expected "
                f"{(codomain.dim, domain.dim)}")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    def __call__(self, x):
        return self.matrix @ np.asarray(x)

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
    ``product_index`` and hands the residual blocks to
    ``_largest_opnorm``, the norm fold of ``_max_norm``; other algebras
    take the products from ``pair_products`` and one norm call per block
    of rows.  A NaN or inf in the matrix gives NaN before any product,
    without a warning."""
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
        worst.append(_largest_opnorm([
            z[index[rows]] - _block_products(b[rows, None], b)
            for z, b in blocks], -np.inf))
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
    am = np.asarray(matrix)
    d_n = module.dim
    # A3[i, g, k] is the coefficient of e_i x a_g in alpha(e_k):
    # (alpha x id) alpha acts on its first leg, (id x delta) alpha
    # broadcasts over i
    A3 = am.reshape(d_n, -1, d_n)
    res = {"unital": codomain.norm_coeffs(am @ module.unit_coeffs
                                          - codomain.unit_coeffs),
           "multiplicative": multiplicative_residual(module, codomain, am)}
    res["star"] = float(opnorm(am @ module.star_matrix
                               - codomain.star_coeffs(am.T).T))
    res["coaction"] = float(opnorm((am @ am.reshape(d_n, -1)).reshape(
        -1, d_n) - (delta @ A3).reshape(-1, d_n)))
    res["counit"] = float(opnorm(counit @ A3 - np.eye(d_n)))
    return res


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
