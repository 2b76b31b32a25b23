"""Dense Fock-basis numerics for the Majorana algebra.

The Jordan-Wigner convention is fixed globally and site-major: fermionic
mode n = (site-1)*p + (alpha-1) maps to qubit n, the first tensor factor
being site 1, and

    m^(2a-1) of mode n  ->  Z^(n) (x) X (x) 1...
    m^(2a)   of mode n  ->  Z^(n) (x) Y (x) 1...

Every Majorana word is therefore a Pauli string i^e Z^z X^x, held here as
a phase exponent together with Z/X masks.  :func:`pauli_strings` turns an
array of word masks into these arrays at once: per-byte lookup tables,
built once per mode count from the scalar :func:`pauli_of_word`, are
combined by the Pauli product rule, i^(e1+e2) (-1)^|x1 & z2| with the
masks XORed.  Matrices are built from (words x dim) arrays of columns and
values, and word expectations are read from one Walsh-Hadamard transform
per X pattern.

Qubit n is bit N-1-n of a basis index (N = pV modes), so site 1 holds
the most significant bits.  That layout has two homes: :func:`occupations`,
the 0/1 table of the modes each basis state occupies, and the Pauli
tables, whose Z/X masks :func:`pauli_of_word` writes as basis-index masks.
The rest of the package reads one of the two; only
:func:`permutation_unitary` also writes basis indices, of permuted states.

All functions are pure; matrices are never mutated in place once returned.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .algebra import OperatorExpansion, SystemShape, reversal_sign

#: Dense work refuses systems with more than this many fermionic modes
#: (Fock dimension 4096) unless :data:`MODE_CAP_ENV` sets another cap.
DEFAULT_MODE_CAP = 12

#: Environment variable overriding the cap, the one way to lift it.
MODE_CAP_ENV = "FERMICERT_MAX_MODES"

_I4 = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

#: Largest Hermiticity residual max |M - M-dagger| that
#: :func:`require_hermitian` and the mean-field Hamiltonian's check accept.
HERMITIAN_TOL = 1e-10

#: :func:`check_state` accepts |tr - 1| < STATE_TRACE_TOL, a minimum
#: eigenvalue >= -STATE_EIG_TOL with a Hermiticity residual below
#: STATE_HERMITIAN_TOL, and parity-breaking entries below STATE_PARITY_TOL.
STATE_TRACE_TOL = 1e-9
STATE_EIG_TOL = 1e-10
STATE_HERMITIAN_TOL = 1e-9
STATE_PARITY_TOL = 1e-10

#: :func:`to_matrix` cuts its (terms x dim) entry arrays to at most this
#: many entries (4 MB of complex values), whatever the expansion's size.
_BATCH_ENTRIES = 1 << 18


def mode_cap() -> int:
    env = os.environ.get(MODE_CAP_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_MODE_CAP


class ResourceCapError(RuntimeError):
    """Raised when a computation would exceed the configured mode cap."""


def ensure_within_cap(shape: SystemShape):
    cap = mode_cap()
    if shape.total_modes > cap:
        raise ResourceCapError(
            f"{shape.total_modes} modes exceed cap {cap} "
            f"(set {MODE_CAP_ENV} to a larger cap to proceed)")


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A square complex matrix over the Fock basis of ``shape``."""

    shape: SystemShape
    matrix: np.ndarray

    def __post_init__(self):
        dim = self.shape.fock_dim
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match Fock "
                f"dimension {dim} of {self.shape}")

    @property
    def dim(self) -> int:
        return self.shape.fock_dim


@dataclass(frozen=True, eq=False)
class Isometry:
    """A dim x r matrix F with orthonormal columns over the Fock basis of
    ``shape``.  It stands for the state F F-dagger / r, the uniform mixture
    over its range (an exact ground space, say), without the dim x dim
    projector."""

    shape: SystemShape
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.shape.fock_dim:
            raise ValueError(
                f"isometry shape {self.matrix.shape} does not match Fock "
                f"dimension {self.shape.fock_dim} of {self.shape}")


@dataclass(frozen=True)
class StateValidity:
    """Result of the density-matrix sanity check."""

    trace_ok: bool
    positive_ok: bool
    parity_ok: bool
    min_eigenvalue: float
    trace_value: complex

    @property
    def all_ok(self) -> bool:
        return self.trace_ok and self.positive_ok and self.parity_ok


def occupations(shape: SystemShape) -> np.ndarray:
    """The (dim x N) 0/1 table whose entry [b, m] says whether basis state
    b occupies mode m: mode m is bit N-1-m of the basis index."""
    n = shape.total_modes
    return (np.arange(shape.fock_dim)[:, None] >> (n - 1 - np.arange(n))) & 1


# -- Pauli-string machinery --------------------------------------------------

def pauli_of_word(mask: int, shape: SystemShape) -> Tuple[int, int, int]:
    """Pauli-string form of a canonical word: (phase_exp, z_mask, x_mask).

    The word equals i**phase_exp Z^z X^x, where z and x are basis-index
    masks: qubit n is bit N-1-n.  This scalar bit walk is the reference
    that the lookup tables of :func:`pauli_strings` are built from.
    """
    top = shape.total_modes - 1
    e = 0
    z = 0
    x = 0
    rem = mask
    while rem:
        low = rem & -rem
        g = low.bit_length() - 1
        rem ^= low
        n, t = divmod(g, 2)
        # Qubit n is bit top - n.  The Z string covers the n qubits before
        # it, bits top - n + 1 .. top, and for m^(2a) qubit n itself.
        xe = 1 << (top - n)
        ze = ((1 << (n + t)) - 1) << (top - n + 1 - t)
        e = (e + 3 * t + 2 * (x & ze).bit_count()) & 3
        z ^= ze
        x ^= xe
    return e, z, x


@functools.lru_cache(maxsize=None)
def _pauli_tables(n_modes: int) -> Tuple[Tuple[np.ndarray, ...], ...]:
    """Pauli forms of the one-byte words of ``n_modes`` modes: table k is
    (phase_exp, z, x), three length-256 arrays whose entry v is the form of
    the word v << 8k, as :func:`pauli_of_word` returns it.  Entries past
    the last Majorana bit stay 0.  Built once per mode count; read-only."""
    shape = SystemShape(n_modes, 1)
    n_bits = shape.majorana_count
    tables = np.zeros((-(-n_bits // 8), 3, 256), dtype=np.int64)
    for k, table in enumerate(tables):
        for v in range(min(256, 1 << (n_bits - 8 * k))):
            table[:, v] = pauli_of_word(v << (8 * k), shape)
    tables.flags.writeable = False
    return tuple(tuple(table) for table in tables)


def pauli_strings(masks, shape: SystemShape
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pauli forms of many canonical words: arrays (phase, z, x) with word
    t equal to i**phase[t] Z^z[t] X^x[t], z and x as basis-index masks.

    A canonical word is the ordered product of its bytes' words, each read
    from :func:`_pauli_tables`, and two Pauli strings multiply as

        (i^e1 Z^z1 X^x1)(i^e2 Z^z2 X^x2)
            = i^(e1 + e2) (-1)^|x1 & z2| Z^(z1 ^ z2) X^(x1 ^ x2),

    moving X^x1 past Z^z2 costs one sign per shared qubit.
    """
    masks = np.asarray(masks, dtype=np.int64)
    # A negative mask shifts to -1, so this also rejects those.
    if (masks >> shape.majorana_count).any():
        raise ValueError("word does not fit the shape")
    (phase, z, x), *rest = _pauli_tables(shape.total_modes)
    byte = masks & 0xFF
    phase, z, x = phase[byte], z[byte], x[byte]
    for k, (e_k, z_k, x_k) in enumerate(rest, start=1):
        byte = (masks >> (8 * k)) & 0xFF
        z_b = z_k[byte]
        phase += e_k[byte] + 2 * np.bitwise_count(x & z_b)
        z ^= z_b
        x ^= x_k[byte]
    return phase & 3, z, x


def word_string_entries(masks, shape: SystemShape
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Sparse form of many words' matrices, as (words x dim) arrays: row a
    of word t holds its single entry vals[t, a] at column cols[t, a]."""
    phase, z, x = pauli_strings(masks, shape)
    rows = np.arange(shape.fock_dim, dtype=np.int64)
    cols = rows ^ x[:, None]
    signs = 1.0 - 2.0 * (np.bitwise_count(rows & z[:, None]) & 1)
    return cols, _I4[phase][:, None] * signs


def jw_matrix(mask: int, shape: SystemShape) -> DenseOperator:
    """Dense Jordan-Wigner matrix of a canonical word bitmask."""
    ensure_within_cap(shape)
    dim = shape.fock_dim
    cols, vals = word_string_entries([mask], shape)
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[np.arange(dim), cols[0]] = vals[0]
    return DenseOperator(shape, out)


def to_matrix(op: OperatorExpansion) -> DenseOperator:
    """Dense matrix of an expansion.

    The terms' entries are added in term order by ``np.add.at``, which
    accumulates repeated (row, column) pairs one after another, so the
    result equals a term-by-term sum bit for bit.
    """
    ensure_within_cap(op.shape)
    dim = op.shape.fock_dim
    out = np.zeros((dim, dim), dtype=np.complex128)
    n = len(op.terms)
    masks = np.fromiter(op.terms.keys(), np.int64, n)
    coeffs = np.fromiter(op.terms.values(), np.complex128, n)
    row_starts = np.arange(0, dim * dim, dim)
    step = max(1, _BATCH_ENTRIES // dim)
    for lo in range(0, n, step):
        cols, vals = word_string_entries(masks[lo:lo + step], op.shape)
        # One-dimensional index and value arrays take ufunc.at's fast path.
        np.add.at(out.reshape(-1), (row_starts + cols).ravel(),
                  (coeffs[lo:lo + step, None] * vals).ravel())
    return DenseOperator(op.shape, out)


def to_expansion(dense: DenseOperator) -> OperatorExpansion:
    """Full expansion of a dense matrix in the Majorana word basis.

    A word's coefficient is tr(M * word-dagger) / 2^(pV), and a word of
    degree r has word-dagger = (-1)^(r(r-1)/2) word, so the coefficients
    are signed :func:`word_expectations_dense` values.  Enumerates all
    4^(pV) words; practical for small systems only, so the mode budget is
    half the dense cap.
    """
    shape = dense.shape
    cap = mode_cap() // 2
    if shape.total_modes > cap:
        raise ResourceCapError(
            f"full expansion of {shape.total_modes} modes enumerates "
            f"4^{shape.total_modes} words; cap is {cap} modes")
    dim = shape.fock_dim
    values = word_expectations_dense(
        dense.matrix, range(1 << shape.majorana_count), shape)
    return OperatorExpansion(shape, {
        mask: reversal_sign(mask.bit_count()) * value / dim
        for mask, value in values.items()})


# -- reductions ---------------------------------------------------------------

def _kept_shape(shape: SystemShape, k: int) -> SystemShape:
    """The shape of sites 1..k of ``shape``; raises ``ValueError`` unless
    1 <= k <= V."""
    if not 1 <= k <= shape.sites:
        raise ValueError(f"k = {k} outside [1..{shape.sites}]")
    return SystemShape(k, shape.modes_per_site)


def reduce_expansion(op: OperatorExpansion, k: int) -> OperatorExpansion:
    """Reduced state of an expansion on sites 1..k.

    Keeps exactly the words below bit 2pk, those supported on the first k
    sites, whose masks are the same on the k-site shape, and rescales
    their coefficients by 2^(p(V - k)) so that the trace is preserved;
    rescaled, they meet the small shape's prune cut with unchanged
    expectations.  For another site set, permute first:
    ``reduce_expansion(op.apply_permutation(pi), k)``.
    """
    shape = op.shape
    small = _kept_shape(shape, k)
    limit = 1 << small.majorana_count
    scale = 2 ** (shape.modes_per_site * (shape.sites - k))
    return OperatorExpansion(small, {mask: coeff * scale for mask, coeff
                                     in op.terms.items() if mask < limit})


def partial_trace_sites(dense: DenseOperator, k: int) -> DenseOperator:
    """Trace out every site after the first k: the plain tensor-factor
    partial trace in the site-major ordering.  For another site set,
    conjugate by :func:`permutation_unitary` first, or reduce the
    permuted expansion with :func:`reduce_expansion`.
    """
    small = _kept_shape(dense.shape, k)
    dim_keep = small.fock_dim
    dim_rest = dense.shape.fock_dim // dim_keep
    reshaped = dense.matrix.reshape(dim_keep, dim_rest, dim_keep, dim_rest)
    return DenseOperator(small, np.einsum("ajbj->ab", reshaped))


# -- spectral helpers ---------------------------------------------------------

def hermiticity_residual(matrix: np.ndarray) -> float:
    """max |M - M-dagger| of a dense array, or the largest over a stack of
    them (the last two axes are the matrix axes)."""
    return float(abs(matrix - matrix.conj().swapaxes(-1, -2)).max())


def require_hermitian(matrix: np.ndarray, what: str):
    """Raise ``ValueError`` when ``matrix`` (a dense array or a stack of
    them) is further than :data:`HERMITIAN_TOL` from Hermitian."""
    res = hermiticity_residual(matrix)
    if res > HERMITIAN_TOL:
        raise ValueError(f"{what} is not Hermitian (residual {res:.3e} "
                         f"above {HERMITIAN_TOL:.0e})")


def real_if_exact(matrix: np.ndarray) -> np.ndarray:
    """``matrix.real`` when every imaginary part is exactly 0, else
    ``matrix``: a real matrix then goes to the real LAPACK routines, which
    take a fraction of the complex ones' time."""
    return matrix.real if not matrix.imag.any() else matrix


def hermitian_eig(dense: DenseOperator):
    """Ascending eigendecomposition of a Hermitian matrix.

    Raises ``ValueError`` when the input fails :data:`HERMITIAN_TOL`.
    Backed by LAPACK through ``numpy.linalg.eigh``; deterministic for a
    given input on a given build.
    """
    require_hermitian(dense.matrix, "eigendecomposition input")
    return np.linalg.eigh(dense.matrix)


def trace_norm(dense: DenseOperator) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    require_hermitian(dense.matrix, "trace-norm input")
    half = 0.5 * (dense.matrix + dense.matrix.conj().T)
    return float(np.sum(np.abs(np.linalg.eigvalsh(half))))


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value."""
    gram = matrix.conj().T @ matrix
    top = float(np.linalg.eigvalsh(gram)[-1])
    return float(np.sqrt(max(top, 0.0)))


def permutation_unitary(pi: Sequence[int], shape: SystemShape) -> DenseOperator:
    """Fock-space unitary implementing a site permutation.

    Maps the basis state created by an ascending product of mode creation
    operators to the permuted one, with the fermionic reordering sign (the
    parity of the permutation induced on the occupied modes).  Conjugation
    by this unitary realizes the symbolic site-relabeling action:
    U m_j^a U-dagger = m_{pi(j)}^a.
    """
    from .algebra import validate_permutation

    pi = validate_permutation(pi, shape.sites)
    n = shape.total_modes
    p = shape.modes_per_site
    modes = np.arange(n)
    mode_map = (np.asarray(pi)[modes // p] - 1) * p + modes % p
    basis = np.arange(shape.fock_dim)
    occupied = occupations(shape)
    image = occupied @ (1 << (n - 1 - mode_map))
    # Mode pairs m < m' whose images swap order; each occupied pair is one
    # transposition of the reordering.
    swapped = ((modes[:, None] < modes[None, :])
               & (mode_map[:, None] > mode_map[None, :])).astype(np.int64)
    inversions = np.einsum("am,mk,ak->a", occupied, swapped, occupied)
    out = np.zeros((shape.fock_dim, shape.fock_dim), dtype=np.complex128)
    out[image, basis] = 1.0 - 2.0 * (inversions & 1)
    return DenseOperator(shape, out)


def global_parity_signs(shape: SystemShape) -> np.ndarray:
    """Diagonal of the global parity operator P_1 ... P_V in the Fock basis."""
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(shape.fock_dim)) & 1)


def _component_labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Connected-component label of each of n vertices joined by the edges
    (rows[e], cols[e]), numbered in the order of each component's smallest
    vertex.

    Minimum-label propagation with pointer jumping: every label is a
    vertex of the same component and never grows, so the fixed point holds
    each component's smallest vertex.
    """
    heads = np.concatenate((rows, cols))
    tails = np.concatenate((cols, rows))
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, heads, labels[tails])
        new = new[new]
        if (new == labels).all():
            smallest = labels == np.arange(n)
            return (np.cumsum(smallest) - 1)[labels]
        labels = new


def diagonal_blocks(matrix, dim: Optional[int] = None
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The diagonal blocks of a square matrix on the connected components
    of its sparsity graph, equal-size blocks batched.

    A matrix is exactly block diagonal on these components, so its
    spectrum is the union of the blocks' spectra and its eigenvectors live
    inside single blocks; for a Hamiltonian they are the conserved sectors,
    found with no symmetry assumed.  ``matrix`` is a dense array, or a
    triple ``(rows, cols, vals)`` of the entries of a ``dim`` x ``dim``
    matrix with no position listed twice (explicit zeros are dropped), as
    :func:`meanfield.hamiltonian_sparse` returns.  Yields ``(idx, stack)``
    per block size s, in increasing size: ``idx`` is an (m, s) array whose
    rows hold the ascending basis indices of one block each, and ``stack``
    the (m, s, s) dense blocks matrix[idx[j]][:, idx[j]].
    """
    entries = isinstance(matrix, tuple)
    if entries:
        rows, cols, vals = matrix
        stored = vals != 0
        rows, cols, vals = rows[stored], cols[stored], vals[stored]
    else:
        dim = matrix.shape[0]
        rows, cols = np.nonzero(matrix)
    labels = _component_labels(rows, cols, dim)
    n_blocks = int(labels.max()) + 1
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n_blocks)
    starts = np.cumsum(sizes) - sizes
    if entries:
        # Position of each basis index inside its block, for scattering
        # the entries straight into the stacks.
        pos = np.empty_like(order)
        pos[order] = np.arange(len(order)) - np.repeat(starts, sizes)
        entry_block = labels[rows]
    for s in np.unique(sizes):
        ids = np.flatnonzero(sizes == s)
        idx = order[starts[ids][:, None] + np.arange(s)]
        if entries:
            slot = np.full(n_blocks, -1)
            slot[ids] = np.arange(len(ids))
            which = slot[entry_block]
            sel = which >= 0
            stack = np.zeros((len(ids), s, s), dtype=vals.dtype)
            stack[which[sel], pos[rows[sel]], pos[cols[sel]]] = vals[sel]
        else:
            stack = matrix[idx[:, :, None], idx[:, None, :]]
        yield idx, stack


def check_state(dense: DenseOperator) -> StateValidity:
    """Density-matrix sanity check, each within its ``STATE_*_TOL``: unit
    trace, positivity, parity superselection (commuting with global parity).

    The minimum eigenvalue of the Hermitian part is taken block by block
    over :func:`diagonal_blocks`, which is exact for any input; a
    parity-even state has at least two blocks.
    """
    tr = complex(np.trace(dense.matrix))
    trace_ok = abs(tr - 1.0) < STATE_TRACE_TOL
    herm = 0.5 * (dense.matrix + dense.matrix.conj().T)
    min_eig = min(float(np.linalg.eigvalsh(stack)[:, 0].min())
                  for _, stack in diagonal_blocks(herm))
    positive_ok = (min_eig >= -STATE_EIG_TOL and hermiticity_residual(
        dense.matrix) < STATE_HERMITIAN_TOL)
    signs = global_parity_signs(dense.shape)
    pinched = signs[:, None] * dense.matrix * signs[None, :]
    parity_ok = float(np.max(np.abs(pinched - dense.matrix))) < STATE_PARITY_TOL
    return StateValidity(trace_ok, positive_ok, parity_ok, min_eig, tr)


def expectation_word_dense(matrix: np.ndarray, mask: int,
                           shape: SystemShape) -> complex:
    """tr(M * word) for one canonical word bitmask, through
    :func:`word_expectations_dense`.  Kept only because the benchmark's span
    list (``perfbench/spans.py`` ``TARGETS``) names it."""
    return word_expectations_dense(matrix, [mask], shape)[mask]


def _walsh_hadamard(vec: np.ndarray) -> np.ndarray:
    """out[z] = sum_b (-1)^popcount(b & z) vec[b] for every z.

    Constant-geometry form: each stage combines neighbouring entries and
    writes sums to the first half and differences to the second, which
    after log2(len) stages leaves the transform in natural order.
    """
    out = vec
    for _ in range(len(vec).bit_length() - 1):
        even, odd = out[0::2], out[1::2]
        out = np.concatenate((even + odd, even - odd))
    return out


def word_expectations_dense(matrix: np.ndarray, masks: Iterable[int],
                            shape: SystemShape, factor: bool = False
                            ) -> Dict[int, complex]:
    """tr(M * word) for many canonical words at once.

    A word with Pauli form i^e Z^z X^x has tr(M w) = i^e sum_b
    (-1)^(b . z) M[b ^ x, b], so every word sharing one X pattern reads
    its value off a single Walsh-Hadamard transform of the gathered vector
    M[b ^ x, b].  The Pauli forms come from one :func:`pauli_strings` call
    and the X patterns from ``np.unique``.  One gathered vector is alive
    at a time.

    With ``factor`` set, ``matrix`` is a dim x r matrix F standing for the
    state M = F F-dagger / r (an :class:`Isometry`), and the gathered
    vector is sum_i F[b ^ x, i] conj(F[b, i]) / r: no dim x dim matrix is
    formed.

    Patterns that no support pair reaches are skipped.  The support S is
    the set of nonzero rows of F, or of nonzero rows and columns of M;
    the gathered vector of x is exactly 0 unless some b in S has b ^ x in
    S, so such a pattern's words get an exact 0.  The reachable patterns
    are those where the XOR autocorrelation of S's indicator is positive,
    computed with two transforms; its entries are integers far below
    2^53, so the float transform is exact.  A state with full support
    visits every pattern.
    """
    masks = np.fromiter(masks, np.int64)
    phase, z, x = pauli_strings(masks, shape)
    rows = np.arange(shape.fock_dim, dtype=np.int64)
    if factor:
        support = matrix.any(axis=1)
        f_conj = matrix.conj() / matrix.shape[1]
    else:
        support = matrix.any(axis=0) | matrix.any(axis=1)
    indicator = support.astype(np.float64)
    reachable = _walsh_hadamard(_walsh_hadamard(indicator) ** 2) > 0
    patterns, group = np.unique(x, return_inverse=True)
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=len(patterns))
    ends = np.cumsum(counts)
    values = np.zeros(len(masks), dtype=np.complex128)
    for j in np.flatnonzero(reachable[patterns]):
        pattern = patterns[j]
        if factor:
            gathered = np.einsum("bi,bi->b", matrix[rows ^ pattern], f_conj)
        else:
            gathered = matrix[rows ^ pattern, rows]
        spectrum = _walsh_hadamard(gathered)
        idx = order[ends[j] - counts[j]:ends[j]]
        values[idx] = _I4[phase[idx]] * spectrum[z[idx]]
    return dict(zip(masks.tolist(), values.tolist()))
