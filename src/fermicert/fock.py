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

All functions are pure; matrices are never mutated in place once returned.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

from .algebra import (OperatorExpansion, SystemShape, relabel_word,
                      reversal_sign)
from .errors import ResourceCapError

#: Dense work refuses systems with more than this many fermionic modes
#: (Fock dimension 4096) unless overridden.
DEFAULT_MODE_CAP = 12

#: Environment variable overriding the cap.
MODE_CAP_ENV = "FERMICERT_MAX_MODES"

_I4 = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

#: :func:`to_matrix` cuts its (terms x dim) entry arrays to at most this
#: many entries (4 MB of complex values), whatever the expansion's size.
_BATCH_ENTRIES = 1 << 18


def mode_cap() -> int:
    env = os.environ.get(MODE_CAP_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_MODE_CAP


def ensure_within_cap(shape: SystemShape, override: bool = False):
    cap = mode_cap()
    if not override and shape.total_modes > cap:
        raise ResourceCapError(
            f"{shape.total_modes} modes exceed cap {cap} "
            f"(set {MODE_CAP_ENV} or pass override to proceed)")


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


# -- Pauli-string machinery --------------------------------------------------

def pauli_of_word(mask: int, shape: SystemShape) -> Tuple[int, int, int]:
    """Pauli-string form of a canonical word: (phase_exp, z_mask, x_mask).

    The word equals i**phase_exp times prod_q Z_q^{z} X_q^{x} over qubits.
    This scalar bit walk is the reference that the lookup tables of
    :func:`pauli_strings` are built from.
    """
    e = 0
    z = 0
    x = 0
    rem = mask
    while rem:
        low = rem & -rem
        g = low.bit_length() - 1
        rem ^= low
        n, t = divmod(g, 2)
        if t == 0:
            ze, xe, ee = (1 << n) - 1, 1 << n, 0
        else:
            ze, xe, ee = (1 << (n + 1)) - 1, 1 << n, 3
        e = (e + ee + 2 * (x & ze).bit_count()) & 3
        z ^= ze
        x ^= xe
    return e, z, x


def _reverse_qubit_mask(mask: int, n_qubits: int) -> int:
    """Map a qubit mask to a basis-index mask (qubit 0 = most significant)."""
    out = 0
    for q in range(n_qubits):
        if (mask >> q) & 1:
            out |= 1 << (n_qubits - 1 - q)
    return out


@functools.lru_cache(maxsize=None)
def _pauli_tables(n_modes: int) -> Tuple[Tuple[np.ndarray, ...], ...]:
    """Pauli forms of the one-byte words of ``n_modes`` modes: table k is
    (phase_exp, z, x), three length-256 arrays whose entry v is the form of
    the word v << 8k, with basis-index masks.  Entries past the last
    Majorana bit stay 0.  Built once per mode count from
    :func:`pauli_of_word`; read-only."""
    shape = SystemShape(n_modes, 1)
    n_bits = shape.majorana_count
    tables = np.zeros((-(-n_bits // 8), 3, 256), dtype=np.int64)
    for k, table in enumerate(tables):
        for v in range(min(256, 1 << (n_bits - 8 * k))):
            e, z, x = pauli_of_word(v << (8 * k), shape)
            table[:, v] = (e, _reverse_qubit_mask(z, n_modes),
                           _reverse_qubit_mask(x, n_modes))
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


def jw_matrix(mask: int, shape: SystemShape, override_cap: bool = False) -> DenseOperator:
    """Dense Jordan-Wigner matrix of a canonical word bitmask."""
    ensure_within_cap(shape, override_cap)
    dim = shape.fock_dim
    cols, vals = word_string_entries([mask], shape)
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[np.arange(dim), cols[0]] = vals[0]
    return DenseOperator(shape, out)


def to_matrix(op: OperatorExpansion, override_cap: bool = False) -> DenseOperator:
    """Dense matrix of an expansion.

    The terms' entries are added in term order by ``np.add.at``, which
    accumulates repeated (row, column) pairs one after another, so the
    result equals a term-by-term sum bit for bit.
    """
    ensure_within_cap(op.shape, override_cap)
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


def word_coefficients(matrix: np.ndarray, masks: Iterable[int],
                      shape: SystemShape) -> Dict[int, complex]:
    """Coefficients of many words in the expansion of ``matrix``:
    tr(M * word†) / 2^(pV) each.  A word of degree r has word† =
    (-1)^(r(r-1)/2) word, so these are signed
    :func:`word_expectations_dense` values."""
    dim = shape.fock_dim
    return {mask: reversal_sign(mask.bit_count()) * value / dim
            for mask, value in word_expectations_dense(matrix, masks,
                                                       shape).items()}


def to_expansion(dense: DenseOperator, override_cap: bool = False) -> OperatorExpansion:
    """Full expansion of a dense matrix in the Majorana word basis.

    Enumerates all 4^(pV) words; practical for small systems only, so the
    mode budget is half the dense cap.
    """
    shape = dense.shape
    cap = mode_cap() // 2
    if not override_cap and shape.total_modes > cap:
        raise ResourceCapError(
            f"full expansion of {shape.total_modes} modes enumerates "
            f"4^{shape.total_modes} words; cap is {cap} modes")
    coeffs = word_coefficients(dense.matrix,
                               range(1 << shape.majorana_count), shape)
    return OperatorExpansion(shape, {mask: coeff for mask, coeff
                                     in coeffs.items() if abs(coeff) > 1e-14})


# -- reductions ---------------------------------------------------------------

def reduce_expansion(op: OperatorExpansion, keep: Sequence[int]) -> OperatorExpansion:
    """Reduced state of an expansion on the ``keep`` sites.

    Keeps exactly the words supported on ``keep`` and rescales coefficients
    by 2^(p * #discarded) so that the trace is preserved.
    """
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep must be a nonempty site set")
    if keep[0] < 1 or keep[-1] > op.shape.sites:
        raise ValueError(f"keep {keep} outside [1..{op.shape.sites}]")
    shape = op.shape
    small = SystemShape(len(keep), shape.modes_per_site)
    scale = 2 ** (shape.modes_per_site * (shape.sites - len(keep)))
    keep_mask = 0
    site_map = [0] * shape.sites
    for i, site in enumerate(keep):
        keep_mask |= shape.site_bitmask(site)
        site_map[site - 1] = i + 1
    terms: Dict[int, complex] = {}
    for mask, coeff in op.terms.items():
        if mask & ~keep_mask:
            continue
        # The kept sites move in order, so no reordering sign arises.
        terms[relabel_word(mask, site_map, shape)[1]] = coeff * scale
    return OperatorExpansion(small, terms)


def partial_trace_sites(dense: DenseOperator, keep: Sequence[int]) -> DenseOperator:
    """Trace out all modes on the discarded sites.

    For a prefix [1..k] this is the plain tensor-factor partial trace in
    the site-major ordering.  For general site sets the reduction is
    defined through the word expansion: the kept words' coefficients are
    rescaled so that the trace is preserved.
    """
    keep = sorted(set(keep))
    shape = dense.shape
    if not keep:
        raise ValueError("keep must be a nonempty site set")
    if keep[0] < 1 or keep[-1] > shape.sites:
        raise ValueError(f"keep {keep} outside [1..{shape.sites}]")
    p = shape.modes_per_site
    small = SystemShape(len(keep), p)
    if keep == list(range(1, len(keep) + 1)):
        dim_keep = small.fock_dim
        dim_rest = shape.fock_dim // dim_keep
        reshaped = dense.matrix.reshape(dim_keep, dim_rest, dim_keep, dim_rest)
        return DenseOperator(small, np.einsum("ajbj->ab", reshaped))
    # General site sets go through the word basis of the kept subalgebra.
    if small.total_modes > mode_cap() // 2:
        raise ResourceCapError(
            "non-prefix reduction enumerates the kept word basis; "
            f"{small.total_modes} kept modes exceed {mode_cap() // 2}")
    scale = shape.fock_dim // small.fock_dim
    small_of = {relabel_word(small_mask, keep, small)[1]: small_mask
                for small_mask in range(1 << small.majorana_count)}
    coeffs = word_coefficients(dense.matrix, small_of, shape)
    return to_matrix(OperatorExpansion(small, {
        small_of[mask]: coeff * scale for mask, coeff in coeffs.items()
        if abs(coeff * scale) > 1e-16}))


# -- spectral helpers ---------------------------------------------------------

def hermiticity_residual(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def hermitian_eig(dense: DenseOperator, tol: float = 1e-10):
    """Ascending eigendecomposition of a Hermitian matrix.

    Raises ``ValueError`` when the input fails the Hermiticity tolerance.
    Backed by LAPACK through ``numpy.linalg.eigh``; deterministic for a
    given input on a given build.
    """
    res = hermiticity_residual(dense.matrix)
    if res > tol:
        raise ValueError(f"matrix is not Hermitian (residual {res:.3e})")
    w, v = np.linalg.eigh(dense.matrix)
    return w, v


def trace_norm(dense: DenseOperator, tol: float = 1e-10) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    res = hermiticity_residual(dense.matrix)
    if res > tol:
        raise ValueError(f"trace norm needs a Hermitian input (residual {res:.3e})")
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
    dim = shape.fock_dim
    mode_map = [0] * n
    for site in range(1, shape.sites + 1):
        for alpha in range(p):
            mode_map[(site - 1) * p + alpha] = (pi[site - 1] - 1) * p + alpha
    out = np.zeros((dim, dim), dtype=np.complex128)
    for a in range(dim):
        occupied = [m for m in range(n) if (a >> (n - 1 - m)) & 1]
        mapped = [mode_map[m] for m in occupied]
        inversions = sum(1 for i in range(len(mapped))
                         for j in range(i + 1, len(mapped))
                         if mapped[i] > mapped[j])
        b = 0
        for m in mapped:
            b |= 1 << (n - 1 - m)
        out[b, a] = -1.0 if inversions % 2 else 1.0
    return DenseOperator(shape, out)


def global_parity_signs(shape: SystemShape) -> np.ndarray:
    """Diagonal of the global parity operator P_1 ... P_V in the Fock basis."""
    dim = shape.fock_dim
    idx = np.arange(dim)
    parity = np.zeros(dim, dtype=np.int64)
    for b in range(shape.total_modes):
        parity ^= (idx >> b) & 1
    return 1.0 - 2.0 * parity


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


def diagonal_blocks(matrix) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The diagonal blocks of a square matrix on the connected components
    of its sparsity graph, equal-size blocks batched.

    A matrix is exactly block diagonal on these components, so its
    spectrum is the union of the blocks' spectra and its eigenvectors live
    inside single blocks; for a Hamiltonian they are the conserved sectors,
    found with no symmetry assumed.  ``matrix`` is a dense array or a scipy
    sparse matrix (explicit zeros are dropped).  Yields ``(idx, stack)``
    per block size s, in increasing size: ``idx`` is an (m, s) array whose
    rows hold the ascending basis indices of one block each, and ``stack``
    the (m, s, s) dense blocks matrix[idx[j]][:, idx[j]].

    The search needs no scipy, so a dense check (:func:`check_state` on
    single-site components) does not pay for importing it.
    """
    sparse = hasattr(matrix, "tocoo")
    if sparse:
        matrix = matrix.tocoo(copy=True)
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
        rows, cols = matrix.row, matrix.col
    else:
        rows, cols = np.nonzero(matrix)
    labels = _component_labels(rows, cols, matrix.shape[0])
    n_blocks = int(labels.max()) + 1
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n_blocks)
    starts = np.cumsum(sizes) - sizes
    if sparse:
        # Position of each basis index inside its block, for scattering
        # the stored entries straight into the stacks.
        pos = np.empty_like(order)
        pos[order] = np.arange(len(order)) - np.repeat(starts, sizes)
        entry_block = labels[matrix.row]
    for s in np.unique(sizes):
        ids = np.flatnonzero(sizes == s)
        idx = order[starts[ids][:, None] + np.arange(s)]
        if sparse:
            slot = np.full(n_blocks, -1)
            slot[ids] = np.arange(len(ids))
            which = slot[entry_block]
            sel = which >= 0
            stack = np.zeros((len(ids), s, s), dtype=matrix.dtype)
            stack[which[sel], pos[matrix.row[sel]],
                  pos[matrix.col[sel]]] = matrix.data[sel]
        else:
            stack = matrix[idx[:, :, None], idx[:, None, :]]
        yield idx, stack


def check_state(dense: DenseOperator, trace_tol: float = 1e-9,
                eig_tol: float = 1e-10, parity_tol: float = 1e-10) -> StateValidity:
    """Density-matrix sanity check: unit trace, positivity, parity
    superselection (commutation with the global parity operator).

    The minimum eigenvalue of the Hermitian part is taken block by block
    over :func:`diagonal_blocks`, which is exact for any input; a
    parity-even state has at least two blocks.
    """
    tr = complex(np.trace(dense.matrix))
    trace_ok = abs(tr - 1.0) < trace_tol
    herm = 0.5 * (dense.matrix + dense.matrix.conj().T)
    min_eig = min(float(np.linalg.eigvalsh(stack)[:, 0].min())
                  for _, stack in diagonal_blocks(herm))
    positive_ok = (min_eig >= -eig_tol
                   and hermiticity_residual(dense.matrix) < 1e-9)
    signs = global_parity_signs(dense.shape)
    pinched = signs[:, None] * dense.matrix * signs[None, :]
    parity_ok = float(np.max(np.abs(pinched - dense.matrix))) < parity_tol
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
    (-1)^(b . z) M[b ^ x, b] (z and x as basis-index masks), so every word
    sharing one X pattern reads its value off a single Walsh-Hadamard
    transform of the gathered vector M[b ^ x, b].  The Pauli forms come
    from one :func:`pauli_strings` call and the X patterns from
    ``np.unique``.  Gathering in bit-reversed basis order lets qubit-order
    masks index that transform directly.  One gathered vector is alive at
    a time.

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
    n = shape.total_modes
    phase, z, x = pauli_strings(masks, shape)
    rows = np.arange(shape.fock_dim, dtype=np.int64)
    rev = np.zeros_like(rows)
    for q in range(n):
        rev |= ((rows >> q) & 1) << (n - 1 - q)
    z, x = rev[z], rev[x]  # qubit order, to index the bit-reversed gather
    if factor:
        support = matrix.any(axis=1)
        f_rev = matrix[rev]
        f_conj = f_rev.conj() / matrix.shape[1]
    else:
        support = matrix.any(axis=0) | matrix.any(axis=1)
    indicator = support[rev].astype(np.float64)
    reachable = _walsh_hadamard(_walsh_hadamard(indicator) ** 2) > 0
    patterns, group = np.unique(x, return_inverse=True)
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=len(patterns))
    ends = np.cumsum(counts)
    values = np.zeros(len(masks), dtype=np.complex128)
    for j in np.flatnonzero(reachable[patterns]):
        pattern = patterns[j]
        if factor:
            gathered = np.einsum("bi,bi->b", f_rev[rows ^ pattern], f_conj)
        else:
            gathered = matrix[rev[rows ^ pattern], rev]
        spectrum = _walsh_hadamard(gathered)
        idx = order[ends[j] - counts[j]:ends[j]]
        values[idx] = _I4[phase[idx]] * spectrum[z[idx]]
    return dict(zip(masks.tolist(), values.tolist()))
