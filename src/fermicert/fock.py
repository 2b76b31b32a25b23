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
masks XORed.  Word expectations are read from one Walsh-Hadamard
transform per X pattern.

Dense matrices of expansions, ladders and single words included, come
from one word-by-word scatter, :func:`to_matrices`.  XOR terms
(:data:`XorTerms`), sum_x diag(v_x) X_x with X_x[a, a ^ x] = 1, serve
words, Hamiltonian sectors and Fock diagonals: a word i^e Z^z X^x is one
term of mask x (:func:`word_terms`), :func:`xor_terms` sums an
expansion's words into one row per mask, the entries of its dense matrix
bit for bit, and :func:`diagonal_blocks`, the one sector finder, reads a
Hamiltonian's sectors off those rows with no dim x dim matrix and no edge
list, in chunks of equal-size blocks no larger than the largest block or
the rows.  Hermiticity needs no rows: an expansion is Hermitian exactly
when its coefficients equal its adjoint's, distinct words being
trace-orthogonal, so :func:`require_hermitian` reads an expansion's
coefficients and a dense array's entries.  A state's blocks need no
search: by parity superselection they are its global-parity halves
(:func:`parity_sectors`).

Qubit n is bit N-1-n of a basis index (N = pV modes), so site 1 holds
the most significant bits.  That layout has two homes: :func:`occupations`,
the 0/1 table of the modes each basis state occupies, and the Pauli
tables, whose Z/X masks :func:`pauli_of_word` writes as basis-index masks.
The rest of the package reads one of the two; only
:func:`signed_permutation` works on basis indices itself, moving each
site's block of p bits to compute permuted states (with their reordering
signs); :func:`permutation_unitary` is its dense scatter.

All functions are pure; matrices are never mutated in place once returned.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

from .algebra import (OperatorExpansion, SystemShape, reversal_sign,
                      validate_permutation)

#: Dense work refuses systems with more than this many fermionic modes
#: (Fock dimension 4096) unless :data:`MODE_CAP_ENV` sets another cap.
DEFAULT_MODE_CAP = 12

#: Environment variable overriding the cap, the one way to lift it.
MODE_CAP_ENV = "FERMICERT_MAX_MODES"

_I4 = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

#: Largest Hermiticity residual (:func:`hermiticity_residual`) that
#: :func:`require_hermitian` accepts.
HERMITIAN_TOL = 1e-10

#: :func:`check_state` accepts |tr - 1| < STATE_TRACE_TOL, a minimum
#: eigenvalue >= -STATE_EIG_TOL with a Hermiticity residual below
#: STATE_HERMITIAN_TOL, and parity-breaking entries below STATE_PARITY_TOL.
STATE_TRACE_TOL = 1e-9
STATE_EIG_TOL = 1e-10
STATE_HERMITIAN_TOL = 1e-9
STATE_PARITY_TOL = 1e-10

#: :func:`to_matrices` cuts its value arrays to at most this many entries
#: (4 MB of complex values), whatever the size of its input.
_BATCH_ENTRIES = 1 << 18


def mode_cap() -> int:
    """The mode cap: :data:`MODE_CAP_ENV` when set, else the default.
    Raises ``ValueError`` naming the variable when it is not an integer."""
    env = os.environ.get(MODE_CAP_ENV)
    if env is None:
        return DEFAULT_MODE_CAP
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{MODE_CAP_ENV} must be an integer mode count, "
                         f"got {env!r}") from None


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
    hermiticity_residual: float

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


# -- XOR terms ----------------------------------------------------------------

#: An operator as XOR terms (masks, vals): the matrix sum over terms t of
#: diag(vals[t]) X_masks[t], that is the entries [a, a ^ masks[t]] =
#: vals[t, a].  Words and Hamiltonians keep this form.
XorTerms = Tuple[np.ndarray, np.ndarray]


def word_terms(masks, shape: SystemShape) -> XorTerms:
    """Many words as XOR terms, one per word in order: i^e Z^z X^x is the
    term of mask x with values i^e (-1)^|a & z| on rows a."""
    phase, z, x = pauli_strings(masks, shape)
    rows = np.arange(shape.fock_dim, dtype=np.int64)
    signs = 1.0 - 2.0 * (np.bitwise_count(rows & z[:, None]) & 1)
    return x, _I4[phase][:, None] * signs


def xor_terms(op: OperatorExpansion) -> XorTerms:
    """An expansion's XOR terms summed: one value row per distinct X mask,
    masks ascending, whose entry vals[t, a] is entry [a, a ^ masks[t]] of
    ``to_matrix(op)`` bit for bit.

    Word t, i^e Z^z X^x (:func:`pauli_strings`) with coefficient c, adds
    c i^e (-1)^|a & z| to row a of its mask's values, the words of one
    mask in term order: the additions :func:`to_matrices` makes with
    ``np.add.at``, of the same exact addends (c times +-1 or +-i), so the
    same floats.  When every phased coefficient c i^e is real the rows are
    summed in real arithmetic, whose floats are the real parts the complex
    sums would have.  One word's signs are alive at a time: the rows and
    O(dim) scratch, never a (words x dim) array.
    """
    shape = op.shape
    ensure_within_cap(shape)
    n = len(op.terms)
    phase, z, x = pauli_strings(np.fromiter(op.terms.keys(), np.int64, n),
                                shape)
    phased = real_if_exact(
        _I4[phase] * np.fromiter(op.terms.values(), np.complex128, n))
    masks = np.sort(x)
    masks = masks[np.diff(masks, prepend=-1) != 0]
    rows = np.arange(shape.fock_dim, dtype=np.int64)
    vals = np.zeros((len(masks), shape.fock_dim), dtype=phased.dtype)
    for t, row in enumerate(np.searchsorted(masks, x)):
        odd = np.bitwise_count(rows & z[t]) & 1
        vals[row] += np.where(odd, -phased[t], phased[t])
    return masks, vals


def jw_matrix(mask: int, shape: SystemShape) -> DenseOperator:
    """Dense Jordan-Wigner matrix of a canonical word bitmask."""
    return to_matrix(OperatorExpansion(shape, {mask: 1.0}))


def hermitian_word(mask: int, shape: SystemShape
                   ) -> Tuple[complex, np.ndarray]:
    """A word made Hermitian, (phase, phase * W) with W its
    :func:`jw_matrix`: phase 1 when W is Hermitian, i when it is
    anti-Hermitian (W-dagger = :func:`algebra.reversal_sign` W)."""
    matrix = jw_matrix(mask, shape).matrix
    if reversal_sign(mask.bit_count()) > 0:
        return 1.0, matrix
    return 1j, 1j * matrix


def to_matrices(ops: Sequence[OperatorExpansion]) -> np.ndarray:
    """Dense matrices of expansions of one shape, a (len(ops), dim, dim)
    stack whose matrix i equals ``to_matrix(ops[i])`` bit for bit.

    The words of all expansions are scattered together, in batches of at
    most :data:`_BATCH_ENTRIES` entries; each term carries the start of
    its own matrix, and ``np.add.at`` adds repeated positions one after
    another, so every matrix is the sum of its own terms in term order.
    """
    if not ops:
        raise ValueError("to_matrices needs at least one expansion")
    shape = ops[0].shape
    if any(op.shape != shape for op in ops):
        raise ValueError("to_matrices needs expansions of one shape")
    ensure_within_cap(shape)
    dim = shape.fock_dim
    n = sum(len(op.terms) for op in ops)
    chain = itertools.chain.from_iterable
    masks = np.fromiter(chain(op.terms.keys() for op in ops), np.int64, n)
    coeffs = np.fromiter(chain(op.terms.values() for op in ops),
                         np.complex128, n)
    starts = np.fromiter(chain(itertools.repeat(i * dim * dim, len(op.terms))
                               for i, op in enumerate(ops)), np.int64, n)
    out = np.zeros((len(ops), dim, dim), dtype=np.complex128)
    rows = np.arange(dim)
    step = max(1, _BATCH_ENTRIES // dim)
    for lo in range(0, n, step):
        x, vals = word_terms(masks[lo:lo + step], shape)
        flat = starts[lo:lo + step, None] + rows * dim + (rows ^ x[:, None])
        # One-dimensional index and value arrays take ufunc.at's fast path.
        np.add.at(out.reshape(-1), flat.ravel(),
                  (coeffs[lo:lo + step, None] * vals).ravel())
    return out


def to_matrix(op: OperatorExpansion) -> DenseOperator:
    """Dense matrix of an expansion, its terms added in term order (the
    one-expansion call of :func:`to_matrices`)."""
    return DenseOperator(op.shape, to_matrices([op])[0])


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

def hermiticity_residual(matrix) -> float:
    """max |M - M-dagger| of a dense array, the largest over a stack of
    them (the last two axes are the matrix axes), or, for an
    :class:`~fermicert.algebra.OperatorExpansion`, the largest difference
    between a coefficient and its adjoint's.  Distinct canonical words are
    trace-orthogonal, so an expansion's residual is 0 exactly when its
    dense matrix's is, and it reads no array of the Fock dimension."""
    if isinstance(matrix, OperatorExpansion):
        return float(matrix.max_coeff_diff(matrix.adjoint()))
    return float(abs(matrix - matrix.conj().swapaxes(-1, -2)).max())


def require_hermitian(matrix, what: str):
    """Raise ``ValueError`` when ``matrix`` (a dense array, a stack of
    them, or an expansion, as :func:`hermiticity_residual` takes them) is
    further than :data:`HERMITIAN_TOL` from Hermitian."""
    res = hermiticity_residual(matrix)
    if res > HERMITIAN_TOL:
        raise ValueError(f"{what} is not Hermitian (residual {res:.3e} "
                         f"above {HERMITIAN_TOL:.0e})")


def real_if_exact(matrix: np.ndarray) -> np.ndarray:
    """``matrix.real`` when every imaginary part is exactly 0, else
    ``matrix``: a real matrix then goes to the real LAPACK routines, which
    take a fraction of the complex ones' time.  A real ``matrix`` is
    returned as it is."""
    if matrix.dtype.kind == "c" and not matrix.imag.any():
        return matrix.real
    return matrix


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


def operator_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a matrix, as a float, or of each matrix of
    a stack (..., dim, dim), as an array, from one batched ``eigvalsh``."""
    gram = matrix.conj().swapaxes(-1, -2) @ matrix
    top = np.linalg.eigvalsh(gram)[..., -1]
    norms = np.sqrt(np.maximum(top, 0.0))
    return float(norms) if matrix.ndim == 2 else norms


def signed_permutation(pi: Sequence[int], shape: SystemShape
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """The site permutation ``pi`` on the Fock basis, as (image, sign):
    the unitary maps basis state b to sign[b] times basis state image[b].

    image[b] moves each site's occupations to site pi(site); sign[b] is
    the fermionic reordering sign of the basis state, an ascending
    product of creation operators: the parity of the permutation induced
    on its occupied modes, one transposition per occupied mode pair whose
    images swap order.  A site keeps the order of its own modes, so that
    parity is the sum of n_i n_j over the site pairs i < j with
    pi(i) > pi(j), n_i the occupied modes of site i.  Both are read off
    the basis indices with bit operations, one pass per site: site i is
    the p-bit block at shift p(V - i).  Conjugation by this unitary
    realizes the symbolic site-relabeling action, U m_j^a U-dagger =
    m_{pi(j)}^a.  As a gather, (U F)[image] = sign[:, None] * F with no
    dim x dim array.
    """
    pi = validate_permutation(pi, shape.sites)
    V, p = shape.sites, shape.modes_per_site
    full = (1 << p) - 1
    basis = np.arange(shape.fock_dim)
    image = np.zeros_like(basis)
    parity = np.zeros_like(basis)
    for i, target in enumerate(pi, start=1):
        shift = p * (V - i)
        block = basis & (full << shift)
        image |= (block >> shift) << (p * (V - target))
        # The later sites that site i passes on its way to pi(i).
        passed = sum(full << (p * (V - j)) for j in range(i + 1, V + 1)
                     if pi[j - 1] < target)
        if passed:
            parity ^= (np.bitwise_count(block)
                       & np.bitwise_count(basis & passed))
    return image, 1.0 - 2.0 * (parity & 1)


def permutation_unitary(pi: Sequence[int], shape: SystemShape) -> DenseOperator:
    """Fock-space unitary implementing a site permutation: the dense
    scatter of :func:`signed_permutation`, U[image[b], b] = sign[b]."""
    image, sign = signed_permutation(pi, shape)
    out = np.zeros((shape.fock_dim, shape.fock_dim), dtype=np.complex128)
    out[image, np.arange(shape.fock_dim)] = sign
    return DenseOperator(shape, out)


def global_parity_signs(shape: SystemShape) -> np.ndarray:
    """Diagonal of the global parity operator P_1 ... P_V in the Fock basis."""
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(shape.fock_dim)) & 1)


def parity_sectors(shape: SystemShape) -> Tuple[np.ndarray, np.ndarray]:
    """Fock-basis indices of the even and the odd global-parity sector."""
    signs = global_parity_signs(shape)
    return np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)


def _xor_component_labels(partner: np.ndarray, link: np.ndarray
                          ) -> np.ndarray:
    """Connected-component label of each basis index of XOR rows, vertex
    a joined to partner[t, a] = a ^ masks[t] wherever link[t, a], numbered
    in the order of each component's smallest vertex.

    Minimum-label propagation with pointer jumping, one (rows x dim)
    gather a round: every label is a vertex of the same component and
    never grows, so the fixed point holds each component's smallest
    vertex.  The links are made symmetric first (a row's entry [a, a ^ x]
    or its mirror [a ^ x, a] joins the pair), so the gather of each
    index's partners reaches every neighbour.
    """
    n = partner.shape[1]
    link = link | np.take_along_axis(link, partner, axis=1)
    labels = np.arange(n, dtype=partner.dtype)
    while True:
        new = np.minimum(labels, labels[partner].min(axis=0, where=link,
                                                     initial=n))
        new = new[new]
        if (new == labels).all():
            smallest = labels == np.arange(n)
            return (np.cumsum(smallest) - 1)[labels]
        labels = new


def diagonal_blocks(terms: XorTerms) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The diagonal blocks of the operator of :data:`XorTerms`, each mask
    once as :func:`xor_terms` returns them, on the connected components
    of its sparsity graph, equal-size blocks batched in chunks.

    The operator is exactly block diagonal on these components, so its
    spectrum is the union of the blocks' spectra and its eigenvectors live
    inside single blocks; for a Hamiltonian they are the conserved sectors,
    found with no symmetry assumed.  Explicit zeros join no blocks.  Yields
    ``(idx, stack)`` per chunk of blocks of one size s, from the largest
    size down and, within a size, in the order of the blocks' smallest
    index, each stack built only when it is asked for: ``idx`` is an
    (m, s) array whose rows hold the ascending basis indices of one block
    each, and ``stack`` the (m, s, s) blocks of the dense matrix,
    M[idx[j]][:, idx[j]].  A chunk holds as many blocks as fit in
    max(s_max^2, t x dim) entries, s_max the largest block size and t the
    number of rows (at least one): no stack is larger than the largest
    block or the XOR rows themselves.

    No edge list or dense matrix is built: the components come from the
    rows themselves (:func:`_xor_component_labels`, on the partners
    a ^ masks[t] as int32 and the nonzero pattern of the values, both
    released once the labels are known), and each stack is filled from
    the value columns of its blocks (:func:`_xor_stack`).
    """
    masks, vals = terms
    dim = vals.shape[1]
    kind = np.int32 if dim <= np.iinfo(np.int32).max else np.int64
    labels = _xor_component_labels(
        np.arange(dim, dtype=kind) ^ masks.astype(kind)[:, None], vals != 0)
    n_blocks = int(labels.max()) + 1
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n_blocks)
    starts = np.cumsum(sizes) - sizes
    # Position of each basis index inside its block, for scattering the
    # values straight into the stacks.
    pos = np.empty_like(order)
    pos[order] = np.arange(dim) - np.repeat(starts, sizes)
    budget = max(int(sizes.max()) ** 2, max(len(masks), 1) * dim)
    # bincount, not np.unique: unique imports numpy.ma on first use.
    for s in np.flatnonzero(np.bincount(sizes))[::-1]:
        ids = np.flatnonzero(sizes == s)
        per = budget // (s * s)
        for first in range(0, len(ids), per):
            idx = order[starts[ids[first:first + per]][:, None] + np.arange(s)]
            # Yielded unnamed, so that this frame holds no stack while the
            # caller works on it or the next one is built.
            yield idx, _xor_stack(idx, pos, masks, vals)


def _xor_stack(idx: np.ndarray, pos: np.ndarray, masks: np.ndarray,
               vals: np.ndarray) -> np.ndarray:
    """The (m, s, s) blocks on the rows of ``idx`` of the XOR terms
    (masks, vals), ``pos`` being each basis index's place in its block:
    entry [j, i, pos[a ^ masks[t]]] = vals[t, a] for a = idx[j, i] and
    every term t with a nonzero value there, read off the value columns
    of the blocks, vals[:, idx]."""
    t, j, i = np.nonzero(vals[:, idx] != 0)
    a = idx[j, i]
    stack = np.zeros(idx.shape + idx.shape[-1:], dtype=vals.dtype)
    stack[j, i, pos[a ^ masks[t]]] = vals[t, a]
    return stack


def check_state(dense: DenseOperator) -> StateValidity:
    """Density-matrix sanity check, each within its ``STATE_*_TOL``: unit
    trace, positivity, parity superselection (commuting with global parity).

    The minimum eigenvalue of the Hermitian part comes from one batched
    ``eigvalsh`` of its two equal-size parity halves when it has no entry
    between them (:func:`parity_sectors`), as for every parity-superselected
    state, and from one ``eigvalsh`` of the whole matrix otherwise; both
    are exact for any input.
    """
    tr = complex(np.trace(dense.matrix))
    trace_ok = abs(tr - 1.0) < STATE_TRACE_TOL
    herm = 0.5 * (dense.matrix + dense.matrix.conj().T)
    even, odd = parity_sectors(dense.shape)
    # herm is exactly Hermitian, so its odd-even block mirrors this one.
    if herm[even[:, None], odd].any():
        min_eig = float(np.linalg.eigvalsh(herm)[0])
    else:
        halves = np.stack((herm[even[:, None], even], herm[odd[:, None], odd]))
        min_eig = float(np.linalg.eigvalsh(halves)[:, 0].min())
    residual = hermiticity_residual(dense.matrix)
    positive_ok = min_eig >= -STATE_EIG_TOL and residual < STATE_HERMITIAN_TOL
    signs = global_parity_signs(dense.shape)
    pinched = signs[:, None] * dense.matrix * signs[None, :]
    parity_ok = float(np.max(np.abs(pinched - dense.matrix))) < STATE_PARITY_TOL
    return StateValidity(trace_ok, positive_ok, parity_ok, min_eig, tr,
                         residual)


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

    Every pattern is visited: one that joins no two states of the support
    gathers an exactly-zero vector, so its words read an exact 0.
    """
    masks = np.fromiter(masks, np.int64)
    phase, z, x = pauli_strings(masks, shape)
    rows = np.arange(shape.fock_dim, dtype=np.int64)
    if factor:
        f_conj = matrix.conj() / matrix.shape[1]
    patterns, group = np.unique(x, return_inverse=True)
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=len(patterns))
    ends = np.cumsum(counts)
    values = np.zeros(len(masks), dtype=np.complex128)
    for j, pattern in enumerate(patterns):
        if factor:
            gathered = np.einsum("bi,bi->b", matrix[rows ^ pattern], f_conj)
        else:
            gathered = matrix[rows ^ pattern, rows]
        spectrum = _walsh_hadamard(gathered)
        idx = order[ends[j] - counts[j]:ends[j]]
        values[idx] = _I4[phase[idx]] * spectrum[z[idx]]
    return dict(zip(masks.tolist(), values.tolist()))
