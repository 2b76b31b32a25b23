"""Shared test helpers: independent matrix oracles and random states.

The Majorana matrices built here use the textbook kron construction
directly, independent of the package's Pauli-string route, so they can
serve as an oracle for it.  So is the partition oracle: brute-force set
partitions (:func:`oracle_set_partitions`), their even-block filter, the
inversion-count sign (:func:`inversion_sign`) and the recombination of
cumulants into moments over them (:func:`moment_from_cumulant_fn`), which
import nothing from the package.  :func:`moment`, :func:`cumulant` and
:func:`fourier_ladder_matrix` are the exception: views of the package's
own dense ladders that only the tests read.  The package's one ladder type
is the Fourier ladder (c, mode, q); :func:`moment` and :func:`cumulant`
take site ladders as (c, site, mode) tuples, the arguments of
:func:`cumulants.ladder_matrix`, and run the package's moment and
cumulant engine on them.  :func:`mixture_matrix` and
:func:`build_hamiltonian` are likewise views of package code (product
powers, the symbolic Hamiltonian) that only the tests compare the package
against.  :func:`scipy_blocks` is the sector oracle, the diagonal
blocks of a dense matrix on the connected components that scipy finds in
its nonzero pattern, and :func:`unpruned_ground_state` is the block
ground solve on them with every sector diagonalized.
:func:`fresh_process_output` runs a snippet in a new interpreter, where
what a call leaves imported can be read from ``sys.modules``, and
:func:`mask_of` spells a word mask as its (site, index) Majoranas.  The
:func:`search_budget` fixture runs the witness search of one test at a
smaller budget than the one every command runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fermicert.algebra import SystemShape

I2 = np.eye(2, dtype=np.complex128)
Z2 = np.diag([1.0, -1.0]).astype(np.complex128)
ANNIHILATE = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


def kron_chain(mats):
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def independent_ladder(n_modes: int, mode: int) -> np.ndarray:
    """Annihilation operator f_mode via the explicit Jordan-Wigner chain
    (Z strings left of the mode, site-major, first factor = mode 0)."""
    mats = [Z2] * mode + [ANNIHILATE] + [I2] * (n_modes - mode - 1)
    return kron_chain(mats)


def independent_majoranas(n_modes: int):
    """All 2 * n_modes Majorana matrices from the ladder construction."""
    out = []
    for mode in range(n_modes):
        f = independent_ladder(n_modes, mode)
        fd = f.conj().T
        out.append(fd + f)
        out.append(1j * (fd - f))
    return out


def mask_of(shape: SystemShape, *indices) -> int:
    """The canonical word mask of the Majoranas ``(site, index)``."""
    out = 0
    for site, mi in indices:
        out |= 1 << shape.bit_position(site, mi)
    return out


def word_matrix_oracle(mask: int, shape: SystemShape) -> np.ndarray:
    """Matrix of a canonical word as the ordered product of independent
    Majorana matrices."""
    ms = independent_majoranas(shape.total_modes)
    out = np.eye(shape.fock_dim, dtype=np.complex128)
    for g in range(shape.majorana_count):
        if (mask >> g) & 1:
            out = out @ ms[g]
    return out


def fresh_process_output(code: str) -> str:
    """Standard output, stripped, of ``code`` run in a new Python process
    that imports ``fermicert`` from this tree's ``src``.  The test process
    has imported nearly every module by the time a test runs, so only a
    fresh one shows which modules a call loads."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def scipy_blocks(matrix):
    """The diagonal blocks of a square dense matrix on the connected
    components of its nonzero pattern, as scipy's ``connected_components``
    labels them: a list of ``(idx, stack)`` per block size, largest first,
    whose ``idx`` rows hold the ascending indices of one block each in the
    order of their smallest index, and ``stack`` the dense gather
    matrix[idx[j]][:, idx[j]].  The independent oracle of
    fock.diagonal_blocks."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(csr_matrix(matrix != 0),
                                     directed=False)
    order = np.argsort(labels, kind="stable")
    comps = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    by_size = {}
    for comp in sorted(comps, key=lambda comp: comp[0]):
        by_size.setdefault(len(comp), []).append(comp)
    blocks = []
    for size in sorted(by_size, reverse=True):
        idx = np.array(by_size[size])
        blocks.append((idx, matrix[idx[:, :, None], idx[:, None, :]]))
    return blocks


def unpruned_ground_state(h_exp):
    """Ground energy and ground isometry matrix with no sector skipped:
    the :func:`scipy_blocks` of the dense matrix ``to_matrix(h_exp)``,
    every block stack checked for Hermiticity and diagonalized with
    ``eigvalsh``, the ground columns taken in increasing block size.  The
    bit-identity oracle of meanfield.ground_state_lowdim, which builds its
    blocks from the summed XOR terms and skips the stacks above the
    ground."""
    from fermicert.fock import real_if_exact, require_hermitian, to_matrix
    from fermicert.meanfield import DEGENERACY_TOL

    blocks = []
    for idx, stack in scipy_blocks(to_matrix(h_exp).matrix):
        require_hermitian(stack, "Hamiltonian block")
        stack = real_if_exact(stack)
        blocks.append((idx, stack, np.linalg.eigvalsh(stack)[:, 0]))
    blocks.sort(key=lambda block: block[0].shape[1])
    e_gs = float(min(lows.min() for _, _, lows in blocks))
    columns = []
    for idx, stack, lows in blocks:
        for j in np.flatnonzero(lows <= e_gs + DEGENERACY_TOL):
            w, v = np.linalg.eigh(stack[j])
            vecs = v[:, w <= e_gs + DEGENERACY_TOL]
            col = np.zeros((h_exp.shape.fock_dim, vecs.shape[1]),
                           dtype=np.complex128)
            col[idx[j]] = vecs
            columns.append(col)
    return e_gs, np.hstack(columns)


def moment(rho, rows):
    """tr(rho f^{c_1} ... f^{c_w}) of each row of site ladders, given as
    (c, site, mode) tuples, on the dense state ``rho``: rows of one length
    w >= 1, one entry per row."""
    from fermicert.cumulants import _row_moments, ladder_matrix

    index = {}
    ids = [[index.setdefault(o, len(index)) for o in ops]
           for ops in rows]
    return _row_moments(rho.matrix, np.stack([ladder_matrix(rho.shape, *key)
                                              for key in index]), ids)


def cumulant(rho, ops):
    """Order-|ops| joint cumulant of the site ladders ``ops``, given as
    (c, site, mode) tuples, on the dense state ``rho``."""
    from fermicert.cumulants import cumulant_mats, ladder_matrix

    return cumulant_mats(rho.matrix, [ladder_matrix(rho.shape, *o)
                                      for o in ops])


def fourier_ladder_matrix(shape: SystemShape, c: int, mode: int,
                          q: int) -> np.ndarray:
    """Dense Fourier ladder (1/sqrt(V)) sum_j exp(2 pi i c q j / V) f_j^c,
    the matrix of the package's expansion."""
    from fermicert.cumulants import LadderIndex, fourier_ladder
    from fermicert.fock import to_matrix

    return to_matrix(fourier_ladder(shape, LadderIndex(c, mode, q))).matrix


def oracle_set_partitions(items):
    """Every set partition of a tuple: the first item opens a block of its
    own or joins a block of a partition of the rest.  Blocks keep the
    order of ``items``."""
    if not items:
        yield []
        return
    first = items[0]
    for sub in oracle_set_partitions(items[1:]):
        yield [(first,)] + sub
        for i, block in enumerate(sub):
            yield sub[:i] + [(first,) + block] + sub[i + 1:]


def even_block_partitions(items):
    """The set partitions of ``items`` whose blocks all have even size."""
    return [part for part in oracle_set_partitions(tuple(items))
            if all(len(block) % 2 == 0 for block in part)]


def inversion_sign(seq):
    """(-1) to the number of pairs out of order in ``seq``."""
    inversions = sum(1 for i in range(len(seq))
                     for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def moment_from_cumulant_fn(cumulant_fn, w: int):
    """Recombine cumulants into the order-w moment: the sum over the even
    partitions of (0, .., w-1) of the inversion sign of the blockwise
    concatenation times prod cumulant_fn(block), each block increasing.
    A value, or a row array when ``cumulant_fn`` returns row arrays."""
    total = 0.0 + 0.0j
    for partition in even_block_partitions(range(w)):
        prod = complex(inversion_sign([x for block in partition
                                       for x in block]))
        for block in partition:
            prod = prod * cumulant_fn(block)
        total = total + prod
    return total


def mixture_matrix(mixture, k: int):
    """Dense matrix of sum_l a_l xi_l^(x k) for a
    :class:`definetti.ProductMixture`."""
    from fermicert.definetti import product_power
    from fermicert.fock import DenseOperator

    powers = [product_power(xi, k) for xi in mixture.components]
    out = np.zeros_like(powers[0].matrix)
    for a, powr in zip(mixture.weights, powers):
        out += a * powr.matrix
    return DenseOperator(powers[0].shape, out)


def build_hamiltonian(spec):
    """Dense Hamiltonian matrix of a :class:`meanfield.HamiltonianSpec`,
    Hermitian within :data:`fock.HERMITIAN_TOL`."""
    from fermicert.fock import require_hermitian, to_matrix
    from fermicert.meanfield import build_hamiltonian_expansion

    h_exp, _ = build_hamiltonian_expansion(spec)
    dense = to_matrix(h_exp)
    require_hermitian(dense.matrix, "dense Hamiltonian")
    return dense


def random_expansion(shape: SystemShape, rng, n_terms: int = 5,
                     max_degree: int | None = None):
    """One draw of :func:`algebra.random_expansions`."""
    from fermicert.algebra import random_expansions

    return random_expansions(shape, rng, 1, n_terms, max_degree)[0]


def random_density_matrix(dim: int, rng) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_even_density_matrix(shape: SystemShape, rng) -> np.ndarray:
    """Random state pinched onto the parity-superselected sector."""
    from fermicert.fock import global_parity_signs

    rho = random_density_matrix(shape.fock_dim, rng)
    signs = global_parity_signs(shape)
    rho = 0.5 * (rho + signs[:, None] * rho * signs[None, :])
    return rho / np.real(np.trace(rho))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def search_budget(monkeypatch):
    """``search_budget(starts, steps)`` gives every witness search of the
    test (definetti.best_mixture_approx) ``starts`` starts of at most
    ``steps`` weight steps, in place of the module's STARTS and
    WEIGHT_STEPS."""
    from fermicert import definetti

    def set_budget(starts: int, steps: int):
        monkeypatch.setattr(definetti, "STARTS", starts)
        monkeypatch.setattr(definetti, "WEIGHT_STEPS", steps)

    return set_budget
