"""One-particle reduced density matrices of permutation-invariant states.

For a single mode per site the 1-RDM of a permutation-invariant state has
constant diagonal a = N/V and constant lower off-diagonal b (conjugated
above the diagonal).  Its spectrum has one closed form,
:func:`circulant_spectrum_with_fallback`, with a separate real-b branch;
the complex branch has isolated removable singularities, which are
reported, and there the trace rule gives the one missing eigenvalue.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import SystemShape
from .fock import (DenseOperator, hermiticity_residual, ladder_terms,
                   occupations, xor_pair_traces)
from .report import EQUALITY, INEQUALITY, VerificationReport, make_report

#: Permutation invariance forces |b| <= OFFDIAG_BOUND_CONST / V.
OFFDIAG_BOUND_CONST = 8.0 / math.sqrt(3.0)

#: A complex-branch eigenvalue whose denominator is below this is singular.
SINGULAR_TOL = 1e-12

#: Slack of :func:`verify_pauli_constraints` on the occupation band [0, 1],
#: on the trace against the mode occupations and on the off-diagonal bound.
BAND_TOL = 1e-10
TRACE_TOL = 1e-9
OFFDIAG_BOUND_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OneRDM:
    """Correlation matrix Gamma[j, k] = <f_j-dagger f_k> over all pV modes."""

    gamma: np.ndarray
    shape: SystemShape
    hermiticity_residual: float

    def particle_number(self) -> float:
        return float(np.real(np.trace(self.gamma)))


@dataclass(frozen=True)
class CirculantParams:
    """Constant-diagonal/constant-offdiagonal 1-RDM parameters."""

    V: int
    a: float
    b: complex

    def __post_init__(self):
        if self.V < 2:
            raise ValueError("circulant spectrum needs V >= 2")


def one_rdm(rho: DenseOperator) -> OneRDM:
    """Compute Gamma[j, k] = tr(rho f_j† f_k) over the site-major flattened
    modes, symmetrized with the residual reported.

    Each ladder is one XOR term (:func:`fock.ladder_terms`), so Gamma is
    one :func:`fock.xor_pair_traces` call: the left halves are the n
    creators f_j†, the right halves the n annihilators f_k, and the pairs
    all n² of (j, k), row-major.  No dense ladder or matrix product is
    formed.  ``rho`` need not be positive: any operator gives its
    correlation matrix, and state validity is the caller's check."""
    shape = rho.shape
    modes = [(site, mode) for site in range(1, shape.sites + 1)
             for mode in range(1, shape.modes_per_site + 1)]
    n = len(modes)
    gamma = xor_pair_traces(
        rho.matrix, [ladder_terms(shape, -1, *sm) for sm in modes],
        [ladder_terms(shape, 1, *sm) for sm in modes],
        np.indices((n, n)).reshape(2, -1).T).reshape(n, n)
    residual = hermiticity_residual(gamma)
    gamma = 0.5 * (gamma + gamma.conj().T)
    return OneRDM(gamma, shape, residual)


def circulant_matrix(params: CirculantParams) -> np.ndarray:
    """Explicit correlation matrix with diagonal a, b below and conj(b)
    above the diagonal."""
    V = params.V
    out = np.full((V, V), params.b, dtype=np.complex128)
    out = np.tril(out, -1)
    out = out + out.conj().T + params.a * np.eye(V)
    return out


def circulant_spectrum_with_fallback(params: CirculantParams):
    """Closed-form eigenvalues lambda_k, k = 0..V-1, with the trace rule
    filling the singular k.

    Real b: lambda_0 = a + b (V - 1) and lambda_k = a - b otherwise.
    Complex b = |b| e^(i phi): lambda_k = a + |b| [cos(2 pi k / V +
    (V-2) phi / V) - cos phi] / [1 - cos(2 pi k / V - 2 phi / V)], and k
    is singular when that denominator falls below :data:`SINGULAR_TOL`.
    It vanishes where 2 pi k / V = 2 phi / V mod 2 pi; the left side steps
    by 2 pi / V, so at most one k is singular, and it gets the trace V a
    minus the other values.  Returns (values, singular_ks); comparisons
    against the formula should exclude the singular entries, whose values
    here do not come from the formula.
    """
    V = params.V
    a = params.a
    b = complex(params.b)
    out = np.empty(V, dtype=float)
    singular = []
    if abs(b.imag) < 1e-15:
        br = b.real
        for k in range(V):
            out[k] = a + br * (V - 1) if k == 0 else a - br
        return out, singular
    mag, phi = abs(b), cmath.phase(b)
    for k in range(V):
        angle = 2.0 * math.pi * k / V
        denom = 1.0 - math.cos(angle - 2.0 * phi / V)
        if abs(denom) < SINGULAR_TOL:
            singular.append(k)
            out[k] = math.nan
            continue
        numer = math.cos(angle + (V - 2.0) * phi / V) - math.cos(phi)
        out[k] = a + mag * numer / denom
    if singular:
        out[singular] = V * a - np.nansum(out)
    return out, singular


def compare_circulant_spectrum(params: CirculantParams
                               ) -> Tuple[List[list], float, List[int]]:
    """Closed-form spectrum against direct diagonalization.

    Returns ``(rows, worst, singular)``: one row ``[V, k, lambda_formula,
    lambda_direct, abs_dev]`` per sorted eigenvalue, where ``k`` is the
    position in ascending order (the ``k`` column of ``rdm_spectrum.csv``),
    not the formula index; the largest deviation over the rows whose
    formula value does not come from a singular formula index; and those
    singular indices of :func:`circulant_spectrum_with_fallback`, whose
    values come from the trace rule.
    """
    values, singular = circulant_spectrum_with_fallback(params)
    direct = np.sort(np.linalg.eigvalsh(circulant_matrix(params)))
    order = np.argsort(values, kind="stable")
    rows = []
    worst = 0.0
    for pos, index in enumerate(order):
        dev = abs(values[index] - direct[pos])
        rows.append([params.V, pos, values[index], direct[pos], dev])
        if index not in singular:
            worst = max(worst, dev)
    return rows, worst, singular


def spectrum_report(inputs: Dict[str, object], worst: float,
                    notes: Sequence[str] = ()) -> VerificationReport:
    """The rdm-spectrum claim on the largest deviation of
    :func:`compare_circulant_spectrum`: closed form and eigensolver agree
    to 1e-10."""
    return make_report("rdm-spectrum", EQUALITY, inputs, worst, 0.0, 1e-10,
                       0.0, notes)


def fit_circulant(gamma: np.ndarray) -> Tuple[float, complex, float]:
    """Least-squares (a, b) fit of the constant-diagonal pattern and the
    maximum absolute deviation from it."""
    V = gamma.shape[0]
    a = float(np.real(np.mean(np.diag(gamma))))
    lower = np.tril_indices(V, -1)
    b = complex(np.mean(gamma[lower])) if V > 1 else 0.0
    model = circulant_matrix(CirculantParams(V, a, b)) if V > 1 else gamma
    residual = float(np.max(np.abs(gamma - model)))
    return a, b, residual


def mode_occupations(rho: DenseOperator) -> np.ndarray:
    """<n_j> per flattened mode, read off the Fock-basis diagonal through
    :func:`fock.occupations`.

    Independent of the ladder-operator route used by :func:`one_rdm`, so it
    serves as the trace oracle for the 1-RDM diagonal."""
    diag = np.real(np.diag(rho.matrix))
    return np.array([float(np.dot(diag, bits))
                     for bits in occupations(rho.shape).T])


def verify_pauli_constraints(rdm: OneRDM,
                             source: Optional[DenseOperator] = None,
                             source_invariant: bool = False
                             ) -> VerificationReport:
    """Occupation-band check on a 1-RDM.

    Verifies eigenvalues within [-BAND_TOL, 1 + BAND_TOL]; when ``source``
    is given, the trace against independently computed mode occupations
    (TRACE_TOL); and for permutation-invariant single-mode sources the
    off-diagonal suppression |b| <= 8/(sqrt(3) V) + OFFDIAG_BOUND_TOL.
    The report's lhs is the worst tolerance-normalized violation (pass at
    lhs <= 0).
    """
    start = time.perf_counter()
    eigs = np.linalg.eigvalsh(rdm.gamma)
    lo, hi = float(eigs[0]), float(eigs[-1])
    violations = [max(-lo, hi - 1.0) - BAND_TOL]
    notes = [f"eigenvalue range [{lo:.6g}, {hi:.6g}]",
             f"hermiticity residual {rdm.hermiticity_residual:.2e}"]
    if source is not None:
        occ_sum = float(np.sum(mode_occupations(source)))
        trace_dev = abs(rdm.particle_number() - occ_sum)
        violations.append(trace_dev - TRACE_TOL)
        notes.append(f"trace {rdm.particle_number():.9g} vs occupations "
                     f"{occ_sum:.9g}")
    if source_invariant and rdm.shape.modes_per_site == 1:
        a, b, resid = fit_circulant(rdm.gamma)
        bound = OFFDIAG_BOUND_CONST / rdm.shape.sites
        violations.append(abs(b) - bound - OFFDIAG_BOUND_TOL)
        notes.append(f"fit a={a:.6g} |b|={abs(b):.6g} bound={bound:.6g} "
                     f"pattern residual {resid:.2e}")
    lhs = max(violations)
    return make_report("rdm-pauli", INEQUALITY,
                       {"V": rdm.shape.sites, "p": rdm.shape.modes_per_site},
                       lhs, 0.0, 0.0,
                       time.perf_counter() - start, notes)
