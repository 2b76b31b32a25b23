"""One-particle reduced density matrices of permutation-invariant states.

For a single mode per site the 1-RDM of a permutation-invariant state is
M = a I + b L + conj(b) U: constant diagonal a = N/V, b on every entry of
the strictly lower all-ones matrix L and conj(b) on U = L^T.  The vector
v_j = z^j gives (M v)_j = (a + (b - conj(b) z) / (z - 1)) z^j plus the
remainder (conj(b) z^V - b) / (z - 1), which vanishes when
z^V = b / conj(b), so M is a phi-circulant (Davis, *Circulant Matrices*,
1979) and its V eigenvalues have one closed form,
:func:`circulant_spectrum_with_fallback`, free of singular indices.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .algebra import OperatorExpansion, SystemShape
from .fock import (MODE_CAP_ENV, ResourceCapError, hermiticity_residual,
                   mode_cap, occupations, xor_terms)
from .invariance import INVARIANCE_TOL, InvarianceReport, check_invariance
from .report import EQUALITY, INEQUALITY, VerificationReport, make_report

#: Permutation invariance forces |b| <= OFFDIAG_BOUND_CONST / V.
OFFDIAG_BOUND_CONST = 8.0 / math.sqrt(3.0)

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
        for name in ("a", "b"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


def one_rdm(op: OperatorExpansion) -> OneRDM:
    """Compute Gamma[j, k] = tr(op f_j† f_k) over the site-major flattened
    modes, symmetrized with the residual reported.

    f_j† f_k = (m_j^1 - i m_j^2)(m_k^1 + i m_k^2) / 4 holds words of
    degree 0 and 2 only, so Gamma = (G11 + i G12 - i G21 + G22) / 4 in
    the blocks of the two-point matrix G[a, b] = tr(op m_a m_b): tr(op)
    on the diagonal and, for a < b, G[a, b] = -G[b, a] the expectation of
    the word m_a m_b.  One pass over the expansion; no Fock-space array
    and no mode cap.  ``op`` need not be positive: any operator gives its
    correlation matrix, and state validity is the caller's check."""
    shape = op.shape
    two = np.zeros((shape.majorana_count,) * 2, dtype=np.complex128)
    for mask in op.terms:
        if mask.bit_count() == 2:
            two[(mask & -mask).bit_length() - 1,
                mask.bit_length() - 1] = op.expectation(mask)
    g = op.trace() * np.eye(len(two)) + two - two.T
    # Mode n's Majoranas m^1 and m^2 are bits 2n and 2n + 1.
    gamma = 0.25 * (g[0::2, 0::2] + 1j * g[0::2, 1::2]
                    - 1j * g[1::2, 0::2] + g[1::2, 1::2])
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


# The name stays: perfbench/spans.py TARGETS looks it up with no default.
def circulant_spectrum_with_fallback(params: CirculantParams):
    """Closed-form eigenvalues lambda_n, n = 0..V-1, of
    :func:`circulant_matrix`, returned as ``(values, ())``.

    Real b: lambda_0 = a + b (V - 1) and lambda_n = a - b otherwise.
    Otherwise write b = r e^(i theta) with real r and theta in
    (-pi/2, pi/2], so theta = atan(Im b / Re b), or pi/2 when Re b = 0.
    The roots of z^V = b / conj(b) are z = e^(2 i phi_n) with
    phi_n = (theta + pi n) / V, and the eigenvalue
    a + (b - conj(b) z) / (z - 1) simplifies to
    lambda_n = a - Re b + Im b cot(phi_n).  For theta != 0, phi_n lies in
    (-pi/(2V), pi) and is never 0, so no index is singular.  Written in
    Re b and Im b, the form keeps every digit near b = +-i, where
    r = Re b / cos theta would lose them all; the real-branch rule
    |Im b| < 1e-15 keeps subnormal Im b off the cot route.

    The name and the empty second value are kept for the benchmark's
    tracer, which wraps the function by name and counts ``len(result[1])``.
    """
    V, a, b = params.V, params.a, complex(params.b)
    if abs(b.imag) < 1e-15:
        values = np.full(V, a - b.real)
        values[0] = a + b.real * (V - 1)
    else:
        theta = math.atan(b.imag / b.real) if b.real else 0.5 * math.pi
        phi = (theta + math.pi * np.arange(V)) / V
        values = a - b.real + b.imag * np.cos(phi) / np.sin(phi)
    # A pair: perfbench/spans.py's observer reads len(result[1]).
    return values, ()


def compare_circulant_spectrum(params: CirculantParams
                               ) -> Tuple[List[list], float]:
    """Closed-form spectrum against direct diagonalization.

    Returns ``(rows, worst)``: one row ``[V, k, lambda_formula,
    lambda_direct, abs_dev]`` per sorted eigenvalue, where ``k`` is the
    position in ascending order (the ``k`` column of ``rdm_spectrum.csv``),
    not the formula index, and the largest deviation over the rows.
    Raises :class:`fock.ResourceCapError`, before any array is made, when
    V x V is larger than the largest Fock matrix the mode cap allows.
    """
    if params.V > 2 ** mode_cap():
        raise ResourceCapError(
            f"a {params.V} x {params.V} matrix exceeds the Fock dimension "
            f"2^{mode_cap()} of the mode cap (set {MODE_CAP_ENV} to lift it)")
    values, _ = circulant_spectrum_with_fallback(params)
    direct = np.sort(np.linalg.eigvalsh(circulant_matrix(params)))
    order = np.argsort(values, kind="stable")
    rows = []
    worst = 0.0
    for pos, index in enumerate(order):
        dev = abs(values[index] - direct[pos])
        rows.append([params.V, pos, values[index], direct[pos], dev])
        worst = max(worst, dev)
    return rows, worst


def spectrum_report(inputs: Dict[str, object],
                    worst: float) -> VerificationReport:
    """The rdm-spectrum claim on the largest deviation of
    :func:`compare_circulant_spectrum`: closed form and eigensolver agree
    to 1e-10."""
    return make_report("rdm-spectrum", EQUALITY, inputs, worst, 0.0, 1e-10)


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


def mode_occupations(source: OperatorExpansion) -> np.ndarray:
    """<n_j> per flattened mode, read off the Fock-basis diagonal of
    ``source`` through :func:`fock.occupations`.

    The diagonal is the sum of the words with X mask 0, those made of
    whole pairs m^(2a-1) m^(2a) (flattened mode n holds Majorana bits 2n
    and 2n + 1, both or neither): their :func:`fock.xor_terms` row, the mask-0 row
    of the whole expansion's bit for bit, built from the Jordan-Wigner
    Pauli tables with no dim x dim matrix and no other row.  That keeps
    the oracle independent of :func:`one_rdm`, which reads the degree-2
    coefficients, so it serves as the trace oracle for the 1-RDM
    diagonal."""
    shape = source.shape
    low = int("01" * shape.total_modes, 2)
    pairs = {w: c for w, c in source.terms.items()
             if w & low == (w >> 1) & low}
    masks, vals = xor_terms(OperatorExpansion(shape, pairs))
    diag = np.real(vals[0]) if len(masks) else np.zeros(shape.fock_dim)
    return np.array([float(np.dot(diag, bits))
                     for bits in occupations(shape).T])


def verify_pauli_constraints(rdm: OneRDM,
                             source: Optional[OperatorExpansion] = None,
                             inv_report: Optional[InvarianceReport] = None
                             ) -> VerificationReport:
    """Occupation-band check on a 1-RDM.

    Verifies eigenvalues within [-BAND_TOL, 1 + BAND_TOL]; when ``source``,
    the expansion the 1-RDM was read from, is given, the trace against
    its mode occupations (:func:`mode_occupations`, TRACE_TOL), and
    otherwise notes that this trace oracle did not run;
    and for single-mode sources invariant within
    :data:`invariance.INVARIANCE_TOL` by ``inv_report``, their
    :func:`invariance.check_invariance` (computed when not given), the
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
    else:
        notes.append("trace oracle not run: no dense source")
    if source is not None and rdm.shape.modes_per_site == 1:
        if inv_report is None:
            inv_report = check_invariance(source)
        if inv_report.max_violation() <= INVARIANCE_TOL:
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
