"""Quadratic Hermitian Majorana operators, read from their levels.

An expansion whose words all have degree 0 or 2, with a real identity
coefficient c0 and purely imaginary pair coefficients, is

    X = c0 + sum_{a<b} i A_ab m_a m_b,    A real antisymmetric.

A real orthogonal change of Majoranas brings A to 2x2 blocks
[[0, lam_n], [-lam_n, 0]], so X = c0 + sum_n lam_n (i m'_(2n-1) m'_(2n)),
a sum of commuting terms with spectrum {+1, -1}.  The 2^N eigenvalues of
X (N = pV modes) are therefore c0 + sum_n s_n lam_n over all sign
patterns s, where the levels lam_n >= 0 are the nonnegative eigenvalues
of the Hermitian 2N x 2N matrix iA (Bravyi, "Lagrangian representation
for fermionic linear optics", QIC 5, 2005).  The trace norm and the
minimum eigenvalue of X need no Fock matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import OperatorExpansion, SystemShape
from .fock import (STATE_EIG_TOL, STATE_TRACE_TOL, StateValidity,
                   ensure_within_cap)


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """c0 + sum_{a<b} i A_ab m_a m_b on ``shape``, with ``A`` the real
    antisymmetric (2N x 2N) matrix over the global Majorana positions."""

    shape: SystemShape
    c0: float
    A: np.ndarray

    @classmethod
    def from_expansion(cls, op: OperatorExpansion
                       ) -> Optional["QuadraticForm"]:
        """The form of ``op``, or None unless ``op`` is exactly a Hermitian
        quadratic: every word of degree 0 or 2, a real identity
        coefficient and purely imaginary pair coefficients
        (A_ab = -i c_ab)."""
        n = op.shape.majorana_count
        A = np.zeros((n, n))
        c0 = 0.0
        for mask, coeff in op.terms.items():
            degree = mask.bit_count()
            if degree == 0 and coeff.imag == 0:
                c0 = coeff.real
            elif degree == 2 and coeff.real == 0:
                a = (mask & -mask).bit_length() - 1
                b = mask.bit_length() - 1
                A[a, b] = coeff.imag
                A[b, a] = -coeff.imag
            else:
                return None
        return cls(op.shape, c0, A)

    def levels(self) -> np.ndarray:
        """The N levels lam_n >= 0: the top half of eigvalsh(iA)."""
        return np.linalg.eigvalsh(1j * self.A)[self.shape.total_modes:]

    def trace_norm(self) -> float:
        """Sum of |c0 + sum_n s_n lam_n| over all 2^N sign patterns,
        exactly; refused above the mode cap, as the Fock matrix is."""
        ensure_within_cap(self.shape)
        spectrum = np.array([self.c0])
        for lam in self.levels():
            spectrum = np.concatenate((spectrum + lam, spectrum - lam))
        return float(np.abs(spectrum).sum())

    def min_eigenvalue(self) -> float:
        """c0 - sum_n lam_n."""
        return float(self.c0 - self.levels().sum())

    def state_validity(self) -> StateValidity:
        """:func:`fock.check_state`'s verdict in closed form: trace
        c0 2^N, Hermitian by construction, parity kept since every word is
        even, and the minimum eigenvalue from the levels."""
        trace = complex(self.c0 * self.shape.fock_dim)
        min_eig = self.min_eigenvalue()
        return StateValidity(abs(trace - 1.0) < STATE_TRACE_TOL,
                             min_eig >= -STATE_EIG_TOL, True, min_eig, trace,
                             0.0)
