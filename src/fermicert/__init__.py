"""Numerical certification toolkit for permutation-invariant fermionic
mode states at desk scale.

The library certifies, by exact symbolic algebra plus dense Fock-space
numerics, a family of quantitative statements about fermionic lattice
states that are invariant under (order-preserving) site permutations:
the trace-norm suppression of locally odd content, approximability of
reductions by convex mixtures of mode product states, extended central
limit behaviour of Fourier-mode cumulants, circulant one-particle
density-matrix spectra, and mean-field energy-gap bounds.
"""

from .algebra import (OperatorExpansion, SystemShape, canonicalize,
                      expansion_from_text, expansion_to_text)
from .fock import (DenseOperator, ResourceCapError, StateValidity,
                   check_state, hermitian_eig, jw_matrix, partial_trace_sites,
                   to_expansion, to_matrix, trace_norm)
from .invariance import (InvarianceReport, MuFamilyParams, check_invariance,
                         is_order_preserving, mu_family_state, verify_lemma3)
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "OperatorExpansion",
    "SystemShape",
    "canonicalize",
    "expansion_from_text",
    "expansion_to_text",
    "ResourceCapError",
    "DenseOperator",
    "StateValidity",
    "check_state",
    "hermitian_eig",
    "jw_matrix",
    "partial_trace_sites",
    "to_expansion",
    "to_matrix",
    "trace_norm",
    "InvarianceReport",
    "MuFamilyParams",
    "check_invariance",
    "is_order_preserving",
    "mu_family_state",
    "verify_lemma3",
    "VerificationReport",
    "__version__",
]
