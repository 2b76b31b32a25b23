"""Permutation invariance of fermionic states and the trace-norm
suppression of their locally odd content.

A state is *permutation invariant* when (1) expectation values of every
Majorana word are unchanged under site permutations that preserve the
written order of the word, and (2) expectation values of words with even
Majorana count on every site are unchanged under arbitrary site
permutations.  A state is *fully* invariant when condition (1) holds for
all permutations; the anti-commutation relations then force mixed odd-odd
correlators to vanish, which the weaker definition deliberately avoids.

The checks are exact and enumerate no permutation.  A site permutation
moves a word's nonzero per-site Majorana blocks between sites, so each
condition says that the expectation is constant on a class of words: the
words with the same block sequence (1), the even-on-every-site words with
the same block multiset (2), and for full invariance all words with the
same block multiset, up to the sign of reordering the odd blocks.  One
pass over the words up to a degree cap collects the classes.

The mu family built here is the standard witness separating the two
notions: it is permutation invariant for every mu in [-1, 1] but fully
invariant only at mu = 0.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import (OperatorExpansion, SystemShape, relabel_word,
                      site_blocks, validate_permutation)
from .fock import (DenseOperator, Isometry, reduce_expansion, to_matrix,
                   trace_norm, word_expectations_dense)
from .report import INEQUALITY, VerificationReport, make_report


@dataclass(frozen=True)
class MuFamilyParams:
    """Parameters of the two-Majorana correlated family."""

    sites: int
    modes_per_site: int
    mu: float

    def __post_init__(self):
        if self.sites < 2:
            raise ValueError("mu family needs at least 2 sites")
        if self.modes_per_site < 1:
            raise ValueError("modes_per_site must be >= 1")
        if abs(self.mu) > 1.0:
            raise ValueError(f"|mu| must be <= 1, got {self.mu}")

    @property
    def shape(self) -> SystemShape:
        return SystemShape(self.sites, self.modes_per_site)


@dataclass(frozen=True)
class InvarianceReport:
    """Maximum violations of the two invariance conditions.

    Violations are max over (word, permutation) pairs, for every word up
    to the degree cap and every site permutation, of
    |tr(rho w) - tr(rho pi(w))|, computed exactly as the largest diameter
    of a word class (see the module docstring).  ``full_max_violation``
    additionally tests condition-(1)-style equality under *all*
    permutations, which detects states that are invariant but not fully
    invariant.  ``checked_words`` counts the words up to the cap.
    ``sampled`` is always false: the check is exact, and the field stays
    because ``invariance.csv`` has a column for it.
    """

    condition1_max_violation: float
    condition2_max_violation: float
    checked_words: int
    fully_invariant: bool
    full_max_violation: float
    sampled: bool = False

    def max_violation(self) -> float:
        return max(self.condition1_max_violation,
                   self.condition2_max_violation)


def mu_family_state(params: MuFamilyParams,
                    validate: bool = True) -> OperatorExpansion:
    """Operator (1/2^(pV)) (1 + i tan(pi/2V) mu sum_{j<l} m_j^1 m_l^1).

    The expansion is permutation invariant (but not fully invariant) for
    every mu, with pair correlators +/- i tan(pi/2V) mu depending on the
    index order.  The prefactor tan(pi/2V) saturates the single-particle
    covariance constraint, but the many-body operator is positive
    semidefinite only for |mu| <= 1 / (tan(pi/2V) * g(V)) where g(V) is
    the sum of the positive singular values of the coupling pattern
    (g(6) = 5, so at V = 6 positivity ends near |mu| = 0.746).  With
    ``validate`` set, construction outside that range raises and reports
    the offending minimum eigenvalue; pass ``validate=False`` to build the
    Hermitian unit-trace operator anyway, e.g. for bound certifications
    that do not require positivity.
    """
    shape = params.shape
    dim = shape.fock_dim
    terms: Dict[int, complex] = {0: 1.0 / dim}
    t = math.tan(math.pi / (2 * params.sites))
    coeff = 1j * t * params.mu / dim
    if abs(params.mu) > 0:
        for j in range(1, params.sites + 1):
            for l in range(j + 1, params.sites + 1):
                mask = ((1 << shape.bit_position(j, 1))
                        | (1 << shape.bit_position(l, 1)))
                terms[mask] = coeff
    state = OperatorExpansion(shape, terms)
    if validate and abs(params.mu) > 0:
        dense = to_matrix(state)
        min_eig = float(np.linalg.eigvalsh(dense.matrix)[0])
        if min_eig < -1e-10:
            raise ValueError(
                f"mu-family operator is not positive at {params}: "
                f"min eigenvalue {min_eig:.3e}; reduce |mu| or pass "
                "validate=False to build it as a non-state test operator")
    return state


def is_order_preserving(pi: Sequence[int], mask: int,
                        shape: SystemShape) -> bool:
    """Whether applying ``pi`` to the word's site labels leaves the index
    sequence strictly increasing."""
    return relabel_word(mask, validate_permutation(pi, shape.sites), shape)[2]


def words_up_to_degree(shape: SystemShape, cap: int) -> Iterable[int]:
    """All canonical word bitmasks with degree <= cap (identity included)."""
    nbits = shape.majorana_count
    for degree in range(0, min(cap, nbits) + 1):
        for combo in itertools.combinations(range(nbits), degree):
            mask = 0
            for pos in combo:
                mask |= 1 << pos
            yield mask


def _diameter(values: Iterable[complex]) -> float:
    """max |a - b| over all pairs of the given values (0 for fewer than 2).

    ``np.hypot`` is libm's hypot, as is Python's ``abs`` of a complex, so
    the result is bit-identical to a scalar loop; ``np.abs`` of complex
    values is not (it rounds differently in the last place).
    """
    vals = np.array(list(values), dtype=np.complex128)
    diff = vals[:, None] - vals[None, :]
    return float(np.hypot(diff.real, diff.imag).max())


def _class_report(shape: SystemShape, values: Dict[int, complex],
                  tol: float) -> InvarianceReport:
    """Invariance violations from the expectation of every word up to a
    degree cap (``values`` maps word mask -> tr(rho w)).

    Permutations relabel the sites of a word's nonzero blocks, so:

    * condition (1): order-preserving maps carry no sign and reach exactly
      the words with the same block sequence;
    * condition (2): words even on every site reach, with no sign, exactly
      the words with the same block multiset;
    * full invariance: any word reaches its block multiset, with the sign
      (-1)^(inversions among odd blocks).  Values are normalised to the
      block-sorted order; a class with two equal odd blocks has a
      stabilizer of sign -1, so it holds both signs of every value.

    Each violation is the largest class diameter, which equals the maximum
    of |tr(rho w) - tr(rho pi(w))| over all (word, permutation) pairs.
    """
    width = 2 * shape.modes_per_site
    by_sequence: Dict[Tuple[int, ...], set] = {}
    by_multiset: Dict[Tuple[int, ...], set] = {}
    for mask, val in values.items():
        blocks = site_blocks(mask, width)
        by_sequence.setdefault(blocks, set()).add(val)
        odd = [b for b in blocks if b.bit_count() & 1]
        normalised = by_multiset.setdefault(tuple(sorted(blocks)), set())
        if len(set(odd)) < len(odd):
            normalised.update((val, -val))
        else:
            inversions = sum(a > b for i, a in enumerate(odd)
                             for b in odd[i + 1:])
            normalised.add(-val if inversions & 1 else val)
    cond1 = max(map(_diameter, by_sequence.values()))
    cond2 = full = 0.0
    for key, vals in by_multiset.items():
        diam = _diameter(vals)
        full = max(full, diam)
        if all(b.bit_count() % 2 == 0 for b in key):
            cond2 = max(cond2, diam)
    return InvarianceReport(cond1, cond2, len(values), full < tol, full)


def check_invariance(rho: OperatorExpansion, word_degree_cap: int = 4,
                     tol: float = 1e-9) -> InvarianceReport:
    """Exact check of both invariance conditions on an expansion.

    One pass over every word up to the degree cap, grouped into the
    classes of :func:`_class_report`; no permutation is enumerated.
    """
    words = words_up_to_degree(rho.shape, word_degree_cap)
    return _class_report(rho.shape, {w: rho.expectation(w) for w in words},
                         tol)


def check_invariance_dense(rho: Union[DenseOperator, Isometry],
                           word_degree_cap: int = 4,
                           tol: float = 1e-8) -> InvarianceReport:
    """The exact class check of :func:`check_invariance` on a dense state.

    Used for states only available numerically: a dense matrix, or an
    exact ground space given as an :class:`Isometry` F (the state
    F F-dagger / r, read without forming it).  The word expectations come
    from :func:`word_expectations_dense`, one Walsh-Hadamard transform per
    X pattern that the state's support reaches.
    """
    words = words_up_to_degree(rho.shape, word_degree_cap)
    values = word_expectations_dense(rho.matrix, words, rho.shape,
                                     factor=isinstance(rho, Isometry))
    return _class_report(rho.shape, values, tol)


def lemma3_bound(V: int, p: int, k: int) -> float:
    """Trace-norm suppression bound (2/sqrt(3)) 4^p (k-1)^(3/2) / V."""
    return (2.0 / math.sqrt(3.0)) * (4.0 ** p) * (k - 1) ** 1.5 / V


def verify_lemma3(rho: OperatorExpansion, k: int, tol: float = 1e-9,
                  invariance_tol: float = 1e-9,
                  inv_report: Optional[InvarianceReport] = None,
                  inputs: Optional[Dict[str, object]] = None) -> VerificationReport:
    """Certify the trace-norm suppression bound on the first-k-sites
    reduction.

    lhs = || tr_{>k}(rho) - tr_{>k}(C(rho)) ||_1 with C the even-parity
    channel; rhs is :func:`lemma3_bound`.  The reduction difference is
    assembled symbolically, so a vanishing difference (k = 1, or states
    already even) yields lhs = 0 exactly.
    """
    start = time.perf_counter()
    shape = rho.shape
    V, p = shape.sites, shape.modes_per_site
    problems = []
    if V < 6:
        problems.append(f"V = {V} below the required 6 sites")
    if not 1 <= k < V:
        problems.append(f"k = {k} outside [1, V)")
    if problems:
        raise ValueError("; ".join(problems))
    if inv_report is None:
        inv_report = check_invariance(rho, tol=invariance_tol)
    if inv_report.max_violation() > invariance_tol:
        raise ValueError(
            "state is not permutation invariant: max violation "
            f"{inv_report.max_violation():.3e} > {invariance_tol:.1e}")

    reduced = reduce_expansion(rho, range(1, k + 1))
    diff = reduced - reduced.even_channel()
    if not diff.terms:
        lhs = 0.0
    else:
        lhs = trace_norm(to_matrix(diff))
    rhs = lemma3_bound(V, p, k)
    info: Dict[str, object] = {"V": V, "p": p, "k": k}
    if inputs:
        info.update(inputs)
    return make_report("lemma3", INEQUALITY, info, lhs, rhs, tol,
                       time.perf_counter() - start)
