"""Permutation invariance of fermionic states and the trace-norm
suppression of their locally odd content.

A state is *permutation invariant* when (1) expectation values of every
Majorana word are unchanged under site permutations that preserve the
written order of the word, and (2) expectation values of words with even
Majorana count on every site are unchanged under arbitrary site
permutations.  A state is *fully* invariant when condition (1) holds for
all permutations; the anti-commutation relations then force mixed odd-odd
correlators to vanish, which the weaker definition deliberately avoids.

The class checks are exact and enumerate no permutation.  A site permutation
moves a word's nonzero per-site Majorana blocks between sites, so each
condition says that the expectation is constant on a class of words: the
words with the same block sequence (1), the even-on-every-site words with
the same block multiset (2), and for full invariance all words with the
same block multiset, up to the sign of reordering the odd blocks.

Every word up to a degree cap is covered, but only the words of the
state's support are visited: a word outside it has expectation 0.  The
classes are sized in closed form (C(V, m) placements of a sequence of m
blocks, V!/((V-m)! prod mult!) of a multiset), so a class that the support
fills only in part also holds the value 0, and a class that it does not
touch holds only zeros.

A dense ground space, an :class:`fock.Isometry`, is first tried on the
V - 1 adjacent site transpositions s_i = (i i+1): every permutation is a
product of at most C(V, 2) of them, so C(V, 2) max_i ||s_i rho s_i -
rho||_1 bounds every word violation of every degree.  When that bound is
below the cut the state is certified fully invariant with no word
enumerated; otherwise the class check decides, as it does for every dense
matrix.

The mu family built here is the standard witness separating the two
notions: it is permutation invariant for every mu in [-1, 1] but fully
invariant only at mu = 0.

The Lemma-3 trace norm is read from the odd part of the reduction.  When
that part is a Hermitian quadratic, as every reduction of the mu family's
is, its spectrum is c0 + sum of signed Majorana levels
(:class:`quadratic.QuadraticForm`) and no Fock matrix is built; any other
odd part, one with a quartic word say, goes through the dense matrix.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import (OperatorExpansion, SystemShape, canonicalize_positions,
                      relabel_word, site_blocks, validate_permutation)
from .fock import (DenseOperator, Isometry, reduce_expansion,
                   signed_permutation, to_matrix, trace_norm,
                   word_expectations_dense)
from .quadratic import QuadraticForm
from .report import INEQUALITY, VerificationReport, make_report, vacuous_notes

#: The checks cover every word of degree at most this.
WORD_DEGREE_CAP = 4

#: Largest invariance violation that the preconditions of Lemma 3 and
#: Theorem 1 accept, and the full-invariance cut of :func:`check_invariance`.
INVARIANCE_TOL = 1e-9

#: The cut for dense states: the full-invariance flag of
#: :func:`check_invariance_dense` and the ``verify_gs_bound`` precondition.
DENSE_INVARIANCE_TOL = 1e-8


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
        if not abs(self.mu) <= 1.0:  # NaN fails this form
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
    invariant.  ``checked_words`` is the number of words the check
    covers, sum_{d <= cap} C(2pV, d) with cap :data:`WORD_DEGREE_CAP`, in
    closed form: the words outside the support are covered, not visited.
    ``sampled`` is always false: the check is exact, and the field stays
    because ``invariance.csv`` has a column for it.

    A report that :func:`check_invariance_dense` certified from the site
    transpositions holds their bound B in all three violation fields: an
    upper bound that covers words of every degree, not an exact class
    diameter.
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
    if len(vals) < 2:
        return 0.0
    diff = vals[:, None] - vals[None, :]
    return float(np.hypot(diff.real, diff.imag).max())


def _multiset_size(blocks: Tuple[int, ...], sites: int) -> int:
    """Words with these blocks on distinct sites: V!/((V-m)! prod mult!)."""
    size = math.perm(sites, len(blocks))
    for mult in Counter(blocks).values():
        size //= math.factorial(mult)
    return size


def _class_report(shape: SystemShape, values: Dict[int, complex],
                  tol: float) -> InvarianceReport:
    """Invariance violations from the expectations of the words up to
    :data:`WORD_DEGREE_CAP` (``values`` maps word mask -> tr(rho w); a word
    it does not list has expectation 0).

    Permutations relabel the sites of a word's nonzero blocks, so:

    * condition (1): order-preserving maps carry no sign and reach exactly
      the words with the same block sequence, C(V, m) of them for m
      blocks;
    * condition (2): words even on every site reach, with no sign, exactly
      the words with the same block multiset, V!/((V-m)! prod mult!) of
      them;
    * full invariance: any word reaches its block multiset, with the sign
      (-1)^(inversions among odd blocks), the reordering sign of
      :func:`algebra.canonicalize_positions`.  Values are normalised to the
      block-sorted order; a class with two equal odd blocks has a
      stabilizer of sign -1, so it holds both signs of every value.

    A class with fewer listed words than members also holds 0.0; a class
    with no listed word holds only zeros and has diameter 0.  Each
    violation is the largest class diameter, which equals the maximum of
    |tr(rho w) - tr(rho pi(w))| over all (word, permutation) pairs.
    """
    width = 2 * shape.modes_per_site
    by_sequence: Dict[Tuple[int, ...], set] = {}
    by_multiset: Dict[Tuple[int, ...], set] = {}
    listed_sequence: Counter = Counter()
    listed_multiset: Counter = Counter()
    for mask, val in values.items():
        blocks = site_blocks(mask, width)
        by_sequence.setdefault(blocks, set()).add(val)
        listed_sequence[blocks] += 1
        odd = [b for b in blocks if b.bit_count() & 1]
        key = tuple(sorted(blocks))
        listed_multiset[key] += 1
        normalised = by_multiset.setdefault(key, set())
        if len(set(odd)) < len(odd):
            normalised.update((val, -val))
        else:
            sign, _ = canonicalize_positions(odd)
            normalised.add(-val if sign < 0 else val)
    V = shape.sites
    cond1 = cond2 = full = 0.0
    for blocks, vals in by_sequence.items():
        if listed_sequence[blocks] < math.comb(V, len(blocks)):
            vals.add(0.0)
        cond1 = max(cond1, _diameter(vals))
    for key, vals in by_multiset.items():
        if listed_multiset[key] < _multiset_size(key, V):
            vals.add(0.0)
        diam = _diameter(vals)
        full = max(full, diam)
        if all(b.bit_count() % 2 == 0 for b in key):
            cond2 = max(cond2, diam)
    return InvarianceReport(cond1, cond2, _covered_words(shape), full < tol,
                            full)


def _covered_words(shape: SystemShape) -> int:
    """Words of degree at most :data:`WORD_DEGREE_CAP`:
    sum_{d <= cap} C(2pV, d)."""
    return sum(math.comb(shape.majorana_count, d)
               for d in range(WORD_DEGREE_CAP + 1))


def check_invariance(rho: OperatorExpansion) -> InvarianceReport:
    """Exact check of both invariance conditions on an expansion.

    Covers every word up to :data:`WORD_DEGREE_CAP` but visits only the
    support words of that degree: the classes of :func:`_class_report`
    are sized in closed form, and a word outside the support has
    expectation 0.  :data:`INVARIANCE_TOL` is the full-invariance cut; no
    permutation is enumerated.
    """
    values = {w: rho.expectation(w) for w in rho.terms
              if w.bit_count() <= WORD_DEGREE_CAP}
    return _class_report(rho.shape, values, INVARIANCE_TOL)


def _transposition_bound(ground: Isometry) -> float:
    """C(V, 2) max_i ||s_i rho s_i - rho||_1 over the adjacent site
    transpositions s_i = (i i+1), for rho = F F-dagger / r.

    With G = U_(s_i) F (a gather, :func:`fock.signed_permutation`), the
    singular values of R = G - F (F-dagger G) are the sines of the
    principal angles between the ranges of F and G, so
    ||s_i rho s_i - rho||_1 is exactly 2/r times their sum: one dim x r
    gather and one r-column SVD per transposition, no dim x dim array.  Any
    permutation is a product of at most C(V, 2) of them, and
    U w U-dagger = s canon(pi w), so the bound covers every condition-1,
    condition-2 and full-invariance violation, of every degree.
    """
    shape, f = ground.shape, ground.matrix
    worst = 0.0
    for i in range(1, shape.sites):
        pi = list(range(1, shape.sites + 1))
        pi[i - 1], pi[i] = i + 1, i
        image, sign = signed_permutation(pi, shape)
        g = np.empty_like(f)
        g[image] = sign[:, None] * f
        sines = np.linalg.svd(g - f @ (f.conj().T @ g), compute_uv=False)
        worst = max(worst, 2.0 * float(sines.sum()) / f.shape[1])
    return math.comb(shape.sites, 2) * worst


def check_invariance_dense(rho: Union[DenseOperator, Isometry]
                           ) -> InvarianceReport:
    """The exact class check of :func:`check_invariance` on a dense state,
    fully invariant below :data:`DENSE_INVARIANCE_TOL`, after a
    generator check for an isometry.

    Used for states only available numerically: a dense matrix, or an
    exact ground space given as an :class:`Isometry` F (the state
    F F-dagger / r, read without forming it).  An isometry whose
    :func:`_transposition_bound` B lies below the cut is certified fully
    invariant with no word visited: the three violation fields hold B and
    ``checked_words`` the same closed-form count.  Otherwise, and for
    every :class:`DenseOperator`, the word expectations come from
    :func:`word_expectations_dense`, one Walsh-Hadamard transform per X
    pattern; only the nonzero ones go to the class report.
    """
    if isinstance(rho, Isometry):
        bound = _transposition_bound(rho)
        if bound < DENSE_INVARIANCE_TOL:
            return InvarianceReport(bound, bound, _covered_words(rho.shape),
                                    True, bound)
    words = words_up_to_degree(rho.shape, WORD_DEGREE_CAP)
    values = word_expectations_dense(rho.matrix, words, rho.shape,
                                     factor=isinstance(rho, Isometry))
    return _class_report(rho.shape,
                         {w: v for w, v in values.items() if v != 0},
                         DENSE_INVARIANCE_TOL)


def lemma3_bound(V: int, p: int, k: int) -> float:
    """Trace-norm suppression bound (2/sqrt(3)) 4^p (k-1)^(3/2) / V."""
    return (2.0 / math.sqrt(3.0)) * (4.0 ** p) * (k - 1) ** 1.5 / V


def invariant_reduction(rho: OperatorExpansion, k: int,
                        inv_report: InvarianceReport) -> OperatorExpansion:
    """The first-k reduction of ``rho`` under the preconditions of Lemma 3
    and Theorem 1: V >= 6, 1 <= k < V and ``inv_report`` (the
    :func:`check_invariance` of ``rho``) within :data:`INVARIANCE_TOL`.
    Raises ``ValueError`` naming every unmet one."""
    V = rho.shape.sites
    problems = []
    if V < 6:
        problems.append(f"V = {V} below the required 6 sites")
    if not 1 <= k < V:
        problems.append(f"k = {k} outside [1, V)")
    if problems:
        raise ValueError("; ".join(problems))
    if inv_report.max_violation() > INVARIANCE_TOL:
        raise ValueError(
            "state is not permutation invariant: max violation "
            f"{inv_report.max_violation():.3e} > {INVARIANCE_TOL:.1e}")
    return reduce_expansion(rho, k)


def verify_lemma3(rho: OperatorExpansion, k: int,
                  inv_report: Optional[InvarianceReport] = None,
                  inputs: Optional[Dict[str, object]] = None) -> VerificationReport:
    """Certify the trace-norm suppression bound on the first-k-sites
    reduction.

    lhs = || tr_{>k}(rho) - tr_{>k}(C(rho)) ||_1 with C the even-parity
    channel; rhs is :func:`lemma3_bound`; preconditions as in
    :func:`invariant_reduction`.  The difference is assembled symbolically,
    so a vanishing one yields lhs = 0 exactly, as k = 1 (rhs = 0) must.  A
    quadratic difference is read from its levels
    (:meth:`quadratic.QuadraticForm.trace_norm`), any other from the
    eigenvalues of its dense matrix; the choice rests only on the words
    and coefficients of the difference.  A vacuous rhs is noted
    (:func:`report.vacuous_notes`).  A single CLI run gets the same
    verdict as the suite row.
    """
    start = time.perf_counter()
    V, p = rho.shape.sites, rho.shape.modes_per_site
    if inv_report is None:
        inv_report = check_invariance(rho)
    reduced = invariant_reduction(rho, k, inv_report)
    diff = reduced - reduced.even_channel()
    form = QuadraticForm.from_expansion(diff)
    if not diff.terms:
        lhs = 0.0
    elif form is not None:
        lhs = form.trace_norm()
    else:
        lhs = trace_norm(to_matrix(diff))
    rhs = lemma3_bound(V, p, k)
    report = make_report("lemma3", INEQUALITY,
                         {"V": V, "p": p, "k": k, **(inputs or {})}, lhs,
                         rhs, 1e-9, time.perf_counter() - start,
                         vacuous_notes(rhs))
    if k == 1 and lhs != 0.0:
        report.fail("k=1 reduction must vanish exactly")
    return report
