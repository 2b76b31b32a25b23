"""Fermionic cumulants over even partitions and Fourier-mode central-limit
certification.

Cumulants K_w of a state are defined implicitly through

    tr(rho f^{c_1} ... f^{c_w}) = sum over partitions P of [w] into
        even-sized blocks of  sign(P) * prod_{blocks} K_{|block|}

where sign(P) is the parity of the permutation that sorts the blockwise
concatenation, and f^{+1} = f (annihilation), f^{-1} = f-dagger.  The
module extracts cumulants recursively from moments, exactly mirroring that
definition, and certifies:

* the closed factorized form of Fourier-mode cumulants of V-fold product
  states (direct numerics against the phase-sum formula),
* the delta-rule decoupling of second cumulants,
* the V^{(2-w)/2} suppression of higher Fourier cumulants,
* the Gaussian-mixture deviation metric used by the correlated-state
  central limit corollary.

Ladder operators are never formed as dense matrices, and rho is never
multiplied by anything: ladders are :data:`fock.XorTerms`, a Fourier
ladder being V phased site-ladder terms, and a moment is a product of
terms and one gather (:func:`fock.xor_product`, :func:`fock.xor_trace`).
:class:`LadderMoments` keeps the products of key prefixes and the
cumulants of one state, so overlapping requests share them, and
:class:`FourierMemo` holds one per (single-site state, V) for a sweep of
Fourier cumulants.  :func:`ladder_matrix` is a dense view of the same
terms.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import SystemShape
from .definetti import ProductMixture, product_power
from .fock import (DenseOperator, XorTerms, global_parity_signs,
                   ladder_terms, xor_matrix, xor_product, xor_trace)
from .report import INEQUALITY, PROPERTY, VerificationReport, make_report

#: Tolerance of the central-limit claims on Fourier cumulants: the
#: Lemma-4 equality of direct and closed form, and the suppression bound.
CUMULANT_TOL = 1e-9


@dataclass(frozen=True)
class LadderIndex:
    """One ladder operator: c = +1 annihilation, c = -1 creation, acting on
    ``site`` and mode ``mode``; ``q`` is the optional Fourier label."""

    c: int
    site: int
    mode: int
    q: Optional[int] = None

    def __post_init__(self):
        if self.c not in (1, -1):
            raise ValueError(f"c must be +1 or -1, got {self.c}")

    def triple(self) -> Tuple[int, int, Optional[int]]:
        return (self.c, self.mode, self.q)


def fourier_q_range(V: int) -> range:
    """Admissible Fourier labels: -floor((V-1)/2) .. floor(V/2)."""
    return range(-((V - 1) // 2), V // 2 + 1)


# -- even partitions ----------------------------------------------------------

def _even_partitions_of(positions: Tuple[int, ...]):
    """All partitions of a position tuple into even-sized blocks, each block
    increasing, blocks anchored on their least element."""
    if not positions:
        yield ()
        return
    anchor = positions[0]
    rest = positions[1:]
    for odd_size in range(1, len(rest) + 1, 2):
        for combo in itertools.combinations(rest, odd_size):
            block = (anchor,) + combo
            remaining = tuple(x for x in rest if x not in combo)
            for sub in _even_partitions_of(remaining):
                yield (block,) + sub


def even_partitions(w: int) -> List[Tuple[Tuple[int, ...], ...]]:
    """Exhaustive, duplicate-free even partitions of {1, .., w}."""
    if w % 2 or w < 2:
        raise ValueError(f"even partitions need even w >= 2, got {w}")
    return list(_even_partitions_of(tuple(range(1, w + 1))))


def partition_sign(partition: Sequence[Sequence[int]]) -> int:
    """Sign of the permutation sorting the blockwise concatenation."""
    seq = [x for block in partition for x in block]
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


#: (sign, partition) pairs over the indices 0 .. w-1.
SignedPartitions = Tuple[Tuple[int, Tuple[Tuple[int, ...], ...]], ...]


@functools.lru_cache(maxsize=None)
def _signed_partitions(w: int) -> SignedPartitions:
    """Every even partition of (0, .., w-1) with its sign, in the order of
    :func:`_even_partitions_of`.  The partitions of any increasing tuple of
    w positions are these relabeled, with the same signs."""
    return tuple((partition_sign(part), part)
                 for part in _even_partitions_of(tuple(range(w))))


@functools.lru_cache(maxsize=None)
def _signed_pairings(w: int) -> SignedPartitions:
    """The even partitions of (0, .., w-1) into pairs, in the same order."""
    return tuple((sign, part) for sign, part in _signed_partitions(w)
                 if all(len(block) == 2 for block in part))


# -- moment / cumulant engine --------------------------------------------------

def _cumulant(moment_fn: Callable[[Tuple[Hashable, ...]], complex],
              keys: Tuple[Hashable, ...],
              memo: Dict[Tuple[Hashable, ...], complex]) -> complex:
    """K(keys) = moment(keys) minus, over the even partitions into two or
    more blocks, sign * prod K(block); memoized in ``memo`` by key tuple."""
    hit = memo.get(keys)
    if hit is not None:
        return hit
    total = moment_fn(keys)
    for sign, partition in _signed_partitions(len(keys)):
        if len(partition) == 1:
            continue
        prod = complex(sign)
        for block in partition:
            prod *= _cumulant(moment_fn, tuple(keys[i] for i in block), memo)
        total -= prod
    memo[keys] = total
    return total


def cumulant_from_moment_fn(moment_fn: Callable[[Tuple[int, ...]], complex],
                            w: int) -> complex:
    """Extract the order-w joint cumulant from a subset-moment oracle.

    ``moment_fn`` receives increasing position tuples (0-based into the
    operator list) of even size.
    """
    if w % 2 or w < 2:
        raise ValueError(f"cumulants are defined for even w >= 2, got {w}")
    return _cumulant(moment_fn, tuple(range(w)), {})


def moment_from_cumulant_fn(cumulant_fn: Callable[[Tuple[int, ...]], complex],
                            w: int) -> complex:
    """Recombine cumulants into the order-w moment (consistency oracle)."""
    total = 0.0 + 0.0j
    for sign, partition in _signed_partitions(w):
        prod = complex(sign)
        for block in partition:
            prod *= cumulant_fn(block)
        total += prod
    return total


@functools.lru_cache(maxsize=256)
def fourier_ladder_terms(shape: SystemShape, c: int, mode: int,
                         q: int) -> XorTerms:
    """Fourier ladder (1/sqrt(V)) sum_j exp(2 pi i c q j / V) f_j^c as V
    phased site-ladder terms, one mask per site.  Cached; the arrays are
    read-only."""
    V = shape.sites
    if q not in fourier_q_range(V):
        raise ValueError(f"q = {q} outside {fourier_q_range(V)} for V = {V}")
    sites = [ladder_terms(shape, c, j, mode) for j in range(1, V + 1)]
    phases = np.array([cmath.exp(2j * math.pi * c * q * j / V)
                       for j in range(1, V + 1)])
    masks = np.concatenate([m for m, _ in sites])
    vals = phases[:, None] * np.concatenate([v for _, v in sites]) / math.sqrt(V)
    masks.flags.writeable = vals.flags.writeable = False
    return masks, vals


class LadderMoments:
    """Moments tr(rho L_1 ... L_w) and joint cumulants of ladders on one
    dense state, memoized by ladder key.

    ``ladder`` maps a hashable key to the ladder's :data:`fock.XorTerms`.
    The product of each key tuple is formed once, from the product of its
    prefix (:func:`fock.xor_product`), and kept; a moment is then one
    gather on rho (:func:`fock.xor_trace`).  Cumulants are kept too, so
    requests that overlap share their work.  The memo keeps everything it
    formed: scope it to one computation.
    """

    def __init__(self, rho: np.ndarray,
                 ladder: Callable[[Hashable], XorTerms]):
        self.rho = rho
        self._ladder = ladder
        self._products: Dict[Tuple[Hashable, ...], XorTerms] = {}
        self._cumulants: Dict[Tuple[Hashable, ...], complex] = {}

    def product(self, keys: Tuple[Hashable, ...]) -> XorTerms:
        if not keys:
            raise ValueError("a ladder product needs at least one operator")
        if len(keys) == 1:
            return self._ladder(keys[0])
        hit = self._products.get(keys)
        if hit is None:
            hit = xor_product(self.product(keys[:-1]), self._ladder(keys[-1]))
            self._products[keys] = hit
        return hit

    def moment(self, keys: Tuple[Hashable, ...]) -> complex:
        return xor_trace(self.rho, self.product(keys))

    def cumulant(self, keys: Tuple[Hashable, ...]) -> complex:
        if not keys or len(keys) % 2:
            raise ValueError(f"cumulants are defined for even w >= 2, "
                             f"got {len(keys)}")
        return _cumulant(self.moment, keys, self._cumulants)


def ladder_matrix(shape: SystemShape, c: int, site: int, mode: int) -> np.ndarray:
    """Dense ladder operator f (c = +1) or f-dagger (c = -1) from the two
    Majoranas of the mode: f = (m^(2a-1) + i m^(2a))/2."""
    return xor_matrix(shape, ladder_terms(shape, c, site, mode))


def moment(rho: DenseOperator, ops: Sequence[LadderIndex]) -> complex:
    """tr(rho f^{c_1} ... f^{c_w}) for site-local ladder operators."""
    ladders = [ladder_terms(rho.shape, o.c, o.site, o.mode) for o in ops]
    return LadderMoments(rho.matrix, ladders.__getitem__).moment(
        tuple(range(len(ops))))


def cumulant_mats(rho: np.ndarray, ladders: Sequence[XorTerms]) -> complex:
    """Joint cumulant of ladder operators given as XOR terms
    (:func:`fock.ladder_terms`, :func:`fourier_ladder_terms`)."""
    return LadderMoments(rho, ladders.__getitem__).cumulant(
        tuple(range(len(ladders))))


class FourierMemo:
    """:class:`LadderMoments` of V-fold copies of single-site states, one
    per (state, V), with the Fourier ladders keyed (c, mode, q); at V = 1
    the copy is the state and the ladders are its site ladders.  States are
    keyed by value.  The memo keeps every copy it builds: scope it to one
    computation, such as one suite."""

    def __init__(self):
        self._moments: Dict[tuple, LadderMoments] = {}

    def moments(self, rho_single: DenseOperator, V: int) -> LadderMoments:
        key = (rho_single.shape, rho_single.matrix.tobytes(), V)
        hit = self._moments.get(key)
        if hit is None:
            power = product_power(rho_single, V)
            hit = LadderMoments(power.matrix, lambda k: fourier_ladder_terms(
                power.shape, *k))
            self._moments[key] = hit
        return hit


# -- Fourier cumulants of product states ---------------------------------------

@dataclass(frozen=True)
class FourierCumulantResult:
    """Direct and closed-form Fourier cumulants of a V-fold product state."""

    direct: complex
    closed_form: complex
    single_site_cumulant: complex
    distinct_triples: bool
    resonant: bool


def _phase_sum(total_q: int, V: int) -> complex:
    """sum_{j=1..V} exp(2 pi i total_q j / V)."""
    return sum(cmath.exp(2j * math.pi * total_q * j / V)
               for j in range(1, V + 1))


def fourier_cumulant(rho_single: DenseOperator, V: int,
                     ops: Sequence[LadderIndex],
                     memo: FourierMemo) -> FourierCumulantResult:
    """Cumulant of the V-fold copy of a single-site state in Fourier modes.

    Computes the direct value on the full 2^(pV) space, which raises
    :class:`fock.ResourceCapError` over the mode cap, the single-site
    cumulant K_w on the memo's V = 1 copy, and the closed factorized
    prediction V^(-w/2) * K_w(single site) * sum_j exp(2 pi i sum_l c_l q_l
    j / V).  ``memo`` holds the copies, ladder products and cumulants that
    calls share.  The result flags whether the (c, mode, q) triples are
    distinct, the hypothesis of the closed form; it is not checked here.
    """
    if rho_single.shape.sites != 1:
        raise ValueError("rho_single must live on a single site")
    w = len(ops)
    if w % 2 or w < 2:
        raise ValueError(f"cumulants are defined for even w >= 2, got {w}")
    for o in ops:
        if o.q is None:
            raise ValueError("Fourier cumulants need q labels on every index")
        if o.q not in fourier_q_range(V):
            raise ValueError(f"q = {o.q} outside range for V = {V}")

    triples = tuple(o.triple() for o in ops)
    k_single = memo.moments(rho_single, 1).cumulant(
        tuple((c, mode, 0) for c, mode, _ in triples))
    total_q = sum(o.c * o.q for o in ops)
    phase_sum = _phase_sum(total_q, V)
    closed = (V ** (-w / 2.0)) * k_single * phase_sum
    resonant = total_q % V == 0
    direct = memo.moments(rho_single, V).cumulant(triples)
    return FourierCumulantResult(direct, complex(closed), complex(k_single),
                                 len(set(triples)) == len(triples), resonant)


def verify_suppression(rho_single: DenseOperator, V: int,
                       ops: Sequence[LadderIndex],
                       result: FourierCumulantResult) -> VerificationReport:
    """Certify |K_w(Fourier modes of the V-fold copy)| <=
    V^((2-w)/2) |K_w(single site)|, within :data:`CUMULANT_TOL`, on
    ``result = fourier_cumulant(rho_single, V, ops, memo)``; the caller
    times the claim, cumulant included."""
    w = len(ops)
    if w <= 2:
        raise ValueError("suppression concerns cumulant orders w > 2")
    lhs = abs(result.direct)
    rhs = (V ** ((2.0 - w) / 2.0)) * abs(result.single_site_cumulant)
    notes = []
    if not result.distinct_triples:
        notes.append("repeated (c, mode, q) triples: outside the factorized "
                     "regime, checked numerically only")
    if result.resonant:
        notes.append("resonant phase sum")
    p = rho_single.shape.modes_per_site
    return make_report("hudson-suppression", INEQUALITY,
                       {"V": V, "p": p, "w": w}, lhs, rhs, CUMULANT_TOL,
                       notes=notes)


# -- Gaussian-mixture deviation metric (correlated-state CLT) -------------------

def wick_moment(pair_value: Callable[[int, int], complex],
                positions: Tuple[int, ...]) -> complex:
    """Moment of a Gaussian state from its pair values: the sum over
    pairings of ``positions`` (taken in that order) of sign * prod
    pair_value(i, j)."""
    if len(positions) % 2:
        return 0.0
    if not positions:
        return 1.0
    total = 0.0 + 0.0j
    for sign, pairing in _signed_pairings(len(positions)):
        term = complex(sign)
        for i, j in pairing:
            term *= pair_value(positions[i], positions[j])
        total += term
    return total


def gaussian_mixture_deviation(rho_k: DenseOperator, mixture: ProductMixture,
                               ops: Sequence[LadderIndex]) -> Tuple[complex, complex]:
    """Direct Fourier cumulant of ``rho_k`` against the prediction of the
    matching mixture of Gaussian states.

    Each mixture component is replaced by the Gaussian state with the same
    second Fourier moments; the predicted cumulant is extracted from the
    weighted Wick moments.  Returns (direct, predicted).  Raises
    ``ValueError`` when a component has a nonzero odd entry.
    """
    shape = rho_k.shape
    k, p = shape.sites, shape.modes_per_site
    ladders = [fourier_ladder_terms(shape, o.c, o.mode, o.q) for o in ops]
    direct = cumulant_mats(rho_k.matrix, ladders)

    # For an even site state xi the cross-site terms of tr(xi^(x k) A_i A_j)
    # vanish and the Jordan-Wigner strings cancel, leaving one site:
    # (1/k) sum_s exp(2 pi i (c_i q_i + c_j q_j) s / k) tr(xi f_i f_j).
    signs = global_parity_signs(SystemShape(1, p))
    odd = signs[:, None] != signs[None, :]
    index_pairs = [(i, j) for i in range(len(ops))
                   for j in range(i + 1, len(ops))]
    phases = {(i, j): _phase_sum(ops[i].c * ops[i].q + ops[j].c * ops[j].q,
                                 k) / k
              for i, j in index_pairs}
    site_ops = [LadderIndex(o.c, 1, o.mode) for o in ops]
    comp_pairs: List[Dict[Tuple[int, int], complex]] = []
    for xi in mixture.components:
        if np.any(xi.matrix[odd]):
            raise ValueError("Gaussian-mixture pair values need even "
                             "mixture components")
        comp_pairs.append({(i, j): phases[i, j] * moment(
            xi, [site_ops[i], site_ops[j]]) for i, j in index_pairs})

    weights = np.asarray(mixture.weights, dtype=float)

    def predicted_moment(positions: Tuple[int, ...]) -> complex:
        total = 0.0 + 0.0j
        for a, pairs in zip(weights, comp_pairs):
            total += a * wick_moment(lambda i, j: pairs[(i, j)], positions)
        return total

    predicted = cumulant_from_moment_fn(predicted_moment, len(ops))
    return direct, predicted


def corollary_index_sets(k: int, p: int) -> List[Tuple[LadderIndex, ...]]:
    """Deterministic degree-4 Fourier index sample on a k-site system:
    one resonant plus, when one exists, one off-resonant distinct-triple
    choice.  The site field of the indices is unused for Fourier modes."""
    q_hi = max(fourier_q_range(k))
    sets: List[Tuple[LadderIndex, ...]] = []
    if p == 1:
        sets.append((LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
                     LadderIndex(-1, 1, 1, q_hi), LadderIndex(1, 1, 1, q_hi)))
        if k >= 3:
            off = (LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
                   LadderIndex(-1, 1, 1, 1), LadderIndex(1, 1, 1, -1))
            sets.append(off)
    else:
        sets.append((LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
                     LadderIndex(-1, 1, 2, 0), LadderIndex(1, 1, 2, 0)))
        off = (LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
               LadderIndex(-1, 1, 2, q_hi), LadderIndex(1, 1, 2, 0))
        sets.append(off)
    for ops in sets[1:]:
        assert sum(o.c * o.q for o in ops) % k != 0
    return sets


def verify_corollary(rho_k: DenseOperator, mixture: ProductMixture, V: int,
                     ops_sets: Optional[Sequence[Sequence[LadderIndex]]] = None
                     ) -> VerificationReport:
    """Report the Gaussian-mixture deviation of a k-site reduction against
    the reference rate 1/k + k^(3/2)/V.

    No absolute constant is claimed; the report records the empirical ratio
    and the sweep driver applies the scaling (slope) gate and times the
    claim, witness search included.
    """
    shape = rho_k.shape
    k, p = shape.sites, shape.modes_per_site
    if ops_sets is None:
        ops_sets = corollary_index_sets(k, p)
    metric = 0.0
    for ops in ops_sets:
        direct, predicted = gaussian_mixture_deviation(rho_k, mixture, ops)
        metric = max(metric, abs(direct - predicted))
    rate = 1.0 / k + k ** 1.5 / V
    notes = [f"empirical constant {metric / rate:.6g}",
             "property-based: scaling gate applied by the sweep driver"]
    report = VerificationReport("corollary", PROPERTY,
                                {"V": V, "p": p, "k": k,
                                 "sets": len(ops_sets)},
                                float(metric), float(rate), 0.0, True,
                                notes=notes)
    return report

