"""Fermionic cumulants over even partitions and Fourier-mode central-limit
certification.

Cumulants K_w of a state are defined implicitly through

    tr(rho f^{c_1} ... f^{c_w}) = sum over partitions P of [w] into
        even-sized blocks of  sign(P) * prod_{blocks} K_{|block|}

where sign(P) is the parity of the permutation that sorts the blockwise
concatenation, and f^{+1} = f (annihilation), f^{-1} = f-dagger.  The
module extracts cumulants from moments by the recursion that groups those
partitions by the block holding the first position, and certifies:

* the closed factorized form of Fourier-mode cumulants of V-fold product
  states (direct numerics against the phase-sum formula),
* the delta-rule decoupling of second cumulants,
* the V^{(2-w)/2} suppression of higher Fourier cumulants,
* the Gaussian-mixture deviation metric used by the correlated-state
  central limit corollary, whose predicted fourth cumulant is the
  closed-form signed covariance of the components' pair values.

Moments have two routes, and the state's type picks one.  A product
mixture sum_l a_l xi_l^(x V) of even site states (:class:`ProductState`)
goes through the site program (:func:`site_moments`): a pass over the V
sites whose state is the set of ladders already placed, each site
taking an even subset with its local moment, its phases and the sign of
the ladders it passes.  It costs O(V 3^w) per row and builds no
Fock-space array, so it has no mode cap; :func:`fourier_cumulant` and
the product rows of the corollary read their direct cumulants from it.
A dense state, such as a reduction of the mu family, goes through
:func:`cumulant_mats` with dense Fourier ladders.

Both routes end in one moment kernel, :func:`_row_moments`: ladders are
a stack of dense matrices and rows index into it.  The distinct rows are
dictionary keys, whatever their length, multiplied out together by one
batched ``@`` per column and read by one trace ``einsum``.  The site
program's local moments and the Gaussian-mixture pair values run it on
the single-site state, with dense site ladders of :func:`ladder`,
so the product mixtures' moments multiply only matrices of dimension
2^p; the single-site cumulants K_w are read from the same local moments.

Ladders are expansions (:func:`ladder`, :func:`fourier_ladder`), made
dense by :func:`fock.to_matrices` like any other.  The one ladder index
type is :class:`LadderIndex`, the Fourier ladder (c, mode, q); dense
site ladders are read only on a single site.  Cumulants are array
arithmetic on the moments of every even sub-tuple of every row,
by the first-position recursion (:func:`_cumulant_rows`), so
:func:`fourier_cumulant` computes a whole case list in one stacked pass
and keeps nothing after it returns; :func:`cumulant_mats` is the dense
route, and the only cumulant API: there is no callback form.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import OperatorExpansion, SystemShape, canonicalize_positions
from .definetti import ProductMixture
from .fock import DenseOperator, global_parity_signs, to_matrices, to_matrix
from .report import INEQUALITY, PROPERTY, VerificationReport, make_report

#: Tolerance of the central-limit claims on Fourier cumulants: the
#: Lemma-4 equality of direct and closed form, and the suppression bound.
CUMULANT_TOL = 1e-9


@dataclass(frozen=True)
class LadderIndex:
    """One Fourier ladder (1/sqrt(V)) sum_j exp(2 pi i c q j / V) f_j^c:
    c = +1 annihilation, c = -1 creation, on mode ``mode`` of every site,
    with Fourier label ``q``.  Frozen, so an instance is its own dict key."""

    c: int
    mode: int
    q: int

    def __post_init__(self):
        if self.c not in (1, -1):
            raise ValueError(f"c must be +1 or -1, got {self.c}")


def fourier_q_range(V: int) -> range:
    """Admissible Fourier labels: -floor((V-1)/2) .. floor(V/2)."""
    return range(-((V - 1) // 2), V // 2 + 1)


# -- moment / cumulant engine --------------------------------------------------

def _row_moments(rho: np.ndarray, ladders: np.ndarray, rows) -> np.ndarray:
    """tr(rho L_(r_1) ... L_(r_k)) for each row r of an (n, k) index array,
    k >= 1, into the stacked dense ladders L, an (m, d, d) array, one entry
    per row.

    Equal rows are read once: the distinct rows, dictionary keys however
    long they are, are multiplied out together, one batched ``@`` per
    column, and read by one trace ``einsum``.
    """
    distinct: Dict[Tuple[int, ...], int] = {}
    inverse = [distinct.setdefault(row, len(distinct))
               for row in map(tuple, np.asarray(rows).tolist())]
    keys = np.array(list(distinct), dtype=np.int64).T
    prod = ladders[keys[0]]
    for col in keys[1:]:
        prod = prod @ ladders[col]
    return np.einsum("ab,nba->n", rho, prod)[inverse]


def _cumulant_rows(moments: Dict[Tuple[int, ...], np.ndarray],
                   w: int) -> np.ndarray:
    """Order-w cumulants from the moments of every even sub-tuple of
    positions, given as row arrays keyed by increasing position tuple; w
    is even and at least 2.

    The even partitions of a sub-tuple S, grouped by the block B that
    holds S's first position, give the moment-cumulant recursion
    moment(S) = sum_B sign(B, S - B) K(B) moment(S - B), with sign that of
    sorting B followed by the rest (:func:`algebra.canonicalize_positions`)
    and K(S) the term B = S.  So K is formed only for the sub-tuples that
    hold position 0, from the smallest up; at w = 4 it is
    m_0123 - m_01 m_23 + m_02 m_13 - m_03 m_12, since K of a pair is its
    moment.
    """
    cumulants: Dict[Tuple[int, ...], np.ndarray] = {}
    for k in range(2, w + 1, 2):
        for others in itertools.combinations(range(1, w), k - 1):
            total = moments[(0,) + others]
            for size in range(1, k - 1, 2):
                for combo in itertools.combinations(others, size):
                    block = (0,) + combo
                    rest = tuple(x for x in others if x not in combo)
                    sign = canonicalize_positions(block + rest)[0]
                    total = total - sign * cumulants[block] * moments[rest]
            cumulants[(0,) + others] = total
    return cumulants[tuple(range(w))]


def ladder(shape: SystemShape, c: int, site: int,
           mode: int) -> OperatorExpansion:
    """Site ladder f (c = +1) or f-dagger (c = -1) of ``mode`` on ``site``,
    (m^(2a-1) + i c m^(2a))/2; ``ValueError`` unless c is +1 or -1."""
    if c not in (1, -1):
        raise ValueError(f"c must be +1 or -1, got {c}")
    return OperatorExpansion(shape, {
        1 << shape.bit_position(site, 2 * mode - 1): 0.5,
        1 << shape.bit_position(site, 2 * mode): 0.5j * c})


def fourier_ladder(shape: SystemShape, o: LadderIndex) -> OperatorExpansion:
    """Fourier ladder (1/sqrt(V)) sum_j exp(2 pi i c q j / V) f_j^c: the
    words of the V site ladders (:func:`ladder`), each phased.  Raises
    ``ValueError`` on a q outside :func:`fourier_q_range`."""
    V = shape.sites
    if o.q not in fourier_q_range(V):
        raise ValueError(f"q = {o.q} outside {fourier_q_range(V)} for V = {V}")
    scale = 1 / math.sqrt(V)
    return OperatorExpansion(shape, {
        mask: cmath.exp(2j * math.pi * o.c * o.q * j / V) * scale * coeff
        for j in range(1, V + 1)
        for mask, coeff in ladder(shape, o.c, j, o.mode).terms.items()})


def ladder_matrix(shape: SystemShape, c: int, site: int, mode: int) -> np.ndarray:
    """Dense site ladder, the matrix of :func:`ladder`: the ladders of
    :func:`site_moments` and of the Gaussian-mixture pair values."""
    return to_matrix(ladder(shape, c, site, mode)).matrix


def cumulant_mats(rho: np.ndarray, ladders: Sequence[np.ndarray]) -> complex:
    """Joint cumulant of dense ladder operators (:func:`ladder_matrix`, or
    the :func:`fock.to_matrices` stack of :func:`fourier_ladder`
    expansions): the moments of each even sub-tuple length are one
    :func:`_row_moments` call."""
    w = len(ladders)
    if w % 2 or w < 2:
        raise ValueError(f"cumulants are defined for even w >= 2, got {w}")
    stacked = np.stack(ladders)
    moments = {}
    for k in range(2, w + 1, 2):
        subsets = list(itertools.combinations(range(w), k))
        moments.update(zip(subsets, _row_moments(rho, stacked, subsets)))
    return complex(_cumulant_rows(moments, w))


# -- the site program: moments of product mixtures -----------------------------

@dataclass(frozen=True, eq=False)
class ProductState:
    """The state sum_l a_l xi_l^(x sites) of a :class:`definetti.ProductMixture`
    on ``sites`` sites, held as the mixture: no Fock-space array."""

    mixture: ProductMixture
    sites: int

    @property
    def shape(self) -> SystemShape:
        p = self.mixture.components[0].shape.modes_per_site
        return SystemShape(self.sites, p)


def _require_even(mixture: ProductMixture, need: str):
    """Raise ``ValueError`` when a component of ``mixture`` has a nonzero
    odd entry."""
    p = mixture.components[0].shape.modes_per_site
    signs = global_parity_signs(SystemShape(1, p))
    odd = signs[:, None] != signs[None, :]
    if any(np.any(xi.matrix[odd]) for xi in mixture.components):
        raise ValueError(f"{need} need even mixture components")


@functools.lru_cache(maxsize=None)
def _site_moves(k: int):
    """The moves of :func:`site_moments` on k ladders, over the even subsets
    of their positions, as bitmasks in ascending order: a site that finds
    the subset S placed takes an even subset T disjoint from it, with the
    sign (-1)^(the number of (i, j), i in T, j in S, j > i).  Returns the
    even subsets, the slots of S and of T of every move and its sign,
    moves sorted by the slot of S | T, and where each slot's run of moves
    starts.  Read-only."""
    evens = [m for m in range(1 << k) if m.bit_count() % 2 == 0]
    slot = {m: i for i, m in enumerate(evens)}
    moves = sorted(
        (slot[placed | took], slot[placed], slot[took],
         (-1.0) ** sum((placed >> (i + 1)).bit_count()
                       for i in range(k) if took >> i & 1))
        for placed in evens for took in evens if not placed & took)
    dst, src, took, sign = (np.array(col) for col in zip(*moves))
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    for a in (src, took, sign, starts):
        a.flags.writeable = False
    return evens, src, took, sign, starts


def site_moments(state: ProductState, ladders: Sequence[LadderIndex],
                 rows) -> Tuple[Dict, Dict]:
    """(local, moments) of each row r of an (n, k) index array into the
    Fourier ``ladders`` on the product state ``rho``, keyed by the even
    sub-tuples (i < .. < j) of positions, as :func:`_cumulant_rows` reads
    them: tr(rho F_(r_i) ... F_(r_j)), and the (components, n) single-site
    moments tr(xi_l f_(r_i) ... f_(r_j)) the pass starts from.

    The site program.  A Fourier ladder is V^(-1/2) sum_s phi(s) f_s with
    phi(s) = exp(2 pi i c q s / V).  Sorting a product of site ladders
    by site costs (-1) per pair out of site order, and on an even product
    state the sorted product's trace is the product over sites of each
    site's local moment tr(xi prod_(i in T) f_i), which vanishes for odd
    T.  So one pass over the sites 1 .. V, whose state is the subset of
    positions already placed, sums every assignment of ladders to sites:
    a site that takes the even subset T multiplies by its local moment,
    by prod_(i in T) phi_i(s), and by the sign of :func:`_site_moves`.
    The pass ends with every placed subset at once, so it reads the
    moments of all sub-tuples.  O(V 3^k) per row and component, the rows
    and components stacked; the local moments are one
    :func:`_row_moments` call per component and sub-tuple length, on the
    single-site state and the stacked site ladders of
    :func:`ladder_matrix`, so each distinct single-site word is one
    product of dimension-2^p matrices per component.  Raises ``ValueError``
    on a component with a nonzero odd entry, where the factorization
    fails, and on a q outside :func:`fourier_q_range`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n, k = rows.shape
    V = state.sites
    site = SystemShape(1, state.shape.modes_per_site)
    components = state.mixture.components
    _require_even(state.mixture, "site moments")
    for o in ladders:
        if o.q not in fourier_q_range(V):
            raise ValueError(f"q = {o.q} outside range for V = {V}")
    evens, src, took, sign, starts = _site_moves(k)
    subsets = [tuple(i for i in range(k) if m >> i & 1) for m in evens]

    # local[l, r, e]: tr(xi_l prod_(i in subsets[e]) f_(r_i)) on one site.
    letters: Dict[Tuple[int, int], int] = {}
    words = np.array([letters.setdefault((o.c, o.mode), len(letters))
                      for o in ladders], dtype=np.int64)[rows]
    site_ladders = np.stack([ladder_matrix(site, c, 1, mode)
                             for c, mode in letters])
    local = np.empty((len(components), n, len(evens)), dtype=np.complex128)
    local[:, :, 0] = np.array([np.trace(xi.matrix)
                               for xi in components])[:, None]
    for size in range(2, k + 1, 2):
        cols = [e for e, sub in enumerate(subsets) if len(sub) == size]
        read = words[:, [subsets[e] for e in cols]].reshape(-1, size)
        for out, xi in zip(local, components):
            out[:, cols] = _row_moments(xi.matrix, site_ladders,
                                        read).reshape(n, len(cols))

    # total_q[r, e] = sum_(i in subsets[e]) c_i q_i of row r.
    cq = np.array([o.c * o.q for o in ladders], dtype=np.int64)[rows]
    total_q = np.stack([cq[:, list(sub)].sum(axis=1) for sub in subsets],
                       axis=1)
    placed = np.zeros_like(local)
    placed[:, :, 0] = 1.0
    for s in range(1, V + 1):
        step = local * np.exp(2j * math.pi * (s * total_q % V) / V)
        placed = np.add.reduceat(placed[:, :, src] * step[:, :, took] * sign,
                                 starts, axis=2)
    weights = np.asarray(state.mixture.weights, dtype=float)
    moments = (weights[:, None, None] * placed).sum(axis=0)
    return ({sub: local[:, :, e] for e, sub in enumerate(subsets) if sub},
            {sub: moments[:, e] * V ** (-len(sub) / 2.0)
             for e, sub in enumerate(subsets) if sub})


# -- Fourier cumulants of product states ---------------------------------------

@dataclass(frozen=True)
class FourierCumulantResult:
    """Direct and closed-form Fourier cumulants of a V-fold product state,
    arrays with one entry per case."""

    direct: np.ndarray
    closed_form: np.ndarray
    single_site_cumulant: np.ndarray
    distinct_triples: np.ndarray
    resonant: np.ndarray


def _phase_sum(total_q: np.ndarray, V: int) -> np.ndarray:
    """sum_{j=1..V} exp(2 pi i total_q j / V) for each entry of an integer
    array."""
    j = np.arange(1, V + 1)
    return np.exp(2j * math.pi * total_q[:, None] * j / V).sum(axis=1)


def fourier_cumulant(rho_single: DenseOperator, V: int,
                     cases: Sequence[Sequence[LadderIndex]]
                     ) -> FourierCumulantResult:
    """Cumulants of the V-fold copy of an even single-site state in
    Fourier modes, for each case of one order w.

    Computes the direct values from the moments of the site program
    (:func:`site_moments`), which builds no Fock-space array and so has
    no mode cap, the single-site cumulants K_w from its local moments
    (the program's moments at V = 1), and the closed factorized predictions
    V^(-w/2) * K_w(single site) * sum_j exp(2 pi i sum_l c_l q_l j / V),
    each side in one stacked pass over the cases.  The result flags
    whether each case's (c, mode, q) triples are distinct, the hypothesis
    of the closed form; it is not checked here.  Raises ``ValueError`` on
    a state with a nonzero odd entry, whose copy does not factorize over
    the sites.
    """
    if rho_single.shape.sites != 1:
        raise ValueError("rho_single must live on a single site")
    if not cases:
        raise ValueError("fourier_cumulant needs at least one case")
    w = len(cases[0])
    if any(len(ops) != w for ops in cases):
        raise ValueError("the cases of one call need one order w")
    if w % 2 or w < 2:
        raise ValueError(f"cumulants are defined for even w >= 2, got {w}")
    index: Dict[LadderIndex, int] = {}
    rows = np.array([[index.setdefault(o, len(index)) for o in ops]
                     for ops in cases], dtype=np.int64)
    product = ProductState(ProductMixture(np.ones(1), (rho_single,)), V)
    local, moments = site_moments(product, list(index), rows)
    direct = _cumulant_rows(moments, w)
    k_single = _cumulant_rows(local, w)[0]
    total_q = np.array([o.c * o.q for o in index], dtype=np.int64)[
        rows].sum(axis=1)
    closed = (V ** (-w / 2.0)) * k_single * _phase_sum(total_q, V)
    ordered = np.sort(rows, axis=1)
    distinct = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
    return FourierCumulantResult(direct, closed, k_single, distinct,
                                 total_q % V == 0)


def verify_suppression(rho_single: DenseOperator, V: int,
                       ops: Sequence[LadderIndex],
                       result: FourierCumulantResult) -> VerificationReport:
    """Certify |K_w(Fourier modes of the V-fold copy)| <=
    V^((2-w)/2) |K_w(single site)|, within :data:`CUMULANT_TOL`, on the
    one-case ``result = fourier_cumulant(rho_single, V, [ops])``; the
    caller times the claim, cumulant included."""
    w = len(ops)
    if w <= 2:
        raise ValueError("suppression concerns cumulant orders w > 2")
    lhs = abs(result.direct.item())
    rhs = (V ** ((2.0 - w) / 2.0)) * abs(result.single_site_cumulant.item())
    notes = []
    if not result.distinct_triples.item():
        notes.append("repeated (c, mode, q) triples: outside the factorized "
                     "regime, checked numerically only")
    if result.resonant.item():
        notes.append("resonant phase sum")
    p = rho_single.shape.modes_per_site
    return make_report("hudson-suppression", INEQUALITY,
                       {"V": V, "p": p, "w": w}, lhs, rhs, CUMULANT_TOL,
                       notes=notes)


# -- Gaussian-mixture deviation metric (correlated-state CLT) -------------------

def gaussian_mixture_deviation(rho_k: Union[DenseOperator, ProductState],
                               mixture: ProductMixture,
                               ops: Sequence[LadderIndex]) -> Tuple[complex, complex]:
    """Direct fourth Fourier cumulant of ``rho_k`` against the prediction
    of the matching mixture of Gaussian states.

    The direct value of a dense ``rho_k`` is :func:`cumulant_mats` on its
    four Fourier ladders (:func:`fourier_ladder`), built in one
    :func:`fock.to_matrices` call; that of a :class:`ProductState` comes
    from the site program (:func:`site_moments`), with no Fock-space
    array.  The pair values are one :func:`_row_moments` call per
    component, on the site state and the four site ladders
    (:func:`ladder`), built in one :func:`fock.to_matrices` call.

    Each mixture component is replaced by the Gaussian state with the same
    second Fourier moments, its pair values P(i, j).  A Gaussian state has
    no cumulants above order 2, so by the law of total cumulance the
    mixture's K_4 is the signed sum, over the three pairings {x, y} of the
    four ladders, 01|23, 02|13 and 03|12 with the signs +1, -1, +1 of
    their concatenations' parities, of the weighted covariance of the pair
    values:

        predicted = sum sign * (E_a[P_x P_y] - E_a[P_x] E_a[P_y]),

    with E_a the mean over components under the mixture weights.  Returns
    (direct, predicted).  Raises ``ValueError`` unless ``ops`` has four
    ladders, and when a component has a nonzero odd entry.
    """
    if len(ops) != 4:
        raise ValueError(f"the Gaussian-mixture deviation is a fourth "
                         f"cumulant, got {len(ops)} ladders")
    shape = rho_k.shape
    k, p = shape.sites, shape.modes_per_site
    if isinstance(rho_k, DenseOperator):
        direct = cumulant_mats(rho_k.matrix, to_matrices(
            [fourier_ladder(shape, o) for o in ops]))
    else:
        _, moments = site_moments(rho_k, ops, [range(4)])
        direct = complex(_cumulant_rows(moments, 4)[0])

    # For an even site state xi the cross-site terms of tr(xi^(x k) A_i A_j)
    # vanish and the Jordan-Wigner strings cancel, leaving one site:
    # (1/k) sum_s exp(2 pi i (c_i q_i + c_j q_j) s / k) tr(xi f_i f_j).
    site = SystemShape(1, p)
    index_pairs = list(itertools.combinations(range(4), 2))
    phases = _phase_sum(np.array([ops[i].c * ops[i].q + ops[j].c * ops[j].q
                                  for i, j in index_pairs]), k) / k
    _require_even(mixture, "Gaussian-mixture pair values")
    site_ladders = to_matrices([ladder(site, o.c, 1, o.mode) for o in ops])
    pairs = np.array([phases * _row_moments(xi.matrix, site_ladders,
                                            index_pairs)
                      for xi in mixture.components])
    weights = np.asarray(mixture.weights, dtype=float)
    predicted = 0.0 + 0.0j
    for sign, x, y in ((1, (0, 1), (2, 3)), (-1, (0, 2), (1, 3)),
                       (1, (0, 3), (1, 2))):
        px = pairs[:, index_pairs.index(x)]
        py = pairs[:, index_pairs.index(y)]
        predicted += sign * (weights @ (px * py)
                             - (weights @ px) * (weights @ py))
    return direct, complex(predicted)


def corollary_index_sets(k: int, p: int) -> List[Tuple[LadderIndex, ...]]:
    """Deterministic degree-4 Fourier index sample on a k-site system:
    one resonant plus, when one exists, one off-resonant distinct-triple
    choice.  At p = 1 both start with (F_0-dagger, F_0), equal in their
    m^1 parts, so K_4 cancels on any state with only m^1 pair terms (the
    mu family): its cumulants sit on four distinct sites, antisymmetric."""
    q_hi = max(fourier_q_range(k))
    sets: List[Tuple[LadderIndex, ...]] = []
    if p == 1:
        sets.append((LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
                     LadderIndex(-1, 1, q_hi), LadderIndex(1, 1, q_hi)))
        if k >= 3:
            off = (LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
                   LadderIndex(-1, 1, 1), LadderIndex(1, 1, -1))
            sets.append(off)
    else:
        sets.append((LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
                     LadderIndex(-1, 2, 0), LadderIndex(1, 2, 0)))
        off = (LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
               LadderIndex(-1, 2, q_hi), LadderIndex(1, 2, 0))
        sets.append(off)
    return sets


def verify_corollary(rho_k: Union[DenseOperator, ProductState],
                     mixture: ProductMixture, V: int,
                     ops_sets: Optional[Sequence[Sequence[LadderIndex]]] = None
                     ) -> VerificationReport:
    """Report the Gaussian-mixture deviation of a k-site state against the
    reference rate 1/k + k^(3/2)/V.

    The state is a dense reduction, or a product mixture on k sites
    (:class:`ProductState`), whose direct cumulants come from the site
    program and which raises ``ValueError`` on a component with a nonzero
    odd entry.  The metric is the largest |direct - predicted| fourth
    cumulant of :func:`gaussian_mixture_deviation` over ``ops_sets``, each
    a set of four Fourier ladders (default :func:`corollary_index_sets`).  No
    absolute constant is claimed; the report records the empirical ratio
    and the sweep driver applies the scaling (slope) gate and times the
    claim.
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

