"""Convex mixtures of mode product states and the reduction-approximation
certificate.

The main entry point, :func:`verify_theorem1`, certifies that the first-k
reduction of a permutation-invariant state is within the stated trace-norm
bound of a convex mixture sum_l a_l xi_l^(x k) of k-fold copies of
single-site states.  The witness mixture is produced by
:func:`best_mixture_approx`: alternating minimization with projected
subgradient steps on the weight simplex and derivative-free coordinate
descent on the single-site components.  Components are parametrized inside
the even (parity-superselected) sector by construction, diagonal occupation
for one mode per site and a Gibbs form over even Hermitian generators
otherwise, so every witness is automatically a physical state.

The search works on the even and odd global-parity blocks of the target,
on the sectors of :func:`fock.parity_sectors`.  Every component is exactly
even, so every mixture commutes with global parity and its distance to a
target that does too is the sum of two half-size block trace norms.  The target must have exactly zero entries
between the two sectors; :func:`best_mixture_approx` raises otherwise,
because blockwise norms would understate the distance.  At one mode per
site a k-fold power is diagonal with the closed-form entries
alpha^(k-h) (1-alpha)^h at Hamming weight h (:func:`hamming_power`), so the
search builds no tensor powers there.

The certificate is two-sided.  The witness distance is an upper bound on
the true minimum over product mixtures, the right direction for
certification: a pass is a genuine certificate.  Trace-norm duality gives
the matching lower bound (:func:`dual_lower_bound`): the per-site parity
twirl C fixes every mixture of even product states, so for the residual's
sign matrix S and Y = S - C(S), every mixture M' has
||R - M'||_1 >= |tr(Y R)| / ||Y||_inf.  The search stops as soon as the two
bounds meet to :data:`STOP_GAP`, which proves the witness optimal, and a
lower bound above the stated bound refutes it whatever the search found.
The lower bound is 0 when C fixes the target (a diagonal target at one
mode per site); the search then runs its full course.

Every command runs the search at one budget: r = 2p + 2 components and
:data:`STARTS` starts of at most :data:`WEIGHT_STEPS` weight steps.  It
builds only what the start it has reached reads: the random starts are
drawn only when the third start is reached, so a search that ends earlier
draws none, and a search proven at its first start, whose r components
are all the target's one-site marginal, builds one component.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, TypeVar)

import numpy as np

from .algebra import OperatorExpansion, SystemShape
from .fock import (DenseOperator, check_state, ensure_within_cap,
                   global_parity_signs, hermitian_word, occupations,
                   parity_sectors, partial_trace_sites, real_if_exact,
                   require_hermitian, to_matrix)
from .invariance import (InvarianceReport, check_invariance,
                         invariant_reduction, lemma3_bound)
from .report import INEQUALITY, VerificationReport, make_report, vacuous_notes

#: Subgradient step scale c in c/sqrt(t).
STEP_SCALE = 0.5

#: Starts of one witness search (two structured, the rest random) and the
#: most weight steps of one start.
STARTS = 8
WEIGHT_STEPS = 500

#: Gibbs generator coefficients are searched inside this box.
GENERATOR_BOX = 6.0

#: Weight steps between two coordinate sweeps over the components.
COMPONENT_EVERY = 25

#: Points of the coarse grid that brackets each coordinate search.
GRID_POINTS = 9

#: The witness search stops once its distance is within this gap of the
#: dual lower bound: the witness is then proven optimal.
STOP_GAP = 1e-12

#: A witness distance below this is an exact hit, and the search stops.
EXACT_HIT = 5e-12

T = TypeVar("T")


@dataclass(frozen=True, eq=False)
class ProductMixture:
    """Convex mixture sum_l weights[l] * components[l]^(x k); the
    components are single-site states, on ``SystemShape(1, p)``."""

    weights: np.ndarray
    components: Tuple[DenseOperator, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.components):
            raise ValueError("weights and components must have equal length")
        if np.any(self.weights < -1e-12):
            raise ValueError("negative mixture weight")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")


def even_projection(matrix: np.ndarray, p: int) -> np.ndarray:
    """Pinch onto the even sector: (M + P M P)/2 with P the site parity."""
    signs = global_parity_signs(SystemShape(1, p))
    return 0.5 * (matrix + signs[:, None] * matrix * signs[None, :])


@functools.lru_cache(maxsize=None)
def even_hermitian_basis(p: int) -> Tuple[np.ndarray, ...]:
    """Hermitian matrices spanning the traceless even single-site operators.

    One basis element per even word of positive degree: the word itself when
    it is Hermitian, i times the word when it is anti-Hermitian.  Built once
    per p; the matrices are read-only.
    """
    shape = SystemShape(1, p)
    basis = []
    for mask in range(1, 1 << (2 * p)):
        if mask.bit_count() % 2:
            continue
        _, mat = hermitian_word(mask, shape)
        mat.flags.writeable = False
        basis.append(mat)
    return tuple(basis)


def n_component_params(p: int) -> int:
    """Parameters of one component: its even traceless generators,
    ``len(even_hermitian_basis(p))``; at p = 1 the occupation alpha."""
    return (1 << (2 * p - 1)) - 1


def component_state(p: int, params: np.ndarray) -> DenseOperator:
    """Build an even single-site state, on ``SystemShape(1, p)``, from
    optimizer parameters.

    p = 1: one occupation parameter alpha, state diag(alpha, 1 - alpha).
    p > 1: Gibbs state exp(G)/tr exp(G) of the parametrized even Hermitian
    generator G; stays in the superselected sector by construction.
    """
    if p == 1:
        alpha = float(min(max(params[0], 0.0), 1.0))
        mat = np.diag([alpha, 1.0 - alpha]).astype(np.complex128)
        return DenseOperator(SystemShape(1, 1), mat)
    basis = even_hermitian_basis(p)
    if len(params) != len(basis):
        raise ValueError(f"expected {len(basis)} parameters, got {len(params)}")
    gen = np.zeros((1 << p, 1 << p), dtype=np.complex128)
    for theta, h in zip(params, basis):
        gen += float(theta) * h
    w, v = np.linalg.eigh(gen)
    boltz = np.exp(w - w.max())
    boltz /= boltz.sum()
    # Pinching zeroes the roundoff left between the parity sectors and keeps
    # the entries inside each sector bit for bit: the component is exactly
    # even, as the parity-block search needs.
    mat = even_projection((v * boltz) @ v.conj().T, p)
    return DenseOperator(SystemShape(1, p), mat)


def params_from_state(p: int, sigma: np.ndarray) -> np.ndarray:
    """Invert :func:`component_state` approximately (moment matching).

    The input is pinched onto the even sector and regularized before taking
    the matrix logarithm, so any density matrix is a valid seed.
    """
    sig = even_projection(np.asarray(sigma, dtype=np.complex128), p)
    sig = 0.5 * (sig + sig.conj().T)
    if p == 1:
        alpha = float(np.real(sig[0, 0]))
        tr = float(np.real(np.trace(sig)))
        if tr > 1e-12:
            alpha /= tr
        return np.array([min(max(alpha, 0.0), 1.0)])
    dim = sig.shape[0]
    w, v = np.linalg.eigh(sig)
    w = np.maximum(w, 1e-12)
    w /= w.sum()
    log_sig = (v * np.log(w)) @ v.conj().T
    basis = even_hermitian_basis(p)
    theta = np.array([float(np.real(np.trace(h @ log_sig))) / dim
                      for h in basis])
    return np.clip(theta, -GENERATOR_BOX, GENERATOR_BOX)


def product_power(xi: DenseOperator, k: int) -> DenseOperator:
    """k-fold copy of a single-site state as a Fock-space density matrix.

    Under the site-major operator ordering the copy is the plain tensor
    power, and mixed-site correlations of even states factorize.  The
    power has the dtype of ``xi.matrix``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    shape = SystemShape(k, xi.shape.modes_per_site)
    ensure_within_cap(shape)
    out = np.ones((1, 1), dtype=xi.matrix.dtype)
    for _ in range(k):
        out = np.kron(out, xi.matrix)
    return DenseOperator(shape, out)


def hamming_power(alpha: float, k: int) -> np.ndarray:
    """Diagonal entries of diag(alpha, 1 - alpha)^(x k) by Hamming weight.

    Entry h is alpha^(k-h) (1-alpha)^h, the diagonal entry of the k-fold
    power at every basis state with h occupied modes.
    """
    h = np.arange(k + 1)
    return alpha ** (k - h) * (1.0 - alpha) ** h


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(v) + 1)
    cond = u * idx > (css - 1.0)
    rho = int(np.nonzero(cond)[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def parity_blocks(dense: DenseOperator) -> Tuple[np.ndarray, np.ndarray]:
    """Even and odd global-parity blocks of an operator.

    Raises ``ValueError`` when any entry between the two sectors is nonzero.
    The check is exact: the blocks would drop such an entry, and a trace
    norm summed over the blocks would understate the true one.
    """
    even, odd = parity_sectors(dense.shape)
    m = dense.matrix
    if np.any(m[np.ix_(even, odd)]) or np.any(m[np.ix_(odd, even)]):
        raise ValueError("operator has nonzero entries between the even "
                         "and odd global-parity sectors")
    return m[np.ix_(even, even)], m[np.ix_(odd, odd)]


def site_parity_patterns(shape: SystemShape) -> np.ndarray:
    """Per-site parity pattern of every Fock basis state, one bit per site
    (site j is bit j - 1), from :func:`fock.occupations`; two states have
    equal patterns exactly when every site has the same parity in both."""
    occ = occupations(shape).reshape(shape.fock_dim, shape.sites, -1)
    return (occ.sum(axis=2) & 1) @ (1 << np.arange(shape.sites))


def dual_lower_bound(blocks: Sequence[np.ndarray], signs: Sequence[np.ndarray],
                     twirled: Sequence[np.ndarray]) -> float:
    """Trace-norm dual lower bound on min ||R - M'||_1 over every mixture M'
    of even product states.

    ``blocks`` are the parity blocks of R, ``signs`` Hermitian matrices S
    on the same blocks (the sign of a residual R - M) and ``twirled`` the
    masks of the entries that the per-site parity twirl C keeps: those
    between basis states with equal :func:`site_parity_patterns`.  C fixes
    every such M', so Y = S - C(S) has tr(Y M') = 0, and duality gives
    ||R - M'||_1 >= |tr(Y R)| / ||Y||_inf.  Returns 0, with no eigensolve,
    when tr(Y R) = 0, as it is whenever C fixes R.
    """
    ys = [np.where(keep, 0.0, s) for s, keep in zip(signs, twirled)]
    overlap = abs(sum(float(np.real(np.vdot(y, r)))
                      for y, r in zip(ys, blocks)))
    if overlap == 0.0:
        return 0.0
    norm = max(float(np.max(np.abs(np.linalg.eigvalsh(y)))) for y in ys)
    return overlap / norm


def coordinate_search(value: Callable[[float], float], lo: float, hi: float,
                      start: float, golden_iters: int) -> Tuple[float, float]:
    """Minimize ``value`` over [lo, hi]; returns ``(x, value(x))``.

    The best of a :data:`GRID_POINTS` grid and ``start`` centres a bracket
    one grid step wide on either side (clipped to the box), which
    ``golden_iters`` golden-section steps then shrink.  Derivative free and
    deterministic.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    cand = list(np.linspace(lo, hi, GRID_POINTS)) + [start]
    vals = [value(x) for x in cand]
    center = cand[int(np.argmin(vals))]
    span = (hi - lo) / (GRID_POINTS - 1)
    a = max(lo, center - span)
    b = min(hi, center + span)
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = value(c1), value(c2)
    for _ in range(golden_iters):
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = value(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = value(c2)
    return (c1, f1) if f1 <= f2 else (c2, f2)


def coordinate_sweep(value: Callable[[np.ndarray], float], params: np.ndarray,
                     lo: float, hi: float, current: float,
                     golden_iters: int) -> float:
    """One :func:`coordinate_search` of ``value`` per entry of ``params``,
    in order, from ``current = value(params)``; an entry moves, in place,
    if that beats ``current`` by over 1e-15.  Returns the value reached."""
    for j in range(len(params)):
        def along(x: float) -> float:
            trial = params.copy()
            trial[j] = x
            return value(trial)

        x_best, v_best = coordinate_search(along, lo, hi, params[j],
                                           golden_iters)
        if v_best < current - 1e-15:
            params[j], current = x_best, v_best
    return current


def _per_distinct(build: Callable[[np.ndarray], T],
                  params: Sequence[np.ndarray]) -> List[T]:
    """``build(q)`` for each parameter vector q of ``params``, called once
    per distinct vector: equal vectors share one result."""
    built: Dict[bytes, T] = {}
    for q in params:
        if q.tobytes() not in built:
            built[q.tobytes()] = build(q)
    return [built[q.tobytes()] for q in params]


class _MixtureOptimizer:
    """Alternating minimization of || R - sum_l a_l xi_l^(x k) ||_1.

    Works on the even and odd global-parity blocks of R, which must have
    exactly zero entries between the sectors (:func:`parity_blocks`).  The
    components are exactly even, so the distance is the sum of the two
    block trace norms, and the sign matrix and the weight gradient are
    formed per block.  A power is held as its pair of dense blocks, at
    p = 1 diagonal with the closed-form :func:`hamming_power` entries.
    Components of a start with equal parameters share one power, and
    target blocks and powers with no imaginary part are held as real
    arrays (:func:`fock.real_if_exact`), so their residuals go to the real
    eigensolvers.  Only the weight steps need eigenvectors, for the sign
    matrix; a coordinate sweep solves for eigenvalues alone.  The
    eigensolvers read the lower triangle of each residual: the target
    blocks are made Hermitian once, and the powers are Hermitian up to
    roundoff.

    Every start and every improving coordinate sweep also evaluates
    :func:`dual_lower_bound` at the current sign matrix; the largest value
    seen is kept in ``lower``, and a start ends as soon as its distance is
    within :data:`STOP_GAP` of it.
    """

    def __init__(self, blocks: Sequence[np.ndarray], k: int, p: int):
        self.blocks = [real_if_exact(0.5 * (b + b.conj().T)) for b in blocks]
        self.k = k
        self.p = p
        self.r = 2 * p + 2
        self.sectors = parity_sectors(SystemShape(k, p))
        if p == 1:
            self.lo, self.hi = 0.0, 1.0
            self.hamming = [np.bitwise_count(s) for s in self.sectors]
        else:
            self.lo, self.hi = -GENERATOR_BOX, GENERATOR_BOX
        patterns = site_parity_patterns(SystemShape(k, p))
        self.twirled = [patterns[s][:, None] == patterns[s][None, :]
                        for s in self.sectors]
        self.lower = 0.0

    def _power(self, params: np.ndarray) -> List[np.ndarray]:
        if self.p == 1:
            alpha = min(max(float(params[0]), 0.0), 1.0)
            by_weight = hamming_power(alpha, self.k)
            return [np.diag(by_weight[h]) for h in self.hamming]
        xi = component_state(self.p, params)
        xi = DenseOperator(xi.shape, real_if_exact(xi.matrix))
        full = product_power(xi, self.k).matrix
        return [full[np.ix_(s, s)] for s in self.sectors]

    def _residual(self, weights, powers, skip: Optional[int] = None):
        """Blocks of R - sum_l a_l P_l, leaving out component ``skip``."""
        out = []
        for b, target in enumerate(self.blocks):
            mix = np.zeros(powers[0][b].shape,
                           np.result_type(*(x[b] for x in powers)))
            for l, (a, x) in enumerate(zip(weights, powers)):
                if l != skip:
                    mix += a * x[b]
            out.append(target - mix)
        return out

    def _distance_and_sign(self, weights, powers):
        """Distance and the per-block sign matrices V sign(w) V^dagger of
        the residual, each held as its pair (sign(w), V): one eigh a block."""
        dist = 0.0
        signs = []
        for delta in self._residual(weights, powers):
            w, v = np.linalg.eigh(delta)
            dist += float(np.sum(np.abs(w)))
            signs.append((np.sign(w), v))
        return dist, signs

    def _gradient(self, signs, powers) -> np.ndarray:
        """Weight gradient -tr(S P_l) of the distance."""
        mats = [(v * sw) @ v.conj().T for sw, v in signs]
        return np.array([-sum(float(np.real(np.vdot(sb, xb)))
                              for sb, xb in zip(mats, x))
                         for x in powers])

    def _proven(self, best: float, signs) -> bool:
        """Raise ``lower`` by the :func:`dual_lower_bound` at ``signs``;
        whether ``best`` is now within :data:`STOP_GAP` of it."""
        mats = [(v * sw) @ v.conj().T for sw, v in signs]
        self.lower = max(self.lower,
                         dual_lower_bound(self.blocks, mats, self.twirled))
        return best - self.lower <= STOP_GAP

    def _coordinate_sweep(self, weights, params, powers, best):
        """One :func:`coordinate_sweep` per component l, of the blockwise
        trace norm of rest - a_l P(q), rest the residual without l; its
        power is read by no trial point and is rebuilt once, after."""
        for l in range(self.r):
            rest = self._residual(weights, powers, skip=l)

            def value(trial: np.ndarray) -> float:
                return sum(float(np.sum(np.abs(np.linalg.eigvalsh(
                    res - weights[l] * xb))))
                    for res, xb in zip(rest, self._power(trial)))

            best = coordinate_sweep(value, params[l], self.lo, self.hi,
                                    best, golden_iters=22)
            powers[l] = self._power(params[l])
        return best

    def run(self, weights: np.ndarray, params: List[np.ndarray]):
        weights = project_simplex(np.asarray(weights, dtype=float))
        params = [np.asarray(q, dtype=float).copy() for q in params]
        powers = _per_distinct(self._power, params)
        best, sign = self._distance_and_sign(weights, powers)
        best_state = (weights.copy(), [q.copy() for q in params])
        if best < EXACT_HIT or self._proven(best, sign):
            return best, best_state
        stall = 0
        for t in range(1, WEIGHT_STEPS + 1):
            grad = self._gradient(sign, powers)
            weights = project_simplex(weights - (STEP_SCALE / math.sqrt(t)) * grad)
            dist, sign = self._distance_and_sign(weights, powers)
            if dist < best - 1e-13:
                best = dist
                best_state = (weights.copy(), [q.copy() for q in params])
            if t % COMPONENT_EVERY == 0:
                before = best
                best = self._coordinate_sweep(weights, params, powers, best)
                if best < before - 1e-13:
                    best_state = (weights.copy(), [q.copy() for q in params])
                    dist, sign = self._distance_and_sign(weights, powers)
                    stall = 0
                    if self._proven(best, sign):
                        break
                else:
                    stall += 1
                if best < EXACT_HIT or stall >= 2:
                    break
        return best, best_state


class MixtureFit(NamedTuple):
    """A witness mixture with the two sides of its certificate."""

    mixture: ProductMixture
    #: ||R - mixture||_1, an upper bound on the minimum over mixtures.
    distance: float
    #: :func:`dual_lower_bound` on that minimum.
    lower_bound: float


def _starts(p: int, seed_params: np.ndarray, r: int,
            seed: int) -> Iterator[Tuple[np.ndarray, List[np.ndarray]]]:
    """The :data:`STARTS` starts of :func:`best_mixture_approx`, in order,
    as ``(weights, params)``: uniform weights on r copies of
    ``seed_params``, then on r maximally mixed components, then random
    ones.  ``np.random.default_rng(seed)`` is created when the third start
    is requested, so a search that stops earlier draws nothing, and the
    draws are those of a generator created up front."""
    uniform = np.full(r, 1.0 / r)
    yield uniform, [seed_params] * r
    n_par = n_component_params(p)
    yield uniform, [np.array([0.5]) if p == 1 else np.zeros(n_par)] * r
    rng = np.random.default_rng(seed)
    for _ in range(STARTS - 2):
        w0 = rng.random(r) + 0.1
        w0 /= w0.sum()
        if p == 1:
            pars = [rng.random(1) for _ in range(r)]
        else:
            pars = [rng.uniform(-1.0, 1.0, n_par) for _ in range(r)]
        yield w0, pars


def best_mixture_approx(rho_k: DenseOperator, seed: int = 0) -> MixtureFit:
    """Best found convex product-power mixture with its trace-norm distance
    and the dual lower bound on the minimum distance.

    Deterministic for a fixed seed.  The first two starts are structured
    (single-site marginal of the target, maximally mixed); the rest are
    random, drawn from ``np.random.default_rng(seed)`` only when reached
    (:func:`_starts`).  The witness holds one component state per distinct
    parameter vector, shared by the components that have it, so a search
    proven at its first start builds one.  The distance upper-bounds the
    true minimum over mixtures and the lower bound, the largest
    :func:`dual_lower_bound` seen at the start of each start and after each
    improving coordinate sweep, bounds it from below.  The search ends,
    skipping the remaining starts, once the two are within
    :data:`STOP_GAP`, which proves the witness optimal, or the distance is
    below :data:`EXACT_HIT`.

    The budget is the module's, the one every command runs: r = 2p + 2
    components (:class:`_MixtureOptimizer`), :data:`STARTS` starts and
    :data:`WEIGHT_STEPS` weight steps; it only matters where the bounds do
    not meet early.  The target need not be positive: the search runs on
    any Hermitian operator, and callers check state validity where a state
    enters from outside.  Raises ``ValueError``, as :func:`fock.trace_norm`
    does, on a target further than :data:`fock.HERMITIAN_TOL` from
    Hermitian, or with a nonzero entry between the parity sectors.
    """
    require_hermitian(rho_k.matrix, "mixture-approximation target")
    shape = rho_k.shape
    k, p = shape.sites, shape.modes_per_site
    opt = _MixtureOptimizer(parity_blocks(rho_k), k, p)
    marginal = partial_trace_sites(rho_k, 1).matrix

    best = math.inf
    best_state = None
    for w0, pars in _starts(p, params_from_state(p, marginal), opt.r, seed):
        dist, state = opt.run(w0, pars)
        if dist < best - 1e-15:
            best = dist
            best_state = state
        if best < EXACT_HIT or best - opt.lower <= STOP_GAP:
            break

    weights, params = best_state
    comps = tuple(_per_distinct(lambda q: component_state(p, q), params))
    weights = weights / weights.sum()
    return MixtureFit(ProductMixture(weights, comps), float(best), opt.lower)


def mixture_diagnostics(mixture: ProductMixture) -> Dict[str, object]:
    """Whether every component is a valid even state (one
    :meth:`fock.StateValidity.all_ok` per distinct component matrix) and
    the largest off-diagonal entry of any component, also computed once
    per distinct component matrix."""
    distinct = {xi.matrix.tobytes(): xi for xi in mixture.components}
    max_offdiag = 0.0
    for xi in distinct.values():
        off = xi.matrix - np.diag(np.diag(xi.matrix))
        max_offdiag = max(max_offdiag, float(np.max(np.abs(off))))
    return {
        "components_valid": all(check_state(xi).all_ok
                                for xi in distinct.values()),
        "max_offdiagonal": max_offdiag,
    }


def theorem1_bound(V: int, p: int, k: int) -> float:
    """Stated mixture-approximation bound: suppression term plus 2*4^p*k/V."""
    return lemma3_bound(V, p, k) + 2.0 * (4.0 ** p) * k / V


def theorem1_bound_tight_spin(V: int, p: int, k: int) -> float:
    """Variant with the 2^p spin-side constant, reported for comparison."""
    return lemma3_bound(V, p, k) + 2.0 * (2.0 ** p) * k / V


def verify_theorem1(rho: OperatorExpansion, k: int, seed: int = 0,
                    inv_report: Optional[InvarianceReport] = None,
                    inputs: Optional[Dict[str, object]] = None
                    ) -> Tuple[VerificationReport, ProductMixture,
                               Dict[str, object]]:
    """Certify the product-mixture approximation bound on the first-k
    reduction (preconditions of :func:`invariance.invariant_reduction`);
    returns the report, the witness and its :func:`mixture_diagnostics`.

    The claim fails, whatever the witness distance, on a component that is
    not a valid even state, or a dual lower bound (in the notes) above the
    bound: no mixture meets the bound then.  At one mode per site the
    off-diagonal entries of a component are its odd entries, so the
    evenness check rejects any above 5e-11; the largest is a note.  A
    single CLI run gets the same verdict as the suite row.  ``rho`` need not be positive: the bound is certified
    for the Hermitian unit-trace operator; state validity is the caller's
    check."""
    start = time.perf_counter()
    V, p = rho.shape.sites, rho.shape.modes_per_site
    if inv_report is None:
        inv_report = check_invariance(rho)
    reduction = to_matrix(invariant_reduction(rho, k, inv_report))
    mixture, dist, lower = best_mixture_approx(reduction, seed=seed)
    rhs, tol = theorem1_bound(V, p, k), 1e-9
    notes = [
        f"suppression term {lemma3_bound(V, p, k):.6g}",
        f"tight spin-constant variant rhs {theorem1_bound_tight_spin(V, p, k):.6g}",
        f"dual lower bound {lower:.12g}",
        *vacuous_notes(rhs),
    ]
    diag = mixture_diagnostics(mixture)
    failures = []
    if not diag["components_valid"]:
        failures.append("component validity check failed")
    if p == 1:
        notes.append(f"max component off-diagonal {diag['max_offdiagonal']:.2e}")
    if lower > rhs + tol:
        failures.append("dual lower bound exceeds the bound: refuted")
    info = {"V": V, "p": p, "k": k, "r": len(mixture.weights), "seed": seed,
            **(inputs or {})}
    report = make_report("theorem1", INEQUALITY, info, dist, rhs, tol,
                         time.perf_counter() - start, notes)
    for reason in failures:
        report.fail(reason)
    return report, mixture, diag
