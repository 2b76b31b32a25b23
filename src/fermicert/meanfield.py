"""Mean-field (product-state) energy certificates for permutation-invariant
Hamiltonians.

Hamiltonians are uniform averages of one normalized k-site interaction
template transplanted onto a collection of site tuples, each built by
:func:`hamiltonian_from_config` (the built-ins from
:data:`BUILTIN_CONFIGS`).  The certificate compares the exact ground
energy with the best energy over k-fold-copy product states: the gap is
nonnegative by inclusion, and for Hamiltonians with a
permutation-invariant ground state it is bounded by 4^p k^(3/2) / V.
Since the product-state optimizer returns an upper bound on the true
minimum while the ground energy is exact, a reported pass is a genuine
certificate.

The ground energy is exact at every size: the Hamiltonian's word terms
are summed by X pattern (:data:`fock.XorTerms`), it splits into the
connected blocks of their sparsity graph (its conserved sectors), and each
block is diagonalized densely, in real arithmetic when it has no imaginary
part.  The invariance precondition comes from H's own symmetry when its
expansion is fully invariant (U_pi H U_pi-dagger = H for every site
permutation pi makes the ground space invariant at every degree), and
then only the ground energy is solved for.  Otherwise the full, possibly
degenerate ground space is kept as a dim x r isometry rather than a
dim x dim projector, and its invariance is certified on that by the
site-transposition bound, which covers every degree, or not at all.

Product-state energies are evaluated symbolically: mixed-site correlations
of even single-site states factorize site by site, so tr(H xi^(x V)) is a
polynomial in the single-site word expectations and never requires the
2^(pV)-dimensional tensor power.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .algebra import (OperatorExpansion, SystemShape, expansion_from_text,
                      site_blocks)
from .definetti import (GENERATOR_BOX, component_state, coordinate_sweep,
                        n_component_params)
from .fock import (DenseOperator, Isometry, diagonal_blocks, ensure_within_cap,
                   hermitian_word, operator_norm, real_if_exact,
                   require_hermitian, to_matrix, word_expectations_dense,
                   xor_terms)
from .invariance import (InvarianceReport, check_invariance,
                         check_invariance_dense)
from .report import INEQUALITY, VerificationReport, make_report

#: Eigenvalues within this of the lowest belong to the ground space.
DEGENERACY_TOL = 1e-9

#: Starts of the product-energy search (the zero generator, then random)
#: and the coordinate sweeps of each.
PRODUCT_STARTS = 4
PRODUCT_SWEEPS = 2


@dataclass(frozen=True)
class HamiltonianSpec:
    """Average of one normalized template over k-site tuples.

    ``subsets`` are ordered site tuples; the template's site i is
    transplanted onto the i-th entry.  ``normalize`` rescales templates
    with operator norm above one instead of rejecting them (the factor is
    reported).
    """

    shape: SystemShape
    subsets: Tuple[Tuple[int, ...], ...]
    template: OperatorExpansion
    normalize: bool = False
    name: str = "custom"

    def __post_init__(self):
        if not self.subsets:
            raise ValueError("at least one site subset is required")
        k = len(self.subsets[0])
        if k < 1:
            raise ValueError("subsets must be nonempty")
        for sub in self.subsets:
            if len(sub) != k:
                raise ValueError("all subsets must have the same size")
            if len(set(sub)) != len(sub):
                raise ValueError(f"repeated site in subset {sub}")
            for site in sub:
                if not 1 <= site <= self.shape.sites:
                    raise ValueError(f"site {site} outside [1..{self.shape.sites}]")
        if self.template.shape.sites != k:
            raise ValueError(
                f"template lives on {self.template.shape.sites} sites, "
                f"subsets have size {k}")
        if self.template.shape.modes_per_site != self.shape.modes_per_site:
            raise ValueError("template modes per site must match the system")

    @property
    def k(self) -> int:
        return len(self.subsets[0])


def build_hamiltonian_expansion(spec: HamiltonianSpec
                                ) -> Tuple[OperatorExpansion, List[str]]:
    """Symbolic H = (1/|subsets|) sum over transplanted templates.

    The relabeled copies go into one term dict in subset order, in time
    linear in the number of subsets.  Checks the template normalization
    (operator norm <= 1 within 1e-9) and Hermiticity of the assembled
    operator (:func:`fock.require_hermitian` on its coefficients).
    """
    notes: List[str] = []
    template = spec.template
    tnorm = operator_norm(to_matrix(template).matrix)
    if tnorm > 1.0 + 1e-9:
        if not spec.normalize:
            raise ValueError(
                f"template operator norm {tnorm:.6g} exceeds 1; "
                "set normalize=True to rescale")
        template = (1.0 / tnorm) * template
        notes.append(f"template rescaled by 1/{tnorm:.6g}")
    terms: Dict[int, complex] = {}
    for subset in spec.subsets:
        for mask, coeff in template.relabel(subset, spec.shape).terms.items():
            terms[mask] = terms.get(mask, 0.0) + coeff
    h_exp = (1.0 / len(spec.subsets)) * OperatorExpansion(spec.shape, terms)
    require_hermitian(h_exp, "assembled Hamiltonian")
    return h_exp, notes


def ground_state(h: DenseOperator) -> Tuple[float, DenseOperator]:
    """Lowest eigenvalue and the uniform mixture over the ground space
    (eigenvalues within :data:`DEGENERACY_TOL` of the lowest).

    Degenerate ground spaces return the normalized projector, which
    inherits every symmetry of the Hamiltonian.  One dense ``eigh`` of the
    whole matrix: the reference the tests hold :func:`ground_state_lowdim`
    to.
    """
    require_hermitian(h.matrix, "ground_state input")
    w, v = np.linalg.eigh(h.matrix)
    e_gs = float(w[0])
    ground = v[:, w <= e_gs + DEGENERACY_TOL]
    proj = ground @ ground.conj().T
    proj /= np.real(np.trace(proj))
    return e_gs, DenseOperator(h.shape, proj)


def _above_cut(stack: np.ndarray, cut: float) -> bool:
    """Whether the Cholesky test of :func:`ground_state_lowdim` shows every
    eigenvalue of every block of ``stack``, one chunk of
    :func:`fock.diagonal_blocks`, to lie strictly above ``cut``.  F is
    the largest Frobenius norm in this chunk.  The blocks are tried one at
    a time, each on a copy whose diagonal is shifted in place (the floats
    of block - sigma I), and the first failure ends the test.  A complex
    stack is not tried."""
    if stack.dtype.kind == "c":
        return False
    n = stack.shape[-1]
    u = np.finfo(np.float64).eps / 2
    gamma = (n + 1) * u / (1 - (n + 1) * u)
    c = n * gamma / (1 - n * gamma) + u
    frob = math.sqrt(2.0 * float(np.einsum("mij,mij->m", stack, stack).max()))
    sigma = cut + 2.0 * c * (frob + abs(cut))
    for block in stack:
        shifted = block.copy()
        shifted.flat[::n + 1] -= sigma
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return False
    return True


def _sector_sweep(h_exp: OperatorExpansion, keep: bool
                  ) -> Tuple[float, List[Tuple[np.ndarray, np.ndarray,
                                               np.ndarray]]]:
    """The sector sweep of :func:`ground_state_lowdim` and
    :func:`ground_energy`: the ground energy, and with ``keep`` the
    ``(idx, stack, lows)`` of each chunk of equal-size blocks solved, in
    the order :func:`fock.diagonal_blocks` yields them (largest blocks
    first), ``lows`` the lowest eigenvalue of each block.  A chunk the
    Cholesky test skips, or one solved without ``keep``, is released
    before the next is built.  The mode cap is checked first, then
    Hermiticity on the coefficients (:func:`fock.require_hermitian`)."""
    ensure_within_cap(h_exp.shape)
    require_hermitian(h_exp, "Hamiltonian")
    masks, vals = xor_terms(h_exp)
    blocks = diagonal_blocks((masks, real_if_exact(vals)))
    del masks, vals  # the generator holds them until its last stack
    solved = []
    e_gs = math.inf
    for idx, stack in blocks:
        stack = real_if_exact(stack)
        if e_gs == math.inf or not _above_cut(stack, e_gs + DEGENERACY_TOL):
            lows = np.linalg.eigvalsh(stack)[:, 0]
            e_gs = min(e_gs, float(lows.min()))
            if keep:
                solved.append((idx, stack, lows))
        del stack  # released before the next stack is built
    return e_gs, solved


def ground_energy(h_exp: OperatorExpansion) -> float:
    """The exact ground energy of :func:`ground_state_lowdim`, the same
    float from the same sector sweep, with no ground vector computed and
    no block stack kept past its own solve."""
    return _sector_sweep(h_exp, keep=False)[0]


def ground_state_lowdim(h_exp: OperatorExpansion) -> Tuple[float, Isometry]:
    """Exact ground energy and ground space, block by conserved block.

    The blocks are the connected components of the sparsity graph
    (:func:`fock.diagonal_blocks`) of the Hamiltonian's word terms, summed
    into one row per X pattern (:func:`fock.xor_terms`, the entries of
    its dense matrix bit for bit): the conserved sectors, found with no
    symmetry assumed.  The terms are summed before the graph is built, so
    terms that cancel join no sectors (pair-hopping's f-dagger f-dagger
    parts cancel this way, which keeps its particle-number sectors
    apart).  Hermiticity is checked on the expansion's coefficients
    (:func:`fock.hermiticity_residual`), whose residual vanishes exactly
    when the blocks' does.  Summed values with no imaginary part are
    scattered straight into real blocks, and a block stack with no
    imaginary part is solved in real arithmetic (:func:`fock.real_if_exact`).

    Equal-size blocks come in chunks (:func:`fock.diagonal_blocks`, each
    at most the size of the largest block or of the XOR rows), and the
    blocks of one chunk are diagonalized together, densely, by one batched
    ``eigvalsh``.  The chunks are built and taken one at a time from the
    largest blocks down (:func:`_sector_sweep`); the first one's lowest
    eigenvalue starts the running minimum e.  Every other real chunk,
    blocks S_j of size n, is first tested: with cut = e +
    :data:`DEGENERACY_TOL`, u the unit roundoff, gamma_k = ku / (1 - ku),
    c = n gamma_(n+1) / (1 - n gamma_(n+1)) + u, F = sqrt(2) max_j
    ||S_j||_F and eps = c (F + |cut|), each S_j - sigma I with sigma =
    cut + 2 eps is given to ``np.linalg.cholesky``, one block at a time
    (:func:`_above_cut`).  A factorization that runs to completion on the
    computed A = fl(S_j - sigma I) gives R^T R = A + dA with
    |dA| <= gamma_(n+1) |R^T| |R| (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., SIAM 2002, Sec. 10.1.1), so ||dA||_2 <= n gamma_(n+1) ||R||_2^2 and
    ||dA||_2 <= n gamma_(n+1) / (1 - n gamma_(n+1)) ||A||_2; forming A
    adds at most u (F + |sigma|), F bounding the 2-norm of the symmetric
    matrix that LAPACK reads off the lower triangle of S_j.  So
    lambda_min(S_j) >= sigma - c (F + |sigma|) >= sigma - (1 + 2c) eps,
    strictly above cut: no block of the chunk holds a ground vector, and
    the chunk is dropped unsolved; only the solved chunks are kept.  F is
    the chunk's own, so each chunk's test is as tight as its blocks allow.
    When a factorization fails the chunk is solved and e updated.  The
    ground energy is thus the minimum over the solved chunks, as it would
    be over all of them.

    The ground vectors come from one ``eigh`` of each block whose minimum
    lies within :data:`DEGENERACY_TOL` of the ground energy, taken in
    increasing block size and, within a size, in block order, so a
    degenerate ground space is resolved in full, its columns in the same
    order however the blocks were chunked.  The ground space is returned
    as an :class:`Isometry` (dim x r), whose state F F-dagger / r is the
    projector :func:`ground_state` returns.  The mode cap
    (:func:`fock.ensure_within_cap`) is checked before any array of the
    Fock dimension is made.
    """
    dim = h_exp.shape.fock_dim
    e_gs, solved = _sector_sweep(h_exp, keep=True)
    columns = []
    # Stable: sizes ascending, the chunks of one size kept in block order.
    for idx, stack, lows in sorted(solved, key=lambda c: c[0].shape[1]):
        for j in np.flatnonzero(lows <= e_gs + DEGENERACY_TOL):
            w, v = np.linalg.eigh(stack[j])
            vecs = v[:, w <= e_gs + DEGENERACY_TOL]
            col = np.zeros((dim, vecs.shape[1]), dtype=np.complex128)
            col[idx[j]] = vecs
            columns.append(col)
    return e_gs, Isometry(h_exp.shape, np.hstack(columns))


class ProductEnergyEvaluator:
    """Evaluates tr(H xi^(x V)) through site-factorized word expectations,
    read from xi by :func:`fock.word_expectations_dense`.

    Words with an odd Majorana count on any site contribute nothing for
    even xi and are dropped up front.
    """

    def __init__(self, h_exp: OperatorExpansion):
        self.p = h_exp.shape.modes_per_site
        submask_set = set()
        compiled = []
        for mask, coeff in sorted(h_exp.terms.items()):
            subs = site_blocks(mask, 2 * self.p)
            if any(block.bit_count() & 1 for block in subs):
                continue
            submask_set.update(subs)
            compiled.append((coeff, subs))
        self.compiled = compiled
        self.submasks = sorted(submask_set)

    def energy(self, xi: np.ndarray) -> float:
        vals = word_expectations_dense(xi, self.submasks,
                                       SystemShape(1, self.p))
        total = 0.0 + 0.0j
        for coeff, subs in self.compiled:
            term = coeff
            for m in subs:
                term *= vals[m]
            total += term
        if abs(total.imag) > 1e-9:
            raise ValueError(f"product energy came out complex: {total}")
        return float(total.real)


def _one_word_minimum(evaluator: ProductEnergyEvaluator
                      ) -> Tuple[DenseOperator, float]:
    """Exact minimum of tr(H xi^(x V)) when the even support holds at most
    one single-site word.

    With the word made Hermitian, h = phase * W (h^2 = 1), every term is a
    power of tr(W xi) = x / phase, so the energy is a polynomial in
    x = tr(h xi), and even states reach every x in [-1, 1].  The minimum is
    taken over the endpoints and the critical points of that polynomial
    (the real parts of the roots of its derivative, clipped to [-1, 1]),
    each read as the even state ((1 + x) P_+ + (1 - x) P_-) / 2^p
    = (1 + x h) / 2^p, with P_+- = (1 +- h) / 2 the spectral projectors
    of h, and evaluated by the evaluator.  No word: the energy is
    constant and the maximally mixed state is returned.
    """
    p = evaluator.p
    dim = 1 << p
    eye = np.eye(dim, dtype=np.complex128)
    if not evaluator.submasks:
        xi = eye / dim
        return DenseOperator(SystemShape(1, p), xi), evaluator.energy(xi)
    (mask,) = evaluator.submasks
    phase, h = hermitian_word(mask, SystemShape(1, p))
    powers = np.zeros(max(len(subs) for _, subs in evaluator.compiled) + 1,
                      dtype=np.complex128)
    for coeff, subs in evaluator.compiled:
        powers[len(subs)] += coeff / phase ** len(subs)
    critical = np.roots(np.polyder(powers.real[::-1]))
    best_xi, best = None, math.inf
    for x in [-1.0, 1.0, *np.clip(critical.real, -1.0, 1.0)]:
        xi = (eye + x * h) / dim
        energy = evaluator.energy(xi)
        if energy < best:
            best_xi, best = xi, energy
    return DenseOperator(SystemShape(1, p), best_xi), best


def min_product_energy(h_exp: OperatorExpansion, seed: int = 0
                       ) -> Tuple[DenseOperator, float]:
    """Minimize tr(H xi^(x V)) over even single-site states xi, returned
    on ``SystemShape(1, p)`` with their energy.

    A Hamiltonian whose even single-site support holds at most one word
    (every one-mode Hamiltonian) gets the exact minimum of
    :func:`_one_word_minimum`.  Otherwise: cyclic coordinate descent over
    the even Gibbs generators, an upper bound, deterministic for a fixed
    seed; the module's :data:`PRODUCT_STARTS` starts (the zero generator
    first) of :data:`PRODUCT_SWEEPS` :func:`definetti.coordinate_sweep`
    passes each, the budget every command runs.
    """
    evaluator = ProductEnergyEvaluator(h_exp)
    if len(evaluator.submasks) <= 1:
        return _one_word_minimum(evaluator)
    p = evaluator.p
    n_par = n_component_params(p)
    lo, hi = -GENERATOR_BOX, GENERATOR_BOX
    rng = np.random.default_rng(seed)

    starts = [np.zeros(n_par)]
    while len(starts) < PRODUCT_STARTS:
        starts.append(rng.uniform(lo, hi, n_par))

    def value(params: np.ndarray) -> float:
        return evaluator.energy(component_state(p, params).matrix)

    best_params = None
    best = math.inf
    for params in starts:
        current = value(params)
        for _ in range(PRODUCT_SWEEPS):
            current = coordinate_sweep(value, params, lo, hi, current,
                                       golden_iters=30)
        if current < best - 1e-15:
            best = current
            best_params = params
    return component_state(p, best_params), float(best)


@dataclass(frozen=True)
class MeanFieldResult:
    """The numbers behind the product-state energy-gap certificate; the
    verdict and the notes are in its report.  ``invariance`` is the report
    the precondition rests on: H's own :func:`invariance.check_invariance`
    when it is fully invariant, the ground space's site-transposition
    bound, :func:`invariance.check_invariance_dense`, otherwise.
    ``precondition_ok`` is that report's ``fully_invariant``."""

    e_product_min: float
    e_ground: float
    gap: float
    bound: float
    precondition_ok: bool
    invariance: InvarianceReport


def gs_bound(V: int, p: int, k: int) -> float:
    return (4.0 ** p) * k ** 1.5 / V


def verify_gs_bound(spec: HamiltonianSpec, seed: int = 0
                    ) -> Tuple[MeanFieldResult, VerificationReport]:
    """Certify the product-state energy gap of one Hamiltonian family.

    The ground-state permutation invariance precondition is taken from
    H's own symmetry first: H's :func:`check_invariance`, exact at every
    degree, shows U_pi H U_pi-dagger = H for every site permutation pi
    when it is fully invariant (conditions 1 and 2 alone would not do:
    pair-exchange meets both, and its ground space is not invariant).
    Then every spectral projector of H commutes with every U_pi, so the
    uniform mixture over the ground space is fully invariant, at every
    degree, exactly; the precondition holds with H's report, and the
    exact ground energy comes from :func:`ground_energy`, the sector sweep
    with no ground vector.  Every other H may still have an invariant
    ground space, so the state decides: the ground space comes from
    :func:`ground_state_lowdim` and :func:`check_invariance_dense` bounds
    the violations of the uniform mixture over it, read from its isometry,
    by the V - 1 adjacent site transpositions: a bound B below
    :data:`invariance.DENSE_INVARIANCE_TOL` covers words of every degree
    and meets the precondition.  A larger B labels the result
    "precondition failed", naming B, but the gap numbers are still
    reported.
    The product energy comes from one :func:`min_product_energy` call:
    exact for a one-word even support, otherwise the upper bound of the
    coordinate sweeps the witness search shares, so the gap is an upper
    bound too.  A negative gap fails the claim: no product state undercuts
    the exact ground energy.  A single CLI run gets the same verdict as
    the suite row.  The mode cap is checked before H is expanded.
    """
    ensure_within_cap(spec.shape)
    start = time.perf_counter()
    h_exp, notes = build_hamiltonian_expansion(spec)
    inv = check_invariance(h_exp)
    if inv.fully_invariant:
        e_gs = ground_energy(h_exp)
    else:
        e_gs, ground = ground_state_lowdim(h_exp)
        inv = check_invariance_dense(ground)
    precondition_ok = inv.fully_invariant

    _, e_prod = min_product_energy(h_exp, seed=seed)
    V, p = spec.shape.sites, spec.shape.modes_per_site
    bound, tol = gs_bound(V, p, spec.k), 1e-6
    gap = e_prod - e_gs
    if not precondition_ok:
        notes.append("precondition failed: ground space not certified "
                     "permutation invariant (site-transposition bound "
                     f"{inv.max_violation():.3e})")
        notes.append("bound is only claimed for invariant ground states")
    result = MeanFieldResult(e_prod, e_gs, gap, bound, precondition_ok, inv)
    report = make_report("gs-bound", INEQUALITY,
                         {"family": spec.name, "V": V, "p": p, "k": spec.k,
                          "seed": seed},
                         gap, bound, tol, time.perf_counter() - start, notes)
    if gap < -1e-9:
        report.fail("negative gap: product optimizer undercut the exact "
                    "ground energy")
    return result, report


# -- Hamiltonians from configs ------------------------------------------------

#: The fields a Hamiltonian config may have.
CONFIG_KEYS = ("V", "p", "k", "template", "subsets", "normalize", "name")


def hamiltonian_from_config(cfg: object) -> HamiltonianSpec:
    """The Hamiltonian a config dict names: integers V, p and k, a k-site
    template in the fixture text format, ``subsets`` (a list of integer
    lists, default "all-k-subsets"), ``normalize`` and a string ``name``.
    A field of the wrong JSON type, or a key outside :data:`CONFIG_KEYS`,
    is a ``ValueError``, never coerced or ignored.  The mode cap of the
    dense Hamiltonian is checked before the template and subsets are built."""
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}; the keys are "
                             + ", ".join(CONFIG_KEYS))
    V, p, k, text = (cfg.get(key) for key in ("V", "p", "k", "template"))
    subsets = cfg.get("subsets", "all-k-subsets")
    normalize = cfg.get("normalize", False)
    name = cfg.get("name", "custom")
    # type(), not isinstance(): a JSON true is no integer.
    if not (type(V) is type(p) is type(k) is int
            and type(text) is type(name) is str and type(normalize) is bool
            and (subsets == "all-k-subsets" or type(subsets) is list and all(
                type(sub) is list and all(type(s) is int for s in sub)
                for sub in subsets))):
        raise ValueError("config needs integers V, p and k, template text, "
                         "subsets \"all-k-subsets\" or a list of integer "
                         "lists, normalize true or false, and a name "
                         "string")
    ensure_within_cap(SystemShape(V, p))
    try:
        template = expansion_from_text(text, SystemShape(k, p))
    except ValueError as exc:
        raise ValueError(f"config template {exc}") from None
    if subsets == "all-k-subsets":
        subsets = itertools.combinations(range(1, V + 1), k)
    return HamiltonianSpec(SystemShape(V, p), tuple(map(tuple, subsets)),
                           template, normalize=normalize, name=name)


#: The interaction families the certification suites run, each a config
#: for :func:`hamiltonian_from_config` without ``V``.
BUILTIN_CONFIGS: Dict[str, Dict[str, object]] = {
    # 1 - 2 n = -i m^1 m^2 on each site.
    "site-number": {"p": 1, "k": 1, "template": "0 -1 (1,1)(1,2)\n"},
    # i m_1^1 m_2^1 over increasing pairs.
    "pair-exchange": {"p": 1, "k": 2, "template": "0 1 (1,1)(2,1)\n"},
    # f_1-dagger f_2 + f_2-dagger f_1 over increasing pairs.
    "pair-hopping": {"p": 1, "k": 2, "template": (
        "0 0.5 (1,1)(2,2)\n0 -0.5 (1,2)(2,1)\n")},
    # On-site repulsion (1-2n_{1,1})(1-2n_{1,2}) on the first site, weight
    # 1/2, plus exchange hopping of each mode, weight 1/4, so the template
    # norm stays at one: each hop is (i/2)(m_1^odd m_2^even - m_1^even
    # m_2^odd), so its words carry i/8.
    "hubbard-like": {"p": 2, "k": 2, "template": (
        "-0.5 0 (1,1)(1,2)(1,3)(1,4)\n"
        "0 0.125 (1,1)(2,2)\n0 -0.125 (1,2)(2,1)\n"
        "0 0.125 (1,3)(2,4)\n0 -0.125 (1,4)(2,3)\n")},
}

BUILTIN_FAMILIES = tuple(BUILTIN_CONFIGS)


def family_subsets(name: str, V: int) -> List[List[int]]:
    """The site subsets of the built-in family ``name`` on V sites: every
    ordered pair for hubbard-like, whose on-site part singles out the
    first template site, so site symmetry of H needs every (j, l) with
    j != l; every increasing k-subset otherwise."""
    pick = (itertools.permutations if name == "hubbard-like"
            else itertools.combinations)
    return list(map(list, pick(range(1, V + 1), BUILTIN_CONFIGS[name]["k"])))


def builtin_family(name: str, V: int) -> HamiltonianSpec:
    """The built-in family ``name`` on V sites, built from its
    :data:`BUILTIN_CONFIGS` entry and :func:`family_subsets` like any
    ``--config``, the mode cap checked before the subsets are listed."""
    if name not in BUILTIN_CONFIGS:
        raise ValueError(f"unknown Hamiltonian family {name!r}")
    cfg = {**BUILTIN_CONFIGS[name], "V": V, "name": name}
    ensure_within_cap(SystemShape(V, cfg["p"]))
    return hamiltonian_from_config({**cfg, "subsets": family_subsets(name, V)})
