"""Mean-field (product-state) energy certificates for permutation-invariant
Hamiltonians.

Hamiltonians are uniform averages of one normalized k-site interaction
template transplanted onto a collection of site tuples.  The certificate
compares the exact ground energy with the best energy over k-fold-copy
product states: the gap is nonnegative by inclusion, and for Hamiltonians
with a permutation-invariant ground state it is bounded by
4^p k^(3/2) / V.  Since the product-state optimizer returns an upper bound
on the true minimum while the ground energy is exact, a reported pass is a
genuine certificate.

The ground energy is exact at every size: the Hamiltonian splits into the
connected blocks of its sparsity graph (its conserved sectors), each block
is diagonalized densely, and the full, possibly degenerate ground space is
kept as a dim x r isometry rather than a dim x dim projector.

Product-state energies are evaluated symbolically: mixed-site correlations
of even single-site states factorize site by site, so tr(H xi^(x V)) is a
polynomial in the single-site word expectations and never requires the
2^(pV)-dimensional tensor power.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import OperatorExpansion, SystemShape, relabel_word, site_blocks
from .definetti import (GENERATOR_BOX, SingleSiteState, component_state,
                        coordinate_search, n_component_params)
from .fock import (DenseOperator, Isometry, diagonal_blocks,
                   hermiticity_residual, jw_matrix,
                   operator_norm, to_matrix, word_string_entries)
from .invariance import InvarianceReport, check_invariance_dense
from .report import INEQUALITY, VerificationReport, make_report


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


def transplant(template: OperatorExpansion, subset: Sequence[int],
               shape: SystemShape) -> OperatorExpansion:
    """Rewrite a k-site template on the sites of ``subset`` (written order
    preserved, result re-canonicalized)."""
    terms: Dict[int, complex] = {}
    for mask, coeff in template.terms.items():
        sign, new_mask, _ = relabel_word(mask, subset, template.shape)
        terms[new_mask] = terms.get(new_mask, 0.0) + sign * coeff
    return OperatorExpansion(shape, terms)


def build_hamiltonian_expansion(spec: HamiltonianSpec
                                ) -> Tuple[OperatorExpansion, List[str]]:
    """Symbolic H = (1/|subsets|) sum over transplanted templates.

    Checks the template normalization (operator norm <= 1 within 1e-9) and
    Hermiticity of the assembled operator.
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
    acc = OperatorExpansion(spec.shape, {})
    for subset in spec.subsets:
        acc = acc + transplant(template, subset, spec.shape)
    h_exp = (1.0 / len(spec.subsets)) * acc
    if not h_exp.is_close(h_exp.adjoint(), tol=1e-10):
        raise ValueError("assembled Hamiltonian is not Hermitian")
    return h_exp, notes


def build_hamiltonian(spec: HamiltonianSpec) -> DenseOperator:
    """Dense Hamiltonian matrix with Hermiticity residual under 1e-10."""
    h_exp, _ = build_hamiltonian_expansion(spec)
    dense = to_matrix(h_exp)
    res = hermiticity_residual(dense.matrix)
    if res > 1e-10:
        raise ValueError(f"Hermiticity residual {res:.3e} above 1e-10")
    return dense


def ground_state(h: DenseOperator, degeneracy_tol: float = 1e-9
                 ) -> Tuple[float, DenseOperator]:
    """Lowest eigenvalue and the uniform mixture over the ground space.

    Degenerate ground spaces return the normalized projector, which
    inherits every symmetry of the Hamiltonian.  One dense ``eigh`` of the
    whole matrix: the reference the tests hold :func:`ground_state_lowdim`
    to.
    """
    res = hermiticity_residual(h.matrix)
    if res > 1e-10:
        raise ValueError(f"ground_state needs a Hermitian input ({res:.3e})")
    w, v = np.linalg.eigh(h.matrix)
    e_gs = float(w[0])
    ground = v[:, w <= e_gs + degeneracy_tol]
    proj = ground @ ground.conj().T
    proj /= np.real(np.trace(proj))
    return e_gs, DenseOperator(h.shape, proj)


def hamiltonian_sparse(h_exp: OperatorExpansion):
    """CSR matrix of an expansion; rows carry one entry per word term."""
    import scipy.sparse as sp

    dim = h_exp.shape.fock_dim
    masks, coeffs = zip(*sorted(h_exp.terms.items()))
    cols, vals = word_string_entries(masks, h_exp.shape)
    vals = np.asarray(coeffs, dtype=np.complex128)[:, None] * vals
    rows = np.broadcast_to(np.arange(dim), cols.shape)
    mat = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(dim, dim), dtype=np.complex128)
    return mat.tocsr()


def ground_state_lowdim(h_exp: OperatorExpansion,
                        degeneracy_tol: float = 1e-9) -> Tuple[float, Isometry]:
    """Exact ground energy and ground space, block by conserved block.

    The blocks are the connected components of the sparsity graph of
    :func:`hamiltonian_sparse` (:func:`fock.diagonal_blocks`): the conserved
    sectors, found with no symmetry assumed.  Every block is diagonalized
    densely, equal sizes in one batched ``eigvalsh``; the ground vectors
    come from the blocks whose minimum lies within ``degeneracy_tol`` of
    the ground energy, so a degenerate ground space is resolved in full.
    The ground space is returned as an :class:`Isometry` (dim x r), whose
    state F F-dagger / r is the projector :func:`ground_state` returns.
    """
    import scipy.linalg

    H = hamiltonian_sparse(h_exp)
    res = float(np.abs((H - H.conj().T).data).max(initial=0.0))
    if res > 1e-10:
        raise ValueError(f"Hermiticity residual {res:.3e} above 1e-10")
    blocks = [(idx, stack, np.linalg.eigvalsh(stack)[:, 0])
              for idx, stack in diagonal_blocks(H)]
    e_gs = float(min(lows.min() for _, _, lows in blocks))
    columns = []
    for idx, stack, lows in blocks:
        for j in np.flatnonzero(lows <= e_gs + degeneracy_tol):
            _, vecs = scipy.linalg.eigh(
                stack[j], subset_by_value=(-np.inf, e_gs + degeneracy_tol))
            col = np.zeros((h_exp.shape.fock_dim, vecs.shape[1]),
                           dtype=np.complex128)
            col[idx[j]] = vecs
            columns.append(col)
    return e_gs, Isometry(h_exp.shape, np.hstack(columns))


class ProductEnergyEvaluator:
    """Evaluates tr(H xi^(x V)) through site-factorized word expectations.

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
        shape1 = SystemShape(1, self.p)
        self.submasks = sorted(submask_set)
        self.word_mats = {m: jw_matrix(m, shape1).matrix for m in self.submasks}

    def energy(self, xi: np.ndarray) -> float:
        vals = {m: complex(np.trace(mat @ xi))
                for m, mat in self.word_mats.items()}
        total = 0.0 + 0.0j
        for coeff, subs in self.compiled:
            term = coeff
            for m in subs:
                term *= vals[m]
            total += term
        if abs(total.imag) > 1e-9:
            raise ValueError(f"product energy came out complex: {total}")
        return float(total.real)


def min_product_energy(h_exp: OperatorExpansion, restarts: int = 8,
                       iters: int = 3, seed: int = 0
                       ) -> Tuple[SingleSiteState, float]:
    """Minimize tr(H xi^(x V)) over even single-site states.

    Cyclic coordinate descent in the component parametrization
    (occupation for p = 1, even Gibbs generators otherwise), each
    coordinate by :func:`definetti.coordinate_search`; deterministic for a
    fixed seed.  ``iters`` counts full
    coordinate sweeps per restart.
    """
    evaluator = ProductEnergyEvaluator(h_exp)
    p = evaluator.p
    n_par = n_component_params(p)
    lo, hi = (0.0, 1.0) if p == 1 else (-GENERATOR_BOX, GENERATOR_BOX)
    rng = np.random.default_rng(seed)

    starts = [np.full(n_par, 0.5) if p == 1 else np.zeros(n_par)]
    if p == 1:
        starts.append(np.array([0.0]))
        starts.append(np.array([1.0]))
    while len(starts) < restarts:
        starts.append(rng.uniform(lo, hi, n_par))

    def value(params: np.ndarray) -> float:
        return evaluator.energy(component_state(p, params).matrix)

    best_params = None
    best = math.inf
    for start in starts:
        params = np.asarray(start, dtype=float).copy()
        current = value(params)
        for _ in range(iters):
            for j in range(n_par):
                def coord(x: float) -> float:
                    trial = params.copy()
                    trial[j] = x
                    return value(trial)

                x_best, v_best = coordinate_search(coord, lo, hi, params[j],
                                                   golden_iters=30)
                if v_best < current - 1e-15:
                    params[j] = x_best
                    current = v_best
        if current < best - 1e-15:
            best = current
            best_params = params.copy()
    xi = component_state(p, best_params)
    return xi, float(best)


@dataclass
class MeanFieldResult:
    """Outcome of the product-state energy-gap certificate."""

    e_product_min: float
    e_ground: float
    gap: float
    bound: float
    passed: bool
    precondition_ok: bool
    invariance: Optional[InvarianceReport] = None
    notes: List[str] = field(default_factory=list)


def gs_bound(V: int, p: int, k: int) -> float:
    return (4.0 ** p) * k ** 1.5 / V


def verify_gs_bound(spec: HamiltonianSpec, restarts: int = 8, iters: int = 3,
                    seed: int = 0, tol: float = 1e-6,
                    invariance_tol: float = 1e-8
                    ) -> Tuple[MeanFieldResult, VerificationReport]:
    """Certify the product-state energy gap of one Hamiltonian family.

    The exact ground energy and ground space come from
    :func:`ground_state_lowdim` at every size.  The ground-state
    permutation invariance precondition is checked exactly
    (:func:`check_invariance_dense`, every word up to degree 4) on the
    uniform mixture over that ground space, read from its isometry; a
    violation labels the result "precondition failed" but the gap numbers
    are still reported.
    A failed bound triggers one retry with doubled optimizer effort before
    the verdict is final.
    """
    start = time.perf_counter()
    h_exp, notes = build_hamiltonian_expansion(spec)
    e_gs, ground = ground_state_lowdim(h_exp)
    inv = check_invariance_dense(ground, tol=invariance_tol)
    precondition_ok = inv.max_violation() <= invariance_tol

    xi, e_prod = min_product_energy(h_exp, restarts=restarts, iters=iters,
                                    seed=seed)
    V, p = spec.shape.sites, spec.shape.modes_per_site
    bound = gs_bound(V, p, spec.k)
    gap = e_prod - e_gs
    if gap > bound + tol:
        xi, e_prod = min_product_energy(h_exp, restarts=2 * restarts,
                                        iters=2 * iters, seed=seed)
        gap = e_prod - e_gs
        notes.append("bound missed on the first pass; optimizer retried")
    passed = gap <= bound + tol
    if not precondition_ok:
        notes.append("precondition failed: ground state is not permutation "
                     f"invariant (violation {inv.max_violation():.3e})")
        notes.append("bound is only claimed for invariant ground states")
    result = MeanFieldResult(e_prod, e_gs, gap, bound, passed,
                             precondition_ok, inv, notes)
    report = make_report("gs-bound", INEQUALITY,
                         {"family": spec.name, "V": V, "p": p, "k": spec.k,
                          "seed": seed},
                         gap, bound, tol, time.perf_counter() - start, notes)
    return result, report


# -- built-in Hamiltonian families ---------------------------------------------

def _mask(shape: SystemShape, *indices: Tuple[int, int]) -> int:
    out = 0
    for site, mi in indices:
        out |= 1 << shape.bit_position(site, mi)
    return out


def builtin_family(name: str, V: int) -> HamiltonianSpec:
    """Named interaction families used by the certification suites.

    site-number:   k=1, p=1, template 1 - 2 n = -i m^1 m^2 per site.
    pair-exchange: k=2, p=1, template i m_1^1 m_2^1 over increasing pairs.
    pair-hopping:  k=2, p=1, template f_1† f_2 + f_2† f_1 over increasing
                   pairs.
    hubbard-like:  k=2, p=2, on-site repulsion (1-2n_1)(1-2n_2) plus
                   inter-site exchange hopping of both modes, weights 1/2
                   and 1/4 each so the template norm stays at one.
    """
    if name == "site-number":
        shape = SystemShape(V, 1)
        tshape = SystemShape(1, 1)
        template = OperatorExpansion(tshape, {_mask(tshape, (1, 1), (1, 2)): -1j})
        subsets = tuple((j,) for j in range(1, V + 1))
        return HamiltonianSpec(shape, subsets, template, name=name)
    if name == "pair-exchange":
        shape = SystemShape(V, 1)
        tshape = SystemShape(2, 1)
        template = OperatorExpansion(tshape, {_mask(tshape, (1, 1), (2, 1)): 1j})
        subsets = tuple((j, l) for j in range(1, V + 1)
                        for l in range(j + 1, V + 1))
        return HamiltonianSpec(shape, subsets, template, name=name)
    if name == "pair-hopping":
        shape = SystemShape(V, 1)
        tshape = SystemShape(2, 1)
        template = OperatorExpansion(tshape, {
            _mask(tshape, (1, 1), (2, 2)): 0.5j,
            _mask(tshape, (1, 2), (2, 1)): -0.5j,
        })
        subsets = tuple((j, l) for j in range(1, V + 1)
                        for l in range(j + 1, V + 1))
        return HamiltonianSpec(shape, subsets, template, name=name)
    if name == "hubbard-like":
        shape = SystemShape(V, 2)
        tshape = SystemShape(2, 2)
        terms: Dict[int, complex] = {}
        # on-site repulsion on the first site: (1-2n_{1,1})(1-2n_{1,2})
        terms[_mask(tshape, (1, 1), (1, 2), (1, 3), (1, 4))] = -0.5
        # exchange hopping per mode, weight 1/4: each hop is
        # (i/2)(m_1^odd m_2^even - m_1^even m_2^odd), so masks carry i/8.
        for alpha in (1, 2):
            odd, even = 2 * alpha - 1, 2 * alpha
            terms[_mask(tshape, (1, odd), (2, even))] = 0.125j
            m = _mask(tshape, (1, even), (2, odd))
            terms[m] = terms.get(m, 0.0) - 0.125j
        template = OperatorExpansion(tshape, terms)
        # Ordered pairs: the on-site part singles out the first template
        # site, so site symmetry of H needs every (j, l) with j != l.
        subsets = tuple((j, l) for j in range(1, V + 1)
                        for l in range(1, V + 1) if j != l)
        return HamiltonianSpec(shape, subsets, template, name=name)
    raise ValueError(f"unknown Hamiltonian family {name!r}")


BUILTIN_FAMILIES = ("site-number", "pair-exchange", "pair-hopping",
                    "hubbard-like")
