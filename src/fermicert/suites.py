"""Certification suites: the standard desk-scale sweeps behind the CLI.

Each ``run_*`` function executes one suite deterministically (given the
seed), returning the claim reports plus named CSV tables.  ``run_all``
composes every suite; its outputs are byte-stable across runs with the
same seed.

A suite sweeps and tabulates.  A rule that one claim's own inputs and
outputs decide lives in the verifier, so a single CLI command gets the
suite row's verdict; a suite adds only rules that compare its rows or
know its family (Lemma-3 lhs monotone in k, mu = 0 an exact product, the
corollary slope).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .algebra import OperatorExpansion, SystemShape, random_expansion
from .cumulants import (CUMULANT_TOL, LadderIndex,
                        corollary_index_sets, fourier_cumulant,
                        fourier_q_range, verify_corollary, verify_suppression)
from .definetti import best_mixture_approx, product_power, verify_theorem1
from .fock import (DenseOperator, operator_norm, permutation_unitary,
                   reduce_expansion, to_matrices, to_matrix)
from .invariance import (InvarianceReport, MuFamilyParams, check_invariance,
                         mu_family_state, verify_lemma3)
from .meanfield import (BUILTIN_FAMILIES, HamiltonianSpec, MeanFieldResult,
                        ProductEnergyEvaluator, build_hamiltonian_expansion,
                        builtin_family, verify_gs_bound)
from .rdm import (CirculantParams, OFFDIAG_BOUND_CONST,
                  circulant_spectrum_with_fallback, compare_circulant_spectrum,
                  fit_circulant, one_rdm, spectrum_report,
                  verify_pauli_constraints)
from .report import (EQUALITY, INEQUALITY, PROPERTY, VerificationReport,
                     make_report, reports_to_rows)

Table = Tuple[Sequence[str], List[Sequence[object]]]

#: Random cases of check-algebra and instances of each lemma-properties
#: claim; both are recorded in the claims' inputs.
ALGEBRA_CASES = 500
LEMMA_INSTANCES = 200

#: Columns of every CSV table, by the command that writes it; the CLI's
#: help lists them from here.
TABLES: Dict[str, Dict[str, str]] = {
    "check-algebra": {"algebra": "shape cases max_dev"},
    "check-invariance": {"invariance": "V mu cond1 cond2 full fully_invariant "
                                       "checked_words sampled"},
    "verify-lemma3": {"lemma3": "V p mu k lhs rhs passed"},
    "verify-theorem1": {"theorem1": "V p mu k r distance bound max_offdiag "
                                    "passed"},
    "verify-clt": {"clt_lemma4": "V p w cases max_dev",
                   "clt_delta": "V p max_offresonant max_resonant_dev",
                   "suppression": "V p w lhs rhs equality_dev passed"},
    "verify-corollary": {"corollary": "source V k metric rate ratio"},
    "rdm-spectrum": {"rdm_spectrum": "V k lambda_formula lambda_direct abs_dev",
                     "rdm_bound": "V mu a abs_b abs_b_times_V bound passed"},
    "gs-bound": {"gsbound": "family V p k e_product_min e_ground gap bound "
                            "precondition_ok passed"},
}


def table(name: str, rows: List[Sequence[object]]) -> Table:
    """The CSV table ``name`` of :data:`TABLES` holding ``rows``."""
    return next(t[name] for t in TABLES.values() if name in t).split(), rows


#: Shapes with at most four modes, the oracle-equivalence domain.
SMALL_SHAPES = (SystemShape(1, 1), SystemShape(2, 1), SystemShape(3, 1),
                SystemShape(4, 1), SystemShape(1, 2), SystemShape(2, 2),
                SystemShape(1, 3), SystemShape(1, 4))

MU_SWEEP = (0.0, 0.5, -0.5, 1.0, -1.0)
V_SWEEP = (6, 8)

#: Single-site states used by the central-limit suites.
_DIAG_THIRDS = DenseOperator(SystemShape(1, 1), np.diag(
    [1.0 / 3.0, 2.0 / 3.0]).astype(np.complex128))
_CORRELATED_P2 = DenseOperator(SystemShape(1, 2), np.diag(
    [0.5, 0.1, 0.1, 0.3]).astype(np.complex128))


@functools.lru_cache(maxsize=None)
def _mu_state(V: int, mu: float) -> OperatorExpansion:
    """The mu-family state, built once per process and shared by every
    suite that reads it; it is never mutated."""
    # |mu| close to 1 exceeds the positivity range of the family; the
    # bound certifications run on the Hermitian unit-trace operator.
    return mu_family_state(MuFamilyParams(V, 1, mu), validate=False)


@functools.lru_cache(maxsize=None)
def _mu_case(V: int, mu: float) -> Tuple[OperatorExpansion, InvarianceReport]:
    """The mu-family state with its :func:`check_invariance` report,
    computed once per process and shared by check-invariance,
    verify-lemma3 and verify-theorem1; neither is ever mutated."""
    state = _mu_state(V, mu)
    return state, check_invariance(state)


# ---------------------------------------------------------------------------
# check-algebra
# ---------------------------------------------------------------------------

def run_check_algebra(seed: int = 0) -> Tuple[List[VerificationReport], Dict[str, Table]]:
    """Symbolic algebra against the dense Jordan-Wigner oracle.

    Random products, adjoints and site permutations on every shape with at
    most four modes must reproduce the corresponding dense matrix algebra
    to 1e-10; anti-commutators are checked exhaustively.  The cases are
    drawn first; then the five matrices (a, b, ab, a-dagger, pi.a) of every
    case of a shape come from one :func:`to_matrices` call and are
    compared in stacked products.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    cases: Dict[SystemShape, list] = {shape: [] for shape in SMALL_SHAPES}
    for i in range(ALGEBRA_CASES):
        shape = SMALL_SHAPES[i % len(SMALL_SHAPES)]
        a = random_expansion(shape, rng, n_terms=5)
        b = random_expansion(shape, rng, n_terms=5)
        pi = tuple(int(x) + 1 for x in rng.permutation(shape.sites))
        cases[shape].append((a, b, pi))
    rows = []
    for shape, drawn in cases.items():
        mats = to_matrices([op for a, b, pi in drawn for op in (
            a, b, a * b, a.adjoint(), a.apply_permutation(pi))])
        ma, mb, mab, madj, mperm = mats.reshape(
            len(drawn), 5, shape.fock_dim, shape.fock_dim).swapaxes(0, 1)
        units = {pi: permutation_unitary(pi, shape).matrix
                 for pi in {pi for _, _, pi in drawn}}
        u = np.stack([units[pi] for _, _, pi in drawn])
        worst = max(float(np.max(np.abs(mab - ma @ mb))),
                    float(np.max(np.abs(madj - ma.conj().swapaxes(1, 2)))),
                    float(np.max(np.abs(
                        mperm - u @ ma @ u.conj().swapaxes(1, 2)))))
        rows.append([f"({shape.sites},{shape.modes_per_site})", len(drawn),
                     worst])
    t_oracle = time.perf_counter() - start

    start = time.perf_counter()
    anti_worst = 0.0
    for shape in SMALL_SHAPES:
        n = shape.majorana_count
        if n > 8:
            continue
        for x in range(n):
            for y in range(n):
                wx = OperatorExpansion(shape, {1 << x: 1.0})
                wy = OperatorExpansion(shape, {1 << y: 1.0})
                anti = wx * wy + wy * wx
                want = OperatorExpansion(shape, {0: 2.0} if x == y else {})
                anti_worst = max(anti_worst, anti.max_coeff_diff(want))

    reports = [
        make_report("algebra-oracle", INEQUALITY,
                    {"cases": ALGEBRA_CASES, "shapes": len(SMALL_SHAPES)},
                    max(row[2] for row in rows), 0.0, 1e-10, t_oracle),
        make_report("anticommutation", INEQUALITY,
                    {"max_majoranas": 8}, anti_worst, 0.0, 1e-12,
                    time.perf_counter() - start),
    ]
    return reports, {"algebra": table("algebra", rows)}


def run_lemma_properties(seed: int = 1
                         ) -> Tuple[List[VerificationReport], Dict[str, Table]]:
    """Pinching norm bound and the trace Cauchy-Schwarz variant on
    :data:`LEMMA_INSTANCES` random instances each.  The pinching
    instances are drawn first; the norms of a shape's instances come from
    one stacked :func:`operator_norm`."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    pinched: Dict[SystemShape, list] = {}
    for _ in range(LEMMA_INSTANCES):
        shape = SMALL_SHAPES[int(rng.integers(len(SMALL_SHAPES)))]
        a = random_expansion(shape, rng, n_terms=6)
        site = int(rng.integers(1, shape.sites + 1))
        sign = "+" if rng.random() < 0.5 else "-"
        pinched.setdefault(shape, []).extend(
            (a, a.parity_project(site, sign)))
    worst_norm = -math.inf
    for ops in pinched.values():
        norms = operator_norm(to_matrices(ops))
        worst_norm = max(worst_norm, float(np.max(norms[1::2] - norms[::2])))
    t_norm = time.perf_counter() - start

    start2 = time.perf_counter()
    worst_cs = -math.inf
    for _ in range(LEMMA_INSTANCES):
        shape = SMALL_SHAPES[int(rng.integers(len(SMALL_SHAPES)))]
        dim = shape.fock_dim
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.real(np.trace(rho))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = abs(np.trace(rho @ a)) ** 2
        rhs = float(np.real(np.trace(rho @ a @ a.conj().T)))
        worst_cs = max(worst_cs, lhs - rhs)
    reports = [
        make_report("lemma1-pinch-norm", INEQUALITY,
                    {"instances": LEMMA_INSTANCES}, worst_norm, 0.0, 1e-9,
                    t_norm),
        make_report("lemma2-cauchy-schwarz", INEQUALITY,
                    {"instances": LEMMA_INSTANCES}, worst_cs, 0.0, 1e-9,
                    time.perf_counter() - start2),
    ]
    return reports, {}


# ---------------------------------------------------------------------------
# check-invariance
# ---------------------------------------------------------------------------

def run_check_invariance() -> Tuple[List[VerificationReport], Dict[str, Table]]:
    """Definition checks on the mu family and full invariance of its
    even-channel image."""
    reports = []
    rows = []
    for V in V_SWEEP:
        for mu in MU_SWEEP:
            start = time.perf_counter()
            _, rep = _mu_case(V, mu)
            elapsed = time.perf_counter() - start
            rows.append([V, mu, rep.condition1_max_violation,
                         rep.condition2_max_violation, rep.full_max_violation,
                         rep.fully_invariant, rep.checked_words, rep.sampled])
            reports.append(make_report(
                "definition-conditions", INEQUALITY, {"V": V, "mu": mu},
                rep.max_violation(), 0.0, 1e-10, elapsed))
            expect_fully = mu == 0.0
            reports.append(VerificationReport(
                "full-invariance-flag", PROPERTY, {"V": V, "mu": mu},
                float(rep.full_max_violation), 0.0, 0.0,
                rep.fully_invariant == expect_fully, 0.0,
                [f"fully_invariant={rep.fully_invariant}, "
                 f"expected {expect_fully}"]))
    # The even channel makes any permutation-invariant state fully
    # invariant, and kills the odd-odd pair correlators.
    start = time.perf_counter()
    channel = _mu_case(6, 1.0)[0].even_channel()
    rep = check_invariance(channel)
    shape = channel.shape
    pair = (1 << shape.bit_position(1, 1)) | (1 << shape.bit_position(2, 1))
    pair_val = abs(channel.expectation(pair))
    reports.append(make_report(
        "channel-full-invariance", INEQUALITY, {"V": 6, "mu": 1.0},
        max(rep.full_max_violation, pair_val), 0.0, 1e-9,
        time.perf_counter() - start,
        ["even channel output must be fully invariant with vanishing "
         "odd-odd pair correlators"]))
    return reports, {"invariance": table("invariance", rows)}


# ---------------------------------------------------------------------------
# verify-lemma3
# ---------------------------------------------------------------------------

def run_verify_lemma3() -> Tuple[List[VerificationReport], Dict[str, Table]]:
    """Trace-norm suppression sweep over the mu family; on top of
    :func:`verify_lemma3`, the lhs must be monotone in k."""
    reports = []
    rows = []
    for V in V_SWEEP:
        for mu in MU_SWEEP:
            state, inv = _mu_case(V, mu)
            prev = -1.0
            for k in range(1, V):
                rep = verify_lemma3(state, k, inv_report=inv,
                                    inputs={"mu": mu})
                if rep.lhs < prev - 1e-9:
                    rep.fail("lhs must be monotone in k")
                prev = rep.lhs
                reports.append(rep)
                rows.append([V, 1, mu, k, rep.lhs, rep.rhs, rep.passed])
    return reports, {"lemma3": table("lemma3", rows)}


# ---------------------------------------------------------------------------
# verify-theorem1
# ---------------------------------------------------------------------------

def run_verify_theorem1(seed: int = 3) -> Tuple[List[VerificationReport], Dict[str, Table]]:
    """Product-mixture approximation sweep over the mu family.

    On top of :func:`verify_theorem1`, which also judges the witness
    components, exact-match targets (mu = 0) must come out below 1e-6.
    """
    reports = []
    rows = []
    for V in V_SWEEP:
        for mu in MU_SWEEP:
            state, inv = _mu_case(V, mu)
            for k in range(1, V):
                rep, mixture, diag = verify_theorem1(
                    state, k, seed=seed, inv_report=inv, inputs={"mu": mu})
                if mu == 0.0 and rep.lhs > 1e-6:
                    rep.fail("exact product target missed below 1e-6")
                reports.append(rep)
                rows.append([V, 1, mu, k, len(mixture.weights), rep.lhs,
                             rep.rhs, diag["max_offdiagonal"], rep.passed])
    return reports, {"theorem1": table("theorem1", rows)}


# ---------------------------------------------------------------------------
# verify-clt
# ---------------------------------------------------------------------------

def _lemma4_cases(V: int, w: int) -> List[Tuple[LadderIndex, ...]]:
    """Every ordered choice of w distinct Fourier ladders (c, mode 1, q) at
    V: the exhaustive single-mode case list of one Lemma-4 claim."""
    ladders = [LadderIndex(c, 1, q) for c in (1, -1)
               for q in fourier_q_range(V)]
    return list(itertools.permutations(ladders, w))


def run_verify_clt() -> Tuple[List[VerificationReport], Dict[str, Table]]:
    """Fourier-cumulant factorization, delta rule and suppression scaling.

    Each claim is one :func:`fourier_cumulant` call over its whole case
    list: 8 Lemma-4, 4 delta-rule, 7 suppression and 4 p = 2 companion
    claims make 23 calls.  A Lemma-4 claim is the largest |direct - closed
    form| over an explicit case list; a case outside the distinct-triples
    hypothesis raises ``ValueError`` rather than thinning the list.  The
    delta rule compares with each case's single-site K_2.
    """
    reports = []
    lemma4_rows = []
    rho1, rho2 = _DIAG_THIRDS, _CORRELATED_P2
    # Each call builds the V-fold copy its direct cumulants read and keeps
    # nothing after it returns.

    # Factorized-form equality: exhaustive over distinct-triple choices at
    # p = 1, and two choices on a genuinely non-Gaussian two-mode state.
    claims = [(rho1, V, w, _lemma4_cases(V, w), [])
              for V in (2, 3, 4) for w in (2, 4)]
    for V in (2, 3):
        cases = [(LadderIndex(-1, 1, 0), LadderIndex(1, 1, q),
                  LadderIndex(-1, 2, 0), LadderIndex(1, 2, 0))
                 for q in (0, V // 2)]
        claims.append((rho2, V, 4, cases, [
            "non-Gaussian single site: nonzero cumulants exercised"]))
    for rho, V, w, cases, notes in claims:
        start = time.perf_counter()
        res = fourier_cumulant(rho, V, cases)
        repeated = np.flatnonzero(~res.distinct_triples)
        if len(repeated):
            case = [(o.c, o.mode, o.q) for o in cases[repeated[0]]]
            raise ValueError(f"Lemma-4 case {case} repeats a "
                             "(c, mode, q) triple")
        worst = float(np.abs(res.direct - res.closed_form).max())
        p = rho.shape.modes_per_site
        reports.append(make_report(
            "hudson-lemma4", EQUALITY, {"V": V, "p": p, "w": w,
                                        "cases": len(cases)},
            worst, 0.0, CUMULANT_TOL, time.perf_counter() - start, notes))
        lemma4_rows.append([V, p, w, len(cases), worst])

    # Second-cumulant delta rule: nonzero only on resonance.
    delta_rows = []
    for V in (2, 3, 4, 5):
        start = time.perf_counter()
        cases = [(LadderIndex(-1, 1, q1), LadderIndex(1, 1, q2))
                 for q1 in fourier_q_range(V) for q2 in fourier_q_range(V)]
        res = fourier_cumulant(rho1, V, cases)
        on = res.resonant
        worst_on = float(np.abs(res.direct[on]
                                - res.single_site_cumulant[on]).max())
        worst_off = float(np.abs(res.direct[~on]).max())
        reports.append(make_report(
            "hudson-delta-rule", EQUALITY, {"V": V, "p": 1},
            max(worst_off, worst_on), 0.0, 1e-12,
            time.perf_counter() - start,
            ["off-resonant second cumulants vanish; resonant ones equal "
             "the single-site value"]))
        delta_rows.append([V, 1, worst_off, worst_on])

    # Suppression: |K_w| of the V-fold copy against V^((2-w)/2) |K_w|.
    supp_rows = []
    for V in range(2, 9):
        q = V // 2
        ops = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
               LadderIndex(-1, 1, q), LadderIndex(1, 1, q)]
        start = time.perf_counter()
        res = fourier_cumulant(rho1, V, [ops])
        rep = verify_suppression(rho1, V, ops, res)
        rep.wall_time = time.perf_counter() - start
        # Equality case in subtraction form: lhs * V = |K_4(single site)|.
        # The literal ratio lhs*V/|K_4| is 0/0 here because single-mode
        # states are Gaussian; see the ledger and the acceptance notes.
        k_single = abs(res.single_site_cumulant.item())
        equality_dev = abs(rep.lhs * V - k_single)
        equality = make_report(
            "suppression-equality", EQUALITY,
            {"V": V, "p": 1, "w": 4}, rep.lhs * V, k_single, 1e-9, 0.0,
            ["resonant equality case; single-mode K_4 vanishes identically"])
        reports.append(rep)
        reports.append(equality)
        supp_rows.append([V, 1, 4, rep.lhs, rep.rhs, equality_dev,
                          rep.passed and equality.passed])

    # Companion with nonzero fourth cumulant (two modes per site).
    for V in (2, 3, 4, 5):
        ops = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
               LadderIndex(-1, 2, 0), LadderIndex(1, 2, 0)]
        start = time.perf_counter()
        res = fourier_cumulant(rho2, V, [ops])
        rep = verify_suppression(rho2, V, ops, res)
        rep.wall_time = time.perf_counter() - start
        k_single = abs(res.single_site_cumulant.item())
        ratio = abs(res.direct.item()) * V / k_single
        equality = make_report(
            "suppression-ratio-p2", EQUALITY, {"V": V, "p": 2, "w": 4},
            ratio, 1.0, 1e-9, 0.0, [f"|K4 single site| = {k_single:.6g}"])
        reports.append(rep)
        reports.append(equality)
        supp_rows.append([V, 2, 4, rep.lhs, rep.rhs, abs(ratio - 1.0),
                          rep.passed and equality.passed])

    tables = {
        "clt_lemma4": table("clt_lemma4", lemma4_rows),
        "clt_delta": table("clt_delta", delta_rows),
        "suppression": table("suppression", supp_rows),
    }
    return reports, tables


# ---------------------------------------------------------------------------
# verify-corollary
# ---------------------------------------------------------------------------

def run_verify_corollary(seed: int = 9) -> Tuple[List[VerificationReport], Dict[str, Table]]:
    """Gaussian-mixture deviation scaling.

    Exact product inputs with a non-Gaussian two-mode site state must show
    the 1/k decay (log-log slope within 0.3 of -1).  The mu family at V=6
    is reported with its empirical constant (no absolute constant is
    claimed for correlated inputs).  Each Gaussian mixture is the
    :func:`best_mixture_approx` witness for the same k-site state.
    """
    reports = []
    rows = []
    metrics = {}
    for k in range(2, 6):
        start = time.perf_counter()
        rho_k = product_power(_CORRELATED_P2, k)
        mixture, dist, _ = best_mixture_approx(rho_k, seed=seed)
        rep = verify_corollary(rho_k, mixture, V=k,
                               ops_sets=corollary_index_sets(k, 2)[:1])
        rep.inputs["source"] = "product-p2"
        rep.notes.append(f"mixture distance {dist:.3e}")
        rep.wall_time = time.perf_counter() - start
        metrics[k] = rep.lhs
        reports.append(rep)
        rows.append(["product-p2", k, k, rep.lhs, rep.rhs, rep.lhs / rep.rhs])
    ks = np.array(sorted(metrics))
    vals = np.array([metrics[k] for k in ks])
    slope = float(np.polyfit(np.log(ks), np.log(vals), 1)[0])
    slope_rep = make_report(
        "corollary-slope", EQUALITY, {"ks": "2..5", "p": 2},
        slope, -1.0, 0.3, 0.0,
        ["log-log slope of the Gaussian-deviation metric on exact products"])
    reports.append(slope_rep)

    # Correlated family: report the metric against the reference rate.
    V = 6
    state = _mu_state(V, 1.0)
    for k in (2, 3, 4):
        start = time.perf_counter()
        rho_k = to_matrix(reduce_expansion(state, k))
        mixture = best_mixture_approx(rho_k, seed=seed).mixture
        rep = verify_corollary(rho_k, mixture, V=V)
        rep.inputs["source"] = "mu-family"
        rep.wall_time = time.perf_counter() - start
        reports.append(rep)
        rows.append(["mu-family", V, k, rep.lhs, rep.rhs, rep.lhs / rep.rhs])
    return reports, {"corollary": table("corollary", rows)}


# ---------------------------------------------------------------------------
# rdm-spectrum
# ---------------------------------------------------------------------------

def run_rdm_spectrum() -> Tuple[List[VerificationReport], Dict[str, Table]]:
    """Closed-form circulant spectra against direct diagonalization, plus
    the off-diagonal suppression bound on the mu family."""
    reports = []
    spec_rows = []
    worst = 0.0
    bs = [complex(-0.1), complex(0.05), None, 0.05 * np.exp(1j * math.pi / 5),
          0.04 * np.exp(0.7j)]
    for V in range(2, 13):
        b_list = [b if b is not None else complex(0.3 / V) for b in bs]
        for b in b_list:
            rows, dev = compare_circulant_spectrum(CirculantParams(V, 0.5, b))
            spec_rows.extend(rows)
            worst = max(worst, dev)
    # perfbench/reference.json gates these inputs, singular_excluded too.
    reports.append(spectrum_report({"V": "2..12", "branches": "real+complex",
                                    "singular_excluded": 0}, worst))

    # Real branch at k = 0 is the rank-one shifted value, exactly.
    exact_dev = 0.0
    for V in range(2, 13):
        vals, _ = circulant_spectrum_with_fallback(CirculantParams(V, 0.4, complex(0.05)))
        exact_dev = max(exact_dev, abs(vals[0] - (0.4 + 0.05 * (V - 1))))
    reports.append(make_report(
        "rdm-real-k0", EQUALITY, {"V": "2..12"}, exact_dev, 0.0, 0.0, 0.0,
        ["k = 0 eigenvalue reproduces a + b(V-1) exactly"]))

    # Off-diagonal suppression on the mu family.
    bound_rows = []
    for V in (6, 8, 10):
        for mu in (0.5, 1.0):
            state = _mu_state(V, mu)
            dense = to_matrix(state)
            rdm = one_rdm(dense)
            a, b, _ = fit_circulant(rdm.gamma)
            bound = OFFDIAG_BOUND_CONST / V
            rep = verify_pauli_constraints(rdm, source=dense,
                                           source_invariant=True)
            rep.inputs["mu"] = mu
            reports.append(rep)
            bound_rows.append([V, mu, a, abs(b), abs(b) * V, bound,
                               rep.passed])
    tables = {
        "rdm_spectrum": table("rdm_spectrum", spec_rows),
        "rdm_bound": table("rdm_bound", bound_rows),
    }
    return reports, tables


# ---------------------------------------------------------------------------
# gs-bound
# ---------------------------------------------------------------------------

def gs_bound_row(spec: HamiltonianSpec, result: MeanFieldResult,
                 report: VerificationReport) -> List[object]:
    """The ``gsbound.csv`` row of one :func:`verify_gs_bound` call."""
    return [spec.name, spec.shape.sites, spec.shape.modes_per_site, spec.k,
            result.e_product_min, result.e_ground, result.gap, result.bound,
            result.precondition_ok, report.passed]


def run_gs_bound(seed: int = 13) -> Tuple[List[VerificationReport], Dict[str, Table]]:
    """Mean-field gap certificates for the built-in families at V = 6,
    plus the convexity step on the :func:`best_mixture_approx` witnesses
    of the k = 2, 3 reductions of the mu = 0.5 state, against the product
    minima that the family loop found for the one-mode families."""
    reports = []
    rows = []
    minima = []
    for name in BUILTIN_FAMILIES:
        spec = builtin_family(name, 6)
        result, rep = verify_gs_bound(spec, seed=seed)
        reports.append(rep)
        rows.append(gs_bound_row(spec, result, rep))
        if spec.shape.modes_per_site == 1:
            minima.append((spec, result.e_product_min))

    # Convexity step: mixture energies dominate the product minimum.
    start = time.perf_counter()
    worst = -math.inf
    state = _mu_state(6, 0.5)
    mixtures = []
    for k in (2, 3):
        rho_k = to_matrix(reduce_expansion(state, k))
        mixtures.append(best_mixture_approx(rho_k, seed=seed).mixture)
    for spec, e_min in minima:
        h_exp, _ = build_hamiltonian_expansion(spec)
        evaluator = ProductEnergyEvaluator(h_exp)
        for mixture in mixtures:
            e_mix = sum(a * evaluator.energy(xi.matrix)
                        for a, xi in zip(mixture.weights, mixture.components))
            worst = max(worst, e_min - e_mix)
    reports.append(make_report(
        "gs-convexity-step", INEQUALITY, {"V": 6, "families": len(minima)},
        worst, 0.0, 1e-9, time.perf_counter() - start,
        ["tr(H sum_l a_l xi_l^(x V)) >= min_xi tr(H xi^(x V))"]))

    return reports, {"gsbound": table("gsbound", rows)}


# ---------------------------------------------------------------------------
# all
# ---------------------------------------------------------------------------

SUITES = {
    "check-algebra": lambda seed: run_check_algebra(seed=seed),
    "check-invariance": lambda seed: run_check_invariance(),
    "verify-lemma3": lambda seed: run_verify_lemma3(),
    "verify-theorem1": lambda seed: run_verify_theorem1(seed=seed),
    "verify-clt": lambda seed: run_verify_clt(),
    "verify-corollary": lambda seed: run_verify_corollary(seed=seed),
    "rdm-spectrum": lambda seed: run_rdm_spectrum(),
    "gs-bound": lambda seed: run_gs_bound(seed=seed),
}


def run_all(seed: int = 0) -> Tuple[List[VerificationReport], Dict[str, Table]]:
    """Every suite in a fixed order with per-suite seeds derived from the
    given one."""
    reports: List[VerificationReport] = []
    tables: Dict[str, Table] = {}
    lemma_reports, _ = run_lemma_properties(seed=seed + 1)
    reports.extend(lemma_reports)
    for offset, runner in enumerate(SUITES.values()):
        sub_reports, sub_tables = runner(seed + offset)
        reports.extend(sub_reports)
        for key, tab in sub_tables.items():
            tables[key] = tab
    header, rows = reports_to_rows(reports)
    tables["summary"] = (header, rows)
    return reports, tables
