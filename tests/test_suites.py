"""Suite orchestration: shared cases and the tables the suites write."""

import collections
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from fermicert import algebra, cumulants, definetti, invariance, suites
from fermicert.cumulants import LadderIndex
from fermicert.fock import DenseOperator, reduce_expansion, to_matrix
from fermicert.report import (INEQUALITY, TRACE_DISTANCE_DIAMETER,
                              make_report, vacuous_notes)

VACUOUS_NOTE = "bound exceeds trace-distance diameter"


@pytest.fixture(scope="module")
def counted_run_all():
    """``run_all(0)``'s reports with its calls counted: witness searches
    (``best_mixture_approx``), their starts (``_MixtureOptimizer.run``)
    and coordinate searches, which the mixture and the product optimizer
    both reach through ``definetti.coordinate_sweep``."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(definetti, "best_mixture_approx",
                   counting("searches", definetti.best_mixture_approx))
        mp.setattr(definetti._MixtureOptimizer, "run",
                   counting("starts", definetti._MixtureOptimizer.run))
        mp.setattr(definetti, "coordinate_search",
                   counting("coordinate", definetti.coordinate_search))
        reports, _ = suites.run_all(seed=0)
    return reports, counts


def test_algebra_rows_hold_their_own_shape_worst():
    reports, tables = suites.run_check_algebra(seed=0)
    _, rows = tables["algebra"]
    (claim,) = [r for r in reports if r.claim_id == "algebra-oracle"]
    assert [row[0] for row in rows] == [
        f"({s.sites},{s.modes_per_site})" for s in suites.SMALL_SHAPES]
    # The claim keeps the worst over every shape; each row its own.
    assert max(row[2] for row in rows) == claim.lhs
    assert len({row[2] for row in rows}) > 1


def test_algebra_claims_carry_their_own_time():
    # Each claim is timed over its own loop, so the two times together fit
    # inside one call of the suite.
    start = time.perf_counter()
    reports, _ = suites.run_check_algebra(seed=0)
    elapsed = time.perf_counter() - start
    oracle, anti = reports
    assert oracle.wall_time > 0.0 and anti.wall_time > 0.0
    assert oracle.wall_time + anti.wall_time <= elapsed


@pytest.mark.parametrize("seed", range(10))
def test_drawn_suites_pass_across_seeds(seed):
    for run in (suites.run_check_algebra, suites.run_lemma_properties):
        reports, _ = run(seed=seed)
        assert [r.passed for r in reports] == [True, True], [
            (r.claim_id, r.lhs) for r in reports]


def _verdicts(run):
    return {r.claim_id: r.passed for r in run(seed=0)[0]}


def test_unsigned_products_fail_the_oracle_and_anticommutation(monkeypatch):
    monkeypatch.setattr(algebra, "merge_bitmasks",
                        lambda left, right: (1, left ^ right))
    assert _verdicts(suites.run_check_algebra) == {
        "algebra-oracle": False, "anticommutation": False}


def test_unsigned_adjoint_fails_the_oracle(monkeypatch):
    monkeypatch.setattr(algebra, "reversal_sign", lambda length: 1)
    assert not _verdicts(suites.run_check_algebra)["algebra-oracle"]


def test_unsigned_relabeling_fails_the_oracle(monkeypatch):
    # The reordering sign of relabel_word reaches the suite only through
    # its permuted cases.
    relabel_word = algebra.relabel_word

    def unsigned(mask, site_map, shape):
        _, out, preserved = relabel_word(mask, site_map, shape)
        return 1, out, preserved

    monkeypatch.setattr(algebra, "relabel_word", unsigned)
    assert not _verdicts(suites.run_check_algebra)["algebra-oracle"]


def test_inflated_pinching_fails_the_pinch_norm(monkeypatch):
    parity_project = algebra.OperatorExpansion.parity_project
    monkeypatch.setattr(algebra.OperatorExpansion, "parity_project",
                        lambda self, site, sign: (1 + 1e-6) * parity_project(
                            self, site, sign))
    assert _verdicts(suites.run_lemma_properties) == {
        "lemma1-pinch-norm": False, "lemma2-cauchy-schwarz": True}


def test_mu_cases_checked_once_across_suites(monkeypatch):
    # check-invariance checks its ten (V, mu) states and the even-channel
    # image; verify-lemma3 and verify-theorem1 reuse the ten reports.
    calls = []

    def counting(rho):
        calls.append(rho.shape.sites)
        return invariance.check_invariance(rho)

    suites._mu_case.cache_clear()
    monkeypatch.setattr(suites, "check_invariance", counting)
    suites.run_check_invariance()
    assert len(calls) == 11
    suites.run_verify_lemma3()
    suites.run_verify_theorem1(seed=3)
    assert len(calls) == 11
    suites._mu_case.cache_clear()


def test_mu_states_shared_across_suites(monkeypatch):
    # The mu-family states are built once per process: the corollary and
    # the gs-convexity step reduce the state that the invariance checks
    # read.
    reduced = []

    def recording(state, k):
        reduced.append(state)
        return reduce_expansion(state, k)

    monkeypatch.setattr(suites, "reduce_expansion", recording)
    monkeypatch.setattr(suites, "BUILTIN_FAMILIES", ())
    suites.run_verify_corollary()
    assert len(reduced) == 4
    assert all(s is suites._mu_case(6, 1.0)[0] for s in reduced)
    suites.run_gs_bound(seed=0)
    assert reduced[4:] == [suites._mu_case(6, 0.5)[0]]


def test_lemma3_suite_fails_a_drop_in_k(monkeypatch):
    # On top of the verifier's verdict, the suite requires lhs monotone
    # in k: a report whose lhs falls below the previous k's fails.
    def falling_at_3(state, k, inv_report, inputs):
        lhs = 0.1 * k if k != 3 else 0.05
        return make_report("lemma3", INEQUALITY, {"k": k, **inputs}, lhs,
                           1.0, 1e-9)

    monkeypatch.setattr(suites, "verify_lemma3", falling_at_3)
    reports, _ = suites.run_verify_lemma3()
    failed = [r for r in reports if not r.passed]
    assert {r.inputs["k"] for r in failed} == {3}
    assert len(failed) == len(suites.V_SWEEP) * len(suites.MU_SWEEP)
    assert all(r.notes == ["lhs must be monotone in k"] for r in failed)


def test_theorem1_suite_requires_exact_products_at_mu_zero(monkeypatch):
    # A distance of 1e-5 is inside the Theorem 1 bound, so the verifier
    # passes it, but the mu = 0 targets are products and must come out
    # below 1e-6.
    def near_miss(state, k, seed, inv_report, inputs):
        rep = make_report("theorem1", INEQUALITY, {"k": k, **inputs}, 1e-5,
                          1.0, 1e-9)
        return rep, SimpleNamespace(weights=[1.0]), {"max_offdiagonal": 0.0}

    monkeypatch.setattr(suites, "verify_theorem1", near_miss)
    reports, _ = suites.run_verify_theorem1(seed=3)
    failed = [r for r in reports if not r.passed]
    assert failed and {r.inputs["mu"] for r in failed} == {0.0}
    assert len(failed) == sum(V - 1 for V in suites.V_SWEEP)
    assert all(r.notes == ["exact product target missed below 1e-6"]
               for r in failed)


def test_clt_makes_one_report_per_claim(monkeypatch):
    # The Lemma-4 sweep reads Fourier cumulant records: no report per case.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return make_report(*args, **kwargs)

    monkeypatch.setattr(suites, "make_report", counting)
    monkeypatch.setattr(cumulants, "make_report", counting)
    reports, _ = suites.run_verify_clt()
    assert len(reports) == 34
    assert len(calls) == 34


def test_clt_makes_one_fourier_cumulant_call_per_claim(monkeypatch):
    # 8 Lemma-4, 4 delta-rule, 7 suppression and 4 p = 2 companion
    # claims, each one call over its whole case list.
    sizes = []

    def counting(rho_single, V, cases):
        sizes.append(len(cases))
        return cumulants.fourier_cumulant(rho_single, V, cases)

    monkeypatch.setattr(suites, "fourier_cumulant", counting)
    suites.run_verify_clt()
    assert len(sizes) == 23
    assert sizes == ([12, 24, 30, 360, 56, 1680, 2, 2]
                     + [V * V for V in (2, 3, 4, 5)] + [1] * 11)


def test_clt_lemma4_cases_count_every_ordered_choice():
    # p = 1: every ordered choice of w of the 2V triples (c, 1, q), c = +-1
    # and V admissible q; p = 2: the two listed choices.
    want = [[V, 1, w, math.perm(2 * V, w)] for V in (2, 3, 4) for w in (2, 4)]
    want += [[V, 2, 4, 2] for V in (2, 3)]
    reports, tables = suites.run_verify_clt()
    header, rows = tables["clt_lemma4"]
    assert header[3] == "cases"
    assert [row[:4] for row in rows] == want
    assert [w[3] for w in want] == [12, 24, 30, 360, 56, 1680, 2, 2]
    lemma4 = [r for r in reports if r.claim_id == "hudson-lemma4"]
    assert [r.inputs["cases"] for r in lemma4] == [w[3] for w in want]


def test_clt_rejects_a_repeated_triple_case(monkeypatch):
    # A case outside the distinct-triples hypothesis is an error, not a
    # case that drops out of the claim's count.
    repeated = (LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
                LadderIndex(-1, 1, 0), LadderIndex(1, 1, 1))
    monkeypatch.setattr(suites, "_lemma4_cases", lambda V, w: [repeated])
    with pytest.raises(ValueError, match="repeats"):
        suites.run_verify_clt()


def test_run_all_witness_searches_stop_after_one_start(counted_run_all):
    # Every witness search of run_all(0), one per verify-theorem1 row, is
    # proven optimal, or hits the target exactly, at its first start: the
    # dual lower bound meets the distance before any coordinate sweep, and
    # the product minima are all one-word exact.  A weaker dual bound or
    # one-word detection shows here as extra starts or coordinate searches.
    _, counts = counted_run_all
    assert counts["searches"] == 60
    assert counts["starts"] == counts["searches"]
    assert counts["coordinate"] == 0


def test_corollary_product_rows_are_their_own_witness(monkeypatch):
    # An exact product xi^(x k) is its own de Finetti mixture: its rows
    # pass it in product form, with xi's mixture as the witness.  The
    # mu-family rows pass dense reductions against their one-site
    # marginal's product, so the suite starts no witness search.
    # With one component the predicted K4 is exactly 0, and the metric is
    # the direct cumulant alone: k times it is <n1 n2> - <n1><n2> =
    # 0.3 - 0.4 * 0.4 = 0.14 for xi = diag(0.5, 0.1, 0.1, 0.3).
    searches = []
    init = definetti._MixtureOptimizer.__init__
    deviation = cumulants.gaussian_mixture_deviation
    predicted = []

    def counting_search(self, blocks, k, *args, **kwargs):
        searches.append(k)
        init(self, blocks, k, *args, **kwargs)

    def recording_deviation(state, mixture, ops):
        direct, pred = deviation(state, mixture, ops)
        product = isinstance(state, cumulants.ProductState)
        assert product != isinstance(state, DenseOperator)
        assert not product or state.mixture is mixture
        predicted.append((product, state.shape.sites, len(mixture.weights),
                          pred))
        return direct, pred

    monkeypatch.setattr(definetti._MixtureOptimizer, "__init__",
                        counting_search)
    monkeypatch.setattr(cumulants, "gaussian_mixture_deviation",
                        recording_deviation)
    reports, _ = suites.run_verify_corollary()
    assert searches == []
    products = [r for r in reports if r.inputs.get("source") == "product-p2"]
    assert [r.inputs["k"] for r in products] == [2, 3, 4, 5]
    # The product rows run first, one ladder set each.
    assert predicted[:4] == [(True, k, 1, 0.0) for k in (2, 3, 4, 5)]
    # The mu rows pass dense reductions against one component each, whose
    # prediction is 0 up to round-off in the products of pair values.
    assert {(product, k, n) for product, k, n, _ in predicted[4:]} == {
        (False, k, 1) for k in (2, 3, 4)}
    assert max(abs(pred) for *_, pred in predicted[4:]) < 1e-30
    for rep in products:
        k = rep.inputs["k"]
        assert abs(rep.lhs * k - 0.14) <= 1e-14
        assert not any("mixture distance" in n for n in rep.notes)


def test_clt_and_product_rows_build_no_copy(monkeypatch):
    # verify-clt and the corollary's product rows read their direct
    # cumulants from the site program, so with product_power refused
    # wherever the suites could reach it, both suites still complete.
    def no_copy(*args):
        raise AssertionError("a V-fold copy was built")

    monkeypatch.setattr(definetti, "product_power", no_copy)
    for module in (cumulants, suites):
        monkeypatch.setattr(module, "product_power", no_copy, raising=False)
    reports, _ = suites.run_verify_clt()
    assert len(reports) == 34 and all(r.passed for r in reports)
    reports, _ = suites.run_verify_corollary()
    products = [r for r in reports if r.inputs.get("source") == "product-p2"]
    assert len(products) == 4 and all(r.passed for r in reports)


def test_corollary_mu_rows_vanish_by_construction():
    # The mu family's reductions hold only pair terms in m^1, so its
    # fourth Majorana cumulants sit on four distinct sites and are
    # antisymmetric.  The suite's index sets all start with (F0-dagger,
    # F0), whose m^1 phase vectors are equal, so every term cancels and
    # the rows read round-off; at k < 4 no four sites exist at all.  Four
    # distinct frequencies at k = 4 leave a cumulant well above it.
    reports, _ = suites.run_verify_corollary()
    mu_rows = [r for r in reports if r.inputs.get("source") == "mu-family"]
    assert [r.inputs["k"] for r in mu_rows] == [2, 3, 4]
    assert all(r.lhs < 1e-15 for r in mu_rows)
    state = suites._mu_case(6, 1.0)[0]
    rho_4 = to_matrix(reduce_expansion(state, 4))
    xi = to_matrix(reduce_expansion(state, 1))
    mixture = definetti.ProductMixture(np.ones(1), (xi,))
    distinct = (LadderIndex(1, 1, 0), LadderIndex(1, 1, 1),
                LadderIndex(1, 1, 2), LadderIndex(-1, 1, 1))
    rep = cumulants.verify_corollary(rho_4, mixture, V=6, ops_sets=[distinct])
    assert rep.lhs > 1e-3


def test_vacuous_trace_distance_bounds_are_noted(counted_run_all):
    # Lemma-3 and Theorem-1 rows whose bound reaches the trace-distance
    # diameter say so, and only those; the gs-bound lhs is an energy gap,
    # so its rows carry no such note.
    reports, _ = counted_run_all
    noted = collections.Counter(r.claim_id for r in reports
                                if VACUOUS_NOTE in r.notes)
    assert noted == {"theorem1": 50, "lemma3": 35}
    for rep in reports:
        if rep.claim_id in ("lemma3", "theorem1"):
            assert (VACUOUS_NOTE in rep.notes) == (
                rep.rhs >= TRACE_DISTANCE_DIAMETER), rep.inputs


def test_vacuous_rule_includes_the_diameter():
    assert vacuous_notes(TRACE_DISTANCE_DIAMETER) == [VACUOUS_NOTE]
    assert vacuous_notes(math.nextafter(TRACE_DISTANCE_DIAMETER, 0.0)) == []
