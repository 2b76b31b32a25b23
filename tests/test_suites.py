"""Suite orchestration: shared cases and the tables the suites write."""

from types import SimpleNamespace

from fermicert import invariance, suites
from fermicert.report import INEQUALITY, make_report


def test_algebra_rows_hold_their_own_shape_worst():
    reports, tables = suites.run_check_algebra(seed=0)
    _, rows = tables["algebra"]
    (claim,) = [r for r in reports if r.claim_id == "algebra-oracle"]
    assert [row[0] for row in rows] == [
        f"({s.sites},{s.modes_per_site})" for s in suites.SMALL_SHAPES]
    # The claim keeps the worst over every shape; each row its own.
    assert max(row[2] for row in rows) == claim.lhs
    assert len({row[2] for row in rows}) > 1


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
