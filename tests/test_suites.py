"""Suite orchestration: shared cases and the tables the suites write."""

from fermicert import invariance, suites


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
