"""The correctness gate of the benchmark."""

import pytest

from workloads import ALL_SUITES, WORKLOADS, cert_lhs_mean, gate, seed_template


def test_seed_template_rewrites_only_the_seed_input():
    assert seed_template("V=6;k=2;mu=0.5;p=1;r=4;seed=13", 10) == \
        "V=6;k=2;mu=0.5;p=1;r=4;seed={s+3}"
    assert seed_template("V=6;family=x;seed=7", 0) == "V=6;family=x;seed={s+7}"
    assert seed_template("cases=500;shapes=8", 4) == "cases=500;shapes=8"
    assert seed_template("subseed=3", 0) == "subseed=3"


def test_workloads_partition_all_suites():
    names = [n for suites in WORKLOADS.values() for n in suites]
    assert sorted(names) == sorted(ALL_SUITES)
    assert len(names) == len(set(names))


REF = {"a": [["c1", "inequality", "x=1", True],
             ["c2", "equality", "seed={s+3}", True]],
       "b": [["c3", "inequality", "y=2", True]]}


def _row(cid, kind, inputs, passed=True, consistent=True):
    return [cid, kind, inputs, passed, consistent, 0.0, 1.0]


def test_gate_accepts_the_reference():
    claims = {"a": [_row("c1", "inequality", "x=1"),
                    _row("c2", "equality", "seed=8")],
              "b": [_row("c3", "inequality", "y=2")]}
    assert gate(claims, REF, ["a", "b"], 5) == (3, 0, [])


def test_gate_counts_failed_mismatched_and_missing_claims():
    claims = {"a": [_row("c1", "inequality", "x=1", passed=False),
                    _row("c2", "equality", "seed=9")]}
    expected, failed, problems = gate(claims, REF, ["a", "b"], 5)
    assert (expected, failed) == (3, 3)     # failed, wrong seed, missing
    assert len(problems) == 2


def test_gate_counts_inconsistent_and_extra_claims():
    claims = {"a": [_row("c1", "inequality", "x=1", consistent=False),
                    _row("c2", "equality", "seed=8"),
                    _row("c9", "equality", "z=0")],
              "b": [_row("c3", "inequality", "y=2")]}
    expected, failed, _ = gate(claims, REF, ["a", "b"], 5)
    assert (expected, failed) == (3, 2)


def test_cert_lhs_mean_weighs_only_the_certificate_claim_rows_equally():
    claims = {"verify-theorem1": [_row("theorem1", "inequality", "k=1"),
                                  _row("theorem1", "inequality", "k=2")],
              "verify-corollary": [_row("corollary", "property", "k=3")]}
    claims["verify-theorem1"][0][5:] = [0.1, 0.5]
    claims["verify-theorem1"][1][5:] = [0.3, 20.0]     # vacuous bound
    claims["verify-corollary"][0][5:] = [5.0, 6.0]
    assert cert_lhs_mean(claims, "theorem1-witness") == pytest.approx(0.2)
