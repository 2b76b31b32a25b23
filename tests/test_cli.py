"""CLI behaviour: exit codes, outputs, determinism of CSV bytes."""

import argparse
import csv
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import parity_state
from fermicert import cli, meanfield, suites
from fermicert.algebra import expansion_to_text
from fermicert.cli import SINGLE, build_parser, main
from fermicert.fock import MODE_CAP_ENV
from fermicert.meanfield import BUILTIN_CONFIGS
from fermicert.report import (INEQUALITY, EQUALITY, PROPERTY,
                              VerificationReport, make_report,
                              render_reports, reports_to_rows, write_csv)

#: Deterministic suites (no --seed) and the CSV tables each one writes,
#: summary.csv included.  verify-corollary reads its witnesses off its
#: states, so it searches none and takes no seed.
SEED_FREE_CSV_COUNT = {"check-invariance": 2, "verify-lemma3": 2,
                       "verify-clt": 4, "verify-corollary": 2,
                       "rdm-spectrum": 3}

#: Suites whose CSV bytes must not depend on the BLAS thread count, as
#: (extra arguments, number of CSV tables).  gs-bound runs both optimizers
#: and the word relabeling; verify-theorem1 runs the mixture witness
#: search and its dual lower bound.
BLAS_CHECKED = {command: ([], count)
                for command, count in SEED_FREE_CSV_COUNT.items()}
BLAS_CHECKED["check-algebra"] = (["--seed", "0"], 2)
BLAS_CHECKED["gs-bound"] = (["--seed", "0"], 2)
BLAS_CHECKED["verify-theorem1"] = (["--seed", "0"], 2)

#: Every command that takes --seed, with the arguments of one instance
#: (none: its suite).
SEEDED = [("check-algebra", []), ("verify-theorem1", []),
          ("verify-theorem1", ["--V", "6", "--k", "2"]),
          ("gs-bound", ["--config", "cfg.json"]), ("gs-bound", []),
          ("gs-bound", ["--hamiltonian", "pair-hopping"]), ("all", [])]


class TestReports:
    def test_inequality_verdict(self):
        rep = make_report("x", INEQUALITY, {}, 1.0, 2.0, 0.0)
        assert rep.passed and rep.consistent()
        rep = make_report("x", INEQUALITY, {}, 3.0, 2.0, 0.5)
        assert not rep.passed and rep.consistent()

    def test_equality_verdict(self):
        rep = make_report("x", EQUALITY, {}, 1.0, 1.0 + 1e-12, 1e-9)
        assert rep.passed
        rep = make_report("x", EQUALITY, {}, 1.0, 1.1, 1e-9)
        assert not rep.passed

    @pytest.mark.parametrize("kind, lhs, rhs, tol, passes", [
        (INEQUALITY, 1.0, 2.0, 0.0, True),
        (INEQUALITY, 2.5, 2.0, 0.5, True),
        (INEQUALITY, 3.0, 2.0, 0.5, False),
        (EQUALITY, 1.0, 1.0 + 1e-12, 1e-9, True),
        (EQUALITY, 1.0, 0.9, 1e-9, False),
        (EQUALITY, 1.0, 1.1, 1e-9, False),
    ])
    def test_consistent_checks_the_stored_verdict(self, kind, lhs, rhs, tol,
                                                  passes):
        for passed in (True, False):
            rep = VerificationReport("x", kind, {}, lhs, rhs, tol, passed)
            assert rep.consistent() == (passed == passes)

    def test_fail_keeps_the_report_consistent(self):
        # A rule beyond the pass rule fails the claim through fail(); a
        # verdict flipped by hand stays inconsistent with the numbers.
        rep = make_report("x", INEQUALITY, {}, 1.0, 2.0, 0.0, notes=["n"])
        rep.fail("extra rule broken")
        assert not rep.passed and rep.consistent()
        assert rep.notes == ["n", "extra rule broken"]
        assert rep.failures == ["extra rule broken"]
        flipped = make_report("x", INEQUALITY, {}, 1.0, 2.0, 0.0)
        flipped.passed = False
        assert not flipped.consistent()
        # A recorded failure may not sit under a passing verdict.
        rep.passed = True
        assert not rep.consistent()
        failing = make_report("x", INEQUALITY, {}, 3.0, 2.0, 0.0)
        failing.fail("also broken")
        assert not failing.passed and failing.consistent()

    def test_property_reports_are_always_consistent(self):
        # A property claim states its rule in the notes, not the numbers.
        for passed in (True, False):
            rep = VerificationReport("x", PROPERTY, {}, 3.0, 0.0, 0.0, passed)
            assert rep.consistent()
        with pytest.raises(ValueError, match="cannot derive a verdict"):
            make_report("x", PROPERTY, {}, 0.0, 0.0, 0.0)

    def test_render_and_rows(self):
        reps = [make_report("a", INEQUALITY, {"V": 6}, 0.1, 1.0, 1e-9),
                make_report("b", EQUALITY, {"k": 2}, 0.5, 0.5, 1e-9)]
        text = render_reports("suite", reps)
        assert "2/2 claims passed" in text
        header, rows = reports_to_rows(reps)
        assert header[0] == "claim_id" and len(rows) == 2

    def test_csv_quotes_cells_with_commas(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["shape", "notes"],
                  [["(1,1)", 'a, "b"'], [2.5, ""]])
        assert path.read_bytes() == (b'shape,notes\n"(1,1)","a, ""b"""\n'
                                     b"2.5,\n")
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["shape", "notes"],
                                            ["(1,1)", 'a, "b"'], ["2.5", ""]]

    def test_csv_deterministic(self, tmp_path):
        header = ["a", "b"]
        rows = [[1.0 / 3.0, True], [2.5e-13, False]]
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(p1, header, rows)
        write_csv(p2, header, rows)
        assert p1.read_bytes() == p2.read_bytes()


class TestCliSingleCommands:
    def test_lemma3_instance(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "verify-lemma3", "--V", "6",
                     "--p", "1", "--mu", "1", "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lemma3" in out and "PASS" in out
        assert (tmp_path / "verify-lemma3.txt").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_lemma3_strict_state_rejects_mu_one(self, tmp_path):
        code = main(["--out", str(tmp_path), "verify-lemma3", "--V", "6",
                     "--mu", "1", "--k", "2", "--strict-state"])
        assert code == 2

    def test_quadratic_state_is_checked_from_its_levels(self, tmp_path,
                                                         capsys, monkeypatch):
        # Every mu-family state is quadratic: its validity comes from the
        # Majorana levels, with the dense check's verdict and note.
        def refuse(dense):
            raise AssertionError("dense state check")

        monkeypatch.setattr(cli, "check_state", refuse)
        args = ["--out", str(tmp_path), "verify-lemma3", "--V", "6", "--mu",
                "1", "--k", "2"]
        assert main(args) == 0
        assert ("input operator is not positive (min eigenvalue -5.309e-03)"
                in capsys.readouterr().out)
        assert main(args + ["--strict-state"]) == 2

    def test_quartic_fixture_is_checked_densely(self, tmp_path, monkeypatch):
        checked = []

        def counted(dense):
            checked.append(dense.dim)
            return check_state(dense)

        from fermicert.fock import check_state
        monkeypatch.setattr(cli, "check_state", counted)
        fixture = tmp_path / "state.txt"
        # The same quartic word on every 4-subset: invariant, not quadratic.
        fixture.write_text("0.015625 0 1\n" + "".join(
            "0.001 0 " + "".join(f"({j},1)" for j in quad) + "\n"
            for quad in itertools.combinations(range(1, 7), 4)))
        assert main(["--out", str(tmp_path), "verify-lemma3", "--V", "6",
                     "--k", "2", "--fixture", str(fixture)]) == 0
        assert checked == [64]

    def test_lemma3_over_the_mode_cap_exit_3(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "verify-lemma3", "--V", "14",
                     "--mu", "0.3", "--k", "2"]) == 3
        assert "resource cap" in capsys.readouterr().err

    def test_negative_scientific_b_needs_the_equals_form(self):
        # argparse reads "-3.25e-06" after a space as an option, not a
        # value; the help text names the form that works.
        args = build_parser().parse_args(
            ["rdm-spectrum", "--V", "5", "--a", "0.5", "--b-re=-1e-3",
             "--b-im=-3.25e-06"])
        assert (args.b_re, args.b_im) == (-1e-3, -3.25e-06)
        sub = build_parser()._subparsers._group_actions[0].choices[
            "rdm-spectrum"]
        helps = {a.dest: a.help for a in sub._actions}
        assert "--b-re=-3.25e-06" in helps["b_re"]
        assert "--b-im=-3.25e-06" in helps["b_im"]

    def test_rdm_instance_flat_spectrum(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "rdm-spectrum", "--V", "6",
                     "--a", "0.5", "--b-re", "0"])
        assert code == 0
        rows = (tmp_path / "rdm_spectrum.csv").read_text().splitlines()[1:]
        values = {float(r.split(",")[2]) for r in rows}
        assert values == {0.5}
        with open(tmp_path / "summary.csv", newline="") as fh:
            claims = list(csv.DictReader(fh))
        assert [(c["claim_id"], c["kind"]) for c in claims] == [
            ("rdm-spectrum", EQUALITY)]

    @pytest.mark.parametrize("b_im", ["1e-5", "3e-6", "1e-6"])
    def test_rdm_instance_near_real_b_passes(self, tmp_path, capsys, b_im):
        # Imaginary parts this small once put a removable zero of the
        # closed form near k = 0 and gave FAIL with lhs up to 1.6e-6.
        assert main(["--out", str(tmp_path), "rdm-spectrum", "--V", "7",
                     "--a", "0.5", "--b-re", "0.066", "--b-im", b_im]) == 0
        with open(tmp_path / "summary.csv", newline="") as fh:
            (claim,) = list(csv.DictReader(fh))
        assert claim["passed"] == "1"
        assert float(claim["lhs"]) < 1e-14

    @pytest.mark.parametrize("values, name", [
        (["--a", "nan", "--b-re", "0.1"], "a"),
        (["--a", "0.5", "--b-re", "nan"], "b"),
        (["--a", "0.5", "--b-re", "inf"], "b"),
        (["--a", "inf", "--b-re", "0.1"], "a"),
        (["--a", "0.5", "--b-re", "0.1", "--b-im=-inf"], "b"),
    ], ids=["a-nan", "b-re-nan", "b-re-inf", "a-inf", "b-im-inf"])
    def test_rdm_instance_non_finite_exit_2(self, tmp_path, capsys, values,
                                            name):
        # Named before any eigensolver sees the matrix.
        assert main(["--out", str(tmp_path), "rdm-spectrum", "--V", "5",
                     *values]) == 2
        assert f"error: {name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_missing_fixture_exit_2(self, tmp_path):
        code = main(["--out", str(tmp_path), "verify-lemma3", "--fixture",
                     str(tmp_path / "missing.txt"), "--V", "6", "--k", "2"])
        assert code == 2

    def test_directory_fixture_exit_2(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "out"), "verify-lemma3",
                     "--fixture", str(tmp_path), "--V", "6", "--k",
                     "2"]) == 2
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fixture_roundtrip(self, tmp_path):
        from fermicert.invariance import MuFamilyParams, mu_family_state
        state = mu_family_state(MuFamilyParams(6, 1, 0.5), validate=False)
        fixture = tmp_path / "state.txt"
        fixture.write_text(expansion_to_text(state))
        code = main(["--out", str(tmp_path), "verify-lemma3", "--fixture",
                     str(fixture), "--V", "6", "--p", "1", "--k", "2"])
        assert code == 0

    def test_fixture_report_names_the_fixture(self, tmp_path):
        # The report names the fixture that ran, not the family's mu.
        from fermicert.invariance import MuFamilyParams, mu_family_state
        state = mu_family_state(MuFamilyParams(6, 1, 0.5), validate=False)
        fixture = tmp_path / "state.txt"
        fixture.write_text(expansion_to_text(state))
        assert main(["--out", str(tmp_path), "verify-lemma3", "--fixture",
                     str(fixture), "--V", "6", "--k", "2"]) == 0
        with open(tmp_path / "summary.csv", newline="") as fh:
            (claim,) = csv.DictReader(fh)
        assert claim["inputs"] == "V=6;fixture=state.txt;k=2;p=1"

    def test_theorem1_urn_fixture_runs_every_start(self, tmp_path,
                                                   monkeypatch):
        # The urn U(6, 2), the uniform mixture of the 2-of-6 occupations,
        # is diagonal, so its dual bound is 0 and no start is proven, and
        # it is no product mixture: the command runs the search's whole
        # budget, 8 starts of r = 2p + 2 = 4 components.
        from fermicert.algebra import SystemShape, expansion_to_text
        from fermicert.definetti import _MixtureOptimizer
        from fermicert.fock import DenseOperator, to_expansion
        diag = [float(bin(i).count("1") == 2) / 15 for i in range(64)]
        fixture = tmp_path / "urn.txt"
        fixture.write_text(expansion_to_text(to_expansion(DenseOperator(
            SystemShape(6, 1), np.diag(diag).astype(complex)))))
        runs = []
        run = _MixtureOptimizer.run

        def counting(self, *args):
            runs.append(1)
            return run(self, *args)

        monkeypatch.setattr(_MixtureOptimizer, "run", counting)
        assert main(["--out", str(tmp_path), "verify-theorem1", "--seed",
                     "0", "--V", "6", "--k", "2", "--fixture",
                     str(fixture)]) == 0
        assert len(runs) == 8
        with open(tmp_path / "summary.csv", newline="") as fh:
            (claim,) = csv.DictReader(fh)
        assert claim["inputs"] == "V=6;fixture=urn.txt;k=2;p=1;r=4;seed=0"
        assert claim["lhs"] == "0.137763223905"
        assert "dual lower bound 0;" in claim["notes"]

    @pytest.mark.parametrize("argv, flags", [
        (["verify-lemma3", "--k", "2", "--V", "6", "--fixture", "x.txt",
          "--mu", "0.9"], ("--fixture", "--mu")),
        (["verify-theorem1", "--seed", "0", "--k", "2", "--V", "6",
          "--fixture", "x.txt", "--mu", "0.9"], ("--fixture", "--mu")),
        (["gs-bound", "--seed", "1", "--config", "cfg.json",
          "--hamiltonian", "pair-exchange"], ("--config", "--hamiltonian")),
        (["gs-bound", "--seed", "1", "--config", "cfg.json", "--V", "9"],
         ("--config", "--V")),
    ], ids=["lemma3-fixture-mu", "theorem1-fixture-mu",
            "gs-config-hamiltonian", "gs-config-V"])
    def test_two_sources_rejected(self, tmp_path, capsys, argv, flags):
        # A fixture is the whole state and a config the whole Hamiltonian:
        # a second source would be ignored, so it is a usage error.
        assert main(["--out", str(tmp_path), *argv]) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_fixture_exit_2(self, tmp_path, capsys, value):
        # A NaN coefficient would drop out of the expansion unseen, and an
        # infinite one would reach the bound as a NaN spectrum.
        fixture = tmp_path / "state.txt"
        fixture.write_text(f"0.015625 0 1\n{value} 0 (1,1)(2,1)\n")
        assert main(["--out", str(tmp_path), "verify-lemma3", "--V", "6",
                     "--k", "2", "--fixture", str(fixture)]) == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("line, message", [
        ("0.001 0 (1,2,3)", "word token '(1,2,3)' is not (site,index)"),
        ("0.001 0 (1,x)", "word token '(1,x)' is not (site,index)"),
        ("0.001 0 (1,1)(9,1)", "word token '(9,1)': site 9 out of range"),
        ("0.001 0 (1,5)", "word token '(1,5)': majorana index 5 out of"),
        ("abc 0 (1,1)", "coefficient token 'abc' is not a number"),
    ], ids=["three-indices", "non-integer", "site-range", "index-range",
            "coefficient"])
    def test_malformed_fixture_names_line_and_token(self, tmp_path, capsys,
                                                    line, message):
        fixture = tmp_path / "state.txt"
        fixture.write_text(f"0.015625 0 1\n{line}\n")
        assert main(["--out", str(tmp_path), "verify-lemma3", "--V", "6",
                     "--k", "2", "--fixture", str(fixture)]) == 2
        assert f"error: line 2: {message}" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_nan_mu_exit_2(self, tmp_path, capsys):
        # NaN would otherwise pass |mu| <= 1 unseen and build mu = 0.
        assert main(["--out", str(tmp_path), "verify-lemma3", "--V", "6",
                     "--k", "2", "--mu", "nan"]) == 2
        assert "|mu| must be <= 1" in capsys.readouterr().err

    def test_trace_note(self, tmp_path, capsys):
        # The identity at V = 6 is positive with trace 64: the run goes on,
        # and the report says why its numbers are off scale.
        fixture = tmp_path / "state.txt"
        fixture.write_text("1 0 1\n")
        note = "input operator has trace 64+0j, not 1"
        for command, code in (["verify-lemma3"], 0), (
                ["verify-theorem1", "--seed", "0"], 1):
            assert main(["--out", str(tmp_path), *command, "--V", "6",
                         "--k", "2", "--fixture", str(fixture)]) == code
            out = capsys.readouterr().out
            assert note in out
            assert "not positive" not in out

    def test_theorem1_refuses_a_correlation_above_degree_4(self, tmp_path,
                                                           capsys):
        # 2^-6 (1 + 0.9 P_1 P_2 P_3): its one correlation has degree 6.
        fixture = tmp_path / "state.txt"
        fixture.write_text(expansion_to_text(parity_state(6, 0.9)))
        assert main(["--out", str(tmp_path), "verify-theorem1", "--V", "6",
                     "--k", "2", "--seed", "0", "--fixture",
                     str(fixture)]) == 2
        assert "not permutation invariant" in capsys.readouterr().err

    def test_parity_note(self, tmp_path, capsys):
        # Single Majorana terms, one per site, break parity
        # superselection; the Lemma-3 run goes on and says so.
        fixture = tmp_path / "state.txt"
        fixture.write_text("0.015625 0 1\n" + "".join(
            f"0.001 0 ({j},1)\n" for j in range(1, 7)))
        assert main(["--out", str(tmp_path), "verify-lemma3", "--V", "6",
                     "--k", "2", "--fixture", str(fixture)]) == 0
        assert "breaks parity superselection" in capsys.readouterr().out

    def test_strict_state_rejects_parity_breaking_input(self, tmp_path,
                                                        capsys):
        # The same fixture has unit trace and is positive, but no
        # fermionic state breaks parity superselection: strict mode
        # rejects it as a usage error.
        fixture = tmp_path / "state.txt"
        fixture.write_text("0.015625 0 1\n" + "".join(
            f"0.001 0 ({j},1)\n" for j in range(1, 7)))
        assert main(["--out", str(tmp_path), "verify-lemma3", "--V", "6",
                     "--k", "2", "--fixture", str(fixture),
                     "--strict-state"]) == 2
        err = capsys.readouterr().err
        assert "not a valid state" in err
        assert "parity superselection broken" in err
        assert not (tmp_path / "summary.csv").exists()

    @staticmethod
    def _non_hermitian_fixture(tmp_path) -> str:
        # A real coefficient on each anti-Hermitian word m_j^1 m_l^1: unit
        # trace, parity kept, and the Hermitian part is the identity.
        fixture = tmp_path / "state.txt"
        fixture.write_text("0.015625 0 1\n" + "".join(
            f"0.00078125 0 ({j},1)({l},1)\n"
            for j, l in itertools.combinations(range(1, 7), 2)))
        return str(fixture)

    @pytest.mark.parametrize("command, what", [
        (["verify-lemma3"], "trace-norm input"),
        (["verify-theorem1", "--seed", "0"], "mixture-approximation target"),
    ], ids=["lemma3", "theorem1"])
    def test_non_hermitian_input_is_refused(self, tmp_path, capsys, command,
                                            what):
        # Both bounds are stated for Hermitian operators; neither command
        # certifies the Hermitian part of this input in its place.
        fixture = self._non_hermitian_fixture(tmp_path)
        assert main(["--out", str(tmp_path), *command, "--V", "6", "--k",
                     "2", "--fixture", fixture]) == 2
        assert (f"{what} is not Hermitian (residual 2.500e-02"
                in capsys.readouterr().err)
        assert not (tmp_path / "summary.csv").exists()

    def test_strict_state_names_the_hermiticity_residual(self, tmp_path,
                                                         capsys):
        # The Hermitian part's minimum eigenvalue passes; the residual is
        # what fails the input.
        fixture = self._non_hermitian_fixture(tmp_path)
        assert main(["--out", str(tmp_path), "verify-theorem1", "--seed",
                     "0", "--V", "6", "--k", "2", "--fixture", fixture,
                     "--strict-state"]) == 2
        err = capsys.readouterr().err
        assert ("min eigenvalue 1.562e-02, Hermiticity residual 1.563e-03"
                in err)

    @pytest.mark.parametrize("source", ["fixture", "family"])
    @pytest.mark.parametrize("mu, positive", [(1.0, False), (0.5, True)],
                             ids=["mu1", "mu0.5"])
    @pytest.mark.parametrize("command", [
        ["verify-lemma3", "--k", "2"],
        ["verify-theorem1", "--seed", "0", "--k", "2"]],
        ids=["lemma3", "theorem1"])
    def test_strict_state_checks_the_input(self, tmp_path, capsys, command,
                                           mu, positive, source):
        # At V = 6, mu = 1 is not positive, though its 2-site reduction
        # is: the check must read the input, family or fixture, not a
        # reduction.
        if source == "fixture":
            from fermicert.invariance import MuFamilyParams, mu_family_state
            state = mu_family_state(MuFamilyParams(6, 1, mu), validate=False)
            fixture = tmp_path / "state.txt"
            fixture.write_text(expansion_to_text(state))
            given = ["--fixture", str(fixture)]
        else:
            given = ["--mu", str(mu)]
        args = ["--out", str(tmp_path), command[0], "--V", "6", *given,
                *command[1:]]
        note = "input operator is not positive"
        assert main(args + ["--strict-state"]) == (0 if positive else 2)
        out, err = capsys.readouterr()
        assert ("not a valid state" in err) != positive
        assert main(args) == 0
        assert (note in capsys.readouterr().out) != positive

    def test_resource_cap_exit_3(self, tmp_path):
        code = main(["--out", str(tmp_path), "verify-theorem1", "--seed",
                     "0", "--V", "14", "--mu", "0.0", "--k", "13"])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["verify-theorem1", "--restarts", "1"],
        ["verify-theorem1", "--iters", "5"],
        ["verify-theorem1", "--r", "0"],
        ["gs-bound", "--hamiltonian", "pair-hopping", "--restarts", "1"],
        ["gs-bound", "--hamiltonian", "pair-hopping", "--iters", "5"],
    ], ids=["theorem1-restarts", "theorem1-iters", "theorem1-r",
            "gs-restarts", "gs-iters"])
    def test_search_budget_is_no_option(self, tmp_path, argv):
        # The searches own their budgets: a budget flag is unknown to the
        # parser, which exits 2 before anything runs.
        command, rest = argv[0], argv[1:]
        single = {"verify-theorem1": ["--V", "6", "--mu", "0.5", "--k", "2"],
                  "gs-bound": ["--V", "6"]}[command]
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), command, "--seed", "0", *single,
                  *rest])
        assert exc.value.code == 2
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("argv, selector", [
        (["verify-lemma3", "--V", "7", "--mu", "0.3", "--fixture",
          "missing.txt"], "--k"),
        (["verify-theorem1", "--seed", "0", "--V", "9", "--mu", "0.2"],
         "--k"),
        (["gs-bound", "--seed", "1", "--V", "8"], "--hamiltonian or --config"),
        (["rdm-spectrum", "--V", "5", "--b-re", "0.1"], "--a"),
    ], ids=["lemma3", "theorem1", "gs-bound", "rdm-spectrum"])
    def test_instance_arguments_need_their_selector(self, tmp_path, capsys,
                                                   argv, selector):
        # Without the selector the command would run its suite and drop
        # these arguments; it refuses them instead.
        assert main(["--out", str(tmp_path), *argv]) == 2
        assert f"need {selector};" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_lemma3_instance_needs_sites(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "verify-lemma3", "--k",
                     "2"]) == 2
        assert "--V is required with --k" in capsys.readouterr().err

    def test_rdm_instance_needs_sites(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "rdm-spectrum", "--a",
                     "0.5"]) == 2
        assert "--V is required with --a" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_gs_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "gs-bound", "--seed", "0",
                     "--config", str(tmp_path / "missing.json")]) == 2
        assert "config not found" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_clt_over_the_mode_cap_runs(self, tmp_path, monkeypatch):
        # verify-clt builds no Fock-space array (its direct cumulants come
        # from the site program), so a cap below its 8-site claims leaves
        # every table as the uncapped run writes it.
        assert main(["--out", str(tmp_path / "free"), "verify-clt"]) == 0
        monkeypatch.setenv(MODE_CAP_ENV, "6")
        assert main(["--out", str(tmp_path / "capped"), "verify-clt"]) == 0
        names = sorted(p.name for p in (tmp_path / "free").glob("*.csv"))
        assert names == ["clt_delta.csv", "clt_lemma4.csv", "summary.csv",
                         "suppression.csv"]
        for name in names:
            assert ((tmp_path / "capped" / name).read_bytes()
                    == (tmp_path / "free" / name).read_bytes())

    def test_gs_directory_config_exit_2(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "out"), "gs-bound", "--seed",
                     "0", "--config", str(tmp_path)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_on_a_file_exit_2(self, tmp_path, monkeypatch, capsys):
        # The --out is refused before the run: no claim is computed.
        def no_run(args):
            pytest.fail("the command ran before --out was checked")

        monkeypatch.setattr(cli, "_run", no_run)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        for out in (taken, taken / "sub"):
            assert main(["--out", str(out), "rdm-spectrum", "--a", "0.5",
                         "--V", "4"]) == 2
            assert "error: " in capsys.readouterr().err
            assert taken.read_text() == "kept"

    @pytest.mark.parametrize("V, code", [(7, 3), (6, 0)])
    def test_gs_over_the_mode_cap_exit_3(self, tmp_path, monkeypatch, capsys,
                                         V, code):
        # The cap is checked before the ground state is solved, so a
        # Hamiltonian one mode over it exits 3 rather than running.
        monkeypatch.setenv(MODE_CAP_ENV, "6")
        assert main(["--out", str(tmp_path), "gs-bound", "--seed", "0",
                     "--hamiltonian", "site-number", "--V", str(V)]) == code
        assert ("resource cap" in capsys.readouterr().err) == (code == 3)

    @pytest.mark.parametrize("source", ["hamiltonian", "config",
                                        "k4-config", "hubbard-like"])
    def test_gs_over_the_mode_cap_builds_nothing(self, tmp_path,
                                                 monkeypatch, capsys,
                                                 source):
        # The cap is checked before the Hamiltonian's expansion is built,
        # so a large V exits 3 at once instead of expanding every term,
        # and before the subsets are listed: a V = 60, k = 4 config
        # refuses without its 487,635 subsets, and hubbard-like at V = 600
        # without its 359,400 ordered pairs (tens of MB either way).
        def refuse(spec):
            raise AssertionError("expansion built over the mode cap")

        monkeypatch.setattr(meanfield, "build_hamiltonian_expansion", refuse)
        configs = {"config": {"V": 13, "p": 1, "k": 1,
                              "template": "0 -1 (1,1)(1,2)"},
                   "k4-config": {"V": 60, "p": 1, "k": 4,
                                 "template": "1 0 (1,1)(2,1)(3,1)(4,1)"}}
        families = {"hamiltonian": ("pair-hopping", 13),
                    "hubbard-like": ("hubbard-like", 600)}
        if source in configs:
            path = tmp_path / "ham.json"
            path.write_text(json.dumps(configs[source]))
            argv = ["--config", str(path)]
        else:
            name, V = families[source]
            argv = ["--hamiltonian", name, "--V", str(V)]
        tracemalloc.start()
        try:
            code = main(["--out", str(tmp_path / "out"), "gs-bound",
                         "--seed", "0", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "resource cap" in capsys.readouterr().err
        assert peak < 4 << 20

    @pytest.mark.parametrize("cap, V, code", [("12", 10 ** 6, 3),
                                              ("3", 8, 0), ("3", 9, 3)])
    def test_rdm_spectrum_over_the_mode_cap_exit_3(self, tmp_path,
                                                   monkeypatch, capsys,
                                                   cap, V, code):
        # No V x V matrix larger than the largest Fock matrix the mode
        # cap allows, 2^cap: V = 10^6 would need 14.6 TiB and exits 3
        # before any array is made.
        monkeypatch.setenv(MODE_CAP_ENV, cap)
        assert main(["--out", str(tmp_path), "rdm-spectrum", "--a", "0.5",
                     "--V", str(V)]) == code
        assert ("resource cap" in capsys.readouterr().err) == (code == 3)

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_non_integer_mode_cap_exit_2(self, tmp_path, monkeypatch, capsys,
                                         value):
        monkeypatch.setenv(MODE_CAP_ENV, value)
        assert main(["--out", str(tmp_path), "check-algebra",
                     "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert MODE_CAP_ENV in err and repr(value) in err

    @pytest.mark.parametrize("command, argv", SEEDED)
    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path,
                                                 monkeypatch, capsys,
                                                 command, argv, seed):
        # Parsing refuses the seed, naming --seed, before any claim is
        # computed.
        def no_run(args):
            raise AssertionError("ran with an invalid seed")

        monkeypatch.setattr(cli, "_run", no_run)
        with pytest.raises(SystemExit) as err:
            main(["--out", str(tmp_path), command, *argv, "--seed", seed])
        assert err.value.code == 2
        assert "argument --seed: expected an integer >= 0" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command, argv", SEEDED)
    def test_large_seeds_parse(self, command, argv):
        seed = "99999999999999999999999"
        args = build_parser().parse_args([command, *argv, "--seed", seed])
        assert args.seed == int(seed)

    def test_large_seed_runs(self, tmp_path):
        assert main(["--out", str(tmp_path), "gs-bound", "--seed",
                     "99999999999999999999999", "--hamiltonian",
                     "pair-hopping"]) == 0

    def test_theorem1_requires_seed(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["--out", str(tmp_path), "verify-theorem1", "--V", "6",
                  "--k", "2"])
        assert err.value.code == 2

    def test_gs_builtin(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "gs-bound", "--seed", "1",
                     "--hamiltonian", "site-number"])
        assert code == 0
        assert "gs-bound" in capsys.readouterr().out

    def test_gs_pair_exchange_names_the_transposition_bound(self, tmp_path):
        # pair-exchange's H is not site symmetric and the site
        # transpositions do not certify its ground space: the row says the
        # precondition failed, and the note names the bound that decided.
        assert main(["--out", str(tmp_path), "gs-bound", "--hamiltonian",
                     "pair-exchange", "--V", "6", "--seed", "0"]) == 0
        with open(tmp_path / "gsbound.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["precondition_ok"] == "0"
        with open(tmp_path / "summary.csv", newline="") as fh:
            (summary,) = list(csv.DictReader(fh))
        assert ("precondition failed: ground space not certified permutation"
                " invariant (site-transposition bound 3.000e+01)"
                in summary["notes"])

    def test_gs_config_file(self, tmp_path):
        cfg = {
            "V": 4, "p": 1, "k": 1, "name": "site-number-custom",
            "template": "0 -1 (1,1)(1,2)",
            "subsets": [[1], [2], [3], [4]],
        }
        path = tmp_path / "ham.json"
        path.write_text(json.dumps(cfg))
        code = main(["--out", str(tmp_path), "gs-bound", "--seed", "1",
                     "--config", str(path)])
        assert code == 0

    def test_gs_config_all_k_subsets(self, tmp_path):
        cfg = {
            "V": 4, "p": 1, "k": 2, "name": "hop",
            "template": "0 0.5 (1,1)(2,2)\n0 -0.5 (1,2)(2,1)",
            "subsets": "all-k-subsets",
        }
        path = tmp_path / "ham.json"
        path.write_text(json.dumps(cfg))
        code = main(["--out", str(tmp_path), "gs-bound", "--seed", "1",
                     "--config", str(path)])
        assert code == 0

    @pytest.mark.parametrize("V", [4, 6])
    @pytest.mark.parametrize("name", list(BUILTIN_CONFIGS))
    def test_gs_builtin_is_its_config(self, tmp_path, name, V):
        # A built-in family is the config in its table entry plus V and
        # name (and, for hubbard-like, every ordered pair): written to a
        # file, it gives the same CSV bytes.
        cfg = {**BUILTIN_CONFIGS[name], "V": V, "name": name}
        if name == "hubbard-like":
            cfg["subsets"] = [[j, l] for j in range(1, V + 1)
                              for l in range(1, V + 1) if j != l]
        path = tmp_path / "ham.json"
        path.write_text(json.dumps(cfg))
        outs = [tmp_path / "builtin", tmp_path / "config"]
        assert main(["--out", str(outs[0]), "gs-bound", "--seed", "13",
                     "--hamiltonian", name, "--V", str(V)]) == 0
        assert main(["--out", str(outs[1]), "gs-bound", "--seed", "13",
                     "--config", str(path)]) == 0
        for table in ("gsbound.csv", "summary.csv"):
            assert ((outs[0] / table).read_bytes()
                    == (outs[1] / table).read_bytes()), table

    def test_gs_malformed_template_names_line_and_token(self, tmp_path,
                                                       capsys):
        cfg = {"V": 4, "p": 1, "k": 1,
               "template": "0 -1 (1,1)(1,2)\n0 1 (1,1)(2,1)"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path), "gs-bound", "--seed", "1",
                     "--config", str(path)]) == 2
        assert ("config template line 2: word token '(2,1)': site 2 out of "
                "range [1..1]") in capsys.readouterr().err

    def test_gs_anti_hermitian_template_exit_2(self, tmp_path, capsys):
        # The real coefficient 1 on m_1 m_2 makes the template
        # anti-Hermitian: the builder refuses the assembled sum, naming
        # its residual, before any claim is computed.
        cfg = {"V": 4, "p": 1, "k": 1, "template": "1 0 (1,1)(1,2)",
               "subsets": "all-k-subsets"}
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path), "gs-bound", "--seed", "1",
                     "--config", str(path)]) == 2
        assert ("assembled Hamiltonian is not Hermitian (residual"
                in capsys.readouterr().err)
        assert not (tmp_path / "summary.csv").exists()

    def test_gs_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"V\": 4}")
        code = main(["--out", str(tmp_path), "gs-bound", "--seed", "1",
                     "--config", str(path)])
        assert code == 2

    @pytest.mark.parametrize("change", [
        {"template": 5},
        {"subsets": [[1], 3]},
        {"subsets": [[1], ["2"]]},
        {"V": "4"},
        {"k": 1.0},
        # A norm-2 template is rejected unless normalize is true; "no" is
        # not true, though bool("no") is.
        {"template": "0 -2 (1,1)(1,2)", "normalize": "no"},
        7,
        {"name": None},
        {"name": 5},
        # A misspelt key is not ignored.
        {"subset": [[1]]},
    ], ids=["template-int", "subsets-int", "subsets-str", "V-str",
            "k-float", "normalize-str", "not-an-object", "name-null",
            "name-int", "unknown-key"])
    def test_gs_malformed_config_exit_2(self, tmp_path, capsys, change):
        # A field of the wrong JSON type is a usage error, not a traceback
        # and not a coerced value.
        cfg = {"V": 4, "p": 1, "k": 1, "template": "0 -1 (1,1)(1,2)",
               "subsets": [[1], [2], [3], [4]]}
        cfg = {**cfg, **change} if isinstance(change, dict) else change
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path), "gs-bound", "--seed", "1",
                     "--config", str(path)]) == 2
        assert "config" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()


class TestCliSuites:
    def test_check_algebra_suite(self, tmp_path):
        code = main(["--out", str(tmp_path), "check-algebra"])
        assert code == 0
        assert (tmp_path / "algebra.csv").exists()

    def test_suite_csv_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(out_a), "check-algebra", "--seed", "5"]) == 0
        assert main(["--out", str(out_b), "check-algebra", "--seed", "5"]) == 0
        assert ((out_a / "summary.csv").read_bytes()
                == (out_b / "summary.csv").read_bytes())
        assert ((out_a / "algebra.csv").read_bytes()
                == (out_b / "algebra.csv").read_bytes())

    @pytest.mark.parametrize("command", list(SEED_FREE_CSV_COUNT))
    def test_seed_free_commands_reject_seed(self, tmp_path, command):
        with pytest.raises(SystemExit) as err:
            main(["--out", str(tmp_path), command, "--seed", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", list(BLAS_CHECKED))
    def test_suite_csv_independent_of_blas_threads(self, tmp_path, command):
        extra, count = BLAS_CHECKED[command]
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-m", "fermicert.cli", "--out",
                            str(out), command, *extra],
                           env=env, check=True, capture_output=True)
            outputs[threads] = {p.name: p.read_bytes()
                                for p in sorted(out.glob("*.csv"))}
        assert len(outputs["1"]) == count
        assert outputs["1"] == outputs["2"]


def _line_starting(path: Path, prefix: str) -> str:
    (line,) = [line for line in path.read_text().splitlines()
               if line.startswith(prefix)]
    return line


def _summary_row(path: Path, claim_id: str, inputs: str) -> dict:
    """The summary.csv row of one claim, parsed into its named cells."""
    with open(path, newline="") as fh:
        (row,) = [row for row in csv.DictReader(fh)
                  if (row["claim_id"], row["inputs"]) == (claim_id, inputs)]
    return row


class TestCliSuiteParity:
    """A single command's rows equal the suite's rows for the same inputs,
    up to the notes that only the single command adds: the verdict rules
    live in the verifiers, not in the suites or the CLI."""

    def test_lemma3_row(self, tmp_path):
        single, suite = tmp_path / "single", tmp_path / "suite"
        assert main(["--out", str(single), "verify-lemma3", "--V", "6",
                     "--mu", "0.5", "--k", "2"]) == 0
        assert main(["--out", str(suite), "verify-lemma3"]) == 0
        prefix = "lemma3,inequality,V=6;k=2;mu=0.5;p=1,"
        assert (_line_starting(single / "summary.csv", prefix)
                == _line_starting(suite / "summary.csv", prefix))

    def test_theorem1_row(self, tmp_path):
        single, suite = tmp_path / "single", tmp_path / "suite"
        assert main(["--out", str(single), "verify-theorem1", "--V", "6",
                     "--mu", "0.5", "--k", "2", "--seed", "3"]) == 0
        assert main(["--out", str(suite), "verify-theorem1",
                     "--seed", "3"]) == 0
        inputs = "V=6;k=2;mu=0.5;p=1;r=4;seed=3"
        single_row = _summary_row(single / "summary.csv", "theorem1", inputs)
        suite_row = _summary_row(suite / "summary.csv", "theorem1", inputs)
        single_notes = single_row.pop("notes")
        suite_notes = suite_row.pop("notes")
        assert single_row == suite_row
        assert single_notes.startswith(suite_notes + ";")
        extra = single_notes[len(suite_notes) + 1:]
        assert extra.startswith("component purities [")
        assert ";" not in extra

    def test_gs_bound_rows(self, tmp_path):
        # With no flags beyond the instance, a single command searches at
        # the suite's budget and writes the suite's rows.
        single, suite = tmp_path / "single", tmp_path / "suite"
        assert main(["--out", str(single), "gs-bound", "--hamiltonian",
                     "pair-hopping", "--V", "6", "--seed", "13"]) == 0
        assert main(["--out", str(suite), "gs-bound", "--seed", "13"]) == 0
        prefix = "gs-bound,inequality,V=6;family=pair-hopping;"
        assert (_line_starting(single / "summary.csv", prefix)
                == _line_starting(suite / "summary.csv", prefix))
        single_rows = (single / "gsbound.csv").read_text().splitlines()
        suite_rows = (suite / "gsbound.csv").read_text().splitlines()
        assert single_rows[0] == suite_rows[0]
        assert single_rows[1:] == [
            row for row in suite_rows[1:] if row.startswith("pair-hopping,")]


def test_single_defaults_match_the_options():
    # An instance option missing from SINGLE would be dropped silently in
    # suite mode, and a SINGLE entry without an option is dead.
    parser = build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for command, sub in commands.items():
        selectors, _, defaults = SINGLE.get(command, ((), None, {}))
        options = {action.dest for action in sub._actions
                   if action.option_strings and action.dest != "help"}
        options -= {"seed"} | {flag[2:] for flag in selectors}
        assert options == set(defaults), command


@pytest.mark.parametrize("command", list(suites.TABLES))
def test_help_lists_the_suite_tables(command, capsys):
    # The help text is generated from the columns the suites write.
    with pytest.raises(SystemExit):
        main([command, "--help"])
    epilog = capsys.readouterr().out
    assert ("  summary.csv: claim_id, kind, inputs, lhs, rhs, tolerance, "
            "passed, notes\n") in epilog
    for name, columns in suites.TABLES[command].items():
        assert f"  {name}.csv: {', '.join(columns.split())}\n" in epilog


def test_gs_help_lists_the_family_templates(capsys):
    # The family list is generated from the config table.
    with pytest.raises(SystemExit):
        main(["gs-bound", "--help"])
    epilog = capsys.readouterr().out
    for name, cfg in BUILTIN_CONFIGS.items():
        assert f"  {name}: p={cfg['p']}, k={cfg['k']}, subsets [" in epilog
        for line in cfg["template"].splitlines():
            assert f"\n    {line}\n" in epilog
    assert "subsets [1,2] [1,3] [2,1] [2,3] [3,1] [3,2]\n" in epilog


def test_every_csv_row_has_the_header_width(tmp_path):
    # Cells that hold a comma (notes, the algebra shape) are quoted, so
    # every row of every table parses to as many fields as its header.
    assert main(["--out", str(tmp_path), "all", "--seed", "0"]) == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == 12
    for path in paths:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows, path.name
        assert [len(row) for row in rows] == [len(header)] * len(rows), \
            path.name
