"""CLI behaviour: exit codes, outputs, determinism of CSV bytes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fermicert.cli import main
from fermicert.report import (INEQUALITY, EQUALITY, make_report,
                              render_reports, reports_to_rows, write_csv)

#: Deterministic suites (no --seed) and the CSV tables each one writes,
#: summary.csv included.
SEED_FREE_CSV_COUNT = {"check-invariance": 2, "verify-lemma3": 2,
                       "verify-clt": 4, "rdm-spectrum": 3}

#: Suites whose CSV bytes must not depend on the BLAS thread count, as
#: (extra arguments, number of CSV tables).  gs-bound runs both optimizers
#: and the word relabeling; verify-theorem1 and verify-corollary run the
#: mixture witness search and its dual lower bound.
BLAS_CHECKED = {command: ([], count)
                for command, count in SEED_FREE_CSV_COUNT.items()}
BLAS_CHECKED["check-algebra"] = (["--seed", "0"], 2)
BLAS_CHECKED["gs-bound"] = (["--seed", "0"], 2)
BLAS_CHECKED["verify-theorem1"] = (["--seed", "0"], 2)
BLAS_CHECKED["verify-corollary"] = (["--seed", "0"], 2)


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

    def test_render_and_rows(self):
        reps = [make_report("a", INEQUALITY, {"V": 6}, 0.1, 1.0, 1e-9),
                make_report("b", EQUALITY, {"k": 2}, 0.5, 0.5, 1e-9)]
        text = render_reports("suite", reps)
        assert "2/2 claims passed" in text
        header, rows = reports_to_rows(reps)
        assert header[0] == "claim_id" and len(rows) == 2

    def test_csv_deterministic(self, tmp_path):
        header = ["a", "b"]
        rows = [[1.0 / 3.0, True], [2.5e-13, False]]
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(p1, header, rows)
        write_csv(p2, header, rows)
        assert p1.read_bytes() == p2.read_bytes()


class TestCliSingleCommands:
    def test_lemma3_instance(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "verify-lemma3", "--family",
                     "mu", "--V", "6", "--p", "1", "--mu", "1", "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lemma3" in out and "PASS" in out
        assert (tmp_path / "verify-lemma3.txt").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_lemma3_strict_state_rejects_mu_one(self, tmp_path):
        code = main(["--out", str(tmp_path), "verify-lemma3", "--V", "6",
                     "--mu", "1", "--k", "2", "--strict-state"])
        assert code == 2

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

    def test_missing_fixture_exit_2(self, tmp_path):
        code = main(["--out", str(tmp_path), "verify-lemma3", "--fixture",
                     str(tmp_path / "missing.txt"), "--V", "6", "--k", "2"])
        assert code == 2

    def test_fixture_roundtrip(self, tmp_path):
        from fermicert.algebra import expansion_to_text
        from fermicert.invariance import MuFamilyParams, mu_family_state
        state = mu_family_state(MuFamilyParams(6, 1, 0.5), validate=False)
        fixture = tmp_path / "state.txt"
        fixture.write_text(expansion_to_text(state))
        code = main(["--out", str(tmp_path), "verify-lemma3", "--fixture",
                     str(fixture), "--V", "6", "--p", "1", "--k", "2"])
        assert code == 0

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
            from fermicert.algebra import expansion_to_text
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
                     "0", "--V", "14", "--mu", "0.0", "--k", "13",
                     "--restarts", "1", "--iters", "5"])
        assert code == 3

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

    def test_gs_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"V\": 4}")
        code = main(["--out", str(tmp_path), "gs-bound", "--seed", "1",
                     "--config", str(path)])
        assert code == 2


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
