"""Command-line runner for the certification suites.

Exit codes: 0 all claims passed, 1 at least one claim failed, 2 usage,
configuration or file error (a fixture or config that is missing, is a
directory or cannot be read, an ``--out`` that is a file or lies under
one, refused before any claim is computed), 3 resource cap exceeded.
Every numeric output lands in CSV tables whose bytes depend only on the
configuration and seed; the mode cap can be lifted through the
FERMICERT_MAX_MODES environment variable.

Single commands (``verify-lemma3 --k``, ``verify-theorem1 --k``,
``gs-bound --hamiltonian`` or ``--config``, ``rdm-spectrum --a``) apply
the same verdict rules as the suites, because those rules live in the
verifiers: this module decides no verdict, and its table columns come
from :data:`suites.TABLES`.  A single command adds notes only: the input
state's validity and, for Theorem 1, each witness component's purity
tr(xi^2), computed here because no suite reads it.  A
``--config`` and a built-in ``--hamiltonian`` share one builder,
:func:`meanfield.hamiltonian_from_config`.

Instance arguments (``--V``, ``--mu``, ``--fixture`` and the like) need
their selector: without it the command runs its suite, so they are a
usage error (exit 2), not silently dropped.  An instance has one source:
a fixture is the whole state and a config the whole Hamiltonian, so
``--fixture`` with ``--mu``, and ``--config`` with ``--hamiltonian`` or
``--V``, are usage errors too.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import OperatorExpansion, SystemShape, expansion_from_text
from .definetti import verify_theorem1
from .fock import (ResourceCapError, check_state, ensure_within_cap,
                   to_matrix)
from .invariance import MuFamilyParams, mu_family_state, verify_lemma3
from .meanfield import (BUILTIN_CONFIGS, BUILTIN_FAMILIES, builtin_family,
                        family_subsets, hamiltonian_from_config,
                        verify_gs_bound)
from .quadratic import QuadraticForm
from .rdm import CirculantParams, compare_circulant_spectrum, spectrum_report
from .report import (VerificationReport, render_reports, reports_to_rows,
                     write_csv)
from . import suites

#: A run's claim reports and its CSV tables by name.
Run = Tuple[List[VerificationReport], Dict[str, suites.Table]]


def _csv_doc(command: str) -> str:
    """Help text listing the CSV tables a command writes, with columns."""
    tables = {"summary": " ".join(reports_to_rows([])[0]),
              **suites.TABLES.get(command, {})}
    return "CSV tables written by this command (columns):\n" + "".join(
        f"  {name}.csv: {columns.replace(' ', ', ')}\n"
        for name, columns in tables.items())


def _families_doc() -> str:
    """Help text listing each built-in family's config: p, k, its subsets
    at V = 3 and its template text."""
    lines = ["Built-in families as --config templates (subsets at V=3):"]
    for name, cfg in BUILTIN_CONFIGS.items():
        subsets = " ".join(str(sub).replace(" ", "")
                           for sub in family_subsets(name, 3))
        lines.append(f"  {name}: p={cfg['p']}, k={cfg['k']}, subsets {subsets}")
        lines.extend(f"    {line}" for line in cfg["template"].splitlines())
    return "\n".join(lines) + "\n\n"


def _load_state(args) -> Tuple[OperatorExpansion, Dict[str, object],
                                List[str]]:
    """Build the requested state, family or fixture, and check it once;
    return it with the report inputs that name it and the report notes.

    This is where a state enters from outside, so this is where its
    validity is checked: a quadratic input, as every mu-family state is,
    from its levels (:meth:`QuadraticForm.state_validity`), any other from
    its dense matrix.  The bound certifications run on the Hermitian
    unit-trace operator, so with --strict-state an input that is not a
    valid state (unit trace, positive, parity superselected) is a usage
    error; otherwise the run goes on and each failed check is a note.
    """
    if args.V is None:
        raise ValueError("--V is required with --k")
    if args.fixture is not None:
        path = Path(args.fixture)
        if not path.exists():
            raise FileNotFoundError(f"fixture not found: {path}")
        shape = SystemShape(args.V, args.p)
        state = expansion_from_text(path.read_text(), shape)
        inputs = {"fixture": path.name}
    else:
        params = MuFamilyParams(args.V, args.p, args.mu)
        state = mu_family_state(params, validate=False)
        inputs = {"mu": args.mu}
    ensure_within_cap(state.shape)
    form = QuadraticForm.from_expansion(state)
    validity = (check_state(to_matrix(state)) if form is None
                else form.state_validity())
    if args.strict_state and not validity.all_ok:
        raise ValueError(
            f"input is not a valid state: trace {validity.trace_value:.6g}, "
            f"min eigenvalue {validity.min_eigenvalue:.3e}, Hermiticity "
            f"residual {validity.hermiticity_residual:.3e}, parity "
            f"superselection {'kept' if validity.parity_ok else 'broken'}")
    notes = []
    if not validity.positive_ok:
        notes.append(f"input operator is not positive (min eigenvalue "
                     f"{validity.min_eigenvalue:.3e}); bound certified for "
                     "the Hermitian unit-trace operator")
    if not validity.trace_ok:
        notes.append(f"input operator has trace {validity.trace_value:.6g}, "
                     "not 1; the bound is stated for unit trace")
    if not validity.parity_ok:
        notes.append("input operator breaks parity superselection")
    return state, inputs, notes


def _check_out(out: Path) -> None:
    """Refuse an ``--out`` that cannot become a directory, an existing
    non-directory or a path under a file, before any claim is computed;
    the directory itself is made only after a successful run."""
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise NotADirectoryError(f"--out {out}: {path} exists and is "
                                     "not a directory")


def _write_outputs(out: Path, command: str, reports, tables):
    out.mkdir(parents=True, exist_ok=True)
    text = render_reports(f"{command} (fermicert)", reports)
    (out / f"{command}.txt").write_text(text)
    header, rows = reports_to_rows(reports)
    write_csv(out / "summary.csv", header, rows)
    for name, (table_header, table_rows) in tables.items():
        write_csv(out / f"{name}.csv", table_header, table_rows)
    sys.stdout.write(text)


def _add_state_args(sub):
    sub.add_argument("--V", type=int, help="number of sites")
    sub.add_argument("--p", type=int, help="modes per site")
    sub.add_argument("--mu", type=float, help="mu parameter of the family")
    sub.add_argument("--fixture",
                     help="expansion text fixture instead of the family "
                          "(excludes --mu)")
    sub.add_argument("--strict-state", action="store_true", default=None,
                     help="reject an input (family or fixture) that is not "
                          "a valid state (unit trace, positive, parity "
                          "superselected) instead of certifying the "
                          "Hermitian operator")
    sub.add_argument("--k", type=int, default=None,
                     help="reduction size (omit to sweep the suite)")


def _seed(text: str) -> int:
    """An RNG seed: an integer >= 0, as numpy's generators take."""
    if not text.strip().removeprefix("+").isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermicert",
        description="Desk-scale certification of permutation-invariant "
                    "fermionic mode states.",
        epilog="Mode cap override: set FERMICERT_MAX_MODES (default 12).")
    parser.add_argument("--out", default="reports",
                        help="output directory for reports and CSV tables")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, seed=None):
        """``seed``: "required" for commands that run an optimizer,
        "optional" for randomized checks, None for deterministic commands
        (no --seed), verify-corollary among them: it reads its witnesses
        off its states instead of searching for them."""
        sub = subs.add_parser(
            name, help=help_text,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            epilog=_csv_doc(name))
        if seed == "required":
            sub.add_argument("--seed", type=_seed, required=True,
                             help="RNG seed (required: optimizer command)")
        elif seed == "optional":
            sub.add_argument("--seed", type=_seed, default=0, help="RNG seed")
        else:
            sub.set_defaults(seed=None)
        return sub

    add("check-algebra", "symbolic algebra against the dense oracle",
        seed="optional")
    add("check-invariance", "permutation-invariance definition checks")

    lem = add("verify-lemma3", "trace-norm suppression certification")
    _add_state_args(lem)

    th = add("verify-theorem1", "product-mixture approximation certification",
             seed="required")
    _add_state_args(th)

    add("verify-clt", "Fourier-cumulant factorization and suppression")
    add("verify-corollary", "Gaussian-mixture deviation scaling")

    rdm = add("rdm-spectrum", "closed-form 1-RDM spectra against the "
                              "eigensolver")
    rdm.add_argument("--V", type=int)
    rdm.add_argument("--a", type=float, default=None,
                     help="diagonal entry (N/V) (omit to sweep the suite)")
    for flag, part in (("--b-re", "real"), ("--b-im", "imaginary")):
        rdm.add_argument(flag, type=float,
                         help=f"{part} part of the off-diagonal entry; a "
                              "negative value in scientific notation needs "
                              f"the '=' form, e.g. {flag}=-3.25e-06")

    gs = add("gs-bound", "mean-field energy-gap certification",
             seed="required")
    gs.epilog = _families_doc() + gs.epilog
    gs.add_argument("--hamiltonian", default=None,
                    choices=list(BUILTIN_FAMILIES),
                    help="built-in family (omit to sweep all at V=6)")
    gs.add_argument("--V", type=int)
    gs.add_argument("--config", default=None,
                    help="JSON Hamiltonian spec (template as expansion "
                         "text; subsets list or 'all-k-subsets'); excludes "
                         "--hamiltonian and --V")

    add("all", "every suite, fixed order", seed="required")
    return parser


def _single_lemma3(args) -> Run:
    state, inputs, notes = _load_state(args)
    rep = verify_lemma3(state, args.k, inputs=inputs)
    rep.notes.extend(notes)
    return [rep], {}


def _single_theorem1(args) -> Run:
    state, inputs, notes = _load_state(args)
    rep, mixture, _ = verify_theorem1(state, args.k, seed=args.seed,
                                      inputs=inputs)
    purities = [float(np.real(np.trace(xi.matrix @ xi.matrix)))
                for xi in mixture.components]
    rep.notes.append(f"component purities {purities}")
    rep.notes.extend(notes)
    return [rep], {}


def _single_rdm(args) -> Run:
    if args.V is None:
        raise ValueError("--V is required with --a")
    b = complex(args.b_re, args.b_im)
    rows, worst = compare_circulant_spectrum(
        CirculantParams(args.V, args.a, b))
    rep = spectrum_report({"V": args.V, "a": args.a, "b": b}, worst)
    return [rep], {"rdm_spectrum": suites.table("rdm_spectrum", rows)}


def _single_gs(args) -> Run:
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config not found: {path}")
        spec = hamiltonian_from_config(json.loads(path.read_text()))
    else:
        spec = builtin_family(args.hamiltonian, args.V)
    result, rep = verify_gs_bound(spec, seed=args.seed)
    return [rep], {"gsbound": suites.table(
        "gsbound", [suites.gs_bound_row(spec, result, rep)])}


_STATE = dict(V=None, p=1, mu=1.0, fixture=None, strict_state=False)

#: Per single-instance command: its selectors, its runner, and its
#: instance arguments with their defaults.  The parser leaves these None,
#: so one given without a selector is rejected rather than dropped.
SINGLE = {
    "verify-lemma3": (("--k",), _single_lemma3, _STATE),
    "verify-theorem1": (("--k",), _single_theorem1, _STATE),
    "rdm-spectrum": (("--a",), _single_rdm, dict(V=None, b_re=0.0, b_im=0.0)),
    "gs-bound": (("--hamiltonian", "--config"), _single_gs, dict(V=6)),
}

#: Pairs of arguments that name two sources for one instance: a fixture
#: is the whole state, a config the whole Hamiltonian with its size.
EXCLUSIVE = (("fixture", "mu"), ("config", "hamiltonian"), ("config", "V"))


def _run(args) -> Run:
    """The single instance the arguments name, else the command's suite."""
    if args.command == "all":
        return suites.run_all(seed=args.seed)
    selectors, single, defaults = SINGLE.get(args.command, ((), None, {}))
    given = [name for name in defaults if getattr(args, name) is not None]
    if any(getattr(args, flag[2:]) is not None for flag in selectors):
        for pair in EXCLUSIVE:
            if all(getattr(args, name, None) is not None for name in pair):
                raise ValueError("--{} and --{} name two sources for one "
                                 "instance; give one".format(*pair))
        vars(args).update({n: defaults[n] for n in defaults.keys() - given})
        return single(args)
    if given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise ValueError(f"{flags} need {' or '.join(selectors)}; without "
                         "it the command runs its suite")
    return suites.SUITES[args.command](args.seed)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        _check_out(Path(args.out))
        reports, tables = _run(args)
        _write_outputs(Path(args.out), args.command, reports, tables)
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.command == "all":
        sys.stdout.write(f"total wall time {time.perf_counter() - start:.1f}s\n")
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
