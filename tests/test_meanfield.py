"""Hamiltonian assembly, exact ground states, product-state energies and
the gap certificate."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (build_hamiltonian, fresh_process_output, mask_of,
                      random_even_density_matrix, random_expansion,
                      unpruned_ground_state)
from fermicert.algebra import (OperatorExpansion, SystemShape,
                              expansion_from_text, expansion_to_text,
                              reversal_sign)
from fermicert.fock import (MODE_CAP_ENV, DenseOperator, ResourceCapError,
                            diagonal_blocks, hermitian_word,
                            hermiticity_residual, jw_matrix, operator_norm,
                            permutation_unitary, to_matrix, xor_terms)
from fermicert import invariance
from fermicert.invariance import (DENSE_INVARIANCE_TOL, InvarianceReport,
                                  MuFamilyParams, check_invariance,
                                  check_invariance_dense, mu_family_state)
from fermicert.meanfield import (BUILTIN_CONFIGS, BUILTIN_FAMILIES,
                                 DEGENERACY_TOL, HamiltonianSpec,
                                 ProductEnergyEvaluator,
                                 build_hamiltonian_expansion,
                                 builtin_family, ground_energy,
                                 ground_state, ground_state_lowdim, gs_bound,
                                 hamiltonian_from_config,
                                 min_product_energy, symmetry_report,
                                 verify_gs_bound)
from fermicert import meanfield


def site_number_template():
    tshape = SystemShape(1, 1)
    return OperatorExpansion(tshape, {mask_of(tshape, (1, 1), (1, 2)): -1j})


def recording_solvers(monkeypatch):
    """Patch ``eigvalsh`` and ``eigh`` to record the dtype kind and shape
    of each input; returns the two record lists."""
    calls = {"eigvalsh": [], "eigh": []}
    for name, record in calls.items():
        solver = getattr(np.linalg, name)

        def solve(a, *args, solver=solver, record=record, **kwargs):
            record.append((a.dtype.kind, a.shape))
            return solver(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, solve)
    return calls["eigvalsh"], calls["eigh"]


class TestBuild:
    def test_site_number_hamiltonian(self):
        spec = builtin_family("site-number", 4)
        dense = build_hamiltonian(spec)
        # (1/V) sum_j (1 - 2 n_j) is diagonal with ground energy -1 at
        # full occupation.
        diag = np.real(np.diag(dense.matrix))
        assert diag.min() == pytest.approx(-1.0)
        assert diag[-1] == pytest.approx(-1.0)
        assert diag[0] == pytest.approx(1.0)

    def test_empty_subsets_rejected(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(SystemShape(4, 1), (), site_number_template())

    def test_norm_violation_rejected_then_rescaled(self):
        tshape = SystemShape(1, 1)
        big = OperatorExpansion(tshape, {mask_of(tshape, (1, 1), (1, 2)): -3j})
        spec = HamiltonianSpec(SystemShape(3, 1), ((1,), (2,), (3,)), big)
        with pytest.raises(ValueError, match="exceeds 1"):
            build_hamiltonian_expansion(spec)
        spec2 = HamiltonianSpec(SystemShape(3, 1), ((1,), (2,), (3,)), big,
                                normalize=True)
        h_exp, notes = build_hamiltonian_expansion(spec2)
        assert any("rescaled" in n for n in notes)
        assert operator_norm(to_matrix(h_exp).matrix) <= 1.0 + 1e-9

    def test_template_norms_at_most_one(self):
        for name in BUILTIN_FAMILIES:
            spec = builtin_family(name, 6)
            assert operator_norm(to_matrix(spec.template).matrix) <= 1.0 + 1e-9

    def test_transplant_sign(self):
        # i m_1 m_2 moved to the reversed pair flips sign.
        tshape = SystemShape(2, 1)
        template = OperatorExpansion(tshape, {mask_of(tshape, (1, 1), (2, 1)): 1j})
        shape = SystemShape(3, 1)
        fwd = template.relabel((1, 3), shape)
        rev = template.relabel((3, 1), shape)
        assert (fwd + rev).is_close(OperatorExpansion(shape, {}))

    @pytest.mark.parametrize("V", [6, 8])
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_one_dict_sum_matches_per_subset_fold(self, name, V,
                                                  monkeypatch):
        # The assembly adds every subset's terms into one dict; the fold
        # that rebuilt the growing sum once per subset must give the same
        # coefficients, bit for bit and in the same term order.  The
        # assembly is symbolic, so the mode cap, which a family checks
        # before it lists its subsets, is lifted to the 16 modes of
        # hubbard-like at V = 8.
        monkeypatch.setenv(MODE_CAP_ENV, "16")
        spec = builtin_family(name, V)
        h_exp, _ = build_hamiltonian_expansion(spec)
        acc = OperatorExpansion(spec.shape, {})
        for subset in spec.subsets:
            acc = acc + spec.template.relabel(subset, spec.shape)
        fold = (1.0 / len(spec.subsets)) * acc
        assert list(h_exp.terms.items()) == list(fold.terms.items())

    def test_families_are_the_config_table(self):
        assert BUILTIN_FAMILIES == tuple(BUILTIN_CONFIGS)
        for name, cfg in BUILTIN_CONFIGS.items():
            spec = builtin_family(name, 5)
            assert (spec.name, spec.shape) == (name, SystemShape(5, cfg["p"]))
            assert spec.template.max_coeff_diff(
                expansion_from_text(cfg["template"],
                                    SystemShape(cfg["k"], cfg["p"]))) == 0.0
        with pytest.raises(ValueError, match="unknown Hamiltonian family"):
            builtin_family("ising", 5)

    def test_hubbard_like_runs_over_ordered_pairs(self):
        # The on-site term singles out the first template site, so the
        # family takes every ordered pair; the others the increasing ones.
        assert builtin_family("hubbard-like", 3).subsets == (
            (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
        assert builtin_family("pair-hopping", 3).subsets == (
            (1, 2), (1, 3), (2, 3))
        assert builtin_family("site-number", 3).subsets == ((1,), (2,), (3,))

    def test_config_defaults_and_type_checks(self):
        cfg = {"V": 3, "p": 1, "k": 1, "template": "0 -1 (1,1)(1,2)"}
        spec = hamiltonian_from_config(cfg)
        assert (spec.subsets, spec.normalize, spec.name) == (
            ((1,), (2,), (3,)), False, "custom")
        for bad in ({**cfg, "V": True}, {**cfg, "subsets": "all"},
                    {**cfg, "normalize": 1}, {**cfg, "name": None}, [cfg]):
            with pytest.raises(ValueError, match="config"):
                hamiltonian_from_config(bad)
        with pytest.raises(ValueError, match="'subset'"):
            hamiltonian_from_config({**cfg, "subset": [[1]]})
        with pytest.raises(ValueError, match="config template line 1"):
            hamiltonian_from_config({**cfg, "template": "0 -1 (2,1)"})

    def test_hermiticity_enforced(self):
        tshape = SystemShape(1, 1)
        skew = OperatorExpansion(tshape, {mask_of(tshape, (1, 1), (1, 2)): 1.0})
        spec = HamiltonianSpec(SystemShape(2, 1), ((1,), (2,)), skew)
        with pytest.raises(ValueError, match="not Hermitian"):
            build_hamiltonian_expansion(spec)


class TestGroundState:
    def test_identity_hamiltonian(self):
        sh = SystemShape(2, 1)
        e, rho = ground_state(DenseOperator(sh, np.eye(4, dtype=complex)))
        assert e == pytest.approx(1.0)
        assert np.allclose(rho.matrix, np.eye(4) / 4)

    def test_site_number_ground_projector(self):
        spec = builtin_family("site-number", 3)
        e, rho = ground_state(build_hamiltonian(spec))
        assert e == pytest.approx(-1.0)
        want = np.zeros((8, 8), dtype=complex)
        want[7, 7] = 1.0
        assert np.max(np.abs(rho.matrix - want)) < 1e-12

    def test_sparse_agrees_with_dense(self):
        for name in ("pair-exchange", "pair-hopping"):
            spec = builtin_family(name, 6)
            h_exp, _ = build_hamiltonian_expansion(spec)
            e1, g1 = ground_state(to_matrix(h_exp))
            e2, g2 = ground_state_lowdim(h_exp)
            assert abs(e1 - e2) < 1e-10
            proj = g2.matrix @ g2.matrix.conj().T / g2.matrix.shape[1]
            assert np.max(np.abs(g1.matrix - proj)) < 1e-10

    @pytest.mark.parametrize("name, V", [(name, 4) for name in BUILTIN_FAMILIES]
                             + [("hubbard-like", 5)])
    def test_block_solver_matches_dense(self, name, V):
        # The blockwise ground space against one dense eigh of the whole
        # Hamiltonian: same energy, same ground-space projector, and an
        # isometry with orthonormal columns.
        h_exp, _ = build_hamiltonian_expansion(builtin_family(name, V))
        e_dense, rho_dense = ground_state(to_matrix(h_exp))
        e_gs, ground = ground_state_lowdim(h_exp)
        f = ground.matrix
        r = f.shape[1]
        assert abs(e_gs - e_dense) < 1e-12
        assert np.max(np.abs(f.conj().T @ f - np.eye(r))) < 1e-12
        proj = f @ f.conj().T / r
        assert np.max(np.abs(proj - rho_dense.matrix)) < 1e-10

    @pytest.mark.parametrize("V", [4, 6])
    def test_pair_exchange_ground_rank(self, V):
        # Only the first Majorana of each mode enters, so the V unused ones
        # leave a 2^(V/2)-fold degenerate ground space.
        h_exp, _ = build_hamiltonian_expansion(builtin_family("pair-exchange",
                                                              V))
        _, ground = ground_state_lowdim(h_exp)
        assert ground.matrix.shape[1] == 2 ** (V // 2)

    @pytest.mark.parametrize("name, sizes", [
        ("site-number", [1] * 64),
        ("pair-exchange", [32, 32]),
        ("pair-hopping", [math.comb(6, n) for n in range(7)]),
        ("hubbard-like", [math.comb(6, a) * math.comb(6, b)
                          for a in range(7) for b in range(7)]),
    ])
    def test_blocks_are_the_conserved_sectors(self, name, sizes):
        # At V = 6 the blocks follow from the conserved charges: nothing
        # (site-number is diagonal), global parity (pair-exchange), the
        # particle number (pair-hopping) and the two spin-resolved numbers
        # (hubbard-like).
        h_exp, _ = build_hamiltonian_expansion(builtin_family(name, 6))
        found = [idx.shape[1] for idx, _ in
                 diagonal_blocks(xor_terms(h_exp))
                 for _ in range(len(idx))]
        assert sorted(found) == sorted(sizes)

    @pytest.mark.parametrize("name, real", [
        ("site-number", True), ("pair-exchange", False),
        ("pair-hopping", True), ("hubbard-like", True)])
    def test_real_blocks_are_solved_in_real_arithmetic(self, monkeypatch,
                                                       name, real):
        # pair-exchange, i m_1 m_2 = Y X on two modes, has imaginary
        # entries; the other families have none, and their blocks reach
        # the eigensolvers as real arrays.
        h_exp, _ = build_hamiltonian_expansion(builtin_family(name, 4))
        eigvalsh, eigh = recording_solvers(monkeypatch)
        e, ground = ground_state_lowdim(h_exp)
        assert {kind for kind, _ in eigvalsh + eigh} == {"f" if real else "c"}
        monkeypatch.undo()
        e_dense, _ = ground_state(to_matrix(h_exp))
        assert e == pytest.approx(e_dense, abs=1e-12)
        assert ground.matrix.dtype == np.complex128

    def test_non_hermitian_block_raises(self):
        # m_1 m_2 alone is anti-Hermitian: its coefficient 1 against its
        # adjoint's -1 is the residual 2 the solve reports.
        shape = SystemShape(2, 1)
        h_exp = OperatorExpansion(shape, {0b11: 1.0, 0b1100: 0.5j})
        with pytest.raises(ValueError, match=re.escape(
                "Hamiltonian is not Hermitian (residual 2.000e+00 above")):
            ground_state_lowdim(h_exp)

    @pytest.mark.parametrize("off, ok", [(1e-12, True), (1e-8, False)])
    def test_hermiticity_threshold(self, off, ok):
        # (0.5 i + off) m_1 m_2 is off Hermitian by 2 off in its
        # coefficient: 2e-12 passes both checks and 2e-8 fails both, the
        # builder's on the assembled sum and the ground solve's on the
        # expansion it is given.
        shape = SystemShape(1, 1)
        h_exp = OperatorExpansion(shape, {0b11: 0.5j + off})
        spec = HamiltonianSpec(shape, ((1,),), h_exp)
        if ok:
            assert build_hamiltonian_expansion(spec)[0].max_coeff_diff(h_exp) == 0.0
            assert ground_energy(h_exp) == pytest.approx(-0.5)
            return
        with pytest.raises(ValueError, match=re.escape(
                "assembled Hamiltonian is not Hermitian (residual 2.000e-08 "
                "above 1e-10)")):
            build_hamiltonian_expansion(spec)
        with pytest.raises(ValueError, match=re.escape(
                "Hamiltonian is not Hermitian (residual 2.000e-08 above "
                "1e-10)")):
            ground_energy(h_exp)

    def test_cap_is_checked_before_hermiticity(self, monkeypatch):
        # An expansion both over the mode cap and not Hermitian is refused
        # for its size, before anything else is read.
        monkeypatch.setenv(MODE_CAP_ENV, "4")
        h_exp = OperatorExpansion(SystemShape(5, 1), {0b11: 1.0})
        with pytest.raises(ResourceCapError):
            ground_energy(h_exp)

    def test_gs_bound_imports_no_scipy(self):
        # The ground solve runs on numpy alone: a fresh process that runs
        # the whole gs-bound suite has loaded no scipy module.
        code = ("import sys\n"
                "from fermicert.suites import run_gs_bound\n"
                "reports, _ = run_gs_bound()\n"
                "assert all(r.passed for r in reports)\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] == 'scipy'))\n")
        assert fresh_process_output(code) == "[]"

    def test_pair_family_energies(self):
        # Quadratic forms with known single-particle content: both pair
        # families at V = 6 have exact ground energy -1/3.
        for name in ("pair-exchange", "pair-hopping"):
            spec = builtin_family(name, 6)
            e, _ = ground_state(build_hamiltonian(spec))
            assert e == pytest.approx(-1.0 / 3.0, abs=1e-12)


def assert_same_as_unpruned(h_exp):
    """The pruned solve gives the unpruned one's energy and isometry bit
    for bit, and :func:`meanfield.ground_energy` the same energy; returns
    them."""
    e_gs, ground = ground_state_lowdim(h_exp)
    e_ref, f_ref = unpruned_ground_state(h_exp)
    assert type(e_gs) is float and e_gs == e_ref
    assert np.array_equal(ground.matrix, f_ref)
    e_only = ground_energy(h_exp)
    assert type(e_only) is float and e_only == e_gs
    return e_gs, ground


def sectors_of(ground):
    """The particle numbers of the basis states the ground space touches."""
    rows = np.flatnonzero(np.abs(ground.matrix).sum(axis=1))
    return sorted(set(np.bitwise_count(rows).tolist()))


@st.composite
def hermitian_configs(draw):
    """A config with a random Hermitian k-site template, k <= 2, on at
    least two modes, built from parts that conserve the particle number,
    so that H has sectors of several sizes: products of i m^(2a-1) m^(2a)
    over a set of modes, and at least one hopping f_a-dagger f_b +
    f_b-dagger f_a, some with a current.  One draw in four adds an
    arbitrary word, made Hermitian by its reversal-sign phase, which can
    join sectors.  Coefficients come from a few exact values, so that
    sectors can tie, or are any float; the template is rescaled to
    operator norm one when above it."""
    k, p = draw(st.sampled_from([(1, 2), (2, 1), (2, 2)]))
    V = draw(st.integers(4 // p, 6 // p))
    shape = SystemShape(k, p)
    modes = k * p
    values = st.sampled_from([-1.0, -0.5, 0.25, 0.5, 1.0]) | st.floats(
        -1.0, 1.0).filter(lambda x: abs(x) > 1e-3)

    def majorana(mode, which):
        return mask_of(shape, (mode // p + 1, 2 * (mode % p) + 1 + which))

    terms = {}
    for subset in draw(st.lists(st.sets(st.integers(0, modes - 1),
                                        min_size=1), min_size=1, max_size=3)):
        mask = sum(majorana(a, 0) | majorana(a, 1) for a in subset)
        terms[mask] = draw(values) * (1, 1j, -1, -1j)[len(subset) % 4]
    pairs = list(itertools.combinations(range(modes), 2))
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1,
                              max_size=3)):
        t = draw(values)
        terms[majorana(a, 0) | majorana(b, 1)] = 0.5j * t
        terms[majorana(a, 1) | majorana(b, 0)] = -0.5j * t
        if draw(st.booleans()):
            # A current i(f_a-dagger f_b - f_b-dagger f_a): imaginary
            # entries inside the sectors, so complex stacks.
            s = draw(values)
            terms[majorana(a, 0) | majorana(b, 0)] = 0.5j * s
            terms[majorana(a, 1) | majorana(b, 1)] = 0.5j * s
    if draw(st.integers(0, 3)) == 0:
        mask = draw(st.integers(1, (1 << shape.majorana_count) - 1))
        terms[mask] = draw(values) * (
            1 if reversal_sign(mask.bit_count()) > 0 else 1j)
    template = OperatorExpansion(shape, terms)
    return {"V": V, "p": p, "k": k, "template": expansion_to_text(template),
            "normalize": True}


class TestPrunedGroundSolve:
    """The sectors above the ground skipped by the Cholesky test change
    nothing: energy and isometry equal the unpruned solve bit for bit."""

    @pytest.mark.parametrize("name, V", [
        (name, V) for name in BUILTIN_FAMILIES for V in range(3, 7)]
        + [("pair-hopping", 8), ("pair-hopping", 10)])
    def test_builtin_families(self, name, V):
        h_exp, _ = build_hamiltonian_expansion(builtin_family(name, V))
        assert_same_as_unpruned(h_exp)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(hermitian_configs())
    def test_random_hermitian_templates(self, cfg):
        h_exp, _ = build_hamiltonian_expansion(hamiltonian_from_config(cfg))
        assert_same_as_unpruned(h_exp)

    def test_ground_outside_the_largest_stack(self, monkeypatch):
        # Hopping of the opposite sign has one negative single-particle
        # level, and a small chemical potential keeps it so: the ground
        # is at N = 1, in the stack of size-6 blocks, while the largest
        # stack is N = 3 (size 20).  The stacks are solved largest first
        # until the ground's; N = 2 (-0.3) lies below N = 3 (-0.2) and is
        # solved too, and only the 1 x 1 stack (N = 0 and 6, minimum
        # -0.1) is skipped.
        h_exp, _ = build_hamiltonian_expansion(hamiltonian_from_config({
            "V": 6, "p": 1, "k": 2, "template": (
                "0 -0.5 (1,1)(2,2)\n0 0.5 (1,2)(2,1)\n"
                "0 0.05 (1,1)(1,2)\n0 0.05 (2,1)(2,2)\n"),
            "normalize": True}))
        eigvalsh, _ = recording_solvers(monkeypatch)
        ground_state_lowdim(h_exp)
        monkeypatch.undo()
        _, ground = assert_same_as_unpruned(h_exp)
        assert sectors_of(ground) == [1]
        assert [shape[-1] for _, shape in eigvalsh] == [20, 15, 6]

    def test_ground_spread_over_blocks_of_several_sizes(self):
        # Hopping plus the chemical potential 1/6 per particle puts the
        # V - 1 low single-particle levels at 0, so the sectors N = 0..3
        # (block sizes 1, 4, 6) all hold ground vectors.
        h_exp, _ = build_hamiltonian_expansion(hamiltonian_from_config({
            "V": 4, "p": 1, "k": 2, "template": (
                "0 0.5 (1,1)(2,2)\n0 -0.5 (1,2)(2,1)\n"
                f"0 {1 / 6!r} (1,1)(1,2)\n0 {1 / 6!r} (2,1)(2,2)\n"),
            "normalize": True}))
        _, ground = assert_same_as_unpruned(h_exp)
        assert sectors_of(ground) == [0, 1, 2, 3]

    def test_stack_at_the_cut_is_solved(self):
        # Two modes: hopping makes the 2 x 2 block [[0, 1], [1, 0]], the
        # largest stack, with lowest eigenvalue exactly -1, and the
        # diagonal terms put both 1 x 1 blocks at exactly
        # -1 + DEGENERACY_TOL.  They belong to the ground space, so their
        # stack must not be skipped.
        tie = -1.0 + DEGENERACY_TOL
        h_exp = expansion_from_text(
            f"{tie / 2!r} 0 1\n{-tie / 2!r} 0 (1,1)(1,2)(2,1)(2,2)\n"
            "0 0.5 (1,1)(2,2)\n0 -0.5 (1,2)(2,1)\n", SystemShape(2, 1))
        e_gs, ground = assert_same_as_unpruned(h_exp)
        assert e_gs == -1.0 and e_gs + DEGENERACY_TOL == tie
        assert ground.matrix.shape == (4, 3)

    def test_hubbard_like_v6_solves_one_stack(self, monkeypatch):
        # The ground sector (three up, three down: 400 states) is the
        # largest block, and the Cholesky test skips the other thirteen
        # chunks: one eigvalsh and one eigh, both real.
        h_exp, _ = build_hamiltonian_expansion(builtin_family("hubbard-like",
                                                              6))
        eigvalsh, eigh = recording_solvers(monkeypatch)
        ground_state_lowdim(h_exp)
        assert eigvalsh == [("f", (1, 400, 400))]
        assert eigh == [("f", (400, 400))]

    def test_hubbard_like_v6_memory(self):
        # No (words x dim) term stack, no edge list of the sectors' graph,
        # no partner table past the labelling and no block chunk the solve
        # does not need: the traced peak of the call stays under 4.8 MB
        # (4.36 MB measured; 7.03 MB with one stack per block size and the
        # partner table kept, 9.8 MB with int64 edge lists, 14.3 MB with
        # the word terms stacked and every block stack kept, 31 MB with
        # every stack solved and checked as complex).
        h_exp, _ = build_hamiltonian_expansion(builtin_family("hubbard-like",
                                                              6))
        tracemalloc.start()
        try:
            ground_state_lowdim(h_exp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.8 * 2 ** 20

    @pytest.mark.parametrize("shape", [SystemShape(2, 1), SystemShape(3, 1),
                                       SystemShape(2, 2)])
    def test_term_residual_is_the_block_residual(self, shape, rng):
        # The solve reads Hermiticity off the coefficients: distinct words
        # are trace-orthogonal, so the expansion's residual is nonzero
        # exactly when the dense matrix's is.  Random complex expansions
        # are not Hermitian, and their Hermitian parts, (H + H-dagger) / 2,
        # are; both solves refuse the first with the coefficient residual.
        for _ in range(20):
            h_exp = random_expansion(shape, rng, n_terms=6)
            for op in (h_exp, 0.5 * (h_exp + h_exp.adjoint())):
                res = hermiticity_residual(op)
                dense = hermiticity_residual(to_matrix(op).matrix)
                assert (res > 0.0) == (dense > 0.0)
            res = hermiticity_residual(h_exp)
            assert res > 1e-10
            for solve in (ground_energy, ground_state_lowdim):
                with pytest.raises(ValueError, match=re.escape(
                        f"Hamiltonian is not Hermitian (residual "
                        f"{res:.3e} above")):
                    solve(h_exp)


class TestProductEnergy:
    def test_site_number_energy(self):
        spec = builtin_family("site-number", 4)
        h_exp, _ = build_hamiltonian_expansion(spec)
        evaluator = ProductEnergyEvaluator(h_exp)
        occupied = np.diag([0.0, 1.0]).astype(complex)
        assert evaluator.energy(occupied) == pytest.approx(-1.0)
        empty = np.diag([1.0, 0.0]).astype(complex)
        assert evaluator.energy(empty) == pytest.approx(1.0)

    def test_matches_dense_tensor_power(self, rng):
        # The factorized evaluation equals tr(H xi^(x V)) computed densely.
        from fermicert.definetti import product_power
        spec = builtin_family("pair-hopping", 4)
        h_exp, _ = build_hamiltonian_expansion(spec)
        evaluator = ProductEnergyEvaluator(h_exp)
        dense_h = to_matrix(h_exp).matrix
        for alpha in (0.0, 0.3, 0.8):
            xi = np.diag([alpha, 1 - alpha]).astype(complex)
            power = product_power(DenseOperator(SystemShape(1, 1), xi),
                                  4).matrix
            direct = float(np.real(np.trace(dense_h @ power)))
            assert evaluator.energy(xi) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_energy_is_the_trace_against_word_matrices(self, name, rng):
        # The word values against tr(W xi) with each word's dense matrix,
        # on random even single-site states.
        h_exp, _ = build_hamiltonian_expansion(builtin_family(name, 4))
        shape1 = SystemShape(1, h_exp.shape.modes_per_site)
        evaluator = ProductEnergyEvaluator(h_exp)
        for _ in range(5):
            xi = random_even_density_matrix(shape1, rng)
            want = 0.0
            for coeff, subs in evaluator.compiled:
                term = coeff
                for m in subs:
                    term *= np.trace(jw_matrix(m, shape1).matrix @ xi)
                want += term
            assert abs(evaluator.energy(xi) - want.real) <= 1e-15

    def test_min_product_energy_site_number(self):
        spec = builtin_family("site-number", 4)
        h_exp, _ = build_hamiltonian_expansion(spec)
        xi, energy = min_product_energy(h_exp, seed=0)
        assert energy == pytest.approx(-1.0, abs=1e-9)
        assert xi.matrix[1, 1] == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_one_word_minimum_against_grid(self, k, seed):
        # Any one-mode template has one even single-site word, m^1 m^2, so
        # the energy is a polynomial in the occupation; a dense grid of
        # diagonal states bounds the exact minimum from both sides.
        rng = np.random.default_rng(seed)
        tshape = SystemShape(k, 1)
        terms = {}
        for _ in range(6):
            mask = int(rng.integers(0, 1 << (2 * k)))
            herm = 1.0 if mask.bit_count() % 4 in (0, 1) else 1j
            terms[mask] = terms.get(mask, 0.0) + herm * rng.standard_normal()
        subsets = tuple(itertools.permutations(range(1, k + 2), k))
        spec = HamiltonianSpec(SystemShape(k + 1, 1), subsets,
                               OperatorExpansion(tshape, terms),
                               normalize=True)
        h_exp, _ = build_hamiltonian_expansion(spec)
        evaluator = ProductEnergyEvaluator(h_exp)
        xi, energy = min_product_energy(h_exp)
        assert evaluator.energy(xi.matrix) == energy
        assert np.allclose(xi.matrix, np.diag(np.diag(xi.matrix)))
        grid = [evaluator.energy(np.diag([a, 1.0 - a]).astype(complex))
                for a in np.linspace(0.0, 1.0, 2001)]
        # |dE/da| <= 2 k for a normalized k-site template.
        assert min(grid) - 2 * k * 5e-4 - 1e-12 <= energy <= min(grid) + 1e-12

    def test_hubbard_like_minimum_exact(self):
        h_exp, _ = build_hamiltonian_expansion(builtin_family("hubbard-like",
                                                              6))
        xi, energy = min_product_energy(h_exp)
        assert energy == pytest.approx(-0.5, abs=1e-15)
        assert ProductEnergyEvaluator(h_exp).energy(xi.matrix) == energy

    def test_one_mode_minimum_never_searches(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("coordinate search called at p = 1")

        monkeypatch.setattr(meanfield, "coordinate_sweep", refuse)
        for name in BUILTIN_FAMILIES:
            spec = builtin_family(name, 6)
            if spec.shape.modes_per_site == 1:
                min_product_energy(build_hamiltonian_expansion(spec)[0])
        _, energy = min_product_energy(OperatorExpansion.identity(
            SystemShape(3, 1)))
        assert energy == 1.0

    @pytest.mark.parametrize("V", [4, 5, 6])
    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_builtin_minima_take_the_one_word_route(self, name, V,
                                                    monkeypatch):
        # Every built-in family, hubbard-like's two modes included, has at
        # most one even single-site word: its product minimum is exact
        # and never searches.
        def refuse(*args, **kwargs):
            raise AssertionError(f"coordinate search called for {name}")

        calls = []
        one_word = meanfield._one_word_minimum

        def counting(evaluator):
            calls.append(1)
            return one_word(evaluator)

        monkeypatch.setattr(meanfield, "coordinate_sweep", refuse)
        monkeypatch.setattr(meanfield, "_one_word_minimum", counting)
        h_exp, _ = build_hamiltonian_expansion(builtin_family(name, V))
        min_product_energy(h_exp)
        assert calls == [1]

    def test_two_word_support_still_searches(self, monkeypatch):
        # Two even words on one site (p = 2) leave the one-word case, and
        # the search runs.  The words m^1 m^2 and m^1 m^3 anticommute, so
        # the sum of their Hermitian forms has minimum -sqrt(2).
        calls = []
        original = meanfield.coordinate_sweep

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(meanfield, "coordinate_sweep", counting)
        sh = SystemShape(2, 2)
        h_exp = OperatorExpansion(sh, {mask_of(sh, (1, 1), (1, 2)): 0.25j,
                                       mask_of(sh, (2, 1), (2, 3)): 0.25j})
        _, energy = min_product_energy(h_exp)
        assert calls
        assert energy == pytest.approx(-math.sqrt(2.0) / 4.0, abs=1e-6)

    def test_product_search_budget(self, monkeypatch):
        # On a two-word support the search runs 4 starts of 2 sweeps each:
        # the zero generator, then three uniform draws in the generator
        # box from default_rng(seed), in that order.
        seed = 5
        calls = []
        original = meanfield.coordinate_sweep

        def recording(value, params, lo, hi, current, golden_iters):
            calls.append((params, params.copy(), lo, hi))
            return original(value, params, lo, hi, current, golden_iters)

        monkeypatch.setattr(meanfield, "coordinate_sweep", recording)
        sh = SystemShape(2, 2)
        h_exp = OperatorExpansion(sh, {mask_of(sh, (1, 1), (1, 2)): 0.25j,
                                       mask_of(sh, (2, 1), (2, 3)): 0.25j})
        min_product_energy(h_exp, seed=seed)
        rng = np.random.default_rng(seed)
        starts = [np.zeros(7)] + [rng.uniform(-6.0, 6.0, 7) for _ in range(3)]
        assert len(calls) == 2 * len(starts)
        for j, start in enumerate(starts):
            first, second = calls[2 * j], calls[2 * j + 1]
            assert first[1].tobytes() == start.tobytes()
            # The second sweep goes on from where the first left the start.
            assert second[0] is first[0]
            assert first[2:] == second[2:] == (-6.0, 6.0)

    def test_min_product_energy_identity(self):
        sh = SystemShape(2, 1)
        h_exp = OperatorExpansion.identity(sh)
        _, energy = min_product_energy(h_exp, seed=0)
        assert energy == pytest.approx(1.0)

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_one_word_minimum_against_numpy_polynomial(self, degree, rng):
        # Energies sum_d c_d x^d of every degree up to 6, against the
        # critical points that numpy.polynomial finds: the same state and
        # energy bit for bit up to degree 2 (one critical point at most),
        # the same energy within 1e-12 above.
        for trial in range(40):
            coeffs = rng.standard_normal(degree + 1)
            if trial == 0 and degree > 1:
                coeffs[1] = 0.0
            evaluator = one_word_evaluator(coeffs)
            xi, energy = meanfield._one_word_minimum(evaluator)
            want_xi, want = polynomial_one_word_minimum(evaluator)
            if degree <= 2:
                assert xi.matrix.tobytes() == want_xi.tobytes()
                assert energy == want
            else:
                assert abs(energy - want) <= 1e-12

    def test_site_number_minimum_leaves_numpy_polynomial_unimported(self):
        code = ("import sys\n"
                "from fermicert.meanfield import (build_hamiltonian_expansion,"
                "\n    builtin_family, min_product_energy)\n"
                "h_exp, _ = build_hamiltonian_expansion("
                "builtin_family('site-number', 6))\n"
                "_, energy = min_product_energy(h_exp)\n"
                "assert abs(energy + 1.0) < 1e-12\n"
                "print('numpy.polynomial' in sys.modules)\n")
        assert fresh_process_output(code) == "False"


def one_word_evaluator(coeffs):
    """The product energy of sum_d coeffs[d] phase^d W_1 ... W_d on
    ``SystemShape(6, 1)``, W_j the word m^1 m^2 of site j and phase * W its
    Hermitian form h: with tr(W xi) = x / phase it is sum_d coeffs[d] x^d
    in x = tr(h xi)."""
    sh = SystemShape(6, 1)
    phase, _ = hermitian_word(0b11, SystemShape(1, 1))
    terms = {}
    for d, c in enumerate(coeffs):
        mask = mask_of(sh, *[(j, mi) for j in range(1, d + 1)
                             for mi in (1, 2)])
        terms[mask] = c * phase ** d
    return ProductEnergyEvaluator(OperatorExpansion(sh, terms))


def polynomial_one_word_minimum(evaluator):
    """The one-word minimum with numpy.polynomial as the root finder: the
    endpoints x = +-1 and the clipped real parts of the roots of the
    energy's derivative, each read as (1 + x h) / 2, the first lowest
    energy kept."""
    (mask,) = evaluator.submasks
    phase, h = hermitian_word(mask, SystemShape(1, 1))
    powers = np.zeros(max(len(subs) for _, subs in evaluator.compiled) + 1,
                      dtype=np.complex128)
    for coeff, subs in evaluator.compiled:
        powers[len(subs)] += coeff / phase ** len(subs)
    critical = np.polynomial.Polynomial(powers.real).deriv().roots()
    best_xi, best = None, math.inf
    for x in [-1.0, 1.0, *np.clip(critical.real, -1.0, 1.0)]:
        xi = (np.eye(2, dtype=np.complex128) + x * h) / 2
        energy = evaluator.energy(xi)
        if energy < best:
            best_xi, best = xi, energy
    return best_xi, best


class TestVerifyGsBound:
    def test_site_number_zero_gap(self):
        result, rep = verify_gs_bound(builtin_family("site-number", 6), seed=1)
        assert rep.passed and result.precondition_ok
        assert result.gap == pytest.approx(0.0, abs=1e-9)
        assert result.bound == pytest.approx(4.0 / 6.0)

    def test_pair_hopping_gap_value(self):
        result, rep = verify_gs_bound(builtin_family("pair-hopping", 6),
                                      seed=1)
        assert rep.passed and result.precondition_ok
        # Product states cannot profit from pure hopping: best product
        # energy is 0 while the exact ground energy is -1/3.
        assert result.e_product_min == pytest.approx(0.0, abs=1e-9)
        assert result.gap == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert result.bound == pytest.approx(4.0 * 2.0 ** 1.5 / 6.0)

    def test_hubbard_like_precondition_holds(self):
        # The ground space is read through its isometry, never as a
        # 4096 x 4096 projector; the invariance verdict stays OK.
        result, rep = verify_gs_bound(builtin_family("hubbard-like", 6),
                                      seed=0)
        assert result.precondition_ok
        assert result.invariance.max_violation() < 1e-10

    def test_pair_exchange_negative_control(self):
        # The attraction pattern of this family has a ground state that is
        # genuinely not permutation invariant: the precondition label must
        # say so while the gap numbers stay reported.
        result, rep = verify_gs_bound(builtin_family("pair-exchange", 6),
                                      seed=1)
        assert not result.precondition_ok
        assert any("precondition failed" in n for n in rep.notes)
        assert result.gap == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert rep.passed

    def test_gap_never_negative(self):
        for name in ("site-number", "pair-exchange", "pair-hopping"):
            result, _ = verify_gs_bound(builtin_family(name, 6), seed=2)
            assert result.gap >= -1e-9

    def test_negative_gap_fails(self, monkeypatch):
        # A product energy below the exact ground energy is impossible, so
        # such numbers are no certificate, whatever the bound says.
        original = meanfield.min_product_energy

        def undercut(*args, **kwargs):
            xi, energy = original(*args, **kwargs)
            return xi, energy - 1.0

        monkeypatch.setattr(meanfield, "min_product_energy", undercut)
        result, rep = verify_gs_bound(builtin_family("site-number", 6), seed=0)
        assert result.gap == pytest.approx(-1.0, abs=1e-9)
        assert rep.lhs <= rep.rhs
        assert not rep.passed
        assert any("negative gap" in n for n in rep.notes)

    def test_bound_formula(self):
        assert gs_bound(6, 1, 2) == pytest.approx(4.0 * 2.0 ** 1.5 / 6.0)
        assert gs_bound(6, 2, 2) == pytest.approx(16.0 * 2.0 ** 1.5 / 6.0)


def ground_of(spec):
    h_exp, _ = build_hamiltonian_expansion(spec)
    return ground_state_lowdim(h_exp)[1]


def class_check(ground, monkeypatch):
    """The exact class check of a ground space: on its dense projector
    F F-dagger / r up to Fock dimension 1024, above that (hubbard-like,
    V = 6, where the projector is a 256 MB array) on the isometry with the
    generator path switched off."""
    f = ground.matrix
    if ground.shape.fock_dim <= 1024:
        return check_invariance_dense(
            DenseOperator(ground.shape, f @ f.conj().T / f.shape[1]))
    with monkeypatch.context() as patch:
        patch.setattr(invariance, "_transposition_bound",
                      lambda ground: math.inf)
        return check_invariance_dense(ground)


def verdict(report):
    return (report.fully_invariant,
            report.max_violation() <= DENSE_INVARIANCE_TOL)


def assert_same_report(report, exact):
    """Equal up to the rounding of reading the words from F instead of
    F F-dagger / r."""
    assert (report.condition1_max_violation,
            report.condition2_max_violation,
            report.full_max_violation) == pytest.approx(
                (exact.condition1_max_violation,
                 exact.condition2_max_violation,
                 exact.full_max_violation), abs=1e-12)
    assert (report.checked_words, report.fully_invariant) == (
        exact.checked_words, exact.fully_invariant)


def site_number_cut(V):
    """Site-number on sites 1..V-1 only: site V is left free, so the ground
    space is invariant under every adjacent transposition but (V-1 V)."""
    return hamiltonian_from_config({
        "V": V, "p": 1, "k": 1, "template": BUILTIN_CONFIGS[
            "site-number"]["template"],
        "subsets": [[site] for site in range(1, V)], "name": "cut"})


class TestGeneratorInvariance:
    @pytest.mark.parametrize("name, V", [
        (name, V) for name in BUILTIN_FAMILIES for V in (
            range(4, 7) if name == "hubbard-like" else range(4, 9))])
    def test_agrees_with_class_check(self, name, V, monkeypatch):
        # Same verdict as the class check on every built-in ground space;
        # where the transpositions certify, their bound B is in every
        # field and covers each exact class diameter.  H's own symmetry
        # (the symmetric route of verify_gs_bound) gives the same verdict.
        spec = builtin_family(name, V)
        ground = ground_of(spec)
        report = check_invariance_dense(ground)
        h_exp, _ = build_hamiltonian_expansion(spec)
        assert (symmetry_report(h_exp) is not None) == report.fully_invariant
        exact = class_check(ground, monkeypatch)
        assert verdict(report) == verdict(exact)
        bound = invariance._transposition_bound(ground)
        if bound < DENSE_INVARIANCE_TOL:
            assert report == InvarianceReport(bound, bound,
                                              exact.checked_words, True,
                                              bound)
            assert exact.condition1_max_violation <= bound
            assert exact.condition2_max_violation <= bound
            assert exact.full_max_violation <= bound
        else:
            assert_same_report(report, exact)
        # pair-exchange's template i m_j m_l flips sign under a swap.
        assert verdict(report) == ((False, False) if name == "pair-exchange"
                                   else (True, True))

    @pytest.mark.parametrize("V", [4, 5, 6])
    def test_last_transposition_counts(self, V, monkeypatch):
        # Every transposition but (V-1 V) fixes the ground space, so a
        # loop that skips the last one would certify it.
        ground = ground_of(site_number_cut(V))
        report = check_invariance_dense(ground)
        assert not report.fully_invariant
        assert_same_report(report, class_check(ground, monkeypatch))
        # Sites V-1 (occupied) and V (half filled) swap: the two rank-2
        # projectors share one vector and the other pair is orthogonal,
        # so the distance is 1 and B = C(V, 2).
        assert invariance._transposition_bound(ground) == pytest.approx(
            math.comb(V, 2), abs=1e-12)

    @pytest.mark.parametrize("name", ["site-number", "pair-hopping",
                                      "hubbard-like"])
    def test_certified_without_words(self, name, monkeypatch):
        def no_words(*args, **kwargs):
            raise AssertionError("class check reached")

        monkeypatch.setattr(invariance, "word_expectations_dense", no_words)
        report = check_invariance_dense(ground_of(builtin_family(name, 6)))
        assert report.fully_invariant
        assert report.max_violation() < 1e-10
        result, rep = verify_gs_bound(builtin_family(name, 6), seed=0)
        assert result.precondition_ok and rep.passed

    def test_memory_far_below_a_projector(self):
        # The hubbard-like V = 6 ground space (dim 4096, rank 5) is
        # certified from gathers of its isometry: no 4096 x 4096 complex
        # array (256 MB) is made.
        ground = ground_of(builtin_family("hubbard-like", 6))
        tracemalloc.start()
        try:
            report = check_invariance_dense(ground)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.fully_invariant
        assert peak < 8 * 2 ** 20


def route_calls(monkeypatch):
    """Record which of the two routes' solvers and checks
    ``verify_gs_bound`` calls, by name, in order."""
    calls = []
    for name in ("ground_energy", "ground_state_lowdim",
                 "check_invariance_dense"):
        def record(*args, name=name, original=getattr(meanfield, name),
                   **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(meanfield, name, record)
    return calls


DENSE_ROUTE = ["ground_state_lowdim", "check_invariance_dense"]


def conjugation_residual(h_exp):
    """max over the adjacent site transpositions s of |U_s H U_s-dagger -
    H| on the dense matrix, with U_s from fock.permutation_unitary: 0 up
    to rounding exactly when H commutes with every site permutation."""
    shape, h = h_exp.shape, to_matrix(h_exp).matrix
    worst = 0.0
    for i in range(1, shape.sites):
        pi = list(range(1, shape.sites + 1))
        pi[i - 1], pi[i] = i + 1, i
        u = permutation_unitary(pi, shape).matrix
        worst = max(worst, float(np.abs(u @ h @ u.conj().T - h).max()))
    return worst


@st.composite
def averaged_templates(draw):
    """(spec, dropped): a random Hermitian, parity-even k-site template
    with words of degree 2 and 4 averaged over every ordered k-tuple of
    V > k sites, and the index of one tuple to leave out."""
    k, p = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    V = draw(st.integers(k + 1, 6 if p == 1 else 3))
    shape = SystemShape(k, p)
    values = st.sampled_from([-1.0, -0.5, 0.25, 0.5, 1.0]) | st.floats(
        -1.0, 1.0).filter(lambda x: abs(x) > 1e-3)
    bits = st.sets(st.integers(0, shape.majorana_count - 1), min_size=2,
                   max_size=min(4, shape.majorana_count)).filter(
                       lambda b: len(b) % 2 == 0)
    terms = {}
    for word in draw(st.lists(bits, min_size=1, max_size=4)):
        mask = sum(1 << b for b in word)
        terms[mask] = draw(values) * (
            1 if reversal_sign(len(word)) > 0 else 1j)
    subsets = tuple(itertools.permutations(range(1, V + 1), k))
    spec = HamiltonianSpec(SystemShape(V, p), subsets,
                           OperatorExpansion(shape, terms), normalize=True)
    return spec, draw(st.integers(0, len(subsets) - 1))


class TestSymmetricRoute:
    """The precondition from H's own symmetry, and the ground energy with
    no ground vector."""

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_symmetry_is_commutation_with_permutations(self, name):
        # Against the dense permutation unitaries at V = 4: the certified
        # Hamiltonians commute with every adjacent transposition, and
        # pair-exchange, which meets conditions 1 and 2, does not.
        h_exp, _ = build_hamiltonian_expansion(builtin_family(name, 4))
        report = check_invariance(h_exp)
        if name == "pair-exchange":
            assert symmetry_report(h_exp) is None
            assert report.max_violation() == 0.0
            assert conjugation_residual(h_exp) > 0.1
        else:
            assert symmetry_report(h_exp) == report
            assert conjugation_residual(h_exp) < 1e-14

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(averaged_templates())
    def test_averaged_template_certifies_and_one_tuple_less_does_not(
            self, case):
        # Averaged over every ordered k-tuple, H commutes with every site
        # permutation: certified, and the dense check of its ground space
        # agrees.  Without one tuple a site outside it sees the template
        # otherwise than the tuple's sites do, so H is not symmetric.
        spec, dropped = case
        h_exp, _ = build_hamiltonian_expansion(spec)
        assert symmetry_report(h_exp) is not None
        assert conjugation_residual(h_exp) < 1e-12
        _, ground = ground_state_lowdim(h_exp)
        assert check_invariance_dense(ground).fully_invariant
        subsets = spec.subsets[:dropped] + spec.subsets[dropped + 1:]
        h_less, _ = build_hamiltonian_expansion(HamiltonianSpec(
            spec.shape, subsets, spec.template, normalize=True))
        assert symmetry_report(h_less) is None
        assert conjugation_residual(h_less) > 1e-6

    def test_pair_exchange_takes_the_dense_route(self, monkeypatch):
        calls = route_calls(monkeypatch)
        result, rep = verify_gs_bound(builtin_family("pair-exchange", 6),
                                      seed=1)
        assert calls == DENSE_ROUTE
        assert not result.precondition_ok
        assert any("violation 6.667e-01" in n for n in rep.notes)

    def test_word_above_the_degree_cap_takes_the_dense_route(self,
                                                             monkeypatch):
        # P_j P_l P_m over all 3-subsets: a degree-6 word on each, even on
        # every site, so H is symmetric, but its class check covers only
        # degree 4 and does not see these words; the ground space decides.
        spec = hamiltonian_from_config({
            "V": 6, "p": 1, "k": 3,
            "template": "0 1 (1,1)(1,2)(2,1)(2,2)(3,1)(3,2)\n"})
        h_exp, _ = build_hamiltonian_expansion(spec)
        assert {w.bit_count() for w in h_exp.terms} == {6}
        assert check_invariance(h_exp).fully_invariant
        assert symmetry_report(h_exp) is None
        calls = route_calls(monkeypatch)
        result, rep = verify_gs_bound(spec, seed=0)
        assert calls == DENSE_ROUTE
        _, ground = ground_state_lowdim(h_exp)
        assert result.invariance == check_invariance_dense(ground)
        assert result.e_ground == pytest.approx(-1.0, abs=1e-12)

    def test_hubbard_like_v6_solves_one_stack_and_no_vector(self,
                                                            monkeypatch):
        # The symmetric route: the ground stack (three up, three down:
        # 400 states) is solved by one eigvalsh, the Cholesky test skips
        # the other nine stacks, and no eigh or dense invariance check
        # runs.  The other eigvalsh is the template's norm (16 x 16,
        # complex); the product search, which solves single-site states,
        # is stubbed out.
        monkeypatch.setattr(meanfield, "min_product_energy",
                            lambda h_exp, seed: (None, 0.0))
        calls = route_calls(monkeypatch)
        eigvalsh, eigh = recording_solvers(monkeypatch)
        result, _ = verify_gs_bound(builtin_family("hubbard-like", 6), seed=0)
        assert calls == ["ground_energy"]
        assert eigvalsh == [("c", (16, 16)), ("f", (1, 400, 400))]
        assert eigh == []
        monkeypatch.undo()
        h_exp, _ = build_hamiltonian_expansion(builtin_family("hubbard-like",
                                                              6))
        assert result.e_ground == ground_state_lowdim(h_exp)[0]
        assert result.precondition_ok
        assert result.invariance == check_invariance(h_exp)

    def test_symmetric_route_memory(self):
        # Only the block chunk being solved or tested is alive: the
        # traced peak of the whole hubbard-like V = 6 certificate stays
        # under 3.5 MB (3.14 MB measured; 5.8 MB with one stack per block
        # size and the partner table kept, 8.0 MB when the sweep held the
        # previous stack while building the next, 9.8 MB on the dense
        # route with int64 edge lists).
        spec = builtin_family("hubbard-like", 6)
        tracemalloc.start()
        try:
            verify_gs_bound(spec, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2 ** 20


class TestConvexityStep:
    def test_mixture_energy_dominates_product_minimum(self):
        state = mu_family_state(MuFamilyParams(6, 1, 0.5), validate=False)
        inv = check_invariance(state)
        from fermicert.definetti import verify_theorem1
        _, mixture, _ = verify_theorem1(state, 2, seed=3, inv_report=inv)
        for name in ("site-number", "pair-hopping"):
            spec = builtin_family(name, 6)
            h_exp, _ = build_hamiltonian_expansion(spec)
            evaluator = ProductEnergyEvaluator(h_exp)
            _, e_min = min_product_energy(h_exp, seed=3)
            e_mix = sum(a * evaluator.energy(xi.matrix)
                        for a, xi in zip(mixture.weights, mixture.components))
            assert e_mix >= e_min - 1e-9

    def test_suite_reuses_the_family_minima(self, monkeypatch):
        # One product search per family, in verify_gs_bound; the
        # convexity step reads the one-mode families' minima from there.
        from fermicert import suites
        calls = []
        original = meanfield.min_product_energy

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(meanfield, "min_product_energy", counting)
        reports, _ = suites.run_gs_bound(seed=13)
        assert len(calls) == len(BUILTIN_FAMILIES) == 4
        convexity = reports[-1]
        assert convexity.claim_id == "gs-convexity-step"
        assert convexity.inputs["families"] == 3 and convexity.passed
