"""One-particle density matrices: circulant spectra, occupation bands and
block structure."""

import math

import numpy as np
import pytest

from conftest import (independent_ladder, random_density_matrix,
                      random_even_density_matrix)
from fermicert.algebra import SystemShape
from fermicert import rdm
from fermicert.definetti import product_power
from fermicert.fock import DenseOperator, to_matrix
from fermicert.invariance import MuFamilyParams, mu_family_state
from fermicert.rdm import (CirculantParams, OFFDIAG_BOUND_CONST, OneRDM,
                           circulant_matrix, circulant_spectrum_with_fallback,
                           compare_circulant_spectrum, fit_circulant,
                           mode_occupations, one_rdm,
                           verify_pauli_constraints)

TAN6 = math.tan(math.pi / 12.0)


class TestOneRDM:
    def test_vacuum_zero(self):
        sh = SystemShape(3, 1)
        vac = np.zeros((8, 8), dtype=complex)
        vac[0, 0] = 1.0
        rdm = one_rdm(DenseOperator(sh, vac))
        assert np.max(np.abs(rdm.gamma)) == 0.0

    def test_fully_occupied_identity(self):
        sh = SystemShape(2, 1)
        full = np.zeros((4, 4), dtype=complex)
        full[3, 3] = 1.0
        rdm = one_rdm(DenseOperator(sh, full))
        assert np.allclose(rdm.gamma, np.eye(2))

    def test_mu_family_circulant(self):
        # a = 1/2 and b = i tan(pi/12) / 4 from the pair correlators:
        # f_j† f_k = (m_j^1 - i m_j^2)(m_k^1 + i m_k^2)/4 and only the
        # m^1 m^1 expectation survives.
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        rdm = one_rdm(to_matrix(state))
        a, b, resid = fit_circulant(rdm.gamma)
        assert a == pytest.approx(0.5, abs=1e-12)
        assert b == pytest.approx(0.25j * TAN6, abs=1e-12)
        assert resid < 1e-12
        assert rdm.hermiticity_residual < 1e-12

    def test_occupation_band(self):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        rdm = one_rdm(to_matrix(state))
        eigs = np.linalg.eigvalsh(rdm.gamma)
        assert eigs[0] > -1e-10 and eigs[-1] < 1.0 + 1e-10

    def test_matches_kron_oracle(self, rng):
        # Gamma[j, k] = tr(rho f_j† f_k) with kron-chain ladders.
        for sh in (SystemShape(3, 1), SystemShape(2, 2), SystemShape(1, 3)):
            rho = random_even_density_matrix(sh, rng)
            n = sh.total_modes
            fs = [independent_ladder(n, mode) for mode in range(n)]
            want = np.array([[np.trace(rho @ fj.conj().T @ fk) for fk in fs]
                             for fj in fs])
            rdm = one_rdm(DenseOperator(sh, rho))
            assert np.max(np.abs(rdm.gamma - want)) < 1e-12
            assert rdm.hermiticity_residual < 1e-12

    def test_one_pair_trace_gather(self, monkeypatch, rng):
        # Gamma is one xor_pair_traces call: the n creators on the left,
        # the n annihilators on the right and all n² pairs.
        sh = SystemShape(2, 2)
        rho = DenseOperator(sh, random_even_density_matrix(sh, rng))
        want = one_rdm(rho).gamma
        calls = []
        gather = rdm.xor_pair_traces

        def counting(rho, lefts, rights, pairs):
            calls.append((len(lefts), len(rights), len(pairs)))
            return gather(rho, lefts, rights, pairs)

        monkeypatch.setattr(rdm, "xor_pair_traces", counting)
        assert np.array_equal(one_rdm(rho).gamma, want)
        assert calls == [(4, 4, 16)]


def closed_form(params: CirculantParams) -> np.ndarray:
    """The closed-form values of a spectrum with no singular k."""
    vals, singular = circulant_spectrum_with_fallback(params)
    assert singular == []
    return vals


class TestCirculantSpectrum:
    def test_b_zero_flat(self):
        vals = closed_form(CirculantParams(5, 0.3, 0.0 + 0j))
        assert np.allclose(vals, 0.3)

    def test_real_branch_values(self):
        vals = closed_form(CirculantParams(6, 0.5, complex(0.05)))
        assert vals[0] == 0.5 + 0.05 * 5
        assert np.allclose(vals[1:], 0.5 - 0.05)

    def test_real_branch_matches_direct(self):
        for V in range(2, 13):
            for b in (-0.1, 0.05, 0.3 / V):
                params = CirculantParams(V, 0.5, complex(b))
                vals = np.sort(closed_form(params))
                direct = np.sort(np.linalg.eigvalsh(circulant_matrix(params)))
                assert np.max(np.abs(vals - direct)) < 1e-10

    def test_complex_branch_matches_direct(self):
        params = CirculantParams(6, 0.5, 0.05 * np.exp(1j * math.pi / 5))
        vals = np.sort(closed_form(params))
        direct = np.sort(np.linalg.eigvalsh(circulant_matrix(params)))
        assert np.max(np.abs(vals - direct)) < 1e-10

    def test_trace_rule(self):
        for V in (2, 5, 9):
            for b in (complex(0.07), 0.05 * np.exp(0.9j)):
                vals = closed_form(CirculantParams(V, 0.5, b))
                assert abs(np.sum(vals) - 0.5 * V) < 1e-10

    def test_singularity_named_and_fallback(self):
        params = CirculantParams(6, 0.5, complex(0.05 * np.exp(1e-7j)))
        vals, singular = circulant_spectrum_with_fallback(params)
        assert singular == [0]
        direct = np.sort(np.linalg.eigvalsh(circulant_matrix(params)))
        assert np.max(np.abs(np.sort(vals) - direct)) < 1e-10

    @pytest.mark.parametrize("b", [complex(0.05 * np.exp(1e-7j)),
                                   -0.1 + 1e-14j, 0.1 + 1e-14j])
    def test_singular_fill_needs_no_eigensolver(self, monkeypatch, b):
        # The singular value is the trace V a minus the others, and it
        # matches the eigensolver without calling it.
        params = CirculantParams(6, 0.5, b)
        direct = np.sort(np.linalg.eigvalsh(circulant_matrix(params)))

        def no_solver(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solver)
        monkeypatch.setattr(np.linalg, "eigh", no_solver)
        vals, singular = circulant_spectrum_with_fallback(params)
        assert len(singular) == 1
        assert np.max(np.abs(np.sort(vals) - direct)) < 1e-14

    @pytest.mark.parametrize("b, singular_k, position", [
        (-0.1 + 1e-14j, 1, 0),
        (0.1 + 1e-14j, 0, 5),
    ])
    def test_compare_excludes_the_singular_formula_index(
            self, monkeypatch, b, singular_k, position):
        # Near-real b makes one formula index singular; its value comes
        # from the eigensolver and sorts to a position other than k.
        params = CirculantParams(6, 0.5, b)
        values, singular = circulant_spectrum_with_fallback(params)
        assert singular == [singular_k]
        assert int(np.argsort(values, kind="stable")[position]) == singular_k

        # Shift the filled value without changing its rank: only the row
        # it lands in may show the shift, and that row is excluded.
        def shifted(p):
            vals, sing = circulant_spectrum_with_fallback(p)
            vals = vals.copy()
            vals[sing] += 1e-9
            return vals, sing

        monkeypatch.setattr(rdm, "circulant_spectrum_with_fallback", shifted)
        rows, worst, got = compare_circulant_spectrum(params)
        assert got == [singular_k]
        assert [row[1] for row in rows] == list(range(6))
        assert rows[position][4] == pytest.approx(1e-9, rel=1e-3)
        assert worst < 1e-12

    def test_small_V_rejected(self):
        with pytest.raises(ValueError):
            CirculantParams(1, 0.5, 0j)


class TestPauliConstraints:
    def test_vacuum_passes(self):
        sh = SystemShape(3, 1)
        vac = np.zeros((8, 8), dtype=complex)
        vac[0, 0] = 1.0
        dense = DenseOperator(sh, vac)
        rep = verify_pauli_constraints(one_rdm(dense), source=dense)
        assert rep.passed

    def test_mu_family_bound(self):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        dense = to_matrix(state)
        rdm = one_rdm(dense)
        rep = verify_pauli_constraints(rdm, source=dense,
                                       source_invariant=True)
        assert rep.passed
        _, b, _ = fit_circulant(rdm.gamma)
        assert abs(b) <= OFFDIAG_BOUND_CONST / 6.0 + 1e-9

    def test_hand_built_violation_fails(self):
        gamma = circulant_matrix(CirculantParams(4, 0.5, complex(1.0)))
        rep = verify_pauli_constraints(OneRDM(gamma, SystemShape(4, 1), 0.0))
        assert not rep.passed
        assert float(np.linalg.eigvalsh(gamma)[0]) < 0

    def test_mode_occupations_oracle(self, rng):
        sh = SystemShape(2, 1)
        rho = DenseOperator(sh, random_density_matrix(4, rng))
        occ = mode_occupations(rho)
        rdm = one_rdm(rho)
        assert np.allclose(occ, np.real(np.diag(rdm.gamma)), atol=1e-12)


def site_blocks(rdm: OneRDM) -> np.ndarray:
    """The 1-RDM as its V x V grid of p x p site blocks."""
    V, p = rdm.shape.sites, rdm.shape.modes_per_site
    return rdm.gamma.reshape(V, p, V, p).transpose(0, 2, 1, 3)


class TestBlockStructure:
    """Several modes per site: one repeated diagonal block and, for an
    invariant state, one repeated block above the diagonal."""

    def test_product_state_has_zero_offdiagonal_block(self):
        xi = DenseOperator(SystemShape(1, 2),
                           np.diag([0.5, 0.2, 0.2, 0.1]).astype(complex))
        blocks = site_blocks(one_rdm(product_power(xi, 4)))
        single = one_rdm(xi).gamma
        for j in range(4):
            # Each diagonal block is the 1-RDM of the single-site state.
            assert np.max(np.abs(blocks[j, j] - single)) < 1e-12
            for l in range(4):
                if l != j:
                    assert np.max(np.abs(blocks[j, l])) < 1e-12

    def test_mu_family_p2_nonzero_block(self):
        state = mu_family_state(MuFamilyParams(4, 2, 0.8), validate=False)
        blocks = site_blocks(one_rdm(to_matrix(state)))
        t4 = math.tan(math.pi / 8.0)
        for j in range(4):
            assert np.real(np.trace(blocks[j, j])) == pytest.approx(
                1.0, abs=1e-12)
            for l in range(j + 1, 4):
                assert np.max(np.abs(blocks[j, l] - blocks[0, 1])) < 1e-12
        assert blocks[0, 1][0, 0] == pytest.approx(-0.25j * 0.8 * t4,
                                                   abs=1e-12)


class TestSuppressionWithSize:
    def test_b_times_v_bounded(self):
        # Fitted |b| V = V tan(pi/2V) / 4 -> pi/8 for the mu family.
        for V in (6, 8, 10):
            state = mu_family_state(MuFamilyParams(V, 1, 1.0), validate=False)
            rdm = one_rdm(to_matrix(state))
            _, b, _ = fit_circulant(rdm.gamma)
            expected = math.tan(math.pi / (2 * V)) / 4.0
            assert abs(b) == pytest.approx(expected, abs=1e-12)
            assert abs(b) * V < OFFDIAG_BOUND_CONST
