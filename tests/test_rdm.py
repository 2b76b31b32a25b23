"""One-particle density matrices: circulant spectra, occupation bands and
block structure."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (independent_ladder, random_density_matrix,
                      random_even_density_matrix, random_expansion,
                      word_matrix_oracle)
from fermicert import fock
from fermicert.algebra import OperatorExpansion, SystemShape
from fermicert.definetti import product_power
from fermicert.fock import (DenseOperator, hermiticity_residual, to_expansion,
                            to_matrix)
from fermicert.invariance import (MuFamilyParams, check_invariance,
                                  mu_family_state)
from fermicert.rdm import (CirculantParams, OFFDIAG_BOUND_CONST, OneRDM,
                           circulant_matrix, circulant_spectrum_with_fallback,
                           compare_circulant_spectrum, fit_circulant,
                           TRACE_TOL, mode_occupations, one_rdm,
                           verify_pauli_constraints)
from fermicert.suites import run_rdm_spectrum

TAN6 = math.tan(math.pi / 12.0)


def expansion_of(shape, matrix):
    """A dense matrix on ``shape`` as its full word expansion."""
    return to_expansion(DenseOperator(shape, matrix))


def occupied_state(shape, index):
    """The Fock basis state of ``index`` as an expansion."""
    rho = np.zeros((shape.fock_dim,) * 2, dtype=complex)
    rho[index, index] = 1.0
    return expansion_of(shape, rho)


def oracle_gamma(op):
    """tr(rho f_j† f_k) with rho summed from kron-chain word matrices and
    kron-chain ladders, none of it through the package's dense route."""
    shape = op.shape
    rho = sum((coeff * word_matrix_oracle(mask, shape)
               for mask, coeff in op.terms.items()),
              np.zeros((shape.fock_dim,) * 2, dtype=complex))
    n = shape.total_modes
    fs = [independent_ladder(n, mode) for mode in range(n)]
    return np.array([[np.trace(rho @ fj.conj().T @ fk) for fk in fs]
                     for fj in fs])


@st.composite
def expansions(draw):
    """Expansions at p = 1 and p = 2 with random complex coefficients,
    so neither positive nor Hermitian; degree-2 words drawn on their own
    as well, so every block of the two-point matrix is reached."""
    shape = SystemShape(*draw(st.sampled_from(
        [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2)])))
    bits = shape.majorana_count
    pair = st.lists(st.integers(0, bits - 1), min_size=2, max_size=2,
                    unique=True).map(lambda ab: (1 << ab[0]) | (1 << ab[1]))
    mask = st.one_of(pair, st.integers(0, (1 << bits) - 1))
    part = st.floats(-1.0, 1.0, allow_nan=False)
    coeff = st.builds(complex, part, part)
    terms = draw(st.dictionaries(mask, coeff, max_size=8))
    return OperatorExpansion(shape, terms)


class TestOneRDM:
    def test_vacuum_zero(self):
        rdm = one_rdm(occupied_state(SystemShape(3, 1), 0))
        assert np.max(np.abs(rdm.gamma)) == 0.0

    def test_fully_occupied_identity(self):
        rdm = one_rdm(occupied_state(SystemShape(2, 1), 3))
        assert np.allclose(rdm.gamma, np.eye(2))

    def test_mu_family_circulant(self):
        # a = 1/2 and b = i tan(pi/12) / 4 from the pair correlators:
        # f_j† f_k = (m_j^1 - i m_j^2)(m_k^1 + i m_k^2)/4 and only the
        # m^1 m^1 expectation survives.
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        rdm = one_rdm(state)
        a, b, resid = fit_circulant(rdm.gamma)
        assert a == pytest.approx(0.5, abs=1e-12)
        assert b == pytest.approx(0.25j * TAN6, abs=1e-12)
        assert resid < 1e-12
        assert rdm.hermiticity_residual < 1e-12

    def test_occupation_band(self):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        rdm = one_rdm(state)
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
            rdm = one_rdm(expansion_of(sh, rho))
            assert np.max(np.abs(rdm.gamma - want)) < 1e-12
            assert rdm.hermiticity_residual < 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(expansions())
    def test_any_operator_matches_the_word_oracle(self, op):
        # Gamma of a non-Hermitian operator is symmetrized: its Hermitian
        # part, with the anti-Hermitian part's size as the residual.
        want = oracle_gamma(op)
        scale = max(1.0, float(np.max(np.abs(want))))
        rdm = one_rdm(op)
        assert np.max(np.abs(rdm.gamma - 0.5 * (want + want.conj().T))
                      ) <= 1e-13 * scale
        assert abs(rdm.hermiticity_residual - hermiticity_residual(want)
                   ) <= 1e-13 * scale

    @pytest.mark.parametrize("V", [40, 200])
    def test_no_mode_cap_and_no_fock_matrix(self, V, monkeypatch):
        # Far past the default cap: Gamma is the closed form a = 1/2,
        # Gamma[j, k] = i tan(pi/2V) mu / 4 for j > k, with no dense
        # matrix formed.
        def no_dense(*args):
            raise AssertionError("a Fock matrix was formed")

        monkeypatch.setattr(fock, "to_matrices", no_dense)
        mu = 0.5
        state = mu_family_state(MuFamilyParams(V, 1, mu), validate=False)
        assert state.shape.total_modes > fock.mode_cap()
        rdm = one_rdm(state)
        lower = np.tril(np.ones((V, V), dtype=bool), -1)
        want = np.where(lower, 0.25j * math.tan(math.pi / (2 * V)) * mu, 0)
        want = want + want.conj().T + 0.5 * np.eye(V)
        assert np.max(np.abs(rdm.gamma - want)) <= 1e-15
        assert rdm.hermiticity_residual == 0.0


def closed_form(params: CirculantParams) -> np.ndarray:
    """The closed-form values; the second value is always empty."""
    vals, rest = circulant_spectrum_with_fallback(params)
    assert rest == ()
    return vals


def deviation(params: CirculantParams) -> float:
    """Largest gap between the sorted closed form and eigvalsh."""
    direct = np.linalg.eigvalsh(circulant_matrix(params))
    return float(np.max(np.abs(np.sort(closed_form(params)) - direct)))


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
                assert deviation(CirculantParams(V, 0.5, complex(b))) < 1e-10

    def test_complex_branch_matches_direct(self):
        params = CirculantParams(6, 0.5, 0.05 * np.exp(1j * math.pi / 5))
        assert deviation(params) < 1e-10

    def test_trace_rule(self):
        for V in (2, 5, 9):
            for b in (complex(0.07), 0.05 * np.exp(0.9j)):
                vals = closed_form(CirculantParams(V, 0.5, b))
                assert abs(np.sum(vals) - 0.5 * V) < 1e-10

    @pytest.mark.parametrize("b", [complex(0.05 * np.exp(1e-7j)),
                                   -0.1 + 1e-14j, 0.1 + 1e-14j])
    def test_singular_fill_needs_no_eigensolver(self, monkeypatch, b):
        # Near-real b, where a form that divides by 1 - cos(...) meets its
        # removable zero: every value comes from the closed form alone.
        params = CirculantParams(6, 0.5, b)
        direct = np.sort(np.linalg.eigvalsh(circulant_matrix(params)))

        def no_solver(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solver)
        monkeypatch.setattr(np.linalg, "eigh", no_solver)
        vals = closed_form(params)
        assert np.max(np.abs(np.sort(vals) - direct)) < 1e-14

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(2, 40), st.floats(-1.0, 1.0), st.floats(0.0, 1.0),
           st.sampled_from([0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi]),
           st.floats(-1.0, 1.0), st.integers(0, 12))
    def test_matches_eigvalsh_near_every_axis(self, V, a, mag, axis, sign,
                                              decades):
        # Angles within 10^-decades of the real and imaginary axes, where
        # |Im b| / |Re b| reaches 1e-12 or its inverse.
        angle = axis + sign * 10.0 ** -decades
        params = CirculantParams(V, a, complex(mag * np.exp(1j * angle)))
        assert deviation(params) < 1e-12

    @pytest.mark.parametrize("V, a, b", [
        # Near b = +-i, r = Re b / cos(theta) is 1.9e-2 off here.
        (38, -0.20462100712915765,
         -1.2075203980816546e-13 + 0.9664038059352485j),
        (7, 0.5, 0.1j),
        (9, -0.3, -0.05j),
        # A subnormal Im b takes the real branch and stays finite.
        (6, 0.5, 0.1 + 5e-324j),
    ], ids=["near-i", "pure-imaginary", "pure-imaginary-negative",
            "subnormal-imaginary"])
    def test_fixed_hard_inputs(self, V, a, b):
        params = CirculantParams(V, a, b)
        assert np.all(np.isfinite(closed_form(params)))
        assert deviation(params) < 1e-12

    def test_compare_rows_and_worst(self):
        params = CirculantParams(6, 0.5, 0.05 * np.exp(0.9j))
        rows, worst = compare_circulant_spectrum(params)
        assert [row[1] for row in rows] == list(range(6))
        assert worst == max(row[4] for row in rows) < 1e-14

    def test_small_V_rejected(self):
        with pytest.raises(ValueError):
            CirculantParams(1, 0.5, 0j)


class TestPauliConstraints:
    def test_vacuum_passes(self):
        state = occupied_state(SystemShape(3, 1), 0)
        rep = verify_pauli_constraints(one_rdm(state), source=state)
        assert rep.passed
        assert not any("trace oracle" in note for note in rep.notes)

    def test_mu_family_bound(self):
        # The source's invariance is checked inside, with no flag: the mu
        # family is invariant, so the |b| bound applies and is noted, the
        # same note as with its check_invariance report passed in.
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        rdm = one_rdm(state)
        rep = verify_pauli_constraints(rdm, source=state)
        assert rep.passed
        _, b, _ = fit_circulant(rdm.gamma)
        assert abs(b) <= OFFDIAG_BOUND_CONST / 6.0 + 1e-9
        bound_notes = [note for note in rep.notes if note.startswith("fit ")]
        assert len(bound_notes) == 1
        given = verify_pauli_constraints(rdm, source=state,
                                         inv_report=check_invariance(state))
        assert given.notes == rep.notes and given.lhs == rep.lhs

    def test_non_invariant_source_gets_no_bound(self):
        # One particle on site 1 only: the occupations differ by site, so
        # the source is not permutation invariant and no |b| bound is
        # applied or noted; neither is one without a source.
        state = occupied_state(SystemShape(3, 1), 0b100)
        assert check_invariance(state).max_violation() > 1e-9
        rdm = one_rdm(state)
        for rep in (verify_pauli_constraints(rdm, source=state),
                    verify_pauli_constraints(rdm)):
            assert not any(note.startswith("fit ") for note in rep.notes)

    def test_trace_off_by_twice_the_tolerance_fails(self):
        # A 1-RDM whose trace misses the source's occupations by
        # 2 TRACE_TOL, its band left intact, fails against the expansion
        # it claims to come from, with the trace as the worst violation.
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        rdm = one_rdm(state)
        assert verify_pauli_constraints(rdm, source=state).passed
        gamma = rdm.gamma + 2 * TRACE_TOL / 6 * np.eye(6)
        off = OneRDM(gamma, rdm.shape, rdm.hermiticity_residual)
        assert off.particle_number() == pytest.approx(
            rdm.particle_number() + 2 * TRACE_TOL, rel=0, abs=1e-15)
        rep = verify_pauli_constraints(off, source=state)
        assert not rep.passed
        assert rep.lhs == pytest.approx(TRACE_TOL, rel=1e-4)

    def test_hand_built_violation_fails(self):
        gamma = circulant_matrix(CirculantParams(4, 0.5, complex(1.0)))
        rep = verify_pauli_constraints(OneRDM(gamma, SystemShape(4, 1), 0.0))
        assert not rep.passed
        assert float(np.linalg.eigvalsh(gamma)[0]) < 0

    def test_no_source_says_the_trace_oracle_did_not_run(self):
        state = occupied_state(SystemShape(3, 1), 0)
        rep = verify_pauli_constraints(one_rdm(state))
        assert rep.passed
        assert "trace oracle not run: no dense source" in rep.notes

    def test_suite_memory(self):
        # The trace oracle reads the Fock diagonal off the expansion, so no
        # dense state is built: the traced peak of the suite stays under
        # 4 MB (1.1 MB measured; 18.1 MB when the V = 10 mu state's
        # 1024 x 1024 complex matrix was the oracle's source).
        tracemalloc.start()
        try:
            run_rdm_spectrum()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_mode_occupations_oracle(self, rng):
        # The occupations of an expansion against tr(rho f_j-dagger f_j)
        # with kron-chain ladders on its dense matrix, and against the
        # 1-RDM diagonal.
        sh = SystemShape(2, 1)
        rho = random_density_matrix(4, rng)
        state = expansion_of(sh, rho)
        occ = mode_occupations(state)
        fs = [independent_ladder(2, mode) for mode in range(2)]
        want = [np.real(np.trace(rho @ f.conj().T @ f)) for f in fs]
        assert np.allclose(occ, want, rtol=0, atol=1e-12)
        assert np.allclose(occ, np.real(np.diag(one_rdm(state).gamma)),
                           rtol=0, atol=1e-12)
        # No diagonal word, so no occupation at all.
        hop = OperatorExpansion(sh, {0b0110: 1.0})
        assert not mode_occupations(hop).any()

    def test_pair_words_give_the_whole_mask_zero_row(self, rng):
        # Summing only the words of whole m^(2a-1) m^(2a) pairs gives the
        # occupations that the mask-0 row of every word's XOR terms gives,
        # bit for bit: random complex expansions, some with no pair word,
        # and mu states up to the V = 10 of rdm-spectrum.
        def from_all_words(source):
            masks, vals = fock.xor_terms(source)
            diag = np.zeros(source.shape.fock_dim)
            if len(masks) and masks[0] == 0:
                diag = np.real(vals[0])
            return np.array([float(np.dot(diag, bits))
                             for bits in fock.occupations(source.shape).T])

        sources = [mu_family_state(MuFamilyParams(V, p, 0.5), validate=False)
                   for V, p in ((6, 1), (10, 1), (3, 2))]
        for shape in (SystemShape(2, 1), SystemShape(2, 2), SystemShape(3, 1)):
            for n_terms in (1, 3, 12):
                sources.extend(random_expansion(shape, rng, n_terms=n_terms)
                               for _ in range(10))
        no_pairs = 0
        for source in sources:
            low = int("01" * source.shape.total_modes, 2)
            no_pairs += not any(w & low == (w >> 1) & low
                                for w in source.terms)
            assert mode_occupations(source).tobytes() == (
                from_all_words(source).tobytes())
        assert no_pairs > 0


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
        # xi is even, so the product of its expansion moved to each site
        # is the tensor power (to_expansion's cap excludes 8 modes).
        site = to_expansion(xi)
        power = OperatorExpansion.identity(SystemShape(4, 2))
        for j in range(1, 5):
            power = power * site.relabel([j], power.shape)
        assert np.allclose(to_matrix(power).matrix,
                           product_power(xi, 4).matrix, rtol=0, atol=1e-15)
        blocks = site_blocks(one_rdm(power))
        single = one_rdm(site).gamma
        for j in range(4):
            # Each diagonal block is the 1-RDM of the single-site state.
            assert np.max(np.abs(blocks[j, j] - single)) < 1e-12
            for l in range(4):
                if l != j:
                    assert np.max(np.abs(blocks[j, l])) < 1e-12

    def test_mu_family_p2_nonzero_block(self):
        state = mu_family_state(MuFamilyParams(4, 2, 0.8), validate=False)
        blocks = site_blocks(one_rdm(state))
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
            rdm = one_rdm(state)
            _, b, _ = fit_circulant(rdm.gamma)
            expected = math.tan(math.pi / (2 * V)) / 4.0
            assert abs(b) == pytest.approx(expected, abs=1e-12)
            assert abs(b) * V < OFFDIAG_BOUND_CONST
