"""Permutation-invariance definition, the mu family, and the trace-norm
suppression certificate."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermicert.algebra import (OperatorExpansion, SystemShape,
                               canonicalize_positions, random_expansion)
from fermicert.fock import (DenseOperator, partial_trace_sites,
                            reduce_expansion, to_matrix, trace_norm)
from fermicert.invariance import (InvarianceReport, MuFamilyParams,
                                  check_invariance, check_invariance_dense,
                                  is_order_preserving, lemma3_bound,
                                  mu_family_state, verify_lemma3,
                                  words_up_to_degree)

TAN6 = math.tan(math.pi / 12.0)


def mask_of(shape, *indices):
    out = 0
    for site, mi in indices:
        out |= 1 << shape.bit_position(site, mi)
    return out


def order_preserving_reference(pi, mask, shape):
    """Independent predicate: decode, map, compare adjacent pairs."""
    pairs = []
    for g in range(shape.majorana_count):
        if (mask >> g) & 1:
            site, rem = divmod(g, 2 * shape.modes_per_site)
            pairs.append((pi[site], rem))
    return all(pairs[i] < pairs[i + 1] for i in range(len(pairs) - 1))


def pairwise_violations(rho, cap=4):
    """Independent oracle for the invariance checker: every word up to the
    degree cap against every site permutation, comparing tr(rho w) with
    tr(rho pi(w)) pair by pair.  Returns (cond1, cond2, full)."""
    shape = rho.shape
    width = 2 * shape.modes_per_site
    site_mask = (1 << width) - 1
    perms = list(itertools.permutations(range(shape.sites)))
    support = rho.terms.keys()
    cond1 = cond2 = full = 0.0
    for degree in range(cap + 1):
        for combo in itertools.combinations(range(shape.majorana_count),
                                            degree):
            w = sum(1 << g for g in combo)
            e_w = rho.expectation(w)
            even = all(((w >> (s * width)) & site_mask).bit_count() % 2 == 0
                       for s in range(shape.sites))
            for pi in perms:
                mapped = [pi[g // width] * width + g % width for g in combo]
                ordered = all(a < b for a, b in zip(mapped, mapped[1:]))
                sign, mapped_mask = canonicalize_positions(mapped)
                if e_w == 0.0 and mapped_mask not in support:
                    continue
                diff = abs(e_w - sign * rho.expectation(mapped_mask))
                full = max(full, diff)
                if ordered:
                    cond1 = max(cond1, diff)
                if even:
                    cond2 = max(cond2, diff)
    return cond1, cond2, full


def symmetrised(rho, ordered_only):
    """Sum of the images of rho under all site permutations, or of each
    of its words under the permutations that preserve that word's order."""
    shape = rho.shape
    out = OperatorExpansion(shape, {})
    for pi in itertools.permutations(range(1, shape.sites + 1)):
        for mask, coeff in rho.terms.items():
            if not ordered_only or is_order_preserving(pi, mask, shape):
                out = out + OperatorExpansion(shape, {mask: coeff}
                                              ).apply_permutation(pi)
    return out


ORACLE_SHAPES = [SystemShape(V, p) for V, p in
                 ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2))]


@st.composite
def oracle_states(draw):
    shape = draw(st.sampled_from(ORACLE_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rho = random_expansion(shape, rng, n_terms=draw(st.integers(1, 8)),
                           max_degree=5)
    rho = (1.0 / shape.fock_dim) * rho
    kind = draw(st.sampled_from(["raw", "all-permutations",
                                 "order-preserving"]))
    if kind != "raw":
        rho = symmetrised(rho, kind == "order-preserving")
    return rho


class TestOrderPreserving:
    def test_identity_always_true(self, rng):
        sh = SystemShape(4, 1)
        for mask in words_up_to_degree(sh, 3):
            assert is_order_preserving((1, 2, 3, 4), mask, sh)

    def test_swap_reverses_pair(self):
        sh = SystemShape(2, 1)
        mask = mask_of(sh, (1, 1), (2, 1))
        assert not is_order_preserving((2, 1), mask, sh)

    def test_exhaustive_table_v4(self):
        # Table-driven check against the independent predicate over every
        # permutation and every word of degree <= 3 at V = 4.
        sh = SystemShape(4, 1)
        words = list(words_up_to_degree(sh, 3))
        for perm in itertools.permutations((1, 2, 3, 4)):
            for mask in words:
                assert (is_order_preserving(perm, mask, sh)
                        == order_preserving_reference(perm, mask, sh))

    def test_cycle_example(self):
        # Cycle 1 -> 3 -> 5 (V = 6) maps sites (1, 2) to (3, 2): order
        # reversed, so the permutation is not order preserving for that
        # word; the predicate, not a guessed value, decides.
        sh = SystemShape(6, 1)
        pi = (3, 2, 5, 4, 1, 6)
        mask = mask_of(sh, (1, 1), (2, 1))
        assert (is_order_preserving(pi, mask, sh)
                == order_preserving_reference(pi, mask, sh))
        assert not is_order_preserving(pi, mask, sh)


class TestMuFamily:
    def test_mu_zero_is_maximally_mixed(self):
        state = mu_family_state(MuFamilyParams(6, 1, 0.0))
        assert state.is_close(OperatorExpansion.identity(
            SystemShape(6, 1), 1.0 / 64.0))

    def test_pair_correlators_both_orders(self):
        # tr(rho m_2 m_1) = +i tan(pi/12) and tr(rho m_1 m_2) = -i tan(pi/12).
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        sh = state.shape
        pair = mask_of(sh, (1, 1), (2, 1))
        assert abs(state.expectation(pair) - (-1j * TAN6)) < 1e-15
        # m2 m1 = -(m1 m2): reversed order flips the sign.
        dense = to_matrix(state).matrix
        from fermicert.fock import jw_matrix
        m1 = jw_matrix(mask_of(sh, (1, 1)), sh).matrix
        m2 = jw_matrix(mask_of(sh, (2, 1)), sh).matrix
        assert abs(np.trace(dense @ m2 @ m1) - 1j * TAN6) < 1e-12
        assert abs(np.trace(dense @ m1 @ m2) + 1j * TAN6) < 1e-12

    def test_correlators_independent_of_sites(self):
        state = mu_family_state(MuFamilyParams(6, 1, 0.5), validate=False)
        sh = state.shape
        vals = {state.expectation(mask_of(sh, (a, 1), (b, 1)))
                for a in range(1, 7) for b in range(a + 1, 7)}
        assert len(vals) == 1

    def test_positivity_gate(self):
        with pytest.raises(ValueError, match="not positive"):
            mu_family_state(MuFamilyParams(6, 1, 1.0))
        # Frozen positivity threshold: 1 / (tan(pi/12) * 5) ~ 0.7464.
        threshold = 1.0 / (TAN6 * 5.0)
        mu_family_state(MuFamilyParams(6, 1, threshold - 1e-3))
        with pytest.raises(ValueError):
            mu_family_state(MuFamilyParams(6, 1, threshold + 1e-3))

    @pytest.mark.parametrize("V", [48, 96])
    def test_large_family_keeps_every_term(self, V):
        # The pair coefficients i tan(pi/2V) mu / 2^V fall below any fixed
        # cut as V grows; the prune cut is on their expectation value.
        mu = 0.3
        state = mu_family_state(MuFamilyParams(V, 1, mu), validate=False)
        assert len(state) == 1 + math.comb(V, 2)
        pair = 1j * math.tan(math.pi / (2 * V)) * mu
        for k in (2, 6):
            sh = SystemShape(k, 1)
            want = {0: 1.0 / 2 ** k}
            for a, b in itertools.combinations(range(1, k + 1), 2):
                want[mask_of(sh, (a, 1), (b, 1))] = pair / 2 ** k
            assert reduce_expansion(state, k).terms == want

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MuFamilyParams(1, 1, 0.5)
        with pytest.raises(ValueError):
            MuFamilyParams(6, 1, 1.5)


class TestCheckInvariance:
    def test_maximally_mixed_fully_invariant(self):
        state = mu_family_state(MuFamilyParams(6, 1, 0.0))
        rep = check_invariance(state)
        assert rep.fully_invariant
        assert rep.max_violation() == 0.0
        assert rep.full_max_violation == 0.0

    def test_mu_family_invariant_not_fully(self):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        rep = check_invariance(state)
        assert rep.max_violation() < 1e-10
        assert not rep.fully_invariant
        # The sign swap costs exactly 2 tan(pi/12).
        assert abs(rep.full_max_violation - 2.0 * TAN6) < 1e-12

    def test_v8_exact(self):
        state = mu_family_state(MuFamilyParams(8, 1, 1.0), validate=False)
        rep = check_invariance(state)
        # Every word of degree <= 4 over 16 Majoranas.
        assert rep.checked_words == 2517
        assert not rep.sampled
        assert rep.max_violation() < 1e-10
        assert not rep.fully_invariant
        assert rep.full_max_violation == pytest.approx(
            2.0 * math.tan(math.pi / 16.0), abs=1e-12)

    def test_dense_checker_matches(self):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        rep = check_invariance_dense(to_matrix(state))
        assert rep.max_violation() < 1e-10
        assert not rep.fully_invariant
        assert rep.checked_words == 794
        assert rep.full_max_violation == pytest.approx(2.0 * TAN6, abs=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(oracle_states())
    def test_matches_pairwise_oracle(self, rho):
        cond1, cond2, full = pairwise_violations(rho)
        rep = check_invariance(rho)
        assert (rep.condition1_max_violation, rep.condition2_max_violation,
                rep.full_max_violation) == (cond1, cond2, full)
        assert rep.fully_invariant == (full < 1e-9)
        dense = check_invariance_dense(to_matrix(rho))
        assert (dense.condition1_max_violation,
                dense.condition2_max_violation,
                dense.full_max_violation) == pytest.approx(
                    (cond1, cond2, full), abs=1e-12)

    def test_equal_odd_blocks_force_zero(self):
        # m_1^1 m_2^1 at V = 2: the swap of its two equal odd blocks maps
        # the word to minus itself, so full invariance needs e = -e.
        sh = SystemShape(2, 1)
        rho = OperatorExpansion(sh, {0: 0.25,
                                     mask_of(sh, (1, 1), (2, 1)): 0.1j})
        e = rho.expectation(mask_of(sh, (1, 1), (2, 1)))
        rep = check_invariance(rho)
        assert rep.max_violation() == 0.0
        assert rep.full_max_violation == pytest.approx(2.0 * abs(e),
                                                       rel=1e-15)
        assert rep.full_max_violation == pairwise_violations(rho)[2]

    def test_odd_block_reordering_sign(self):
        # Swapping sites 1 and 2 maps m_1^1 m_2^2 to m_2^1 m_1^2
        # = -m_1^2 m_2^1, so full invariance pairs the two words with
        # opposite expectations.
        sh = SystemShape(2, 1)
        w12 = mask_of(sh, (1, 1), (2, 2))
        w21 = mask_of(sh, (1, 2), (2, 1))
        opposite = OperatorExpansion(sh, {0: 0.25, w12: 0.1j, w21: -0.1j})
        assert check_invariance(opposite).full_max_violation == 0.0
        same = OperatorExpansion(sh, {0: 0.25, w12: 0.1j, w21: 0.1j})
        rep = check_invariance(same)
        assert rep.full_max_violation == pytest.approx(
            2.0 * abs(same.expectation(w12)), rel=1e-15)
        assert rep.max_violation() == 0.0

    def test_even_block_multiset_condition2(self):
        # Even blocks A = m^1 m^2 and B = m^3 m^4: condition (1) never
        # relates A-then-B to B-then-A, condition (2) does.
        sh = SystemShape(2, 2)
        ab = mask_of(sh, (1, 1), (1, 2), (2, 3), (2, 4))
        ba = mask_of(sh, (1, 3), (1, 4), (2, 1), (2, 2))
        rho = OperatorExpansion(sh, {0: 1.0 / 16.0, ab: 0.1, ba: 0.3})
        rep = check_invariance(rho)
        assert rep.condition1_max_violation == 0.0
        assert rep.condition2_max_violation == pytest.approx(
            abs(rho.expectation(ab) - rho.expectation(ba)), rel=1e-15)
        assert rep.condition2_max_violation > 0.0
        assert (rep.condition1_max_violation, rep.condition2_max_violation,
                rep.full_max_violation) == pairwise_violations(rho)

    def test_channel_output_fully_invariant(self):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        channel = state.even_channel()
        rep = check_invariance(channel)
        assert rep.fully_invariant
        sh = channel.shape
        # Full invariance forces the odd-odd pair correlator to vanish.
        assert channel.expectation(mask_of(sh, (1, 1), (2, 1))) == 0.0

    def test_channel_of_mu_family_is_maximally_mixed(self):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        assert state.even_channel().is_close(
            OperatorExpansion.identity(SystemShape(6, 1), 1.0 / 64.0))


@pytest.fixture(scope="module")
def mu1():
    state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
    return state, check_invariance(state)


class TestVerifyLemma3:
    def test_mu_zero_lhs_zero(self):
        state = mu_family_state(MuFamilyParams(6, 1, 0.0))
        rep = verify_lemma3(state, 3)
        assert rep.lhs == 0.0 and rep.passed

    def test_k2_value_and_bound(self, mu1):
        state, inv = mu1
        rep = verify_lemma3(state, 2, inv_report=inv)
        # Oracle: the reduction difference is (tan(pi/12)/4) i m1 m2 with
        # four unit eigenvalues, so the trace norm is exactly tan(pi/12).
        # (The independent eigenvalue route is asserted below.)
        assert abs(rep.lhs - TAN6) < 1e-12
        assert abs(rep.rhs - (2.0 / math.sqrt(3.0)) * 4.0 / 6.0) < 1e-12
        assert rep.rhs == pytest.approx(0.76980035891950105, abs=1e-12)
        assert rep.passed

    def test_k2_independent_eigen_oracle(self, mu1):
        state, _ = mu1
        red = to_matrix(reduce_expansion(state, 2)).matrix
        channel = to_matrix(reduce_expansion(state.even_channel(), 2)).matrix
        eigs = np.linalg.eigvalsh(red - channel)
        assert abs(np.sum(np.abs(eigs)) - TAN6) < 1e-12

    def test_k1_exactly_zero(self, mu1):
        state, inv = mu1
        rep = verify_lemma3(state, 1, inv_report=inv)
        assert rep.lhs == 0.0

    def test_k1_reduction_inside_tolerance_still_fails(self):
        # 1/64 + (eps/64) sum_j m_j^1 is invariant; its one-site odd part
        # (eps/2) m_1^1 has trace norm eps, inside the 1e-9 tolerance of
        # the inequality, but at k = 1 the reduction must vanish exactly.
        eps = 5e-10
        shape = SystemShape(6, 1)
        terms = {0: 1.0 / 64.0}
        terms.update({mask_of(shape, (j, 1)): eps / 64.0
                      for j in range(1, 7)})
        state = OperatorExpansion(shape, terms)
        inv = check_invariance(state)
        assert inv.fully_invariant
        rep = verify_lemma3(state, 1, inv_report=inv)
        assert rep.lhs == pytest.approx(eps, rel=1e-6)
        assert rep.lhs <= rep.rhs + rep.tolerance
        assert not rep.passed
        assert rep.notes == ["k=1 reduction must vanish exactly"]

    def test_monotone_in_k(self, mu1):
        state, inv = mu1
        values = [verify_lemma3(state, k, inv_report=inv).lhs
                  for k in range(1, 6)]
        assert all(values[i] <= values[i + 1] + 1e-12
                   for i in range(len(values) - 1))

    def test_all_k_pass_both_sizes(self):
        for V in (6, 8):
            state = mu_family_state(MuFamilyParams(V, 1, 1.0), validate=False)
            inv = check_invariance(state)
            for k in range(1, V):
                rep = verify_lemma3(state, k, inv_report=inv)
                assert rep.passed, (V, k, rep.lhs, rep.rhs)

    def test_preconditions(self, mu1):
        state, inv = mu1
        small = mu_family_state(MuFamilyParams(4, 1, 0.5), validate=False)
        with pytest.raises(ValueError, match="below the required 6"):
            verify_lemma3(small, 2)
        with pytest.raises(ValueError, match="outside"):
            verify_lemma3(state, 0, inv_report=inv)
        with pytest.raises(ValueError, match="outside"):
            verify_lemma3(state, 6, inv_report=inv)

    def test_non_invariant_state_rejected(self):
        sh = SystemShape(6, 1)
        terms = {0: 1.0 / 64.0,
                 mask_of(sh, (1, 1), (2, 1)): 0.01j}
        lopsided = OperatorExpansion(sh, terms)
        with pytest.raises(ValueError, match="not permutation invariant"):
            verify_lemma3(lopsided, 2)
        # The pair correlator sits on sites (1, 2) only, so condition (1)
        # is broken by |tr(rho m_1^1 m_2^1)| = 0.01 * 64.
        rep = check_invariance(lopsided)
        assert rep.condition1_max_violation == pytest.approx(0.64, rel=1e-14)
        assert rep.condition2_max_violation == 0.0

    def test_reduction_site_choice_immaterial(self, mu1):
        # Permutation invariance makes the reduced-site choice irrelevant:
        # the sites (2, 4), (3, 6) and (1, 5), moved in order to the front,
        # reduce to the first-two-site state.
        state, _ = mu1
        first = partial_trace_sites(to_matrix(state), 2).matrix
        for pi in ((3, 1, 4, 2, 5, 6), (3, 4, 1, 5, 6, 2),
                   (1, 3, 4, 5, 2, 6)):
            permuted = state.apply_permutation(pi)
            other = partial_trace_sites(to_matrix(permuted), 2).matrix
            assert np.max(np.abs(first - other)) < 1e-12
            symbolic = to_matrix(reduce_expansion(permuted, 2)).matrix
            assert np.max(np.abs(first - symbolic)) < 1e-12

    def test_bound_formula(self):
        assert lemma3_bound(6, 1, 2) == pytest.approx(0.7698003589, abs=1e-9)
        assert lemma3_bound(6, 2, 3) == pytest.approx(
            (2.0 / math.sqrt(3.0)) * 16.0 * 2.0 ** 1.5 / 6.0, abs=1e-12)
