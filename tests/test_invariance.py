"""Permutation-invariance definition, the mu family, and the trace-norm
suppression certificate."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (assert_bound_covers_exact, mask_of, parity_state,
                      random_expansion, site_parity, words_up_to_degree)
from fermicert.algebra import (OperatorExpansion, SystemShape,
                               canonicalize_positions)
from fermicert.fock import (DenseOperator, Isometry, check_state,
                            partial_trace_sites,
                            permutation_unitary, reduce_expansion,
                            to_expansion, to_matrix, trace_norm)
from fermicert import invariance
from fermicert.invariance import (DENSE_INVARIANCE_TOL, InvarianceReport,
                                  MuFamilyParams, check_invariance,
                                  check_invariance_dense,
                                  invariant_reduction, is_order_preserving,
                                  lemma3_bound, mu_family_state,
                                  verify_lemma3)
from fermicert.suites import MU_SWEEP, run_verify_lemma3

TAN6 = math.tan(math.pi / 12.0)


def order_preserving_reference(pi, mask, shape):
    """Independent predicate: decode, map, compare adjacent pairs."""
    pairs = []
    for g in range(shape.majorana_count):
        if (mask >> g) & 1:
            site, rem = divmod(g, 2 * shape.modes_per_site)
            pairs.append((pi[site], rem))
    return all(pairs[i] < pairs[i + 1] for i in range(len(pairs) - 1))


def pairwise_violations(rho, cap):
    """Independent oracle for the invariance checker: every word up to
    degree ``cap`` against every site permutation, comparing tr(rho w) with
    tr(rho pi(w)) pair by pair.  Returns (cond1, cond2, full)."""
    shape = rho.shape
    width = 2 * shape.modes_per_site
    site_mask = (1 << width) - 1
    perms = list(itertools.permutations(range(shape.sites)))
    perm_array = np.array(perms, dtype=np.int64)
    support = np.fromiter(rho.terms, np.int64)
    cond1 = cond2 = full = 0.0
    for degree in range(cap + 1):
        for combo in itertools.combinations(range(shape.majorana_count),
                                            degree):
            w = sum(1 << g for g in combo)
            e_w = rho.expectation(w)
            sites = [s for s in range(shape.sites) if (w >> (s * width))
                     & site_mask]
            blocks = np.array([(w >> (s * width)) & site_mask for s in sites],
                              dtype=np.int64)
            even = all(int(b).bit_count() % 2 == 0 for b in blocks)
            # Site s's block moves whole to site pi[s].
            images = (blocks << (perm_array[:, sites] * width)).sum(axis=1)
            # A pair of two zero expectations differs by nothing.
            hits = (np.flatnonzero(np.isin(images, support)) if e_w == 0.0
                    else range(len(perms)))
            for i in hits:
                pi = perms[i]
                mapped = [pi[g // width] * width + g % width for g in combo]
                ordered = all(a < b for a, b in zip(mapped, mapped[1:]))
                sign, _ = canonicalize_positions(mapped)
                diff = abs(e_w - sign * rho.expectation(int(images[i])))
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


def enumerating_reference(rho, cap):
    """Independent reference for the support-driven checker: the class
    diameters over every word up to degree ``cap``, a word outside the
    support standing for expectation 0.  The full-invariance value of a
    word is normalised with the sign of the site permutation that sorts
    its blocks (a class with two equal odd blocks holds both signs).
    Returns an :class:`InvarianceReport` built field by field."""
    shape = rho.shape
    width = 2 * shape.modes_per_site
    full_block = (1 << width) - 1
    sequences, multisets = {}, {}
    n_words = 0
    for degree in range(cap + 1):
        for combo in itertools.combinations(range(shape.majorana_count),
                                            degree):
            n_words += 1
            w = sum(1 << g for g in combo)
            e_w = rho.expectation(w)
            placed = [(s, (w >> (s * width)) & full_block)
                      for s in range(shape.sites)
                      if (w >> (s * width)) & full_block]
            blocks = tuple(b for _, b in placed)
            sequences.setdefault(blocks, set()).add(e_w)
            # The site permutation that puts the blocks in sorted order on
            # the same sites: the block of sorted rank j goes to the j-th
            # of them; its sign is read off the written product.
            by_rank = sorted(range(len(blocks)), key=lambda i: blocks[i])
            target = {i: placed[j][0] for j, i in enumerate(by_rank)}
            sign, _ = canonicalize_positions(
                target[i] * width + g for i, b in enumerate(blocks)
                for g in range(width) if (b >> g) & 1)
            odd = [b for b in blocks if b.bit_count() % 2]
            vals = multisets.setdefault(tuple(sorted(blocks)), set())
            if len(set(odd)) < len(odd):
                vals.update((e_w, -e_w))
            else:
                vals.add(sign * e_w)

    def diameter(vals):
        return max(abs(a - b) for a in vals for b in vals)

    cond1 = max(diameter(v) for v in sequences.values())
    cond2 = max((diameter(v) for k, v in multisets.items()
                 if all(b.bit_count() % 2 == 0 for b in k)), default=0.0)
    full = max(diameter(v) for v in multisets.values())
    return InvarianceReport(cond1, cond2, n_words, full < 1e-9, full)


#: Shapes of at most 10 Majoranas, whose every word the pairwise oracle
#: compares under every permutation within a fraction of a second.
ORACLE_SHAPES = [SystemShape(V, p) for V, p in
                 ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2))]


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


REFERENCE_SHAPES = [SystemShape(V, p) for V, p in
                    ((6, 1), (5, 1), (4, 1), (3, 2), (2, 2))]


def filled_class(shape, blocks, coeff):
    """Every word that places ``blocks`` on distinct sites, all with the
    coefficient ``coeff``: one full block-multiset class."""
    width = 2 * shape.modes_per_site
    terms = {}
    for sites in itertools.permutations(range(shape.sites), len(blocks)):
        terms[sum(int(b) << (s * width) for s, b in zip(sites, blocks))] = coeff
    return OperatorExpansion(shape, terms)


@st.composite
def reference_states(draw):
    """Raw random expansions leave their classes partly filled; mixtures
    of mu-family states fill every pair class, and a filled class of
    random blocks (repeated ones when drawn so) fills one more; the sum of
    both kinds has both."""
    shape = draw(st.sampled_from(REFERENCE_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["raw", "filled", "both"]))
    rho = OperatorExpansion(shape, {})
    if kind != "raw":
        for mu, weight in zip(rng.uniform(-1.0, 1.0, 3),
                              rng.dirichlet(np.ones(3))):
            rho = rho + weight * mu_family_state(
                MuFamilyParams(shape.sites, shape.modes_per_site,
                               float(mu)), validate=False)
        width = 2 * shape.modes_per_site
        blocks = rng.integers(1, 1 << width, size=draw(st.integers(1, 3)))
        if draw(st.booleans()):
            blocks[:] = blocks[0]
        coeff = complex(*rng.standard_normal(2)) / shape.fock_dim
        rho = rho + filled_class(shape, blocks, coeff)
    if kind != "filled":
        rho = rho + (1.0 / shape.fock_dim) * random_expansion(
            shape, rng, n_terms=draw(st.integers(1, 8)), max_degree=5)
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
        # Every word over 16 Majoranas, of every degree.
        assert rep.checked_words == 2 ** 16
        assert not rep.sampled
        assert rep.max_violation() < 1e-10
        assert not rep.fully_invariant
        assert rep.full_max_violation == pytest.approx(
            2.0 * math.tan(math.pi / 16.0), abs=1e-12)

    def test_dense_checker_matches(self):
        # The every-degree oracle, the class check of a dense matrix's full
        # expansion, reads what the check of the expansion itself reads.
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        rep = check_invariance(to_expansion(to_matrix(state)))
        assert rep.max_violation() < 1e-10
        assert not rep.fully_invariant
        assert rep.checked_words == 4096
        assert rep.full_max_violation == pytest.approx(2.0 * TAN6, abs=1e-12)

    def test_bosonic_symmetry_is_not_certified(self):
        # Equal +1 amplitudes on the N = 2 occupations at V = 4: every
        # site swap maps the set to itself, but the fermionic one gives
        # the doubly occupied pair a sign -1, so the state is not
        # invariant and the transpositions must not certify it.
        shape = SystemShape(4, 1)
        pairs = np.bitwise_count(np.arange(shape.fock_dim)) == 2
        f = pairs.astype(np.complex128)[:, None] / math.sqrt(6.0)
        ground = Isometry(shape, f)
        rep = check_invariance_dense(ground)
        # Each swap flips one of the six amplitudes: cos = 2/3, so every
        # generator moves the state by 2 sin = 2 sqrt(5)/3.
        bound = 6 * 2 * math.sqrt(5.0) / 3.0
        assert (rep.condition1_max_violation, rep.condition2_max_violation,
                rep.full_max_violation) == pytest.approx((bound,) * 3,
                                                         abs=1e-12)
        assert rep.checked_words == 256
        assert not rep.fully_invariant
        # The state is refuted at every degree.
        exact = assert_bound_covers_exact(rep, ground)
        assert exact.max_violation() > 1.0

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(oracle_states())
    def test_matches_pairwise_oracle(self, rho):
        # The expansion check against words of every degree, on the
        # expansion and on the full expansion of its dense matrix.
        cond1, cond2, full = pairwise_violations(rho,
                                                 rho.shape.majorana_count)
        rep = check_invariance(rho)
        assert (rep.condition1_max_violation, rep.condition2_max_violation,
                rep.full_max_violation) == (cond1, cond2, full)
        assert rep.fully_invariant == (full < 1e-9)
        dense = check_invariance(to_expansion(to_matrix(rho)))
        assert (dense.condition1_max_violation,
                dense.condition2_max_violation,
                dense.full_max_violation) == pytest.approx(
                    (cond1, cond2, full), abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(reference_states())
    def test_matches_enumerating_reference(self, rho):
        # Bit for bit: the support-driven report adds 0.0 to every class
        # the support fills only in part, as the enumeration does word by
        # word.
        assert check_invariance(rho) == enumerating_reference(
            rho, rho.shape.majorana_count)

    @pytest.mark.parametrize("mu", [0.0, 0.3, -1.0])
    def test_large_v_covers_words_without_visiting_them(self, mu,
                                                        monkeypatch):
        visited = []
        expectation = OperatorExpansion.expectation

        def record(self, mask):
            visited.append(mask)
            return expectation(self, mask)

        state = mu_family_state(MuFamilyParams(40, 1, mu), validate=False)
        monkeypatch.setattr(OperatorExpansion, "expectation", record)
        rep = check_invariance(state)
        # One expectation per support word: 1 + C(40, 2) at mu != 0.
        assert sorted(visited) == sorted(state.terms)
        assert len(visited) == (1 if mu == 0.0 else 1 + math.comb(40, 2))
        # Every word over 80 Majoranas, of every degree.
        assert rep.checked_words == 2 ** 80
        assert rep.max_violation() == 0.0
        assert rep.full_max_violation == pytest.approx(
            2.0 * math.tan(math.pi / 80.0) * abs(mu), rel=1e-12)
        assert rep.fully_invariant == (mu == 0.0)

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
        assert rep.full_max_violation == pairwise_violations(rho, 4)[2]

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
                rep.full_max_violation) == pairwise_violations(rho, 8)

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

    @staticmethod
    def three_site_parity_state():
        """:func:`conftest.parity_state` at V = 6 and 0.9, with P_j = 1 -
        2 n_j.  Returns (rho, P1 P2 P3, P4 P5 P6)."""
        shape = SystemShape(6, 1)
        parity = [site_parity(shape, j) for j in range(1, 7)]
        first = parity[0] * parity[1] * parity[2]
        last = parity[3] * parity[4] * parity[5]
        return parity_state(6, 0.9), first, last

    def test_three_site_parity_state_is_valid_and_not_invariant(self):
        rho, first, last = self.three_site_parity_state()
        dense = to_matrix(rho)
        validity = check_state(dense)
        assert validity.all_ok
        assert validity.min_eigenvalue == pytest.approx(0.1 / 64, rel=1e-12)
        # Condition 2 maps P1 P2 P3, even on every site, to P4 P5 P6.
        assert np.trace(dense.matrix @ to_matrix(first).matrix) == (
            pytest.approx(0.9, abs=1e-15))
        assert abs(np.trace(dense.matrix @ to_matrix(last).matrix)) < 1e-15

    def test_condition2_violation_above_the_degree_cap(self):
        # The expansion check covers every degree and reads the violation
        # of the degree-6 word, so the Lemma-3 and Theorem-1 precondition
        # refuses the state.  A report that covers fewer words than the
        # state has, one from a smaller system, is refused as well.
        rho, _, _ = self.three_site_parity_state()
        rep = check_invariance(rho)
        assert rep.condition2_max_violation == pytest.approx(0.9, rel=1e-12)
        assert not rep.fully_invariant
        assert rep.checked_words == 4096
        with pytest.raises(ValueError, match="not permutation invariant"):
            invariant_reduction(rho, 2, rep)
        wider = mu_family_state(MuFamilyParams(8, 1, 0.0))
        assert check_invariance(wider).max_violation() == 0.0
        with pytest.raises(ValueError,
                           match="invariance checked on 4096 of 65536 words"):
            invariant_reduction(wider, 2, rep)

    def test_full_invariance_keeps_distinct_odd_blocks(self):
        # The pinned uniform orbital 2^-6 (1 - i m_u^1 m_u^2), m_u^a =
        # 6^-1/2 sum_j m_j^a, is a fully invariant state with
        # <m_1^1 m_2^2> = i/6: full invariance pairs it with
        # <m_1^2 m_2^1> = -i/6 and forces only the words with two equal
        # odd blocks, such as m_1^1 m_2^1, to vanish.
        sh = SystemShape(6, 1)
        m_u = [OperatorExpansion(sh, {mask_of(sh, (j, a)): 6.0 ** -0.5
                                      for j in range(1, 7)})
               for a in (1, 2)]
        rho = 2.0 ** -6 * (OperatorExpansion.identity(sh)
                           - 1j * (m_u[0] * m_u[1]))
        assert check_state(to_matrix(rho)).all_ok
        rep = check_invariance(rho)
        assert rep.fully_invariant
        assert rep.full_max_violation < 1e-15
        assert rho.expectation(mask_of(sh, (1, 1), (2, 2))) == pytest.approx(
            1j / 6, abs=1e-15)
        assert rho.expectation(mask_of(sh, (1, 2), (2, 1))) == pytest.approx(
            -1j / 6, abs=1e-15)
        assert rho.expectation(mask_of(sh, (1, 1), (2, 1))) == 0.0


@pytest.fixture(scope="module")
def mu1():
    state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
    return state, check_invariance(state)


class TestTranspositionBound:
    @pytest.mark.parametrize("V, p, rank", [(2, 1, 1), (3, 1, 2), (4, 1, 3),
                                            (3, 2, 2), (5, 1, 4)])
    def test_matches_dense_trace_norms(self, V, p, rank, rng):
        # C(V, 2) max_i ||U_i rho U_i-dagger - rho||_1 from dense unitaries
        # and an eigenvalue trace norm, for random isometries and for a
        # span of basis states, which the swaps move only in part.
        shape = SystemShape(V, p)
        dim = shape.fock_dim
        raw = (rng.standard_normal((dim, rank))
               + 1j * rng.standard_normal((dim, rank)))
        basis = np.eye(dim, dtype=np.complex128)[:, dim - rank - 1:dim - 1]
        for f in (np.linalg.qr(raw)[0], basis):
            rho = f @ f.conj().T / rank
            worst = 0.0
            for i in range(1, V):
                pi = list(range(1, V + 1))
                pi[i - 1], pi[i] = i + 1, i
                u = permutation_unitary(pi, shape).matrix
                worst = max(worst, trace_norm(
                    DenseOperator(shape, u @ rho @ u.conj().T - rho)))
            report = check_invariance_dense(Isometry(shape, f))
            bound = report.full_max_violation
            assert bound == pytest.approx(math.comb(V, 2) * worst,
                                          abs=1e-10)
            assert report == InvarianceReport(
                bound, bound, 1 << shape.majorana_count,
                bound < DENSE_INVARIANCE_TOL, bound)


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
        assert rep.failures == rep.notes
        assert rep.consistent()

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

    @pytest.mark.parametrize("V", [35, 40])
    def test_correlations_above_the_degree_cap_refused(self, V):
        # (1 + A)(1 + B)/64 on three p = 2 sites, with A and B commuting
        # Hermitian words of degree 6 that share two Majoranas, so AB has
        # degree 8, and every other site maximally mixed: a valid state
        # with support degrees 0, 6, 6 and 8, correlated on sites 1-3 only.
        three = SystemShape(3, 2)
        a = OperatorExpansion(three, {mask_of(three, (1, 1), (1, 2), (1, 3),
                                              (2, 1), (2, 2), (2, 3)): 1j})
        b = OperatorExpansion(three, {mask_of(three, (1, 1), (2, 1), (3, 1),
                                              (3, 2), (3, 3), (3, 4)): 1j})
        one = OperatorExpansion.identity(three)
        rho3 = (1.0 / 64.0) * ((one + a) * (one + b))
        assert sorted(w.bit_count() for w in rho3.terms) == [0, 6, 6, 8]
        assert check_state(to_matrix(rho3)).all_ok
        shape = SystemShape(V, 2)
        rho = 4.0 ** (3 - V) * rho3.relabel((1, 2, 3), shape)
        rep = check_invariance(rho)
        assert rep.condition1_max_violation == pytest.approx(1.0, rel=1e-12)
        assert rep.condition2_max_violation == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError, match="not permutation invariant"):
            verify_lemma3(rho, 3)

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

    @pytest.mark.parametrize("V", [6, 8])
    @pytest.mark.parametrize("mu", MU_SWEEP + (0.3,))
    def test_agrees_with_the_dense_trace_norm(self, V, mu):
        state = mu_family_state(MuFamilyParams(V, 1, mu), validate=False)
        inv = check_invariance(state)
        for k in range(1, V):
            lhs = verify_lemma3(state, k, inv_report=inv).lhs
            if k == 1:
                assert lhs == 0.0
                continue
            reduced = reduce_expansion(state, k)
            diff = reduced - reduced.even_channel()
            dense = trace_norm(to_matrix(diff)) if diff.terms else 0.0
            assert lhs == pytest.approx(dense, rel=1e-14, abs=0.0), (k, lhs)

    def test_quartic_odd_part_takes_the_dense_route(self, monkeypatch):
        # 1/64 (1 + i t mu sum_{j<l} m_j m_l + r sum_{j<l<s<u} m_j m_l m_s
        # m_u), every m the first Majorana of its site: the quartic words
        # are Hermitian with a real coefficient, odd on each of their
        # sites, and equal on every 4-subset, so the state is permutation
        # invariant and its k >= 4 odd parts are not quadratic.
        shape = SystemShape(6, 1)
        terms = {0: 1.0 / 64.0}
        for pair in itertools.combinations(range(1, 7), 2):
            terms[mask_of(shape, *((j, 1) for j in pair))] = 0.1j / 64.0
        for quad in itertools.combinations(range(1, 7), 4):
            terms[mask_of(shape, *((j, 1) for j in quad))] = 0.3 / 64.0
        state = OperatorExpansion(shape, terms)
        inv = check_invariance(state)
        dense_calls = []

        def counted(dense):
            dense_calls.append(dense.dim)
            return trace_norm(dense)

        monkeypatch.setattr(invariance, "trace_norm", counted)
        for k in (4, 5):
            reduced = reduce_expansion(state, k)
            diff = reduced - reduced.even_channel()
            oracle = np.sum(np.abs(np.linalg.eigvalsh(to_matrix(diff).matrix)))
            rep = verify_lemma3(state, k, inv_report=inv)
            assert rep.lhs == pytest.approx(oracle, rel=1e-12)
        assert dense_calls == [16, 32]

    def test_suite_builds_no_matrix(self, monkeypatch):
        # Every reduction of the mu family has a quadratic odd part, so
        # the suite reads each trace norm from the Majorana levels.
        def refuse(*args):
            raise AssertionError("dense route taken")

        monkeypatch.setattr(invariance, "to_matrix", refuse)
        monkeypatch.setattr(invariance, "trace_norm", refuse)
        reports, _ = run_verify_lemma3()
        assert len(reports) == 60 and all(r.passed for r in reports)

    def test_bound_formula(self):
        assert lemma3_bound(6, 1, 2) == pytest.approx(0.7698003589, abs=1e-9)
        assert lemma3_bound(6, 2, 3) == pytest.approx(
            (2.0 / math.sqrt(3.0)) * 16.0 * 2.0 ** 1.5 / 6.0, abs=1e-12)
