"""Symbolic Majorana algebra against hand values and the matrix oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (independent_majoranas, mask_of, random_expansion,
                      word_matrix_oracle)
from fermicert.algebra import (OperatorExpansion, SystemShape, canonicalize,
                               expansion_from_text, expansion_to_text,
                               merge_bitmasks, random_expansions,
                               relabel_word, reversal_sign, word_indices)
from fermicert.fock import jw_matrix, to_matrix

#: Shapes with at most four modes, where the kron oracle is cheap.
ORACLE_SHAPES = (SystemShape(1, 1), SystemShape(2, 1), SystemShape(3, 1),
                 SystemShape(4, 1), SystemShape(1, 2), SystemShape(2, 2))

#: (word shape, target shape) pairs for relabel_word: permutations within
#: a shape, and injective maps into a larger one (template placement).
RELABEL_SHAPES = (
    (SystemShape(2, 1), SystemShape(2, 1)),
    (SystemShape(3, 1), SystemShape(3, 1)),
    (SystemShape(4, 1), SystemShape(4, 1)),
    (SystemShape(2, 2), SystemShape(2, 2)),
    (SystemShape(1, 1), SystemShape(3, 1)),
    (SystemShape(2, 1), SystemShape(3, 1)),
    (SystemShape(2, 1), SystemShape(4, 1)),
    (SystemShape(3, 1), SystemShape(4, 1)),
    (SystemShape(1, 2), SystemShape(2, 2)),
)

LAWS = settings(max_examples=60, deadline=None, derandomize=True,
                database=None)


def mapped_positions(mask, site_map, shape):
    """Positions of the word's Majoranas after moving site s to
    site_map[s-1], in the word's written (increasing) order."""
    width = 2 * shape.modes_per_site
    return [(site_map[g // width] - 1) * width + g % width
            for g in range(shape.majorana_count) if (mask >> g) & 1]


def written_product(positions, shape):
    """Ordered product of the independent Majorana matrices."""
    ms = independent_majoranas(shape.total_modes)
    out = np.eye(shape.fock_dim, dtype=np.complex128)
    for pos in positions:
        out = out @ ms[pos]
    return out


def oracle_matrix(op):
    """Dense matrix of an expansion from the kron-chain word oracle."""
    out = np.zeros((op.shape.fock_dim,) * 2, dtype=np.complex128)
    for mask, coeff in op.terms.items():
        out += coeff * word_matrix_oracle(mask, op.shape)
    return out


@st.composite
def relabel_cases(draw):
    small, big = draw(st.sampled_from(RELABEL_SHAPES))
    images = draw(st.permutations(range(1, big.sites + 1)))
    mask = draw(st.integers(0, (1 << small.majorana_count) - 1))
    return small, big, tuple(images[:small.sites]), mask


@st.composite
def expansion_triples(draw):
    shape = draw(st.sampled_from(ORACLE_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = tuple(random_expansions(shape, rng, 3, n_terms=4))
    pi = tuple(draw(st.permutations(range(1, shape.sites + 1))))
    tau = tuple(draw(st.permutations(range(1, shape.sites + 1))))
    return ops, pi, tau


class TestRandomExpansions:
    def test_count_and_shape(self, rng):
        sh = SystemShape(2, 2)
        drawn = random_expansions(sh, rng, 7, n_terms=3)
        assert len(drawn) == 7
        assert all(a.shape == sh and 1 <= len(a) <= 3 for a in drawn)
        assert random_expansions(sh, rng, 0) == []

    def test_degrees_respect_and_cover_max_degree(self, rng):
        sh = SystemShape(3, 1)
        drawn = random_expansions(sh, rng, 200, n_terms=5, max_degree=3)
        degrees = {mask.bit_count() for a in drawn for mask in a.terms}
        assert degrees == {0, 1, 2, 3}

    def test_max_degree_beyond_the_shape_is_every_majorana(self, rng):
        sh = SystemShape(1, 1)
        drawn = random_expansions(sh, rng, 100, max_degree=10)
        assert {mask for a in drawn for mask in a.terms} == {0, 1, 2, 3}

    def test_every_word_is_drawn(self, rng):
        sh = SystemShape(1, 2)
        drawn = random_expansions(sh, rng, 200)
        assert ({mask for a in drawn for mask in a.terms}
                == set(range(1 << sh.majorana_count)))

    def test_repeated_words_are_summed(self):
        # A seeded draw on SystemShape(1, 1) that repeats one word of four.
        sh = SystemShape(1, 1)
        seed = next(s for s in range(100) if len(random_expansions(
            sh, np.random.default_rng(s), 1, n_terms=4)[0]) == 3)
        rng = np.random.default_rng(seed)
        degrees = rng.integers(0, 3, size=4)
        ranks = rng.random((4, 2)).argsort(axis=1).argsort(axis=1)
        masks = [int(sum(1 << pos for pos in range(2) if ranks[t, pos] < d))
                 for t, d in enumerate(degrees)]
        coeffs = rng.standard_normal((4, 2)) @ np.array([1, 1j])
        want = {}
        for mask, coeff in zip(masks, coeffs):
            want[mask] = want.get(mask, 0.0) + coeff
        (a,) = random_expansions(sh, np.random.default_rng(seed), 1,
                                 n_terms=4)
        assert len(want) == 3 and a.terms == want

    @settings(max_examples=40, deadline=None)
    @given(shape=st.builds(SystemShape, st.integers(1, 4), st.integers(1, 3)),
           count=st.integers(0, 6), n_terms=st.integers(0, 6),
           max_degree=st.one_of(st.none(), st.integers(0, 30)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_draws_are_well_formed(self, shape, count, n_terms, max_degree,
                                   seed):
        drawn = random_expansions(shape, np.random.default_rng(seed), count,
                                  n_terms, max_degree)
        cap = shape.majorana_count if max_degree is None else max_degree
        assert len(drawn) == count
        for a in drawn:
            assert a.shape == shape and len(a) <= n_terms
            assert all(0 <= mask < 1 << shape.majorana_count
                       and mask.bit_count() <= cap for mask in a.terms)
        # The same seed draws the same expansions.
        again = random_expansions(shape, np.random.default_rng(seed), count,
                                  n_terms, max_degree)
        assert [a.terms for a in again] == [a.terms for a in drawn]


class TestCanonicalize:
    def test_square_cancels(self):
        sh = SystemShape(2, 1)
        assert canonicalize([(1, 1), (1, 1)], sh) == (1, 0)

    def test_single_transposition(self):
        sh = SystemShape(2, 1)
        sign, mask = canonicalize([(2, 1), (1, 1)], sh)
        assert sign == -1
        assert mask == mask_of(sh, (1, 1), (2, 1))

    def test_three_factor_reduction(self):
        # m1 m2 m1 = -m2; cross-checked against the matrix oracle below.
        sh = SystemShape(2, 1)
        sign, mask = canonicalize([(1, 1), (2, 1), (1, 1)], sh)
        assert (sign, mask) == (-1, mask_of(sh, (2, 1)))

    def test_three_factor_matrix_oracle(self):
        sh = SystemShape(2, 1)
        seq = [(1, 1), (2, 1), (1, 1)]
        product = np.eye(sh.fock_dim, dtype=complex)
        for site, mi in seq:
            product = product @ word_matrix_oracle(
                mask_of(sh, (site, mi)), sh)
        sign, mask = canonicalize(seq, sh)
        assert np.allclose(product, sign * word_matrix_oracle(mask, sh))

    def test_out_of_range(self):
        sh = SystemShape(2, 1)
        with pytest.raises(ValueError):
            canonicalize([(3, 1)], sh)
        with pytest.raises(ValueError):
            canonicalize([(1, 3)], sh)

    def test_random_sequences_match_oracle(self, rng):
        sh = SystemShape(2, 2)
        for _ in range(50):
            length = int(rng.integers(0, 7))
            seq = [(int(rng.integers(1, 3)), int(rng.integers(1, 5)))
                   for _ in range(length)]
            sign, mask = canonicalize(seq, sh)
            product = np.eye(sh.fock_dim, dtype=complex)
            for site, mi in seq:
                product = product @ word_matrix_oracle(
                    mask_of(sh, (site, mi)), sh)
            assert np.allclose(product, sign * word_matrix_oracle(mask, sh))


class TestMultiply:
    def test_identity(self, rng):
        sh = SystemShape(2, 1)
        a = random_expansion(sh, rng)
        assert (OperatorExpansion.identity(sh) * a).is_close(a)

    def test_majorana_squares_to_identity(self):
        sh = SystemShape(1, 1)
        w = OperatorExpansion(sh, {1: 1.0})
        assert (w * w).is_close(OperatorExpansion.identity(sh))

    def test_sum_squares_to_two(self):
        # (m^1 + m^2)^2 = 2; the one-site matrix oracle agrees.
        sh = SystemShape(1, 1)
        s = OperatorExpansion(sh, {1: 1.0, 2: 1.0})
        sq = s * s
        assert sq.is_close(OperatorExpansion.identity(sh, 2.0))
        m = word_matrix_oracle(1, sh) + word_matrix_oracle(2, sh)
        assert np.allclose(m @ m, 2.0 * np.eye(2))

    def test_anticommutation_exhaustive(self):
        for sh in (SystemShape(1, 1), SystemShape(2, 1), SystemShape(4, 1),
                   SystemShape(2, 2), SystemShape(1, 4)):
            n = sh.majorana_count
            for x in range(n):
                for y in range(n):
                    wx = OperatorExpansion(sh, {1 << x: 1.0})
                    wy = OperatorExpansion(sh, {1 << y: 1.0})
                    anti = wx * wy + wy * wx
                    want = {0: 2.0} if x == y else {}
                    assert anti.is_close(OperatorExpansion(sh, want))

    def test_shape_mismatch(self, rng):
        a = random_expansion(SystemShape(2, 1), rng)
        b = random_expansion(SystemShape(3, 1), rng)
        with pytest.raises(ValueError):
            a * b

    def test_merge_bitmasks_parity(self):
        # m3 m5 times m3: one crossing past m5.
        sign, mask = merge_bitmasks(0b101000, 0b001000)
        assert sign == -1 and mask == 0b100000


class TestAdjoint:
    def test_identity(self):
        sh = SystemShape(2, 1)
        ident = OperatorExpansion.identity(sh)
        assert ident.adjoint().is_close(ident)

    def test_two_majorana_word(self):
        # (i m1 m2)† = i m1 m2: length-2 reversal sign is -1.
        sh = SystemShape(2, 1)
        mask = mask_of(sh, (1, 1), (2, 1))
        op = OperatorExpansion(sh, {mask: 1j})
        assert op.adjoint().is_close(op)

    def test_involution(self, rng):
        for a in random_expansions(SystemShape(2, 2), rng, 20):
            assert a.adjoint().adjoint().is_close(a)

    def test_matches_dense(self, rng):
        sh = SystemShape(2, 2)
        a = random_expansion(sh, rng)
        ma = to_matrix(a).matrix
        assert np.max(np.abs(to_matrix(a.adjoint()).matrix
                             - ma.conj().T)) < 1e-12

    def test_reversal_sign_values(self):
        assert [reversal_sign(r) for r in range(6)] == [1, 1, -1, -1, 1, 1]


class TestPermutation:
    def test_identity_permutation(self, rng):
        sh = SystemShape(3, 1)
        a = random_expansion(sh, rng)
        assert a.apply_permutation((1, 2, 3)).is_close(a)

    def test_swap_reorders_with_sign(self):
        sh = SystemShape(2, 1)
        mask = mask_of(sh, (1, 1), (2, 1))
        op = OperatorExpansion(sh, {mask: 1.0})
        swapped = op.apply_permutation((2, 1))
        assert swapped.is_close(OperatorExpansion(sh, {mask: -1.0}))

    def test_swap_disjoint_modes(self):
        sh = SystemShape(2, 2)
        op = OperatorExpansion(sh, {mask_of(sh, (1, 1), (1, 2)): 1.0})
        moved = op.apply_permutation((2, 1))
        assert moved.is_close(OperatorExpansion(
            sh, {mask_of(sh, (2, 1), (2, 2)): 1.0}))

    def test_homomorphism(self, rng):
        sh = SystemShape(4, 1)
        a = random_expansion(sh, rng)
        for _ in range(10):
            pi = tuple(int(x) + 1 for x in rng.permutation(4))
            tau = tuple(int(x) + 1 for x in rng.permutation(4))
            composed = tuple(pi[t - 1] for t in tau)
            via_steps = a.apply_permutation(tau).apply_permutation(pi)
            assert a.apply_permutation(composed).is_close(via_steps)

    def test_non_bijection_rejected(self, rng):
        a = random_expansion(SystemShape(3, 1), rng)
        with pytest.raises(ValueError):
            a.apply_permutation((1, 1, 2))


class TestRelabelWord:
    @LAWS
    @given(relabel_cases())
    def test_matches_written_product_oracle(self, case):
        small, big, site_map, mask = case
        sign, new_mask, _ = relabel_word(mask, site_map, small)
        positions = mapped_positions(mask, site_map, small)
        assert np.allclose(sign * word_matrix_oracle(new_mask, big),
                           written_product(positions, big), atol=1e-12)

    @LAWS
    @given(relabel_cases())
    def test_order_preserved_flag(self, case):
        small, _, site_map, mask = case
        _, _, preserved = relabel_word(mask, site_map, small)
        positions = mapped_positions(mask, site_map, small)
        assert preserved == all(a < b for a, b in zip(positions,
                                                      positions[1:]))

    def test_order_preserving_map_has_no_sign(self):
        sh = SystemShape(2, 1)
        mask = mask_of(sh, (1, 1), (2, 2))
        big = SystemShape(4, 1)
        assert relabel_word(mask, (2, 4), sh) == (
            1, mask_of(big, (2, 1), (4, 2)), True)
        assert relabel_word(mask, (4, 2), sh) == (
            -1, mask_of(big, (2, 2), (4, 1)), False)


class TestAlgebraLaws:
    """Products, adjoints and site permutations against the kron oracle."""

    @LAWS
    @given(expansion_triples())
    def test_associativity(self, case):
        (a, b, c), _, _ = case
        want = oracle_matrix(a) @ oracle_matrix(b) @ oracle_matrix(c)
        assert np.allclose(oracle_matrix((a * b) * c), want, atol=1e-10)
        assert np.allclose(oracle_matrix(a * (b * c)), want, atol=1e-10)

    @LAWS
    @given(expansion_triples())
    def test_adjoint_reverses_products(self, case):
        (a, b, _), _, _ = case
        lhs = oracle_matrix((a * b).adjoint())
        assert np.allclose(lhs, oracle_matrix(b.adjoint() * a.adjoint()),
                           atol=1e-10)
        assert np.allclose(lhs, (oracle_matrix(a) @ oracle_matrix(b)
                                 ).conj().T, atol=1e-10)

    @LAWS
    @given(expansion_triples())
    def test_permutation_homomorphism(self, case):
        (a, b, _), pi, tau = case
        shape = a.shape
        moved = oracle_matrix(a.apply_permutation(pi))
        want = sum(coeff * written_product(mapped_positions(m, pi, shape),
                                           shape)
                   for m, coeff in a.terms.items())
        assert np.allclose(moved, want, atol=1e-10)
        assert np.allclose(oracle_matrix((a * b).apply_permutation(pi)),
                           moved @ oracle_matrix(b.apply_permutation(pi)),
                           atol=1e-10)
        composed = tuple(pi[t - 1] for t in tau)
        assert np.allclose(
            oracle_matrix(a.apply_permutation(tau).apply_permutation(pi)),
            oracle_matrix(a.apply_permutation(composed)), atol=1e-10)


class TestParityProjection:
    def test_odd_word_killed_by_even(self):
        sh = SystemShape(2, 1)
        op = OperatorExpansion(sh, {mask_of(sh, (1, 1)): 1.0})
        assert len(op.parity_project(1, "+")) == 0
        assert op.parity_project(1, "-").is_close(op)

    def test_even_word_kept(self):
        sh = SystemShape(1, 1)
        op = OperatorExpansion(sh, {mask_of(sh, (1, 1), (1, 2)): 2.0})
        assert op.parity_project(1, "+").is_close(op)

    def test_identity_has_even_parity(self):
        sh = SystemShape(2, 1)
        ident = OperatorExpansion.identity(sh)
        assert len(ident.parity_project(1, "-")) == 0

    def test_projections_sum_to_identity_map(self, rng):
        sh = SystemShape(3, 1)
        a = random_expansion(sh, rng, n_terms=8)
        total = a.parity_project(2, "+") + a.parity_project(2, "-")
        assert total.is_close(a)

    def test_idempotent(self, rng):
        sh = SystemShape(3, 1)
        a = random_expansion(sh, rng, n_terms=8)
        once = a.parity_project(1, "+")
        assert once.parity_project(1, "+").is_close(once)


class TestEvenChannel:
    def test_identity_fixed(self):
        sh = SystemShape(2, 2)
        ident = OperatorExpansion.identity(sh, 1.0 / sh.fock_dim)
        assert ident.even_channel().is_close(ident)

    def test_cross_site_pair_killed(self):
        sh = SystemShape(2, 1)
        op = OperatorExpansion(sh, {mask_of(sh, (1, 1), (2, 1)): 1.0})
        assert len(op.even_channel()) == 0

    def test_trace_preserved(self, rng):
        sh = SystemShape(3, 1)
        a = random_expansion(sh, rng, n_terms=8)
        assert abs(a.even_channel().trace() - a.trace()) < 1e-12


class TestJordanWignerConsistency:
    def test_products_match_dense(self, rng):
        for sh in (SystemShape(2, 1), SystemShape(4, 1), SystemShape(2, 2),
                   SystemShape(1, 4)):
            drawn = random_expansions(sh, rng, 20, n_terms=4)
            for a, b in zip(drawn[:10], drawn[10:]):
                lhs = to_matrix(a * b).matrix
                rhs = to_matrix(a).matrix @ to_matrix(b).matrix
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_words_match_independent_oracle(self, rng):
        sh = SystemShape(2, 2)
        for mask in range(0, 1 << sh.majorana_count, 7):
            assert np.allclose(jw_matrix(mask, sh).matrix,
                               word_matrix_oracle(mask, sh))


class TestSerialization:
    def test_roundtrip(self, rng):
        sh = SystemShape(3, 2)
        a = random_expansion(sh, rng, n_terms=6)
        text = expansion_to_text(a)
        back = expansion_from_text(text, sh)
        assert back.is_close(a)

    def test_identity_token(self):
        sh = SystemShape(2, 1)
        op = expansion_from_text("0.25 0 1\n", sh)
        assert op.is_close(OperatorExpansion.identity(sh, 0.25))

    def test_word_token(self):
        sh = SystemShape(2, 1)
        op = expansion_from_text("0 0.5 (1,1)(2,1)\n", sh)
        mask = mask_of(sh, (1, 1), (2, 1))
        assert op.is_close(OperatorExpansion(sh, {mask: 0.5j}))
        assert word_indices(mask, sh) == ((1, 1), (2, 1))

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            expansion_from_text("nonsense\n", SystemShape(2, 1))


class TestPruning:
    def test_tiny_coefficients_dropped(self):
        sh = SystemShape(1, 1)
        op = OperatorExpansion(sh, {1: 1e-15})
        assert len(op) == 0

    def test_cancellation_prunes(self):
        sh = SystemShape(1, 1)
        a = OperatorExpansion(sh, {1: 1.0})
        assert len(a - a) == 0
