"""Even-partition combinatorics, cumulant extraction, and the Fourier-mode
central-limit machinery."""

import cmath
import functools
import itertools
import math

import numpy as np
import pytest

from conftest import (independent_ladder, random_density_matrix,
                      random_even_density_matrix)
from fermicert import cumulants
from fermicert.algebra import SystemShape
from fermicert.cumulants import (FourierMemo, LadderIndex, LadderMoments,
                                 corollary_index_sets, cumulant,
                                 cumulant_from_moment_fn, cumulant_mats,
                                 even_partitions, fourier_cumulant,
                                 fourier_ladder_matrix, fourier_ladder_terms,
                                 fourier_q_range, gaussian_mixture_deviation,
                                 ladder_matrix, ladder_terms,
                                 lemma4_equality_report, moment,
                                 moment_from_cumulant_fn, partition_sign,
                                 verify_corollary, verify_suppression,
                                 wick_moment)
from fermicert.definetti import ProductMixture, product_power
from fermicert.fock import MODE_CAP_ENV, DenseOperator, ResourceCapError

SH1 = SystemShape(1, 1)
SH12 = SystemShape(1, 2)
VACUUM = DenseOperator(SH1, np.diag([1.0, 0.0]).astype(complex))
DIAG_THIRDS = DenseOperator(SH1, np.diag([1.0 / 3.0, 2.0 / 3.0]).astype(complex))
CORRELATED = DenseOperator(SH12, np.diag([0.5, 0.1, 0.1, 0.3]).astype(complex))

F = LadderIndex(1, 1, 1)
FDAG = LadderIndex(-1, 1, 1)

#: Shapes of the kron-chain oracle tests: three modes split over sites.
ORACLE_SHAPES = (SystemShape(3, 1), SystemShape(2, 2), SystemShape(1, 3))


def oracle_ladder(shape, c, site, mode):
    """f (c = +1) or f-dagger (c = -1) from the explicit kron chain."""
    f = independent_ladder(shape.total_modes,
                           (site - 1) * shape.modes_per_site + mode - 1)
    return f if c == 1 else f.conj().T


def oracle_fourier(shape, c, mode, q):
    """(1/sqrt(V)) sum_j exp(2 pi i c q j / V) f_j^c as a dense kron sum."""
    V = shape.sites
    return sum(cmath.exp(2j * math.pi * c * q * j / V)
               * oracle_ladder(shape, c, j, mode)
               for j in range(1, V + 1)) / math.sqrt(V)


def dense_moment(rho, mats):
    return complex(np.trace(rho @ functools.reduce(np.matmul, mats)))


def oracle_set_partitions(items):
    """Every set partition of a tuple: the first item opens a block of its
    own or joins a block of a partition of the rest."""
    if not items:
        yield []
        return
    first = items[0]
    for sub in oracle_set_partitions(items[1:]):
        yield [(first,)] + sub
        for i, block in enumerate(sub):
            yield sub[:i] + [(first,) + block] + sub[i + 1:]


def inversion_sign(seq):
    inversions = sum(1 for i in range(len(seq))
                     for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def dense_cumulant(rho, mats):
    """K_2 and K_4 written out over the even partitions; K_6 is the moment
    less every split into two or three even blocks (brute-force set
    partitions, inversion-count signs), each block's K_2 or K_4 written
    out."""
    def m(*idx):
        return dense_moment(rho, [mats[i] for i in idx])

    if len(mats) == 2:
        return m(0, 1)
    if len(mats) == 4:
        return (m(0, 1, 2, 3) - m(0, 1) * m(2, 3) + m(0, 2) * m(1, 3)
                - m(0, 3) * m(1, 2))
    assert len(mats) == 6
    total = m(*range(6))
    for part in oracle_set_partitions(tuple(range(6))):
        if len(part) == 1 or any(len(block) % 2 for block in part):
            continue
        term = inversion_sign([x for block in part for x in block])
        for block in part:
            term *= dense_cumulant(rho, [mats[i] for i in block])
        total -= term
    return total


def xor_terms_matrix(terms, dim):
    """Dense matrix of XOR terms (masks, vals): [a, a ^ mask] = vals[a]."""
    rows = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for mask, vals in zip(*terms):
        out[rows, rows ^ mask] += vals
    return out


def random_site_ops(shape, w, rng):
    return [LadderIndex(1 if rng.random() < 0.5 else -1,
                        int(rng.integers(1, shape.sites + 1)),
                        int(rng.integers(1, shape.modes_per_site + 1)))
            for _ in range(w)]


def independent_even_partition_count(w: int) -> int:
    """Recurrence: anchor the smallest element, choose odd companions."""
    if w == 0:
        return 1
    return sum(math.comb(w - 1, b - 1) * independent_even_partition_count(w - b)
               for b in range(2, w + 1, 2))


class TestEvenPartitions:
    def test_w2(self):
        assert even_partitions(2) == [((1, 2),)]

    def test_w4_exact_list(self):
        got = set(even_partitions(4))
        want = {((1, 2, 3, 4),), ((1, 2), (3, 4)), ((1, 3), (2, 4)),
                ((1, 4), (2, 3))}
        assert got == want

    def test_counts_against_recurrence(self):
        for w in (2, 4, 6, 8):
            assert len(even_partitions(w)) == independent_even_partition_count(w)
        assert len(even_partitions(6)) == 31

    def test_blocks_are_even_sorted_anchored(self):
        for part in even_partitions(6):
            seen = []
            for block in part:
                assert len(block) % 2 == 0
                assert list(block) == sorted(block)
                seen.append(block[0])
            assert seen == sorted(seen)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            even_partitions(3)


class TestPartitionSign:
    def test_sorted_is_plus(self):
        assert partition_sign(((1, 2), (3, 4))) == 1

    def test_one_inversion(self):
        assert partition_sign(((1, 3), (2, 4))) == -1

    def test_two_inversions(self):
        assert partition_sign(((1, 4), (2, 3))) == 1

    def test_matches_numpy_parity(self, rng):
        for _ in range(30):
            perm = rng.permutation(6)
            blocks = (tuple(int(x) + 1 for x in perm[:2]),
                      tuple(int(x) + 1 for x in perm[2:4]),
                      tuple(int(x) + 1 for x in perm[4:]))
            seq = [x for b in blocks for x in b]
            inv = sum(1 for i in range(6) for j in range(i + 1, 6)
                      if seq[i] > seq[j])
            assert partition_sign(blocks) == (-1) ** inv


class TestMoments:
    def test_vacuum_f_fdag(self):
        assert moment(VACUUM, [F, FDAG]) == pytest.approx(1.0)

    def test_vacuum_fdag_f(self):
        assert moment(VACUUM, [FDAG, F]) == pytest.approx(0.0)

    def test_odd_moments_vanish_for_even_states(self, rng):
        sh = SystemShape(2, 1)
        rho = DenseOperator(sh, random_even_density_matrix(sh, rng))
        for ops in ([F], [F, FDAG, LadderIndex(1, 2, 1)]):
            assert abs(moment(rho, ops)) < 1e-12

    def test_ladder_matrix_action(self):
        f = ladder_matrix(SH1, 1, 1, 1)
        assert np.allclose(f, [[0, 1], [0, 0]])
        assert np.allclose(ladder_matrix(SH1, -1, 1, 1), f.conj().T)

    def test_ladder_matrix_matches_kron_oracle(self):
        for sh in ORACLE_SHAPES:
            for site in range(1, sh.sites + 1):
                for mode in range(1, sh.modes_per_site + 1):
                    for c in (1, -1):
                        assert np.array_equal(
                            ladder_matrix(sh, c, site, mode),
                            oracle_ladder(sh, c, site, mode))

    def test_moments_match_kron_oracle(self, rng):
        for sh in ORACLE_SHAPES:
            rho = random_even_density_matrix(sh, rng)
            dense = DenseOperator(sh, rho)
            for w in (1, 2, 3, 4, 4, 4):
                ops = random_site_ops(sh, w, rng)
                mats = [oracle_ladder(sh, o.c, o.site, o.mode) for o in ops]
                assert abs(moment(dense, ops) - dense_moment(rho, mats)) < 1e-12


class TestCumulants:
    def test_k2_equals_moment(self, rng):
        sh = SystemShape(1, 2)
        rho = DenseOperator(sh, random_even_density_matrix(sh, rng))
        ops = [LadderIndex(-1, 1, 1), LadderIndex(1, 1, 2)]
        assert cumulant(rho, ops) == pytest.approx(moment(rho, ops))

    def test_vacuum_fourth_cumulants_vanish(self):
        for pattern in itertools.product((1, -1), repeat=4):
            ops = [LadderIndex(c, 1, 1) for c in pattern]
            assert abs(cumulant(VACUUM, ops)) < 1e-10

    def test_single_mode_fourth_cumulant_is_zero(self):
        # Single-mode states are Gaussian: diag(1/3, 2/3) has K_4 = 0 for
        # every operator pattern (hand recombination: moment n equals
        # n^2 + n(1 - n) from the two surviving signed pairings).
        for pattern in itertools.product((1, -1), repeat=4):
            ops = [LadderIndex(c, 1, 1) for c in pattern]
            assert abs(cumulant(DIAG_THIRDS, ops)) < 1e-12

    def test_recombination_identity(self):
        ops = [FDAG, F, FDAG, F]

        def cumulant_fn(block):
            return cumulant(DIAG_THIRDS, [ops[i] for i in block])

        recombined = moment_from_cumulant_fn(cumulant_fn, 4)
        assert recombined == pytest.approx(moment(DIAG_THIRDS, ops), abs=1e-12)

    def test_recombination_random_states(self, rng):
        # Moment-cumulant consistency for w <= 6 on random even states.
        for sh in (SystemShape(1, 2), SystemShape(3, 1)):
            rho = DenseOperator(sh, random_even_density_matrix(sh, rng))
            modes = [(s, m) for s in range(1, sh.sites + 1)
                     for m in range(1, sh.modes_per_site + 1)]
            for w in (2, 4, 6):
                ops = []
                for i in range(w):
                    site, mode = modes[int(rng.integers(len(modes)))]
                    ops.append(LadderIndex(1 if rng.random() < 0.5 else -1,
                                           site, mode))

                def cfun(block):
                    return cumulant(rho, [ops[i] for i in block])

                direct = moment(rho, ops)
                assert abs(moment_from_cumulant_fn(cfun, w) - direct) < 1e-10

    def test_correlated_p2_value(self):
        # K4(f1†, f1, f2†, f2) = <n1 n2> - <n1><n2> for diagonal two-mode
        # states: 0.3 - 0.4 * 0.4 = 0.14.
        ops = [LadderIndex(-1, 1, 1), LadderIndex(1, 1, 1),
               LadderIndex(-1, 1, 2), LadderIndex(1, 1, 2)]
        assert cumulant(CORRELATED, ops) == pytest.approx(0.14, abs=1e-12)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            cumulant(VACUUM, [F])

    def test_empty_ops_rejected(self):
        with pytest.raises(ValueError, match="even w >= 2"):
            cumulant(VACUUM, [])
        with pytest.raises(ValueError, match="even w >= 2"):
            cumulant_mats(VACUUM.matrix, [])
        with pytest.raises(ValueError, match="even w >= 2"):
            fourier_cumulant(DIAG_THIRDS, 3, [])

    def test_cumulants_match_kron_oracle(self, rng):
        for sh in ORACLE_SHAPES:
            rho = random_even_density_matrix(sh, rng)
            dense = DenseOperator(sh, rho)
            for w in (2, 4, 4, 4):
                ops = random_site_ops(sh, w, rng)
                mats = [oracle_ladder(sh, o.c, o.site, o.mode) for o in ops]
                assert abs(cumulant(dense, ops)
                           - dense_cumulant(rho, mats)) < 1e-12


class TestFourierCumulants:
    def test_q_range(self):
        assert list(fourier_q_range(4)) == [-1, 0, 1, 2]
        assert list(fourier_q_range(5)) == [-2, -1, 0, 1, 2]

    def test_resonant_second_cumulant(self):
        ops = [LadderIndex(-1, 1, 1, 1), LadderIndex(1, 1, 1, 1)]
        res = fourier_cumulant(DIAG_THIRDS, 3, ops)
        assert res.direct == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.closed_form == pytest.approx(res.direct, abs=1e-12)

    def test_offresonant_vanishes(self):
        ops = [LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 1)]
        res = fourier_cumulant(DIAG_THIRDS, 3, ops)
        assert abs(res.direct) < 1e-12
        assert abs(res.closed_form) < 1e-12

    def test_lemma4_w4_p1(self):
        ops = [LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
               LadderIndex(-1, 1, 1, 1), LadderIndex(1, 1, 1, 1)]
        res = fourier_cumulant(DIAG_THIRDS, 3, ops)
        assert abs(res.direct - res.closed_form) < 1e-9

    def test_lemma4_w4_p2_nonzero(self):
        ops = [LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
               LadderIndex(-1, 1, 2, 0), LadderIndex(1, 1, 2, 0)]
        res = fourier_cumulant(CORRELATED, 2, ops)
        # Resonant phase sum V = 2 gives K4/V = 0.14/2 = 0.07 exactly.
        assert res.direct == pytest.approx(0.07, abs=1e-9)
        assert abs(res.direct - res.closed_form) < 1e-9

    def test_memo_gives_each_state_its_own_value(self, rng):
        # Two states of one shape through one memo: each gets the value a
        # call without a memo computes, bit for bit.
        ops = [LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 1),
               LadderIndex(-1, 1, 2, 1), LadderIndex(1, 1, 2, 0)]
        states = [CORRELATED, DenseOperator(
            SH12, random_even_density_matrix(SH12, rng))]
        memo = FourierMemo()
        shared = [fourier_cumulant(rho, 3, ops, memo=memo) for rho in states]
        assert shared == [fourier_cumulant(rho, 3, ops) for rho in states]
        assert shared[0].direct != shared[1].direct
        assert shared[0].single_site_cumulant != shared[1].single_site_cumulant
        # A second pass reads the memo and still keeps the states apart.
        assert [fourier_cumulant(rho, 3, ops, memo=memo)
                for rho in states] == shared

    def test_distinct_triples_flag(self):
        rep = lemma4_equality_report(DIAG_THIRDS, 3, [
            LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
            LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 1)])
        assert rep is None

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            fourier_cumulant(DIAG_THIRDS, 3, [LadderIndex(-1, 1, 1, 2),
                                              LadderIndex(1, 1, 1, 2)])

    def test_missing_q(self):
        with pytest.raises(ValueError, match="q labels"):
            fourier_cumulant(DIAG_THIRDS, 3, [FDAG, F])

    def test_fourier_op_matrix(self):
        for sh in ORACLE_SHAPES:
            for mode in range(1, sh.modes_per_site + 1):
                for q in fourier_q_range(sh.sites):
                    for c in (1, -1):
                        assert np.allclose(
                            fourier_ladder_matrix(sh, c, mode, q),
                            oracle_fourier(sh, c, mode, q), atol=1e-15)

    def test_fourier_moments_match_kron_oracle(self, rng):
        # Several phased terms per ladder: the multi-term gather and trace.
        for sh in ORACLE_SHAPES:
            rho = random_even_density_matrix(sh, rng)
            qs = list(fourier_q_range(sh.sites))
            for _ in range(4):
                ops = [LadderIndex(int(c), 1, int(rng.integers(
                           1, sh.modes_per_site + 1)), int(rng.choice(qs)))
                       for c in rng.choice([1, -1], size=4)]
                ladders = [fourier_ladder_terms(sh, o.c, o.mode, o.q)
                           for o in ops]
                mats = [oracle_fourier(sh, o.c, o.mode, o.q) for o in ops]
                assert abs(cumulant_mats(rho, ladders)
                           - dense_cumulant(rho, mats)) < 1e-12


class TestXorEngine:
    """The ladder products and moments of :class:`LadderMoments` against
    dense kron-chain matrices."""

    @staticmethod
    def oracle_pair(sh, o):
        """(XOR terms, dense oracle) of a site ladder (q None) or a Fourier
        ladder."""
        if o.q is None:
            return (ladder_terms(sh, o.c, o.site, o.mode),
                    oracle_ladder(sh, o.c, o.site, o.mode))
        return (fourier_ladder_terms(sh, o.c, o.mode, o.q),
                oracle_fourier(sh, o.c, o.mode, o.q))

    @staticmethod
    def random_ops(sh, w, rng, fourier):
        qs = list(fourier_q_range(sh.sites))
        return [LadderIndex(1 if rng.random() < 0.5 else -1,
                            int(rng.integers(1, sh.sites + 1)),
                            int(rng.integers(1, sh.modes_per_site + 1)),
                            int(rng.choice(qs)) if fourier else None)
                for _ in range(w)]

    def test_products_match_dense_products(self, rng):
        for sh in ORACLE_SHAPES:
            for w in (2, 3, 4):
                for fourier in (False, True):
                    ops = self.random_ops(sh, w, rng, fourier)
                    pairs = [self.oracle_pair(sh, o) for o in ops]
                    memo = LadderMoments(np.eye(sh.fock_dim),
                                         lambda i: pairs[i][0])
                    got = xor_terms_matrix(memo.product(tuple(range(w))),
                                           sh.fock_dim)
                    want = functools.reduce(np.matmul, [m for _, m in pairs])
                    assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("sh", ORACLE_SHAPES + (SystemShape(4, 2),),
                             ids=str)
    def test_cumulants_match_dense_oracle(self, sh, rng):
        # A non-diagonal state: every term with a nonzero mask reads rho
        # off its diagonal.
        rho = random_even_density_matrix(sh, rng)
        off = np.abs(rho - np.diag(np.diag(rho)))
        assert np.max(off) > 0.1 * np.max(np.abs(np.diag(rho)))
        for w in (2, 4, 6):
            for fourier in (False, True):
                ops = self.random_ops(sh, w, rng, fourier)
                pairs = [self.oracle_pair(sh, o) for o in ops]
                got = LadderMoments(rho, lambda i: pairs[i][0]).cumulant(
                    tuple(range(w)))
                assert abs(got - dense_cumulant(rho, [m for _, m in pairs])
                           ) < 1e-12

    def test_cumulants_with_odd_part(self, rng):
        sh = SystemShape(2, 2)
        rho = random_density_matrix(sh.fock_dim, rng)
        parity = np.array([bin(a).count("1") % 2 for a in range(len(rho))])
        odd_part = rho[parity[:, None] != parity[None, :]]
        assert np.max(np.abs(odd_part)) > 1e-3
        for w in (2, 4, 6):
            ops = self.random_ops(sh, w, rng, True)
            pairs = [self.oracle_pair(sh, o) for o in ops]
            mats = [m for _, m in pairs]
            got = cumulant_mats(rho, [t for t, _ in pairs])
            assert abs(got - dense_cumulant(rho, mats)) < 1e-12

    def test_lemma4_sweep_shares_products(self, monkeypatch):
        # The suite's V = 4, w = 4 sweep on one memo: each distinct key
        # prefix of a moment is multiplied at most once per copy, and no
        # dense ladder is formed.
        dims = []
        product = cumulants._ladder_product

        def counting(left, right):
            dims.append(left[1].shape[1])
            return product(left, right)

        def no_dense(*args):
            raise AssertionError("a moment formed a dense ladder")

        monkeypatch.setattr(cumulants, "_ladder_product", counting)
        monkeypatch.setattr(cumulants, "_dense", no_dense)
        V = 4
        triples = [(c, 1, q) for c in (1, -1) for q in fourier_q_range(V)]
        memo = FourierMemo()
        prefixes = {16: set(), 2: set()}
        cases = 0
        for seq in itertools.permutations(triples, 4):
            ops = [LadderIndex(c, 1, mode, q) for c, mode, q in seq]
            rep = lemma4_equality_report(DIAG_THIRDS, V, ops, memo=memo)
            cases += 1
            assert rep.passed
            site = [(c, mode, 0) for c, mode, _ in seq]
            for keys, dim in ((seq, 16), (site, 2)):
                # Moments of the recursion: every pair and the whole tuple.
                blocks = [(keys[i], keys[j]) for i, j in
                          itertools.combinations(range(4), 2)]
                for block in blocks + [tuple(keys)]:
                    for n in range(2, len(block) + 1):
                        prefixes[dim].add(block[:n])
        assert cases == 1680
        for dim, wanted in prefixes.items():
            assert 0 < dims.count(dim) <= len(wanted)
        assert len(dims) == dims.count(16) + dims.count(2)


class TestSuppression:
    def test_gaussian_both_sides_zero(self):
        ops = [LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
               LadderIndex(-1, 1, 1, 1), LadderIndex(1, 1, 1, 1)]
        rep = verify_suppression(VACUUM, 3, ops)
        assert rep.passed and rep.lhs < 1e-12 and rep.rhs < 1e-12

    def test_resonant_equality_case(self):
        # lhs * V equals |K_4(single site)| on resonance; both vanish for
        # single-mode states (they are Gaussian), which is the equality.
        for V in (2, 4, 6, 8):
            q = V // 2
            ops = [LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
                   LadderIndex(-1, 1, 1, q), LadderIndex(1, 1, 1, q)]
            rep = verify_suppression(DIAG_THIRDS, V, ops)
            res = fourier_cumulant(DIAG_THIRDS, V, ops)
            assert rep.passed
            assert abs(rep.lhs * V - abs(res.single_site_cumulant)) < 1e-9

    def test_p2_ratio_is_one(self):
        # Non-Gaussian site state: the resonant ratio is genuinely 1.
        ops = [LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
               LadderIndex(-1, 1, 2, 0), LadderIndex(1, 1, 2, 0)]
        for V in (2, 3, 4):
            res = fourier_cumulant(CORRELATED, V, ops)
            assert abs(res.single_site_cumulant) > 0.1
            ratio = abs(res.direct) * V / abs(res.single_site_cumulant)
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_w2_rejected(self):
        with pytest.raises(ValueError):
            verify_suppression(VACUUM, 3, [LadderIndex(-1, 1, 1, 0),
                                           LadderIndex(1, 1, 1, 0)])

    @pytest.mark.parametrize("V", [5, 8, 40])
    def test_over_the_mode_cap_raises(self, monkeypatch, V):
        # The closed form meets the bound by construction, so it cannot
        # stand in for the direct value: over the cap there is no claim.
        monkeypatch.setenv(MODE_CAP_ENV, "4")
        ops = [LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
               LadderIndex(-1, 1, 1, 1), LadderIndex(1, 1, 1, 1)]
        with pytest.raises(ResourceCapError):
            verify_suppression(DIAG_THIRDS, V, ops)


class TestWick:
    def test_wick_moment_matches_gaussian(self):
        # Vacuum is Gaussian: full moments equal their Wick expansion.
        sh = SystemShape(2, 1)
        vac2 = product_power(VACUUM, 2)
        ops = [LadderIndex(-1, 1, 1, 0), LadderIndex(1, 1, 1, 0),
               LadderIndex(-1, 1, 1, 1), LadderIndex(1, 1, 1, 1)]
        mats = [fourier_ladder_matrix(sh, o.c, o.mode, o.q) for o in ops]

        def pair_value(i, j):
            return complex(np.trace(vac2.matrix @ mats[i] @ mats[j]))

        full = complex(np.trace(
            vac2.matrix @ mats[0] @ mats[1] @ mats[2] @ mats[3]))
        assert wick_moment(pair_value, (0, 1, 2, 3)) == pytest.approx(full,
                                                                      abs=1e-12)

    def test_gaussian_mixture_deviation_zero_for_gaussian(self):
        xi = DenseOperator(SH1, np.diag([0.25, 0.75]).astype(complex))
        rho2 = product_power(xi, 2)
        mixture = ProductMixture(np.array([1.0]), (xi,))
        ops = corollary_index_sets(2, 1)[0]
        direct, predicted = gaussian_mixture_deviation(rho2, mixture, ops)
        assert abs(direct - predicted) < 1e-10

    def test_gaussian_mixture_deviation_matches_naive_traces(self, rng):
        # Oracle: pair values as one trace of a matrix product per component
        # and pair, the Wick moments and cumulant extraction written out.
        sh12 = SystemShape(1, 2)
        comps = tuple(DenseOperator(sh12, random_even_density_matrix(sh12, rng))
                      for _ in range(3))
        mixture = ProductMixture(np.array([0.5, 0.3, 0.2]), comps)
        k = 3
        rho_k = DenseOperator(SystemShape(k, 2),
                              random_even_density_matrix(SystemShape(k, 2),
                                                         rng))
        # One index set beyond the corollary sample.
        generic = (LadderIndex(1, 1, 1, 1), LadderIndex(-1, 1, 2, 0),
                   LadderIndex(1, 1, 2, -1), LadderIndex(-1, 1, 1, 0))
        for ops in corollary_index_sets(k, 2) + [generic]:
            mats = [fourier_ladder_matrix(rho_k.shape, o.c, o.mode, o.q)
                    for o in ops]
            pairs = []
            for xi in comps:
                power = product_power(xi, k).matrix
                pairs.append({(i, j): complex(np.trace(power @ mats[i]
                                                       @ mats[j]))
                              for i in range(4) for j in range(i + 1, 4)})

            def naive_moment(positions):
                return sum(a * wick_moment(lambda i, j: pv[(i, j)], positions)
                           for a, pv in zip(mixture.weights, pairs))

            want = cumulant_from_moment_fn(naive_moment, 4)
            _, predicted = gaussian_mixture_deviation(rho_k, mixture, ops)
            assert abs(predicted - want) < 1e-12

    def test_gaussian_mixture_deviation_rejects_odd_component(self):
        # The closed-form pair values hold for even components only.
        odd = np.diag([0.5, 0.2, 0.2, 0.1]).astype(complex)
        odd[0, 1] = odd[1, 0] = 1e-18
        mixture = ProductMixture(np.array([1.0]),
                                 (DenseOperator(SH12, odd),))
        rho2 = product_power(CORRELATED, 2)
        with pytest.raises(ValueError, match="even"):
            gaussian_mixture_deviation(rho2, mixture,
                                       corollary_index_sets(2, 2)[0])

    def test_corollary_metric_scales_inverse_k(self):
        xi = CORRELATED
        metrics = {}
        for k in (2, 3, 4):
            rho_k = product_power(xi, k)
            mixture = ProductMixture(np.array([1.0]), (xi,))
            rep = verify_corollary(rho_k, mixture, V=k,
                                   ops_sets=corollary_index_sets(k, 2)[:1])
            metrics[k] = rep.lhs
        # |K4| / k with K4 = 0.14.
        for k, val in metrics.items():
            assert val == pytest.approx(0.14 / k, abs=1e-9)
