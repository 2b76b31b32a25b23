"""The conftest partition oracle, cumulant extraction by the first-position
recursion against it, and the Fourier-mode central-limit machinery."""

import cmath
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (cumulant, even_block_partitions, fourier_ladder_matrix,
                      independent_ladder, inversion_sign, kron_chain,
                      mixture_matrix, moment, moment_from_cumulant_fn,
                      oracle_set_partitions, random_density_matrix,
                      random_even_density_matrix)
from fermicert import cumulants, suites
from fermicert.algebra import SystemShape
from fermicert.cumulants import (LadderIndex, ProductState,
                                 corollary_index_sets, cumulant_mats,
                                 fourier_cumulant, fourier_q_range,
                                 gaussian_mixture_deviation, ladder_matrix,
                                 verify_corollary, verify_suppression)
from fermicert.definetti import ProductMixture, product_power
from fermicert.fock import MODE_CAP_ENV, DenseOperator, ResourceCapError

SH1 = SystemShape(1, 1)
SH12 = SystemShape(1, 2)
VACUUM = DenseOperator(SH1, np.diag([1.0, 0.0]).astype(complex))
DIAG_THIRDS = DenseOperator(SH1, np.diag([1.0 / 3.0, 2.0 / 3.0]).astype(complex))
CORRELATED = DenseOperator(SH12, np.diag([0.5, 0.1, 0.1, 0.3]).astype(complex))

#: Site ladders f and f-dagger on site 1, mode 1, as (c, site, mode).
F = (1, 1, 1)
FDAG = (-1, 1, 1)

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


def dense_cumulant(rho, mats):
    """K_2 and K_4 written out over the even partitions; K_6 is the moment
    less every split into two or three even blocks (brute-force set
    partitions, inversion-count signs), each block's K_2 or K_4 written
    out.  Each moment of an index tuple is one dense product, formed
    once."""
    @functools.lru_cache(maxsize=None)
    def m(*idx):
        return dense_moment(rho, [mats[i] for i in idx])

    def k(idx):
        if len(idx) == 2:
            return m(*idx)
        if len(idx) == 4:
            a, b, c, d = idx
            return (m(a, b, c, d) - m(a, b) * m(c, d) + m(a, c) * m(b, d)
                    - m(a, d) * m(b, c))
        assert len(idx) == 6
        total = m(*idx)
        for part in oracle_set_partitions(idx):
            if len(part) == 1 or any(len(block) % 2 for block in part):
                continue
            term = inversion_sign([x for block in part for x in block])
            for block in part:
                term *= k(block)
            total -= term
        return total

    return k(tuple(range(len(mats))))


def random_site_ops(shape, w, rng):
    return [(1 if rng.random() < 0.5 else -1,
             int(rng.integers(1, shape.sites + 1)),
             int(rng.integers(1, shape.modes_per_site + 1)))
            for _ in range(w)]


def independent_even_partition_count(w: int) -> int:
    """Recurrence: anchor the smallest element, choose odd companions."""
    if w == 0:
        return 1
    return sum(math.comb(w - 1, b - 1) * independent_even_partition_count(w - b)
               for b in range(2, w + 1, 2))


def normalized(partitions):
    """Partitions as a set of block tuples in a fixed order."""
    return {tuple(sorted(part)) for part in partitions}


def even_subtuples(w):
    """The even sub-tuples of (0, .., w-1), increasing, the empty one
    left out."""
    return [sub for k in range(2, w + 1, 2)
            for sub in itertools.combinations(range(w), k)]


def random_moment_rows(w, rng, n=5):
    """Random complex row arrays of length ``n`` for every even sub-tuple
    of (0, .., w-1): a moment dict in the form of _cumulant_rows."""
    return {sub: rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for sub in even_subtuples(w)}


class TestEvenPartitions:
    """The conftest oracle's even-block filter of brute-force set
    partitions, which the recombination oracle sums over."""

    def test_w2(self):
        assert even_block_partitions((1, 2)) == [[(1, 2)]]

    def test_w4_exact_list(self):
        got = even_block_partitions((1, 2, 3, 4))
        want = {((1, 2, 3, 4),), ((1, 2), (3, 4)), ((1, 3), (2, 4)),
                ((1, 4), (2, 3))}
        assert len(got) == len(want)
        assert normalized(got) == want

    def test_counts_against_recurrence(self):
        for w in (2, 4, 6, 8):
            got = even_block_partitions(range(1, w + 1))
            assert len(got) == len(normalized(got))
            assert len(got) == independent_even_partition_count(w)
        assert len(even_block_partitions(range(6))) == 31

    def test_blocks_increasing_and_covering(self):
        for part in even_block_partitions(range(6)):
            assert all(len(block) % 2 == 0 and list(block) == sorted(block)
                       for block in part)
            assert sorted(x for block in part for x in block) == list(range(6))


class TestPartitionSign:
    """The oracle sign of a partition, :func:`conftest.inversion_sign` of
    its blockwise concatenation."""

    def test_sorted_is_plus(self):
        assert inversion_sign((1, 2, 3, 4)) == 1

    def test_one_inversion(self):
        assert inversion_sign((1, 3, 2, 4)) == -1

    def test_two_inversions(self):
        assert inversion_sign((1, 4, 2, 3)) == 1

    def test_matches_numpy_parity(self, rng):
        # The determinant of the permutation matrix is the parity.
        for _ in range(30):
            perm = rng.permutation(6)
            det = np.linalg.det(np.eye(6)[perm])
            assert inversion_sign(perm.tolist()) == round(det)


class TestRecursion:
    """:func:`cumulants._cumulant_rows`, the first-position recursion, on
    random moment dicts against the conftest partition oracle."""

    @pytest.mark.parametrize("w", (2, 4, 6, 8))
    def test_matches_partition_oracle(self, w, rng):
        # Each even sub-tuple's cumulants, read by the recursion on the
        # sub-tuple's own moments, recombine over the oracle's signed even
        # partitions into its moment.
        moments = random_moment_rows(w, rng)
        cumulant_of = {}
        for sub in moments:
            relabeled = {inner: moments[tuple(sub[i] for i in inner)]
                         for inner in even_subtuples(len(sub))}
            cumulant_of[sub] = cumulants._cumulant_rows(relabeled, len(sub))
        assert cumulant_of[tuple(range(w))].shape == (5,)
        for sub, moment_row in moments.items():
            recombined = moment_from_cumulant_fn(
                lambda block: cumulant_of[tuple(sub[i] for i in block)],
                len(sub))
            scale = np.abs(moment_row).max()
            assert np.abs(recombined - moment_row).max() <= 1e-12 * scale

    def test_w4_is_the_written_out_sum(self, rng):
        # The three pair products in the partition sum's order and sign,
        # bit for bit: K of a pair is its moment.
        m = random_moment_rows(4, rng)
        want = (m[0, 1, 2, 3] - m[0, 1] * m[2, 3] + m[0, 2] * m[1, 3]
                - m[0, 3] * m[1, 2])
        assert np.array_equal(cumulants._cumulant_rows(m, 4), want)


class TestMoments:
    def test_vacuum_f_fdag(self):
        assert moment(VACUUM, [[F, FDAG]])[0] == pytest.approx(1.0)

    def test_vacuum_fdag_f(self):
        assert moment(VACUUM, [[FDAG, F]])[0] == pytest.approx(0.0)

    def test_odd_moments_vanish_for_even_states(self, rng):
        sh = SystemShape(2, 1)
        rho = DenseOperator(sh, random_even_density_matrix(sh, rng))
        for ops in ([F], [F, FDAG, (1, 2, 1)]):
            assert abs(moment(rho, [ops])[0]) < 1e-12

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
                mats = [oracle_ladder(sh, *o) for o in ops]
                assert abs(moment(dense, [ops])[0]
                           - dense_moment(rho, mats)) < 1e-12


class TestCumulants:
    def test_k2_equals_moment(self, rng):
        sh = SystemShape(1, 2)
        rho = DenseOperator(sh, random_even_density_matrix(sh, rng))
        ops = [(-1, 1, 1), (1, 1, 2)]
        assert cumulant(rho, ops) == pytest.approx(moment(rho, [ops])[0])

    def test_vacuum_fourth_cumulants_vanish(self):
        for pattern in itertools.product((1, -1), repeat=4):
            ops = [(c, 1, 1) for c in pattern]
            assert abs(cumulant(VACUUM, ops)) < 1e-10

    def test_single_mode_fourth_cumulant_is_zero(self):
        # Single-mode states are Gaussian: diag(1/3, 2/3) has K_4 = 0 for
        # every operator pattern (hand recombination: moment n equals
        # n^2 + n(1 - n) from the two surviving signed pairings).
        for pattern in itertools.product((1, -1), repeat=4):
            ops = [(c, 1, 1) for c in pattern]
            assert abs(cumulant(DIAG_THIRDS, ops)) < 1e-12

    def test_recombination_identity(self):
        ops = [FDAG, F, FDAG, F]

        def cumulant_fn(block):
            return cumulant(DIAG_THIRDS, [ops[i] for i in block])

        recombined = moment_from_cumulant_fn(cumulant_fn, 4)
        assert recombined == pytest.approx(moment(DIAG_THIRDS, [ops])[0],
                                           abs=1e-12)

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
                    ops.append((1 if rng.random() < 0.5 else -1, site, mode))

                def cfun(block):
                    return cumulant(rho, [ops[i] for i in block])

                direct = moment(rho, [ops])[0]
                assert abs(moment_from_cumulant_fn(cfun, w) - direct) < 1e-10

    def test_correlated_p2_value(self):
        # K4(f1†, f1, f2†, f2) = <n1 n2> - <n1><n2> for diagonal two-mode
        # states: 0.3 - 0.4 * 0.4 = 0.14.
        ops = [(-1, 1, 1), (1, 1, 1), (-1, 1, 2), (1, 1, 2)]
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
            fourier_cumulant(DIAG_THIRDS, 3, [[]])

    def test_cumulants_match_kron_oracle(self, rng):
        for sh in ORACLE_SHAPES:
            rho = random_even_density_matrix(sh, rng)
            dense = DenseOperator(sh, rho)
            for w in (2, 4, 4, 4):
                ops = random_site_ops(sh, w, rng)
                mats = [oracle_ladder(sh, *o) for o in ops]
                assert abs(cumulant(dense, ops)
                           - dense_cumulant(rho, mats)) < 1e-12


class TestFourierCumulants:
    def test_q_range(self):
        assert list(fourier_q_range(4)) == [-1, 0, 1, 2]
        assert list(fourier_q_range(5)) == [-2, -1, 0, 1, 2]

    def test_ladders_reject_bad_c_and_q(self):
        sh = SystemShape(3, 1)
        for c in (0, 2, -2):
            with pytest.raises(ValueError, match="c must be"):
                cumulants.ladder(sh, c, 1, 1)
        for q in (-2, 2, 5):
            with pytest.raises(ValueError, match="outside"):
                cumulants.fourier_ladder(sh, LadderIndex(1, 1, q))

    def test_single_site_cumulant_is_the_one_site_direct_value(self, rng):
        # K_w of the site, read from the local moments of the V-site call,
        # is the direct cumulant of the V = 1 copy bit for bit: at V = 1
        # each Fourier ladder is its site ladder, and the pass over the one
        # site returns the local moments unchanged.
        xi = DenseOperator(SH12, random_even_density_matrix(SH12, rng))
        qs = list(fourier_q_range(3))
        for w in (2, 4, 6):
            cases = [[LadderIndex(int(rng.choice([1, -1])),
                                  int(rng.integers(1, 3)), int(rng.choice(qs)))
                      for _ in range(w)] for _ in range(5)]
            res = fourier_cumulant(xi, 3, cases)
            at_one = fourier_cumulant(xi, 1, [
                [LadderIndex(o.c, o.mode, 0) for o in ops] for ops in cases])
            assert np.array_equal(res.single_site_cumulant, at_one.direct)

    def test_resonant_second_cumulant(self):
        ops = [LadderIndex(-1, 1, 1), LadderIndex(1, 1, 1)]
        res = fourier_cumulant(DIAG_THIRDS, 3, [ops])
        assert res.direct[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.closed_form[0] == pytest.approx(res.direct[0], abs=1e-12)

    def test_offresonant_vanishes(self):
        ops = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 1)]
        res = fourier_cumulant(DIAG_THIRDS, 3, [ops])
        assert abs(res.direct[0]) < 1e-12
        assert abs(res.closed_form[0]) < 1e-12

    def test_lemma4_w4_p1(self):
        ops = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
               LadderIndex(-1, 1, 1), LadderIndex(1, 1, 1)]
        res = fourier_cumulant(DIAG_THIRDS, 3, [ops])
        assert abs(res.direct[0] - res.closed_form[0]) < 1e-9

    def test_lemma4_w4_p2_nonzero(self):
        ops = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
               LadderIndex(-1, 2, 0), LadderIndex(1, 2, 0)]
        res = fourier_cumulant(CORRELATED, 2, [ops])
        # Resonant phase sum V = 2 gives K4/V = 0.14/2 = 0.07 exactly.
        assert res.direct[0] == pytest.approx(0.07, abs=1e-9)
        assert abs(res.direct[0] - res.closed_form[0]) < 1e-9

    @staticmethod
    def assert_same_result(a, b):
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name),
                                  getattr(b, field.name)), field.name

    def test_each_state_gets_its_own_value(self, rng):
        # Two states of one shape: a call keeps nothing, so each state
        # gets the same values bit for bit in either order of calls, and
        # the states' values differ.
        ops = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 1),
               LadderIndex(-1, 2, 1), LadderIndex(1, 2, 0)]
        states = [CORRELATED, DenseOperator(
            SH12, random_even_density_matrix(SH12, rng))]
        first = [fourier_cumulant(rho, 3, [ops]) for rho in states]
        again = [fourier_cumulant(rho, 3, [ops]) for rho in states[::-1]]
        for a, b in zip(first, again[::-1]):
            self.assert_same_result(a, b)
        assert first[0].direct[0] != first[1].direct[0]
        assert (first[0].single_site_cumulant[0]
                != first[1].single_site_cumulant[0])

    def test_case_list_matches_one_case_calls(self):
        # A case read inside the V = 3, w = 4 claim's list (rows shared
        # with other cases) against the case alone: the same values up to
        # the summation order.
        cases = suites._lemma4_cases(3, 4)[::37]
        res = fourier_cumulant(DIAG_THIRDS, 3, cases)
        assert len(res.direct) == len(cases) == 10
        for i, ops in enumerate(cases):
            alone = fourier_cumulant(DIAG_THIRDS, 3, [ops])
            for field in ("direct", "closed_form", "single_site_cumulant"):
                assert abs(getattr(res, field)[i]
                           - getattr(alone, field)[0]) < 1e-15
            assert res.resonant[i] == alone.resonant[0]

    def test_distinct_triples_flag(self):
        repeated = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
                    LadderIndex(-1, 1, 0), LadderIndex(1, 1, 1)]
        distinct = repeated[:2] + [LadderIndex(-1, 1, 1),
                                   LadderIndex(1, 1, 1)]
        res = fourier_cumulant(DIAG_THIRDS, 3, [repeated, distinct, repeated])
        assert res.distinct_triples.tolist() == [False, True, False]

    def test_q_out_of_range(self, monkeypatch):
        # The range check runs before the site program's pass.
        def no_pass(k):
            raise AssertionError("the site program ran")

        monkeypatch.setattr(cumulants, "_site_moves", no_pass)
        with pytest.raises(ValueError, match="outside range"):
            fourier_cumulant(DIAG_THIRDS, 3, [[LadderIndex(-1, 1, 0),
                                               LadderIndex(1, 1, 2)]])

    def test_odd_state_rejected(self):
        # The copy of a state with an odd part does not factorize over the
        # sites (this one read direct 0.62 against closed form 0.5), so
        # fourier_cumulant and the corollary's product route refuse it.
        odd = DenseOperator(SH1, np.array([[0.5, 0.3], [0.3, 0.5]],
                                          dtype=complex))
        pair = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0)]
        with pytest.raises(ValueError, match="even"):
            fourier_cumulant(odd, 3, [pair])
        state = ProductState(ProductMixture(np.ones(1), (odd,)), 2)
        witness = ProductMixture(np.ones(1), (DIAG_THIRDS,))
        with pytest.raises(ValueError, match="even"):
            verify_corollary(state, witness, V=2)

    def test_missing_q(self):
        # A ladder is the Fourier ladder, exactly the fields (c, mode, q),
        # all required: a ladder without q and the four-field form
        # (c, site, mode, q) are errors, and a ladder is its own dict key.
        assert [f.name for f in dataclasses.fields(LadderIndex)] == [
            "c", "mode", "q"]
        with pytest.raises(TypeError):
            LadderIndex(1, 1)
        four_fields = (1, 1, 1, 0)
        with pytest.raises(TypeError):
            LadderIndex(*four_fields)
        assert {LadderIndex(-1, 2, 1): 0}[LadderIndex(-1, 2, 1)] == 0

    def test_case_lists_of_one_order_only(self):
        pair = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0)]
        with pytest.raises(ValueError, match="at least one case"):
            fourier_cumulant(DIAG_THIRDS, 3, [])
        with pytest.raises(ValueError, match="one order w"):
            fourier_cumulant(DIAG_THIRDS, 3, [pair, pair + pair])

    def test_fourier_op_matrix(self):
        for sh in ORACLE_SHAPES:
            for mode in range(1, sh.modes_per_site + 1):
                for q in fourier_q_range(sh.sites):
                    for c in (1, -1):
                        assert np.allclose(
                            fourier_ladder_matrix(sh, c, mode, q),
                            oracle_fourier(sh, c, mode, q), atol=1e-15)

    def test_fourier_moments_match_kron_oracle(self, rng):
        # Dense Fourier ladders, each a phased sum over the sites.
        for sh in ORACLE_SHAPES:
            rho = random_even_density_matrix(sh, rng)
            qs = list(fourier_q_range(sh.sites))
            for _ in range(4):
                ops = [LadderIndex(int(c), int(rng.integers(
                           1, sh.modes_per_site + 1)), int(rng.choice(qs)))
                       for c in rng.choice([1, -1], size=4)]
                ladders = [fourier_ladder_matrix(sh, o.c, o.mode, o.q)
                           for o in ops]
                mats = [oracle_fourier(sh, o.c, o.mode, o.q) for o in ops]
                assert abs(cumulant_mats(rho, ladders)
                           - dense_cumulant(rho, mats)) < 1e-12


class TestXorEngine:
    """The moment and cumulant engine on dense ladders: the row moments of
    a ladder stack (:func:`cumulants._row_moments`) and
    :func:`cumulants.cumulant_mats`, against dense kron-chain matrices."""

    @staticmethod
    def oracle_pair(sh, o):
        """(the package's dense ladder, the kron oracle) of a site ladder,
        a (c, site, mode) tuple, or a Fourier ladder."""
        if not isinstance(o, LadderIndex):
            return ladder_matrix(sh, *o), oracle_ladder(sh, *o)
        return (fourier_ladder_matrix(sh, o.c, o.mode, o.q),
                oracle_fourier(sh, o.c, o.mode, o.q))

    @staticmethod
    def random_ops(sh, w, rng, fourier):
        """w random site ladders, or Fourier ladders with a random q; both
        draw a site, so the two kinds read one random stream."""
        qs = list(fourier_q_range(sh.sites))
        ops = []
        for _ in range(w):
            c = 1 if rng.random() < 0.5 else -1
            site = int(rng.integers(1, sh.sites + 1))
            mode = int(rng.integers(1, sh.modes_per_site + 1))
            ops.append(LadderIndex(c, mode, int(rng.choice(qs))) if fourier
                       else (c, site, mode))
        return ops

    def case_list(self, sh, w, rng, fourier):
        """Dense ladders, their kron oracles and an (n, w) index array of
        rows over them: two random rows, the first again, and a row that
        repeats each of its ladders."""
        pairs = [self.oracle_pair(sh, o)
                 for o in self.random_ops(sh, w + 2, rng, fourier)]
        rows = [rng.permutation(w + 2)[:w] for _ in range(2)]
        rows += [rows[0], np.repeat(rng.permutation(w + 2)[:w // 2], 2)]
        return [t for t, _ in pairs], [m for _, m in pairs], np.array(rows)

    def assert_rows_match_oracle(self, rho, ladders, mats, rows):
        # The moments of all rows in one call on the stacked ladders, and
        # the cumulant of each distinct row.
        got = cumulants._row_moments(rho, np.stack(ladders), rows)
        assert got.shape == (len(rows),)
        want = {}
        for value, row in zip(got, rows.tolist()):
            key = tuple(row)
            if key not in want:
                oracle = [mats[i] for i in row]
                want[key] = dense_moment(rho, oracle)
                assert abs(cumulant_mats(rho, [ladders[i] for i in row])
                           - dense_cumulant(rho, oracle)) < 1e-12
            assert abs(value - want[key]) < 1e-12

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
                self.assert_rows_match_oracle(
                    rho, *self.case_list(sh, w, rng, fourier))

    def test_cumulants_with_odd_part(self, rng):
        sh = SystemShape(2, 2)
        rho = random_density_matrix(sh.fock_dim, rng)
        parity = np.array([bin(a).count("1") % 2 for a in range(len(rho))])
        odd_part = rho[parity[:, None] != parity[None, :]]
        assert np.max(np.abs(odd_part)) > 1e-3
        for w in (2, 4, 6):
            for fourier in (False, True):
                self.assert_rows_match_oracle(
                    rho, *self.case_list(sh, w, rng, fourier))

    def test_moment_rows_match_dense_moments(self, rng):
        # Odd rows of one call, a repeated row included.
        sh = SystemShape(2, 2)
        rho = DenseOperator(sh, random_even_density_matrix(sh, rng))
        rows = [random_site_ops(sh, 3, rng) for _ in range(4)]
        rows.append(rows[1])
        got = moment(rho, rows)
        assert got.shape == (5,)
        for value, ops in zip(got, rows):
            mats = [oracle_ladder(sh, *o) for o in ops]
            assert abs(value - dense_moment(rho.matrix, mats)) < 1e-12
        assert got[4] == got[1]

    def test_long_rows_need_no_row_codes(self, rng):
        # 64 alternating f, f-dagger on one site: (f f†)^32 = f f†, the
        # projector 1 - n, whatever the number of ladders in the row.
        sh = SystemShape(2, 1)
        rho = DenseOperator(sh, random_density_matrix(sh.fock_dim, rng))
        want = dense_moment(rho.matrix, [oracle_ladder(sh, *F),
                                         oracle_ladder(sh, *FDAG)])
        assert abs(moment(rho, [[F, FDAG] * 32])[0] - want) < 1e-12
        assert abs(moment(rho, [[F, FDAG]])[0] - want) < 1e-12

    def test_lemma4_claim_forms_each_row_once(self, monkeypatch):
        # The suite's V = 4, w = 4 claim in one call reads the single site
        # (dim 2) alone: the site program's local moments, which the
        # single-site K_4 reads too, are one _row_moments call per
        # sub-tuple length, on a stack of the two (c, mode) letters, and
        # each call multiplies out every distinct word of its length once.
        # No ladder or product of the copy's dimension 16 is formed.
        calls = []
        row_moments = cumulants._row_moments
        matrix = cumulants.to_matrix

        def counting(rho, ladders, rows):
            distinct = {tuple(row) for row in np.asarray(rows).tolist()}
            calls.append((rho.shape, ladders.shape, len(distinct)))
            return row_moments(rho, ladders, rows)

        def site_only(op):
            assert op.shape.fock_dim == 2, "a ladder of the copy was formed"
            return matrix(op)

        monkeypatch.setattr(cumulants, "_row_moments", counting)
        monkeypatch.setattr(cumulants, "to_matrix", site_only)
        cases = suites._lemma4_cases(4, 4)
        res = fourier_cumulant(DIAG_THIRDS, 4, cases)
        assert len(res.direct) == len(cases) == 1680
        assert res.distinct_triples.all()
        assert (np.abs(res.direct - res.closed_form).max()
                <= cumulants.CUMULANT_TOL)
        words = {tuple((o.c, o.mode) for o in ops) for ops in cases}
        pairs = {tuple(word[i] for i in sub) for word in words
                 for sub in itertools.combinations(range(4), 2)}
        assert (len(words), len(pairs)) == (16, 4)
        assert [n for *_, n in calls] == [len(pairs), len(words)]
        assert sum(n for *_, n in calls) == 20
        assert {(rho, ladders) for rho, ladders, _ in calls} == {
            ((2, 2), (2, 2, 2))}


class TestSiteProgram:
    """The site program (:func:`cumulants.site_moments`) against the kron
    ladders on the dense mixture, and its moves against brute force."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_moves_by_brute_force(self, k):
        # A move places an even subset T of the k positions on a site
        # after the even subset S, disjoint from it; its sign is the
        # inversion sign of the positions of S, then those of T, the
        # order of a stable sort by site.  The moves are the pairs of
        # disjoint even subsets, (3^k + 2 + (-1)^k) / 4 of them.
        evens, src, took, sign, starts = cumulants._site_moves(k)
        assert evens == [m for m in range(1 << k) if m.bit_count() % 2 == 0]
        dst = np.repeat(np.arange(len(evens)),
                        np.diff(np.append(starts, len(src))))
        got = {(evens[a], evens[t]): (evens[d], g)
               for d, a, t, g in zip(dst, src, took, sign)}
        assert len(got) == len(src) == (3 ** k + 2 + (-1) ** k) // 4
        for placed, taken in itertools.product(evens, repeat=2):
            if placed & taken:
                continue
            order = ([i for i in range(k) if placed >> i & 1]
                     + [i for i in range(k) if taken >> i & 1])
            assert got[placed, taken] == (placed | taken,
                                          inversion_sign(order))

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_moments_match_kron_oracle(self, data):
        # Mixtures of one to three random even site states (non-diagonal
        # at p = 2), rows of 2 and 4 Fourier ladders drawn with
        # replacement, and a row repeating a (c, mode, q) triple: every
        # even sub-tuple's moment against tr(rho F ... F) on the dense
        # mixture with the explicit kron ladders, and its local moments
        # against tr(xi_l f ... f) on one site.
        p = data.draw(st.sampled_from([1, 2]), label="p")
        V = data.draw(st.integers(1, 5 if p == 1 else 4), label="V")
        count = data.draw(st.integers(1, 3), label="components")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        site = SystemShape(1, p)
        comps = tuple(DenseOperator(site, random_even_density_matrix(site,
                                                                     rng))
                      for _ in range(count))
        if p == 2:
            assert all(abs(xi.matrix[0, 3]) > 0 for xi in comps)
        mixture = ProductMixture(rng.dirichlet(np.ones(count)), comps)
        state = ProductState(mixture, V)
        rho = mixture_matrix(mixture, V).matrix
        pool = [LadderIndex(c, mode, q) for c in (1, -1)
                for mode in range(1, p + 1) for q in fourier_q_range(V)]
        mats = {o: oracle_fourier(state.shape, o.c, o.mode, o.q)
                for o in pool}
        for w in (2, 4):
            rows = data.draw(st.lists(st.lists(st.sampled_from(pool),
                                               min_size=w, max_size=w),
                                      min_size=1, max_size=3), label="rows")
            o = rows[0][0]
            dag = LadderIndex(-o.c, o.mode, o.q)
            rows.append([dag, o] * (w // 2))
            local, got = cumulants.site_moments(state, pool, [
                [pool.index(x) for x in row] for row in rows])
            assert set(got) == set(local) == {
                sub for m in range(2, w + 1, 2)
                for sub in itertools.combinations(range(w), m)}
            for sub, values in got.items():
                for value, row in zip(values, rows):
                    want = dense_moment(rho, [mats[row[i]] for i in sub])
                    assert abs(value - want) < 1e-12
                for xi, site_values in zip(comps, local[sub]):
                    for value, row in zip(site_values, rows):
                        want = dense_moment(xi.matrix, [oracle_ladder(
                            site, row[i].c, 1, row[i].mode) for i in sub])
                        assert abs(value - want) < 1e-12


class TestSuppression:
    def test_gaussian_both_sides_zero(self):
        ops = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
               LadderIndex(-1, 1, 1), LadderIndex(1, 1, 1)]
        res = fourier_cumulant(VACUUM, 3, [ops])
        rep = verify_suppression(VACUUM, 3, ops, res)
        assert rep.passed and rep.lhs < 1e-12 and rep.rhs < 1e-12

    def test_resonant_equality_case(self):
        # lhs * V equals |K_4(single site)| on resonance; both vanish for
        # single-mode states (they are Gaussian), which is the equality.
        for V in (2, 4, 6, 8):
            q = V // 2
            ops = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
                   LadderIndex(-1, 1, q), LadderIndex(1, 1, q)]
            res = fourier_cumulant(DIAG_THIRDS, V, [ops])
            rep = verify_suppression(DIAG_THIRDS, V, ops, res)
            assert rep.passed
            assert abs(rep.lhs * V - abs(res.single_site_cumulant[0])) < 1e-9

    def test_p2_ratio_is_one(self):
        # Non-Gaussian site state: the resonant ratio is genuinely 1.
        ops = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
               LadderIndex(-1, 2, 0), LadderIndex(1, 2, 0)]
        for V in (2, 3, 4):
            res = fourier_cumulant(CORRELATED, V, [ops])
            assert abs(res.single_site_cumulant[0]) > 0.1
            ratio = abs(res.direct[0]) * V / abs(res.single_site_cumulant[0])
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_w2_rejected(self):
        ops = [LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0)]
        res = fourier_cumulant(VACUUM, 3, [ops])
        with pytest.raises(ValueError):
            verify_suppression(VACUUM, 3, ops, res)

    @pytest.mark.parametrize("V", [5, 8, 40])
    def test_over_the_mode_cap_raises(self, monkeypatch, V):
        # The site program builds no Fock-space array, so the mode cap
        # does not bound fourier_cumulant: under a cap of 4 modes it
        # returns the uncapped kron oracle's values at V = 5 and 8, and
        # meets the Lemma-4 closed form of a non-Gaussian site at V = 40.
        # The dense route still raises over the cap, at the V-fold copy
        # its cumulant_mats reads, before any ladder of 2^V rows is built.
        sh = SystemShape(V, 1)
        qs = fourier_q_range(V)
        lists = [[(LadderIndex(c, 1, q1), LadderIndex(-c, 1, q2))
                  for c in (1, -1) for q1 in qs for q2 in qs],
                 [(LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
                   LadderIndex(-1, 1, q), LadderIndex(1, 1, q))
                  for q in (1, V // 2)]]
        want = []
        if V <= 8:
            rho = kron_chain([DIAG_THIRDS.matrix] * V)
            mats = {o: oracle_fourier(sh, o.c, o.mode, o.q)
                    for cases in lists for ops in cases for o in ops}
            want = [[dense_cumulant(rho, [mats[o] for o in ops])
                     for ops in cases] for cases in lists]
        monkeypatch.setenv(MODE_CAP_ENV, "4")
        for cases, values in zip(lists, want):
            got = fourier_cumulant(DIAG_THIRDS, V, cases).direct
            assert np.abs(got - values).max() < 1e-12
        p2 = [(LadderIndex(-1, 1, 0), LadderIndex(1, 1, 0),
               LadderIndex(-1, 2, q), LadderIndex(1, 2, 0)) for q in (0, 1)]
        res = fourier_cumulant(CORRELATED, V, p2)
        assert abs(res.closed_form[0]) == pytest.approx(0.14 / V, abs=1e-15)
        assert (np.abs(res.direct - res.closed_form).max()
                <= cumulants.CUMULANT_TOL)
        def dense_direct(ops):
            power = product_power(DIAG_THIRDS, V)
            return cumulant_mats(power.matrix, [fourier_ladder_matrix(
                sh, o.c, o.mode, o.q) for o in ops])

        with pytest.raises(ResourceCapError):
            dense_direct(lists[1][0])


class TestWick:
    def test_gaussian_mixture_deviation_zero_for_gaussian(self):
        xi = DenseOperator(SH1, np.diag([0.25, 0.75]).astype(complex))
        rho2 = product_power(xi, 2)
        mixture = ProductMixture(np.array([1.0]), (xi,))
        ops = corollary_index_sets(2, 1)[0]
        direct, predicted = gaussian_mixture_deviation(rho2, mixture, ops)
        assert abs(direct - predicted) < 1e-10

    def test_gaussian_mixture_deviation_matches_naive_traces(self, rng):
        # Oracle: pair values as one trace of a matrix product per component
        # and pair, each mixture moment as the weighted three-pairing Wick
        # sum, and K4 = M(0123) - sum sign * M * M written out.
        sh12 = SystemShape(1, 2)
        comps = tuple(DenseOperator(sh12, random_even_density_matrix(sh12, rng))
                      for _ in range(3))
        mixture = ProductMixture(np.array([0.5, 0.3, 0.2]), comps)
        k = 3
        rho_k = DenseOperator(SystemShape(k, 2),
                              random_even_density_matrix(SystemShape(k, 2),
                                                         rng))
        # One index set beyond the corollary sample.
        generic = (LadderIndex(1, 1, 1), LadderIndex(-1, 2, 0),
                   LadderIndex(1, 2, -1), LadderIndex(-1, 1, 0))
        pairings = (((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1),
                    ((0, 3), (1, 2), 1))
        for ops in corollary_index_sets(k, 2) + [generic]:
            mats = [fourier_ladder_matrix(rho_k.shape, o.c, o.mode, o.q)
                    for o in ops]
            second = {pair: 0.0j for x, y, _ in pairings for pair in (x, y)}
            fourth = 0.0j
            for a, xi in zip(mixture.weights, comps):
                power = product_power(xi, k).matrix
                pv = {(i, j): complex(np.trace(power @ mats[i] @ mats[j]))
                      for i, j in second}
                for pair in second:
                    second[pair] += a * pv[pair]
                fourth += a * sum(sign * pv[x] * pv[y]
                                  for x, y, sign in pairings)
            want = fourth - sum(sign * second[x] * second[y]
                                for x, y, sign in pairings)
            _, predicted = gaussian_mixture_deviation(rho_k, mixture, ops)
            assert abs(predicted - want) < 1e-12

    @pytest.mark.parametrize("w", [2, 6])
    def test_gaussian_mixture_deviation_needs_four_ladders(self, w):
        xi = DenseOperator(SH1, np.diag([0.25, 0.75]).astype(complex))
        mixture = ProductMixture(np.array([1.0]), (xi,))
        ops = [LadderIndex(-1 if i % 2 == 0 else 1, 1, 0)
               for i in range(w)]
        with pytest.raises(ValueError, match="four"):
            gaussian_mixture_deviation(product_power(xi, 2), mixture, ops)

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


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("k", range(2, 9))
def test_corollary_samples_after_the_first_are_off_resonance(k, p):
    sets = corollary_index_sets(k, p)
    assert len(sets) == (1 if p == 1 and k < 3 else 2)
    assert sum(o.c * o.q for o in sets[0]) % k == 0
    for ops in sets[1:]:
        assert sum(o.c * o.q for o in ops) % k != 0
