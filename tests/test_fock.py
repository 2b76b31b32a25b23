"""Dense Fock-space numerics: JW matrices, conversions, reductions,
spectral helpers and state checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fermicert
from conftest import (independent_ladder, independent_majoranas,
                      random_density_matrix, random_even_density_matrix,
                      word_matrix_oracle)
from fermicert.algebra import (OperatorExpansion, SystemShape,
                               expansion_from_text, expansion_to_text,
                               random_expansion)
from fermicert.fock import (MODE_CAP_ENV, DenseOperator, ResourceCapError,
                            check_state, diagonal_blocks,
                            global_parity_signs, hermitian_eig,
                            hermiticity_residual, jw_matrix, occupations,
                            operator_norm, partial_trace_sites,
                            permutation_unitary, real_if_exact,
                            reduce_expansion, require_hermitian,
                            to_expansion, to_matrix, trace_norm,
                            word_expectations_dense, word_string_entries)
from fermicert.invariance import (MuFamilyParams, mu_family_state,
                                  words_up_to_degree)
from fermicert.meanfield import (BUILTIN_FAMILIES,
                                 build_hamiltonian_expansion, builtin_family,
                                 ground_state_lowdim, hamiltonian_sparse)
from fermicert.suites import SMALL_SHAPES

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def mask_of(shape, *indices):
    out = 0
    for site, mi in indices:
        out |= 1 << shape.bit_position(site, mi)
    return out


def moving_permutation(keep, sites):
    """The site permutation carrying ``keep``, in order, to sites 1..k."""
    order = list(keep) + [s for s in range(1, sites + 1) if s not in keep]
    pi = [0] * sites
    for new, old in enumerate(order, start=1):
        pi[old - 1] = new
    return pi


def moved_prefix_reduction(rho, keep):
    """Reduction to ``keep`` without the word basis: conjugate by the site
    permutation that carries the kept sites, in order, to sites 1..k, then
    take the tensor-factor partial trace over the trailing sites."""
    shape = rho.shape
    u = permutation_unitary(moving_permutation(keep, shape.sites),
                            shape).matrix
    moved = u @ rho.matrix @ u.conj().T
    dim_keep = 2 ** (shape.modes_per_site * len(keep))
    dim_rest = shape.fock_dim // dim_keep
    return np.einsum("ajbj->ab",
                     moved.reshape(dim_keep, dim_rest, dim_keep, dim_rest))


class TestJwMatrix:
    def test_identity_word(self):
        sh = SystemShape(1, 1)
        assert np.allclose(jw_matrix(0, sh).matrix, np.eye(2))

    def test_first_majorana_is_x(self):
        sh = SystemShape(1, 1)
        assert np.allclose(jw_matrix(1, sh).matrix, X)

    def test_string_on_second_site(self):
        sh = SystemShape(2, 1)
        m = jw_matrix(mask_of(sh, (2, 1)), sh).matrix
        assert np.allclose(m, np.kron(Z, X))

    def test_anticommutators_exact(self):
        sh = SystemShape(2, 2)
        n = sh.majorana_count
        mats = [jw_matrix(1 << g, sh).matrix for g in range(n)]
        for i in range(n):
            for j in range(n):
                anti = mats[i] @ mats[j] + mats[j] @ mats[i]
                want = 2.0 * np.eye(sh.fock_dim) if i == j else 0.0
                assert np.max(np.abs(anti - want)) == 0.0

    def test_unitary_words(self):
        sh = SystemShape(2, 1)
        for mask in range(16):
            m = jw_matrix(mask, sh).matrix
            assert np.allclose(m @ m.conj().T, np.eye(4))

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            jw_matrix(0, SystemShape(13, 1))
        # The package exports the same class.
        assert fermicert.ResourceCapError is ResourceCapError

    def test_cap_override(self, monkeypatch):
        # The environment variable is the one way to lift the cap.
        monkeypatch.setenv(MODE_CAP_ENV, "13")
        m = jw_matrix(0, SystemShape(13, 1))
        assert m.dim == 2 ** 13


def exact_matrix(cols, vals):
    """The dense matrix with row a's single entry vals[a] at cols[a]."""
    out = np.zeros((len(cols), len(cols)), dtype=np.complex128)
    out[np.arange(len(cols)), cols] = vals
    return out


class TestPauliStrings:
    # The batched kernel against the kron-product oracle of conftest.  All
    # entries are 0, +-1 or +-i, so the comparisons are exact.

    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_every_word_of_the_small_shapes(self, shape):
        masks = range(1 << shape.majorana_count)
        cols, vals = word_string_entries(masks, shape)
        for mask in masks:
            assert np.array_equal(exact_matrix(cols[mask], vals[mask]),
                                  word_matrix_oracle(mask, shape))

    @pytest.mark.parametrize("shape", [SystemShape(9, 1), SystemShape(3, 3)],
                             ids=str)
    def test_words_across_every_table_boundary(self, shape, rng):
        # 18 Majorana bits span three table bytes (bits 0-7, 8-15, 16-17);
        # every mask sets bits in all three, and two set both bits next to
        # each boundary.
        masks = [0b11 << 7 | 0b11 << 15, 1 | 1 << 8 | 1 << 17]
        for _ in range(4):
            bits = [int(rng.integers(0, 8)), int(rng.integers(8, 16)),
                    int(rng.integers(16, 18)), int(rng.integers(0, 18))]
            masks.append(sum(1 << b for b in set(bits)))
        cols, vals = word_string_entries(masks, shape)
        for t, mask in enumerate(masks):
            assert np.array_equal(exact_matrix(cols[t], vals[t]),
                                  word_matrix_oracle(mask, shape))

    def test_mask_outside_the_shape_rejected(self):
        with pytest.raises(ValueError):
            word_string_entries([1 << 4], SystemShape(2, 1))
        with pytest.raises(ValueError):
            jw_matrix(-1, SystemShape(2, 1))

    @pytest.mark.parametrize("shape", [SystemShape(2, 1), SystemShape(2, 2),
                                       SystemShape(3, 1)], ids=str)
    def test_to_matrix_of_random_expansions(self, shape, rng):
        assert not to_matrix(OperatorExpansion(shape, {})).matrix.any()
        n_bits = shape.majorana_count
        for _ in range(3):
            masks = rng.choice(1 << n_bits, size=4, replace=False).tolist()
            # m ^ 0b11 flips both Majoranas of the first mode, which keeps
            # the X pattern: these terms share one.
            masks += [m ^ 0b11 for m in masks[:2]]
            terms = {m: complex(rng.standard_normal(),
                                rng.standard_normal()) for m in masks}
            want = sum(c * word_matrix_oracle(m, shape)
                       for m, c in terms.items())
            got = to_matrix(OperatorExpansion(shape, terms)).matrix
            assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_sparse_hamiltonian_equals_dense(self, name):
        h_exp, _ = build_hamiltonian_expansion(builtin_family(name, 4))
        rows, cols, vals = hamiltonian_sparse(h_exp)
        # Each position is listed once, so assignment rebuilds the matrix.
        assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
        dense = np.zeros((h_exp.shape.fock_dim,) * 2, dtype=np.complex128)
        dense[rows, cols] = vals
        assert np.array_equal(dense, to_matrix(h_exp).matrix)


class TestConversions:
    def test_identity_roundtrip(self):
        sh = SystemShape(2, 1)
        ident = OperatorExpansion.identity(sh, 1.0 / sh.fock_dim)
        back = to_expansion(to_matrix(ident))
        assert back.is_close(ident)

    def test_random_roundtrip(self, rng):
        for sh in (SystemShape(2, 1), SystemShape(2, 2), SystemShape(4, 1)):
            a = random_expansion(sh, rng, n_terms=6)
            back = to_expansion(to_matrix(a))
            assert back.max_coeff_diff(a) < 1e-12

    def test_word_coefficient_orthogonality(self, rng):
        sh = SystemShape(2, 1)
        a = random_expansion(sh, rng, n_terms=5)
        coeffs = to_expansion(to_matrix(a)).terms
        for mask in range(16):
            assert abs(coeffs.get(mask, 0.0) - a.terms.get(mask, 0.0)) < 1e-12

    def test_mu_family_trace_one(self):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        dense = to_matrix(state)
        assert abs(np.trace(dense.matrix) - 1.0) < 1e-12


class TestPartialTrace:
    def test_product_reduces_to_factor(self, rng):
        sh1 = SystemShape(1, 1)
        xi = random_even_density_matrix(sh1, rng)
        big = DenseOperator(SystemShape(2, 1), np.kron(xi, xi))
        red = partial_trace_sites(big, 1)
        assert np.max(np.abs(red.matrix - xi)) < 1e-12

    def test_trace_preserved(self, rng):
        sh = SystemShape(3, 1)
        rho = DenseOperator(sh, random_density_matrix(sh.fock_dim, rng))
        for k in (1, 2, 3):
            red = partial_trace_sites(rho, k)
            assert abs(np.trace(red.matrix) - np.trace(rho.matrix)) < 1e-12

    def test_positivity_preserved(self, rng):
        sh = SystemShape(3, 1)
        rho = DenseOperator(sh, random_density_matrix(sh.fock_dim, rng))
        red = partial_trace_sites(rho, 2)
        assert float(np.linalg.eigvalsh(red.matrix)[0]) > -1e-12

    def test_mu_family_reduction_terms(self):
        # Reduction to two sites: identity/4 plus i tan(pi/12)/4 times the
        # two-site pair word.
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        red = reduce_expansion(state, 2)
        sh2 = red.shape
        t = math.tan(math.pi / 12.0)
        pair = mask_of(sh2, (1, 1), (2, 1))
        assert len(red) == 2
        assert abs(red.terms[0] - 0.25) < 1e-15
        assert abs(red.terms[pair] - 0.25j * t) < 1e-15
        dense_red = partial_trace_sites(to_matrix(state), 2)
        assert np.max(np.abs(dense_red.matrix - to_matrix(red).matrix)) < 1e-12

    @pytest.mark.parametrize("shape, keep", [
        (SystemShape(4, 1), [1, 3]), (SystemShape(4, 1), [2, 4]),
        (SystemShape(4, 1), [2, 3, 4]), (SystemShape(3, 2), [1, 3]),
        (SystemShape(3, 2), [2, 3])],
        ids=lambda v: (f"V{v.sites}p{v.modes_per_site}"
                       if isinstance(v, SystemShape)
                       else "keep" + "".join(map(str, v))))
    def test_nonprefix_matches_moved_prefix_oracle(self, rng, shape, keep):
        # Another site set is a relabeling away: permute the kept sites to
        # the front, then keep the first k.
        rho = DenseOperator(shape, random_even_density_matrix(shape, rng))
        want = moved_prefix_reduction(rho, keep)
        pi = moving_permutation(keep, shape.sites)
        got = reduce_expansion(to_expansion(rho).apply_permutation(pi),
                               len(keep))
        assert np.max(np.abs(to_matrix(got).matrix - want)) < 1e-12

    def test_empty_keep_rejected(self, rng):
        sh = SystemShape(2, 1)
        rho = DenseOperator(sh, random_density_matrix(4, rng))
        state = to_expansion(rho)
        for k in (0, sh.sites + 1):
            with pytest.raises(ValueError, match="outside"):
                partial_trace_sites(rho, k)
            with pytest.raises(ValueError, match="outside"):
                reduce_expansion(state, k)


class TestSpectral:
    def test_eig_diag(self):
        sh = SystemShape(1, 1)
        w, _ = hermitian_eig(DenseOperator(sh, np.diag([1.0, -1.0]).astype(complex)))
        assert np.allclose(w, [-1.0, 1.0])

    def test_eig_identity(self):
        sh = SystemShape(1, 1)
        w, _ = hermitian_eig(DenseOperator(sh, np.eye(2, dtype=complex)))
        assert np.allclose(w, [1.0, 1.0])

    def test_eig_reconstruction(self, rng):
        sh = SystemShape(2, 2)
        h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = 0.5 * (h + h.conj().T)
        w, v = hermitian_eig(DenseOperator(sh, h))
        assert np.max(np.abs(h - (v * w) @ v.conj().T)) < 1e-9

    def test_eig_rejects_non_hermitian(self):
        sh = SystemShape(1, 1)
        with pytest.raises(ValueError):
            hermitian_eig(DenseOperator(sh, np.array([[0, 1], [0, 0]],
                                                     dtype=complex)))

    def test_trace_norm_values(self):
        sh = SystemShape(1, 1)
        assert trace_norm(DenseOperator(sh, np.diag([1.0, -1.0]).astype(complex))) == 2.0
        zero = DenseOperator(sh, np.zeros((2, 2), dtype=complex))
        assert trace_norm(zero) == 0.0
        proj_diff = np.diag([1.0, -1.0]).astype(complex)
        assert trace_norm(DenseOperator(sh, proj_diff)) == 2.0

    def test_trace_norm_rejects_non_hermitian(self):
        sh = SystemShape(1, 1)
        with pytest.raises(ValueError):
            trace_norm(DenseOperator(sh, np.array([[0, 2], [0, 0]],
                                                  dtype=complex)))

    def test_hermiticity_of_a_stack(self, rng):
        # The residual of a stack is the largest over its matrices, with
        # the adjoint taken on the last two axes only.
        g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        stack = g + g.conj().swapaxes(1, 2)
        assert hermiticity_residual(stack) == 0.0
        require_hermitian(stack, "stack")
        stack[1, 0, 3] += 1e-6
        assert hermiticity_residual(stack) == pytest.approx(1e-6)
        with pytest.raises(ValueError, match="stack is not Hermitian"):
            require_hermitian(stack, "stack")

    def test_real_if_exact(self, rng):
        # Real exactly when no imaginary part is nonzero; no tolerance.
        mat = rng.standard_normal((4, 4)).astype(np.complex128)
        real = real_if_exact(mat)
        assert real.dtype == np.float64 and np.array_equal(real, mat)
        assert real_if_exact(real) is real
        mat[2, 1] += 1e-300j
        assert real_if_exact(mat) is mat

    def test_operator_norm(self, rng):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert abs(operator_norm(a)
                   - np.linalg.svd(a, compute_uv=False)[0]) < 1e-10


class TestCheckState:
    def test_maximally_mixed(self):
        sh = SystemShape(2, 1)
        validity = check_state(DenseOperator(sh, np.eye(4, dtype=complex) / 4))
        assert validity.all_ok

    def test_odd_perturbation_breaks_parity(self):
        sh = SystemShape(1, 1)
        bad = np.eye(2, dtype=complex) / 2 + 0.1 * X
        validity = check_state(DenseOperator(sh, bad))
        assert not validity.parity_ok

    def test_mu_family_positivity_range(self):
        # Frozen oracle values: the family is positive at mu = 0.5 but not
        # at mu = 1 (minimum eigenvalue (1 - tan(pi/12) * 5) / 64).
        ok = check_state(to_matrix(mu_family_state(MuFamilyParams(6, 1, 0.5))))
        assert ok.all_ok
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        validity = check_state(to_matrix(state))
        assert validity.trace_ok and validity.parity_ok
        assert not validity.positive_ok
        expected_min = (1.0 - math.tan(math.pi / 12.0) * 5.0) / 64.0
        assert abs(validity.min_eigenvalue - expected_min) < 1e-12

    def test_blockwise_minimum_matches_full_eigvalsh(self, tmp_path, rng):
        # The blockwise minimum eigenvalue against one eigvalsh of the whole
        # Hermitian part, with the flags read independently: the mu family
        # on both sides of its positivity range, a non-positive fixture read
        # back from text, and inputs that break parity or Hermiticity (one
        # block).
        sh = SystemShape(6, 1)
        inputs = [to_matrix(mu_family_state(MuFamilyParams(6, 1, mu),
                                            validate=False)).matrix
                  for mu in (1.0, 0.5, -1.0)]
        word = mask_of(sh, (1, 1), (2, 1), (3, 1), (4, 2))
        bad = OperatorExpansion(sh, {0: 1.0 / 64, word: 0.05})
        fixture = tmp_path / "state.txt"
        fixture.write_text(expansion_to_text(bad))
        inputs.append(to_matrix(expansion_from_text(fixture.read_text(),
                                                    sh)).matrix)
        # Particle-number blocks of sizes C(6, n): the minimum sits in one
        # of the larger blocks.
        counts = np.array([bin(b).count("1") for b in range(sh.fock_dim)])
        g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        inputs.append((g + g.conj().T) * (counts[:, None] == counts[None, :])
                      / 64)
        noisy = random_density_matrix(sh.fock_dim, rng)
        inputs.append(noisy - 0.02 * np.eye(sh.fock_dim))
        inputs.append(noisy + 0.01j * np.triu(noisy))
        for matrix in inputs:
            validity = check_state(DenseOperator(sh, matrix))
            herm = 0.5 * (matrix + matrix.conj().T)
            oracle = float(np.linalg.eigvalsh(herm)[0])
            assert abs(validity.min_eigenvalue - oracle) < 1e-12
            assert validity.positive_ok == (
                oracle >= -1e-10
                and np.max(np.abs(matrix - matrix.conj().T)) < 1e-9)
            signs = global_parity_signs(sh)
            assert validity.parity_ok == bool(np.allclose(
                signs[:, None] * matrix * signs[None, :], matrix,
                rtol=0, atol=1e-10))
        assert not check_state(DenseOperator(sh, inputs[3])).positive_ok

    def test_global_parity_signs(self):
        sh = SystemShape(2, 1)
        assert np.allclose(global_parity_signs(sh), [1, -1, -1, 1])


OCCUPATION_SHAPES = [SystemShape(3, 1), SystemShape(2, 2), SystemShape(1, 3),
                     SystemShape(4, 1)]


@pytest.mark.parametrize("sh", OCCUPATION_SHAPES, ids=str)
def test_occupations_match_number_operators(sh):
    # Column m is the diagonal of f_m-dagger f_m from the kron chain, and
    # the global parity is prod_m (1 - 2 n_m).
    n = sh.total_modes
    numbers = np.array([np.diag(f.conj().T @ f).real for f in
                        (independent_ladder(n, m) for m in range(n))]).T
    occ = occupations(sh)
    assert occ.shape == (sh.fock_dim, n)
    assert np.array_equal(occ, numbers)
    assert np.array_equal(global_parity_signs(sh),
                          np.prod(1 - 2 * numbers, axis=1))


class TestEvenChannelDense:
    def test_trace_and_positivity_preserved(self, rng):
        # The site-wise even pinching is a quantum channel.
        sh = SystemShape(3, 1)
        for _ in range(10):
            rho = random_density_matrix(sh.fock_dim, rng)
            exp = to_expansion(DenseOperator(sh, rho))
            pinched = to_matrix(exp.even_channel()).matrix
            assert abs(np.trace(pinched) - np.trace(rho)) < 1e-10
            assert float(np.linalg.eigvalsh(
                0.5 * (pinched + pinched.conj().T))[0]) > -1e-10

    def test_pinch_norm_bound(self, rng):
        # Operator norm never grows under either parity projection.
        for _ in range(20):
            sh = SystemShape(2, 2)
            a = random_expansion(sh, rng, n_terms=6)
            na = operator_norm(to_matrix(a).matrix)
            site = int(rng.integers(1, 3))
            for sign in "+-":
                nc = operator_norm(to_matrix(a.parity_project(site, sign)).matrix)
                assert nc <= na + 1e-9


class TestCauchySchwarz:
    def test_random_instances(self, rng):
        for _ in range(40):
            sh = SystemShape(2, 1)
            rho = random_density_matrix(sh.fock_dim, rng)
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lhs = abs(np.trace(rho @ a)) ** 2
            rhs = float(np.real(np.trace(rho @ a @ a.conj().T)))
            assert lhs <= rhs + 1e-9


class TestPermutationUnitary:
    def test_conjugation_realizes_relabeling(self, rng):
        for sh in (SystemShape(3, 1), SystemShape(2, 2)):
            for _ in range(5):
                pi = tuple(int(x) + 1 for x in rng.permutation(sh.sites))
                u = permutation_unitary(pi, sh).matrix
                assert np.allclose(u @ u.conj().T, np.eye(sh.fock_dim))
                a = random_expansion(sh, rng, n_terms=5)
                lhs = to_matrix(a.apply_permutation(pi)).matrix
                rhs = u @ to_matrix(a).matrix @ u.conj().T
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_single_majorana_images(self):
        sh = SystemShape(2, 1)
        u = permutation_unitary((2, 1), sh).matrix
        m1 = jw_matrix(mask_of(sh, (1, 1)), sh).matrix
        m2 = jw_matrix(mask_of(sh, (2, 1)), sh).matrix
        assert np.allclose(u @ m1 @ u.conj().T, m2)
        assert np.allclose(u @ m2 @ u.conj().T, m1)


class TestExpectationDense:
    def test_matches_expansion(self, rng):
        sh = SystemShape(2, 2)
        a = random_expansion(sh, rng, n_terms=5)
        dense = to_matrix(a).matrix
        masks = range(0, 256, 11)
        values = word_expectations_dense(dense, masks, sh)
        for mask in masks:
            oracle = np.trace(dense @ word_matrix_oracle(mask, sh))
            assert abs(values[mask] - oracle) < 1e-12

    def test_unreachable_patterns_are_exact_zeros(self):
        # The hubbard-like V = 4 ground space lives in one number sector,
        # so many X patterns join no two support states.  Those words read
        # exactly 0, and the factor and dense routes agree on the rest.
        h_exp, _ = build_hamiltonian_expansion(builtin_family("hubbard-like",
                                                              4))
        _, ground = ground_state_lowdim(h_exp)
        shape, factor = ground.shape, ground.matrix
        rho = factor @ factor.conj().T / factor.shape[1]
        masks = list(words_up_to_degree(shape, 4))
        from_factor = word_expectations_dense(factor, masks, shape,
                                              factor=True)
        from_matrix = word_expectations_dense(rho, masks, shape)
        assert max(abs(from_factor[m] - from_matrix[m]) for m in masks) < 1e-15
        support = set(np.flatnonzero(np.abs(factor).sum(axis=1)).tolist())
        majoranas = independent_majoranas(shape.total_modes)
        unreachable = 0
        for mask in masks:
            # The oracle word's X pattern: the column of row 0's entry.
            row = np.eye(shape.fock_dim)[0]
            for g in range(shape.majorana_count):
                if (mask >> g) & 1:
                    row = row @ majoranas[g]
            x = int(np.flatnonzero(row)[0])
            if not any(b ^ x in support for b in support):
                unreachable += 1
                assert from_factor[mask] == 0 and from_matrix[mask] == 0
        assert 0 < unreachable < len(masks)

    def test_dense_matrices_with_zero_rows_and_columns(self, rng):
        # A state with one zero row and column still reaches every X
        # pattern.  A matrix whose nonzero rows {1, 2, 4} and columns
        # {2, 4, 8} differ reaches only some, several of them only through
        # an index outside the rows or outside the columns.
        sh = SystemShape(2, 2)
        state = random_even_density_matrix(sh, rng)
        state[5, :] = 0.0
        state[:, 5] = 0.0
        corner = np.zeros((sh.fock_dim, sh.fock_dim), dtype=np.complex128)
        corner[np.ix_([1, 2, 4], [2, 4, 8])] = (
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        masks = range(1 << sh.majorana_count)
        for matrix in (state, corner):
            values = word_expectations_dense(matrix, masks, sh)
            for mask in masks:
                oracle = np.trace(matrix @ word_matrix_oracle(mask, sh))
                assert abs(values[mask] - oracle) < 1e-12


class TestDiagonalBlocks:
    def test_blocks_are_the_connected_components(self, rng):
        # Against scipy's connected components as an independent oracle, on
        # random symmetric patterns from dense to chain-like: every index
        # lands in exactly one block, the blocks are the components, and
        # the blocks alone rebuild the matrix.
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        dim = 60
        for density in (0.3, 0.05, 0.02, 0.0):
            upper = np.triu(rng.standard_normal((dim, dim))
                            * (rng.random((dim, dim)) < density), 1)
            dense = upper + upper.T + np.diag(rng.standard_normal(dim))
            _, labels = connected_components(sp.csr_matrix(dense != 0),
                                             directed=False)
            want = sorted(sorted(np.flatnonzero(labels == c).tolist())
                          for c in set(labels.tolist()))
            # The stored entries of the triple form hold explicit zeros
            # too, which must not join blocks.
            every = np.nonzero(np.ones((dim, dim)))
            triple = (*every, dense[every])
            for matrix, size in ((dense, None), (triple, dim)):
                rebuilt = np.zeros((dim, dim))
                found = []
                for idx, stack in diagonal_blocks(matrix, size):
                    assert stack.shape == (len(idx), idx.shape[1],
                                           idx.shape[1])
                    for rows, block in zip(idx, stack):
                        rebuilt[np.ix_(rows, rows)] = block
                        found.append(rows.tolist())
                assert sorted(found) == want
                assert np.array_equal(rebuilt, dense)


@st.composite
def factored_states(draw):
    """(shape, F): an orthonormal dim x r factor of a random rank-r state.
    Half the draws zero most entries first, so that F has zero rows and
    its columns differ in support."""
    shape = SystemShape(*draw(st.sampled_from([(3, 1), (2, 2), (4, 1)])))
    r = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    zeroed = draw(st.sampled_from([0.0, 0.7]))
    g = np.random.default_rng(seed)
    a = (g.standard_normal((shape.fock_dim, r))
         + 1j * g.standard_normal((shape.fock_dim, r)))
    a[g.random(a.shape) < zeroed] = 0.0
    return shape, np.linalg.qr(a)[0]


class TestWordExpectationsFactor:
    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(factored_states())
    def test_factor_matches_dense_matrix(self, case):
        # A factor F gives the expectations of F F-dagger / r, word for
        # word, without the dim x dim matrix.
        shape, factor = case
        rho = factor @ factor.conj().T / factor.shape[1]
        masks = range(1 << shape.majorana_count)
        from_factor = word_expectations_dense(factor, masks, shape,
                                              factor=True)
        from_matrix = word_expectations_dense(rho, masks, shape)
        assert from_factor.keys() == from_matrix.keys()
        assert max(abs(from_factor[m] - from_matrix[m])
                   for m in masks) < 1e-12


class TestIndependentOracleAgreement:
    def test_majorana_definitions(self):
        # The package Majoranas equal f† + f and i(f† - f) built from the
        # explicit ladder chain.
        sh = SystemShape(2, 2)
        mats = independent_majoranas(sh.total_modes)
        for g in range(sh.majorana_count):
            assert np.allclose(jw_matrix(1 << g, sh).matrix, mats[g])
