"""Dense Fock-space numerics: JW matrices, conversions, reductions,
spectral helpers and state checks."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fermicert
from conftest import (fresh_process_output, independent_ladder,
                      independent_majoranas, mask_of, random_density_matrix,
                      random_even_density_matrix, random_expansion,
                      scipy_blocks, word_matrix_oracle)
from fermicert.algebra import (OperatorExpansion, SystemShape,
                               expansion_from_text, expansion_to_text)
from fermicert import fock
from fermicert.fock import (MODE_CAP_ENV, DenseOperator, ResourceCapError,
                            check_state, diagonal_blocks,
                            global_parity_signs, hermitian_eig,
                            hermiticity_residual, jw_matrix, occupations,
                            operator_norm, partial_trace_sites,
                            permutation_unitary, real_if_exact,
                            reduce_expansion, require_hermitian,
                            signed_permutation,
                            to_expansion, to_matrices, to_matrix,
                            trace_norm,
                            word_expectations_dense, word_terms,
                            xor_terms)
from fermicert.invariance import (MuFamilyParams, mu_family_state,
                                  words_up_to_degree)
from fermicert.meanfield import (BUILTIN_FAMILIES,
                                 build_hamiltonian_expansion, builtin_family,
                                 ground_state_lowdim)
from fermicert.suites import SMALL_SHAPES

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_hermitian_word_is_the_phased_matrix(self, p):
        # Phase 1 or i by the word's degree, and bit for bit the two forms
        # the witness basis and the one-word minimum built before: the
        # matrix itself or 1j times it, and phase times it.
        sh = SystemShape(1, p)
        for mask in range(1, 1 << (2 * p)):
            phase, h = fock.hermitian_word(mask, sh)
            m = jw_matrix(mask, sh).matrix
            assert phase == (1.0 if mask.bit_count() % 4 in (0, 1) else 1j)
            basis_form = m if phase == 1.0 else 1j * m
            assert h.dtype == np.complex128
            assert h.tobytes() == basis_form.tobytes()
            assert h.tobytes() == (phase * m).tobytes()
            assert np.array_equal(h, h.conj().T)

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


def exact_matrix(mask, vals):
    """The dense matrix with row a's single entry vals[a] at a ^ mask."""
    rows = np.arange(len(vals))
    out = np.zeros((len(vals), len(vals)), dtype=np.complex128)
    out[rows, rows ^ mask] = vals
    return out


def terms_oracle(terms):
    """The dense matrix of XOR terms, one term at a time."""
    return sum(exact_matrix(m, v) for m, v in zip(*terms))


class TestPauliStrings:
    # The batched kernel against the kron-product oracle of conftest.  All
    # entries are 0, +-1 or +-i, so the comparisons are exact.

    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_every_word_of_the_small_shapes(self, shape):
        masks = range(1 << shape.majorana_count)
        xs, vals = word_terms(masks, shape)
        for mask in masks:
            assert np.array_equal(exact_matrix(xs[mask], vals[mask]),
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
        xs, vals = word_terms(masks, shape)
        for t, mask in enumerate(masks):
            assert np.array_equal(exact_matrix(xs[t], vals[t]),
                                  word_matrix_oracle(mask, shape))

    def test_mask_outside_the_shape_rejected(self):
        with pytest.raises(ValueError):
            word_terms([1 << 4], SystemShape(2, 1))
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
        # V = 6 is the next test's.
        for V in (3, 4, 5):
            h_exp, _ = build_hamiltonian_expansion(builtin_family(name, V))
            masks, vals = xor_terms(h_exp)
            # Each X pattern is listed once, ascending, so the
            # one-term-at-a-time oracle writes each entry once.
            assert np.all(masks[1:] > masks[:-1])
            assert np.array_equal(terms_oracle((masks, vals)),
                                  to_matrix(h_exp).matrix)

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_summed_hamiltonian_at_six_sites(self, name):
        # site-number and hubbard-like have V words per X pattern; their
        # sums keep to_matrix's sequential order, so every entry is
        # bit-equal.
        h_exp, _ = build_hamiltonian_expansion(builtin_family(name, 6))
        assert np.array_equal(terms_oracle(xor_terms(h_exp)),
                              to_matrix(h_exp).matrix)


class TestToMatrices:
    # The stacked build against one to_matrix call per expansion, bit for
    # bit: stacking must not change how any matrix's entries are summed.

    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_stack_equals_one_call_per_expansion(self, shape, rng):
        ops = [random_expansion(shape, rng, n_terms=n) for n in (5, 0, 9, 1)]
        ops.append(OperatorExpansion(shape, {}))
        mats = to_matrices(ops)
        assert mats.shape == (len(ops), shape.fock_dim, shape.fock_dim)
        for op, mat in zip(ops, mats):
            assert np.array_equal(mat, to_matrix(op).matrix)
        assert not mats[-1].any()

    def test_batch_boundaries_inside_an_expansion(self, rng):
        # Each expansion holds one and a half batches, so batch edges fall
        # inside both and at other term positions than in a one-op call.
        shape = SystemShape(10, 1)
        step = fock._BATCH_ENTRIES // shape.fock_dim
        ops = [random_expansion(shape, rng, n_terms=3 * step // 2)
               for _ in range(2)]
        assert all(len(op.terms) > step for op in ops)
        for op, mat in zip(ops, to_matrices(ops)):
            assert np.array_equal(mat, to_matrix(op).matrix)

    def test_adds_in_term_order(self, rng):
        # Words that share an X pattern write the same entries: each
        # matrix is the term-by-term sum of its words, in term order, bit
        # for bit.
        shape = SystemShape(2, 2)
        masks = rng.choice(1 << shape.majorana_count, size=4,
                           replace=False).tolist()
        masks += [m ^ 0b11 for m in masks[:3]]
        op = OperatorExpansion(shape, {m: complex(*rng.standard_normal(2))
                                       for m in masks})
        xs, vals = word_terms(list(op.terms), shape)
        assert len(set(xs.tolist())) < len(xs)
        want = np.zeros((16, 16), dtype=np.complex128)
        for x, coeff, val in zip(xs, op.terms.values(), vals):
            want += exact_matrix(x, coeff * val)
        assert np.array_equal(to_matrices([op, op])[1], want)

    def test_empty_list_and_mixed_shapes_rejected(self):
        with pytest.raises(ValueError):
            to_matrices([])
        with pytest.raises(ValueError):
            to_matrices([OperatorExpansion(SystemShape(2, 1), {1: 1.0}),
                         OperatorExpansion(SystemShape(1, 2), {1: 1.0})])


class TestXorTerms:
    # The summed XOR terms against the dense matrix, entry for entry.

    def test_sum_keeps_the_matrix(self, rng):
        # Words that share an X pattern are added in term order, as
        # to_matrix adds them: the dense matrix of the rows is
        # to_matrix's bit for bit.
        shape = SystemShape(2, 2)
        masks = rng.choice(1 << shape.majorana_count, size=4,
                           replace=False).tolist()
        masks += [m ^ 0b11 for m in masks[:3]]
        masks += [m ^ 0b1100 for m in masks[:2]]
        op = OperatorExpansion(shape, {m: complex(*rng.standard_normal(2))
                                       for m in masks})
        summed = xor_terms(op)
        assert len(summed[0]) < len(op.terms)
        assert np.array_equal(terms_oracle(summed), to_matrix(op).matrix)
        empty = xor_terms(OperatorExpansion(shape, {}))
        assert empty[0].shape == (0,) and empty[1].shape == (0, 16)

    def test_rows_equal_to_matrix_on_random_expansions(self, rng):
        # Three or more words of one X pattern: np.add.reduceat grouped
        # such runs otherwise than to_matrix's sequential np.add.at and
        # differed in the last bit on some of these draws.
        shared = 0
        for _ in range(200):
            op = random_expansion(SystemShape(2, 2), rng, n_terms=6)
            xs = word_terms(list(op.terms), op.shape)[0]
            shared += np.bincount(xs).max() >= 3
            masks, vals = xor_terms(op)
            assert masks.tolist() == sorted(set(xs.tolist()))
            assert np.array_equal(terms_oracle((masks, vals)),
                                  to_matrix(op).matrix)
        assert shared > 0

    @pytest.mark.parametrize("name", BUILTIN_FAMILIES)
    def test_blocks_of_the_summed_terms_are_the_dense_blocks(self, name):
        # diagonal_blocks on the summed word terms against scipy's
        # components of the dense matrix: the same blocks holding the same
        # entries.
        h_exp, _ = build_hamiltonian_expansion(builtin_family(name, 4))
        assert_same_blocks(xor_terms(h_exp), to_matrix(h_exp).matrix)

    @pytest.mark.parametrize("name, V", [
        (name, V) for name in BUILTIN_FAMILIES if name != "hubbard-like"
        for V in (6, 8)])
    def test_blocks_at_six_and_eight_sites(self, name, V):
        # The same at V = 6 and 8 for the one-mode families; hubbard-like's
        # dense matrix at V = 6 would be a 256 MB array.
        h_exp, _ = build_hamiltonian_expansion(builtin_family(name, V))
        assert_same_blocks(xor_terms(h_exp), to_matrix(h_exp).matrix)


def assert_same_blocks(terms, dense):
    """diagonal_blocks of the XOR terms and the scipy-labelled gather of
    their dense matrix (:func:`conftest.scipy_blocks`) give the same
    blocks in the same order, block by block: equal ``idx`` rows and, bit
    for bit, equal blocks (real terms give the real parts of the dense
    blocks), however diagonal_blocks chunks each size."""
    from_terms = single_blocks(diagonal_blocks(terms))
    from_dense = single_blocks(scipy_blocks(dense))
    assert len(from_terms) == len(from_dense)
    for (rows_t, block_t), (rows_d, block_d) in zip(from_terms, from_dense):
        assert np.array_equal(rows_t, rows_d)
        block_d = real_if_exact(block_d)
        assert (block_t.dtype, block_t.shape) == (block_d.dtype,
                                                  block_d.shape)
        assert block_t.tobytes() == block_d.tobytes()


def chunk_budget(terms, shapes):
    """The most entries a stack of :func:`fock.diagonal_blocks` may hold:
    the square of the largest block size among the stack ``shapes``, or
    the size of the XOR rows of ``terms`` (at least one row) if larger."""
    masks, vals = terms
    return max(max(shape[-1] for shape in shapes) ** 2,
               max(len(masks), 1) * vals.shape[1])


def single_blocks(stacks):
    """The ``(rows, block)`` of each block of ``(idx, stack)`` pairs, in
    order."""
    return [(rows, block) for idx, stack in stacks
            for rows, block in zip(idx, stack)]


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

    def test_hermiticity_of_an_expansion(self):
        # An expansion's residual is the largest |c - c'| between a
        # coefficient and its adjoint's, reversal sign included: i m1 m2
        # is Hermitian, m1 m2 anti-Hermitian, and (0.5 + i) m1 m2 is off
        # by its real part twice over.
        shape = SystemShape(2, 1)
        m12 = mask_of(shape, (1, 1), (1, 2))

        def residual(terms):
            return hermiticity_residual(OperatorExpansion(shape, terms))

        assert residual({}) == 0.0
        assert residual({0: 1.0, m12: 1j}) == 0.0
        assert residual({m12: 1.0}) == 2.0
        assert residual({0: 1.0, m12: 0.5 + 1j}) == 1.0
        with pytest.raises(ValueError, match=re.escape(
                "H is not Hermitian (residual 2.000e+00 above 1e-10)")):
            require_hermitian(OperatorExpansion(shape, {m12: 1.0}), "H")

    def test_expansion_residual_reads_no_fock_array(self):
        # Hubbard-like at V = 6 acts on 4096 basis states; its residual
        # reads the 66 coefficients, in less scratch than one real row of
        # the Fock dimension.
        h_exp, _ = build_hamiltonian_expansion(builtin_family("hubbard-like",
                                                              6))
        tracemalloc.start()
        try:
            assert hermiticity_residual(h_exp) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * h_exp.shape.fock_dim

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

    def test_stacked_operator_norm_is_per_matrix(self, rng):
        stack = (rng.standard_normal((2, 3, 8, 8))
                 + 1j * rng.standard_normal((2, 3, 8, 8)))
        norms = operator_norm(stack)
        assert norms.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one = operator_norm(stack[idx])
            assert type(one) is float and norms[idx] == one


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
        # The minimum eigenvalue, read from the parity halves or from the
        # whole matrix, against one eigvalsh of the whole Hermitian part,
        # with the flags read independently: the mu family on both sides
        # of its positivity range, a non-positive fixture read back from
        # text, inputs that break parity or Hermiticity, even 2 x 2 and
        # 4 x 4 components whose minimum sits in the odd half, and a
        # cross-parity part that is anti-Hermitian, so that the Hermitian
        # part has no entry between the halves.
        small = []
        for p, even_half, odd_half in [
                (1, [[0.7]], [[0.3]]),
                (2, [[0.4, 0.1], [0.1, 0.3]], [[0.2, 0.05j], [-0.05j, 0.1]])]:
            shape = SystemShape(1, p)
            even, odd = fock.parity_sectors(shape)
            matrix = np.zeros((shape.fock_dim, shape.fock_dim), dtype=complex)
            matrix[np.ix_(even, even)] = even_half
            matrix[np.ix_(odd, odd)] = odd_half
            small.append((shape, matrix))
        for shape, matrix in small:
            validity = check_state(DenseOperator(shape, matrix))
            oracle = float(np.linalg.eigvalsh(matrix)[0])
            assert abs(validity.min_eigenvalue - oracle) < 1e-12
            assert validity.all_ok
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
        signs = global_parity_signs(sh)
        cross = (signs[:, None] != signs[None, :]) * (g - g.conj().T)
        inputs.append(random_even_density_matrix(sh, rng) + 0.01 * cross)
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


def reference_signed_permutation(pi, shape):
    """(image, sign) of a site permutation from the occupation table: the
    image by mapping each mode, the sign from the inversions counted over
    every occupied mode pair."""
    n = shape.total_modes
    p = shape.modes_per_site
    modes = np.arange(n)
    mode_map = (np.asarray(pi)[modes // p] - 1) * p + modes % p
    occupied = occupations(shape)
    image = occupied @ (1 << (n - 1 - mode_map))
    swapped = ((modes[:, None] < modes[None, :])
               & (mode_map[:, None] > mode_map[None, :])).astype(np.int64)
    inversions = np.einsum("am,mk,ak->a", occupied, swapped, occupied)
    return image, 1.0 - 2.0 * (inversions & 1)


def reference_permutation_unitary(pi, shape):
    """The dense permutation unitary as written before it became the
    scatter of :func:`fock.signed_permutation`: the bit-identity oracle."""
    image, sign = reference_signed_permutation(pi, shape)
    out = np.zeros((shape.fock_dim, shape.fock_dim), dtype=np.complex128)
    out[image, np.arange(shape.fock_dim)] = sign
    return out


class TestSignedPermutation:
    @pytest.mark.parametrize("V, p", [(V, p) for V in range(2, 7)
                                      for p in (1, 2)])
    def test_adjacent_transpositions_closed_form(self, V, p):
        # Swapping sites i and i+1 exchanges their p-bit blocks of the
        # basis index and passes n_i occupied modes over n_(i+1) others:
        # sign (-1)^(n_i n_(i+1)).
        shape = SystemShape(V, p)
        full = (1 << p) - 1
        for i in range(1, V):
            pi = list(range(1, V + 1))
            pi[i - 1], pi[i] = i + 1, i
            image, sign = signed_permutation(pi, shape)
            for b in range(shape.fock_dim):
                shift_i, shift_j = p * (V - i), p * (V - i - 1)
                block_i = (b >> shift_i) & full
                block_j = (b >> shift_j) & full
                swapped = (b & ~((full << shift_i) | (full << shift_j))
                           | block_j << shift_i | block_i << shift_j)
                n_i, n_j = bin(block_i).count("1"), bin(block_j).count("1")
                assert image[b] == swapped
                assert sign[b] == (-1.0) ** (n_i * n_j)

    @pytest.mark.parametrize("V, p", [(2, 1), (3, 1), (4, 1), (5, 1),
                                      (2, 2), (3, 2), (4, 2)])
    def test_unitary_is_its_scatter_bit_for_bit(self, V, p):
        shape = SystemShape(V, p)
        for pi in itertools.permutations(range(1, V + 1)):
            u = permutation_unitary(pi, shape).matrix
            assert np.array_equal(u, reference_permutation_unitary(pi, shape))
            image, sign = signed_permutation(pi, shape)
            f = np.arange(shape.fock_dim * 2, dtype=np.complex128).reshape(
                shape.fock_dim, 2)
            gathered = np.empty_like(f)
            gathered[image] = sign[:, None] * f
            assert np.array_equal(gathered, u @ f)

    @pytest.mark.parametrize("V, p", [(6, 2), (12, 1)])
    def test_random_permutations_match_the_oracle(self, V, p):
        # Fock dimension 4096, where the dense oracle unitary would be a
        # 256 MB array: image and sign are compared bit for bit instead.
        shape = SystemShape(V, p)
        rng = np.random.default_rng(V)
        for _ in range(10):
            pi = tuple((rng.permutation(V) + 1).tolist())
            image, sign = signed_permutation(pi, shape)
            want_image, want_sign = reference_signed_permutation(pi, shape)
            assert image.dtype == want_image.dtype
            assert np.array_equal(image, want_image)
            assert np.array_equal(sign, want_sign)


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
        # so many X patterns join no two support states.  Their gathered
        # vectors are exactly zero, so those words read exactly 0, and the
        # factor and dense routes agree on the rest.
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
        # A state with one zero row and column still joins support states
        # under every X pattern.  A matrix whose nonzero rows {1, 2, 4} and
        # columns {2, 4, 8} differ has nonzero gathered vectors under only
        # some, several of them only through an index outside the rows or
        # outside the columns.
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


def component_sets(labels):
    """The components of a labelling as sorted lists of vertices, sorted."""
    return sorted(np.flatnonzero(labels == c).tolist()
                  for c in np.flatnonzero(np.bincount(labels)))


class TestDiagonalBlocks:
    def test_blocks_are_the_connected_components(self, rng):
        # Against scipy's connected components as an independent oracle, on
        # random symmetric patterns from dense to chain-like: every index
        # lands in exactly one block, the blocks are the components, and
        # the blocks alone rebuild the matrix.
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        dim = 64
        basis = np.arange(dim)
        for density in (0.3, 0.05, 0.02, 0.0):
            upper = np.triu(rng.standard_normal((dim, dim))
                            * (rng.random((dim, dim)) < density), 1)
            dense = upper + upper.T + np.diag(rng.standard_normal(dim))
            _, labels = connected_components(sp.csr_matrix(dense != 0),
                                             directed=False)
            # The XOR form lists every position, explicit zeros too, which
            # must not join blocks: term x holds the entries [a, a ^ x].
            masks = np.arange(dim)
            rebuilt = np.zeros((dim, dim))
            found = []
            for idx, stack in diagonal_blocks(
                    (masks, dense[basis, basis ^ masks[:, None]])):
                assert stack.shape == (len(idx), idx.shape[1], idx.shape[1])
                for rows, block in zip(idx, stack):
                    rebuilt[np.ix_(rows, rows)] = block
                    found.append(rows.tolist())
            assert sorted(found) == component_sets(labels)
            assert np.array_equal(rebuilt, dense)

    def test_xor_labels_are_the_edge_list_labels(self, rng):
        # The propagation over XOR rows against scipy's components of the
        # same links as an edge list: random masks, sparse and dense,
        # one-sided links included (a row may hold [a, a ^ x] and not its
        # mirror).  The labels number the components in the order of their
        # smallest vertex.
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        dim = 64
        for density in (0.5, 0.1, 0.03, 0.0):
            masks = np.sort(rng.choice(dim, size=6, replace=False))
            link = rng.random((len(masks), dim)) < density
            partner = (np.arange(dim, dtype=np.int32)
                       ^ masks.astype(np.int32)[:, None])
            t, a = np.nonzero(link)
            edges = sp.coo_matrix((np.ones(len(a)), (a, partner[t, a])),
                                  shape=(dim, dim))
            _, want = connected_components(edges, directed=False)
            got = fock._xor_component_labels(partner, link)
            assert component_sets(got) == component_sets(want)
            firsts = [np.flatnonzero(got == c)[0]
                      for c in range(int(got.max()) + 1)]
            assert firsts == sorted(firsts)

    def test_explicit_zeros_join_no_blocks(self):
        # A row of explicit zeros links nothing, and a one-sided entry
        # links its pair as the dense matrix's nonzero entry does: the
        # XOR path gives scipy's blocks of the dense matrix bit for bit.
        dim = 8
        vals = np.zeros((3, dim))
        vals[0] = np.arange(1.0, dim + 1.0)  # the diagonal, mask 0
        vals[2, 1] = 0.5  # entry [1, 1 ^ 6] = [1, 7] only
        masks = np.array([0, 3, 6])
        dense = np.zeros((dim, dim))
        basis = np.arange(dim)
        for mask, row in zip(masks, vals):
            dense[basis, basis ^ mask] += row
        from_terms = list(diagonal_blocks((masks, vals)))
        from_dense = scipy_blocks(dense)
        assert [idx.tolist() for idx, _ in from_terms] == [
            [[1, 7]], [[0], [2], [3], [4], [5], [6]]]
        assert len(from_terms) == len(from_dense)
        for (idx_t, stack_t), (idx_d, stack_d) in zip(from_terms, from_dense):
            assert np.array_equal(idx_t, idx_d)
            assert stack_t.tobytes() == stack_d.tobytes()

    def test_hubbard_like_v6_chunks(self):
        # The budget is the largest block, 400^2 entries, above the
        # 31 x 4096 XOR rows: each 300 x 300 block is a chunk of its own,
        # the four 225 x 225 blocks come as 3 + 1, and every smaller size
        # fits in one chunk.  One stack per size would hold the four
        # 300 x 300 blocks, 360000 entries.
        h_exp, _ = build_hamiltonian_expansion(builtin_family("hubbard-like",
                                                              6))
        terms = xor_terms(h_exp)
        shapes = [stack.shape for _, stack in diagonal_blocks(terms)]
        assert shapes == [(1, 400, 400)] + [(1, 300, 300)] * 4 + [
            (3, 225, 225), (1, 225, 225), (4, 120, 120), (8, 90, 90),
            (4, 36, 36), (4, 20, 20), (8, 15, 15), (8, 6, 6), (4, 1, 1)]
        assert max(math.prod(shape) for shape in shapes) <= chunk_budget(
            terms, shapes)
        assert chunk_budget(terms, shapes) == 400 ** 2

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(2, 7), st.integers(0, 4),
           st.sampled_from([1.0, 0.6, 0.2]), st.integers(0, 2 ** 32 - 1))
    def test_chunks_hold_at_most_the_budget(self, n, count, density, seed):
        # Random XOR rows, from none and fully linked cosets to sparse
        # patterns: every stack holds at most max(s_max^2, rows x dim)
        # entries (no rows count as one), and the chunks together are
        # scipy's blocks of the dense matrix, in order and bit for bit.
        g = np.random.default_rng(seed)
        dim = 1 << n
        masks = np.sort(g.choice(dim, size=min(count, dim), replace=False))
        vals = np.where(g.random((len(masks), dim)) < density,
                        g.standard_normal((len(masks), dim)), 0.0)
        dense = np.zeros((dim, dim))
        basis = np.arange(dim)
        for mask, row in zip(masks, vals):
            dense[basis, basis ^ mask] = row
        shapes = [stack.shape for _, stack in diagonal_blocks((masks, vals))]
        budget = chunk_budget((masks, vals), shapes)
        assert all(math.prod(shape) <= budget for shape in shapes)
        assert_same_blocks((masks, vals), dense)

    def test_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use, 10-15 ms inside a
        # suite's wall time; the block sizes are found without it.
        code = ("import sys\n"
                "import numpy as np\n"
                "from fermicert.fock import diagonal_blocks\n"
                "vals = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 0, 0]])\n"
                "terms = (np.array([0, 1]), vals)\n"
                "sizes = [idx.shape[1] for idx, _ in diagonal_blocks(terms)]\n"
                "print(sizes, 'numpy.ma' in sys.modules)\n")
        assert fresh_process_output(code) == "[2, 1] False"


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
