"""Quadratic Hermitian Majorana operators read from their levels, against
the eigenvalues of their dense matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermicert.algebra import OperatorExpansion, SystemShape
from fermicert.fock import check_state, to_matrix, trace_norm
from fermicert.invariance import MuFamilyParams, mu_family_state
from fermicert.quadratic import QuadraticForm


def quadratic_expansion(shape, c0, A):
    """c0 + sum_{a<b} i A_ab m_a m_b as an expansion."""
    n = shape.majorana_count
    terms = {0: c0}
    for a in range(n):
        for b in range(a + 1, n):
            terms[(1 << a) | (1 << b)] = 1j * A[a, b]
    return OperatorExpansion(shape, terms)


@st.composite
def quadratics(draw):
    """(shape, c0, A): a shape of at most 8 modes, a real c0 and a real
    antisymmetric A with none, half or most of its entries zeroed, so that
    degenerate and zero levels are drawn too."""
    shape = SystemShape(*draw(st.sampled_from(
        [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (4, 1), (2, 3), (6, 1),
         (4, 2), (8, 1)])))
    n = shape.majorana_count
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zeroed = draw(st.sampled_from([0.0, 0.5, 0.9]))
    upper = g.uniform(-1.0, 1.0, (n, n))
    upper[g.random((n, n)) < zeroed] = 0.0
    A = np.triu(upper, 1)
    return shape, draw(st.floats(-2.0, 2.0)), A - A.T


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(quadratics())
    def test_levels_give_the_dense_spectrum(self, drawn):
        shape, c0, A = drawn
        op = quadratic_expansion(shape, c0, A)
        form = QuadraticForm.from_expansion(op)
        assert form is not None
        dense = to_matrix(op)
        assert form.trace_norm() == pytest.approx(trace_norm(dense),
                                                  rel=1e-12, abs=1e-12)
        assert form.min_eigenvalue() == pytest.approx(
            np.linalg.eigvalsh(dense.matrix)[0], abs=1e-12)

    def test_levels_of_one_pair(self):
        # 0.25 + 0.5 i m_1 m_2 has eigenvalues 0.75 and -0.25 on one mode.
        form = QuadraticForm.from_expansion(
            OperatorExpansion(SystemShape(1, 1), {0: 0.25, 0b11: 0.5j}))
        assert form.levels().tolist() == pytest.approx([0.5])
        assert form.trace_norm() == pytest.approx(1.0)
        assert form.min_eigenvalue() == pytest.approx(-0.25)


class TestFromExpansion:
    @pytest.mark.parametrize("terms", [
        {0: 1.0 + 1e-3j},               # complex identity coefficient
        {0: 1.0, 0b11: 0.5},            # real pair coefficient
        {0: 1.0, 0b11: 0.5 + 0.5j},     # pair coefficient with a real part
        {0: 1.0, 0b1: 0.5},             # degree 1
        {0: 1.0, 0b111: 0.5j},          # degree 3
        {0: 1.0, 0b1111: 0.5},          # degree 4, Hermitian
    ], ids=["complex-c0", "real-pair", "complex-pair", "degree-1",
            "degree-3", "degree-4"])
    def test_anything_but_a_hermitian_quadratic_is_refused(self, terms):
        op = OperatorExpansion(SystemShape(2, 1), terms)
        assert QuadraticForm.from_expansion(op) is None

    def test_zero_is_quadratic(self):
        form = QuadraticForm.from_expansion(
            OperatorExpansion(SystemShape(2, 1)))
        assert form.c0 == 0.0 and not form.A.any()
        assert form.trace_norm() == 0.0


class TestStateValidity:
    # mu*(6) ~ 0.746 is where the V = 6 family stops being positive.
    @pytest.mark.parametrize("mu", [0.0, 0.5, -0.5, 0.74, -0.74, 0.75,
                                    -0.75, 1.0, -1.0])
    def test_matches_the_dense_check_on_both_sides_of_mu_star(self, mu):
        state = mu_family_state(MuFamilyParams(6, 1, mu), validate=False)
        closed = QuadraticForm.from_expansion(state).state_validity()
        dense = check_state(to_matrix(state))
        assert (closed.trace_ok, closed.positive_ok, closed.parity_ok) == (
            dense.trace_ok, dense.positive_ok, dense.parity_ok)
        assert closed.positive_ok == (abs(mu) < 0.746)
        assert closed.min_eigenvalue == pytest.approx(dense.min_eigenvalue,
                                                      abs=1e-12)
        assert closed.trace_value == pytest.approx(dense.trace_value,
                                                   abs=1e-12)

    def test_trace_off_one_is_flagged(self):
        shape = SystemShape(2, 1)
        closed = QuadraticForm.from_expansion(OperatorExpansion(
            shape, {0: 0.5 / shape.fock_dim})).state_validity()
        assert not closed.trace_ok and closed.trace_value == 0.5
        assert closed.positive_ok and closed.parity_ok
