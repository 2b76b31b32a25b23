"""Product-power machinery, the mixture optimizer and its certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_even_density_matrix, word_matrix_oracle
from fermicert import definetti, suites
from fermicert.algebra import SystemShape
from fermicert.cumulants import LadderIndex, cumulant
from fermicert.definetti import (EXACT_HIT, GENERATOR_BOX, STOP_GAP,
                                 MixtureFit, ProductMixture,
                                 _MixtureOptimizer, best_mixture_approx,
                                 component_state,
                                 coordinate_search, even_hermitian_basis,
                                 hamming_power,
                                 mixture_diagnostics, mixture_matrix,
                                 n_component_params, params_from_state,
                                 parity_blocks, product_power,
                                 project_simplex, theorem1_bound,
                                 verify_theorem1)
from fermicert.fock import (DenseOperator, ResourceCapError, check_state,
                            global_parity_signs, trace_norm)
from fermicert.invariance import MuFamilyParams, check_invariance, mu_family_state
from fermicert.suites import (run_gs_bound, run_verify_corollary,
                              run_verify_theorem1)

TAN6 = math.tan(math.pi / 12.0)


class TestProductPower:
    def test_k1_is_itself(self, rng):
        xi = DenseOperator(SystemShape(1, 1),
                           np.diag([0.3, 0.7]).astype(complex))
        assert np.allclose(product_power(xi, 1).matrix, xi.matrix)

    def test_vacuum_squared(self):
        vac = DenseOperator(SystemShape(1, 1),
                            np.diag([1.0, 0.0]).astype(complex))
        power = product_power(vac, 2)
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = 1.0
        assert np.allclose(power.matrix, want)

    def test_factorization_identity(self, rng):
        # Mixed-site correlations of even states factorize site by site.
        sh1 = SystemShape(1, 1)
        xi_mat = random_even_density_matrix(sh1, rng)
        xi = DenseOperator(sh1, xi_mat)
        power = product_power(xi, 2)
        sh2 = power.shape
        for mask in range(1, 16):
            whole = np.trace(power.matrix @ word_matrix_oracle(mask, sh2))
            part1 = np.trace(xi_mat @ word_matrix_oracle(mask & 0b11, sh1))
            part2 = np.trace(xi_mat @ word_matrix_oracle((mask >> 2) & 0b11,
                                                         sh1))
            assert abs(whole - part1 * part2) < 1e-12

    def test_cap(self):
        xi = DenseOperator(SystemShape(1, 2), np.eye(4, dtype=complex) / 4)
        with pytest.raises(ResourceCapError):
            product_power(xi, 7)

    def test_bad_k(self):
        xi = DenseOperator(SystemShape(1, 1), np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            product_power(xi, 0)

    def test_hamming_power_matches_kron(self):
        for k in range(1, 6):
            weight = [bin(b).count("1") for b in range(1 << k)]
            for alpha in (0.0, 0.3, 0.5, 0.85, 1.0):
                power = product_power(component_state(1, np.array([alpha])),
                                      k).matrix
                got = hamming_power(alpha, k)[weight]
                assert np.max(np.abs(np.diag(power) - got)) < 1e-15
                assert np.count_nonzero(power - np.diag(np.diag(power))) == 0


class TestComponentParametrization:
    def test_p1_alpha(self):
        xi = component_state(1, np.array([0.3]))
        assert np.allclose(xi.matrix, np.diag([0.3, 0.7]))
        assert component_state(1, np.array([1.7])).matrix[0, 0] == 1.0

    def test_p2_gibbs_valid_even(self, rng):
        for _ in range(10):
            theta = rng.uniform(-2, 2, n_component_params(2))
            xi = component_state(2, theta)
            validity = check_state(xi)
            assert validity.all_ok
            assert validity.parity_ok

    def test_basis_hermitian(self):
        for p in (1, 2, 3):
            for h in even_hermitian_basis(p):
                assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_params_roundtrip(self, rng):
        theta = rng.uniform(-1.5, 1.5, n_component_params(2))
        xi = component_state(2, theta)
        back = component_state(2, params_from_state(2, xi.matrix))
        assert np.max(np.abs(back.matrix - xi.matrix)) < 1e-10

    def test_moment_matching_p1(self):
        sigma = np.diag([0.8, 0.2]).astype(complex)
        params = params_from_state(1, sigma)
        assert params[0] == pytest.approx(0.8, abs=1e-12)


class TestSimplexProjection:
    def test_already_inside(self):
        v = np.array([0.25, 0.75])
        assert np.allclose(project_simplex(v), v)

    def test_projection_properties(self, rng):
        for _ in range(50):
            v = rng.standard_normal(5) * 3
            w = project_simplex(v)
            assert np.all(w >= -1e-15)
            assert abs(np.sum(w) - 1.0) < 1e-12


class TestCoordinateSearch:
    """The shared 1-D search on the two boxes it serves: occupations in
    [0, 1] and Gibbs generator coefficients in +/- GENERATOR_BOX."""

    @pytest.mark.parametrize("lo, hi, target, golden_iters", [
        (0.0, 1.0, 0.3137, 22), (0.0, 1.0, 0.3137, 30),
        (-GENERATOR_BOX, GENERATOR_BOX, 1.7071, 22),
        (-GENERATOR_BOX, GENERATOR_BOX, -4.2, 30)])
    def test_quadratic_minimizer(self, lo, hi, target, golden_iters):
        calls = []

        def value(x):
            calls.append(x)
            return (x - target) ** 2 + 0.5

        x, fx = coordinate_search(value, lo, hi, 0.5 * (lo + hi),
                                  golden_iters)
        # The bracket spans two grid steps and shrinks by 1/phi per step.
        width = 2.0 * (hi - lo) / 8.0 * ((math.sqrt(5.0) - 1.0) / 2.0) ** (
            golden_iters + 1)
        assert abs(x - target) <= width
        assert fx == value(x)
        assert lo <= x <= hi
        assert len(calls) == 9 + 1 + 2 + golden_iters + 1

    def test_minimizer_on_the_boundary(self):
        x, fx = coordinate_search(lambda x: 1.0 - x, 0.0, 1.0, 0.5, 30)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-6)

    def test_start_off_the_grid_is_a_candidate(self):
        # A well between grid points is only found when the start sits in
        # it: the start is scanned alongside the grid and centres the
        # golden-section bracket.
        def value(x):
            return (x - 0.3) ** 2 - 1.0 if abs(x - 0.3) < 0.04 else x

        x, fx = coordinate_search(value, 0.0, 1.0, 0.29, 22)
        assert x == pytest.approx(0.3, abs=1e-4) and fx < -0.99
        x, fx = coordinate_search(value, 0.0, 1.0, 0.9, 22)
        assert x == pytest.approx(0.0, abs=1e-4) and fx >= 0.0


class TestBestMixture:
    def test_exact_product_any_r(self, rng):
        xi = DenseOperator(SystemShape(1, 1),
                           np.diag([0.35, 0.65]).astype(complex))
        target = product_power(xi, 3)
        for r in (1, 3):
            mixture, dist, _ = best_mixture_approx(target, r=r, restarts=2,
                                                   iters=60, seed=1)
            assert dist < 1e-6

    def test_maximally_mixed(self):
        sh = SystemShape(2, 1)
        target = DenseOperator(sh, np.eye(4, dtype=complex) / 4)
        _, dist, _ = best_mixture_approx(target, r=1, restarts=2, iters=60,
                                         seed=1)
        assert dist < 1e-6

    def test_mu_family_reduction_hits_optimum(self):
        # Any product mixture misses the odd-odd pair term entirely, so the
        # best distance is the trace norm of that term: tan(pi/12).
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        from fermicert.fock import reduce_expansion, to_matrix
        target = to_matrix(reduce_expansion(state, 2))
        mixture, dist, _ = best_mixture_approx(target, restarts=3, iters=100,
                                               seed=2)
        assert dist <= TAN6 + 1e-9
        assert dist == pytest.approx(TAN6, abs=1e-6)
        assert dist <= theorem1_bound(6, 1, 2) + 1e-9

    def test_monotone_in_r(self):
        state = mu_family_state(MuFamilyParams(6, 1, 0.5), validate=False)
        from fermicert.fock import reduce_expansion, to_matrix
        target = to_matrix(reduce_expansion(state, 3))
        prev = math.inf
        for r in (1, 2, 3):
            _, dist, _ = best_mixture_approx(target, r=r, restarts=2,
                                             iters=60, seed=4)
            assert dist <= prev + 1e-9
            prev = dist

    def test_non_positive_target(self):
        # The search runs on any Hermitian operator.  Against
        # diag(1.5, -0.5, 0, 0) every mixture, being diagonal and positive,
        # is at least 0.5 + (1.5 - 1) away; the vacuum power attains it.
        sh = SystemShape(2, 1)
        bad = DenseOperator(sh, np.diag([1.5, -0.5, 0, 0]).astype(complex))
        _, dist, lower = best_mixture_approx(bad, restarts=2, iters=60,
                                             seed=0)
        assert dist == pytest.approx(1.0, abs=1e-9)
        assert lower == 0.0

    def test_deterministic(self):
        state = mu_family_state(MuFamilyParams(6, 1, 0.5), validate=False)
        from fermicert.fock import reduce_expansion, to_matrix
        target = to_matrix(reduce_expansion(state, 2))
        _, d1, _ = best_mixture_approx(target, restarts=3, iters=50, seed=9)
        _, d2, _ = best_mixture_approx(target, restarts=3, iters=50, seed=9)
        assert d1 == d2


class TestParityBlocks:
    @staticmethod
    def oracle_distance(target, mixture):
        mix = mixture_matrix(mixture, target.shape.sites).matrix
        return trace_norm(DenseOperator(target.shape, target.matrix - mix))

    @pytest.mark.parametrize("shape", [SystemShape(3, 1), SystemShape(2, 2)])
    def test_distance_matches_dense_trace_norm(self, shape, rng):
        k, p = shape.sites, shape.modes_per_site
        for trial in range(3):
            target = DenseOperator(shape,
                                   random_even_density_matrix(shape, rng))
            mixture, dist, _ = best_mixture_approx(target, r=2, restarts=2,
                                                   iters=30, seed=trial)
            assert dist == pytest.approx(self.oracle_distance(target, mixture),
                                         abs=1e-12)
            # Any mixture, not only the returned one.
            opt = _MixtureOptimizer(parity_blocks(target), k, p, 3, iters=1)
            weights = project_simplex(rng.random(3))
            if p == 1:
                params = [rng.random(1) for _ in range(3)]
            else:
                params = [rng.uniform(-1, 1, n_component_params(p))
                          for _ in range(3)]
            got, signs = opt._distance_and_sign(
                weights, [opt._power(q) for q in params])
            comps = tuple(component_state(p, q) for q in params)
            mixture = ProductMixture(weights, comps)
            assert got == pytest.approx(self.oracle_distance(target, mixture),
                                        abs=1e-12)
            # The blocks of the dense sign matrix V sign(w) V^dagger.
            delta = target.matrix - mixture_matrix(mixture, k).matrix
            w, v = np.linalg.eigh(0.5 * (delta + delta.conj().T))
            full_sign = (v * np.sign(w)) @ v.conj().T
            even = global_parity_signs(shape) > 0
            for (sw, v), sector in zip(signs, (even, ~even)):
                want = full_sign[np.ix_(sector, sector)]
                block = (v * sw) @ v.conj().T
                assert np.max(np.abs(block - want)) < 1e-10
            # The weight gradient -tr(S xi_l^(x k)), at p = 1 read off the
            # diagonal of S only.
            grad = opt._gradient(signs, [opt._power(q) for q in params])
            want = [-np.real(np.trace(full_sign @ product_power(xi, k).matrix))
                    for xi in comps]
            assert np.max(np.abs(grad - want)) < 1e-10

    def test_gibbs_components_exactly_even(self, rng):
        signs = global_parity_signs(SystemShape(1, 3))
        cross = signs[:, None] != signs[None, :]
        for _ in range(5):
            theta = rng.uniform(-2, 2, n_component_params(3))
            assert not np.any(component_state(3, theta).matrix[cross])

    def test_cross_parity_entry_raises(self, rng):
        shape = SystemShape(2, 1)
        mat = random_even_density_matrix(shape, rng)
        mat[0, 1] = 1e-18  # basis states 00 (even) and 01 (odd)
        with pytest.raises(ValueError, match="parity"):
            best_mixture_approx(DenseOperator(shape, mat), restarts=1,
                                iters=10, seed=0)


DUAL_SHAPES = (SystemShape(2, 1), SystemShape(3, 1), SystemShape(4, 1),
               SystemShape(2, 2), SystemShape(3, 2))


def _random_mixture(p: int, rng, r: int = 2):
    weights = project_simplex(rng.random(r))
    if p == 1:
        params = [rng.random(1) for _ in range(r)]
    else:
        params = [rng.uniform(-2.0, 2.0, n_component_params(p))
                  for _ in range(r)]
    return weights, params


def _diagonal_target(k: int, occupied) -> DenseOperator:
    diag = np.zeros(1 << k)
    diag[list(occupied)] = 1.0 / len(occupied)
    return DenseOperator(SystemShape(k, 1), np.diag(diag).astype(complex))


class TestDualLowerBound:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(DUAL_SHAPES), st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 1.0))
    def test_sound_for_every_mixture(self, shape, seed, t):
        # Targets from random even states to product mixtures, where a
        # lower bound that misses part of the twirl overshoots.
        rng = np.random.default_rng(seed)
        k, p = shape.sites, shape.modes_per_site
        near = _random_mixture(p, rng)
        near = ProductMixture(near[0], tuple(component_state(p, q)
                                             for q in near[1]))
        mat = ((1.0 - t) * mixture_matrix(near, k).matrix
               + t * random_even_density_matrix(shape, rng))
        target = DenseOperator(shape, mat)
        opt = _MixtureOptimizer(parity_blocks(target), k, p, 2, iters=1)
        weights, params = _random_mixture(p, rng)
        _, signs = opt._distance_and_sign(weights,
                                          [opt._power(q) for q in params])
        lower = opt._lower_bound(signs)
        witness = ProductMixture(weights, tuple(component_state(p, q)
                                                for q in params))
        other = _random_mixture(p, rng)
        other = ProductMixture(other[0], tuple(component_state(p, q)
                                               for q in other[1]))
        for mixture in (witness, near, other):
            dist = trace_norm(DenseOperator(
                shape, mat - mixture_matrix(mixture, k).matrix))
            assert lower <= dist + 1e-12

    def test_tight_on_every_theorem1_row(self, monkeypatch):
        # Every witness search of the suites, at the seeds of
        # `fermicert all --seed 0`, ends after its first start and its
        # first distance, proven optimal or an exact hit; so the suites
        # need no search budget of their own.  The optimizer is patched at
        # class level, which also sees searches the suites start directly.
        searches = []
        init = _MixtureOptimizer.__init__
        run = _MixtureOptimizer.run
        distance_and_sign = _MixtureOptimizer._distance_and_sign

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.starts, self.distances = [], 0
            searches.append(self)

        def recording_run(self, *args):
            out = run(self, *args)
            self.starts.append(out[0])
            return out

        def counting_distance(self, *args):
            self.distances += 1
            return distance_and_sign(self, *args)

        monkeypatch.setattr(_MixtureOptimizer, "__init__", recording_init)
        monkeypatch.setattr(_MixtureOptimizer, "run", recording_run)
        monkeypatch.setattr(_MixtureOptimizer, "_distance_and_sign",
                            counting_distance)
        reports, _ = run_verify_theorem1(seed=3)
        assert len(searches) == len(reports) == 60
        for opt, rep in zip(searches, reports):
            assert opt.starts == [rep.lhs]
            assert f"dual lower bound {opt.lower:.12g}" in rep.notes
        # Four product-p2 and three mu-family corollary witnesses.
        run_verify_corollary(seed=5)
        assert len(searches) == 67
        # The two gs-convexity witnesses; the family loop searches none.
        monkeypatch.setattr(suites, "BUILTIN_FAMILIES", ())
        run_gs_bound(seed=7)
        assert len(searches) == 69
        for opt in searches:
            assert len(opt.starts) == 1 and opt.distances == 1
            best = opt.starts[0]
            assert best < EXACT_HIT or best - opt.lower <= STOP_GAP

    @pytest.mark.parametrize("occupied, parent_distance", [
        # Exactly one occupied mode: the first start is already the best
        # the search finds.
        ((1, 2, 4), 1.1111111111111112),
        # At most one occupied mode: the search improves on its first
        # start (0.65625), so a stop there would show.
        ((0, 1, 2, 4), 0.6111111111120802),
    ])
    def test_diagonal_target_runs_the_full_search(self, occupied,
                                                  parent_distance):
        # A diagonal, permutation-symmetric target that is no product
        # mixture: the twirl fixes it, so the bound is 0 and the search
        # must return what it returned before the stop rule existed.
        fit = best_mixture_approx(_diagonal_target(3, occupied), restarts=3,
                                  iters=120, seed=3)
        assert isinstance(fit, MixtureFit)
        assert fit.lower_bound == 0.0
        assert fit.distance == pytest.approx(parent_distance, abs=1e-12)

    def test_stops_at_the_first_proven_start(self, monkeypatch):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        from fermicert.fock import reduce_expansion, to_matrix
        target = to_matrix(reduce_expansion(state, 2))
        runs = []
        original = _MixtureOptimizer.run

        def counting(self, *args):
            runs.append(1)
            return original(self, *args)

        monkeypatch.setattr(_MixtureOptimizer, "run", counting)
        _, dist, lower = best_mixture_approx(target, restarts=8, iters=100,
                                             seed=2)
        assert len(runs) == 1
        assert lower == pytest.approx(TAN6, abs=1e-12)
        assert dist - lower <= STOP_GAP

    def test_lower_bound_above_rhs_refutes(self, monkeypatch):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        inv = check_invariance(state)
        # Stated bound below the dual bound tan(pi/12): no mixture meets it.
        monkeypatch.setattr(definetti, "theorem1_bound",
                            lambda V, p, k: TAN6 - 1e-6)
        rep, _, _ = verify_theorem1(state, 2, seed=3, inv_report=inv)
        assert not rep.passed
        assert any("refuted" in n for n in rep.notes)

        # It fails whatever distance the search reports.
        def lucky(*args, **kwargs):
            fit = best_mixture_approx(*args, **kwargs)
            return fit._replace(distance=0.0)

        monkeypatch.setattr(definetti, "best_mixture_approx", lucky)
        rep, _, _ = verify_theorem1(state, 2, seed=3, inv_report=inv)
        assert rep.lhs == 0.0
        assert not rep.passed
        assert any("refuted" in n for n in rep.notes)


class TestExactArithmetic:
    def test_product_p2_searches_stop_on_eigenvalues(self, monkeypatch):
        # The four product-p2 corollary targets are exact products, so each
        # search hits EXACT_HIT at its first distance, read from eigenvalues
        # alone: no residual block reaches eigh, only the 4 x 4 single-site
        # solves of the Gibbs components do.  The first start's equal
        # components share one tensor power, and the real target blocks
        # and powers go to the real eigensolver.
        targets = {k: product_power(suites._CORRELATED_P2, k)
                   for k in range(2, 6)}
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        power = definetti.product_power
        eigh_sizes, eigvalsh_kinds, powers = [], [], []

        def counting_eigh(a, *args, **kwargs):
            eigh_sizes.append(a.shape[-1])
            return eigh(a, *args, **kwargs)

        def counting_eigvalsh(a, *args, **kwargs):
            eigvalsh_kinds.append(a.dtype.kind)
            return eigvalsh(a, *args, **kwargs)

        def counting_power(xi, k):
            powers.append(k)
            return power(xi, k)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(definetti, "product_power", counting_power)
        for k, target in targets.items():
            eigh_sizes.clear()
            eigvalsh_kinds.clear()
            powers.clear()
            fit = best_mixture_approx(target, seed=5)
            assert fit.distance < EXACT_HIT
            assert powers == [k]
            assert set(eigh_sizes) == {4}
            assert eigvalsh_kinds == ["f", "f"]

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from((SystemShape(2, 1), SystemShape(3, 1),
                            SystemShape(2, 2))),
           st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.sampled_from(("state", "product")))
    def test_reported_distance_is_the_witness_residual(self, shape, seed,
                                                       real, kind):
        # Real targets take the real-arithmetic path, complex ones the
        # complex path; exact products stop at the first distance.
        rng = np.random.default_rng(seed)
        k, p = shape.sites, shape.modes_per_site
        if kind == "product":
            (q,) = _random_mixture(p, rng, r=1)[1]
            mat = product_power(component_state(p, q), k).matrix
        else:
            mat = random_even_density_matrix(shape, rng)
        if real:
            mat = mat.real.astype(np.complex128)
        elif kind == "state":
            assert mat.imag.any()
        fit = best_mixture_approx(DenseOperator(shape, mat), r=2, restarts=2,
                                  iters=25, seed=seed % 7)
        residual = mat - mixture_matrix(fit.mixture, k).matrix
        assert fit.distance == pytest.approx(
            trace_norm(DenseOperator(shape, residual)), abs=1e-12)


class TestVerifyTheorem1:
    def test_mu_zero_exact(self):
        state = mu_family_state(MuFamilyParams(6, 1, 0.0))
        rep, mixture, diag = verify_theorem1(state, 2, seed=3)
        assert rep.passed and rep.lhs < 1e-6
        assert diag == mixture_diagnostics(mixture)
        assert diag["components_valid"] and diag["components_even"]

    def test_mu_one_k2(self):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        inv = check_invariance(state)
        rep, _, diag = verify_theorem1(state, 2, seed=3, inv_report=inv)
        assert rep.passed
        assert rep.rhs == pytest.approx(0.7698003589 + 8.0 * 2.0 / 6.0,
                                        abs=1e-9)
        assert diag["max_offdiagonal"] < 1e-8

    def test_k3_bound_flags_diameter(self):
        state = mu_family_state(MuFamilyParams(6, 1, 1.0), validate=False)
        inv = check_invariance(state)
        rep, _, _ = verify_theorem1(state, 3, seed=3, inv_report=inv)
        # Stated bound: (2/sqrt(3)) 4 * 2^(3/2) / 6 + 2 * 4 * 3 / 6.
        assert rep.rhs == pytest.approx(2.1773242158 + 4.0, abs=1e-9)
        assert any("diameter" in n for n in rep.notes)
        assert rep.passed

    def test_component_gaussianity_when_pure(self):
        # Pure single-site witnesses must have vanishing fourth cumulants.
        state = mu_family_state(MuFamilyParams(6, 1, 0.5), validate=False)
        inv = check_invariance(state)
        _, mixture, _ = verify_theorem1(state, 2, seed=5, inv_report=inv)
        for xi in mixture.components:
            if np.real(np.trace(xi.matrix @ xi.matrix)) > 1.0 - 1e-8:
                for pattern in ((-1, 1, -1, 1), (1, -1, 1, -1)):
                    ops = [LadderIndex(c, 1, 1) for c in pattern]
                    assert abs(cumulant(xi, ops)) < 1e-6

    def test_preconditions(self):
        state = mu_family_state(MuFamilyParams(6, 1, 0.5), validate=False)
        with pytest.raises(ValueError):
            verify_theorem1(state, 0, seed=0)
        small = mu_family_state(MuFamilyParams(4, 1, 0.2), validate=False)
        with pytest.raises(ValueError):
            verify_theorem1(small, 2, seed=0)

    @pytest.mark.parametrize("component", [
        # Even and unit trace, but not positive.
        np.diag([1.5, -0.5]),
        # Positive and unit trace, but it mixes the parity sectors.
        np.full((2, 2), 0.5),
    ], ids=["non-positive", "odd"])
    def test_invalid_witness_component_fails(self, monkeypatch, component):
        state = mu_family_state(MuFamilyParams(6, 1, 0.5), validate=False)
        inv = check_invariance(state)
        bad = DenseOperator(SystemShape(1, 1), component.astype(np.complex128))

        # The distance stays the search's: only the witness is broken.
        def broken(*args, **kwargs):
            fit = best_mixture_approx(*args, **kwargs)
            comps = (bad,) + fit.mixture.components[1:]
            return fit._replace(
                mixture=ProductMixture(fit.mixture.weights, comps))

        monkeypatch.setattr(definetti, "best_mixture_approx", broken)
        rep, mixture, diag = verify_theorem1(state, 2, seed=3, inv_report=inv)
        assert mixture.components[0] is bad
        assert rep.lhs <= rep.rhs
        assert not rep.passed
        assert "component validity check failed" in rep.notes
        assert not (diag["components_valid"] and diag["components_even"])

    def test_diagnostics_run_once_per_row(self, monkeypatch):
        # verify_theorem1 hands its diagnostics to the suite, which reads
        # them for the CSV row instead of running them again.
        calls = []

        def counting(mixture):
            calls.append(1)
            return mixture_diagnostics(mixture)

        for module in (definetti, suites):
            if hasattr(module, "mixture_diagnostics"):
                monkeypatch.setattr(module, "mixture_diagnostics", counting)
        reports, _ = run_verify_theorem1(seed=3)
        assert len(reports) == 60
        assert len(calls) == 60


class TestMixtureSerialization:
    def test_mixture_matrix_matches_manual(self):
        sh1 = SystemShape(1, 1)
        comps = (DenseOperator(sh1, np.diag([0.2, 0.8]).astype(complex)),
                 DenseOperator(sh1, np.diag([0.9, 0.1]).astype(complex)))
        mixture = ProductMixture(np.array([0.4, 0.6]), comps)
        got = mixture_matrix(mixture, 2).matrix
        want = (0.4 * np.kron(comps[0].matrix, comps[0].matrix)
                + 0.6 * np.kron(comps[1].matrix, comps[1].matrix))
        assert np.allclose(got, want)

    def test_weight_validation(self):
        comp = (DenseOperator(SystemShape(1, 1), np.eye(2, dtype=complex) / 2),)
        with pytest.raises(ValueError):
            ProductMixture(np.array([0.5]), comp)
        with pytest.raises(ValueError):
            ProductMixture(np.array([-0.1, 1.1]), comp * 2)
