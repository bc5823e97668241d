import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import expected_small4x6 as frozen
import oracle
from sitefactors import engine
from sitefactors import (
    AttributeTable,
    DimensionMismatchError,
    EngineConfig,
    NoFactorRetainedError,
    SchemaError,
    SingularCorrelationError,
    SynthConfig,
    correlation,
    correlation_ridge,
    dominant_attributes,
    factor_scores,
    fit_factor_model,
    generate,
    initial_communalities,
    paf_iterate,
    planted_loadings,
    retained_count,
    scoring_weights,
    sign_canonicalize,
    standardize,
    variance_accounting,
    varimax,
    varimax_criterion,
)

BLOCK_CORR = np.array(
    [
        [1.0, 0.8, 0.0, 0.0],
        [0.8, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.8],
        [0.0, 0.0, 0.8, 1.0],
    ]
)


# two copies of one block: the retained eigenvalues tie exactly, while the
# unretained ones and the communalities differ
TWIN_BLOCKS = np.kron(
    np.eye(2), np.array([[1.0, 0.8, 0.6], [0.8, 1.0, 0.7], [0.6, 0.7, 1.0]])
)

# BLOCK_CORR with one block's correlation 1e-12 higher: the damped interval
# is about as narrow, and a filter set on it would overflow
NEAR_BLOCKS = BLOCK_CORR + np.kron([[0.0, 0.0], [0.0, 1e-12]], [[0.0, 1.0], [1.0, 0.0]])


def add_ridge(corr, config=EngineConfig()):
    """The fit's ridge decision, added to R's diagonal in place; its warnings."""
    ridge, warnings = correlation_ridge(corr, config)
    corr[np.diag_indices_from(corr)] += ridge
    return warnings


def smc(corr, config=EngineConfig()):
    """Start communalities after the fit's ridge decision, with every warning."""
    warnings = add_ridge(corr, config)
    start, heywood = initial_communalities(corr)
    return start, warnings + heywood


def paf(corr, config=EngineConfig()):
    add_ridge(corr, config)
    return paf_iterate(corr, config)


def count_linalg(monkeypatch, *names):
    """Calls of each named `np.linalg` function, counted from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        function = getattr(np.linalg, name)

        def counted(*args, _function=function, _name=name, **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def eigh_sizes(monkeypatch):
    """The order of each matrix `np.linalg.eigh` decomposes from now on."""
    sizes = []
    function = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return function(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes


def wide_plant(noise_std):
    """The benchmark's `wide` shape: 500 regions, 420 attributes, 70 factors."""
    config = SynthConfig(
        seed=42, n_attributes=420, n_regions=500, n_factors=70, noise_std=noise_std
    )
    return generate(config)[0]


def as_std(values, prefix="r"):
    values = np.asarray(values, dtype=float)
    return AttributeTable(
        values=values,
        attribute_names=tuple(f"a{i}" for i in range(values.shape[0])),
        region_ids=tuple(f"{prefix}{j}" for j in range(values.shape[1])),
    )


class TestCorrelation:
    def test_identical_rows_correlate_to_one(self):
        row = oracle.zscore_rows([[1.0, 4.0, 2.0, 7.0, 5.0]])[0]
        corr = correlation(as_std([row, row]))
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_rows_correlate_to_zero(self):
        first = oracle.zscore_rows([[-1.0, 0.0, 1.0]])[0]
        second = oracle.zscore_rows([[1.0, -2.0, 1.0]])[0]
        corr = correlation(as_std([first, second]))
        assert corr[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_fixture_matches_oracle(self, matrix):
        corr = correlation(matrix)
        assert_allclose(corr, frozen.CORRELATION, atol=1e-12)
        assert_allclose(
            corr, oracle.correlation_from_standardized(matrix.values), atol=1e-14
        )

    def test_invariants(self, matrix):
        corr = correlation(matrix)
        assert np.array_equal(corr, corr.T)
        assert_allclose(np.diag(corr), 1.0, atol=0)
        assert np.abs(corr).max() <= 1.0 + 1e-12

    def test_one_n_by_n_buffer_at_the_wide_benchmark_shape(self):
        # the product, scaled in place: no second N x N array beside it
        matrix = standardize(wide_plant(noise_std=0.6))
        n = matrix.n_attributes
        tracemalloc.start()
        try:
            correlation(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * n * n * 8


class TestInitialCommunalities:
    def test_identity_gives_zero(self):
        start, _ = smc(np.eye(4))
        assert_allclose(start, 0.0, atol=1e-14)

    @pytest.mark.parametrize("rho", [0.3, -0.5, 0.9])
    def test_two_by_two_closed_form(self, rho):
        corr = np.array([[1.0, rho], [rho, 1.0]])
        start, _ = smc(corr)
        assert_allclose(start, rho**2, atol=1e-12)

    def test_fixture_matches_oracle(self, matrix):
        corr = correlation(matrix)
        start, _ = smc(corr)
        assert_allclose(start, frozen.SMC, atol=1e-10)
        assert_allclose(start, oracle.smc(corr), atol=1e-12)

    def test_singular_matrix_raises_without_ridge(self):
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularCorrelationError):
            smc(corr)

    def test_singular_matrix_ridge_fallback(self):
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        start, warnings = smc(corr, EngineConfig(ridge_fallback=True))
        assert np.all(start <= 1.0)
        assert np.all(start > 0.99)
        assert any(w.startswith("ridge:") for w in warnings)


class TestPafIterate:
    def test_retained_count_is_the_kaiser_count(self):
        first = np.array([2.5, 1.0, 0.99, -0.2])
        assert retained_count(first) == 2
        assert retained_count(first, EngineConfig(kaiser_threshold=0.5)) == 3
        with pytest.raises(NoFactorRetainedError, match=r"threshold 3 \(largest was 2\.5\)"):
            retained_count(first, EngineConfig(kaiser_threshold=3.0))

    def test_identity_correlation_retains_nothing(self):
        corr = np.eye(5)
        with pytest.raises(NoFactorRetainedError):
            paf(corr)

    def test_two_block_example_matches_oracle(self):
        corr = BLOCK_CORR
        model = paf(corr)
        reference = oracle.paf_trajectory(BLOCK_CORR, oracle.smc(BLOCK_CORR))
        assert model.n_factors == 2
        assert model.iterations_used == reference["iterations"]
        ours = oracle.canon_column_signs(model.unrotated_loadings)
        theirs = oracle.canon_column_signs(reference["steps"][-1][0])
        assert_allclose(ours, theirs, atol=1e-8)
        # each loading vector lives on its own block
        magnitude = np.abs(ours)
        blocks = [magnitude[:2, :].max(axis=0), magnitude[2:, :].max(axis=0)]
        for col in range(2):
            dominant = np.argmax([blocks[0][col], blocks[1][col]])
            other = magnitude[2:, col] if dominant == 0 else magnitude[:2, col]
            assert other.max() < 1e-8

    def test_fixture_full_trajectory_matches_oracle(self, matrix):
        corr = correlation(matrix)
        start, _ = smc(corr)
        model = paf(corr)
        reference = oracle.paf_trajectory(corr, start)
        assert model.n_factors == frozen.N_FACTORS
        assert model.iterations_used == frozen.ITERATIONS
        assert model.converged is frozen.CONVERGED
        assert_allclose(model.eigenvalues, frozen.SELECTION_EIGENVALUES, atol=1e-10)
        assert len(model.trajectory) == len(reference["steps"])
        for communalities, (_, ref_comm) in zip(model.trajectory, reference["steps"]):
            assert_allclose(communalities, ref_comm, atol=1e-8)
        assert_allclose(
            oracle.canon_column_signs(model.unrotated_loadings),
            frozen.UNROTATED_CANON,
            atol=1e-8,
        )
        assert_allclose(model.communalities, frozen.COMMUNALITIES, atol=1e-8)
        assert not model.communalities.flags.writeable

    def test_corr_is_given_back_bit_identical(self, matrix):
        # the passes borrow R's buffer for their diagonal
        corr = correlation(matrix)
        before = corr.copy()
        paf(corr, EngineConfig(max_iterations=3))
        assert corr.tobytes() == before.tobytes()
        assert corr.flags.c_contiguous and corr.flags.writeable

    def test_corr_is_given_back_after_no_factor_is_retained(self, matrix):
        corr = correlation(matrix)
        before = corr.copy()
        with pytest.raises(NoFactorRetainedError):
            paf(corr, EngineConfig(kaiser_threshold=1e9))
        assert corr.tobytes() == before.tobytes()

    def test_corr_must_be_a_writeable_float_buffer(self):
        read_only = BLOCK_CORR.copy()
        read_only.setflags(write=False)
        for corr in (BLOCK_CORR.astype(int), read_only):
            with pytest.raises(TypeError, match="writeable float64"):
                paf_iterate(corr)

    def test_later_passes_take_the_subspace_step_at_the_wide_benchmark_shape(
        self, monkeypatch
    ):
        # the first pass's full eigh fixes the count and the basis; each
        # later round solves twice at order M (SVQB, then Rayleigh-Ritz)
        matrix = standardize(wide_plant(noise_std=0.6))
        sizes = eigh_sizes(monkeypatch)
        model = fit_factor_model(matrix, EngineConfig(kaiser_threshold=2.0))
        n, m = matrix.n_attributes, model.n_factors
        assert (m, model.iterations_used) == (70, 13)
        assert sizes[0] == n and sizes.count(n) == 1
        assert set(sizes) == {n, m}
        assert sizes.count(m) >= 2 * (model.iterations_used - 1)

    @pytest.mark.parametrize(
        "corr", [BLOCK_CORR, TWIN_BLOCKS, NEAR_BLOCKS], ids=["block", "twins", "near"]
    )
    def test_tied_pairs_take_the_full_eigh(self, corr, monkeypatch):
        # two retained eigenvalues tie, so any basis of their plane is a
        # Ritz basis: every pass solves at order N, and the columns stay
        # those of the reference, not swapped or mixed. BLOCK_CORR's other
        # eigenvalues tie too and its communalities move alike, so no
        # interval is left to damp; the twins reach the tie rule, and the
        # near blocks the bound on the filter's gain, with no overflow
        start, _ = initial_communalities(corr)
        reference = oracle.paf_trajectory(corr, start)
        sizes = eigh_sizes(monkeypatch)
        model = paf(corr.copy())
        assert model.iterations_used == reference["iterations"] > 1
        assert sizes.count(len(corr)) == model.iterations_used
        for communalities, (_, theirs) in zip(model.trajectory, reference["steps"]):
            assert_allclose(communalities, theirs, rtol=0, atol=1e-12)
        assert_allclose(
            oracle.canon_column_signs(model.unrotated_loadings),
            oracle.canon_column_signs(reference["steps"][-1][0]),
            rtol=0,
            atol=1e-12,
        )

    def test_unconverged_subspace_rounds_take_the_full_eigh(self, monkeypatch):
        # on this weak plant (M = 1) the filtered step twice uses up its
        # SUBSPACE_ROUNDS rounds of two order-M solves without meeting the
        # residual bound, and the pass falls back to a full eigh
        config = SynthConfig(
            seed=893934398, n_attributes=20, n_regions=287, n_factors=4,
            loading=0.4, noise_std=0.86,
        )
        corr = correlation(standardize(generate(config)[0]))
        start, _ = initial_communalities(corr)
        reference = oracle.paf_trajectory(corr, start)
        sizes = eigh_sizes(monkeypatch)
        model = paf(corr.copy())
        assert (model.n_factors, model.iterations_used) == (1, reference["iterations"])
        assert sizes.count(20) > 1
        rounds = [1] * (2 * engine.SUBSPACE_ROUNDS) + [20]
        starts = [k for k in range(len(sizes)) if sizes[k:k + len(rounds)] == rounds]
        assert len(starts) == 2
        for communalities, (_, theirs) in zip(model.trajectory, reference["steps"]):
            assert_allclose(communalities, theirs, rtol=0, atol=1e-12)

    def test_collapsed_gram_matrix_takes_the_full_eigh(self, monkeypatch):
        # no plant is known to collapse the filtered block's Gram matrix; a
        # tolerance of 1 refuses every Gram matrix, so each pass after the
        # first stops at its SVQB solve and runs a full eigh
        config = SynthConfig(seed=1, n_attributes=12, n_regions=200, n_factors=2)
        corr = correlation(standardize(generate(config)[0]))
        start, _ = initial_communalities(corr)
        reference = oracle.paf_trajectory(corr, start)
        monkeypatch.setattr(engine, "SUBSPACE_TOLERANCE", 1.0)
        sizes = eigh_sizes(monkeypatch)
        model = paf(corr.copy())
        assert model.iterations_used == reference["iterations"] > 1
        assert sizes == [12] + [2, 12] * (model.iterations_used - 1)
        for communalities, (_, theirs) in zip(model.trajectory, reference["steps"]):
            assert_allclose(communalities, theirs, rtol=0, atol=1e-12)

    def test_communalities_stay_clamped(self, matrix):
        model = paf(correlation(matrix))
        for communalities in model.trajectory:
            assert communalities.min() >= 0.0
            assert communalities.max() <= 1.0

    def test_eigenpair_residuals(self, matrix):
        # the last pass decomposed R with the diagonal of the pass before it;
        # its loadings are eigenvectors scaled so that L'L is diagonal
        corr = correlation(matrix)
        start, _ = smc(corr)
        model = paf(corr)
        adjusted = corr.copy()
        np.fill_diagonal(adjusted, (start, *model.trajectory)[-2])
        loads = model.unrotated_loadings
        residual = adjusted @ loads - loads * (loads**2).sum(axis=0)
        assert np.abs(residual).max() < 1e-8

    def test_fitted_model_owns_its_arrays(self, matrix):
        model = fit_factor_model(matrix)
        arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
        for array in arrays + list(model.trajectory):
            assert array.base is None
        assert all(c.shape == (matrix.n_attributes,) for c in model.trajectory)

    def test_variance_accounting_fields(self, model):
        n = len(model.attribute_names)
        pct, cumulative = variance_accounting(model.eigenvalues, n)
        assert_allclose(pct, model.eigenvalues / n * 100.0, atol=1e-6)
        assert_allclose(cumulative, np.cumsum(pct), atol=1e-12)
        assert np.all(model.eigenvalues >= 1.0)

    def test_iteration_cap_flags_nonconvergence(self, matrix):
        corr = correlation(matrix)
        model = paf(corr, EngineConfig(max_iterations=3))
        assert model.converged is False
        assert model.iterations_used == 3
        assert any(w.startswith("non_convergence:") for w in model.warnings)

    def test_heywood_case_is_clamped_and_reported_once(self):
        # two-attribute blocks this tightly correlated drift above 1
        values = np.array(
            [
                [6.3, 9.3, 18.0, 22.3, 30.5, 33.6],
                [1.4, 5.1, 6.0, 9.8, 11.2, 14.5],
                [9.2, 2.6, 6.4, 9.1, 1.2, 7.5],
                [12.7, 9.6, 14.6, 12.8, 9.4, 12.9],
            ]
        )
        table = AttributeTable(
            attribute_names=("a", "b", "c", "d"),
            region_ids=tuple(f"r{j}" for j in range(6)),
            values=values,
        )
        corr = correlation(standardize(table))
        model = paf(corr)
        heywood = [w for w in model.warnings if w.startswith("heywood:")]
        assert len(heywood) == 1
        assert model.communalities.max() <= 1.0
        for communalities in model.trajectory:
            assert communalities.max() <= 1.0


class TestVarianceAccounting:
    def test_simple_numbers(self):
        pct, cum = variance_accounting([2.0, 1.0], 4)
        assert_allclose(pct, [50.0, 25.0])
        assert_allclose(cum, [50.0, 75.0])

    def test_order_preserved(self):
        pct, cum = variance_accounting([1.0, 3.0, 2.0], 10)
        assert_allclose(pct, [10.0, 30.0, 20.0])
        assert_allclose(cum, [10.0, 40.0, 60.0])


class TestVarimax:
    def test_single_factor_is_identity(self):
        loads = np.array([[0.5], [0.7], [-0.2]])
        result = varimax(loads)
        assert_allclose(result.rotation, np.eye(1))
        assert_allclose(result.loadings, loads)

    def test_perfect_simple_structure_is_fixed_point(self):
        loads = np.array(
            [[0.9, 0.0], [0.8, 0.0], [0.0, 0.7], [0.0, 0.85]]
        )
        result = varimax(loads)
        # rotation stays a signed permutation of the identity
        assert_allclose(np.abs(result.rotation), np.eye(2), atol=1e-10)
        assert result.criterion_history[-1] == pytest.approx(
            result.criterion_history[0], abs=1e-10
        )

    def test_random_two_factor_matches_grid_search(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            loads = rng.normal(size=(6, 2))
            result = varimax(loads)
            norms = np.sqrt((loads**2).sum(axis=1))
            achieved = varimax_criterion(result.loadings / norms[:, None])
            best_grid, _ = oracle.varimax_grid_m2(loads, step=1e-4)
            assert achieved >= best_grid - 1e-6
            assert abs(achieved - best_grid) < 1e-6

    def test_rotation_is_orthogonal_and_preserves_communality(self):
        rng = np.random.default_rng(11)
        loads = rng.normal(size=(8, 3))
        result = varimax(loads)
        assert np.abs(result.rotation.T @ result.rotation - np.eye(3)).max() < 1e-10
        assert_allclose(
            (result.loadings**2).sum(axis=1), (loads**2).sum(axis=1), atol=1e-10
        )

    def test_criterion_history_non_decreasing(self):
        rng = np.random.default_rng(23)
        loads = rng.normal(size=(10, 4))
        result = varimax(loads)
        history = np.array(result.criterion_history)
        assert np.all(np.diff(history) >= -1e-12)
        assert result.converged

    def test_zero_row_survives_kaiser_normalization(self):
        loads = np.array([[0.9, 0.1], [0.0, 0.0], [0.2, 0.8]])
        result = varimax(loads)
        assert_allclose(result.loadings[1], 0.0, atol=1e-15)


class TestScoringWeights:
    def test_orthonormal_loadings_identity_correlation(self):
        loads, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(5, 2)))
        weights = scoring_weights(np.eye(5), loads)
        assert_allclose(weights, loads.T, atol=1e-12)

    def test_fixture_matches_oracle(self, matrix, model):
        corr = correlation(matrix)
        weights = scoring_weights(corr, model.rotated_loadings)
        assert_allclose(weights, model.scoring_weights, atol=1e-12)
        assert_allclose(
            weights,
            oracle.regression_weights(corr, model.rotated_loadings),
            atol=1e-8,
        )
        assert_allclose(weights, frozen.WEIGHTS, atol=1e-7)

    def test_weights_left_invert_loadings(self, model):
        product = model.scoring_weights @ model.rotated_loadings
        assert_allclose(product, np.eye(model.n_factors), atol=1e-8)


class TestFactorScores:
    def test_identity_weights_return_input(self, matrix):
        n = matrix.n_attributes
        scores = factor_scores(np.eye(n), matrix)
        assert_allclose(scores.values, matrix.values)

    def test_zero_input_zero_scores(self, model):
        zeros = as_std(np.zeros((4, 6)))
        scores = factor_scores(model.scoring_weights, zeros)
        assert_allclose(scores.values, 0.0)

    def test_fixture_matches_oracle(self, matrix, model):
        scores = factor_scores(model.scoring_weights, matrix)
        assert_allclose(
            scores.values,
            oracle.factor_scores(model.scoring_weights, matrix.values),
            atol=1e-8,
        )
        assert_allclose(scores.values, frozen.FACTOR_SCORES, atol=1e-7)

    def test_score_rows_are_centered(self, matrix, model):
        scores = factor_scores(model.scoring_weights, matrix)
        assert np.abs(scores.values.mean(axis=1)).max() < 1e-8

    def test_dimension_mismatch(self, matrix):
        with pytest.raises(DimensionMismatchError):
            factor_scores(np.zeros((2, 3)), matrix)


class TestDominantAttributes:
    def test_argmax_of_absolute_loading(self):
        assigned, warnings = dominant_attributes(np.array([[0.1, -0.9], [0.8, 0.2]]))
        assert assigned.tolist() == [1, 0]
        assert warnings == ()

    def test_exact_tie_goes_to_lowest_index_and_logs(self):
        assigned, warnings = dominant_attributes(np.array([[0.5, 0.5], [0.1, 0.9]]))
        assert assigned[0] == 0
        assert len(warnings) == 1
        assert warnings[0].startswith("tie:")

    def test_fitted_model_carries_the_assignment(self, matrix, model):
        assert np.array_equal(
            fit_factor_model(matrix).dominant_factor,
            dominant_attributes(model.rotated_loadings)[0],
        )


class TestSignCanonicalize:
    def test_negative_pivot_column_flips(self, model):
        rotated, rotation, weights = sign_canonicalize(
            model.rotated_loadings * np.array([-1.0, 1.0]),
            model.rotation * np.array([-1.0, 1.0]),
            model.scoring_weights * np.array([[-1.0], [1.0]]),
        )
        assert_allclose(rotated, model.rotated_loadings)
        assert_allclose(weights, model.scoring_weights)
        assert_allclose(rotation, model.rotation)

    def test_idempotent(self, model):
        rotated, _, weights = sign_canonicalize(
            model.rotated_loadings, model.rotation, model.scoring_weights
        )
        assert_allclose(rotated, model.rotated_loadings)
        assert_allclose(weights, model.scoring_weights)

    def test_pivot_rule(self):
        column = np.array([-0.8, 0.3])
        pivot = np.argmax(np.abs(column))
        assert column[pivot] < 0  # the canonical form flips this column
        fixed_point = np.array([0.8, -0.3])
        assert fixed_point[np.argmax(np.abs(fixed_point))] > 0

    def test_model_stays_consistent(self, model):
        assert_allclose(
            model.unrotated_loadings @ model.rotation,
            model.rotated_loadings,
            atol=1e-12,
        )


class TestFitFactorModel:
    def test_fixture_rotated_loadings(self, model):
        assert_allclose(model.rotated_loadings, frozen.ROTATED_CANON, atol=1e-7)
        assert_allclose(
            (model.rotated_loadings**2).sum(axis=1),
            model.communalities,
            atol=1e-8,
        )

    def test_rotation_orthogonal(self, model):
        m = model.n_factors
        assert np.abs(model.rotation.T @ model.rotation - np.eye(m)).max() < 1e-10

    def test_varimax_criterion_vs_grid(self, model):
        norms = np.sqrt((model.unrotated_loadings**2).sum(axis=1))
        achieved = varimax_criterion(model.rotated_loadings / norms[:, None])
        assert achieved == pytest.approx(frozen.REFINED_CRITERION, abs=1e-8)
        assert achieved == pytest.approx(frozen.GRID_CRITERION, abs=1e-6)

    def test_varimax_sweep_cap_warns(self, matrix, monkeypatch):
        assert fit_factor_model(matrix).warnings == ()
        monkeypatch.setattr(engine, "VARIMAX_MAX_SWEEPS", 1)
        model = fit_factor_model(matrix, EngineConfig(varimax_tolerance=0.0))
        assert len(model.warnings) == 1
        assert model.warnings[0].startswith(
            "non_convergence: varimax sweep cap 1 reached (last criterion change "
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kaiser_threshold", 0.0),
            ("kaiser_threshold", -5.0),
            ("kaiser_threshold", float("nan")),
            ("varimax_tolerance", float("nan")),
            ("varimax_tolerance", -1.0),
            ("varimax_tolerance", float("inf")),
            ("epsilon", 0.0),
            ("epsilon", float("nan")),
            ("epsilon", float("inf")),
            ("max_iterations", 0),
        ],
    )
    def test_config_rejects_out_of_range_settings(self, field, value):
        with pytest.raises(SchemaError, match=field):
            EngineConfig(**{field: value})

    def test_one_condition_number_per_fit(self, matrix, monkeypatch):
        # from one eigvalsh; cond would run a full SVD
        calls = count_linalg(monkeypatch, "eigvalsh", "cond", "svd")
        fit_factor_model(matrix)
        assert calls == {"eigvalsh": 1, "cond": 0, "svd": 0}

    def test_one_inverse_per_fit(self, matrix, monkeypatch):
        # R^-1 serves the start communalities alone; the weights solve twice
        calls = count_linalg(monkeypatch, "inv", "solve")
        fit_factor_model(matrix)
        assert calls == {"inv": 1, "solve": 2}

    def test_peak_memory_at_the_wide_benchmark_shape(self):
        # R and the eigh buffers with no N x N inverse beside them: about
        # 2.5 N^2 doubles at peak; an inverse held through the passes adds N^2
        matrix = standardize(wide_plant(noise_std=0.6))
        n = matrix.n_attributes
        tracemalloc.start()
        try:
            fit_factor_model(matrix, EngineConfig(kaiser_threshold=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * n * n * 8

    def test_ridge_fit_peak_at_a_noiseless_wide_plant(self):
        # the ridge goes onto R's own diagonal: no ridged copy of R, about
        # 2.27 N^2 doubles at peak against 3.0 with one
        matrix = standardize(wide_plant(noise_std=0.0))
        n = matrix.n_attributes
        tracemalloc.start()
        try:
            model = fit_factor_model(
                matrix, EngineConfig(kaiser_threshold=2.0, ridge_fallback=True)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.warnings[0].startswith("ridge:")
        assert peak < 2.3 * n * n * 8

    def test_ridge_pushes_an_orthogonal_attribute_below_zero(self):
        # b = 2a + 1 makes R singular; c and d are orthogonal to every other
        # attribute, so their squared multiple correlation under the ridge is
        # 1 - (1 + 1e-8), about -1e-8, which the start values clamp to 0
        a = np.arange(1.0, 7.0)
        table = AttributeTable(
            attribute_names=("a", "b", "c", "d"),
            region_ids=tuple(f"r{j}" for j in range(6)),
            values=[a, 2 * a + 1, [1, -2, 1, 1, -2, 1], [1, 0, -1, -1, 0, 1]],
        )
        matrix = standardize(table)
        with pytest.raises(SingularCorrelationError):
            fit_factor_model(matrix)
        model = fit_factor_model(matrix, EngineConfig(ridge_fallback=True))
        assert len(model.warnings) == 2
        assert model.warnings[0].startswith(
            "ridge: added 1.0e-08 to the correlation diagonal (condition number "
        )
        assert model.warnings[1] == "heywood: initial communalities clamped into [0, 1]"

    def test_deterministic(self, matrix):
        first = fit_factor_model(matrix)
        second = fit_factor_model(matrix)
        assert np.array_equal(first.rotated_loadings, second.rotated_loadings)
        assert np.array_equal(first.scoring_weights, second.scoring_weights)
        assert first.iterations_used == second.iterations_used


def match_planted(rotated, planted):
    """Best per-column assignment (over sign flips) of recovered to planted."""
    from scipy.optimize import linear_sum_assignment

    k = planted.shape[1]
    cost = np.zeros((k, k))
    for t in range(k):
        for e in range(k):
            direct = np.abs(rotated[:, e] - planted[:, t]).max()
            flipped = np.abs(-rotated[:, e] - planted[:, t]).max()
            cost[t, e] = min(direct, flipped)
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


class TestSyntheticRecovery:
    def test_unit_variance_plant_recovers_loadings(self):
        config = SynthConfig(
            seed=7, n_attributes=12, n_regions=240, n_factors=3,
            loading=0.8, noise_std=0.6,
        )
        table, planted = generate(config)
        model = fit_factor_model(standardize(table))
        assert model.n_factors == 3
        assert match_planted(model.rotated_loadings, planted) < 0.1

    def test_small_noise_plant_recovers_population_loadings(self):
        # with unique noise of 0.05 the attributes have variance 0.8^2+0.05^2,
        # so on the correlation scale the planted loadings rescale to ~0.998
        config = SynthConfig(
            seed=11, n_attributes=12, n_regions=240, n_factors=3,
            loading=0.8, noise_std=0.05,
        )
        table, planted = generate(config)
        population = planted / np.sqrt(
            (planted**2).sum(axis=1, keepdims=True) + config.noise_std**2
        )
        model = fit_factor_model(standardize(table))
        assert model.n_factors == 3
        assert match_planted(model.rotated_loadings, population) < 0.1

    def test_noiseless_plant_needs_ridge_and_saturates(self):
        config = SynthConfig(
            seed=3, n_attributes=8, n_regions=120, n_factors=2,
            loading=0.8, noise_std=0.0,
        )
        table, planted = generate(config)
        model = fit_factor_model(
            standardize(table), EngineConfig(ridge_fallback=True)
        )
        assert model.n_factors == 2
        assert model.communalities.min() > 0.999
        magnitude = np.abs(model.rotated_loadings)
        on = magnitude[planted > 0]
        off = magnitude[planted == 0]
        assert on.min() > 0.95
        assert off.max() < 0.2

    def test_ridge_warns_once_and_first_from_one_condition_number(self, monkeypatch):
        config = SynthConfig(
            seed=3, n_attributes=8, n_regions=120, n_factors=2,
            loading=0.8, noise_std=0.0,
        )
        table, _ = generate(config)
        calls = count_linalg(monkeypatch, "eigvalsh", "cond", "svd")
        model = fit_factor_model(
            standardize(table), EngineConfig(ridge_fallback=True)
        )
        assert calls == {"eigvalsh": 1, "cond": 0, "svd": 0}
        ridge = [w for w in model.warnings if w.startswith("ridge:")]
        assert len(ridge) == 1
        assert model.warnings[0] == ridge[0]

    def test_ridge_weights_match_the_ridged_formula(self):
        # S = R + 1e-8 I has condition number about 4e8, so float64 weights
        # can sit about 1e-8 from the exact ones; the exact weights at half
        # or twice the ridge differ from these by 4e-8 or more
        config = SynthConfig(
            seed=3, n_attributes=8, n_regions=120, n_factors=2,
            loading=0.8, noise_std=0.0,
        )
        table, _ = generate(config)
        matrix = standardize(table)
        model = fit_factor_model(matrix, EngineConfig(ridge_fallback=True))
        expected = oracle.exact_regression_weights(
            correlation(matrix), model.rotated_loadings, engine.RIDGE_DELTA
        )
        assert_allclose(model.scoring_weights, expected, rtol=0, atol=1e-8)

    def test_ridge_fit_is_the_staged_flow_with_the_ridge_added_by_hand(self):
        config = EngineConfig(ridge_fallback=True)
        table, _ = generate(
            SynthConfig(
                seed=3, n_attributes=8, n_regions=120, n_factors=2,
                loading=0.8, noise_std=0.0,
            )
        )
        matrix = standardize(table)
        model = fit_factor_model(matrix, config)
        corr = correlation(matrix)
        ridge, _ = correlation_ridge(corr, config)
        assert ridge == engine.RIDGE_DELTA
        corr[np.diag_indices_from(corr)] += ridge
        rotated = varimax(paf_iterate(corr, config).unrotated_loadings)
        weights = scoring_weights(corr, rotated.loadings)
        loadings, _, weights = sign_canonicalize(rotated.loadings, rotated.rotation, weights)
        assert np.array_equal(loadings, model.rotated_loadings)
        assert np.array_equal(weights, model.scoring_weights)

    def test_noiseless_plant_errors_without_ridge(self):
        config = SynthConfig(
            seed=3, n_attributes=8, n_regions=120, n_factors=2,
            loading=0.8, noise_std=0.0,
        )
        table, _ = generate(config)
        with pytest.raises(SingularCorrelationError):
            fit_factor_model(standardize(table))


class TestSynthGenerator:
    def test_block_structure(self):
        planted = planted_loadings(SynthConfig(n_attributes=25, n_factors=6))
        sizes = (planted > 0).sum(axis=0)
        assert sizes.tolist() == [5, 4, 4, 4, 4, 4]
        assert np.all((planted > 0).sum(axis=1) == 1)

    def test_deterministic_per_seed(self):
        config = SynthConfig(seed=9, n_attributes=6, n_regions=30, n_factors=2)
        first, _ = generate(config)
        second, _ = generate(config)
        assert np.array_equal(first.values, second.values)
