"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines even on success.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

import expected_small4x6 as frozen
import oracle
from sitefactors import (
    CompositeDefinition,
    Dimension,
    FactorAssignment,
    FactorScores,
    SynthConfig,
    composite_scores,
    correlation,
    factor_scores,
    fit_factor_model,
    initial_communalities,
    load_table,
    paf_iterate,
    quadrant_classify,
    score_regions,
    scoring_weights,
    standardize,
    sweep,
    top_k,
    v_score,
    variance_accounting,
    varimax,
    varimax_criterion,
    write_synth_csv,
)
from sitefactors.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "small4x6.csv"

REFERENCE_EIGENVALUES = [3.405219, 3.847866, 2.946635, 2.506135, 2.742083, 1.256834]
REFERENCE_PCT = [13.620877, 15.391465, 11.786539, 10.024542, 10.968330, 5.027335]
REFERENCE_CUMULATIVE = [13.620877, 29.012342, 40.798881, 50.823423, 61.791753, 66.819088]


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_variance_accounting():
    with criterion(1, "variance accounting matches the reference rows to 1e-4"):
        pct, cumulative = variance_accounting(REFERENCE_EIGENVALUES, 25)
        assert_allclose(pct, REFERENCE_PCT, atol=1e-4, rtol=0)
        assert_allclose(cumulative, REFERENCE_CUMULATIVE, atol=1e-4, rtol=0)
        assert cumulative[-1] == pytest.approx(66.819088, abs=1e-4)


def test_criterion_2_synthetic_recovery(tmp_path):
    with criterion(2, "synthetic 25x426 dataset: 6 factors, loadings within 0.1, <5s"):
        started = time.perf_counter()
        config = SynthConfig()  # seed 42, 25 attributes, 426 regions, K=6
        write_synth_csv(tmp_path / "synthetic.csv", config)
        table = load_table(tmp_path / "synthetic.csv")
        assert table.n_attributes == 25
        assert table.n_regions == 426
        model = fit_factor_model(standardize(table))
        assert model.n_factors == 6
        from sitefactors import planted_loadings

        planted = planted_loadings(config)
        cost = np.zeros((6, 6))
        for t in range(6):
            for e in range(6):
                cost[t, e] = min(
                    np.abs(model.rotated_loadings[:, e] - planted[:, t]).max(),
                    np.abs(-model.rotated_loadings[:, e] - planted[:, t]).max(),
                )
        rows, cols = linear_sum_assignment(cost)
        deviation = cost[rows, cols].max()
        elapsed = time.perf_counter() - started
        assert deviation < 0.1, f"max abs deviation {deviation:.4f}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_oracle_equivalence():
    with criterion(3, "every fixture stage matches the brute-force oracle"):
        started = time.perf_counter()
        table = load_table(FIXTURE)
        matrix = standardize(table)
        assert_allclose(matrix.values, oracle.zscore_rows(table.values), atol=1e-8)

        corr = correlation(matrix)
        assert_allclose(
            corr.values, oracle.correlation_from_standardized(matrix.values), atol=1e-8
        )

        start, _ = initial_communalities(corr)
        assert_allclose(start, oracle.smc(corr.values), atol=1e-8)

        model = paf_iterate(corr)
        reference = oracle.paf_trajectory(corr.values, start)
        assert model.n_factors == reference["m"] == 2
        assert len(model.trajectory) == len(reference["steps"])
        for communalities, (_, ref_comm) in zip(model.trajectory, reference["steps"]):
            assert_allclose(communalities, ref_comm, atol=1e-8)
        assert_allclose(
            oracle.canon_column_signs(model.unrotated_loadings),
            oracle.canon_column_signs(reference["steps"][-1][0]),
            atol=1e-8,
        )

        rotated = varimax(model.unrotated_loadings)
        norms = np.sqrt((model.unrotated_loadings**2).sum(axis=1))
        achieved = varimax_criterion(rotated.loadings / norms[:, None])
        grid_best, _ = oracle.varimax_grid_m2(model.unrotated_loadings, step=1e-4)
        assert abs(achieved - grid_best) < 1e-6

        weights, _ = scoring_weights(corr, rotated.loadings)
        assert_allclose(
            weights,
            oracle.regression_weights(corr.values, rotated.loadings),
            atol=1e-8,
        )

        scores = factor_scores(weights, matrix)
        assert_allclose(
            scores.values, oracle.factor_scores(weights, matrix.values), atol=1e-8
        )

        definition = CompositeDefinition(
            factor_labels=("factor_1", "factor_2"),
            assignments=(
                FactorAssignment(dimension=Dimension.SUITABILITY, sign=1),
                FactorAssignment(dimension=Dimension.ATTRACTIVENESS, sign=1),
            ),
        )
        composites = composite_scores(scores, definition)
        suit_ref, attr_ref = oracle.composite_scores(scores.values, [0], [1], [1.0, 1.0])
        assert_allclose(composites.suitability, suit_ref, atol=1e-8)
        assert_allclose(composites.attractiveness, attr_ref, atol=1e-8)

        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            ours = v_score(composites.suitability, composites.attractiveness, alpha)
            theirs = [
                oracle.v_score(s, a, alpha)
                for s, a in zip(suit_ref, attr_ref)
            ]
            assert_allclose(ours, theirs, atol=1e-8)

        grid = sweep(composites, frozen.SWEEP_ALPHAS, frozen.SWEEP_THETAS)
        reference_grid = oracle.sweep_counts(
            suit_ref, attr_ref, frozen.SWEEP_ALPHAS, frozen.SWEEP_THETAS
        )
        assert np.array_equal(grid.counts, reference_grid)

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def pipeline_instances(count=100):
    from sitefactors import generate

    for seed in range(count):
        rng = np.random.default_rng(seed)
        n_factors = int(rng.integers(2, 4))
        n_attributes = int(rng.integers(n_factors * 3, 11))
        n_regions = int(rng.integers(n_attributes * 6, 110))
        config = SynthConfig(
            seed=seed,
            n_attributes=n_attributes,
            n_regions=n_regions,
            n_factors=n_factors,
            loading=float(rng.uniform(0.6, 0.9)),
            noise_std=0.6,
        )
        table, _ = generate(config)
        yield standardize(table)


def test_criterion_4_invariant_suite():
    with criterion(4, "nine invariants hold over 100 random instances each"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)

        # rotation invariants on random loading matrices
        for _ in range(100):
            loads = rng.normal(size=(int(rng.integers(3, 11)), int(rng.integers(1, 5))))
            result = varimax(loads)
            m = loads.shape[1]
            assert np.abs(result.rotation.T @ result.rotation - np.eye(m)).max() < 1e-10
            assert (
                np.abs(
                    (result.loadings**2).sum(axis=1) - (loads**2).sum(axis=1)
                ).max()
                < 1e-10
            )
            assert np.all(np.diff(result.criterion_history) >= -1e-12)

        # pipeline invariants on factor-structured data
        for matrix in pipeline_instances(100):
            corr = correlation(matrix)
            start, _ = initial_communalities(corr)
            model = paf_iterate(corr)
            rotated = varimax(model.unrotated_loadings)
            weights, _ = scoring_weights(corr, rotated.loadings)
            product = weights @ rotated.loadings
            assert np.abs(product - np.eye(model.n_factors)).max() < 1e-8
            scores = weights @ matrix.values
            assert np.abs(scores.mean(axis=1)).max() < 1e-8
            adjusted = corr.values.copy()
            np.fill_diagonal(adjusted, (start, *model.trajectory)[-2])
            loads = model.unrotated_loadings
            residual = adjusted @ loads - loads * (loads**2).sum(axis=0)
            assert np.abs(residual).max() < 1e-8

        # score-level invariants on random composite sets
        for seed in range(100):
            case = np.random.default_rng(seed)
            n_regions = int(case.integers(2, 80))
            suit = case.normal(size=n_regions)
            attr = case.normal(size=n_regions)
            s, a, t = case.uniform(size=3)
            blend = t * s + (1 - t) * a
            region = int(case.integers(0, n_regions))
            direct = v_score(suit[region], attr[region], blend)
            combined = t * v_score(suit[region], attr[region], s) + (
                1 - t
            ) * v_score(suit[region], attr[region], a)
            assert abs(direct - combined) < 1e-12

            scores = FactorScores(
                values=np.vstack([suit, attr]),
                region_ids=tuple(f"r{j:03d}" for j in range(n_regions)),
            )
            definition = CompositeDefinition(
                factor_labels=("factor_1", "factor_2"),
                assignments=(
                    FactorAssignment(dimension=Dimension.SUITABILITY, sign=1),
                    FactorAssignment(dimension=Dimension.ATTRACTIVENESS, sign=1),
                ),
            )
            composites = composite_scores(scores, definition)
            grid = sweep(
                composites, [0.0, 0.5, 1.0], sorted(case.normal(size=4).tolist())
            )
            assert np.all(np.diff(grid.counts, axis=0) <= 0)
            quadrants, _ = quadrant_classify(composites)
            assert len(quadrants) == n_regions

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_5_endpoint_ranking_equivalence():
    with criterion(5, "v-score rankings at the endpoints equal component rankings"):
        definition = CompositeDefinition(
            factor_labels=("factor_1", "factor_2"),
            assignments=(
                FactorAssignment(dimension=Dimension.SUITABILITY, sign=1),
                FactorAssignment(dimension=Dimension.ATTRACTIVENESS, sign=1),
            ),
        )
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n_regions = int(rng.integers(2, 60))
            scores = FactorScores(
                values=rng.normal(size=(2, n_regions)),
                region_ids=tuple(f"r{j:03d}" for j in range(n_regions)),
            )
            at_one = score_regions(scores, definition, 1.0)
            at_zero = score_regions(scores, definition, 0.0)
            ids = scores.region_ids
            assert top_k(ids, at_one.v_scores, n_regions) == top_k(
                ids, at_one.suitability, n_regions
            )
            assert top_k(ids, at_zero.v_scores, n_regions) == top_k(
                ids, at_zero.attractiveness, n_regions
            )


def test_criterion_6_end_to_end_determinism(tmp_path):
    with criterion(6, "fit + sweep reruns produce byte-identical output directories"):
        definition_path = tmp_path / "definition.json"
        definition_path.write_text(
            json.dumps(
                {
                    "factor_1": {"dimension": "suitability", "sign": 1},
                    "factor_2": {"dimension": "attractiveness", "sign": 1},
                }
            )
        )
        outputs = []
        for run in ("run_a", "run_b"):
            out = tmp_path / run
            assert (
                main(
                    [
                        "fit",
                        "--input",
                        str(FIXTURE),
                        "--out",
                        str(out),
                        "--quiet",
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "sweep",
                        "--input",
                        str(FIXTURE),
                        "--out",
                        str(out),
                        "--composite.definition",
                        str(definition_path),
                        "--quiet",
                    ]
                )
                == 0
            )
            outputs.append(out)
        first, second = outputs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert len(names) >= 10
        for name in names:
            assert (first / name).read_bytes() == (
                second / name
            ).read_bytes(), name


def test_criterion_7_default_sweep_structure(tmp_path):
    with criterion(7, "default sweep emits the 7x6 grid in count (pct%) layout"):
        import re

        data_dir = tmp_path / "data"
        assert (
            main(
                [
                    "synth",
                    "--out",
                    str(data_dir),
                    "--quiet",
                ]
            )
            == 0
        )
        out = tmp_path / "out"
        assert (
            main(
                [
                    "sweep",
                    "--input",
                    str(data_dir / "synthetic.csv"),
                    "--out",
                    str(out),
                    "--quiet",
                ]
            )
            == 0
        )
        lines = (out / "sweep_wide.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["theta", "0.0", "0.2", "0.4", "0.6", "0.8", "1.0"]
        assert len(lines) == 8  # header + 7 theta rows
        thetas = [row.split(",")[0] for row in lines[1:]]
        assert thetas == ["1.0", "1.5", "2.0", "2.5", "3.0", "3.5", "4.0"]
        cell = re.compile(r"^\d+ \(\d+\.\d%\)$")
        for row in lines[1:]:
            for value in row.split(",")[1:]:
                assert cell.match(value), value

        # percentages are computed against the full region count
        long_rows = (out / "sweep_long.csv").read_text().strip().splitlines()[1:]
        for row in long_rows:
            _, _, count, pct = row.split(",")
            assert float(pct) == pytest.approx(int(count) / 426 * 100.0, abs=5e-7)
