import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import expected_small4x6 as frozen
import oracle
from sitefactors import (
    AlphaRangeError,
    Dimension,
    FactorAssignment,
    FactorScores,
    IncompleteDefinitionError,
    KRangeError,
    Quadrant,
    SchemaError,
    Typology,
    TypologyConfig,
    composite_scores,
    default_definition,
    factor_scores,
    load_definition,
    quadrant_classify,
    score_regions,
    sweep,
    top_k,
    v_score,
)
from sitefactors.composite import CompositeScores


def simple_definition(n, suit_idx=(0,), signs=None):
    signs = signs or [1] * n
    return tuple(
        FactorAssignment(
            dimension=Dimension.SUITABILITY if m in suit_idx else Dimension.ATTRACTIVENESS,
            sign=signs[m],
        )
        for m in range(n)
    )


def scores_from(values, prefix="r"):
    values = np.asarray(values, dtype=float)
    return FactorScores(
        values=values,
        region_ids=tuple(f"{prefix}{j + 1:02d}" for j in range(values.shape[1])),
    )


@pytest.fixture(scope="module")
def fixture_scores(matrix, model):
    return factor_scores(model.scoring_weights, matrix)


@pytest.fixture(scope="module")
def fixture_definition():
    return simple_definition(2)


class TestCompositeScores:
    def test_two_factor_passthrough(self):
        scores = scores_from([[2.0], [3.0]])
        result = composite_scores(scores, simple_definition(2))
        assert result.suitability[0] == 2.0
        assert result.attractiveness[0] == 3.0

    def test_default_six_factor_signs(self):
        scores = scores_from(np.ones((6, 1)))
        result = composite_scores(scores, default_definition(6))
        # suitability factors 2, 3, 4 with signs -, +, -
        assert result.suitability[0] == pytest.approx(-1.0)
        assert result.attractiveness[0] == pytest.approx(3.0)

    def test_binary_mode_drops_signs(self):
        scores = scores_from(np.ones((6, 1)))
        binary = tuple(
            FactorAssignment(dimension=a.dimension, sign=1) for a in default_definition(6)
        )
        result = composite_scores(scores, binary)
        assert result.suitability[0] == pytest.approx(3.0)
        assert result.attractiveness[0] == pytest.approx(3.0)

    def test_fixture_matches_oracle(self, fixture_scores, fixture_definition):
        result = composite_scores(fixture_scores, fixture_definition)
        suit, attr = oracle.composite_scores(
            fixture_scores.values, [0], [1], [1.0, 1.0]
        )
        assert_allclose(result.suitability, suit, atol=1e-10)
        assert_allclose(result.attractiveness, attr, atol=1e-10)
        assert_allclose(result.suitability, frozen.SUITABILITY, atol=1e-7)
        assert_allclose(result.attractiveness, frozen.ATTRACTIVENESS, atol=1e-7)

    def test_incomplete_definition_rejected(self, fixture_scores):
        with pytest.raises(IncompleteDefinitionError):
            composite_scores(fixture_scores, simple_definition(3))

    def test_default_definition_needs_six(self):
        with pytest.raises(IncompleteDefinitionError):
            default_definition(4)

    def test_every_factor_suitability_leaves_attractiveness_zero(self):
        values = np.random.default_rng(3).normal(size=(3, 7))
        signs = [1, -1, 1]
        result = composite_scores(
            scores_from(values), simple_definition(3, suit_idx=(0, 1, 2), signs=signs)
        )
        suit, attr = oracle.composite_scores(values, [0, 1, 2], [], signs)
        assert_allclose(result.suitability, suit, atol=1e-10)
        assert_allclose(result.attractiveness, attr, atol=0)
        assert np.array_equal(result.attractiveness, np.zeros(7))
        assert not np.signbit(result.attractiveness).any()

    def test_signs_must_be_unit(self):
        # True and 1.0 compare equal to 1, but only the integers are signs
        for sign in (2, True, 1.0, -1.0):
            with pytest.raises(SchemaError):
                FactorAssignment(dimension=Dimension.SUITABILITY, sign=sign)


class TestDefinitionFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "definition.json"
        path.write_text(
            json.dumps(
                {
                    "factor_1": {"dimension": "suitability", "sign": 1},
                    "factor_2": {"dimension": "attractiveness", "sign": -1},
                }
            )
        )
        definition = load_definition(path, 2)
        assert [a.sign for a in definition] == [1, -1]
        assert [a.dimension for a in definition] == [
            Dimension.SUITABILITY,
            Dimension.ATTRACTIVENESS,
        ]

    def test_bad_dimension_rejected(self, tmp_path):
        path = tmp_path / "definition.json"
        path.write_text(json.dumps({"factor_1": {"dimension": "niceness", "sign": 1}}))
        with pytest.raises(SchemaError):
            load_definition(path, 1)

    def test_bad_sign_rejected(self, tmp_path):
        path = tmp_path / "definition.json"
        path.write_text(json.dumps({"factor_1": {"dimension": "suitability", "sign": 0}}))
        with pytest.raises(SchemaError):
            load_definition(path, 1)

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0, "1"])
    def test_sign_must_be_an_integer(self, tmp_path, sign):
        path = tmp_path / "definition.json"
        path.write_text(json.dumps({"factor_1": {"dimension": "suitability", "sign": sign}}))
        with pytest.raises(SchemaError, match="entry 'factor_1' sign must be the integer"):
            load_definition(path, 1)


class TestVScore:
    def test_endpoints(self):
        assert v_score(4.0, 2.0, 1.0) == 4.0
        assert v_score(4.0, 2.0, 0.0) == 2.0

    def test_midpoint(self):
        assert v_score(4.0, 2.0, 0.5) == 3.0

    def test_out_of_range_alpha(self):
        with pytest.raises(AlphaRangeError):
            v_score(1.0, 1.0, 1.5)
        with pytest.raises(AlphaRangeError):
            v_score(1.0, 1.0, -0.1)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        s, a = rng.normal(size=2)
        for _ in range(20):
            a1, a2, t = rng.uniform(size=3)
            blend = t * a1 + (1 - t) * a2
            direct = v_score(s, a, blend)
            combined = t * v_score(s, a, a1) + (1 - t) * v_score(s, a, a2)
            assert direct == pytest.approx(combined, abs=1e-12)


class TestQuadrants:
    def test_single_region_is_both_high(self):
        composites = CompositeScores(
            region_ids=("only",),
            suitability=np.array([1.3]),
            attractiveness=np.array([-0.4]),
        )
        quadrants, typologies = quadrant_classify(composites)
        assert quadrants == (Quadrant.BOTH_HIGH,)
        assert typologies == (Typology.BALANCED,)

    def test_extreme_split_is_suitability_biased_quadrant(self):
        rng = np.random.default_rng(8)
        suit = np.sort(rng.normal(size=100))
        attr = np.sort(rng.normal(size=100))[::-1].copy()
        composites = CompositeScores(
            region_ids=tuple(f"r{j}" for j in range(100)),
            suitability=suit,
            attractiveness=attr,
        )
        quadrants, _ = quadrant_classify(composites)
        assert quadrants[95] == Quadrant.SUITABILITY_BIASED
        assert quadrants[5] == Quadrant.ATTRACTIVENESS_BIASED

    def test_matches_brute_force_on_random_set(self):
        rng = np.random.default_rng(31)
        suit = rng.normal(size=100)
        attr = rng.normal(size=100)
        composites = CompositeScores(
            region_ids=tuple(f"r{j}" for j in range(100)),
            suitability=suit,
            attractiveness=attr,
        )
        quadrants, _ = quadrant_classify(composites)
        expected = oracle.median_quadrants(suit, attr)
        assert [q.value for q in quadrants] == expected

    def test_counts_partition_regions(self):
        rng = np.random.default_rng(13)
        composites = CompositeScores(
            region_ids=tuple(f"r{j}" for j in range(57)),
            suitability=rng.normal(size=57),
            attractiveness=rng.normal(size=57),
        )
        quadrants, _ = quadrant_classify(composites)
        assert len(quadrants) == 57

    def test_typology_bands(self):
        # high-high regions engineered to hit each band
        suit = np.array([5.0, 4.0, -1.0, -2.0, 3.0])
        attr = np.array([5.0, -1.0, 4.0, -2.0, 3.1])
        composites = CompositeScores(
            region_ids=("both", "s_only", "a_only", "low", "mid"),
            suitability=suit,
            attractiveness=attr,
        )
        quadrants, typologies = quadrant_classify(
            composites, TypologyConfig(balance_band=0.1, bias_band=0.5)
        )
        assert quadrants[0] == Quadrant.BOTH_HIGH
        assert typologies[0] == Typology.BALANCED
        assert typologies[1] == Typology.NONE  # not in the high-high quadrant
        assert quadrants[3] == Quadrant.BOTH_LOW

    def test_biased_typologies_inside_high_quadrant(self):
        # region 4 sits above both medians: top suitability rank (1.0 after
        # rank-normalization) but only middling attractiveness (0.5)
        suit = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        attr = np.array([4.0, 3.0, 2.5, 2.4, 2.6])
        composites = CompositeScores(
            region_ids=tuple(f"r{j}" for j in range(5)),
            suitability=suit,
            attractiveness=attr,
        )
        quadrants, typologies = quadrant_classify(
            composites, TypologyConfig(balance_band=0.05, bias_band=0.4)
        )
        assert quadrants[4] == Quadrant.BOTH_HIGH
        assert typologies[4] == Typology.SUITABILITY_BIASED

    def test_gap_at_bias_band_stays_unlabeled(self):
        # rank fractions: suitability (0, 0.5, 1), attractiveness (0, 1, 0.5);
        # regions 1 and 2 are high-high with gaps of exactly -0.5 and +0.5
        composites = CompositeScores(
            region_ids=("r0", "r1", "r2"),
            suitability=np.array([0.0, 1.0, 2.0]),
            attractiveness=np.array([0.0, 2.0, 1.0]),
        )
        quadrants, typologies = quadrant_classify(
            composites, TypologyConfig(balance_band=0.1, bias_band=0.5)
        )
        assert quadrants[1:] == (Quadrant.BOTH_HIGH, Quadrant.BOTH_HIGH)
        assert typologies[1:] == (Typology.NONE, Typology.NONE)
        quadrants, typologies = quadrant_classify(
            composites, TypologyConfig(balance_band=0.1, bias_band=0.4)
        )
        assert typologies[1:] == (
            Typology.ATTRACTIVENESS_BIASED,
            Typology.SUITABILITY_BIASED,
        )

    def test_fixture_quadrants(self, fixture_scores, fixture_definition):
        composites = composite_scores(fixture_scores, fixture_definition)
        quadrants, _ = quadrant_classify(composites)
        assert [q.value for q in quadrants] == frozen.QUADRANTS


class TestSweep:
    def test_threshold_below_min_selects_all(self):
        composites = CompositeScores(
            region_ids=("a", "b"),
            suitability=np.array([1.0, 2.0]),
            attractiveness=np.array([3.0, 0.5]),
        )
        grid = sweep(composites, [0.0, 0.5, 1.0], [-10.0])
        assert np.all(grid.counts == 2)

    def test_threshold_above_max_selects_none(self):
        composites = CompositeScores(
            region_ids=("a", "b"),
            suitability=np.array([1.0, 2.0]),
            attractiveness=np.array([3.0, 0.5]),
        )
        grid = sweep(composites, [0.0, 0.5, 1.0], [10.0])
        assert np.all(grid.counts == 0)

    def test_strict_inequality(self):
        composites = CompositeScores(
            region_ids=("a",),
            suitability=np.array([2.0]),
            attractiveness=np.array([2.0]),
        )
        grid = sweep(composites, [0.5], [2.0])
        assert grid.counts[0, 0] == 0

    def test_single_region_counts_are_binary(self):
        composites = CompositeScores(
            region_ids=("only",),
            suitability=np.array([1.2]),
            attractiveness=np.array([-0.3]),
        )
        grid = sweep(composites, [0.0, 0.5, 1.0], [-1.0, 0.0, 1.0, 2.0])
        assert set(np.unique(grid.counts)) <= {0, 1}

    def test_fixture_matches_oracle(self, fixture_scores, fixture_definition):
        composites = composite_scores(fixture_scores, fixture_definition)
        grid = sweep(composites, frozen.SWEEP_ALPHAS, frozen.SWEEP_THETAS)
        assert grid.counts.tolist() == frozen.SWEEP_COUNTS
        reference = oracle.sweep_counts(
            composites.suitability,
            composites.attractiveness,
            frozen.SWEEP_ALPHAS,
            frozen.SWEEP_THETAS,
        )
        assert np.array_equal(grid.counts, reference)

    @pytest.mark.parametrize("thetas", [[1.0, np.nan, 0.5], [np.nan, 1.0], [1.0, np.nan]])
    def test_nan_breaks_the_ascending_order(self, thetas):
        composites = CompositeScores(
            region_ids=("a",),
            suitability=np.array([2.0]),
            attractiveness=np.array([2.0]),
        )
        with pytest.raises(SchemaError, match="strictly ascending"):
            sweep(composites, [0.5], thetas)

    def test_counts_monotone_in_theta(self):
        rng = np.random.default_rng(4)
        composites = CompositeScores(
            region_ids=tuple(f"r{j}" for j in range(80)),
            suitability=rng.normal(size=80),
            attractiveness=rng.normal(size=80),
        )
        grid = sweep(composites, [0.0, 0.25, 0.5, 0.75, 1.0], [-1.0, 0.0, 0.5, 1.0])
        assert np.all(np.diff(grid.counts, axis=0) <= 0)

    def test_percentages_use_region_count(self):
        composites = CompositeScores(
            region_ids=("a", "b", "c", "d"),
            suitability=np.array([1.0, 2.0, 3.0, 4.0]),
            attractiveness=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        grid = sweep(composites, [0.5], [2.5])
        assert grid.counts[0, 0] == 2
        assert grid.percentages[0, 0] == pytest.approx(50.0)

    def test_alpha_outside_range_rejected(self):
        composites = CompositeScores(
            region_ids=("a",),
            suitability=np.array([1.0]),
            attractiveness=np.array([1.0]),
        )
        with pytest.raises(AlphaRangeError):
            sweep(composites, [0.0, 1.2], [1.0])
        with pytest.raises(AlphaRangeError):
            sweep(composites, [0.0, float("nan")], [1.0])

    def test_unsorted_grids_rejected(self):
        composites = CompositeScores(
            region_ids=("a",),
            suitability=np.array([1.0]),
            attractiveness=np.array([1.0]),
        )
        with pytest.raises(SchemaError):
            sweep(composites, [0.5, 0.2], [1.0])
        with pytest.raises(SchemaError):
            sweep(composites, [0.2, 0.5], [2.0, 1.0])

    @pytest.mark.parametrize(
        "alphas, thetas",
        [([0.5], [np.nan]), ([], [1.0]), ([0.5], []), ([], [])],
        ids=["lone-nan-theta", "no-alpha", "no-theta", "neither"],
    )
    def test_empty_or_lone_nan_grid_rejected(self, alphas, thetas):
        composites = CompositeScores(
            region_ids=("a",),
            suitability=np.array([1.0]),
            attractiveness=np.array([1.0]),
        )
        with pytest.raises(SchemaError, match="non-empty and strictly ascending"):
            sweep(composites, alphas, thetas)

    def test_region_scores_are_composites(self, fixture_scores, fixture_definition):
        regions = score_regions(fixture_scores, fixture_definition, 0.5)
        composites = composite_scores(fixture_scores, fixture_definition)
        assert isinstance(regions, CompositeScores)
        assert regions.n_regions == composites.n_regions == len(frozen.QUADRANTS)
        assert quadrant_classify(regions) == (regions.quadrants, regions.typologies)
        on_regions = sweep(regions, frozen.SWEEP_ALPHAS, frozen.SWEEP_THETAS, k=3)
        on_composites = sweep(composites, frozen.SWEEP_ALPHAS, frozen.SWEEP_THETAS, k=3)
        assert np.array_equal(on_regions.counts, on_composites.counts)
        assert np.array_equal(on_regions.percentages, on_composites.percentages)
        assert on_regions.rankings == on_composites.rankings


class TestTopK:
    def build(self, suit, attr, alpha=0.5):
        scores = scores_from(np.vstack([suit, attr]))
        return score_regions(scores, simple_definition(2), alpha)

    def test_full_ranking_is_permutation(self):
        rng = np.random.default_rng(6)
        regions = self.build(rng.normal(size=9), rng.normal(size=9))
        ranking = top_k(regions.region_ids, regions.v_scores, 9)
        assert sorted(rid for rid, _ in ranking) == sorted(regions.region_ids)

    def test_ties_break_lexicographically(self):
        regions = self.build([1.0, 1.0, 0.0], [1.0, 1.0, 0.0])
        ranking = top_k(regions.region_ids, regions.suitability, 2)
        assert [rid for rid, _ in ranking] == ["r01", "r02"]

    def test_fixture_matches_oracle(self, fixture_scores, fixture_definition):
        regions = score_regions(fixture_scores, fixture_definition, 0.5)
        ranking = top_k(regions.region_ids, regions.suitability, 6)
        expected = oracle.top_k(
            list(regions.region_ids), regions.suitability, 6
        )
        assert [rid for rid, _ in ranking] == expected

    def test_k_out_of_range(self):
        regions = self.build([1.0, 2.0, 0.5], [0.0, 1.0, 2.0])
        with pytest.raises(KRangeError):
            top_k(regions.region_ids, regions.v_scores, 0)
        with pytest.raises(KRangeError):
            top_k(regions.region_ids, regions.v_scores, 4)

    def test_endpoint_alpha_matches_component_ranking(self):
        rng = np.random.default_rng(14)
        suit, attr = rng.normal(size=(2, 40))
        at_one = self.build(suit, attr, alpha=1.0)
        at_zero = self.build(suit, attr, alpha=0.0)
        ids = at_one.region_ids
        assert top_k(ids, at_one.v_scores, 40) == top_k(ids, at_one.suitability, 40)
        assert top_k(ids, at_zero.v_scores, 40) == top_k(ids, at_zero.attractiveness, 40)


class TestRegionScores:
    def test_assembled_table_is_consistent(self, fixture_scores, fixture_definition):
        regions = score_regions(fixture_scores, fixture_definition, 0.5)
        assert_allclose(regions.v_scores, frozen.V_AT_HALF, atol=1e-7)
        recomputed = 0.5 * regions.suitability + 0.5 * regions.attractiveness
        assert_allclose(regions.v_scores, recomputed, atol=0)
        signed = regions.factor_scores
        assert_allclose(regions.suitability, signed[0], atol=1e-10)
        assert_allclose(regions.attractiveness, signed[1], atol=1e-10)
