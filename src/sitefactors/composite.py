"""Signed composites, v-scores, quadrant typologies and sensitivity sweeps."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import median, read_json_object
from .engine import FactorScores, factor_labels
from .errors import (
    AlphaRangeError,
    IncompleteDefinitionError,
    KRangeError,
    SchemaError,
)


class Dimension(enum.Enum):
    SUITABILITY = "suitability"
    ATTRACTIVENESS = "attractiveness"


class Quadrant(enum.Enum):
    BOTH_HIGH = "BothHigh"
    SUITABILITY_BIASED = "SuitabilityBiased"
    ATTRACTIVENESS_BIASED = "AttractivenessBiased"
    BOTH_LOW = "BothLow"


class Typology(enum.Enum):
    BALANCED = "Balanced"
    SUITABILITY_BIASED = "SuitabilityBiased"
    ATTRACTIVENESS_BIASED = "AttractivenessBiased"
    NONE = "None"


@dataclass(frozen=True)
class FactorAssignment:
    dimension: Dimension
    sign: int

    def __post_init__(self):
        # True and 1.0 equal 1 in Python; only the integers are signs
        if type(self.sign) is not int or self.sign not in (-1, 1):
            raise SchemaError(f"sign must be the integer 1 or -1, got {self.sign!r}")


# The signed assignment of each retained factor, in model order: entry m
# belongs to `factor_<m+1>`.
CompositeDefinition = tuple[FactorAssignment, ...]


# Shipped default for six retained factors: the second and fourth factors
# lower suitability, everything else counts positively toward its dimension.
_DEFAULT_SIX = (
    (Dimension.ATTRACTIVENESS, 1),
    (Dimension.SUITABILITY, -1),
    (Dimension.SUITABILITY, 1),
    (Dimension.SUITABILITY, -1),
    (Dimension.ATTRACTIVENESS, 1),
    (Dimension.ATTRACTIVENESS, 1),
)


def default_definition(n_factors: int) -> CompositeDefinition:
    """Built-in six-factor assignment; other factor counts need an explicit file."""
    if n_factors != len(_DEFAULT_SIX):
        raise IncompleteDefinitionError(
            f"no built-in composite definition for {n_factors} factors; "
            "provide one via composite.definition"
        )
    return tuple(
        FactorAssignment(dimension=dim, sign=sign) for dim, sign in _DEFAULT_SIX
    )


def load_definition(path, n_factors: int) -> CompositeDefinition:
    """Read a JSON mapping of factor label -> {dimension, sign} and bind it to
    the retained factors `factor_1`..`factor_<n>`, in model order.

    Entries are matched by label, so their order in the file does not
    matter; every retained factor must be named exactly once. Any other key
    of an entry, such as a "note", is ignored.
    """
    path = Path(path)
    raw = read_json_object(path, "composite definition")
    if not isinstance(raw, dict) or not raw:
        raise SchemaError(f"{path}: expected a non-empty JSON object")
    by_label = {}
    for label, entry in raw.items():
        if not isinstance(entry, dict) or "dimension" not in entry or "sign" not in entry:
            raise SchemaError(f"{path}: entry {label!r} needs 'dimension' and 'sign'")
        try:
            dimension = Dimension(str(entry["dimension"]).lower())
        except ValueError as exc:
            raise SchemaError(
                f"{path}: entry {label!r} has unknown dimension {entry['dimension']!r}"
            ) from exc
        try:
            by_label[label] = FactorAssignment(dimension=dimension, sign=entry["sign"])
        except SchemaError as exc:
            raise SchemaError(f"{path}: entry {label!r} {exc}") from exc
    labels = factor_labels(n_factors)
    missing = [label for label in labels if label not in by_label]
    unknown = [label for label in by_label if label not in labels]
    if missing or unknown:
        raise IncompleteDefinitionError(
            f"composite definition must name the {n_factors} retained factors "
            f"once each: missing {missing}, unknown {unknown}"
        )
    return tuple(by_label[label] for label in labels)


@dataclass(frozen=True)
class CompositeScores:
    """Per-region suitability and attractiveness sums."""

    region_ids: tuple[str, ...]
    suitability: np.ndarray
    attractiveness: np.ndarray

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)


@dataclass(frozen=True)
class TypologyConfig:
    """Bands (on rank-normalized scores) separating balanced from biased."""

    balance_band: float = 0.1
    bias_band: float = 0.5

    def __post_init__(self):
        # the manifest records every setting, and JSON has no infinity
        if not 0.0 <= self.balance_band <= self.bias_band < np.inf:
            raise SchemaError(
                "typology bands need 0 <= balance_band <= bias_band < inf, got "
                f"{self.balance_band} and {self.bias_band}"
            )


@dataclass(frozen=True)
class RegionScores(CompositeScores):
    """The composites with the columns that follow from a weighting alpha."""

    factor_scores: np.ndarray  # M x R
    v_scores: np.ndarray
    quadrants: tuple[Quadrant, ...]
    typologies: tuple[Typology, ...]


def composite_scores(
    scores: FactorScores, definition: CompositeDefinition
) -> CompositeScores:
    """Signed sums of factor scores per dimension.

    With every sign at +1 this is the plain binary split of factors into the
    two dimensions.
    """
    if len(definition) != scores.n_factors:
        raise IncompleteDefinitionError(
            f"composite definition has {len(definition)} assignments for "
            f"{scores.n_factors} factors"
        )
    signs = np.array([a.sign for a in definition], dtype=float)
    signed = signs[:, None] * scores.values
    rows = {dim: [m for m, a in enumerate(definition) if a.dimension is dim] for dim in Dimension}
    # a dimension without factors sums an empty selection: R positive zeros
    return CompositeScores(
        region_ids=scores.region_ids,
        suitability=signed[rows[Dimension.SUITABILITY], :].sum(axis=0),
        attractiveness=signed[rows[Dimension.ATTRACTIVENESS], :].sum(axis=0),
    )


def v_score(suitability, attractiveness, alpha: float):
    """Convex combination alpha*suitability + (1-alpha)*attractiveness."""
    if not 0.0 <= alpha <= 1.0:
        raise AlphaRangeError(f"alpha must be within [0, 1], got {alpha}")
    return alpha * np.asarray(suitability) + (1.0 - alpha) * np.asarray(attractiveness)


def _rank_normalize(values: np.ndarray) -> np.ndarray:
    """Average ranks mapped onto [0, 1]; a single value sits at 0.5."""
    n = len(values)
    if n == 1:
        return np.array([0.5])
    # a value's average 0-based rank is the mean of the first and last sorted
    # positions it occupies: (count below + count at or below - 1) / 2
    ordered = np.sort(values)
    below = np.searchsorted(ordered, values, side="left")
    through = np.searchsorted(ordered, values, side="right")
    return (below + through - 1) / 2.0 / (n - 1.0)


def quadrant_classify(
    scores: CompositeScores, config: TypologyConfig = TypologyConfig()
):
    """Median-split quadrants plus typologies inside the high-high quadrant.

    Scores equal to the median count as high. Within the high-high quadrant
    the rank-normalized gap between the two scores decides the typology:
    within `balance_band` of zero is balanced, beyond `bias_band` in either
    direction is biased toward the larger score, anything between stays
    unlabeled. Regions outside the high-high quadrant are always unlabeled.
    """
    suit = scores.suitability
    attr = scores.attractiveness
    s_high = suit >= median(suit)
    a_high = attr >= median(attr)
    both = s_high & a_high
    gap = _rank_normalize(suit) - _rank_normalize(attr)
    quadrants = np.select(
        [both, s_high, a_high],
        [Quadrant.BOTH_HIGH, Quadrant.SUITABILITY_BIASED, Quadrant.ATTRACTIVENESS_BIASED],
        default=Quadrant.BOTH_LOW,
    )
    typologies = np.select(
        [
            both & (np.abs(gap) <= config.balance_band),
            both & (gap > config.bias_band),
            both & (-gap > config.bias_band),
        ],
        [Typology.BALANCED, Typology.SUITABILITY_BIASED, Typology.ATTRACTIVENESS_BIASED],
        default=Typology.NONE,
    )
    return tuple(quadrants), tuple(typologies)


def score_regions(
    scores: FactorScores,
    definition: CompositeDefinition,
    alpha: float,
    typology_config: TypologyConfig = TypologyConfig(),
) -> RegionScores:
    """Assemble the full per-region table at a given alpha."""
    composites = composite_scores(scores, definition)
    quadrants, typologies = quadrant_classify(composites, typology_config)
    return RegionScores(
        **vars(composites),
        factor_scores=scores.values,
        v_scores=v_score(composites.suitability, composites.attractiveness, alpha),
        quadrants=quadrants,
        typologies=typologies,
    )


@dataclass(frozen=True)
class SweepGrid:
    """Region counts over the (alpha, theta) grid, thetas down the rows.

    `rankings` holds each alpha's top-k `(region id, v-score)` pairs when
    `sweep` was given a k, and is empty otherwise.
    """

    alphas: tuple[float, ...]
    thetas: tuple[float, ...]
    counts: np.ndarray
    percentages: np.ndarray
    rankings: tuple[list, ...] = ()

    def __post_init__(self):
        for name, grid in (("alphas", self.alphas), ("thetas", self.thetas)):
            # every comparison with a NaN is false: a pair holding one is not
            # ascending, and a lone NaN is not equal to itself
            ascending = all(a < b for a, b in zip(grid, grid[1:]))
            if not (grid and grid[0] == grid[0] and ascending):
                raise SchemaError(f"sweep {name} must be non-empty and strictly ascending")


def sweep(scores: CompositeScores, alphas, thetas, k: int | None = None) -> SweepGrid:
    """Count regions whose v-score strictly exceeds each threshold.

    Given k, each alpha's v-scores are also ranked by `top_k`, so the
    counts and the rankings come from one v-score vector per alpha.
    `SweepGrid` refuses an empty or unordered grid.
    """
    alphas = [float(a) for a in alphas]
    thetas = [float(t) for t in thetas]
    counts = np.zeros((len(thetas), len(alphas)), dtype=int)
    theta_column = np.array(thetas)[:, None]
    rankings = []
    for ai, alpha in enumerate(alphas):
        v = v_score(scores.suitability, scores.attractiveness, alpha)
        counts[:, ai] = (v > theta_column).sum(axis=1)
        if k is not None:
            rankings.append(top_k(scores.region_ids, v, k))
    return SweepGrid(
        alphas=tuple(alphas),
        thetas=tuple(thetas),
        counts=counts,
        percentages=counts / scores.n_regions * 100.0,
        rankings=tuple(rankings),
    )


def top_k(region_ids, values, k: int):
    """Best k `(region id, value)` pairs by value, ties broken by region id."""
    if not 1 <= k <= len(region_ids):
        raise KRangeError(f"k must be within [1, {len(region_ids)}], got {k}")
    negated = -values
    # the k best and every value tied with the k-th; a NaN sorts last in
    # both numpy orders, so a NaN cut keeps every region
    cut = np.partition(negated, k - 1)[k - 1]
    candidates = np.flatnonzero(~(negated > cut))
    # an object array compares ids as Python strings; numpy's fixed-width
    # strings would drop trailing NULs and tie ids that differ only there
    ids = np.array([region_ids[j] for j in candidates], dtype=object)
    order = candidates[np.lexsort((ids, negated[candidates]))[:k]]
    return [(region_ids[j], float(values[j])) for j in order]

