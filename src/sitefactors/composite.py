"""Signed composites, v-scores, quadrant typologies and sensitivity sweeps."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import median
from .engine import FactorScores, factor_labels
from .errors import (
    AlphaRangeError,
    IncompleteDefinitionError,
    KRangeError,
    SchemaError,
    ZeroDenominatorError,
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
    note: str = ""

    def __post_init__(self):
        # True and 1.0 equal 1 in Python; only the integers are signs
        if type(self.sign) is not int or self.sign not in (-1, 1):
            raise SchemaError(f"sign must be the integer 1 or -1, got {self.sign!r}")


@dataclass(frozen=True)
class CompositeDefinition:
    """Signed assignment of every factor to exactly one composite dimension."""

    factor_labels: tuple[str, ...]
    assignments: tuple[FactorAssignment, ...]

    def __post_init__(self):
        if len(self.factor_labels) != len(self.assignments):
            raise IncompleteDefinitionError(
                "one assignment per factor label is required"
            )
        if len(set(self.factor_labels)) != len(self.factor_labels):
            raise SchemaError("duplicate factor labels in composite definition")

    @property
    def n_factors(self) -> int:
        return len(self.assignments)

    @property
    def signs(self) -> np.ndarray:
        return np.array([a.sign for a in self.assignments], dtype=float)

    def indices(self, dimension: Dimension) -> tuple[int, ...]:
        return tuple(
            m for m, a in enumerate(self.assignments) if a.dimension is dimension
        )

    def as_binary(self) -> "CompositeDefinition":
        """Same dimension split with every sign forced to +1."""
        return CompositeDefinition(
            factor_labels=self.factor_labels,
            assignments=tuple(
                FactorAssignment(dimension=a.dimension, sign=1, note=a.note)
                for a in self.assignments
            ),
        )

    def for_factors(self, n_factors: int) -> "CompositeDefinition":
        """The assignments of `factor_1`..`factor_<n>`, in model order.

        Entries are matched by label, so their order in a definition file
        does not matter; every retained factor must be named exactly once.
        """
        labels = factor_labels(n_factors)
        missing = [label for label in labels if label not in self.factor_labels]
        unknown = [label for label in self.factor_labels if label not in labels]
        if missing or unknown:
            raise IncompleteDefinitionError(
                f"composite definition must name the {n_factors} retained factors "
                f"once each: missing {missing}, unknown {unknown}"
            )
        by_label = dict(zip(self.factor_labels, self.assignments))
        return CompositeDefinition(
            factor_labels=labels, assignments=tuple(by_label[label] for label in labels)
        )


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
    return CompositeDefinition(
        factor_labels=factor_labels(n_factors),
        assignments=tuple(
            FactorAssignment(dimension=dim, sign=sign, note="built-in default")
            for dim, sign in _DEFAULT_SIX
        ),
    )


def load_definition(path) -> CompositeDefinition:
    """Read a JSON mapping of factor label -> {dimension, sign[, note]}."""
    path = Path(path)
    # besides malformed JSON, ValueError covers bytes that are not UTF-8 and
    # integers longer than Python's int-string digit limit
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read composite definition {path}: {exc}") from exc
    if not isinstance(raw, dict) or not raw:
        raise SchemaError(f"{path}: expected a non-empty JSON object")
    labels = []
    assignments = []
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
            assignment = FactorAssignment(
                dimension=dimension, sign=entry["sign"], note=str(entry.get("note", ""))
            )
        except SchemaError as exc:
            raise SchemaError(f"{path}: entry {label!r} {exc}") from exc
        labels.append(label)
        assignments.append(assignment)
    return CompositeDefinition(
        factor_labels=tuple(labels), assignments=tuple(assignments)
    )


@dataclass(frozen=True)
class CompositeScores:
    """Per-region suitability and attractiveness sums."""

    region_ids: tuple[str, ...]
    suitability: np.ndarray
    attractiveness: np.ndarray


@dataclass(frozen=True)
class TypologyConfig:
    """Bands (on rank-normalized scores) separating balanced from biased."""

    balance_band: float = 0.1
    bias_band: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.balance_band <= self.bias_band:
            raise SchemaError(
                "typology bands need 0 <= balance_band <= bias_band, got "
                f"{self.balance_band} and {self.bias_band}"
            )


@dataclass(frozen=True)
class RegionScores:
    """The assembled per-region score table at a fixed weighting alpha."""

    region_ids: tuple[str, ...]
    factor_scores: np.ndarray  # M x R
    suitability: np.ndarray
    attractiveness: np.ndarray
    alpha: float
    v_scores: np.ndarray
    quadrants: tuple[Quadrant, ...]
    typologies: tuple[Typology, ...]

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)


def composite_scores(
    scores: FactorScores, definition: CompositeDefinition
) -> CompositeScores:
    """Signed sums of factor scores per dimension.

    With every sign at +1 this is the plain binary split of factors into the
    two dimensions.
    """
    definition = definition.for_factors(scores.n_factors)
    signed = definition.signs[:, None] * scores.values
    suit_idx = list(definition.indices(Dimension.SUITABILITY))
    attr_idx = list(definition.indices(Dimension.ATTRACTIVENESS))
    # a dimension without factors sums an empty selection: R positive zeros
    return CompositeScores(
        region_ids=scores.region_ids,
        suitability=signed[suit_idx, :].sum(axis=0),
        attractiveness=signed[attr_idx, :].sum(axis=0),
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
    v = v_score(composites.suitability, composites.attractiveness, alpha)
    quadrants, typologies = quadrant_classify(composites, typology_config)
    return RegionScores(
        region_ids=scores.region_ids,
        factor_scores=scores.values,
        suitability=composites.suitability,
        attractiveness=composites.attractiveness,
        alpha=alpha,
        v_scores=v,
        quadrants=quadrants,
        typologies=typologies,
    )


@dataclass(frozen=True)
class SweepGrid:
    """Region counts over the (alpha, theta) grid, thetas down the rows."""

    alphas: tuple[float, ...]
    thetas: tuple[float, ...]
    counts: np.ndarray
    percentages: np.ndarray
    n_regions: int

    def __post_init__(self):
        for name, grid in (("alphas", self.alphas), ("thetas", self.thetas)):
            # written so that a NaN, which compares false, fails it
            if not all(a < b for a, b in zip(grid, grid[1:])):
                raise SchemaError(f"sweep {name} must be strictly ascending")


def sweep(scores: CompositeScores, alphas, thetas) -> SweepGrid:
    """Count regions whose v-score strictly exceeds each threshold."""
    alphas = [float(a) for a in alphas]
    thetas = [float(t) for t in thetas]
    if not alphas or not thetas:
        raise KRangeError("sweep needs non-empty alpha and theta grids")
    n_regions = len(scores.region_ids)
    counts = np.zeros((len(thetas), len(alphas)), dtype=int)
    for ai, alpha in enumerate(alphas):
        v = v_score(scores.suitability, scores.attractiveness, alpha)
        for ti, theta in enumerate(thetas):
            counts[ti, ai] = int(np.sum(v > theta))
    return SweepGrid(
        alphas=tuple(alphas),
        thetas=tuple(thetas),
        counts=counts,
        percentages=counts / n_regions * 100.0,
        n_regions=n_regions,
    )


def top_k(region_ids, values, k: int):
    """Best k `(region id, value)` pairs by value, ties broken by region id."""
    if not 1 <= k <= len(region_ids):
        raise KRangeError(f"k must be within [1, {len(region_ids)}], got {k}")
    # an object array compares ids as Python strings; numpy's fixed-width
    # strings would drop trailing NULs and tie ids that differ only there
    ids = np.array(region_ids, dtype=object)
    order = np.lexsort((ids, -values))[:k]
    return [(region_ids[j], float(values[j])) for j in order]


def factor_contributions(
    scores: FactorScores, definition: CompositeDefinition, regions
):
    """Absolute percentage contribution of each factor to the listed regions.

    Each row sums to 100; a region whose factor scores are all zero has no
    meaningful breakdown and raises.
    """
    definition = definition.for_factors(scores.n_factors)
    index = {rid: j for j, rid in enumerate(scores.region_ids)}
    missing = [rid for rid in regions if rid not in index]
    if missing:
        raise KRangeError(f"unknown region ids {missing}")
    signed = definition.signs[:, None] * scores.values
    rows = np.empty((len(regions), scores.n_factors))
    for row, rid in enumerate(regions):
        magnitudes = np.abs(signed[:, index[rid]])
        denom = magnitudes.sum()
        if denom == 0.0:
            raise ZeroDenominatorError(f"region {rid!r} has all-zero factor scores")
        rows[row] = magnitudes / denom * 100.0
    return rows
