"""Latent-factor site scoring toolkit.

Decomposes a regions-by-attributes table into latent factors via iterated
principal-axis factoring with varimax rotation, aggregates the factor scores
into signed suitability/attractiveness composites, and sweeps the tunable
v-score over (alpha, theta) grids for site ranking.
"""

__version__ = "0.1.0"

from .composite import (
    CompositeDefinition,
    CompositeScores,
    Dimension,
    FactorAssignment,
    Quadrant,
    RegionScores,
    SweepGrid,
    Typology,
    TypologyConfig,
    composite_scores,
    default_definition,
    load_definition,
    quadrant_classify,
    score_regions,
    sweep,
    top_k,
    v_score,
)
from .datamodel import (
    AttributeTable,
    DescriptiveStats,
    IngestionConfig,
    describe,
    load_table,
    standardize,
)
from .engine import (
    EngineConfig,
    FactorModel,
    FactorScores,
    VarimaxResult,
    correlation,
    correlation_ridge,
    dominant_attributes,
    factor_scores,
    fit_factor_model,
    initial_communalities,
    paf_iterate,
    retained_count,
    scoring_weights,
    sign_canonicalize,
    variance_accounting,
    varimax,
    varimax_criterion,
)
from .errors import (
    AlphaRangeError,
    DegenerateDataError,
    DimensionMismatchError,
    IncompleteDefinitionError,
    KRangeError,
    NoFactorRetainedError,
    ParseError,
    SchemaError,
    SingularCorrelationError,
    SiteFactorsError,
    ZeroVarianceError,
)
from .synth import SynthConfig, generate, planted_loadings, write_synth_csv
