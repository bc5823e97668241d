"""Seeded synthetic dataset generator with a planted factor structure.

Attributes are grouped into contiguous blocks, one block per factor; every
attribute in a block carries the same planted loading on its factor and zero
elsewhere. With the default unique-noise level of 0.6 the generated
attributes have unit variance (0.8^2 + 0.6^2 = 1), which puts the planted
loadings directly on the correlation scale the extraction recovers. The
factor scores are orthonormalized in-sample and the noise is projected
against them, so recovery error comes only from residual noise correlations
rather than factor sampling. A final per-attribute affine rescale makes the
file look like raw survey data; standardization removes it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import AttributeTable, _spread
from .errors import SchemaError
from .reports import table_rows, write_table

URBAN_ATTRIBUTE_NAMES = (
    "housing_density",
    "daytime_pop_density",
    "foreign_pop_density",
    "commute_ratio",
    "inflow_outflow_ratio",
    "disabled_pop_share",
    "welfare_recipient_share",
    "senior_pop_share",
    "avg_monthly_income",
    "spending_income_ratio",
    "transport_expense_share",
    "bus_stop_density",
    "metro_coverage",
    "metro_users_per_station",
    "bus_users_per_stop",
    "parking_space_density",
    "tourist_facility_density",
    "cultural_facility_density",
    "energy_use_intensity",
    "employment_density",
    "land_price",
    "helipad_distance",
    "hospital_distance",
    "vfr_route_distance",
    "fire_station_distance",
)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 42
    n_attributes: int = 25
    n_regions: int = 426
    n_factors: int = 6
    loading: float = 0.8
    noise_std: float = 0.6

    def __post_init__(self):
        # messages name the `synth.*` config keys; the table must read back,
        # so N >= 2 attributes and R >= N+1 regions
        if self.seed < 0:
            raise SchemaError(f"synth.seed must be non-negative, got {self.seed}")
        if self.n_factors < 1:
            raise SchemaError(f"synth.factors must be at least 1, got {self.n_factors}")
        if self.n_attributes < max(2, self.n_factors):
            raise SchemaError(
                "synth.attributes must be at least max(2, synth.factors) = "
                f"{max(2, self.n_factors)}, got {self.n_attributes}"
            )
        if self.n_regions < self.n_attributes + 1:
            raise SchemaError(
                "synth.regions must be at least synth.attributes + 1 = "
                f"{self.n_attributes + 1}, got {self.n_regions}"
            )
        if not math.isfinite(self.loading):
            raise SchemaError(f"synth.loading must be finite, got {self.loading}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise SchemaError(
                f"synth.noise_std must be finite and >= 0, got {self.noise_std}"
            )


def block_sizes(n_attributes: int, n_factors: int) -> list[int]:
    """Contiguous near-equal blocks, earlier factors get the remainder."""
    base, rem = divmod(n_attributes, n_factors)
    return [base + 1 if m < rem else base for m in range(n_factors)]


def planted_loadings(config: SynthConfig) -> np.ndarray:
    loadings = np.zeros((config.n_attributes, config.n_factors))
    start = 0
    for factor, size in enumerate(block_sizes(config.n_attributes, config.n_factors)):
        loadings[start : start + size, factor] = config.loading
        start += size
    return loadings


def _attribute_names(n: int) -> tuple[str, ...]:
    if n == len(URBAN_ATTRIBUTE_NAMES):
        return URBAN_ATTRIBUTE_NAMES
    return tuple(f"attr_{i + 1:02d}" for i in range(n))


def generate(config: SynthConfig = SynthConfig()) -> tuple[AttributeTable, np.ndarray]:
    """Sample a table from the planted structure; returns (table, loadings)."""
    rng = np.random.default_rng(config.seed)
    loadings = planted_loadings(config)
    factors = rng.standard_normal((config.n_factors, config.n_regions))
    factors -= factors.mean(axis=1, keepdims=True)
    basis, _ = np.linalg.qr(factors.T)  # centered orthonormal columns
    factors = basis.T * np.sqrt(config.n_regions - 1)  # unit sample variance rows
    noise = rng.standard_normal((config.n_attributes, config.n_regions))
    noise -= noise.mean(axis=1, keepdims=True)
    noise -= (noise @ basis) @ basis.T
    noise /= noise.std(axis=1, ddof=1, keepdims=True)
    # a finite loading or noise level can still overflow, in the values or
    # in the squared deviations that standardizing them takes; that is one
    # error, by the rule `standardize` refuses an attribute with
    with np.errstate(over="ignore", invalid="ignore"):
        values = loadings @ factors + config.noise_std * noise
        scales = rng.uniform(1.0, 100.0, size=config.n_attributes)
        offsets = scales * rng.uniform(8.0, 12.0, size=config.n_attributes)
        values = values * scales[:, None] + offsets[:, None]
    *_, overflow = _spread(values)
    if overflow.any():
        raise SchemaError(
            f"synth.loading {config.loading:g} and synth.noise_std "
            f"{config.noise_std:g} put generated values past what float64 "
            "can standardize"
        )
    table = AttributeTable(
        attribute_names=_attribute_names(config.n_attributes),
        region_ids=tuple(f"region_{j + 1:04d}" for j in range(config.n_regions)),
        values=values,
    )
    return table, loadings


def write_synth_csv(path, config: SynthConfig = SynthConfig()) -> AttributeTable:
    """Generate and write the table; the header comments document the plant."""
    table, _ = generate(config)
    sizes = block_sizes(config.n_attributes, config.n_factors)
    bounds = np.cumsum([0] + sizes)
    block_map = "; ".join(
        f"factor_{m + 1}: attributes {bounds[m] + 1}-{bounds[m + 1]}"
        for m in range(config.n_factors)
    )
    header = [
        "# synthetic region-by-attribute table (deterministic per seed)",
        f"# seed={config.seed} regions={config.n_regions} "
        f"attributes={config.n_attributes} factors={config.n_factors} "
        f"loading={config.loading:g} noise_std={config.noise_std:g}",
        f"# planted blocks: {block_map}",
        "region_id," + ",".join(table.attribute_names),
    ]
    write_table(path, header, "%s,%s", table_rows(table.region_ids, [table.values.T]))
    return table
