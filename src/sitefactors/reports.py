"""CSV and manifest writers.

CSV floats are printed with 6 decimal places throughout; the manifest keeps
full precision. Every file goes through `write_table`, which streams its
lines with LF newlines so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .composite import RegionScores, SweepGrid
from .datamodel import DescriptiveStats
from .engine import DominantAttributeMap, FactorModel


def fmt(value) -> str:
    """One CSV float cell; `floats` gives the %-template of the same bytes."""
    return f"{float(value):.6f}"


def floats(n: int) -> str:
    """%-template of n comma-separated CSV float cells."""
    return ",".join(["%.6f"] * n)


def grid_label(value) -> str:
    """Compact deterministic label for grid values: 0.0, 0.2, 1.5, ..."""
    text = fmt(value).rstrip("0")
    return text + "0" if text.endswith(".") else text


def table_rows(labels, columns, *tails):
    """`(label, *numbers, *tail)` per row, numbers from one C-ordered row-major copy.

    A row of the copy lists faster than a strided row of a view, and one
    `.tolist()` per row never holds a whole column of Python floats.
    """
    by_row = np.column_stack(columns)
    for label, numbers, *tail in zip(labels, by_row, *tails):
        yield (label, *numbers.tolist(), *tail)


def write_table(path, header, row: str = "", rows=()) -> Path:
    """Stream the header lines, then a `row % values` line per tuple of `rows`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = row + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(text + "\n" for text in header)
        handle.writelines(line % values for values in rows)
    return path


def write_stats_csv(path, stats: DescriptiveStats) -> Path:
    header = "attribute,count,mean,std,min,median,max,skewness,kurtosis"
    columns = [getattr(stats, name) for name in header.split(",")[1:]]
    rows = table_rows(stats.attribute_names, columns)
    return write_table(path, [header], "%s,%d," + floats(7), rows)


def write_loadings_csv(
    path, model: FactorModel, dominant: DominantAttributeMap
) -> Path:
    labels = model.factor_labels
    header = "attribute," + ",".join(labels) + ",communality,dominant_factor"
    columns = [model.rotated_loadings, model.communalities.values]
    dominant_labels = (labels[m] for m in dominant.assigned_factor)
    rows = table_rows(model.attribute_names, columns, dominant_labels)
    row = "%s," + floats(model.n_factors + 1) + ",%s"
    return write_table(path, [header], row, rows)


def write_eigenvalues_csv(path, model: FactorModel) -> Path:
    header = "factor,eigenvalue,pct_variance,cumulative_pct"
    percents = [model.variance_percent, model.cumulative_variance_percent]
    rows = table_rows(model.factor_labels, [model.eigenvalues, *percents])
    return write_table(path, [header], "%s," + floats(3), rows)


def write_weights_csv(path, model: FactorModel) -> Path:
    header = "attribute," + ",".join(model.factor_labels)
    rows = table_rows(model.attribute_names, [model.scoring_weights.T])
    return write_table(path, [header], "%s," + floats(model.n_factors), rows)


def write_scores_csv(path, scores: RegionScores) -> Path:
    m = scores.factor_scores.shape[0]
    header = (
        "region_id,"
        + ",".join(f"f_{k + 1}" for k in range(m))
        + ",suitability,attractiveness,v_score,quadrant,typology"
    )
    columns = [scores.factor_scores.T, scores.suitability, scores.attractiveness]
    rows = table_rows(
        scores.region_ids,
        [*columns, scores.v_scores],
        (quadrant.value for quadrant in scores.quadrants),
        (typology.value for typology in scores.typologies),
    )
    return write_table(path, [header], "%s," + floats(m + 3) + ",%s,%s", rows)


def write_top_csv(path, ranking, key_name: str) -> Path:
    rows = ((rank, rid, value) for rank, (rid, value) in enumerate(ranking, start=1))
    return write_table(path, [f"rank,region_id,{key_name}"], "%d,%s," + floats(1), rows)


def write_sweep_wide_csv(path, grid: SweepGrid) -> Path:
    header = "theta," + ",".join(map(grid_label, grid.alphas))
    # each theta row interleaves a count and a percentage per alpha
    cells = np.dstack([grid.counts, grid.percentages]).reshape(len(grid.thetas), -1)
    rows = table_rows(map(grid_label, grid.thetas), [cells])
    row = "%s," + ",".join(["%d (%.1f%%)"] * len(grid.alphas))
    return write_table(path, [header], row, rows)


def write_sweep_long_csv(path, grid: SweepGrid) -> Path:
    t, a = grid.counts.shape
    columns = [np.tile(grid.alphas, t), grid.counts.ravel(), grid.percentages.ravel()]
    rows = table_rows(np.repeat(grid.thetas, a), columns)
    row = floats(2) + ",%d," + floats(1)
    return write_table(path, ["theta,alpha,count,pct"], row, rows)


def write_provenance(path, entries) -> Path:
    return write_table(path, entries)


def write_manifest(path, payload: dict) -> Path:
    return write_table(path, [json.dumps(payload, indent=2, sort_keys=True)])
