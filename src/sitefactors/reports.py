"""CSV and manifest writers.

CSV floats are printed with 6 decimal places throughout; the manifest keeps
full precision. All files are written with LF newlines so repeated runs are
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .composite import RegionScores, SweepGrid
from .datamodel import DescriptiveStats
from .engine import DominantAttributeMap, FactorModel


def fmt(value) -> str:
    return f"{float(value):.6f}"


def grid_label(value) -> str:
    """Compact deterministic label for grid values: 0.0, 0.2, 1.5, ..."""
    text = f"{float(value):.6f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def _write(path, lines) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_stats_csv(path, stats: DescriptiveStats) -> Path:
    lines = ["attribute,count,mean,std,min,median,max,skewness,kurtosis"]
    for i, name in enumerate(stats.attribute_names):
        lines.append(
            ",".join(
                [
                    name,
                    str(int(stats.count[i])),
                    fmt(stats.mean[i]),
                    fmt(stats.std[i]),
                    fmt(stats.min[i]),
                    fmt(stats.median[i]),
                    fmt(stats.max[i]),
                    fmt(stats.skewness[i]),
                    fmt(stats.kurtosis[i]),
                ]
            )
        )
    return _write(path, lines)


def write_loadings_csv(
    path, model: FactorModel, dominant: DominantAttributeMap
) -> Path:
    labels = model.factor_labels
    lines = ["attribute," + ",".join(labels) + ",communality,dominant_factor"]
    for i, name in enumerate(model.attribute_names):
        row = [name]
        row.extend(fmt(model.rotated_loadings[i, m]) for m in range(model.n_factors))
        row.append(fmt(model.communalities.values[i]))
        row.append(labels[int(dominant.assigned_factor[i])])
        lines.append(",".join(row))
    return _write(path, lines)


def write_eigenvalues_csv(path, model: FactorModel) -> Path:
    lines = ["factor,eigenvalue,pct_variance,cumulative_pct"]
    for m, label in enumerate(model.factor_labels):
        lines.append(
            ",".join(
                [
                    label,
                    fmt(model.eigenvalues[m]),
                    fmt(model.variance_percent[m]),
                    fmt(model.cumulative_variance_percent[m]),
                ]
            )
        )
    return _write(path, lines)


def write_weights_csv(path, model: FactorModel) -> Path:
    lines = ["attribute," + ",".join(model.factor_labels)]
    for i, name in enumerate(model.attribute_names):
        row = [name]
        row.extend(fmt(model.scoring_weights[m, i]) for m in range(model.n_factors))
        lines.append(",".join(row))
    return _write(path, lines)


def write_scores_csv(path, scores: RegionScores) -> Path:
    m = scores.factor_scores.shape[0]
    header = (
        "region_id,"
        + ",".join(f"f_{k + 1}" for k in range(m))
        + ",suitability,attractiveness,v_score,quadrant,typology"
    )
    # one %-format per row; "%.6f" % x gives the same bytes as fmt(x), and the
    # rows of a C-ordered copy list faster than the strided rows of a view
    row = "%s," + ",".join(["%.6f"] * (m + 3)) + ",%s,%s"
    by_region = np.vstack(
        [scores.factor_scores, scores.suitability, scores.attractiveness, scores.v_scores]
    ).T.copy()
    lines = [header]
    lines.extend(
        row % (rid, *values.tolist(), quadrant.value, typology.value)
        for rid, values, quadrant, typology in zip(
            scores.region_ids, by_region, scores.quadrants, scores.typologies
        )
    )
    return _write(path, lines)


def write_top_csv(path, ranking, key_name: str) -> Path:
    lines = [f"rank,region_id,{key_name}"]
    for rank, (rid, value) in enumerate(ranking, start=1):
        lines.append(f"{rank},{rid},{fmt(value)}")
    return _write(path, lines)


def write_sweep_wide_csv(path, grid: SweepGrid) -> Path:
    lines = ["theta," + ",".join(grid_label(a) for a in grid.alphas)]
    for ti, theta in enumerate(grid.thetas):
        cells = [
            f"{int(grid.counts[ti, ai])} ({grid.percentages[ti, ai]:.1f}%)"
            for ai in range(len(grid.alphas))
        ]
        lines.append(grid_label(theta) + "," + ",".join(cells))
    return _write(path, lines)


def write_sweep_long_csv(path, grid: SweepGrid) -> Path:
    lines = ["theta,alpha,count,pct"]
    for ti, theta in enumerate(grid.thetas):
        for ai, alpha in enumerate(grid.alphas):
            lines.append(
                ",".join(
                    [
                        fmt(theta),
                        fmt(alpha),
                        str(int(grid.counts[ti, ai])),
                        fmt(grid.percentages[ti, ai]),
                    ]
                )
            )
    return _write(path, lines)


def write_provenance(path, entries) -> Path:
    return _write(path, list(entries))


def write_manifest(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return path
