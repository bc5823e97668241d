"""Every writer gives the bytes of a cell-by-cell `reports.fmt` rendering."""

import dataclasses
import json

import numpy as np
import pytest

from sitefactors import (
    AttributeTable,
    DescriptiveStats,
    DominantAttributeMap,
    Quadrant,
    RegionScores,
    SweepGrid,
    SynthConfig,
    Typology,
    generate,
    synth,
    write_synth_csv,
)
from sitefactors.reports import (
    fmt,
    grid_label,
    write_eigenvalues_csv,
    write_loadings_csv,
    write_manifest,
    write_provenance,
    write_scores_csv,
    write_stats_csv,
    write_sweep_long_csv,
    write_sweep_wide_csv,
    write_top_csv,
    write_weights_csv,
)

# -4e-7 renders as -0.000000, 5e-7 is stored just below the rounding midpoint
# and renders as 0.000000, and 1e15 has 16 integer digits
EDGE_VALUES = [-0.0, -4e-7, 1e15, 5e-7, 0.0, 1.5, -2.25, 123456.7890125]
REGION_IDS = ("région_1", "地区_2", "منطقة_3", "r4", "Zürich-5", "r6", "ρ7", "r8")
# the edge values and the non-finite ones, one per id of IDS
CELLS = np.array(EDGE_VALUES + [np.nan, np.inf, -np.inf])
IDS = REGION_IDS + ("Ωμέγα_9", "東京_10", "r11")


def per_cell_rows(region_ids, columns):
    """Rows of `region_id,fmt(column[j])...` plus any string columns."""
    return [
        ",".join([rid] + [fmt(c[j]) if not isinstance(c[j], str) else c[j] for c in columns])
        for j, rid in enumerate(region_ids)
    ]


def test_scores_csv_matches_per_cell_rendering(tmp_path):
    values = np.array(EDGE_VALUES)
    scores = RegionScores(
        region_ids=REGION_IDS,
        factor_scores=np.vstack([values, values[::-1]]),
        suitability=np.where(values == 1.5, np.nan, -values),
        attractiveness=values * 3.0,
        alpha=0.5,
        v_scores=np.roll(values, 3),
        quadrants=tuple(Quadrant)[:2] * 4,
        typologies=tuple(Typology) * 2,
    )
    path = write_scores_csv(tmp_path / "scores.csv", scores)
    header = "region_id,f_1,f_2,suitability,attractiveness,v_score,quadrant,typology"
    rows = per_cell_rows(
        scores.region_ids,
        [
            *scores.factor_scores,
            scores.suitability,
            scores.attractiveness,
            scores.v_scores,
            [q.value for q in scores.quadrants],
            [t.value for t in scores.typologies],
        ],
    )
    expected = "\n".join([header, *rows]) + "\n"
    assert "-0.000000" in expected and ",nan," in expected
    assert path.read_bytes() == expected.encode("utf-8")


def test_synth_csv_matches_per_cell_rendering(tmp_path, monkeypatch):
    values = np.array(EDGE_VALUES)
    table = AttributeTable(
        attribute_names=("a", "b"),
        region_ids=REGION_IDS,
        values=np.vstack([values, values[::-1] + 1.0]),
    )
    monkeypatch.setattr(synth, "generate", lambda config: (table, None))
    config = SynthConfig(n_attributes=2, n_regions=len(REGION_IDS), n_factors=1)
    write_synth_csv(tmp_path / "edge.csv", config)
    lines = (tmp_path / "edge.csv").read_bytes().decode("utf-8").split("\n")
    assert lines[3] == "region_id,a,b"
    assert lines[4:] == per_cell_rows(REGION_IDS, table.values) + [""]


def test_generated_synth_csv_matches_per_cell_rendering(tmp_path):
    config = SynthConfig(seed=5, n_attributes=7, n_regions=40, n_factors=2)
    write_synth_csv(tmp_path / "synthetic.csv", config)
    table, _ = generate(config)
    lines = (tmp_path / "synthetic.csv").read_text(encoding="utf-8").split("\n")
    assert lines[4:] == per_cell_rows(table.region_ids, table.values) + [""]


def expect(path, header, rows):
    assert path.read_bytes() == "".join(f"{line}\n" for line in [header, *rows]).encode()


def test_stats_csv_matches_per_cell_rendering(tmp_path):
    columns = [np.roll(CELLS, shift) for shift in range(7)]
    stats = DescriptiveStats(IDS, np.arange(len(IDS)) * 1000, *columns)
    path = write_stats_csv(tmp_path / "stats.csv", stats)
    rows = per_cell_rows(IDS, columns)
    rows = [rid + f",{1000 * j}" + row[len(rid):] for j, (rid, row) in enumerate(zip(IDS, rows))]
    expect(path, "attribute,count,mean,std,min,median,max,skewness,kurtosis", rows)


@pytest.fixture()
def edge_model(model):
    """The fixture model with 11 attributes, 2 factors and edge values in every cell."""
    loadings = np.vstack([CELLS, np.roll(CELLS, 4)]).T
    return dataclasses.replace(
        model,
        attribute_names=IDS,
        unrotated_loadings=np.zeros((len(IDS), 2)),
        rotated_loadings=loadings,
        communalities=np.roll(CELLS, 7),
        eigenvalues=CELLS[[2, 8]],
        variance_percent=CELLS[[1, 9]],
        cumulative_variance_percent=CELLS[[0, 10]],
        scoring_weights=np.vstack([np.roll(CELLS, 2), -CELLS]),
    )


def test_loadings_csv_matches_per_cell_rendering(tmp_path, edge_model):
    assigned = np.arange(len(IDS)) % 2
    dominant = DominantAttributeMap(assigned, CELLS, ((), ()))
    path = write_loadings_csv(tmp_path / "loadings.csv", edge_model, dominant)
    columns = [*edge_model.rotated_loadings.T, edge_model.communalities]
    labels = [f"factor_{m + 1}" for m in assigned]
    rows = [row + "," + label for row, label in zip(per_cell_rows(IDS, columns), labels)]
    expect(path, "attribute,factor_1,factor_2,communality,dominant_factor", rows)


def test_eigenvalues_csv_matches_per_cell_rendering(tmp_path, edge_model):
    path = write_eigenvalues_csv(tmp_path / "eigenvalues.csv", edge_model)
    rows = per_cell_rows(
        ("factor_1", "factor_2"),
        [CELLS[[2, 8]], CELLS[[1, 9]], CELLS[[0, 10]]],
    )
    expect(path, "factor,eigenvalue,pct_variance,cumulative_pct", rows)


def test_weights_csv_matches_per_cell_rendering(tmp_path, edge_model):
    path = write_weights_csv(tmp_path / "weights.csv", edge_model)
    rows = per_cell_rows(IDS, [np.roll(CELLS, 2), -CELLS])
    expect(path, "attribute,factor_1,factor_2", rows)


def test_top_csv_matches_per_cell_rendering(tmp_path):
    ranking = list(zip(IDS, CELLS.tolist()))
    path = write_top_csv(tmp_path / "top.csv", ranking, "v_score")
    rows = [f"{rank},{rid},{fmt(value)}" for rank, (rid, value) in enumerate(ranking, 1)]
    expect(path, "rank,region_id,v_score", rows)


@pytest.fixture()
def edge_grid():
    thetas = (-2.25, -4e-7, 0.0, 5e-7, 1.5, 1e15, np.inf)
    alphas = (0.0, 0.2, 0.5, 1.0)
    counts = np.arange(len(thetas) * len(alphas)).reshape(len(thetas), -1) * 1001
    percentages = np.resize(CELLS, counts.shape)
    return SweepGrid(alphas, thetas, counts, percentages, n_regions=len(IDS))


def test_sweep_wide_csv_matches_per_cell_rendering(tmp_path, edge_grid):
    path = write_sweep_wide_csv(tmp_path / "sweep_wide.csv", edge_grid)
    rows = [
        ",".join(
            [grid_label(theta)]
            + [f"{int(c)} ({p:.1f}%)" for c, p in zip(counts, percentages)]
        )
        for theta, counts, percentages in zip(
            edge_grid.thetas, edge_grid.counts, edge_grid.percentages
        )
    ]
    assert rows[-1].startswith("inf,") and "(nan%)" in "".join(rows)
    expect(path, "theta,0.0,0.2,0.5,1.0", rows)


def test_sweep_long_csv_matches_per_cell_rendering(tmp_path, edge_grid):
    path = write_sweep_long_csv(tmp_path / "sweep_long.csv", edge_grid)
    rows = [
        ",".join([fmt(theta), fmt(alpha), str(int(count)), fmt(pct)])
        for ti, theta in enumerate(edge_grid.thetas)
        for alpha, count, pct in zip(
            edge_grid.alphas, edge_grid.counts[ti], edge_grid.percentages[ti]
        )
    ]
    expect(path, "theta,alpha,count,pct", rows)


def test_provenance_and_manifest_match_their_text(tmp_path):
    entries = [f"{rid},attr_é,impute-median" for rid in IDS]
    path = write_provenance(tmp_path / "sub" / "provenance.log", entries)
    expect(path, entries[0], entries[1:])
    payload = {"ids": list(IDS), "edge": CELLS.tolist(), "nested": {"ρ": -0.0}}
    path = write_manifest(tmp_path / "sub" / "manifest.json", payload)
    expect(path, json.dumps(payload, indent=2, sort_keys=True), [])
