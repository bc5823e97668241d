"""Every writer gives the bytes of a cell-by-cell `reports.fmt` rendering."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sitefactors import (
    AttributeTable,
    DescriptiveStats,
    Quadrant,
    RegionScores,
    SweepGrid,
    SynthConfig,
    Typology,
    generate,
    synth,
    variance_accounting,
    write_synth_csv,
)
from sitefactors.datamodel import quoted
from sitefactors.reports import (
    CHUNK_CELLS,
    fixed6,
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


# Cells that `fixed6` must get right or hand to `fmt`: integer parts that
# skip a zero 4-digit piece, the largest double below 1e9 (it rounds up to
# 10 integer digits), k/128 (exact ties that round to even), and the
# neighbours of (k + 0.5)/1e6 on either side of a rounding midpoint
HARD_CELLS = (
    [100000005.25, 10000.5, 9999.9999996, 123456789.0000005, 9.1e9 + 0.3]
    + [np.nextafter(1e9, 0), 1e9, 999999999.9999995, 1e15, 2.0**52, 1e300, 5e-324]
    + [k / 128 for k in range(-3, 260, 4)]
    + [
        np.nextafter((k + 0.5) / 1e6, side)
        for k in (0, 1, 12, 999999)
        for side in (-np.inf, np.inf)
    ]
)
cell_values = (
    st.floats()
    | st.floats(min_value=1e3, max_value=1e11)
    | st.floats(min_value=-1e-5, max_value=1e-5)
    | st.sampled_from(HARD_CELLS)
)


shapes = st.tuples(st.integers(1, 4), st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, shapes, elements=cell_values))
def test_fixed6_matches_per_cell_fmt(matrix):
    matrix = np.where(np.arange(matrix.shape[1]) % 3 == 2, -matrix, matrix)
    assert fixed6(matrix) == [",".join(map(fmt, row)) for row in matrix.tolist()]


def test_fixed6_hard_cells():
    matrix = np.array(HARD_CELLS + [-0.0, np.nan, np.inf, -np.inf])[:, None]
    rows = fixed6(np.vstack([matrix, -matrix]))
    assert rows == [fmt(x) for x in np.vstack([matrix, -matrix])[:, 0]]
    assert {"1000000000.000000", "0.007812", "-0.000000", "nan"} <= set(rows)


def chunked_rows(n_chunks, n_cols, specials):
    """Normal cells over `n_chunks` `fixed6` chunks and a bit, with the four
    `specials` (cells `fixed6` leaves to `fmt`) in the first and last rows
    and on either side of the first chunk boundary, and integer parts of 5
    and of 9 digits in the second and third chunks."""
    step = CHUNK_CELLS // n_cols
    values = np.random.default_rng(3).normal(scale=1e3, size=(n_chunks * step + 5, n_cols))
    for row, cell in zip([0, step - 1, step, len(values) - 1], specials):
        values[row, row % n_cols] = cell
    values[step + 7, 0] = 12345.25
    values[2 * step + 1, -1] = -123456789.5
    return values


def test_scores_csv_of_several_chunks_matches_per_cell_rendering(tmp_path):
    values = chunked_rows(3, 5, [np.nan, np.inf, 1e15, -0.0078125])
    n = len(values)
    ids = tuple(f"r{j}" for j in range(n))
    scores = RegionScores(
        region_ids=ids,
        factor_scores=values[:, :2].T,
        suitability=values[:, 2],
        attractiveness=values[:, 3],
        v_scores=values[:, 4],
        quadrants=(Quadrant.BOTH_LOW,) * n,
        typologies=(Typology.NONE,) * n,
    )
    path = write_scores_csv(tmp_path / "scores.csv", scores)
    rows = per_cell_rows(ids, [*values.T, ["BothLow"] * n, ["None"] * n])
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[1:] == rows + [""]
    cells = {cell for row in rows for cell in row.split(",")}
    assert {"nan", "inf", "-0.007812", "12345.250000", "-123456789.500000"} <= cells


def test_synth_csv_of_several_chunks_matches_per_cell_rendering(tmp_path, monkeypatch):
    values = chunked_rows(3, 3, [0.0078125, -1e300, 1e15, 2.5e-6])
    n = len(values)
    table = AttributeTable(
        attribute_names=("a", "b", "c"),
        region_ids=tuple(f"r{j}" for j in range(n)),
        values=values.T,
    )
    monkeypatch.setattr(synth, "generate", lambda config: (table, None))
    config = SynthConfig(n_attributes=3, n_regions=n, n_factors=1)
    write_synth_csv(tmp_path / "chunks.csv", config)
    lines = (tmp_path / "chunks.csv").read_text(encoding="utf-8").split("\n")
    assert lines[4:] == per_cell_rows(table.region_ids, table.values) + [""]


# at least two fields: a row of one empty field is written as `""`
@given(st.lists(st.text(st.sampled_from('ab ,"\r\n\t;é') | st.characters()), min_size=2))
def test_quoted_fields_are_what_csv_writer_writes(texts):
    expected = io.StringIO()
    csv.writer(expected).writerow(texts)
    assert ",".join(quoted(texts)) + "\r\n" == expected.getvalue()


def test_scores_csv_matches_per_cell_rendering(tmp_path):
    values = np.array(EDGE_VALUES)
    scores = RegionScores(
        region_ids=REGION_IDS,
        factor_scores=np.vstack([values, values[::-1]]),
        suitability=np.where(values == 1.5, np.nan, -values),
        attractiveness=values * 3.0,
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
        trajectory=(np.zeros(len(IDS)), np.roll(CELLS, 7)),
        eigenvalues=CELLS[[2, 8]],
        scoring_weights=np.vstack([np.roll(CELLS, 2), -CELLS]),
        dominant_factor=np.arange(len(IDS)) % 2,
    )


def test_loadings_csv_matches_per_cell_rendering(tmp_path, edge_model):
    path = write_loadings_csv(tmp_path / "loadings.csv", edge_model)
    columns = [*edge_model.rotated_loadings.T, np.roll(CELLS, 7)]
    labels = [f"factor_{m + 1}" for m in np.arange(len(IDS)) % 2]
    rows = [row + "," + label for row, label in zip(per_cell_rows(IDS, columns), labels)]
    expect(path, "attribute,factor_1,factor_2,communality,dominant_factor", rows)


def test_eigenvalues_csv_matches_per_cell_rendering(tmp_path, edge_model):
    path = write_eigenvalues_csv(tmp_path / "eigenvalues.csv", edge_model)
    # 1e15 and NaN: the percentages are 1e15 / 11 * 100 and NaN, and so
    # are their running totals
    percents = variance_accounting(CELLS[[2, 8]], len(IDS))
    rows = per_cell_rows(("factor_1", "factor_2"), [CELLS[[2, 8]], *percents])
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
    return SweepGrid(alphas, thetas, counts, percentages)


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
