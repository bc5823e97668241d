"""The per-region writers give the bytes of a cell-by-cell `reports.fmt` rendering."""

import numpy as np

from sitefactors import (
    AttributeTable,
    Quadrant,
    RegionScores,
    SynthConfig,
    Typology,
    generate,
    synth,
    write_synth_csv,
)
from sitefactors.reports import fmt, write_scores_csv

# -4e-7 renders as -0.000000, 5e-7 is stored just below the rounding midpoint
# and renders as 0.000000, and 1e15 has 16 integer digits
EDGE_VALUES = [-0.0, -4e-7, 1e15, 5e-7, 0.0, 1.5, -2.25, 123456.7890125]
REGION_IDS = ("région_1", "地区_2", "منطقة_3", "r4", "Zürich-5", "r6", "ρ7", "r8")


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
