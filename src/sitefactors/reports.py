"""CSV and manifest writers.

CSV floats are printed as `%.6f` throughout, every one through `fixed6`;
the manifest keeps full precision. Text cells are quoted as
`csv.QUOTE_MINIMAL` quotes them. Every file goes through `write_table`,
which streams its lines with LF newlines so repeated runs are
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .composite import RegionScores, SweepGrid
from .datamodel import DescriptiveStats, quoted
from .engine import FactorModel, variance_accounting


def fmt(value) -> str:
    """One CSV float cell: the bytes `fixed6` gives for it."""
    return f"{float(value):.6f}"


def grid_label(value) -> str:
    """Compact deterministic label for grid values: 0.0, 0.2, 1.5, ..."""
    text = fmt(value).rstrip("0")
    return text + "0" if text.endswith(".") else text


def _digit_words() -> np.ndarray:
    """Every 4-digit piece 0..9999 as a little-endian word, in three forms.

    Words [0, 10000) are empty, [10000, 20000) drop leading zeros (0 stays
    "0") and [20000, 30000) are zero-padded; NUL bytes fill the word. The
    first digit is the low byte, so a leading zero is cleared by a shift.
    """
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
    padded = digit[:, None, None, None] | digit[:, None, None] << 8 | digit[:, None] << 16
    padded = (padded | digit << 24).ravel()
    pieces = np.arange(10_000)
    zeros = (pieces < 1000).astype(np.uint32) + (pieces < 100) + (pieces < 10)
    bare = padded & np.uint32(0xFFFFFFFF) << 8 * zeros
    return np.concatenate([np.zeros_like(padded), bare, padded])


DIGIT_WORDS = _digit_words()
EMPTY, BARE, PADDED = 0, 10_000, 20_000
# cells per `fixed6` call: its buffers stay in cache, whatever R and N are
CHUNK_CELLS = 8192


def fixed6(matrix) -> list[str]:
    """Each row of a 2-D array as its cells in `%.6f`, comma-joined, with `fmt`'s bytes.

    `n = rint(|x| * 1e6)` is the correctly rounded 6-decimal integer unless
    the scaled value `y` is itself a half-integer: below 2**52 half-integers
    are doubles, so the exact product and `y` lie on one side of every other
    one. A row holding such a `y`, a NaN, an inf, or `n >= 1e15` (more than
    9 integer digits) is rendered cell by cell with `fmt`.

    A cell is laid out as a sign byte, as many 4-digit words of integer
    part as the largest cell needs, ".", six fraction digits as two words
    that overlap on the middle two, and "," or "\n"; NUL bytes pad it.
    """
    x = np.asarray(matrix, dtype=float)
    rows, cols = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(x) * 1e6
        rounded = np.rint(scaled)
        exact = (rounded < 1e15) & (scaled - np.floor(scaled) != 0.5)
    whole, fraction = np.divmod(np.where(exact, rounded, 0.0).astype(np.int64), 10**6)
    largest = whole.max(initial=0)
    point = 1 + 4 * (1 + (largest >= 10**4) + (largest >= 10**8))
    cells = np.zeros((rows, cols, point + 8), np.uint8)
    cells[..., 0] = np.signbit(x) * ord("-")
    blank = BARE  # a zero integer part shows "0", a zero higher word nothing
    for offset in range(point - 4, 0, -4):
        whole, piece = np.divmod(whole, 10**4)
        form = np.where(whole > 0, PADDED, np.where(piece > 0, BARE, blank))
        cells[..., offset : offset + 4].view("<u4")[..., 0] = DIGIT_WORDS[form + piece]
        blank = EMPTY
    cells[..., point] = ord(".")
    for offset, piece in ((point + 1, fraction // 100), (point + 3, fraction % 10**4)):
        cells[..., offset : offset + 4].view("<u4")[..., 0] = DIGIT_WORDS[PADDED + piece]
    cells[..., -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    lines = text.split("\n")[:-1]
    for i in np.flatnonzero(~exact.all(axis=1)).tolist():
        lines[i] = ",".join(map(fmt, x[i].tolist()))
    return lines


def _blocks(columns):
    """`fixed6` of the columns side by side, row by row, CHUNK_CELLS cells at a time."""
    by_row = np.column_stack(columns)
    step = max(1, CHUNK_CELLS // by_row.shape[1])
    for start in range(0, len(by_row), step):
        yield from fixed6(by_row[start : start + step])


def table_rows(labels, columns, *tails):
    """`(label, block, *tail)` per row, the block the row's numbers by `fixed6`."""
    return zip(labels, _blocks(columns), *tails)


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
    columns = [getattr(stats, name) for name in header.split(",")[2:]]
    names = quoted(stats.attribute_names)
    labels = (f"{name},{count:d}" for name, count in zip(names, stats.count.tolist()))
    return write_table(path, [header], "%s,%s", table_rows(labels, columns))


def write_loadings_csv(path, model: FactorModel) -> Path:
    labels = model.factor_labels
    header = "attribute," + ",".join(labels) + ",communality,dominant_factor"
    columns = [model.rotated_loadings, model.communalities]
    dominant_labels = (labels[m] for m in model.dominant_factor)
    rows = table_rows(quoted(model.attribute_names), columns, dominant_labels)
    return write_table(path, [header], "%s,%s,%s", rows)


def write_eigenvalues_csv(path, model: FactorModel) -> Path:
    header = "factor,eigenvalue,pct_variance,cumulative_pct"
    n_attributes = model.unrotated_loadings.shape[0]
    percents = variance_accounting(model.eigenvalues, n_attributes)
    rows = table_rows(model.factor_labels, [model.eigenvalues, *percents])
    return write_table(path, [header], "%s,%s", rows)


def write_weights_csv(path, model: FactorModel) -> Path:
    header = "attribute," + ",".join(model.factor_labels)
    rows = table_rows(quoted(model.attribute_names), [model.scoring_weights.T])
    return write_table(path, [header], "%s,%s", rows)


def write_scores_csv(path, scores: RegionScores) -> Path:
    m = scores.factor_scores.shape[0]
    header = (
        "region_id,"
        + ",".join(f"f_{k + 1}" for k in range(m))
        + ",suitability,attractiveness,v_score,quadrant,typology"
    )
    columns = [scores.factor_scores.T, scores.suitability, scores.attractiveness]
    rows = table_rows(
        quoted(scores.region_ids),
        [*columns, scores.v_scores],
        (quadrant.value for quadrant in scores.quadrants),
        (typology.value for typology in scores.typologies),
    )
    return write_table(path, [header], "%s,%s,%s,%s", rows)


def write_top_csv(path, ranking, key_name: str) -> Path:
    ids = quoted(rid for rid, _ in ranking)
    labels = (f"{rank},{rid}" for rank, rid in enumerate(ids, start=1))
    rows = table_rows(labels, [[value for _, value in ranking]])
    return write_table(path, [f"rank,region_id,{key_name}"], "%s,%s", rows)


def write_sweep_wide_csv(path, grid: SweepGrid) -> Path:
    header = "theta," + ",".join(map(grid_label, grid.alphas))
    # each theta row interleaves a count and a percentage per alpha
    cells = np.dstack([grid.counts, grid.percentages]).reshape(len(grid.thetas), -1)
    rows = ((label, *row) for label, row in zip(map(grid_label, grid.thetas), cells.tolist()))
    row = "%s," + ",".join(["%d (%.1f%%)"] * len(grid.alphas))
    return write_table(path, [header], row, rows)


def write_sweep_long_csv(path, grid: SweepGrid) -> Path:
    t, a = grid.counts.shape
    grid_points = _blocks([np.repeat(grid.thetas, a), np.tile(grid.alphas, t)])
    percentages = _blocks([grid.percentages.ravel()])
    rows = zip(grid_points, grid.counts.ravel().tolist(), percentages)
    return write_table(path, ["theta,alpha,count,pct"], "%s,%d,%s", rows)


def write_provenance(path, entries) -> Path:
    return write_table(path, entries)


def write_manifest(path, payload: dict) -> Path:
    return write_table(path, [json.dumps(payload, indent=2, sort_keys=True)])
