"""Property-based invariant checks over randomized instances."""

import dataclasses
import hashlib
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy import stats as spstats

import oracle
from sitefactors import (
    AttributeTable,
    CompositeDefinition,
    Dimension,
    EngineConfig,
    FactorAssignment,
    FactorScores,
    IngestionConfig,
    SiteFactorsError,
    SynthConfig,
    TypologyConfig,
    composite_scores,
    correlation,
    describe,
    fit_factor_model,
    generate,
    initial_communalities,
    load_table,
    paf_iterate,
    quadrant_classify,
    score_regions,
    sign_canonicalize,
    standardize,
    sweep,
    top_k,
    v_score,
    varimax,
)
from sitefactors.composite import CompositeScores, _rank_normalize
from sitefactors.config import RunConfig
from sitefactors.datamodel import _parse_cell
from sitefactors.engine import _pair_waves

SETTINGS = settings(max_examples=100, deadline=None)

loading_matrices = arrays(
    np.float64,
    st.tuples(st.integers(3, 10), st.integers(1, 4)),
    elements=st.floats(-1.0, 1.0, allow_nan=False),
).filter(lambda a: np.abs(a).max() > 1e-3)


@SETTINGS
@given(loading_matrices)
def test_varimax_rotation_is_orthogonal(loads):
    result = varimax(loads)
    m = loads.shape[1]
    assert np.abs(result.rotation.T @ result.rotation - np.eye(m)).max() < 1e-10


@SETTINGS
@given(loading_matrices)
def test_varimax_preserves_row_sums_of_squares(loads):
    result = varimax(loads)
    before = (loads**2).sum(axis=1)
    after = (result.loadings**2).sum(axis=1)
    assert np.abs(before - after).max() < 1e-10


@SETTINGS
@given(loading_matrices)
def test_varimax_criterion_never_decreases(loads):
    result = varimax(loads)
    history = np.asarray(result.criterion_history)
    assert np.all(np.diff(history) >= -1e-12)


@st.composite
def reference_loadings(draw):
    """Loadings of 3-80 rows and 1-15 columns at scales 0.01-2, some rows zero."""
    n = draw(st.integers(3, 80))
    m = draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loads = rng.normal(size=(n, m)) * draw(st.floats(0.01, 2.0))
    zero_rows = draw(st.lists(st.integers(0, n - 1), max_size=3))
    loads[zero_rows] = 0.0
    return loads


def test_varimax_waves_keep_the_cyclic_pair_order():
    # the rotation runs each wave at once and still equals the reference's
    # pair-by-pair sweep, because pairs of a wave share no factor and every
    # factor meets its pairs in the cyclic order
    for m in range(1, 81):
        waves = [[tuple(pair) for pair in wave.tolist()] for wave in _pair_waves(m)]
        cyclic = [(p, q) for p in range(m - 1) for q in range(p + 1, m)]
        run = [pair for wave in waves for pair in wave]
        assert sorted(run) == cyclic
        for wave in waves:
            factors = [f for pair in wave for f in pair]
            assert len(set(factors)) == len(factors)
        for f in range(m):
            assert [x for x in run if f in x] == [x for x in cyclic if f in x]
        assert len(waves) == (2 * m - 3 if m >= 2 else 0)


@settings(max_examples=30, deadline=None)
@given(reference_loadings())
def test_varimax_is_bit_identical_to_the_reference(loads):
    result = varimax(loads)
    loadings, rotation, history, sweeps, converged = oracle.varimax_reference(loads)
    assert np.array_equal(result.loadings, loadings)
    assert np.array_equal(result.rotation, rotation)
    assert result.criterion_history == history
    assert result.sweeps_used == sweeps
    assert result.converged == converged



def assert_matches_the_reference(loads, **kwargs):
    """The rotation, bit for bit against `oracle.varimax_reference`."""
    result = varimax(loads, **kwargs)
    loadings, rotation, history, sweeps, converged = oracle.varimax_reference(
        loads, **kwargs
    )
    assert np.array_equal(result.loadings, loadings)
    assert np.array_equal(result.rotation, rotation)
    assert result.criterion_history == history
    assert result.sweeps_used == sweeps
    assert result.converged == converged
    return result


@st.composite
def simple_structure_loadings(draw):
    """Block-diagonal loadings of 2-40 factors: each row loads on one factor."""
    m = draw(st.integers(2, 40))
    n = draw(st.integers(m, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loads = np.zeros((n, m))
    sizes = rng.uniform(0.3, 0.9, n) * rng.choice([-1.0, 1.0], n)
    loads[np.arange(n), rng.integers(0, m, n)] = sizes
    return loads


@settings(max_examples=30, deadline=None)
@given(simple_structure_loadings())
def test_varimax_skips_every_pair_of_simple_structure(loads):
    result = assert_matches_the_reference(loads)
    # each pair's columns share no row, so its angle is exactly zero
    assert np.array_equal(result.rotation, np.eye(loads.shape[1]))
    assert result.sweeps_used == 1


@settings(max_examples=30, deadline=None)
@given(simple_structure_loadings(), st.data())
def test_varimax_mixes_skipped_and_rotated_pairs(loads, data):
    n, m = loads.shape
    width = data.draw(st.integers(2, m))
    row = data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    loads = loads.copy()
    loads[row] = 0.0
    loads[row, :width] = rng.normal(size=width)
    result = assert_matches_the_reference(loads)
    # pairs inside the dense row's factors rotate; pairs reaching past it
    # share no row and are skipped, so the rotation stays block-diagonal
    assert np.array_equal(result.rotation[width:, width:], np.eye(m - width))
    assert not result.rotation[:width, width:].any()
    assert not result.rotation[width:, :width].any()


@st.composite
def long_block_loadings(draw):
    """Loadings of 16-40 factors, whose blocks of pairs outrun the 15 above."""
    m = draw(st.integers(16, 40))
    n = draw(st.integers(m, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loads = rng.normal(size=(n, m)) * draw(st.floats(0.01, 2.0))
    loads[draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
    return loads


@settings(max_examples=20, deadline=None)
@given(long_block_loadings(), st.integers(1, 6))
def test_varimax_matches_the_reference_on_long_blocks(loads, max_sweeps):
    # a few sweeps each keep the reference's cost down at m = 40
    assert_matches_the_reference(loads, max_sweeps=max_sweeps)


def test_varimax_matches_the_reference_at_the_wide_benchmark_shape():
    # the `wide` workload of the benchmark: 500 x 420, 70 factors kept at 2
    table, _ = generate(
        SynthConfig(seed=42, n_attributes=420, n_regions=500, n_factors=70)
    )
    config = EngineConfig(kaiser_threshold=2.0)
    corr = correlation(standardize(table))
    model = paf_iterate(corr, config)
    assert model.unrotated_loadings.shape == (420, 70)
    assert_matches_the_reference(model.unrotated_loadings)

def pipeline_case(seed: int):
    """A factor-structured random dataset and its fitted model."""
    rng = np.random.default_rng(seed)
    n_factors = int(rng.integers(2, 4))
    n_attributes = int(rng.integers(n_factors * 3, 13))
    n_regions = int(rng.integers(n_attributes * 8, 140))
    config = SynthConfig(
        seed=seed,
        n_attributes=n_attributes,
        n_regions=n_regions,
        n_factors=n_factors,
        loading=float(rng.uniform(0.6, 0.9)),
        noise_std=0.6,
    )
    table, _ = generate(config)
    matrix = standardize(table)
    return matrix, fit_factor_model(matrix)


@SETTINGS
@given(st.integers(0, 10_000))
def test_weights_left_invert_rotated_loadings(seed):
    _, model = pipeline_case(seed)
    product = model.scoring_weights @ model.rotated_loadings
    assert np.abs(product - np.eye(model.n_factors)).max() < 1e-8


@SETTINGS
@given(st.integers(0, 10_000))
def test_factor_score_rows_are_centered(seed):
    matrix, model = pipeline_case(seed)
    scores = model.scoring_weights @ matrix.values
    assert np.abs(scores.mean(axis=1)).max() < 1e-8


@SETTINGS
@given(st.integers(0, 10_000))
def test_final_eigenpairs_satisfy_their_decomposition(seed):
    matrix, _ = pipeline_case(seed)
    corr = correlation(matrix)
    start, _ = initial_communalities(corr)
    model = paf_iterate(corr)
    adjusted = corr.values.copy()
    np.fill_diagonal(adjusted, (start, *model.trajectory)[-2])
    loads = model.unrotated_loadings
    residual = adjusted @ loads - loads * (loads**2).sum(axis=0)
    assert np.abs(residual).max() < 1e-8


@st.composite
def flip_cases(draw):
    """Rotated loadings (n, m), rotation (m, m) and weights (m, n), each C or F ordered.

    Cells mix signed zeros and magnitudes that tie, in sign or not, with any
    float in [-2, 2].
    """
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cells = st.sampled_from([-0.5, -0.0, 0.0, 0.5, 1.0, -1.0]) | st.floats(-2.0, 2.0)

    def matrix(shape):
        values = draw(arrays(np.float64, shape, elements=cells))
        return np.asfortranarray(values) if draw(st.booleans()) else values

    return matrix((n, m)), matrix((m, m)), matrix((m, n))


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@SETTINGS
@given(flip_cases())
def test_sign_flip_matches_the_column_by_column_reference(case):
    rotated, rotation, weights = case
    _, model = pipeline_case(0)
    fixed = sign_canonicalize(
        dataclasses.replace(
            model, rotated_loadings=rotated, rotation=rotation, scoring_weights=weights
        )
    )
    expected = [rotated.copy(), rotation.copy(), weights.copy()]
    for j in range(rotated.shape[1]):
        column = oracle.canon_column_signs(rotated[:, [j]])[:, 0]
        if not np.array_equal(bits(column), bits(rotated[:, j])):
            expected[0][:, j] = column
            expected[1][:, j] = -rotation[:, j]
            expected[2][j] = -weights[j]
    got = [fixed.rotated_loadings, fixed.rotation, fixed.scoring_weights]
    for ours, theirs in zip(got, expected):
        assert ours.flags.c_contiguous
        assert np.array_equal(bits(ours), bits(theirs))


@SETTINGS
@given(
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(0, 1),
    st.floats(0, 1),
    st.floats(0, 1),
)
def test_v_score_is_linear_in_alpha(s, a, alpha1, alpha2, t):
    blend = t * alpha1 + (1 - t) * alpha2
    direct = v_score(s, a, blend)
    combined = t * v_score(s, a, alpha1) + (1 - t) * v_score(s, a, alpha2)
    assert abs(direct - combined) < 1e-12


def random_composites(seed, n_regions=60):
    rng = np.random.default_rng(seed)
    scores = FactorScores(
        values=rng.normal(size=(2, n_regions), scale=rng.uniform(0.5, 3.0)),
        region_ids=tuple(f"r{j:03d}" for j in range(n_regions)),
    )
    definition = CompositeDefinition(
        factor_labels=("factor_1", "factor_2"),
        assignments=(
            FactorAssignment(dimension=Dimension.SUITABILITY, sign=1),
            FactorAssignment(dimension=Dimension.ATTRACTIVENESS, sign=1),
        ),
    )
    return scores, definition


@SETTINGS
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1e-3, 1.0))
@example(0.0, 1.0, 0.3333333333444444)
def test_accepted_alpha_grids_stay_within_start_and_stop(a, b, step):
    start, stop = sorted((a, b))
    overrides = {
        "sweep.alpha_start": start,
        "sweep.alpha_stop": stop,
        "sweep.alpha_step": step,
    }
    try:
        alphas = RunConfig.resolve(overrides=overrides).alphas()
    except SiteFactorsError:
        return
    assert all(start <= alpha <= stop for alpha in alphas)


@SETTINGS
@given(st.integers(0, 10_000))
def test_sweep_counts_fall_as_theta_rises(seed):
    scores, definition = random_composites(seed)
    composites = composite_scores(scores, definition)
    grid = sweep(composites, [0.0, 0.3, 0.7, 1.0], [-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.all(np.diff(grid.counts, axis=0) <= 0)
    assert grid.counts.min() >= 0
    assert grid.counts.max() <= len(scores.region_ids)


@SETTINGS
@given(st.integers(0, 10_000))
def test_quadrant_counts_sum_to_region_count(seed):
    scores, definition = random_composites(seed)
    composites = composite_scores(scores, definition)
    quadrants, _ = quadrant_classify(composites)
    assert len(quadrants) == len(scores.region_ids)


@SETTINGS
@given(st.integers(0, 10_000))
def test_endpoint_rankings_match_component_rankings(seed):
    scores, definition = random_composites(seed)
    k = len(scores.region_ids)
    at_one = score_regions(scores, definition, 1.0)
    at_zero = score_regions(scores, definition, 0.0)
    ids = scores.region_ids
    assert top_k(ids, at_one.v_scores, k) == top_k(ids, at_one.suitability, k)
    assert top_k(ids, at_zero.v_scores, k) == top_k(ids, at_zero.attractiveness, k)


@SETTINGS
@given(st.integers(0, 10_000))
def test_standardize_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    r = int(rng.integers(n + 1, 20))
    table = AttributeTable(
        attribute_names=tuple(f"a{i}" for i in range(n)),
        region_ids=tuple(f"r{j}" for j in range(r)),
        values=rng.normal(size=(n, r), scale=rng.uniform(0.1, 50.0)),
    )
    once = standardize(table)
    twice = standardize(
        AttributeTable(
            attribute_names=table.attribute_names,
            region_ids=table.region_ids,
            values=once.values,
        )
    )
    assert np.abs(twice.values - once.values).max() < 1e-10


# Few distinct values, signed zeros included, so ties are the common case.
tie_heavy = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])


@SETTINGS
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 4), st.integers(5, 40)),
        elements=st.floats(-1e3, 1e3, allow_nan=False) | tie_heavy,
    )
)
def test_describe_moments_match_scipy(values):
    table = AttributeTable(
        attribute_names=tuple(f"a{i}" for i in range(values.shape[0])),
        region_ids=tuple(f"r{j}" for j in range(values.shape[1])),
        values=values,
    )
    stats = describe(table)
    with warnings.catch_warnings():
        # scipy's precision-loss note on nearly constant rows
        warnings.simplefilter("ignore", RuntimeWarning)
        skew = spstats.skew(values, axis=1, bias=False)
        kurt = spstats.kurtosis(values, axis=1, fisher=True, bias=False)
    assert_allclose(stats.skewness, skew, rtol=1e-12, atol=0)
    # scipy adds 3 to the excess kurtosis and takes it off again, which
    # rounds away up to an ulp of 3 (4.4e-16) from a value near zero
    assert_allclose(stats.kurtosis, kurt, rtol=1e-12, atol=1e-15)


@SETTINGS
@given(arrays(np.float64, st.integers(1, 60), elements=tie_heavy))
def test_rank_normalize_matches_rankdata(values):
    n = len(values)
    expected = (
        np.array([0.5])
        if n == 1
        else (spstats.rankdata(values, method="average") - 1.0) / (n - 1.0)
    )
    assert np.array_equal(_rank_normalize(values), expected)


# Round bands hit rank-fraction gaps exactly, so the band edges get tested.
bands = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1)


@SETTINGS
@given(
    st.lists(st.tuples(tie_heavy, tie_heavy), min_size=1, max_size=40), bands, bands
)
def test_quadrants_and_typologies_match_brute_force(pairs, band_a, band_b):
    suit, attr = (np.array(column) for column in zip(*pairs))
    balance, bias = sorted((band_a, band_b))
    composites = CompositeScores(
        region_ids=tuple(f"r{j}" for j in range(len(pairs))),
        suitability=suit,
        attractiveness=attr,
    )
    quadrants, typologies = quadrant_classify(
        composites, TypologyConfig(balance_band=balance, bias_band=bias)
    )
    assert [q.value for q in quadrants] == oracle.median_quadrants(suit, attr)
    assert [t.value for t in typologies] == oracle.typologies(suit, attr, balance, bias)


@SETTINGS
@given(st.lists(st.tuples(tie_heavy, tie_heavy), min_size=1, max_size=40), st.randoms())
def test_top_k_matches_brute_force_with_ties(pairs, rnd):
    ids = [f"r{j:03d}" for j in range(len(pairs))]
    rnd.shuffle(ids)
    _, definition = random_composites(0)
    scores = FactorScores(values=np.array(pairs).T, region_ids=tuple(ids))
    regions = score_regions(scores, definition, 0.5)
    k = rnd.randint(1, len(ids))
    for values in (regions.suitability, regions.attractiveness, regions.v_scores):
        ranking = top_k(regions.region_ids, values, k)
        assert [rid for rid, _ in ranking] == oracle.top_k(ids, values, k)
        assert [value for _, value in ranking] == sorted(values, reverse=True)[:k]


# Cells the number grammar reads, rejects or that only `float` reads (Arabic-
# Indic digits); `_parse_cell` decides which count as missing.
EDGE_CELLS = [
    " 1.5 ", "\t2", "+3", "-0", "-0.0", ".5", "5.", "1e5", "1E-3", "-2.5e+2",
    "1e-400", "4.9e-324", "1.7976931348623157e308", "3_5", "nan", "-nan", "inf",
    "-Infinity", "1e400", "0x10", "٣", "١٢.٥", "", " ", "abc",
]
ordinary_cells = st.floats(allow_nan=False, allow_infinity=False).map(repr) | (
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.6f}")
)


def render_csv(lines, bom, quote_ids, ending="\n"):
    rendered = [
        ",".join([f'"{line[0]}"' if quote_ids else line[0], *line[1]])
        if isinstance(line, tuple)
        else line
        for line in lines
    ]
    return ("\ufeff" if bom else "") + ending.join(rendered) + ending


@st.composite
def csv_tables(draw):
    """Lines of a CSV (a body row is a (region id, cells) pair), BOM and quoting.

    A clean table of ordinary floats gets up to three defects: an edge cell, an
    empty, padded or repeated region id, or a row one field short or long.
    """
    n = draw(st.sampled_from([1, 2, 3, 3, 4]))
    n_rows = max(0, n + 1 + draw(st.integers(-1, 3)))
    rows = [
        [f"r{j}", draw(st.lists(ordinary_cells, min_size=n, max_size=n))]
        for j in range(n_rows)
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 1, 2, 3])) if rows else 0):
        row = rows[draw(st.integers(0, n_rows - 1))]
        cells = row[1]
        defect = draw(st.sampled_from(["cell", "cell", "id", "width"]))
        if defect == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(EDGE_CELLS))
        elif defect == "id":
            row[0] = draw(st.sampled_from(["", " r1 ", "r0"]))
        elif len(cells) > 1 and draw(st.booleans()):
            cells.pop()
        else:
            cells.append(draw(ordinary_cells))
    lines = ["region_id," + ",".join(f"a{i}" for i in range(n))]
    lines.extend((rid, cells) for rid, cells in rows)
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "# note", "  # indented note"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    return lines, draw(st.booleans()), draw(st.sampled_from([False, False, True]))


def load_outcome(path, policy):
    try:
        table = load_table(path, IngestionConfig(missing_policy=policy))
    except SiteFactorsError as exc:
        return type(exc), str(exc)
    return table.region_ids, table.values.view(np.uint64).tobytes(), table.provenance


def load_outcomes(path, lines, bom=False, quote_ids=False, ending="\n"):
    """`load_outcome` under each policy, and the same for the quoted twin file.

    Quoted region ids send the same table through the per-cell path.
    """
    outcomes = []
    for quote in (quote_ids, True):
        text = render_csv(lines, bom, quote, ending)
        path.write_text(text, encoding="utf-8", newline="")
        outcomes.append(
            [load_outcome(path, p) for p in ("reject", "drop-region", "impute-median")]
        )
    return outcomes


@settings(max_examples=300, deadline=None)
@given(csv_tables())
def test_load_table_matches_the_per_cell_parse(case):
    lines, bom, quote_ids = case
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        got, per_cell = load_outcomes(path, lines, bom, quote_ids)
        assert got == per_cell
        text = render_csv(lines, bom, quote_ids)
        path.write_text(text, encoding="utf-8")
        try:
            table = load_table(path)
        except SiteFactorsError:
            return
    rows = [line[1] for line in lines if isinstance(line, tuple)]
    expected = np.array([[_parse_cell(cell) for cell in cells] for cells in rows]).T
    assert table.values.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()
    assert table.digest == hashlib.sha256(text.encode("utf-8")).hexdigest()


# Every character but CR and LF at which `str.splitlines` ends a line; `csv`
# ends lines at CR, LF and CRLF alone. After one, `#` would start a comment
# line for the first.
SPLITLINES_ONLY = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_splitlines_only_lists_every_such_character():
    found = [
        c
        for c in map(chr, range(sys.maxunicode + 1))
        if c not in "\r\n" and len(f"a{c}b".splitlines()) == 2
    ]
    assert found == SPLITLINES_ONLY


@settings(max_examples=300, deadline=None)
@given(csv_tables(), st.sampled_from(["\n", "\r\n", "\r"]), st.data())
def test_both_parse_paths_read_the_lines_csv_reads(case, ending, data):
    """Unquoted, a clean table is read by numpy and any other by `csv`; with
    every region id quoted, by `csv`. Both give the same ids, value bits and
    provenance, or the same error, whatever ends the lines, and with a
    character inside a row at which only `str.splitlines` ends a line."""
    lines, bom, _ = case
    rows = [k for k, line in enumerate(lines) if isinstance(line, tuple)]
    mark = data.draw(st.sampled_from(["", *SPLITLINES_ONLY]))
    if rows and mark:
        k = data.draw(st.sampled_from(rows))
        fields = [lines[k][0], *lines[k][1]]
        f = data.draw(st.integers(0, len(fields) - 1))
        at = data.draw(st.integers(0, len(fields[f])))
        mark += data.draw(st.sampled_from(["", "#"]))
        fields[f] = fields[f][:at] + mark + fields[f][at:]
        lines[k] = (fields[0], fields[1:])
    with tempfile.TemporaryDirectory() as directory:
        plain, quoted = load_outcomes(Path(directory) / "t.csv", lines, bom, ending=ending)
    assert plain == quoted


def test_each_edge_cell_and_bad_id_reads_like_the_per_cell_path(tmp_path):
    rows = [("r0", ["1.0", "2.0"]), ("r1", ["2.5", "0.5"]), ("r2", ["4.0", "1.0"])]
    variants = [[("r3", [cell, "7.0"])] for cell in EDGE_CELLS]
    variants += [[(rid, ["3.0", "7.0"])] for rid in ("", " ", "r0", " r1 ")]
    variants += [[("r3", ["3.0", f"7.0{mark}# x"])] for mark in SPLITLINES_ONLY]
    for extra in variants:
        lines = ["# generated", "region_id,a,b", *rows, *extra]
        got, per_cell = load_outcomes(tmp_path / "table.csv", lines)
        assert got == per_cell, extra
