import csv
import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import expected_small4x6 as frozen
import oracle
import sitefactors
from sitefactors import (
    AttributeTable,
    DegenerateDataError,
    IngestionConfig,
    ParseError,
    SchemaError,
    SynthConfig,
    ZeroVarianceError,
    describe,
    load_table,
    standardize,
    write_synth_csv,
)
from sitefactors.datamodel import median


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


BASE_CSV = """region_id,a,b,c
r1,1.0,2.0,5.0
r2,2.0,1.0,4.5
r3,3.0,5.0,1.0
r4,4.0,4.0,2.0
r5,5.5,3.0,3.5
"""


@pytest.mark.parametrize(
    "fields, error, message",
    [
        (
            {"attribute_names": ("a", "b", "c")},
            SchemaError,
            "value matrix shape does not match the name lists",
        ),
        ({"attribute_names": ("a", "a")}, SchemaError, "duplicate attribute names"),
        ({"region_ids": ("r1", "r1", "r3", "r4")}, SchemaError, "duplicate region ids"),
        (
            {"region_ids": ("r1", "r2"), "values": [[1.0, 2.0], [3.0, 5.0]]},
            DegenerateDataError,
            "need at least N+1=3 regions for 2 attributes, got 2",
        ),
        (
            {"values": [[1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 3.0, 5.0]]},
            SchemaError,
            "non-finite values after ingestion",
        ),
    ],
    ids=["shape", "attribute-names", "region-ids", "too-few-regions", "non-finite"],
)
def test_table_refuses_what_load_table_refuses_first(fields, error, message):
    # load_table refuses each of these with its own message before it builds
    # a table; a table built directly must still refuse them
    table = {
        "attribute_names": ("a", "b"),
        "region_ids": ("r1", "r2", "r3", "r4"),
        "values": [[1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 5.0]],
    }
    with pytest.raises(error) as caught:
        AttributeTable(**{**table, **fields})
    assert str(caught.value) == message


class TestLoadTable:
    def test_fixture_shape(self, table):
        assert table.n_attributes == 4
        assert table.n_regions == 6
        assert table.attribute_names == tuple(frozen.ATTRIBUTES)
        assert table.region_ids == tuple(frozen.REGIONS)
        assert_allclose(table.values, frozen.RAW, rtol=0, atol=0)

    def test_duplicate_attribute_column(self, tmp_path):
        path = write_csv(
            tmp_path / "dup.csv",
            "region_id,a,a,c\nr1,1,2,3\nr2,2,3,4\nr3,3,4,5\nr4,4,5,6\n",
        )
        with pytest.raises(SchemaError, match="duplicate attribute"):
            load_table(path)

    def test_duplicate_region_id(self, tmp_path):
        path = write_csv(
            tmp_path / "dup.csv",
            "region_id,a,b\nr1,1,2\nr1,2,3\nr3,3,4\nr4,4,5\n",
        )
        with pytest.raises(SchemaError, match="duplicate region"):
            load_table(path)

    def test_duplicate_names_are_counted_and_capped(self, tmp_path):
        ids = [f"r{i:02d}" for i in range(40)]
        body = "".join(f"{rid},{k},{k * k % 7}\n" for k, rid in enumerate(ids + ids[:30]))
        path = write_csv(tmp_path / "dup.csv", "region_id,a,b\n" + body)
        with pytest.raises(SchemaError) as caught:
            load_table(path)
        named = [f"r{i:02d}" for i in range(10)]
        assert str(caught.value) == f"{path}: duplicate region ids {named} and 20 more"
        header = ",".join(["region_id"] + [f"a{i:02d}" for i in range(12)] * 2)
        path = write_csv(tmp_path / "dup_columns.csv", header + "\n")
        with pytest.raises(SchemaError) as caught:
            load_table(path)
        named = [f"a{i:02d}" for i in range(10)]
        assert str(caught.value) == f"{path}: duplicate attribute columns {named} and 2 more"

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_table(write_csv(tmp_path / "empty.csv", ""))

    def test_ragged_row(self, tmp_path):
        path = write_csv(
            tmp_path / "ragged.csv", "region_id,a,b\nr1,1,2\nr2,3\nr3,4,5\nr4,5,6\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            load_table(path)

    def test_errors_name_the_line_of_the_file(self, tmp_path):
        path = write_csv(
            tmp_path / "ragged.csv", "# c1\n# c2\n\nregion_id,a,b\nr1,1,2\nr2,3\n"
        )
        with pytest.raises(ParseError, match="line 6 has 2 fields"):
            load_table(path)
        path = write_csv(
            tmp_path / "noid.csv",
            '# c1\n\nregion_id,a,b\n# c2\nr1,1,2\n"",3,4\n',
        )
        with pytest.raises(SchemaError, match="line 6 has an empty region_id"):
            load_table(path)

    def test_digest_is_of_the_bytes_read(self, tmp_path):
        path = tmp_path / "bom.csv"
        data = b"\xef\xbb\xbf" + BASE_CSV.encode("utf-8")
        path.write_bytes(data)
        assert load_table(path).digest == hashlib.sha256(data).hexdigest()
        assert load_table(path, digest=False).digest is None

    def test_digest_without_the_builtin_hashes(self, tmp_path):
        # a build that ships neither builtin SHA-256 module digests through
        # OpenSSL, to the same hex digest
        pytest.importorskip("_hashlib")
        inputs = {
            "bom.csv": b"\xef\xbb\xbf" + BASE_CSV.encode("utf-8"),
            "crlf.csv": BASE_CSV.replace("\n", "\r\n").encode("utf-8"),
        }
        for name, data in inputs.items():
            (tmp_path / name).write_bytes(data)
        script = (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from sitefactors import datamodel, load_table\n"
            "assert datamodel.sha256 is hashlib.sha256\n"
            "for path in sys.argv[1:]:\n"
            "    print(load_table(path).digest)\n"
        )
        package_root = str(Path(sitefactors.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script, *(str(tmp_path / name) for name in inputs)],
            env=dict(os.environ, PYTHONPATH=package_root), capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        expected = [hashlib.sha256(data).hexdigest() for data in inputs.values()]
        assert result.stdout.splitlines() == expected

    def test_quoted_input_reads_like_unquoted(self, tmp_path):
        header, *body = BASE_CSV.splitlines()
        text = "\n".join([header] + ['"' + line.replace(",", '",', 1) for line in body])
        plain = load_table(write_csv(tmp_path / "plain.csv", BASE_CSV))
        quoted = load_table(write_csv(tmp_path / "quoted.csv", text + "\n"))
        assert quoted.region_ids == plain.region_ids
        assert quoted.values.tobytes() == plain.values.tobytes()

    def test_oversized_quoted_field_names_its_line(self, tmp_path):
        limit = csv.field_size_limit()
        long_id = '"' + "x" * 140_000 + '"'
        path = write_csv(tmp_path / "long.csv", BASE_CSV.replace("r3,", long_id + ",", 1))
        with pytest.raises(ParseError, match="line 4: field larger than field limit"):
            load_table(path)
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize(
        "header, column",
        [
            # the clean path: no quote anywhere, every row as wide as the header
            ("region_id,a,b,", 4),
            # the quoted path
            ('region_id,a,"",c', 3),
        ],
    )
    def test_empty_attribute_name(self, tmp_path, header, column):
        text = header + "\n" + BASE_CSV.partition("\n")[2]
        path = write_csv(tmp_path / "names.csv", "# note\n" + text)
        with pytest.raises(SchemaError) as caught:
            load_table(path)
        assert str(caught.value) == f"{path}: line 2: column {column} has no attribute name"

    @pytest.mark.parametrize("region_id", ["#r5", '"#r5"'])
    def test_comment_rows_anywhere_are_skipped(self, tmp_path, region_id):
        # a row whose first field starts with # is a comment in the body too
        path = write_csv(tmp_path / "body.csv", BASE_CSV.replace("r5,", region_id + ","))
        table = load_table(path)
        assert table.region_ids == ("r1", "r2", "r3", "r4")
        # and it is not skipped without a word, on either parse path
        assert table.warnings == (
            "skipped 1 comment line(s) after the header, the first at "
            "line 6; a row whose first field starts with # is a comment",
        )

    def test_wrong_leading_header(self, tmp_path):
        path = write_csv(tmp_path / "head.csv", "id,a,b\nr1,1,2\n")
        with pytest.raises(SchemaError, match="region_id"):
            load_table(path)

    def test_reject_policy_raises_on_bad_cell(self, tmp_path):
        path = write_csv(
            tmp_path / "bad.csv",
            BASE_CSV.replace("r3,3.0,5.0,1.0", "r3,3.0,oops,1.0"),
        )
        with pytest.raises(SchemaError, match="oops"):
            load_table(path)

    def test_nan_counts_as_missing(self, tmp_path):
        path = write_csv(
            tmp_path / "nan.csv",
            BASE_CSV.replace("r3,3.0,5.0,1.0", "r3,3.0,nan,1.0"),
        )
        with pytest.raises(SchemaError):
            load_table(path)

    def test_drop_region_policy(self, tmp_path):
        path = write_csv(
            tmp_path / "drop.csv",
            BASE_CSV.replace("r3,3.0,5.0,1.0", "r3,3.0,,1.0"),
        )
        table = load_table(path, IngestionConfig(missing_policy="drop-region"))
        assert table.region_ids == ("r1", "r2", "r4", "r5")
        assert table.provenance == ("r3,b,drop-region",)

    def test_impute_median_policy(self, tmp_path):
        path = write_csv(
            tmp_path / "imp.csv",
            BASE_CSV.replace("r3,3.0,5.0,1.0", "r3,3.0,,1.0"),
        )
        table = load_table(path, IngestionConfig(missing_policy="impute-median"))
        assert table.n_regions == 5
        # median of the remaining b values 2, 1, 4, 3
        assert table.values[1, 2] == pytest.approx(2.5)
        assert table.provenance == ("r3,b,impute-median",)

    def test_too_few_regions_after_drop(self, tmp_path):
        rows = BASE_CSV.splitlines()
        rows[2] = "r2,2.0,,4.5"
        rows[3] = "r3,3.0,,1.0"
        path = write_csv(tmp_path / "few.csv", "\n".join(rows) + "\n")
        with pytest.raises(DegenerateDataError):
            load_table(path, IngestionConfig(missing_policy="drop-region"))

    def test_comment_lines_are_skipped(self, tmp_path):
        path = write_csv(tmp_path / "comments.csv", "# generated\n# blah\n" + BASE_CSV)
        table = load_table(path)
        assert table.n_attributes == 3
        assert table.n_regions == 5
        assert table.warnings == ()  # notes above the header are expected

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchemaError):
            IngestionConfig(missing_policy="ignore")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + BASE_CSV.encode("utf-8"))
        table = load_table(path)
        assert table.attribute_names == ("a", "b", "c")
        assert table.n_regions == 5

    def test_digit_group_underscore_is_not_a_number(self, tmp_path):
        path = write_csv(tmp_path / "groups.csv", BASE_CSV.replace("5.5", "5_5"))
        with pytest.raises(SchemaError, match="'5_5'"):
            load_table(path)

    def test_undecodable_bytes_raise_parse_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(BASE_CSV.replace("r1", "r\xe9").encode("latin-1"))
        with pytest.raises(ParseError, match="cannot read"):
            load_table(path)

    def test_parse_holds_the_file_under_three_times(self, tmp_path):
        # the read holds the bytes beside their text, about twice the file;
        # the lines, the parsed matrix and its C-ordered copy come after it
        # and must not pile up on one another. The quoted twin goes through
        # the per-cell parse, whose lines stay alive beside the cells.
        path = tmp_path / "synthetic.csv"
        write_synth_csv(path, SynthConfig(n_regions=4000, n_attributes=25))
        text = path.read_text(encoding="utf-8")
        twin = write_csv(
            tmp_path / "quoted.csv",
            text.replace("\nregion_0001,", '\n"region_0001",'),
        )
        for source in (path, twin):
            load_table(source)  # lazy imports and caches, outside the measure
            tracemalloc.start()
            try:
                table = load_table(source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert table.n_regions == 4000
            assert peak < 3 * source.stat().st_size, source.name

    def test_per_cell_parse_peaks_at_the_read(self, tmp_path):
        # the read holds the bytes beside their text, twice the file; the
        # parsed matrix goes before the table validates its C-ordered copy
        # and builds a set of the region ids, which with the matrix still
        # held came to 2.14 times the file at this shape
        path = tmp_path / "synthetic.csv"
        write_synth_csv(path, SynthConfig(n_regions=20_000, n_attributes=25))
        text = path.read_text(encoding="utf-8")
        twin = write_csv(
            tmp_path / "quoted.csv",
            text.replace("\nregion_0001,", '\n"region_0001",'),
        )
        load_table(twin)  # lazy imports and caches, outside the measure
        tracemalloc.start()
        try:
            table = load_table(twin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.region_ids[0] == "region_0001"
        assert peak < 2.07 * twin.stat().st_size


class TestDescribe:
    def test_constant_row_flags_nan_moments(self):
        table = AttributeTable(
            attribute_names=("flat", "other"),
            region_ids=("r1", "r2", "r3", "r4"),
            values=np.array([[5.0, 5.0, 5.0, 5.0], [1.0, 2.0, 4.0, 8.0]]),
        )
        stats = describe(table)
        assert stats.mean[0] == 5.0
        assert stats.std[0] == 0.0
        assert np.isnan(stats.skewness[0])
        assert np.isnan(stats.kurtosis[0])
        assert any("flat" in w for w in stats.warnings)
        assert np.isfinite(stats.skewness[1])

    def test_nearly_constant_row_warns_once_without_runtime_warnings(self):
        base = 1e8
        near = [base, np.nextafter(base, np.inf), np.nextafter(base, 0.0), base]
        table = AttributeTable(
            attribute_names=("near", "other"),
            region_ids=("r1", "r2", "r3", "r4"),
            values=np.array([near, [1.0, 2.0, 4.0, 8.0]]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = describe(table)
        assert stats.std[0] > 0.0
        assert np.isnan(stats.skewness[0])
        assert np.isnan(stats.kurtosis[0])
        assert [w for w in stats.warnings if "'near'" in w] == [
            "moment: attribute 'near' is constant; skewness/kurtosis undefined"
        ]
        assert np.isfinite(stats.skewness[1])

    def test_overflowing_row_warns_once_without_runtime_warnings(self):
        # squared deviations of values near 1e200 overflow; the constant test
        # would compare inf with inf
        huge = AttributeTable(
            attribute_names=("huge", "other"),
            region_ids=("r1", "r2", "r3", "r4", "r5"),
            values=np.array([[1e200, 3e200, 2e200, 5e200, 4e200], [1.0, 2.0, 4.0, 8.0, 3.0]]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = describe(huge)
        assert stats.mean[0] == pytest.approx(3e200)
        assert np.isnan([stats.std[0], stats.skewness[0], stats.kurtosis[0]]).all()
        assert np.isfinite([stats.std[1], stats.skewness[1], stats.kurtosis[1]]).all()
        assert stats.warnings == (
            "moment: attribute 'huge' overflows float64; std/skewness/kurtosis undefined",
        )

    def test_sum_past_float64_keeps_mean_and_median_finite(self):
        # each value is finite, but the sum of a row (or the pair the
        # median averages) is not
        rows = [
            np.linspace(3e307, 1.4e308, 12),
            [1.5e308, 1.6e308, 1.7e308, 1.7e308, 1.6e308, 1.5e308, 1e308, 1.79e308, 0, 1, 2, 3],
            [1.0, 2.0, 4.0, 8.0, 3.0, 5.0, 9.0, 7.0, 6.0, 0.5, 0.25, 11.0],
        ]
        table = AttributeTable(
            attribute_names=("ramp", "pair", "small"),
            region_ids=tuple(f"r{j}" for j in range(12)),
            values=np.array(rows),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = describe(table)
        for i, row in enumerate(rows[:2]):
            exact = sum(Fraction(x) for x in row) / 12
            assert stats.mean[i] == pytest.approx(float(exact), rel=1e-15)
        assert stats.median[0] == pytest.approx(8.5e307, rel=1e-15)
        assert stats.median[1] == 1.5e308
        assert stats.mean[2] == table.values[2].mean()
        assert stats.median[2] == np.median(table.values[2])
        assert np.isnan(stats.std[:2]).all()

    def test_symmetric_row_has_zero_skewness(self):
        table = AttributeTable(
            attribute_names=("sym", "other"),
            region_ids=("r1", "r2", "r3", "r4"),
            values=np.array([[-1.0, -1.0, 1.0, 1.0], [1.0, 2.0, 4.0, 8.0]]),
        )
        stats = describe(table)
        assert stats.skewness[0] == pytest.approx(0.0, abs=1e-12)

    def test_fixture_moments_match_oracle(self, table):
        stats = describe(table)
        for i, expected in enumerate(frozen.MOMENTS):
            assert stats.count[i] == expected["count"]
            for key in ("mean", "std", "min", "median", "max", "skewness", "kurtosis"):
                got = getattr(stats, key)[i]
                assert got == pytest.approx(expected[key], abs=1e-12), key

    def test_live_oracle_agreement(self, table):
        stats = describe(table)
        for i in range(table.n_attributes):
            expected = oracle.moments(table.values[i])
            assert stats.skewness[i] == pytest.approx(expected["skewness"], abs=1e-12)
            assert stats.kurtosis[i] == pytest.approx(expected["kurtosis"], abs=1e-12)


class TestStandardize:
    def test_three_point_row(self):
        table = AttributeTable(
            attribute_names=("lin", "other"),
            region_ids=("r1", "r2", "r3"),
            values=np.array([[1.0, 2.0, 3.0], [4.0, 1.0, 2.0]]),
        )
        out = standardize(table)
        assert_allclose(out.values[0], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_fixture_matches_oracle(self, matrix):
        assert_allclose(matrix.values, frozen.STANDARDIZED, atol=1e-12)
        assert_allclose(matrix.values, oracle.zscore_rows(frozen.RAW), atol=1e-15)

    def test_rows_have_zero_mean_unit_std(self, matrix):
        assert np.abs(matrix.values.mean(axis=1)).max() < 1e-10
        assert np.abs(matrix.values.std(axis=1, ddof=1) - 1.0).max() < 1e-10

    def test_idempotent(self, table, matrix):
        again = standardize(
            AttributeTable(
                attribute_names=table.attribute_names,
                region_ids=table.region_ids,
                values=matrix.values,
            )
        )
        assert_allclose(again.values, matrix.values, atol=1e-10)

    def test_zero_variance_row_raises(self):
        table = AttributeTable(
            attribute_names=("flat", "other"),
            region_ids=("r1", "r2", "r3"),
            values=np.array([[2.0, 2.0, 2.0], [4.0, 1.0, 2.0]]),
        )
        with pytest.raises(ZeroVarianceError, match="flat"):
            standardize(table)

    def test_rounding_noise_row_raises(self):
        # 0.1 + 0.2 is one ulp above 0.3: describe calls the row constant,
        # and z-scoring its rounding noise would give {-1.08, 0.0}
        noise = [0.3] * 51 + [0.1 + 0.2] * 9
        table = AttributeTable(
            attribute_names=("noise", "other"),
            region_ids=tuple(f"r{j}" for j in range(60)),
            values=np.array([noise, np.arange(60.0)]),
        )
        assert describe(table).warnings == (
            "moment: attribute 'noise' is constant; skewness/kurtosis undefined",
        )
        with pytest.raises(ZeroVarianceError, match="'noise'"):
            standardize(table)

    def test_constant_row_past_the_float64_sum_raises(self):
        # 8 x 2**1023 sums past float64; the rescued mean is exact, so the
        # row is constant with std 0, not an overflow
        table = AttributeTable(
            attribute_names=("flat", "other"),
            region_ids=tuple(f"r{j}" for j in range(8)),
            values=np.array([[2.0**1023] * 8, np.arange(8.0)]),
        )
        assert describe(table).std[0] == 0.0
        with pytest.raises(ZeroVarianceError, match="'flat'"):
            standardize(table)

    def test_overflowing_std_raises(self):
        table = AttributeTable(
            attribute_names=("other", "huge"),
            region_ids=("r1", "r2", "r3"),
            values=np.array([[4.0, 1.0, 2.0], [1e200, -1e200, 3e200]]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match="'huge' is too large to standardize"):
                standardize(table)

    def test_order_preserved(self, table, matrix):
        assert matrix.attribute_names == table.attribute_names
        assert matrix.region_ids == table.region_ids

    def test_standardized_row_describes_to_unit_std(self, table, matrix):
        stats = describe(
            AttributeTable(
                attribute_names=table.attribute_names,
                region_ids=table.region_ids,
                values=matrix.values,
            )
        )
        assert_allclose(stats.std, 1.0, atol=1e-10)
        assert_allclose(stats.mean, 0.0, atol=1e-10)


# Values that decide a median's bits: signed zeros, ties, NaN and infinities.
MEDIAN_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]
) | st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 9)),
        elements=MEDIAN_VALUES,
    ),
)
@example(np.array([[1.7e308, 1.7e308], [-1.7e308, -1e308]]))
def test_median_is_bit_equal_to_numpy(values):
    def numpy_median(values, axis=None):
        # where np.median overflows on a finite middle pair, the mean of
        # the halved pair doubled, exact at that scale
        expected = np.median(values, axis=axis)
        halved = np.median(values / 2, axis=axis) * 2
        return np.where(np.isinf(expected) & np.isfinite(halved), halved, expected)[()]

    with np.errstate(invalid="ignore", over="ignore"):
        rows, expected_rows = median(values), numpy_median(values, axis=1)
        flat, expected_flat = median(values[0]), numpy_median(values[0])
    assert rows.tobytes() == expected_rows.tobytes()
    assert type(flat) is type(expected_flat) is np.float64
    assert np.asarray(flat).tobytes() == np.asarray(expected_flat).tobytes()
