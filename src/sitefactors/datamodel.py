"""Ingestion, validation, description and standardization of the input table.

The on-disk layout is one row per region: a `region_id` column followed by one
numeric column per attribute. In memory the table is transposed to an N x R
matrix (attribute i, region j), which is the orientation every downstream
stage works in.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateDataError,
    ParseError,
    SchemaError,
    ZeroVarianceError,
)

# CPython's builtin SHA-256, as `random` takes its sha512: the stdlib's
# OpenSSL-backed module would map libcrypto into every process to hash one file
try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without the builtin hashes
        from hashlib import sha256

MISSING_POLICIES = ("reject", "drop-region", "impute-median")
DUPLICATES_NAMED = 10  # an error names at most this many repeated names
# a field holding one of these is quoted under `csv.QUOTE_MINIMAL` (excel dialect)
NEEDS_QUOTES = (",", '"', "\r", "\n")
# a line as `csv` ends it, at CR, LF or CRLF, or the unended last line
CSV_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
# a quote, and the characters at which `str.splitlines` also ends a line
CELL_PATH_MARKS = ('"', "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
MISSING = math.nan  # every missing cell of the per-cell parse is this one object


def quoted(texts) -> list[str]:
    """The texts as CSV fields, each quoted exactly when `csv.QUOTE_MINIMAL` would.

    Region ids and attribute names may hold a comma or a quote (read from
    a quoted field); written bare, they would split or shift their row.
    """
    texts = list(texts)
    joined = "".join(texts)
    if not any(mark in joined for mark in NEEDS_QUOTES):
        return texts
    return [
        '"' + text.replace('"', '""') + '"'
        if any(mark in text for mark in NEEDS_QUOTES)
        else text
        for text in texts
    ]


def median(values):
    """`np.median` along the last axis of a non-empty array, bit for bit.

    numpy's own algorithm with its partition indices, so even the sign of a
    zero median matches: partition at the middle and the last place, take
    the mean of the middle slice, and give NaN wherever the last place holds
    one. `np.median` checks for NaN through `np.ma`, which imports
    `numpy.ma` (about 10 ms) on first use.

    One lane differs on purpose: where two finite middle values sum past the
    float64 range, np.median gives an infinity and this the finite mean.
    """
    values = np.asarray(values, dtype=float)
    half, odd = divmod(values.shape[-1], 2)
    middle = [half] if odd else [half - 1, half]
    part = np.partition(values, [*middle, -1], axis=-1)
    pair = part[..., middle[0] : half + 1]
    with np.errstate(over="ignore"):
        result = np.mean(pair, axis=-1)
    # halved, finite values cannot pair up past the float64 range, and at
    # these magnitudes halving and doubling are exact: no bit is lost
    lost = np.isinf(result) & np.isfinite(pair).all(axis=-1)
    if lost.any():
        result = np.where(lost, np.mean(pair / 2, axis=-1) * 2, result)
    last = part[..., -1]
    # [()] makes a 0-d result the numpy scalar np.median returns
    return np.where(np.isnan(last), last, result)[()]


def _duplicates(names) -> str:
    """The repeated names, sorted, the first few of them spelled out."""
    repeated = sorted(name for name, count in Counter(names).items() if count > 1)
    more = len(repeated) - DUPLICATES_NAMED
    return str(repeated[:DUPLICATES_NAMED]) + (f" and {more} more" if more > 0 else "")


@dataclass(frozen=True)
class IngestionConfig:
    """Missing-value handling for :func:`load_table`.

    `reject` fails on the first unparseable cell, `drop-region` removes the
    affected region rows, `impute-median` fills cells with the attribute
    median over the remaining regions. Every intervention is recorded as a
    `<region_id>,<attribute>,<action>` provenance line, a CSV row.
    """

    missing_policy: str = "reject"

    def __post_init__(self):
        if self.missing_policy not in MISSING_POLICIES:
            raise SchemaError(
                f"unknown missing policy {self.missing_policy!r}; "
                f"expected one of {MISSING_POLICIES}"
            )


@dataclass(frozen=True)
class AttributeTable:
    """Validated N x R region-by-attribute observations."""

    attribute_names: tuple[str, ...]
    region_ids: tuple[str, ...]
    values: np.ndarray
    provenance: tuple[str, ...] = ()
    digest: str | None = None  # SHA-256 of the file it was read from
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        n, r = values.shape
        if n != len(self.attribute_names) or r != len(self.region_ids):
            raise SchemaError("value matrix shape does not match the name lists")
        if len(set(self.attribute_names)) != n:
            raise SchemaError("duplicate attribute names")
        if len(set(self.region_ids)) != r:
            raise SchemaError("duplicate region ids")
        if n < 2:
            raise DegenerateDataError(f"need at least 2 attributes, got {n}")
        if r < n + 1:
            raise DegenerateDataError(
                f"need at least N+1={n + 1} regions for {n} attributes, got {r}"
            )
        if not np.all(np.isfinite(values)):
            raise SchemaError("non-finite values after ingestion")
        values.setflags(write=False)

    @property
    def n_attributes(self) -> int:
        return self.values.shape[0]

    @property
    def n_regions(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DescriptiveStats:
    """Per-attribute moments in raw attribute units."""

    attribute_names: tuple[str, ...]
    count: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    min: np.ndarray
    median: np.ndarray
    max: np.ndarray
    skewness: np.ndarray
    kurtosis: np.ndarray
    warnings: tuple[str, ...] = ()


def read_number(text: str, kind=float):
    """`kind(text)` by the number grammar of a cell and of a setting.

    `int` and `float` also read digit-group underscores (`3_5` as 35); the
    grammar has no thousands separators, so such a text is a ValueError.
    """
    if "_" in text:
        raise ValueError(f"digit-group underscore in {text!r}")
    return kind(text)


def _parse_cell(text: str) -> float:
    """A cell read by `read_number` to a finite float, or `MISSING`, which
    `in` and `index` find by identity (a NaN equals nothing, not even itself)."""
    try:
        value = read_number(text)
    except ValueError:
        return MISSING
    return value if math.isfinite(value) else MISSING


def read_json_object(path: Path, what: str):
    """The JSON of the `what` file at `path`; a key repeated in any of its
    objects, which `json` would drop without a word, is a SchemaError."""

    def unique_keys(pairs):
        keys = [key for key, _ in pairs]
        if len(set(keys)) != len(keys):
            raise SchemaError(f"{path}: repeated keys {_duplicates(keys)} in {what}")
        return dict(pairs)

    # besides malformed JSON, ValueError covers bytes that are not UTF-8 and
    # integers longer than Python's int-string digit limit; `json` recurses
    # once per level of nesting, so deep nesting is a RecursionError
    try:
        return json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc}") from exc


def _csv_rows(path, lines, comments: list[int]):
    """(line of the file, row) of every csv row that is not blank or a comment;
    the line of each comment row goes onto `comments`.

    A quoted field keeps its line breaks. A field longer than the `csv`
    module's limit of 131072 characters is a ParseError naming its line;
    the process-wide limit is left as it is.
    """
    reader = csv.reader(lines)
    try:
        for row in reader:
            if not row:
                continue
            if row[0].lstrip().startswith("#"):
                comments.append(reader.line_num)
            else:
                yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc


def _parse_clean(lines: list[str], header_line: int, n: int, comments: list[int]):
    """Region ids, R x N matrix and empty provenance, by numpy's C parser;
    the line of each comment after the header goes onto `comments`.

    Returns None, and adds no line, unless every line after the header that
    is not blank or a comment has N+1 fields, a non-empty unique region id
    and N finite values. The lines hold no `CELL_PATH_MARKS` character, so
    they are `csv`'s and no field is quoted. The parser reads a subset of what
    `float` reads (no `3_5`, no Arabic-Indic digits), correctly rounded
    like it, so an accepted matrix is bit-equal to the per-cell parse.
    """
    tail = lines[header_line:]
    body = [line for line in tail if line and not line.lstrip().startswith("#")]
    # a line that is neither blank nor in the body is a comment
    commented = len(body) + tail.count("") < len(tail)
    del tail  # not held beside the parsed matrix
    if not body or any(line.count(",") != n for line in body):
        return None
    region_ids = [line.partition(",")[0].strip() for line in body]
    if not all(region_ids) or len(set(region_ids)) != len(region_ids):
        return None
    try:
        values = np.loadtxt(
            body,
            delimiter=",",
            comments=None,
            quotechar=None,
            usecols=range(1, n + 1),
            ndmin=2,
        )
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    if commented:
        comments.extend(
            number
            for number, line in enumerate(lines[header_line:], header_line + 1)
            if line.lstrip().startswith("#")
        )
    return region_ids, values, []


def _provenance(region_id: str, attribute: str, action: str) -> str:
    return ",".join(quoted((region_id, attribute, action)))


def _parse_cells(path, rows, attribute_names, schema: IngestionConfig):
    """Region ids, R x N matrix and provenance of (line, csv row) pairs, cell by cell."""
    from array import array  # here, so a clean file never loads the module

    n, policy = len(attribute_names), schema.missing_policy
    region_ids, cells = [], array("d")  # 8 bytes a cell, row by row
    for lineno, row in rows:
        if len(row) != n + 1:
            raise ParseError(
                f"{path}: line {lineno} has {len(row)} fields, expected {n + 1}"
            )
        rid = row[0].strip()
        if not rid:
            raise SchemaError(f"{path}: line {lineno} has an empty region_id")
        parsed = [_parse_cell(cell) for cell in row[1:]]
        if policy == "reject" and MISSING in parsed:
            i = parsed.index(MISSING)
            raise SchemaError(
                f"{path}: non-numeric cell for region {rid!r}, "
                f"attribute {attribute_names[i]!r}: {row[i + 1]!r}"
            )
        region_ids.append(rid)
        cells.extend(parsed)

    if len(set(region_ids)) != len(region_ids):
        raise SchemaError(f"{path}: duplicate region ids {_duplicates(region_ids)}")

    values = np.frombuffer(cells).reshape(len(region_ids), n)
    missing = np.isnan(values)
    # each missing cell as (region, attribute), in the order its policy meets
    # them: region by region to drop, attribute by attribute to impute
    impute = policy == "impute-median"
    holes = np.argwhere(missing.T)[:, ::-1] if impute else np.argwhere(missing)
    provenance = [
        _provenance(region_ids[j], attribute_names[i], policy) for j, i in holes
    ]
    if policy == "drop-region":
        kept = ~missing.any(axis=1)
        region_ids = [rid for rid, keep in zip(region_ids, kept) if keep]
        values = values[kept]
    elif impute:
        for i in np.flatnonzero(missing.any(axis=0)):
            column, hole = values[:, i], missing[:, i]
            if hole.all():
                name = attribute_names[i]
                raise SchemaError(f"{path}: attribute {name!r} has no numeric values")
            column[hole] = float(median(column[~hole]))
    return region_ids, values, provenance


def load_table(
    path, schema: IngestionConfig = IngestionConfig(), *, digest: bool = True
) -> AttributeTable:
    """Read and validate a region-by-attribute CSV.

    A line whose first field starts with `#` is a comment anywhere in the
    file (the synthetic data generator documents its planted structure this
    way). The table carries one warning, which names no path, for the
    comments after the header, which may be rows whose region id starts with
    `#`. The first data row must be the header `region_id,<attr>,...`, and
    no attribute name may be empty. A leading UTF-8 byte-order mark, as
    spreadsheet exports write, is skipped. Errors name the line of the file.
    The table carries the SHA-256 of the file's bytes; with `digest=False`
    it carries None and the file is not hashed.

    Lines end at CR, LF or CRLF, as `csv` ends them. A text with a
    `CELL_PATH_MARKS` character is matched line by line with `CSV_LINE`, and
    the matches keep it alive; any other text is split by `str.splitlines`,
    which ends its lines where `csv` does, and goes once it is split. A file
    without such a character whose every body cell parses is read by numpy's
    C parser; any other file, and so every error and every missing-value
    intervention, goes through `csv` and `_parse_cell`.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        text = data.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    digest = sha256(data).hexdigest() if digest else None
    del data  # not held beside the lines
    clean = not any(mark in text for mark in CELL_PATH_MARKS)
    lines = text.splitlines() if clean else (m.group() for m in CSV_LINE.finditer(text))
    del text
    comments: list[int] = []
    rows = _csv_rows(path, lines, comments)
    header_line, header = next(rows, (0, None))
    if header is None:
        raise ParseError(f"{path}: no rows found")
    comments.clear()  # notes above the header, as `synth` writes, are expected
    header = [cell.strip() for cell in header]
    if header[0] != "region_id":
        raise SchemaError(f"{path}: first column must be 'region_id', got {header[0]!r}")
    attribute_names = tuple(header[1:])
    n = len(attribute_names)
    if not n:
        raise ParseError(f"{path}: no attribute columns")
    if "" in attribute_names:
        column = attribute_names.index("") + 2
        raise SchemaError(f"{path}: line {header_line}: column {column} has no attribute name")
    if len(set(attribute_names)) != n:
        raise SchemaError(
            f"{path}: duplicate attribute columns {_duplicates(attribute_names)}"
        )
    # a clean attempt that fails leaves `rows` just past the header
    parsed = _parse_clean(lines, header_line, n, comments) if clean else None
    region_ids, values, provenance = parsed or (
        _parse_cells(path, rows, attribute_names, schema)
    )
    del lines, rows, parsed  # the row generator holds the lines, `parsed` the matrix
    if len(region_ids) < n + 1:
        raise DegenerateDataError(
            f"{path}: {len(region_ids)} regions remain after ingestion, "
            f"need at least {n + 1}"
        )
    warnings = ()
    if comments:
        warnings = (
            f"skipped {len(comments)} comment line(s) after the header, "
            f"the first at line {comments[0]}; a row whose first field starts "
            "with # is a comment",
        )
    # C order: row means of a transposed view sum in another order and
    # differ in the last bits. Copied here, once the text and its lines are
    # gone, and the parsed matrix goes before the table builds its set of
    # region ids, so no two of them are held together.
    values = np.ascontiguousarray(values.T)
    return AttributeTable(
        attribute_names=attribute_names,
        region_ids=tuple(region_ids),
        values=values,
        provenance=tuple(provenance),
        digest=digest,
        warnings=warnings,
    )


def _spread(values):
    """Each row's mean, deviations, sum of squared deviations, and whether it
    is constant (`m2 <= (eps * mean)**2`) or its squares overflow float64
    (values near 1e154 and above; such a row is also "constant", inf <= inf).

    A mean whose sum passes the float64 range is taken over the values
    scaled by a power of two at least R, exactly, so it loses no bits.
    """
    n = values.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean(axis=1)
        lost = np.isinf(mean)
        if lost.any():
            scale = 2.0 ** (n - 1).bit_length()
            mean[lost] = (values[lost] / scale).mean(axis=1) * scale
        deviations = values - mean[:, None]
        sum_sq = (deviations**2).sum(axis=1)
        constant = sum_sq / n <= (np.finfo(float).eps * mean) ** 2
    return mean, deviations, sum_sq, constant, ~np.isfinite(sum_sq)


def describe(table: AttributeTable) -> DescriptiveStats:
    """Per-attribute moments.

    Skewness is the adjusted Fisher-Pearson estimator and kurtosis the
    bias-adjusted excess form (Joanes & Gill 1998, G1 and G2), so normal
    samples trend toward 0 for both. Attributes that `_spread` finds
    constant get NaN for both with a warning; the small-sample floor of 4
    observations for kurtosis is handled the same way (a table always has
    3 or more regions). Attributes whose squared deviations overflow
    float64 get NaN std, skewness and kurtosis and a warning of their own.
    """
    values = table.values
    n = table.n_regions
    mean, deviations, sum_sq, constant, overflow = _spread(values)
    kurt_scale = 1.0 / (n - 2) / (n - 3) if n >= 4 else np.nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m2 = sum_sq / n
        std = np.sqrt(sum_sq / (n - 1))
        # in place: the squares, then the cubes over the deviations
        squared = deviations**2
        m3 = np.multiply(deviations, squared, out=deviations).mean(axis=1)
        m4 = np.square(squared, out=squared).mean(axis=1)
        del deviations, squared
        skew = ((n - 1.0) * n) ** 0.5 / (n - 2.0) * m3 / m2**1.5
        kurt = kurt_scale * ((n**2 - 1.0) * m4 / m2**2.0 - 3 * (n - 1) ** 2.0)
    std[overflow] = np.nan
    skew[constant | overflow] = np.nan
    kurt[constant | overflow] = np.nan
    warnings: list[str] = []
    for name, flat, big in zip(table.attribute_names, constant, overflow):
        if big:
            warnings.append(
                f"moment: attribute {name!r} overflows float64; "
                "std/skewness/kurtosis undefined"
            )
        elif flat:
            warnings.append(
                f"moment: attribute {name!r} is constant; skewness/kurtosis undefined"
            )
        elif n < 4:
            warnings.append(f"moment: attribute {name!r} needs >=4 regions for kurtosis")
    return DescriptiveStats(
        attribute_names=table.attribute_names,
        count=np.full(table.n_attributes, n, dtype=int),
        mean=mean,
        std=std,
        min=values.min(axis=1),
        median=median(values),
        max=values.max(axis=1),
        skewness=skew,
        kurtosis=kurt,
        warnings=tuple(warnings),
    )


def standardize(table: AttributeTable) -> AttributeTable:
    """The table with each attribute row z-scored by its sample std (R-1).

    The first attribute that overflows (SchemaError) or that `describe`
    calls constant (ZeroVarianceError) is refused by name.
    """
    _, deviations, sum_sq, constant, overflow = _spread(table.values)
    for name, flat, big in zip(table.attribute_names, constant, overflow):
        if big:
            raise SchemaError(
                f"attribute {name!r} is too large to standardize: "
                "its standard deviation overflows float64"
            )
        if flat:
            raise ZeroVarianceError(f"attribute {name!r} has zero variance")
    standardized = deviations / np.sqrt(sum_sq / (table.n_regions - 1))[:, None]
    del deviations  # gone before the checks of the new table run
    return replace(table, values=standardized)
