"""Output checks for every call the benchmark makes.

A call's outputs pass only if its directory holds exactly the expected
artifacts, each artifact agrees with the input and with the other
artifacts, and the bytes equal those of the first passing call of the same
subcommand on the same input. The checks read only the files and recompute
what they can from the input CSV, so they do not trust the program's own
code. Floats in the CSVs carry 6 decimals, which sets the tolerances.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

from workloads import SCORE_ALPHA

# CLI defaults the checks rely on (see the README's configuration table).
ALPHA_LABELS = ("0.0", "0.2", "0.4", "0.6", "0.8", "1.0")
THETA_LABELS = ("1.0", "1.5", "2.0", "2.5", "3.0", "3.5", "4.0")
SCORE_TOP_K = 10
SWEEP_TOP_K = 30

ROUNDING = 1.5e-6  # two values each printed to 6 decimals
V_TOLERANCE = 2e-6  # v-score against its rounded composites
THRESHOLD_MARGIN = 1e-5  # sweep counts may differ only this close to a theta

QUADRANTS = {
    (True, True): "BothHigh",
    (True, False): "SuitabilityBiased",
    (False, True): "AttractivenessBiased",
    (False, False): "BothLow",
}
TYPOLOGIES = {"Balanced", "SuitabilityBiased", "AttractivenessBiased", "None"}

EXPECTED = {
    "synth": {"synthetic.csv"},
    "describe": {"stats.csv"},
    "fit": {"loadings.csv", "eigenvalues.csv", "weights.csv", "manifest.json"},
    "score": {"scores.csv", "top_suitability.csv", "top_attractiveness.csv", "manifest.json"},
    "sweep": {"sweep_wide.csv", "sweep_long.csv", "manifest.json"}
    | {f"top_regions_alpha_{label}.csv" for label in ALPHA_LABELS},
}


def planted_blocks(attributes: int, factors: int) -> list[range]:
    """Contiguous near-equal attribute blocks, earlier factors get the remainder."""
    base, extra = divmod(attributes, factors)
    blocks, start = [], 0
    for m in range(factors):
        size = base + 1 if m < extra else base
        blocks.append(range(start, start + size))
        start += size
    return blocks


def _rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _digests(directory) -> dict:
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def _ranking(path, key: str, k: int) -> tuple[list[str], np.ndarray, list[str]]:
    """(region ids, values, problems) of a top-k file."""
    rows = _rows(path)
    problems = []
    if rows[0] != ["rank", "region_id", key]:
        problems.append(f"{os.path.basename(path)}: header {rows[0]}")
    body = rows[1:]
    if [r[0] for r in body] != [str(i) for i in range(1, k + 1)]:
        problems.append(f"{os.path.basename(path)}: ranks are not 1..{k}")
    values = np.array([float(r[2]) for r in body])
    if np.any(np.diff(values) > 0):
        problems.append(f"{os.path.basename(path)}: values increase")
    return [r[1] for r in body], values, problems


class Checker:
    """Checks the outputs of one workload's calls, all made on one input."""

    def __init__(self, workload):
        self.regions = workload.regions
        self.attributes = workload.attributes
        self.factors = workload.factors
        self.kaiser_threshold = workload.kaiser_threshold
        self.blocks = planted_blocks(workload.attributes, workload.factors)
        self.reference: dict[str, dict] = {}  # subcommand -> digests of its first passing call
        self.names: list[str] | None = None
        self.ids: list[str] | None = None
        self.values: np.ndarray | None = None  # regions x attributes, as written
        self.scores: tuple | None = None  # (index by id, suitability, attractiveness)

    def check(self, command: str, out_dir, stdout: str = "", stderr: str = "") -> list[str]:
        """Problems with one call's outputs; an empty list means it passed."""
        if "Traceback" in stderr:
            return [f"traceback on stderr: {stderr.strip().splitlines()[-1]}"]
        found = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
        expected = EXPECTED[command]
        if found != expected:
            return [
                f"missing {sorted(expected - found)}, unexpected {sorted(found - expected)}"
            ]
        try:
            problems = getattr(self, "_" + command)(out_dir, stdout)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        digests = _digests(out_dir)
        if not problems:
            self.reference.setdefault(command, digests)
        reference = self.reference.get(command)
        if reference is not None and digests != reference:
            changed = sorted(n for n in digests if digests[n] != reference.get(n))
            problems.append(f"artifacts differ from the first call's: {changed}")
        return problems

    def _synth(self, out_dir, stdout):
        path = os.path.join(out_dir, "synthetic.csv")
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        data = lines[1:]
        problems = []
        if header[0] != "region_id" or len(header) != self.attributes + 1:
            problems.append(f"synthetic.csv header has {len(header)} columns")
        if len(data) != self.regions:
            problems.append(f"synthetic.csv has {len(data)} rows, expected {self.regions}")
        if problems or self.values is not None:
            return problems
        self.names = header[1:]
        self.ids = [line.partition(",")[0] for line in data]
        self.values = np.loadtxt(
            data, delimiter=",", usecols=range(1, self.attributes + 1), ndmin=2
        )
        return problems

    def _describe(self, out_dir, stdout):
        rows = _rows(os.path.join(out_dir, "stats.csv"))
        problems = []
        header = "attribute,count,mean,std,min,median,max,skewness,kurtosis".split(",")
        if rows[0] != header:
            return [f"stats.csv header {rows[0]}"]
        body = rows[1:]
        if [r[0] for r in body] != self.names:
            return ["stats.csv attributes differ from the input's"]
        if any(int(r[1]) != self.regions for r in body):
            problems.append("stats.csv count differs from the region count")
        got = np.array([[float(x) for x in r[2:]] for r in body])
        x = self.values
        n = self.regions
        centred = x - x.mean(axis=0)
        m2 = np.mean(centred**2, axis=0)
        g1 = np.mean(centred**3, axis=0) / m2**1.5
        g2 = np.mean(centred**4, axis=0) / m2**2 - 3.0
        want = np.column_stack(
            [
                x.mean(axis=0),
                x.std(axis=0, ddof=1),
                x.min(axis=0),
                np.median(x, axis=0),
                x.max(axis=0),
                np.sqrt(n * (n - 1.0)) / (n - 2.0) * g1,  # adjusted Fisher-Pearson
                (n - 1.0) / ((n - 2.0) * (n - 3.0)) * ((n + 1.0) * g2 + 6.0),
            ]
        )
        bad = np.argwhere(np.abs(got - want) > ROUNDING + 1e-9 * np.abs(want))
        if bad.size:
            i, j = bad[0]
            problems.append(
                f"stats.csv {body[i][0]} {header[j + 2]}: {got[i, j]} != {want[i, j]:.6f}"
            )
        if stdout.strip() and f"N={self.attributes} R={self.regions}" not in stdout:
            problems.append(f"describe printed {stdout.strip()!r}")
        return problems

    def _manifest(self, out_dir):
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("n_factors") != self.factors:
            return [f"manifest n_factors {manifest.get('n_factors')}, planted {self.factors}"]
        return []

    def _fit(self, out_dir, stdout):
        problems = self._manifest(out_dir)
        summary = f"N={self.attributes} R={self.regions} M={self.factors} "
        if summary not in stdout:
            problems.append(f"fit printed {stdout.strip()!r}, expected {summary.strip()!r}")
        labels = [f"factor_{m + 1}" for m in range(self.factors)]
        rows = _rows(os.path.join(out_dir, "loadings.csv"))
        if rows[0] != ["attribute", *labels, "communality", "dominant_factor"]:
            return problems + ["loadings.csv header does not list the planted factors"]
        body = rows[1:]
        if [r[0] for r in body] != self.names:
            return problems + ["loadings.csv attributes differ from the input's"]
        dominant = [r[-1] for r in body]
        mapped = [{dominant[i] for i in block} for block in self.blocks]
        split = [m + 1 for m, found in enumerate(mapped) if len(found) != 1]
        if split:
            problems.append(f"planted blocks {split[:5]} map to more than one factor")
        elif len({found.pop() for found in mapped}) != self.factors:
            problems.append("distinct planted blocks map to the same factor")
        rows = _rows(os.path.join(out_dir, "eigenvalues.csv"))
        eigenvalues = np.array([float(r[1]) for r in rows[1:]])
        if [r[0] for r in rows[1:]] != labels:
            problems.append("eigenvalues.csv does not list the planted factors")
        elif np.any(np.diff(eigenvalues) > 0) or eigenvalues[-1] < self.kaiser_threshold - 1e-6:
            problems.append("eigenvalues.csv is not descending above the retention threshold")
        rows = _rows(os.path.join(out_dir, "weights.csv"))
        if rows[0] != ["attribute", *labels] or [r[0] for r in rows[1:]] != self.names:
            problems.append("weights.csv does not have one row per attribute")
        return problems

    def _score(self, out_dir, stdout):
        problems = self._manifest(out_dir)
        rows = _rows(os.path.join(out_dir, "scores.csv"))
        factor_columns = [f"f_{m + 1}" for m in range(self.factors)]
        tail = ["suitability", "attractiveness", "v_score", "quadrant", "typology"]
        if rows[0] != ["region_id", *factor_columns, *tail]:
            return problems + [f"scores.csv header {rows[0][:3]}..."]
        body = rows[1:]
        ids = [r[0] for r in body]
        if ids != self.ids:
            return problems + [f"scores.csv has {len(ids)} rows, not the input's regions in order"]
        m = self.factors
        numbers = np.array([[float(x) for x in r[m + 1 : m + 4]] for r in body])
        suit, attr, v = numbers.T
        alpha = float(SCORE_ALPHA)
        worst = np.max(np.abs(v - (alpha * suit + (1 - alpha) * attr)))
        if worst > V_TOLERANCE:
            problems.append(f"v_score is off 0.5*suitability + 0.5*attractiveness by {worst:.2e}")
        quadrants = [r[m + 4] for r in body]
        typologies = [r[m + 5] for r in body]
        med_s, med_a = np.median(suit), np.median(attr)
        clear = np.abs(suit - med_s) > THRESHOLD_MARGIN
        clear &= np.abs(attr - med_a) > THRESHOLD_MARGIN
        for j in np.flatnonzero(clear):
            if quadrants[j] != QUADRANTS[(bool(suit[j] > med_s), bool(attr[j] > med_a))]:
                problems.append(f"scores.csv {ids[j]}: quadrant {quadrants[j]} is off the medians")
                break
        for q, t in zip(quadrants, typologies):
            if t not in TYPOLOGIES or (q != "BothHigh" and t != "None"):
                problems.append(f"scores.csv: typology {t!r} in quadrant {q!r}")
                break
        index = {rid: j for j, rid in enumerate(ids)}
        self.scores = (index, suit, attr)
        k = min(SCORE_TOP_K, self.regions)
        for key, values in (("suitability", suit), ("attractiveness", attr)):
            path = os.path.join(out_dir, f"top_{key}.csv")
            listed, top, found = _ranking(path, key, k)
            problems += found
            problems += _agrees(path, listed, top, index, values, 0.0)
        return problems

    def _sweep(self, out_dir, stdout):
        problems = self._manifest(out_dir)
        if self.scores is None:
            return problems + ["no checked scores.csv of this input to compare against"]
        index, suit, attr = self.scores
        n = self.regions
        rows = _rows(os.path.join(out_dir, "sweep_long.csv"))
        if rows[0] != ["theta", "alpha", "count", "pct"]:
            return problems + [f"sweep_long.csv header {rows[0]}"]
        grid = [(t, a) for t in THETA_LABELS for a in ALPHA_LABELS]
        body = rows[1:]
        cells = [(f"{float(t):.6f}", f"{float(a):.6f}") for t, a in grid]
        if [(r[0], r[1]) for r in body] != cells:
            return problems + ["sweep_long.csv does not cover the default grid in order"]
        counts = {}
        for (theta, alpha), row in zip(grid, body):
            count = int(row[2])
            counts[theta, alpha] = count
            a = float(alpha)
            v = a * suit + (1.0 - a) * attr
            low = int(np.sum(v > float(theta) + THRESHOLD_MARGIN))
            high = int(np.sum(v > float(theta) - THRESHOLD_MARGIN))
            if not low <= count <= high:
                problems.append(
                    f"sweep_long.csv theta={theta} alpha={alpha}: count {count}, "
                    f"recomputed {low}..{high}"
                )
            if abs(float(row[3]) - count / n * 100.0) > ROUNDING:
                problems.append(f"sweep_long.csv theta={theta} alpha={alpha}: pct {row[3]}")
        wide = [",".join(["theta", *ALPHA_LABELS])]
        for t in THETA_LABELS:
            cells = [f"{counts[t, a]} ({counts[t, a] / n * 100.0:.1f}%)" for a in ALPHA_LABELS]
            wide.append(",".join([t, *cells]))
        with open(os.path.join(out_dir, "sweep_wide.csv"), encoding="utf-8") as handle:
            if handle.read().splitlines() != wide:
                problems.append("sweep_wide.csv disagrees with sweep_long.csv")
        k = min(SWEEP_TOP_K, n)
        for label in ALPHA_LABELS:
            a = float(label)
            path = os.path.join(out_dir, f"top_regions_alpha_{label}.csv")
            listed, top, found = _ranking(path, "v_score", k)
            problems += found
            problems += _agrees(path, listed, top, index, a * suit + (1.0 - a) * attr, V_TOLERANCE)
        return problems


def _agrees(path, listed, top, index, values, tolerance) -> list[str]:
    """A top-k list names known regions with their values, and no region left out beats it."""
    name = os.path.basename(path)
    if any(rid not in index for rid in listed) or len(set(listed)) != len(listed):
        return [f"{name}: unknown or repeated region ids"]
    rows = np.array([index[rid] for rid in listed])
    if np.max(np.abs(values[rows] - top)) > tolerance:
        return [f"{name}: values disagree with scores.csv"]
    rest = np.delete(values, rows)
    if rest.size and rest.max() > top[-1] + tolerance:
        return [f"{name}: a region left out scores {rest.max():.6f} > {top[-1]:.6f}"]
    return []
