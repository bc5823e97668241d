"""Traced in-process run of the sitefactors CLI, and the per-layer metrics.

As a script this is a child process of the benchmark, started with the
checkout's `src` first on `PYTHONPATH`:

    python3 bench/tracing.py PLAN.json TRACE.json

PLAN.json lists `sitefactors.cli.main(argv)` calls, each in a pass: "warm",
"untraced" or "traced". Around a traced call, every public function of every
`sitefactors.*` module is wrapped by name in each module namespace that
binds it (so `cli.load_table` and `datamodel.load_table` are the same span),
and the `numpy.linalg` functions in LINALG_COUNTED are wrapped as counters.
A span records its name, start, end and parent; spans are kept in memory and
written to TRACE.json with the per-call records when the run ends. Each
traced call follows an untraced call of the same subcommand, so the pair
runs under the same machine load and their difference is the tracing
overhead.

Imported, this module only provides `layer_metrics`, which the benchmark
applies to TRACE.json.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import io
import json
import sys
import time
import traceback

# Per-value formatters run once per table cell; a span each would cost more
# than the work it measures.
UNTRACED = {"reports.fmt", "reports.grid_label"}
LINALG_COUNTED = ("eigh", "inv", "cond", "solve", "svd")

# Values read off a traced function's result, by span name.
OBSERVED = {
    "engine.fit_factor_model": {
        "engine.n_factors": lambda model: model.n_factors,
        "engine.warnings": lambda model: len(model.warnings),
    },
    "engine.paf_iterate": {"engine.paf_iterations": lambda model: model.iterations_used},
    "engine.varimax": {"engine.varimax_sweeps": lambda result: result.sweeps_used},
}

ANALYSIS = ("describe", "fit", "score", "sweep")

# Inclusive times reported per function, `<layer>.<function>_s`.
TIMED_FUNCTIONS = (
    "datamodel.load_table",
    "datamodel.standardize",
    "datamodel.describe",
    "engine.fit_factor_model",
    "engine.correlation",
    "engine.initial_communalities",
    "engine.paf_iterate",
    "engine.varimax",
    "engine.scoring_weights",
    "engine.dominant_attributes",
    "engine.factor_scores",
    "composite.composite_scores",
    "composite.score_regions",
    "composite.quadrant_classify",
    "composite.top_k",
    "composite.sweep",
    "reports.write_scores_csv",
)
SELF_TIMED_LAYERS = ("cli", "datamodel", "engine", "composite", "reports")


class Tracer:
    """Installs and removes the span and counter wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: collections.Counter = collections.Counter()
        self.observed: dict[str, list] = collections.defaultdict(list)
        self.wrapped: set[str] = set()
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def _span(self, name, function):
        spans, open_spans = self.spans, self._open
        observers = OBSERVED.get(name, {})

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else None
            spans.append([name, time.perf_counter(), None, parent])
            open_spans.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = time.perf_counter()
            for metric, read in observers.items():
                try:
                    self.observed[metric].append(read(result))
                except AttributeError:
                    pass
            return result

        return traced

    def _counter(self, name, function):
        counts = self.counts

        @functools.wraps(function)
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    def _patch(self, namespace, attribute, replacement):
        self._patches.append((namespace, attribute, getattr(namespace, attribute)))
        setattr(namespace, attribute, replacement)

    def install(self, modules, linalg):
        wrappers = {}
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if attribute.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("sitefactors"):
                    continue
                name = f"{value.__module__.rpartition('.')[2]}.{value.__name__}"
                if name in UNTRACED:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._span(name, value)
                self._patch(module, attribute, wrappers[value])
                self.wrapped.add(name)
        for attribute in LINALG_COUNTED:
            if hasattr(linalg, attribute):
                counter = self._counter(attribute, getattr(linalg, attribute))
                self._patch(linalg, attribute, counter)

    def uninstall(self):
        while self._patches:
            namespace, attribute, original = self._patches.pop()
            setattr(namespace, attribute, original)


def _call(cli, argv):
    """One `cli.main(argv)` call; a crash is recorded, not raised."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):  # the benchmark reports it as a failed call
        code = None
        err.write(traceback.format_exc())
    return {
        "exit_code": code,
        "wall_s": time.perf_counter() - start,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def run(plan: dict) -> dict:
    import numpy
    import sitefactors.cli as cli

    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if name == "sitefactors" or name.startswith("sitefactors.")
    ]
    tracer = Tracer()
    calls = []
    for call in plan["calls"]:
        if call["pass"] == "traced":
            tracer.install(modules, numpy.linalg)
        try:
            first_span = len(tracer.spans)
            counts_before = collections.Counter(tracer.counts)
            tracer.observed.clear()
            record = _call(cli, call["argv"])
        finally:
            tracer.uninstall()
        record.update(
            call,
            spans=[first_span, len(tracer.spans)],
            counts=dict(tracer.counts - counts_before),
            observed=dict(tracer.observed),
        )
        calls.append(record)
    return {
        "wrapped": sorted(tracer.wrapped),
        "calls": calls,
        "spans": [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in tracer.spans
        ],
    }


def _inclusive(spans, indices, group=lambda name: name) -> dict:
    """Summed duration per group of span names, not counting a span nested in its own group."""
    totals = collections.defaultdict(float)
    for i in indices:
        span = spans[i]
        key = group(span["name"])
        parent = span["parent"]
        while parent is not None and group(spans[parent]["name"]) != key:
            parent = spans[parent]["parent"]
        if parent is None:
            totals[key] += span["end"] - span["start"]
    return totals


def _writer(name: str) -> str:
    return "reports.write" if name.startswith("reports.write_") else name


def _self_by_layer(spans, indices) -> dict:
    """Per layer, span time minus the time its child spans cover."""
    children = collections.defaultdict(float)
    for i in indices:
        parent = spans[i]["parent"]
        if parent is not None:
            children[parent] += spans[i]["end"] - spans[i]["start"]
    totals = collections.defaultdict(float)
    for i in indices:
        span = spans[i]
        layer = span["name"].partition(".")[0]
        totals[layer] += span["end"] - span["start"] - children[i]
    return totals


def layer_metrics(trace: dict, input_bytes: int, bytes_written: int) -> tuple[dict, list]:
    """Per-layer metrics of the traced calls, and the problems found in them.

    Times are summed over the four analysis subcommands; `synth` counts only
    toward `synth.write_synth_csv_s`. A function the program no longer has is
    left out rather than reported as zero.
    """
    spans = trace["spans"]
    traced = {c["command"]: c for c in trace["calls"] if c["pass"] == "traced"}
    untraced = {c["command"]: c for c in trace["calls"] if c["pass"] == "untraced"}
    wrapped = set(trace["wrapped"])
    problems = []

    def indices(commands):
        return [i for c in commands for i in range(*traced[c]["spans"])]

    analysis = indices(ANALYSIS)
    inclusive = _inclusive(spans, analysis)
    layer_self = _self_by_layer(spans, analysis)
    names = collections.Counter(spans[i]["name"] for i in analysis)

    metrics = {}
    for name in TIMED_FUNCTIONS:
        if name in wrapped:
            metrics[f"{name}_s"] = (inclusive[name], "s")
    for layer in SELF_TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")

    if "datamodel.load_table" in wrapped:
        load_s = inclusive["datamodel.load_table"]
        loaded = input_bytes * names["datamodel.load_table"]
        metrics["datamodel.input_bytes"] = (input_bytes, "B")
        metrics["datamodel.load_table_mb_per_s"] = (loaded / 1e6 / load_s, "MB/s")

    if any(_writer(name) == "reports.write" for name in wrapped):
        write_s = _inclusive(spans, analysis, _writer)["reports.write"]
        metrics["reports.write_s"] = (write_s, "s")
        metrics["reports.bytes_written"] = (bytes_written, "B")
        metrics["reports.write_mb_per_s"] = (bytes_written / 1e6 / write_s, "MB/s")

    if "synth.write_synth_csv" in wrapped:
        synth = _inclusive(spans, indices(["synth"]))
        metrics["synth.write_synth_csv_s"] = (synth["synth.write_synth_csv"], "s")

    for function in LINALG_COUNTED:
        calls = sum(traced[c]["counts"].get(function, 0) for c in ANALYSIS)
        metrics[f"engine.{function}_calls"] = (calls, "count")
    for name in ("composite.score_regions", "composite.top_k"):
        if name in wrapped:
            metrics[f"{name}_calls"] = (names[name], "count")
    if "composite.quadrant_classify" in wrapped:
        wasted = sum(
            1 for i in range(*traced["sweep"]["spans"])
            if spans[i]["name"] == "composite.quadrant_classify"
        )
        metrics["composite.quadrant_wasted_calls"] = (wasted, "count")

    # One value per fit; all fits of one input must agree.
    for metric in [m for observers in OBSERVED.values() for m in observers]:
        values = [v for c in ANALYSIS for v in traced[c]["observed"].get(metric, [])]
        if len(set(values)) > 1:
            problems.append(f"{metric} differs between fits: {values}")
        if values:
            metrics[metric] = (values[0], "count")

    all_commands = ("synth",) + ANALYSIS
    traced_s = sum(traced[c]["wall_s"] for c in all_commands)
    untraced_s = sum(untraced[c]["wall_s"] for c in all_commands)
    metrics["trace.overhead_pct"] = ((traced_s - untraced_s) / untraced_s * 100.0, "%")
    return metrics, problems


def main(argv) -> int:
    plan_path, trace_path = argv
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    trace = run(plan)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
