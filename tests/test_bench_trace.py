"""The traced benchmark pass still reads what it needs off the program."""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name, monkeypatch):
    """A module of `bench/` by path, registered while the test runs."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_every_metric(tmp_path, monkeypatch):
    tracing = load("tracing", monkeypatch)
    workloads = load("workloads", monkeypatch)
    workload = workloads.SMOKE["paper"]  # 120 regions
    calls = []
    for command in ("synth",) + workloads.COMMANDS:
        for label in ("untraced", "traced"):
            data = tmp_path / f"input-{label}"
            if command == "synth":
                out, argv = data, workloads.synth_argv(workload, 1, str(data))
            else:
                out = tmp_path / "out" / f"{label}-{command}"
                csv_path = str(data / "synthetic.csv")
                argv = workloads.command_argv(workload, command, csv_path, str(out), "")
            calls.append({"pass": label, "command": command, "argv": argv, "out": str(out)})

    trace = tracing.run({"calls": calls})

    assert [call["exit_code"] for call in trace["calls"]] == [0] * len(calls), [
        call["stderr"] for call in trace["calls"] if call["exit_code"] != 0
    ]
    input_bytes = (tmp_path / "input-traced" / "synthetic.csv").stat().st_size
    written = [
        path.stat().st_size
        for call in calls
        if call["pass"] == "traced" and call["command"] != "synth"
        for path in Path(call["out"]).iterdir()
    ]
    metrics, problems = tracing.layer_metrics(trace, input_bytes, sum(written))
    assert problems == []
    observed = [metric for readers in tracing.OBSERVED.values() for metric in readers]
    assert set(observed) <= set(metrics)
    assert {f"{name}_s" for name in tracing.TIMED_FUNCTIONS} <= set(metrics)
    json.dumps(metrics, allow_nan=False)
