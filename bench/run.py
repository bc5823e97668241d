"""Benchmark of the sitefactors command line, end to end and layer by layer.

Run from the root of a checkout; the package is taken from the checkout's
`src`, not from an installed copy:

    python3 bench/run.py --workload tall --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1           # every workload, one after another
    python3 bench/run.py --smoke            # tiny inputs: every check and the trace

With `--trace 0` one run first makes one untimed warm-up call of every
subcommand on a tiny input, so `.pyc` compilation is not timed. It then
writes the workload's input with `sitefactors synth`, three times, and
reports the median as `setup_s`. Then it runs describe, fit,
`score --alpha 0.5` and sweep, each as its own `python -m sitefactors.cli`
process, one at a time: a closed loop with one client. It goes round them
until `--seconds` have passed, and the first round always completes. Times
are wall times of the processes; `peak_rss_mb` is the largest peak RSS of an
analysis process, from that child's own rusage.

With `--trace 1` the run instead times a cold `import sitefactors.cli` in
fresh interpreters. It then calls synth and the four subcommands in one
process, each once untraced and once traced (tracing.py), and reports
per-layer metrics from the spans.

Every call's outputs are checked (checks.py). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. An operation is one call of the program; it fails if it exits
non-zero, times out or fails a check. Files go under `.bench_work/` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from workloads import (
    COMMANDS,
    SMOKE,
    WORKLOADS,
    Workload,
    command_argv,
    definition,
    synth_argv,
    warm_calls,
)

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
RUN_BUDGET_S = 170.0  # every run must end within 180 s
CALL_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One call of the program and what came of it."""

    command: str
    wall_s: float = 0.0
    rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    stdout: str = ""
    stderr: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Run:
    """One benchmark run of one workload: its files, child environment and calls."""

    def __init__(self, root: Path, workload: Workload, seed: int, mode: str):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = root / ".bench_work" / f"{workload.name}-s{seed}-{mode}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.definition = self.work / "definition.json"
        if workload.definition:
            self.definition.write_text(json.dumps(definition(workload)), encoding="utf-8")
        self.checker = checks.Checker(workload)
        self.ops: list[Op] = []
        self.threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        pythonpath = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(pythonpath)
        for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            self.env[variable] = str(self.threads)
        self.sequence = 0

    def rel(self, path: Path) -> str:
        return os.path.relpath(path, self.root)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, command: str, argv: list[str]) -> Op:
        """Run one child to completion, timing it and reading its own rusage."""
        self.sequence += 1
        log = self.work / "logs" / f"{self.sequence:03d}-{command}"
        log.parent.mkdir(exist_ok=True)
        op = Op(command)
        timeout = min(CALL_TIMEOUT_S, self.time_left())
        if timeout <= 0:
            op.problems.append("not started: the run's time budget is spent")
            self.ops.append(op)
            return op
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(timeout, child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                killer.cancel()
            op.wall_s = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        op.rss_mb = usage.ru_maxrss * 1024 / 1e6  # Linux reports KiB
        op.stdout = Path(f"{log}.out").read_text(encoding="utf-8", errors="replace")
        op.stderr = Path(f"{log}.err").read_text(encoding="utf-8", errors="replace")
        if op.wall_s >= timeout:
            op.problems.append(f"timed out after {timeout:.0f} s")
        elif child.returncode != 0:
            last = op.stderr.strip().splitlines()[-1:] or [""]
            op.problems.append(f"exit code {child.returncode}: {last[0]}")
        self.ops.append(op)
        return op

    def cli(self, command: str, argv: list[str], out: Path) -> Op:
        shutil.rmtree(out, ignore_errors=True)
        op = self.spawn(command, [sys.executable, "-m", "sitefactors.cli", *argv])
        if not op.failed:
            op.problems += self.checker.check(command, out, op.stdout, op.stderr)
        if command != "synth":  # synth writes the input the later calls read
            shutil.rmtree(out, ignore_errors=True)
        return op

    def probe(self, warm: bool) -> dict:
        """Cold import of the CLI in a fresh interpreter; optionally the warm-up calls."""
        argv = [sys.executable, str(BENCH_DIR / "probe.py")]
        if warm:
            argv += ["--warm", self.rel(self.work / "warm")]
        op = self.spawn("warm-up" if warm else "import", argv)
        if op.failed:
            return {}
        try:
            return json.loads(op.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            op.problems.append(f"probe printed {op.stdout.strip()[-200:]!r}")
            return {}

    def analysis_argv(self, command: str, input_csv: Path, out: Path) -> list[str]:
        return command_argv(
            self.workload, command, self.rel(input_csv), self.rel(out), self.rel(self.definition)
        )

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def tail(samples: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return "no percentile with 10 samples beyond it (n < 20)"
    p = math.floor(100 * (n - 10) / n)
    value = sorted(samples)[math.ceil(p / 100 * n) - 1]
    return f"p{p} {value:.4f}"


def end_to_end(run: Run, seconds: float, setup_repeats: int) -> tuple[dict, list[str]]:
    """Metrics of the process-per-call loop, and the lines that describe them."""
    env = run.probe(warm=True)
    setups = []
    for i in range(setup_repeats):
        out = run.work / f"input-{i}"
        op = run.cli("synth", synth_argv(run.workload, run.seed, run.rel(out)), out)
        setups.append(op)
    input_csv = run.work / "input-0" / "synthetic.csv"

    samples = {command: [] for command in COMMANDS}
    stop = time.monotonic() + seconds
    i = 0
    while (i < len(COMMANDS) or time.monotonic() < stop) and run.time_left() > 0:
        command = COMMANDS[i % len(COMMANDS)]
        out = run.work / "out" / f"{i:03d}-{command}"
        argv = run.analysis_argv(command, input_csv, out)
        samples[command].append(run.cli(command, argv, out))
        i += 1

    metrics = {"setup_s": ([op.wall_s for op in setups], "s")}
    for command in COMMANDS:
        metrics[f"{command}_s"] = ([op.wall_s for op in samples[command]], "s")
    analysis = [op for ops in samples.values() for op in ops]
    if analysis:
        metrics["peak_rss_mb"] = ([max(op.rss_mb for op in analysis)], "MB")
    lines = _environment(env, run)
    for name, (values, unit) in metrics.items():
        if not values:
            continue
        median = statistics.median(values)
        line = f"  {name:<12} median {median:10.4f} {unit:<3} n={len(values)}"
        if unit == "s":
            line += f"  max {max(values):.4f}  {tail(values)}"
        lines.append(line)
    result = {
        name: (statistics.median(values), unit)
        for name, (values, unit) in metrics.items()
        if values
    }
    return result, lines


def traced(run: Run, import_repeats: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the cold-import probes and the traced in-process calls."""
    env = run.probe(warm=True)
    imports = [run.probe(warm=False) for _ in range(import_repeats)]
    metrics = {}
    if all(imports):
        metrics["cli.import_s"] = (statistics.median(p["import_s"] for p in imports), "s")
        loaded = {p["modules_loaded"] for p in imports}
        metrics["cli.modules_loaded"] = (min(loaded), "count")
        if len(loaded) > 1:
            run.ops[-1].problems.append(f"modules loaded differ: {sorted(loaded)}")

    # A tiny warm pass first, so no timed call pays for first calls; then
    # each subcommand untraced and at once traced, on inputs of their own.
    warm = warm_calls(run.rel(run.work / "warm-in-process"))
    calls = [{"pass": "warm", "command": argv[0], "argv": argv, "out": ""} for argv in warm]
    inputs = {label: run.work / f"input-{label}" for label in ("untraced", "traced")}
    for command in ("synth",) + COMMANDS:
        for label, data in inputs.items():
            if command == "synth":
                out, argv = data, synth_argv(run.workload, run.seed, run.rel(data))
            else:
                out = run.work / "out" / f"{label}-{command}"
                argv = run.analysis_argv(command, data / "synthetic.csv", out)
            calls.append({"pass": label, "command": command, "argv": argv, "out": str(out)})
    plan_path = run.work / "plan.json"
    plan_path.write_text(json.dumps({"calls": calls}), encoding="utf-8")
    trace_path = run.root / ".bench_work" / f"trace-{run.workload.name}-s{run.seed}.json"
    child = run.spawn(
        "traced run",
        [sys.executable, str(BENCH_DIR / "tracing.py"), run.rel(plan_path), run.rel(trace_path)],
    )
    if child.failed:
        return metrics, _environment(env, run)
    trace = json.loads(trace_path.read_text(encoding="utf-8"))

    bytes_written = 0
    for call in trace["calls"]:
        op = Op(f"{call['pass']} {call['command']}", wall_s=call["wall_s"])
        run.ops.append(op)
        if call["exit_code"] != 0:
            op.problems.append(f"exit code {call['exit_code']}: {call['stderr'].strip()[-300:]}")
            continue
        if call["pass"] == "warm":
            continue
        op.problems += run.checker.check(
            call["command"], call["out"], call["stdout"], call["stderr"]
        )
        if call["pass"] == "traced" and call["command"] != "synth":
            bytes_written += sum(f.stat().st_size for f in Path(call["out"]).iterdir())
    if any(op.failed for op in run.ops):
        return metrics, _environment(env, run)
    input_bytes = (run.work / "input-traced" / "synthetic.csv").stat().st_size
    layers, problems = tracing.layer_metrics(trace, input_bytes, bytes_written)
    child.problems += problems
    metrics.update(layers)
    lines = _environment(env, run)
    lines.append(f"  spans: {len(trace['spans'])} written to {run.rel(trace_path)}")
    lines += [f"  {name:<38} {value:14.6f} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, lines


def _environment(env: dict, run: Run) -> list[str]:
    blas = env.get("blas", {})
    return [
        f"workload {run.workload.name}: {run.workload.shape}, seed {run.seed}",
        f"  module {env.get('module_path')}; nproc {run.threads}; Python {env.get('python')}, "
        f"numpy {env.get('numpy')}, scipy {env.get('scipy')}; "
        f"BLAS {blas.get('name')} {blas.get('version')} with {blas.get('threads')} threads",
    ]


def bench(root: Path, workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool):
    run = Run(root, workload, seed, "trace" if trace else "e2e")
    try:
        if trace:
            metrics, lines = traced(run, 1 if smoke else IMPORT_REPEATS)
        else:
            metrics, lines = end_to_end(run, seconds, 1 if smoke else SETUP_REPEATS)
    finally:
        run.close()
    failed = [op for op in run.ops if op.failed]
    lines.append(f"  ops_failed {len(failed)} of ops_attempted {len(run.ops)}")
    for op in failed:
        lines.append(f"  FAILED {op.command}: {'; '.join(op.problems)}")
    return metrics, lines, len(run.ops), len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, one round, then the traced run"
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sitefactors" / "cli.py").is_file():
        print("error: run from the root of a sitefactors checkout (no src/sitefactors/cli.py)",
              file=sys.stderr)
        return 2
    table = SMOKE if args.smoke else WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.smoke else [bool(args.trace)]
    seconds = 0.0 if args.smoke else args.seconds

    all_metrics, attempted, failed = {}, 0, 0
    for name in names:
        for trace in modes:
            metrics, lines, tried, bad = bench(
                root, table[name], args.seed, seconds, trace, args.smoke
            )
            print("\n".join(lines), flush=True)
            attempted += tried
            failed += bad
            prefix = "" if len(names) == 1 and len(modes) == 1 else f"{name}/"
            for metric, (value, unit) in metrics.items():
                all_metrics[prefix + metric] = {"value": value, "unit": unit}
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": all_metrics}
    print(json.dumps(result))
    return 0 if correct or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
