"""What the benchmark runs: workload shapes and settings, and the CLI calls.

Every input is generated by `sitefactors synth` from the benchmark's seed; the
program receives only the CSV and, for `wide`, a composite definition file
written here. Each workload stresses a different layer:

- paper: the paper's 426 x 25 scale. Process start and the scipy import take
  most of each call; a parse, engine or ranking change should not move it.
- tall: 20,000 x 25. Per-cell parsing in `load_table`, per-region ranking
  (`quadrant_classify`, `top_k`) and per-cell CSV writing take most of the
  data work; `score` is write-heavy and `sweep` rank-heavy.
- wide: 500 x 420 with 70 planted factors in blocks of 6. The engine
  (principal-axis iteration, varimax) does most of the data work. With R
  close to N the default Kaiser cut of 1.0 keeps noise factors, so the
  threshold is 2; at 2 the planted 70 factors are retained (seeds 0-39
  checked), which lets the definition file be fixed before the run.

The shapes keep one round of the four calls near 10 s on a 2-core machine,
so that a run of a few tens of seconds holds several samples of each call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

COMMANDS = ("describe", "fit", "score", "sweep")
SCORE_ALPHA = "0.5"


@dataclass(frozen=True)
class Workload:
    name: str
    regions: int
    attributes: int
    factors: int
    kaiser_threshold: float = 1.0  # the CLI default; passed only when it differs
    definition: bool = False  # write a composite definition and pass it

    @property
    def shape(self) -> str:
        return f"{self.regions} x {self.attributes}, {self.factors} planted factors"


WORKLOADS = {
    "paper": Workload("paper", 426, 25, 6),
    "tall": Workload("tall", 20_000, 25, 6),
    "wide": Workload("wide", 500, 420, 70, kaiser_threshold=2.0, definition=True),
}

# Tiny versions of the same workloads for the smoke mode: every call takes
# well under a second beyond interpreter start.
SMOKE = {
    "paper": Workload("paper", 120, 25, 6),
    "tall": Workload("tall", 400, 25, 6),
    "wide": Workload("wide", 150, 60, 10, kaiser_threshold=2.0, definition=True),
}


def definition(workload: Workload) -> dict:
    """Composite definition for every planted factor.

    Dimensions alternate factor by factor and signs every two factors, so
    both dimensions carry factors of both signs.
    """
    return {
        f"factor_{m}": {
            "dimension": "suitability" if m % 2 else "attractiveness",
            "sign": 1 if (m - 1) // 2 % 2 == 0 else -1,
        }
        for m in range(1, workload.factors + 1)
    }


def synth_argv(workload: Workload, seed: int, out: str) -> list[str]:
    return [
        "synth", "--out", out, "--quiet",
        "--synth.seed", str(seed),
        "--synth.regions", str(workload.regions),
        "--synth.attributes", str(workload.attributes),
        "--synth.factors", str(workload.factors),
    ]


def command_argv(
    workload: Workload, command: str, input_csv: str, out: str, definition_path: str
) -> list[str]:
    """Arguments of one analysis call; `fit` is not quiet so its summary is checked."""
    argv = [command, "--input", input_csv, "--out", out]
    if command != "fit":
        argv.append("--quiet")
    if command == "score":
        argv += ["--alpha", SCORE_ALPHA]
    if workload.kaiser_threshold != Workload.kaiser_threshold:
        argv += ["--engine.kaiser_threshold", f"{workload.kaiser_threshold:g}"]
    if workload.definition and command in ("score", "sweep"):
        argv += ["--composite.definition", definition_path]
    return argv


def warm_calls(directory: str) -> list[list[str]]:
    """One call per subcommand on a tiny input, to run before anything is timed."""
    tiny = Workload("warm", 120, 25, 6)
    data = os.path.join(directory, "data")
    csv_path = os.path.join(data, "synthetic.csv")
    return [synth_argv(tiny, 1, data)] + [
        command_argv(tiny, command, csv_path, os.path.join(directory, command), "")
        for command in COMMANDS
    ]
