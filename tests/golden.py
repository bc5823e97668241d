"""Committed SHA-256 digests of every artifact of a fixed set of CLI calls.

Each call runs in-process through `cli.main`, in one working directory and
with relative paths, so no digest depends on where the calls ran. The
shapes and settings are declared here. `golden_digests.json` maps
`<case>/<seed>/<command>/<file>` to the SHA-256 of each file a call writes,
and `<case>/<seed>/<command>:exit`, `:stdout` and `:stderr` to the call's
exit code and the digests of what it printed.

    PYTHONPATH=src python tests/golden.py           # list the entries that differ
    PYTHONPATH=src python tests/golden.py --write   # rewrite the table

A change to the table is a frozen-value change: name the files it moves,
and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

from sitefactors.cli import main

TABLE = Path(__file__).with_name("golden_digests.json")
ANALYSES = ("describe", "fit", "score", "sweep")


@dataclass(frozen=True)
class Case:
    regions: int
    attributes: int
    factors: int
    seeds: tuple[int, ...] = (7, 1234)
    commands: tuple[str, ...] = ANALYSES
    synth_flags: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()  # passed to every analysis call
    definition: bool = False  # write a definition of every factor for score/sweep


CASES = {
    "paper": Case(426, 25, 6),
    "tall": Case(20_000, 25, 6),
    "wide": Case(500, 420, 70, flags=("--engine.kaiser_threshold", "2"), definition=True),
    # a noiseless plant: R is singular, so every fit takes the ridge
    "ridge": Case(
        426, 25, 6, seeds=(42,), commands=("fit", "score", "sweep"),
        synth_flags=("--synth.noise_std", "0"), flags=("--engine.ridge_fallback", "true"),
    ),
}


def definition(n_factors: int) -> dict:
    """Dimensions alternate factor by factor and signs every two factors."""
    return {
        f"factor_{m}": {
            "dimension": "suitability" if m % 2 else "attractiveness",
            "sign": 1 if (m - 1) // 2 % 2 == 0 else -1,
        }
        for m in range(1, n_factors + 1)
    }


def calls():
    """(call key, argv, output directory) of every call, in run order."""
    for name, case in CASES.items():
        for seed in case.seeds:
            home = f"{name}/{seed}"
            data = f"{home}/data"
            yield f"{home}/synth", [
                "synth", "--out", data, "--synth.seed", str(seed),
                "--synth.regions", str(case.regions),
                "--synth.attributes", str(case.attributes),
                "--synth.factors", str(case.factors),
                *case.synth_flags,
            ], data
            for command in case.commands:
                out = f"{home}/{command}"
                argv = [command, "--input", f"{data}/synthetic.csv", "--out", out, *case.flags]
                if command == "score":
                    argv += ["--alpha", "0.5"]
                if case.definition and command in ("score", "sweep"):
                    argv += ["--composite.definition", f"{home}/definition.json"]
                yield f"{home}/{command}", argv, out


def _digest(data: bytes) -> str:
    return sha256(data).hexdigest()


def run_calls(directory) -> dict:
    """Run every call in `directory`, which must be empty; return the table."""
    table = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, case in CASES.items():
            if case.definition:
                for seed in case.seeds:
                    path = Path(f"{name}/{seed}/definition.json")
                    path.parent.mkdir(parents=True)
                    path.write_text(json.dumps(definition(case.factors)), encoding="utf-8")
        for key, argv, out in calls():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            table[f"{key}:exit"] = code
            table[f"{key}:stdout"] = _digest(stdout.getvalue().encode())
            table[f"{key}:stderr"] = _digest(stderr.getvalue().encode())
            if Path(out).is_dir():
                for path in sorted(Path(out).iterdir()):
                    table[f"{key}/{path.name}"] = _digest(path.read_bytes())
    finally:
        os.chdir(cwd)
    return table


def differences(expected: dict, actual: dict) -> list[str]:
    """Every entry missing from, added to or changed in `actual`."""
    return sorted(
        key for key in expected.keys() | actual.keys() if expected.get(key) != actual.get(key)
    )


def read_table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        actual = run_calls(directory)
    if sys.argv[1:] == ["--write"]:
        TABLE.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(actual)} entries to {TABLE}")
    else:
        changed = differences(read_table(), actual)
        print("\n".join(changed) or f"all {len(actual)} entries match")
        sys.exit(1 if changed else 0)
