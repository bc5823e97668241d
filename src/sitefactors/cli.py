"""Command-line front end: describe / fit / score / sweep / synth.

Exit codes are a stable contract: 0 on success, 2 on an I/O error, and
otherwise the `exit_code` of the package error raised (see `errors`).
Non-convergence is not an error; it lands in the manifest and on stderr as
a warning.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .composite import (
    DIMENSIONS,
    TypologyConfig,
    composite_scores,
    default_definition,
    load_definition,
    score_regions,
    sweep,
    top_k,
)
from .config import KEYS, RunConfig, load_config_file
from .datamodel import IngestionConfig, describe, load_table, standardize
from .engine import EngineConfig, factor_scores, fit_factor_model
from .errors import ParseError, SiteFactorsError
from .reports import (
    grid_label,
    write_eigenvalues_csv,
    write_loadings_csv,
    write_manifest,
    write_provenance,
    write_scores_csv,
    write_stats_csv,
    write_sweep_long_csv,
    write_sweep_wide_csv,
    write_top_csv,
    write_weights_csv,
)
from .synth import SynthConfig, write_synth_csv

# environment locations, not computation parameters: visible flags, and
# left out of the manifest, which records the definition's content instead
LOCATIONS = ("input", "out", "quiet", "composite.definition")
VALUELESS = ("--quiet", "--help", "--version")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sitefactors",
        description="Latent-factor site scoring: describe, fit, score, sweep, synth.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file of dotted keys")
        cmd.add_argument("--input", help="input CSV path")
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--composite.definition", metavar="PATH", help="definition JSON file")
        cmd.add_argument("--quiet", action="store_true", default=None)
        # short spellings write their key, so the later of two spellings wins
        if name == "score":
            cmd.add_argument(
                "--alpha", dest="score.alpha", metavar="ALPHA",
                help="suitability weight in [0, 1]",
            )
        if name == "synth":
            cmd.add_argument("--seed", dest="synth.seed", metavar="SEED", help="generator seed")
        for key in KEYS:
            if key not in LOCATIONS:
                cmd.add_argument(f"--{key}", dest=key, help=argparse.SUPPRESS)
    return parser


def _one_line(message: str) -> str:
    """The message with CR and LF escaped: a quoted id or a path may hold a
    line break, and stderr keeps one line per message."""
    return message.replace("\r", "\\r").replace("\n", "\\n")


def _warn(messages) -> None:
    for message in messages:
        print(f"warning: {_one_line(message)}", file=sys.stderr)


def _load(config: RunConfig, digest: bool = True):
    """The input table, and its provenance log if a cell was handled; the
    input is hashed only for a `digest` that an artifact records."""
    path = config["input"]
    if not path:
        raise ParseError("no input file given (set --input or the 'input' key)")
    table = load_table(path, config.settings(IngestionConfig), digest=digest)
    _warn(f"{path}: {warning}" for warning in table.warnings)  # the manifest names no path
    _warn("missing value handled: " + line for line in table.provenance)
    artifacts = {"provenance.log": (write_provenance, table.provenance)}
    return table, artifacts if table.provenance else {}


def _fit(config: RunConfig):
    """Shared fit stage: table -> standardized table -> canonical model."""
    table, artifacts = _load(config)
    table = standardize(table)  # the fit holds the standardized copy alone
    model = fit_factor_model(table, config.settings(EngineConfig))
    _warn(model.warnings)
    artifacts["manifest.json"] = (write_manifest, _manifest(config, table, model))
    return table, model, artifacts


def _manifest(config: RunConfig, table, model) -> dict:
    # the digest pins the input content, so reruns into any directory of the
    # same data and settings produce byte-identical artifacts; json sorts
    # the keys and writes the tuples as lists; the warnings are those of
    # stderr, the table's (there after the input's path) before the model's
    return {
        "config": {
            key: value for key, value in config.values.items() if key not in LOCATIONS
        },
        "input_digest": table.digest,
        "tool_version": __version__,
        "converged": model.converged,
        "iterations_used": model.iterations_used,
        "n_factors": model.n_factors,
        "warnings": [*table.warnings, *model.warnings],
    }


def _scored(config: RunConfig):
    """Shared score stage: the fit's factor scores and the bound definition."""
    table, model, artifacts = _fit(config)
    path, n_factors = config["composite.definition"], model.n_factors
    definition = load_definition(path, n_factors) if path else default_definition(n_factors)
    if config["composite.binary"]:
        definition = tuple(replace(a, sign=1) for a in definition)
    # the definition applied, in the definition file's own format
    artifacts["manifest.json"][1]["definition"] = {
        label: {"dimension": a.dimension, "sign": a.sign}
        for label, a in zip(model.factor_labels, definition)
    }
    return factor_scores(model.scoring_weights, table), definition, artifacts


# Each subcommand only computes: it returns its artifacts, a dict of file
# name -> (writer, *args), and its summary line; `main` writes them.


def cmd_describe(config: RunConfig):
    table, artifacts = _load(config, digest=False)  # stats.csv holds no digest
    stats = describe(table)
    _warn(stats.warnings)
    artifacts["stats.csv"] = (write_stats_csv, stats)
    return artifacts, f"N={table.n_attributes} R={table.n_regions}"


def cmd_fit(config: RunConfig):
    table, model, artifacts = _fit(config)
    artifacts["loadings.csv"] = (write_loadings_csv, model)
    artifacts["eigenvalues.csv"] = (write_eigenvalues_csv, model)
    artifacts["weights.csv"] = (write_weights_csv, model)
    summary = (
        f"N={table.n_attributes} R={table.n_regions} M={model.n_factors} "
        f"converged={model.converged} iterations={model.iterations_used}"
    )
    return artifacts, summary


def cmd_score(config: RunConfig):
    scores, definition, artifacts = _scored(config)
    alpha = config["score.alpha"]
    regions = score_regions(scores, definition, alpha, config.settings(TypologyConfig))
    artifacts["scores.csv"] = (write_scores_csv, regions)
    k = min(config["score.top_k"], regions.n_regions)
    for key in DIMENSIONS:
        ranking = top_k(regions.region_ids, getattr(regions, key), k)
        artifacts[f"top_{key}.csv"] = (write_top_csv, ranking, key)
    return artifacts, f"scored {regions.n_regions} regions at alpha={alpha:g}"


def cmd_sweep(config: RunConfig):
    scores, definition, artifacts = _scored(config)
    composites = composite_scores(scores, definition)
    k = min(config["sweep.top_k"], composites.n_regions)
    grid = sweep(composites, config.alphas(), config["sweep.thetas"], k)
    artifacts["sweep_wide.csv"] = (write_sweep_wide_csv, grid)
    artifacts["sweep_long.csv"] = (write_sweep_long_csv, grid)
    for alpha, ranking in zip(grid.alphas, grid.rankings):
        name = f"top_regions_alpha_{grid_label(alpha)}.csv"
        artifacts[name] = (write_top_csv, ranking, "v_score")
    summary = (
        f"sweep grid {len(grid.thetas)}x{len(grid.alphas)} over "
        f"{composites.n_regions} regions"
    )
    return artifacts, summary


def cmd_synth(config: RunConfig):
    synth = config.settings(SynthConfig)
    path = Path(config["out"]) / "synthetic.csv"
    summary = (
        f"wrote {path} ({synth.n_attributes} attributes x {synth.n_regions} regions)"
    )
    return {path.name: (write_synth_csv, synth)}, summary


COMMANDS = {
    "describe": (cmd_describe, "write per-attribute descriptive statistics"),
    "fit": (cmd_fit, "extract, rotate and weight the latent factors"),
    "score": (cmd_score, "write per-region composite scores at a given alpha"),
    "sweep": (cmd_sweep, "run the (alpha, theta) sensitivity sweep"),
    "synth": (cmd_synth, "generate a synthetic dataset with a planted structure"),
}


def _negative_values(argv):
    """`--key -1,0` as `--key=-1,0`: argparse takes a token that starts with
    `-` for a flag unless it reads as one plain number, so a value such as
    `-1,0,1` or `-8e-1` is joined to the flag before it."""
    joined = [""]
    for token in argv:
        flag = joined[-1]
        valued = re.fullmatch(r"--[\w.]+", flag) and flag not in VALUELESS
        if valued and re.match(r"-[\d.]", token):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined[1:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_negative_values(argv))
    try:
        file_values = load_config_file(args.config) if args.config else {}
        # a flag not given is None, which `resolve` skips
        config = RunConfig.resolve(file_values, {key: getattr(args, key) for key in KEYS})
        artifacts, summary = COMMANDS[args.command][0](config)
        # nothing is written, not even the output directory, unless the
        # whole computation succeeded
        out = Path(config["out"])
        for name, (writer, *payload) in artifacts.items():
            writer(out / name, *payload)
        if not config["quiet"]:
            print(summary)
        return 0
    except (SiteFactorsError, OSError, MemoryError) as exc:
        # numpy's failed allocation is a private MemoryError subclass
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error: {name}: {_one_line(str(exc))}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
