"""Command-line front end: describe / fit / score / sweep / synth.

Exit codes are a stable contract: 0 on success, 2 on an I/O error, and
otherwise the `exit_code` of the package error raised (see `errors`).
Non-convergence is not an error; it lands in the manifest and on stderr as
a warning.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .composite import (
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
from .engine import EngineConfig, dominant_attributes, factor_scores, fit_factor_model
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
# left out of the manifest
LOCATIONS = ("input", "out", "quiet")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sitefactors",
        description="Latent-factor site scoring: describe, fit, score, sweep, synth.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "describe": "write per-attribute descriptive statistics",
        "fit": "extract, rotate and weight the latent factors",
        "score": "write per-region composite scores at a given alpha",
        "sweep": "run the (alpha, theta) sensitivity sweep",
        "synth": "generate a synthetic dataset with a planted structure",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file of dotted keys")
        cmd.add_argument("--input", help="input CSV path")
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--quiet", action="store_true", default=None)
        if name == "score":
            cmd.add_argument("--alpha", help="suitability weight in [0, 1]")
        if name == "synth":
            cmd.add_argument("--seed", help="generator seed")
        for key in KEYS:
            if key not in LOCATIONS:
                cmd.add_argument(f"--{key}", dest=key, help=argparse.SUPPRESS)
    return parser


def _resolve_config(args) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    # a flag not given is None, which `resolve` skips
    overrides = {key: getattr(args, key, None) for key in KEYS}
    if getattr(args, "alpha", None) is not None:
        overrides["score.alpha"] = args.alpha
    if getattr(args, "seed", None) is not None:
        overrides["synth.seed"] = args.seed
    return RunConfig.resolve(file_values, overrides)


def _warn(messages) -> None:
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)


def _input_path(config: RunConfig) -> Path:
    path = config["input"]
    if not path:
        raise ParseError("no input file given (set --input or the 'input' key)")
    return Path(path)


def _load(config: RunConfig):
    """The input table, and its provenance log if a cell was handled."""
    table = load_table(_input_path(config), config.settings(IngestionConfig))
    # a quoted id may hold a line break: stderr keeps one line per warning
    _warn(
        "missing value handled: " + line.replace("\r", "\\r").replace("\n", "\\n")
        for line in table.provenance
    )
    artifacts = {"provenance.log": (write_provenance, table.provenance)}
    return table, artifacts if table.provenance else {}


def _definition(config: RunConfig, n_factors: int):
    path = config["composite.definition"]
    definition = load_definition(path) if path else default_definition(n_factors)
    if config["composite.binary"]:
        definition = definition.as_binary()
    return definition


def _fit(config: RunConfig):
    """Shared fit stage: table -> standardized matrix -> canonical model."""
    table, artifacts = _load(config)
    matrix = standardize(table)
    model = fit_factor_model(matrix, config.settings(EngineConfig))
    dominant = dominant_attributes(model.rotated_loadings)
    warnings = list(model.warnings) + list(dominant.warnings)
    _warn(warnings)
    manifest = _manifest(config, table, model, warnings)
    artifacts["manifest.json"] = (write_manifest, manifest)
    return table, matrix, model, dominant, artifacts


def _manifest(config: RunConfig, table, model, warnings) -> dict:
    # the digest pins the input content, so reruns into any directory of the
    # same data and settings produce byte-identical artifacts
    snapshot = {
        key: value for key, value in config.snapshot().items() if key not in LOCATIONS
    }
    return {
        "config": snapshot,
        "input_digest": table.digest,
        "tool_version": __version__,
        "converged": model.converged,
        "iterations_used": model.iterations_used,
        "n_factors": model.n_factors,
        "warnings": list(warnings),
    }


# Each subcommand only computes: it returns its artifacts, a dict of file
# name -> (writer, *args), and its summary line; `main` writes them.


def cmd_describe(config: RunConfig):
    table, artifacts = _load(config)
    stats = describe(table)
    _warn(stats.warnings)
    artifacts["stats.csv"] = (write_stats_csv, stats)
    return artifacts, f"N={table.n_attributes} R={table.n_regions}"


def cmd_fit(config: RunConfig):
    table, _, model, dominant, artifacts = _fit(config)
    artifacts["loadings.csv"] = (write_loadings_csv, model, dominant)
    artifacts["eigenvalues.csv"] = (write_eigenvalues_csv, model)
    artifacts["weights.csv"] = (write_weights_csv, model)
    summary = (
        f"N={table.n_attributes} R={table.n_regions} M={model.n_factors} "
        f"converged={model.converged} iterations={model.iterations_used}"
    )
    return artifacts, summary


def cmd_score(config: RunConfig):
    _, matrix, model, _, artifacts = _fit(config)
    definition = _definition(config, model.n_factors)
    scores = factor_scores(model.scoring_weights, matrix)
    alpha = config["score.alpha"]
    regions = score_regions(scores, definition, alpha, config.settings(TypologyConfig))
    artifacts["scores.csv"] = (write_scores_csv, regions)
    k = min(config["score.top_k"], regions.n_regions)
    for key in ("suitability", "attractiveness"):
        ranking = top_k(regions.region_ids, getattr(regions, key), k)
        artifacts[f"top_{key}.csv"] = (write_top_csv, ranking, key)
    return artifacts, f"scored {regions.n_regions} regions at alpha={alpha:g}"


def cmd_sweep(config: RunConfig):
    _, matrix, model, _, artifacts = _fit(config)
    definition = _definition(config, model.n_factors)
    scores = factor_scores(model.scoring_weights, matrix)
    composites = composite_scores(scores, definition)
    k = min(config["sweep.top_k"], len(composites.region_ids))
    grid = sweep(composites, config.alphas(), config["sweep.thetas"], k)
    artifacts["sweep_wide.csv"] = (write_sweep_wide_csv, grid)
    artifacts["sweep_long.csv"] = (write_sweep_long_csv, grid)
    for alpha, ranking in zip(grid.alphas, grid.rankings):
        name = f"top_regions_alpha_{grid_label(alpha)}.csv"
        artifacts[name] = (write_top_csv, ranking, "v_score")
    summary = (
        f"sweep grid {len(grid.thetas)}x{len(grid.alphas)} over "
        f"{grid.n_regions} regions"
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
    "describe": cmd_describe,
    "fit": cmd_fit,
    "score": cmd_score,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        artifacts, summary = COMMANDS[args.command](config)
        # nothing is written, not even the output directory, unless the
        # whole computation succeeded
        out = Path(config["out"])
        for name, (writer, *payload) in artifacts.items():
            writer(out / name, *payload)
        if not config["quiet"]:
            print(summary)
        return 0
    except (SiteFactorsError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
