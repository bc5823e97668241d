"""Run configuration: flat dotted keys, JSON file, CLI flags win.

Every key in KEY_TYPES can appear in the config file and as a `--<key>`
command-line flag; precedence is defaults < file < flags.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .composite import TypologyConfig
from .datamodel import IngestionConfig
from .engine import EngineConfig
from .errors import AlphaRangeError, SchemaError
from .reports import grid_label
from .synth import SynthConfig


def _parse_bool(text):
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise SchemaError(f"expected a boolean, got {text!r}")


def _parse_floats(text):
    if isinstance(text, (list, tuple)):
        return tuple(float(x) for x in text)
    try:
        return tuple(float(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise SchemaError(f"expected comma-separated numbers, got {text!r}") from exc


KEY_TYPES = {
    "input": str,
    "out": str,
    "quiet": _parse_bool,
    "data.missing_policy": str,
    "engine.epsilon": float,
    "engine.max_iterations": int,
    "engine.kaiser_threshold": float,
    "engine.ridge_fallback": _parse_bool,
    "engine.varimax_tolerance": float,
    "composite.definition": str,
    "composite.binary": _parse_bool,
    "composite.balance_band": float,
    "composite.bias_band": float,
    "score.alpha": float,
    "score.top_k": int,
    "sweep.alpha_start": float,
    "sweep.alpha_stop": float,
    "sweep.alpha_step": float,
    "sweep.thetas": _parse_floats,
    "sweep.top_k": int,
    "synth.seed": int,
    "synth.regions": int,
    "synth.attributes": int,
    "synth.factors": int,
    "synth.loading": float,
    "synth.noise_std": float,
}

# The settings classes own their defaults; the other keys have theirs here.
DEFAULTS = {
    "input": "",
    "out": "out",
    "quiet": False,
    "data.missing_policy": IngestionConfig.missing_policy,
    "engine.epsilon": EngineConfig.epsilon,
    "engine.max_iterations": EngineConfig.max_iterations,
    "engine.kaiser_threshold": EngineConfig.kaiser_threshold,
    "engine.ridge_fallback": EngineConfig.ridge_fallback,
    "engine.varimax_tolerance": EngineConfig.varimax_tolerance,
    "composite.definition": "",
    "composite.binary": False,
    "composite.balance_band": TypologyConfig.balance_band,
    "composite.bias_band": TypologyConfig.bias_band,
    "score.alpha": 0.5,
    "score.top_k": 10,
    "sweep.alpha_start": 0.0,
    "sweep.alpha_stop": 1.0,
    "sweep.alpha_step": 0.2,
    "sweep.thetas": (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
    "sweep.top_k": 30,
    "synth.seed": SynthConfig.seed,
    "synth.regions": SynthConfig.n_regions,
    "synth.attributes": SynthConfig.n_attributes,
    "synth.factors": SynthConfig.n_factors,
    "synth.loading": SynthConfig.loading,
    "synth.noise_std": SynthConfig.noise_std,
}


def load_config_file(path) -> dict:
    """A JSON object of dotted keys; unknown keys are rejected."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(KEY_TYPES))
    if unknown:
        raise SchemaError(f"{path}: unknown config keys {unknown}")
    return raw


def _labels_collide(values) -> bool:
    labels = [grid_label(value) for value in values]
    return len(set(labels)) < len(labels)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings keyed by the flat dotted names."""

    values: dict = field(default_factory=dict)

    @classmethod
    def resolve(cls, file_values: dict | None = None, overrides: dict | None = None):
        merged = dict(DEFAULTS)
        for source in (file_values or {}, overrides or {}):
            for key, value in source.items():
                if key not in KEY_TYPES:
                    raise SchemaError(f"unknown config key {key!r}")
                if value is None:
                    continue
                try:
                    merged[key] = KEY_TYPES[key](value)
                except (TypeError, ValueError) as exc:
                    raise SchemaError(f"bad value for {key!r}: {value!r}") from exc
        config = cls(values=merged)
        config.validate()
        return config

    def __getitem__(self, key):
        return self.values[key]

    def ingestion(self) -> IngestionConfig:
        return IngestionConfig(missing_policy=self["data.missing_policy"])

    def engine(self) -> EngineConfig:
        return EngineConfig(
            epsilon=self["engine.epsilon"],
            max_iterations=self["engine.max_iterations"],
            kaiser_threshold=self["engine.kaiser_threshold"],
            ridge_fallback=self["engine.ridge_fallback"],
            varimax_tolerance=self["engine.varimax_tolerance"],
        )

    def typology(self) -> TypologyConfig:
        return TypologyConfig(
            balance_band=self["composite.balance_band"],
            bias_band=self["composite.bias_band"],
        )

    def synth(self) -> SynthConfig:
        return SynthConfig(
            seed=self["synth.seed"],
            n_attributes=self["synth.attributes"],
            n_regions=self["synth.regions"],
            n_factors=self["synth.factors"],
            loading=self["synth.loading"],
            noise_std=self["synth.noise_std"],
        )

    def validate(self) -> None:
        # the settings classes check their own keys, for every subcommand
        self.ingestion()
        self.engine()
        self.typology()
        self.synth()
        start = self["sweep.alpha_start"]
        stop = self["sweep.alpha_stop"]
        step = self["sweep.alpha_step"]
        if not 0 < step < math.inf:
            raise AlphaRangeError(
                f"sweep.alpha_step must be positive and finite, got {step}"
            )
        if not (0.0 <= start <= stop <= 1.0):
            raise AlphaRangeError(
                f"alpha grid [{start}, {stop}] must sit inside [0, 1]"
            )
        # each alpha and theta names a sweep column or file by its 6-decimal
        # label; [0, 1] holds 1_000_001 labels, so a longer grid must repeat
        # one and is refused before it is built
        if (stop - start) / step >= 1e6 + 1 or _labels_collide(self.alphas()):
            raise SchemaError(
                f"sweep.alpha_step {step} puts alphas closer than their "
                "6-decimal labels can tell apart"
            )
        thetas = self["sweep.thetas"]
        if not thetas:
            raise SchemaError("sweep.thetas must not be empty")
        if not all(map(math.isfinite, thetas)):
            raise SchemaError(f"sweep.thetas must be finite, got {thetas}")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise SchemaError(f"sweep.thetas must be strictly ascending, got {thetas}")
        if _labels_collide(thetas):
            raise SchemaError(
                f"sweep.thetas {thetas} holds values that share a 6-decimal label"
            )
        # a depth above the region count is clipped to it when the lists are built
        for key in ("score.top_k", "sweep.top_k"):
            if self[key] < 1:
                raise SchemaError(f"{key} must be at least 1, got {self[key]}")
        if not 0.0 <= self["score.alpha"] <= 1.0:
            raise AlphaRangeError(
                f"score.alpha must be within [0, 1], got {self['score.alpha']}"
            )

    def alphas(self) -> tuple[float, ...]:
        """The alpha grid, rounded so accumulated steps print cleanly."""
        start = self["sweep.alpha_start"]
        stop = self["sweep.alpha_stop"]
        step = self["sweep.alpha_step"]
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(round(start + i * step, 12) for i in range(count))

    def snapshot(self) -> dict:
        """JSON-ready copy of every resolved key (for the run manifest)."""
        out = {}
        for key in sorted(self.values):
            value = self.values[key]
            out[key] = list(value) if isinstance(value, tuple) else value
        return out
