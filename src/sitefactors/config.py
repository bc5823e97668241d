"""Run configuration: flat dotted keys, JSON file, CLI flags win.

Every key in KEYS can appear in the config file and as a `--<key>`
command-line flag; precedence is defaults < file < flags. A file value is
read by the same rule as the text of its flag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

from .composite import TypologyConfig
from .datamodel import IngestionConfig, read_number
from .engine import EngineConfig
from .errors import AlphaRangeError, SchemaError
from .reports import grid_label
from .synth import SynthConfig


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise SchemaError(f"expected a boolean, got {text!r}")


def _parse_floats(text):
    # each element of a JSON list is read like the text between two commas
    parts = text if isinstance(text, (list, tuple)) else text.split(",")
    try:
        return tuple(read_number(str(part)) for part in parts if str(part).strip())
    except ValueError as exc:
        raise SchemaError(f"expected comma-separated numbers, got {text!r}") from exc


class Owned(NamedTuple):
    """A key owned by a settings class, which keeps its default and checks."""

    owner: type
    name: str


# A key a settings class owns names its field; any other key gives its own
# default. The owners are built in the order they first appear.
KEYS = {
    "input": "",
    "out": "out",
    "quiet": False,
    "data.missing_policy": Owned(IngestionConfig, "missing_policy"),
    "engine.epsilon": Owned(EngineConfig, "epsilon"),
    "engine.max_iterations": Owned(EngineConfig, "max_iterations"),
    "engine.kaiser_threshold": Owned(EngineConfig, "kaiser_threshold"),
    "engine.ridge_fallback": Owned(EngineConfig, "ridge_fallback"),
    "engine.varimax_tolerance": Owned(EngineConfig, "varimax_tolerance"),
    "composite.definition": "",
    "composite.binary": False,
    "composite.balance_band": Owned(TypologyConfig, "balance_band"),
    "composite.bias_band": Owned(TypologyConfig, "bias_band"),
    "score.alpha": 0.5,
    "score.top_k": 10,
    "sweep.alpha_start": 0.0,
    "sweep.alpha_stop": 1.0,
    "sweep.alpha_step": 0.2,
    "sweep.thetas": (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
    "sweep.top_k": 30,
    "synth.seed": Owned(SynthConfig, "seed"),
    "synth.regions": Owned(SynthConfig, "n_regions"),
    "synth.attributes": Owned(SynthConfig, "n_attributes"),
    "synth.factors": Owned(SynthConfig, "n_factors"),
    "synth.loading": Owned(SynthConfig, "loading"),
    "synth.noise_std": Owned(SynthConfig, "noise_std"),
}

OWNED = {key: entry for key, entry in KEYS.items() if isinstance(entry, Owned)}

DEFAULTS = {
    key: getattr(entry.owner, entry.name) if key in OWNED else entry
    for key, entry in KEYS.items()
}


def _parser(default):
    """A key's parser follows from the type of its default."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return _parse_floats
    return str if isinstance(default, str) else partial(read_number, kind=type(default))


def load_config_file(path) -> dict:
    """A JSON object of dotted keys; unknown keys are rejected."""
    path = Path(path)
    # besides malformed JSON, ValueError covers bytes that are not UTF-8 and
    # integers longer than Python's int-string digit limit
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(KEYS))
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
                if key not in KEYS:
                    raise SchemaError(f"unknown config key {key!r}")
                if value is None:
                    continue
                # a JSON value is read as the flag text it stands for, so
                # 2.5 is no int and true no number; a list stands for the
                # comma-separated text of a tuple key only
                listed = isinstance(value, (list, tuple))
                takes_list = isinstance(DEFAULTS[key], tuple)
                if isinstance(value, dict) or (listed and not takes_list):
                    raise SchemaError(f"bad value for {key!r}: {value!r}")
                text = value if listed else str(value)
                try:
                    merged[key] = _parser(DEFAULTS[key])(text)
                except (TypeError, ValueError) as exc:
                    raise SchemaError(f"bad value for {key!r}: {value!r}") from exc
        config = cls(values=merged)
        config.validate()
        return config

    def __getitem__(self, key):
        return self.values[key]

    def settings(self, cls):
        """The `cls` settings object, built from the keys it owns."""
        return cls(
            **{entry.name: self[key] for key, entry in OWNED.items() if entry.owner is cls}
        )

    def validate(self) -> None:
        # the settings classes check their own keys, for every subcommand
        for cls in dict.fromkeys(entry.owner for entry in OWNED.values()):
            self.settings(cls)
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
        """The alpha grid, rounded so accumulated steps print cleanly.

        Each alpha is clipped into [start, stop]: the last accumulated step can
        pass the stop by a rounding error, and rounding a start of more than
        12 decimals can fall below it.
        """
        start = self["sweep.alpha_start"]
        stop = self["sweep.alpha_stop"]
        step = self["sweep.alpha_step"]
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(
            min(max(round(start + i * step, 12), start), stop) for i in range(count)
        )

    def snapshot(self) -> dict:
        """JSON-ready copy of every resolved key (for the run manifest)."""
        out = {}
        for key in sorted(self.values):
            value = self.values[key]
            out[key] = list(value) if isinstance(value, tuple) else value
        return out
