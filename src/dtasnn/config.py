"""Flat ``key = value`` run configuration with a closed schema.

Every key is validated against the schema; unknown keys and malformed or
out-of-range values are errors that name the offending key, and so is a key
set twice in one file. Values given on the command line as ``--key value``
override the file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .data import SynthSpec
from .neuron import LifParams
from .network import NetworkSpec
from .training import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the key."""


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_stages(s: str) -> tuple:
    stages = []
    for part in s.split(","):
        bits = part.strip().split(":")
        if len(bits) != 3:
            raise ValueError(f"stage {part!r} is not channels:blocks:stride")
        stages.append(tuple(int(b) for b in bits))
    return tuple(stages)


@dataclass(frozen=True)
class RunConfig:
    """Union of training, network, and dataset settings for one run."""

    # dataset selection
    dataset: str = "synthetic"
    data_dir: str = ""
    train_samples: int = 512
    test_samples: int = 256
    synth_height: int = 8
    synth_width: int = 8
    rate_on: float = 0.9
    rate_off: float = 0.05
    augment: bool = False
    augment_pad: int = 4
    augment_flip: float = 0.5
    # network
    in_channels: int = 3
    stem_channels: int = 16
    stages: tuple = ((16, 1, 1), (32, 1, 2))
    num_classes: int = 10
    enable_txa: bool = True
    enable_tna: bool = True
    tau: float = 0.5
    v_th: float = 1.0
    alpha: float = 1.0
    reset_detached: bool = False
    # training
    batch_size: int = 64
    epochs: int = 250
    time_steps: int = 4
    lr0: float = 0.1
    lr_min: float = 0.0
    momentum: float = 0.9
    weight_decay: float = 5e-5
    seed: int = 0
    log_every: int = 1
    clip: float = 0.0
    ablate_seeds: int = 3
    out_dir: str = "runs"

    def __post_init__(self):
        if self.dataset not in ("synthetic", "cifar10", "idx"):
            raise ValueError(f"unknown dataset {self.dataset!r} "
                             "(expected synthetic, cifar10, or idx)")
        for name, low in (("train_samples", 0), ("test_samples", 0), ("augment_pad", 0),
                          ("seed", 0), ("log_every", 1), ("ablate_seeds", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # on a dataset read from disk 0 keeps every sample; here it would make none
        if self.dataset == "synthetic" and self.train_samples < 1:
            raise ValueError(f"train_samples must be >= 1 for the synthetic task, "
                             f"got {self.train_samples}")
        if not 0.0 <= self.augment_flip <= 1.0:
            raise ValueError(f"augment_flip must be in [0, 1], got {self.augment_flip}")
        self.train_config()  # TrainConfig checks the optimizer's values
        self.network_spec()  # and NetworkSpec the network's

    def network_spec(self) -> NetworkSpec:
        return NetworkSpec(
            time_steps=self.time_steps,
            in_channels=self.in_channels,
            stem_channels=self.stem_channels,
            stages=self.stages,
            num_classes=self.num_classes,
            dta_enabled=(self.enable_txa, self.enable_tna),
            lif=LifParams(tau=self.tau, v_th=self.v_th, alpha=self.alpha,
                          reset_detached=self.reset_detached),
        )

    def train_config(self, checkpoint_path=None) -> TrainConfig:
        return TrainConfig(
            batch_size=self.batch_size, epochs=self.epochs,
            lr0=self.lr0, momentum=self.momentum,
            weight_decay=self.weight_decay, lr_min=self.lr_min, seed=self.seed,
            clip=self.clip,
            checkpoint_path=checkpoint_path,
        )

    def synth_spec(self, seed_offset: int = 0) -> SynthSpec:
        return SynthSpec(
            classes=self.num_classes, time_steps=self.time_steps,
            channels=self.in_channels, height=self.synth_height,
            width=self.synth_width, rate_on=self.rate_on,
            rate_off=self.rate_off, seed=self.seed + seed_offset,
        )


_PARSERS = {int: int, float: float, str: str, bool: _parse_bool, tuple: _parse_stages}

_FIELD_TYPES = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}


def parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return _PARSERS[_FIELD_TYPES[key]](raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {exc}") from exc


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """RunConfig from ``key = value`` lines plus override strings."""
    values, set_on = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line "
                              f"{set_on[key]}")
        set_on[key] = lineno
        values[key] = parse_value(key, raw.strip())
    for key, raw in (overrides or {}).items():
        values[key] = parse_value(key, raw)
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, overrides)
