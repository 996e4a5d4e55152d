"""Run configuration: one flat key=value file drives every command.

Unknown keys are rejected so typos fail loudly. The single ``seed`` fans
out into named substreams for sampling, initialization, pair mining, and
forest fitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .gnn import ArchConfig
from .sampler import SamplerConfig
from .training import MiningConfig, TrainingConfig

_BOOL_KEYS = {"mining_enabled", "resample_per_epoch"}
_INT_KEYS = {
    "pairs_per_epoch",
    "epochs",
    "seed",
    "fanout",
    "embedding_dim",
    "layers",
    "heads",
    "head_dim",
    "ffn_hidden",
    "hidden_dim",
    "forest_trees",
    "forest_subsample",
}
_FLOAT_KEYS = {
    "margin",
    "hard_fraction",
    "sim_high",
    "sim_low",
    "learning_rate",
    "slope",
    "test_fraction",
}
_STR_KEYS = {"loss_form"}
KNOWN_KEYS = _BOOL_KEYS | _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    training: TrainingConfig = field(default_factory=TrainingConfig)
    fanout: int = 8
    resample_per_epoch: bool = False
    test_fraction: float = 0.2
    embedding_dim: int = 14
    layers: int = 2
    heads: int = 4
    head_dim: int = 16
    ffn_hidden: int = 64
    hidden_dim: int = 64
    slope: float = 0.2
    forest_trees: int = 100
    forest_subsample: int | None = None

    @property
    def seed(self) -> int:
        return self.training.seed

    def sampler(self) -> SamplerConfig:
        return SamplerConfig(fanout=self.fanout, seed=self.seed)

    def arch(self, in_dim: int) -> ArchConfig:
        return ArchConfig(
            in_dim=in_dim,
            embedding_dim=self.embedding_dim,
            layers=self.layers,
            heads=self.heads,
            head_dim=self.head_dim,
            ffn_hidden=self.ffn_hidden,
            hidden_dim=self.hidden_dim,
            slope=self.slope,
        )

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, training=replace(self.training, seed=seed))


def _parse_value(key: str, raw: str) -> bool | int | float | str:
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc
    return raw


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values: dict[str, bool | int | float | str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw.strip())
    return config_from_values(values)


def config_from_values(values: dict) -> RunConfig:
    mining = MiningConfig(
        enabled=bool(values.get("mining_enabled", True)),
        hard_fraction=float(values.get("hard_fraction", 0.5)),
        sim_high=float(values.get("sim_high", 0.5)),
        sim_low=float(values.get("sim_low", -0.5)),
    )
    training = TrainingConfig(
        margin=float(values.get("margin", 1.0)),
        pairs_per_epoch=values.get("pairs_per_epoch"),
        mining=mining,
        epochs=int(values.get("epochs", 200)),
        learning_rate=float(values.get("learning_rate", 1e-3)),
        seed=int(values.get("seed", 0)),
        loss_form=str(values.get("loss_form", "standard")),
    )
    kwargs = {}
    for key in (
        "fanout",
        "resample_per_epoch",
        "test_fraction",
        "embedding_dim",
        "layers",
        "heads",
        "head_dim",
        "ffn_hidden",
        "hidden_dim",
        "slope",
        "forest_trees",
        "forest_subsample",
    ):
        if key in values:
            kwargs[key] = values[key]
    return RunConfig(training=training, **kwargs)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))
