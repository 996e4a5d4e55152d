"""Run configuration: one flat key=value file drives every command.

Each key is a field of the settings dataclass that owns it, which declares
its type, default and range check; nothing here restates them. Unknown keys
are rejected so typos fail loudly. The single ``seed`` fans out into named
substreams for sampling, initialization and pair mining.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from .gnn import ArchConfig
from .graph import SettingsError, require, setting_fields, settings_from
from .sampler import SamplerConfig
from .training import MiningConfig, TrainingConfig

ConfigError = SettingsError  # the name callers of this module catch


@dataclass(frozen=True)
class RunConfig:
    training: TrainingConfig = field(default_factory=TrainingConfig)
    fanout: int = 8
    resample_per_epoch: bool = False
    test_fraction: float = 0.2
    arch_values: Mapping[str, Any] = field(default_factory=dict)  # the ArchConfig keys the file set

    def __post_init__(self) -> None:
        require(self.fanout >= 1, "fanout", f"must be >= 1, got {self.fanout}")
        frac = self.test_fraction
        require(0.0 < frac < 1.0, "test_fraction", f"must be in (0, 1), got {frac}")

    @property
    def seed(self) -> int:
        return self.training.seed

    def sampler(self) -> SamplerConfig:
        return SamplerConfig(fanout=self.fanout, seed=self.seed)

    def arch(self, in_dim: int) -> ArchConfig:
        return ArchConfig(in_dim=in_dim, **self.arch_values)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, training=replace(self.training, seed=seed))


# Config key -> the settings class that owns it. ArchConfig's in_dim comes
# from the network's schema, not from the file.
OWNERS: dict[str, type] = {
    key: cls for cls in (TrainingConfig, MiningConfig, ArchConfig, RunConfig)
    for key in setting_fields(cls) if key != "in_dim"
}


def _parse_value(kind: str, raw: str) -> bool | int | float | str:
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind == "str":
        return raw
    return float(raw) if kind == "float" else int(raw)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values: dict[str, bool | int | float | str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in OWNERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}", key)
        try:
            values[key] = _parse_value(setting_fields(OWNERS[key])[key], raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: key {key!r}: {exc}", key) from None
        lines[key] = lineno
    return config_from_values(values, source, lines)


def config_from_values(
    values: Mapping[str, Any], source: str = "<config>", lines: Mapping[str, int] | None = None
) -> RunConfig:
    """Check typed values and build every settings object from them once."""

    def read(cls: type, **records: Any):
        # Keys no class owns go to RunConfig, which rejects them as unknown.
        own = {k: v for k, v in values.items() if OWNERS.get(k, RunConfig) is cls}
        return settings_from(cls, own, source, lines, **records)

    training = read(TrainingConfig, mining=read(MiningConfig))
    read(ArchConfig, in_dim=1)  # range-checks the arch keys before any network is read
    arch_values = {k: v for k, v in values.items() if OWNERS.get(k) is ArchConfig}
    return read(RunConfig, training=training, arch_values=arch_values)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))
