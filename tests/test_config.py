"""Run configuration files: accepted keys, typed values, rejection messages."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from ranrec.cli import main
from ranrec.config import (
    OWNERS,
    ConfigError,
    RunConfig,
    config_from_values,
    load_config,
    parse_config_text,
)
from ranrec.gnn import ArchConfig
from ranrec.graph import setting_fields
from ranrec.synth import SynthSpec, generate
from ranrec.training import MiningConfig, TrainingConfig

README = Path(__file__).resolve().parents[1] / "README.md"

ACCEPTED_KEYS = [
    "margin", "pairs_per_epoch", "epochs", "learning_rate", "seed", "loss_form",
    "hard_fraction", "sim_high", "sim_low",
    "fanout", "resample_per_epoch", "test_fraction",
    "embedding_dim", "layers", "heads", "head_dim", "ffn_hidden", "hidden_dim", "slope",
]


class TestParseConfigText:
    def test_known_keys_parse(self):
        config = parse_config_text(
            "# comment\n\nepochs = 7\nhard_fraction = 0\nmargin = 2.5\nloss_form = printed\n"
        )
        assert config.training.epochs == 7
        assert config.training.mining.hard_fraction == 0.0
        assert config.training.margin == 2.5
        assert config.training.loss_form == "printed"

    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == RunConfig()

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"^run\.cfg:2: unknown key 'epoch'$"):
            parse_config_text("seed = 1\nepoch = 3\n", source="run.cfg")

    @pytest.mark.parametrize("line", ["mode = majority", "k = 5", "threshold = 0.9"])
    def test_command_option_keys_rejected(self, line):
        # --mode, --k and --threshold are command options, not run settings.
        key = line.split()[0]
        with pytest.raises(ConfigError, match=rf"^run\.cfg:3: unknown key '{key}'$"):
            parse_config_text(f"seed = 1\n# {line}\n{line}\n", source="run.cfg")

    @pytest.mark.parametrize("key", ["mining_enabled", "forest_trees", "forest_subsample"])
    def test_removed_keys_rejected(self, key):
        # hard_fraction = 0 turns mining off; the forests of embed and detect use fixed defaults.
        with pytest.raises(ConfigError, match=rf"^run\.cfg:2: unknown key '{key}'$"):
            parse_config_text(f"seed = 1\n{key} = 1\n", source="run.cfg")

    def test_accepted_keys(self):
        assert sorted(OWNERS) == sorted(ACCEPTED_KEYS)

    def test_line_without_equals_names_line(self):
        with pytest.raises(ConfigError, match=r"^run\.cfg:1: expected 'key = value'$"):
            parse_config_text("epochs 3\n", source="run.cfg")

    @pytest.mark.parametrize("raw", ["maybe", "2", ""])
    def test_bad_boolean_rejected(self, raw):
        with pytest.raises(ConfigError, match="'resample_per_epoch': expected a boolean"):
            parse_config_text(f"resample_per_epoch = {raw}\n")

    @pytest.mark.parametrize("raw", ["3.5", "ten", "1e3"])
    def test_bad_integer_rejected(self, raw):
        with pytest.raises(ConfigError, match="key 'epochs': invalid literal for int"):
            parse_config_text(f"epochs = {raw}\n")

    def test_trailing_comment_is_part_of_value(self):
        with pytest.raises(ConfigError, match="key 'margin': could not convert"):
            parse_config_text("margin = 1.0   # contrastive margin M\n")


@pytest.fixture(scope="module")
def network(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "network.json"
    graph, _ = generate(SynthSpec(sites=4))
    path.write_text(json.dumps(graph.to_json()), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_file_source_in_message(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("threshold = 0.9\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{path}:1: unknown key 'threshold'$"):
            load_config(path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("threshold = 0.9\n", "run.cfg:1: unknown key 'threshold'"),
            ("epochs = 2\nmode = closest\n", "run.cfg:2: unknown key 'mode'"),
            ("resample_per_epoch = sometimes\n", "expected a boolean"),
            ("fanout = many\n", "key 'fanout'"),
        ],
    )
    def test_train_exits_1(self, network, tmp_path, capsys, text, message):
        config = tmp_path / "run.cfg"
        config.write_text(text, encoding="utf-8")
        argv = ["train", str(network), "--config", str(config), "--out", str(tmp_path / "ckpt.json")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ckpt.json").exists()


class TestRoundTrip:
    def test_synth_spec(self):
        spec = SynthSpec(sites=9, lte_ratio=0, config_noise=0.1, misconfig_rate=0.5, seed=-3)
        assert SynthSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec

    def test_arch(self):
        arch = ArchConfig(in_dim=5, embedding_dim=3, layers=1, heads=2, slope=0.05)
        assert ArchConfig.from_json(json.loads(json.dumps(arch.to_json()))) == arch

    def test_run_config(self):
        arch_values = {
            "embedding_dim": 4, "layers": 3, "heads": 2, "head_dim": 5, "ffn_hidden": 7,
            "hidden_dim": 6, "slope": 0.1,
        }
        mining = MiningConfig(hard_fraction=0.25, sim_high=0.75, sim_low=-0.25)
        training = TrainingConfig(
            margin=2.5, pairs_per_epoch=40, mining=mining, epochs=3, learning_rate=0.01,
            seed=9, loss_form="printed",
        )
        expected = RunConfig(
            training=training, fanout=3, resample_per_epoch=True, test_fraction=0.5,
            arch_values=arch_values,
        )
        values = {
            **{k: getattr(training, k) for k in setting_fields(TrainingConfig)},
            **{k: getattr(mining, k) for k in setting_fields(MiningConfig)},
            **{k: getattr(expected, k) for k in setting_fields(RunConfig)},
            **arch_values,
        }
        assert sorted(values) == sorted(ACCEPTED_KEYS)
        text = "".join(f"{key} = {value}\n" for key, value in values.items())
        assert parse_config_text(text) == expected
        assert config_from_values(values) == expected


def _readme_config_block() -> dict[str, str]:
    text = README.read_text(encoding="utf-8")
    block = text.split("### Run configuration", 1)[1].split("```", 2)[1]
    pairs = (line.split("#", 1)[0].partition("=") for line in block.strip().splitlines())
    return {key.strip(): value.strip() for key, _, value in pairs}


def test_readme_lists_every_key_with_its_default():
    documented = _readme_config_block()
    assert sorted(documented) == sorted(ACCEPTED_KEYS)
    config = parse_config_text("".join(f"{k} = {v}\n" for k, v in documented.items() if v))
    assert config.training == TrainingConfig()
    assert config.arch(in_dim=1) == ArchConfig(in_dim=1)
    assert dataclasses.replace(config, arch_values={}) == RunConfig()
    for key in (k for k, v in documented.items() if not v):
        assert {f.name: f.default for f in dataclasses.fields(OWNERS[key])}[key] is None
