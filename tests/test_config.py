"""Run configuration files: accepted keys, typed values, rejection messages."""

from __future__ import annotations

import json

import pytest

from ranrec.cli import main
from ranrec.config import ConfigError, RunConfig, load_config, parse_config_text
from ranrec.synth import SynthSpec, generate


class TestParseConfigText:
    def test_known_keys_parse(self):
        config = parse_config_text(
            "# comment\n\nepochs = 7\nmining_enabled = off\nmargin = 2.5\nloss_form = printed\n"
        )
        assert config.training.epochs == 7
        assert config.training.mining.enabled is False
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
            ("mining_enabled = sometimes\n", "expected a boolean"),
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
