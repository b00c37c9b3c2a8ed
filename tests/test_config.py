"""Closed-schema config parsing: validation, overrides, derived specs."""

import pytest

from dtasnn.config import ConfigError, RunConfig, parse_config


class TestParsing:
    def test_defaults_from_empty_text(self):
        assert parse_config("") == RunConfig()

    def test_table_defaults(self):
        cfg = RunConfig()
        assert cfg.batch_size == 64
        assert cfg.epochs == 250
        assert cfg.lr0 == 0.1
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-5
        assert cfg.lr_min == 0.0

    def test_basic_file(self):
        cfg = parse_config("""
            # comment line
            batch_size = 32

            lr0 = 0.05
            enable_txa = false
            stages = 8:2:1,16:1:2
        """)
        assert cfg.batch_size == 32
        assert cfg.lr0 == 0.05
        assert cfg.enable_txa is False
        assert cfg.stages == ((8, 2, 1), (16, 1, 2))

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config("learning_rate = 0.1")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config("batch_size = many")

    def test_bad_line_shape(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("batch_size 32")

    def test_bad_stage_syntax(self):
        with pytest.raises(ConfigError, match="stages"):
            parse_config("stages = 16:1")

    def test_key_set_twice_names_key_and_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 3: key 'epochs' is already set on line 1"):
            parse_config("epochs = 3\nlr0 = 0.05\nepochs = 30")

    @pytest.mark.parametrize("raw,value", [("true", True), ("1", True),
                                           ("false", False), ("off", False)])
    def test_bool_forms(self, raw, value):
        assert parse_config(f"augment = {raw}").augment is value


def test_shipped_config_parses():
    import pathlib
    text = (pathlib.Path(__file__).parent.parent / "configs" / "synthetic.cfg").read_text()
    cfg = parse_config(text)
    assert cfg.dataset == "synthetic"
    assert cfg.time_steps == 6
    assert cfg.stages == ((8, 1, 1), (16, 1, 2))


class TestOverrides:
    def test_override_wins_over_file(self):
        cfg = parse_config("batch_size = 32", overrides={"batch_size": "8"})
        assert cfg.batch_size == 8

    def test_override_validated(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config("", overrides={"nope": "1"})


class TestDerivedSpecs:
    def test_network_spec_projection(self):
        cfg = parse_config("time_steps = 6\nstem_channels = 8\nenable_txa = false")
        spec = cfg.network_spec()
        assert spec.time_steps == 6
        assert spec.stem_channels == 8
        assert spec.dta_enabled == (False, True)
        assert spec.lif.tau == 0.5
        assert spec.lif.v_th == 1.0

    def test_synth_spec_projection(self):
        cfg = parse_config("num_classes = 3\nin_channels = 2\ntime_steps = 6\nseed = 9")
        ss = cfg.synth_spec(seed_offset=1)
        assert ss.classes == 3
        assert ss.channels == 2
        assert ss.time_steps == 6
        assert ss.seed == 10

    def test_train_config_projection(self):
        cfg = parse_config("lr0 = 0.2\nepochs = 3\nclip = 1.5")
        tc = cfg.train_config(checkpoint_path="x.ckpt")
        assert tc.lr0 == 0.2
        assert tc.epochs == 3
        assert tc.clip == 1.5
        assert tc.checkpoint_path == "x.ckpt"
