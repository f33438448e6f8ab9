"""Config defaults, file parsing, provenance hashing."""

import pytest

from jobrec.config import PipelineConfig, load_config, parse_config_file


class TestDefaults:
    def test_load_without_file(self):
        cfg = load_config()
        assert cfg.seed == 42
        assert cfg.candidate_cap == 60
        assert cfg.sampling_mode == "paper"
        assert cfg.recall_mode == "corrected"

    def test_train_config_mirrors_fields(self):
        cfg = PipelineConfig(eta=0.3, num_round=7, seed=5)
        tc = cfg.train_config()
        assert tc.eta == 0.3
        assert tc.num_round == 7


class TestConfigFile:
    def test_key_value_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\ncandidate_cap=45\n\n# a comment\neta=0.2  # inline\n")
        cfg = load_config(path)
        assert cfg.seed == 9
        assert cfg.candidate_cap == 45
        assert cfg.eta == 0.2

    def test_none_literal(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("early_stopping_rounds=none\n")
        assert load_config(path).early_stopping_rounds is None

    def test_string_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sampling_mode=extended\n")
        assert load_config(path).sampling_mode == "extended"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate=0.1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(path)

    def test_unparsable_float_names_line_and_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=9\neta=abc\n")
        with pytest.raises(ValueError, match=r"run.cfg:2: config key 'eta' expects float, got 'abc'"):
            parse_config_file(path)

    def test_int_field_rejects_float(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# seed\nseed=1.5\n")
        with pytest.raises(ValueError, match=r"run.cfg:2: config key 'seed' expects int, got '1.5'"):
            parse_config_file(path)

    def test_none_only_where_the_field_allows_it(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("candidate_cap=none\n")
        with pytest.raises(ValueError, match=r"run.cfg:1: config key 'candidate_cap' expects int, "
                                             r"got 'none'"):
            parse_config_file(path)

    def test_optional_int_rejects_float(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("early_stopping_rounds=2.0\n")
        with pytest.raises(ValueError, match=r"run.cfg:1: config key 'early_stopping_rounds' "
                                             r"expects int \| None, got '2.0'"):
            parse_config_file(path)

    def test_float_field_takes_an_integer_literal_as_float(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("min_child_weight=5\n")
        cfg = load_config(path)
        assert cfg.min_child_weight == 5.0 and isinstance(cfg.min_child_weight, float)
        assert cfg.config_hash() == PipelineConfig().config_hash()

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=9\neta=0.2\n")
        cfg = load_config(path, seed=100)
        assert cfg.seed == 100
        assert cfg.eta == 0.2

    def test_none_override_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=9\n")
        assert load_config(path, seed=None).seed == 9


class TestProvenance:
    def test_hash_stable(self):
        assert PipelineConfig().config_hash() == PipelineConfig().config_hash()

    def test_hash_tracks_semantic_knobs(self):
        base = PipelineConfig()
        assert base.config_hash() != PipelineConfig(seed=1).config_hash()
        assert base.config_hash() != PipelineConfig(eta=0.5).config_hash()

    def test_hash_pinned(self):
        # every field feeds the hash, so a new field shows up here as a
        # provenance change
        assert PipelineConfig().config_hash() == "70620bdb561a"
        assert PipelineConfig(seed=1).config_hash() == "ef25b12978e4"
        assert PipelineConfig(eta=0.5).config_hash() == "5223d14e0300"

    def test_provenance_dict(self):
        cfg = PipelineConfig(seed=3)
        prov = cfg.provenance("train")
        assert prov == {"stage": "train", "config": cfg.config_hash(), "seed": 3}

