"""Tests for the Config record."""

import pytest

from repro.utils.config import Config


class TestConfigBasics:
    def test_getitem_and_attr(self):
        cfg = Config({"epochs": 3, "lr": 0.1})
        assert cfg["epochs"] == 3
        assert cfg.lr == 0.1

    def test_missing_attr_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            Config({}).nope

    def test_contains_len_iter(self):
        cfg = Config({"a": 1, "b": 2})
        assert "a" in cfg and "c" not in cfg
        assert len(cfg) == 2
        assert sorted(cfg) == ["a", "b"]

    def test_get_default(self):
        assert Config({}).get("missing", 7) == 7

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            Config({1: "x"})


class TestConfigUpdates:
    def test_require_passes(self):
        Config({"a": 1}).require("a")

    def test_require_lists_missing(self):
        with pytest.raises(KeyError, match="b"):
            Config({"a": 1}).require("a", "b")


class TestConfigSerialisation:
    def test_json_roundtrip(self):
        cfg = Config({"x": [1, 2], "y": "z"})
        again = Config.from_json(cfg.to_json())
        assert again.values == cfg.values

    def test_from_mapping_copies(self):
        source = {"k": 1}
        cfg = Config.from_mapping(source)
        source["k"] = 2
        assert cfg["k"] == 1
