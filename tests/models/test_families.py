"""Tests for the three model families' certification semantics."""

import numpy as np
import pytest

from repro.models.base import ModelFamily
from repro.models.dynamic_dnn import DynamicDNN
from repro.models.fluid_dydnn import FluidDyDNN
from repro.models.static_dnn import StaticDNN
from repro.models.zoo import build_model
from repro.slimmable.spec import paper_width_spec
from repro.utils.rng import make_rng


class TestCertifications:
    def test_static(self):
        model = build_model("static", rng=make_rng(0))
        assert model.certified_standalone == ()
        assert model.certified_combined == ("lower100",)

    def test_dynamic(self):
        model = build_model("dynamic", rng=make_rng(0))
        assert model.certified_standalone == ("lower25", "lower50", "lower75", "lower100")
        assert "upper50" not in model.certified_standalone

    def test_fluid(self):
        model = build_model("fluid", rng=make_rng(0))
        assert "upper25" in model.certified_standalone
        assert "upper50" in model.certified_standalone
        assert set(model.certified_combined) == {"lower25", "lower50", "lower75", "lower100"}

    def test_is_certified_helpers(self):
        model = build_model("fluid", rng=make_rng(0))
        assert model.is_standalone_certified("upper50")
        assert not build_model("static", rng=make_rng(0)).is_standalone_certified("lower50")

    def test_fluid_independent_pair(self):
        model = build_model("fluid", rng=make_rng(0))
        assert model.independent_pair() == ("lower50", "upper50")


class TestBuildModel:
    def test_families(self):
        for family, cls in [("static", StaticDNN), ("dynamic", DynamicDNN), ("fluid", FluidDyDNN)]:
            model = build_model(family, rng=make_rng(1))
            assert isinstance(model, cls)
            assert model.family_name == family

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_model("quantum", rng=make_rng(0))

    def test_rng_required(self):
        with pytest.raises(TypeError):
            build_model("fluid", rng=7)

    def test_custom_width_spec(self, small_spec):
        model = build_model("fluid", small_spec, rng=make_rng(0))
        assert model.width_spec.max_width == 8


class TestEvaluation:
    def test_evaluate_matches_manual(self, trained_models, tiny_data):
        _, test = tiny_data
        model = trained_models["fluid"]
        view = model.view("lower50")
        view.train(False)
        logits = view(test.images)
        manual = float((logits.argmax(axis=1) == test.labels).mean())
        assert model.evaluate("lower50", test) == pytest.approx(manual)

    def test_evaluate_all_covers_family(self, trained_models, tiny_data):
        _, test = tiny_data
        accs = trained_models["fluid"].evaluate_all(test)
        assert set(accs) == {
            "lower25", "lower50", "lower75", "lower100", "upper25", "upper50",
        }
        assert all(0.0 <= v <= 1.0 for v in accs.values())

    def test_state_dict_roundtrip(self, trained_models, tiny_data):
        _, test = tiny_data
        source = trained_models["fluid"]
        clone = build_model("fluid", rng=make_rng(99))
        clone.load_state_dict(source.state_dict())
        assert clone.evaluate("upper50", test) == pytest.approx(
            source.evaluate("upper50", test)
        )

    def test_unknown_certification_rejected(self):
        net_model = build_model("fluid", rng=make_rng(0))
        with pytest.raises(ValueError):
            ModelFamily(net_model.net, certified_standalone=("lower33",), certified_combined=())
