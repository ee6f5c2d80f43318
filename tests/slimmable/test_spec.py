"""Tests for channel slices and width specs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slimmable.spec import (
    ChannelSlice,
    SubNetSpec,
    WidthSpec,
    paper_width_spec,
    uniform_spec,
)


class TestChannelSlice:
    def test_width(self):
        assert ChannelSlice(2, 6).width == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            ChannelSlice(3, 3)
        with pytest.raises(ValueError):
            ChannelSlice(-1, 2)
        with pytest.raises(ValueError):
            ChannelSlice(5, 2)

    def test_contains(self):
        assert ChannelSlice(0, 8).contains(ChannelSlice(2, 6))
        assert not ChannelSlice(0, 8).contains(ChannelSlice(6, 10))

    def test_as_slice(self):
        assert ChannelSlice(1, 3).as_slice() == slice(1, 3)

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(0, 20), w1=st.integers(1, 10), b=st.integers(0, 20), w2=st.integers(1, 10))
    def test_contains_implies_overlaps(self, a, w1, b, w2):
        outer = ChannelSlice(a, a + w1 + w2)
        inner = ChannelSlice(a + (w1 + w2) // 4, a + (w1 + w2) // 2 + 1)
        if outer.contains(inner):
            assert outer.start < inner.stop and inner.start < outer.stop


class TestSubNetSpec:
    def test_uniform_spec(self):
        spec = uniform_spec("x", 0, 4, 3)
        assert len(spec.conv_slices) == 3
        assert spec.is_lower()

    def test_upper_is_not_lower(self):
        spec = uniform_spec("u", 4, 8, 2)
        assert not spec.is_lower()

    def test_empty_slices_rejected(self):
        with pytest.raises(ValueError):
            SubNetSpec("bad", ())


class TestWidthSpec:
    def test_paper_spec_families(self):
        ws = paper_width_spec()
        lowers = [s.name for s in ws.lower_family()]
        uppers = [s.name for s in ws.upper_family()]
        assert lowers == ["lower25", "lower50", "lower75", "lower100"]
        assert uppers == ["upper25", "upper50"]

    def test_paper_spec_slices(self):
        ws = paper_width_spec()
        assert ws.find("lower50").conv_slices[0] == ChannelSlice(0, 8)
        assert ws.find("upper25").conv_slices[0] == ChannelSlice(8, 12)
        assert ws.find("upper50").conv_slices[0] == ChannelSlice(8, 16)

    def test_full(self):
        ws = paper_width_spec()
        assert ws.full().name == "lower100"
        assert ws.full().last_slice.stop == 16

    def test_find_unknown_raises(self):
        with pytest.raises(KeyError):
            paper_width_spec().find("lower33")

    def test_lower_requires_listed_width(self):
        with pytest.raises(ValueError):
            paper_width_spec().lower(5)

    def test_upper_bounds(self):
        ws = paper_width_spec()
        with pytest.raises(ValueError):
            ws.upper(9)  # 8 + 9 > 16
        with pytest.raises(ValueError):
            ws.upper(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WidthSpec(max_width=8, lower_widths=(4, 8), split=0, num_convs=2)
        with pytest.raises(ValueError):
            WidthSpec(max_width=8, lower_widths=(8, 4), split=4, num_convs=2)
        with pytest.raises(ValueError):
            WidthSpec(max_width=8, lower_widths=(4, 6), split=4, num_convs=2)

    def test_upper_family_mirrors_widths_above_split(self):
        ws = WidthSpec(max_width=12, lower_widths=(3, 6, 9, 12), split=6, num_convs=2)
        names = [s.name for s in ws.upper_family()]
        assert names == ["upper25", "upper50"]
        assert ws.upper_family()[0].conv_slices[0] == ChannelSlice(6, 9)

    def test_all_specs_unique_names(self):
        ws = paper_width_spec()
        names = [s.name for s in ws.all_specs()]
        assert len(names) == len(set(names))

    def test_families_are_built_once_per_value(self, monkeypatch):
        """``find`` runs per message on the distributed path and every net
        build makes a fresh, equal ``WidthSpec``: none of them may rebuild."""
        first = WidthSpec(max_width=20, lower_widths=(5, 10, 15, 20), split=10, num_convs=2)
        family = first.all_specs()
        built = []
        init = SubNetSpec.__init__
        monkeypatch.setattr(
            SubNetSpec, "__init__", lambda self, *a, **kw: built.append(a) or init(self, *a, **kw)
        )
        again = WidthSpec(max_width=20, lower_widths=(5, 10, 15, 20), split=10, num_convs=2)
        assert again is not first
        assert all(a is b for a, b in zip(again.all_specs(), family))
        assert again.find("upper25") is family[-2]
        assert built == []

    def test_family_lists_are_the_callers_to_mutate(self):
        ws = paper_width_spec()
        ws.lower_family().clear()
        ws.upper_family().append(None)
        ws.all_specs().reverse()
        assert [s.name for s in ws.all_specs()] == [
            "lower25", "lower50", "lower75", "lower100", "upper25", "upper50",
        ]

    def test_lower_widths_given_as_a_list(self):
        ws = WidthSpec(max_width=8, lower_widths=[2, 4, 8], split=4, num_convs=2)
        assert [s.name for s in ws.lower_family()] == ["lower25", "lower50", "lower100"]
        assert ws.find("upper50").conv_slices == (ChannelSlice(4, 8),) * 2

    def test_find_keeps_the_first_match_and_the_error_text(self):
        # 1/1000 and 4/1000 both round to "lower0": the narrower one came first.
        ws = WidthSpec(max_width=1000, lower_widths=(1, 4, 1000), split=500, num_convs=1)
        assert [s.name for s in ws.lower_family()][:2] == ["lower0", "lower0"]
        assert ws.find("lower0").last_slice == ChannelSlice(0, 1)
        with pytest.raises(KeyError, match=r"^\"no sub-network named 'lower33'\"$"):
            ws.find("lower33")
