"""Sub-network specifications for slimmable networks.

A slimmable network stores full-width weights once; a *sub-network* is a
named set of channel slices, one per sliceable layer.  The paper's model has
four *lower* sub-networks (25/50/75/100%, nested from channel 0) plus two
*upper* sub-networks (upper-25% = channels 50–75%, upper-50% = channels
50–100%) that Fluid DyDNNs train to run independently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple


@dataclass(frozen=True)
class ChannelSlice:
    """Half-open channel range ``[start, stop)``."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(f"invalid channel slice [{self.start}, {self.stop})")

    @property
    def width(self) -> int:
        return self.stop - self.start

    def as_slice(self) -> slice:
        return slice(self.start, self.stop)

    def contains(self, other: "ChannelSlice") -> bool:
        return self.start <= other.start and other.stop <= self.stop

    def __repr__(self) -> str:
        return f"[{self.start}:{self.stop})"


@dataclass(frozen=True)
class SubNetSpec:
    """A named sub-network: one channel slice per sliceable conv layer.

    ``conv_slices[i]`` is the output-channel slice of conv layer ``i``; the
    input slice of conv ``i+1`` equals the output slice of conv ``i`` (the
    first conv always reads the full input image).  The classifier reads the
    features produced by the last conv's slice.
    """

    name: str
    conv_slices: Tuple[ChannelSlice, ...]

    def __post_init__(self) -> None:
        if not self.conv_slices:
            raise ValueError("SubNetSpec needs at least one conv slice")

    @property
    def last_slice(self) -> ChannelSlice:
        return self.conv_slices[-1]

    def is_lower(self) -> bool:
        """True if every slice starts at channel 0 (a classic nested subnet)."""
        return all(s.start == 0 for s in self.conv_slices)

    def __repr__(self) -> str:
        return f"SubNetSpec({self.name}: {list(self.conv_slices)})"


def uniform_spec(name: str, start: int, stop: int, num_convs: int) -> SubNetSpec:
    """A spec using the same channel slice for every conv layer."""
    if num_convs <= 0:
        raise ValueError("num_convs must be positive")
    return SubNetSpec(name, tuple(ChannelSlice(start, stop) for _ in range(num_convs)))


@dataclass(frozen=True)
class WidthSpec:
    """The full sub-network family of a Fluid DyDNN.

    Args:
        max_width: full channel count (paper: 16 kernels).
        lower_widths: nested lower sub-network widths (paper: 4, 8, 12, 16).
        split: channel where the upper block begins (paper: 8 = the 50% mark).
        num_convs: number of sliceable conv layers (paper: 3).
    """

    max_width: int
    lower_widths: Tuple[int, ...]
    split: int
    num_convs: int

    def __post_init__(self) -> None:
        if self.max_width <= 0:
            raise ValueError("max_width must be positive")
        if not self.lower_widths:
            raise ValueError("need at least one lower width")
        if list(self.lower_widths) != sorted(set(self.lower_widths)):
            raise ValueError("lower_widths must be strictly increasing")
        if self.lower_widths[-1] != self.max_width:
            raise ValueError("largest lower width must equal max_width")
        if not 0 < self.split < self.max_width:
            raise ValueError(f"split must be inside (0, {self.max_width})")
        if self.num_convs <= 0:
            raise ValueError("num_convs must be positive")

    # -- named sub-network constructors -------------------------------------

    def lower(self, width: int) -> SubNetSpec:
        """Nested lower sub-network of the given width (e.g. the 50% model)."""
        if width not in self.lower_widths:
            raise ValueError(f"width {width} not in {self.lower_widths}")
        pct = round(100 * width / self.max_width)
        return uniform_spec(f"lower{pct}", 0, width, self.num_convs)

    def upper(self, width: int) -> SubNetSpec:
        """Upper sub-network of the given width, starting at the split.

        ``upper(split)`` is the paper's *upper 50%* model (channels
        50–100%); smaller widths give *upper 25%* etc.
        """
        if width <= 0 or self.split + width > self.max_width:
            raise ValueError(
                f"upper width {width} does not fit in [{self.split}, {self.max_width})"
            )
        pct = round(100 * width / self.max_width)
        return uniform_spec(f"upper{pct}", self.split, self.split + width, self.num_convs)

    def full(self) -> SubNetSpec:
        return self.lower(self.max_width)

    # -- families ------------------------------------------------------------

    def _families(self) -> "_Families":
        return _families(self.max_width, tuple(self.lower_widths), self.split, self.num_convs)

    def lower_family(self) -> List[SubNetSpec]:
        """All nested lower sub-networks, smallest first (incremental order)."""
        return list(self._families().lower)

    def upper_family(self) -> List[SubNetSpec]:
        """All upper sub-networks implied by lower widths above the split.

        For the paper's [4, 8, 12, 16] family with split 8 this yields the
        upper-25% (channels 8–12) and upper-50% (channels 8–16) models.
        """
        return list(self._families().upper)

    def all_specs(self) -> List[SubNetSpec]:
        return self.lower_family() + self.upper_family()

    def find(self, name: str) -> SubNetSpec:
        spec = self._families().by_name.get(name)
        if spec is None:
            raise KeyError(f"no sub-network named {name!r}")
        return spec


class _Families(NamedTuple):
    lower: Tuple[SubNetSpec, ...]
    upper: Tuple[SubNetSpec, ...]
    by_name: Dict[str, SubNetSpec]  # first match, lower before upper


@functools.lru_cache(maxsize=128)
def _families(
    max_width: int, lower_widths: Tuple[int, ...], split: int, num_convs: int
) -> _Families:
    """The families of one :class:`WidthSpec` *value*, built once.

    Keyed by value, not instance: every net build makes a fresh equal
    ``WidthSpec``, and ``find`` runs per message on the distributed path.
    The specs are immutable, so every caller may share them.
    """
    spec = WidthSpec(max_width, lower_widths, split, num_convs)
    lower = tuple(spec.lower(w) for w in lower_widths)
    upper = tuple(spec.upper(w - split) for w in lower_widths if w > split)
    by_name: Dict[str, SubNetSpec] = {}
    for sub in lower + upper:
        by_name.setdefault(sub.name, sub)
    return _Families(lower, upper, by_name)


def paper_width_spec() -> WidthSpec:
    """The paper's configuration: [4, 8, 12, 16] kernels, split at 8, 3 convs."""
    return WidthSpec(max_width=16, lower_widths=(4, 8, 12, 16), split=8, num_convs=3)
