"""Interchangeable temporal backends for the interval-intersection problem."""

from __future__ import annotations

from ..core import ConfigError, FormatError, ScaleConfig
from .base import (
    LinearScanIndex,
    TemporalIndexBase,
    brute_force_intersect,
    intersect_ticks,
    record_tick_arrays,
)
from .interval_tree import IntervalTreeIndex
from .iis import IISIndex, IndependentIntervalSet, decompose_independent_sets
from .schmidt import SchmidtIndex

# the one list of backends: each class carries its name and file tag
BACKENDS = {cls.backend: cls for cls in (LinearScanIndex, IntervalTreeIndex, SchmidtIndex, IISIndex)}
# a backend is spelled by its name, or with hyphens for underscores
BACKEND_SPELLINGS = {s: name for name in BACKENDS for s in (name, name.replace("_", "-"))}


def backend_of_tag(tag: int) -> str:
    """The backend whose file tag is ``tag``; ``FormatError`` for none."""
    for name, cls in BACKENDS.items():
        if cls.tag == tag:
            return name
    raise FormatError(f"unknown backend tag {tag}")


def build_temporal_index(backend: str, records, cfg: ScaleConfig) -> TemporalIndexBase:
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ConfigError(f"unknown temporal backend {backend!r}; expected one of {sorted(BACKENDS)}") from None
    return factory.build(records, cfg)


__all__ = [
    "BACKENDS",
    "IISIndex",
    "IndependentIntervalSet",
    "IntervalTreeIndex",
    "LinearScanIndex",
    "SchmidtIndex",
    "TemporalIndexBase",
    "brute_force_intersect",
    "build_temporal_index",
    "decompose_independent_sets",
    "intersect_ticks",
    "record_tick_arrays",
]
