"""Interchangeable temporal backends for the interval-intersection problem."""

from __future__ import annotations

from ..core import ConfigError, ScaleConfig
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

BACKENDS = {
    "linear": LinearScanIndex,
    "interval_tree": IntervalTreeIndex,
    "schmidt": SchmidtIndex,
    "iis": IISIndex,
}


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
