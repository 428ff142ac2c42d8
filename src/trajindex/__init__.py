"""Two-level index for network-constrained moving-object trajectories.

The spatial level is an R-tree over the network's segments, whose window
walk answers with exactly the segments that meet the window; the
temporal level answers interval intersections over every segment's
records, with four interchangeable backends: a plain array, a classic
interval tree, a stabbing-tree and the compact independent-interval-set
structure built on Elias-Fano sequences.
"""

from .core import (
    ConfigError,
    FormatError,
    IngestionError,
    IntervalRecord,
    InvalidInputError,
    InvalidQueryError,
    ParseError,
    Point,
    Rect,
    ScaleConfig,
    Segment,
    TimeInterval,
    VersionError,
    discretize_time,
    discretize_times,
    mbb_of_segment,
    rects_overlap,
    segment_intersects_window,
    segments_intersect_window,
)
from .eliasfano import EliasFanoSeq
from .rtree import RTree, build_rtree
from .temporal import (
    BACKENDS,
    IISIndex,
    IntervalTreeIndex,
    LinearScanIndex,
    SchmidtIndex,
    brute_force_intersect,
    build_temporal_index,
    decompose_independent_sets,
)
from .datagen import (
    Network,
    Query,
    WorkloadSpec,
    gen_grid_network,
    gen_interval_workload,
    gen_queries,
    gen_trajectories,
    read_network,
    read_queries,
    read_record_columns,
    write_network,
    write_queries,
    write_records,
)
from .index import IndexStats, ObjectIds, QueryResult, TrajIndex, TrajIndexConfig

__version__ = "0.1.0"

_BENCH_NAMES = ("BenchSpec", "run_benchmark", "write_csv")


def __getattr__(name: str):
    # the benchmark matrix, and the imports only it needs, load at first use
    if name in _BENCH_NAMES:
        from . import bench
        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BACKENDS",
    "BenchSpec",
    "ConfigError",
    "EliasFanoSeq",
    "FormatError",
    "IISIndex",
    "IndexStats",
    "IngestionError",
    "IntervalRecord",
    "IntervalTreeIndex",
    "InvalidInputError",
    "InvalidQueryError",
    "LinearScanIndex",
    "Network",
    "ObjectIds",
    "ParseError",
    "Point",
    "Query",
    "QueryResult",
    "RTree",
    "Rect",
    "ScaleConfig",
    "SchmidtIndex",
    "Segment",
    "TimeInterval",
    "TrajIndex",
    "TrajIndexConfig",
    "VersionError",
    "WorkloadSpec",
    "brute_force_intersect",
    "build_rtree",
    "build_temporal_index",
    "decompose_independent_sets",
    "discretize_time",
    "discretize_times",
    "gen_grid_network",
    "gen_interval_workload",
    "gen_queries",
    "gen_trajectories",
    "mbb_of_segment",
    "read_network",
    "read_queries",
    "read_record_columns",
    "rects_overlap",
    "run_benchmark",
    "segment_intersects_window",
    "segments_intersect_window",
    "write_csv",
    "write_network",
    "write_queries",
    "write_records",
]
