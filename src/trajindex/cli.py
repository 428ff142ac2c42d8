"""Command-line entry point: gen, build, query and bench subcommands.

Exit codes: 0 success, 1 usage errors, 2 data errors (parse failures,
referential errors, corrupt index files).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    ConfigError,
    FormatError,
    IngestionError,
    InvalidInputError,
    InvalidQueryError,
    ParseError,
    Rect,
    ScaleConfig,
)
from .datagen import (
    WorkloadSpec,
    Query,
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
from .index import TrajIndex, TrajIndexConfig
from .temporal import BACKEND_SPELLINGS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_WORKLOADS = {"fixed": "fixed_size", "fixed_size": "fixed_size",
              "random": "random_size", "random_size": "random_size",
              "trajectory": "trajectory"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ROWSxCOLS, got {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _backends(text: str) -> tuple[str, ...]:
    """The backends that comma-separated spellings name."""
    names = _str_list(text)
    for v in names:
        if v not in BACKEND_SPELLINGS:
            raise argparse.ArgumentTypeError(f"unknown backend {v!r} (choose from {sorted(BACKEND_SPELLINGS)})")
    return tuple(BACKEND_SPELLINGS[v] for v in names)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trajindex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate synthetic networks, records and query sets")
    p.add_argument("--grid", type=_grid, help="grid network size as ROWSxCOLS")
    p.add_argument("--objects", type=int, default=100)
    p.add_argument("--duration", type=float, default=100.0)
    p.add_argument("--jitter", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-dir", help="directory for network.txt/records.txt/queries.txt (grid mode)")
    p.add_argument("--query-count", type=int, default=500)
    p.add_argument("--query-extent", type=float, default=10.0)
    p.add_argument("--query-family", choices=sorted(("range_equal", "range_larger_temporal", "time_slice")),
                   default="range_equal")
    p.add_argument("--workload", choices=sorted(_WORKLOADS), help="interval workload mode")
    p.add_argument("--n", type=int, default=10000, help="interval count (workload mode)")
    p.add_argument("--horizon", type=float, default=1000.0)
    p.add_argument("--length", type=float, default=10.0)
    p.add_argument("--mean-length", type=float, default=10.0)
    p.add_argument("--records", help="records output path (workload mode)")

    p = sub.add_parser("build", help="build an index file from network and records files")
    p.add_argument("--network", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--backend", choices=sorted(BACKEND_SPELLINGS), default=TrajIndexConfig.temporal_backend)
    p.add_argument("--scale-digits", type=int, default=8)
    p.add_argument("--out", required=True)

    p = sub.add_parser("query", help="run queries against an index file")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", help="query file; omit to pass a single query via flags")
    p.add_argument("--window", help="single query window as xmin,ymin,xmax,ymax")
    p.add_argument("--from", dest="t_from", type=float)
    p.add_argument("--to", dest="t_to", type=float)
    p.add_argument("--at", dest="t_at", type=float, help="time-slice instant (same as --from T --to T)")
    p.add_argument("--count", action="store_true", help="print result counts only")

    # a flag not given leaves its value to BenchSpec; each dest is a BenchSpec field
    p = sub.add_parser("bench", help="run the benchmark matrix and emit CSV", argument_default=argparse.SUPPRESS)
    p.add_argument("--scenarios", type=_str_list)
    p.add_argument("--backends", type=_backends)
    p.add_argument("--sizes", type=_int_list)
    p.add_argument("--families", type=_str_list)
    p.add_argument("--queries", dest="queries_per_set", type=int)
    p.add_argument("--reps", dest="repetitions", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--scale-digits", type=int)
    p.add_argument("--extent", dest="query_extent_pct", type=float)
    p.add_argument("--grid", type=_grid, help="grid network size as ROWSxCOLS")
    p.add_argument("--objects", type=int)
    p.add_argument("--duration", type=float)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    return parser


def _cmd_gen(args) -> int:
    if args.workload:
        if not args.records:
            raise _UsageError("workload mode requires --records OUTPUT")
        spec = WorkloadSpec(
            kind=_WORKLOADS[args.workload], n=args.n, seed=args.seed,
            horizon=args.horizon, length=args.length,
            mean_length=args.mean_length, jitter=args.jitter,
        )
        records = [(0, rec) for rec in gen_interval_workload(spec)]
        write_records(records, args.records)
        print(f"wrote {len(records)} records to {args.records}")
        return EXIT_OK
    if not args.grid:
        raise _UsageError("gen requires either --grid or --workload")
    if not args.out_dir:
        raise _UsageError("grid mode requires --out-dir")
    os.makedirs(args.out_dir, exist_ok=True)
    rows, cols = args.grid
    net = gen_grid_network(rows, cols)
    records = gen_trajectories(net, args.objects, args.duration, seed=args.seed, jitter=args.jitter)
    temporal_pct = 100.0 if args.query_family == "range_larger_temporal" else args.query_extent
    queries = gen_queries(net.bounds(), args.duration, args.query_family, args.query_count,
                          seed=args.seed + 1, spatial_pct=args.query_extent, temporal_pct=temporal_pct)
    paths = {name: os.path.join(args.out_dir, f"{name}.txt") for name in ("network", "records", "queries")}
    write_network(net, paths["network"])
    write_records(records, paths["records"])
    write_queries(queries, paths["queries"])
    print(f"wrote {len(net.edge_nodes)} edges, {len(records)} records, {len(queries)} queries to {args.out_dir}")
    return EXIT_OK


def _cmd_build(args) -> int:
    net = read_network(args.network)
    columns = read_record_columns(args.records)
    cfg = TrajIndexConfig(temporal_backend=BACKEND_SPELLINGS[args.backend], scale=ScaleConfig(args.scale_digits))
    index = TrajIndex.from_columns(net, *columns, cfg)
    index.save(args.out)
    stats = index.stats()
    print(json.dumps({
        "records": stats.record_count,
        "segments": stats.segment_count,
        "segments_with_records": stats.segments_with_records,
        "spatial_bytes": stats.spatial_bytes,
        "temporal_bytes": stats.temporal_bytes,
        "data_bytes": stats.data_bytes,
        "total_bytes": stats.total_bytes,
        "iis_sets_total": sum(stats.iis_set_counts.values()),
    }))
    return EXIT_OK


def _cmd_query(args) -> int:
    index = TrajIndex.load(args.index)
    if args.queries:
        queries = read_queries(args.queries)
    else:
        if not args.window:
            raise _UsageError("query needs --queries FILE or --window plus a time range")
        try:
            vals = [float(v) for v in args.window.split(",")]
            window = Rect(*vals)
        except (ValueError, TypeError, InvalidInputError) as exc:
            raise _UsageError(f"bad --window value: {exc}")
        if args.t_at is not None:
            t0 = t1 = args.t_at
        elif args.t_from is not None and args.t_to is not None:
            t0, t1 = args.t_from, args.t_to
        else:
            raise _UsageError("query needs --at T or both --from and --to")
        queries = [Query(window, t0, t1)]
    for qid, q in enumerate(queries):
        result = index.range_query(q.window, q.t_start, q.t_end)
        ids = result.object_ids.array  # ascending
        if args.count:
            print(f"{qid} {len(ids)}")
        else:
            print(" ".join([str(qid), str(len(ids))] + [str(i) for i in ids.tolist()]))
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import BenchSpec, run_benchmark, write_csv  # only this command needs the benchmark's imports

    given = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    if "grid" in given:
        given["grid_rows"], given["grid_cols"] = given.pop("grid")
    spec = BenchSpec(**given)
    rows_out = run_benchmark(spec)
    if args.out:
        with open(args.out, "w", newline="", encoding="ascii") as fh:
            write_csv(rows_out, fh)
        print(f"wrote {len(rows_out)} rows to {args.out}")
    else:
        write_csv(rows_out, sys.stdout)
    return EXIT_OK


_COMMANDS = {"gen": _cmd_gen, "build": _cmd_build, "query": _cmd_query, "bench": _cmd_bench}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, FormatError, IngestionError, ConfigError,
            InvalidInputError, InvalidQueryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
