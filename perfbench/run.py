"""The repository benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload grid_window --seed 1 --seconds 20 --trace 0
    python3 perfbench/selftest.py     # tiny-size check of the benchmark itself

It imports ``trajindex`` from ``src/`` next to this directory and drives
only its stable public API with one fixed configuration (the default
``iis`` backend at ``ScaleConfig(6)``): ``TrajIndex.build``,
``range_query`` / ``time_slice_query``, ``save``, ``load`` and ``stats()``.

Load model: one process, one thread, a closed loop with one client.  A
warm-up pass over the query set runs before any timing.  Every answer is
checked against a brute-force full scan outside the timed intervals, and
the index read back by ``load`` must answer the whole query set exactly
like the built one.  A wrong answer or an exception counts as a failed
operation; any failure makes the command exit with status 1.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
The run is cut into ``ROUNDS`` rounds that together last ``--seconds``;
each round times one build (``setup_s``), saves and loads for a share of
its time, and then query chunks until it ends.  Every query of the set is
sent once per pass; the last pass is completed, so all are sent equally
often.  A shared machine changes pace by up to 1.8x over seconds to
minutes, so every timed operation and query chunk is bracketed by samples
of a fixed calibration kernel and reported at a reference speed (see
``speed.py``).  The latency percentiles are taken over the query set of
each query's median over the passes; ``query_qps`` is queries completed
over the summed time of the query chunks; ``setup_s``, ``save_s`` and
``load_s`` are medians of their repeats.  The measured wall times are
printed alongside, as comments.
``--trace 1`` runs a separate traced pass (see ``spans.py``) for the
per-layer split, then restores the original functions and times an
untraced pass to report the tracing overhead.  Both modes print every
metric by name and unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and a result record are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

# glibc adapts its mmap and trim thresholds to the allocation history of
# the process, so two runs of the same code could land in allocator
# regimes whose saves and loads differ by a third (every save allocates
# and frees a buffer the size of the file).  Fixed thresholds, at the
# largest values the adaptive rule reaches, give every run the regime of a
# long-running process.  The script re-executes itself once to set them.
ALLOCATOR = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in ALLOCATOR.items()):
    os.environ.update(ALLOCATOR)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import gc
import json
import platform
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from speed import REF_NS, Speed
from oracle import Oracle
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

QUERIES = 2000          # distinct queries per run, each sent once per pass
TRACED_QUERIES = 1000   # the first queries of the set, sent once through the traced pass
CHUNK_S = 0.05          # query time between two samples of the machine's speed
ROUNDS = 9              # rounds per run, each with one timed build; setup_s is their median
IO_SHARE = 0.1          # share of the run spent on repeated saves, and again on loads
TRACE_REPEATS = 3       # traced builds, saves and loads per traced run
COMPARE_QUERIES = 300   # queries per backend in the traced backend comparison
SCALE_DIGITS = 6

E2E_UNITS = {
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "query_qps": "1/s",
    "setup_s": "s",
    "save_s": "s",
    "load_s": "s",
    "index_bytes": "B",
    "file_bytes": "B",
}


def import_trajindex():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "trajindex" / "__init__.py").is_file():
        sys.exit(f"perfbench: no trajindex package under {src}")
    sys.path.insert(0, str(src))
    import trajindex
    import trajindex.temporal

    if Path(trajindex.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: trajindex was imported from {trajindex.__file__}, not {src}")
    return trajindex


def read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Operations attempted and failed; a wrong answer is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(note)

    def check(self, what: str, answers, expected) -> None:
        for i, (got, want) in enumerate(zip(answers, expected)):
            self.attempted += 1
            if isinstance(got, Exception):
                self.fail(f"{what} query {i} raised {got!r}")
            elif got != want:
                self.fail(f"{what} query {i}: {len(got)} ids, expected {len(want)}, "
                          f"{len(got ^ want)} differ")


def make_ask(family: str):
    if family == "time_slice":
        return lambda index, q: index.time_slice_query(q.window, q.t_start)
    return lambda index, q: index.range_query(q.window, q.t_start, q.t_end)


def query_pass(ask, index, queries, tracer=None):
    """One pass over the query set: answers (id sets, or the exception a
    query raised), per-query latency in ns and the pass wall time in ns."""
    answers = []
    latency = []
    clock = time.perf_counter_ns
    start = clock()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.qid = i
        t0 = clock()
        try:
            ids = ask(index, q).object_ids
        except Exception as exc:  # an exception is an answer that fails the check
            ids = exc
        latency.append(clock() - t0)
        answers.append(ids)
    return answers, latency, clock() - start


class QueryPasses:
    """The timed closed loop: one client sends the next query when the
    previous answer is back, in passes over the query set cut into chunks
    of about ``CHUNK_S`` seconds.  After each chunk the machine's speed is
    sampled (if a ``Speed`` is given) and the chunk's answers are checked,
    outside the timing."""

    def __init__(self, ask, index, queries, expected, tally: Tally, speed=None):
        self.ask = ask
        self.index = index
        self.queries = queries
        self.expected = expected
        self.tally = tally
        self.speed = speed
        self.latency: list[np.ndarray] = []  # per whole pass, per query, ns
        self.at: list[np.ndarray] = []       # per whole pass, per query, start ns
        self.chunks: list[tuple[int, int]] = []  # (wall ns, midpoint ns) per chunk
        self._pos = 0

    def _chunk(self) -> None:
        if self._pos == 0:
            self.latency.append(np.zeros(len(self.queries), dtype=np.int64))
            self.at.append(np.zeros(len(self.queries), dtype=np.int64))
        lo = hi = self._pos
        latency, at = self.latency[-1], self.at[-1]
        ask, index, queries = self.ask, self.index, self.queries
        answers = []
        clock = time.perf_counter_ns
        begin = clock()
        end = begin
        while hi < len(queries) and end - begin < CHUNK_S * 1e9:
            try:
                ids = ask(index, queries[hi]).object_ids
            except Exception as exc:  # an exception is an answer that fails the check
                ids = exc
            t = clock()
            latency[hi] = t - end
            at[hi] = end
            end = t
            hi += 1
            answers.append(ids)
        self.chunks.append((end - begin, (begin + end) // 2))
        self.tally.check("timed", answers, self.expected[lo:hi])
        self._pos = hi % len(self.queries)
        if self.speed is not None:
            self.speed.sample()

    def run_until(self, deadline_ns: int) -> None:
        while time.perf_counter_ns() < deadline_ns:
            self._chunk()

    def finish_pass(self) -> None:
        """Complete the pass in progress (or run one, if none ran), so every
        query has been sent equally often."""
        if not self.latency:
            self._chunk()
        while self._pos:
            self._chunk()

    def scaled(self, speed) -> tuple[np.ndarray, float]:
        """Each query's median latency over the passes, in ms, and the
        completed queries per second of chunk wall time, both at the
        reference speed."""
        latency = np.asarray(self.latency, dtype=np.float64)
        factor = speed.factor(np.asarray(self.at).ravel()).reshape(latency.shape)
        per_query_ms = np.median(latency * factor, axis=0) / 1e6
        walls, mids = zip(*self.chunks)
        busy_s = float(speed.scale(walls, mids).sum()) / 1e9
        return per_query_ms, latency.size / busy_s


def plant_error(tj) -> None:
    """Self-test hook: drop one id from the first non-empty answer."""
    original = tj.TrajIndex.range_query
    planted = []

    def dropping(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        if result.object_ids and not planted:
            planted.append(result.object_ids.pop())
        return result

    tj.TrajIndex.range_query = dropping


def shape_counts(stats, records, expected) -> dict:
    per_segment = stats.per_segment_records
    return {
        "records": len(records),
        "loaded_segments": len(per_segment),
        "max_records_per_segment": max(per_segment.values(), default=0),
        "iis_sets": sum(stats.iis_set_counts.values()),
        "fallback_segments": stats.segments_with_records - len(stats.iis_set_counts),
        "results_total": sum(len(e) for e in expected),
    }


def end_to_end(tj, ctx, tally: Tally) -> tuple[dict, object, dict]:
    """Builds, saves, loads and query chunks are timed in rounds spread
    over the whole run, with the machine's speed sampled in between, so a
    slow spell reaches every metric alike and is scaled out of each."""
    net, records, queries, expected, cfg, ask, seconds, file_path = ctx
    path = str(file_path)
    build = lambda: tj.TrajIndex.build(net, records, cfg)
    index = build()
    tally.attempted += 1
    built_answers, _, _ = query_pass(ask, index, queries)
    tally.check("warm-up", built_answers, expected)
    index.save(path)
    loaded = tj.TrajIndex.load(path)
    tally.attempted += 2
    reloaded, _, _ = query_pass(ask, loaded, queries)
    tally.check("round-trip", reloaded, built_answers)
    del loaded, reloaded

    speed = Speed()
    loop = QueryPasses(ask, index, queries, expected, tally, speed)
    ops = {"setup_s": build, "save_s": lambda: index.save(path), "load_s": lambda: tj.TrajIndex.load(path)}
    times: dict[str, list[tuple[int, int]]] = {name: [] for name in ops}   # (ns, midpoint ns)
    clock = time.perf_counter_ns
    begin = clock()
    for r in range(ROUNDS):
        gc.collect()
        speed.sample()
        for name, op in ops.items():
            budget = 0 if name == "setup_s" else IO_SHARE * seconds * 1e9 / ROUNDS
            spent = 0
            while True:
                if name == "save_s":
                    file_path.unlink(missing_ok=True)  # every save writes a new file
                t0 = clock()
                op()
                t1 = clock()
                speed.sample()
                tally.attempted += 1
                times[name].append((t1 - t0, (t0 + t1) // 2))
                spent += t1 - t0
                if spent >= budget:
                    break
        loop.run_until(begin + seconds * 1e9 * (r + 1) / ROUNDS)
    loop.finish_pass()

    stats = index.stats()
    per_query_ms, qps = loop.scaled(speed)
    passes = f"median of {len(loop.latency)} passes per query, over {len(queries)} queries"
    metrics = {
        "query_p50_ms": (float(np.percentile(per_query_ms, 50)), passes),
        "query_p99_ms": (float(np.percentile(per_query_ms, 99)), passes),
        "query_qps": (qps, f"{len(loop.latency)} passes over {len(queries)} queries"),
        "index_bytes": (stats.total_bytes, None),
        "file_bytes": (file_path.stat().st_size, None),
    }
    measured = {}
    scaled = {}
    for name, samples in times.items():
        raw_ns, mids = zip(*samples)
        scaled[name] = (speed.scale(raw_ns, mids) / 1e9).tolist()
        metrics[name] = (float(np.median(scaled[name])), f"median of {len(samples)}")
        measured[name] = float(np.median(raw_ns)) / 1e9
    unscaled = np.median(np.asarray(loop.latency, dtype=np.float64), axis=0) / 1e6
    measured["query_p50_ms"] = float(np.percentile(unscaled, 50))
    measured["query_p99_ms"] = float(np.percentile(unscaled, 99))
    measured["speed_kernel_ms"] = float(np.median(speed.ns)) / 1e6
    metrics = {name: metrics[name] for name in E2E_UNITS}
    raw = {**{name: [ns for ns, _ in s] for name, s in times.items()},
           "chunk_wall_ns": [w for w, _ in loop.chunks], "speed_kernel_ns": speed.ns,
           "measured": measured, "scaled": scaled}
    return {name: (value, E2E_UNITS[name], samples) for name, (value, samples) in metrics.items()}, stats, raw


def traced(tj, ctx, tally: Tally, spans_path) -> tuple[dict, object, dict]:
    net, records, queries, expected, cfg, ask, seconds, file_path = ctx
    queries, expected = queries[:TRACED_QUERIES], expected[:TRACED_QUERIES]
    path = str(file_path)
    spans.assert_unwrapped()
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS + spans.backend_targets(tj))
    compare: dict[str, tuple[int, int]] = {}
    try:
        tracer.phase = "build"
        for _ in range(TRACE_REPEATS):
            index = tj.TrajIndex.build(net, records, cfg)
            tally.attempted += 1
        tracer.phase = None
        warm, _, _ = query_pass(ask, index, queries)
        tally.check("traced warm-up", warm, expected)
        tracer.phase = "query"
        answers, traced_latency, _ = query_pass(ask, index, queries, tracer)
        tally.check("traced", answers, expected)
        tracer.phase = "save"
        for _ in range(TRACE_REPEATS):
            index.save(path)
            tally.attempted += 1
        tracer.phase = "load"
        for _ in range(TRACE_REPEATS):
            loaded = tj.TrajIndex.load(path)
            tally.attempted += 1
        tracer.phase = None
        reloaded, _, _ = query_pass(ask, loaded, queries)
        tally.check("traced round-trip", reloaded, answers)
        subset = queries[:COMPARE_QUERIES]
        for backend in tj.temporal.BACKENDS:
            tracer.phase = None
            other = tj.TrajIndex.build(net, records, tj.TrajIndexConfig(temporal_backend=backend, scale=cfg.scale))
            tally.attempted += 1
            tracer.phase = f"compare.{backend}"
            got, _, _ = query_pass(ask, other, subset, tracer)
            tally.check(f"{backend} backend", got, expected)
            compare[backend] = (len(subset), other.stats().temporal_bytes)
            del other
    finally:
        tracer.restore()
    spans.assert_unwrapped()
    # the same queries untraced; plain medians on both sides of the ratio
    loop = QueryPasses(ask, index, queries, expected, tally)
    loop.run_until(time.perf_counter_ns() + seconds * 1e9)
    loop.finish_pass()
    overhead = float(np.median(traced_latency)) / float(np.median(loop.latency))
    tracer.write(spans_path)
    if tracer.missing:
        print(f"# absent wrap targets: {', '.join(tracer.missing)}")
    stats = index.stats()
    return layer_metrics(tracer, len(queries), stats, compare, overhead), stats, {}


def layer_metrics(tracer, n_queries: int, stats, compare: dict, overhead: float) -> dict:
    """Per-layer metrics from the traced phases.  A metric whose spans
    come from an absent wrap target is left out; the totals of a span that
    never ran read 0."""
    out: dict = {}

    def put(name, unit, value, *needs):
        if all(n in tracer.wrapped for n in needs):
            out[name] = (value, unit, None)

    def ratio(a, b):
        return a / b if b else 0.0

    def count(phase, key):
        return tracer.counts.get((phase, key), 0.0)

    calls, incl, self_ns = tracer.totals("query")
    per_q_ms = lambda ns: ns / n_queries / 1e6
    temporal = [n for n in tracer.wrapped if n.startswith("temporal.") and n.endswith(".query")]
    temporal_ns = sum(incl[n] for n in temporal)
    range_ns = incl["index.range_query"]

    put("rtree.window_query_ms", "ms", per_q_ms(incl["rtree.window_query"]), "rtree.window_query")
    put("rtree.candidates", "count", count("query", "rtree.candidates") / n_queries, "rtree.window_query")
    put("core.refine_ms", "ms", per_q_ms(incl["core.refine"]), "core.refine")
    put("core.refine_kept_ratio", "ratio",
        ratio(count("query", "core.refine_kept"), count("query", "core.refine_in")), "core.refine")
    put("temporal.probes", "count", count("query", "temporal.probes") / n_queries, *temporal)
    put("temporal.probe_hit_ratio", "ratio",
        ratio(count("query", "temporal.probe_hits"), count("query", "temporal.probes")), *temporal)
    put("temporal.rows", "count", count("query", "temporal.rows") / n_queries, *temporal)
    put("temporal.linear_query_ms", "ms", per_q_ms(incl["temporal.linear.query"]), "temporal.linear.query")
    put("temporal.iis_query_ms", "ms", per_q_ms(incl["temporal.iis.query"]), "temporal.iis.query")
    put("iis.sets_probed", "count", calls["iis.query_slice"] / n_queries, "iis.query_slice")
    put("iis.sets_per_probe", "count",
        ratio(calls["iis.query_slice"], calls["temporal.iis.query"]), "iis.query_slice", "temporal.iis.query")
    put("iis.set_hit_ratio", "ratio",
        ratio(count("query", "iis.set_hits"), calls["iis.query_slice"]), "iis.query_slice")
    put("eliasfano.rank_calls", "count", calls["eliasfano.rank"] / n_queries, "eliasfano.rank")
    put("eliasfano.rank_ms", "ms", per_q_ms(incl["eliasfano.rank"]), "eliasfano.rank")
    put("index.range_query_ms", "ms", per_q_ms(range_ns), "index.range_query")
    put("index.dispatch_union_ms", "ms", per_q_ms(self_ns["index.range_query"]), "index.range_query")
    put("index.unique_ids", "count", count("query", "index.unique_ids") / n_queries, "index.range_query")
    put("index.spatial_share", "ratio",
        ratio(incl["rtree.window_query"] + incl["core.refine"], range_ns),
        "index.range_query", "rtree.window_query", "core.refine")
    put("index.temporal_share", "ratio", ratio(temporal_ns, range_ns), "index.range_query", *temporal)

    per_op_s = lambda ns: ns / TRACE_REPEATS / 1e9
    _, b_incl, b_self = tracer.totals("build")
    put("rtree.build_s", "s", per_op_s(b_incl["rtree.build"]), "rtree.build")
    put("temporal.build_s", "s", per_op_s(b_incl["temporal.build"]), "temporal.build")
    put("temporal.fallback_segments", "count",
        count("build", "temporal.fallback_builds") / TRACE_REPEATS, "temporal.build")
    put("iis.decompose_s", "s", per_op_s(b_incl["iis.decompose"]), "iis.decompose")
    put("eliasfano.encode_s", "s", per_op_s(b_incl["eliasfano.from_values"]), "eliasfano.from_values")
    put("index.build_group_s", "s", per_op_s(b_self["index.build"]), "index.build")
    put("iis.sets_total", "count", sum(stats.iis_set_counts.values()))

    _, s_incl, _ = tracer.totals("save")
    put("rtree.to_bytes_s", "s", per_op_s(s_incl["rtree.to_bytes"]), "rtree.to_bytes")
    put("iis.to_bytes_s", "s", per_op_s(s_incl["iis.to_bytes"]), "iis.to_bytes")
    _, l_incl, l_self = tracer.totals("load")
    put("rtree.from_bytes_s", "s", per_op_s(l_incl["rtree.from_bytes"]), "rtree.from_bytes")
    put("iis.from_bytes_s", "s", per_op_s(l_incl["iis.from_bytes"]), "iis.from_bytes")
    put("temporal.rebuild_s", "s", per_op_s(l_incl["temporal.build"]), "temporal.build")
    put("index.load_parse_s", "s", per_op_s(l_self["index.load"]), "index.load")

    for backend, (n, temporal_bytes) in compare.items():
        _, c_incl, _ = tracer.totals(f"compare.{backend}")
        spent = sum(c_incl[name] for name in temporal)
        put(f"temporal.{backend}.query_ms", "ms", spent / n / 1e6, *temporal)
        put(f"temporal.{backend}.bytes", "B", temporal_bytes)

    put("trace.overhead_ratio", "ratio", overhead)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="self-test sizes instead of the benchmark sizes")
    p.add_argument("--plant-error", action="store_true", help="self-test: corrupt one answer")
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    tj = import_trajindex()
    if args.plant_error:
        plant_error(tj)
    workload = WORKLOADS[args.workload]
    n_queries = 60 if args.tiny else QUERIES
    net, records, queries = generate(tj, workload, args.seed, n_queries, args.tiny)
    cfg = tj.TrajIndexConfig(scale=tj.ScaleConfig(SCALE_DIGITS))
    oracle = Oracle(tj, net, records, cfg.scale)
    expected = [oracle.answer(q) for q in queries]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    file_path = OUT / f"{stem}.tjix"
    ctx = (net, records, queries, expected, cfg, make_ask(workload.family), args.seconds, file_path)
    tally = Tally()
    metrics: dict = {}
    stats = None
    raw: dict = {}
    try:
        if args.trace:
            metrics, stats, raw = traced(tj, ctx, tally, OUT / f"{stem}.spans.tsv.gz")
        else:
            metrics, stats, raw = end_to_end(tj, ctx, tally)
    except Exception as exc:  # a crash is a failed operation; report the run
        traceback.print_exc()
        tally.attempted += 1
        tally.fail(f"run aborted: {exc!r}")
        metrics = {}
    finally:
        file_path.unlink(missing_ok=True)

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "spec": {**(workload.tiny_spec if args.tiny else workload.spec),
                 "family": workload.family, "spatial_pct": workload.spatial_pct,
                 "temporal_pct": workload.temporal_pct, "queries": n_queries},
        "config": {"temporal_backend": cfg.temporal_backend, "scale_digits": cfg.scale.digits},
        "allocator": ALLOCATOR,
        "speed_ref_ns": REF_NS,
        "commit": read_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "shape": shape_counts(stats, records, expected) if stats is not None else None,
    }
    print("# info " + json.dumps(info, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        suffix = f" ({samples})" if samples else ""
        print(f"{name} = {value} {unit}{suffix}")
    for name, value in raw.get("measured", {}).items():
        print(f"# wall time, not scaled to the reference speed: {name} = {value}")
    error_rate = tally.failed / max(tally.attempted, 1)
    print(f"error_rate = {error_rate} ratio ({tally.failed} of {tally.attempted} operations failed)")
    for note in tally.notes:
        print(f"# failure: {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"info": info, "result": result, "samples": raw}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
