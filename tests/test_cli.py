import csv
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from trajindex import (
    ScaleConfig,
    TrajIndex,
    TrajIndexConfig,
    gen_grid_network,
    gen_trajectories,
    read_queries,
    write_network,
)
from trajindex.bench import BENCH_COLUMNS
from trajindex.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


def run(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code, _ = run("gen", "--grid", "8x8", "--objects", "12", "--duration", "20",
                  "--seed", "7", "--out-dir", str(out))
    assert code == EXIT_OK
    return out


def in_memory(backend: str, digits: int) -> TrajIndex:
    """The dataset's index built from the generator's objects, without the text files."""
    net = gen_grid_network(8, 8)
    records = gen_trajectories(net, 12, 20.0, seed=7)
    return TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend, scale=ScaleConfig(digits)))


class TestGen:
    def test_writes_three_files(self, dataset):
        for name in ("network.txt", "records.txt", "queries.txt"):
            assert (dataset / name).exists()

    def test_deterministic(self, tmp_path, dataset):
        code, _ = run("gen", "--grid", "8x8", "--objects", "12", "--duration", "20",
                      "--seed", "7", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        for name in ("network.txt", "records.txt", "queries.txt"):
            assert (tmp_path / name).read_bytes() == (dataset / name).read_bytes()

    def test_workload_mode_line_count(self, tmp_path):
        path = tmp_path / "records.txt"
        code, _ = run("gen", "--workload", "random", "--n", "2000", "--records", str(path))
        assert code == EXIT_OK
        assert sum(1 for _ in open(path)) == 2000

    def test_missing_output_is_usage_error(self):
        code, _ = run("gen", "--workload", "random", "--n", "10")
        assert code == EXIT_USAGE
        code, _ = run("gen", "--grid", "4x4")
        assert code == EXIT_USAGE


class TestBuildAndQuery:
    @pytest.mark.parametrize("digits", ["0", "6"])
    def test_build_then_query_matches_in_memory(self, dataset, tmp_path, digits):
        idx_path = str(tmp_path / "x.tjix")
        code, _ = run("build", "--network", str(dataset / "network.txt"),
                      "--records", str(dataset / "records.txt"),
                      "--backend", "iis", "--scale-digits", digits, "--out", idx_path)
        assert code == EXIT_OK
        code, out = run("query", "--index", idx_path, "--queries", str(dataset / "queries.txt"))
        assert code == EXIT_OK

        memory = in_memory("iis", int(digits))
        queries = read_queries(str(dataset / "queries.txt"))
        lines = out.strip().splitlines()
        assert len(lines) == len(queries)
        for line, q in zip(lines, queries):
            parts = line.split()
            want = sorted(memory.range_query(q.window, q.t_start, q.t_end).object_ids)
            assert parts[1] == str(len(want))
            assert [int(v) for v in parts[2:]] == want

    @pytest.mark.parametrize("digits", [0, 8])
    @pytest.mark.parametrize("backend", ["linear", "interval_tree", "schmidt", "iis"])
    def test_file_matches_in_memory_build(self, dataset, tmp_path, backend, digits):
        cli_path, memory_path = tmp_path / "cli.tjix", tmp_path / "memory.tjix"
        code, _ = run("build", "--network", str(dataset / "network.txt"),
                      "--records", str(dataset / "records.txt"), "--backend", backend.replace("_", "-"),
                      "--scale-digits", str(digits), "--out", str(cli_path))
        assert code == EXIT_OK
        in_memory(backend, digits).save(str(memory_path))
        assert cli_path.read_bytes() == memory_path.read_bytes()

    def test_results_identical_across_backends(self, dataset, tmp_path):
        outputs = set()
        for backend in ("linear", "interval-tree", "schmidt", "iis"):
            idx_path = str(tmp_path / f"{backend}.tjix")
            code, _ = run("build", "--network", str(dataset / "network.txt"),
                          "--records", str(dataset / "records.txt"),
                          "--backend", backend, "--out", idx_path)
            assert code == EXIT_OK
            code, out = run("query", "--index", idx_path, "--queries", str(dataset / "queries.txt"))
            assert code == EXIT_OK
            outputs.add(out)
        assert len(outputs) == 1

    def test_at_equals_from_to(self, dataset, tmp_path):
        idx_path = str(tmp_path / "x.tjix")
        run("build", "--network", str(dataset / "network.txt"),
            "--records", str(dataset / "records.txt"), "--out", idx_path)
        code_a, out_a = run("query", "--index", idx_path, "--window", "1,1,5,5", "--at", "3.25")
        code_b, out_b = run("query", "--index", idx_path, "--window", "1,1,5,5",
                            "--from", "3.25", "--to", "3.25")
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b

    def test_unknown_backend_is_usage_error(self, dataset, tmp_path):
        code, _ = run("build", "--network", str(dataset / "network.txt"),
                      "--records", str(dataset / "records.txt"),
                      "--backend", "btree", "--out", str(tmp_path / "x.tjix"))
        assert code == EXIT_USAGE

    def test_empty_query_file(self, dataset, tmp_path):
        idx_path = str(tmp_path / "x.tjix")
        run("build", "--network", str(dataset / "network.txt"),
            "--records", str(dataset / "records.txt"), "--out", idx_path)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, out = run("query", "--index", idx_path, "--queries", str(empty))
        assert code == EXIT_OK
        assert out == ""

    def test_corrupt_index_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tjix"
        bad.write_bytes(b"garbage")
        code, _ = run("query", "--index", str(bad), "--window", "0,0,1,1", "--at", "1")
        assert code == EXIT_DATA

    def test_malformed_records_is_data_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("r not-a-number 0 0 1\n")
        code, _ = run("build", "--network", str(dataset / "network.txt"),
                      "--records", str(bad), "--out", str(tmp_path / "x.tjix"))
        assert code == EXIT_DATA

    def test_unknown_edge_reference_is_data_error(self, tmp_path, capsys):
        network, bad, out = tmp_path / "net.txt", tmp_path / "refs.txt", tmp_path / "x.tjix"
        write_network(gen_grid_network(2, 6), str(network))  # 16 edges
        bad.write_text("r 0 1 1.0 2.0\nr 0 99 2.0 3.0\n")
        code, _ = run("build", "--network", str(network), "--records", str(bad), "--out", str(out))
        assert code == EXIT_DATA
        assert "record 1 (object 0, [2.0, 3.0]): unknown segment id 99" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_csv_contract_and_determinism(self, tmp_path):
        args = ("bench", "--sizes", "200,400", "--queries", "25", "--reps", "1",
                "--seed", "3", "--grid", "6x6", "--objects", "8", "--duration", "10")
        code, out_a = run(*args)
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out_a)))
        assert list(rows[0].keys()) == BENCH_COLUMNS
        # 3 scenarios x 4 backends x 2 sizes + 3 families x 4 backends
        assert len(rows) == 3 * 4 * 2 + 3 * 4
        by_group = {}
        for row in rows:
            by_group.setdefault((row["scenario"], row["n"]), set()).add(row["result_count_total"])
        assert all(len(counts) == 1 for counts in by_group.values())

        code, out_b = run(*args)
        strip = lambda text: [
            {k: v for k, v in row.items() if not k.endswith("seconds") and k != "query_seconds_total"}
            for row in csv.DictReader(io.StringIO(text))
        ]
        assert strip(out_a) == strip(out_b)

    def test_out_file(self, tmp_path):
        path = str(tmp_path / "bench.csv")
        code, _ = run("bench", "--sizes", "100", "--scenarios", "fixed_size", "--queries", "10",
                      "--reps", "1", "--families", "time_slice", "--grid", "4x4",
                      "--objects", "4", "--duration", "5", "--out", path)
        assert code == EXIT_OK
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 4 + 4


SRC = Path(__file__).resolve().parent.parent / "src"


def test_index_commands_skip_the_benchmark_imports():
    """``build`` and ``query`` import the CLI; only ``bench`` loads the
    benchmark matrix and the statistics it needs."""
    show = ("import sys, trajindex.cli; "
            "print(sorted(m for m in ('trajindex.bench', 'statistics', 'fractions') if m in sys.modules)); "
            "import trajindex; trajindex.BenchSpec; print('trajindex.bench' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", show], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]
