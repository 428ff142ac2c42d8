import numpy as np
import pytest

from trajindex import (
    ConfigError,
    IngestionError,
    InvalidInputError,
    Network,
    ParseError,
    Point,
    TrajIndex,
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

from helpers import reference_record_columns


def record_columns(records):
    """The four columns of (segment id, IntervalRecord) pairs."""
    return (np.array([eid for eid, _ in records], dtype=np.int64),
            np.array([rec.object_id for _, rec in records], dtype=np.int64),
            np.array([rec.interval.start for _, rec in records]),
            np.array([rec.interval.end for _, rec in records]))


def assert_same_columns(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert a.view(np.int64).tolist() == b.view(np.int64).tolist()  # float64 bits included


class TestGridNetwork:
    def test_smallest(self):
        net = gen_grid_network(2, 2, 1.0)
        assert len(net.nodes) == 4
        assert len(net.edges) == 4

    def test_twenty_by_twenty(self):
        net = gen_grid_network(20, 20, 1.0)
        assert len(net.nodes) == 400
        assert len(net.edges) == 2 * 20 * 19

    def test_coordinates_on_lattice(self):
        cell = 2.5
        net = gen_grid_network(3, 4, cell)
        for p in net.nodes:
            assert p.x % cell == 0 and p.y % cell == 0

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            gen_grid_network(1, 5)


class TestNetwork:
    def test_segments_follow_the_node_pairs(self):
        nodes = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 2.0)]
        net = Network(nodes, [(0, 1), (2, 1)])
        assert [(s.id, s.a, s.b) for s in net.edges] == [(0, nodes[0], nodes[1]), (1, nodes[2], nodes[1])]
        assert net.endpoints().tolist() == [[0.0, 1.0], [0.0, 2.0], [1.0, 1.0], [0.0, 0.0]]

    def test_endpoints_are_gathered_once_and_read_only(self):
        """The array checked when the network is made is the one every call
        gives, and the R-tree of an index over the network reads it without
        a copy."""
        net = gen_grid_network(3, 3)
        ends = net.endpoints()
        assert net.endpoints() is ends and not ends.flags.writeable
        with pytest.raises(ValueError):
            ends[0, 0] = 5.0
        index = TrajIndex.from_columns(net, [0], [1], [0.0], [1.0])
        assert index.rtree.ends is index.network.endpoints()

    @pytest.mark.parametrize("pair", [(1, 3), (-1, 0)])
    def test_unknown_node_rejected(self, pair):
        nodes = [Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)]
        with pytest.raises(IngestionError, match=rf"edge 1 references unknown node \({pair[0]}, {pair[1]}\)"):
            Network(nodes, [(0, 1), pair])

    def test_zero_length_segment_rejected(self):
        nodes = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 0.0)]
        with pytest.raises(InvalidInputError, match=r"segment 1 has zero length at Point\(x=1.0, y=0.0\)"):
            Network(nodes, [(0, 1), (1, 2)])


class TestTrajectories:
    def test_zero_objects(self):
        net = gen_grid_network(3, 3)
        assert gen_trajectories(net, 0, 10.0, seed=1) == []

    def test_unit_walk_without_jitter(self):
        net = gen_grid_network(3, 3)
        records = gen_trajectories(net, 1, 10.0, seed=2, jitter=0.0)
        assert len(records) == 10
        intervals = [(r.interval.start, r.interval.end) for _, r in records]
        assert intervals == [(float(i), float(i + 1)) for i in range(10)]

    def test_deterministic(self):
        net = gen_grid_network(6, 6)
        a = gen_trajectories(net, 12, 25.0, seed=33)
        b = gen_trajectories(net, 12, 25.0, seed=33)
        assert a == b
        c = gen_trajectories(net, 12, 25.0, seed=34)
        assert a != c

    def test_continuity_and_adjacency(self):
        net = gen_grid_network(6, 6)
        records = gen_trajectories(net, 10, 30.0, seed=4)
        per_object: dict[int, list] = {}
        for eid, rec in records:
            per_object.setdefault(rec.object_id, []).append((rec.interval.start, rec.interval.end, eid))
        for obj, rows in per_object.items():
            rows.sort()
            for (s0, e0, eid0), (s1, e1, eid1) in zip(rows, rows[1:]):
                assert e0 == s1  # exact abutment
                assert set(net.edge_nodes[eid0]) & set(net.edge_nodes[eid1])  # shared node


class TestWorkloads:
    def test_fixed_lengths_constant(self):
        spec = WorkloadSpec(kind="fixed_size", n=2000, seed=5, horizon=500.0, length=7.0)
        records = gen_interval_workload(spec)
        lengths = np.array([r.interval.end - r.interval.start for r in records])
        # generated endpoints are quantized to 8 decimals, so the nominal
        # constant length is reproduced to that resolution
        assert np.abs(lengths - 7.0).max() <= 1e-8

    def test_random_lengths_roughly_uniform(self):
        spec = WorkloadSpec(kind="random_size", n=20_000, seed=6, horizon=1000.0)
        records = gen_interval_workload(spec)
        lengths = np.array([r.interval.end - r.interval.start for r in records])
        counts, _ = np.histogram(lengths, bins=20, range=(0, 1000))
        expected = len(records) / 20
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 43.8  # chi-square 0.999 quantile at 19 dof

    def test_trajectory_lengths_clustered(self):
        spec = WorkloadSpec(kind="trajectory", n=5000, seed=7, horizon=1000.0, mean_length=10.0, jitter=0.05)
        records = gen_interval_workload(spec)
        lengths = np.array([r.interval.end - r.interval.start for r in records])
        assert lengths.min() >= 10.0 * 0.95 - 1e-8
        assert lengths.max() <= 10.0 * 1.05 + 1e-8

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(kind="bogus", n=10, seed=1)
        with pytest.raises(ConfigError):
            WorkloadSpec(kind="fixed_size", n=10, seed=1, horizon=0.0)


class TestFiles:
    def test_network_roundtrip(self, tmp_path):
        net = gen_grid_network(4, 5, 1.5)
        path = str(tmp_path / "net.txt")
        write_network(net, path)
        back = read_network(path)
        assert back.nodes == net.nodes
        assert back.edges == net.edges
        assert back.edge_nodes == net.edge_nodes

    def test_records_roundtrip(self, tmp_path):
        net = gen_grid_network(4, 4)
        records = gen_trajectories(net, 6, 12.0, seed=8)
        path = str(tmp_path / "records.txt")
        write_records(records, path)
        assert_same_columns(read_record_columns(path), record_columns(records))

    def test_queries_roundtrip(self, tmp_path):
        net = gen_grid_network(4, 4)
        queries = gen_queries(net.bounds(), 20.0, "range_equal", 40, seed=9)
        path = str(tmp_path / "queries.txt")
        write_queries(queries, path)
        assert read_queries(path) == queries

    def test_malformed_line_cites_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("r 0 0 1.0 2.0\nr 1 oops 1.0 2.0\n")
        with pytest.raises(ParseError, match="bad.txt:2"):
            read_record_columns(str(path))

    def test_unknown_edge_reference(self, tmp_path):
        # the reader parses; the build rejects the reference
        path = tmp_path / "refs.txt"
        path.write_text("r 0 99 1.0 2.0\n")
        columns = read_record_columns(str(path))
        with pytest.raises(IngestionError, match="record 0 .*unknown segment id 99"):
            TrajIndex.from_columns(gen_grid_network(2, 6), *columns)

    def test_malformed_network_line(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("nodes 1 edges 1\nn 0 0.0 0.0\ne 0 0 5\n")
        with pytest.raises(ParseError, match="net.txt:3"):
            read_network(str(path))

    def test_zero_length_network_edge(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("nodes 3 edges 2\nn 0 0.0 0.0\nn 1 1.0 0.0\nn 2 1.0 0.0\ne 0 0 1\ne 1 2 1\n")
        with pytest.raises(ParseError, match="net.txt:6: segment 1 has zero length"):
            read_network(str(path))

    def test_network_coordinates_up_to_2_to_the_1022(self, tmp_path):
        path = tmp_path / "net.txt"
        bound = 2.0**1022
        path.write_text(f"n 0 {bound!r} {-bound!r}\nn 1 0.0 0.0\ne 0 0 1\n")
        assert read_network(str(path)).nodes[0] == Point(bound, -bound)
        above = float(np.nextafter(bound, np.inf))
        for x, y in ((above, 0.0), (0.0, -above), ("inf", 0.0), ("nan", 0.0)):
            path.write_text(f"n 0 0.0 0.0\nn 1 {x!r} {y!r}\ne 0 0 1\n".replace("'", ""))
            with pytest.raises(ParseError, match=r"net.txt:2: point coordinates .* at most 2\*\*1022"):
                read_network(str(path))

    def test_network_missing_its_last_edge(self, tmp_path):
        # a cut file used to load with 179 of its 180 edges
        path = tmp_path / "net.txt"
        write_network(gen_grid_network(10, 10), str(path))
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(ParseError, match="net.txt:1: header declares 100 nodes and 180 edges, "
                                             "the file has 100 and 179"):
            read_network(str(path))

    @pytest.mark.parametrize("header", ["nodes 1 edges", "nodes 1 links 1", "nodes one edges 1",
                                        "nodes 1 edges 1\nnodes 1 edges 1"])
    def test_malformed_network_header(self, tmp_path, header):
        path = tmp_path / "net.txt"
        path.write_text(f"n 0 0.0 0.0\n{header}\nn 1 1.0 0.0\ne 0 0 1\n")
        with pytest.raises(ParseError, match=f"net.txt:{header.count(chr(10)) + 2}:"):
            read_network(str(path))

    def test_network_without_header(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("n 0 0.0 0.0\nn 1 1.0 0.0\ne 0 0 1\n")
        assert read_network(str(path)).edge_nodes == [(0, 1)]


class TestRecordColumns:
    """``read_record_columns`` against the per-line reference reader."""

    @pytest.fixture
    def written(self, tmp_path):
        net = gen_grid_network(8, 8)
        path = tmp_path / "records.txt"
        write_records(gen_trajectories(net, 12, 20.0, seed=7), str(path))
        return path

    def test_columns_match_reference(self, written):
        assert_same_columns(read_record_columns(str(written)), reference_record_columns(str(written)))

    def test_blank_lines_crlf_and_trailing_spaces(self, written, tmp_path):
        lines = written.read_text().splitlines()
        messy = tmp_path / "messy.txt"
        messy.write_bytes("".join(f"\r\n  \t\r\n{line}  \t\r\n" for line in lines).encode("ascii"))
        want = reference_record_columns(str(written))
        assert_same_columns(reference_record_columns(str(messy)), want)
        assert_same_columns(read_record_columns(str(messy)), want)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n  \n")
        assert [len(c) for c in read_record_columns(str(path))] == [0, 0, 0, 0]

    @pytest.mark.parametrize("bad", [
        "r 3 1 1.0", "r 3 1 1.0 2.0 3.0", "q 3 1 1.0 2.0", "R 3 1 1.0 2.0", "r 3.0 1 1.0 2.0",
        "r 3 oops 1.0 2.0", "r 3 1 oops 2.0", "r 0x10 1 1.0 2.0", f"r {2**63} 1 1.0 2.0",
        f"r 3 {-(2**63) - 1} 1.0 2.0", "r 3 1 1.0\n2.0",
    ])
    def test_malformed_line(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"r 0 0 1.0 2.0\n\nr 1 0 1.0 2.0\n{bad}\nr 2 0 1.0 2.0\n")
        with pytest.raises(ParseError) as want:
            reference_record_columns(str(path))
        with pytest.raises(ParseError) as got:
            read_record_columns(str(path))
        assert got.value.line_no == want.value.line_no == 4
        assert str(got.value).startswith(f"{path}:4: ")

    def test_first_malformed_line_wins(self, tmp_path):
        # a bad number before a bad field count: the number's line
        path = tmp_path / "bad.txt"
        path.write_text("r 0 0 1.0 2.0\nr 1 0 oops 2.0\nr 2 0 1.0 2.0\nr 3 0 1.0\n")
        with pytest.raises(ParseError, match="bad.txt:2:"):
            read_record_columns(str(path))

    def test_values_are_not_checked(self, tmp_path):
        # negative ids and inverted or non-finite times are for the build to reject
        path = tmp_path / "odd.txt"
        path.write_text("r -1 -2 5.0 1.0\nr 0 0 nan inf\n")
        segments, objects, starts, ends = read_record_columns(str(path))
        assert segments.tolist() == [-2, 0] and objects.tolist() == [-1, 0]
        assert starts[0] == 5.0 and np.isnan(starts[1]) and ends.tolist() == [1.0, np.inf]
