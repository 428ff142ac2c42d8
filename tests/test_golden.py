"""Golden bytes: the saved file of a fixed, hand-written index per backend.

The network and records below are written out in full, with no generator,
so a change to the ``.tjix`` bytes of any backend fails here.  When the
format changes on purpose, the new digests are taken from ``save()`` and
the change is recorded with the format version.  Version 5 changed all
four digests (the version word) and shortened the ``iis`` file from 830 to
722 bytes: its temporal block holds the set index's shape only, with no
universe, padding or Elias-Fano words.
"""

import hashlib

import pytest

from trajindex import IntervalRecord, Network, Point, ScaleConfig, TimeInterval, TrajIndex, TrajIndexConfig

# sha256 and length of save() per backend, format version 5
GOLDEN = {
    "linear": ("1b4f74689c85d844fe2c49bdc8ea98211427982d891d90bceea32ea702654f25", 670),
    "interval_tree": ("bb15ff9ea111fd8fddf01d1dbe293a37c54b66666bfccf3465af90a46afcd996", 670),
    "schmidt": ("e71273f1f09a5aefcf9c192bf264848741c5f6536f94219824bf8a3f0efc3029", 670),
    "iis": ("312a43fa1d7d591da12894fa4bc85af754d8d988dd322e081111afaaa0c940e3", 722),
}


def golden_index(backend: str) -> TrajIndex:
    """Six nodes and seven edges, one of them diagonal and one without
    records; nested, identical and touching intervals at 3 digits."""
    nodes = [Point(0.0, 0.0), Point(10.0, 0.0), Point(20.0, 0.0),
             Point(0.0, 10.0), Point(10.0, 10.0), Point(20.0, 12.5)]
    pairs = [(0, 1), (1, 2), (0, 3), (1, 4), (3, 4), (4, 5), (2, 5)]
    network = Network(nodes, pairs)
    rows = [
        (0, 1, 0.0, 5.25), (0, 2, 1.0, 2.0), (0, 3, 1.5, 1.5), (0, 4, 1.5, 1.5), (0, 5, 3.0, 9.125),
        (1, 1, 5.25, 8.0), (1, 6, 0.001, 0.002), (1, 7, 12.0, 30.5),
        (2, 2, 2.0, 4.75), (2, 8, 2.5, 3.0), (2, 9, 2.75, 3.5), (2, 10, 0.0, 40.0),
        (3, 3, 1.5, 6.0), (3, 11, 7.0, 7.0),
        (4, 4, 1.5, 2.5), (4, 12, 17.333, 18.0),
        (5, 5, 9.125, 10.0), (5, 4, 2.5, 2.5), (5, 13, 0.0, 0.0), (5, 14, 20.0, 21.0), (5, 15, 20.5, 20.75),
    ]
    records = [(edge, IntervalRecord(obj, TimeInterval(t0, t1))) for edge, obj, t0, t1 in rows]
    return TrajIndex.build(network, records, TrajIndexConfig(temporal_backend=backend, scale=ScaleConfig(3)))


@pytest.mark.parametrize("backend", sorted(GOLDEN))
def test_saved_bytes_are_golden(backend, tmp_path):
    path = tmp_path / f"{backend}.tjix"
    golden_index(backend).save(str(path))
    data = path.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN[backend]
    TrajIndex.load(str(path)).save(str(path))
    assert path.read_bytes() == data
