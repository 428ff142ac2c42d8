import fnmatch
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from trajindex import EliasFanoSeq, InvalidInputError
from trajindex.eliasfano import SELECT_SAMPLE, FlatEliasFano, concat_ranges

from helpers import reference_encoding


def bound_bits(n: int, u: int) -> int:
    if n == 0:
        return 0
    return 2 * n + n * math.ceil(math.log2(u / n)) if u > n else 2 * n


def random_sequences(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        u = int(rng.choice([10, 100, 10_000, 10**6, 10**10]))
        n = int(rng.integers(0, min(u, 2000)))
        values = np.sort(rng.choice(u, size=n, replace=False)) if n else np.zeros(0, np.int64)
        yield values.astype(np.int64), u


class TestBuild:
    def test_empty(self):
        seq = EliasFanoSeq.from_values([], 100)
        assert seq.n == 0
        for x in (-1, 0, 50, 99, 1000):
            assert seq.rank(x) == 0
        assert seq.payload_bits == 0

    def test_example_roundtrip(self):
        seq = EliasFanoSeq.from_values([3, 7, 42], 64)
        assert seq.to_array().tolist() == [3, 7, 42]
        assert seq.rank(7) == 2
        assert seq.rank(2) == 0
        assert seq.rank(63) == 3

    def test_dense_case(self):
        seq = EliasFanoSeq.from_values(np.arange(1000), 1000)
        assert (seq.to_array() == np.arange(1000)).all()
        assert seq.payload_bits <= bound_bits(1000, 1000)

    def test_rejects_non_monotone(self):
        with pytest.raises(InvalidInputError):
            EliasFanoSeq.from_values([3, 3, 5], 10)
        with pytest.raises(InvalidInputError):
            EliasFanoSeq.from_values([5, 3], 10)

    def test_rejects_out_of_universe(self):
        with pytest.raises(InvalidInputError):
            EliasFanoSeq.from_values([0, 10], 10)


class TestRank:
    def test_matches_binary_search(self):
        for values, u in random_sequences(7):
            seq = EliasFanoSeq.from_values(values, u)
            probes = np.concatenate([
                values,
                values - 1,
                values + 1,
                np.random.default_rng(1).integers(0, u, 50),
                [0, u - 1, u, u + 5],
            ]) if len(values) else np.array([0, 1, u - 1, u])
            want = np.searchsorted(values, np.minimum(probes, u - 1), side="right") * (probes >= 0)
            assert seq.rank(probes).tolist() == want.tolist()

    def test_monotone_and_total(self):
        seq = EliasFanoSeq.from_values([5, 9, 12, 400], 1000)
        ranks = [seq.rank(x) for x in range(0, 1000, 7)]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        assert seq.rank(999) == 4

    def test_access_matches(self):
        # the i-th value is read from the decoded sequence
        for values, u in random_sequences(9):
            seq = EliasFanoSeq.from_values(values, u)
            assert seq.to_array().tolist() == values.tolist()


class TestSpace:
    def test_payload_within_bound(self):
        for values, u in random_sequences(11):
            seq = EliasFanoSeq.from_values(values, u)
            assert seq.payload_bits <= bound_bits(len(values), u)

    def test_select_overhead_within_half_bit_per_element(self):
        for values, u in random_sequences(13):
            seq = EliasFanoSeq.from_values(values, u)
            assert seq.select_overhead_bits <= 0.5 * max(len(values), 1)

    def test_thousand_values_in_a_million(self):
        rng = np.random.default_rng(15)
        values = np.sort(rng.choice(10**6, size=1000, replace=False))
        seq = EliasFanoSeq.from_values(values, 10**6)
        assert seq.payload_bits <= 12_000  # 2n + n*ceil(log2(u/n)) at n=1000, u=1e6


def family(seed: int, universe: int, count: int):
    """``count`` sequences over one universe: random, clustered and dense runs."""
    rng = np.random.default_rng(seed)
    seqs = []
    for q in range(count):
        n = int(rng.integers(1, min(universe, 1200) + 1))
        if q % 3 == 1 and universe >= 8 * n:  # clustered: buckets of many values
            lo = int(rng.integers(0, universe - 8 * n + 1))
            values = lo + np.sort(rng.choice(8 * n, size=n, replace=False))
        elif q % 3 == 2:  # a dense run: one bucket can outgrow a select's scan window
            lo = int(rng.integers(0, universe - n + 1))
            values = lo + np.arange(n)
        else:
            values = np.sort(rng.choice(universe, size=n, replace=False))
        seqs.append(values.astype(np.int64))
    return seqs


def sequence_bits(seq: EliasFanoSeq) -> tuple:
    """The low bits, high bits and select samples of one sequence."""
    flat, q = seq.flat, seq.q

    def bits(words, base):
        unpacked = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
        return unpacked[int(base[q]): int(base[q + 1])].tolist()

    samples = flat.samples[int(flat.sample_base[q]): int(flat.sample_base[q + 1])].tolist()
    return bits(flat.lows, flat.low_base), bits(flat.highs, flat.high_base), samples


def assert_words_alike(flat: FlatEliasFano, reference: FlatEliasFano):
    """The compiled encoder's words against the numpy reference's."""
    for name in ("widths", "low_base", "high_base", "sample_base", "lows", "highs", "samples"):
        got, want = getattr(flat, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), name


class TestFlat:
    @pytest.mark.parametrize("universe", [1, 3, 100, 10**4, 10**6])
    def test_batched_rank_matches_scalar_rank(self, universe):
        seqs = family(universe, universe, 9)
        flat = FlatEliasFano.from_values(np.concatenate(seqs), [len(v) for v in seqs], universe)
        assert_words_alike(flat, reference_encoding(np.concatenate(seqs), [len(v) for v in seqs], universe))
        rng = np.random.default_rng(1)
        lanes = rng.integers(0, len(seqs), 3000)
        x = rng.integers(-2, universe + 3, 3000)
        stored = np.concatenate(seqs)
        x[:1500] = stored[rng.integers(0, len(stored), 1500)] + rng.integers(-1, 2, 1500)
        want = [np.searchsorted(seqs[q], min(v, universe - 1), side="right") if v >= 0 else 0
                for q, v in zip(lanes.tolist(), x.tolist())]
        assert flat.rank(lanes, x).tolist() == want

    def test_sequences_equal_stand_alone_encoding(self):
        universe = 10**6
        seqs = family(3, universe, 12)
        flat = FlatEliasFano.from_values(np.concatenate(seqs), [len(v) for v in seqs], universe)
        for q, values in enumerate(seqs):
            view, alone = flat.sequence(q), EliasFanoSeq.from_values(values, universe)
            assert (view.n, view.width) == (alone.n, alone.width)
            assert view.to_array().tolist() == values.tolist()
            assert sequence_bits(view) == sequence_bits(alone)
            assert flat.payload_bits()[q] == alone.payload_bits
            assert flat.select_overhead_bits()[q] == alone.select_overhead_bits


class TestEncoder:
    """The compiled encoder against the numpy packing it replaced."""

    @pytest.mark.parametrize("width", range(62))
    def test_matches_reference_at_every_width(self, width):
        # u < 2**62, so no sequence has 62 low bits or more
        rng = np.random.default_rng(width)
        k = min(10, 61 - width)  # a sequence of 2**k values has this width
        u = int(rng.integers(1 << (width + k), 1 << (width + k + 1)))
        sizes = [1 << k, 1, *rng.integers(1, (1 << k) + 1, 5).tolist(), 3]
        seqs = [np.sort(rng.choice(u, size=n, replace=False)) for n in sizes[:-1]] + [np.array([0, 1, u - 1])]
        values = np.concatenate(seqs)
        flat = FlatEliasFano.from_values(values, sizes, u)
        assert flat.widths[0] == width
        assert_words_alike(flat, reference_encoding(values, sizes, u))
        w = np.repeat(flat.widths.astype(np.int64), sizes)
        index = concat_ranges(np.zeros(len(sizes), dtype=np.int64), np.array(sizes))
        pos = np.repeat(flat.low_base[:-1].astype(np.int64), sizes) + index * w
        assert (pos % 64 + w > 64).any()  # some low parts cross a word boundary

    def test_rejects_values_outside_the_universe(self):
        for bad, at in ((10, 3), (-1, 2), (2**62, 4)):
            values = [1, 5, 2, 3, 7]
            values[at] = bad
            with pytest.raises(InvalidInputError, match=f"value {at} .*outside \\[0, 10\\)"):
                FlatEliasFano.from_values(values, [2, 3], 10)
        with pytest.raises(InvalidInputError, match="universe"):
            FlatEliasFano.from_values([0], [1], 0)
        for sizes in ([2, 2], [2, 0, 3], [4, 2, -1]):
            with pytest.raises(InvalidInputError, match="sizes"):
                FlatEliasFano.from_values([1, 5, 2, 3, 7], sizes, 10)
        with pytest.raises(InvalidInputError, match="outside"):
            EliasFanoSeq.from_values([-3, 4], 10)
        empty = FlatEliasFano.from_values([], [], 0)
        assert len(empty.widths) == 0 and empty.highs.tolist() == []


def decoded_rank(flat: FlatEliasFano, lanes, x) -> list:
    """The oracle: ``np.searchsorted`` on each lane's decoded values."""
    values = [flat.sequence(q).to_array() for q in range(len(flat.widths))]
    return [int(np.searchsorted(values[q], min(v, flat.u - 1), side="right")) if v >= 0 else 0
            for q, v in zip(np.asarray(lanes).tolist(), np.asarray(x).tolist())]


def every_lane(flat: FlatEliasFano, x) -> tuple:
    """Every sequence against every x."""
    lanes = np.repeat(np.arange(len(flat.widths)), len(x))
    return lanes, np.tile(np.asarray(x, dtype=np.int64), len(flat.widths))


def from_high_bits(bits: str, width: int) -> np.ndarray:
    """The values whose high part is ``bits``: a 1 is a value, a 0 closes a
    bucket, and the values of a bucket take the low parts 0, 1, 2, ..."""
    values, bucket, low = [], 0, 0
    for bit in bits:
        if bit == "1":
            values.append((bucket << width) | low)
            low += 1
        else:
            bucket, low = bucket + 1, 0
    return np.array(values, dtype=np.int64)


def assert_every_x_ranks_right(values: np.ndarray, universe: int, width: int):
    """The rank of one sequence at every x from -1 to u + 1 against
    ``np.searchsorted``, on a codec that holds this sequence alone, so its
    high part starts at bit 0 of a word."""
    flat = FlatEliasFano.from_values(values, [len(values)], universe)
    assert flat.widths.tolist() == [width]
    x = np.arange(-1, universe + 2)
    want = np.searchsorted(values, np.minimum(x, universe - 1), side="right")
    got = flat.rank(np.zeros(len(x), dtype=np.int64), x)
    assert got.tolist() == np.where(x < 0, 0, want).tolist()


class TestKernelEdges:
    def test_width_zero_and_unit_universe(self):
        dense = np.arange(50)  # n = u: every bucket holds at most one value and no low bits
        flat = FlatEliasFano.from_values(np.concatenate([dense, [0], [0]]), [50, 1, 1], 50)
        assert flat.widths.tolist() == [0, 5, 5]
        lanes, x = every_lane(flat, np.arange(-2, 53))
        assert flat.rank(lanes, x).tolist() == decoded_rank(flat, lanes, x)
        unit = FlatEliasFano.from_values([0, 0], [1, 1], 1)
        lanes, x = every_lane(unit, [-5, -1, 0, 1, 2**40])
        assert unit.rank(lanes, x).tolist() == [0, 0, 1, 1, 1] * 2

    def test_x_at_the_universe_edges(self):
        universe = 10**5
        seqs = family(5, universe, 8)
        flat = FlatEliasFano.from_values(np.concatenate(seqs), [len(v) for v in seqs], universe)
        lanes, x = every_lane(flat, [-(2**62), -2, -1, 0, universe - 2, universe - 1, universe, universe + 1, 2**62])
        got = flat.rank(lanes, x).tolist()
        assert got == decoded_rank(flat, lanes, x)
        assert got[6::9] == [len(v) for v in seqs]  # x = u - 1 counts every value

    def test_bucket_at_a_select_sample(self):
        rng = np.random.default_rng(6)
        universe = 10**6
        values = np.sort(rng.choice(universe, size=1000, replace=False))
        flat = FlatEliasFano.from_values(values, [1000], universe)
        width = int(flat.widths[0])
        assert ((universe - 1) >> width) + 1 > 10 * SELECT_SAMPLE
        x = []
        for k in range(1, 11):  # x's bucket starts at sampled zero k * 128, or just before or after it
            for high in (k * SELECT_SAMPLE - 1, k * SELECT_SAMPLE, k * SELECT_SAMPLE + 1, k * SELECT_SAMPLE + 2):
                x += [high << width, (high << width) - 1, (high << width) + (1 << width) - 1]
        lanes = np.zeros(len(x), dtype=np.int64)
        assert flat.rank(lanes, x).tolist() == decoded_rank(flat, lanes, x)

    @pytest.mark.parametrize("ones", range(65))
    def test_select_at_every_bit_and_in_word_rank(self, ones):
        """The high part's first word holds `ones` values in bucket 0, then
        zeros, so the rank of a bucket b <= 64 - ones selects zero b - 1 at
        bit ones + b - 1 with b - 1 zeros below it in the word: over every
        `ones`, the selected zero lands at every bit 0 .. 63 with every
        in-word rank up to the bit.  Buckets of one value, then empty ones,
        follow, as many as keep the width at 6."""
        empty = max(0, 2 * ones - 64)
        bits = "1" * ones + "0" * (64 - ones) + "10" * 65 + "0" * empty
        assert_every_x_ranks_right(from_high_bits(bits, 6), bits.count("0") << 6, 6)

    def test_dense_runs_and_word_edges(self):
        """Width 0, dense runs of values whose gaps shift the ones and zeros
        across word edges; buckets 129 and 257 are empty, so the bit right
        after each of the zeros that the first two select samples point at
        is a zero too."""
        values = np.setdiff1d(np.arange(400), [100, 129, 200, 201, 257, 300])
        assert_every_x_ranks_right(values, 400, 0)
        # width 3: bucket 60's eight values run across the edge of the first word
        bits = "0" * 60 + "1" * 8 + "0" + "10" * 60
        assert_every_x_ranks_right(from_high_bits(bits, 3), bits.count("0") << 3, 3)

    def test_buckets_longer_than_a_word(self):
        universe = 10**6
        rng = np.random.default_rng(8)
        spread = np.sort(rng.choice(universe, size=1000, replace=False))
        width = int(FlatEliasFano.from_values(spread, [1000], universe).widths[0])
        bucket = (37 << width) + np.arange(0, 1 << width, 2)  # 256 values share bucket 37
        values = np.union1d(spread[(spread >> width) != 37][: 1000 - len(bucket)], bucket)
        flat = FlatEliasFano.from_values(values, [len(values)], universe)
        assert flat.widths[0] == width
        x = np.arange((36 << width) - 3, (39 << width) + 3)
        lanes = np.zeros(len(x), dtype=np.int64)
        assert flat.rank(lanes, x).tolist() == decoded_rank(flat, lanes, x)

    def test_int64_offsets(self):
        universe = 10**6
        seqs = family(10, universe, 9)
        flat = FlatEliasFano.from_values(np.concatenate(seqs), [len(v) for v in seqs], universe)
        rng = np.random.default_rng(2)
        lanes, x = rng.integers(0, len(seqs), 3000), rng.integers(-1, universe + 1, 3000)
        want = flat.rank(lanes, x).tolist()
        # the bases an index gets once it passes 2^32 bits
        flat.low_base, flat.high_base, flat.sample_base = (
            b.astype(np.int64) for b in (flat.low_base, flat.high_base, flat.sample_base))
        flat._bind()
        assert flat.c_struct.offset_size == 8
        assert flat.rank(lanes, x).tolist() == want == decoded_rank(flat, lanes, x)
        values = np.concatenate(seqs)
        reference = reference_encoding(values, [len(v) for v in seqs], universe)
        assert flat.lows.tolist() == reference.lows.tolist() and flat.highs.tolist() == reference.highs.tolist()

    def test_lane_out_of_range_raises(self):
        flat = FlatEliasFano.from_values([1, 5, 2, 3], [2, 2], 10)
        for q in (2, -1, 2**40):
            with pytest.raises(IndexError, match="no sequence"):
                flat.rank(np.array([0, q, 1]), np.array([3, 3, 3]))
        with pytest.raises(ValueError):
            flat.rank(np.array([0, 1]), np.array([3]))
        assert flat.rank(np.array([0, 1]), np.array([3, 3])).tolist() == [1, 2]


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_copy(tmp_path) -> dict:
    """A copy of the package without a built kernel, and an environment importing it."""
    shutil.copytree(SRC / "trajindex", tmp_path / "trajindex", ignore=shutil.ignore_patterns("__pycache__"))
    return {**os.environ, "PYTHONPATH": str(tmp_path)}


def test_kernel_builds_once_without_warnings(tmp_path):
    """A fresh copy of the package compiles its rank kernel, warning-free,
    at the first import into ``__pycache__`` and reuses it at the next."""
    env = fresh_copy(tmp_path)
    show = "import os, trajindex.kernel as k; p = k._KERNEL.__file__; print(p, os.stat(p).st_mtime_ns)"

    def run():
        proc = subprocess.run([sys.executable, "-c", show], env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc

    first = run()
    assert "warning" not in (first.stdout + first.stderr).lower(), first.stdout + first.stderr
    path, mtime = first.stdout.split()
    assert Path(path).parent == tmp_path / "trajindex" / "__pycache__"
    second = run()
    assert second.stdout.split() == [path, mtime]
    assert second.stderr == ""


def test_a_build_removes_the_older_builds(tmp_path):
    """A build of changed kernel sources removes the earlier build once it
    is over a minute old, and keeps a younger one, which another process
    may be about to load."""
    env = fresh_copy(tmp_path)
    show = "import trajindex.kernel as k; print(k._KERNEL.__file__)"

    def build():
        proc = subprocess.run([sys.executable, "-c", show], env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return Path(proc.stdout.strip())

    old = build()
    aged = time.time() - 120
    os.utime(old, (aged, aged))
    young = old.with_name("_eliasfano_rank_0000000000000000" + old.name[old.name.index("."):])
    young.write_bytes(b"")
    with open(tmp_path / "trajindex" / "eliasfano_rank.c", "a") as fh:
        fh.write("/* changed */\n")
    new = build()
    assert new != old
    assert sorted(old.parent.glob("_eliasfano_rank_*")) == sorted([new, young])


def test_package_data_holds_every_kernel_file():
    """An installed package compiles its kernels at the first import, so the
    package data in ``pyproject.toml`` must take every file ``kernel.py``
    reads: each path it names."""
    tomllib = pytest.importorskip("tomllib")
    import trajindex.kernel as k

    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    patterns = pyproject["tool"]["setuptools"]["package-data"]["trajindex"]
    read = [v for v in vars(k).values() if isinstance(v, Path)]
    assert {p.name for p in read} >= {"eliasfano_rank.c", "kernel.h"}
    for path in read:
        assert path.parent == Path(k.__file__).parent and path.exists(), path
        assert any(fnmatch.fnmatch(path.name, pattern) for pattern in patterns), (path.name, patterns)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_source_is_clean_under_strict_warnings():
    """The kernels compile without a warning under the strict flags, so
    sign, width and shadowing slips show up at once."""
    flags = ["-fsyntax-only", "-Wall", "-Wextra", "-Wshadow", "-Wconversion", "-Werror"]
    proc = subprocess.run(["cc", *flags, str(SRC / "trajindex" / "eliasfano_rank.c")], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_kernel_counts_bits_without_a_library_call():
    """The rank counts bits in plain C.  Without an ISA flag, which the
    kernel's flags leave out, GCC lowers every ``__builtin_popcount*`` to a
    call into libgcc's ``__popcountdi2``, so the source names none, and the
    built module names no such function.  The union's bit scan counts
    trailing zeros by ``__builtin_ctzll``, which compiles to an instruction
    where libgcc's ``__ctzdi2`` would be a call, so the module names no
    ``__ctzdi2`` either."""
    import trajindex.kernel as k

    assert "__builtin_popcount" not in (SRC / "trajindex" / "eliasfano_rank.c").read_text()
    module = Path(k._KERNEL.__file__).read_bytes()
    assert b"__popcountdi2" not in module
    assert b"__ctzdi2" not in module


def test_import_names_a_missing_cffi_or_compiler(tmp_path):
    env = fresh_copy(tmp_path)
    (tmp_path / "stub").mkdir()
    (tmp_path / "stub" / "cffi.py").write_text("raise ImportError('stubbed out')\n")
    cases = (({"PYTHONPATH": os.pathsep.join((str(tmp_path / "stub"), str(tmp_path)))}, "needs cffi"),
             ({"CC": str(tmp_path / "no-such-compiler")}, "a C compiler is required"))
    for extra, cause in cases:
        proc = subprocess.run([sys.executable, "-c", "import trajindex"], env={**env, **extra}, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode != 0
        assert "ImportError" in proc.stderr and cause in proc.stderr, proc.stderr[-2000:]
    assert not list((tmp_path / "trajindex" / "__pycache__").glob("_eliasfano_rank_*"))
