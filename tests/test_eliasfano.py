import math

import numpy as np
import pytest

from trajindex import EliasFanoSeq, FormatError, InvalidInputError
from trajindex.eliasfano import FlatEliasFano


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


class TestFlat:
    @pytest.mark.parametrize("universe", [1, 3, 100, 10**4, 10**6])
    def test_batched_rank_matches_scalar_rank(self, universe):
        seqs = family(universe, universe, 9)
        flat = FlatEliasFano.from_values(np.concatenate(seqs), [len(v) for v in seqs], universe)
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
        assert flat.sizes.tolist() == [len(v) for v in seqs]
        for q, values in enumerate(seqs):
            view, alone = flat.sequence(q), EliasFanoSeq.from_values(values, universe)
            assert (view.n, view.width) == (alone.n, alone.width)
            assert view.to_array().tolist() == values.tolist()
            assert sequence_bits(view) == sequence_bits(alone)
            assert flat.payload_bits()[q] == alone.payload_bits
            assert flat.select_overhead_bits()[q] == alone.select_overhead_bits

    def test_words_round_trip_and_checks(self):
        universe = 10**5
        seqs = family(4, universe, 6)
        sizes = [len(v) for v in seqs]
        flat = FlatEliasFano.from_values(np.concatenate(seqs), sizes, universe)
        n_low, n_high = FlatEliasFano.word_counts(universe, np.array(sizes))
        lows, highs = flat.lows[:n_low], flat.highs[:n_high]
        again = FlatEliasFano.from_words(universe, sizes, lows, highs)
        assert (again.samples == flat.samples).all() and (again.high_base == flat.high_base).all()
        one = int(np.flatnonzero(highs)[len(highs) // 2])
        cleared = highs.copy()
        cleared[one] &= cleared[one] - np.uint64(1)
        with pytest.raises(FormatError):
            FlatEliasFano.from_words(universe, sizes, lows, cleared)
        moved = highs.copy()
        moved[-1] |= np.uint64(1) << np.uint64(63)  # a bit past the last sequence
        with pytest.raises(FormatError):
            FlatEliasFano.from_words(universe, sizes, lows, moved)
