"""Compressed monotone integer sequences with rank support.

A sequence of n strictly increasing ticks over a universe of size u is
split per element into ``width = floor(log2(u / n))`` low bits, stored in
a packed array, and a high part stored in unary inside a bitvector with
one 1-bit per element and one 0-bit per high bucket.  The payload is at
most ``2n + n * ceil(log2(u / n))`` bits; on top of that the structure
keeps a small sampled select directory (one 32-bit position every
SELECT_SAMPLE zeros) so that rank runs in near-constant time.

:class:`EliasFanoSeq` is one such sequence with a scalar rank.
:class:`FlatEliasFano` packs many of them back to back and ranks any
number of (sequence, value) lanes in one batched call.
"""

from __future__ import annotations

import struct

import numpy as np

from .core import FormatError, InvalidInputError

SELECT_SAMPLE = 128

_HEADER = struct.Struct("<QQB7x")  # n, u, low-bit width, padding to 8 bytes


def _pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Pack ``width``-bit integers LSB-first into little-endian 64-bit words."""
    n = len(values)
    if width == 0 or n == 0:
        return np.zeros(0, dtype=np.uint64)
    total_bits = n * width
    words = np.zeros((total_bits + 63) // 64 + 1, dtype=np.uint64)
    v = values.astype(np.uint64)
    bitpos = np.arange(n, dtype=np.uint64) * np.uint64(width)
    word_idx = (bitpos >> np.uint64(6)).astype(np.int64)
    offset = bitpos & np.uint64(63)
    np.bitwise_or.at(words, word_idx, v << offset)
    # part of the value that spills into the next word
    spill = np.where(offset == 0, np.uint64(0), v >> (np.uint64(64) - np.where(offset == 0, np.uint64(1), offset)))
    np.bitwise_or.at(words, word_idx + 1, spill)
    return words[: (total_bits + 63) // 64].copy()


def _unpack_bits(words: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits`."""
    if width == 0 or n == 0:
        return np.zeros(n, dtype=np.int64)
    padded = np.concatenate([words, np.zeros(1, dtype=np.uint64)])
    bitpos = np.arange(n, dtype=np.uint64) * np.uint64(width)
    word_idx = (bitpos >> np.uint64(6)).astype(np.int64)
    offset = bitpos & np.uint64(63)
    lo = padded[word_idx] >> offset
    hi = np.where(
        offset == 0,
        np.uint64(0),
        padded[word_idx + 1] << (np.uint64(64) - np.where(offset == 0, np.uint64(1), offset)),
    )
    mask = np.uint64((1 << width) - 1)
    return ((lo | hi) & mask).astype(np.int64)


class EliasFanoSeq:
    """A strictly increasing sequence of ticks in ``[0, u)`` with rank."""

    __slots__ = ("n", "u", "width", "_lows", "_high_words", "_high_len", "_num_zeros", "_samples")

    def __init__(self, n, u, width, lows, high_words, high_len, num_zeros, samples):
        self.n = n
        self.u = u
        self.width = width
        self._lows = lows
        self._high_words = high_words
        self._high_len = high_len
        self._num_zeros = num_zeros
        self._samples = samples

    @classmethod
    def from_values(cls, values, u: int) -> "EliasFanoSeq":
        values = np.asarray(values, dtype=np.int64)
        n = len(values)
        u = int(u)
        if u < 0 or u >= 1 << 62:
            raise InvalidInputError(f"universe size out of range: {u}")
        if n == 0:
            return cls(0, u, 0, np.zeros(0, np.uint64), np.zeros(0, np.uint64), 0, 0, np.zeros(0, np.uint32))
        if (values < 0).any() or values[-1] >= u:
            raise InvalidInputError("values must lie in [0, u)")
        if n > 1 and (np.diff(values) <= 0).any():
            raise InvalidInputError("values must be strictly increasing")
        width = (u // n).bit_length() - 1  # floor(log2(u / n)); u >= n always holds here
        lows = _pack_bits(values & np.int64((1 << width) - 1), width) if width else np.zeros(0, np.uint64)
        highs = (values >> width).astype(np.int64)
        num_zeros = ((u - 1) >> width) + 1  # one bucket per possible high value
        high_len = n + num_zeros
        ones_pos = highs + np.arange(n, dtype=np.int64)
        high_words = np.zeros((high_len + 63) // 64, dtype=np.uint64)
        np.bitwise_or.at(
            high_words,
            (ones_pos >> 6).astype(np.int64),
            np.uint64(1) << (ones_pos.astype(np.uint64) & np.uint64(63)),
        )
        samples = cls._build_samples(highs, num_zeros)
        if high_len >= 1 << 32:
            raise InvalidInputError("bitvector too long for 32-bit select samples")
        return cls(n, u, width, lows, high_words, high_len, num_zeros, samples)

    @staticmethod
    def _build_samples(highs: np.ndarray, num_zeros: int) -> np.ndarray:
        # position of zero number k*SELECT_SAMPLE for k = 1, 2, ...
        idx = np.arange(SELECT_SAMPLE, num_zeros, SELECT_SAMPLE, dtype=np.int64)
        if idx.size == 0:
            return np.zeros(0, dtype=np.uint32)
        ones_before = np.searchsorted(highs, idx, side="right")
        return (idx + ones_before).astype(np.uint32)

    # -- queries -------------------------------------------------------

    def _select0(self, j: int) -> int:
        """Position of the j-th zero (0-indexed) in the high bitvector."""
        k = j // SELECT_SAMPLE
        if k == 0:
            pos = 0
            remaining = j + 1
        else:
            base = int(self._samples[k - 1])
            if j == k * SELECT_SAMPLE:
                return base
            pos = base + 1
            remaining = j - k * SELECT_SAMPLE
        words = self._high_words
        wi = pos >> 6
        offset = pos & 63
        while True:
            word = int(words[wi])
            if offset:
                word |= (1 << offset) - 1  # bits before pos count as ones
            zeros = 64 - word.bit_count()
            if zeros >= remaining:
                # locate the remaining-th zero inside this word
                inv = ~word & 0xFFFFFFFFFFFFFFFF
                for _ in range(remaining - 1):
                    inv &= inv - 1  # clear lowest zero
                return (wi << 6) + (inv & -inv).bit_length() - 1
            remaining -= zeros
            wi += 1
            offset = 0

    def _bucket_bounds(self, h: int) -> tuple[int, int]:
        """Element index range [start, end) of values whose high part is h."""
        if h == 0:
            start = 0
        else:
            start = self._select0(h - 1) - (h - 1)
        end = self._select0(h) - h
        return start, end

    def _low_at(self, i: int) -> int:
        width = self.width
        if width == 0:
            return 0
        bitpos = i * width
        wi = bitpos >> 6
        offset = bitpos & 63
        word = int(self._lows[wi]) >> offset
        if offset + width > 64:
            word |= int(self._lows[wi + 1]) << (64 - offset)
        return word & ((1 << width) - 1)

    def rank(self, x: int) -> int:
        """Number of stored values <= x; x may be any tick."""
        n = self.n
        if n == 0 or x < 0:
            return 0
        x = int(x)
        if x >= self.u:
            x = self.u - 1
        h = x >> self.width
        start, end = self._bucket_bounds(h)
        if start == end:
            return start
        low_x = x & ((1 << self.width) - 1)
        lo, hi = start, end
        while lo < hi:
            mid = (lo + hi) // 2
            if self._low_at(mid) <= low_x:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def access(self, i: int) -> int:
        """The i-th stored value."""
        if not 0 <= i < self.n:
            raise IndexError(i)
        lo, hi = 0, self._num_zeros - 1
        # smallest bucket h whose cumulative count exceeds i
        while lo < hi:
            mid = (lo + hi) // 2
            if self._select0(mid) - mid > i:
                hi = mid
            else:
                lo = mid + 1
        return (lo << self.width) | self._low_at(i)

    def to_array(self) -> np.ndarray:
        """Decode the full sequence (used by tests and round-trip checks)."""
        if self.n == 0:
            return np.zeros(0, dtype=np.int64)
        bits = np.unpackbits(self._high_words.view(np.uint8), bitorder="little")[: self._high_len]
        ones_pos = np.flatnonzero(bits)
        highs = ones_pos - np.arange(self.n)
        lows = _unpack_bits(self._lows, self.n, self.width)
        return (highs.astype(np.int64) << self.width) | lows

    # -- accounting ----------------------------------------------------

    @property
    def payload_bits(self) -> int:
        """Low-bit array plus high bitvector, in bits."""
        return self.n * self.width + self._high_len

    @property
    def select_overhead_bits(self) -> int:
        return 32 * len(self._samples)

    # -- serialization -------------------------------------------------

    def to_bytes(self) -> bytes:
        """Header (n, u, width) then the low and high words, 8-byte aligned."""
        out = bytearray(_HEADER.pack(self.n, self.u, self.width))
        out += self._lows.astype("<u8").tobytes()
        out += self._high_words.astype("<u8").tobytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["EliasFanoSeq", int]:
        """Decode a sequence, returning it and the offset past its last byte."""
        try:
            n, u, width = _HEADER.unpack_from(data, offset)
        except struct.error as exc:
            raise FormatError(f"truncated sequence header: {exc}") from None
        offset += _HEADER.size
        if n == 0:
            return cls(0, u, 0, np.zeros(0, np.uint64), np.zeros(0, np.uint64), 0, 0, np.zeros(0, np.uint32)), offset
        if u < n or (u // n).bit_length() - 1 != width:
            raise FormatError(f"inconsistent sequence header (n={n}, u={u}, width={width})")
        n_low_words = (n * width + 63) // 64
        num_zeros = ((u - 1) >> width) + 1
        high_len = n + num_zeros
        n_high_words = (high_len + 63) // 64
        end = offset + 8 * (n_low_words + n_high_words)
        if end > len(data):
            raise FormatError("truncated sequence payload")
        lows = np.frombuffer(data, dtype="<u8", count=n_low_words, offset=offset).astype(np.uint64)
        offset += 8 * n_low_words
        high_words = np.frombuffer(data, dtype="<u8", count=n_high_words, offset=offset).astype(np.uint64)
        offset += 8 * n_high_words
        bits = np.unpackbits(high_words.view(np.uint8), bitorder="little")[:high_len]
        ones_pos = np.flatnonzero(bits)
        if len(ones_pos) != n:
            raise FormatError("sequence bitvector does not contain n set bits")
        highs = (ones_pos - np.arange(n)).astype(np.int64)
        samples = cls._build_samples(highs, num_zeros)
        return cls(n, u, width, lows, high_words, high_len, num_zeros, samples), offset


# -- many sequences packed back to back ------------------------------------
#
# The batched rank below reads 64-bit words byte by byte through
# ``ndarray.view(np.uint8)``, which assumes a little-endian host.

SCAN_WORDS = 8  # high-bitvector words one select reads past its sample
_SCAN = np.arange(SCAN_WORDS)
_SAMPLE_SHIFT = SELECT_SAMPLE.bit_length() - 1
_L8 = np.uint64(0x0101_0101_0101_0101)
_H8 = np.uint64(0x8080_8080_8080_8080)
_FROM_BIT = np.array([(0xFFFF_FFFF_FFFF_FFFF << i) & 0xFFFF_FFFF_FFFF_FFFF for i in range(64)], dtype=np.uint64)
_LOW_MASK = np.array([(1 << i) - 1 for i in range(64)], dtype=np.uint64)
# _SELECT8[(byte << 3) | r] is the position of the r-th set bit of byte
_SELECT8 = np.zeros(256 * 8, dtype=np.uint8)
for _byte in range(256):
    for _r, _bit in enumerate(b for b in range(8) if _byte >> b & 1):
        _SELECT8[(_byte << 3) | _r] = _bit


def prefix_offsets(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of ``values`` with the total appended."""
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def concat_ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``first[i] .. first[i] + count[i] - 1``, concatenated."""
    through = count.cumsum()
    return (first - through + count).repeat(count) + np.arange(through[-1] if len(through) else 0)


def _bit_slice(words: np.ndarray, start: int, length: int) -> np.ndarray:
    """Bits [start, start + length) of a packed word array, as new words."""
    bits = np.zeros(-(-length // 64) * 64, dtype=np.uint8)
    first = start >> 6
    span = words[first: (start + length + 63 >> 6) + 1].astype("<u8")
    skip = start - 64 * first
    bits[:length] = np.unpackbits(span.view(np.uint8), bitorder="little")[skip: skip + length]
    return np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64)


class FlatEliasFano:
    """Many Elias-Fano sequences over one universe, packed back to back.

    Sequence q holds ``sizes[q] >= 1`` strictly increasing values in
    ``[0, u)`` and is encoded exactly like :class:`EliasFanoSeq`: its own
    low-bit width ``floor(log2(u / n))``, a unary high part with one zero
    per bucket, and one select sample every ``SELECT_SAMPLE`` zeros.  The
    low parts of all sequences are concatenated bit by bit into one word
    array, the high parts into another and the samples into a third.
    Widths and section offsets follow from ``u`` and ``sizes``, so a file
    stores only those and the two word arrays.

    :meth:`rank` answers one rank per lane for any number of lanes with a
    fixed number of numpy calls: one batched select finds both bucket
    bounds of every lane, and one pass compares the low parts of the
    values inside the buckets.
    """

    __slots__ = ("u", "widths", "low_base", "high_base", "sample_base", "lows", "highs", "samples")

    def __init__(self, u: int, sizes, lows: np.ndarray, highs: np.ndarray, samples: np.ndarray):
        """``lows`` ends with two spare words (a width-0 value may sit past
        the last word), ``highs`` with SCAN_WORDS and ``samples`` with one."""
        self.u = u
        self.lows = lows
        self.highs = highs
        self.samples = samples
        sizes = np.asarray(sizes, dtype=np.int64)
        widths = self._widths(u, sizes)
        self.widths = widths.astype(np.uint8)
        # where each sequence's low part, high part and samples begin; one
        # more entry marks the end of the last sequence
        bases = [prefix_offsets(n) for n in self._section_lengths(u, sizes, widths)]
        dtype = np.uint32 if max(int(b[-1]) for b in bases) < 1 << 32 else np.int64
        self.low_base, self.high_base, self.sample_base = (b.astype(dtype) for b in bases)

    @property
    def sizes(self) -> np.ndarray:
        """Values per sequence, recovered from the high parts' lengths."""
        high_bits = np.diff(self.high_base.astype(np.int64))
        return high_bits - ((self.u - 1) >> self.widths.astype(np.int64)) - 1

    # -- layout --------------------------------------------------------------

    @staticmethod
    def _widths(u: int, sizes: np.ndarray) -> np.ndarray:
        distinct, inverse = np.unique(sizes, return_inverse=True)
        per_size = [(u // int(n)).bit_length() - 1 for n in distinct]
        return np.array(per_size, dtype=np.int64)[inverse]

    @staticmethod
    def _section_lengths(u: int, sizes: np.ndarray, widths: np.ndarray):
        """Per sequence: low bits, high bits and select samples."""
        num_zeros = ((u - 1) >> widths) + 1
        return sizes * widths, sizes + num_zeros, np.maximum(num_zeros - 1, 0) >> _SAMPLE_SHIFT

    @classmethod
    def word_counts(cls, u: int, sizes: np.ndarray) -> tuple[int, int]:
        """Low and high words stored for sequences of these sizes."""
        low_bits, high_bits, _ = cls._section_lengths(u, sizes, cls._widths(u, sizes))
        return -(-int(low_bits.sum()) // 64), -(-int(high_bits.sum()) // 64)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_values(cls, values, sizes, u: int) -> "FlatEliasFano":
        """Encode ``values``, the sequences concatenated in order.

        Each sequence must be strictly increasing inside ``[0, u)``; the
        caller guarantees it (the ``iis`` decomposition produces exactly
        that), so it is not checked here.
        """
        if u >= 1 << 62:
            raise InvalidInputError(f"universe size out of range: {u}")
        values = np.asarray(values, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        widths = cls._widths(u, sizes)
        low_bits, high_bits, _ = cls._section_lengths(u, sizes, widths)
        seq = np.repeat(np.arange(len(sizes)), sizes)
        index = np.arange(len(values)) - prefix_offsets(sizes)[seq]
        width = widths[seq]
        pos = prefix_offsets(low_bits)[seq] + index * width
        lows = np.zeros(-(-int(low_bits.sum()) // 64) + 2, dtype=np.uint64)
        low = (values & ((1 << width) - 1)).astype(np.uint64)
        shift = (pos & 63).astype(np.uint64)
        np.bitwise_or.at(lows, pos >> 6, low << shift)
        np.bitwise_or.at(lows, (pos >> 6) + 1, (low >> np.uint64(1)) >> (np.uint64(63) - shift))
        bits = np.zeros(-(-int(high_bits.sum()) // 64) * 64, dtype=np.uint8)
        bits[prefix_offsets(high_bits)[seq] + (values >> width) + index] = 1
        highs = np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64)
        return cls._with_samples(u, sizes, widths, lows, highs, values >> width)

    @classmethod
    def from_words(cls, u: int, sizes, lows: np.ndarray, highs: np.ndarray) -> "FlatEliasFano":
        """Rebuild from the stored word arrays.  Raises ``FormatError``
        unless every sequence's high part holds exactly one set bit per value
        and ends with the zero of its last bucket."""
        sizes = np.asarray(sizes, dtype=np.int64)
        widths = cls._widths(u, sizes)
        _, high_bits, _ = cls._section_lengths(u, sizes, widths)
        ends = prefix_offsets(high_bits)
        bits = np.unpackbits(highs.astype("<u8").view(np.uint8), bitorder="little")
        ones = np.flatnonzero(bits)
        if (np.diff(np.searchsorted(ones, ends)) != sizes).any() or bits[ends[-1]:].any():
            raise FormatError("an Elias-Fano high part does not hold one set bit per value")
        if bits[ends[1:] - 1].any():
            raise FormatError("an Elias-Fano high part does not end with a bucket's zero")
        seq = np.repeat(np.arange(len(sizes)), sizes)
        high_values = ones - ends[seq] - (np.arange(len(ones)) - prefix_offsets(sizes)[seq])
        lows = np.append(lows, np.zeros(2, dtype=np.uint64))
        return cls._with_samples(u, sizes, widths, lows, highs, high_values)

    @classmethod
    def _with_samples(cls, u, sizes, widths, lows, highs, high_values) -> "FlatEliasFano":
        """Add the select samples and the scan padding."""
        num_zeros = ((u - 1) >> widths) + 1
        n_samples = cls._section_lengths(u, sizes, widths)[2]
        # zero z of sequence q follows every value of q whose high part is
        # <= z; keyed by (q, high part), all values sort in one array
        zero_base = prefix_offsets(num_zeros)
        keys = zero_base[np.repeat(np.arange(len(sizes)), sizes)] + high_values
        seq = np.repeat(np.arange(len(sizes)), n_samples)
        zero = (np.arange(len(seq)) - prefix_offsets(n_samples)[seq] + 1) << _SAMPLE_SHIFT
        before = np.searchsorted(keys, zero_base[seq] + zero, side="right") - prefix_offsets(sizes)[seq]
        samples = np.append((zero + before).astype(np.uint32), np.uint32(0))
        return cls(u, sizes, lows, np.append(highs, np.zeros(SCAN_WORDS, dtype=np.uint64)), samples)

    # -- queries -----------------------------------------------------------------

    def rank(self, seq: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Per lane, how many values of sequence ``seq[i]`` are <= ``x[i]``."""
        lanes = len(seq)
        if not lanes:
            return np.zeros(0, dtype=np.int64)
        x = np.minimum(x, self.u - 1)
        width = self.widths[seq]
        high = x >> width  # negative for a negative x, whose rank is 0
        # the bucket of x holds the values between zeros high - 1 and high of
        # the high part; both are found from zero number j
        positive = high > 0
        j = np.maximum(high - 1, 0)
        k = j >> _SAMPLE_SHIFT
        sampled = self.samples[self.sample_base[seq] + (k - 1)]  # a valid entry even where k == 0
        high_base = self.high_base[seq].astype(np.int64)
        # from zero k*SELECT_SAMPLE (or the first bit), skip j - k*SELECT_SAMPLE zeros
        target = np.empty((2, lanes), dtype=np.int64)
        target[0] = j - (k << _SAMPLE_SHIFT)
        target[1] = target[0] + positive
        zero = self._find_zeros(high_base + sampled * (k > 0), target)
        base = high_base + j
        start = (zero[0] - base) * positive
        end = (zero[1] - base - positive) * (high >= 0)
        # values start..end-1 share x's high part; count those whose low part is <= x's
        size = end - start
        index = concat_ranges(start, size)
        if not len(index):
            return start
        lane = np.arange(lanes).repeat(size)
        w = width[lane]
        pos = self.low_base[seq][lane] + index * w
        word = pos >> 6
        shift = (pos & 63).astype(np.uint64)
        low = (self.lows[word] >> shift) | ((self.lows[word + 1] << np.uint64(1)) << (np.uint64(63) - shift))
        limit = (x & _LOW_MASK.view(np.int64)[width])[lane]
        return start + np.bincount(lane[(low & _LOW_MASK[w]).view(np.int64) <= limit], minlength=lanes)

    def _find_zeros(self, bit: np.ndarray, skip: np.ndarray) -> np.ndarray:
        """Per lane i and row r, the position of the zero that follows
        ``skip[r, i]`` zeros from bit ``bit[i]`` on."""
        lanes = len(bit)
        first = bit >> 6
        zeros = ~self.highs[first[:, None] + _SCAN]
        zeros[:, 0] &= _FROM_BIT[bit & 63]
        zeros = zeros.ravel()
        count = np.bitwise_count(zeros)
        through = count.cumsum().view(np.int64)
        row = np.arange(0, len(zeros), SCAN_WORDS)
        target = skip + (through[row] - count[row])  # counted from the first lane's window
        at = through.searchsorted(target, side="right")  # the window word holding each zero
        word = at - row
        past = word >= SCAN_WORDS
        if not past.any():
            return ((first + word) << 6) + self._select_in_words(zeros[at], target - through[at] + count[at])
        # rare: some zeros lie past their window, so scan on from its end
        pos = np.empty_like(target)
        inside = ~past
        at = at[inside]
        pos[inside] = (((first + word) << 6)[inside]
                       + self._select_in_words(zeros[at], target[inside] - through[at] + count[at]))
        lane = np.nonzero(past)[1]
        rest = target[past] - through[row[lane] + SCAN_WORDS - 1]
        pos[past] = self._find_zeros((first[lane] + SCAN_WORDS) << 6, rest[None, :])[0]
        return pos

    @staticmethod
    def _select_in_words(words: np.ndarray, skip: np.ndarray) -> np.ndarray:
        """Per lane, the position of the set bit of ``words[i]`` that has
        ``skip[i]`` set bits below it (broadword select over byte counts)."""
        skip = skip.view(np.uint64)
        sums = np.bitwise_count(words.view(np.uint8)).view(np.uint64) * _L8  # byte i: set bits in bytes 0..i
        byte8 = np.bitwise_count((((skip * _L8) | _H8) - sums) & _H8) << np.uint8(3)
        rest = skip - (((sums << np.uint64(8)) >> byte8) & np.uint64(0xFF))
        byte = (words >> byte8) & np.uint64(0xFF)
        return byte8 + _SELECT8[(byte << np.uint64(3)) | rest]

    # -- views and accounting ----------------------------------------------------

    def sequence(self, q: int) -> EliasFanoSeq:
        """Sequence q as a stand-alone :class:`EliasFanoSeq` (a copy)."""
        width = int(self.widths[q])
        low_base, high_base, sample_base = (int(b[q]) for b in (self.low_base, self.high_base, self.sample_base))
        low_bits, high_bits, n_samples = (int(b[q + 1]) - int(b[q])
                                          for b in (self.low_base, self.high_base, self.sample_base))
        n = high_bits - ((self.u - 1) >> width) - 1
        return EliasFanoSeq(
            n, self.u, width,
            _bit_slice(self.lows, low_base, low_bits),
            _bit_slice(self.highs, high_base, high_bits),
            high_bits, high_bits - n,
            self.samples[sample_base: sample_base + n_samples].copy(),
        )

    def payload_bits(self) -> np.ndarray:
        """Per sequence: low bits plus high bits."""
        return np.diff(self.low_base.astype(np.int64)) + np.diff(self.high_base.astype(np.int64))

    def select_overhead_bits(self) -> np.ndarray:
        """Per sequence: 32 bits per select sample."""
        return 32 * np.diff(self.sample_base.astype(np.int64))

    def directory_bits(self) -> int:
        """The per-sequence widths and section offsets."""
        return 8 * (self.widths.nbytes + self.low_base.nbytes + self.high_base.nbytes + self.sample_base.nbytes)
