"""Compressed monotone integer sequences with rank support.

A sequence of n strictly increasing ticks over a universe of size u is
split per element into ``width = floor(log2(u / n))`` low bits, stored in
a packed array, and a high part stored in unary inside a bitvector with
one 1-bit per element and one 0-bit per high bucket.  The payload is at
most ``2n + n * ceil(log2(u / n))`` bits; on top of that the structure
keeps a small sampled select directory (one 32-bit position every
SELECT_SAMPLE zeros) so that rank runs in near-constant time.

There is one codec: :class:`FlatEliasFano` packs any number of such
sequences back to back and ranks any number of (sequence, value) lanes
in one call into a small C kernel: per lane it jumps to the nearest
select sample, skips zeros word by word with popcount, selects inside the
word and walks the bucket's values comparing low parts (Vigna, "Broadword
implementation of rank/select queries", WEA 2008).  :class:`EliasFanoSeq`
is a view of one sequence of a :class:`FlatEliasFano` and stores no words
of its own.

:meth:`FlatEliasFano.from_values` encodes in one call into a compiled
loop that checks each value against the universe and writes its low bits
and its high bit straight into the word arrays (the layout of Vigna,
"Quasi-succinct indices", WSDM 2013).

This module also loads the package's kernels, ``eliasfano_rank.c``: the
rank and the encoder above, the R-tree window walk (``rtree.py``), the
``iis`` row output, decomposition and set order (``temporal/iis.py``), and
the object-id union of a range query (``index.py``); the row output ranks
every probed set with the same per-lane loop.  They are compiled with
``cffi`` at the first import, into this package's ``__pycache__``, under a
name derived from their source and the interpreter, and reused afterwards.
Without ``cffi`` or a C compiler the import raises ``ImportError``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import tempfile
from pathlib import Path

import numpy as np

from .core import FormatError, InvalidInputError

SELECT_SAMPLE = 128

# -- the compiled kernels ----------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("eliasfano_rank.c")
_KERNEL_CDEF = """
int64_t ef_rank_u32(const uint8_t *, const uint32_t *, const uint32_t *, const uint32_t *,
                    const uint64_t *, const uint64_t *, const uint32_t *, int64_t, int64_t,
                    const int64_t *, const int64_t *, int64_t *, int64_t);
int64_t ef_rank_i64(const uint8_t *, const int64_t *, const int64_t *, const int64_t *,
                    const uint64_t *, const uint64_t *, const uint32_t *, int64_t, int64_t,
                    const int64_t *, const int64_t *, int64_t *, int64_t);
int64_t rtree_window(const uint32_t *, const uint32_t *, const uint32_t *, const double *, const double *,
                     int64_t, double, double, double, double, int64_t *, int64_t *);
int64_t iis_rows_u32(const uint8_t *, const uint32_t *, const uint32_t *, const uint32_t *,
                     const uint64_t *, const uint64_t *, const uint32_t *, int64_t, const int64_t *,
                     const int64_t *, int64_t, const uint32_t *, const int64_t *, int64_t, int64_t, int64_t,
                     int64_t **);
int64_t iis_rows_i64(const uint8_t *, const int64_t *, const int64_t *, const int64_t *,
                     const uint64_t *, const uint64_t *, const uint32_t *, int64_t, const int64_t *,
                     const int64_t *, int64_t, const uint32_t *, const int64_t *, int64_t, int64_t, int64_t,
                     int64_t **);
int64_t iis_decompose(const int64_t *, const int64_t *, const int64_t *, int64_t, int64_t, int64_t *,
                      int64_t *);
void sort_by_key(const int64_t *, const int64_t *, int64_t, int64_t *, int64_t *);
int64_t ef_encode(const int64_t *, const int64_t *, const int64_t *, const int64_t *, const int64_t *,
                  int64_t, int64_t, uint64_t *, uint64_t *, int64_t *);
int64_t distinct_ids(const uint32_t *, const int64_t *, int64_t, uint32_t *);
void free(void *);
"""


def _load_kernel():
    """Import the kernels, compiling them first when no module built
    from this source for this interpreter sits in ``__pycache__``."""
    try:
        import cffi
    except ImportError as exc:
        raise ImportError(f"trajindex needs cffi to build its kernels: {exc}") from exc
    source = _KERNEL_SOURCE.read_text()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = "\0".join((source, _KERNEL_CDEF, suffix, cffi.__version__))
    name = "_eliasfano_rank_" + hashlib.sha256(key.encode()).hexdigest()[:16]
    cache = _KERNEL_SOURCE.with_name("__pycache__")
    path = cache / (name + suffix)
    if not path.exists():
        builder = cffi.FFI()
        builder.cdef(_KERNEL_CDEF)
        builder.set_source(name, source, extra_compile_args=["-O2", "-Wall", "-Wextra"])
        try:
            cache.mkdir(exist_ok=True)
            # build aside and move the finished module in, so that a
            # concurrent first import never loads a half-written file
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                os.replace(builder.compile(tmpdir=tmp), path)
        except (cffi.VerificationError, OSError) as exc:
            raise ImportError(f"trajindex could not compile its kernels from "
                              f"{_KERNEL_SOURCE.name} (a C compiler is required): {exc}") from exc
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_KERNEL = _load_kernel()
ffi, lib = _KERNEL.ffi, _KERNEL.lib


class EliasFanoSeq:
    """A strictly increasing sequence of ticks in ``[0, u)`` with rank:
    sequence ``q`` of ``flat`` (None when the sequence is empty)."""

    __slots__ = ("flat", "q", "n", "u")

    def __init__(self, flat: "FlatEliasFano | None", q: int, n: int, u: int):
        self.flat = flat
        self.q = q
        self.n = n
        self.u = u

    @classmethod
    def from_values(cls, values, u: int) -> "EliasFanoSeq":
        values = np.asarray(values, dtype=np.int64)
        n = len(values)
        u = int(u)
        if u < 0 or u >= 1 << 62:
            raise InvalidInputError(f"universe size out of range: {u}")
        if n == 0:
            return cls(None, 0, 0, u)
        if n > 1 and (np.diff(values) <= 0).any():
            raise InvalidInputError("values must be strictly increasing")
        return cls(FlatEliasFano.from_values(values, [n], u), 0, n, u)

    def rank(self, x):
        """Number of stored values <= x, for one tick or an array of ticks."""
        scalar = np.ndim(x) == 0
        # a Python int of any size is clamped to a tick with the same rank
        ticks = np.array([max(min(int(x), self.u), -1)]) if scalar else np.asarray(x, dtype=np.int64).ravel()
        if self.n:
            ranks = self.flat.rank(np.full(len(ticks), self.q), ticks)
        else:
            ranks = np.zeros(len(ticks), dtype=np.int64)
        return int(ranks[0]) if scalar else ranks.reshape(np.shape(x))

    def to_array(self) -> np.ndarray:
        """Decode the full sequence (used by tests and round-trip checks)."""
        if self.n == 0:
            return np.zeros(0, dtype=np.int64)
        flat, q, index = self.flat, self.q, np.arange(self.n)
        begin, end = int(flat.high_base[q]), int(flat.high_base[q + 1])
        words = flat.highs[begin >> 6: (end + 63) >> 6].astype("<u8")
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")[begin & 63: (begin & 63) + end - begin]
        width = self.width
        lows = flat.read_lows(int(flat.low_base[q]) + index * width, width)
        return ((np.flatnonzero(bits) - index) << width) | lows

    # -- accounting ----------------------------------------------------

    def _span(self, base: np.ndarray) -> int:
        return int(base[self.q + 1]) - int(base[self.q])

    @property
    def width(self) -> int:
        """Low bits per value."""
        return int(self.flat.widths[self.q]) if self.n else 0

    @property
    def payload_bits(self) -> int:
        """Low-bit array plus high bitvector, in bits."""
        return self._span(self.flat.low_base) + self._span(self.flat.high_base) if self.n else 0

    @property
    def select_overhead_bits(self) -> int:
        return 32 * self._span(self.flat.sample_base) if self.n else 0


# -- many sequences packed back to back ------------------------------------

_SAMPLE_SHIFT = SELECT_SAMPLE.bit_length() - 1
_LOW_MASK = np.array([(1 << i) - 1 for i in range(64)], dtype=np.uint64)


def prefix_offsets(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of ``values`` with the total appended."""
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def concat_ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``first[i] .. first[i] + count[i] - 1``, concatenated."""
    through = count.cumsum()
    return (first - through + count).repeat(count) + np.arange(through[-1] if len(through) else 0)


class FlatEliasFano:
    """Many Elias-Fano sequences over one universe, packed back to back.

    Sequence q holds ``sizes[q] >= 1`` strictly increasing values in
    ``[0, u)`` and has its own low-bit width ``floor(log2(u / n))``, a
    unary high part with one zero per bucket, and one select sample every
    ``SELECT_SAMPLE`` zeros.  The low parts of all sequences are
    concatenated bit by bit into one word array, the high parts into
    another and the samples into a third.  Widths and section offsets
    follow from ``u`` and ``sizes``, so a file stores only those and the
    two word arrays.

    :meth:`rank` answers one rank per lane for any number of lanes in one
    call into the compiled kernel, which reads these arrays in place.
    """

    __slots__ = ("u", "widths", "low_base", "high_base", "sample_base", "lows", "highs", "samples", "_rank")

    def __init__(self, u: int, sizes, lows: np.ndarray, highs: np.ndarray, samples: np.ndarray):
        """``lows`` ends with two spare words (a width-0 value may sit past
        the last word) and ``samples`` with one."""
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
        self._bind()

    def _bind(self) -> None:
        """Hand the arrays to the rank kernel once, with every argument but
        the lanes bound."""
        self._rank = self.bind(lib.ef_rank_u32, lib.ef_rank_i64, len(self.widths), self.u)

    def bind(self, narrow, wide, *args) -> functools.partial:
        """A kernel entry point with this codec's arrays bound as its first
        arguments, then ``args``: ``narrow`` when the section offsets are
        ``u32``, ``wide`` when they are ``int64``.  The arrays are handed
        over once, and the kernel reads them in place."""
        offset = self.low_base.dtype
        arrays = ((self.widths, np.uint8), (self.low_base, offset), (self.high_base, offset),
                  (self.sample_base, offset), (self.lows, np.uint64), (self.highs, np.uint64),
                  (self.samples, np.uint32))
        handles = [ffi.from_buffer(f"{np.dtype(dtype).name}_t[]", np.ascontiguousarray(a, dtype))
                   for a, dtype in arrays]
        return functools.partial(wide if offset == np.int64 else narrow, *handles, *args)

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
        """Encode ``values``, the sequences concatenated in order, in one
        call into the compiled encoder.

        Raises ``InvalidInputError`` unless every size is positive, the sizes
        add up to the values and every value lies in ``[0, u)``.  Each
        sequence must also be strictly increasing; the caller guarantees it
        (the ``iis`` decomposition produces exactly that), so it is not
        checked here.
        """
        values = np.ascontiguousarray(values, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if not 0 <= u < 1 << 62 or (u == 0 and len(sizes)):
            raise InvalidInputError(f"universe size out of range: {u}")
        if (sizes < 1).any() or sizes.sum() != len(values):
            raise InvalidInputError("sequence sizes must be positive and add up to the values")
        widths = cls._widths(u, sizes)
        low_bits, high_bits, _ = cls._section_lengths(u, sizes, widths)
        lows = np.zeros(-(-int(low_bits.sum()) // 64) + 2, dtype=np.uint64)
        highs = np.zeros(-(-int(high_bits.sum()) // 64), dtype=np.uint64)
        high_values = np.empty(len(values), dtype=np.int64)
        arrays = (values, prefix_offsets(sizes), widths, prefix_offsets(low_bits), prefix_offsets(high_bits))
        bad = lib.ef_encode(*(ffi.from_buffer("int64_t[]", a) for a in arrays), len(sizes), u,
                            ffi.from_buffer("uint64_t[]", lows), ffi.from_buffer("uint64_t[]", highs),
                            ffi.from_buffer("int64_t[]", high_values))
        if bad:
            raise InvalidInputError(f"value {bad - 1} ({values[bad - 1]}) lies outside [0, {u})")
        return cls._with_samples(u, sizes, widths, lows, highs, high_values)

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
        """Add the select samples."""
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
        return cls(u, sizes, lows, highs, samples)

    # -- queries -----------------------------------------------------------------

    def rank(self, seq: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Per lane, how many values of sequence ``seq[i]`` are <= ``x[i]``."""
        seq = np.ascontiguousarray(seq, dtype=np.int64)
        x = np.ascontiguousarray(x, dtype=np.int64)
        if seq.shape != x.shape or seq.ndim != 1:
            raise ValueError("rank needs one x per lane")
        out = np.empty(len(seq), dtype=np.int64)
        bad = self._rank(ffi.from_buffer("int64_t[]", seq), ffi.from_buffer("int64_t[]", x),
                         ffi.from_buffer("int64_t[]", out), len(seq))
        if bad:
            raise IndexError(f"rank lane {bad - 1}: no sequence {seq[bad - 1]}")
        return out

    def read_lows(self, pos: np.ndarray, width: np.ndarray) -> np.ndarray:
        """Per lane, the ``width``-bit low part (one width or one per lane)
        that starts at bit ``pos[i]``."""
        word = pos >> 6
        shift = (pos & 63).astype(np.uint64)
        low = (self.lows[word] >> shift) | ((self.lows[word + 1] << np.uint64(1)) << (np.uint64(63) - shift))
        return (low & _LOW_MASK[width]).view(np.int64)

    # -- views and accounting ----------------------------------------------------

    def sequence(self, q: int) -> EliasFanoSeq:
        """Sequence q as an :class:`EliasFanoSeq` view (no copy)."""
        high_bits = int(self.high_base[q + 1]) - int(self.high_base[q])
        return EliasFanoSeq(self, q, high_bits - ((self.u - 1) >> int(self.widths[q])) - 1, self.u)

    def payload_bits(self) -> np.ndarray:
        """Per sequence: low bits plus high bits."""
        return np.diff(self.low_base.astype(np.int64)) + np.diff(self.high_base.astype(np.int64))

    def select_overhead_bits(self) -> np.ndarray:
        """Per sequence: 32 bits per select sample."""
        return 32 * np.diff(self.sample_base.astype(np.int64))

    def directory_bits(self) -> int:
        """The per-sequence widths and section offsets."""
        return 8 * (self.widths.nbytes + self.low_base.nbytes + self.high_base.nbytes + self.sample_base.nbytes)
