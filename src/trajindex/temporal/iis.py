"""Compact interval-intersection index over independent interval sets.

An independent set contains no interval nested in another, so sorting it
by start also sorts it by end and one intersection query reduces to two
rank operations: the last candidate is the count of starts <= r, the
first is one past the count of ends < l, and everything between matches.

A general interval multiset is first split into the minimum number of
independent sets with a patience-style greedy (a minimum cover by
increasing subsequences; Aldous & Diaconis, Bull. AMS 1999): intervals
are processed by (start asc, end desc) and each goes to the eligible set
whose tail end is largest, a new set opening when none qualifies.  Sets
require strictly increasing starts AND ends, so identical intervals
always land in distinct sets.  One compiled pass (``eliasfano_rank.c``)
sorts the records into that order, a counting sort by segment and a merge
sort by (start, -end) inside each, and places them all.

One index covers any number of segments, each decomposed on its own.
Its rows are the records ordered segment by segment, set by set, and by
start inside a set, so the answer to a query is a run of rows per set.
A compiled counting sort by set, over the records in the decomposition's
order, gives that row order.  Every set stores its starts and its ends as two
Elias-Fano sequences; the sequences of all sets live in one
:class:`FlatEliasFano`, written by its compiled encoder.  A query is
one call into a compiled kernel (``eliasfano_rank.c``, loaded by
``eliasfano.py``): for every probed segment and every set of it, the
kernel ranks both sequences and writes the set's run of rows, or the row
ids they map to, straight into the result.
"""

from __future__ import annotations

import struct

import numpy as np

from ..core import FormatError, Reader
from ..eliasfano import EliasFanoSeq, FlatEliasFano, ffi, lib, prefix_offsets
from .base import TemporalIndexBase, check_query

# universe, set count
_IIS_HEADER = struct.Struct("<QI")
_EMPTY = np.zeros(0, dtype=np.int64)


def _int64s(a: np.ndarray):
    """A contiguous ``int64`` array as a kernel argument."""
    return ffi.from_buffer("int64_t[]", a)


def decompose_independent_sets(starts, ends, groups=None, *, n_groups: int | None = None,
                               return_order: bool = False):
    """Assign each interval to one of m independent sets, m minimal.

    Returns (assignment, m); within a set, intervals ordered by start are
    strictly increasing in both endpoints.  Greedy placement on the
    eligible tail with the largest end is the optimal shuffled-upsequence
    decomposition of the end values, O(n log m).  With ``groups``, every
    group is decomposed on its own in the same pass, and the sets of a
    smaller group get smaller ids; without, all intervals are one group.

    Groups are numbered densely first, keeping their order, unless
    ``n_groups`` says they already lie in ``[0, n_groups)``; a group
    outside that range raises ``IndexError``.  With ``return_order``,
    also returns the order the records were placed in: by group, start
    ascending, end descending, then index.
    """
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    ends = np.ascontiguousarray(ends, dtype=np.int64)
    n = len(starts)
    if len(ends) != n or (groups is not None and len(groups) != n):
        raise ValueError("starts, ends and groups must have one value per interval")
    if groups is None:
        groups, n_groups = np.zeros(n, dtype=np.int64), 1
    elif n_groups is None:
        distinct, groups = np.unique(np.asarray(groups, dtype=np.int64), return_inverse=True)  # keeps the order
        n_groups = len(distinct)
    groups = np.ascontiguousarray(groups, dtype=np.int64)
    # in this order, a tail with a smaller end also has a strictly smaller
    # start, so eligibility reduces to the tail-end comparison alone
    order = np.empty(n, dtype=np.int64)
    assignment = np.empty(n, dtype=np.int64)
    m = lib.iis_decompose(_int64s(starts), _int64s(ends), _int64s(groups), n, n_groups, _int64s(order),
                          _int64s(assignment))
    if m == -1:
        raise MemoryError("no memory for the records of the decomposition")
    if m < 0:
        raise IndexError(f"record {-2 - m}: group {groups[-2 - m]} outside [0, {n_groups})")
    return (assignment, m, order) if return_order else (assignment, m)


class IndependentIntervalSet:
    """A view of one set: its start and end sequences."""

    __slots__ = ("starts_seq", "ends_seq")

    def __init__(self, starts_seq: EliasFanoSeq, ends_seq: EliasFanoSeq):
        self.starts_seq = starts_seq
        self.ends_seq = ends_seq

    def __len__(self) -> int:
        return self.starts_seq.n

    def query_slice(self, l: int, r: int) -> tuple[int, int]:
        """Set-local [first, last) range of intervals intersecting [l, r]."""
        last = self.starts_seq.rank(r)
        first = self.ends_seq.rank(l - 1)  # ends < l, i.e. ends <= l-1
        return first, last


class IISIndex(TemporalIndexBase):
    """Independent sets of one or more segments over one tick universe.

    ``seg_sets[g]:seg_sets[g + 1]`` are the sets of segment g and
    ``set_rows[k]:set_rows[k + 1]`` the rows of set k.  Sequence ``2k`` of
    ``seqs`` holds the starts of set k and sequence ``2k + 1`` its ends.
    ``row_ids`` maps rows back to the caller's record order; it is None
    when the caller stores its records in row order itself, as a file does.
    """

    backend = "iis"

    def __init__(self, seg_sets: np.ndarray, set_rows: np.ndarray, seqs: FlatEliasFano,
                 row_ids: np.ndarray | None = None):
        super().__init__(int(set_rows[-1]))
        self.seg_sets = np.ascontiguousarray(seg_sets, dtype=np.int64)
        self.set_rows = np.ascontiguousarray(set_rows, dtype=np.int64)
        self.seqs = seqs
        self.row_ids = None if row_ids is None else np.ascontiguousarray(row_ids, dtype=np.uint32)
        # the row output's arrays, handed to the kernel once
        self._rows = seqs.bind(
            lib.iis_rows_u32, lib.iis_rows_i64, seqs.u, ffi.from_buffer("int64_t[]", self.seg_sets),
            ffi.from_buffer("int64_t[]", self.set_rows), len(self.seg_sets) - 1,
            ffi.NULL if row_ids is None else ffi.from_buffer("uint32_t[]", self.row_ids))

    @property
    def u(self) -> int:
        return self.seqs.u

    @property
    def m(self) -> int:
        return len(self.set_rows) - 1

    @property
    def sets(self) -> list[IndependentIntervalSet]:
        """Every set as a view over the shared sequences (for inspection and tests)."""
        return [IndependentIntervalSet(self.seqs.sequence(2 * k), self.seqs.sequence(2 * k + 1))
                for k in range(self.m)]

    def set_counts(self) -> np.ndarray:
        """Independent sets per segment."""
        return np.diff(self.seg_sets)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_ticks(cls, starts, ends) -> "IISIndex":
        """One segment; queries answer with indices into ``starts``/``ends``."""
        starts = np.asarray(starts, dtype=np.int64)
        index, order = cls.from_segments(starts, ends, np.zeros(len(starts), dtype=np.int64), 1)
        return cls(index.seg_sets, index.set_rows, index.seqs, order)

    @classmethod
    def from_segments(cls, starts, ends, segments, n_segments: int) -> tuple["IISIndex", np.ndarray]:
        """Decompose every segment's records on their own.

        ``segments[i]`` in ``[0, n_segments)`` is record i's segment.
        Returns the index and the row order: row j holds record ``order[j]``.
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        n = len(starts)
        assignment, m, by_segment = decompose_independent_sets(starts, ends, segments, n_groups=n_segments,
                                                               return_order=True)
        # members of a set are contiguous and start-ascending; sets follow
        # segments.  The starts of a set are distinct, so counting the
        # records out by set in the decomposition's order, start-ascending
        # inside a segment, gives these rows.
        set_sizes = np.bincount(assignment, minlength=m)
        set_rows = prefix_offsets(set_sizes)
        order = np.empty(n, dtype=np.int64)
        lib.sort_by_key(_int64s(assignment), _int64s(by_segment), n, _int64s(set_rows[:-1].copy()),
                        _int64s(order))
        set_segment = np.asarray(segments, dtype=np.int64)[order[set_rows[:-1]]]
        seg_sets = prefix_offsets(np.bincount(set_segment, minlength=n_segments))
        # set k's starts, then its ends, at 2 * set_rows[k]
        row_set = assignment[order]
        at = np.arange(n) + set_rows[row_set]
        values = np.empty(2 * n, dtype=np.int64)
        values[at] = starts[order]
        values[at + set_sizes[row_set]] = ends[order]
        u = int(ends.max()) + 1 if n else 0
        seqs = FlatEliasFano.from_values(values, np.repeat(set_sizes, 2), u)
        return cls(seg_sets, set_rows, seqs), order

    # -- queries -----------------------------------------------------------

    def query(self, l: int, r: int, segments: np.ndarray | None = None) -> np.ndarray:
        """Rows intersecting [l, r] among the segments numbered in the array
        ``segments`` (all segments by default): segment by segment as given,
        set by set inside a segment, ascending inside a set."""
        check_query(l, r)
        if segments is None:
            probe, count = ffi.NULL, len(self.seg_sets) - 1
        else:
            segments = np.ascontiguousarray(segments, dtype=np.int64)
            probe, count = ffi.from_buffer("int64_t[]", segments), len(segments)
        # a set's rows are those past its ends <= l - 1 and up to its starts
        # <= r; the kernel clamps both ticks to the universe, and clamping
        # them here too keeps a Python int of any size inside int64
        top, l1 = self.u - 1, l - 1
        if not -1 <= l1 <= top:
            l1 = -1 if l1 < 0 else top
        if not -1 <= r <= top:
            r = -1 if r < 0 else top
        out = ffi.new("int64_t **")
        n = self._rows(probe, count, l1, r, out)
        if n < 0:
            if n == -1 - count:
                raise MemoryError("no memory for the rows of an interval query")
            raise IndexError(f"segment lane {-1 - n}: no segment {segments[-1 - n]}")
        if not n:
            return _EMPTY
        # the array owns the kernel's buffer and frees it when it goes
        return np.frombuffer(ffi.buffer(ffi.gc(out[0], lib.free), 8 * n), dtype=np.int64)

    # -- accounting ----------------------------------------------------

    def space_report(self) -> dict:
        """Bits per part.  ``plain_bits`` counts the uncompressed offset
        tables: segment and set offsets, and the per-sequence widths and
        section offsets; ``id_bits`` the row-id map of a stand-alone index."""
        payload = self.seqs.payload_bits()
        overhead = self.seqs.select_overhead_bits()
        set_payload = (payload[0::2] + payload[1::2]).tolist()
        set_overhead = (overhead[0::2] + overhead[1::2]).tolist()
        per_set = [
            {"n": n, "payload_bits": p, "select_overhead_bits": o}
            for n, p, o in zip(np.diff(self.set_rows).tolist(), set_payload, set_overhead)
        ]
        plain_bits = 0
        if self.n:  # an index without records answers every query with nothing
            plain_bits = 8 * (self.seg_sets.nbytes + self.set_rows.nbytes) + self.seqs.directory_bits()
        id_bits = 32 * self.n if self.row_ids is not None else 0
        total_payload, total_overhead = int(payload.sum()), int(overhead.sum())
        return {
            "backend": self.backend,
            "n": self.n,
            "m": self.m,
            "u": self.u,
            "payload_bits": total_payload,
            "select_overhead_bits": total_overhead,
            "plain_bits": plain_bits,
            "id_bits": id_bits,
            "total_bits": total_payload + total_overhead + plain_bits + id_bits,
            "per_set": per_set,
        }

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Header, rows per set (``u32``), padding to 8 bytes, then the low
        words and the high words of all sequences; the sets per segment
        follow from the file's record table.  A stand-alone index, whose
        row ids no file holds, raises ``ValueError``."""
        if self.row_ids is not None:
            raise ValueError("a stand-alone set index maps rows to row ids and is not written to a file")
        out = bytearray(_IIS_HEADER.pack(self.u, self.m))
        out += np.diff(self.set_rows).astype("<u4").tobytes()
        out += b"\0" * (-len(out) % 8)
        out += self.seqs.lows[:-2].astype("<u8").tobytes()  # without the two spare words
        out += self.seqs.highs.astype("<u8").tobytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, reader: Reader, seg_rows: np.ndarray) -> "IISIndex":
        """Decode and check the index that ``reader`` reads next, over the
        segments whose rows ``seg_rows`` delimits.  Raises ``FormatError``
        when it is truncated, its set sizes do not add up to the rows, a
        segment's rows do not begin at a set or a high part is malformed;
        low bits are not checked."""
        u, m = reader.unpack(_IIS_HEADER)
        set_sizes = reader.array("<u4", m).astype(np.int64)
        reader.pad()
        if set_sizes.sum() != seg_rows[-1] or (m and set_sizes.min() == 0):
            raise FormatError("set index sizes are not all positive or do not add up to the record table's rows")
        if u >= 1 << 62 or (m and set_sizes.max() > u):
            raise FormatError(f"set index universe {u} cannot hold its sets")
        set_rows = prefix_offsets(set_sizes)
        # a segment's sets are contiguous, so its first row is a set's first
        seg_sets = np.searchsorted(set_rows, seg_rows)
        if (set_rows[seg_sets] != seg_rows).any():
            raise FormatError("temporal block segment offsets disagree with the record table")
        sizes = np.repeat(set_sizes, 2)
        n_low, n_high = FlatEliasFano.word_counts(u, sizes)
        lows = reader.array("<u8", n_low).astype(np.uint64)
        highs = reader.array("<u8", n_high).astype(np.uint64)
        return cls(seg_sets, set_rows, FlatEliasFano.from_words(u, sizes, lows, highs))
