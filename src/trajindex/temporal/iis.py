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
:class:`FlatEliasFano`, written by its compiled encoder.  A file stores
only the index's shape, the rows of each set: a load checks that every set
is independent and encodes the record table's ticks through the same path
as a build, so a loaded index is the one a build over those sets gives.
A query is one call into a compiled kernel (``eliasfano_rank.c``, loaded
by ``kernel.py``), which reads the index's arrays through one
``iis_index`` struct, filled when the index is made and pointing to its
codec's ``ef_seqs``: for every probed segment and every set of it, the
kernel ranks both sequences and takes the set's run of rows.  ``query``
takes two ticks and segments and answers with the rows, or the row ids
they map to.  ``query_ids`` takes the R-tree walk's hits and two float
times, and answers with the distinct object ids of the runs.
"""

from __future__ import annotations

import struct

import numpy as np

from ..core import FormatError, Reader
from ..eliasfano import EliasFanoSeq, FlatEliasFano, prefix_offsets
from ..kernel import ffi, lib
from .base import TemporalIndexBase, check_query, range_query_error

# set count
_IIS_HEADER = struct.Struct("<I")
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
    Both ``query`` and ``query_ids`` are one call into a kernel entry, and
    both entries run the same body, whose arrays are handed over once, here,
    as the ``iis_index`` struct ``c_struct``.
    """

    backend = "iis"
    tag = 3

    def __init__(self, seg_sets: np.ndarray, set_rows: np.ndarray, seqs: FlatEliasFano,
                 row_ids: np.ndarray | None = None):
        super().__init__(int(set_rows[-1]))
        self.seg_sets = np.ascontiguousarray(seg_sets, dtype=np.int64)
        self.set_rows = np.ascontiguousarray(set_rows, dtype=np.int64)
        self.seqs = seqs
        self.row_ids = None if row_ids is None else np.ascontiguousarray(row_ids, dtype=np.uint32)
        # the query's arrays, handed to the kernel once as a struct of raw
        # pointers; ``c_arrays`` keeps what they point to: the codec's struct
        # as it is now (a rebind replaces it), that struct's arrays and ours
        seg_sets, set_rows = (ffi.from_buffer("int64_t[]", a) for a in (self.seg_sets, self.set_rows))
        ids = ffi.NULL if row_ids is None else ffi.from_buffer("uint32_t[]", self.row_ids)
        self.c_arrays = (seqs.c_struct, seqs.c_arrays, seg_sets, set_rows, ids)
        self.c_struct = ffi.new("iis_index *", [seqs.c_struct, seg_sets, set_rows, len(self.seg_sets) - 1, ids])

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

    @property
    def seg_rows(self) -> np.ndarray:
        """Where each segment's rows begin, then the row count."""
        return self.set_rows[self.seg_sets]

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
        return cls(seg_sets, set_rows, cls._encode(set_rows, starts[order], ends[order])), order

    @staticmethod
    def _encode(set_rows: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> FlatEliasFano:
        """The sequences of sets delimited by ``set_rows`` over the ticks
        of their rows: set k's starts at ``2 * set_rows[k]``, then its ends,
        over the universe ``u = max end + 1``."""
        set_sizes = np.diff(set_rows)
        n = len(starts)
        at = np.arange(n) + np.repeat(set_rows[:-1], set_sizes)
        values = np.empty(2 * n, dtype=np.int64)
        values[at] = starts
        values[at + np.repeat(set_sizes, set_sizes)] = ends
        u = int(ends.max()) + 1 if n else 0
        return FlatEliasFano.from_values(values, np.repeat(set_sizes, 2), u)

    # -- queries -----------------------------------------------------------

    def query(self, l: int, r: int, segments: np.ndarray | None = None) -> np.ndarray:
        """Rows intersecting [l, r] among the segments numbered in the array
        ``segments`` (all segments by default), read as ``int64``:
        segment by segment as given, set by set inside a segment, ascending
        inside a set."""
        check_query(l, r)
        if segments is None:
            probe, count = ffi.NULL, len(self.seg_sets) - 1
        else:
            segments = np.ascontiguousarray(segments, dtype=np.int64)
            probe, count = ffi.from_buffer("int64_t[]", segments), len(segments)
        # a set's rows are those past its ends <= l - 1 and up to its starts
        # <= r; the kernel clamps both ticks to the universe, and clamping
        # them here too keeps a Python int of any size inside int64
        top, l1 = self.seqs.u - 1, l - 1
        if not -1 <= l1 <= top:
            l1 = -1 if l1 < 0 else top
        if not -1 <= r <= top:
            r = -1 if r < 0 else top
        out = lib.iis_query(self.c_struct, probe, count, l1, r)
        status = out.status
        if status:
            if status == -1 - count:
                raise MemoryError("no memory for the answer of an interval query")
            raise IndexError(f"segment lane {-1 - status}: no segment {segments[-1 - status]}")
        if not out.n:
            return _EMPTY
        # an array that owns the kernel's buffer and frees it when it goes
        return np.frombuffer(ffi.buffer(ffi.gc(out.out, lib.free), 8 * out.n), dtype=np.int64)

    def query_ids(self, frame, hits: np.ndarray, t_start: float, t_end: float) -> bytes:
        """The distinct object ids of the rows that match a range query, as
        native ``uint32`` bytes, ascending, from one kernel call.  ``frame``
        is the ``range_frame *`` a ``TrajIndex`` binds, ``hits`` the segments
        ``RTree.window_query`` gives, and the times are floats.  Raises
        ``InvalidInputError`` for a time that is not finite and non-negative."""
        probe = ffi.from_buffer("int64_t[]", hits)
        out = lib.iis_range(self.c_struct, frame, probe, len(probe), t_start, t_end)
        if out.status:
            raise range_query_error(out.status, hits, t_start, t_end)
        if not out.n:
            return b""
        found = ffi.buffer(out.out, 4 * out.n)[:]
        lib.free(out.out)
        return found

    # -- accounting ----------------------------------------------------

    def space_report(self) -> dict:
        """Bits per part.  ``plain_bits`` counts the uncompressed offset
        tables: segment and set offsets, and the per-sequence widths and
        section offsets; ``id_bits`` the row-id map of a stand-alone index."""
        payload = self.seqs.payload_bits()
        overhead = self.seqs.select_overhead_bits()
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
        }

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """The set count (``u32``) and the rows per set (``u32``): the
        index's shape, from which ``from_bytes`` encodes the record table's
        ticks.  A stand-alone index, whose row ids no file holds, raises
        ``ValueError``."""
        if self.row_ids is not None:
            raise ValueError("a stand-alone set index maps rows to row ids and is not written to a file")
        return _IIS_HEADER.pack(self.m) + np.diff(self.set_rows).astype("<u4").tobytes()

    @classmethod
    def from_bytes(cls, reader: Reader, seg_rows: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> "IISIndex":
        """The index whose shape ``reader`` reads next, over the segments
        whose rows ``seg_rows`` delimits and the rows' ticks, encoded as a
        build encodes them.  Raises ``FormatError`` for a shape that does not
        fit the rows or a set whose starts or ends do not strictly rise."""
        (m,) = reader.unpack(_IIS_HEADER)
        set_sizes = reader.array("<u4", m).astype(np.int64)
        if set_sizes.sum() != seg_rows[-1] or (m and set_sizes.min() == 0):
            raise FormatError("set index sizes are not all positive or do not add up to the record table's rows")
        set_rows = prefix_offsets(set_sizes)
        # a segment's sets are contiguous, so its first row is a set's first
        seg_sets = np.searchsorted(set_rows, seg_rows)
        if (set_rows[seg_sets] != seg_rows).any():
            raise FormatError("temporal block segment offsets disagree with the record table")
        # rows i and i + 1 of one set: neither interval may nest in the other
        rising = (np.diff(starts) > 0) & (np.diff(ends) > 0)
        rising[set_rows[1:-1] - 1] = True  # a set's last row and the next set's first
        if not rising.all():
            k = int(np.searchsorted(set_rows, np.argmin(rising), side="right")) - 1
            raise FormatError(f"set {k} of the set index is not independent: its starts and ends must rise")
        return cls(seg_sets, set_rows, cls._encode(set_rows, starts, ends))
