/* The compiled kernels.  Queries: the batched Elias-Fano rank over the
 * sequences of a FlatEliasFano (eliasfano.py), the window walk of an RTree
 * (rtree.py), the row output of an IISIndex (temporal/iis.py) and the
 * object-id union of a TrajIndex (index.py).  Builds:
 * the record order and greedy decomposition into independent sets and the
 * set-major row order of an IISIndex, and the Elias-Fano encoder of a
 * FlatEliasFano.
 *
 * Rank.  Sequence q keeps its low parts at bits low_base[q].. of `lows`, its
 * high part at bits high_base[q].. of `highs` and its select samples at
 * samples[sample_base[q]..]: sample s is the position, counted from
 * high_base[q], of zero number (s + 1) * 128 of the high part.  Value i
 * of a sequence with high part h sits at bit h + i of the high part, so
 * the values of bucket h lie between zeros h - 1 and h.
 *
 * Reads stay inside the arrays for every index that FlatEliasFano.from_values
 * builds or FlatEliasFano.from_words accepts.  from_words checks that each
 * high part holds exactly one set bit per value and ends with a zero, so
 * it holds exactly ((u - 1) >> width) + 1 zeros, and the samples are
 * recomputed from those bits.  A lane's x is clamped to [0, u), so its
 * bucket h is at most the index of the last zero, zero h - 1 and zero h both
 * exist inside the sequence's high part, the sample read is one of the
 * sequence's own, and every value walked is one of its n values, whose low
 * part lies inside `lows` (which ends with two spare words).  The low bits
 * are not checked at load; they only feed comparisons, never addresses.
 * So a rank is at most the sequence's length.
 *
 * Window walk.  Node k's children are rows first[k] .. first[k] + counts[k]
 * - 1 of the node table when k < n_internal, and leaf slots otherwise; slot
 * s holds entry order[s].  Reads stay inside the arrays for every tree that
 * build_rtree builds or RTree.from_bytes accepts: from_bytes checks that
 * every count lies in [1, fanout], that each level's counts add up to the
 * next level's width and the leaves' to n_entries, and that `order` is a
 * permutation of the entries.  So the children of an internal node are
 * nodes of the next level, a leaf's slots lie below n_entries, and every
 * entry is written at most once, into n_entries output slots.  The stack
 * holds, per level of the current path, the siblings not yet walked: at
 * most (height - 1) * (fanout - 1) + 1 <= height * fanout slots.
 *
 * Row output.  Set k holds rows set_rows[k] .. set_rows[k + 1] - 1, its
 * starts in sequence 2k and its ends in sequence 2k + 1, and segment g holds
 * sets seg_sets[g] .. seg_sets[g + 1] - 1.  Reads stay inside the arrays for
 * every index that IISIndex.from_segments builds or IISIndex.from_bytes
 * accepts: from_bytes checks that no set is empty and that the rows per
 * set add up to the record table's row count, and takes seg_sets from the
 * record table's segment offsets, checking that each is a set's first row,
 * so seg_sets ascends from 0 to the set count.  Row ids never come from a
 * file: only a stand-alone index (IISIndex.from_ticks) has them, one per
 * row, each below the row count.  The kernel rejects a segment outside
 * [0, n_segments) before reading its offsets, and both ranks of set k are
 * at most its length (see Rank), so the rows written lie inside set k's
 * own rows.
 *
 * Union.  Every row is below the record count, the length of object_ids:
 * the rows come from a row output (see Row output) or from a per-segment
 * structure, which answers with positions inside its own segment's rows.
 * `out` holds one slot per row and at most one id is written per row.  The
 * table has a power of two of slots, at least 2n, and every probe position
 * is masked with its size minus one, so no slot outside it is read or
 * written, and as at most n of its slots fill, a probe always meets an
 * empty one.
 *
 * Greedy.  Every group id is checked against [0, n_groups) before anything
 * is written, so the counting sort's slots first[g] stay within [0, n] and
 * each record is placed once, below n.  `recs` and `tails` hold 2n + 1
 * entries: group g's records recs + a .. recs + b - 1 merge through the
 * buffer recs + n + a, which ends by 2n as b <= n, and a group opens at most
 * one set per record, so its tails fit tails[0 .. n - 1] and their set ids
 * tails[n .. 2n - 1].
 *
 * Set order.  Every key is a set id in [0, m), as the greedy writes them, and
 * `cursor` starts at each set's first row, the prefix sums of the set sizes;
 * `items` is a permutation of the n records.  So set k's cursor moves over
 * exactly its own rows, and each of the n output slots is written once.
 *
 * Encoder.  Sequence q owns values value_base[q] .. value_base[q + 1] - 1,
 * n of them, which from_values checks add up to the values it is given.  It
 * owns low bits low_base[q] .. + n * width and high bits high_base[q] ..
 * + n + ((u - 1) >> width) + 1, which from_values allocates, with two spare
 * low words.  The kernel checks 0 <= v < u before it writes value i, so
 * v >> width <= (u - 1) >> width and the high bit (v >> width) + i lies in
 * the sequence's high part, and the low bits of value i lie in its low
 * part, spilling at most into the next word, which exists.
 */
#include <stdint.h>
#include <stdlib.h>

#define SAMPLE_SHIFT 7 /* log2 of SELECT_SAMPLE */

/* Position of the set bit of w that has r set bits below it; r < popcount(w). */
static inline int select64(uint64_t w, int r)
{
    int pos = 0, c;
    c = __builtin_popcountll(w & 0xFFFFFFFFu);
    if (r >= c) { r -= c; w >>= 32; pos = 32; }
    c = __builtin_popcountll(w & 0xFFFFu);
    if (r >= c) { r -= c; w >>= 16; pos += 16; }
    c = __builtin_popcountll(w & 0xFFu);
    if (r >= c) { r -= c; w >>= 8; pos += 8; }
    while (r--)
        w &= w - 1;
    return pos + __builtin_ctzll(w);
}

/* Position of the zero of `highs` that follows `skip` zeros from bit `bit` on. */
static inline int64_t select_zero(const uint64_t *highs, int64_t bit, int64_t skip)
{
    int64_t word = bit >> 6;
    uint64_t zeros = ~highs[word] & (~(uint64_t)0 << (bit & 63));
    int64_t count = __builtin_popcountll(zeros);
    while (skip >= count) {
        skip -= count;
        zeros = ~highs[++word];
        count = __builtin_popcountll(zeros);
    }
    return (word << 6) + select64(zeros, (int)skip);
}

/* The `width`-bit low part that starts at bit `pos` of `lows`. */
static inline int64_t read_low(const uint64_t *lows, int64_t pos, int width)
{
    int shift = (int)(pos & 63);
    uint64_t low = (lows[pos >> 6] >> shift) | ((lows[(pos >> 6) + 1] << 1) << (63 - shift));
    return (int64_t)(low & (((uint64_t)1 << width) - 1));
}

/* How many values of one sequence are <= x. */
static inline int64_t rank_lane(int width, int64_t low_at, int64_t high_at, const uint32_t *samples,
                                const uint64_t *lows, const uint64_t *highs, int64_t u, int64_t x)
{
    if (x >= u)
        x = u - 1;
    if (x < 0)
        return 0;
    int64_t high = x >> width;
    int64_t limit = x & (((int64_t)1 << width) - 1);
    int64_t bit = high_at, rank = 0;
    if (high > 0) {
        /* zero high - 1, from the last sample at or before it */
        int64_t j = high - 1, k = j >> SAMPLE_SHIFT;
        int64_t from = k ? high_at + samples[k - 1] : high_at;
        bit = select_zero(highs, from, j - (k << SAMPLE_SHIFT)) + 1;
        rank = bit - high_at - high; /* the ones before it */
    }
    /* the bucket's values, up to zero high, in increasing order */
    while ((highs[bit >> 6] >> (bit & 63)) & 1) {
        if (width && read_low(lows, low_at + rank * width, width) > limit)
            break;
        rank++;
        bit++;
    }
    return rank;
}

/* One entry point per offset type.  Returns 0, or lane + 1 for the first
 * lane whose sequence is not in [0, nseq), which is left unranked. */
#define RANK_ENTRY(name, offset_t)                                                                  \
    int64_t name(const uint8_t *widths, const offset_t *low_base, const offset_t *high_base,       \
                 const offset_t *sample_base, const uint64_t *lows, const uint64_t *highs,         \
                 const uint32_t *samples, int64_t nseq, int64_t u,                                  \
                 const int64_t *seq, const int64_t *x, int64_t *out, int64_t lanes)                \
    {                                                                                               \
        for (int64_t i = 0; i < lanes; i++) {                                                       \
            int64_t q = seq[i];                                                                     \
            if (q < 0 || q >= nseq)                                                                 \
                return i + 1;                                                                       \
            out[i] = rank_lane(widths[q], (int64_t)low_base[q], (int64_t)high_base[q],              \
                               samples + sample_base[q], lows, highs, u, x[i]);                     \
        }                                                                                           \
        return 0;                                                                                   \
    }

RANK_ENTRY(ef_rank_u32, uint32_t)
RANK_ENTRY(ef_rank_i64, int64_t)

/* Window walk: writes the entry of every leaf slot whose box overlaps the
 * window (closed sets) to `out` and returns how many.  Boxes are stored as
 * (xmin, ymin, -xmax, -ymax) and the window comes as (xmax, ymax, -xmin,
 * -ymin), so a box overlaps it when each of its four numbers is <= the
 * window's.  The last overlapping child of a node is walked first, and a
 * leaf's slots in ascending order. */
int64_t rtree_window(const uint32_t *first, const uint32_t *counts, const uint32_t *order,
                     const double *node_boxes, const double *entry_boxes, int64_t n_internal,
                     double xmax, double ymax, double neg_xmin, double neg_ymin,
                     int64_t *stack, int64_t *out)
{
    int64_t top = 0, n = 0;
    stack[top++] = 0; /* the root */
    while (top) {
        int64_t k = stack[--top];
        int64_t a = first[k], b = a + counts[k];
        int leaf = k >= n_internal;
        const double *box = (leaf ? entry_boxes : node_boxes) + 4 * a;
        for (int64_t i = a; i < b; i++, box += 4) {
            if (box[0] <= xmax && box[1] <= ymax && box[2] <= neg_xmin && box[3] <= neg_ymin) {
                if (leaf)
                    out[n++] = order[i];
                else
                    stack[top++] = i;
            }
        }
    }
    return n;
}

/* Row output: per segment as given (all segments in order when `segments`
 * is NULL), per set of the segment, the set's rows whose start is <= r and
 * whose end is > l1, ascending, or their row_ids when `row_ids` is not
 * NULL.  Stores a malloc'ed array of them in *out (NULL when there are
 * none), for the caller to free, and returns how many.  Returns -1 - i
 * for the first lane i whose segment is not in [0, n_segments), and
 * -1 - n_probe when out of memory; *out is then NULL. */
#define ROWS_ENTRY(name, offset_t)                                                                  \
    int64_t name(const uint8_t *widths, const offset_t *low_base, const offset_t *high_base,       \
                 const offset_t *sample_base, const uint64_t *lows, const uint64_t *highs,         \
                 const uint32_t *samples, int64_t u, const int64_t *seg_sets,                       \
                 const int64_t *set_rows, int64_t n_segments, const uint32_t *row_ids,             \
                 const int64_t *segments, int64_t n_probe, int64_t l1, int64_t r, int64_t **out)  \
    {                                                                                               \
        int64_t *rows = NULL, cap = 0, n = 0;                                                       \
        *out = NULL;                                                                                \
        for (int64_t i = 0; i < n_probe; i++) {                                                     \
            int64_t g = segments ? segments[i] : i;                                                 \
            if (g < 0 || g >= n_segments) {                                                         \
                free(rows);                                                                         \
                return -1 - i;                                                                      \
            }                                                                                       \
            for (int64_t k = seg_sets[g]; k < seg_sets[g + 1]; k++) {                               \
                int64_t s = 2 * k, e = s + 1;                                                       \
                int64_t last = rank_lane(widths[s], (int64_t)low_base[s], (int64_t)high_base[s],    \
                                         samples + sample_base[s], lows, highs, u, r);              \
                int64_t skip = rank_lane(widths[e], (int64_t)low_base[e], (int64_t)high_base[e],    \
                                         samples + sample_base[e], lows, highs, u, l1);             \
                /* never the other way round on a valid index; flipped low                          \
                 * bits, which load unchecked, can put an end before its start */                   \
                if (last <= skip)                                                                   \
                    continue;                                                                       \
                if (n + last - skip > cap) {                                                        \
                    int64_t *grown;                                                                 \
                    cap = 2 * cap > n + last - skip ? 2 * cap : n + last - skip;                    \
                    if (cap < 64)                                                                   \
                        cap = 64;                                                                   \
                    grown = realloc(rows, (size_t)cap * sizeof *rows);                              \
                    if (!grown) {                                                                   \
                        free(rows);                                                                 \
                        return -1 - n_probe;                                                        \
                    }                                                                               \
                    rows = grown;                                                                   \
                }                                                                                   \
                int64_t row = set_rows[k] + skip, end = set_rows[k] + last;                         \
                if (row_ids)                                                                        \
                    for (; row < end; row++)                                                        \
                        rows[n++] = row_ids[row];                                                   \
                else                                                                                \
                    for (; row < end; row++)                                                        \
                        rows[n++] = row;                                                            \
            }                                                                                       \
        }                                                                                           \
        *out = rows;                                                                                \
        return n;                                                                                   \
    }

ROWS_ENTRY(iis_rows_u32, uint32_t)
ROWS_ENTRY(iis_rows_i64, int64_t)

/* Union: writes each distinct object_ids[rows[i]] once to `out`, in the
 * order of first appearance, and returns how many, or -1 when out of
 * memory.  The open-addressing table stores id + 1, so that a zeroed slot
 * is empty and every u32 id, 0 and 2^32 - 1 included, can be stored.  It
 * is allocated per call, so concurrent calls share nothing. */
int64_t distinct_ids(const uint32_t *object_ids, const int64_t *rows, int64_t n, uint32_t *out)
{
    if (n <= 0)
        return 0;
    int bits = 1;
    while (((int64_t)1 << bits) < 2 * n)
        bits++;
    uint64_t mask = ((uint64_t)1 << bits) - 1;
    uint64_t *table = calloc((size_t)mask + 1, sizeof *table);
    if (!table)
        return -1;
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        uint32_t id = object_ids[rows[i]];
        uint64_t key = (uint64_t)id + 1;
        /* Fibonacci hashing: the top bits of the product mix every bit of the id */
        uint64_t slot = (key * 0x9E3779B97F4A7C15u) >> (64 - bits);
        while (table[slot] && table[slot] != key)
            slot = (slot + 1) & mask;
        if (!table[slot]) {
            table[slot] = key;
            out[k++] = id;
        }
    }
    free(table);
    return k;
}

/* Decomposition.  A record as the greedy sorts it: by start ascending, then
 * by -end ascending (end descending); index breaks the remaining ties. */
typedef struct {
    int64_t start, neg_end, index;
} record_t;

#define SORT_RUN 16

/* Whether record a goes before record b; equal keys keep their order. */
static inline int record_before(const record_t *a, const record_t *b)
{
    return a->start < b->start || (a->start == b->start && a->neg_end < b->neg_end);
}

/* Sorts recs[0 .. n - 1] stably, using tmp[0 .. n - 1], and returns which of
 * the two holds the result: runs of SORT_RUN by insertion, then bottom-up
 * merges that take the left run's record on equal keys. */
static record_t *sort_records(record_t *recs, record_t *tmp, int64_t n)
{
    for (int64_t a = 0; a < n; a += SORT_RUN) {
        int64_t b = a + SORT_RUN < n ? a + SORT_RUN : n;
        for (int64_t i = a + 1; i < b; i++) {
            record_t r = recs[i];
            int64_t j = i;
            for (; j > a && record_before(&r, &recs[j - 1]); j--)
                recs[j] = recs[j - 1];
            recs[j] = r;
        }
    }
    record_t *src = recs, *dst = tmp;
    for (int64_t run = SORT_RUN; run < n; run *= 2) {
        for (int64_t a = 0; a < n; a += 2 * run) {
            int64_t mid = a + run < n ? a + run : n, b = a + 2 * run < n ? a + 2 * run : n;
            int64_t i = a, j = mid, k = a;
            while (i < mid && j < b)
                dst[k++] = record_before(&src[j], &src[i]) ? src[j++] : src[i++];
            while (i < mid)
                dst[k++] = src[i++];
            while (j < b)
                dst[k++] = src[j++];
        }
        record_t *swap = src;
        src = dst;
        dst = swap;
    }
    return src;
}

/* Decomposition: orders the records by group, start ascending, end
 * descending and index, exactly as np.lexsort((-ends, starts, groups)), and
 * writes that order to `order`.  A stable counting sort by group keeps the
 * indices of a group ascending, and a stable sort of each group by (start,
 * -end) keeps them so on ties.  Visiting the records in that order, it puts
 * each into the open set of its group whose tail end is the largest below
 * its end, or into a new set when there is none, and writes each record's
 * set to `assignment`.  Set ids ascend in the order the sets open.  The
 * tails of a group's open sets are kept descending, so a new set's tail,
 * which is at most every other, goes last.  Returns the set count, -1 when
 * out of memory, or -2 - i for the first record i whose group is not in
 * [0, n_groups), before anything is written. */
int64_t iis_decompose(const int64_t *starts, const int64_t *ends, const int64_t *groups, int64_t n,
                      int64_t n_groups, int64_t *order, int64_t *assignment)
{
    int64_t *first = calloc((size_t)n_groups + 1, sizeof *first);
    record_t *recs = malloc((size_t)(2 * n + 1) * sizeof *recs);
    int64_t *tails = malloc((size_t)(2 * n + 1) * sizeof *tails);
    if (!first || !recs || !tails) {
        free(first);
        free(recs);
        free(tails);
        return -1;
    }
    int64_t m = -1;
    for (int64_t i = 0; i < n; i++) {
        if (groups[i] < 0 || groups[i] >= n_groups) {
            m = -2 - i;
            goto done;
        }
        first[groups[i] + 1]++;
    }
    for (int64_t g = 0; g < n_groups; g++)
        first[g + 1] += first[g];
    /* first[g] is now group g's first slot; counting the group out moves it
     * one past the group's last, where the placement below finds it */
    for (int64_t i = 0; i < n; i++) {
        record_t *r = &recs[first[groups[i]]++];
        r->start = starts[i];
        r->neg_end = (int64_t)(0 - (uint64_t)ends[i]); /* np.negative wraps the same way */
        r->index = i;
    }
    int64_t *tail_set = tails + n, a = 0;
    m = 0;
    for (int64_t g = 0; g < n_groups; g++) {
        int64_t b = first[g], open = 0;
        const record_t *sorted = sort_records(recs + a, recs + n + a, b - a);
        for (int64_t p = 0; p < b - a; p++) {
            int64_t i = sorted[p].index, e = (int64_t)(0 - (uint64_t)sorted[p].neg_end);
            /* the first tail below e */
            int64_t lo = 0, hi = open;
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                if (tails[mid] < e)
                    hi = mid;
                else
                    lo = mid + 1;
            }
            if (lo == open) {
                tail_set[open] = m;
                open++;
                assignment[i] = m++;
            } else {
                assignment[i] = tail_set[lo];
            }
            tails[lo] = e;
            order[a + p] = i;
        }
        a = b;
    }
done:
    free(first);
    free(recs);
    free(tails);
    return m;
}

/* Set order: a stable counting sort.  Visits `items` in order and writes
 * each to the slot `cursor` holds for its key, advancing the cursor. */
void sort_by_key(const int64_t *keys, const int64_t *items, int64_t n, int64_t *cursor, int64_t *out)
{
    for (int64_t p = 0; p < n; p++)
        out[cursor[keys[items[p]]]++] = items[p];
}

/* Encoder: writes the low bits of every value to `lows` and its high bit to
 * `highs`, both zeroed, and its high part to `high_values`.  Returns 0, or
 * i + 1 for the first value i outside [0, u), which is left unwritten. */
int64_t ef_encode(const int64_t *values, const int64_t *value_base, const int64_t *widths,
                  const int64_t *low_base, const int64_t *high_base, int64_t nseq, int64_t u,
                  uint64_t *lows, uint64_t *highs, int64_t *high_values)
{
    for (int64_t q = 0; q < nseq; q++) {
        int width = (int)widths[q];
        uint64_t mask = ((uint64_t)1 << width) - 1;
        int64_t first = value_base[q], n = value_base[q + 1] - first;
        for (int64_t i = 0; i < n; i++) {
            int64_t v = values[first + i];
            if (v < 0 || v >= u)
                return first + i + 1;
            int64_t high = v >> width, bit = high_base[q] + high + i;
            high_values[first + i] = high;
            highs[bit >> 6] |= (uint64_t)1 << (bit & 63);
            if (width) {
                int64_t pos = low_base[q] + i * width;
                int shift = (int)(pos & 63);
                uint64_t low = (uint64_t)v & mask;
                lows[pos >> 6] |= low << shift;
                if (shift + width > 64)
                    lows[(pos >> 6) + 1] |= low >> (64 - shift);
            }
        }
    }
    return 0;
}
