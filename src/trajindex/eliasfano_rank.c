/* The compiled kernels, declared in kernel.h.  Queries: the batched
 * Elias-Fano rank over the sequences of a FlatEliasFano (eliasfano.py), the
 * window walk of an RTree (rtree.py), which clips a segment whose box meets
 * the window, the two queries of an IISIndex (temporal/iis.py), by ticks from
 * segments to rows and by float times from a window walk's hits to sorted
 * object ids, and (index.py) the check of a walk's hits and the ticks of its
 * times, and the object-id union of their rows.  Both range entries turn a
 * time into a tick with the same static helper.  Builds and loads: the ticks
 * of float times (core.discretize_times) by that helper, the record order and
 * greedy decomposition into independent sets and the set-major row order of
 * an IISIndex, and the Elias-Fano encoder of a FlatEliasFano.
 *
 * Rank.  Sequence q keeps its low parts at bits low_base[q].. of `lows`, its
 * high part at bits high_base[q].. of `highs` and its select samples at
 * samples[sample_base[q]..]: sample s is the position, counted from
 * high_base[q], of zero number (s + 1) * 128 of the high part.  Value i
 * of a sequence with high part h sits at bit h + i of the high part, so
 * the values of bucket h lie between zeros h - 1 and h.  The rank of x,
 * whose bucket is h, jumps to the last sample at or before zero h - 1,
 * skips whole words of the high part by their count of zeros, selects zero
 * h - 1 inside its word and walks bucket h's values, comparing low parts.
 * The count and the select are broadword (S. Vigna, "Broadword
 * Implementation of Rank/Select Queries", WEA 2008): a SWAR popcount, and a
 * branch-free select that finds the byte by per-byte prefix counts and a
 * bytewise <=, then the bit inside the byte the same way.  They are plain C,
 * with no ISA flag, intrinsic or library call: at the kernel's flags, GCC
 * turns its popcount builtin into a call into libgcc.  The rank reads
 * these arrays through the ef_seqs struct that FlatEliasFano fills once,
 * and the three section offsets through its offset_size field: as uint32_t
 * when it is 4 and as int64_t when it is 8, which FlatEliasFano sets from
 * the offsets' own dtype, so an offset is read at the width it is stored.
 *
 * Reads stay inside the arrays of every codec, as FlatEliasFano.from_values
 * makes every one, at build and at load alike: no file stores a word.
 * ef_rank rejects a lane whose sequence is not in [0, nseq), the length of
 * widths and one less than the length of each offset array, before it reads
 * that lane's width or offsets.  The encoder writes one set bit per value,
 * each checked to lie in [0, u) and, as the callers guarantee (the greedy at
 * build, IISIndex.from_bytes's check at load), above the one before it, so
 * a high part holds exactly n set bits and ((u - 1) >> width) + 1 zeros,
 * the last bit being a zero, and the samples are computed from the values'
 * high parts.  A lane's x is clamped to [0, u), so its bucket h is at most
 * the index of the last zero, zero h - 1 and zero h both exist inside the
 * sequence's high part, the sample read is one of the sequence's own, and
 * every value walked is one of its n values, whose low part lies inside
 * `lows` (which ends with two spare words).  So a rank is at most the
 * sequence's length.
 *
 * Window walk.  Node k's children are rows first[k] .. first[k] + counts[k]
 * - 1 of the node table when k < n_internal, and leaf slots otherwise; slot
 * s holds entry order[s].  The walk reads these arrays and the end points
 * through the rtree_index struct that an RTree fills once.  Reads stay
 * inside the arrays for every tree that build_rtree builds or
 * RTree.from_bytes accepts: from_bytes checks that every count lies in [1,
 * fanout], that each level's counts add up to the next level's width and
 * the leaves' to n_entries, and that `order` is a permutation of the
 * entries.  So the children of an internal node are nodes of the next
 * level, a leaf's slots lie below n_entries, and every entry is written at
 * most once, into n_entries output slots.  The clip reads the end points of
 * entry g = order[i] < n_entries, and each of ax, ay, bx and by holds
 * n_entries values: they are the rows of the (4, n_entries) array the
 * tree's boxes are computed from.  The stack holds, per level of the current
 * path, the siblings not yet walked: at most (height - 1) * (fanout - 1) + 1
 * <= height * fanout slots.
 *
 * Query.  Set k holds rows set_rows[k] .. set_rows[k + 1] - 1, its starts
 * in sequence 2k and its ends in sequence 2k + 1, and segment g holds sets
 * seg_sets[g] .. seg_sets[g + 1] - 1.  Reads stay inside the arrays for
 * every index that IISIndex.from_segments builds or IISIndex.from_bytes
 * accepts: from_bytes checks that no set is empty and that the rows per
 * set add up to the record table's row count, and takes seg_sets from the
 * record table's segment offsets, checking that each is a set's first row,
 * so seg_sets ascends from 0 to the set count; the sequences it encodes
 * from the record table's ticks (see Rank).  Row ids never come from a
 * file: only a stand-alone index (IISIndex.from_ticks) has them, one per
 * row, each below the row count.  The query reads these arrays through
 * the iis_index struct that IISIndex fills once, and the sequences through
 * the codec's ef_seqs that struct points to, offsets at their stored width
 * as in Rank.  It rejects a segment outside [0, n_segments) before reading
 * its entries of seg_sets, so every set k it ranks lies in [0, m) and its
 * sequences 2k and 2k + 1 lie below nseq = 2m, and both ranks of set k are
 * at most its length (see Rank), so every row gathered lies inside set k's
 * own run of rows, below set_rows[m], the row count, and so does the row id
 * it maps to.  The frame's object_ids holds one id per row, the record
 * table's, so the id of every row gathered lies inside it.  Each set's run
 * is written at slots n .. n + run - 1 after the buffer has grown to n + run
 * rows of 8 bytes: int64_t rows, or uint32_t ids in its first half, and its
 * second half, the sort's scratch, holds one slot per id gathered.
 *
 * Range query.  iis_range and range_ticks read the edge count, the scale and
 * the rows' object ids through the range_frame struct that a TrajIndex
 * fills once: object_ids holds one id per row of the record table.  Both
 * check every hit against [0, n_edges), as the window walk writes them;
 * iis_range also rejects a hit outside [0, n_segments), as iis_query does,
 * before it reads seg_sets (a TrajIndex has one segment per edge).
 * range_ticks reads the hits and writes nothing but its answer.  The ticks
 * only feed rank_lane, whose x is clamped to the universe (see Rank), and
 * the comparisons of a per-segment structure; a tick is clamped to at most
 * 2**62 in either case, and an int64 holds it, so no conversion overflows
 * (see time_tick).
 *
 * Ticks.  time_ticks reads n times and writes at most n ticks, each at most
 * TICK_TOP (see time_tick), into an array that discretize_times sizes.
 *
 * Union.  Every row is below the record count, the length of object_ids: the
 * rows come from iis_query (see Query) or from a per-segment structure, which
 * answers with positions inside its own segment's rows.  `out` holds one slot
 * per row, and the sort's scratch one per row too: the second half of
 * iis_collect's buffer, or an array distinct_ids allocates only for the
 * radix sort.  The gather writes slot i for row i; the sort moves n ids
 * between the two arrays.  A radix pass's digit is masked to width =
 * ceil(bits / passes) bits, which is at most 8 for passes = ceil(bits / 8),
 * so it indexes the 256 cursors; the id with digit b goes to b's cursor,
 * which starts at the count of smaller digits and advances once per id of
 * digit b, so it stays below n.  The drop of repeats writes only slots it
 * has already read.  The bitmap has the frame's id_words words, which a
 * TrajIndex computes from its own object_ids, (the largest id >> 6) + 1, and
 * never reads from a file; every id gathered is one of object_ids, so every
 * bit set lies inside the bitmap.  Its scan writes one id per set bit, at
 * most n as the n ids set them, and its two stores per word at k and k + 1
 * only while k + 2 <= n, so every store lies in out's n slots.  The scan
 * counts trailing zeros with __builtin_ctzll, never of 0, which GCC and Clang
 * compile inline at the kernel's flags (one bsf on x86-64), not as a call
 * into libgcc.
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
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "kernel.h"

#define SAMPLE_SHIFT 7 /* log2 of SELECT_SAMPLE */

#define BYTE_ONES UINT64_C(0x0101010101010101)  /* 0x01 in every byte */
#define BYTE_TOPS UINT64_C(0x8080808080808080)  /* the top bit of every byte */
#define BYTE_LOWS UINT64_C(0x7F7F7F7F7F7F7F7F)  /* the low seven bits of every byte */
#define BYTE_STEPS UINT64_C(0x8040201008040201) /* bit j in byte j */

/* The set bits of w in bytes 0 .. j, in byte j: the bits are counted in
 * pairs, nibbles and bytes, and a product by BYTE_ONES adds each byte into
 * every byte above it.  No count exceeds 64, so no byte carries. */
static inline uint64_t byte_prefix_counts(uint64_t w)
{
    w -= (w >> 1) & UINT64_C(0x5555555555555555);
    w = (w & UINT64_C(0x3333333333333333)) + ((w >> 2) & UINT64_C(0x3333333333333333));
    w = (w + (w >> 4)) & UINT64_C(0x0F0F0F0F0F0F0F0F);
    return w * BYTE_ONES;
}

static inline int popcount64(uint64_t w)
{
    return (int)(byte_prefix_counts(w) >> 56);
}

/* How many bytes of x are <= the same byte of y, for bytes below 0x80:
 * y's byte with its top bit set, less x's, keeps that bit exactly when
 * x's byte is <= y's, and never borrows from the next byte. */
static inline int bytes_at_most(uint64_t x, uint64_t y)
{
    return (int)(((((y | BYTE_TOPS) - x) & BYTE_TOPS) >> 7) * BYTE_ONES >> 56);
}

/* Position of the set bit of w that has r set bits below it; r < popcount(w).
 * The bytes whose prefix count is <= r lie below the bit's byte, and the
 * bits of that byte whose prefix count is <= what is left of r lie below
 * the bit (see Rank).  To count the byte's bits, it is copied into every
 * byte and byte j keeps only bit j, which is at most 0x80, so adding 0x7F
 * carries into its top bit exactly when that bit is set. */
static inline int select64(uint64_t w, int r)
{
    uint64_t sums = byte_prefix_counts(w);
    int place = 8 * bytes_at_most(sums, (uint64_t)r * BYTE_ONES);
    r -= (int)(((sums << 8) >> place) & 0xFF); /* the set bits below the byte */
    uint64_t steps = ((w >> place) & 0xFF) * BYTE_ONES & BYTE_STEPS;
    uint64_t bit_sums = (((steps + BYTE_LOWS) & BYTE_TOPS) >> 7) * BYTE_ONES;
    return place + bytes_at_most(bit_sums, (uint64_t)r * BYTE_ONES);
}

/* Position of the zero of `highs` that follows `skip` zeros from bit `bit` on. */
static inline int64_t select_zero(const uint64_t *highs, int64_t bit, int64_t skip)
{
    int64_t word = bit >> 6;
    uint64_t zeros = ~highs[word] & (~(uint64_t)0 << (bit & 63));
    int64_t count = popcount64(zeros);
    while (skip >= count) {
        skip -= count;
        zeros = ~highs[++word];
        count = popcount64(zeros);
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

/* Entry q of one of the section offsets of ef. */
static inline int64_t ef_offset(const ef_seqs *ef, const void *base, int64_t q)
{
    return ef->offset_size == 8 ? ((const int64_t *)base)[q] : ((const uint32_t *)base)[q];
}

/* How many values of sequence q are <= x. */
static inline int64_t rank_lane(const ef_seqs *ef, int64_t q, int64_t x)
{
    int width = ef->widths[q];
    int64_t low_at = ef_offset(ef, ef->low_base, q), high_at = ef_offset(ef, ef->high_base, q);
    const uint32_t *samples = ef->samples + ef_offset(ef, ef->sample_base, q);
    if (x >= ef->u)
        x = ef->u - 1;
    if (x < 0)
        return 0;
    int64_t high = x >> width;
    int64_t limit = x & (((int64_t)1 << width) - 1);
    int64_t bit = high_at, rank = 0;
    if (high > 0) {
        /* zero high - 1, from the last sample at or before it */
        int64_t j = high - 1, k = j >> SAMPLE_SHIFT;
        int64_t from = k ? high_at + samples[k - 1] : high_at;
        bit = select_zero(ef->highs, from, j - (k << SAMPLE_SHIFT)) + 1;
        rank = bit - high_at - high; /* the ones before it */
    }
    /* the bucket's values, up to zero high, in increasing order */
    while ((ef->highs[bit >> 6] >> (bit & 63)) & 1) {
        if (width && read_low(ef->lows, low_at + rank * width, width) > limit)
            break;
        rank++;
        bit++;
    }
    return rank;
}

/* Rank: out[i] is how many values of sequence seq[i] are <= x[i].  Returns
 * 0, or i + 1 for the first lane i whose sequence is not in [0, nseq),
 * which is left unranked. */
int64_t ef_rank(const ef_seqs *ef, const int64_t *seq, const int64_t *x, int64_t *out, int64_t lanes)
{
    for (int64_t i = 0; i < lanes; i++) {
        if (seq[i] < 0 || seq[i] >= ef->nseq)
            return i + 1;
        out[i] = rank_lane(ef, seq[i], x[i]);
    }
    return 0;
}

/* A query's window as (xmin, ymin, xmax, ymax), closed. */
typedef struct {
    double xmin, ymin, xmax, ymax;
} window_t;

/* Whether the segment from (ax, ay) to (bx, by) meets the window: the test of
 * core.segments_intersect_window, operation for operation, clipping the
 * segment's parameter range [0, 1] against the four sides.  A NaN parameter,
 * which numpy's maximum and minimum would carry into its last comparison,
 * fails the test here as there. */
static int clip_segment(double ax, double ay, double bx, double by, const window_t *w)
{
    double dx = bx - ax, dy = by - ay, t0 = 0.0, t1 = 1.0;
    const double p[4] = {-dx, dx, -dy, dy};
    const double q[4] = {ax - w->xmin, w->xmax - ax, ay - w->ymin, w->ymax - ay};
    for (int k = 0; k < 4; k++) {
        if (p[k] == 0.0) {
            if (q[k] < 0.0)
                return 0;
            continue;
        }
        double t = q[k] / p[k];
        if (t != t)
            return 0;
        if (p[k] < 0.0) {
            if (t > t0)
                t0 = t;
        } else if (t < t1) {
            t1 = t;
        }
    }
    return t0 <= t1;
}

/* Window walk: writes every entry whose segment meets the window (closed
 * sets) to `out` and returns how many.  Boxes are stored as (xmin, ymin,
 * -xmax, -ymax) and compared with (xmax, ymax, -xmin, -ymin), so a box
 * overlaps the window when each of its four numbers is <= the window's.  A
 * leaf entry whose box overlaps is kept when the box is degenerate (an
 * axis-parallel segment is its own box) or when its segment, clipped, meets
 * the window.  The last overlapping child of a node is walked first, and a
 * leaf's slots in ascending order. */
int64_t rtree_window(const rtree_index *tree, double xmin, double ymin, double xmax, double ymax, int64_t *stack,
                     int64_t *out)
{
    const rtree_index t = *tree; /* a copy, which the stores below cannot alias */
    const window_t w = {xmin, ymin, xmax, ymax};
    double neg_xmin = -xmin, neg_ymin = -ymin;
    int64_t top = 0, n = 0;
    stack[top++] = 0; /* the root */
    while (top) {
        int64_t k = stack[--top];
        int64_t a = t.first[k], b = a + t.counts[k];
        int leaf = k >= t.n_internal;
        const double *box = (leaf ? t.entry_boxes : t.node_boxes) + 4 * a;
        for (int64_t i = a; i < b; i++, box += 4) {
            if (!(box[0] <= xmax && box[1] <= ymax && box[2] <= neg_xmin && box[3] <= neg_ymin))
                continue;
            if (!leaf) {
                stack[top++] = i;
                continue;
            }
            int64_t g = t.order[i];
            if (box[0] == -box[2] || box[1] == -box[3] || clip_segment(t.ax[g], t.ay[g], t.bx[g], t.by[g], &w))
                out[n++] = g;
        }
    }
    return n;
}

#define ID_INSERTION_MAX 32 /* fewer ids are sorted by insertion */

/* Sorts ids[0 .. n - 1] ascending: by insertion when they are few, and
 * otherwise by a least-significant-digit radix sort of id - lo through
 * tmp[0 .. n - 1], for lo the smallest id, in as few passes of at most 8
 * bits as the largest difference needs, the bits split evenly between
 * them.  The insertion sort leaves tmp alone, so it may then be NULL. */
static void sort_ids(uint32_t *ids, uint32_t *tmp, int64_t n)
{
    if (n <= ID_INSERTION_MAX) {
        for (int64_t i = 1; i < n; i++) {
            uint32_t id = ids[i];
            int64_t j = i;
            for (; j > 0 && ids[j - 1] > id; j--)
                ids[j] = ids[j - 1];
            ids[j] = id;
        }
        return;
    }
    uint32_t lo = ids[0], hi = ids[0];
    for (int64_t i = 1; i < n; i++) {
        lo = ids[i] < lo ? ids[i] : lo;
        hi = ids[i] > hi ? ids[i] : hi;
    }
    int bits = 0;
    while (bits < 32 && ((uint64_t)(hi - lo) >> bits))
        bits++;
    if (!bits)
        return;
    int passes = (bits + 7) / 8, width = (bits + passes - 1) / passes;
    uint32_t mask = (1u << width) - 1;
    int64_t cursor[256];
    uint32_t *src = ids, *dst = tmp, *swap;
    for (int shift = 0; shift < bits; shift += width) {
        memset(cursor, 0, (mask + 1) * sizeof *cursor);
        for (int64_t i = 0; i < n; i++)
            cursor[((src[i] - lo) >> shift) & mask]++;
        for (int64_t b = 0, below = 0; b <= mask; b++) {
            int64_t count = cursor[b];
            cursor[b] = below;
            below += count;
        }
        for (int64_t i = 0; i < n; i++)
            dst[cursor[((src[i] - lo) >> shift) & mask]++] = src[i];
        swap = src;
        src = dst;
        dst = swap;
    }
    if (src != ids)
        memcpy(ids, src, (size_t)n * sizeof *ids);
}

/* Sorts ids[0 .. n - 1] as sort_ids does, drops the repeats and returns
 * how many ids are left. */
static int64_t sort_distinct(uint32_t *ids, uint32_t *tmp, int64_t n)
{
    if (n <= 0)
        return 0;
    sort_ids(ids, tmp, n);
    int64_t k = 1;
    for (int64_t i = 1; i < n; i++)
        if (ids[i] != ids[k - 1])
            ids[k++] = ids[i];
    return k;
}

#define UNION_WORDS_PER_ID 4   /* the bitmap's most words per id gathered */
#define UNION_STACK_WORDS 256  /* a bitmap of at most this many words lives on the stack */
#define TOP_BIT ((uint64_t)1 << 63)

/* Drops the repeats of ids[0 .. n - 1], writes the rest to ids ascending and
 * returns how many, or -1 when out of memory.  When 0 < id_words <=
 * UNION_WORDS_PER_ID * n, every id being below 64 * id_words, it sets one
 * bit per id in a bitmap of id_words words and writes out the set bits in
 * order; the bitmap is allocated per call, on the stack when it is small.
 * Otherwise it sorts the ids as sort_distinct does, through tmp, or when tmp
 * is NULL through a scratch array it allocates only for more ids than the
 * insertion sort takes.  So concurrent calls share nothing. */
static int64_t union_ids(uint32_t *ids, int64_t n, int64_t id_words, uint32_t *tmp)
{
    if (id_words <= 0 || id_words > UNION_WORDS_PER_ID * n) {
        uint32_t *own = NULL;
        if (!tmp && n > ID_INSERTION_MAX && !(tmp = own = malloc((size_t)n * sizeof *tmp)))
            return -1;
        int64_t k = sort_distinct(ids, tmp, n);
        free(own);
        return k;
    }
    uint64_t stack[UNION_STACK_WORDS], *bits = stack;
    if (id_words > UNION_STACK_WORDS) {
        if (!(bits = calloc((size_t)id_words, sizeof *bits)))
            return -1;
    } else {
        memset(bits, 0, (size_t)id_words * sizeof *bits);
    }
    for (int64_t i = 0; i < n; i++)
        bits[ids[i] >> 6] |= (uint64_t)1 << (ids[i] & 63);
    /* While two slots remain, each word's two lowest set bits are stored
     * whatever the word holds, and only the set ones advance k: a loop per
     * word, whose exit a branch predictor cannot foresee for random ids,
     * then serves only the rarer words of three or more.  The top bit or'ed
     * in keeps the count of trailing zeros defined; a store that stands for
     * no set bit lies at or past k, so a later one or the caller's k drops it. */
    int64_t k = 0;
    for (int64_t w = 0; w < id_words; w++) {
        uint64_t word = bits[w];
        uint32_t base = (uint32_t)(w << 6);
        if (k + 2 <= n) {
            uint64_t rest = word & (word - 1); /* drops the lowest set bit */
            ids[k] = base + (uint32_t)__builtin_ctzll(word | TOP_BIT);
            ids[k + 1] = base + (uint32_t)__builtin_ctzll(rest | TOP_BIT);
            k += (word != 0) + (rest != 0);
            word = rest & (rest - 1);
        }
        for (; word; word &= word - 1)
            ids[k++] = base + (uint32_t)__builtin_ctzll(word);
    }
    if (bits != stack)
        free(bits);
    return k;
}

/* Union: writes each distinct object id of rows[0 .. n - 1], rows of the
 * frame's record table, once to `out`, ascending, and returns how many, or
 * -1 when out of memory.  It gathers the ids and unions them by union_ids. */
int64_t distinct_ids(const range_frame *frame, const int64_t *rows, int64_t n, uint32_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = frame->object_ids[rows[i]];
    return union_ids(out, n, frame->id_words, NULL);
}

/* Writes the object ids of rows first .. end - 1, or of the row ids they
 * map to, to dst. */
static inline void gather_ids(uint32_t *dst, const uint32_t *object_ids, const uint32_t *row_ids,
                              int64_t first, int64_t end)
{
    if (row_ids)
        for (int64_t row = first; row < end; row++)
            *dst++ = object_ids[row_ids[row]];
    else
        for (int64_t row = first; row < end; row++)
            *dst++ = object_ids[row];
}

/* Writes rows first .. end - 1, or the row ids they map to, to dst. */
static inline void gather_rows(int64_t *dst, const uint32_t *row_ids, int64_t first, int64_t end)
{
    if (row_ids)
        for (int64_t row = first; row < end; row++)
            *dst++ = row_ids[row];
    else
        for (int64_t row = first; row < end; row++)
            *dst++ = row;
}

#define TICK_TOP ((int64_t)1 << 62) /* above every tick a record or a universe holds */

/* Stores the tick of time t, floor(t * scale) of the exact product as
 * core.discretize_time gives it, clamped to top, and returns 1; returns 0,
 * storing nothing, unless t is finite and >= 0.  The rounded product p has
 * the exact product's floor unless p is an integer: an integer between the
 * two would lie nearer to the product than p.  When p is an integer, fma
 * gives the product's rounding error e exactly, as p >= 1 keeps it clear of
 * underflow, and the floor is p + floor(e).  Below 2**63, |e| <= 512, so the
 * sum fits an int64.  A p of 2**63 or more comes from a product of at least
 * 2**63 - 512, above any top <= TICK_TOP, so the tick is then top. */
static inline int time_tick(double t, double scale, int64_t top, int64_t *tick)
{
    if (!(t >= 0.0 && t <= DBL_MAX))
        return 0;
    double p = t * scale, whole = floor(p);
    int64_t exact = top;
    if (p < 0x1p63) {
        exact = (int64_t)whole;
        if (whole == p)
            exact += (int64_t)floor(fma(t, scale, -p));
    }
    *tick = exact < top ? exact : top;
    return 1;
}

/* The ticks of n times: returns -1, or the first i whose time is not finite
 * and >= 0 or whose exact tick is TICK_TOP or more (stored as TICK_TOP). */
int64_t time_ticks(const double *times, int64_t n, double scale, int64_t *ticks)
{
    for (int64_t i = 0; i < n; i++)
        if (!time_tick(times[i], scale, TICK_TOP, &ticks[i]) || ticks[i] == TICK_TOP)
            return i;
    return -1;
}

/* The ticks of a query's times, clamped to top: returns 0, or -1 or -2 when
 * t_start or t_end is not finite and >= 0. */
static inline int64_t query_ticks(double scale, double t_start, double t_end, int64_t top, int64_t *l, int64_t *r)
{
    if (!time_tick(t_start, scale, top, l))
        return -1;
    return time_tick(t_end, scale, top, r) ? 0 : -2;
}

/* The query body of an IISIndex: per segment as given (all segments in
 * order when `segments` is NULL), per set of the segment, the run of the
 * set's rows whose start is <= r and whose end is > l1, ascending; a row
 * stands for row_ids[row] when the index has row ids.  Without a frame it
 * answers with these rows as int64_t.  With a frame, the segments are the
 * hits of a window walk and must lie below the frame's edge count too; it then
 * answers with the distinct object ids of these rows, ascending: it gathers
 * each run's ids, then unions them by union_ids (see Query for the one
 * buffer of either).  Its status is 0, -1 - i for the first lane i whose
 * segment is out of range, or -1 - n_probe when out of memory; it then holds
 * no buffer. */
static iis_answer iis_collect(const iis_index *ix, const range_frame *frame, const int64_t *segments,
                              int64_t n_probe, int64_t l1, int64_t r)
{
    const ef_seqs seqs = *ix->seqs; /* a copy, which the stores below cannot alias */
    int64_t cap = 0, n = 0, status;
    int64_t n_segments = frame && frame->n_edges < ix->n_segments ? frame->n_edges : ix->n_segments;
    void *out = NULL;
    for (int64_t i = 0; i < n_probe; i++) {
        int64_t g = segments ? segments[i] : i;
        if (g < 0 || g >= n_segments) {
            status = -1 - i;
            goto fail;
        }
        for (int64_t k = ix->seg_sets[g]; k < ix->seg_sets[g + 1]; k++) {
            int64_t last = rank_lane(&seqs, 2 * k, r);
            if (!last) /* no start is <= r, so no row matches */
                continue;
            int64_t skip = rank_lane(&seqs, 2 * k + 1, l1);
            /* no row: l1 >= r, which only a direct call with a start
             * time past the end time gives, can rank more ends than starts */
            if (last <= skip)
                continue;
            if (n + last - skip > cap) {
                cap = 2 * cap > n + last - skip ? 2 * cap : n + last - skip;
                if (cap < 64)
                    cap = 64;
                void *grown = realloc(out, (size_t)cap * 8);
                if (!grown) {
                    status = -1 - n_probe;
                    goto fail;
                }
                out = grown;
            }
            int64_t first = ix->set_rows[k] + skip, end = ix->set_rows[k] + last;
            if (frame)
                gather_ids((uint32_t *)out + n, frame->object_ids, ix->row_ids, first, end);
            else
                gather_rows((int64_t *)out + n, ix->row_ids, first, end);
            n += last - skip;
        }
    }
    if (frame && (n = union_ids(out, n, frame->id_words, (uint32_t *)out + cap)) < 0) {
        status = -1 - n_probe;
        goto fail;
    }
    return (iis_answer){0, out, n};
fail:
    free(out);
    return (iis_answer){status, NULL, 0};
}

/* Query by ticks: the rows of iis_collect without a frame, for a segment
 * not in [0, n_segments). */
iis_answer iis_query(const iis_index *ix, const int64_t *segments, int64_t n_probe, int64_t l1, int64_t r)
{
    return iis_collect(ix, NULL, segments, n_probe, l1, r);
}

/* Range query: the distinct object ids of the frame's rows of every set of
 * every hit, whose start tick is <= that of
 * t_end and whose end tick is >= that of t_start; see iis_collect.  The
 * ticks are clamped to the universe u: a set holds only ticks below it.  Its
 * status is 0, -1 or -2 when t_start or t_end is not finite and >= 0, found
 * before anything else, -3 - i for the first hit i not below the segment and
 * the edge counts, or -3 - n_hits when out of memory; it then holds no
 * buffer. */
iis_answer iis_range(const iis_index *ix, const range_frame *frame, const int64_t *hits, int64_t n_hits,
                     double t_start, double t_end)
{
    int64_t l, r, status = query_ticks(frame->scale, t_start, t_end, ix->seqs->u, &l, &r);
    if (status)
        return (iis_answer){status, NULL, 0};
    iis_answer out = iis_collect(ix, frame, hits, n_hits, l - 1, r);
    if (out.status)
        out.status -= 2;
    return out;
}

/* Range ticks for the backends that answer by ticks: the ticks of t_start
 * and t_end, clamped to TICK_TOP.  Its status is -1 or -2 when t_start or
 * t_end is not finite and >= 0, found before anything else, or -3 - i for
 * the first hit i not in [0, n_edges). */
ticks_answer range_ticks(const range_frame *frame, const int64_t *hits, int64_t n_hits, double t_start, double t_end)
{
    ticks_answer out = {0, 0, 0};
    if ((out.status = query_ticks(frame->scale, t_start, t_end, TICK_TOP, &out.l, &out.r)))
        return out;
    for (int64_t i = 0; i < n_hits; i++)
        if (hits[i] < 0 || hits[i] >= frame->n_edges)
            return (ticks_answer){-3 - i, 0, 0};
    return out;
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
