/* Batched rank over the sequences of a FlatEliasFano (eliasfano.py).
 *
 * Sequence q keeps its low parts at bits low_base[q].. of `lows`, its
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
 */
#include <stdint.h>

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
