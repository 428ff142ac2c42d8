/* The structs and entries of the compiled kernels (eliasfano_rank.c), declared
 * once: the C file includes this file after <stdint.h> and kernel.py hands it
 * to cffi's cdef, so it holds only what cdef parses, no #include or guard. */

/* The arrays of a FlatEliasFano, handed over once.  The three section
 * offsets are uint32_t when offset_size is 4 and int64_t when it is 8. */
typedef struct {
    const uint8_t *widths;
    const void *low_base, *high_base, *sample_base;
    const uint64_t *lows, *highs;
    const uint32_t *samples;
    int offset_size;
    int64_t nseq, u;
} ef_seqs;

/* What an iis query answers, returned by value: a status, 0 unless the query
 * failed, and n values in `out`, malloc'ed for the caller to free, or NULL
 * when there are none or the query failed.  iis_query writes int64_t rows,
 * iis_range uint32_t object ids. */
typedef struct {
    int64_t status;
    void *out;
    int64_t n;
} iis_answer;

/* The arrays of an IISIndex, handed over once; row_ids is NULL when it has none. */
typedef struct {
    const ef_seqs *seqs;
    const int64_t *seg_sets, *set_rows;
    int64_t n_segments;
    const uint32_t *row_ids;
} iis_index;

/* The arrays of an RTree, handed over once: its node table (see rtree.py)
 * and the end points, entry g running from (ax[g], ay[g]) to (bx[g], by[g]). */
typedef struct {
    const uint32_t *first, *counts, *order;
    const double *node_boxes, *entry_boxes;
    int64_t n_internal;
    const double *ax, *ay, *bx, *by;
} rtree_index;

/* What a range query's temporal entry reads besides its temporal level,
 * handed over once by a TrajIndex: the edge count, the time scale (a time t
 * has the tick floor(t * scale)) and object_ids, row i's object.  id_words is
 * (the largest object id >> 6) + 1, the words of a bitmap over the ids, or 0
 * for no rows, and then the union sorts. */
typedef struct {
    int64_t n_edges;
    double scale;
    const uint32_t *object_ids;
    int64_t id_words;
} range_frame;

/* What range_ticks answers, returned by value: a status, 0 unless the query
 * failed, and the ticks of the query's times. */
typedef struct {
    int64_t status, l, r;
} ticks_answer;

int64_t ef_rank(const ef_seqs *ef, const int64_t *seq, const int64_t *x, int64_t *out, int64_t lanes);
int64_t rtree_window(const rtree_index *tree, double xmin, double ymin, double xmax, double ymax, int64_t *stack,
                     int64_t *out);
int64_t distinct_ids(const range_frame *frame, const int64_t *rows, int64_t n, uint32_t *out);
int64_t time_ticks(const double *times, int64_t n, double scale, int64_t *ticks);
iis_answer iis_query(const iis_index *ix, const int64_t *segments, int64_t n_probe, int64_t l1, int64_t r);
iis_answer iis_range(const iis_index *ix, const range_frame *frame, const int64_t *hits, int64_t n_hits,
                     double t_start, double t_end);
ticks_answer range_ticks(const range_frame *frame, const int64_t *hits, int64_t n_hits, double t_start, double t_end);
int64_t iis_decompose(const int64_t *starts, const int64_t *ends, const int64_t *groups, int64_t n,
                      int64_t n_groups, int64_t *order, int64_t *assignment);
void sort_by_key(const int64_t *keys, const int64_t *items, int64_t n, int64_t *cursor, int64_t *out);
int64_t ef_encode(const int64_t *values, const int64_t *value_base, const int64_t *widths,
                  const int64_t *low_base, const int64_t *high_base, int64_t nseq, int64_t u,
                  uint64_t *lows, uint64_t *highs, int64_t *high_values);
void free(void *);
