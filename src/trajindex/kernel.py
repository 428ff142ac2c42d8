"""Compiles and loads the package's kernels, ``eliasfano_rank.c``: the rank,
encoder and ``iis`` kernels, the R-tree walk, the range entries, the union
and the ticks of float times, which builds and queries take from one helper.
They are compiled with ``cffi`` at the first import, into this package's
``__pycache__``, under a name derived from their source, their compiler
flags and the interpreter, and reused afterwards.  Without ``cffi`` or a C
compiler the import raises ``ImportError``.  This module imports nothing
from the package, so every module, ``core`` among them, can import it.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import tempfile
from pathlib import Path

_KERNEL_SOURCE = Path(__file__).with_name("eliasfano_rank.c")
_KERNEL_CDEF = """
typedef struct {
    const uint8_t *widths;
    const void *low_base, *high_base, *sample_base;
    const uint64_t *lows, *highs;
    const uint32_t *samples;
    int offset_size;
    int64_t nseq, u;
} ef_seqs;
int64_t ef_rank(const ef_seqs *, const int64_t *, const int64_t *, int64_t *, int64_t);
int64_t rtree_window(const uint32_t *, const uint32_t *, const uint32_t *, const double *, const double *,
                     int64_t, double, double, double, double, int64_t *, int64_t *);
typedef struct { int64_t status; int64_t *rows; uint32_t *ids; int64_t n_rows, n_ids; } iis_answer;
typedef struct {
    const ef_seqs *seqs;
    const int64_t *seg_sets, *set_rows;
    int64_t n_segments;
    const uint32_t *row_ids;
} iis_index;
iis_answer iis_query(const iis_index *, const uint32_t *, const int64_t *, int64_t, int64_t, int64_t, int);
typedef struct {
    const double *ax, *ay, *bx, *by;
    int64_t n_edges;
    double scale;
    const uint32_t *object_ids;
} range_frame;
iis_answer iis_range(const iis_index *, const range_frame *, const int64_t *, int64_t, double, double, double,
                     double, double, double, int);
typedef struct { int64_t kept, l, r; } refined_hits;
refined_hits refine_hits(const range_frame *, const int64_t *, int64_t, double, double, double, double, double,
                         double, int64_t *);
int64_t time_ticks(const double *, int64_t, double, int64_t *);
int64_t iis_decompose(const int64_t *, const int64_t *, const int64_t *, int64_t, int64_t, int64_t *,
                      int64_t *);
void sort_by_key(const int64_t *, const int64_t *, int64_t, int64_t *, int64_t *);
int64_t ef_encode(const int64_t *, const int64_t *, const int64_t *, const int64_t *, const int64_t *,
                  int64_t, int64_t, uint64_t *, uint64_t *, int64_t *);
int64_t distinct_ids(const uint32_t *, const int64_t *, int64_t, uint32_t *);
void free(void *);
"""

# -ffp-contract=off: no product and sum fused into an fma that numpy's
# arithmetic, which the clip reproduces, does not make
KERNEL_FLAGS = ["-O2", "-Wall", "-Wextra", "-ffp-contract=off"]
KERNEL_LIBRARIES = ["m"]  # floor and fma


def _load_kernel():
    """Import the kernels, compiling them first when no module built
    from this source with these flags for this interpreter sits in
    ``__pycache__``."""
    try:
        import cffi
    except ImportError as exc:
        raise ImportError(f"trajindex needs cffi to build its kernels: {exc}") from exc
    source = _KERNEL_SOURCE.read_text()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = "\0".join((source, _KERNEL_CDEF, suffix, cffi.__version__, *KERNEL_FLAGS, *KERNEL_LIBRARIES))
    name = "_eliasfano_rank_" + hashlib.sha256(key.encode()).hexdigest()[:16]
    cache = _KERNEL_SOURCE.with_name("__pycache__")
    path = cache / (name + suffix)
    if not path.exists():
        builder = cffi.FFI()
        builder.cdef(_KERNEL_CDEF)
        builder.set_source(name, source, extra_compile_args=KERNEL_FLAGS, libraries=KERNEL_LIBRARIES)
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
