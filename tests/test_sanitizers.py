"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

The kernels are built by the package's own recipe, ``kernel_builder``, with
``-fsanitize=address,undefined`` added, into a temporary directory.  A child
Python, with both runtimes preloaded and told to halt at the first report,
rebinds the package's ``ffi`` and ``lib`` to that build.  It then runs the
kernel tests, the queries of both fuzz tests on the corrupt files that load,
and a small build, save, load and query of every benchmark workload.  A
second child checks that a planted overflow is reported, so a run that
sanitizes nothing cannot pass.  Two more hand the union a frame one bitmap
word short of its ids: with enough rows gathered for the bitmap, its write
past the end is reported; with one row fewer, the union sorts and answers
right, so each side of the crossover is seen to be taken.
Skipped without a C compiler or the sanitizer runtimes.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import kernel_constant

ROOT = Path(__file__).resolve().parent.parent

KERNEL_TESTS = [
    "tests/test_rtree.py::TestKernelWalk",  # the walk, its clip and the end points it reads
    "tests/test_iis.py::TestKernelRows",
    "tests/test_iis.py::TestKernelIds",
    "tests/test_iis.py::TestOrderKernel",
    "tests/test_eliasfano.py::TestEncoder",
    "tests/test_eliasfano.py::TestKernelEdges",  # the rank entry on its own
    "tests/test_eliasfano.py::TestFlat",
    "tests/test_index.py::TestDistinctIds",
    "tests/test_core.py::TestDiscretize",  # the ticks of a build's times, and their errors
    "tests/test_index.py::TestKernelTicks",  # the ticks of float times, and their errors
    "tests/test_index.py::TestTopTickEdge",  # a record's tick just below 2**62, built, loaded and queried
    "tests/test_index.py::TestKernelClip",  # the walk's clip, and hits out of range
    "tests/test_index.py::TestHugeCoordinates",  # the clip at the largest coordinates
    "tests/test_index.py::TestRangeQueryNetworks",  # both range entries on mixed and diagonal networks
    "tests/test_index.py::TestThreads",
    "tests/test_index.py::TestWorkloadMatches",  # every backend's answers and verbose rows
    "tests/test_index.py::TestFormatChecks::test_spatial_block_fuzz",  # queries on corrupt files that load
    "tests/test_index.py::TestFormatChecks::test_temporal_block_fuzz",
    "tests/test_index.py::TestFormatChecks::test_record_table_fuzz",
    "tests/test_index.py::TestFormatChecks::test_crafted_set_shapes",  # loaded set shapes, queried in process
]

# Loads the sanitized build named by argv[1:3] in place of the package's own.
REBIND = """
import importlib.util, sys
import numpy as np
import trajindex.kernel as k
spec = importlib.util.spec_from_file_location(sys.argv[1], sys.argv[2])
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)
own = k.lib
for name, module in list(sys.modules.items()):
    if name.startswith("trajindex") and getattr(module, "lib", None) is own:
        module.ffi, module.lib = kernel.ffi, kernel.lib
ffi, lib = kernel.ffi, kernel.lib
"""

CHECKS = REBIND + """
import pytest
if pytest.main(["-q", "-s", "-p", "no:cacheprovider", *sys.argv[3:]]):  # -s: reports reach stderr
    sys.exit("kernel tests failed")
sys.path.insert(0, "perfbench")
import trajindex as tj
from oracle import Oracle
from workloads import WORKLOADS, generate
for workload in WORKLOADS.values():
    net, records, queries = generate(tj, workload, 5, 60, True)
    cfg = tj.TrajIndexConfig(scale=tj.ScaleConfig(6))
    oracle = Oracle(tj, net, records, cfg.scale)
    index = tj.TrajIndex.build(net, records, cfg)
    path = sys.argv[2] + "." + workload.name + ".tjix"  # beside the build, in the temporary directory
    index.save(path)
    for idx in (index, tj.TrajIndex.load(path)):
        for q in queries:
            assert idx.range_query(q.window, q.t_start, q.t_end).object_ids == oracle.answer(q), workload.name
print("sanitized kernel ran clean")
"""

# One row past the end of a four-record table.
OVERFLOW = REBIND + """
ids = np.arange(4, dtype=np.uint32)
rows = np.array([0, 4], dtype=np.int64)
out = np.empty(2, dtype=np.uint32)
frame = ffi.new("range_frame *", {"object_ids": ffi.from_buffer("uint32_t[]", ids), "id_words": 1})
lib.distinct_ids(frame, ffi.from_buffer("int64_t[]", rows), 2, ffi.from_buffer("uint32_t[]", out))
print("overflow not reported")
"""

SHORT_WORDS = 1_000  # past the union's stack bitmap, so the bitmap is a heap block of exactly these words

# The last argv[3] rows of a table whose ids 0 .. 64 * SHORT_WORDS need one
# bitmap word more than its frame gives; the largest id is gathered.
SHORT_FRAME = REBIND + f"""
n = int(sys.argv[3])
ids = np.arange(64 * {SHORT_WORDS} + 1, dtype=np.uint32)
rows = np.arange(len(ids) - n, len(ids), dtype=np.int64)
out = np.empty(n, dtype=np.uint32)
frame = ffi.new("range_frame *", {{"object_ids": ffi.from_buffer("uint32_t[]", ids), "id_words": {SHORT_WORDS}}})
k = lib.distinct_ids(frame, ffi.from_buffer("int64_t[]", rows), n, ffi.from_buffer("uint32_t[]", out))
assert out[:k].tolist() == ids[rows].tolist()
print("short frame sorted")
"""


def sanitizer_runtimes() -> list[str] | None:
    """The shared ASan and UBSan runtimes of ``cc``, or None without them."""
    if shutil.which("cc") is None:
        return None
    paths = []
    for name in ("libasan.so", "libubsan.so"):
        found = subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True, text=True,
                               timeout=60).stdout.strip()
        if not os.path.isabs(found) or not os.path.exists(found):  # cc echoes a name it cannot find
            return None
        paths.append(found)
    return paths


def build_sanitized(tmp_path: Path) -> Path:
    """The package's own build recipe with the sanitizers added."""
    from trajindex.kernel import kernel_builder

    flags = ["-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    builder = kernel_builder("_kernel_sanitized", flags, ["-fsanitize=address,undefined"])
    return Path(builder.compile(tmpdir=str(tmp_path)))


def test_kernels_run_clean_under_sanitizers(tmp_path):
    runtimes = sanitizer_runtimes()
    if runtimes is None:
        pytest.skip("no C compiler with the ASan and UBSan runtimes")
    module = build_sanitized(tmp_path)
    pythonpath = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": pythonpath, "LD_PRELOAD": ":".join(runtimes),
           "ASAN_OPTIONS": "halt_on_error=1:detect_leaks=0", "UBSAN_OPTIONS": "halt_on_error=1:print_stacktrace=1"}

    def child(script: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", script, "_kernel_sanitized", str(module),
                               *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)

    planted = child(OVERFLOW)
    assert planted.returncode != 0 and "heap-buffer-overflow" in planted.stderr, planted.stdout + planted.stderr
    bitmap_rows = -(-SHORT_WORDS // kernel_constant("UNION_WORDS_PER_ID"))  # the fewest that take the bitmap
    assert SHORT_WORDS > kernel_constant("UNION_STACK_WORDS")
    planted = child(SHORT_FRAME, str(bitmap_rows))
    assert planted.returncode != 0 and "heap-buffer-overflow" in planted.stderr, planted.stdout + planted.stderr
    sorted_union = child(SHORT_FRAME, str(bitmap_rows - 1))
    assert sorted_union.returncode == 0 and "short frame sorted" in sorted_union.stdout, sorted_union.stderr[-6000:]
    run = child(CHECKS, *KERNEL_TESTS)
    assert run.returncode == 0, (run.stdout + run.stderr)[-6000:]
    assert "sanitized kernel ran clean" in run.stdout
