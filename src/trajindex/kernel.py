"""Compiles and loads the package's kernels, ``eliasfano_rank.c``: the rank,
encoder and ``iis`` kernels, the R-tree walk, the range entries, the union
and the ticks of float times, which builds and queries take from one helper.
``kernel.h`` declares their interface and ``kernel_builder`` is their one
build recipe.  They are compiled at the first import, into this package's
``__pycache__``, under a name derived from their source, header, compiler
flags and the interpreter, and reused afterwards.  Without ``cffi`` or a C
compiler the import raises ``ImportError``.  This module imports nothing
from the package, so every module, ``core`` among them, can import it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import tempfile
import time
from pathlib import Path

try:
    import cffi
except ImportError as exc:
    raise ImportError(f"trajindex needs cffi to build its kernels: {exc}") from exc

_KERNEL_SOURCE = Path(__file__).with_name("eliasfano_rank.c")
_KERNEL_HEADER = _KERNEL_SOURCE.with_name("kernel.h")
# -ffp-contract=off: no product and sum fused into an fma that numpy's
# arithmetic, which the clip reproduces, does not make
KERNEL_FLAGS = ["-O2", "-Wall", "-Wextra", "-ffp-contract=off"]
KERNEL_LIBRARIES = ["m"]  # floor and fma


def kernel_builder(name: str, extra_compile_args=(), extra_link_args=()):
    """The kernels' one build recipe: a ``cffi.FFI`` that declares ``kernel.h``
    and compiles ``eliasfano_rank.c`` into module ``name`` with the flags
    their answers depend on, then the extra arguments."""
    builder = cffi.FFI()
    builder.cdef(_KERNEL_HEADER.read_text())
    builder.set_source(name, _KERNEL_SOURCE.read_text(), include_dirs=[str(_KERNEL_SOURCE.parent)],
                       extra_compile_args=[*KERNEL_FLAGS, *extra_compile_args],
                       extra_link_args=list(extra_link_args), libraries=KERNEL_LIBRARIES)
    return builder


def _load_kernel():
    """Import the kernels, compiling them first when no module built
    from this source and header with these flags for this interpreter sits
    in ``__pycache__``.  A build then removes this interpreter's other
    builds there that are over a minute old: a younger one may be another
    process's, which it has yet to load."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = "\0".join((_KERNEL_SOURCE.read_text(), _KERNEL_HEADER.read_text(), suffix, cffi.__version__,
                      *KERNEL_FLAGS, *KERNEL_LIBRARIES))
    name = "_eliasfano_rank_" + hashlib.sha256(key.encode()).hexdigest()[:16]
    cache = _KERNEL_SOURCE.with_name("__pycache__")
    path = cache / (name + suffix)
    if not path.exists():
        builder = kernel_builder(name)
        try:
            cache.mkdir(exist_ok=True)
            # build aside and move the finished module in, so that a
            # concurrent first import never loads a half-written file
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                os.replace(builder.compile(tmpdir=tmp), path)
        except (cffi.VerificationError, OSError) as exc:
            raise ImportError(f"trajindex could not compile its kernels from "
                              f"{_KERNEL_SOURCE.name} (a C compiler is required): {exc}") from exc
        for old in cache.glob("_eliasfano_rank_*" + suffix):
            with contextlib.suppress(OSError):  # another process's build may remove it first
                if old != path and old.stat().st_mtime < time.time() - 60:
                    old.unlink()
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_KERNEL = _load_kernel()
ffi, lib = _KERNEL.ffi, _KERNEL.lib
