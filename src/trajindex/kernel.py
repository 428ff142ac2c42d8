"""Compiles and loads the package's kernels, ``eliasfano_rank.c``: the rank,
encoder and ``iis`` kernels, the R-tree walk, the range entries, the union
and the ticks of float times, which builds and queries take from one helper.
``kernel.h`` declares their interface and ``kernel_builder`` is their one
build recipe.  They are compiled at the first import, into this package's
``__pycache__``, under a name derived from their source, header, compiler
flags and the interpreter, and reused afterwards.  A process holds a shared
``flock`` on the module it loaded for as long as it runs, and a build's
cleanup removes only the old modules that no process holds.  Without
``cffi`` or a C compiler the import raises ``ImportError``.  This module imports nothing
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
try:
    import fcntl
except ImportError:  # no advisory locks: the cleanup removes nothing
    fcntl = None

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


def _hold(path: Path):
    """The module file at ``path``, open under a shared lock that tells
    other processes' cleanups this process loaded it; None when there is no
    such file, or a cleanup removed it before the lock was taken."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    if fcntl is not None:
        with contextlib.suppress(OSError):  # a file system without locks: the module is not held
            fcntl.flock(fh, fcntl.LOCK_SH)
        try:
            kept = os.stat(path).st_ino == os.fstat(fh.fileno()).st_ino
        except FileNotFoundError:
            kept = False
        if not kept:
            fh.close()
            return None
    return fh


def _remove_unheld(cache: Path, keep: Path, suffix: str) -> None:
    """Remove the kernel builds in ``cache`` other than ``keep`` that are
    over a minute old and that no process holds: a younger one may be
    another process's, which it has yet to load and hold."""
    if fcntl is None:
        return
    for old in cache.glob("_eliasfano_rank_*" + suffix):
        # a held build refuses the lock; another cleanup may remove it first
        with contextlib.suppress(OSError):
            if old != keep and old.stat().st_mtime < time.time() - 60:
                with open(old, "rb") as fh:
                    fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    old.unlink()


def _load_kernel():
    """Import the kernels, compiling them first when no module built
    from this source and header with these flags for this interpreter sits
    in ``__pycache__``, and hold the module for the process's life.  A
    build then removes this interpreter's other builds there that no
    process holds.  Returns the module and the held file."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = "\0".join((_KERNEL_SOURCE.read_text(), _KERNEL_HEADER.read_text(), suffix, cffi.__version__,
                      *KERNEL_FLAGS, *KERNEL_LIBRARIES))
    name = "_eliasfano_rank_" + hashlib.sha256(key.encode()).hexdigest()[:16]
    cache = _KERNEL_SOURCE.with_name("__pycache__")
    path = cache / (name + suffix)
    held = _hold(path)
    if held is None:
        builder = kernel_builder(name)
        try:
            cache.mkdir(exist_ok=True)
            # build aside and move the finished module in, so that a
            # concurrent first import never loads a half-written file
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                os.replace(builder.compile(tmpdir=tmp), path)
            held = _hold(path)
        except (cffi.VerificationError, OSError) as exc:
            raise ImportError(f"trajindex could not compile its kernels from "
                              f"{_KERNEL_SOURCE.name} (a C compiler is required): {exc}") from exc
        _remove_unheld(cache, path, suffix)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, held


_KERNEL, _HELD = _load_kernel()
ffi, lib = _KERNEL.ffi, _KERNEL.lib
