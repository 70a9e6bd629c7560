"""Compile and load the fastpath C kernel.

The kernel ships as C source (``kernel.c``) and is compiled on first use
with whatever C compiler the host provides (``$CC``, ``cc``, ``gcc`` or
``clang``).  Build products are cached in a per-user directory keyed by a
hash of the source and the build (see below), so recompilation happens
only when the kernel or the toolchain changes.  Everything degrades
gracefully: any failure (no compiler, no writable cache dir, a broken
toolchain) makes :func:`load_kernel` return ``None`` and the engines
stay on the pure-Python reference path.

The service program (``rfp_service_program``) and the cluster event
loop (``rfp_cluster_events``) draw on NumPy's own C sampler library,
``libnpyrandom.a``, located through NumPy itself.  When its headers or
library are missing (or will not link), the kernel is built without
those two entry points: every other kernel still loads, and
:func:`service_program_kernel` returns ``None``, so service times are
drawn and cluster runs simulated by the interpreted reference loops.
The cache key covers the resolved compiler path, the NumPy version and
the library path as well as the source.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path

_KERNEL_SRC = Path(__file__).with_name("kernel.c")

_lock = threading.Lock()
_UNSET = object()
_kernel: object = _UNSET  # ctypes.CDLL | None once resolved

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64

#: Exported kernel entry points: name -> (restype, argtypes).  Pointer
#: arguments are declared ``void *`` and passed as ``ndarray.ctypes.data``
#: integers; the adapter owns dtype/layout discipline.
_SIGNATURES = {
    "rfp_new": (_PTR, [_PTR]),
    "rfp_free": (None, [_PTR]),
    "rfp_add_cache": (_I64, [_PTR, _I64, _I64, _I64, _I64]),
    "rfp_cache_seed": (None, [_PTR, _I64, _PTR, _PTR, _PTR]),
    "rfp_cache_dump": (None, [_PTR, _I64, _PTR, _PTR, _PTR]),
    "rfp_add_tlb": (_I64, [_PTR, _I64, _I64, _I64]),
    "rfp_tlb_seed": (None, [_PTR, _I64, _I64, _PTR, _I64, _I64]),
    "rfp_tlb_dump": (_I64, [_PTR, _I64, _PTR, _PTR]),
    "rfp_add_btb": (_I64, [_PTR, _I64]),
    "rfp_btb_seed": (None, [_PTR, _I64, _PTR, _PTR, _PTR, _I64, _I64]),
    "rfp_btb_dump": (None, [_PTR, _I64, _PTR, _PTR, _PTR, _PTR]),
    "rfp_cache_counters": (None, [_PTR, _I64, _PTR]),
    "rfp_tlb_counters": (None, [_PTR, _I64, _PTR]),
    "rfp_btb_counters": (None, [_PTR, _I64, _PTR]),
    "rfp_add_pred": (
        _I64,
        [_PTR, _I64, _PTR, _I64, _PTR, _I64, _I64, _PTR, _I64],
    ),
    "rfp_add_hier": (
        _I64,
        [_PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _I64, _I64],
    ),
    "rfp_hier_seed": (None, [_PTR, _I64, _PTR]),
    "rfp_hier_dump": (None, [_PTR, _I64, _PTR]),
    "rfp_add_engine": (_I64, [_PTR, _I64, _I64]),
    "rfp_engine_seed": (None, [_PTR, _I64, _PTR]),
    "rfp_engine_sched": (
        _I64,
        [_PTR, _I64, _I64, _I64, _I64, _PTR, _I64, _PTR, _I64, _PTR],
    ),
    "rfp_alloc_seed": (None, [_PTR, _I64, _I64, _I64, _I64, _I64, _PTR, _PTR]),
    "rfp_alloc_size": (_I64, [_PTR, _I64, _I64]),
    "rfp_alloc_dump": (_I64, [_PTR, _I64, _I64, _PTR, _PTR, _PTR]),
    "rfp_heap_seed": (_I64, [_PTR, _I64, _I64, _PTR]),
    "rfp_heap_dump": (_I64, [_PTR, _I64, _PTR]),
    "rfp_add_thread": (
        _I64,
        [_PTR, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _I64, _PTR],
    ),
    "rfp_thread_seed": (
        None,
        [_PTR, _I64, _I64, _PTR, _I64, _PTR, _I64, _PTR, _I64, _PTR],
    ),
    "rfp_thread_regs_dump": (None, [_PTR, _I64, _I64, _PTR]),
    "rfp_thread_queues_dump": (_I64, [_PTR, _I64, _I64, _PTR, _PTR, _PTR, _PTR]),
    "rfp_prof_seed": (None, [_PTR, _I64, _I64, _PTR, _I64, _I64, _PTR]),
    "rfp_prof_dump": (None, [_PTR, _I64, _I64, _PTR, _I64, _PTR, _PTR]),
    "rfp_engine_dump": (None, [_PTR, _I64, _PTR]),
    "rfp_sched_dump": (None, [_PTR, _I64, _PTR, _PTR]),
    "rfp_sync_in": (None, [_PTR, _I64, _PTR]),
    "rfp_sync_out": (None, [_PTR, _I64, _PTR]),
    "rfp_run": (
        _I64,
        [_PTR, _I64, _I64, _I64, _I64, _I64, _I64, _PTR, _PTR],
    ),
    "rfp_fast_forward": (_I64, [_PTR, _I64, _I64]),
    "rfp_lindley": (
        _I64,
        [_PTR, _I64, _I64, _I64, ctypes.c_double, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR],
    ),
    "rfp_tracegen": (
        _I64,
        [_PTR] * 16 + [_PTR] * 9,
    ),
}


#: Entry points present only when the kernel links NumPy's sampler library.
_OPTIONAL_SIGNATURES = {
    "rfp_service_program": (
        None,
        [_PTR, _I64, _I64, _PTR, _PTR, ctypes.c_double, _PTR],
    ),
    "rfp_cluster_events": (
        _I64,
        [
            _PTR, _I64, _I64, _I64, _I64,  # epochs, n, warmup, fanout, n_servers
            _I64, _PTR, _PTR, _PTR,        # mode, assign, dispatch, servers
            _I64, _PTR, _PTR,              # service program: nterms, ops, par
            ctypes.c_double,               # service program: init
            _I64, ctypes.c_double, _I64,   # has_penalty, penalty, cap
            _PTR, _PTR, _PTR,              # waits, services, idles
            _PTR, _PTR, _PTR,              # out_cnt, idle_cnt, warmup_cnt
            _PTR, _PTR,                    # completion, qlen
            _PTR, _PTR, _I64,              # heap_t, heap_s, heap_cap
            _PTR, _PTR, _PTR, _PTR,        # sojourns, scratch_d, scratch_i, ctl
        ],
    ),
}

#: Compiler flags of every build.  No FMA contraction, so float
#: expressions round exactly as their interpreted counterparts do.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]


def _npyrandom_paths() -> tuple[Path, Path, Path]:
    """NumPy's include directory, Python's include directory, and
    ``libnpyrandom.a`` — located through the installed packages, so both
    the NumPy 1.x (``core``) and 2.x (``_core``) layouts resolve."""
    import numpy
    import numpy.random

    return (
        Path(numpy.get_include()),
        Path(sysconfig.get_path("include")),
        Path(numpy.random.__file__).parent / "lib" / "libnpyrandom.a",
    )


def _npyrandom_flags() -> list[str]:
    """Compile/link arguments for NumPy's sampler library, or ``[]`` when
    its headers or library are missing."""
    np_include, py_include, library = _npyrandom_paths()
    if not (
        (np_include / "numpy" / "random" / "distributions.h").is_file()
        and (py_include / "Python.h").is_file()
        and library.is_file()
    ):
        return []
    flags = [
        "-DRFP_HAVE_NPYRANDOM",
        f"-I{np_include}",
        f"-I{py_include}",
        str(library),
        "-lm",
    ]
    if sys.platform.startswith("linux"):
        # Keep the library's symbols local: exported, every call into and
        # within it would go through the PLT (~8% slower sampling).
        flags.append("-Wl,--exclude-libs,ALL")
    return flags


def _compiler() -> str | None:
    """The resolved path of ``$CC``, else of ``cc``, ``gcc`` or ``clang``."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        path = candidate and shutil.which(candidate)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_FASTPATH_CACHE")
    if override:
        return Path(override)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-fastpath-{uid}"


def _compile(cc: str, source: Path, out: Path, extra: list[str]) -> bool:
    out.parent.mkdir(parents=True, exist_ok=True)
    # Build into a private temp file, then atomically publish, so parallel
    # pool workers racing on a cold cache never load a half-written .so.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    cmd = [cc, *_CFLAGS, "-o", tmp, str(source), *extra]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
        if proc.returncode != 0:
            return False
        os.replace(tmp, out)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _load() -> ctypes.CDLL | None:
    try:
        source = _KERNEL_SRC.read_bytes()
    except OSError:
        return None
    import numpy

    cc = _compiler()
    if cc is None:
        return None
    extra = _npyrandom_flags()
    build = "\0".join([cc, numpy.__version__, *_CFLAGS, *extra]).encode()
    digest = hashlib.sha256(source + b"\0" + build).hexdigest()[:16]
    so_path = _cache_dir() / f"kernel-{digest}.so"
    try:
        if (
            not so_path.exists()
            and not _compile(cc, _KERNEL_SRC, so_path, extra)
            # A sampler library that will not link costs only the
            # service program and the cluster event loop, not the
            # whole kernel.
            and not (extra and _compile(cc, _KERNEL_SRC, so_path, []))
        ):
            return None
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        return None
    try:
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
    except AttributeError:
        # Stale .so missing an entry point (should be impossible with the
        # source-hash key, but never let it poison the reference path).
        return None
    for name, (restype, argtypes) in _OPTIONAL_SIGNATURES.items():
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = argtypes
    return lib


def load_kernel() -> ctypes.CDLL | None:
    """The loaded kernel library, or ``None`` when unavailable.

    Thread-safe and memoized (including negative results); failures are
    silent by design — callers treat ``None`` as "reference path only".
    """
    global _kernel
    if _kernel is _UNSET:
        with _lock:
            if _kernel is _UNSET:
                _kernel = _load()
    return _kernel  # type: ignore[return-value]


def service_program_kernel():
    """The kernel's ``rfp_service_program``, or ``None`` when the kernel
    or NumPy's sampler library is unavailable."""
    lib = load_kernel()
    return getattr(lib, "rfp_service_program", None) if lib is not None else None


def reset_for_tests() -> None:
    """Forget the memoized kernel so tests can exercise reload paths."""
    global _kernel
    with _lock:
        _kernel = _UNSET
