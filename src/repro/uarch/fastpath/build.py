"""Compile and load the fastpath C kernel.

The kernel ships as C source (``kernel.c``) and is compiled on first use
with whatever C compiler the host provides (``$CC``, ``cc``, ``gcc`` or
``clang``).  Build products are cached in a per-user directory keyed by a
hash of the source, so recompilation happens only when the kernel
changes.  Everything degrades gracefully: any failure (no compiler, no
writable cache dir, a broken toolchain) makes :func:`load_kernel` return
``None`` and the engines stay on the pure-Python reference path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
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
    "rfp_pcg64_raw": (None, [_PTR, _I64, _PTR]),
    "rfp_pcg64_doubles": (None, [_PTR, _I64, _PTR]),
    "rfp_pcg64_bounded": (None, [_PTR, _I64, _PTR, _PTR]),
    "rfp_pcg64_choice2": (None, [_PTR, _I64, _PTR]),
    "rfp_cluster_events": (
        _I64,
        [
            _PTR, _I64, _I64, _I64, _I64,  # epochs, n, warmup, fanout, n_servers
            _I64, _PTR, _PTR,              # mode, assign, pcg state words
            _I64, ctypes.c_double,         # has_penalty, penalty
            _PTR, _PTR, _I64,              # svc, svc_filled, cap
            _PTR, _PTR, _PTR,              # waits, services, idles
            _PTR, _PTR, _PTR,              # out_cnt, idle_cnt, warmup_cnt
            _PTR, _PTR,                    # completion, qlen
            _PTR, _PTR, _I64,              # heap_t, heap_s, heap_cap
            _PTR, _PTR, _PTR, _PTR,        # sojourns, scratch_d, scratch_i, ctl
        ],
    ),
}


def _compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_FASTPATH_CACHE")
    if override:
        return Path(override)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-fastpath-{uid}"


def _compile(source: Path, out: Path) -> bool:
    cc = _compiler()
    if cc is None:
        return False
    out.parent.mkdir(parents=True, exist_ok=True)
    # Build into a private temp file, then atomically publish, so parallel
    # pool workers racing on a cold cache never load a half-written .so.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    cmd = [cc, "-O2", "-fPIC", "-shared", "-o", tmp, str(source)]
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
    digest = hashlib.sha256(source).hexdigest()[:16]
    so_path = _cache_dir() / f"kernel-{digest}.so"
    try:
        if not so_path.exists() and not _compile(_KERNEL_SRC, so_path):
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


def reset_for_tests() -> None:
    """Forget the memoized kernel so tests can exercise reload paths."""
    global _kernel
    with _lock:
        _kernel = _UNSET
